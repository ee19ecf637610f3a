//! The dynamic worker pool: runtime spawn/retire of workers and their
//! slots in the routing snapshot (DESIGN.md §14).
//!
//! Before this module the worker set was fixed at open: `P2Kvs::open`
//! spawned `N` threads over a `Vec` of rings and nothing could change
//! the count afterwards. The pool makes the first dimension of the 2D
//! framework *resizable*: every component that addresses a worker by index
//! (submit paths, re-route, handoff markers, scans, backup markers)
//! resolves the ring through the routing snapshot
//! ([`crate::shard::ShardMap`]), whose ring slots the pool installs and
//! clears by publishing a successor, while the pool itself owns the
//! threads and their lifecycle.
//!
//! Two invariants make resizing safe with the one fence migrations
//! already use (DESIGN.md §9.2):
//!
//! - **A ring is closed only after nothing can push to it.** Retire
//!   drains the victim by migrating every shard it owns through the
//!   fenced handoff, publishes a snapshot with the slot cleared, and
//!   calls `epoch::synchronize()`: every push routed under a snapshot
//!   that still held the ring has finished, so closing it cannot fail
//!   a request.
//! - **A slot's ring is published before its thread starts.** By the
//!   time the balancer publishes a map that points a shard at the new
//!   worker, the same snapshot already carries its ring.
//!
//! Worker ids are *slot* indices and are reused: retiring worker 3 and
//! scaling back up revives slot 3 with a fresh ring and thread, keeping
//! per-worker metric labels dense. Retired slots keep their final
//! [`WorkerStats`] so counters stay visible (finalized, not frozen at a
//! stale gauge — the drain zeroes `shards_owned`/`scans_active` before
//! the thread exits).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use p2kvs_obs::{JournalKind, WorkerLifecycle};
use p2kvs_util::epoch;
use p2kvs_util::sync::Mutex;

use crate::engine::KvsEngine;
use crate::error::{Error, Result};
use crate::queue::RequestQueue;
use crate::worker::{ShardRuntime, WorkerConfig, WorkerHandle, WorkerStats};

/// Everything needed to spawn one more worker after open: the base
/// config (per-worker `core` and `io_queue` are derived, not stored), the
/// store's opening worker count for pinning, the device topology for home-queue
/// assignment, and the lifecycle factory that wires a new worker's
/// latency histograms into the shared registry.
pub struct SpawnSpec {
    /// Base worker config; `core` and `io_queue` are recomputed per
    /// worker id.
    pub config: WorkerConfig,
    /// The workers the store opens with (`P2KvsOptions::workers`).
    pub workers: usize,
    /// Submission queues the env exposes.
    pub device_queues: usize,
    /// Whether workers ride home device queues at all.
    pub queue_affinity: bool,
    /// Builds worker `w`'s metrics lifecycle (None when per-request
    /// metrics are off).
    pub lifecycle: Box<dyn Fn(usize) -> Option<WorkerLifecycle> + Send + Sync>,
}

impl SpawnSpec {
    /// Worker `w`'s home device submission queue — re-derived on every
    /// (re)spawn so the mapping stays `w % queues` as the pool resizes.
    pub fn io_queue(&self, w: usize) -> Option<usize> {
        (self.queue_affinity && self.device_queues > 1).then(|| w % self.device_queues)
    }

    /// The core worker `w` pins to, on this host ([`pin_core`]).
    pub fn core(&self, w: usize) -> Option<usize> {
        pin_core(w, self.workers, p2kvs_util::affinity::num_cpus())
    }
}

/// The core worker `w` of a store with at most `ceiling` workers pins to
/// on a host with `cpus` cores: core `w` when every worker the store may
/// run has a core of its own (§4.1, "a dedicated CPU core"), else none.
/// Pinning `w % cpus` instead would put two workers on one core as soon
/// as there are more workers than cores. A worker past the core count —
/// one a manual resize spawned beyond the ceiling — stays unpinned too.
pub fn pin_core(w: usize, ceiling: usize, cpus: usize) -> Option<usize> {
    (ceiling <= cpus && w < cpus).then_some(w)
}

/// One pool slot: a running worker, or the final counters of a retired
/// one (kept so the metrics series is finalized rather than vanishing).
enum Slot {
    Live(WorkerHandle),
    Retired(Arc<WorkerStats>),
}

/// The dynamic worker pool. All scale operations are serialized by the
/// store's migration lock; the pool's own mutex only protects the slot
/// vector against concurrent `snapshot()` readers.
pub struct WorkerPool {
    slots: Mutex<Vec<Slot>>,
    live: AtomicUsize,
    spec: SpawnSpec,
}

impl WorkerPool {
    pub fn new(spec: SpawnSpec) -> WorkerPool {
        WorkerPool {
            slots: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            spec,
        }
    }

    /// Spawns one worker into `runtime`: picks the lowest retired slot
    /// (or appends a new one), publishes a routing snapshot with a
    /// fresh ring installed *before* the thread starts, assigns the
    /// home device queue `w % queues`, and journals the `worker_spawn`
    /// record. Returns the worker id. The caller is the sole map writer
    /// (store open, or the balancer state lock).
    ///
    /// A revived slot inherits the retired incarnation's cumulative
    /// counters: the per-worker metric series stay monotonic across
    /// respawns (Prometheus counters never reset mid-series) and the
    /// store-wide sums conserve every op a dead thread completed. Only
    /// the gauges start from zero — the drain already zeroed
    /// `shards_owned`/`scans_active` before the old thread exited.
    pub(crate) fn spawn_into<E: KvsEngine>(&self, runtime: &Arc<ShardRuntime<E>>) -> usize {
        let mut slots = self.slots.lock();
        let w = slots
            .iter()
            .position(|s| matches!(s, Slot::Retired(_)))
            .unwrap_or(slots.len());
        let ring = Arc::new(RequestQueue::new());
        let next = runtime.map.pin().with_ring(w, Some(ring.clone()));
        runtime.map.publish(next);
        let config = WorkerConfig {
            core: self.spec.core(w),
            io_queue: self.spec.io_queue(w),
            ..self.spec.config
        };
        let lifecycle = (self.spec.lifecycle)(w);
        let handle = WorkerHandle::spawn_in(w, w, runtime.clone(), ring, config, lifecycle);
        if w == slots.len() {
            slots.push(Slot::Live(handle));
        } else {
            if let Slot::Retired(old) = &slots[w] {
                carry_counters(old, &handle.stats);
            }
            slots[w] = Slot::Live(handle);
        }
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(j) = runtime.journal.as_deref() {
            let homeq = self.spec.io_queue(w).map(|q| q as u64 + 1).unwrap_or(0);
            j.record(JournalKind::WorkerSpawn, w as u64, live as u64, homeq, 0);
        }
        w
    }

    /// Retires worker `w` after its drain: publishes a snapshot with
    /// the slot cleared (new pushes bounce), waits out every push routed
    /// under an older one, closes the ring, joins the thread, and
    /// journals the `worker_retire` record with how many shards the
    /// drain migrated off it. The caller holds the balancer state lock
    /// and must already have migrated every shard away — the pool
    /// asserts nothing; an undrained retire would fail that worker's
    /// queued requests with `Closed` at join.
    pub(crate) fn retire<E>(
        &self,
        w: usize,
        drained: u64,
        runtime: &ShardRuntime<E>,
    ) -> Result<()> {
        let mut slots = self.slots.lock();
        let stats = match slots.get(w) {
            Some(Slot::Live(h)) => h.stats.clone(),
            _ => {
                return Err(Error::Config(format!(
                    "worker {w} is not live and cannot be retired"
                )))
            }
        };
        let old = std::mem::replace(&mut slots[w], Slot::Retired(stats));
        // Joining can execute a drain's worth of requests; don't hold
        // the slot lock (metric readers sample it) across it.
        drop(slots);
        let next = runtime.map.pin().with_ring(w, None);
        runtime.map.publish(next);
        epoch::synchronize();
        if let Slot::Live(mut h) = old {
            h.shutdown();
        }
        let live = self.live.fetch_sub(1, Ordering::Relaxed) - 1;
        if let Some(j) = runtime.journal.as_deref() {
            j.record(JournalKind::WorkerRetire, w as u64, live as u64, drained, 0);
        }
        Ok(())
    }

    /// Number of live workers.
    pub fn live_count(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Live worker ids, ascending.
    pub fn live_ids(&self) -> Vec<usize> {
        self.slots
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, Slot::Live(_)).then_some(i))
            .collect()
    }

    /// Every slot's counters plus liveness, by slot index — the metrics
    /// and snapshot walk. Retired slots expose their final values.
    pub fn slots_view(&self) -> Vec<(Arc<WorkerStats>, bool)> {
        self.slots
            .lock()
            .iter()
            .map(|s| match s {
                Slot::Live(h) => (h.stats.clone(), true),
                Slot::Retired(stats) => (stats.clone(), false),
            })
            .collect()
    }

    /// Store close: shuts every live worker down in slot order (close
    /// the ring, join the thread — each drains its pending requests).
    /// Slots stay `Live` so final counters remain readable; only the
    /// threads are gone.
    pub fn shutdown_all(&self) {
        let mut slots = self.slots.lock();
        for s in slots.iter_mut() {
            if let Slot::Live(h) = s {
                h.shutdown();
            }
        }
    }
}

/// Seeds a revived slot's stats with the retired incarnation's final
/// counters. The old thread is gone (no concurrent writers on `old`)
/// and the new thread may already be running, so each value rides in
/// via `fetch_add` on the live atomics. Gauges are excluded: ownership
/// and parked-cursor counts describe the new thread only.
fn carry_counters(old: &WorkerStats, new: &WorkerStats) {
    use std::sync::atomic::AtomicU64;
    let carry = |from: &AtomicU64, to: &AtomicU64| {
        to.fetch_add(from.load(Ordering::Relaxed), Ordering::Relaxed);
    };
    carry(&old.ops, &new.ops);
    carry(&old.batches, &new.batches);
    carry(&old.merged_ops, &new.merged_ops);
    carry(&old.scans_opened, &new.scans_opened);
    carry(&old.scan_chunks, &new.scan_chunks);
    carry(&old.scan_resumes, &new.scan_resumes);
    carry(&old.handoffs_out, &new.handoffs_out);
    carry(&old.handoffs_in, &new.handoffs_in);
    carry(&old.stashed, &new.stashed);
    carry(&old.rerouted, &new.rerouted);
    carry(&old.parks, &new.parks);
    carry(&old.io_overlap_saved_ns, &new.io_overlap_saved_ns);
    new.busy.add(old.busy.busy());
}

#[cfg(test)]
mod tests {
    use super::pin_core;

    #[test]
    fn pinning_gives_each_worker_its_own_core_or_none() {
        for cpus in 1..=16 {
            for ceiling in 1..=16 {
                let cores: Vec<Option<usize>> =
                    (0..16).map(|w| pin_core(w, ceiling, cpus)).collect();
                for (w, core) in cores.iter().enumerate() {
                    match core {
                        Some(c) => {
                            assert!(ceiling <= cpus, "{ceiling} workers on {cpus} cores pin");
                            assert_eq!(*c, w, "worker {w} pins to its own core");
                            assert!(*c < cpus, "core {c} exists on {cpus} cores");
                        }
                        None => assert!(ceiling > cpus || w >= cpus, "worker {w} left unpinned"),
                    }
                }
                let mut pinned: Vec<usize> = cores.iter().flatten().copied().collect();
                let n = pinned.len();
                pinned.sort_unstable();
                pinned.dedup();
                assert_eq!(pinned.len(), n, "two workers share a core: {cores:?}");
            }
        }
    }
}

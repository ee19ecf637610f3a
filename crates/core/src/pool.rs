//! The dynamic worker pool: runtime spawn/retire over a shared queue
//! table (DESIGN.md §14).
//!
//! Before this module the worker set was fixed at open: `P2Kvs::open`
//! spawned `N` threads over a `Vec` of rings and nothing could change
//! the count afterwards. The pool makes the first dimension of the 2D
//! framework *elastic*: every component that addresses a worker by index
//! (submit paths, re-route, handoff installs, scans, backup markers)
//! goes through the [`QueueTable`], whose slots can be installed and
//! cleared at runtime, while the pool itself owns the threads and their
//! lifecycle.
//!
//! Two invariants make resizing safe without a new fence:
//!
//! - **A ring is closed only after its worker owns nothing.** Retire
//!   drains the victim by migrating every shard it owns through the
//!   existing epoch-fenced handoff; each migration's publish+quiesce
//!   guarantees no submit path can still push to the victim under the
//!   old map (the store holds its map pin *across* the push). Once the
//!   last handoff settles, nothing new can target the ring, so closing
//!   it cannot fail a request.
//! - **A slot's ring is installed before its thread starts.** Scale-up
//!   puts a fresh ring in the table first, so by the time the balancer
//!   publishes a map that points at the new worker, pushes to it
//!   already land.
//!
//! Worker ids are *slot* indices and are reused: retiring worker 3 and
//! scaling back up revives slot 3 with a fresh ring and thread, keeping
//! per-worker metric labels dense. Retired slots keep their final
//! [`WorkerStats`] so counters stay visible (finalized, not frozen at a
//! stale gauge — the drain zeroes `shards_owned`/`scans_active` before
//! the thread exits).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use p2kvs_obs::{Journal, JournalKind, WorkerLifecycle};
use parking_lot::{Mutex, RwLock};

use crate::engine::KvsEngine;
use crate::error::{Error, Result};
use crate::queue::RequestQueue;
use crate::types::Request;
use crate::worker::{ShardRuntime, WorkerConfig, WorkerHandle, WorkerStats};

/// The live `worker id → request ring` directory. Every path that
/// pushes to a worker resolves the ring through here, so spawning and
/// retiring workers is a slot write — no component holds a stale ring
/// for a worker that no longer exists.
pub struct QueueTable {
    slots: RwLock<Vec<Option<Arc<RequestQueue>>>>,
}

impl QueueTable {
    /// A table whose slots are the given rings (the standalone-worker
    /// constructor; the store starts empty and lets the pool install).
    pub fn new(queues: Vec<Arc<RequestQueue>>) -> QueueTable {
        QueueTable {
            slots: RwLock::new(queues.into_iter().map(Some).collect()),
        }
    }

    /// The ring of worker `w`, if the slot is live.
    pub fn get(&self, w: usize) -> Option<Arc<RequestQueue>> {
        self.slots.read().get(w).and_then(|s| s.clone())
    }

    /// Pushes to worker `w`'s ring. Hands the request back (like
    /// [`RequestQueue::push`] on a closed ring) when the slot is
    /// retired, so callers treat a vanished worker exactly like a
    /// closed queue. The ring `Arc` is cloned out before the (possibly
    /// blocking, backpressured) push so a table write never waits on a
    /// full ring.
    pub fn push_to(&self, w: usize, req: Request) -> std::result::Result<(), Request> {
        match self.get(w) {
            Some(q) => q.push(req),
            None => Err(req),
        }
    }

    /// Queued requests on worker `w`'s ring (0 for retired slots).
    pub fn len_of(&self, w: usize) -> usize {
        self.get(w).map(|q| q.len()).unwrap_or(0)
    }

    /// Number of slots ever provisioned (live + retired).
    pub fn slot_count(&self) -> usize {
        self.slots.read().len()
    }

    /// Installs `queue` as slot `w`'s ring, growing the table if needed.
    fn install(&self, w: usize, queue: Arc<RequestQueue>) {
        let mut slots = self.slots.write();
        if w >= slots.len() {
            slots.resize(w + 1, None);
        }
        slots[w] = Some(queue);
    }

    /// Clears slot `w` (retire): subsequent pushes hand the request
    /// back instead of reaching a ring that is about to close.
    fn clear(&self, w: usize) {
        let mut slots = self.slots.write();
        if w < slots.len() {
            slots[w] = None;
        }
    }
}

/// Everything needed to spawn one more worker after open: the base
/// config (per-worker `io_queue` is derived, not stored), the device
/// topology for home-queue assignment, and the lifecycle factory that
/// wires a new worker's latency histograms into the shared registry.
pub struct SpawnSpec {
    /// Base worker config; `io_queue` is recomputed per worker id.
    pub config: WorkerConfig,
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
}

/// One pool slot: a running worker, or the final counters of a retired
/// one (kept so the metrics series is finalized rather than vanishing).
enum Slot {
    Live(WorkerHandle),
    Retired(Arc<WorkerStats>),
}

/// The dynamic worker pool. All scale operations are serialized by the
/// store's migration lock; the pool's own mutex only protects the slot
/// vector against concurrent metric/introspection readers.
pub struct WorkerPool {
    queues: Arc<QueueTable>,
    slots: Mutex<Vec<Slot>>,
    live: AtomicUsize,
    spec: SpawnSpec,
}

impl WorkerPool {
    pub fn new(queues: Arc<QueueTable>, spec: SpawnSpec) -> WorkerPool {
        WorkerPool {
            queues,
            slots: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            spec,
        }
    }

    /// Spawns one worker into `runtime`: picks the lowest retired slot
    /// (or appends a new one), installs a fresh ring in the queue table
    /// *before* the thread starts, assigns the home device queue
    /// `w % queues`, and journals the `worker_spawn` record. Returns
    /// the worker id.
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
        let ring = Arc::new(RequestQueue::with_capacity(self.spec.config.queue_capacity));
        self.queues.install(w, ring);
        let config = WorkerConfig {
            io_queue: self.spec.io_queue(w),
            ..self.spec.config
        };
        let lifecycle = (self.spec.lifecycle)(w);
        let handle = WorkerHandle::spawn_in(w, runtime.clone(), config, lifecycle);
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

    /// Retires worker `w` after its drain: clears the table slot (new
    /// pushes bounce), closes the ring, joins the thread, and journals
    /// the `worker_retire` record with how many shards the drain
    /// migrated off it. The caller must already have migrated every
    /// shard away — the pool asserts nothing; an undrained retire would
    /// fail that worker's queued requests with `Closed` at join.
    pub fn retire(&self, w: usize, drained: u64, journal: Option<&Journal>) -> Result<()> {
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
        self.queues.clear(w);
        if let Slot::Live(mut h) = old {
            h.shutdown();
        }
        let live = self.live.fetch_sub(1, Ordering::Relaxed) - 1;
        if let Some(j) = journal {
            j.record(JournalKind::WorkerRetire, w as u64, live as u64, drained, 0);
        }
        Ok(())
    }

    /// Number of live workers.
    pub fn live_count(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Number of slots ever provisioned (live + retired).
    pub fn slot_count(&self) -> usize {
        self.slots.lock().len()
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

    /// Whether slot `w` currently runs a worker.
    pub fn is_live(&self, w: usize) -> bool {
        matches!(self.slots.lock().get(w), Some(Slot::Live(_)))
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

    /// Worker `w`'s counters, live or retired.
    pub fn stats_of(&self, w: usize) -> Option<Arc<WorkerStats>> {
        self.slots.lock().get(w).map(|s| match s {
            Slot::Live(h) => h.stats.clone(),
            Slot::Retired(stats) => stats.clone(),
        })
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
    new.busy.add(old.busy.busy());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_table_slots_install_clear_and_grow() {
        let t = QueueTable::new(vec![Arc::new(RequestQueue::with_capacity(8))]);
        assert_eq!(t.slot_count(), 1);
        assert!(t.get(0).is_some());
        assert!(t.get(1).is_none(), "out of range reads as retired");
        t.install(3, Arc::new(RequestQueue::with_capacity(8)));
        assert_eq!(t.slot_count(), 4, "install grows the table");
        assert!(t.get(1).is_none() && t.get(2).is_none());
        assert!(t.get(3).is_some());
        t.clear(3);
        assert!(t.get(3).is_none());
        assert_eq!(t.slot_count(), 4, "clear keeps the slot");
        assert_eq!(t.len_of(3), 0, "retired slot reads depth 0");
    }

    #[test]
    fn push_to_a_cleared_slot_hands_the_request_back() {
        let t = QueueTable::new(vec![Arc::new(RequestQueue::with_capacity(8))]);
        t.clear(0);
        let req = Request::asynchronous(crate::types::Op::Get { key: b"k".to_vec() }, Box::new(|_| {}));
        let back = t.push_to(0, req);
        assert!(back.is_err(), "cleared slot behaves like a closed ring");
        back.unwrap_err().finish_err(&Error::Closed);
    }
}

//! The p2KVS store: accessing layer + shard map + workers + transactions.
//!
//! Since the two-level refactor (DESIGN.md §9) the store opens `S`
//! virtual shards — engine instances with their own WAL/MemTable —
//! behind `N` workers. Keys route `key → shard` through the
//! [`Partitioner`] and `shard → worker` through the live, epoch-stamped
//! [`crate::shard::ShardMap`]; the optional background balancer migrates
//! shard *ownership* (queue redirection, never data) when per-shard load
//! skews. `shards == workers` with the balancer off reproduces the
//! paper's static one-instance-per-worker layout exactly.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2kvs_obs::{
    labeled, parse_journal, Journal, JournalKind, JournalRecord, MetricsRegistry, MetricsSnapshot,
    PeriodicTask, SpanKind, SpanRecord, SpanRing, TraceCtx, WorkerLifecycle,
};
use p2kvs_util::epoch;

use crate::balance::{plan_moves, BalancePolicy, ScalePolicy};
use crate::engine::{EngineEvent, EngineFactory, GsnFilter, KvsEngine};
use crate::error::{Error, Result};
use crate::pool::{SpawnSpec, WorkerPool};
use crate::scan::StoreIter;
use crate::shard::{HashPartitioner, MapCell, Partitioner, ShardMap};
use crate::stats::{ShardSnapshot, StoreSnapshot, WorkerSnapshot};
use crate::txn::TxnManager;
use crate::types::{Op, Request, Response, WriteOp};
use crate::worker::ShardRuntime;

/// Ops per engine `write_batch` call while loading a restored backup.
const RESTORE_BATCH: usize = 256;

/// Framework configuration.
#[derive(Clone)]
pub struct P2KvsOptions {
    /// Number of worker threads (the paper defaults to 8).
    pub workers: usize,
    /// Number of virtual shards (engine instances, each with its own
    /// WAL/MemTable). `0` means auto: `4 × workers` when no custom
    /// partitioner is supplied, else the partitioner's `partitions()`.
    /// The count is baked into the on-disk layout (`instance-{s}`
    /// directories) — reopen an existing store with the same value.
    pub shards: usize,
    /// Custom `key → shard` routing. `None` uses `Hash(key) % shards`.
    /// `partitions()` must equal the shard count or `open` rejects the
    /// configuration.
    pub partitioner: Option<Arc<dyn Partitioner>>,
    /// When set, a background balancer samples per-shard service time at
    /// this interval and migrates shard ownership off overloaded workers
    /// (the skew-aware rebalancer, DESIGN.md §9). `None` keeps the
    /// initial round-robin assignment forever.
    pub balance_interval: Option<Duration>,
    /// Tunables for the rebalancing decision.
    pub balance: BalancePolicy,
    /// OBM batch bound `M` (32 in the paper); 1 switches OBM off.
    pub batch_max: usize,
    /// Pin worker threads to cores.
    pub pin_workers: bool,
    /// Hard per-chunk entry bound enforced by every worker: no scan
    /// occupies a worker for more than this many entries before queued
    /// point ops get their turn. `usize::MAX` lets one dequeue serve a
    /// whole scan.
    pub scan_chunk_entries: usize,
    /// Hard per-chunk payload-byte bound (same clamping).
    pub scan_chunk_bytes: usize,
    /// Record per-request queue-wait/service latencies into the metrics
    /// registry and keep the spans of slow groups (the registry itself
    /// always exists; this gates the per-request recording).
    pub metrics: bool,
    /// Tail sampling: a group whose slowest request (queue wait +
    /// service) reaches this always leaves its `queue_wait` +
    /// `obm_batch` spans in the span ring, head-sampled or not, and
    /// counts in `p2kvs_slow_requests_total`.
    pub slow_request_threshold: Duration,
    /// Head sampling rate: one in `trace_sample` requests carries a
    /// trace id from enqueue through the worker, the engine call, and
    /// device I/O, leaving a completed span tree in the span ring (see
    /// [`P2Kvs::export_trace`]). `0` switches head sampling off (slow
    /// groups are still kept, see `slow_request_threshold`); sampled
    /// requests cost a handful of clock reads, the rest pay one branch.
    pub trace_sample: u64,
    /// Whether the flight recorder runs: a monotonically sequenced
    /// journal of control-plane events (handoffs, balancer moves,
    /// flush/compaction, fault firings, scan lifecycle) persisted to
    /// `FLIGHT.log` under the store directory and recovered — gap-free —
    /// across restarts and crashes. Independent of `metrics`: the
    /// recorder documents *what the store did*, not how fast.
    pub flight_recorder: bool,
    /// Byte budget of the lock-free hot-record read cache consulted in
    /// [`P2Kvs::get`]/[`P2Kvs::get_many`] before any queue submit
    /// (DESIGN.md §11). `0` disables the cache entirely —
    /// [`P2KvsOptions::paper_layout`] does so to keep the paper's exact
    /// request path. The cache is volatile (recovery comes up cold) and
    /// coherent: writes invalidate before they are acked, and shard
    /// migrations flush the moving shard's entries.
    pub cache_capacity: usize,
    /// Map workers and shards onto the env's device submission queues
    /// (DESIGN.md §13). When the env exposes more than one queue
    /// (`SimEnv` with [`p2kvs_storage::DeviceProfile::with_queues`]),
    /// worker `i` issues its engine I/O on queue `i % queues` and shard
    /// `s`'s WAL/flush rides its initial owner's queue, so independent
    /// workers stop serializing behind one device timeline. `false` (or
    /// a single-queue env) keeps file-hash striping.
    pub queue_affinity: bool,
    /// Utilization-driven elastic scaling (DESIGN.md §14). When set,
    /// every balancer tick also compares the interval's aggregate
    /// busy time against the live pool at
    /// [`ScalePolicy::target_util`] and steps the pool one worker
    /// toward the derived size — spawning with a fresh ring, or
    /// draining the highest-id worker through the epoch-fenced handoff
    /// and joining it. Scaling rides the balancer clock: it needs
    /// `balance_interval` (or explicit [`P2Kvs::rebalance_once`]
    /// calls) to tick. `None` (the default, and always the paper
    /// layout) pins the pool at `workers` forever; manual
    /// [`P2Kvs::scale_workers`] remains available either way.
    pub scale: Option<ScalePolicy>,
}

impl Default for P2KvsOptions {
    fn default() -> Self {
        P2KvsOptions {
            workers: 8,
            shards: 0,
            partitioner: None,
            balance_interval: None,
            balance: BalancePolicy::default(),
            batch_max: 32,
            pin_workers: true,
            scan_chunk_entries: crate::worker::DEFAULT_SCAN_CHUNK_ENTRIES,
            scan_chunk_bytes: crate::worker::DEFAULT_SCAN_CHUNK_BYTES,
            metrics: true,
            slow_request_threshold: Duration::from_millis(1),
            trace_sample: 64,
            flight_recorder: true,
            cache_capacity: 16 << 20,
            queue_affinity: true,
            scale: None,
        }
    }
}

std::thread_local! {
    /// Set while the flight recorder's sink is appending to `FLIGHT.log`.
    /// The journal's own I/O flows through the same (possibly
    /// fault-injecting) env as everything else, so a fault fired *by a
    /// journal append* must not be journaled: the fault hook would
    /// re-enter the sink on the same thread and deadlock on its locks.
    static IN_JOURNAL_SINK: Cell<bool> = const { Cell::new(false) };
}

impl P2KvsOptions {
    /// Convenience: `n` workers, everything else default (so `4n`
    /// shards and no balancer).
    pub fn with_workers(n: usize) -> P2KvsOptions {
        P2KvsOptions {
            workers: n,
            ..P2KvsOptions::default()
        }
    }

    /// The paper's static layout: `n` workers, exactly one shard per
    /// worker, balancer off. The shard map is the identity and stays
    /// that way — byte-for-byte the pre-refactor behavior. One departure
    /// from §4.4: the paper's SCAN asks every instance for all `count`
    /// entries and filters; here each is asked for its share plus a
    /// margin and refilled exactly (`P2Kvs::scan`).
    pub fn paper_layout(n: usize) -> P2KvsOptions {
        P2KvsOptions {
            workers: n,
            shards: n.max(1),
            // The paper has no client-side cache: every GET takes the
            // queue→worker→engine path, so the layout stays comparable.
            cache_capacity: 0,
            ..P2KvsOptions::default()
        }
    }
}

/// Everything the statistics and metrics exposition needs.
struct ObsShared<E: KvsEngine> {
    registry: Arc<MetricsRegistry>,
    runtime: Arc<ShardRuntime<E>>,
    pool: Arc<WorkerPool>,
    opened: Instant,
}

impl<E: KvsEngine> ObsShared<E> {
    /// The one place the worker and shard atomics are read.
    /// [`P2Kvs::snapshot`] returns this as is; the registry series
    /// ([`ObsShared::render`]) and [`P2Kvs::introspect`]'s worker views
    /// are rendered from it, so the three can never disagree about a
    /// counter they share.
    fn read(&self) -> StoreSnapshot {
        let ordering = Ordering::Relaxed;
        // Copied out, not held: the pool's slot lock is taken below.
        let map = self.runtime.map.pin().clone();
        StoreSnapshot {
            // Every slot the pool ever provisioned: retired slots keep
            // their final counters, so scraped series end at their true
            // values instead of freezing mid-interval or vanishing.
            workers: self
                .pool
                .slots_view()
                .into_iter()
                .enumerate()
                .map(|(i, (stats, live))| WorkerSnapshot {
                    ops: stats.ops.load(ordering),
                    batches: stats.batches.load(ordering),
                    merged_ops: stats.merged_ops.load(ordering),
                    scans: stats.scans_opened.load(ordering),
                    scan_chunks: stats.scan_chunks.load(ordering),
                    scan_resumes: stats.scan_resumes.load(ordering),
                    active_scans: stats.scans_active.load(ordering),
                    shards_owned: stats.shards_owned.load(ordering),
                    handoffs_out: stats.handoffs_out.load(ordering),
                    handoffs_in: stats.handoffs_in.load(ordering),
                    stashed: stats.stashed.load(ordering),
                    rerouted: stats.rerouted.load(ordering),
                    parks: stats.parks.load(ordering),
                    busy: stats.busy.busy(),
                    io_overlap_saved: Duration::from_nanos(
                        stats.io_overlap_saved_ns.load(ordering),
                    ),
                    // The ring's relaxed atomic counter — sampling never
                    // locks or contends with the data path. A retired
                    // slot reads 0: its ring is gone.
                    queue_depth: map.depth_of(i),
                    live,
                })
                .collect(),
            shards: self
                .runtime
                .shard_stats
                .iter()
                .map(|s| ShardSnapshot {
                    ops: s.ops.load(ordering),
                    busy: Duration::from_nanos(s.busy_ns.load(ordering)),
                    owner: s.owner.load(ordering),
                })
                .collect(),
            migrations: self.runtime.migrations.load(ordering),
            waiter_parks: self.runtime.map.waiter_parks.load(ordering),
            uptime: self.opened.elapsed(),
            mem_usage: self.runtime.engines.iter().map(|e| e.mem_usage()).sum(),
        }
    }

    /// Mirrors `stats` and everything else that is not recorded inline —
    /// engine-internal metrics, device counters, the obs subsystems' own
    /// state — into the registry, then snapshots it.
    fn render(&self, stats: &StoreSnapshot) -> MetricsSnapshot {
        let reg = &self.registry;
        for (i, w) in stats.workers.iter().enumerate() {
            let id = i.to_string();
            let l = |base: &str| labeled(base, &[("worker", &id)]);
            reg.counter(&l("p2kvs_worker_ops_total")).store(w.ops);
            reg.counter(&l("p2kvs_worker_batches_total"))
                .store(w.batches);
            reg.counter(&l("p2kvs_worker_merged_ops_total"))
                .store(w.merged_ops);
            reg.counter(&l("p2kvs_worker_scans_total")).store(w.scans);
            reg.counter(&l("p2kvs_worker_scan_chunks_total"))
                .store(w.scan_chunks);
            reg.counter(&l("p2kvs_worker_scan_resumes_total"))
                .store(w.scan_resumes);
            reg.counter(&l("p2kvs_worker_handoffs_out_total"))
                .store(w.handoffs_out);
            reg.counter(&l("p2kvs_worker_handoffs_in_total"))
                .store(w.handoffs_in);
            reg.counter(&l("p2kvs_worker_stashed_total"))
                .store(w.stashed);
            reg.counter(&l("p2kvs_worker_rerouted_total"))
                .store(w.rerouted);
            reg.counter(&l("p2kvs_worker_parks_total")).store(w.parks);
            reg.set_gauge(&l("p2kvs_active_scans"), w.active_scans as f64);
            reg.set_gauge(&l("p2kvs_shards_owned"), w.shards_owned as f64);
            reg.set_gauge(&l("p2kvs_worker_busy_seconds"), w.busy.as_secs_f64());
            reg.set_gauge(
                &l("p2kvs_worker_io_overlap_saved_seconds_total"),
                w.io_overlap_saved.as_secs_f64(),
            );
            reg.set_gauge(&l("p2kvs_queue_depth"), w.queue_depth as f64);
            reg.set_gauge(&l("p2kvs_worker_live"), if w.live { 1.0 } else { 0.0 });
        }
        for (s, shard) in stats.shards.iter().enumerate() {
            let sh = s.to_string();
            let l = |base: &str| labeled(base, &[("shard", &sh)]);
            reg.counter(&l("p2kvs_shard_ops_total")).store(shard.ops);
            reg.set_gauge(&l("p2kvs_shard_busy_seconds"), shard.busy.as_secs_f64());
            reg.set_gauge(&l("p2kvs_shard_owner"), shard.owner as f64);
        }
        for (i, engine) in self.runtime.engines.iter().enumerate() {
            let inst = i.to_string();
            for (name, value) in engine.engine_metrics() {
                reg.set_gauge(&labeled(&name, &[("instance", &inst)]), value);
            }
        }
        let live = stats.workers.iter().filter(|w| w.live).count();
        reg.set_gauge("p2kvs_workers", live as f64);
        reg.set_gauge("p2kvs_shards", stats.shards.len() as f64);
        reg.set_gauge("p2kvs_map_epoch", self.runtime.map.epoch() as f64);
        reg.counter("p2kvs_migrations_total")
            .store(stats.migrations);
        reg.counter("p2kvs_waiter_parks_total")
            .store(stats.waiter_parks);
        reg.counter("p2kvs_handoffs_aborted_total")
            .store(self.runtime.handoffs_aborted.load(Ordering::Relaxed));
        reg.set_gauge("p2kvs_uptime_seconds", stats.uptime.as_secs_f64());
        reg.set_gauge("p2kvs_mem_usage_bytes", stats.mem_usage as f64);
        // Device-level counters mirrored from the storage env, so the
        // whole stack — framework, engines, device — reads out of one
        // registry (and one Prometheus scrape).
        if let Some(env) = &self.runtime.env {
            let io = env.io_stats();
            reg.counter("p2kvs_device_bytes_written_total")
                .store(io.bytes_written);
            reg.counter("p2kvs_device_bytes_read_total")
                .store(io.bytes_read);
            reg.counter("p2kvs_device_write_ops_total").store(io.write_ops);
            reg.counter("p2kvs_device_read_ops_total").store(io.read_ops);
            reg.counter("p2kvs_device_syncs_total").store(io.syncs);
            reg.counter("p2kvs_device_wal_bytes_total").store(io.wal_bytes);
            reg.counter("p2kvs_device_flush_bytes_total")
                .store(io.flush_bytes);
            reg.counter("p2kvs_device_compaction_bytes_total")
                .store(io.compaction_bytes);
            reg.set_gauge("p2kvs_device_busy_seconds", io.busy_ns as f64 / 1e9);
            if let Some(u) = env.device_utilization() {
                reg.set_gauge("p2kvs_device_utilization", u);
            }
            // Per-submission-queue breakdown (multi-queue envs only):
            // `p2kvs_device_q{q}_*` shows whether queue affinity actually
            // spread WAL/flush/compaction traffic or one queue hogs the
            // device (DESIGN.md §13).
            let queues = env.queue_count();
            if queues > 1 {
                for (q, qs) in io.queues.iter().enumerate().take(queues) {
                    reg.counter(&format!("p2kvs_device_q{q}_bytes_written_total"))
                        .store(qs.bytes_written);
                    reg.counter(&format!("p2kvs_device_q{q}_bytes_read_total"))
                        .store(qs.bytes_read);
                    reg.counter(&format!("p2kvs_device_q{q}_syncs_total"))
                        .store(qs.syncs);
                    reg.set_gauge(
                        &format!("p2kvs_device_q{q}_busy_seconds"),
                        qs.busy_ns as f64 / 1e9,
                    );
                }
            }
        }
        reg.counter("p2kvs_trace_spans_total")
            .store(self.runtime.spans.total_recorded());
        if let Some(j) = &self.runtime.journal {
            reg.counter("p2kvs_flight_records_total")
                .store(j.last_seq());
        }
        if let Some(c) = &self.runtime.cache {
            let s = c.counters();
            reg.counter("p2kvs_cache_hits").store(s.hits);
            reg.counter("p2kvs_cache_misses").store(s.misses);
            reg.counter("p2kvs_cache_fills").store(s.fills);
            reg.counter("p2kvs_cache_evictions").store(s.evictions);
            reg.counter("p2kvs_cache_invalidations").store(s.invalidations);
            reg.set_gauge("p2kvs_cache_bytes", s.bytes as f64);
        }
        reg.snapshot()
    }
}

/// State shared between the public migration API and the background
/// balancer tick. The mutex is the store's one *writer* lock: it
/// serializes everything that publishes a routing snapshot (migrations,
/// pool resizes) and the backup freeze against them — one fence and one
/// handoff in flight at a time.
struct BalanceShared<E: KvsEngine> {
    runtime: Arc<ShardRuntime<E>>,
    pool: Arc<WorkerPool>,
    policy: BalancePolicy,
    scale: Option<ScalePolicy>,
    state: p2kvs_util::sync::Mutex<BalanceState>,
    /// The previous cumulative per-shard busy-time sample, so each tick
    /// rebalances on the load of the *last interval*, not all of
    /// history. Written only under `state`; atomics so `introspect`
    /// reads it without queueing behind a migration.
    last_busy_ns: Vec<AtomicU64>,
}

/// The balancer's memory between ticks.
struct BalanceState {
    /// When the previous tick ran — the wall interval the scale
    /// decision normalizes busy time against. `None` before the first
    /// tick (which only baselines).
    last_tick: Option<Instant>,
    /// Ticks to sit out before the next scale operation may fire.
    cooldown_left: u32,
}

/// Migrates ownership of `shard` to `target` through the epoch-fenced
/// handoff. Caller must hold the [`BalanceShared::state`] lock.
///
/// Protocol (DESIGN.md §9.3): publish the successor map →
/// `epoch::synchronize()` (after which no old-epoch push can still be in
/// flight) → `HandoffOut` to the source worker (provably behind every
/// old-epoch request for the shard), which leaves the shard's cursors in
/// the handoff slot → `ShardInstall` to the target, which adopts them and
/// replays what it stashed. Each marker is awaited like any request.
pub(crate) fn migrate_locked<E: KvsEngine>(
    rt: &ShardRuntime<E>,
    shard: usize,
    target: usize,
) -> Result<()> {
    let (source, next) = {
        let map = rt.map.pin();
        if shard >= map.shards() {
            return Err(Error::Config(format!(
                "shard {shard} out of range: the store has {} shards",
                map.shards()
            )));
        }
        if map.ring(target).is_none() {
            return Err(Error::Config(format!(
                "worker {target} is not live (the pool has {} slots)",
                map.slot_count()
            )));
        }
        let source = map.owner(shard);
        if source == target {
            return Ok(());
        }
        (source, map.with_owner(shard, target))
    };
    rt.map.publish(next);
    epoch::synchronize();
    let shard = shard as u64;
    let marker = |worker: usize, op: Op| {
        let (req, done) = Request::sync(op);
        rt.map
            .send_to(worker, req.on_shard(shard))
            .map_err(|_| Error::Closed)?;
        done.wait_counting(&rt.map.waiter_parks)
    };
    let moved = marker(source, Op::HandoffOut { shard })
        .and_then(|_| marker(target, Op::ShardInstall { shard }));
    let outcome = match moved {
        Ok(_) => &rt.migrations,
        Err(_) => &rt.handoffs_aborted,
    };
    outcome.fetch_add(1, Ordering::Relaxed);
    moved.map(|_| ())
}

/// One balancer tick: sample per-shard busy time, difference against the
/// previous sample, plan moves, execute them, then (with a
/// [`ScalePolicy`] configured) step the pool one worker toward the size
/// the interval's utilization calls for. Returns how many migrations
/// were applied.
fn rebalance_tick<E: KvsEngine>(b: &BalanceShared<E>) -> Result<usize> {
    let mut st = b.state.lock();
    let rt = &b.runtime;
    let now = Instant::now();
    let interval_ns = st
        .last_tick
        .map(|t| now.duration_since(t).as_nanos().min(u128::from(u64::MAX)) as u64);
    st.last_tick = Some(now);
    let delta: Vec<u64> = rt
        .shard_stats
        .iter()
        .zip(&b.last_busy_ns)
        .map(|(s, last)| {
            let now = s.busy_ns.load(Ordering::Relaxed);
            now.saturating_sub(last.swap(now, Ordering::Relaxed))
        })
        .collect();
    let live = b.pool.live_ids();
    let map = rt.map.pin().clone();
    let moves = plan_moves(&map, &live, &delta, &b.policy);
    let mut applied = 0;
    for (shard, target) in moves {
        migrate_locked(rt, shard, target)?;
        if let Some(j) = &rt.journal {
            // The busy-ns delta is the evidence the decision was made on.
            j.record(
                JournalKind::BalanceMove,
                shard as u64,
                target as u64,
                delta[shard],
                0,
            );
        }
        applied += 1;
    }
    // Elastic step (DESIGN.md §14): one spawn or one drain-retire per
    // tick toward the desired size, separated by the policy's cooldown.
    // The state lock is already held — exactly the fence every scale
    // operation requires. The first tick only baselines: without a
    // previous tick there is no interval to normalize busy time by.
    if let Some(policy) = b.scale {
        if st.cooldown_left > 0 {
            st.cooldown_left -= 1;
        } else if let Some(interval_ns) = interval_ns.filter(|&ns| ns > 0) {
            let aggregate: u64 = delta.iter().sum();
            let desired = policy.desired_workers(aggregate, interval_ns);
            let live_now = b.pool.live_count();
            if desired > live_now {
                b.pool.spawn_into(rt);
                st.cooldown_left = policy.cooldown;
            } else if desired < live_now && live_now > 1 {
                scale_down_locked(rt, &b.pool)?;
                st.cooldown_left = policy.cooldown;
            }
        }
    }
    Ok(applied)
}

/// Retires the highest-id live worker: migrates every shard it owns to
/// the survivors round-robin through the epoch-fenced handoff (parked
/// scan cursors ride along), then clears its ring slot,
/// closes the ring, and joins the thread. Caller must hold the
/// [`BalanceShared::state`] lock — the same fence migrations and the
/// backup freeze take — and must leave at least one live worker.
fn scale_down_locked<E: KvsEngine>(rt: &Arc<ShardRuntime<E>>, pool: &WorkerPool) -> Result<usize> {
    let live = pool.live_ids();
    let Some((&victim, survivors)) = live.split_last() else {
        return Err(Error::Config("the pool has no live workers".into()));
    };
    if survivors.is_empty() {
        return Err(Error::Config("cannot retire the last live worker".into()));
    }
    let shards = rt.map.pin().shards_of(victim);
    let mut drained = 0u64;
    for (i, &shard) in shards.iter().enumerate() {
        migrate_locked(rt, shard, survivors[i % survivors.len()])?;
        drained += 1;
    }
    pool.retire(victim, drained, rt)?;
    Ok(victim)
}

/// A live, structured view of the store's control plane — the shard
/// map, every worker's ownership and load, the balancer's last
/// interval, and the observability subsystems' own state. Cheap to
/// take, and never waits behind a migration: a copy of the routing
/// snapshot plus relaxed counter reads.
#[derive(Debug, Clone)]
pub struct StoreIntrospection {
    /// Current shard-map epoch (bumps once per migration).
    pub map_epoch: u64,
    /// `shard → worker` assignment under the current map.
    pub shard_owners: Vec<usize>,
    /// Per-worker live view.
    pub workers: Vec<WorkerView>,
    /// Completed ownership migrations since open.
    pub migrations: u64,
    /// Blocking client calls that parked waiting for their reply.
    pub waiter_parks: u64,
    /// Whether the background balancer is running.
    pub balancer_active: bool,
    /// The balancer's tunables.
    pub balance_policy: BalancePolicy,
    /// Per-shard busy-ns at the balancer's last sample (its decision
    /// baseline).
    pub last_sample_busy_ns: Vec<u64>,
    /// Device service-capacity utilization, when the env models one.
    pub device_utilization: Option<f64>,
    /// Per shard, the engine's write-amplification ledger: its
    /// `engine_*_bytes_written_total` series (user, WAL, MANIFEST, flush)
    /// and the `level`-labeled rows of what each level's compactions took,
    /// wrote and moved. Empty for an engine that exports none.
    pub write_ledger: Vec<Vec<(String, f64)>>,
    /// Spans recorded so far (head-sampled trees and tail-kept pairs).
    pub trace_spans_recorded: u64,
    /// Highest flight-recorder sequence number assigned.
    pub flight_last_seq: u64,
    /// Time since open.
    pub uptime: Duration,
}

/// One worker's slice of [`StoreIntrospection`].
#[derive(Debug, Clone)]
pub struct WorkerView {
    /// Worker (slot) index.
    pub worker: usize,
    /// Shards the current map assigns to this worker.
    pub shards: Vec<usize>,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Scan cursors currently parked on this worker.
    pub active_scans: u64,
    /// Cumulative useful processing time.
    pub busy: Duration,
    /// Device wait the worker did not pay because the shard groups of a
    /// drained run overlapped their I/O (DESIGN.md §13.5).
    pub io_overlap_saved: Duration,
    /// Times the worker slept on an empty ring.
    pub parks: u64,
    /// Whether the slot currently runs a worker thread. Retired slots
    /// stay in the view with their final counters.
    pub live: bool,
}

/// A p2KVS store over engine type `E`.
pub struct P2Kvs<E: KvsEngine> {
    // Declared before `pool` so the balancer stops before the workers
    // are joined on drop.
    balancer: Option<PeriodicTask>,
    obs: Arc<ObsShared<E>>,
    balance: Arc<BalanceShared<E>>,
    runtime: Arc<ShardRuntime<E>>,
    pool: Arc<WorkerPool>,
    partitioner: Arc<dyn Partitioner>,
    txn: TxnManager,
    opts: P2KvsOptions,
    /// The store directory (backup streams the flight journal from it).
    dir: PathBuf,
    /// Monotone submission counter driving 1-in-N trace sampling.
    trace_seq: AtomicU64,
    /// Flight-recorder records recovered from `FLIGHT.log` at open.
    recovered_flight: Vec<JournalRecord>,
}

impl<E: KvsEngine> P2Kvs<E> {
    /// Opens (or recovers) a store under `dir`, creating one engine
    /// instance per **shard** via `factory`.
    ///
    /// Recovery order (§4.5): read the transaction commit log first, then
    /// reopen every instance with a GSN filter that drops batches of
    /// transactions that never committed, then open the log for new
    /// transactions above every GSN the log or a replayed WAL named.
    ///
    /// Returns [`Error::Config`] when a custom partitioner's
    /// `partitions()` disagrees with the shard count — routing through a
    /// mismatched partitioner would index out of bounds on the first
    /// request, so the mismatch is rejected here.
    pub fn open<F>(factory: F, dir: impl Into<PathBuf>, opts: P2KvsOptions) -> Result<P2Kvs<E>>
    where
        F: EngineFactory<Engine = E>,
    {
        let n = opts.workers.max(1);
        let shards = match (opts.shards, &opts.partitioner) {
            (0, Some(p)) => p.partitions(),
            (0, None) => 4 * n,
            (s, _) => s,
        }
        .max(1);
        let partitioner: Arc<dyn Partitioner> = opts
            .partitioner
            .clone()
            .unwrap_or_else(|| Arc::new(HashPartitioner::new(shards)));
        if partitioner.partitions() != shards {
            return Err(Error::Config(format!(
                "partitioner covers {} partitions but the store opens {} shards",
                partitioner.partitions(),
                shards
            )));
        }
        let dir = dir.into();
        let env = factory.env();
        env.create_dir_all(&dir)?;
        let mut recovered = TxnManager::recover(&env, &dir)?;
        // The filter is asked about every WAL batch an engine replays: it
        // also notes the highest GSN it sees, so a rolled-back
        // transaction's number is not handed out again while a WAL still
        // holds its batches (the commit log has no record of it).
        let replayed_gsn = Arc::new(AtomicU64::new(0));
        let filter: GsnFilter = {
            let recovered = recovered.clone();
            let replayed_gsn = replayed_gsn.clone();
            Arc::new(move |gsn| {
                replayed_gsn.fetch_max(gsn, Ordering::Relaxed);
                recovered.should_replay(gsn)
            })
        };
        let registry = Arc::new(MetricsRegistry::new());
        // Registered up front so the series reads 0, not absent, with
        // per-request metrics off.
        registry.counter("p2kvs_slow_requests_total");
        let slow_ns = opts
            .slow_request_threshold
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        // Queue affinity (DESIGN.md §13): with a multi-queue env, worker
        // `i` rides queue `i % queues`, and each shard's engine is hinted
        // onto its *initial* owner's queue so WAL/flush traffic starts on
        // the thread that issues it. Migrations may later move a shard to
        // a worker on another queue; the hint stays put — placement is a
        // throughput lever, never a correctness input.
        let device_queues = env.queue_count();
        let worker_queue = |w: usize| {
            (opts.queue_affinity && device_queues > 1).then(|| w % device_queues)
        };
        let mut engines = Vec::with_capacity(shards);
        for s in 0..shards {
            let instance_dir = dir.join(format!("instance-{s}"));
            engines.push(Arc::new(factory.open_on(
                &instance_dir,
                Some(filter.clone()),
                worker_queue(s % n),
            )?));
        }
        recovered.max_gsn = recovered.max_gsn.max(replayed_gsn.load(Ordering::Relaxed));
        let txn = TxnManager::open(&env, &dir, &recovered)?;
        let spans = Arc::new(SpanRing::new(SpanRing::DEFAULT_CAPACITY));
        // Flight recorder: recover the persisted journal (its longest
        // valid prefix — a crash may leave a torn tail), continue the
        // sequence from the recovered maximum, and persist every new
        // record as it happens. The file is rewritten from the valid
        // prefix so a torn tail never sits in front of new records.
        let flight_path = dir.join("FLIGHT.log");
        let mut recovered_flight: Vec<JournalRecord> = Vec::new();
        let journal = if opts.flight_recorder {
            if env.exists(&flight_path) {
                let data = p2kvs_storage::env::read_all(&*env, &flight_path)?;
                recovered_flight = parse_journal(&data);
            }
            let last = recovered_flight.last().map(|r| r.seq).unwrap_or(0);
            let j = Arc::new(Journal::new(Journal::DEFAULT_CAPACITY, last));
            j.seed(&recovered_flight);
            let mut file = env.new_writable(&flight_path)?;
            for r in &recovered_flight {
                file.append(r.encode().as_bytes())?;
            }
            file.sync()?;
            let file = p2kvs_util::sync::Mutex::new(file);
            j.set_sink(Box::new(move |rec, durable| {
                IN_JOURNAL_SINK.with(|f| f.set(true));
                {
                    let mut file = file.lock();
                    // Errors are swallowed by design: the recorder must
                    // keep working (in memory) on a crashed or failing
                    // env — that is exactly when its evidence matters.
                    let _ = file.append(rec.encode().as_bytes());
                    if durable {
                        let _ = file.sync();
                    }
                }
                IN_JOURNAL_SINK.with(|f| f.set(false));
            }));
            Some(j)
        } else {
            None
        };
        if let Some(j) = &journal {
            // Fault firings from the (fault-injecting) env land in the
            // journal: a = discriminant (1 append, 2 sync, 3 read, 4
            // crash, 7 queue crash; 5 and 6 are retired), b = fault
            // point, c = torn bytes, fourth slot = a queue crash's queue.
            let jh = j.clone();
            env.install_fault_hook(Arc::new(move |ev| {
                if IN_JOURNAL_SINK.with(|f| f.get()) {
                    return;
                }
                use p2kvs_storage::FaultEvent;
                let (d, n, torn, q) = match ev {
                    FaultEvent::FailedAppend { n, .. } => (1, *n, 0, 0),
                    FaultEvent::FailedSync { n, .. } => (2, *n, 0, 0),
                    FaultEvent::FailedRead { n, .. } => (3, *n, 0, 0),
                    FaultEvent::Crash { n, torn, .. } => (4, *n, *torn as u64, 0),
                    FaultEvent::QueueCrash { q, n, torn, .. } => {
                        (7, *n, *torn as u64, *q as u64)
                    }
                };
                jh.record(JournalKind::FaultFired, d, n, torn, q);
            }));
            // Engine background events: a = instance, b = level, c = bytes,
            // fourth slot = 1 for a compaction that moved its files
            // unrewritten (not a zero-byte compaction).
            for (i, engine) in engines.iter().enumerate() {
                let jh = j.clone();
                let inst = i as u64;
                engine.install_event_hook(Arc::new(move |ev| {
                    let (kind, level, bytes, moved) = match *ev {
                        EngineEvent::FlushStart { bytes } => {
                            (JournalKind::FlushStart, 0, bytes, false)
                        }
                        EngineEvent::FlushFinish { bytes } => {
                            (JournalKind::FlushFinish, 0, bytes, false)
                        }
                        EngineEvent::CompactionStart { level, bytes } => {
                            (JournalKind::CompactionStart, level as u64, bytes, false)
                        }
                        EngineEvent::CompactionFinish {
                            level,
                            bytes,
                            moved,
                        } => (JournalKind::CompactionFinish, level as u64, bytes, moved),
                    };
                    jh.record(kind, inst, level, bytes, u64::from(moved));
                }));
            }
            j.record(
                JournalKind::StoreOpen,
                shards as u64,
                n as u64,
                recovered_flight.len() as u64,
                0,
            );
        }
        let cache = (opts.cache_capacity > 0)
            .then(|| Arc::new(crate::cache::ReadCache::new(opts.cache_capacity as u64, shards)));
        if let (Some(j), Some(c)) = (&journal, &cache) {
            // The cache is volatile: every open starts cold. Journal the
            // reset so recovery evidence shows no stale entry survived
            // (a = MAX marks a full reset, c = the configured budget).
            j.record(JournalKind::CacheFlush, u64::MAX, 0, c.capacity(), 0);
        }
        // The map starts without rings: the pool publishes each worker's
        // (before its thread starts) as it spawns them.
        let runtime = Arc::new(ShardRuntime {
            engines,
            map: MapCell::new(ShardMap::initial(shards, n)),
            parked: (0..shards).map(|_| p2kvs_util::sync::Mutex::new(None)).collect(),
            migrations: AtomicU64::new(0),
            handoffs_aborted: AtomicU64::new(0),
            shard_stats: (0..shards)
                .map(|_| Arc::new(crate::shard::ShardStats::default()))
                .collect(),
            spans: spans.clone(),
            journal,
            cache,
            env: Some(env.clone()),
            backup: Arc::new(crate::backup::BackupHub::default()),
        });
        let pool = Arc::new(WorkerPool::new(
            SpawnSpec {
                config: crate::worker::WorkerConfig {
                    batch_max: opts.batch_max.max(1),
                    queue_capacity: crate::queue::DEFAULT_QUEUE_CAPACITY,
                    pin: opts.pin_workers,
                    scan_chunk_entries: opts.scan_chunk_entries,
                    scan_chunk_bytes: opts.scan_chunk_bytes,
                    // Recomputed per worker id by the pool so the
                    // `w % queues` mapping holds as the pool resizes.
                    io_queue: None,
                },
                device_queues,
                queue_affinity: opts.queue_affinity,
                lifecycle: {
                    let registry = registry.clone();
                    let metrics = opts.metrics;
                    Box::new(move |w| {
                        metrics.then(|| WorkerLifecycle::new(&registry, w, slow_ns, spans.clone()))
                    })
                },
            },
        ));
        for _ in 0..n {
            pool.spawn_into(&runtime);
        }
        let opened = Instant::now();
        let obs = Arc::new(ObsShared {
            registry,
            runtime: runtime.clone(),
            pool: pool.clone(),
            opened,
        });
        let balance = Arc::new(BalanceShared {
            runtime: runtime.clone(),
            pool: pool.clone(),
            policy: opts.balance,
            scale: opts.scale,
            state: p2kvs_util::sync::Mutex::new(BalanceState {
                last_tick: None,
                cooldown_left: 0,
            }),
            last_busy_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        });
        let balancer = opts.balance_interval.map(|interval| {
            let b = balance.clone();
            PeriodicTask::spawn("p2kvs-balancer", interval, move || {
                if let Err(e) = rebalance_tick(&b) {
                    eprintln!("[p2kvs-balancer] tick failed: {e}");
                }
            })
        });
        Ok(P2Kvs {
            balancer,
            obs,
            balance,
            runtime,
            pool,
            partitioner,
            txn,
            opts,
            dir,
            trace_seq: AtomicU64::new(0),
            recovered_flight,
        })
    }

    /// Draws the head-sampling decision of one client call: every
    /// `trace_sample`-th call gets a fresh nonzero id, the rest ride
    /// untraced. One draw per call — the context travels with whatever
    /// the call probes and enqueues.
    fn next_trace(&self) -> TraceCtx {
        let sample = self.opts.trace_sample;
        if sample == 0 {
            return TraceCtx::NONE;
        }
        let n = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        if n % sample == 0 {
            TraceCtx { id: n / sample + 1 }
        } else {
            TraceCtx::NONE
        }
    }

    /// Number of **live** workers (the pool may also hold retired
    /// slots; see [`P2Kvs::live_workers`]).
    pub fn workers(&self) -> usize {
        self.pool.live_count()
    }

    /// Live worker ids, ascending. Ids are pool *slot* indices:
    /// retiring leaves a gap that the next scale-up reuses.
    pub fn live_workers(&self) -> Vec<usize> {
        self.pool.live_ids()
    }

    /// Number of shards (engine instances).
    pub fn shards(&self) -> usize {
        self.runtime.engines.len()
    }

    /// The engine instances, indexed by shard (inspection and tests).
    pub fn engines(&self) -> &[Arc<E>] {
        &self.runtime.engines
    }

    /// Per-slot counters (monitoring and benchmarks), indexed by worker
    /// id. Retired slots expose their final values.
    pub fn worker_stats(&self) -> Vec<Arc<crate::worker::WorkerStats>> {
        self.pool.slots_view().into_iter().map(|(s, _)| s).collect()
    }

    /// The current `shard → worker` assignment (a snapshot; migrations
    /// replace it).
    pub fn shard_owners(&self) -> Vec<usize> {
        let pin = self.runtime.map.pin();
        (0..pin.shards()).map(|s| pin.owner(s)).collect()
    }

    /// The shard map's current epoch. Bumps by one per migration.
    pub fn map_epoch(&self) -> u64 {
        self.runtime.map.epoch()
    }

    /// Completed ownership migrations since open.
    pub fn migrations(&self) -> u64 {
        self.runtime.migrations.load(Ordering::Relaxed)
    }

    /// Migrates ownership of `shard` to `target` through the
    /// epoch-fenced handoff (manual override of the balancer; also the
    /// test hook). Blocks until the handoff settles. Per-key issue
    /// order and scan cursors survive the move; no data moves.
    pub fn migrate_shard(&self, shard: usize, target: usize) -> Result<()> {
        let _serialize = self.balance.state.lock();
        migrate_locked(&self.runtime, shard, target)
    }

    /// Runs one balancer tick right now (regardless of
    /// `balance_interval`), returning how many migrations it applied.
    /// With a [`ScalePolicy`] configured this also runs the elastic
    /// step, so tests and benchmarks can drive auto-scaling on their
    /// own clock.
    pub fn rebalance_once(&self) -> Result<usize> {
        rebalance_tick(&self.balance)
    }

    /// Resizes the pool to exactly `n` live workers, one spawn or
    /// drain-retire at a time under the migration fence (DESIGN.md
    /// §14).
    ///
    /// Scale-up publishes each newcomer's ring in the routing snapshot
    /// before its thread starts and leaves shard placement to the
    /// balancer (or [`P2Kvs::rebalance_once`] / [`P2Kvs::migrate_shard`]).
    /// Scale-down drains the highest-id live worker by migrating every
    /// shard it owns to the survivors through the epoch-fenced handoff
    /// — parked scan cursors ride along, acked writes survive, and no
    /// request fails merely because the pool resized — then closes its
    /// ring and joins the thread. Both directions land `worker_spawn` /
    /// `worker_retire` flight records.
    ///
    /// Safe against concurrent [`P2Kvs::backup`]: the freeze fence and
    /// every scale step take the same lock, so markers always target
    /// the live worker set. Returns the live count (`n`); `n == 0` is a
    /// configuration error.
    pub fn scale_workers(&self, n: usize) -> Result<usize> {
        if n == 0 {
            return Err(Error::Config(
                "a store needs at least one live worker".into(),
            ));
        }
        let _fence = self.balance.state.lock();
        while self.pool.live_count() < n {
            self.pool.spawn_into(&self.runtime);
        }
        while self.pool.live_count() > n {
            scale_down_locked(&self.runtime, &self.pool)?;
        }
        Ok(self.pool.live_count())
    }

    fn submit_to_shard(&self, shard: usize, op: Op, ctx: TraceCtx) -> Result<Response> {
        let (req, done) = Request::sync(op);
        self.runtime
            .map
            .send(shard, req.on_shard(shard as u64).traced(ctx))
            .map_err(|_| Error::Closed)?;
        done.wait_counting(&self.runtime.map.waiter_parks)
    }

    fn submit_to_key(&self, key: &[u8], op: Op) -> Result<Response> {
        self.submit_to_shard(self.partitioner.shard_of(key), op, self.next_trace())
    }

    /// Inserts `key -> value` (blocking).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        match self.submit_to_key(
            key,
            Op::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
        )? {
            Response::Done => Ok(()),
            other => Err(Error::Engine(format!("unexpected response {other:?}"))),
        }
    }

    /// Inserts `key -> value` without blocking; `cb` runs on the worker
    /// when the write completes (the asynchronous interface of §4.1).
    pub fn put_async(
        &self,
        key: &[u8],
        value: &[u8],
        cb: impl FnOnce(Result<()>) + Send + 'static,
    ) -> Result<()> {
        let op = Op::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        };
        let shard = self.partitioner.shard_of(key);
        let mut req = Request::asynchronous(op, Box::new(move |r| cb(r.map(|_| ()))));
        req.pipelined = true;
        self.runtime
            .map
            .send(shard, req.on_shard(shard as u64).traced(self.next_trace()))
            .map_err(|_| Error::Closed)
    }

    /// Deletes `key` (blocking).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        match self.submit_to_key(key, Op::Delete { key: key.to_vec() })? {
            Response::Done => Ok(()),
            other => Err(Error::Engine(format!("unexpected response {other:?}"))),
        }
    }

    /// Point lookup. Probes the lock-free read cache first: a hit
    /// returns on the calling thread with no queue round-trip and no
    /// allocation beyond the value bytes; only misses are submitted.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let shard = self.partitioner.shard_of(key);
        // Drawn once, before the probe: a sampled hit records its
        // `cache_lookup` span under this id, a sampled miss carries the
        // same id into the queued request. Unsampled hits pay no clock
        // reads at all.
        let ctx = self.next_trace();
        if let Some(cache) = &self.runtime.cache {
            let start = ctx.is_sampled().then(Instant::now);
            if let Some(v) = cache.lookup(shard as u32, key) {
                if let Some(start) = start {
                    let ring = &self.runtime.spans;
                    ring.record(SpanRecord {
                        trace_id: ctx.id,
                        kind: SpanKind::CacheLookup,
                        worker: u32::MAX,
                        shard: shard as u32,
                        start_us: ring.stamp(start),
                        dur_us: start.elapsed().as_micros() as u64,
                        batch_id: 0,
                        batch_size: 1,
                        aux: v.len() as u64,
                    });
                }
                return Ok(Some(v));
            }
        }
        match self.submit_to_shard(shard, Op::Get { key: key.to_vec() }, ctx)? {
            Response::Value(v) => Ok(v),
            other => Err(Error::Engine(format!("unexpected response {other:?}"))),
        }
    }

    /// Batched lookups with a partial-hit fast path: cached keys are
    /// served immediately on the calling thread, and the misses are
    /// scattered as one [`Op::MultiGet`] ring entry per shard they touch
    /// (split at the OBM bound). The caller waits once, for whichever
    /// entry is answered last.
    pub fn get_many(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        let cache = self.runtime.cache.as_deref();
        // One draw per call: every entry a sampled call enqueues shares
        // its trace id.
        let ctx = self.next_trace();
        let mut results: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        // The missed keys of each shard, with their positions in `keys`.
        let mut misses: Vec<(Vec<usize>, Vec<Vec<u8>>)> = vec![Default::default(); self.shards()];
        for (i, key) in keys.iter().enumerate() {
            let shard = self.partitioner.shard_of(key);
            match cache.and_then(|c| c.lookup(shard as u32, key)) {
                Some(v) => results[i] = Some(v),
                None => {
                    misses[shard].0.push(i);
                    misses[shard].1.push(key.clone());
                }
            }
        }
        let chunk = self.opts.batch_max.max(1);
        // Where each entry's values go, in entry order.
        let mut places: Vec<Vec<usize>> = Vec::new();
        let mut entries = Vec::new();
        for (shard, (mut at, mut keys)) in misses.into_iter().enumerate() {
            while !at.is_empty() {
                let rest_at = at.split_off(at.len().min(chunk));
                let rest_keys = keys.split_off(keys.len().min(chunk));
                places.push(at);
                entries.push((shard, Op::MultiGet { keys }));
                (at, keys) = (rest_at, rest_keys);
            }
        }
        for (at, reply) in places
            .into_iter()
            .zip(self.runtime.map.scatter(ctx, entries))
        {
            match reply? {
                Response::Values(values) if values.len() == at.len() => {
                    for (i, v) in at.into_iter().zip(values) {
                        results[i] = v;
                    }
                }
                other => return Err(Error::Engine(format!("unexpected response {other:?}"))),
            }
        }
        Ok(results)
    }

    /// Applies `ops` atomically across shards (§4.5).
    ///
    /// Single-shard batches use the engine's atomic WriteBatch
    /// directly. Cross-shard batches get a GSN: sub-batches are
    /// dispatched in parallel, and the commit record is persisted only
    /// after every sub-batch is durable; a crash in between is rolled
    /// back at recovery. Two shards on the same worker still count as
    /// cross-shard — they are separate engines with separate WALs.
    pub fn write_batch(&self, ops: Vec<WriteOp>) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let ctx = self.next_trace();
        let mut per_shard: Vec<Vec<WriteOp>> = (0..self.shards()).map(|_| Vec::new()).collect();
        for op in ops {
            // `partitions() == shards` is validated at open, so this
            // index cannot go out of bounds even under a custom
            // partitioner.
            per_shard[self.partitioner.shard_of(op.key())].push(op);
        }
        let involved: Vec<usize> = (0..self.shards())
            .filter(|s| !per_shard[*s].is_empty())
            .collect();
        if involved.len() == 1 {
            let s = involved[0];
            return match self.submit_to_shard(
                s,
                Op::TxnBatch {
                    ops: std::mem::take(&mut per_shard[s]),
                    gsn: 0,
                },
                ctx,
            )? {
                Response::Done => Ok(()),
                other => Err(Error::Engine(format!("unexpected response {other:?}"))),
            };
        }
        let gsn = self.txn.begin()?;
        let entries = involved
            .iter()
            .map(|&s| {
                let ops = std::mem::take(&mut per_shard[s]);
                (s, Op::TxnBatch { ops, gsn })
            })
            .collect();
        let replies: Result<Vec<Response>> =
            self.runtime.map.scatter(ctx, entries).into_iter().collect();
        if let Err(e) = replies {
            // A sub-batch failed, or was never enqueued: no commit
            // record, so recovery rolls every sub-batch back. The
            // abandoned GSN still drains the backup freeze gate.
            self.txn.abandon(gsn);
            return Err(e);
        }
        self.txn.commit(gsn)?;
        if let Some(j) = &self.runtime.journal {
            j.record(JournalKind::TxnCommit, involved.len() as u64, 0, 0, gsn);
        }
        Ok(())
    }

    /// The opening per-shard chunk quota of a `count`-entry scan: each
    /// shard's even share plus a margin (half a share and four entries)
    /// that covers the spread of a hash partition. A shard holding more
    /// of the range is pulled again, exactly (`StoreIter::refill`); asking
    /// every shard for all `count` entries reads up to `S×` the result.
    fn first_chunk_quota(&self, count: usize) -> usize {
        let s = self.shards();
        (count / s + count / (2 * s) + 4).min(count)
    }

    /// A streaming, globally sorted iterator over the whole store.
    ///
    /// Entries are pulled lazily in bounded chunks (one engine cursor
    /// per shard, K-way merged — see [`crate::scan::StoreIter`]), so
    /// iteration interleaves with concurrent point traffic instead of
    /// head-of-line-blocking it. Consistency is per shard: each
    /// engine cursor is snapshot-consistent when the engine supports
    /// native cursors (`Capabilities::native_cursor`, e.g. lsmkv) and
    /// monotonic read-committed otherwise (see `DESIGN.md` §8). Open
    /// iterators survive shard migrations: their parked cursors travel
    /// with the shard.
    pub fn iter(&self) -> Result<StoreIter<'_>> {
        self.iter_from(b"")
    }

    /// Like [`P2Kvs::iter`], starting at the first key `>= start`.
    pub fn iter_from(&self, start: &[u8]) -> Result<StoreIter<'_>> {
        StoreIter::open(
            &self.runtime.map,
            self.shards(),
            start,
            None,
            self.opts.scan_chunk_entries,
            self.opts.scan_chunk_entries,
            self.opts.scan_chunk_bytes,
        )
    }

    /// Like [`P2Kvs::iter`], bounded to `[begin, end)`.
    pub fn iter_range(&self, begin: &[u8], end: &[u8]) -> Result<StoreIter<'_>> {
        StoreIter::open(
            &self.runtime.map,
            self.shards(),
            begin,
            Some(end),
            self.opts.scan_chunk_entries,
            self.opts.scan_chunk_entries,
            self.opts.scan_chunk_bytes,
        )
    }

    /// RANGE `[begin, end)`: per-shard bounded cursors, K-way merged
    /// (partitions are disjoint, so this is exact). Materializes the
    /// result; use [`P2Kvs::iter_range`] to stream instead.
    pub fn range(&self, begin: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        if begin >= end {
            return Ok(Vec::new());
        }
        let mut iter = self.iter_range(begin, end)?;
        let mut all = Vec::new();
        while let Some(entry) = iter.next_entry()? {
            all.push(entry);
        }
        Ok(all)
    }

    /// SCAN: up to `count` entries with keys `>= start`.
    ///
    /// Always exact: every shard is first asked for its share of
    /// `count` plus a margin; if the merge needs more from some shard,
    /// its cursor is simply pulled again (no quota-and-retry rounds).
    pub fn scan(&self, start: &[u8], count: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        if count == 0 {
            // A zero-entry scan used to panic in the quota merge; it is
            // simply empty.
            return Ok(Vec::new());
        }
        let mut iter = StoreIter::open(
            &self.runtime.map,
            self.shards(),
            start,
            None,
            self.first_chunk_quota(count),
            self.opts.scan_chunk_entries,
            self.opts.scan_chunk_bytes,
        )?;
        iter.next_chunk(count)
    }

    /// Durability barrier across all shards.
    pub fn sync(&self) -> Result<()> {
        for e in &self.runtime.engines {
            e.sync()?;
        }
        Ok(())
    }

    /// Takes a GSN-consistent **online** snapshot of the whole store
    /// into `dir`, returning once the cut is made (foreground traffic
    /// resumes) with a [`crate::backup::BackupHandle`] for the
    /// background streaming (DESIGN.md §12).
    ///
    /// Protocol: freeze the transaction gate (no new GSNs, in-flight
    /// ones drained — the horizon is the highest GSN allocated), then
    /// push one `BackupFreeze` marker per shard under the migration
    /// lock, so every marker lands FIFO behind every write acked before
    /// this call and no handoff can reorder a marker against the
    /// traffic it cuts. Each owner forks an engine-level snapshot when
    /// its marker executes; once all markers ack, the gate thaws and a
    /// background thread streams the forked snapshots to `dir` —
    /// shard files, the flight journal (after the durable
    /// `BackupComplete` record), and a synced `MANIFEST` last.
    ///
    /// The quiesce window is the freeze span only: marker push + one
    /// snapshot fork per shard. Streaming proceeds concurrently with
    /// new writes, which the pinned snapshots do not observe.
    pub fn backup(&self, dir: impl Into<PathBuf>) -> Result<crate::backup::BackupHandle> {
        let dir = dir.into();
        let env = self
            .runtime
            .env
            .clone()
            .expect("stores opened through P2Kvs::open always carry an env");
        let horizon = self.txn.freeze();
        if let Err(e) = self.runtime.backup.open_session(horizon) {
            self.txn.thaw();
            return Err(e);
        }
        let (map_epoch, frozen) = {
            // The migration lock is the marker-ordering fence: no
            // handoff is mid-flight while markers are pushed, so a
            // marker can never chase its shard onto a queue behind
            // traffic that was rerouted ahead of it.
            let _fence = self.balance.state.lock();
            let map_epoch = self.runtime.map.epoch();
            if let Some(j) = &self.runtime.journal {
                j.record(
                    JournalKind::BackupBegin,
                    self.shards() as u64,
                    map_epoch,
                    0,
                    horizon,
                );
            }
            let markers = (0..self.shards())
                .map(|s| (s, Op::BackupFreeze { shard: s as u64 }))
                .collect();
            (
                map_epoch,
                self.runtime.map.scatter_push(TraceCtx::NONE, markers),
            )
        };
        // Wait off the fence: markers execute (and a concurrent
        // migration may even move a not-yet-frozen shard — the marker
        // travels with it through the stash) while we only hold the
        // GSN gate.
        let frozen: Result<Vec<Response>> = frozen.wait().into_iter().collect();
        // Take the session before thawing: every shard's snapshot is
        // deposited (or the backup failed), and only then may a GSN
        // past the horizon reach any shard.
        let session = self.runtime.backup.take_session();
        self.txn.thaw();
        frozen?; // dropping the session releases the snapshots
        let session = session
            .ok_or_else(|| Error::Backup("freeze session disappeared mid-backup".into()))?;
        if session.frozen.len() != self.shards() {
            return Err(Error::Backup(format!(
                "only {} of {} shards deposited a snapshot",
                session.frozen.len(),
                self.shards()
            )));
        }
        let journal = self.runtime.journal.clone();
        let store_dir = self.dir.clone();
        let thread = std::thread::Builder::new()
            .name("p2kvs-backup".into())
            .spawn(move || {
                crate::backup::stream_session(
                    &env,
                    &store_dir,
                    &dir,
                    session,
                    map_epoch,
                    journal.as_deref(),
                )
            })
            .map_err(|e| Error::Backup(format!("spawn backup streamer: {e}")))?;
        Ok(crate::backup::BackupHandle { thread })
    }

    /// Restores a backup taken by [`P2Kvs::backup`] into `dest_dir` and
    /// opens the restored store: every write acked at GSN ≤ the
    /// backup's horizon is present, nothing past the horizon leaks in.
    ///
    /// The backup directory is **fully validated first** — manifest
    /// trailer, per-file lengths, CRCs, record counts — so a partial or
    /// corrupt backup fails with [`Error::Backup`] and the destination
    /// untouched. The restored store recovers the backed-up flight
    /// journal and continues its sequence (a fresh epoch rooted at the
    /// recovered seq, with the backup's own records as provenance),
    /// allocates GSNs strictly past the horizon, and comes up with a
    /// cold read cache (the reset is journaled at open, like any open).
    pub fn restore<F>(
        factory: F,
        backup_dir: impl Into<PathBuf>,
        dest_dir: impl Into<PathBuf>,
        mut opts: P2KvsOptions,
    ) -> Result<P2Kvs<E>>
    where
        F: EngineFactory<Engine = E>,
    {
        let backup_dir = backup_dir.into();
        let dest = dest_dir.into();
        let env = factory.env();
        let (manifest, shard_entries) = crate::backup::read_backup(&env, &backup_dir)?;
        for probe in ["TXNLOG", crate::backup::FLIGHT_FILE, "instance-0"] {
            if env.exists(&dest.join(probe)) {
                return Err(Error::Backup(format!(
                    "destination {} already contains a store ({probe} exists)",
                    dest.display()
                )));
            }
        }
        if opts.shards != 0 && opts.shards != manifest.shards as usize {
            return Err(Error::Config(format!(
                "the backup has {} shards, the restore options say {}",
                manifest.shards, opts.shards
            )));
        }
        opts.shards = manifest.shards as usize;
        env.create_dir_all(&dest)?;
        let flight_src = backup_dir.join(crate::backup::FLIGHT_FILE);
        if opts.flight_recorder && env.exists(&flight_src) {
            let data = p2kvs_storage::env::read_all(&*env, &flight_src)?;
            p2kvs_storage::env::write_all(
                &*env,
                &dest.join(crate::backup::FLIGHT_FILE),
                &data,
            )?;
        }
        // GSN allocation must resume strictly past the horizon: the
        // restored store must never reuse a GSN the source spent.
        TxnManager::seed(&env, &dest, manifest.horizon)?;
        let store = P2Kvs::open(factory, dest, opts)?;
        // Load each shard's entries straight into its engine — the
        // backup's shard indexing *is* the store's (the manifest pins
        // the count) — in bounded batches, then a durability barrier.
        // No request has been submitted yet, so writing through the
        // shared engine handles off the worker threads is safe.
        for (s, entries) in shard_entries.into_iter().enumerate() {
            let engine = &store.runtime.engines[s];
            let mut ops = Vec::with_capacity(RESTORE_BATCH.min(entries.len()));
            for (key, value) in entries {
                ops.push(WriteOp::Put { key, value });
                if ops.len() == RESTORE_BATCH {
                    engine.write_batch(&ops, 0)?;
                    ops.clear();
                }
            }
            if !ops.is_empty() {
                engine.write_batch(&ops, 0)?;
            }
        }
        store.sync()?;
        Ok(store)
    }

    /// Point-in-time statistics.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.obs.read()
    }

    /// The metrics registry: counters, gauges, and the queue-wait /
    /// service latency histograms recorded by the workers.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs.registry
    }

    /// Full metrics snapshot: framework counters and histograms, live
    /// queue-depth gauges, per-shard load/ownership gauges, and
    /// per-instance engine metrics (`engine_*`), ready for
    /// [`MetricsSnapshot::render_prometheus`] /
    /// [`MetricsSnapshot::render_json`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.render(&self.obs.read())
    }

    /// Completed spans, sorted by start time. Each head-sampled request
    /// contributes a span tree: `queue_wait` → `obm_batch`(batch id +
    /// merged-run size) → `engine` → WAL/MemTable/read phases →
    /// `device_io`. Each slow group (see
    /// [`P2KvsOptions::slow_request_threshold`]) contributes the
    /// `queue_wait` + `obm_batch` pair of its slowest request under an
    /// id of its own, at or above [`TraceCtx::TAIL_BASE`].
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.runtime.spans.snapshot()
    }

    /// Exports the span ring plus the flight recorder's recent records
    /// as Chrome-trace / Perfetto JSON (load it at `ui.perfetto.dev` or
    /// `chrome://tracing`). Spans render as duration events grouped by
    /// worker; journal records as instant events on a control track.
    pub fn export_trace(&self) -> String {
        let spans = self.trace_spans();
        let journal = self
            .runtime
            .journal
            .as_ref()
            .map(|j| j.recent(usize::MAX))
            .unwrap_or_default();
        p2kvs_obs::export_chrome_trace(&spans, &journal)
    }

    /// The flight recorder's most recent `n` records, oldest first
    /// (spanning the last crash/restart boundary: the in-memory ring is
    /// seeded from the recovered log at open).
    pub fn flight_records(&self, n: usize) -> Vec<JournalRecord> {
        self.runtime
            .journal
            .as_ref()
            .map(|j| j.recent(n))
            .unwrap_or_default()
    }

    /// Every record recovered from `FLIGHT.log` at open — the previous
    /// incarnation's journal, surviving crash (minus a torn tail).
    pub fn recovered_flight_records(&self) -> &[JournalRecord] {
        &self.recovered_flight
    }

    /// A live, structured control-plane view: shard map + epoch,
    /// per-worker shard sets, queue depths and active scans, balancer
    /// state, and device utilization.
    pub fn introspect(&self) -> StoreIntrospection {
        // Copied out, not held: a routing pin spans nothing but a push.
        let map = self.runtime.map.pin().clone();
        let stats = self.obs.read();
        StoreIntrospection {
            map_epoch: map.epoch(),
            shard_owners: (0..map.shards()).map(|s| map.owner(s)).collect(),
            workers: stats
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| WorkerView {
                    worker: i,
                    shards: map.shards_of(i),
                    queue_depth: w.queue_depth,
                    active_scans: w.active_scans,
                    busy: w.busy,
                    io_overlap_saved: w.io_overlap_saved,
                    parks: w.parks,
                    live: w.live,
                })
                .collect(),
            migrations: stats.migrations,
            waiter_parks: stats.waiter_parks,
            balancer_active: self.balancer.is_some(),
            balance_policy: self.balance.policy,
            last_sample_busy_ns: self
                .balance
                .last_busy_ns
                .iter()
                .map(|ns| ns.load(Ordering::Relaxed))
                .collect(),
            device_utilization: self
                .runtime
                .env
                .as_ref()
                .and_then(|e| e.device_utilization()),
            write_ledger: self
                .runtime
                .engines
                .iter()
                .map(|e| {
                    let mut rows = e.engine_metrics();
                    rows.retain(|(n, _)| {
                        n.contains("bytes_written_total") || n.contains("{level=")
                    });
                    rows
                })
                .collect(),
            trace_spans_recorded: self.runtime.spans.total_recorded(),
            flight_last_seq: self
                .runtime
                .journal
                .as_ref()
                .map(|j| j.last_seq())
                .unwrap_or(0),
            uptime: stats.uptime,
        }
    }

    /// Framework options in effect.
    pub fn options(&self) -> &P2KvsOptions {
        &self.opts
    }

    /// Closes the store: stops the balancer, drains
    /// queues, joins workers, drops engines.
    pub fn close(self) {
        drop(self);
    }
}

impl<E: KvsEngine> Drop for P2Kvs<E> {
    fn drop(&mut self) {
        self.balancer.take();
        self.pool.shutdown_all();
        if let Some(j) = &self.runtime.journal {
            // Workers are joined: StoreClose is the journal's last word.
            j.record(
                JournalKind::StoreClose,
                self.runtime.engines.len() as u64,
                self.pool.live_count() as u64,
                0,
                0,
            );
            j.clear_sink();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LsmFactory;

    fn open_cached(workers: usize, cache_capacity: usize) -> P2Kvs<lsmkv::Db> {
        let mut opts = P2KvsOptions::with_workers(workers);
        opts.pin_workers = false;
        opts.cache_capacity = cache_capacity;
        P2Kvs::open(LsmFactory::new(lsmkv::Options::for_test()), "store-cache", opts).unwrap()
    }

    /// A key that routes to `shard`.
    fn key_in_shard<E: KvsEngine>(store: &P2Kvs<E>, shard: usize, salt: u32) -> Vec<u8> {
        (0u32..10_000)
            .map(|i| format!("in-{shard}-{salt}-{i}").into_bytes())
            .find(|k| store.partitioner.shard_of(k) == shard)
            .expect("some key routes to the shard")
    }

    #[test]
    fn get_many_serves_mixed_hits_and_misses() {
        let store = open_cached(2, 1 << 20);
        let keys: Vec<Vec<u8>> = (0..16u32).map(|i| format!("mix-{i}").into_bytes()).collect();
        for (i, k) in keys.iter().enumerate() {
            store.put(k, format!("v{i}").as_bytes()).unwrap();
        }
        // Warm half the keys into the cache (the doorkeeper admits a key
        // on its second miss, so warming takes two gets).
        for _ in 0..2 {
            for k in keys.iter().step_by(2) {
                store.get(k).unwrap();
            }
        }
        let hits_before = store.runtime.cache.as_ref().unwrap().counters().hits;
        let mut request: Vec<Vec<u8>> = keys.clone();
        request.push(b"mix-missing".to_vec()); // never written
        let got = store.get_many(&request).unwrap();
        for (i, v) in got.iter().take(16).enumerate() {
            assert_eq!(v.as_deref(), Some(format!("v{i}").as_bytes()), "key {i}");
        }
        assert_eq!(got[16], None, "absent key stays absent");
        let hits_after = store.runtime.cache.as_ref().unwrap().counters().hits;
        assert!(
            hits_after >= hits_before + 8,
            "warmed keys must be served from the cache ({hits_before} -> {hits_after})"
        );
        // The first batch marked the other half's doorkeeper tags and a
        // second batch fills them; a third call then hits on every
        // present key.
        let got = store.get_many(&keys).unwrap();
        assert_eq!(got.len(), 16);
        let hits_mid = store.runtime.cache.as_ref().unwrap().counters().hits;
        let got = store.get_many(&keys).unwrap();
        assert_eq!(got.len(), 16);
        let hits_end = store.runtime.cache.as_ref().unwrap().counters().hits;
        assert_eq!(hits_end, hits_mid + 16, "fully warmed batch is all hits");
    }

    #[test]
    fn every_fan_out_fails_closed_and_clean_when_a_push_fails_mid_call() {
        /// Keys of shards 0 and 2 (worker 0, which stays up) and of
        /// shard 1 (worker 1, whose ring the test closes). Every fan-out
        /// pushes in shard order, so shard 0's entry is enqueued, shard
        /// 1's push fails, and the rest is failed unenqueued.
        struct Keys {
            cached: Vec<u8>,
            live: [Vec<u8>; 2],
            dead: Vec<u8>,
        }
        type Call = fn(&P2Kvs<lsmkv::Db>, &Keys) -> Result<()>;
        fn put(key: &[u8]) -> WriteOp {
            WriteOp::Put {
                key: key.to_vec(),
                value: b"txn".to_vec(),
            }
        }
        let cases: [(&str, Call); 5] = [
            ("get_many", |s, k| {
                let keys = [&k.cached, &k.live[0], &k.dead, &k.live[1]];
                s.get_many(&keys.map(Vec::clone)).map(drop)
            }),
            ("write_batch", |s, k| {
                s.write_batch(vec![put(&k.live[0]), put(&k.dead), put(&k.live[1])])
            }),
            ("scan", |s, _| s.scan(b"", 10).map(drop)),
            ("iter_range", |s, _| s.iter_range(b"a", b"z").map(drop)),
            ("backup", |s, _| s.backup("fan-backup").map(drop)),
        ];
        for (name, call) in cases {
            // The whole case runs under a watchdog: a fan-out that lost
            // count of its entries parks forever.
            let (finished, watchdog) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut opts = P2KvsOptions::with_workers(2);
                opts.pin_workers = false;
                opts.scan_chunk_entries = 2; // scans park cursors
                let factory = LsmFactory::new(lsmkv::Options::for_test());
                let store = P2Kvs::open(factory, "store-fan", opts).unwrap();
                let keys = Keys {
                    cached: key_in_shard(&store, 0, 0),
                    live: [key_in_shard(&store, 0, 1), key_in_shard(&store, 2, 1)],
                    dead: key_in_shard(&store, 1, 1),
                };
                for i in 0..100u32 {
                    store.put(format!("fan-{i:03}").as_bytes(), b"v").unwrap();
                }
                store.put(&keys.cached, b"cached").unwrap();
                store.get(&keys.cached).unwrap(); // first miss marks the doorkeeper
                store.get(&keys.cached).unwrap(); // second miss fills the cache
                                                  // An iterator with cursors parked on both workers.
                let mut parked = store.iter().unwrap();
                parked.next_entry().unwrap().unwrap();
                // Kill worker 1's queue: pushes to it now fail.
                store.runtime.map.pin().ring(1).unwrap().close();

                let err = call(&store, &keys).expect_err(name);
                assert!(matches!(err, Error::Closed), "{name}: {err}");
                // A failed transaction wrote no commit record and gave
                // its GSN up (a freezer would wait on it forever); a
                // failed backup thawed the gate it froze.
                let journal = store.flight_records(usize::MAX);
                assert!(journal.iter().all(|r| r.kind != JournalKind::TxnCommit));
                store.txn.freeze();
                store.txn.thaw();
                // What was enqueued was awaited: this thread's pooled
                // completion slot comes back clean, and the surviving
                // worker still serves blocking calls and transactions.
                store.put(&keys.live[0], b"after").unwrap();
                assert_eq!(
                    store.get(&keys.live[0]).unwrap().as_deref(),
                    Some(&b"after"[..])
                );
                assert_eq!(
                    store.get(&keys.cached).unwrap().as_deref(),
                    Some(&b"cached"[..])
                );
                store
                    .write_batch(vec![put(&keys.live[0]), put(&keys.live[1])])
                    .unwrap();
                assert_eq!(
                    store.get(&keys.live[1]).unwrap().as_deref(),
                    Some(&b"txn"[..])
                );
                // The refill of the already open iterator fails the
                // same way, and every cursor on the surviving worker —
                // the iterator's and the failed call's — is released.
                let err = parked.next_chunk(usize::MAX).expect_err("refill");
                assert!(matches!(err, Error::Closed), "{name}: refill: {err}");
                let deadline = Instant::now() + Duration::from_secs(10);
                while store.snapshot().workers[0].active_scans != 0 {
                    assert!(
                        Instant::now() < deadline,
                        "{name}: cursors leaked on worker 0"
                    );
                    std::thread::yield_now();
                }
                finished.send(()).unwrap();
            });
            watchdog
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("{name}: the case hung or panicked ({e})"));
        }
    }

    #[test]
    fn get_many_serves_empty_single_duplicate_and_oversized_batches() {
        // Over an engine with `multiget` and one without; no cache, so
        // every key reaches a worker, and an OBM bound small enough that
        // one shard's share of a call exceeds it.
        let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
        for engine in [
            lsmkv::Options::for_test(),
            lsmkv::Options::leveldb_like(env),
        ] {
            let mut opts = P2KvsOptions::with_workers(2);
            opts.pin_workers = false;
            opts.cache_capacity = 0;
            opts.batch_max = 4;
            let store = P2Kvs::open(LsmFactory::new(engine), "store-many", opts).unwrap();
            let key = |i: u32| format!("many-{i}").into_bytes();
            let value = |i: u32| Some(format!("v{i}").into_bytes());
            for i in 0..300 {
                store.put(&key(i), &value(i).unwrap()).unwrap();
            }
            let worker_counts = |store: &P2Kvs<lsmkv::Db>| {
                let snap = store.snapshot();
                (
                    snap.workers.iter().map(|w| w.ops).sum::<u64>(),
                    snap.workers.iter().map(|w| w.batches).sum::<u64>(),
                )
            };

            assert_eq!(store.get_many(&[]).unwrap(), Vec::<Option<Vec<u8>>>::new());
            assert_eq!(store.get_many(&[key(7)]).unwrap(), vec![value(7)]);
            assert_eq!(
                store.get_many(&[b"many-absent".to_vec()]).unwrap(),
                vec![None]
            );
            assert_eq!(
                store
                    .get_many(&[key(1), key(2), key(1), key(1), key(2)])
                    .unwrap(),
                vec![value(1), value(2), value(1), value(1), value(2)]
            );
            let everything: Vec<Vec<u8>> = (0..300).map(key).collect();
            assert_eq!(
                store.get_many(&everything).unwrap(),
                (0..300).map(value).collect::<Vec<_>>()
            );

            // Eleven keys of one shard against a bound of four: counted
            // as eleven keys, and no engine call carried more than four.
            let one_shard: Vec<u32> = (0..300)
                .filter(|&i| store.partitioner.shard_of(&key(i)) == 0)
                .take(11)
                .collect();
            assert_eq!(one_shard.len(), 11);
            let (ops, batches) = worker_counts(&store);
            assert_eq!(
                store
                    .get_many(&one_shard.iter().map(|&i| key(i)).collect::<Vec<_>>())
                    .unwrap(),
                one_shard.iter().map(|&i| value(i)).collect::<Vec<_>>()
            );
            let (ops_after, batches_after) = worker_counts(&store);
            assert_eq!(ops_after - ops, 11);
            assert!(
                batches_after - batches >= 3,
                "{} calls",
                batches_after - batches
            );
        }
    }

    #[test]
    fn a_cache_miss_get_draws_one_trace_decision() {
        // Regression: `get` drew a trace decision for the probe and the
        // submit drew another for the queued request, so a sampled miss
        // lost its id and the sampling counter ran at twice the call
        // rate.
        let mut opts = P2KvsOptions::with_workers(2);
        opts.pin_workers = false;
        opts.cache_capacity = 1 << 20;
        opts.trace_sample = 1;
        opts.slow_request_threshold = Duration::from_secs(3600);
        let store = P2Kvs::open(
            LsmFactory::new(lsmkv::Options::for_test()),
            "store-draw",
            opts,
        )
        .unwrap();
        let drawn = |s: &P2Kvs<lsmkv::Db>| s.trace_seq.load(Ordering::Relaxed);
        store.put(b"k", b"v").unwrap();
        let before = drawn(&store);
        assert_eq!(store.get(b"k").unwrap().as_deref(), Some(&b"v"[..])); // a miss
        assert_eq!(drawn(&store), before + 1, "one draw per get");
        // At `trace_sample = 1` draw `n` hands out id `n + 1`. The id
        // drawn before the probe is the one the queued request carries
        // (the worker records the tree after acking; wait for it).
        let id = before + 1;
        let deadline = Instant::now() + Duration::from_secs(10);
        let tree = loop {
            let spans = store.trace_spans();
            if spans
                .iter()
                .any(|s| s.trace_id == id && s.kind == SpanKind::Engine)
            {
                break spans;
            }
            assert!(
                Instant::now() < deadline,
                "the miss left no span tree under its id"
            );
            std::thread::yield_now();
        };
        assert!(tree
            .iter()
            .any(|s| s.trace_id == id && s.kind == SpanKind::QueueWait));
        assert!(
            tree.iter().all(|s| s.trace_id <= id),
            "no second id was spent"
        );
        // A batched lookup is one call, hence one draw, however many
        // shards its misses fan out to.
        let keys: Vec<Vec<u8>> = (0..32u32).map(|i| format!("m{i}").into_bytes()).collect();
        let before = drawn(&store);
        store.get_many(&keys).unwrap();
        assert_eq!(drawn(&store), before + 1, "one draw per get_many");
    }

    #[test]
    fn paper_layout_disables_the_cache() {
        let opts = P2KvsOptions::paper_layout(4);
        assert_eq!(opts.cache_capacity, 0, "paper layout keeps the paper's request path");
        assert!(P2KvsOptions::default().cache_capacity > 0, "framework default is cache-on");
    }

    #[test]
    fn cache_counters_appear_in_metrics_snapshot() {
        let store = open_cached(2, 1 << 20);
        store.put(b"m", b"1").unwrap();
        store.get(b"m").unwrap(); // miss, marks the doorkeeper
        store.get(b"m").unwrap(); // miss + fill
        store.get(b"m").unwrap(); // hit
        let snap = store.metrics_snapshot();
        for name in [
            "p2kvs_cache_hits",
            "p2kvs_cache_misses",
            "p2kvs_cache_fills",
            "p2kvs_cache_evictions",
            "p2kvs_cache_invalidations",
        ] {
            assert!(snap.counter(name).is_some(), "missing counter {name}");
        }
        assert!(snap.gauge("p2kvs_cache_bytes").is_some(), "missing gauge");
        assert!(snap.counter("p2kvs_cache_hits").unwrap() >= 1);
        assert!(snap.counter("p2kvs_cache_fills").unwrap() >= 1);
        assert!(snap.gauge("p2kvs_cache_bytes").unwrap() > 0.0);
    }

    #[test]
    fn online_backup_restores_byte_identical_at_the_horizon() {
        let engine_opts = lsmkv::Options::for_test();
        let mut opts = P2KvsOptions::with_workers(2);
        opts.pin_workers = false;
        let store = P2Kvs::open(
            LsmFactory::new(engine_opts.clone()),
            "backup-src",
            opts.clone(),
        )
        .unwrap();
        for i in 0..200u32 {
            store
                .put(format!("pre-{i:04}").as_bytes(), format!("val-{i}").as_bytes())
                .unwrap();
        }
        // A cross-shard batch rides the GSN path and must land whole.
        store
            .write_batch(vec![
                WriteOp::Put { key: b"txn-a".to_vec(), value: b"1".to_vec() },
                WriteOp::Put { key: b"txn-b".to_vec(), value: b"2".to_vec() },
                WriteOp::Put { key: b"txn-c".to_vec(), value: b"3".to_vec() },
                WriteOp::Put { key: b"txn-d".to_vec(), value: b"4".to_vec() },
            ])
            .unwrap();
        let handle = store.backup("backup-out").unwrap();
        // Foreground traffic resumes while the streamer runs; writes
        // issued after `backup` returned are past the cut and must not
        // leak into the copy.
        for i in 0..100u32 {
            store.put(format!("post-{i:04}").as_bytes(), b"after").unwrap();
        }
        let report = handle.wait().unwrap();
        assert_eq!(report.shards as usize, store.shards());
        assert!(report.entries >= 204, "all pre-cut writes stream: {report:?}");
        let restored = P2Kvs::restore(
            LsmFactory::new(engine_opts.clone()),
            "backup-out",
            "backup-restored",
            opts.clone(),
        )
        .unwrap();
        assert_eq!(restored.shards(), store.shards(), "manifest pins the shard count");
        for i in 0..200u32 {
            assert_eq!(
                restored.get(format!("pre-{i:04}").as_bytes()).unwrap().as_deref(),
                Some(format!("val-{i}").as_bytes()),
                "pre-cut key {i}"
            );
        }
        for (k, v) in [(b"txn-a", b"1"), (b"txn-b", b"2"), (b"txn-c", b"3"), (b"txn-d", b"4")] {
            assert_eq!(restored.get(k).unwrap().as_deref(), Some(&v[..]));
        }
        for i in 0..100u32 {
            assert_eq!(
                restored.get(format!("post-{i:04}").as_bytes()).unwrap(),
                None,
                "post-cut write {i} leaked into the backup"
            );
        }
        // The backed-up flight journal came along: the restored store
        // recovered the cut's own provenance records.
        let kinds: Vec<_> = restored
            .recovered_flight_records()
            .iter()
            .map(|r| r.kind)
            .collect();
        assert!(kinds.contains(&JournalKind::BackupBegin), "{kinds:?}");
        assert!(kinds.contains(&JournalKind::ShardFrozen), "{kinds:?}");
        assert!(kinds.contains(&JournalKind::BackupComplete), "{kinds:?}");
        // And it keeps serving ordinary traffic past the horizon.
        restored.put(b"fresh", b"write").unwrap();
        assert_eq!(restored.get(b"fresh").unwrap().as_deref(), Some(&b"write"[..]));
    }

    #[test]
    fn restore_rejects_partial_backups_and_occupied_destinations() {
        use std::path::Path;
        let engine_opts = lsmkv::Options::for_test();
        let mut opts = P2KvsOptions::with_workers(2);
        opts.pin_workers = false;
        let store = P2Kvs::open(
            LsmFactory::new(engine_opts.clone()),
            "guard-src",
            opts.clone(),
        )
        .unwrap();
        store.put(b"k", b"v").unwrap();
        let report = store.backup("guard-backup").unwrap().wait().unwrap();
        assert_eq!(report.shards as usize, store.shards());
        let env = store.runtime.env.clone().unwrap();
        // A backup that never completed has shard files but no MANIFEST.
        env.create_dir_all(Path::new("guard-partial")).unwrap();
        let snap =
            p2kvs_storage::env::read_all(&*env, Path::new("guard-backup/shard-0.snap")).unwrap();
        p2kvs_storage::env::write_all(&*env, Path::new("guard-partial/shard-0.snap"), &snap)
            .unwrap();
        let err = P2Kvs::restore(
            LsmFactory::new(engine_opts.clone()),
            "guard-partial",
            "guard-dest",
            opts.clone(),
        )
        .err()
        .expect("restore must fail");
        assert!(matches!(err, Error::Backup(_)), "{err}");
        assert!(err.to_string().contains("MANIFEST"), "{err}");
        // Restoring over a live store directory is refused before any
        // byte is written.
        let err = P2Kvs::restore(
            LsmFactory::new(engine_opts.clone()),
            "guard-backup",
            "guard-src",
            opts.clone(),
        )
        .err()
        .expect("restore must fail");
        assert!(matches!(err, Error::Backup(_)), "{err}");
        assert!(err.to_string().contains("already contains"), "{err}");
        // Options that contradict the manifest's shard count are a
        // configuration error, not a silent reshard.
        let mut wrong = opts.clone();
        wrong.shards = store.shards() + 1;
        let err = P2Kvs::restore(
            LsmFactory::new(engine_opts.clone()),
            "guard-backup",
            "guard-dest",
            wrong,
        )
        .err()
        .expect("restore must fail");
        assert!(matches!(err, Error::Config(_)), "{err}");
        // Only one backup can be cutting at a time.
        let h1 = store.backup("guard-again").unwrap();
        h1.wait().unwrap();
    }

    #[test]
    fn read_your_writes_holds_through_the_cache() {
        let store = open_cached(2, 1 << 20);
        for round in 0..50u32 {
            let v = format!("v{round}");
            store.put(b"ryw", v.as_bytes()).unwrap();
            assert_eq!(
                store.get(b"ryw").unwrap().as_deref(),
                Some(v.as_bytes()),
                "round {round}"
            );
        }
        store.delete(b"ryw").unwrap();
        assert_eq!(store.get(b"ryw").unwrap(), None, "delete invalidates");
    }

    #[test]
    fn scale_workers_rejects_zero_and_scaling_stays_opt_in() {
        let store = open_cached(2, 0);
        assert!(matches!(store.scale_workers(0), Err(Error::Config(_))));
        assert_eq!(store.workers(), 2, "a rejected resize changes nothing");
        assert!(P2KvsOptions::default().scale.is_none(), "auto-scaling is opt-in");
        assert!(
            P2KvsOptions::paper_layout(4).scale.is_none(),
            "the paper layout pins the pool"
        );
    }

    #[test]
    fn scale_up_then_down_keeps_every_write_and_finalizes_metrics() {
        let store = open_cached(2, 1 << 20);
        for i in 0..200u32 {
            store
                .put(format!("el-{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        assert_eq!(store.scale_workers(4).unwrap(), 4);
        assert_eq!(store.workers(), 4);
        assert_eq!(store.live_workers(), vec![0, 1, 2, 3]);
        // Spread shards onto the newcomers so they do real work.
        let shards = store.shards();
        for s in 0..shards {
            store.migrate_shard(s, s % 4).unwrap();
        }
        for i in 200..400u32 {
            store
                .put(format!("el-{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        // Retire back down to one: every shard drains through the
        // epoch-fenced handoff and no acked write may be lost.
        assert_eq!(store.scale_workers(1).unwrap(), 1);
        assert_eq!(store.live_workers(), vec![0]);
        for i in 0..400u32 {
            assert_eq!(
                store.get(format!("el-{i:04}").as_bytes()).unwrap().as_deref(),
                Some(format!("v{i}").as_bytes()),
                "key {i} after the resizes"
            );
        }
        // Writes keep landing on the shrunken pool.
        store.put(b"post-scale", b"ok").unwrap();
        assert_eq!(store.get(b"post-scale").unwrap().as_deref(), Some(&b"ok"[..]));
        // Retired slots are finalized, not stale: the survivor owns
        // every shard and the retired slots read zero ownership, zero
        // parked cursors, zero depth.
        let snap = store.snapshot();
        assert_eq!(snap.workers.len(), 4, "retired slots stay visible");
        let live: Vec<_> = snap.workers.iter().filter(|w| w.live).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].shards_owned as usize, shards, "survivor owns everything");
        for w in snap.workers.iter().filter(|w| !w.live) {
            assert_eq!(w.shards_owned, 0, "retired slot owns nothing");
            assert_eq!(w.active_scans, 0, "retired slot parks no cursors");
            assert_eq!(w.queue_depth, 0, "retired ring is gone");
        }
        let metrics = store.metrics_snapshot();
        assert_eq!(metrics.gauge("p2kvs_workers"), Some(1.0));
        assert_eq!(
            metrics.gauge("p2kvs_worker_live{worker=\"0\"}"),
            Some(1.0)
        );
        assert_eq!(
            metrics.gauge("p2kvs_worker_live{worker=\"3\"}"),
            Some(0.0)
        );
        // The flight journal tells the story: 2 spawns at open, 2 more
        // at scale-up, 3 retires on the way down.
        let records = store.flight_records(usize::MAX);
        let spawns = records
            .iter()
            .filter(|r| r.kind == JournalKind::WorkerSpawn)
            .count();
        let retires = records
            .iter()
            .filter(|r| r.kind == JournalKind::WorkerRetire)
            .count();
        assert_eq!(spawns, 4);
        assert_eq!(retires, 3);
    }

    #[test]
    fn a_revived_slot_carries_its_retired_counters_forward() {
        let store = open_cached(2, 0);
        // Work lands on both workers (round-robin map over 8 shards).
        for i in 0..120u32 {
            store.put(format!("cc-{i:04}").as_bytes(), b"v").unwrap();
        }
        store.scale_workers(1).unwrap();
        let retired = store.snapshot().workers[1].clone();
        assert!(!retired.live);
        assert!(retired.ops > 0, "worker 1 served writes before retiring");
        // Reviving slot 1 must not reset its metric series: the new
        // incarnation starts from the retired incarnation's counters,
        // so the per-worker sums stay monotonic across the respawn.
        store.scale_workers(2).unwrap();
        let revived = store.snapshot().workers[1].clone();
        assert!(revived.live);
        assert!(
            revived.ops >= retired.ops,
            "slot 1's ops went backwards across the respawn: {} < {}",
            revived.ops,
            retired.ops
        );
        assert!(revived.busy >= retired.busy, "busy time went backwards");
        assert_eq!(revived.shards_owned, 0, "gauges start fresh on respawn");
    }

    #[test]
    fn open_scans_survive_a_scale_down() {
        let store = open_cached(3, 0);
        for i in 0..300u32 {
            store.put(format!("sc-{i:04}").as_bytes(), b"v").unwrap();
        }
        let mut iter = store.iter().unwrap();
        // Pull a bit so per-shard cursors are parked on their owners.
        let head = iter.next_chunk(10).unwrap();
        assert_eq!(head.len(), 10);
        // Drain two workers mid-scan; the parked cursors ride the
        // handoffs to the survivor.
        store.scale_workers(1).unwrap();
        let rest = iter.next_chunk(usize::MAX).unwrap();
        assert_eq!(
            head.len() + rest.len(),
            300,
            "no entry lost or duplicated across the resize"
        );
    }

    #[test]
    fn idle_pool_auto_scales_down_to_the_policy_floor() {
        let mut opts = P2KvsOptions::with_workers(3);
        opts.pin_workers = false;
        opts.cache_capacity = 0;
        opts.scale = Some(ScalePolicy {
            target_util: 0.5,
            min_workers: 1,
            max_workers: 4,
            cooldown: 0,
        });
        let store = P2Kvs::open(
            LsmFactory::new(lsmkv::Options::for_test()),
            "store-autoscale",
            opts,
        )
        .unwrap();
        store.put(b"k", b"v").unwrap();
        // The first tick only baselines (no interval yet); each later
        // tick sees an idle interval and retires one worker until the
        // policy floor.
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(2));
            store.rebalance_once().unwrap();
        }
        assert_eq!(store.workers(), 1, "idle pool converges on min_workers");
        assert_eq!(store.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        let retired: Vec<_> = store
            .introspect()
            .workers
            .iter()
            .filter(|w| !w.live)
            .map(|w| w.worker)
            .collect();
        assert_eq!(retired, vec![1, 2], "highest ids retire first");
    }

    #[test]
    fn queue_affinity_spreads_device_traffic_and_exports_per_queue_metrics() {
        use p2kvs_storage::{DeviceProfile, SimEnv};
        let env: p2kvs_storage::EnvRef =
            Arc::new(SimEnv::with_profile(DeviceProfile::instant().with_queues(4)));
        let mut engine = lsmkv::Options::rocksdb_like(env);
        engine.memtable_size = 16 << 10;
        engine.target_file_size = 16 << 10;
        let mut opts = P2KvsOptions::with_workers(4);
        opts.pin_workers = false;
        opts.cache_capacity = 0;
        let store = P2Kvs::open(LsmFactory::new(engine), "store-qaff", opts).unwrap();
        let val = vec![7u8; 256];
        for i in 0..2000u32 {
            store
                .put(format!("qaff-{i:05}").into_bytes().as_slice(), &val)
                .unwrap();
        }
        // Every shard's WAL is pinned to its owning worker's queue, so
        // with 4 workers over 4 queues the write traffic cannot collapse
        // onto a single submission queue.
        let snap = store.metrics_snapshot();
        let written: Vec<u64> = (0..4)
            .map(|q| {
                snap.counter(&format!("p2kvs_device_q{q}_bytes_written_total"))
                    .expect("per-queue counter exported")
            })
            .collect();
        let active = written.iter().filter(|&&b| b > 0).count();
        assert!(
            active >= 2,
            "queue affinity must spread writes over >1 submission queue: {written:?}"
        );
        // Reads come back intact regardless of placement.
        for i in (0..2000u32).step_by(97) {
            assert_eq!(
                store
                    .get(format!("qaff-{i:05}").into_bytes().as_slice())
                    .unwrap()
                    .as_deref(),
                Some(val.as_slice()),
                "key {i}"
            );
        }
    }
}

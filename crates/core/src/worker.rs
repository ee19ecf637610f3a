//! Worker threads: a dynamic set of owned shards each, drained with OBM.
//!
//! A worker is pinned to one core (§4.1) and owns a *set of virtual
//! shards* — engine instances reached through the shared directory in
//! [`ShardRuntime`]. Its loop is Algorithm 1 generalized to many shards:
//! dequeue a run of consecutive same-type requests, peel it into
//! per-shard groups (a stable split — per-key order is per-shard, so
//! regrouping across shards is invisible to callers), then execute each
//! group as one engine call — `write_batch` for writes, `multiget` for
//! reads (single-key `Get`s and the per-shard `MultiGet` entries of a
//! `get_many` alike) — falling back to per-request calls when the engine
//! lacks the capability or the group holds a single key. With one shard per
//! worker this is exactly the paper's layout.
//!
//! **Overlapped runs** (DESIGN.md §13.5): on a timed device, a run that
//! peels into two or more groups holds a `p2kvs_storage::IoChains` run
//! across them — each group is one chain of dependent device I/O — and
//! pays one device wait, for the chain that ends last, before the next
//! dequeue. Acks still leave as each group's engine call returns, so in
//! modelled time an ack can lead its group's device waits by up to the
//! longest chain's lag (one sync or seek latency or more on the slow
//! profiles).
//!
//! **Ownership migration** (DESIGN.md §9): the migrator sends two
//! control markers, one after the other, and waits on each like any
//! client waits on a request. `Op::HandoffOut` tells the old owner to
//! give a shard up — the epoch fence guarantees every request routed
//! under the old map is already ahead of the marker in its FIFO, so by
//! the time the marker is dequeued the shard's old-epoch work has fully
//! executed. The source leaves the shard's parked scan cursors in the
//! shard's handoff slot (`ShardRuntime::parked`); `Op::ShardInstall`
//! then tells the new owner to adopt them, own the shard, and replay any
//! requests it had *stashed* (new-epoch requests that arrived before the
//! install marker). The engine handle itself never moves — only the
//! right to execute against it does.
//!
//! The steady-state loop performs **no per-iteration heap allocation**:
//! the batch `Vec`, the lifecycle queue-wait scratch, and the merged-call
//! scratch buffers all live across iterations (a merged write copies its
//! keys and values into the engine's batch type; a merged read moves its
//! keys into the scratch and allocates only the values the engine
//! returns). The queue side is a lock-free ring with
//! a yield → park idle loop — see [`crate::queue`].
//!
//! **Scans are cooperative**: a worker never runs a scan longer than one
//! bounded chunk per dequeue. `Op::ScanOpen` opens an engine cursor,
//! serves the first chunk and parks the cursor in a worker-local table;
//! each `Op::ScanNext` serves one more chunk. Because every chunk is a
//! separate queue round-trip, point ops enqueued while a scan is in
//! flight are drained (and OBM-merged) between chunks instead of waiting
//! for the whole scan — the queue itself is the yield point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use p2kvs_obs::{
    GroupStamp, Journal, JournalKind, SpanKind, SpanRecord, SpanRing, WorkerLifecycle,
};
use p2kvs_storage::IoChains;
use p2kvs_util::sync::Mutex;
use p2kvs_util::timing::BusyClock;

use crate::engine::{EnginePhases, KvsEngine, ScanCursor};
use crate::error::{Error, Result};
use crate::queue::{RequestQueue, DEFAULT_QUEUE_CAPACITY};
use crate::shard::{MapCell, ShardMap, ShardStats};
use crate::types::{Op, OpClass, Request, Response, WriteOp};

/// Counters published by one worker.
#[derive(Default)]
pub struct WorkerStats {
    /// Useful processing time.
    pub busy: BusyClock,
    /// Requests completed, in keys: a multi-key read counts each of its
    /// keys, as the single-key requests it stands for would.
    pub ops: AtomicU64,
    /// Engine calls issued (batched or not).
    pub batches: AtomicU64,
    /// Requests (in keys, like `ops`) that rode a merged engine call.
    pub merged_ops: AtomicU64,
    /// Streaming scans opened (`ScanOpen` requests served).
    pub scans_opened: AtomicU64,
    /// Scan chunks served (first chunks plus resumes).
    pub scan_chunks: AtomicU64,
    /// Cursor resumptions (`ScanNext` chunks served).
    pub scan_resumes: AtomicU64,
    /// Cursors currently parked in the worker's table.
    pub scans_active: AtomicU64,
    /// Shards currently owned (gauge).
    pub shards_owned: AtomicU64,
    /// Shards handed away (migrations where this worker was the source).
    pub handoffs_out: AtomicU64,
    /// Shards installed (migrations where this worker was the target).
    pub handoffs_in: AtomicU64,
    /// Requests held for a shard whose install marker had not yet
    /// arrived, then replayed at install.
    pub stashed: AtomicU64,
    /// Stale-epoch requests forwarded to the current owner. The routing
    /// fence makes this path unreachable — every push happens under an
    /// epoch pin the migrator waits out — so a nonzero value flags a
    /// broken fence.
    pub rerouted: AtomicU64,
    /// Times the drain loop found its ring empty — past the yield bound,
    /// if it ran one — and slept (counted by its [`RequestQueue`],
    /// shared): the next request after each of these paid a wake-up.
    pub parks: Arc<AtomicU64>,
    /// Device wait the worker did not pay, ns: what the shard groups of
    /// its overlapped runs owed in sum, minus the one wait each run paid
    /// (DESIGN.md §13.5).
    pub io_overlap_saved_ns: AtomicU64,
}

impl WorkerStats {
    /// Mean requests (in keys) per engine call.
    pub fn avg_batch_size(&self) -> f64 {
        let b = self.batches.load(Ordering::Relaxed);
        if b == 0 {
            0.0
        } else {
            self.ops.load(Ordering::Relaxed) as f64 / b as f64
        }
    }
}

/// Per-worker configuration (split out of the spawn signature).
#[derive(Debug, Clone, Copy)]
pub struct WorkerConfig {
    /// OBM batch bound `M`, in keys (1 disables merging).
    pub batch_max: usize,
    /// Request ring capacity (rounded up to a power of two; full queues
    /// apply backpressure to producers — see [`crate::queue`]).
    pub queue_capacity: usize,
    /// Bind the worker thread to core `id`.
    pub pin: bool,
    /// Hard cap on entries per scan chunk. Requests asking for more are
    /// clamped, so no single dequeue can head-of-line-block the queue
    /// behind a long scan. `usize::MAX` lets one dequeue serve a whole
    /// scan (what `bench`'s scan-interference run compares against).
    pub scan_chunk_entries: usize,
    /// Hard cap on payload bytes per scan chunk (same clamping).
    pub scan_chunk_bytes: usize,
    /// Device submission queue this worker's engine I/O should ride.
    /// Installed as the thread's ambient queue at spawn (see
    /// `p2kvs_storage::ioqueue`), so WAL appends and flushes issued
    /// from the worker land on its queue without per-file plumbing.
    /// `None` leaves placement to file-hash striping.
    pub io_queue: Option<usize>,
}

/// Default per-chunk entry bound.
pub const DEFAULT_SCAN_CHUNK_ENTRIES: usize = 256;
/// Default per-chunk payload-byte bound (1 MiB).
pub const DEFAULT_SCAN_CHUNK_BYTES: usize = 1 << 20;

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            batch_max: 32,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            pin: false,
            scan_chunk_entries: DEFAULT_SCAN_CHUNK_ENTRIES,
            scan_chunk_bytes: DEFAULT_SCAN_CHUNK_BYTES,
            io_queue: None,
        }
    }
}

/// Shared routing state every worker in a store references: the
/// per-shard engine directory, the live routing snapshot, the handoff
/// slots, and per-shard service gauges. Engines are
/// reachable from every worker — "ownership" of a shard is the exclusive
/// right to execute against its engine, tracked by the map and the
/// workers' owned sets, never by which thread holds the handle.
pub(crate) struct ShardRuntime<E> {
    /// Engine instances, indexed by shard.
    pub engines: Vec<Arc<E>>,
    /// The live routing snapshot, `shard → worker → ring`: the one
    /// handle every push goes through (submit paths, re-route, the
    /// migrator's markers). Ring slots are installed at spawn
    /// and cleared at retire (DESIGN.md §14), so pushes to a vanished
    /// worker bounce like pushes to a closed ring.
    pub map: MapCell,
    /// Per-shard handoff slot: between a migration's two markers the
    /// moving shard's parked scan cursors wait here — left by the old
    /// owner at `HandoffOut`, adopted by the new one at `ShardInstall`.
    pub parked: Vec<Mutex<Option<ScanTable>>>,
    /// Migrations completed (both markers acked), counted by the
    /// migrator.
    pub migrations: AtomicU64,
    /// Migrations that failed after the map was published.
    pub handoffs_aborted: AtomicU64,
    /// Per-shard counters the balancer reads, indexed by shard.
    pub shard_stats: Vec<Arc<ShardStats>>,
    /// Span sink shared by every worker: head-sampled requests leave
    /// their span trees here, slow groups their tail-kept pair.
    pub spans: Arc<SpanRing>,
    /// The store's flight recorder: workers journal handoffs, installs
    /// and scan lifecycle events into it.
    pub journal: Option<Arc<Journal>>,
    /// The lock-free hot-record read cache, when enabled. Workers keep
    /// it coherent: writes invalidate before the ack, the read path
    /// fills with a version check, and migrations flush the moving
    /// shard (DESIGN.md §11).
    pub cache: Option<Arc<crate::cache::ReadCache>>,
    /// The storage env backing every engine instance, used to attribute
    /// device I/O deltas to traced batches. Device counters are
    /// env-global, so with concurrent workers the delta is an upper
    /// bound on the batch's own I/O — good enough for a flame view.
    pub env: Option<p2kvs_storage::EnvRef>,
    /// Rendezvous for online backups: workers deposit forked engine
    /// snapshots here as `Op::BackupFreeze` markers execute
    /// (DESIGN.md §12).
    pub backup: Arc<crate::backup::BackupHub>,
}

/// A running worker.
pub struct WorkerHandle {
    /// The worker's request queue.
    pub queue: Arc<RequestQueue>,
    /// The worker's counters.
    pub stats: Arc<WorkerStats>,
    handle: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// Spawns a standalone worker `id` over a single engine — the
    /// one-instance-per-worker special case (a private one-shard
    /// runtime). The store uses `WorkerHandle::spawn_in`; this wrapper
    /// serves tests and embedders that want one queue over one engine.
    pub fn spawn<E: KvsEngine>(
        id: usize,
        engine: Arc<E>,
        config: WorkerConfig,
        lifecycle: Option<WorkerLifecycle>,
    ) -> WorkerHandle {
        let queue = Arc::new(RequestQueue::with_capacity(config.queue_capacity));
        let runtime = Arc::new(ShardRuntime {
            engines: vec![engine],
            map: MapCell::new(ShardMap::initial(1, 1).with_ring(0, Some(queue.clone()))),
            parked: vec![Mutex::new(None)],
            migrations: AtomicU64::new(0),
            handoffs_aborted: AtomicU64::new(0),
            shard_stats: vec![Arc::new(ShardStats::default())],
            spans: Arc::new(SpanRing::new(0)),
            journal: None,
            cache: None,
            env: None,
            backup: Arc::new(crate::backup::BackupHub::default()),
        });
        WorkerHandle::spawn_in(id, 0, runtime, queue, config, lifecycle)
    }

    /// Spawns a worker inside a shared [`ShardRuntime`]: thread name and
    /// core from `name_id`, routing identity `windex` (the store passes
    /// the same id twice). The worker drains `queue` — the ring already
    /// published in the runtime's map at slot `windex` — and initially
    /// owns the shards the map assigns to `windex`.
    ///
    /// The worker stamps every group at dequeue and at completion; when
    /// `lifecycle` is present that pair also feeds the queue-wait and
    /// service latency histograms and keeps the spans of slow groups.
    pub(crate) fn spawn_in<E: KvsEngine>(
        name_id: usize,
        windex: usize,
        rt: Arc<ShardRuntime<E>>,
        queue: Arc<RequestQueue>,
        config: WorkerConfig,
        lifecycle: Option<WorkerLifecycle>,
    ) -> WorkerHandle {
        let stats = Arc::new(WorkerStats {
            parks: queue.parks.clone(),
            ..WorkerStats::default()
        });
        let q = queue.clone();
        // Built here, not on the new thread: the spawner is the sole map
        // writer, so the owned set is read before any migration can name
        // this worker. A thread that started late would otherwise read a
        // shard migrated to it meanwhile as already its own and serve it
        // ahead of the old owner's `HandoffOut`, instead of stashing.
        let mut w = WorkerLoop::new(windex, rt, stats.clone(), config, lifecycle);
        let handle = std::thread::Builder::new()
            .name(format!("p2kvs-worker-{name_id}"))
            .spawn(move || {
                if config.pin {
                    p2kvs_util::affinity::pin_to_core(name_id);
                }
                if config.io_queue.is_some() {
                    p2kvs_storage::set_thread_io_queue(config.io_queue);
                }
                let max = config.batch_max.max(1);
                let mut batch: Vec<Request> = Vec::with_capacity(max);
                let mut spill: Vec<Request> = Vec::with_capacity(max);
                while q.pop_batch_into(max, &mut batch) {
                    // Control markers are Solo-class: always a batch of 1.
                    match batch[0].op {
                        Op::HandoffOut { shard } => {
                            let reply = w.handoff_out(shard);
                            batch.pop().expect("solo batch").finish(reply);
                            continue;
                        }
                        Op::ShardInstall { shard } => {
                            w.install_shard(shard);
                            batch.pop().expect("solo batch").finish(Ok(Response::Done));
                            continue;
                        }
                        _ => {}
                    }
                    // The drained run is same-class but may interleave
                    // this worker's shards; peel it into per-shard
                    // groups (a stable split, so per-key order — which
                    // is per-shard — is untouched) and execute each as
                    // one engine call. Without the split a worker owning
                    // several shards would see alternating-shard runs
                    // and OBM would degrade to singleton batches.
                    //
                    // A run that peels into two or more groups (never a
                    // Solo one: those are single requests) executes
                    // each group as one chain of device I/O and pays
                    // one device wait for all of them (DESIGN.md §13.5).
                    let mut chains: Option<IoChains> = None;
                    while !batch.is_empty() {
                        let shard = batch[0].shard;
                        if batch.iter().all(|r| r.shard == shard) {
                            std::mem::swap(&mut w.group, &mut batch);
                        } else {
                            spill.clear();
                            for req in batch.drain(..) {
                                if req.shard == shard {
                                    w.group.push(req);
                                } else {
                                    spill.push(req);
                                }
                            }
                            std::mem::swap(&mut batch, &mut spill);
                        }
                        if let Some(c) = chains.as_mut() {
                            c.next_chain();
                        } else if w.overlap && !batch.is_empty() {
                            chains = Some(IoChains::enter());
                        }
                        let keys = w.run_group(shard);
                        if chains.is_some() {
                            w.chained.push((shard, keys));
                        }
                    }
                    if let Some(c) = chains {
                        w.settle(c);
                    }
                }
                // Queue closed and drained: an install marker can no
                // longer arrive. Where the old owner already left the
                // shard's cursors in the handoff slot, adopt them and
                // serve the stashed requests after all; otherwise fail
                // them — their store is shutting down.
                let waiting: Vec<u64> = w.stash.keys().copied().collect();
                for shard in waiting {
                    if w.rt.parked[shard as usize].lock().is_some() {
                        w.install_shard(shard);
                    } else {
                        for req in w.stash.remove(&shard).into_iter().flatten() {
                            req.finish_err(&Error::Closed);
                        }
                    }
                }
            })
            .expect("spawn p2kvs worker");
        WorkerHandle {
            queue,
            stats,
            handle: Some(handle),
        }
    }

    /// Closes the queue and joins the thread (drains pending requests).
    pub fn shutdown(&mut self) {
        self.queue.close();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One worker thread's state. Everything is allocated once and reused:
/// the steady-state iteration touches no allocator.
struct WorkerLoop<E> {
    windex: usize,
    rt: Arc<ShardRuntime<E>>,
    stats: Arc<WorkerStats>,
    config: WorkerConfig,
    lifecycle: Option<WorkerLifecycle>,
    /// Shards this worker owns, each carrying its own parked scan
    /// cursors (the table travels with the shard).
    owned: HashMap<u64, ScanTable>,
    /// New-epoch requests for a shard whose install marker has not
    /// arrived yet, replayed FIFO at install.
    stash: HashMap<u64, Vec<Request>>,
    /// The requests [`WorkerLoop::run_group`] executes: one class, one
    /// shard. Empty between calls.
    group: Vec<Request>,
    waits: Vec<u64>,
    /// Sampled (trace_id, enqueue_us) pairs of the current group.
    traced: Vec<(u64, u64)>,
    batch_seq: u64,
    scratch: BatchScratch,
    /// Whether the env times a device: only then do the groups of one
    /// drained run overlap their I/O.
    overlap: bool,
    /// `(shard, keys)` of each group of the current overlapped run.
    chained: Vec<(u64, u64)>,
}

impl<E: KvsEngine> WorkerLoop<E> {
    fn new(
        windex: usize,
        rt: Arc<ShardRuntime<E>>,
        stats: Arc<WorkerStats>,
        config: WorkerConfig,
        lifecycle: Option<WorkerLifecycle>,
    ) -> WorkerLoop<E> {
        let max = config.batch_max.max(1);
        let owned: HashMap<u64, ScanTable> = rt
            .map
            .pin()
            .shards_of(windex)
            .into_iter()
            .map(|sh| (sh as u64, ScanTable::default()))
            .collect();
        stats
            .shards_owned
            .store(owned.len() as u64, Ordering::Relaxed);
        for sh in owned.keys() {
            rt.shard_stats[*sh as usize]
                .owner
                .store(windex, Ordering::Relaxed);
        }
        let overlap = rt
            .env
            .as_ref()
            .is_some_and(|e| e.device_utilization().is_some());
        WorkerLoop {
            windex,
            rt,
            stats,
            config,
            lifecycle,
            owned,
            stash: HashMap::new(),
            group: Vec::with_capacity(max),
            waits: Vec::with_capacity(max),
            traced: Vec::with_capacity(max),
            batch_seq: 0,
            scratch: BatchScratch::default(),
            overlap,
            chained: Vec::with_capacity(max),
        }
    }

    /// Closes an overlapped run: pays its one device wait and books the
    /// time as busy — it stands for the waits the groups would otherwise
    /// have slept inside their own stamps — to the worker and, split by
    /// keys, to the run's shards, so the balancer and the pool policy
    /// still see the device wait the worker pays. A run whose every group
    /// was stashed or forwarded served no shard and books nothing, so
    /// worker busy time stays the sum of its shards'.
    fn settle(&mut self, chains: IoChains) {
        let t0 = Instant::now();
        let charge = chains.finish();
        let paid = t0.elapsed();
        self.stats
            .io_overlap_saved_ns
            .fetch_add(charge.saved_ns, Ordering::Relaxed);
        let keys: u64 = self.chained.iter().map(|&(_, k)| k).sum();
        if keys == 0 {
            self.chained.clear();
            return;
        }
        self.stats.busy.add(paid);
        let paid_ns = paid.as_nanos() as u64;
        // Cumulative shares, so the shards' parts add up to `paid` exactly.
        let (mut done, mut booked) = (0, 0);
        for (shard, k) in self.chained.drain(..) {
            done += k;
            let upto = paid_ns * done / keys;
            let share = Duration::from_nanos(upto - booked);
            self.rt.shard_stats[shard as usize].record(0, share);
            booked = upto;
        }
    }

    /// Executes `self.group` — one class, all of `shard` — as one engine
    /// call and accounts for it. Every request a worker serves comes
    /// through here, the ones replayed from the stash included (as
    /// groups of one), so busy time, per-shard load, the latency
    /// histograms and the spans cover them all. Returns the keys it
    /// executed.
    fn run_group(&mut self, shard: u64) -> u64 {
        let rt = &*self.rt;
        if !self.owned.contains_key(&shard) {
            // Not ours (anymore / yet): stash or forward.
            for req in self.group.drain(..) {
                reroute_or_stash(self.windex, rt, &mut self.stash, &self.stats, req);
            }
            return 0;
        }
        // The backup freeze marker rides the ordinary ownership check
        // above (unlike the handoff markers): if the shard migrated, the
        // marker is stashed or forwarded like any request and the
        // snapshot forks on whichever worker owns the shard when it
        // finally executes — after the writes ahead of it.
        if matches!(self.group[0].op, Op::BackupFreeze { .. }) {
            let req = self.group.pop().expect("solo batch");
            freeze_shard(self.windex, rt, shard, req);
            return 0;
        }
        // "Scan active" means a parked cursor exists *before* this
        // batch: these are the point ops whose latency a concurrent
        // scan could have wrecked.
        let scan_active = self.owned.values().any(|t| !t.is_empty());
        let scans = self.owned.get_mut(&shard).expect("ownership checked above");
        // The first of the group's two clock reads: queue wait ends
        // here, service runs from here to completion (requests in one
        // OBM batch complete together).
        let dequeued = Instant::now();
        let class = self.group[0].op.class();
        let n = keys_in(&self.group);
        if self.lifecycle.is_some() {
            self.waits.clear();
            self.waits.extend(
                self.group
                    .iter()
                    .map(|r| dequeued.saturating_duration_since(r.enqueued).as_nanos() as u64),
            );
        }
        let engine = &rt.engines[shard as usize];
        self.batch_seq += 1;
        self.traced.clear();
        self.traced.extend(
            self.group
                .iter()
                .filter(|r| r.trace.is_sampled())
                .map(|r| (r.trace.id, rt.spans.stamp(r.enqueued))),
        );
        // Only a group carrying a head-sampled request reads the clock
        // a third time, and with it the engine and device clocks —
        // their "before" values cannot be had in hindsight, which is
        // why tail-kept groups stop at the batch span.
        let pre = (!self.traced.is_empty()).then(|| {
            (
                Instant::now(),
                engine.phase_clocks(),
                rt.env.as_ref().map(|e| e.io_stats()),
            )
        });
        execute_batch(
            &**engine,
            &mut self.group,
            &self.stats,
            &mut self.scratch,
            scans,
            &self.config,
            rt.journal.as_deref(),
            rt.cache.as_deref(),
        );
        // The second read. Busy time, per-shard load, the latency
        // histograms and the spans all come from this one pair.
        let stamp = GroupStamp {
            worker: self.windex as u32,
            shard: shard as u32,
            class: class.index(),
            batch_id: self.batch_seq,
            keys: n as u32,
            dequeued,
            completed: Instant::now(),
        };
        if let Some((t_call, pre_ph, pre_io)) = pre {
            let io = pre_io.map(|p| (p, rt.env.as_ref().expect("pre_io implies env").io_stats()));
            record_batch_spans(
                &rt.spans,
                &stamp,
                &self.traced,
                rt.spans.stamp(t_call),
                (pre_ph, engine.phase_clocks()),
                io,
            );
        }
        let service = stamp.service();
        self.stats.busy.add(service);
        rt.shard_stats[shard as usize].record(n, service);
        if let Some(lc) = &self.lifecycle {
            lc.observe(&stamp, &self.waits);
            if scan_active && class != OpClass::Solo {
                lc.observe_point_during_scan(self.waits.len(), service.as_nanos() as u64);
            }
        }
        n
    }

    /// Source half of a migration: give `shard` up, leaving its parked
    /// cursors in the handoff slot. Runs when the `HandoffOut` marker is
    /// dequeued — the epoch fence guarantees every old-epoch request for
    /// the shard is already executed.
    fn handoff_out(&mut self, shard: u64) -> Result<Response> {
        let Some(scans) = self.owned.remove(&shard) else {
            return Err(Error::Engine(format!(
                "worker {} does not own shard {shard}",
                self.windex
            )));
        };
        let (rt, stats) = (&*self.rt, &*self.stats);
        stats.handoffs_out.fetch_add(1, Ordering::Relaxed);
        stats
            .shards_owned
            .store(self.owned.len() as u64, Ordering::Relaxed);
        stats
            .scans_active
            .fetch_sub(scans.len() as u64, Ordering::Relaxed);
        if let Some(j) = rt.journal.as_deref() {
            j.record(
                JournalKind::HandoffOut,
                shard,
                self.windex as u64,
                scans.len() as u64,
                0,
            );
        }
        flush_cache_shard(rt, shard);
        *rt.parked[shard as usize].lock() = Some(scans);
        Ok(Response::Done)
    }

    /// Target half of a migration: adopt the cursors the source left,
    /// own the shard, and replay stashed requests in arrival order.
    fn install_shard(&mut self, shard: u64) {
        let (rt, stats) = (&*self.rt, &*self.stats);
        let scans = rt.parked[shard as usize].lock().take().unwrap_or_default();
        stats.handoffs_in.fetch_add(1, Ordering::Relaxed);
        stats
            .scans_active
            .fetch_add(scans.len() as u64, Ordering::Relaxed);
        if let Some(j) = rt.journal.as_deref() {
            j.record(
                JournalKind::ShardInstall,
                shard,
                self.windex as u64,
                scans.len() as u64,
                0,
            );
        }
        // Flushed on both halves of the migration (belt and braces): any
        // fill that raced the handoff — on either worker — is dropped
        // before the new owner serves traffic for the shard.
        flush_cache_shard(rt, shard);
        self.owned.insert(shard, scans);
        stats
            .shards_owned
            .store(self.owned.len() as u64, Ordering::Relaxed);
        rt.shard_stats[shard as usize]
            .owner
            .store(self.windex, Ordering::Relaxed);
        for req in self.stash.remove(&shard).into_iter().flatten() {
            self.group.push(req);
            self.run_group(shard);
        }
    }
}

/// Executes a `BackupFreeze` marker: forks the shard's engine-level
/// snapshot, deposits it in the backup hub, journals the freeze, and
/// acks the coordinator. Runs on whichever worker owns the shard when
/// the marker is dequeued (or replayed from a migration stash) — by
/// queue FIFO order the snapshot contains exactly the writes enqueued
/// ahead of the marker, which the coordinator's freeze protocol pins to
/// the GSN horizon. The fork itself is quick (a pinned LSM snapshot, an
/// index clone, or an eager in-memory dump); the expensive streaming
/// happens later, off the worker, from the deposited cursor.
fn freeze_shard<E: KvsEngine>(windex: usize, rt: &ShardRuntime<E>, shard: u64, req: Request) {
    match rt.engines[shard as usize].snapshot_for_backup() {
        Ok(source) => {
            let fidelity = source.fidelity;
            if let Some(horizon) = rt.backup.deposit(shard as u32, source) {
                if let Some(j) = rt.journal.as_deref() {
                    j.record(
                        JournalKind::ShardFrozen,
                        shard,
                        windex as u64,
                        fidelity.code(),
                        horizon,
                    );
                }
            }
            // A deposit with no open session is a stray marker from a
            // failed coordinator: the snapshot is dropped, the ack
            // still flows so nothing waits forever.
            req.finish(Ok(Response::Done));
        }
        Err(e) => req.finish_err(&e),
    }
}

/// Drops `shard`'s read-cache entries and journals the flush. Called on
/// both halves of a migration so cached values can never outlive the
/// ownership epoch they were filled under.
fn flush_cache_shard<E>(rt: &ShardRuntime<E>, shard: u64) {
    if let Some(c) = rt.cache.as_deref() {
        let (entries, bytes) = c.flush_shard(shard as u32);
        if let Some(j) = rt.journal.as_deref() {
            j.record(JournalKind::CacheFlush, shard, entries, bytes, 0);
        }
    }
}

/// Handles a request for a shard this worker does not own: stash it if
/// the map says the shard is migrating *to* us, else forward it to the
/// current owner.
fn reroute_or_stash<E: KvsEngine>(
    windex: usize,
    rt: &ShardRuntime<E>,
    stash: &mut HashMap<u64, Vec<Request>>,
    stats: &WorkerStats,
    req: Request,
) {
    let owner = rt.map.owner(req.shard as usize);
    if owner == windex {
        // We are the incoming owner; the install marker is still in
        // flight. Holding the request (replayed FIFO at install)
        // preserves arrival order.
        stats.stashed.fetch_add(1, Ordering::Relaxed);
        stash.entry(req.shard).or_default().push(req);
    } else {
        // Stale-epoch request — defensive only: the store's submit paths
        // hold a map pin across their pushes, and the migrator pushes
        // the HandoffOut marker only after `synchronize` has waited
        // those pins out, so its own traffic can never land here (the
        // stress suites assert the counter stays 0).
        stats.rerouted.fetch_add(1, Ordering::Relaxed);
        if let Err(r) = rt.map.send_to(owner, req) {
            r.finish_err(&Error::Closed);
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Parked streaming-scan cursors of **one shard**, keyed by the id
/// handed to the client in [`Response::Chunk`]. Lives on the owning
/// worker's thread and travels with the shard during a handoff (ids are
/// scoped per shard, so merged tables never collide); dropped cursors
/// release their engine snapshots.
#[derive(Default)]
pub(crate) struct ScanTable {
    next_id: u64,
    /// Each cursor with whether the flight journal holds its
    /// `scan_open` record, written when the cursor is first resumed.
    cursors: HashMap<u64, (ScanCursor, bool)>,
}

impl ScanTable {
    fn insert(&mut self, cursor: ScanCursor) -> u64 {
        self.next_id += 1;
        self.cursors.insert(self.next_id, (cursor, false));
        self.next_id
    }

    /// Drops cursor `id`; `Some(journaled)` if it was parked here.
    fn remove(&mut self, id: u64) -> Option<bool> {
        self.cursors.remove(&id).map(|(_, journaled)| journaled)
    }

    fn is_empty(&self) -> bool {
        self.cursors.is_empty()
    }

    fn len(&self) -> usize {
        self.cursors.len()
    }
}

/// Reusable buffers for merged engine calls, allocated once per worker.
#[derive(Default)]
struct BatchScratch {
    ops: Vec<WriteOp>,
    keys: Vec<Vec<u8>>,
}

/// Executes one OBM batch against the engine, draining `batch` (its
/// allocation is the caller's and is reused across calls). `scans` is
/// the target shard's cursor table.
#[allow(clippy::too_many_arguments)]
fn execute_batch<E: KvsEngine>(
    engine: &E,
    batch: &mut Vec<Request>,
    stats: &WorkerStats,
    scratch: &mut BatchScratch,
    scans: &mut ScanTable,
    config: &WorkerConfig,
    journal: Option<&Journal>,
    cache: Option<&crate::cache::ReadCache>,
) {
    let n = keys_in(batch);
    stats.ops.fetch_add(n, Ordering::Relaxed);
    stats.batches.fetch_add(1, Ordering::Relaxed);
    let shard = batch[0].shard as u32;
    let caps = engine.capabilities();
    match batch[0].op.class() {
        OpClass::Write if batch.len() > 1 && caps.batch_write => {
            // Only requests that actually ride a merged engine call count
            // as merged; engines without the fast path fall through to
            // per-request execution below and must not inflate the OBM
            // merge ratio.
            stats.merged_ops.fetch_add(n, Ordering::Relaxed);
            // Merge the run into one WriteBatch (Fig 10a). The copies are
            // deliberate: moving keys and values out of the requests
            // (`mem::take`, as the read merge below does) was measured on
            // `fill` and lost about a tenth of its throughput against copying them
            // (EXPERIMENTS.md, "Background data path").
            scratch.ops.clear();
            scratch.ops.extend(batch.iter().map(|r| match &r.op {
                Op::Put { key, value } => WriteOp::Put {
                    key: key.clone(),
                    value: value.clone(),
                },
                Op::Delete { key } => WriteOp::Delete { key: key.clone() },
                other => unreachable!("non-write op {other:?} in write batch"),
            }));
            let outcome = engine.write_batch(&scratch.ops, 0);
            scratch.ops.clear();
            // Coherence: invalidate after the engine write but before
            // any ack, so an acked writer can never re-read its old
            // value from the cache. A failed batch invalidates too —
            // the engine's state is uncertain, the cache must not be.
            if let Some(c) = cache {
                for req in batch.iter() {
                    match &req.op {
                        Op::Put { key, .. } | Op::Delete { key } => c.invalidate(shard, key),
                        other => unreachable!("non-write op {other:?} in write batch"),
                    }
                }
            }
            match outcome {
                Ok(()) => {
                    for req in batch.drain(..) {
                        req.finish(Ok(Response::Done));
                    }
                }
                Err(e) => {
                    for req in batch.drain(..) {
                        req.finish_err(&e);
                    }
                }
            }
        }
        OpClass::Read if n > 1 && caps.multiget => {
            stats.merged_ops.fetch_add(n, Ordering::Relaxed);
            // Merge the run into one multiget (Fig 10b). The keys move
            // out of the requests; a `MultiGet` keeps its (now empty)
            // slots, so it still knows how many values are its own.
            scratch.keys.clear();
            for req in batch.iter_mut() {
                match &mut req.op {
                    Op::Get { key } => scratch.keys.push(std::mem::take(key)),
                    Op::MultiGet { keys } => {
                        scratch.keys.extend(keys.iter_mut().map(std::mem::take))
                    }
                    other => unreachable!("non-read op {other:?} in read batch"),
                }
            }
            // Fill-on-miss version snapshot: taken before the engine
            // read so any write that lands in between bumps it and the
            // fill self-evicts instead of installing stale data.
            let cache = cache.map(|c| (c, c.version(shard)));
            let outcome = engine.multiget(&scratch.keys).and_then(|values| {
                if values.len() == scratch.keys.len() {
                    Ok(values)
                } else {
                    Err(Error::Engine(format!(
                        "multiget answered {} of {} keys",
                        values.len(),
                        scratch.keys.len()
                    )))
                }
            });
            match outcome {
                Ok(values) => {
                    if let Some((c, seen_version)) = cache {
                        for (key, v) in scratch.keys.iter().zip(&values) {
                            fill_cache(c, shard, key, v.as_deref(), seen_version);
                        }
                    }
                    let mut values = values.into_iter();
                    for req in batch.drain(..) {
                        let reply = match &req.op {
                            Op::MultiGet { keys } => {
                                Response::Values(values.by_ref().take(keys.len()).collect())
                            }
                            _ => Response::Value(values.next().expect("one value per key")),
                        };
                        req.finish(Ok(reply));
                    }
                }
                Err(e) => {
                    for req in batch.drain(..) {
                        req.finish_err(&e);
                    }
                }
            }
            scratch.keys.clear();
        }
        _ => {
            // Single request, or the engine lacks the batched fast path.
            for req in batch.drain(..) {
                execute_one(engine, req, stats, scans, config, journal, cache);
            }
        }
    }
}

/// Serves one bounded chunk, opening the cursor first for `ScanOpen`.
/// The cursor parks in `scans` between chunks; it is removed on
/// exhaustion, on error (a failed cursor must not leak its snapshot),
/// and on explicit close.
fn execute_scan<E: KvsEngine>(
    engine: &E,
    op: Op,
    shard: u64,
    stats: &WorkerStats,
    scans: &mut ScanTable,
    config: &WorkerConfig,
    journal: Option<&Journal>,
) -> crate::error::Result<Response> {
    // Flight-recorder shorthand: a = shard, b = cursor id. A cursor is
    // journaled when first resumed (`scan_open` at its first `ScanNext`,
    // `scan_close` for those alone): a short scan opens and closes one
    // per shard unresumed, which drowned every control-plane record.
    let jrec = |kind: JournalKind, id: u64| {
        if let Some(j) = journal {
            j.record(kind, shard, id, 0, 0);
        }
    };
    // A parked cursor is gone: journaled if its open was, counted always.
    let closed = |journaled: bool, id: u64| {
        if journaled {
            jrec(JournalKind::ScanClose, id);
        }
        stats.scans_active.fetch_sub(1, Ordering::Relaxed);
    };
    let clamp = |limit: usize, max_bytes: usize| {
        (
            limit.min(config.scan_chunk_entries).max(1),
            max_bytes.min(config.scan_chunk_bytes).max(1),
        )
    };
    match op {
        Op::ScanOpen {
            start,
            end,
            limit,
            max_bytes,
        } => {
            let (limit, max_bytes) = clamp(limit, max_bytes);
            let mut cursor = engine.open_cursor(&start, end.as_deref())?;
            let chunk = engine.scan_chunk(&mut cursor, limit, max_bytes)?;
            stats.scans_opened.fetch_add(1, Ordering::Relaxed);
            stats.scan_chunks.fetch_add(1, Ordering::Relaxed);
            let cursor = if chunk.done {
                None
            } else {
                stats.scans_active.fetch_add(1, Ordering::Relaxed);
                Some(scans.insert(cursor))
            };
            Ok(Response::Chunk {
                entries: chunk.entries,
                cursor,
            })
        }
        Op::ScanNext {
            cursor: id,
            limit,
            max_bytes,
        } => {
            let (limit, max_bytes) = clamp(limit, max_bytes);
            let (cursor, journaled) = scans
                .cursors
                .get_mut(&id)
                .ok_or_else(|| crate::error::Error::Engine(format!("unknown scan cursor {id}")))?;
            if !std::mem::replace(journaled, true) {
                jrec(JournalKind::ScanOpen, id);
            }
            let chunk = engine.scan_chunk(cursor, limit, max_bytes);
            if !matches!(&chunk, Ok(c) if !c.done) {
                // Exhausted, or failed: a failed cursor must not leak
                // its snapshot.
                scans.remove(id);
                closed(true, id);
            }
            let chunk = chunk?;
            stats.scan_chunks.fetch_add(1, Ordering::Relaxed);
            stats.scan_resumes.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Chunk {
                entries: chunk.entries,
                cursor: (!chunk.done).then_some(id),
            })
        }
        Op::ScanClose { cursor } => {
            if let Some(journaled) = scans.remove(cursor) {
                closed(journaled, cursor);
            }
            Ok(Response::Done)
        }
        other => unreachable!("non-scan op {other:?} in execute_scan"),
    }
}

/// Keys carried by `reqs`: the unit of the `ops` counters and of OBM's
/// batch bound.
fn keys_in(reqs: &[Request]) -> u64 {
    reqs.iter().map(|r| r.op.keys() as u64).sum()
}

/// Offers a value the engine just returned for `key` to the read cache.
/// `seen_version` is the shard's invalidation version from before the
/// engine read.
fn fill_cache(
    cache: &crate::cache::ReadCache,
    shard: u32,
    key: &[u8],
    value: Option<&[u8]>,
    seen_version: u64,
) {
    if let Some(v) = value {
        if cache.admit(shard, key) {
            cache.fill(shard, key, v, seen_version);
        }
    }
}

/// One unbatched engine `get`, with the cache fill of a miss.
fn get_and_fill<E: KvsEngine>(
    engine: &E,
    cache: Option<&crate::cache::ReadCache>,
    shard: u32,
    key: &[u8],
) -> crate::error::Result<Option<Vec<u8>>> {
    let cache = cache.map(|c| (c, c.version(shard)));
    let value = engine.get(key)?;
    if let Some((c, seen_version)) = cache {
        fill_cache(c, shard, key, value.as_deref(), seen_version);
    }
    Ok(value)
}

/// Executes one request without batching.
fn execute_one<E: KvsEngine>(
    engine: &E,
    req: Request,
    stats: &WorkerStats,
    scans: &mut ScanTable,
    config: &WorkerConfig,
    journal: Option<&Journal>,
    cache: Option<&crate::cache::ReadCache>,
) {
    let Request {
        op,
        completion,
        shard,
        ..
    } = req;
    let result = match op {
        Op::Put { key, value } => {
            let r = engine.put(&key, &value).map(|()| Response::Done);
            if let Some(c) = cache {
                c.invalidate(shard as u32, &key);
            }
            r
        }
        Op::Delete { key } => {
            let r = engine.delete(&key).map(|()| Response::Done);
            if let Some(c) = cache {
                c.invalidate(shard as u32, &key);
            }
            r
        }
        Op::Get { key } => get_and_fill(engine, cache, shard as u32, &key).map(Response::Value),
        Op::MultiGet { keys } => keys
            .iter()
            .map(|key| get_and_fill(engine, cache, shard as u32, key))
            .collect::<crate::error::Result<_>>()
            .map(Response::Values),
        op @ (Op::ScanOpen { .. } | Op::ScanNext { .. } | Op::ScanClose { .. }) => {
            execute_scan(engine, op, shard, stats, scans, config, journal)
        }
        Op::TxnBatch { ops, gsn } => {
            let r = engine.write_batch(&ops, gsn).map(|()| Response::Done);
            if let Some(c) = cache {
                for w in &ops {
                    c.invalidate(shard as u32, w.key());
                }
            }
            r
        }
        // Control markers are intercepted by the worker loop (handoff
        // markers before the routing decision, the backup freeze after
        // it); reaching this point means a caller injected one through
        // a non-worker execution path.
        Op::HandoffOut { .. } | Op::ShardInstall { .. } | Op::BackupFreeze { .. } => {
            Err(Error::Unsupported("control markers outside a worker loop"))
        }
    };
    match completion {
        crate::types::Completion::Sync(c) => c.fulfill(result),
        crate::types::Completion::Async(cb) => cb(result),
    }
}

/// Records the span tree of one head-sampled OBM batch: per sampled
/// request the `queue_wait` + `obm_batch` pair every kept group leaves,
/// then an `engine` span for the engine call proper, engine-phase child
/// spans synthesized from the instance's cumulative WAL/MemTable/read
/// clocks (laid out sequentially from the call start and clamped into
/// the engine window — the phases really do run in that order for a
/// write group), and a `device_io` span from the env's busy/byte deltas.
fn record_batch_spans(
    ring: &SpanRing,
    group: &GroupStamp,
    traced: &[(u64, u64)],
    call_us: u64,
    phases: (EnginePhases, EnginePhases),
    io: Option<(
        p2kvs_storage::IoStatsSnapshot,
        p2kvs_storage::IoStatsSnapshot,
    )>,
) {
    let engine_dur = ring.stamp(group.completed).saturating_sub(call_us).max(1);
    let (pre, post) = phases;
    let phase_deltas = [
        (SpanKind::PhaseWal, post.wal_ns.saturating_sub(pre.wal_ns)),
        (
            SpanKind::PhaseMemtable,
            post.memtable_ns.saturating_sub(pre.memtable_ns),
        ),
        (
            SpanKind::PhaseRead,
            post.read_ns.saturating_sub(pre.read_ns),
        ),
    ];
    let device = io.as_ref().map(|(pre_io, post_io)| {
        (
            post_io.busy_ns.saturating_sub(pre_io.busy_ns),
            post_io.total_bytes().saturating_sub(pre_io.total_bytes()),
        )
    });
    for &(trace_id, enq_us) in traced {
        let base = group.record_spans(ring, trace_id, enq_us);
        ring.record(SpanRecord {
            kind: SpanKind::Engine,
            start_us: call_us,
            dur_us: engine_dur,
            ..base
        });
        let mut offset = 0u64;
        for (kind, delta_ns) in phase_deltas {
            if delta_ns == 0 {
                continue;
            }
            let remaining = engine_dur.saturating_sub(offset);
            if remaining == 0 {
                break;
            }
            let dur = (delta_ns / 1_000).clamp(1, remaining);
            ring.record(SpanRecord {
                kind,
                start_us: call_us + offset,
                dur_us: dur,
                ..base
            });
            offset += dur;
        }
        if let Some((busy_ns, bytes)) = device {
            if busy_ns > 0 || bytes > 0 {
                ring.record(SpanRecord {
                    kind: SpanKind::DeviceIo,
                    start_us: call_us,
                    dur_us: (busy_ns / 1_000).clamp(1, engine_dur),
                    aux: bytes,
                    ..base
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineFactory, LsmFactory};
    use std::path::Path;

    fn test_config() -> WorkerConfig {
        WorkerConfig {
            batch_max: 32,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            pin: false,
            ..WorkerConfig::default()
        }
    }

    fn worker() -> (WorkerHandle, Arc<lsmkv::Db>) {
        let factory = LsmFactory::new(lsmkv::Options::for_test());
        let engine = Arc::new(factory.open(Path::new("w0"), None).unwrap());
        (
            WorkerHandle::spawn(0, engine.clone(), test_config(), None),
            engine,
        )
    }

    /// A minimal engine with neither `batch_write` nor `multiget`: OBM
    /// must fall back to per-request execution and count no merges.
    struct NoCapsEngine {
        map: std::sync::Mutex<std::collections::BTreeMap<Vec<u8>, Vec<u8>>>,
    }

    impl NoCapsEngine {
        fn new() -> NoCapsEngine {
            NoCapsEngine {
                map: std::sync::Mutex::new(std::collections::BTreeMap::new()),
            }
        }
    }

    impl KvsEngine for NoCapsEngine {
        fn put(&self, key: &[u8], value: &[u8]) -> crate::error::Result<()> {
            self.map
                .lock()
                .unwrap()
                .insert(key.to_vec(), value.to_vec());
            Ok(())
        }

        fn delete(&self, key: &[u8]) -> crate::error::Result<()> {
            self.map.lock().unwrap().remove(key);
            Ok(())
        }

        fn write_batch(&self, ops: &[WriteOp], _gsn: u64) -> crate::error::Result<()> {
            for op in ops {
                match op {
                    WriteOp::Put { key, value } => self.put(key, value)?,
                    WriteOp::Delete { key } => self.delete(key)?,
                }
            }
            Ok(())
        }

        fn get(&self, key: &[u8]) -> crate::error::Result<Option<Vec<u8>>> {
            Ok(self.map.lock().unwrap().get(key).cloned())
        }

        fn scan(
            &self,
            start: &[u8],
            count: usize,
        ) -> crate::error::Result<Vec<(Vec<u8>, Vec<u8>)>> {
            Ok(self
                .map
                .lock()
                .unwrap()
                .range(start.to_vec()..)
                .take(count)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect())
        }

        fn range(&self, begin: &[u8], end: &[u8]) -> crate::error::Result<Vec<(Vec<u8>, Vec<u8>)>> {
            Ok(self
                .map
                .lock()
                .unwrap()
                .range(begin.to_vec()..end.to_vec())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect())
        }

        fn capabilities(&self) -> crate::engine::Capabilities {
            crate::engine::Capabilities {
                batch_write: false,
                multiget: false,
                native_cursor: false,
            }
        }

        fn sync(&self) -> crate::error::Result<()> {
            Ok(())
        }

        fn mem_usage(&self) -> usize {
            0
        }
    }

    fn put_batch(n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::sync(Op::Put {
                    key: format!("k{i}").into_bytes(),
                    value: b"v".to_vec(),
                })
                .0
            })
            .collect()
    }

    #[test]
    fn merged_ops_not_counted_without_batch_capability() {
        // Regression: merged_ops used to be bumped before the capability
        // check, so engines without batch_write/multiget still reported
        // merged requests.
        let engine = NoCapsEngine::new();
        let stats = WorkerStats::default();
        let mut scratch = BatchScratch::default();
        let mut scans = ScanTable::default();
        execute_batch(
            &engine,
            &mut put_batch(8),
            &stats,
            &mut scratch,
            &mut scans,
            &test_config(),
            None,
            None,
        );
        assert_eq!(stats.ops.load(Ordering::Relaxed), 8);
        assert_eq!(stats.batches.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.merged_ops.load(Ordering::Relaxed),
            0,
            "no-caps engine executes per request; nothing merged"
        );
        let mut reads: Vec<Request> = (0..4)
            .map(|i| {
                Request::sync(Op::Get {
                    key: format!("k{i}").into_bytes(),
                })
                .0
            })
            .collect();
        execute_batch(
            &engine,
            &mut reads,
            &stats,
            &mut scratch,
            &mut scans,
            &test_config(),
            None,
            None,
        );
        assert_eq!(stats.merged_ops.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn merged_ops_counted_with_batch_capability() {
        let factory = LsmFactory::new(lsmkv::Options::for_test());
        let engine = factory.open(Path::new("w-merged"), None).unwrap();
        let stats = WorkerStats::default();
        let mut scratch = BatchScratch::default();
        let mut scans = ScanTable::default();
        execute_batch(
            &engine,
            &mut put_batch(5),
            &stats,
            &mut scratch,
            &mut scans,
            &test_config(),
            None,
            None,
        );
        assert_eq!(stats.ops.load(Ordering::Relaxed), 5);
        assert_eq!(
            stats.merged_ops.load(Ordering::Relaxed),
            5,
            "batch-write engine merges the whole run"
        );
        // A single-request batch is never a merge.
        execute_batch(
            &engine,
            &mut put_batch(1),
            &stats,
            &mut scratch,
            &mut scans,
            &test_config(),
            None,
            None,
        );
        assert_eq!(stats.merged_ops.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn a_read_run_of_gets_and_multigets_is_one_call_and_each_gets_its_own_values() {
        fn run<E: KvsEngine>(engine: &E, merged: u64) {
            for i in 0..4 {
                engine
                    .put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            let key = |s: &str| s.as_bytes().to_vec();
            let (mut batch, waiters): (Vec<_>, Vec<_>) = [
                Op::Get { key: key("k0") },
                Op::MultiGet {
                    keys: vec![key("k1"), key("absent"), key("k2")],
                },
                Op::Get { key: key("k3") },
                Op::MultiGet {
                    keys: vec![key("k0")],
                },
            ]
            .into_iter()
            .map(Request::sync)
            .unzip();
            let stats = WorkerStats::default();
            execute_batch(
                engine,
                &mut batch,
                &stats,
                &mut BatchScratch::default(),
                &mut ScanTable::default(),
                &test_config(),
                None,
                None,
            );
            let value = |s: &str| Some(s.as_bytes().to_vec());
            let replies: Vec<Response> = waiters.into_iter().map(|w| w.wait().unwrap()).collect();
            assert_eq!(
                replies,
                vec![
                    Response::Value(value("v0")),
                    Response::Values(vec![value("v1"), None, value("v2")]),
                    Response::Value(value("v3")),
                    Response::Values(vec![value("v0")]),
                ]
            );
            // Counted in keys: six of them, in one batch.
            assert_eq!(stats.ops.load(Ordering::Relaxed), 6);
            assert_eq!(stats.batches.load(Ordering::Relaxed), 1);
            assert_eq!(stats.merged_ops.load(Ordering::Relaxed), merged);
        }
        let factory = LsmFactory::new(lsmkv::Options::for_test());
        run(&factory.open(Path::new("w-reads"), None).unwrap(), 6);
        run(&NoCapsEngine::new(), 0);
    }

    #[test]
    fn merged_batch_engine_error_completes_every_request_with_the_error() {
        // An engine write_batch failure on an OBM-merged batch must fan
        // the error out to *every* rider: no hung waiters, no request
        // acked Ok for data the engine never applied.
        let faulty = std::sync::Arc::new(p2kvs_storage::FaultyEnv::over_mem());
        let mut opts = lsmkv::Options::for_test();
        opts.env = faulty.clone();
        opts.sync = lsmkv::SyncPolicy::Always;
        let factory = LsmFactory::new(opts);
        let engine = factory.open(Path::new("w-fault"), None).unwrap();
        faulty.set_plan(p2kvs_storage::FaultPlan {
            fail_sync: Some(faulty.sync_points() + 1),
            ..Default::default()
        });
        let stats = WorkerStats::default();
        let mut scratch = BatchScratch::default();
        let mut scans = ScanTable::default();
        let (mut batch, waiters): (Vec<_>, Vec<_>) = (0..8)
            .map(|i| {
                Request::sync(Op::Put {
                    key: format!("k{i}").into_bytes(),
                    value: b"v".to_vec(),
                })
            })
            .unzip();
        execute_batch(
            &engine,
            &mut batch,
            &stats,
            &mut scratch,
            &mut scans,
            &test_config(),
            None,
            None,
        );
        assert!(batch.is_empty(), "every request was completed");
        for (i, w) in waiters.into_iter().enumerate() {
            let err = w
                .wait()
                .expect_err("every merged request must observe the engine error");
            assert!(
                err.to_string().contains("injected fault"),
                "request {i}: {err}"
            );
        }
        assert_eq!(
            stats.merged_ops.load(Ordering::Relaxed),
            8,
            "the batch was merged"
        );
    }

    #[test]
    fn worker_thread_survives_engine_error_and_keeps_serving() {
        // End-to-end through the ring: a transient injected sync error
        // fails some requests, but the worker neither hangs nor dies, and
        // later requests succeed.
        let faulty = std::sync::Arc::new(p2kvs_storage::FaultyEnv::over_mem());
        let mut opts = lsmkv::Options::for_test();
        opts.env = faulty.clone();
        opts.sync = lsmkv::SyncPolicy::Always;
        let engine = LsmFactory::new(opts)
            .open(Path::new("w-fault-e2e"), None)
            .unwrap();
        let mut worker = WorkerHandle::spawn(
            0,
            std::sync::Arc::new(engine),
            WorkerConfig::default(),
            None,
        );

        faulty.set_plan(p2kvs_storage::FaultPlan {
            fail_sync: Some(faulty.sync_points() + 1),
            ..Default::default()
        });
        let mut waiters = Vec::new();
        for i in 0..16 {
            let (req, w) = Request::sync(Op::Put {
                key: format!("k{i}").into_bytes(),
                value: b"v".to_vec(),
            });
            worker.queue.push(req).ok().unwrap();
            waiters.push(w);
        }
        // Bounded wait: a hung waiter must fail the test, not wedge it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcomes: Vec<bool> = waiters.into_iter().map(|w| w.wait().is_ok()).collect();
            let _ = tx.send(outcomes);
        });
        let outcomes = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("all requests must complete after an engine error");
        let failed = outcomes.iter().filter(|ok| !**ok).count();
        assert!(
            failed >= 1,
            "the injected sync error must fail at least one request"
        );

        // The fault was one-shot: the worker still serves traffic.
        let (req, w) = Request::sync(Op::Put {
            key: b"after".to_vec(),
            value: b"v".to_vec(),
        });
        worker.queue.push(req).ok().unwrap();
        assert_eq!(w.wait().unwrap(), Response::Done);
        worker.shutdown();
    }

    #[test]
    fn execute_batch_drains_and_reuses_the_vec() {
        let engine = NoCapsEngine::new();
        let stats = WorkerStats::default();
        let mut scratch = BatchScratch::default();
        let mut scans = ScanTable::default();
        let mut batch = put_batch(8);
        let cap_before = batch.capacity();
        execute_batch(
            &engine,
            &mut batch,
            &stats,
            &mut scratch,
            &mut scans,
            &test_config(),
            None,
            None,
        );
        assert!(batch.is_empty(), "batch is drained, not consumed");
        assert_eq!(batch.capacity(), cap_before, "allocation is retained");
    }

    #[test]
    fn lifecycle_histograms_fill_and_trace_slow_requests() {
        let registry = p2kvs_obs::MetricsRegistry::new();
        let ring = Arc::new(SpanRing::new(256));
        // Threshold 0: every group is "slow", so each keeps its spans.
        let lc = WorkerLifecycle::new(&registry, 0, 0, ring.clone());
        let factory = LsmFactory::new(lsmkv::Options::for_test());
        let engine = Arc::new(factory.open(Path::new("w-obs"), None).unwrap());
        let mut worker = WorkerHandle::spawn(0, engine, test_config(), Some(lc));
        let mut completions = Vec::new();
        for i in 0..40 {
            let (req, c) = Request::sync(Op::Put {
                key: format!("k{i:02}").into_bytes(),
                value: b"v".to_vec(),
            });
            worker.queue.push(req).ok().unwrap();
            completions.push(c);
        }
        let (req, c) = Request::sync(Op::Get {
            key: b"k00".to_vec(),
        });
        worker.queue.push(req).ok().unwrap();
        completions.push(c);
        for c in completions {
            c.wait().unwrap();
        }
        // The worker observes a group after acking it; join before reading.
        worker.shutdown();
        let snap = registry.snapshot();
        let writes = snap
            .histogram("p2kvs_queue_wait_ns{worker=\"0\",class=\"write\"}")
            .unwrap();
        assert_eq!(writes.count, 40);
        let services = snap
            .histogram("p2kvs_service_ns{worker=\"0\",class=\"write\"}")
            .unwrap();
        assert_eq!(services.count, 40);
        let reads = snap
            .histogram("p2kvs_queue_wait_ns{worker=\"0\",class=\"read\"}")
            .unwrap();
        assert_eq!(reads.count, 1);
        // Threshold 0 keeps every group: a queue_wait + obm_batch pair
        // per engine call, under tail ids, sized in keys.
        let groups = worker.stats.batches.load(Ordering::Relaxed);
        assert_eq!(snap.counter("p2kvs_slow_requests_total"), Some(groups));
        let spans = ring.snapshot();
        assert_eq!(spans.len() as u64, 2 * groups);
        assert!(spans.iter().all(|s| s.tail_kept() && s.batch_size >= 1));
        let kept = |kind: SpanKind| spans.iter().filter(move |s| s.kind == kind);
        assert_eq!(kept(SpanKind::QueueWait).count() as u64, groups);
        assert_eq!(
            kept(SpanKind::Batch)
                .map(|s| u64::from(s.batch_size))
                .sum::<u64>(),
            41
        );
    }

    #[test]
    fn processes_sync_requests() {
        let (worker, _) = worker();
        let (req, done) = Request::sync(Op::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        });
        worker.queue.push(req).ok().unwrap();
        assert_eq!(done.wait().unwrap(), Response::Done);
        let (req, got) = Request::sync(Op::Get { key: b"k".to_vec() });
        worker.queue.push(req).ok().unwrap();
        assert_eq!(got.wait().unwrap(), Response::Value(Some(b"v".to_vec())));
    }

    #[test]
    fn batches_are_merged_and_all_complete() {
        let (worker, _) = worker();
        let mut completions = Vec::new();
        for i in 0..100 {
            let (req, c) = Request::sync(Op::Put {
                key: format!("k{i:03}").as_bytes().to_vec(),
                value: b"v".to_vec(),
            });
            worker.queue.push(req).ok().unwrap();
            completions.push(c);
        }
        for c in completions {
            assert_eq!(c.wait().unwrap(), Response::Done);
        }
        let stats = &worker.stats;
        assert_eq!(stats.ops.load(Ordering::Relaxed), 100);
        assert!(
            stats.batches.load(Ordering::Relaxed) <= 100,
            "some batching expected"
        );
        assert!(stats.avg_batch_size() >= 1.0);
    }

    /// One scan chunk: its entries and the continuation cursor (if any).
    type Chunk = (Vec<(Vec<u8>, Vec<u8>)>, Option<u64>);

    /// Drives one chunk through the worker queue.
    fn pull_chunk(worker: &WorkerHandle, op: Op) -> Chunk {
        let (req, c) = Request::sync(op);
        worker.queue.push(req).ok().unwrap();
        match c.wait().unwrap() {
            Response::Chunk { entries, cursor } => (entries, cursor),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scan_streams_in_chunks_through_the_queue() {
        let (worker, _) = worker();
        for i in 0..10 {
            let (req, c) = Request::sync(Op::Put {
                key: format!("k{i}").as_bytes().to_vec(),
                value: format!("{i}").as_bytes().to_vec(),
            });
            worker.queue.push(req).ok().unwrap();
            c.wait().unwrap();
        }
        let (first, cursor) = pull_chunk(
            &worker,
            Op::ScanOpen {
                start: b"k3".to_vec(),
                end: None,
                limit: 3,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(first.len(), 3);
        assert_eq!(first[0].0, b"k3");
        let mut cursor = cursor.expect("7 keys remain past k5");
        assert_eq!(worker.stats.scans_active.load(Ordering::Relaxed), 1);

        // Point ops are served while the cursor is parked: the scan does
        // not block the queue between chunks.
        let (req, c) = Request::sync(Op::Get {
            key: b"k0".to_vec(),
        });
        worker.queue.push(req).ok().unwrap();
        assert_eq!(c.wait().unwrap(), Response::Value(Some(b"0".to_vec())));

        let mut all = first;
        loop {
            let (entries, next) = pull_chunk(
                &worker,
                Op::ScanNext {
                    cursor,
                    limit: 3,
                    max_bytes: usize::MAX,
                },
            );
            all.extend(entries);
            match next {
                Some(id) => cursor = id,
                None => break,
            }
        }
        let keys: Vec<_> = all.iter().map(|(k, _)| k.clone()).collect();
        let want: Vec<Vec<u8>> = (3..10).map(|i| format!("k{i}").into_bytes()).collect();
        assert_eq!(keys, want, "chunked scan covers the full suffix in order");
        assert_eq!(worker.stats.scans_active.load(Ordering::Relaxed), 0);
        assert!(worker.stats.scan_resumes.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn scan_chunk_sizes_are_clamped_by_worker_config() {
        let factory = LsmFactory::new(lsmkv::Options::for_test());
        let engine = Arc::new(factory.open(Path::new("w-clamp"), None).unwrap());
        let config = WorkerConfig {
            scan_chunk_entries: 2,
            ..WorkerConfig::default()
        };
        let worker = WorkerHandle::spawn(0, engine, config, None);
        for i in 0..6 {
            let (req, c) = Request::sync(Op::Put {
                key: format!("c{i}").into_bytes(),
                value: b"v".to_vec(),
            });
            worker.queue.push(req).ok().unwrap();
            c.wait().unwrap();
        }
        // The client asks for everything in one chunk; the worker caps it.
        let (entries, cursor) = pull_chunk(
            &worker,
            Op::ScanOpen {
                start: Vec::new(),
                end: None,
                limit: usize::MAX,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(entries.len(), 2, "chunk clamped to scan_chunk_entries");
        assert!(cursor.is_some(), "scan must continue past the clamp");
    }

    #[test]
    fn scan_next_on_unknown_cursor_is_an_error_and_close_is_idempotent() {
        let (worker, _) = worker();
        let (req, c) = Request::sync(Op::ScanNext {
            cursor: 99,
            limit: 1,
            max_bytes: usize::MAX,
        });
        worker.queue.push(req).ok().unwrap();
        let err = c.wait().expect_err("unknown cursor must not hang or panic");
        assert!(err.to_string().contains("unknown scan cursor"), "{err}");

        for i in 0..8 {
            let (req, c) = Request::sync(Op::Put {
                key: format!("x{i}").into_bytes(),
                value: b"v".to_vec(),
            });
            worker.queue.push(req).ok().unwrap();
            c.wait().unwrap();
        }
        let (_, cursor) = pull_chunk(
            &worker,
            Op::ScanOpen {
                start: Vec::new(),
                end: None,
                limit: 2,
                max_bytes: usize::MAX,
            },
        );
        let cursor = cursor.unwrap();
        for _ in 0..2 {
            let (req, c) = Request::sync(Op::ScanClose { cursor });
            worker.queue.push(req).ok().unwrap();
            assert_eq!(c.wait().unwrap(), Response::Done, "close is idempotent");
        }
        assert_eq!(worker.stats.scans_active.load(Ordering::Relaxed), 0);
        let (req, c) = Request::sync(Op::ScanNext {
            cursor,
            limit: 1,
            max_bytes: usize::MAX,
        });
        worker.queue.push(req).ok().unwrap();
        assert!(c.wait().is_err(), "a closed cursor cannot be resumed");
    }

    #[test]
    fn txn_batch_carries_gsn() {
        let (worker, engine) = worker();
        let (req, c) = Request::sync(Op::TxnBatch {
            ops: vec![WriteOp::Put {
                key: b"t".to_vec(),
                value: b"1".to_vec(),
            }],
            gsn: 42,
        });
        worker.queue.push(req).ok().unwrap();
        c.wait().unwrap();
        assert_eq!(engine.get(b"t").unwrap().unwrap(), b"1");
    }

    #[test]
    fn async_requests_invoke_callback() {
        let (worker, _) = worker();
        let (tx, rx) = std::sync::mpsc::channel();
        let req = Request::asynchronous(
            Op::Put {
                key: b"a".to_vec(),
                value: b"b".to_vec(),
            },
            Box::new(move |r| {
                tx.send(r.is_ok()).unwrap();
            }),
        );
        worker.queue.push(req).ok().unwrap();
        assert!(rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap());
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let (mut worker, _) = worker();
        let mut completions = Vec::new();
        for i in 0..50 {
            let (req, c) = Request::sync(Op::Put {
                key: format!("d{i}").as_bytes().to_vec(),
                value: b"v".to_vec(),
            });
            worker.queue.push(req).ok().unwrap();
            completions.push(c);
        }
        worker.shutdown();
        for c in completions {
            assert!(c.wait().is_ok(), "pending requests must complete");
        }
    }

    /// A runtime of `shards` shards (one shared engine, round-robin
    /// owners) over two rings. Tests spawn workers on the rings they
    /// want drained and pop the others by hand.
    fn two_ring_runtime(
        dir: &str,
        shards: usize,
    ) -> (
        Arc<ShardRuntime<lsmkv::Db>>,
        Vec<Arc<RequestQueue>>,
        Arc<lsmkv::Db>,
    ) {
        let factory = LsmFactory::new(lsmkv::Options::for_test());
        let engine = Arc::new(factory.open(Path::new(dir), None).unwrap());
        for i in 0..8 {
            KvsEngine::put(&*engine, format!("g{i}").as_bytes(), b"v").unwrap();
        }
        let queues: Vec<_> = (0..2)
            .map(|_| Arc::new(RequestQueue::with_capacity(DEFAULT_QUEUE_CAPACITY)))
            .collect();
        let mut map = ShardMap::initial(shards, 2);
        for (w, q) in queues.iter().enumerate() {
            map = map.with_ring(w, Some(q.clone()));
        }
        let rt = Arc::new(ShardRuntime {
            engines: vec![engine.clone(); shards],
            map: MapCell::new(map),
            parked: (0..shards).map(|_| Mutex::new(None)).collect(),
            migrations: AtomicU64::new(0),
            handoffs_aborted: AtomicU64::new(0),
            shard_stats: (0..shards).map(|_| Arc::default()).collect(),
            spans: Arc::new(SpanRing::new(0)),
            journal: None,
            cache: None,
            env: None,
            backup: Arc::new(crate::backup::BackupHub::default()),
        });
        (rt, queues, engine)
    }

    #[test]
    fn cursors_left_by_the_source_are_adopted_by_the_target_exactly_once() {
        let (rt, queues, _) = two_ring_runtime("w-adopt", 1);
        let spawn = |w: usize| {
            WorkerHandle::spawn_in(w, w, rt.clone(), queues[w].clone(), test_config(), None)
        };
        let workers = [spawn(0), spawn(1)];
        let active = |w: usize| workers[w].stats.scans_active.load(Ordering::Relaxed);
        // Routed through the map, like a client's chunk request.
        let chunk = |op: Op| {
            let (req, done) = Request::sync(op);
            rt.map.send(0, req).ok().unwrap();
            match done.wait().unwrap() {
                Response::Chunk { entries, cursor } => (entries, cursor),
                other => panic!("unexpected {other:?}"),
            }
        };
        let (first, cursor) = chunk(Op::ScanOpen {
            start: Vec::new(),
            end: None,
            limit: 3,
            max_bytes: usize::MAX,
        });
        let cursor = cursor.expect("five keys remain");
        assert_eq!((active(0), active(1)), (1, 0));
        crate::store::migrate_locked(&rt, 0, 1).unwrap();
        assert!(
            rt.parked[0].lock().is_none(),
            "the slot is emptied by the install"
        );
        assert_eq!(
            (active(0), active(1)),
            (0, 1),
            "debited once, credited once"
        );
        // The cursor resumes on the new owner where it stopped.
        let (next, cursor) = chunk(Op::ScanNext {
            cursor,
            limit: 3,
            max_bytes: usize::MAX,
        });
        assert_eq!(first.len() + next.len(), 6);
        assert!(first.last().unwrap().0 < next[0].0);
        // And travels back: nothing was left behind for a second install
        // to pick up again.
        crate::store::migrate_locked(&rt, 0, 0).unwrap();
        assert_eq!((active(0), active(1)), (1, 0));
        let (rest, end) = chunk(Op::ScanNext {
            cursor: cursor.expect("two keys remain"),
            limit: 3,
            max_bytes: usize::MAX,
        });
        assert_eq!((rest.len(), end), (2, None));
        assert_eq!((active(0), active(1)), (0, 0));
        assert_eq!(rt.migrations.load(Ordering::Relaxed), 2);
        assert_eq!(rt.handoffs_aborted.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn handoff_out_for_an_unowned_shard_is_an_error_the_migrator_surfaces() {
        let (rt, queues, _) = two_ring_runtime("w-unowned", 2);
        // The map gives shard 1 to worker 1, but ring 1 is drained by a
        // worker that believes it is worker 0 and so owns shard 0 only:
        // the map and the worker disagree.
        let _w = WorkerHandle::spawn_in(1, 0, rt.clone(), queues[1].clone(), test_config(), None);
        let err = crate::store::migrate_locked(&rt, 1, 0).unwrap_err();
        assert!(err.to_string().contains("does not own shard 1"), "{err}");
        assert_eq!(
            queues[0].len(),
            0,
            "no install marker follows a failed handoff"
        );
        assert_eq!(rt.migrations.load(Ordering::Relaxed), 0);
        assert_eq!(rt.handoffs_aborted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shutdown_drain_credits_parked_cursors_before_executing_stashed_closes() {
        // Regression (scan-gauge audit): the shutdown drain used to
        // execute stashed requests against the handed-off cursor table
        // without crediting scans_active for the parked cursors it had
        // just taken, so a stashed ScanClose racing a shard handoff
        // drove the gauge to u64::MAX.
        let (rt, queues, engine) = two_ring_runtime("w-drain-gauge", 1);
        // Worker 1 owns nothing under the initial map (shard 0 -> worker 0).
        let ring = queues[1].clone();
        let mut w1 = WorkerHandle::spawn_in(1, 1, rt.clone(), ring, test_config(), None);
        // Prove w1 is running under the old map: a request it does not
        // own is rerouted to worker 0's queue, which the test drains by
        // hand (there is no worker 0 thread).
        let dummy = Request::asynchronous(
            Op::Put {
                key: b"dummy".to_vec(),
                value: b"v".to_vec(),
            },
            Box::new(|_| {}),
        )
        .on_shard(0);
        queues[1].push(dummy).ok().unwrap();
        let mut rerouted = Vec::new();
        assert!(
            queues[0].pop_batch_into(1, &mut rerouted),
            "w1 must reroute under the old map"
        );
        rerouted.remove(0).finish(Ok(Response::Done));
        // Source half of a migration, by hand: park one cursor in the
        // handoff slot, then point the map at worker 1. The install
        // marker is never sent — exactly the window the shutdown drain
        // covers.
        let mut parked = ScanTable::default();
        let cursor = engine.open_cursor(b"", None).unwrap();
        let id = parked.insert(cursor);
        *rt.parked[0].lock() = Some(parked);
        rt.map.publish(rt.map.pin().with_owner(0, 1));
        // w1 stashes the close (the map says w1, but no install arrived)…
        let (req, done) = Request::sync(Op::ScanClose { cursor: id });
        queues[1].push(req.on_shard(0)).ok().unwrap();
        // …and the shutdown drain executes it against the adopted table.
        w1.shutdown();
        assert_eq!(done.wait().unwrap(), Response::Done);
        assert_eq!(w1.stats.stashed.load(Ordering::Relaxed), 1);
        assert_eq!(
            w1.stats.scans_active.load(Ordering::Relaxed),
            0,
            "a stashed ScanClose executed at drain must balance, not underflow, the gauge"
        );
    }

    #[test]
    fn small_queue_capacity_applies_backpressure_but_completes() {
        let factory = LsmFactory::new(lsmkv::Options::for_test());
        let engine = Arc::new(factory.open(Path::new("w-bp"), None).unwrap());
        let config = WorkerConfig {
            batch_max: 4,
            queue_capacity: 4,
            pin: false,
            ..WorkerConfig::default()
        };
        let worker = WorkerHandle::spawn(0, engine, config, None);
        assert_eq!(worker.queue.capacity(), 4);
        let mut completions = Vec::new();
        for i in 0..200 {
            let (req, c) = Request::sync(Op::Put {
                key: format!("bp{i:03}").into_bytes(),
                value: b"v".to_vec(),
            });
            worker.queue.push(req).ok().unwrap();
            completions.push(c);
        }
        for c in completions {
            assert_eq!(c.wait().unwrap(), Response::Done);
        }
        assert_eq!(worker.stats.ops.load(Ordering::Relaxed), 200);
    }
}

//! The database: write pipeline, reads, background jobs, recovery.
//!
//! The write path reproduces RocksDB's architecture (paper §2.2):
//! concurrent writers queue into a group; the leader writes the WAL once
//! for the whole group; the group inserts into the MemTable either via the
//! leader (vanilla) or in parallel (concurrent MemTable); with pipelined
//! writes the next group's WAL overlaps the previous group's MemTable
//! phase. Background threads flush immutable memtables to L0 and run
//! compactions picked by the version set. All timings feeding the paper's
//! Fig 6 breakdown are collected here.

pub mod iter;
pub mod write_queue;

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use p2kvs_util::sync::{Condvar, Mutex};

use crate::batch::{BatchOp, WriteBatch};
use crate::compaction::{flush_memtable, run_compaction, JobContext};
use crate::error::{Error, Result};
use crate::memtable::{MemGet, MemTable};
use crate::options::{Options, ReadOptions, SyncPolicy, WriteOptions};
use crate::sst::BlockCache;
use crate::stats::DbStats;
use crate::types::{file_path, FileKind, SequenceNumber, ValueType};
use crate::version::edit::VersionEdit;
use crate::version::table_cache::TableCache;
use crate::version::{GetOutcome, Version, VersionSet};
use crate::wal::{LogReader, LogWriter};
pub use iter::DbIterator;
use write_queue::{form_group, GroupSync, Phase, SignaledPhase, WriterSlot};

/// Predicate deciding whether a WAL batch with the given GSN tag should be
/// replayed during recovery (the p2KVS transaction rollback hook, §4.5).
pub type RecoveryFilter = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// A background-job lifecycle notification, delivered from the background
/// thread that runs the job to the hook installed via
/// [`Db::install_event_hook`]. `Start` events fire before the job touches
/// the device; `Finish` events fire after the version edit is applied and
/// the state lock is released, so a hook may call back into the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbEvent {
    /// A memtable flush is starting; `bytes` is the memtable footprint.
    FlushStart { bytes: u64 },
    /// A flush finished; `bytes` is the L0 output written (0 on failure).
    FlushFinish { bytes: u64, ok: bool },
    /// A compaction is starting at `level`, reading `input_bytes`.
    CompactionStart { level: u32, input_bytes: u64 },
    /// A compaction at `level` finished, producing `output_bytes`. With
    /// `moved` the inputs changed level as they were: `output_bytes` is
    /// their size and no table byte was written.
    CompactionFinish {
        level: u32,
        output_bytes: u64,
        ok: bool,
        moved: bool,
    },
}

/// Observer for [`DbEvent`]s (the p2KVS flight recorder subscribes here).
pub type DbEventHook = Arc<dyn Fn(&DbEvent) + Send + Sync>;

/// The WAL writer and its file number; touched only by the current group
/// leader and by memtable switches (which the leader itself performs).
struct LogState {
    writer: Option<LogWriter>,
    number: u64,
}

/// Mutable engine state guarded by the state mutex.
struct DbState {
    mem: Arc<MemTable>,
    /// Immutable memtables with their WAL numbers, oldest first.
    imms: Vec<(u64, Arc<MemTable>)>,
    versions: VersionSet,
    bg_error: Option<String>,
    flush_active: bool,
    /// Levels claimed by in-flight compactions (one slot per level). A
    /// task at level L claims L and L+1, so concurrent background threads
    /// compact disjoint level pairs but never the same level twice.
    compact_busy: Vec<bool>,
}

impl DbState {
    fn any_compaction_active(&self) -> bool {
        self.compact_busy.iter().any(|&b| b)
    }

    /// Logs `edit` to the manifest and installs it, keeping `stats`'
    /// count of MANIFEST bytes current.
    fn log_and_apply(&mut self, edit: VersionEdit, stats: &DbStats) -> Result<()> {
        let result = self.versions.log_and_apply(edit);
        stats
            .manifest_bytes_written
            .store(self.versions.manifest_bytes_written(), Ordering::Relaxed);
        result
    }
}

struct DbInner {
    opts: Options,
    dir: PathBuf,
    table_cache: Arc<TableCache>,
    block_cache: Option<Arc<BlockCache>>,
    stats: Arc<DbStats>,
    state: Mutex<DbState>,
    /// Signals background work and stall releases (paired with `state`).
    bg_cv: Condvar,
    log: Mutex<LogState>,
    wal_queue: Mutex<VecDeque<Arc<WriterSlot>>>,
    /// Sequence allocation (reserved, possibly unpublished).
    next_seq: AtomicU64,
    /// Highest sequence visible to reads.
    visible_seq: AtomicU64,
    publish_mutex: Mutex<()>,
    publish_cv: Condvar,
    /// Active snapshot sequences with reference counts.
    snapshots: Mutex<BTreeMap<u64, usize>>,
    shutdown: AtomicBool,
    file_counter: Arc<AtomicU64>,
    /// Output files of in-flight background jobs: not yet in any version,
    /// but must not be garbage-collected (LevelDB's `pending_outputs_`).
    pending_outputs: Arc<Mutex<std::collections::HashSet<u64>>>,
    /// Set by [`Db::crash`] so `Drop` skips the final WAL sync.
    skip_sync_on_drop: AtomicBool,
    /// Serializes garbage-collection passes.
    gc_mutex: Mutex<()>,
    /// Background-job event observer (flight recorder), if installed.
    event_hook: Mutex<Option<DbEventHook>>,
}

/// An LSM-tree database instance.
pub struct Db {
    inner: Arc<DbInner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Db {
    /// Opens (creating if allowed) the database in `dir` within
    /// `opts.env`.
    pub fn open(opts: Options, dir: impl AsRef<Path>) -> Result<Db> {
        Self::open_with_recovery_filter(opts, dir, None)
    }

    /// Opens the database, replaying only WAL batches whose GSN tag the
    /// filter accepts (used by the p2KVS transaction layer to roll back
    /// uncommitted cross-instance transactions).
    pub fn open_with_recovery_filter(
        opts: Options,
        dir: impl AsRef<Path>,
        filter: Option<RecoveryFilter>,
    ) -> Result<Db> {
        let dir = dir.as_ref().to_path_buf();
        let env = opts.env.clone();
        env.create_dir_all(&dir)?;
        let versions = VersionSet::open(env.clone(), &dir, &opts)?;
        let file_counter = versions.file_counter();
        let block_cache = (opts.block_cache_size > 0)
            .then(|| Arc::new(BlockCache::new(opts.block_cache_size)));
        let table_cache = Arc::new(TableCache::new(env.clone(), dir.clone(), block_cache.clone()));
        let stats = Arc::new(DbStats::new(opts.num_levels));

        let mut state = DbState {
            mem: Arc::new(MemTable::new()),
            imms: Vec::new(),
            versions,
            bg_error: None,
            flush_active: false,
            compact_busy: vec![false; opts.num_levels],
        };

        // Replay WALs newer than the manifest's log number.
        let mut max_seq = state.versions.last_sequence.load(Ordering::Relaxed);
        let mut edit = VersionEdit::default();
        let mut wal_numbers: Vec<u64> = env
            .list_dir(&dir)?
            .iter()
            .filter_map(|p| crate::types::parse_file_name(&p.to_string_lossy()))
            .filter(|(num, kind)| *kind == FileKind::Wal && *num >= state.versions.log_number)
            .map(|(num, _)| num)
            .collect();
        wal_numbers.sort_unstable();
        {
            let ctx = JobContext {
                env: &env,
                dir: &dir,
                opts: &opts,
                table_cache: &table_cache,
                stats: &stats,
            };
            let counter = file_counter.clone();
            let alloc = move || counter.fetch_add(1, Ordering::Relaxed);
            let mut mem = Arc::new(MemTable::new());
            for wal in &wal_numbers {
                let path = file_path(&dir, *wal, FileKind::Wal);
                let mut reader = LogReader::new(env.new_sequential(&path)?);
                let mut record = Vec::new();
                while reader.read_record(&mut record)? {
                    let batch = WriteBatch::from_data(&record)?;
                    if let Some(f) = &filter {
                        if !f(batch.gsn()) {
                            continue;
                        }
                    }
                    let end = batch.sequence() + u64::from(batch.count()).saturating_sub(1);
                    max_seq = max_seq.max(end);
                    Self::apply_batch_to_mem(&mem, &batch)?;
                    if mem.approximate_memory_usage() >= opts.memtable_size {
                        edit.added
                            .extend(flush_memtable(&ctx, &mem, &alloc)?.map(|f| (0, f)));
                        mem = Arc::new(MemTable::new());
                    }
                }
            }
            if !mem.is_empty() {
                edit.added
                    .extend(flush_memtable(&ctx, &mem, &alloc)?.map(|f| (0, f)));
            }
        }

        // Fresh WAL for new writes, pinned to the instance's home queue.
        let new_log = state.versions.allocate_file_number();
        let wal_path = file_path(&dir, new_log, FileKind::Wal);
        let wal_file = match opts.io_queue {
            Some(q) => env.new_writable_on(&wal_path, q)?,
            None => env.new_writable(&wal_path)?,
        };
        let writer = LogWriter::new(wal_file);
        edit.log_number = Some(new_log);
        edit.last_sequence = Some(max_seq);
        state.versions.last_sequence.store(max_seq, Ordering::Relaxed);
        state.log_and_apply(edit, &stats)?;

        let n_bg = opts.compaction_threads.max(1) + 1;
        let inner = Arc::new(DbInner {
            stats,
            table_cache,
            block_cache,
            state: Mutex::new(state),
            bg_cv: Condvar::new(),
            log: Mutex::new(LogState {
                writer: Some(writer),
                number: new_log,
            }),
            wal_queue: Mutex::new(VecDeque::new()),
            next_seq: AtomicU64::new(max_seq),
            visible_seq: AtomicU64::new(max_seq),
            publish_mutex: Mutex::new(()),
            publish_cv: Condvar::new(),
            snapshots: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            file_counter,
            pending_outputs: Arc::new(Mutex::new(std::collections::HashSet::new())),
            skip_sync_on_drop: AtomicBool::new(false),
            gc_mutex: Mutex::new(()),
            event_hook: Mutex::new(None),
            opts,
            dir,
        });
        inner.remove_obsolete_files();

        let threads = (0..n_bg)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("lsmkv-bg-{i}"))
                    .spawn(move || DbInner::background_loop(inner))
                    .expect("spawn background thread")
            })
            .collect();
        Ok(Db {
            inner,
            threads: Mutex::new(threads),
        })
    }

    /// Applies every update in `batch` to `mem` using the batch's assigned
    /// sequence numbers.
    fn apply_batch_to_mem(mem: &MemTable, batch: &WriteBatch) -> Result<()> {
        let mut seq = batch.sequence();
        for op in batch.iter() {
            match op? {
                BatchOp::Put { key, value } => mem.add(seq, ValueType::Value, key, value),
                BatchOp::Delete { key } => mem.add(seq, ValueType::Deletion, key, b""),
            }
            seq += 1;
        }
        Ok(())
    }

    /// Inserts `key -> value`.
    pub fn put(&self, opts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
        let mut b = WriteBatch::new();
        b.put(key, value);
        self.write(opts, b)
    }

    /// Deletes `key`.
    pub fn delete(&self, opts: &WriteOptions, key: &[u8]) -> Result<()> {
        let mut b = WriteBatch::new();
        b.delete(key);
        self.write(opts, b)
    }

    /// Applies `batch` atomically.
    pub fn write(&self, opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(Error::ShuttingDown);
        }
        let count = u64::from(batch.count());
        let user_bytes = (batch.size() - crate::batch::BATCH_HEADER) as u64;
        let slot = WriterSlot::new(batch, opts.sync, opts.disable_wal);
        {
            let mut q = self.inner.wal_queue.lock();
            let was_empty = q.is_empty();
            q.push_back(slot.clone());
            if was_empty {
                slot.set_phase(Phase::Lead);
            }
        }
        let result = match slot.wait_for_signal() {
            SignaledPhase::Lead => self.inner.run_as_leader(&slot),
            SignaledPhase::Insert { mem, group } => {
                let t0 = Instant::now();
                let res = {
                    let b = slot.batch.lock();
                    Self::apply_batch_to_mem(&mem, &b)
                };
                let mem_ns = t0.elapsed().as_nanos() as u64;
                slot.mem_ns.store(mem_ns, Ordering::Relaxed);
                group.complete();
                let err = slot.wait_done();
                // Breakdown accounting for the concurrent-insert path.
                let wal_end = group.wal_end.lock().unwrap_or(slot.enqueued);
                let wal_lock = wal_end.saturating_duration_since(slot.enqueued).as_nanos() as u64;
                slot.wal_lock_ns.store(wal_lock, Ordering::Relaxed);
                let after_wal = Instant::now().saturating_duration_since(wal_end).as_nanos() as u64;
                slot.mem_lock_ns
                    .store(after_wal.saturating_sub(mem_ns), Ordering::Relaxed);
                match (res, err) {
                    (Err(e), _) => Err(e),
                    (Ok(()), Some(msg)) => Err(Error::InvalidState(msg)),
                    (Ok(()), None) => Ok(()),
                }
            }
            SignaledPhase::Done(err) => match err {
                Some(msg) => Err(Error::InvalidState(msg)),
                None => Ok(()),
            },
        };
        // Record the breakdown.
        let total = slot.enqueued.elapsed().as_nanos() as u64;
        let wal = slot.wal_ns.load(Ordering::Relaxed);
        let mem = slot.mem_ns.load(Ordering::Relaxed);
        let wal_lock = slot.wal_lock_ns.load(Ordering::Relaxed);
        let mem_lock = slot.mem_lock_ns.load(Ordering::Relaxed);
        let stats = &self.inner.stats;
        stats.breakdown.wal.record(wal);
        stats.breakdown.memtable.record(mem);
        stats.breakdown.wal_lock.record(wal_lock);
        stats.breakdown.memtable_lock.record(mem_lock);
        stats
            .breakdown
            .other
            .record(total.saturating_sub(wal + mem + wal_lock + mem_lock));
        DbStats::bump(&stats.writes, 1);
        DbStats::bump(&stats.keys_written, count);
        DbStats::bump(&stats.user_bytes_written, user_bytes);
        result
    }

    /// Point lookup at the latest visible sequence.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(&ReadOptions::default(), key)
    }

    /// Point lookup honoring `opts` (snapshot, cache bypass).
    pub fn get_with(&self, opts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let t_read = Instant::now();
        DbStats::bump(&self.inner.stats.gets, 1);
        let snapshot = opts
            .snapshot
            .unwrap_or_else(|| self.inner.visible_seq.load(Ordering::Acquire));
        let (mem, imms, version) = self.inner.read_refs();
        let result = match self.inner.get_in_memtables(&mem, &imms, key, snapshot) {
            Some(decided) => Ok(decided),
            None => version
                .get(
                    key,
                    snapshot,
                    &self.inner.table_cache,
                    opts.skip_cache,
                    Some(&self.inner.stats),
                )
                .map(GetOutcome::into_value),
        };
        self.inner
            .stats
            .read_path
            .record(t_read.elapsed().as_nanos() as u64);
        result
    }

    /// Batched point lookups (RocksDB `MultiGet` analogue). Results are in
    /// key order and equal a [`Db::get`] of each key against one view of
    /// the tree; the block reads of keys that miss the caches are
    /// submitted to the device together (see [`Version::get_many`]).
    pub fn multiget(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        self.multiget_with(&ReadOptions::default(), keys)
    }

    /// Batched point lookups honoring `opts`.
    pub fn multiget_with(
        &self,
        opts: &ReadOptions,
        keys: &[Vec<u8>],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        if !self.inner.opts.has_multiget {
            // LevelDB mode: engines without multiget run lookups serially.
            return keys.iter().map(|k| self.get_with(opts, k)).collect();
        }
        DbStats::bump(&self.inner.stats.multigets, 1);
        let t_read = Instant::now();
        let snapshot = opts
            .snapshot
            .unwrap_or_else(|| self.inner.visible_seq.load(Ordering::Acquire));
        let (mem, imms, version) = self.inner.read_refs();
        let mut results: Vec<Option<Vec<u8>>> = Vec::with_capacity(keys.len());
        // Positions of the keys no memtable decides.
        let mut below: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let decided = self.inner.get_in_memtables(&mem, &imms, key, snapshot);
            if decided.is_none() {
                below.push(i);
            }
            results.push(decided.flatten());
        }
        let ukeys: Vec<&[u8]> = below.iter().map(|&i| keys[i].as_slice()).collect();
        let outcomes = version.get_many(
            &ukeys,
            snapshot,
            &self.inner.table_cache,
            opts.skip_cache,
            Some(&self.inner.stats),
        );
        self.inner
            .stats
            .read_path
            .record(t_read.elapsed().as_nanos() as u64);
        for (i, outcome) in below.into_iter().zip(outcomes?) {
            results[i] = outcome.into_value();
        }
        Ok(results)
    }

    /// A forward iterator over live keys at the latest visible sequence.
    pub fn iter(&self) -> Result<DbIterator> {
        self.iter_with(&ReadOptions::default())
    }

    /// A forward iterator honoring `opts`.
    pub fn iter_with(&self, opts: &ReadOptions) -> Result<DbIterator> {
        let snapshot = opts
            .snapshot
            .unwrap_or_else(|| self.inner.visible_seq.load(Ordering::Acquire));
        let (mem, imms, version) = self.inner.read_refs();
        let mut children: Vec<Box<dyn crate::iterator::InternalIterator>> = Vec::new();
        children.push(Box::new(mem.iter()));
        for imm in &imms {
            children.push(Box::new(imm.iter()));
        }
        children.extend(version.iterators(&self.inner.table_cache)?);
        Ok(DbIterator::new_pinned(children, snapshot, version))
    }

    /// Reads up to `count` live entries starting at `start` (SCAN).
    pub fn scan(&self, start: &[u8], count: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut it = self.iter()?;
        it.seek(start);
        let mut out = Vec::with_capacity(count);
        while it.valid() && out.len() < count {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status()?; // A read error must not pass as a short scan.
        Ok(out)
    }

    /// Reads all live entries in `[begin, end)` (RANGE).
    pub fn range(&self, begin: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut it = self.iter()?;
        it.seek(begin);
        let mut out = Vec::new();
        while it.valid() && it.key() < end {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status()?; // A read error must not pass as an empty tail.
        Ok(out)
    }

    /// Takes a consistent point-in-time snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let seq = self.inner.visible_seq.load(Ordering::Acquire);
        *self.inner.snapshots.lock().entry(seq).or_insert(0) += 1;
        Snapshot {
            inner: self.inner.clone(),
            seq,
        }
    }

    /// Forces the current memtable out and waits until all immutable
    /// memtables are flushed.
    pub fn flush(&self) -> Result<()> {
        {
            let mut state = self.inner.state.lock();
            if !state.mem.is_empty() {
                self.inner.switch_memtable(&mut state)?;
            }
        }
        self.inner.bg_cv.notify_all();
        let mut state = self.inner.state.lock();
        while !state.imms.is_empty() || state.flush_active {
            if let Some(e) = &state.bg_error {
                return Err(Error::InvalidState(e.clone()));
            }
            self.inner.bg_cv.wait(&mut state);
        }
        Ok(())
    }

    /// Blocks until no flush or compaction work remains.
    pub fn wait_idle(&self) -> Result<()> {
        let mut state = self.inner.state.lock();
        loop {
            if let Some(e) = &state.bg_error {
                return Err(Error::InvalidState(e.clone()));
            }
            let busy = !state.imms.is_empty()
                || state.flush_active
                || state.any_compaction_active()
                || state.versions.pick_compaction().is_some();
            if !busy {
                return Ok(());
            }
            self.inner.bg_cv.notify_all();
            self.inner.bg_cv.wait(&mut state);
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &Arc<DbStats> {
        &self.inner.stats
    }

    /// Installs (replacing any previous) the background-job event
    /// observer. Events are delivered from the background thread with no
    /// engine lock held.
    pub fn install_event_hook(&self, hook: DbEventHook) {
        *self.inner.event_hook.lock() = Some(hook);
    }

    /// Engine options.
    pub fn options(&self) -> &Options {
        &self.inner.opts
    }

    /// Approximate resident memory: memtables plus block cache.
    pub fn approximate_memory_usage(&self) -> usize {
        let state = self.inner.state.lock();
        let mem = state.mem.approximate_memory_usage();
        let imm: usize = state
            .imms
            .iter()
            .map(|(_, m)| m.approximate_memory_usage())
            .sum();
        drop(state);
        let cache = self
            .inner
            .block_cache
            .as_ref()
            .map(|c| c.usage())
            .unwrap_or(0);
        mem + imm + cache
    }

    /// Number of table files at `level`.
    pub fn num_files_at_level(&self, level: usize) -> usize {
        self.files_at_level(level).len()
    }

    /// The table files at `level`, in the level's search order.
    pub fn files_at_level(&self, level: usize) -> Vec<crate::version::edit::FileRef> {
        self.inner.state.lock().versions.current().levels[level].clone()
    }

    /// Bytes per level.
    pub fn level_sizes(&self) -> Vec<u64> {
        let v = self.inner.state.lock().versions.current();
        (0..v.levels.len()).map(|l| v.level_bytes(l)).collect()
    }

    /// Latest sequence visible to reads.
    pub fn visible_sequence(&self) -> SequenceNumber {
        self.inner.visible_seq.load(Ordering::Acquire)
    }

    /// Synchronizes the WAL (durability barrier for all prior writes).
    pub fn sync_wal(&self) -> Result<()> {
        let mut log = self.inner.log.lock();
        if let Some(w) = log.writer.as_mut() {
            w.sync()?;
        }
        Ok(())
    }
}

impl Db {
    /// Raises `shutdown`, wakes the background threads and joins them.
    fn stop_background(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // A background thread that has just read `shutdown` as false
        // holds the state lock until it waits: passing through the lock
        // puts the notify after that wait, not in the gap before it
        // (the thread would sleep forever, and the join with it).
        drop(self.inner.state.lock());
        self.inner.bg_cv.notify_all();
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }

    /// Simulates a process crash: stops background threads and drops the
    /// handle **without** syncing the WAL or flushing memtables. Unsynced
    /// data survives only as far as the environment's page-cache semantics
    /// allow (combine with `MemFs::power_failure` to also drop those
    /// bytes). Intended for crash-consistency tests and the paper's §4.5
    /// kill-during-write experiments.
    pub fn crash(self) {
        self.stop_background();
        // `Drop` will run next but finds no threads and an already-set
        // shutdown flag; suppress its WAL sync to preserve crash
        // semantics.
        self.inner.skip_sync_on_drop.store(true, Ordering::Release);
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        // Best-effort durability, then stop background work.
        if !self.inner.skip_sync_on_drop.load(Ordering::Acquire) {
            let _ = self.sync_wal();
        }
        self.stop_background();
    }
}

/// A registered point-in-time view; keeps versions older than `seq` alive
/// against compaction GC until dropped.
pub struct Snapshot {
    inner: Arc<DbInner>,
    seq: SequenceNumber,
}

impl Snapshot {
    /// The snapshot's sequence number (pass via [`ReadOptions::snapshot`]).
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut snaps = self.inner.snapshots.lock();
        if let Some(count) = snaps.get_mut(&self.seq) {
            *count -= 1;
            if *count == 0 {
                snaps.remove(&self.seq);
            }
        }
    }
}

impl DbInner {
    /// Clones the references a read needs, under the state lock.
    fn read_refs(&self) -> (Arc<MemTable>, Vec<Arc<MemTable>>, Arc<Version>) {
        let state = self.state.lock();
        let imms = state.imms.iter().rev().map(|(_, m)| m.clone()).collect();
        (state.mem.clone(), imms, state.versions.current())
    }

    /// What the memtables say about `key` as of `snapshot`, newest first:
    /// `Some(answer)` when one of them holds a visible value or tombstone,
    /// `None` when the tables below decide.
    fn get_in_memtables(
        &self,
        mem: &MemTable,
        imms: &[Arc<MemTable>],
        key: &[u8],
        snapshot: SequenceNumber,
    ) -> Option<Option<Vec<u8>>> {
        for table in std::iter::once(mem).chain(imms.iter().map(|m| &**m)) {
            match table.get(key, snapshot) {
                MemGet::Found(v) => {
                    DbStats::bump(&self.stats.memtable_hits, 1);
                    return Some(Some(v));
                }
                MemGet::Deleted => return Some(None),
                MemGet::NotFound => {}
            }
        }
        None
    }

    /// Runs one write group with the calling slot as leader.
    fn run_as_leader(self: &Arc<Self>, slot: &Arc<WriterSlot>) -> Result<()> {
        slot.wal_lock_ns.store(
            slot.enqueued.elapsed().as_nanos() as u64,
            Ordering::Relaxed,
        );
        if let Err(e) = self.make_room_for_write() {
            self.pop_group_and_promote(&[slot.clone()]);
            slot.set_phase(Phase::Done(Some(e.to_string())));
            return Err(e);
        }
        // Capture the memtable the group inserts into. With pipelined
        // writes the next leader may switch it out while this group is
        // still inserting; the flush waits for this group's sequence range
        // to be published before it reads the table (`wait_published`).
        let mem = self.state.lock().mem.clone();
        let group = {
            let q = self.wal_queue.lock();
            form_group(&q)
        };
        // Assign sequence numbers.
        let total: u64 = group
            .iter()
            .map(|s| u64::from(s.batch.lock().count()))
            .sum();
        let start_seq = self.next_seq.fetch_add(total, Ordering::Relaxed) + 1;
        let mut cur = start_seq;
        for s in &group {
            let mut b = s.batch.lock();
            b.set_sequence(cur);
            cur += u64::from(b.count());
        }
        let end_seq = cur - 1;

        // WAL stage.
        let t_wal = Instant::now();
        let mut wal_err: Option<Error> = None;
        if !slot.disable_wal {
            let mut log = self.log.lock();
            if let Some(w) = log.writer.as_mut() {
                let logged = w.bytes_written();
                for s in &group {
                    let b = s.batch.lock();
                    if let Err(e) = w.add_record(b.data()) {
                        wal_err = Some(e);
                        break;
                    }
                }
                DbStats::bump(&self.stats.wal_bytes_written, w.bytes_written() - logged);
                if wal_err.is_none() {
                    let sync = slot.sync || self.opts.sync == SyncPolicy::Always;
                    let r = if sync {
                        w.sync()
                    } else if self.opts.sync == SyncPolicy::Async {
                        w.flush()
                    } else {
                        Ok(())
                    };
                    if let Err(e) = r {
                        wal_err = Some(e);
                    }
                }
            }
        }
        let t_wal_end = Instant::now();
        slot.wal_ns.store(
            t_wal_end.saturating_duration_since(t_wal).as_nanos() as u64,
            Ordering::Relaxed,
        );
        if let Err(e) = wal_err.map_or(Ok(()), Err) {
            // The group's sequence range was already reserved; publish it
            // even though nothing was inserted under those seqs, or the
            // next group would wait on `visible_seq == start_seq - 1`
            // forever and one transient WAL error would wedge every
            // subsequent write.
            self.publish(start_seq, end_seq);
            let msg = e.to_string();
            self.pop_group_and_promote(&group);
            for f in group.iter().skip(1) {
                f.set_phase(Phase::Done(Some(msg.clone())));
            }
            slot.set_phase(Phase::Done(Some(msg)));
            return Err(e);
        }
        DbStats::bump(&self.stats.write_groups, 1);

        // Pipelined write: unblock the next group's WAL before our
        // MemTable phase.
        if self.opts.pipelined_write {
            self.pop_group_and_promote(&group);
        }

        // MemTable stage.
        let concurrent =
            self.opts.concurrent_memtable && group.len() > 1 && !self.opts.bench_skip_memtable;
        let mut insert_err: Option<Error> = None;
        if !self.opts.bench_skip_memtable {
            if concurrent {
                let gs = Arc::new(GroupSync::new(group.len()));
                *gs.wal_end.lock() = Some(t_wal_end);
                for f in group.iter().skip(1) {
                    f.set_phase(Phase::Insert {
                        mem: mem.clone(),
                        group: gs.clone(),
                    });
                }
                let t0 = Instant::now();
                let r = {
                    let b = slot.batch.lock();
                    Db::apply_batch_to_mem(&mem, &b)
                };
                slot.mem_ns
                    .store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                gs.complete();
                let t_sync = Instant::now();
                gs.wait_all();
                slot.mem_lock_ns
                    .store(t_sync.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if let Err(e) = r {
                    insert_err = Some(e);
                }
            } else {
                let t0 = Instant::now();
                for s in &group {
                    let b = s.batch.lock();
                    if let Err(e) = Db::apply_batch_to_mem(&mem, &b) {
                        insert_err = Some(e);
                        break;
                    }
                }
                slot.mem_ns
                    .store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }

        // Publish visibility strictly in sequence order.
        self.publish(start_seq, end_seq);

        if !self.opts.pipelined_write {
            self.pop_group_and_promote(&group);
        }
        let t_done = Instant::now();
        let err_msg = insert_err.as_ref().map(|e| e.to_string());
        for f in group.iter().skip(1) {
            if !concurrent {
                f.wal_lock_ns.store(
                    t_wal_end.saturating_duration_since(f.enqueued).as_nanos() as u64,
                    Ordering::Relaxed,
                );
                f.mem_lock_ns.store(
                    t_done.saturating_duration_since(t_wal_end).as_nanos() as u64,
                    Ordering::Relaxed,
                );
            }
            f.set_phase(Phase::Done(err_msg.clone()));
        }
        slot.set_phase(Phase::Done(err_msg));
        insert_err.map_or(Ok(()), Err)
    }

    /// Waits until `visible_seq == start_seq - 1`, then publishes
    /// `end_seq`. Guarantees in-order visibility across pipelined groups.
    fn publish(&self, start_seq: u64, end_seq: u64) {
        let mut guard = self.publish_mutex.lock();
        while self.visible_seq.load(Ordering::Acquire) != start_seq - 1 {
            self.publish_cv.wait(&mut guard);
        }
        self.visible_seq.store(end_seq, Ordering::Release);
        drop(guard);
        self.publish_cv.notify_all();
    }

    /// Waits until every sequence number up to `seq` is visible. A write
    /// group publishes its range only after its memtable inserts, in
    /// sequence order, so after this returns no group that was assigned
    /// sequences up to `seq` is still inserting.
    fn wait_published(&self, seq: u64) {
        let mut guard = self.publish_mutex.lock();
        while self.visible_seq.load(Ordering::Acquire) < seq {
            self.publish_cv.wait(&mut guard);
        }
    }

    /// Pops `group` from the queue front and promotes the next leader.
    fn pop_group_and_promote(&self, group: &[Arc<WriterSlot>]) {
        let mut q = self.wal_queue.lock();
        for expected in group {
            let popped = q.pop_front().expect("group members are at the front");
            debug_assert!(Arc::ptr_eq(&popped, expected));
            let _ = popped;
        }
        if let Some(front) = q.front() {
            front.set_phase(Phase::Lead);
        }
    }

    /// Ensures the memtable has room, applying the paper's backpressure
    /// rules (L0 slowdown/stop, immutable-memtable stall). L0 is counted
    /// in sorted runs: one file per flush.
    fn make_room_for_write(&self) -> Result<()> {
        let mut delayed = false;
        let mut state = self.state.lock();
        loop {
            if let Some(e) = &state.bg_error {
                return Err(Error::InvalidState(e.clone()));
            }
            let l0 = state.versions.current().levels[0].len();
            if !delayed && l0 >= self.opts.l0_slowdown_trigger && l0 < self.opts.l0_stop_trigger {
                // Soft backpressure: one 1 ms delay per write.
                drop(state);
                let t = Instant::now();
                std::thread::sleep(std::time::Duration::from_millis(1));
                self.stats.add_stall(t.elapsed());
                delayed = true;
                state = self.state.lock();
                continue;
            }
            if state.mem.approximate_memory_usage() < self.opts.memtable_size {
                return Ok(());
            }
            if state.imms.len() >= self.opts.max_immutable_memtables
                || l0 >= self.opts.l0_stop_trigger
            {
                // Hard stall: wait for background work to catch up.
                let t = Instant::now();
                self.bg_cv.wait(&mut state);
                self.stats.add_stall(t.elapsed());
                continue;
            }
            self.switch_memtable(&mut state)?;
            self.bg_cv.notify_all();
        }
    }

    /// Moves the active memtable to the immutable list and starts a fresh
    /// WAL. Caller holds the state lock.
    fn switch_memtable(&self, state: &mut DbState) -> Result<()> {
        let new_num = state.versions.allocate_file_number();
        let path = file_path(&self.dir, new_num, FileKind::Wal);
        let file = match self.opts.io_queue {
            Some(q) => self.opts.env.new_writable_on(&path, q)?,
            None => self.opts.env.new_writable(&path)?,
        };
        let mut log = self.log.lock();
        if let Some(old) = log.writer.as_mut() {
            // Push buffered bytes out so the flushed memtable's WAL is
            // complete on the device before we stop writing to it.
            let _ = old.flush();
        }
        let old_num = log.number;
        log.writer = Some(LogWriter::new(file));
        log.number = new_num;
        drop(log);
        let old_mem = std::mem::replace(&mut state.mem, Arc::new(MemTable::new()));
        state.imms.push((old_num, old_mem));
        Ok(())
    }

    /// Smallest sequence any reader may still need.
    fn smallest_snapshot(&self) -> SequenceNumber {
        let snaps = self.snapshots.lock();
        let min_snap = snaps.keys().next().copied();
        let visible = self.visible_seq.load(Ordering::Acquire);
        min_snap.map_or(visible, |s| s.min(visible))
    }

    /// Deletes files no version references (old WALs, dead tables, stale
    /// manifests, temp files).
    fn remove_obsolete_files(&self) {
        // One pass at a time: concurrent passes double-delete harmlessly
        // but make traces confusing.
        let _gc = self.gc_mutex.lock();
        // Order matters: list the directory BEFORE computing the live set.
        // A file that is created and installed after the listing simply
        // isn't seen; a listed file that becomes live before the
        // computation below is protected. Computing live first would leave
        // a window where a freshly installed file is listed but absent
        // from the stale live snapshot — and wrongly deleted.
        let Ok(names) = self.opts.env.list_dir(&self.dir) else {
            return;
        };
        let (live, log_floor, current_log, manifest) = {
            let state = self.state.lock();
            let live = state.versions.live_files_any();
            let floor = state
                .imms
                .first()
                .map(|(num, _)| *num)
                .unwrap_or(state.versions.log_number);
            (
                live,
                floor.min(state.versions.log_number.max(1)),
                self.log.lock().number,
                state.versions.manifest_number,
            )
        };
        for name in names {
            let name_str = name.to_string_lossy().into_owned();
            let Some((num, kind)) = crate::types::parse_file_name(&name_str) else {
                continue;
            };
            let dead = match kind {
                FileKind::Wal => num < log_floor && num != current_log,
                FileKind::Table => {
                    !live.contains(&num) && !self.pending_outputs.lock().contains(&num)
                }
                FileKind::Manifest => num < manifest,
                FileKind::Temp => true,
            };
            if dead {
                if kind == FileKind::Table {
                    self.table_cache.evict(num);
                }
                if std::env::var_os("P2KVS_GC_TRACE").is_some() {
                    eprintln!("[gc] {} removing {}", self.dir.display(), name_str);
                }
                let _ = self.opts.env.remove_file(&self.dir.join(&name));
            }
        }
    }

    /// Delivers `ev` to the installed event hook, if any, with no engine
    /// lock held (the hook clone is taken before the call).
    fn fire_event(&self, ev: DbEvent) {
        let hook = self.event_hook.lock().clone();
        if let Some(hook) = hook {
            hook(&ev);
        }
    }

    /// Background worker: flushes and compactions.
    fn background_loop(inner: Arc<DbInner>) {
        // Background IO (manifest writes, anything not explicitly pinned)
        // rides the instance's home queue.
        p2kvs_storage::set_thread_io_queue(inner.opts.io_queue);
        enum Work {
            Flush(u64, Arc<MemTable>),
            Compact(crate::version::CompactionTask, Arc<Version>),
        }
        loop {
            /// Allocates output file numbers and shields them from GC until
            /// the job's edit is applied (dropped at end of the job).
            struct OutputGuard {
                pending: Arc<Mutex<std::collections::HashSet<u64>>>,
                mine: Mutex<Vec<u64>>,
                counter: Arc<AtomicU64>,
            }
            impl OutputGuard {
                fn alloc(&self) -> u64 {
                    let n = self.counter.fetch_add(1, Ordering::Relaxed);
                    self.pending.lock().insert(n);
                    self.mine.lock().push(n);
                    n
                }
            }
            impl Drop for OutputGuard {
                fn drop(&mut self) {
                    let mut pending = self.pending.lock();
                    for n in self.mine.lock().drain(..) {
                        pending.remove(&n);
                    }
                }
            }
            let work = {
                let mut state = inner.state.lock();
                loop {
                    if inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if state.bg_error.is_some() {
                        inner.bg_cv.wait(&mut state);
                        continue;
                    }
                    if !state.imms.is_empty() && !state.flush_active {
                        state.flush_active = true;
                        let (num, mem) = state.imms[0].clone();
                        break Work::Flush(num, mem);
                    }
                    if let Some(task) =
                        state.versions.pick_compaction_excluding(&state.compact_busy)
                    {
                        state.compact_busy[task.level] = true;
                        state.compact_busy[task.output_level] = true;
                        break Work::Compact(task, state.versions.current());
                    }
                    inner.bg_cv.wait(&mut state);
                }
            };
            let guard = OutputGuard {
                pending: inner.pending_outputs.clone(),
                mine: Mutex::new(Vec::new()),
                counter: inner.file_counter.clone(),
            };
            let alloc = || guard.alloc();
            let ctx = JobContext {
                env: &inner.opts.env,
                dir: &inner.dir,
                opts: &inner.opts,
                table_cache: &inner.table_cache,
                stats: &inner.stats,
            };
            match work {
                Work::Flush(wal_num, mem) => {
                    inner.fire_event(DbEvent::FlushStart {
                        bytes: mem.approximate_memory_usage() as u64,
                    });
                    // Groups that captured this memtable before it was
                    // switched out may still be inserting (their leader
                    // hands the WAL to the next one first). All of them
                    // were assigned their sequences before the switch:
                    // once those are published the table is complete.
                    inner.wait_published(inner.next_seq.load(Ordering::Acquire));
                    let t_job = Instant::now();
                    let result = flush_memtable(&ctx, &mem, &alloc);
                    inner.stats.bg_busy.record(t_job.elapsed().as_nanos() as u64);
                    let mut finish = DbEvent::FlushFinish { bytes: 0, ok: false };
                    let mut state = inner.state.lock();
                    match result {
                        Ok(file) => {
                            finish = DbEvent::FlushFinish {
                                bytes: file.as_ref().map_or(0, |f| f.size),
                                ok: true,
                            };
                            let mut edit = VersionEdit::default();
                            edit.added.extend(file.map(|f| (0, f)));
                            // After this imm is gone, the oldest WAL still
                            // needed is the next imm's (or the live log).
                            let next_needed = state
                                .imms
                                .get(1)
                                .map(|(n, _)| *n)
                                .unwrap_or_else(|| inner.log.lock().number);
                            edit.log_number = Some(next_needed);
                            edit.last_sequence =
                                Some(inner.visible_seq.load(Ordering::Acquire));
                            match state.log_and_apply(edit, &inner.stats) {
                                Ok(()) => {
                                    debug_assert_eq!(state.imms[0].0, wal_num);
                                    state.imms.remove(0);
                                }
                                Err(e) => state.bg_error = Some(e.to_string()),
                            }
                        }
                        Err(e) => state.bg_error = Some(e.to_string()),
                    }
                    state.flush_active = false;
                    drop(state);
                    inner.fire_event(finish);
                    inner.remove_obsolete_files();
                    inner.bg_cv.notify_all();
                }
                Work::Compact(task, version) => {
                    inner.fire_event(DbEvent::CompactionStart {
                        level: task.level as u32,
                        input_bytes: task.input_bytes(),
                    });
                    let moved = task.is_trivial_move(&version);
                    let t_job = Instant::now();
                    let result = if moved {
                        Ok(task.inputs.iter().map(|f| f.meta().clone()).collect())
                    } else {
                        let smallest = inner.smallest_snapshot();
                        run_compaction(&ctx, &task, &version, smallest, &alloc).map(|out| out.files)
                    };
                    inner
                        .stats
                        .bg_busy
                        .record(t_job.elapsed().as_nanos() as u64);
                    // Output bytes, once the edit that installs them is logged.
                    let mut installed = None;
                    let mut state = inner.state.lock();
                    match result {
                        Ok(files) => {
                            let output_bytes: u64 = files.iter().map(|f| f.size).sum();
                            let mut edit = VersionEdit::default();
                            for f in &task.inputs {
                                edit.deleted.push((task.level, f.number));
                            }
                            for f in &task.next_inputs {
                                edit.deleted.push((task.output_level, f.number));
                            }
                            for f in files {
                                edit.added.push((task.output_level, f));
                            }
                            if let Some(last) = task.inputs.last() {
                                state
                                    .versions
                                    .set_compact_pointer(task.level, last.largest.clone());
                            }
                            match state.log_and_apply(edit, &inner.stats) {
                                Ok(()) => installed = Some(output_bytes),
                                Err(e) => state.bg_error = Some(e.to_string()),
                            }
                        }
                        Err(e) => state.bg_error = Some(e.to_string()),
                    }
                    if let Some(bytes) = installed.filter(|_| moved) {
                        let level = &inner.stats.levels[task.level];
                        DbStats::bump(&level.files_moved, task.inputs.len() as u64);
                        DbStats::bump(&level.bytes_moved, bytes);
                    }
                    let finish = DbEvent::CompactionFinish {
                        level: task.level as u32,
                        output_bytes: installed.unwrap_or(0),
                        ok: installed.is_some(),
                        moved,
                    };
                    state.compact_busy[task.level] = false;
                    state.compact_busy[task.output_level] = false;
                    drop(state);
                    inner.fire_event(finish);
                    inner.remove_obsolete_files();
                    inner.bg_cv.notify_all();
                }
            }
        }
    }
}

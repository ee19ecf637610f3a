//! The engine abstraction p2KVS schedules over, plus adapters for the
//! bundled engines.
//!
//! p2KVS treats engines as black boxes (§4.6): it only needs open /
//! submit / close plus two optional fast paths — `write_batch`
//! (RocksDB/LevelDB `WriteBatch`) and `multiget` (RocksDB). The
//! [`Capabilities`] struct tells the OBM which fast paths exist; when one
//! is missing the worker falls back to per-request calls, exactly like the
//! paper's WiredTiger port.

use std::path::Path;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::types::WriteOp;

/// Optional engine fast paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// The engine can apply a batch of writes atomically.
    pub batch_write: bool,
    /// The engine has an optimized batched point lookup.
    pub multiget: bool,
    /// The engine can open a snapshot-pinned streaming cursor
    /// ([`KvsEngine::open_cursor`] returns [`ScanCursor::Native`]), so a
    /// chunked scan sees one consistent point-in-time view. Without it
    /// the default resume-from-last-key emulation is used, which is
    /// merely monotonic (see `DESIGN.md` §8).
    pub native_cursor: bool,
}

/// Predicate deciding whether a GSN-tagged batch replays at recovery.
pub type GsnFilter = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// Cumulative engine phase clocks, nanoseconds since instance open.
///
/// A worker samples these around an engine call and attributes the
/// deltas as nested phase spans of a sampled request (WAL append,
/// memtable insert, read path). Engines without an internal breakdown
/// report all zeros and the trace simply shows the undivided engine
/// span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnginePhases {
    /// Time spent appending to the write-ahead log.
    pub wal_ns: u64,
    /// Time spent inserting into the memtable.
    pub memtable_ns: u64,
    /// Time spent in the read path (memtable probe + table lookups).
    pub read_ns: u64,
}

/// A background-job notification from an engine instance, forwarded to
/// the framework's flight recorder. Delivered on the engine's background
/// thread with no engine lock held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// A memtable flush is starting; `bytes` is the memtable footprint.
    FlushStart { bytes: u64 },
    /// A flush finished, writing `bytes` to L0 (0 on failure).
    FlushFinish { bytes: u64 },
    /// A compaction is starting at `level`, reading `bytes`.
    CompactionStart { level: u32, bytes: u64 },
    /// A compaction at `level` finished, producing `bytes` (0 on failure).
    /// With `moved` the input files changed level without being rewritten
    /// and `bytes` is their size.
    CompactionFinish { level: u32, bytes: u64, moved: bool },
}

/// Observer for [`EngineEvent`]s.
pub type EngineEventHook = Arc<dyn Fn(&EngineEvent) + Send + Sync>;

/// One bounded slice of a streaming scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanChunk {
    /// Entries in key order, continuing where the previous chunk ended.
    pub entries: Vec<(Vec<u8>, Vec<u8>)>,
    /// Whether the cursor is exhausted — `false` means another
    /// [`KvsEngine::scan_chunk`] call will make progress.
    pub done: bool,
}

/// An engine-native streaming iterator, pinned to a point-in-time view
/// for its whole lifetime. Lives in the owning worker's cursor table
/// between chunks; `Send` because shard ownership migration hands parked
/// cursors to the new owning worker (only one thread drives the cursor
/// at any time — the handoff is a move, never sharing).
pub trait NativeCursor: Send {
    /// Pulls at most `limit` entries / `max_bytes` payload bytes.
    fn next_chunk(&mut self, limit: usize, max_bytes: usize) -> Result<ScanChunk>;
}

/// State carried between chunks of a streaming scan.
///
/// Engines with [`Capabilities::native_cursor`] hand back a pinned
/// [`NativeCursor`]; everything else gets the portable emulation, which
/// re-seeks from the successor of the last returned key on every chunk
/// (correct but only monotonic — concurrent writes between chunks may or
/// may not be observed).
pub enum ScanCursor {
    /// Resume-from-last-key emulation over plain [`KvsEngine::scan`].
    Emulated {
        /// Smallest key the next chunk may return.
        next: Vec<u8>,
        /// Exclusive upper bound (RANGE); `None` for open-ended SCAN.
        end: Option<Vec<u8>>,
        /// Set once the key space (or the bound) is exhausted.
        done: bool,
    },
    /// A snapshot-pinned engine iterator.
    Native(Box<dyn NativeCursor>),
}

impl ScanCursor {
    /// The emulated cursor every engine supports.
    pub fn emulated(start: &[u8], end: Option<&[u8]>) -> ScanCursor {
        ScanCursor::Emulated {
            next: start.to_vec(),
            end: end.map(<[u8]>::to_vec),
            done: false,
        }
    }
}

/// How faithful a [`BackupSource`] is to the instant the snapshot was
/// forked (recorded per shard in the backup manifest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFidelity {
    /// A true engine-level fork: the cursor streams the store exactly as
    /// of [`KvsEngine::snapshot_for_backup`], while later writes proceed
    /// untouched (lsmkv pinned snapshots, wtiger index clones).
    PointInTime,
    /// The engine has no snapshot machinery, so the entries were copied
    /// eagerly *during* the freeze call. Still consistent — the calling
    /// worker serializes the copy against the shard's writes — but the
    /// freeze pause is O(data) instead of O(1).
    Materialized,
}

impl SnapshotFidelity {
    /// Stable numeric code for journals and manifests (0 = point in
    /// time, 1 = materialized).
    pub fn code(self) -> u64 {
        match self {
            SnapshotFidelity::PointInTime => 0,
            SnapshotFidelity::Materialized => 1,
        }
    }

    /// Inverse of [`SnapshotFidelity::code`].
    pub fn from_code(code: u64) -> Option<SnapshotFidelity> {
        match code {
            0 => Some(SnapshotFidelity::PointInTime),
            1 => Some(SnapshotFidelity::Materialized),
            _ => None,
        }
    }
}

/// A forked, streamable copy of one engine instance, produced by
/// [`KvsEngine::snapshot_for_backup`] while the owning worker holds the
/// shard quiesced. The cursor is drained on a background streamer
/// thread after the worker resumes serving traffic, so it must not
/// borrow the engine mutably or block its writers.
pub struct BackupSource {
    /// What the cursor's view is pinned to.
    pub fidelity: SnapshotFidelity,
    /// Streams every live entry in key order.
    pub cursor: Box<dyn NativeCursor>,
}

/// A [`NativeCursor`] over an already-materialized entry list (the
/// default backup source for engines without snapshot machinery).
pub struct VecCursor {
    entries: std::vec::IntoIter<(Vec<u8>, Vec<u8>)>,
}

impl VecCursor {
    /// Wraps `entries` (which must already be in key order).
    pub fn new(entries: Vec<(Vec<u8>, Vec<u8>)>) -> VecCursor {
        VecCursor {
            entries: entries.into_iter(),
        }
    }
}

impl NativeCursor for VecCursor {
    fn next_chunk(&mut self, limit: usize, max_bytes: usize) -> Result<ScanChunk> {
        let limit = limit.max(1);
        let max_bytes = max_bytes.max(1);
        let mut entries = Vec::new();
        let mut bytes = 0usize;
        while entries.len() < limit && bytes < max_bytes {
            match self.entries.next() {
                Some((k, v)) => {
                    bytes = bytes.saturating_add(k.len() + v.len());
                    entries.push((k, v));
                }
                None => break,
            }
        }
        let done = self.entries.as_slice().is_empty();
        Ok(ScanChunk { entries, done })
    }
}

/// The smallest key strictly greater than `key` (append a zero byte).
fn successor(key: &[u8]) -> Vec<u8> {
    let mut s = Vec::with_capacity(key.len() + 1);
    s.extend_from_slice(key);
    s.push(0);
    s
}

/// Truncates `entries` to the byte budget (always keeping at least one
/// entry so a single oversized value cannot stall the cursor). Returns
/// whether anything was cut.
fn apply_byte_budget(entries: &mut Vec<(Vec<u8>, Vec<u8>)>, max_bytes: usize) -> bool {
    let mut bytes = 0usize;
    for (i, (k, v)) in entries.iter().enumerate() {
        bytes = bytes.saturating_add(k.len() + v.len());
        if bytes >= max_bytes && i + 1 < entries.len() {
            entries.truncate(i + 1);
            return true;
        }
    }
    false
}

/// Every entry `cursor` has left, pulled from `engine` in 512-entry
/// chunks.
fn drain<E: KvsEngine + ?Sized>(
    engine: &E,
    mut cursor: ScanCursor,
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut out = Vec::new();
    loop {
        let chunk = engine.scan_chunk(&mut cursor, 512, usize::MAX)?;
        out.extend(chunk.entries);
        if chunk.done {
            return Ok(out);
        }
    }
}

/// A key-value engine instance owned by one worker.
pub trait KvsEngine: Send + Sync + 'static {
    /// Inserts one pair.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Deletes one key.
    fn delete(&self, key: &[u8]) -> Result<()>;

    /// Applies `ops` atomically, tagged with `gsn` (0 = untagged).
    /// Engines without [`Capabilities::batch_write`] may return
    /// [`Error::Unsupported`].
    fn write_batch(&self, ops: &[WriteOp], gsn: u64) -> Result<()>;

    /// Point lookup.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Batched point lookups; the default loops over [`KvsEngine::get`].
    fn multiget(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Up to `count` entries with keys `>= start`, in order.
    fn scan(&self, start: &[u8], count: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;

    /// Entries in `[begin, end)`, in order: the cursor
    /// [`KvsEngine::open_cursor`] opens over them, drained.
    fn range(&self, begin: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        drain(self, self.open_cursor(begin, Some(end))?)
    }

    /// Opens a streaming cursor over keys in `[start, end)` (open-ended
    /// when `end` is `None`). Engines with
    /// [`Capabilities::native_cursor`] should return a snapshot-pinned
    /// [`ScanCursor::Native`]; the default is resume-from-last-key
    /// emulation over [`KvsEngine::scan`].
    fn open_cursor(&self, start: &[u8], end: Option<&[u8]>) -> Result<ScanCursor> {
        Ok(ScanCursor::emulated(start, end))
    }

    /// Pulls the next chunk (at most `limit` entries / `max_bytes`
    /// payload bytes, both clamped to ≥ 1) from a cursor previously
    /// returned by [`KvsEngine::open_cursor`] on the same instance.
    fn scan_chunk(
        &self,
        cursor: &mut ScanCursor,
        limit: usize,
        max_bytes: usize,
    ) -> Result<ScanChunk> {
        let limit = limit.max(1);
        let max_bytes = max_bytes.max(1);
        match cursor {
            ScanCursor::Native(c) => c.next_chunk(limit, max_bytes),
            ScanCursor::Emulated { next, end, done } => {
                if *done {
                    return Ok(ScanChunk {
                        entries: Vec::new(),
                        done: true,
                    });
                }
                let mut entries = self.scan(next, limit)?;
                let mut finished = entries.len() < limit;
                if let Some(end) = end.as_deref() {
                    if let Some(cut) = entries.iter().position(|(k, _)| k.as_slice() >= end) {
                        entries.truncate(cut);
                        finished = true;
                    }
                }
                if apply_byte_budget(&mut entries, max_bytes) {
                    finished = false;
                }
                if let Some((k, _)) = entries.last() {
                    *next = successor(k);
                }
                *done = finished;
                Ok(ScanChunk {
                    entries,
                    done: finished,
                })
            }
        }
    }

    /// The engine's fast paths.
    fn capabilities(&self) -> Capabilities;

    /// Durability barrier for everything written so far.
    fn sync(&self) -> Result<()>;

    /// Approximate resident memory in bytes.
    fn mem_usage(&self) -> usize;

    /// Engine-internal metrics, as `(name, value)` pairs using
    /// `engine_`-prefixed Prometheus-style names. The framework samples
    /// these into its metrics registry (labeled per instance) at snapshot
    /// time, so engine internals — e.g. lsmkv's WAL/MemTable/lock write
    /// breakdown — surface through the same exposition as framework
    /// metrics. The default is no metrics.
    fn engine_metrics(&self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// Cumulative phase clocks for trace attribution
    /// ([`EnginePhases`]); the default reports no breakdown.
    fn phase_clocks(&self) -> EnginePhases {
        EnginePhases::default()
    }

    /// Subscribes the flight recorder to this instance's background-job
    /// events. The default (engines without background jobs, or without
    /// the plumbing) never delivers anything.
    fn install_event_hook(&self, _hook: EngineEventHook) {}

    /// Forks a streamable copy of the whole instance for an online
    /// backup. Called by the owning worker while the shard is quiesced
    /// (no other thread touches this instance during the call), so the
    /// view is consistent either way; the difference is cost. Engines
    /// with real snapshots return a [`SnapshotFidelity::PointInTime`]
    /// source whose fork is O(1) and whose streaming happens later on
    /// the backup thread. The default copies every entry eagerly, draining
    /// a cursor over the whole key space as [`KvsEngine::range`] does —
    /// [`SnapshotFidelity::Materialized`], an O(data) pause on the frozen
    /// shard.
    fn snapshot_for_backup(&self) -> Result<BackupSource> {
        let entries = drain(self, self.open_cursor(b"", None)?)?;
        Ok(BackupSource {
            fidelity: SnapshotFidelity::Materialized,
            cursor: Box::new(VecCursor::new(entries)),
        })
    }
}

/// Opens engine instances, one per worker.
pub trait EngineFactory: Send + Sync + 'static {
    /// The engine type this factory produces.
    type Engine: KvsEngine;

    /// Opens (or recovers) the instance stored in `dir`. `filter`, when
    /// present, suppresses replay of WAL batches whose GSN it rejects
    /// (p2KVS transaction rollback).
    fn open(&self, dir: &Path, filter: Option<GsnFilter>) -> Result<Self::Engine>;

    /// Opens the instance with a device submission-queue hint: the
    /// shard's WAL/flush traffic should ride queue `io_queue` of a
    /// multi-queue env (DESIGN.md §13). Factories whose engine has no
    /// placement control fall back to [`EngineFactory::open`]; the hint
    /// is advisory, never a correctness requirement.
    fn open_on(
        &self,
        dir: &Path,
        filter: Option<GsnFilter>,
        io_queue: Option<usize>,
    ) -> Result<Self::Engine> {
        let _ = io_queue;
        self.open(dir, filter)
    }

    /// The environment instances live in (the framework stores its
    /// transaction log beside them).
    fn env(&self) -> p2kvs_storage::EnvRef;
}

// ---------------------------------------------------------------------
// lsmkv adapter (RocksDB / LevelDB / PebblesDB modes)
// ---------------------------------------------------------------------

/// Factory for [`lsmkv::Db`] instances sharing an options template.
pub struct LsmFactory {
    template: lsmkv::Options,
}

impl LsmFactory {
    /// Creates a factory cloning `template` per instance.
    pub fn new(template: lsmkv::Options) -> LsmFactory {
        LsmFactory { template }
    }

    /// The options template.
    pub fn options(&self) -> &lsmkv::Options {
        &self.template
    }
}

impl EngineFactory for LsmFactory {
    type Engine = lsmkv::Db;

    fn open(&self, dir: &Path, filter: Option<GsnFilter>) -> Result<lsmkv::Db> {
        self.open_on(dir, filter, self.template.io_queue)
    }

    fn open_on(
        &self,
        dir: &Path,
        filter: Option<GsnFilter>,
        io_queue: Option<usize>,
    ) -> Result<lsmkv::Db> {
        let filter = filter.map(|f| -> lsmkv::db::RecoveryFilter { Arc::new(move |gsn| f(gsn)) });
        let mut opts = self.template.clone();
        opts.io_queue = io_queue;
        Ok(lsmkv::Db::open_with_recovery_filter(opts, dir, filter)?)
    }

    fn env(&self) -> p2kvs_storage::EnvRef {
        self.template.env.clone()
    }
}

impl KvsEngine for lsmkv::Db {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        Ok(lsmkv::Db::put(
            self,
            &lsmkv::WriteOptions::default(),
            key,
            value,
        )?)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        Ok(lsmkv::Db::delete(
            self,
            &lsmkv::WriteOptions::default(),
            key,
        )?)
    }

    fn write_batch(&self, ops: &[WriteOp], gsn: u64) -> Result<()> {
        let mut batch = lsmkv::WriteBatch::new();
        for op in ops {
            match op {
                WriteOp::Put { key, value } => batch.put(key, value),
                WriteOp::Delete { key } => batch.delete(key),
            }
        }
        batch.set_gsn(gsn);
        // Transactional sub-batches are synced so a persisted commit
        // record implies durable data (§4.5).
        let wo = lsmkv::WriteOptions {
            sync: gsn != 0,
            ..lsmkv::WriteOptions::default()
        };
        Ok(lsmkv::Db::write(self, &wo, batch)?)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(lsmkv::Db::get(self, key)?)
    }

    fn multiget(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        Ok(lsmkv::Db::multiget(self, keys)?)
    }

    fn scan(&self, start: &[u8], count: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(lsmkv::Db::scan(self, start, count)?)
    }

    fn open_cursor(&self, start: &[u8], end: Option<&[u8]>) -> Result<ScanCursor> {
        let snap = self.snapshot();
        let opts = lsmkv::ReadOptions {
            snapshot: Some(snap.sequence()),
            ..lsmkv::ReadOptions::default()
        };
        let mut iter = self.iter_with(&opts)?;
        iter.seek(start);
        Ok(ScanCursor::Native(Box::new(LsmCursor {
            _snap: snap,
            iter,
            end: end.map(<[u8]>::to_vec),
        })))
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            batch_write: true,
            multiget: self.options().flavor == lsmkv::Flavor::RocksDb,
            native_cursor: true,
        }
    }

    fn sync(&self) -> Result<()> {
        Ok(self.sync_wal()?)
    }

    fn mem_usage(&self) -> usize {
        self.approximate_memory_usage()
    }

    fn engine_metrics(&self) -> Vec<(String, f64)> {
        self.stats().metrics()
    }

    fn phase_clocks(&self) -> EnginePhases {
        let stats = self.stats();
        EnginePhases {
            wal_ns: stats.breakdown.wal.sum_ns(),
            memtable_ns: stats.breakdown.memtable.sum_ns(),
            read_ns: stats.read_path.sum_ns(),
        }
    }

    fn snapshot_for_backup(&self) -> Result<BackupSource> {
        // Same machinery as open_cursor: a registered snapshot pins the
        // visible versions against compaction GC, the merged iterator
        // pins the memtables and table files, and the pair moves to the
        // backup streamer thread while writers continue past the fork.
        let snap = self.snapshot();
        let opts = lsmkv::ReadOptions {
            snapshot: Some(snap.sequence()),
            ..lsmkv::ReadOptions::default()
        };
        let mut iter = self.iter_with(&opts)?;
        iter.seek(b"");
        Ok(BackupSource {
            fidelity: SnapshotFidelity::PointInTime,
            cursor: Box::new(LsmCursor {
                _snap: snap,
                iter,
                end: None,
            }),
        })
    }

    fn install_event_hook(&self, hook: EngineEventHook) {
        lsmkv::Db::install_event_hook(
            self,
            Arc::new(move |ev| {
                let mapped = match *ev {
                    lsmkv::DbEvent::FlushStart { bytes } => EngineEvent::FlushStart { bytes },
                    lsmkv::DbEvent::FlushFinish { bytes, ok } => EngineEvent::FlushFinish {
                        bytes: if ok { bytes } else { 0 },
                    },
                    lsmkv::DbEvent::CompactionStart { level, input_bytes } => {
                        EngineEvent::CompactionStart {
                            level,
                            bytes: input_bytes,
                        }
                    }
                    lsmkv::DbEvent::CompactionFinish {
                        level,
                        output_bytes,
                        ok,
                        moved,
                    } => EngineEvent::CompactionFinish {
                        level,
                        bytes: if ok { output_bytes } else { 0 },
                        moved,
                    },
                };
                hook(&mapped);
            }),
        );
    }
}

/// lsmkv's native cursor: a registered snapshot (protects visible
/// versions from compaction GC) plus a merged iterator pinned to it (the
/// iterator itself keeps the memtables and table files alive). A scan of
/// any length therefore sees exactly the store as of `open_cursor`,
/// while interleaved writes proceed untouched.
struct LsmCursor {
    _snap: lsmkv::Snapshot,
    iter: lsmkv::DbIterator,
    end: Option<Vec<u8>>,
}

impl NativeCursor for LsmCursor {
    fn next_chunk(&mut self, limit: usize, max_bytes: usize) -> Result<ScanChunk> {
        let mut entries = Vec::new();
        let mut bytes = 0usize;
        let mut bounded = false;
        while self.iter.valid() && entries.len() < limit && bytes < max_bytes {
            let key = self.iter.key();
            if let Some(end) = &self.end {
                if key >= end.as_slice() {
                    bounded = true;
                    break;
                }
            }
            bytes = bytes.saturating_add(key.len() + self.iter.value().len());
            entries.push((key.to_vec(), self.iter.value().to_vec()));
            self.iter.next();
        }
        // A child read error makes the merged iterator go invalid, which
        // otherwise looks like clean exhaustion — surface it instead.
        self.iter.status()?;
        Ok(ScanChunk {
            done: bounded || !self.iter.valid(),
            entries,
        })
    }
}

// ---------------------------------------------------------------------
// wtiger adapter (WiredTiger stand-in: no batch write)
// ---------------------------------------------------------------------

/// Factory for [`wtiger::WtDb`] instances sharing an options template.
pub struct WtFactory {
    template: wtiger::WtOptions,
}

impl WtFactory {
    /// Creates a factory cloning `template` per instance.
    pub fn new(template: wtiger::WtOptions) -> WtFactory {
        WtFactory { template }
    }
}

impl EngineFactory for WtFactory {
    type Engine = wtiger::WtDb;

    fn open(&self, dir: &Path, _filter: Option<GsnFilter>) -> Result<wtiger::WtDb> {
        // WiredTiger has no batch-write, hence no GSN tagging: the filter
        // is inapplicable (transactions are unsupported on this engine).
        Ok(wtiger::WtDb::open(self.template.clone(), dir)?)
    }

    fn env(&self) -> p2kvs_storage::EnvRef {
        self.template.env.clone()
    }
}

impl KvsEngine for wtiger::WtDb {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        Ok(wtiger::WtDb::put(self, key, value)?)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        wtiger::WtDb::delete(self, key)?;
        Ok(())
    }

    fn write_batch(&self, ops: &[WriteOp], gsn: u64) -> Result<()> {
        if gsn != 0 {
            return Err(Error::Unsupported(
                "transactions on an engine without batch-write",
            ));
        }
        // No batch API: apply writes one by one (OBM-write disabled, §4.6).
        for op in ops {
            match op {
                WriteOp::Put { key, value } => wtiger::WtDb::put(self, key, value)?,
                WriteOp::Delete { key } => {
                    wtiger::WtDb::delete(self, key)?;
                }
            }
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(wtiger::WtDb::get(self, key)?)
    }

    fn scan(&self, start: &[u8], count: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(wtiger::WtDb::scan(self, start, count)?)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            batch_write: false,
            multiget: false,
            // No snapshot machinery: chunked scans run on the emulated
            // resume-from-last-key cursor (monotonic, not snapshot-
            // consistent — see DESIGN.md §8).
            native_cursor: false,
        }
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn mem_usage(&self) -> usize {
        wtiger::WtDb::mem_usage(self)
    }

    fn snapshot_for_backup(&self) -> Result<BackupSource> {
        // wtiger forks cheaply despite having no MVCC: the snapshot
        // clones the key → journal-offset index under its latch and
        // reads values lazily from the append-only journal, whose
        // already-written bytes never change.
        Ok(BackupSource {
            fidelity: SnapshotFidelity::PointInTime,
            cursor: Box::new(WtSnapCursor(wtiger::WtDb::snapshot(self)?)),
        })
    }
}

/// Adapts [`wtiger::WtSnapshot`] batches to the [`NativeCursor`] chunk
/// protocol for backup streaming.
struct WtSnapCursor(wtiger::WtSnapshot);

impl NativeCursor for WtSnapCursor {
    fn next_chunk(&mut self, limit: usize, max_bytes: usize) -> Result<ScanChunk> {
        let (entries, done) = self.0.next_batch(limit, max_bytes)?;
        Ok(ScanChunk { entries, done })
    }
}

// ---------------------------------------------------------------------
// kvell adapter (KVell stand-in: share-nothing B-tree-indexed slabs)
// ---------------------------------------------------------------------

/// Factory for [`kvell::KvellDb`] instances sharing an options template.
///
/// KVell is itself internally sharded; under p2KVS each framework worker
/// owns one single-worker KVell instance so the two partitioning layers
/// do not fight over threads.
pub struct KvellFactory {
    template: kvell::KvellOptions,
}

impl KvellFactory {
    /// Creates a factory cloning `template` per instance.
    pub fn new(template: kvell::KvellOptions) -> KvellFactory {
        KvellFactory { template }
    }
}

impl EngineFactory for KvellFactory {
    type Engine = kvell::KvellDb;

    fn open(&self, dir: &Path, _filter: Option<GsnFilter>) -> Result<kvell::KvellDb> {
        // Like WiredTiger, KVell has no batch-write and thus no GSN
        // tagging: the recovery filter is inapplicable.
        Ok(kvell::KvellDb::open(self.template.clone(), dir)?)
    }

    fn env(&self) -> p2kvs_storage::EnvRef {
        self.template.env.clone()
    }
}

impl KvsEngine for kvell::KvellDb {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        Ok(kvell::KvellDb::put(self, key, value)?)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        kvell::KvellDb::delete(self, key)?;
        Ok(())
    }

    fn write_batch(&self, ops: &[WriteOp], gsn: u64) -> Result<()> {
        if gsn != 0 {
            return Err(Error::Unsupported(
                "transactions on an engine without batch-write",
            ));
        }
        for op in ops {
            match op {
                WriteOp::Put { key, value } => kvell::KvellDb::put(self, key, value)?,
                WriteOp::Delete { key } => {
                    kvell::KvellDb::delete(self, key)?;
                }
            }
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(kvell::KvellDb::get(self, key)?)
    }

    fn scan(&self, start: &[u8], count: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(kvell::KvellDb::scan(self, start, count)?)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            batch_write: false,
            multiget: false,
            native_cursor: false,
        }
    }

    fn sync(&self) -> Result<()> {
        // KVell-style slabs write through the environment on every update;
        // there is no separate durability barrier to issue.
        Ok(())
    }

    fn mem_usage(&self) -> usize {
        kvell::KvellDb::mem_usage(self).unwrap_or(0)
    }

    fn snapshot_for_backup(&self) -> Result<BackupSource> {
        // No snapshot machinery: materialize eagerly while the calling
        // worker holds the shard quiesced. `dump` is one full-index pass
        // per internal KVell worker, cheaper than the default's
        // paginated re-seeks through the request channels.
        Ok(BackupSource {
            fidelity: SnapshotFidelity::Materialized,
            cursor: Box::new(VecCursor::new(kvell::KvellDb::dump(self)?)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2kvs_storage::MemEnv;

    #[test]
    fn lsm_adapter_roundtrip() {
        let factory = LsmFactory::new(lsmkv::Options::for_test());
        let db = factory.open(Path::new("e1"), None).unwrap();
        KvsEngine::put(&db, b"k", b"v").unwrap();
        assert_eq!(KvsEngine::get(&db, b"k").unwrap().unwrap(), b"v");
        db.write_batch(
            &[
                WriteOp::Put {
                    key: b"a".to_vec(),
                    value: b"1".to_vec(),
                },
                WriteOp::Delete { key: b"k".to_vec() },
            ],
            0,
        )
        .unwrap();
        assert_eq!(KvsEngine::get(&db, b"k").unwrap(), None);
        let caps = db.capabilities();
        assert!(caps.batch_write && caps.multiget);
        let got = KvsEngine::multiget(&db, &[b"a".to_vec(), b"zz".to_vec()]).unwrap();
        assert_eq!(got, vec![Some(b"1".to_vec()), None]);
    }

    #[test]
    fn leveldb_mode_reports_no_multiget() {
        let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
        let presets = [
            (lsmkv::Options::rocksdb_like(env.clone()), true),
            (lsmkv::Options::leveldb_like(env.clone()), false),
            (lsmkv::Options::pebblesdb_like(env), false),
        ];
        for (i, (opts, multiget)) in presets.into_iter().enumerate() {
            let factory = LsmFactory::new(opts);
            let db = factory.open(Path::new(&format!("e2-{i}")), None).unwrap();
            assert_eq!(db.capabilities().multiget, multiget, "preset {i}");
            assert!(db.capabilities().batch_write);
        }
    }

    #[test]
    fn wtiger_adapter_roundtrip() {
        let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
        let factory = WtFactory::new(wtiger::WtOptions::new(env));
        let db = factory.open(Path::new("e3"), None).unwrap();
        let caps = db.capabilities();
        assert!(!caps.batch_write && !caps.multiget);
        KvsEngine::put(&db, b"b", b"2").unwrap();
        KvsEngine::put(&db, b"a", b"1").unwrap();
        // Batch falls back to sequential writes.
        db.write_batch(
            &[WriteOp::Put {
                key: b"c".to_vec(),
                value: b"3".to_vec(),
            }],
            0,
        )
        .unwrap();
        assert!(db.write_batch(&[], 7).is_err(), "GSN batches unsupported");
        assert_eq!(
            KvsEngine::range(&db, b"a", b"c").unwrap(),
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec())
            ]
        );
    }

    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    /// Drains a cursor fully in `limit`-sized chunks, counting chunks.
    fn drain_cursor<E: KvsEngine>(
        engine: &E,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> (Entries, usize) {
        let mut cursor = engine.open_cursor(start, end).unwrap();
        let mut out = Vec::new();
        let mut chunks = 0;
        loop {
            let chunk = engine.scan_chunk(&mut cursor, limit, usize::MAX).unwrap();
            chunks += 1;
            out.extend(chunk.entries);
            if chunk.done {
                return (out, chunks);
            }
        }
    }

    #[test]
    fn emulated_cursor_streams_in_chunks_and_matches_scan() {
        let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
        let db = WtFactory::new(wtiger::WtOptions::new(env))
            .open(Path::new("cur1"), None)
            .unwrap();
        for i in 0..50 {
            KvsEngine::put(&db, format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        let (all, chunks) = drain_cursor(&db, b"", None, 7);
        assert_eq!(all, KvsEngine::scan(&db, b"", 100).unwrap());
        assert!(chunks >= 50 / 7, "50 entries in 7-entry chunks");
        // Bounded cursor = RANGE.
        let (bounded, _) = drain_cursor(&db, b"k010", Some(b"k020"), 3);
        assert_eq!(bounded, KvsEngine::range(&db, b"k010", b"k020").unwrap());
        assert_eq!(bounded.len(), 10);
    }

    #[test]
    fn emulated_cursor_byte_budget_keeps_progress() {
        let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
        let db = WtFactory::new(wtiger::WtOptions::new(env))
            .open(Path::new("cur2"), None)
            .unwrap();
        for i in 0..10 {
            KvsEngine::put(&db, format!("k{i}").as_bytes(), &[b'x'; 100]).unwrap();
        }
        let mut cursor = db.open_cursor(b"", None).unwrap();
        // Budget below one entry: each chunk still returns exactly one.
        let mut total = 0;
        loop {
            let chunk = db.scan_chunk(&mut cursor, 100, 10).unwrap();
            assert!(chunk.done || chunk.entries.len() == 1);
            total += chunk.entries.len();
            if chunk.done {
                break;
            }
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn lsm_native_cursor_is_snapshot_consistent() {
        let factory = LsmFactory::new(lsmkv::Options::for_test());
        let db = factory.open(Path::new("cur3"), None).unwrap();
        for i in 0..20 {
            KvsEngine::put(&db, format!("k{i:02}").as_bytes(), b"old").unwrap();
        }
        assert!(db.capabilities().native_cursor);
        let mut cursor = db.open_cursor(b"", None).unwrap();
        assert!(matches!(cursor, ScanCursor::Native(_)));
        let first = db.scan_chunk(&mut cursor, 5, usize::MAX).unwrap();
        assert_eq!(first.entries.len(), 5);
        // Writes made mid-scan are invisible: overwrites, deletes and
        // fresh keys all happen after the pinned sequence.
        KvsEngine::put(&db, b"k07", b"new").unwrap();
        KvsEngine::delete(&db, b"k08").unwrap();
        KvsEngine::put(&db, b"k05a", b"inserted").unwrap();
        let mut rest = Vec::new();
        loop {
            let chunk = db.scan_chunk(&mut cursor, 5, usize::MAX).unwrap();
            rest.extend(chunk.entries);
            if chunk.done {
                break;
            }
        }
        assert_eq!(rest.len(), 15, "exactly the remaining pre-snapshot keys");
        assert!(rest.iter().all(|(_, v)| v == b"old"));
        assert!(!rest.iter().any(|(k, _)| k == b"k05a"));
        // A fresh scan sees the new state.
        let now = KvsEngine::scan(&db, b"", 100).unwrap();
        assert_eq!(now.len(), 20, "one insert, one delete");
        assert!(now.iter().any(|(k, v)| k == b"k07" && v == b"new"));
    }

    #[test]
    fn lsm_cursor_survives_flush_and_compaction_interleaving() {
        let factory = LsmFactory::new(lsmkv::Options::for_test());
        let db = factory.open(Path::new("cur4"), None).unwrap();
        for i in 0..200 {
            KvsEngine::put(&db, format!("k{i:04}").as_bytes(), &[b'v'; 64]).unwrap();
        }
        let mut cursor = db.open_cursor(b"", None).unwrap();
        let mut seen = 0;
        let mut round = 0;
        loop {
            let chunk = db.scan_chunk(&mut cursor, 16, usize::MAX).unwrap();
            seen += chunk.entries.len();
            if chunk.done {
                break;
            }
            // Churn the tree between chunks: overwrites plus a flush.
            for i in 0..50 {
                KvsEngine::put(&db, format!("k{i:04}").as_bytes(), &[b'w'; 64]).unwrap();
            }
            if round == 2 {
                db.flush().unwrap();
            }
            round += 1;
        }
        assert_eq!(seen, 200, "pinned snapshot view is complete");
    }

    #[test]
    fn kvell_adapter_roundtrip() {
        let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
        let mut opts = kvell::KvellOptions::new(env);
        opts.workers = 1;
        let factory = KvellFactory::new(opts);
        let db = factory.open(Path::new("e5"), None).unwrap();
        let caps = db.capabilities();
        assert!(!caps.batch_write && !caps.multiget && !caps.native_cursor);
        KvsEngine::put(&db, b"b", b"2").unwrap();
        KvsEngine::put(&db, b"a", b"1").unwrap();
        KvsEngine::put(&db, b"c", b"3").unwrap();
        assert_eq!(KvsEngine::get(&db, b"b").unwrap().unwrap(), b"2");
        assert!(db.write_batch(&[], 7).is_err(), "GSN batches unsupported");
        assert_eq!(
            KvsEngine::range(&db, b"a", b"c").unwrap(),
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec())
            ]
        );
        let (all, _) = drain_cursor(&db, b"", None, 2);
        assert_eq!(all.len(), 3);
    }

    /// Drains a backup source fully, asserting key order.
    fn drain_backup(mut src: BackupSource) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        loop {
            let chunk = src.cursor.next_chunk(16, usize::MAX).unwrap();
            out.extend(chunk.entries);
            if chunk.done {
                assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "key order");
                return out;
            }
        }
    }

    #[test]
    fn lsm_backup_snapshot_excludes_later_writes() {
        let db = LsmFactory::new(lsmkv::Options::for_test())
            .open(Path::new("bk1"), None)
            .unwrap();
        for i in 0..30 {
            KvsEngine::put(&db, format!("k{i:02}").as_bytes(), b"old").unwrap();
        }
        let src = db.snapshot_for_backup().unwrap();
        assert_eq!(src.fidelity, SnapshotFidelity::PointInTime);
        // Post-fork churn must be invisible to the stream.
        KvsEngine::put(&db, b"k00", b"new").unwrap();
        KvsEngine::delete(&db, b"k10").unwrap();
        KvsEngine::put(&db, b"later", b"x").unwrap();
        let all = drain_backup(src);
        assert_eq!(all.len(), 30);
        assert!(all.iter().all(|(_, v)| v == b"old"));
    }

    #[test]
    fn wtiger_backup_snapshot_excludes_later_writes() {
        let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
        let db = WtFactory::new(wtiger::WtOptions::new(env))
            .open(Path::new("bk2"), None)
            .unwrap();
        for i in 0..30 {
            KvsEngine::put(&db, format!("k{i:02}").as_bytes(), b"old").unwrap();
        }
        let src = db.snapshot_for_backup().unwrap();
        assert_eq!(src.fidelity, SnapshotFidelity::PointInTime);
        KvsEngine::put(&db, b"k00", b"new").unwrap();
        KvsEngine::put(&db, b"later", b"x").unwrap();
        let all = drain_backup(src);
        assert_eq!(all.len(), 30);
        assert!(all.iter().all(|(_, v)| v == b"old"));
    }

    #[test]
    fn kvell_backup_snapshot_materializes_at_fork() {
        let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
        let mut opts = kvell::KvellOptions::new(env);
        opts.workers = 2;
        let db = KvellFactory::new(opts)
            .open(Path::new("bk3"), None)
            .unwrap();
        for i in 0..30 {
            KvsEngine::put(&db, format!("k{i:02}").as_bytes(), b"v").unwrap();
        }
        let src = db.snapshot_for_backup().unwrap();
        assert_eq!(src.fidelity, SnapshotFidelity::Materialized);
        // Materialized at fork: later writes are invisible by construction.
        KvsEngine::put(&db, b"later", b"x").unwrap();
        assert_eq!(drain_backup(src).len(), 30);
    }

    #[test]
    fn fidelity_codes_roundtrip() {
        for f in [
            SnapshotFidelity::PointInTime,
            SnapshotFidelity::Materialized,
        ] {
            assert_eq!(SnapshotFidelity::from_code(f.code()), Some(f));
        }
        assert_eq!(SnapshotFidelity::from_code(7), None);
    }

    #[test]
    fn lsm_event_hook_and_phase_clocks_surface() {
        use std::sync::Mutex;
        let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
        let mut opts = lsmkv::Options::rocksdb_like(env);
        opts.memtable_size = 1 << 10; // flush after ~a dozen writes
        let db = LsmFactory::new(opts).open(Path::new("ev1"), None).unwrap();
        let seen: Arc<Mutex<Vec<EngineEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        KvsEngine::install_event_hook(&db, Arc::new(move |ev| sink.lock().unwrap().push(*ev)));
        for i in 0..64 {
            KvsEngine::put(&db, format!("k{i:03}").as_bytes(), &[b'v'; 64]).unwrap();
        }
        db.flush().unwrap();
        KvsEngine::get(&db, b"k000").unwrap();
        let events = seen.lock().unwrap().clone();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, EngineEvent::FlushStart { bytes } if *bytes > 0)),
            "no FlushStart in {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, EngineEvent::FlushFinish { bytes } if *bytes > 0)),
            "no FlushFinish in {events:?}"
        );
        let phases = db.phase_clocks();
        assert!(phases.wal_ns > 0, "WAL clock advanced");
        assert!(phases.memtable_ns > 0, "memtable clock advanced");
        assert!(phases.read_ns > 0, "read clock advanced");
    }

    #[test]
    fn lsm_recovery_filter_is_wired_through() {
        let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
        let opts = lsmkv::Options::rocksdb_like(env.clone());
        {
            let factory = LsmFactory::new(opts.clone());
            let db = factory.open(Path::new("e4"), None).unwrap();
            db.write_batch(
                &[WriteOp::Put {
                    key: b"x".to_vec(),
                    value: b"1".to_vec(),
                }],
                3,
            )
            .unwrap();
            db.write_batch(
                &[WriteOp::Put {
                    key: b"y".to_vec(),
                    value: b"2".to_vec(),
                }],
                9,
            )
            .unwrap();
            db.crash();
        }
        let factory = LsmFactory::new(opts);
        let filter: GsnFilter = Arc::new(|gsn| gsn <= 3);
        let db = factory.open(Path::new("e4"), Some(filter)).unwrap();
        assert_eq!(KvsEngine::get(&db, b"x").unwrap().unwrap(), b"1");
        assert_eq!(KvsEngine::get(&db, b"y").unwrap(), None);
    }
}

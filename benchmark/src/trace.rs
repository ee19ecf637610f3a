//! Outside-in tracing: spans recorded by the benchmark around calls into
//! each layer's public surface, and the layer budget computed from them.
//!
//! Three kinds of span exist. A **client** span covers one `P2Kvs` call
//! from call to return (or, for `put_async`, to the completion callback).
//! An **engine** span covers one `KvsEngine` call made by a worker; it is
//! recorded by [`TimedEngine`]. A **storage** span covers one append /
//! flush / sync / read on a file handle; it is recorded by [`TimedEnv`].
//!
//! Spans live in per-thread buffers. A thread-local "open span" index
//! gives parent links where calls nest on one thread (engine → storage,
//! client → storage for the transaction log). Across the request ring a
//! client span is linked to the engine spans that served it by id: writes
//! by the request id stamped into the value (unique), reads and scans by
//! key id inside the enclosing client interval (ambiguous matches are
//! dropped and counted).

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use p2kvs::engine::{GsnFilter, NativeCursor, ScanChunk, ScanCursor};
use p2kvs::{
    BackupSource, Capabilities, EngineEventHook, EngineFactory, EnginePhases, KvsEngine, WriteOp,
};
use p2kvs_storage::{
    Env, FaultHook, IoClass, IoStatsSnapshot, QueueId, RandomAccessFile, RandomRwFile,
    SequentialFile, WritableFile,
};

use crate::gen;

/// What a span covers. Client kinds first, then engine, then storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    ClientPut,
    ClientPutAsync,
    ClientGet,
    ClientGetMany,
    ClientScan,
    ClientTxn,
    EnginePut,
    EngineGet,
    EngineWriteBatch,
    EngineMultiget,
    EngineOpenCursor,
    EngineScanChunk,
    StorageAppend,
    StorageFlush,
    StorageSync,
    StorageRead,
}

impl Kind {
    pub fn is_client(self) -> bool {
        (self as u8) <= Kind::ClientTxn as u8
    }

    pub fn is_engine(self) -> bool {
        !self.is_client() && (self as u8) <= Kind::EngineScanChunk as u8
    }

    /// Whether the span's ids name writes (unique request ids) rather
    /// than keys.
    fn links_by_request_id(self) -> bool {
        matches!(
            self,
            Kind::ClientPut
                | Kind::ClientPutAsync
                | Kind::ClientTxn
                | Kind::EnginePut
                | Kind::EngineWriteBatch
        )
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ClientPut => "client.put",
            Kind::ClientPutAsync => "client.put_async",
            Kind::ClientGet => "client.get",
            Kind::ClientGetMany => "client.get_many",
            Kind::ClientScan => "client.scan",
            Kind::ClientTxn => "client.write_batch",
            Kind::EnginePut => "engine.put",
            Kind::EngineGet => "engine.get",
            Kind::EngineWriteBatch => "engine.write_batch",
            Kind::EngineMultiget => "engine.multiget",
            Kind::EngineOpenCursor => "engine.open_cursor",
            Kind::EngineScanChunk => "engine.scan_chunk",
            Kind::StorageAppend => "storage.append",
            Kind::StorageFlush => "storage.flush",
            Kind::StorageSync => "storage.sync",
            Kind::StorageRead => "storage.read",
        }
    }
}

/// "No parent" / "no open span".
const NONE: u32 = u32::MAX;
const NO_SHARD: u8 = u8::MAX;

/// The shard whose instance directory `path` lies in.
fn shard_of(path: &Path) -> u8 {
    path.iter()
        .find_map(|part| part.to_str()?.strip_prefix("instance-")?.parse().ok())
        .unwrap_or(NO_SHARD)
}

/// One recorded span. `ids_off..ids_off + ids_len` indexes the owning
/// buffer's id list (request ids or key ids, see
/// [`Kind::links_by_request_id`]); storage spans carry their byte count in
/// `ids_len` and no ids.
#[derive(Clone, Copy)]
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u64,
    pub kind: Kind,
    pub class: IoClass,
    /// Shard of the engine called or of the file touched
    /// (`u8::MAX` for client spans and files outside an instance).
    pub shard: u8,
    pub parent: u32,
    ids_off: u32,
    ids_len: u32,
}

impl Span {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// One thread's spans.
#[derive(Default)]
pub struct ThreadBuf {
    pub thread: String,
    pub spans: Vec<Span>,
    ids: Vec<u64>,
    open: u32,
}

impl ThreadBuf {
    pub fn ids_of(&self, s: &Span) -> &[u64] {
        if s.kind.is_client() || s.kind.is_engine() {
            &self.ids[s.ids_off as usize..(s.ids_off + s.ids_len) as usize]
        } else {
            &[]
        }
    }
}

/// Hands the buffer to the collector when its thread exits.
struct Local(ThreadBuf);

impl Drop for Local {
    fn drop(&mut self) {
        if !self.0.spans.is_empty() {
            let buf = std::mem::take(&mut self.0);
            if let Ok(mut all) = COLLECTED.lock() {
                all.push(buf);
            }
        }
    }
}

/// Spans a thread may record before its buffer grows (client threads
/// reserve their exact need with [`reserve`]).
const DEFAULT_CAPACITY: usize = 1 << 16;

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local(ThreadBuf {
        thread: std::thread::current().name().unwrap_or("unnamed").to_string(),
        spans: Vec::with_capacity(DEFAULT_CAPACITY),
        ids: Vec::with_capacity(DEFAULT_CAPACITY),
        open: NONE,
    }));
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTED: Mutex<Vec<ThreadBuf>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch. The benchmark's only
/// clock: latencies and spans are differences of this.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Preallocates the calling thread's buffer for `spans` spans carrying
/// `ids` ids in total.
pub fn reserve(spans: usize, ids: usize) {
    LOCAL.with(|l| {
        let buf = &mut l.borrow_mut().0;
        buf.spans.reserve(spans);
        buf.ids.reserve(ids);
    });
}

/// Token returned by [`open`]; pass it to [`close`].
pub struct Open {
    idx: u32,
    prev: u32,
}

fn push(buf: &mut ThreadBuf, kind: Kind, tag: (IoClass, u8), start_ns: u64, dur_ns: u64) -> u32 {
    let idx = buf.spans.len() as u32;
    buf.spans.push(Span {
        start_ns,
        dur_ns,
        kind,
        class: tag.0,
        shard: tag.1,
        parent: if kind.is_client() { NONE } else { buf.open },
        ids_off: buf.ids.len() as u32,
        ids_len: 0,
    });
    idx
}

/// Opens a client span on the calling thread; spans recorded on this
/// thread until the matching [`close`] become its children.
pub fn open(kind: Kind, ids: impl IntoIterator<Item = u64>) -> Open {
    open_on(kind, NO_SHARD, ids)
}

fn open_on(kind: Kind, shard: u8, ids: impl IntoIterator<Item = u64>) -> Open {
    LOCAL.with(|l| {
        let buf = &mut l.borrow_mut().0;
        let idx = push(buf, kind, (IoClass::Misc, shard), now_ns(), 0);
        buf.ids.extend(ids);
        buf.spans[idx as usize].ids_len = buf.ids.len() as u32 - buf.spans[idx as usize].ids_off;
        let prev = std::mem::replace(&mut buf.open, idx);
        Open { idx, prev }
    })
}

/// Ends the span opened by `token` now.
pub fn close(token: Open) {
    let end = now_ns();
    LOCAL.with(|l| {
        let buf = &mut l.borrow_mut().0;
        let span = &mut buf.spans[token.idx as usize];
        span.dur_ns = end.saturating_sub(span.start_ns);
        buf.open = token.prev;
    });
}

/// Records a finished client span whose start was taken on another
/// thread (`put_async`: submitted by a client, completed on a worker).
pub fn record_client(kind: Kind, start_ns: u64, end_ns: u64, id: u64) {
    LOCAL.with(|l| {
        let buf = &mut l.borrow_mut().0;
        let tag = (IoClass::Misc, NO_SHARD);
        let idx = push(buf, kind, tag, start_ns, end_ns.saturating_sub(start_ns));
        buf.ids.push(id);
        buf.spans[idx as usize].ids_len = 1;
    });
}

/// Records a finished storage span as a child of the thread's open span.
fn record_storage(kind: Kind, tag: (IoClass, u8), start_ns: u64, bytes: usize) {
    let end = now_ns();
    LOCAL.with(|l| {
        let buf = &mut l.borrow_mut().0;
        let idx = push(buf, kind, tag, start_ns, end.saturating_sub(start_ns));
        buf.spans[idx as usize].ids_len = bytes.min(u32::MAX as usize) as u32;
    });
}

/// Moves every finished thread's spans (and the calling thread's) out of
/// the collector. Call after the traced store is closed, so its worker,
/// background and read-pool threads have exited.
pub fn take_all() -> Vec<ThreadBuf> {
    LOCAL.with(|l| {
        let local = &mut l.borrow_mut().0;
        if !local.spans.is_empty() {
            let thread = local.thread.clone();
            let buf = std::mem::replace(
                local,
                ThreadBuf {
                    thread,
                    open: NONE,
                    ..ThreadBuf::default()
                },
            );
            COLLECTED.lock().expect("collector lock").push(buf);
        }
    });
    std::mem::take(&mut *COLLECTED.lock().expect("collector lock"))
}

// ---------------------------------------------------------------------
// Engine wrapper
// ---------------------------------------------------------------------

fn write_ids(ops: &[WriteOp]) -> impl Iterator<Item = u64> + '_ {
    ops.iter().filter_map(|op| match op {
        WriteOp::Put { value, .. } => gen::version_of(value),
        WriteOp::Delete { .. } => None,
    })
}

fn key_ids(keys: &[Vec<u8>]) -> impl Iterator<Item = u64> + '_ {
    keys.iter().filter_map(|k| gen::id_of_key(k))
}

/// Runs `f` inside an engine span when tracing is on.
fn engine_span<T>(
    kind: Kind,
    shard: u8,
    ids: impl IntoIterator<Item = u64>,
    f: impl FnOnce() -> T,
) -> T {
    if !enabled() {
        return f();
    }
    let token = open_on(kind, shard, ids);
    let out = f();
    close(token);
    out
}

/// A `KvsEngine` that records a span around every call a worker makes
/// into the wrapped engine.
pub struct TimedEngine<E: KvsEngine> {
    inner: Arc<E>,
    shard: u8,
}

impl<E: KvsEngine> TimedEngine<E> {
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

/// A scan cursor that remembers which scan it belongs to, so every chunk
/// pulled through it is linked to the client scan that opened it.
struct LinkedCursor<E: KvsEngine> {
    engine: Arc<E>,
    shard: u8,
    cursor: ScanCursor,
    start_id: Option<u64>,
}

impl<E: KvsEngine> NativeCursor for LinkedCursor<E> {
    fn next_chunk(&mut self, limit: usize, max_bytes: usize) -> p2kvs::Result<ScanChunk> {
        engine_span(Kind::EngineScanChunk, self.shard, self.start_id, || {
            self.engine.scan_chunk(&mut self.cursor, limit, max_bytes)
        })
    }
}

impl<E: KvsEngine> KvsEngine for TimedEngine<E> {
    fn put(&self, key: &[u8], value: &[u8]) -> p2kvs::Result<()> {
        engine_span(Kind::EnginePut, self.shard, gen::version_of(value), || {
            self.inner.put(key, value)
        })
    }

    fn delete(&self, key: &[u8]) -> p2kvs::Result<()> {
        self.inner.delete(key)
    }

    fn write_batch(&self, ops: &[WriteOp], gsn: u64) -> p2kvs::Result<()> {
        engine_span(Kind::EngineWriteBatch, self.shard, write_ids(ops), || {
            self.inner.write_batch(ops, gsn)
        })
    }

    fn get(&self, key: &[u8]) -> p2kvs::Result<Option<Vec<u8>>> {
        engine_span(Kind::EngineGet, self.shard, gen::id_of_key(key), || {
            self.inner.get(key)
        })
    }

    fn multiget(&self, keys: &[Vec<u8>]) -> p2kvs::Result<Vec<Option<Vec<u8>>>> {
        engine_span(Kind::EngineMultiget, self.shard, key_ids(keys), || {
            self.inner.multiget(keys)
        })
    }

    fn scan(&self, start: &[u8], count: usize) -> p2kvs::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner.scan(start, count)
    }

    fn range(&self, begin: &[u8], end: &[u8]) -> p2kvs::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner.range(begin, end)
    }

    fn open_cursor(&self, start: &[u8], end: Option<&[u8]>) -> p2kvs::Result<ScanCursor> {
        let start_id = gen::id_of_key(start);
        let cursor = engine_span(Kind::EngineOpenCursor, self.shard, start_id, || {
            self.inner.open_cursor(start, end)
        })?;
        Ok(ScanCursor::Native(Box::new(LinkedCursor {
            engine: self.inner.clone(),
            shard: self.shard,
            cursor,
            start_id,
        })))
    }

    // `scan_chunk` keeps the trait default: every cursor this engine
    // hands out is a `LinkedCursor`, which records the chunk span itself.

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn sync(&self) -> p2kvs::Result<()> {
        self.inner.sync()
    }

    fn mem_usage(&self) -> usize {
        self.inner.mem_usage()
    }

    fn engine_metrics(&self) -> Vec<(String, f64)> {
        self.inner.engine_metrics()
    }

    fn phase_clocks(&self) -> EnginePhases {
        self.inner.phase_clocks()
    }

    fn install_event_hook(&self, hook: EngineEventHook) {
        self.inner.install_event_hook(hook)
    }

    fn snapshot_for_backup(&self) -> p2kvs::Result<BackupSource> {
        self.inner.snapshot_for_backup()
    }
}

/// Wraps every engine a factory opens in a [`TimedEngine`].
pub struct TimedFactory<F: EngineFactory>(pub F);

impl<F: EngineFactory> EngineFactory for TimedFactory<F> {
    type Engine = TimedEngine<F::Engine>;

    fn open(&self, dir: &Path, filter: Option<GsnFilter>) -> p2kvs::Result<Self::Engine> {
        Ok(TimedEngine {
            inner: Arc::new(self.0.open(dir, filter)?),
            shard: shard_of(dir),
        })
    }

    fn open_on(
        &self,
        dir: &Path,
        filter: Option<GsnFilter>,
        io_queue: Option<usize>,
    ) -> p2kvs::Result<Self::Engine> {
        Ok(TimedEngine {
            inner: Arc::new(self.0.open_on(dir, filter, io_queue)?),
            shard: shard_of(dir),
        })
    }

    fn env(&self) -> p2kvs_storage::EnvRef {
        self.0.env()
    }
}

// ---------------------------------------------------------------------
// Env wrapper
// ---------------------------------------------------------------------

/// Runs `f` inside a storage span when tracing is on.
fn storage_span<T>(kind: Kind, tag: (IoClass, u8), bytes: usize, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    let out = f();
    record_storage(kind, tag, start, bytes);
    out
}

/// The traffic class and shard of the file at `path`.
fn tag_of(path: &Path) -> (IoClass, u8) {
    (IoClass::of_file_name(&path.to_string_lossy()), shard_of(path))
}

struct TimedWritable {
    inner: Box<dyn WritableFile>,
    tag: (IoClass, u8),
}

impl WritableFile for TimedWritable {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        storage_span(Kind::StorageAppend, self.tag, data.len(), || {
            self.inner.append(data)
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        storage_span(Kind::StorageFlush, self.tag, 0, || self.inner.flush())
    }

    fn sync(&mut self) -> io::Result<()> {
        storage_span(Kind::StorageSync, self.tag, 0, || self.inner.sync())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct TimedRandomAccess {
    inner: Box<dyn RandomAccessFile>,
    tag: (IoClass, u8),
}

impl RandomAccessFile for TimedRandomAccess {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        storage_span(Kind::StorageRead, self.tag, buf.len(), || {
            self.inner.read_at(offset, buf)
        })
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// An `Env` that records a span around every append, flush, sync and
/// positional read on the file handles it hands out, tagged with
/// `IoClass::of_file_name`. Namespace operations pass through.
pub struct TimedEnv<V: Env>(pub Arc<V>);

impl<V: Env> TimedEnv<V> {
    fn writable(&self, path: &Path, inner: Box<dyn WritableFile>) -> Box<dyn WritableFile> {
        Box::new(TimedWritable {
            inner,
            tag: tag_of(path),
        })
    }
}

impl<V: Env> Env for TimedEnv<V> {
    fn new_writable(&self, path: &Path) -> io::Result<Box<dyn WritableFile>> {
        Ok(self.writable(path, self.0.new_writable(path)?))
    }

    fn new_appendable(&self, path: &Path) -> io::Result<Box<dyn WritableFile>> {
        Ok(self.writable(path, self.0.new_appendable(path)?))
    }

    fn new_writable_on(&self, path: &Path, queue: QueueId) -> io::Result<Box<dyn WritableFile>> {
        Ok(self.writable(path, self.0.new_writable_on(path, queue)?))
    }

    fn new_appendable_on(&self, path: &Path, queue: QueueId) -> io::Result<Box<dyn WritableFile>> {
        Ok(self.writable(path, self.0.new_appendable_on(path, queue)?))
    }

    fn new_random_access(&self, path: &Path) -> io::Result<Box<dyn RandomAccessFile>> {
        Ok(Box::new(TimedRandomAccess {
            inner: self.0.new_random_access(path)?,
            tag: tag_of(path),
        }))
    }

    fn new_sequential(&self, path: &Path) -> io::Result<Box<dyn SequentialFile>> {
        self.0.new_sequential(path)
    }

    fn new_random_rw(&self, path: &Path) -> io::Result<Box<dyn RandomRwFile>> {
        self.0.new_random_rw(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.0.exists(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.0.list_dir(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.0.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.0.create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.0.remove_dir_all(path)
    }

    fn file_size(&self, path: &Path) -> io::Result<u64> {
        self.0.file_size(path)
    }

    fn io_stats(&self) -> IoStatsSnapshot {
        self.0.io_stats()
    }

    fn install_fault_hook(&self, hook: FaultHook) {
        self.0.install_fault_hook(hook)
    }

    fn device_utilization(&self) -> Option<f64> {
        self.0.device_utilization()
    }

    fn queue_count(&self) -> usize {
        self.0.queue_count()
    }
}

// ---------------------------------------------------------------------
// Aggregation: self times and the layer budget
// ---------------------------------------------------------------------

/// Where the time of the traced client calls went, in nanoseconds summed
/// over `ops` client calls. The five parts partition each call's
/// duration: see [`budget`].
#[derive(Default, Clone, Debug, PartialEq)]
pub struct Budget {
    /// Client calls traced.
    pub ops: u64,
    /// Sum of their durations.
    pub client_ns: u64,
    /// Calls answered on the calling thread with no engine call (cache
    /// hits): their whole duration minus any storage under them.
    pub inline_ns: u64,
    /// Client call start → start of the engine call the client waited for.
    pub queue_wait_ns: u64,
    /// That engine call minus the storage spans nested in it.
    pub engine_self_ns: u64,
    /// Storage spans nested in that engine call or directly in the client
    /// call.
    pub storage_wait_ns: u64,
    /// End of that engine call → client return.
    pub complete_ns: u64,
    /// Engine-side ids looked up, and how many found no single client.
    pub links: u64,
    pub unmatched: u64,
    /// Durations of the inline `get` calls (the cache-hit path).
    pub inline_get_ns: Vec<u32>,
}

impl Budget {
    /// Sum of the five parts.
    pub fn parts_ns(&self) -> u64 {
        self.inline_ns
            + self.queue_wait_ns
            + self.engine_self_ns
            + self.storage_wait_ns
            + self.complete_ns
    }

    /// Disagreement between the parts and the client time, in percent of
    /// the client time.
    pub fn residual_pct(&self) -> f64 {
        if self.client_ns == 0 {
            return 0.0;
        }
        (self.client_ns as f64 - self.parts_ns() as f64).abs() / self.client_ns as f64 * 100.0
    }

    pub fn unmatched_pct(&self) -> f64 {
        if self.links == 0 {
            return 0.0;
        }
        self.unmatched as f64 / self.links as f64 * 100.0
    }
}

/// Time of each span covered by its children (children of one span run
/// one after another on one thread, so their durations add).
pub fn covered(buf: &ThreadBuf) -> Vec<u64> {
    let mut out = vec![0u64; buf.spans.len()];
    for s in &buf.spans {
        if s.parent != NONE {
            out[s.parent as usize] += s.dur_ns;
        }
    }
    out
}

/// A span's self time: its duration minus what its children cover.
pub fn self_ns(span: &Span, covered: u64) -> u64 {
    span.dur_ns.saturating_sub(covered)
}

#[derive(Clone, Copy)]
struct Ref {
    buf: u32,
    idx: u32,
}

/// Name prefix of the threads of lsmkv's read pool.
const READ_POOL_THREAD: &str = "lsmkv-read";

/// Length of the union of those intervals of `sorted` that start inside
/// `[from, to)`, clipped to `to`.
fn union_within(sorted: &[(u64, u64)], from: u64, to: u64) -> u64 {
    let first = sorted.partition_point(|r| r.0 < from);
    let (mut total, mut covered_to) = (0, from);
    for &(start, end) in sorted[first..].iter().take_while(|r| r.0 < to) {
        let (start, end) = (start.max(covered_to), end.min(to));
        if end > start {
            total += end - start;
            covered_to = end;
        }
    }
    total
}

/// Computes the layer budget of every client span in `bufs`.
///
/// A client call that reached an engine is charged along its blocking
/// path: of the engine calls linked to it, the one that ended last is the
/// one it waited for. Everything before that call's start is queue wait
/// (routing, ring, OBM batch formation, earlier batches), the call itself
/// splits into engine self time and nested storage time, and everything
/// after its end is completion (worker post-processing, wake-up, client
/// reschedule). Storage spans directly under the client span (the
/// transaction log) move from wait / completion into storage.
///
/// A `multiget` hands its block reads to the engine's read pool, whose
/// threads have no open span. Those reads are storage time of the
/// `multiget` of the same shard that was running (a shard's engine serves
/// one call at a time); reads on several pool threads overlap, so the
/// union of their intervals is charged.
pub fn budget(bufs: &[ThreadBuf]) -> Budget {
    use std::collections::HashMap;

    let cover: Vec<Vec<u64>> = bufs.iter().map(covered).collect();
    let span = |r: Ref| &bufs[r.buf as usize].spans[r.idx as usize];

    let mut pool_reads: HashMap<u8, Vec<(u64, u64)>> = HashMap::new();
    for buf in bufs.iter().filter(|b| b.thread.starts_with(READ_POOL_THREAD)) {
        for s in &buf.spans {
            if s.kind == Kind::StorageRead && s.parent == NONE {
                pool_reads.entry(s.shard).or_default().push((s.start_ns, s.end_ns()));
            }
        }
    }
    for reads in pool_reads.values_mut() {
        reads.sort_unstable();
    }
    let nested_ns = |er: Ref| {
        let e = span(er);
        let pooled = match pool_reads.get(&e.shard) {
            Some(reads) if e.kind == Kind::EngineMultiget => {
                union_within(reads, e.start_ns, e.end_ns())
            }
            _ => 0,
        };
        (cover[er.buf as usize][er.idx as usize] + pooled).min(e.dur_ns)
    };

    // Client spans by the ids they carry.
    let mut clients: Vec<Ref> = Vec::new();
    let mut by_request: HashMap<u64, u32> = HashMap::new();
    let mut by_key: HashMap<u64, Vec<u32>> = HashMap::new();
    for (b, buf) in bufs.iter().enumerate() {
        for (i, s) in buf.spans.iter().enumerate() {
            if !s.kind.is_client() {
                continue;
            }
            let c = clients.len() as u32;
            clients.push(Ref {
                buf: b as u32,
                idx: i as u32,
            });
            for &id in buf.ids_of(s) {
                if s.kind.links_by_request_id() {
                    by_request.insert(id, c);
                } else {
                    let v = by_key.entry(id).or_default();
                    if v.last() != Some(&c) {
                        v.push(c);
                    }
                }
            }
        }
    }

    // For each client, the linked engine span that ended last.
    let mut out = Budget::default();
    let mut critical: Vec<Option<Ref>> = vec![None; clients.len()];
    for (b, buf) in bufs.iter().enumerate() {
        for (i, e) in buf.spans.iter().enumerate() {
            if !e.kind.is_engine() {
                continue;
            }
            let here = Ref {
                buf: b as u32,
                idx: i as u32,
            };
            for &id in buf.ids_of(e) {
                out.links += 1;
                let client = if e.kind.links_by_request_id() {
                    by_request.get(&id).copied()
                } else {
                    // Reads carry no request id: the client is whichever
                    // call on this key encloses the engine call, if that
                    // is exactly one.
                    let mut enclosing = by_key.get(&id).into_iter().flatten().filter(|&&c| {
                        let cs = span(clients[c as usize]);
                        cs.start_ns <= e.start_ns && e.end_ns() <= cs.end_ns()
                    });
                    match (enclosing.next(), enclosing.next()) {
                        (Some(&c), None) => Some(c),
                        _ => None,
                    }
                };
                let Some(c) = client else {
                    out.unmatched += 1;
                    continue;
                };
                let slot = &mut critical[c as usize];
                if slot.map_or(true, |cur| span(cur).end_ns() < e.end_ns()) {
                    *slot = Some(here);
                }
            }
        }
    }

    // Storage directly under a client span, split at the start of the
    // engine call it waited for.
    let mut own_storage_before: Vec<u64> = vec![0; clients.len()];
    let mut own_storage_after: Vec<u64> = vec![0; clients.len()];
    let mut client_of: HashMap<(u32, u32), u32> = HashMap::new();
    for (c, r) in clients.iter().enumerate() {
        if cover[r.buf as usize][r.idx as usize] > 0 {
            client_of.insert((r.buf, r.idx), c as u32);
        }
    }
    if !client_of.is_empty() {
        for (b, buf) in bufs.iter().enumerate() {
            for s in &buf.spans {
                if s.parent == NONE {
                    continue;
                }
                let Some(&c) = client_of.get(&(b as u32, s.parent)) else {
                    continue;
                };
                let before = critical[c as usize].map_or(true, |e| s.start_ns < span(e).start_ns);
                if before {
                    own_storage_before[c as usize] += s.dur_ns;
                } else {
                    own_storage_after[c as usize] += s.dur_ns;
                }
            }
        }
    }

    for (c, &r) in clients.iter().enumerate() {
        let cs = span(r);
        out.ops += 1;
        out.client_ns += cs.dur_ns;
        let own = own_storage_before[c] + own_storage_after[c];
        out.storage_wait_ns += own;
        match critical[c] {
            None => {
                let inline = cs.dur_ns.saturating_sub(own);
                out.inline_ns += inline;
                if cs.kind == Kind::ClientGet {
                    out.inline_get_ns.push(inline.min(u64::from(u32::MAX)) as u32);
                }
            }
            Some(er) => {
                let e = span(er);
                let nested = nested_ns(er);
                out.queue_wait_ns += e
                    .start_ns
                    .saturating_sub(cs.start_ns)
                    .saturating_sub(own_storage_before[c]);
                out.engine_self_ns += self_ns(e, nested);
                out.storage_wait_ns += nested;
                out.complete_ns += cs
                    .end_ns()
                    .saturating_sub(e.end_ns())
                    .saturating_sub(own_storage_after[c]);
            }
        }
    }
    out
}

/// Writes every span as one tab-separated line:
/// `thread kind class start_ns dur_ns parent ids`.
pub fn dump(bufs: &[ThreadBuf], out: &mut impl io::Write) -> io::Result<()> {
    for buf in bufs {
        for (i, s) in buf.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let ids: Vec<String> = buf.ids_of(s).iter().map(|id| format!("{id:x}")).collect();
            writeln!(
                out,
                "{}\t{}\t{}\t{:?}\t{}\t{}\t{}\t{}",
                buf.thread,
                i,
                s.kind.name(),
                s.class,
                s.start_ns,
                s.dur_ns,
                parent,
                ids.join(",")
            )?;
        }
    }
    Ok(())
}

/// Builds a buffer by hand (the self-test's span tree).
pub fn hand_built(thread: &str, spans: &[(Kind, u64, u64, Option<u32>, &[u64])]) -> ThreadBuf {
    let mut buf = ThreadBuf {
        thread: thread.to_string(),
        open: NONE,
        ..ThreadBuf::default()
    };
    for &(kind, start_ns, dur_ns, parent, ids) in spans {
        let ids_off = buf.ids.len() as u32;
        buf.ids.extend_from_slice(ids);
        buf.spans.push(Span {
            start_ns,
            dur_ns,
            kind,
            class: IoClass::Misc,
            shard: 0,
            parent: parent.unwrap_or(NONE),
            ids_off,
            ids_len: ids.len() as u32,
        });
    }
    buf
}

//! In-memory filesystem with power-failure semantics, and the one `Env`
//! over it.
//!
//! [`MemEnv`] serves every file from a [`MemFs`] and, when built with
//! [`MemEnv::with_profile`], times each IO on a [`DeviceModel`]: that is
//! the simulated device the benchmark harness runs on. The store's
//! durability model mirrors a POSIX page cache:
//!
//! * `append` makes data immediately visible to readers (page cache),
//! * `sync` marks the current length (and the file's creation) durable,
//! * [`MemFs::power_failure`] truncates every file back to its last synced
//!   length and *removes* files that were never synced at all — real
//!   filesystems do not guarantee that an unsynced creation survives a
//!   crash, not even as a zero-length entry. Renames carry the synced
//!   state with the file, so the write-tmp/sync/rename pattern survives.

use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2kvs_util::sync::{Mutex, RwLock};

use crate::device::{DeviceModel, DeviceProfile};
use crate::env::{Env, RandomAccessFile, SequentialFile, WritableFile};
use crate::ioqueue::{resolve_queue, QueueId};
use crate::stats::{IoClass, IoStats, IoStatsSnapshot};

/// One in-memory file.
struct MemFile {
    /// Unique id used by the device model's seek tracking.
    id: u64,
    /// The file's bytes. [`RandomAccessFile::read_shared`] lends this
    /// buffer out, so every change goes through [`MemFile::data_mut`]:
    /// while a reader holds the buffer, the change is made to a copy and
    /// the reader keeps the bytes it was given.
    data: Arc<Vec<u8>>,
    /// Bytes guaranteed durable across a power failure; `None` until a sync.
    synced: Option<usize>,
}

impl MemFile {
    /// The bytes, to change: this file's own, copied first if a reader
    /// holds them.
    fn data_mut(&mut self) -> &mut Vec<u8> {
        Arc::make_mut(&mut self.data)
    }
}

type FileRef = Arc<Mutex<MemFile>>;

/// The shared in-memory file store.
pub struct MemFs {
    files: RwLock<HashMap<PathBuf, FileRef>>,
    dirs: RwLock<std::collections::HashSet<PathBuf>>,
    next_id: AtomicU64,
    stats: Arc<IoStats>,
}

/// Normalizes a path without touching the real filesystem.
fn normalize(path: &Path) -> PathBuf {
    let mut out = PathBuf::new();
    for c in path.components() {
        match c {
            Component::CurDir => {}
            Component::ParentDir => {
                out.pop();
            }
            other => out.push(other),
        }
    }
    out
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    )
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemFs {
            files: RwLock::new(HashMap::new()),
            dirs: RwLock::new(std::collections::HashSet::new()),
            next_id: AtomicU64::new(1),
            stats: Arc::new(IoStats::new()),
        }
    }

    /// Simulates a power failure: every file is truncated to its last
    /// synced length, and files never synced at all disappear entirely
    /// (their creation never reached the disk's metadata journal).
    pub fn power_failure(&self) {
        let mut files = self.files.write();
        files.retain(|_, file| {
            let mut f = file.lock();
            let Some(synced) = f.synced else { return false };
            if synced < f.data.len() {
                f.data_mut().truncate(synced);
            }
            true
        });
    }

    /// Lets up to `extra` unsynced bytes of `path` survive the next
    /// [`MemFs::power_failure`], modeling a write torn mid-sync-interval:
    /// the drive persisted part of a write that was never acknowledged.
    /// Returns the number of bytes actually torn in.
    pub fn tear(&self, path: &Path, extra: usize) -> usize {
        match self.get(path) {
            Some(file) => {
                let mut f = file.lock();
                let synced = f.synced.unwrap_or(0);
                let torn = extra.min(f.data.len() - synced);
                if torn > 0 {
                    f.synced = Some(synced + torn);
                }
                torn
            }
            None => 0,
        }
    }

    /// Total bytes currently held across all files (for footprint checks).
    pub fn total_resident_bytes(&self) -> u64 {
        self.files
            .read()
            .values()
            .map(|f| f.lock().data.len() as u64)
            .sum()
    }

    fn get(&self, path: &Path) -> Option<FileRef> {
        self.files.read().get(&normalize(path)).cloned()
    }

    fn create(&self, path: &Path, truncate: bool) -> FileRef {
        let path = normalize(path);
        let mut files = self.files.write();
        if let Some(existing) = files.get(&path) {
            if truncate {
                let mut f = existing.lock();
                f.data = Arc::default();
                f.synced = None;
            }
            return existing.clone();
        }
        let file = Arc::new(Mutex::new(MemFile {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            data: Arc::default(),
            synced: None,
        }));
        files.insert(path, file.clone());
        file
    }
}

/// Where a handle's IO goes: the device model that times it, if any, and
/// the store's ledger that counts it, over `queues` submission queues.
/// Each op is charged to the device and then recorded once, with the
/// service time the device returned.
struct Io {
    device: Option<Arc<DeviceModel>>,
    stats: Arc<IoStats>,
    queues: usize,
}

impl Io {
    fn write(&self, pin: Option<QueueId>, file: u64, offset: u64, bytes: u64, class: IoClass) {
        let q = resolve_queue(pin, file, self.queues);
        let busy = self
            .device
            .as_ref()
            .map_or(Duration::ZERO, |d| d.write(file, offset, bytes, q));
        self.stats.record_write(q, bytes, class, busy);
    }

    fn read(&self, file: u64, offset: u64, bytes: u64) {
        let q = resolve_queue(None, file, self.queues);
        let busy = self
            .device
            .as_ref()
            .map_or(Duration::ZERO, |d| d.read(file, offset, bytes, q));
        self.stats.record_read(q, bytes, busy);
    }

    fn sync(&self, pin: Option<QueueId>, file: u64) {
        let q = resolve_queue(pin, file, self.queues);
        let busy = self.device.as_ref().map_or(Duration::ZERO, |d| d.sync(q));
        self.stats.record_sync(q, busy);
    }
}

/// Where `len` bytes at `offset` lie in `f`'s buffer, or an error past EOF
/// (offsets and lengths come from file contents, so may be anything).
fn range_at(f: &MemFile, offset: u64, len: usize) -> io::Result<Range<usize>> {
    let start = usize::try_from(offset).unwrap_or(usize::MAX);
    match start.checked_add(len) {
        Some(end) if end <= f.data.len() => Ok(start..end),
        _ => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("read of {len} bytes at {offset} past EOF {}", f.data.len()),
        )),
    }
}

/// Copies `buf.len()` bytes at `offset` out of `f`, or fails past EOF.
fn read_exact_at(f: &MemFile, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    buf.copy_from_slice(&f.data[range_at(f, offset, buf.len())?]);
    Ok(())
}

/// Writable handle; optionally charges a device model.
struct MemWritable {
    file: FileRef,
    io: Io,
    class: IoClass,
    /// Device offset up to which bytes have been charged.
    charged: u64,
    writeback_threshold: usize,
    /// Explicit placement pin; outranks the ambient thread queue.
    queue_pin: Option<QueueId>,
}

impl MemWritable {
    /// Charges the device for bytes appended since the last charge.
    fn writeback(&mut self) {
        let (id, len) = {
            let f = self.file.lock();
            (f.id, f.data.len() as u64)
        };
        if len <= self.charged {
            return;
        }
        self.io.write(
            self.queue_pin,
            id,
            self.charged,
            len - self.charged,
            self.class,
        );
        self.charged = len;
    }
}

impl WritableFile for MemWritable {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let pending = {
            let mut f = self.file.lock();
            f.data_mut().extend_from_slice(data);
            f.data.len() as u64 - self.charged
        };
        if pending as usize >= self.writeback_threshold {
            self.writeback();
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writeback();
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.writeback();
        let id = {
            let mut f = self.file.lock();
            f.synced = Some(f.data.len());
            f.id
        };
        self.io.sync(self.queue_pin, id);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.file.lock().data.len() as u64
    }
}

/// Positional read handle.
struct MemRandomAccess {
    file: FileRef,
    io: Io,
}

impl RandomAccessFile for MemRandomAccess {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let id = {
            let f = self.file.lock();
            read_exact_at(&f, offset, buf)?;
            f.id
        };
        self.io.read(id, offset, buf.len() as u64);
        Ok(())
    }

    /// Lends the file's own buffer: no allocation and no copy.
    fn read_shared(&self, offset: u64, len: usize) -> io::Result<(Arc<Vec<u8>>, Range<usize>)> {
        let (id, shared) = {
            let f = self.file.lock();
            let range = range_at(&f, offset, len)?;
            (f.id, (f.data.clone(), range))
        };
        self.io.read(id, offset, len as u64);
        Ok(shared)
    }

    fn len(&self) -> u64 {
        self.file.lock().data.len() as u64
    }
}

/// Sequential read handle.
struct MemSequential {
    file: FileRef,
    io: Io,
    pos: u64,
}

impl SequentialFile for MemSequential {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let (id, n) = {
            let f = self.file.lock();
            let start = (self.pos as usize).min(f.data.len());
            let n = buf.len().min(f.data.len() - start);
            buf[..n].copy_from_slice(&f.data[start..start + n]);
            (f.id, n)
        };
        if n > 0 {
            self.io.read(id, self.pos, n as u64);
        }
        self.pos += n as u64;
        Ok(n)
    }
}

/// Read-write handle with in-place positional writes.
struct MemRandomRw {
    file: FileRef,
    io: Io,
}

impl crate::env::RandomRwFile for MemRandomRw {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let id = {
            let f = self.file.lock();
            read_exact_at(&f, offset, buf)?;
            f.id
        };
        self.io.read(id, offset, buf.len() as u64);
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let id = {
            let mut f = self.file.lock();
            let end = offset as usize + data.len();
            let bytes = f.data_mut();
            if end > bytes.len() {
                bytes.resize(end, 0);
            }
            bytes[offset as usize..end].copy_from_slice(data);
            // In-place writes are durable immediately (slot-commit model).
            let len = f.data.len();
            f.synced = Some(f.synced.unwrap_or(0).max(len.min(end)));
            f.id
        };
        self.io
            .write(None, id, offset, data.len() as u64, IoClass::Misc);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.file.lock().data.len() as u64
    }
}

/// An `Env` over a [`MemFs`], optionally timing IOs on a device model.
pub struct MemEnv {
    fs: Arc<MemFs>,
    device: Option<Arc<DeviceModel>>,
    /// When the env was built: the origin of [`Env::device_utilization`].
    created: Instant,
}

impl Default for MemEnv {
    fn default() -> Self {
        Self::new()
    }
}

impl MemEnv {
    /// An untimed in-memory env.
    pub fn new() -> Self {
        MemEnv {
            fs: Arc::new(MemFs::new()),
            device: None,
            created: p2kvs_util::timing::now(),
        }
    }

    /// An in-memory env whose IOs are timed by a device model of
    /// `profile`: every read, write and sync charges its service time.
    pub fn with_profile(profile: DeviceProfile) -> Self {
        MemEnv {
            device: Some(Arc::new(DeviceModel::from_profile(profile))),
            ..MemEnv::new()
        }
    }

    /// The profile of the device timing this env; `None` when untimed.
    pub fn profile(&self) -> Option<&DeviceProfile> {
        self.device.as_deref().map(DeviceModel::profile)
    }

    /// The underlying store (failure injection, footprint checks).
    pub fn fs(&self) -> &Arc<MemFs> {
        &self.fs
    }

    fn writeback_threshold(&self) -> usize {
        self.device
            .as_ref()
            .map(|d| d.profile().writeback_threshold)
            .unwrap_or(64 * 1024)
    }

    fn queues(&self) -> usize {
        self.device.as_ref().map(|d| d.queue_count()).unwrap_or(1)
    }

    fn io(&self) -> Io {
        Io {
            device: self.device.clone(),
            stats: self.fs.stats.clone(),
            queues: self.queues(),
        }
    }

    fn open_writable(
        &self,
        path: &Path,
        truncate: bool,
        queue_pin: Option<QueueId>,
    ) -> Box<dyn WritableFile> {
        let file = self.fs.create(path, truncate);
        let charged = if truncate {
            0
        } else {
            file.lock().data.len() as u64
        };
        Box::new(MemWritable {
            file,
            io: self.io(),
            class: IoClass::of_file_name(
                &path
                    .file_name()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default(),
            ),
            charged,
            writeback_threshold: self.writeback_threshold(),
            queue_pin,
        })
    }
}

impl Env for MemEnv {
    fn new_writable(&self, path: &Path) -> io::Result<Box<dyn WritableFile>> {
        Ok(self.open_writable(path, true, None))
    }

    fn new_appendable(&self, path: &Path) -> io::Result<Box<dyn WritableFile>> {
        Ok(self.open_writable(path, false, None))
    }

    fn new_writable_on(&self, path: &Path, queue: QueueId) -> io::Result<Box<dyn WritableFile>> {
        Ok(self.open_writable(path, true, Some(queue)))
    }

    fn new_appendable_on(&self, path: &Path, queue: QueueId) -> io::Result<Box<dyn WritableFile>> {
        Ok(self.open_writable(path, false, Some(queue)))
    }

    fn new_random_access(&self, path: &Path) -> io::Result<Box<dyn RandomAccessFile>> {
        let file = self.fs.get(path).ok_or_else(|| not_found(path))?;
        Ok(Box::new(MemRandomAccess {
            file,
            io: self.io(),
        }))
    }

    fn new_sequential(&self, path: &Path) -> io::Result<Box<dyn SequentialFile>> {
        let file = self.fs.get(path).ok_or_else(|| not_found(path))?;
        Ok(Box::new(MemSequential {
            file,
            io: self.io(),
            pos: 0,
        }))
    }

    fn new_random_rw(&self, path: &Path) -> io::Result<Box<dyn crate::env::RandomRwFile>> {
        let file = self.fs.create(path, false);
        Ok(Box::new(MemRandomRw {
            file,
            io: self.io(),
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        let p = normalize(path);
        self.fs.files.read().contains_key(&p) || self.fs.dirs.read().contains(&p)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let dir = normalize(path);
        let mut out: Vec<PathBuf> = self
            .fs
            .files
            .read()
            .keys()
            .filter(|p| p.parent() == Some(dir.as_path()))
            .filter_map(|p| p.file_name().map(PathBuf::from))
            .collect();
        out.sort();
        Ok(out)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.fs
            .files
            .write()
            .remove(&normalize(path))
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.fs.files.write();
        let file = files
            .remove(&normalize(from))
            .ok_or_else(|| not_found(from))?;
        files.insert(normalize(to), file);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut dirs = self.fs.dirs.write();
        let mut p = normalize(path);
        loop {
            dirs.insert(p.clone());
            match p.parent() {
                Some(parent) if parent != Path::new("") => p = parent.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let prefix = normalize(path);
        self.fs.files.write().retain(|p, _| !p.starts_with(&prefix));
        self.fs.dirs.write().retain(|p| !p.starts_with(&prefix));
        Ok(())
    }

    fn file_size(&self, path: &Path) -> io::Result<u64> {
        let file = self.fs.get(path).ok_or_else(|| not_found(path))?;
        let len = file.lock().data.len() as u64;
        Ok(len)
    }

    fn io_stats(&self) -> IoStatsSnapshot {
        self.fs.stats.snapshot()
    }

    /// Busy time over wall time since creation × the device's aggregate
    /// depth (capped at 64), in `[0, 1]` — the bandwidth-utilization
    /// figures (Figs 4, 5b, 12c, 21a).
    fn device_utilization(&self) -> Option<f64> {
        let depth = self.device.as_ref()?.profile().aggregate_depth().min(64) as f64;
        let wall = p2kvs_util::timing::elapsed(self.created).as_nanos() as f64;
        if wall == 0.0 {
            return Some(0.0);
        }
        Some((self.io_stats().busy_ns as f64 / (wall * depth)).min(1.0))
    }

    fn queue_count(&self) -> usize {
        self.queues()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{read_all, write_all};
    use std::time::Duration;

    #[test]
    fn write_then_read_roundtrip() {
        let env = MemEnv::new();
        let path = Path::new("db/000001.log");
        write_all(&env, path, b"hello wal").unwrap();
        assert_eq!(read_all(&env, path).unwrap(), b"hello wal");
        assert_eq!(env.file_size(path).unwrap(), 9);
        assert!(env.exists(path));
    }

    #[test]
    fn append_is_visible_before_sync() {
        let env = MemEnv::new();
        let path = Path::new("f.log");
        let mut w = env.new_writable(path).unwrap();
        w.append(b"abc").unwrap();
        assert_eq!(read_all(&env, path).unwrap(), b"abc");
    }

    #[test]
    fn power_failure_drops_unsynced_data() {
        let env = MemEnv::new();
        let path = Path::new("f.log");
        let mut w = env.new_writable(path).unwrap();
        w.append(b"durable").unwrap();
        w.sync().unwrap();
        w.append(b"-volatile").unwrap();
        env.fs().power_failure();
        assert_eq!(read_all(&env, path).unwrap(), b"durable");
    }

    #[test]
    fn power_failure_removes_never_synced_files() {
        let env = MemEnv::new();
        let synced = Path::new("db/synced.log");
        let unsynced = Path::new("db/unsynced.log");
        let mut w = env.new_writable(synced).unwrap();
        w.append(b"keep").unwrap();
        w.sync().unwrap();
        let mut u = env.new_writable(unsynced).unwrap();
        u.append(b"lost").unwrap();
        env.fs().power_failure();
        assert!(env.exists(synced));
        assert!(
            !env.exists(unsynced),
            "a file never synced must not survive a crash, not even empty"
        );
    }

    #[test]
    fn power_failure_keeps_a_synced_empty_file() {
        // Syncing a file with nothing in it still makes its creation
        // durable: an empty backup shard file must survive the crash.
        let env = MemEnv::new();
        let path = Path::new("bk/shard-7.snap");
        env.new_writable(path).unwrap().sync().unwrap();
        env.fs().power_failure();
        assert!(env.exists(path), "a synced empty file vanished");
        assert_eq!(read_all(&env, path).unwrap(), b"");
    }

    #[test]
    fn power_failure_keeps_synced_file_renamed_into_place() {
        // The write-tmp/sync/rename pattern (CURRENT updates) must be
        // crash-safe: the synced state travels with the file across rename.
        let env = MemEnv::new();
        write_all(&env, Path::new("db/CURRENT.tmp"), b"MANIFEST-000002").unwrap();
        env.rename(Path::new("db/CURRENT.tmp"), Path::new("db/CURRENT"))
            .unwrap();
        // And an unsynced file renamed into place must NOT survive.
        let mut w = env.new_writable(Path::new("db/next.tmp")).unwrap();
        w.append(b"half").unwrap();
        drop(w);
        env.rename(Path::new("db/next.tmp"), Path::new("db/next"))
            .unwrap();
        env.fs().power_failure();
        assert_eq!(
            read_all(&env, Path::new("db/CURRENT")).unwrap(),
            b"MANIFEST-000002"
        );
        assert!(!env.exists(Path::new("db/next")));
    }

    #[test]
    fn tear_lets_unsynced_prefix_survive() {
        let env = MemEnv::new();
        let path = Path::new("f.log");
        let mut w = env.new_writable(path).unwrap();
        w.append(b"durable").unwrap();
        w.sync().unwrap();
        w.append(b"-torn-rest").unwrap();
        assert_eq!(env.fs().tear(path, 5), 5);
        env.fs().power_failure();
        assert_eq!(read_all(&env, path).unwrap(), b"durable-torn");
        // Tearing past the unsynced length clamps.
        assert_eq!(env.fs().tear(Path::new("missing"), 3), 0);
    }

    #[test]
    fn appendable_preserves_existing_content() {
        let env = MemEnv::new();
        let path = Path::new("m/MANIFEST");
        write_all(&env, path, b"one").unwrap();
        let mut w = env.new_appendable(path).unwrap();
        w.append(b"two").unwrap();
        w.sync().unwrap();
        assert_eq!(read_all(&env, path).unwrap(), b"onetwo");
    }

    #[test]
    fn writable_truncates() {
        let env = MemEnv::new();
        let path = Path::new("f");
        write_all(&env, path, b"aaaa").unwrap();
        write_all(&env, path, b"b").unwrap();
        assert_eq!(read_all(&env, path).unwrap(), b"b");
    }

    #[test]
    fn read_past_eof_fails() {
        let env = MemEnv::new();
        let path = Path::new("f");
        write_all(&env, path, b"12345").unwrap();
        let r = env.new_random_access(path).unwrap();
        let mut buf = [0u8; 3];
        assert!(r.read_at(3, &mut buf).is_err());
        r.read_at(2, &mut buf).unwrap();
        assert_eq!(&buf, b"345");
        // A length or offset read out of a damaged file fails, whatever it is.
        assert!(r.read_shared(3, 3).is_err());
        assert!(r.read_shared(2, usize::MAX).is_err());
        assert!(r.read_shared(u64::MAX, 1).is_err());
    }

    #[test]
    fn sequential_reads_to_eof() {
        let env = MemEnv::new();
        let path = Path::new("f");
        write_all(&env, path, b"0123456789").unwrap();
        let mut s = env.new_sequential(path).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"0123");
        assert_eq!(s.read(&mut buf).unwrap(), 4);
        assert_eq!(s.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"89");
        assert_eq!(s.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn list_dir_and_remove() {
        let env = MemEnv::new();
        env.create_dir_all(Path::new("db")).unwrap();
        write_all(&env, Path::new("db/b.sst"), b"x").unwrap();
        write_all(&env, Path::new("db/a.log"), b"x").unwrap();
        write_all(&env, Path::new("other/c.log"), b"x").unwrap();
        let names = env.list_dir(Path::new("db")).unwrap();
        assert_eq!(names, vec![PathBuf::from("a.log"), PathBuf::from("b.sst")]);
        env.remove_file(Path::new("db/a.log")).unwrap();
        assert!(!env.exists(Path::new("db/a.log")));
        assert!(env.remove_file(Path::new("db/a.log")).is_err());
    }

    #[test]
    fn rename_replaces_target() {
        let env = MemEnv::new();
        write_all(&env, Path::new("tmp"), b"new").unwrap();
        write_all(&env, Path::new("cur"), b"old").unwrap();
        env.rename(Path::new("tmp"), Path::new("cur")).unwrap();
        assert_eq!(read_all(&env, Path::new("cur")).unwrap(), b"new");
        assert!(!env.exists(Path::new("tmp")));
        assert!(env.rename(Path::new("gone"), Path::new("x")).is_err());
    }

    #[test]
    fn remove_dir_all_removes_subtree() {
        let env = MemEnv::new();
        write_all(&env, Path::new("db/1/a"), b"x").unwrap();
        write_all(&env, Path::new("db/2/b"), b"x").unwrap();
        write_all(&env, Path::new("db2/c"), b"x").unwrap();
        env.remove_dir_all(Path::new("db")).unwrap();
        assert!(!env.exists(Path::new("db/1/a")));
        assert!(env.exists(Path::new("db2/c")));
    }

    #[test]
    fn stats_track_bytes() {
        let env = MemEnv::new();
        write_all(&env, Path::new("a.log"), &[7u8; 1000]).unwrap();
        let _ = read_all(&env, Path::new("a.log")).unwrap();
        let s = env.io_stats();
        assert_eq!(s.bytes_written, 1000);
        assert_eq!(s.wal_bytes, 1000);
        assert_eq!(s.bytes_read, 1000);
        assert_eq!(s.syncs, 1);
    }

    #[test]
    fn normalize_handles_dot_components() {
        let env = MemEnv::new();
        write_all(&env, Path::new("./db/../db/f"), b"x").unwrap();
        assert!(env.exists(Path::new("db/f")));
    }

    #[test]
    fn sim_env_charges_time_for_synced_writes() {
        // HDD sync ≈ 4 ms; three synced writes must take ≥ 12 ms of model
        // busy time and comparable wall time.
        let env = MemEnv::with_profile(DeviceProfile::hdd());
        let start = Instant::now();
        for i in 0..3 {
            write_all(&env, Path::new(&format!("f{i}.log")), &[0u8; 128]).unwrap();
        }
        let stats = env.io_stats();
        assert!(stats.busy_ns >= 12_000_000, "busy {}ns", stats.busy_ns);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn instant_profile_is_fast() {
        let env = MemEnv::with_profile(DeviceProfile::instant());
        let start = Instant::now();
        for i in 0..200 {
            write_all(&env, Path::new(&format!("f{i}.log")), &[0u8; 64]).unwrap();
        }
        assert!(start.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn utilization_is_bounded() {
        let env = MemEnv::with_profile(DeviceProfile::nvme_optane());
        write_all(&env, Path::new("a.sst"), &[0u8; 1 << 20]).unwrap();
        let u = env
            .device_utilization()
            .expect("a timed env reports utilization");
        assert!((0.0..=1.0).contains(&u));
        assert!(u > 0.0);
    }

    #[test]
    fn queue_placement_routes_traffic() {
        let env = MemEnv::with_profile(DeviceProfile::instant().with_queues(4));
        assert_eq!(Env::queue_count(&env), 4);

        // Explicit pin: all IO on this handle lands on queue 2.
        let mut w = env.new_writable_on(Path::new("pinned.sst"), 2).unwrap();
        w.append(&[0u8; 100]).unwrap();
        w.sync().unwrap();

        // Ambient thread queue: an un-pinned handle follows the pin set on
        // the calling thread.
        crate::set_thread_io_queue(Some(1));
        let mut w = env.new_writable(Path::new("ambient.log")).unwrap();
        w.append(&[0u8; 40]).unwrap();
        w.sync().unwrap();
        crate::set_thread_io_queue(None);

        let snap = env.io_stats();
        assert_eq!(snap.queues[2].bytes_written, 100);
        assert_eq!(snap.queues[2].syncs, 1);
        assert_eq!(snap.queues[1].bytes_written, 40);
        assert_eq!(snap.queues[1].syncs, 1);
        // One write op and one sync per queue, nothing elsewhere.
        assert_eq!((snap.queues[2].write_ops, snap.queues[1].write_ops), (1, 1));
        assert_eq!((snap.write_ops, snap.syncs), (2, 2));
    }

    /// Reads 4 KiB at `offset`, copied into a buffer of the caller's or
    /// lent by the file.
    fn read_4k(file: &dyn RandomAccessFile, offset: u64, shared: bool) -> Vec<u8> {
        if shared {
            let (buf, range) = file.read_shared(offset, 4096).unwrap();
            buf[range].to_vec()
        } else {
            let mut buf = vec![0u8; 4096];
            file.read_at(offset, &mut buf).unwrap();
            buf
        }
    }

    #[test]
    fn plugged_reads_account_like_unplugged_ones() {
        // A plug (a run of one-read chains) changes when the caller waits,
        // and a shared read how the bytes reach it, never what the env
        // counted: bytes, ops and service time, per queue and in total.
        let run = |plugged: bool, shared: bool| {
            let env = MemEnv::with_profile(DeviceProfile::nvme_optane().with_queues(2));
            write_all(&env, Path::new("t.sst"), &[7u8; 64 << 10]).unwrap();
            let file = env.new_random_access(Path::new("t.sst")).unwrap();
            let before = env.io_stats();
            {
                let mut plug = plugged.then(crate::IoChains::enter);
                for i in 0..8u64 {
                    if let Some(p) = plug.as_mut() {
                        p.next_chain();
                    }
                    let got = read_4k(&*file, i * 8192, shared);
                    assert_eq!(got, [7u8; 4096], "plugged reads return their data");
                }
            }
            env.io_stats().delta(&before)
        };
        let serial = run(false, false);
        for (plugged, shared) in [(true, false), (false, true), (true, true)] {
            assert_eq!(
                run(plugged, shared),
                serial,
                "plugged {plugged}, shared {shared}"
            );
        }
        assert_eq!(serial.read_ops, 8);
        assert_eq!(serial.queues[0].read_ops + serial.queues[1].read_ops, 8);
        assert!(serial.busy_ns > 0);
    }

    #[test]
    fn chained_io_accounts_like_unchained_io() {
        // Runs change when the caller waits, and a shared read how the
        // bytes reach it, never what the env counted: reads, appends and
        // syncs on both queues, with their service time. `depth` nests
        // the runs: 0 holds none, 1 reads each pair of reads as a run of
        // one-read chains (a plug), 2 also runs the four sequences as
        // chains of one run, each holding its plug.
        let run = |depth: u32, shared: bool| {
            let env = MemEnv::with_profile(DeviceProfile::nvme_optane().with_queues(2));
            write_all(&env, Path::new("t.sst"), &[7u8; 64 << 10]).unwrap();
            let file = env.new_random_access(Path::new("t.sst")).unwrap();
            let before = env.io_stats();
            let mut chains = (depth >= 2).then(crate::IoChains::enter);
            for chain in 0..4u64 {
                if let Some(c) = chains.as_mut() {
                    c.next_chain();
                }
                {
                    let mut plug = (depth >= 1).then(crate::IoChains::enter);
                    for offset in [chain * 8192, chain * 8192 + 4096] {
                        if let Some(p) = plug.as_mut() {
                            p.next_chain();
                        }
                        assert_eq!(read_4k(&*file, offset, shared), [7u8; 4096]);
                    }
                }
                let got = read_4k(&*file, chain * 4096, shared);
                assert_eq!(got, [7u8; 4096], "chained reads return their data");
                let mut w = env
                    .new_writable_on(Path::new(&format!("c{chain}.log")), chain as usize % 2)
                    .unwrap();
                w.append(&[1u8; 100]).unwrap();
                w.sync().unwrap();
            }
            drop(chains);
            env.io_stats().delta(&before)
        };
        let serial = run(0, false);
        for depth in 0..=2 {
            for shared in [false, true] {
                assert_eq!(run(depth, shared), serial, "depth {depth}, shared {shared}");
            }
        }
        assert_eq!((serial.read_ops, serial.syncs), (12, 4));
        assert_eq!((serial.queues[0].syncs, serial.queues[1].syncs), (2, 2));
        assert!(serial.busy_ns > 0);
    }

    #[test]
    fn shared_bytes_never_change_under_their_reader() {
        let env = MemEnv::new();
        let path = Path::new("t.sst");
        let mut w = env.new_writable(path).unwrap();
        w.append(b"durable").unwrap();
        w.sync().unwrap();
        w.append(b"-volatile").unwrap();
        let file = env.new_random_access(path).unwrap();
        let held = |offset: u64, len: usize| file.read_shared(offset, len).unwrap();
        let lent = |(buf, range): &(Arc<Vec<u8>>, Range<usize>)| buf[range.clone()].to_vec();

        // Appended: the holder keeps its bytes, new reads see the append.
        let before_append = held(0, 16);
        w.append(b"-more").unwrap();
        assert_eq!(lent(&before_append), b"durable-volatile");
        assert_eq!(lent(&held(16, 5)), b"-more");
        // Torn, then truncated by a power failure.
        let before_crash = held(0, 21);
        assert_eq!(env.fs().tear(path, 3), 3);
        env.fs().power_failure();
        assert_eq!(lent(&before_crash), b"durable-volatile-more");
        assert_eq!(file.len(), 10);
        assert_eq!(lent(&held(0, 10)), b"durable-vo");
        assert!(file.read_shared(0, 11).is_err(), "past the new end");
        // Rewritten in place by a new writer of the same path.
        let before_rewrite = held(0, 10);
        write_all(&env, path, b"other").unwrap();
        assert_eq!(lent(&before_rewrite), b"durable-vo");
        assert_eq!(lent(&held(0, 5)), b"other");
        // Removed.
        let before_remove = held(1, 3);
        env.remove_file(path).unwrap();
        assert_eq!(lent(&before_remove), b"the");
        assert_eq!(env.fs().total_resident_bytes(), 0);
    }

    #[test]
    fn a_shared_read_lends_the_files_buffer_and_a_change_copies_it() {
        let env = MemEnv::new();
        let path = Path::new("t.sst");
        write_all(&env, path, &[1u8; 4096]).unwrap();
        let file = env.new_random_access(path).unwrap();
        let (a, ra) = file.read_shared(0, 100).unwrap();
        let (b, rb) = file.read_shared(1000, 100).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "two reads of one file share its buffer"
        );
        assert_eq!((ra, rb), (0..100, 1000..1100));
        let mut w = env.new_appendable(path).unwrap();
        w.append(&[2u8; 10]).unwrap();
        let (c, _) = file.read_shared(4096, 10).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "an append under a reader copies");
        assert_eq!((a.len(), c.len()), (4096, 4106));
    }

    #[test]
    fn power_failure_applies_through_sim_env() {
        let env = MemEnv::with_profile(DeviceProfile::instant());
        let mut w = env.new_writable(Path::new("wal.log")).unwrap();
        w.append(b"synced").unwrap();
        w.sync().unwrap();
        w.append(b"lost").unwrap();
        env.fs().power_failure();
        assert_eq!(env.file_size(Path::new("wal.log")).unwrap(), 6);
    }
}

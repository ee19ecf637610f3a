//! In-memory filesystem with power-failure semantics.
//!
//! [`MemFs`] is the shared file store used by both [`MemEnv`] (no timing)
//! and [`crate::SimEnv`] (device timing). Its durability model mirrors a
//! POSIX page cache:
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
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use p2kvs_util::sync::{Mutex, RwLock};

use crate::device::DeviceModel;
use crate::env::{Env, RandomAccessFile, SequentialFile, WritableFile};
use crate::ioqueue::{resolve_queue, QueueId};
use crate::stats::{IoClass, IoStats, IoStatsSnapshot};

/// One in-memory file.
struct MemFile {
    /// Unique id used by the device model's seek tracking.
    id: u64,
    data: Vec<u8>,
    /// Bytes guaranteed durable across a power failure; `None` until a sync.
    synced: Option<usize>,
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
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {}", path.display()))
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

    /// The store's IO counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Simulates a power failure: every file is truncated to its last
    /// synced length, and files never synced at all disappear entirely
    /// (their creation never reached the disk's metadata journal).
    pub fn power_failure(&self) {
        let mut files = self.files.write();
        files.retain(|_, file| {
            let mut f = file.lock();
            let Some(synced) = f.synced else { return false };
            f.data.truncate(synced);
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
                f.data.clear();
                f.synced = None;
            }
            return existing.clone();
        }
        let file = Arc::new(Mutex::new(MemFile {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            data: Vec::new(),
            synced: None,
        }));
        files.insert(path, file.clone());
        file
    }
}

/// Writable handle; optionally charges a device model.
struct MemWritable {
    file: FileRef,
    device: Option<Arc<DeviceModel>>,
    stats: Arc<IoStats>,
    class: IoClass,
    /// Device offset up to which bytes have been charged.
    charged: u64,
    writeback_threshold: usize,
    /// Explicit placement pin; outranks the ambient thread queue.
    queue_pin: Option<QueueId>,
    /// Device queue count, for per-op queue resolution.
    queues: usize,
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
        let bytes = len - self.charged;
        let q = resolve_queue(self.queue_pin, id, self.queues);
        self.stats.record_write_on(bytes, self.class, q);
        if let Some(dev) = &self.device {
            let busy = dev.write(id, self.charged, bytes, q);
            self.stats.record_busy_on(busy, q);
        }
        self.charged = len;
    }
}

impl WritableFile for MemWritable {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        {
            let mut f = self.file.lock();
            f.data.extend_from_slice(data);
        }
        let pending = {
            let f = self.file.lock();
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
        let q = resolve_queue(self.queue_pin, id, self.queues);
        self.stats.record_sync_on(q);
        if let Some(dev) = &self.device {
            let busy = dev.sync(q);
            self.stats.record_busy_on(busy, q);
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.file.lock().data.len() as u64
    }
}

/// Positional read handle.
struct MemRandomAccess {
    file: FileRef,
    device: Option<Arc<DeviceModel>>,
    stats: Arc<IoStats>,
    queues: usize,
}

impl RandomAccessFile for MemRandomAccess {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let id = {
            let f = self.file.lock();
            let start = offset as usize;
            let end = start + buf.len();
            if end > f.data.len() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("read [{start}, {end}) past EOF {}", f.data.len()),
                ));
            }
            buf.copy_from_slice(&f.data[start..end]);
            f.id
        };
        let q = resolve_queue(None, id, self.queues);
        self.stats.record_read_on(buf.len() as u64, q);
        if let Some(dev) = &self.device {
            let busy = dev.read(id, offset, buf.len() as u64, q);
            self.stats.record_busy_on(busy, q);
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.file.lock().data.len() as u64
    }
}

/// Sequential read handle.
struct MemSequential {
    file: FileRef,
    device: Option<Arc<DeviceModel>>,
    stats: Arc<IoStats>,
    pos: u64,
    queues: usize,
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
            let q = resolve_queue(None, id, self.queues);
            self.stats.record_read_on(n as u64, q);
            if let Some(dev) = &self.device {
                let busy = dev.read(id, self.pos, n as u64, q);
                self.stats.record_busy_on(busy, q);
            }
        }
        self.pos += n as u64;
        Ok(n)
    }
}

/// Read-write handle with in-place positional writes.
struct MemRandomRw {
    file: FileRef,
    device: Option<Arc<DeviceModel>>,
    stats: Arc<IoStats>,
    queues: usize,
}

impl crate::env::RandomRwFile for MemRandomRw {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let id = {
            let f = self.file.lock();
            let start = offset as usize;
            let end = start + buf.len();
            if end > f.data.len() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("read [{start}, {end}) past EOF {}", f.data.len()),
                ));
            }
            buf.copy_from_slice(&f.data[start..end]);
            f.id
        };
        let q = resolve_queue(None, id, self.queues);
        self.stats.record_read_on(buf.len() as u64, q);
        if let Some(dev) = &self.device {
            let busy = dev.read(id, offset, buf.len() as u64, q);
            self.stats.record_busy_on(busy, q);
        }
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let id = {
            let mut f = self.file.lock();
            let end = offset as usize + data.len();
            if end > f.data.len() {
                f.data.resize(end, 0);
            }
            f.data[offset as usize..end].copy_from_slice(data);
            // In-place writes are durable immediately (slot-commit model).
            let len = f.data.len();
            f.synced = Some(f.synced.unwrap_or(0).max(len.min(end)));
            f.id
        };
        let q = resolve_queue(None, id, self.queues);
        self.stats.record_write_on(data.len() as u64, IoClass::Misc, q);
        if let Some(dev) = &self.device {
            let busy = dev.write(id, offset, data.len() as u64, q);
            self.stats.record_busy_on(busy, q);
        }
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
        }
    }

    /// An env over an existing store with an optional device model
    /// (used by [`crate::SimEnv`]).
    pub fn with_parts(fs: Arc<MemFs>, device: Option<Arc<DeviceModel>>) -> Self {
        MemEnv { fs, device }
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

    fn open_writable(
        &self,
        path: &Path,
        truncate: bool,
        queue_pin: Option<QueueId>,
    ) -> Box<dyn WritableFile> {
        let file = self.fs.create(path, truncate);
        let charged = if truncate { 0 } else { file.lock().data.len() as u64 };
        Box::new(MemWritable {
            file,
            device: self.device.clone(),
            stats: self.fs.stats.clone(),
            class: IoClass::of_file_name(
                &path.file_name().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default(),
            ),
            charged,
            writeback_threshold: self.writeback_threshold(),
            queue_pin,
            queues: self.queues(),
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
            device: self.device.clone(),
            stats: self.fs.stats.clone(),
            queues: self.queues(),
        }))
    }

    fn new_sequential(&self, path: &Path) -> io::Result<Box<dyn SequentialFile>> {
        let file = self.fs.get(path).ok_or_else(|| not_found(path))?;
        Ok(Box::new(MemSequential {
            file,
            device: self.device.clone(),
            stats: self.fs.stats.clone(),
            pos: 0,
            queues: self.queues(),
        }))
    }

    fn new_random_rw(&self, path: &Path) -> io::Result<Box<dyn crate::env::RandomRwFile>> {
        let file = self.fs.create(path, false);
        Ok(Box::new(MemRandomRw {
            file,
            device: self.device.clone(),
            stats: self.fs.stats.clone(),
            queues: self.queues(),
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
        let file = files.remove(&normalize(from)).ok_or_else(|| not_found(from))?;
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

    fn queue_count(&self) -> usize {
        self.queues()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{read_all, write_all};

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
        env.rename(Path::new("db/CURRENT.tmp"), Path::new("db/CURRENT")).unwrap();
        // And an unsynced file renamed into place must NOT survive.
        let mut w = env.new_writable(Path::new("db/next.tmp")).unwrap();
        w.append(b"half").unwrap();
        drop(w);
        env.rename(Path::new("db/next.tmp"), Path::new("db/next")).unwrap();
        env.fs().power_failure();
        assert_eq!(read_all(&env, Path::new("db/CURRENT")).unwrap(), b"MANIFEST-000002");
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
}

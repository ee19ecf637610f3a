//! The `Env` trait: the filesystem surface every engine is written against.
//!
//! Modeled on LevelDB's `Env`, trimmed to what LSM/B-tree engines actually
//! need: append-only writable files (WAL, SSTs, manifests), positional
//! random-access reads (SST blocks, slab pages), sequential reads
//! (recovery), and a handful of namespace operations.
//!
//! [`crate::MemEnv`] implements it over memory, timed by a device model or
//! not, [`crate::StdEnv`] over the real filesystem, and
//! [`crate::FaultyEnv`] over a `MemEnv` whose files it fails and crashes.

use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::fault::FaultEvent;
use crate::ioqueue::QueueId;
use crate::stats::IoStatsSnapshot;

/// Observer invoked by fault-injecting environments whenever a planned
/// fault fires (see [`crate::FaultyEnv`]). Called after the event is
/// recorded, outside any internal lock, on the faulting thread.
pub type FaultHook = Arc<dyn Fn(&FaultEvent) + Send + Sync>;

/// An append-only file handle (WAL segment, SST under construction, ...).
pub trait WritableFile: Send {
    /// Appends `data` to the end of the file (buffered; not yet durable).
    fn append(&mut self, data: &[u8]) -> io::Result<()>;

    /// Pushes buffered data to the device without a durability barrier.
    fn flush(&mut self) -> io::Result<()>;

    /// Makes all appended data durable (fsync semantics).
    fn sync(&mut self) -> io::Result<()>;

    /// Current file length in bytes, including buffered data.
    fn len(&self) -> u64;

    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A positional, shareable read handle.
pub trait RandomAccessFile: Send + Sync {
    /// Reads exactly `buf.len()` bytes at `offset`, or fails with
    /// `UnexpectedEof` if the file is shorter.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Reads `len` bytes at `offset` like [`RandomAccessFile::read_at`]
    /// (the same op, bytes and failures) and returns them as `buf[range]`,
    /// where `buf` may be shared with the file and with other readers. The
    /// bytes never change while the caller holds them. The default copies
    /// into a buffer of its own; an env that holds its files in memory
    /// lends their buffers instead.
    fn read_shared(&self, offset: u64, len: usize) -> io::Result<(Arc<Vec<u8>>, Range<usize>)> {
        let mut buf = vec![0u8; len];
        self.read_at(offset, &mut buf)?;
        Ok((Arc::new(buf), 0..len))
    }

    /// File length in bytes.
    fn len(&self) -> u64;

    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A forward-only read handle used for recovery scans.
pub trait SequentialFile: Send {
    /// Reads up to `buf.len()` bytes, returning the number read (0 at EOF).
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
}

/// A read-write handle supporting in-place positional writes (KVell-style
/// slab slot updates). Writes past the end extend the file.
pub trait RandomRwFile: Send {
    /// Reads exactly `buf.len()` bytes at `offset`.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Writes `data` at `offset`, extending the file if needed. The write
    /// is durable once the call returns (single-slot commit semantics).
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Current file length in bytes.
    fn len(&self) -> u64;

    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The filesystem abstraction.
///
/// Implementations must be safe to share across threads; all engines hold an
/// `Arc<dyn Env>`.
pub trait Env: Send + Sync {
    /// Creates (truncating) a writable file at `path`.
    fn new_writable(&self, path: &Path) -> io::Result<Box<dyn WritableFile>>;

    /// Opens an existing writable file for append, creating it if absent.
    fn new_appendable(&self, path: &Path) -> io::Result<Box<dyn WritableFile>>;

    /// Creates (truncating) a writable file whose IOs are pinned to device
    /// submission queue `queue` — the placement API. The pin outranks the
    /// calling thread's ambient queue for every operation on the returned
    /// handle. Environments without a device model ignore the hint; the
    /// default delegates to [`Env::new_writable`].
    fn new_writable_on(&self, path: &Path, queue: QueueId) -> io::Result<Box<dyn WritableFile>> {
        let _ = queue;
        self.new_writable(path)
    }

    /// Opens a file for append with its IOs pinned to submission queue
    /// `queue`; see [`Env::new_writable_on`].
    fn new_appendable_on(&self, path: &Path, queue: QueueId) -> io::Result<Box<dyn WritableFile>> {
        let _ = queue;
        self.new_appendable(path)
    }

    /// Opens `path` for positional reads.
    fn new_random_access(&self, path: &Path) -> io::Result<Box<dyn RandomAccessFile>>;

    /// Opens `path` for sequential reads.
    fn new_sequential(&self, path: &Path) -> io::Result<Box<dyn SequentialFile>>;

    /// Opens (creating if absent) `path` for in-place positional writes.
    fn new_random_rw(&self, path: &Path) -> io::Result<Box<dyn RandomRwFile>>;

    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// Lists the direct children of directory `path` (file names only).
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to`, replacing any existing `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Creates `path` and all missing parents as directories.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Removes directory `path` and everything under it.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Size of the file at `path` in bytes.
    fn file_size(&self, path: &Path) -> io::Result<u64>;

    /// Point-in-time IO statistics for this environment.
    fn io_stats(&self) -> IoStatsSnapshot;

    /// Registers an observer for injected-fault firings. The default is
    /// a no-op: only fault-injecting environments ([`crate::FaultyEnv`])
    /// produce events. Lets observability layers holding only an
    /// `Arc<dyn Env>` subscribe without downcasting.
    fn install_fault_hook(&self, _hook: FaultHook) {}

    /// Fraction of the device's aggregate service capacity used since
    /// creation, when this environment models a device (a
    /// [`crate::MemEnv`] built with a profile, or a [`crate::FaultyEnv`]
    /// over one); `None` for unmodeled environments.
    fn device_utilization(&self) -> Option<f64> {
        None
    }

    /// Number of device submission queues this environment models. Unhinted
    /// IO from a thread with no ambient queue spreads across `0..queue_count`
    /// by file id; environments without a device model report 1.
    fn queue_count(&self) -> usize {
        1
    }
}

/// Reads the entire file at `path` into a `Vec<u8>`.
pub fn read_all(env: &dyn Env, path: &Path) -> io::Result<Vec<u8>> {
    let size = env.file_size(path)? as usize;
    let file = env.new_random_access(path)?;
    let mut buf = vec![0u8; size];
    if size > 0 {
        file.read_at(0, &mut buf)?;
    }
    Ok(buf)
}

/// Writes `data` as the full contents of `path` and syncs it.
pub fn write_all(env: &dyn Env, path: &Path, data: &[u8]) -> io::Result<()> {
    let mut f = env.new_writable(path)?;
    f.append(data)?;
    f.sync()?;
    Ok(())
}

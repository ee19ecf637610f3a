//! Deterministic fault injection over any [`Env`].
//!
//! [`FaultyEnv`] wraps an inner env (normally a [`MemEnv`]) and applies a
//! programmable [`FaultPlan`]:
//!
//! * fail the Nth append / sync / read with an injected IO error
//!   (one-shot: the op errors once, retries succeed),
//! * crash — power-failure truncation of the backing [`MemFs`] to
//!   last-synced lengths — when the Nth sync point is requested,
//!   optionally letting part of the crashing file's unsynced tail
//!   survive (a torn write inside the sync interval).
//!
//! Every sync request is globally numbered across all files (WAL, TXNLOG,
//! MANIFEST, SSTs, ...), so a harness can dry-run a workload, read
//! [`FaultyEnv::sync_points`], and then enumerate crashes at every — or a
//! strided sample of — sync points. Crashing *at* sync point N yields the
//! durable state between syncs N-1 and N, so the set of crash points
//! covers every distinct durable state the workload can leave behind.
//!
//! # Queue-targeted faults and concurrency
//!
//! Syncs are *additionally* numbered per device submission queue (the
//! queue resolved exactly as the timing layer resolves it: explicit file
//! pin, then the thread's ambient queue, then queue 0), so a plan can
//! crash at "the Nth sync **on queue q**" ([`FaultPlan::crash_at_queue_sync`]).
//!
//! This is what keeps fault injection deterministic once compaction runs
//! multi-threaded: global *counts* remain exact under concurrency (every
//! op increments the counter exactly once, so dry-run totals are
//! scheduling-independent), but *which* op draws global number N depends
//! on thread interleaving. Per-queue numbering restores a deterministic
//! handle — each worker/subcompaction owns one queue, and the sequence of
//! ops on that queue is the deterministic program order of its owner.
//!
//! After a crash the env is frozen: every subsequent operation on any
//! handle fails with a "simulated power failure" error, which is how the
//! still-running upper layers (workers, background flush threads) observe
//! the outage. [`FaultyEnv::heal`] lifts the freeze for recovery.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use p2kvs_util::sync::{Mutex, RwLock};

use crate::device::{DeviceModel, DeviceProfile};
use crate::env::{Env, FaultHook, RandomAccessFile, RandomRwFile, SequentialFile, WritableFile};
use crate::ioqueue::{resolve_queue, QueueId, MAX_QUEUES};
use crate::mem::{MemEnv, MemFs};
use crate::stats::IoStatsSnapshot;

/// What to inject, expressed against global 1-based operation counters.
///
/// All triggers are one-shot: once fired they are cleared from the plan,
/// so a retry of the same operation succeeds (transient-error model). A
/// crash is not transient — it freezes the env until [`FaultyEnv::heal`].
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// Fail the Nth append (1-based, counted across all files).
    pub fail_append: Option<u64>,
    /// Fail the Nth sync request without crashing.
    pub fail_sync: Option<u64>,
    /// Fail the Nth read (counted across random-access, sequential and
    /// rw handles).
    pub fail_read: Option<u64>,
    /// Crash (power-failure truncate + freeze) when the Nth sync point is
    /// requested. The sync itself fails; nothing it would have made
    /// durable survives.
    pub crash_at_sync: Option<u64>,
    /// At the crash, let up to this many unsynced bytes of the file whose
    /// sync triggered it survive — a torn write within the sync interval.
    /// Shared by global and queue-targeted crashes.
    pub torn_tail: usize,
    /// Crash when the Nth sync *on queue q* is requested — the
    /// deterministic trigger for concurrent compaction threads, each of
    /// which owns one queue.
    pub crash_at_queue_sync: Option<(QueueId, u64)>,
}

/// A fault that actually fired (for harness assertions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Append number `n` on `path` failed.
    FailedAppend { n: u64, path: PathBuf },
    /// Sync number `n` on `path` failed (no crash).
    FailedSync { n: u64, path: PathBuf },
    /// Read number `n` on `path` failed.
    FailedRead { n: u64, path: PathBuf },
    /// The env crashed at sync point `n`, which targeted `path`;
    /// `torn` unsynced bytes of `path` survived.
    Crash { n: u64, path: PathBuf, torn: usize },
    /// The env crashed at sync number `n` on queue `q`.
    QueueCrash {
        q: QueueId,
        n: u64,
        path: PathBuf,
        torn: usize,
    },
}

/// Shared mutable fault state. One per [`FaultyEnv`], shared with every
/// file handle the env ever produced.
struct FaultState {
    plan: Mutex<FaultPlan>,
    appends: AtomicU64,
    syncs: AtomicU64,
    reads: AtomicU64,
    /// Per-queue sync numbering, alongside (not replacing) the global.
    q_syncs: [AtomicU64; MAX_QUEUES],
    crashed: AtomicBool,
    /// Held shared by an append or a sync from its last `crashed` check
    /// until the inner file has done it, exclusively by a crash while it
    /// freezes and truncates. Without it an op that passed the check on
    /// one thread could run behind the truncation done by another: a
    /// late append left a record *after* a lost one (a hole in the
    /// recovered image), a late sync returned `Ok` for bytes the crash
    /// had already dropped (an acked write lost).
    down: RwLock<()>,
    events: Mutex<Vec<FaultEvent>>,
    hook: Mutex<Option<FaultHook>>,
}

impl FaultState {
    fn new() -> FaultState {
        FaultState {
            plan: Mutex::new(FaultPlan::default()),
            appends: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            q_syncs: std::array::from_fn(|_| AtomicU64::new(0)),
            crashed: AtomicBool::new(false),
            down: RwLock::new(()),
            events: Mutex::new(Vec::new()),
            hook: Mutex::new(None),
        }
    }

    /// Records a fired fault and notifies the observer. The hook runs
    /// with no internal lock held (it may re-enter the env, e.g. a
    /// flight recorder appending its own journal file), on the thread
    /// whose operation faulted.
    fn fire(&self, event: FaultEvent) {
        self.events.lock().push(event.clone());
        let hook = self.hook.lock().clone();
        if let Some(hook) = hook {
            hook(&event);
        }
    }

    fn crashed_err(&self) -> io::Error {
        io::Error::other("simulated power failure: env is down")
    }

    fn injected_err(&self, what: &str, n: u64, path: &Path) -> io::Error {
        io::Error::other(format!("injected fault: {what} #{n} on {}", path.display()))
    }

    fn check_live(&self) -> io::Result<()> {
        if self.crashed.load(Ordering::Acquire) {
            Err(self.crashed_err())
        } else {
            Ok(())
        }
    }

    fn on_append(&self, path: &Path) -> io::Result<()> {
        self.check_live()?;
        let n = self.appends.fetch_add(1, Ordering::Relaxed) + 1;
        let mut plan = self.plan.lock();
        if plan.fail_append == Some(n) {
            plan.fail_append = None;
            drop(plan);
            self.fire(FaultEvent::FailedAppend {
                n,
                path: path.to_path_buf(),
            });
            return Err(self.injected_err("append", n, path));
        }
        Ok(())
    }

    fn on_read(&self, path: &Path) -> io::Result<()> {
        self.check_live()?;
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        let mut plan = self.plan.lock();
        if plan.fail_read == Some(n) {
            plan.fail_read = None;
            drop(plan);
            self.fire(FaultEvent::FailedRead {
                n,
                path: path.to_path_buf(),
            });
            return Err(self.injected_err("read", n, path));
        }
        Ok(())
    }

    /// The crash itself: freeze first so concurrent ops start failing
    /// immediately, then tear + truncate to the durable image — with no
    /// append or sync in flight ([`FaultState::down`]). Returns the bytes
    /// torn in.
    fn power_fail(&self, fs: &MemFs, path: &Path, torn_budget: usize) -> usize {
        let _no_writes = self.down.write();
        self.crashed.store(true, Ordering::Release);
        let torn = if torn_budget > 0 {
            fs.tear(path, torn_budget)
        } else {
            0
        };
        fs.power_failure();
        torn
    }

    /// Numbers the sync request and decides its fate. Returns the action
    /// the caller must take; the crash truncation itself needs the fs, so
    /// it is done by the caller.
    fn on_sync(&self, path: &Path, fs: &MemFs, queue: QueueId) -> io::Result<()> {
        self.check_live()?;
        let n = self.syncs.fetch_add(1, Ordering::Relaxed) + 1;
        let qn = self.q_syncs[queue % MAX_QUEUES].fetch_add(1, Ordering::Relaxed) + 1;
        let mut plan = self.plan.lock();
        if plan.crash_at_sync == Some(n) {
            plan.crash_at_sync = None;
            let torn_budget = plan.torn_tail;
            drop(plan);
            let torn = self.power_fail(fs, path, torn_budget);
            self.fire(FaultEvent::Crash {
                n,
                path: path.to_path_buf(),
                torn,
            });
            return Err(self.crashed_err());
        }
        if plan.crash_at_queue_sync == Some((queue, qn)) {
            plan.crash_at_queue_sync = None;
            let torn_budget = plan.torn_tail;
            drop(plan);
            let torn = self.power_fail(fs, path, torn_budget);
            self.fire(FaultEvent::QueueCrash {
                q: queue,
                n: qn,
                path: path.to_path_buf(),
                torn,
            });
            return Err(self.crashed_err());
        }
        if plan.fail_sync == Some(n) {
            plan.fail_sync = None;
            drop(plan);
            self.fire(FaultEvent::FailedSync {
                n,
                path: path.to_path_buf(),
            });
            return Err(self.injected_err("sync", n, path));
        }
        Ok(())
    }
}

/// An [`Env`] decorator injecting faults per a [`FaultPlan`].
pub struct FaultyEnv {
    inner: Arc<dyn Env>,
    fs: Arc<MemFs>,
    state: Arc<FaultState>,
}

impl FaultyEnv {
    /// Wraps an env whose files live in `fs`. The fs handle is what crash
    /// injection truncates; it must be the same store `inner` writes to.
    pub fn new(inner: Arc<dyn Env>, fs: Arc<MemFs>) -> FaultyEnv {
        FaultyEnv {
            inner,
            fs,
            state: Arc::new(FaultState::new()),
        }
    }

    /// A fresh in-memory env with fault injection and no device timing.
    pub fn over_mem() -> FaultyEnv {
        let fs = Arc::new(MemFs::new());
        let inner = Arc::new(MemEnv::with_parts(fs.clone(), None));
        FaultyEnv::new(inner, fs)
    }

    /// A fresh in-memory env with fault injection over an instant-timing
    /// device with `n` submission queues, so per-queue sync numbering has
    /// queues to resolve to.
    pub fn over_queues(n: usize) -> FaultyEnv {
        let profile = DeviceProfile::instant().with_queues(n);
        let device = Arc::new(DeviceModel::from_profile(profile));
        let fs = Arc::new(MemFs::new());
        let inner = Arc::new(MemEnv::with_parts(fs.clone(), Some(device)));
        FaultyEnv::new(inner, fs)
    }

    /// The backing store (for direct power_failure / footprint checks).
    pub fn fs(&self) -> &Arc<MemFs> {
        &self.fs
    }

    /// Replaces the fault plan. Counters keep running; plan indices are
    /// absolute (compared against the global counters, not deltas).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.state.plan.lock() = plan;
    }

    /// Total sync requests observed so far — the number of sync points a
    /// dry run of a workload exposes to crash enumeration.
    pub fn sync_points(&self) -> u64 {
        self.state.syncs.load(Ordering::Relaxed)
    }

    /// Sync requests observed on queue `q` so far — the per-queue crash
    /// enumeration space for [`FaultPlan::crash_at_queue_sync`].
    pub fn sync_points_on(&self, q: QueueId) -> u64 {
        self.state.q_syncs[q % MAX_QUEUES].load(Ordering::Relaxed)
    }

    /// Total appends observed so far.
    pub fn appends(&self) -> u64 {
        self.state.appends.load(Ordering::Relaxed)
    }

    /// Total reads observed so far.
    pub fn reads(&self) -> u64 {
        self.state.reads.load(Ordering::Relaxed)
    }

    /// Whether a planned crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::Acquire)
    }

    /// Every fault that fired so far, in order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.state.events.lock().clone()
    }

    /// Lifts a crash freeze and clears the plan, modeling the machine
    /// coming back up: recovery code can reopen and read what survived.
    /// Counters keep their values so sync-point numbering stays global
    /// across the workload *and* recovery (recovery's own syncs get
    /// fresh numbers).
    pub fn heal(&self) {
        *self.state.plan.lock() = FaultPlan::default();
        self.state.crashed.store(false, Ordering::Release);
    }

    /// Wraps a writable handle the inner env opened at `path`, with the
    /// explicit queue pin it was opened with, if any.
    fn writable(
        &self,
        inner: Box<dyn WritableFile>,
        path: &Path,
        queue_pin: Option<QueueId>,
    ) -> Box<dyn WritableFile> {
        Box::new(FaultyWritable {
            inner,
            state: self.state.clone(),
            fs: self.fs.clone(),
            path: path.to_path_buf(),
            queue_pin,
            queues: self.inner.queue_count(),
        })
    }
}

struct FaultyWritable {
    inner: Box<dyn WritableFile>,
    state: Arc<FaultState>,
    fs: Arc<MemFs>,
    path: PathBuf,
    /// Explicit placement pin this handle was opened with, if any.
    queue_pin: Option<QueueId>,
    /// Inner env's queue count, for per-op queue resolution.
    queues: usize,
}

impl FaultyWritable {
    /// The queue this op counts against: the same pin-then-ambient
    /// resolution the timing layer uses. Unhinted ambient-free IO counts
    /// on queue 0 (the fault layer cannot see device file ids, and a
    /// fixed fallback keeps numbering deterministic).
    fn queue(&self) -> QueueId {
        resolve_queue(self.queue_pin, 0, self.queues)
    }
}

impl WritableFile for FaultyWritable {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.state.on_append(&self.path)?;
        // Not across `on_append`: its fault hook may re-enter the env
        // (and `on_sync` below may be the crash itself).
        let _live = self.state.down.read();
        self.state.check_live()?;
        self.inner.append(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.state.check_live()?;
        self.inner.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.state.on_sync(&self.path, &self.fs, self.queue())?;
        let _live = self.state.down.read();
        self.state.check_live()?;
        self.inner.sync()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct FaultyRandomAccess {
    inner: Box<dyn RandomAccessFile>,
    state: Arc<FaultState>,
    path: PathBuf,
}

impl RandomAccessFile for FaultyRandomAccess {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.state.on_read(&self.path)?;
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct FaultySequential {
    inner: Box<dyn SequentialFile>,
    state: Arc<FaultState>,
    path: PathBuf,
}

impl SequentialFile for FaultySequential {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.state.on_read(&self.path)?;
        self.inner.read(buf)
    }
}

struct FaultyRandomRw {
    inner: Box<dyn RandomRwFile>,
    state: Arc<FaultState>,
    path: PathBuf,
}

impl RandomRwFile for FaultyRandomRw {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.state.on_read(&self.path)?;
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        // In-place slot writes are durable on return (slot-commit model),
        // so they count as appends for failure purposes.
        self.state.on_append(&self.path)?;
        let _live = self.state.down.read();
        self.state.check_live()?;
        self.inner.write_at(offset, data)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for FaultyEnv {
    fn new_writable(&self, path: &Path) -> io::Result<Box<dyn WritableFile>> {
        self.state.check_live()?;
        Ok(self.writable(self.inner.new_writable(path)?, path, None))
    }

    fn new_appendable(&self, path: &Path) -> io::Result<Box<dyn WritableFile>> {
        self.state.check_live()?;
        Ok(self.writable(self.inner.new_appendable(path)?, path, None))
    }

    fn new_writable_on(&self, path: &Path, queue: QueueId) -> io::Result<Box<dyn WritableFile>> {
        self.state.check_live()?;
        Ok(self.writable(self.inner.new_writable_on(path, queue)?, path, Some(queue)))
    }

    fn new_appendable_on(&self, path: &Path, queue: QueueId) -> io::Result<Box<dyn WritableFile>> {
        self.state.check_live()?;
        let inner = self.inner.new_appendable_on(path, queue)?;
        Ok(self.writable(inner, path, Some(queue)))
    }

    fn new_random_access(&self, path: &Path) -> io::Result<Box<dyn RandomAccessFile>> {
        self.state.check_live()?;
        Ok(Box::new(FaultyRandomAccess {
            inner: self.inner.new_random_access(path)?,
            state: self.state.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn new_sequential(&self, path: &Path) -> io::Result<Box<dyn SequentialFile>> {
        self.state.check_live()?;
        Ok(Box::new(FaultySequential {
            inner: self.inner.new_sequential(path)?,
            state: self.state.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn new_random_rw(&self, path: &Path) -> io::Result<Box<dyn RandomRwFile>> {
        self.state.check_live()?;
        Ok(Box::new(FaultyRandomRw {
            inner: self.inner.new_random_rw(path)?,
            state: self.state.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        !self.state.crashed.load(Ordering::Acquire) && self.inner.exists(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.state.check_live()?;
        self.inner.list_dir(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.state.check_live()?;
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.state.check_live()?;
        self.inner.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.state.check_live()?;
        self.inner.create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.state.check_live()?;
        self.inner.remove_dir_all(path)
    }

    fn file_size(&self, path: &Path) -> io::Result<u64> {
        self.state.check_live()?;
        self.inner.file_size(path)
    }

    fn io_stats(&self) -> IoStatsSnapshot {
        self.inner.io_stats()
    }

    fn install_fault_hook(&self, hook: FaultHook) {
        *self.state.hook.lock() = Some(hook);
    }

    fn queue_count(&self) -> usize {
        self.inner.queue_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{read_all, write_all};

    #[test]
    fn sync_points_are_numbered_globally_across_files() {
        let env = FaultyEnv::over_mem();
        let mut a = env.new_writable(Path::new("a")).unwrap();
        let mut b = env.new_writable(Path::new("b")).unwrap();
        a.append(b"1").unwrap();
        a.sync().unwrap();
        b.append(b"2").unwrap();
        b.sync().unwrap();
        a.sync().unwrap();
        assert_eq!(env.sync_points(), 3);
    }

    #[test]
    fn fail_sync_is_one_shot() {
        let env = FaultyEnv::over_mem();
        env.set_plan(FaultPlan {
            fail_sync: Some(2),
            ..Default::default()
        });
        let mut w = env.new_writable(Path::new("f")).unwrap();
        w.append(b"x").unwrap();
        w.sync().unwrap(); // #1
        w.append(b"y").unwrap();
        let err = w.sync().unwrap_err(); // #2 injected
        assert!(err.to_string().contains("injected fault: sync #2"), "{err}");
        w.sync().unwrap(); // #3: retry succeeds
        assert!(!env.crashed());
        assert_eq!(
            env.events(),
            vec![FaultEvent::FailedSync {
                n: 2,
                path: PathBuf::from("f")
            }]
        );
    }

    #[test]
    fn fail_append_and_read_fire_once() {
        let env = FaultyEnv::over_mem();
        env.set_plan(FaultPlan {
            fail_append: Some(2),
            fail_read: Some(1),
            ..Default::default()
        });
        let mut w = env.new_writable(Path::new("f")).unwrap();
        w.append(b"ok").unwrap();
        assert!(w.append(b"bad").is_err());
        w.append(b"ok2").unwrap();
        w.sync().unwrap();
        assert!(read_all(&env, Path::new("f")).is_err()); // read #1 injected
        assert_eq!(read_all(&env, Path::new("f")).unwrap(), b"okok2");
    }

    #[test]
    fn fail_read_keeps_its_number_inside_a_plug() {
        let sim = Arc::new(crate::SimEnv::with_profile(
            crate::DeviceProfile::nvme_optane(),
        ));
        let env = FaultyEnv::new(sim.clone(), sim.fs().clone());
        write_all(&env, Path::new("f"), &[1u8; 4096]).unwrap();
        let file = env.new_random_access(Path::new("f")).unwrap();
        let first = env.reads() + 1;
        env.set_plan(FaultPlan {
            fail_read: Some(first + 2),
            ..Default::default()
        });
        let mut buf = [0u8; 512];
        let outcomes: Vec<bool> = {
            let _plug = crate::IoPlug::enter();
            (0..5)
                .map(|i| file.read_at(i * 512, &mut buf).is_ok())
                .collect()
        };
        assert_eq!(outcomes, [true, true, false, true, true]);
        assert_eq!(
            env.events(),
            vec![FaultEvent::FailedRead {
                n: first + 2,
                path: PathBuf::from("f")
            }]
        );
    }

    #[test]
    fn crash_at_sync_freezes_env_until_heal() {
        let env = FaultyEnv::over_mem();
        write_all(&env, Path::new("old"), b"durable").unwrap(); // sync #1
        env.set_plan(FaultPlan {
            crash_at_sync: Some(2),
            ..Default::default()
        });

        let mut w = env.new_writable(Path::new("new")).unwrap();
        w.append(b"never synced").unwrap();
        let err = w.sync().unwrap_err(); // sync #2 -> crash
        assert!(err.to_string().contains("simulated power failure"), "{err}");
        assert!(env.crashed());

        // Frozen: every op on any handle or the env fails.
        assert!(w.append(b"more").is_err());
        assert!(env.new_writable(Path::new("x")).is_err());
        assert!(env.list_dir(Path::new("")).is_err());
        assert!(!env.exists(Path::new("old")));

        env.heal();
        // The unsynced file is gone entirely; the synced one survives.
        assert!(!env.exists(Path::new("new")));
        assert_eq!(read_all(&env, Path::new("old")).unwrap(), b"durable");
        // Recovery syncs get fresh global numbers (numbering continues).
        write_all(&env, Path::new("post"), b"p").unwrap();
        assert_eq!(env.sync_points(), 3);
    }

    #[test]
    fn crash_with_torn_tail_keeps_partial_write() {
        let env = FaultyEnv::over_mem();
        let mut w = env.new_writable(Path::new("wal")).unwrap();
        w.append(b"head").unwrap();
        w.sync().unwrap(); // #1
        env.set_plan(FaultPlan {
            crash_at_sync: Some(2),
            torn_tail: 3,
            ..Default::default()
        });
        w.append(b"torn-write").unwrap();
        assert!(w.sync().is_err());
        env.heal();
        // 3 of the 10 unsynced bytes survived the crash.
        assert_eq!(read_all(&env, Path::new("wal")).unwrap(), b"headtor");
        match &env.events()[..] {
            [FaultEvent::Crash {
                n: 2,
                torn: 3,
                path,
            }] => {
                assert_eq!(path, Path::new("wal"));
            }
            other => panic!("unexpected events: {other:?}"),
        }
    }

    #[test]
    fn fault_hook_observes_firings_and_tolerates_reentry() {
        let env = FaultyEnv::over_mem();
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        {
            // The hook re-enters the env (like a flight recorder
            // appending its journal) — must not deadlock, and its
            // appends simply fail once the env is frozen.
            let seen = seen.clone();
            let hook_env: Arc<dyn Env> = Arc::new(FaultyEnv {
                inner: env.inner.clone(),
                fs: env.fs.clone(),
                state: env.state.clone(),
            });
            env.install_fault_hook(Arc::new(move |e| {
                let name = match e {
                    FaultEvent::FailedAppend { .. } => "append",
                    FaultEvent::FailedSync { .. } => "sync",
                    FaultEvent::FailedRead { .. } => "read",
                    FaultEvent::Crash { .. } => "crash",
                    FaultEvent::QueueCrash { .. } => "q-crash",
                };
                // Re-entry through the same env's counters.
                if let Ok(mut f) = hook_env.new_appendable(Path::new("hook.log")) {
                    let _ = f.append(name.as_bytes());
                }
                seen.lock().push(name.to_string());
            }));
        }
        env.set_plan(FaultPlan {
            fail_append: Some(1),
            crash_at_sync: Some(1),
            ..Default::default()
        });
        let mut w = env.new_writable(Path::new("f")).unwrap();
        assert!(w.append(b"x").is_err()); // append #1 injected
        w.append(b"x").unwrap();
        assert!(w.sync().is_err()); // sync #1 -> crash (env frozen)
        assert_eq!(seen.lock().clone(), vec!["append", "crash"]);
        assert_eq!(
            env.events().len(),
            2,
            "hook saw exactly the recorded events"
        );
    }

    #[test]
    fn queue_crash_freezes_whole_env() {
        let env = FaultyEnv::over_queues(2);
        write_all(&env, Path::new("durable"), b"keep").unwrap();
        env.set_plan(FaultPlan {
            crash_at_queue_sync: Some((1, 1)),
            ..Default::default()
        });
        // Queue-0 traffic sails past the queue-1 trigger: its count
        // reaches the trigger's number, and more, without firing it.
        write_all(&env, Path::new("also-durable"), b"keep").unwrap();
        let mut w = env.new_writable_on(Path::new("doomed"), 1).unwrap();
        w.append(b"never synced").unwrap();
        let err = w.sync().unwrap_err();
        assert!(err.to_string().contains("simulated power failure"), "{err}");
        assert!(env.crashed(), "a queue crash downs the whole device");
        assert_eq!((env.sync_points_on(0), env.sync_points_on(1)), (2, 1));
        assert_eq!(env.sync_points(), 3, "global numbering spans both queues");
        env.heal();
        assert!(env.exists(Path::new("durable")));
        assert!(env.exists(Path::new("also-durable")));
        assert!(!env.exists(Path::new("doomed")));
        match &env.events()[..] {
            [FaultEvent::QueueCrash {
                q: 1,
                n: 1,
                path,
                torn: 0,
            }] => {
                assert_eq!(path, Path::new("doomed"));
            }
            other => panic!("unexpected events: {other:?}"),
        }
    }

    #[test]
    fn per_queue_numbering_is_deterministic_under_concurrency() {
        // Two threads, each owning one queue via its ambient pin — the
        // global interleaving is nondeterministic, but each queue's count
        // reflects exactly its owner's program order.
        for _ in 0..3 {
            let env = Arc::new(FaultyEnv::over_queues(2));
            let hs: Vec<_> = (0..2usize)
                .map(|q| {
                    let env = env.clone();
                    std::thread::spawn(move || {
                        let _g = crate::ioqueue::QueueScope::enter(q);
                        let mut w = env.new_writable(Path::new(&format!("t{q}"))).unwrap();
                        for i in 0..(q + 1) * 3 {
                            w.append(&[i as u8]).unwrap();
                            w.sync().unwrap();
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(env.sync_points_on(0), 3);
            assert_eq!(env.sync_points_on(1), 6);
            // Global counts are exact (scheduling-independent totals).
            assert_eq!(env.sync_points(), 9);
            assert_eq!(env.appends(), 9);
        }
    }

    #[test]
    fn dry_run_then_crash_enumeration_is_reproducible() {
        // The pattern the crash matrix uses: dry-run to count sync
        // points, then re-run the same workload crashing at each point.
        let workload = |env: &FaultyEnv| -> Vec<io::Result<()>> {
            (0..4u8)
                .map(|i| write_all(env, Path::new(&format!("f{i}")), &[i]))
                .collect()
        };
        let dry = FaultyEnv::over_mem();
        let results = workload(&dry);
        assert!(results.iter().all(|r| r.is_ok()));
        let total = dry.sync_points();
        assert_eq!(total, 4);

        for point in 1..=total {
            let env = FaultyEnv::over_mem();
            env.set_plan(FaultPlan {
                crash_at_sync: Some(point),
                ..Default::default()
            });
            let results = workload(&env);
            assert!(env.crashed(), "crash point {point} must fire");
            let failed = results.iter().filter(|r| r.is_err()).count();
            assert!(failed >= 1);
            env.heal();
            // Exactly the writes whose sync preceded the crash survive.
            for i in 0..4u8 {
                let path = format!("f{i}");
                let should_survive = (i as u64) < point - 1;
                assert_eq!(
                    env.exists(Path::new(&path)),
                    should_survive,
                    "crash at {point}: file {path}"
                );
            }
        }
    }
}

//! Simulated-device environment: [`MemEnv`] plus a [`DeviceModel`].
//!
//! This is the environment the benchmark harness runs on. It owns the
//! device utilization bookkeeping used to report bandwidth-utilization
//! figures (Figs 4, 5b, 12c, 21a).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::device::{DeviceModel, DeviceProfile, QueueDepthSnapshot};
use crate::env::{Env, RandomAccessFile, SequentialFile, WritableFile};
use crate::ioqueue::QueueId;
use crate::mem::{MemEnv, MemFs};
use crate::stats::IoStatsSnapshot;

/// An in-memory filesystem whose IOs are timed by a device model.
pub struct SimEnv {
    inner: MemEnv,
    device: Arc<DeviceModel>,
    created: Instant,
}

impl SimEnv {
    /// Creates a simulated environment over `model`.
    pub fn new(model: DeviceModel) -> Self {
        let device = Arc::new(model);
        let fs = Arc::new(MemFs::new());
        SimEnv {
            inner: MemEnv::with_parts(fs, Some(device.clone())),
            device,
            created: Instant::now(),
        }
    }

    /// Shorthand for `SimEnv::new(DeviceModel::from_profile(profile))`.
    pub fn with_profile(profile: DeviceProfile) -> Self {
        Self::new(DeviceModel::from_profile(profile))
    }

    /// The device profile in use.
    pub fn profile(&self) -> &DeviceProfile {
        self.device.profile()
    }

    /// The underlying store (failure injection, footprint checks).
    pub fn fs(&self) -> &Arc<MemFs> {
        self.inner.fs()
    }

    /// The device model (queue snapshots, profile).
    pub fn device(&self) -> &Arc<DeviceModel> {
        &self.device
    }

    /// Fraction of the device's aggregate service capacity used since
    /// creation: `busy_time / (wall_time × aggregate_depth)`, in `[0, 1]`.
    pub fn device_utilization(&self) -> f64 {
        let snap = self.io_stats();
        let wall = self.created.elapsed().as_nanos() as f64;
        let depth = self.profile().aggregate_depth().min(64) as f64;
        if wall == 0.0 {
            0.0
        } else {
            (snap.busy_ns as f64 / (wall * depth)).min(1.0)
        }
    }

    /// Per-queue utilization since creation: each queue's busy time over
    /// `wall_time × queue_depth`, in `[0, 1]`. One entry per queue.
    pub fn queue_utilization(&self) -> Vec<f64> {
        let snap = self.io_stats();
        let wall = self.created.elapsed().as_nanos() as f64;
        let depth = self.profile().queue_depth.clamp(1, 64) as f64;
        (0..self.device.queue_count())
            .map(|q| {
                if wall == 0.0 {
                    0.0
                } else {
                    (snap.queues[q].busy_ns as f64 / (wall * depth)).min(1.0)
                }
            })
            .collect()
    }

    /// In-flight/backlog accounting for one submission queue.
    pub fn queue_snapshot(&self, q: QueueId) -> QueueDepthSnapshot {
        self.device.queue_snapshot(q)
    }

    /// Fraction of the device's write bandwidth consumed over the window
    /// between two snapshots taken `wall_secs` apart.
    pub fn bandwidth_utilization(
        &self,
        delta: &IoStatsSnapshot,
        wall_secs: f64,
    ) -> f64 {
        if wall_secs <= 0.0 {
            return 0.0;
        }
        let p = self.profile();
        let write_frac = delta.bytes_written as f64 / (p.write_bw as f64 * wall_secs);
        let read_frac = delta.bytes_read as f64 / (p.read_bw as f64 * wall_secs);
        (write_frac + read_frac).min(1.0)
    }
}

impl Env for SimEnv {
    fn new_writable(&self, path: &Path) -> io::Result<Box<dyn WritableFile>> {
        self.inner.new_writable(path)
    }

    fn new_appendable(&self, path: &Path) -> io::Result<Box<dyn WritableFile>> {
        self.inner.new_appendable(path)
    }

    fn new_writable_on(&self, path: &Path, queue: QueueId) -> io::Result<Box<dyn WritableFile>> {
        self.inner.new_writable_on(path, queue)
    }

    fn new_appendable_on(&self, path: &Path, queue: QueueId) -> io::Result<Box<dyn WritableFile>> {
        self.inner.new_appendable_on(path, queue)
    }

    fn new_random_access(&self, path: &Path) -> io::Result<Box<dyn RandomAccessFile>> {
        self.inner.new_random_access(path)
    }

    fn new_sequential(&self, path: &Path) -> io::Result<Box<dyn SequentialFile>> {
        self.inner.new_sequential(path)
    }

    fn new_random_rw(&self, path: &Path) -> io::Result<Box<dyn crate::env::RandomRwFile>> {
        self.inner.new_random_rw(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }

    fn file_size(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_size(path)
    }

    fn io_stats(&self) -> IoStatsSnapshot {
        self.inner.io_stats()
    }

    fn device_utilization(&self) -> Option<f64> {
        Some(SimEnv::device_utilization(self))
    }

    fn queue_count(&self) -> usize {
        self.device.queue_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::write_all;
    use std::time::Duration;

    #[test]
    fn sim_env_charges_time_for_synced_writes() {
        // HDD sync ≈ 4 ms; three synced writes must take ≥ 12 ms of model
        // busy time and comparable wall time.
        let env = SimEnv::with_profile(DeviceProfile::hdd());
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
        let env = SimEnv::with_profile(DeviceProfile::instant());
        let start = Instant::now();
        for i in 0..200 {
            write_all(&env, Path::new(&format!("f{i}.log")), &[0u8; 64]).unwrap();
        }
        assert!(start.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn utilization_is_bounded() {
        let env = SimEnv::with_profile(DeviceProfile::nvme_optane());
        write_all(&env, Path::new("a.sst"), &[0u8; 1 << 20]).unwrap();
        let u = env.device_utilization();
        assert!((0.0..=1.0).contains(&u));
        let snap = env.io_stats();
        let bw = env.bandwidth_utilization(&snap, 1.0);
        assert!((0.0..=1.0).contains(&bw));
        assert!(bw > 0.0);
    }

    #[test]
    fn queue_placement_routes_traffic() {
        let env = SimEnv::with_profile(DeviceProfile::instant().with_queues(4));
        assert_eq!(Env::queue_count(&env), 4);

        // Explicit pin: all IO on this handle lands on queue 2.
        let mut w = env.new_writable_on(Path::new("pinned.sst"), 2).unwrap();
        w.append(&[0u8; 100]).unwrap();
        w.sync().unwrap();

        // Ambient thread queue: an un-pinned handle follows the pin set on
        // the calling thread.
        {
            let _g = crate::ioqueue::QueueScope::enter(1);
            let mut w = env.new_writable(Path::new("ambient.log")).unwrap();
            w.append(&[0u8; 40]).unwrap();
            w.sync().unwrap();
        }

        let snap = env.io_stats();
        assert_eq!(snap.queues[2].bytes_written, 100);
        assert_eq!(snap.queues[2].syncs, 1);
        assert_eq!(snap.queues[1].bytes_written, 40);
        assert_eq!(snap.queues[1].syncs, 1);
        // Device-side accounting saw the same placement.
        assert_eq!(env.queue_snapshot(2).submitted, 2); // write + sync
        assert_eq!(env.queue_snapshot(1).submitted, 2);
        assert_eq!(env.queue_utilization().len(), 4);
    }

    #[test]
    fn plugged_reads_account_like_unplugged_ones() {
        // The plug changes when the caller waits, never what the device or
        // the env counted.
        let run = |plugged: bool| {
            let env = SimEnv::with_profile(DeviceProfile::nvme_optane().with_queues(2));
            write_all(&env, Path::new("t.sst"), &[7u8; 64 << 10]).unwrap();
            let file = env.new_random_access(Path::new("t.sst")).unwrap();
            let before = env.io_stats();
            let mut buf = [0u8; 4096];
            {
                let _plug = plugged.then(crate::IoPlug::enter);
                for i in 0..8u64 {
                    file.read_at(i * 8192, &mut buf).unwrap();
                    assert_eq!(buf, [7u8; 4096], "plugged reads return their data");
                }
            }
            let queues = [env.queue_snapshot(0), env.queue_snapshot(1)];
            (
                env.io_stats().delta(&before),
                queues.map(|q| (q.submitted, q.busy_ns)),
            )
        };
        let (serial_io, serial_q) = run(false);
        let (plugged_io, plugged_q) = run(true);
        assert_eq!(plugged_io, serial_io);
        assert_eq!(plugged_io.read_ops, 8);
        assert_eq!(plugged_q, serial_q);
    }

    #[test]
    fn chained_io_accounts_like_unchained_io() {
        // Overlapping chains changes when the caller waits, never what the
        // device or the env counted: reads (plugged and not), appends and
        // syncs on both queues.
        let run = |chained: bool| {
            let env = SimEnv::with_profile(DeviceProfile::nvme_optane().with_queues(2));
            write_all(&env, Path::new("t.sst"), &[7u8; 64 << 10]).unwrap();
            let file = env.new_random_access(Path::new("t.sst")).unwrap();
            let before = env.io_stats();
            let mut buf = [0u8; 4096];
            let mut chains = chained.then(crate::IoChains::enter);
            for chain in 0..4u64 {
                if let Some(c) = chains.as_mut() {
                    c.next_chain();
                }
                {
                    let _plug = crate::IoPlug::enter();
                    file.read_at(chain * 8192, &mut buf).unwrap();
                    file.read_at(chain * 8192 + 4096, &mut buf).unwrap();
                }
                file.read_at(chain * 4096, &mut buf).unwrap();
                assert_eq!(buf, [7u8; 4096], "chained reads return their data");
                let mut w = env
                    .new_writable_on(Path::new(&format!("c{chain}.log")), chain as usize % 2)
                    .unwrap();
                w.append(&[1u8; 100]).unwrap();
                w.sync().unwrap();
            }
            drop(chains);
            let queues = [env.queue_snapshot(0), env.queue_snapshot(1)];
            (
                env.io_stats().delta(&before),
                queues.map(|q| (q.submitted, q.busy_ns)),
            )
        };
        let (serial_io, serial_q) = run(false);
        let (chained_io, chained_q) = run(true);
        assert_eq!(chained_io, serial_io);
        assert_eq!((chained_io.read_ops, chained_io.syncs), (12, 4));
        assert_eq!(chained_q, serial_q);
    }

    #[test]
    fn power_failure_applies_through_sim_env() {
        let env = SimEnv::with_profile(DeviceProfile::instant());
        let mut w = env.new_writable(Path::new("wal.log")).unwrap();
        w.append(b"synced").unwrap();
        w.sync().unwrap();
        w.append(b"lost").unwrap();
        env.fs().power_failure();
        assert_eq!(env.file_size(Path::new("wal.log")).unwrap(), 6);
    }
}

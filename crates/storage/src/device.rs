//! Simulated block-device timing model.
//!
//! The model is deliberately simple — the goal is to reproduce the *shape*
//! of the paper's device hierarchy, not cycle accuracy:
//!
//! * every IO pays a per-operation base latency (software + device command
//!   overhead),
//! * plus `bytes / bandwidth` transfer time,
//! * plus a seek penalty on HDDs whenever the access is not sequential with
//!   respect to the previous IO,
//! * while each **submission queue** services at most `queue_depth` IOs
//!   worth of work concurrently (internal parallelism: 1 for HDD, 2 for
//!   SATA, 8 for the Optane NVMe — split across `queues` queues),
//! * and `sync` pays an additional durability-barrier latency.
//!
//! # Multi-queue contention
//!
//! The device exposes `queues` independent submission queues, each with its
//! own virtual timeline. An IO contends only with IOs on *its* queue: a
//! compaction writing on queue 3 never delays a WAL append on queue 0, even
//! though both share the profile's aggregate service capacity
//! (`queues × queue_depth` ≈ `channels`). This is the mechanism p2KVS
//! exploits — placement decides contention, not a global device clock.
//! Single-queue profiles (the default for every stock constructor) collapse
//! to the old behavior exactly: one timeline, capacity = `channels`.
//!
//! # Waiting without spinning
//!
//! Service time is enforced with a **virtual device timeline** plus
//! **debt-batched sleeping**: each IO reserves capacity on its queue's
//! atomic "free at" clock, and the caller's wait is accumulated in a
//! thread-local debt that is slept off in OS-timer-sized chunks. This keeps
//! average throughput faithful to the model while (a) never busy-spinning —
//! essential on small CI machines where spinning starves every other
//! thread — and (b) letting concurrent waits from different threads overlap
//! in wall time.
//!
//! # Plugged submission
//!
//! A caller about to issue several *independent* reads holds an
//! [`IoPlug`] across them (the block layer's plug/unplug): each read still
//! reserves its queue's timeline exactly as above — same occupancy, same
//! accounting — but its completion time is recorded instead of charged,
//! and dropping the outermost guard charges the thread once for the latest
//! completion. One thread thereby reaches the queue depth that would
//! otherwise take one blocked thread per outstanding read. Data returned
//! by a plugged read is only "on the host" once the guard is dropped:
//! reads that depend on it belong after the unplug.
//!
//! # Overlapped chains
//!
//! A caller about to run several *independent sequences* of I/O — a
//! worker executing one engine call per shard of a drained batch — holds
//! an [`IoChains`] run across them and starts a new chain before each
//! sequence. Every op is still reserved on its queue exactly as above, and
//! within a chain waits add up as they do without the run (an inner
//! [`IoPlug`] overlaps only its own reads), but a chain's waits are owed
//! by the chain, not slept: the run charges the thread once, for the chain
//! that ends last. This is the schedule of a thread that submits every
//! sequence's I/O before it waits (an io_uring / libaio loop).
//!
//! Profiles are calibrated to the paper's testbed (§5.1): HDD ≈ 0.2 GB/s
//! and ~8 ms seeks; SATA SSD ≈ 0.5 GB/s; Optane 905p ≈ 2.2 GB/s write /
//! 2.6 GB/s read with ~10 µs access latency.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use p2kvs_util::sync::Mutex;

use crate::ioqueue::{QueueId, MAX_QUEUES};

/// Static description of a device's performance characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name used in benchmark output.
    pub name: &'static str,
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: u64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: u64,
    /// Per-IO base latency for reads.
    pub read_latency: Duration,
    /// Per-IO base latency for writes.
    pub write_latency: Duration,
    /// Additional latency of a durability barrier (fsync).
    pub sync_latency: Duration,
    /// Seek penalty charged on non-sequential access (0 for SSDs).
    pub seek_latency: Duration,
    /// Number of IOs the device services concurrently (aggregate internal
    /// parallelism, split across submission queues).
    pub channels: usize,
    /// Buffered bytes after which an appending file issues a writeback IO.
    pub writeback_threshold: usize,
    /// Number of independent submission queues (1..=[`MAX_QUEUES`]).
    pub queues: usize,
    /// IOs one queue services concurrently. Aggregate capacity is
    /// `queues × queue_depth`; stock profiles keep it equal to `channels`.
    pub queue_depth: usize,
}

impl DeviceProfile {
    /// 10 TB 7200 rpm SATA HDD (WDC WD100EFAX class).
    pub fn hdd() -> Self {
        DeviceProfile {
            name: "hdd",
            read_bw: 200 * 1024 * 1024,
            write_bw: 180 * 1024 * 1024,
            read_latency: Duration::from_micros(60),
            write_latency: Duration::from_micros(60),
            sync_latency: Duration::from_millis(4),
            seek_latency: Duration::from_millis(8),
            channels: 1,
            writeback_threshold: 512 * 1024,
            queues: 1,
            queue_depth: 1,
        }
    }

    /// SATA SSD (Samsung 860 PRO class).
    pub fn sata_ssd() -> Self {
        DeviceProfile {
            name: "sata-ssd",
            read_bw: 550 * 1024 * 1024,
            write_bw: 500 * 1024 * 1024,
            read_latency: Duration::from_micros(70),
            write_latency: Duration::from_micros(25),
            sync_latency: Duration::from_micros(400),
            seek_latency: Duration::ZERO,
            channels: 2,
            writeback_threshold: 256 * 1024,
            queues: 1,
            queue_depth: 2,
        }
    }

    /// NVMe Optane SSD (Intel Optane 905p class).
    pub fn nvme_optane() -> Self {
        DeviceProfile {
            name: "nvme-optane",
            read_bw: 2600 * 1024 * 1024,
            write_bw: 2200 * 1024 * 1024,
            read_latency: Duration::from_micros(8),
            write_latency: Duration::from_micros(6),
            sync_latency: Duration::from_micros(12),
            seek_latency: Duration::ZERO,
            channels: 8,
            writeback_threshold: 64 * 1024,
            queues: 1,
            queue_depth: 8,
        }
    }

    /// A zero-cost device for correctness tests.
    pub fn instant() -> Self {
        DeviceProfile {
            name: "instant",
            read_bw: u64::MAX,
            write_bw: u64::MAX,
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            sync_latency: Duration::ZERO,
            seek_latency: Duration::ZERO,
            channels: usize::MAX,
            writeback_threshold: 64 * 1024,
            queues: 1,
            queue_depth: usize::MAX,
        }
    }

    /// Splits the profile's aggregate parallelism across `n` submission
    /// queues. Per-queue depth is `channels / n` (min 1), so total service
    /// capacity stays ≈ `channels` — the win from more queues is isolation
    /// (per-queue timelines), not free bandwidth.
    pub fn with_queues(mut self, n: usize) -> Self {
        let n = n.clamp(1, MAX_QUEUES);
        self.queues = n;
        self.queue_depth = if self.channels == usize::MAX {
            usize::MAX
        } else {
            (self.channels / n).max(1)
        };
        self
    }

    /// Aggregate service capacity: `queues × queue_depth` IOs at once.
    pub fn aggregate_depth(&self) -> usize {
        if self.queue_depth == usize::MAX {
            usize::MAX
        } else {
            self.queues.clamp(1, MAX_QUEUES) * self.queue_depth.max(1)
        }
    }

    /// Transfer time of `bytes` at `bw` bytes/second.
    fn transfer(bytes: u64, bw: u64) -> Duration {
        if bw == u64::MAX || bw == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(bytes.saturating_mul(1_000_000_000) / bw)
        }
    }
}

/// Identifies the position of the previous IO so HDD seeks can be modeled.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
struct HeadPos {
    file: u64,
    offset: u64,
}

thread_local! {
    /// Signed per-thread sleep debt in nanoseconds. Positive = owed wait;
    /// negative = credit from oversleeping (OS timers overshoot).
    static SLEEP_DEBT: Cell<i64> = const { Cell::new(0) };
    /// Live [`IoPlug`] guards on this thread.
    static PLUG_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Latest completion among the reads submitted under the current plug.
    static PLUG_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
    /// Wait owed by the current chain of an [`IoChains`] run, ns; `None`
    /// when no run is open on this thread.
    static CHAIN_LAG: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A thread-scoped submission batch. While one is held, [`DeviceModel::read`]
/// on this thread submits without waiting; dropping the outermost guard
/// waits once, for the read that completes last (under an [`IoChains`]
/// run, that wait goes to the current chain). Guards nest (an inner
/// guard neither waits nor resets the batch) and are ambient like
/// [`crate::QueueScope`]: code between the caller and the device needs no
/// plumbing. Environments without a device model ignore it.
///
/// Nothing derived from a plugged read may leave the caller before the
/// guard is dropped, or the wait it models would be skipped.
pub struct IoPlug {
    /// Tied to the thread whose batch it opened.
    _thread: PhantomData<*const ()>,
}

impl IoPlug {
    /// Opens (or joins) the calling thread's submission batch.
    pub fn enter() -> IoPlug {
        PLUG_DEPTH.with(|d| d.set(d.get() + 1));
        IoPlug {
            _thread: PhantomData,
        }
    }
}

impl Drop for IoPlug {
    fn drop(&mut self) {
        let depth = PLUG_DEPTH.with(|d| {
            d.set(d.get() - 1);
            d.get()
        });
        if depth > 0 {
            return;
        }
        if let Some(deadline) = PLUG_DEADLINE.with(Cell::take) {
            let wait = deadline.saturating_duration_since(Instant::now());
            DeviceModel::owe(wait.as_nanos() as u64);
        }
    }
}

/// A thread-scoped run of independent I/O chains. While one is held, the
/// wait of every device op on this thread — and of every outermost
/// [`IoPlug`] dropped — is added to the current chain's lag instead of the
/// thread's sleep debt; the ops themselves are reserved on their queues
/// exactly as without the run. [`IoChains::next_chain`] closes the current
/// chain as ending at `now + lag`; [`IoChains::finish`] (or the drop)
/// charges the thread once, for the chain that ends last. Runs do not nest.
/// Environments without a device model ignore it.
///
/// A chain must not act on another chain's results: each is one
/// dependent sequence whose data is "on the host" only at its own end.
///
/// Without a run, a wait of 200 µs or more is slept before the
/// op returns; under one, every wait — syncs and seeks included — is
/// deferred to the run's end. Whatever a chain's caller does between an
/// op and the run's end (a worker sends its replies) can therefore lead
/// the op's modelled completion by up to the longest chain's lag: tens of
/// µs on the NVMe profile, one sync or seek latency or more (400 µs to
/// 8 ms) on the SATA and HDD profiles.
pub struct IoChains {
    /// Latest end among the closed chains.
    end: Option<Instant>,
    /// Sum of the closed chains' lags, ns.
    lag_ns: u64,
    /// Tied to the thread whose run it opened.
    _thread: PhantomData<*const ()>,
}

/// What closing an [`IoChains`] run charged its thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainsCharge {
    /// The one wait charged: latest chain end − now, ns.
    pub charged_ns: u64,
    /// Device wait the overlap saved: the chains' summed lags − `charged_ns`.
    pub saved_ns: u64,
}

impl IoChains {
    /// Opens a run on the calling thread; its first chain starts now.
    pub fn enter() -> IoChains {
        let outer = CHAIN_LAG.with(|l| l.replace(Some(0)));
        debug_assert!(outer.is_none(), "IoChains runs do not nest");
        IoChains {
            end: None,
            lag_ns: 0,
            _thread: PhantomData,
        }
    }

    /// Closes the current chain and starts the next one.
    pub fn next_chain(&mut self) {
        let lag = CHAIN_LAG.with(|l| l.replace(Some(0))).unwrap_or(0);
        if lag > 0 {
            self.close(lag, Instant::now());
        }
    }

    /// Closes the run: charges the thread once, for the latest chain end.
    pub fn finish(mut self) -> ChainsCharge {
        self.settle()
    }

    /// Folds a chain that owed `lag` ns, closed at `now`, into the run.
    fn close(&mut self, lag: u64, now: Instant) {
        let end = now + Duration::from_nanos(lag);
        self.end = Some(self.end.map_or(end, |e| e.max(end)));
        self.lag_ns += lag;
    }

    fn settle(&mut self) -> ChainsCharge {
        // `None` once settled: a drop after `finish` charges nothing.
        let lag = CHAIN_LAG.with(Cell::take).unwrap_or(0);
        if lag == 0 && self.end.is_none() {
            return ChainsCharge::default();
        }
        let now = Instant::now();
        if lag > 0 {
            self.close(lag, now);
        }
        let charged = self
            .end
            .take()
            .map_or(0, |e| e.saturating_duration_since(now).as_nanos() as u64);
        DeviceModel::charge_wait(charged as i64);
        ChainsCharge {
            charged_ns: charged,
            saved_ns: self.lag_ns.saturating_sub(charged),
        }
    }
}

impl Drop for IoChains {
    fn drop(&mut self) {
        self.settle();
    }
}

/// Debt is slept off once it exceeds this (≈ 3–4 OS timer grains).
const DEBT_SLEEP_NS: i64 = 200_000;
/// Credit is capped so one long oversleep cannot hide a burst of IO.
const DEBT_CREDIT_CAP_NS: i64 = -2_000_000;

/// Per-queue timing state: an independent virtual timeline plus in-flight
/// accounting for introspection.
struct QueueState {
    /// Virtual "queue free at" clock, ns since the model's epoch.
    free_at: AtomicU64,
    /// Total IOs ever submitted to this queue.
    submitted: AtomicU64,
    /// Total service time charged on this queue, ns (unscaled model time).
    busy_ns: AtomicU64,
}

impl QueueState {
    fn new() -> Self {
        QueueState {
            free_at: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }
}

/// A point-in-time view of one submission queue, for metrics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepthSnapshot {
    /// Total IOs ever submitted to the queue.
    pub submitted: u64,
    /// Total model service time charged on the queue, nanoseconds.
    pub busy_ns: u64,
    /// Virtual backlog: how long a new IO submitted now would wait before
    /// the queue starts servicing it, nanoseconds. 0 when idle.
    pub backlog_ns: u64,
}

/// The runtime timing engine for one simulated device.
pub struct DeviceModel {
    profile: DeviceProfile,
    scale: f64,
    /// One independent timeline per submission queue.
    queues: Vec<QueueState>,
    epoch: Instant,
    head: Mutex<HeadPos>,
}

impl DeviceModel {
    /// Builds a model from a profile. The `P2KVS_SIM_TIME_SCALE` environment
    /// variable (a float, default 1.0) scales every charged latency, letting
    /// the benchmark harness trade fidelity for wall-clock time.
    pub fn from_profile(profile: DeviceProfile) -> Self {
        let scale = std::env::var("P2KVS_SIM_TIME_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(1.0)
            .clamp(0.0, 100.0);
        let n = profile.queues.clamp(1, MAX_QUEUES);
        DeviceModel {
            profile,
            scale,
            queues: (0..n).map(|_| QueueState::new()).collect(),
            epoch: Instant::now(),
            head: Mutex::new(HeadPos::default()),
        }
    }

    /// The profile this model was built from.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Number of submission queues this device models.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// In-flight/backlog accounting for queue `q` (clamped into range).
    pub fn queue_snapshot(&self, q: QueueId) -> QueueDepthSnapshot {
        let qs = &self.queues[q % self.queues.len()];
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        QueueDepthSnapshot {
            submitted: qs.submitted.load(Ordering::Relaxed),
            busy_ns: qs.busy_ns.load(Ordering::Relaxed),
            backlog_ns: qs.free_at.load(Ordering::Relaxed).saturating_sub(now_ns),
        }
    }

    fn scaled(&self, d: Duration) -> Duration {
        if self.scale == 1.0 {
            d
        } else {
            d.mul_f64(self.scale)
        }
    }

    /// Reserves `service` worth of work on queue `queue`. Contention is
    /// per-queue: only IOs on the same queue push this one's start time
    /// out. Returns `(now, completion)` in ns since the model's epoch, or
    /// `None` when the service time is zero.
    fn reserve(&self, queue: QueueId, service: Duration) -> Option<(u64, u64)> {
        let qs = &self.queues[queue % self.queues.len()];
        qs.submitted.fetch_add(1, Ordering::Relaxed);
        let svc = self.scaled(service);
        if svc.is_zero() {
            return None;
        }
        qs.busy_ns
            .fetch_add(service.as_nanos() as u64, Ordering::Relaxed);
        // Capacity consumed on this queue's timeline: the queue works on up
        // to `queue_depth` IOs at once.
        let depth = self.profile.queue_depth.clamp(1, 64) as u32;
        let occupancy_ns = (svc.as_nanos() as u64 / u64::from(depth)).max(1);
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        // start = max(now, free_at); free_at' = start + occupancy.
        let mut start;
        let mut cur = qs.free_at.load(Ordering::Relaxed);
        loop {
            start = cur.max(now_ns);
            match qs.free_at.compare_exchange_weak(
                cur,
                start + occupancy_ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        // The IO completes at start + svc.
        Some((now_ns, start + svc.as_nanos() as u64))
    }

    /// Reserves `service` on `queue` and charges the caller the resulting
    /// wait. Returns the model service time (for busy accounting).
    fn occupy(&self, queue: QueueId, service: Duration) -> Duration {
        if let Some((now_ns, completes)) = self.reserve(queue, service) {
            Self::owe(completes.saturating_sub(now_ns));
        }
        service
    }

    /// Charges a wait of `wait_ns`: to the current chain under an
    /// [`IoChains`] run, else to the thread's sleep debt.
    fn owe(wait_ns: u64) {
        let chained = CHAIN_LAG.with(|l| l.get().map(|lag| l.set(Some(lag + wait_ns))));
        if chained.is_none() {
            Self::charge_wait(wait_ns as i64);
        }
    }

    /// Adds `wait_ns` to the caller's sleep debt, sleeping it off in
    /// OS-timer-sized chunks with oversleep compensation.
    fn charge_wait(wait_ns: i64) {
        SLEEP_DEBT.with(|debt| {
            let mut d = debt.get() + wait_ns;
            if d >= DEBT_SLEEP_NS {
                let t0 = Instant::now();
                std::thread::sleep(Duration::from_nanos(d as u64));
                d -= t0.elapsed().as_nanos() as i64;
                if d < DEBT_CREDIT_CAP_NS {
                    d = DEBT_CREDIT_CAP_NS;
                }
            }
            debt.set(d);
        });
    }

    /// Test hook: the calling thread's current sleep debt in nanoseconds.
    pub fn thread_debt_ns() -> i64 {
        SLEEP_DEBT.with(|d| d.get())
    }

    /// Seek penalty for accessing (`file`, `offset`), updating the head to
    /// the end of the access. The head is physical and device-global — a
    /// seeking device (HDD) has one arm no matter how many queues feed it.
    fn seek_cost(&self, file: u64, offset: u64, len: u64) -> Duration {
        if self.profile.seek_latency.is_zero() {
            return Duration::ZERO;
        }
        let mut head = self.head.lock();
        let sequential = head.file == file && head.offset == offset;
        *head = HeadPos {
            file,
            offset: offset + len,
        };
        if sequential {
            Duration::ZERO
        } else {
            self.profile.seek_latency
        }
    }

    /// Charges a write of `bytes` at (`file`, `offset`) on `queue`; returns
    /// model time.
    pub fn write(&self, file: u64, offset: u64, bytes: u64, queue: QueueId) -> Duration {
        let svc = self.profile.write_latency
            + DeviceProfile::transfer(bytes, self.profile.write_bw)
            + self.seek_cost(file, offset, bytes);
        self.occupy(queue, svc)
    }

    /// Charges a read of `bytes` at (`file`, `offset`) on `queue`; returns
    /// model time. Under an [`IoPlug`] the wait is deferred to the unplug.
    pub fn read(&self, file: u64, offset: u64, bytes: u64, queue: QueueId) -> Duration {
        let svc = self.profile.read_latency
            + DeviceProfile::transfer(bytes, self.profile.read_bw)
            + self.seek_cost(file, offset, bytes);
        if PLUG_DEPTH.with(Cell::get) == 0 {
            return self.occupy(queue, svc);
        }
        if let Some((_, completes)) = self.reserve(queue, svc) {
            let done = self.epoch + Duration::from_nanos(completes);
            PLUG_DEADLINE.with(|d| d.set(Some(d.get().map_or(done, |cur| cur.max(done)))));
        }
        svc
    }

    /// Charges a durability barrier on `queue`; returns model time.
    pub fn sync(&self, queue: QueueId) -> Duration {
        self.occupy(queue, self.profile.sync_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_scale(profile: DeviceProfile) -> DeviceModel {
        let mut m = DeviceModel::from_profile(profile);
        m.scale = 1.0;
        m
    }

    /// Runs `f` on a fresh thread so per-thread debt starts at zero and is
    /// fully settled (slept) before measuring.
    fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(move || {
            let out = f();
            // Settle remaining debt so wall-time assertions see it.
            DeviceModel::charge_wait(DEBT_SLEEP_NS);
            out
        })
        .join()
        .unwrap()
    }

    #[test]
    fn transfer_time_math() {
        let d = DeviceProfile::transfer(1024 * 1024, 1024 * 1024 * 1024);
        // 1 MiB over 1 GiB/s ≈ 1 ms.
        assert!(d >= Duration::from_micros(900) && d <= Duration::from_micros(1100));
        assert_eq!(DeviceProfile::transfer(123, u64::MAX), Duration::ZERO);
    }

    #[test]
    fn instant_device_is_free() {
        let m = no_scale(DeviceProfile::instant());
        let start = Instant::now();
        for i in 0..10_000 {
            m.write(1, i * 100, 100, 0);
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn hdd_charges_seeks_on_random_access() {
        let (seq, rnd) = on_fresh_thread(|| {
            let m = no_scale(DeviceProfile::hdd());
            let t0 = Instant::now();
            for i in 0..4 {
                m.write(7, i * 128, 128, 0);
            }
            DeviceModel::charge_wait(DEBT_SLEEP_NS); // settle
            let seq = t0.elapsed();
            let t0 = Instant::now();
            for i in 0..4u64 {
                m.write(i % 2, i * 99_991, 128, 0);
            }
            DeviceModel::charge_wait(DEBT_SLEEP_NS);
            (seq, t0.elapsed())
        });
        assert!(rnd > seq, "random {rnd:?} should exceed sequential {seq:?}");
        assert!(
            rnd >= Duration::from_millis(25),
            "4 seeks ≈ 32ms, got {rnd:?}"
        );
    }

    #[test]
    fn nvme_small_reads_are_cheap() {
        let wall = on_fresh_thread(|| {
            let m = no_scale(DeviceProfile::nvme_optane());
            let t0 = Instant::now();
            for i in 0..100u64 {
                m.read(3, i * 4096, 4096, 0);
            }
            DeviceModel::charge_wait(DEBT_SLEEP_NS);
            t0.elapsed()
        });
        // 100 × ~9.5µs of device time, debt-batched: ~1ms total.
        assert!(wall >= Duration::from_micros(600), "{wall:?}");
        assert!(wall < Duration::from_millis(50), "{wall:?}");
    }

    #[test]
    fn single_channel_serializes_concurrent_ios() {
        // One channel: 8 concurrent 5ms IOs take ≈ 40ms wall time.
        let mut profile = DeviceProfile::hdd();
        profile.write_latency = Duration::from_millis(5);
        profile.write_bw = u64::MAX;
        profile.seek_latency = Duration::ZERO;
        let m = std::sync::Arc::new(no_scale(profile));
        let start = Instant::now();
        let hs: Vec<_> = (0..8)
            .map(|i| {
                let m = m.clone();
                std::thread::spawn(move || {
                    m.write(i, 0, 64, 0);
                    DeviceModel::charge_wait(DEBT_SLEEP_NS);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert!(
            start.elapsed() >= Duration::from_millis(35),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn multiple_channels_overlap() {
        let mut profile = DeviceProfile::nvme_optane();
        profile.write_latency = Duration::from_millis(5);
        profile.write_bw = u64::MAX;
        let m = std::sync::Arc::new(no_scale(profile));
        let start = Instant::now();
        let hs: Vec<_> = (0..8)
            .map(|i| {
                let m = m.clone();
                std::thread::spawn(move || {
                    m.write(i, 0, 64, 0);
                    DeviceModel::charge_wait(DEBT_SLEEP_NS);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        // 8 IOs over 8 channels ≈ 5–10 ms, far less than serialized 40 ms.
        assert!(
            start.elapsed() < Duration::from_millis(30),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn queues_have_independent_timelines() {
        // Depth-1 queues: 4 IOs of 5ms each on ONE queue serialize (≈20ms);
        // the same 4 IOs spread across 4 queues overlap (≈5ms). Aggregate
        // capacity is identical — isolation is what changes.
        let mut profile = DeviceProfile::nvme_optane();
        profile.write_latency = Duration::from_millis(5);
        profile.write_bw = u64::MAX;
        profile.channels = 4;
        let run = |spread: bool| {
            let m = std::sync::Arc::new(no_scale(profile.with_queues(4)));
            assert_eq!(m.queue_count(), 4);
            assert_eq!(m.profile().queue_depth, 1);
            let start = Instant::now();
            let hs: Vec<_> = (0..4usize)
                .map(|i| {
                    let m = m.clone();
                    std::thread::spawn(move || {
                        m.write(i as u64, 0, 64, if spread { i } else { 0 });
                        DeviceModel::charge_wait(DEBT_SLEEP_NS);
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            start.elapsed()
        };
        let same_queue = run(false);
        let spread = run(true);
        assert!(same_queue >= Duration::from_millis(15), "{same_queue:?}");
        assert!(spread < Duration::from_millis(15), "{spread:?}");
    }

    #[test]
    fn queue_accounting_tracks_submissions_and_backlog() {
        let mut profile = DeviceProfile::sata_ssd();
        profile.write_latency = Duration::from_millis(2);
        profile.write_bw = u64::MAX;
        let m = no_scale(profile.with_queues(2));
        m.write(1, 0, 64, 0);
        m.write(1, 64, 64, 0);
        m.write(2, 0, 64, 1);
        let q0 = m.queue_snapshot(0);
        let q1 = m.queue_snapshot(1);
        assert_eq!(q0.submitted, 2);
        assert_eq!(q1.submitted, 1);
        assert!(q0.busy_ns >= 4_000_000, "{q0:?}");
        assert!(q1.busy_ns >= 2_000_000, "{q1:?}");
        // The issuing thread sleeps off each IO's wait before returning,
        // so its own backlog is already drained; it can never exceed the
        // service time charged on the queue.
        assert!(q0.backlog_ns <= q0.busy_ns, "{q0:?}");
        // Settle the debt this thread accumulated.
        DeviceModel::charge_wait(DEBT_SLEEP_NS);
    }

    #[test]
    fn plugged_reads_charge_the_latest_completion_once() {
        // 4 KiB on the Optane profile: 9.5 µs of service, 1.19 µs of
        // occupancy on the depth-8 queue.
        const N: u64 = 8;
        const SVC_NS: i64 = 9_502;
        const OCCUPANCY_NS: i64 = SVC_NS / 8;
        let run = |plugged: bool| {
            std::thread::spawn(move || {
                let m = no_scale(DeviceProfile::nvme_optane());
                {
                    let _plug = plugged.then(IoPlug::enter);
                    for i in 0..N {
                        m.read(3, i * 4096, 4096, 0);
                    }
                    if plugged {
                        assert_eq!(
                            DeviceModel::thread_debt_ns(),
                            0,
                            "charged before the unplug"
                        );
                    }
                }
                (DeviceModel::thread_debt_ns(), m.queue_snapshot(0))
            })
            .join()
            .unwrap()
        };
        let (serial_debt, serial_q) = run(false);
        let (plugged_debt, plugged_q) = run(true);
        // Unplugged, every read owes at least its own service time.
        assert!(serial_debt >= N as i64 * SVC_NS, "{serial_debt}");
        // Plugged, the thread owes what is left of the last completion:
        // at most the queue's backlog plus one service time.
        assert!(
            plugged_debt <= SVC_NS + (N as i64 - 1) * OCCUPANCY_NS,
            "{plugged_debt}"
        );
        // The device saw the same submissions either way.
        assert_eq!(plugged_q.submitted, serial_q.submitted);
        assert_eq!(plugged_q.busy_ns, serial_q.busy_ns);
    }

    #[test]
    fn nested_plugs_wait_once_at_the_outermost_drop() {
        let mut profile = DeviceProfile::nvme_optane();
        profile.read_latency = Duration::from_millis(5);
        profile.read_bw = u64::MAX;
        std::thread::spawn(move || {
            let m = no_scale(profile);
            let t0 = Instant::now();
            let outer = IoPlug::enter();
            m.read(1, 0, 64, 0);
            {
                let _inner = IoPlug::enter();
                m.read(1, 64, 64, 0);
                m.read(1, 128, 64, 0);
            }
            assert_eq!(DeviceModel::thread_debt_ns(), 0, "inner drop must not wait");
            drop(outer);
            // 15 ms of service overlapped on the depth-8 queue: one wait
            // of about one service time, slept off at the unplug.
            assert!(
                t0.elapsed() >= Duration::from_micros(4_500),
                "{:?}",
                t0.elapsed()
            );
            assert!(DeviceModel::thread_debt_ns() < DEBT_SLEEP_NS);
            // The batch is closed: the next read is charged on the spot.
            m.read(1, 192, 64, 0);
            assert!(
                t0.elapsed() >= Duration::from_micros(9_500),
                "{:?}",
                t0.elapsed()
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn plug_is_a_noop_on_the_instant_device() {
        std::thread::spawn(|| {
            let m = no_scale(DeviceProfile::instant());
            {
                let _plug = IoPlug::enter();
                for i in 0..100 {
                    m.read(1, i * 4096, 4096, 0);
                }
            }
            assert_eq!(DeviceModel::thread_debt_ns(), 0);
            assert_eq!(m.queue_snapshot(0).submitted, 100);
        })
        .join()
        .unwrap();
    }

    /// 4 KiB on the Optane profile: 9.5 µs of service, 1.19 µs of
    /// occupancy on the depth-8 queue.
    const READ_4K_NS: u64 = 9_502;
    const READ_4K_OCCUPANCY_NS: u64 = READ_4K_NS / 8;

    #[test]
    fn one_chain_is_never_charged_less_than_its_reads_in_sequence() {
        let run = |chained: bool| {
            std::thread::spawn(move || {
                let m = no_scale(DeviceProfile::nvme_optane());
                let chains = chained.then(IoChains::enter);
                for i in 0..4 {
                    m.read(3, i * 4096, 4096, 0);
                }
                if chained {
                    assert_eq!(DeviceModel::thread_debt_ns(), 0, "charged inside the run");
                }
                let charge = chains.map(IoChains::finish);
                (DeviceModel::thread_debt_ns() as u64, charge)
            })
            .join()
            .unwrap()
        };
        let (serial, _) = run(false);
        let (chained, charge) = run(true);
        let charge = charge.expect("the run was closed");
        assert_eq!(
            charge.charged_ns, chained,
            "charged once, below the sleep threshold"
        );
        assert_eq!(charge.saved_ns, 0, "one chain overlaps nothing");
        assert!(serial >= 4 * READ_4K_NS, "{serial}");
        assert!(chained >= 4 * READ_4K_NS, "{chained}");
        // Both owe the same four waits, up to how much of the queue's
        // backlog each read found: at most 0 + 1 + 2 + 3 occupancies.
        assert!(
            chained + 6 * READ_4K_OCCUPANCY_NS >= serial,
            "{chained} vs {serial}"
        );
    }

    #[test]
    fn one_read_chains_cost_one_latency_plus_occupancies() {
        const K: u64 = 8;
        let run = |chained: bool| {
            std::thread::spawn(move || {
                let m = no_scale(DeviceProfile::nvme_optane());
                let mut chains = chained.then(IoChains::enter);
                for i in 0..K {
                    if let Some(c) = chains.as_mut() {
                        c.next_chain();
                    }
                    m.read(3, i * 4096, 4096, 0);
                }
                let charge = chains.map(IoChains::finish);
                (
                    DeviceModel::thread_debt_ns() as u64,
                    charge,
                    m.queue_snapshot(0),
                )
            })
            .join()
            .unwrap()
        };
        let (serial, _, serial_q) = run(false);
        let (chained, charge, chained_q) = run(true);
        let charge = charge.expect("the run was closed");
        assert!(serial >= K * READ_4K_NS, "{serial}");
        assert_eq!(charge.charged_ns, chained);
        assert!(chained >= READ_4K_NS, "{chained}");
        assert!(
            chained <= READ_4K_NS + (K - 1) * READ_4K_OCCUPANCY_NS,
            "{chained}"
        );
        assert!(charge.saved_ns >= (K - 1) * READ_4K_NS - (K - 1) * READ_4K_OCCUPANCY_NS);
        assert_eq!(
            (chained_q.submitted, chained_q.busy_ns),
            (serial_q.submitted, serial_q.busy_ns)
        );
    }

    #[test]
    fn a_plug_inside_a_chain_advances_only_that_chain() {
        const SVC_NS: u64 = 1_000_000;
        // Slack for the clock reads between one op and the next.
        const SLACK_NS: u64 = 200_000;
        let mut profile = DeviceProfile::nvme_optane();
        profile.read_latency = Duration::from_nanos(SVC_NS);
        profile.read_bw = u64::MAX;
        profile.queue_depth = 64;
        // Chain 1: two plugged reads, then one that depends on them.
        // Chain 2: one independent read.
        let ops = |m: &DeviceModel, chains: &mut Option<IoChains>| {
            {
                let _plug = IoPlug::enter();
                m.read(1, 0, 64, 0);
                m.read(1, 64, 64, 0);
            }
            m.read(1, 128, 64, 0);
            if let Some(c) = chains.as_mut() {
                c.next_chain();
            }
            m.read(2, 0, 64, 0);
        };
        let serial = std::thread::spawn(move || {
            let m = no_scale(profile);
            let t0 = Instant::now();
            ops(&m, &mut None);
            // Slept plus still owed: at least every wait charged.
            t0.elapsed().as_nanos() as i64 + DeviceModel::thread_debt_ns()
        })
        .join()
        .unwrap();
        assert!(serial as u64 >= 3 * SVC_NS - SLACK_NS, "{serial}");
        let charge = std::thread::spawn(move || {
            let m = no_scale(profile);
            let mut chains = Some(IoChains::enter());
            ops(&m, &mut chains);
            assert_eq!(
                DeviceModel::thread_debt_ns(),
                0,
                "the unplug charged the thread"
            );
            chains.take().unwrap().finish()
        })
        .join()
        .unwrap();
        // The dependent read starts after the plug's deadline...
        assert!(charge.charged_ns >= 2 * SVC_NS - SLACK_NS, "{charge:?}");
        // ...and chain 2 overlaps chain 1 instead of following it.
        assert!(charge.charged_ns < 2 * SVC_NS + SVC_NS / 2, "{charge:?}");
        assert!(charge.saved_ns >= SVC_NS - SLACK_NS, "{charge:?}");
    }

    #[test]
    fn a_run_without_device_time_charges_nothing() {
        std::thread::spawn(|| {
            let idle = IoChains::enter();
            assert_eq!(idle.finish(), ChainsCharge::default());
            let m = no_scale(DeviceProfile::instant());
            for chained in [false, true] {
                let mut chains = chained.then(IoChains::enter);
                for i in 0..4 {
                    if let Some(c) = chains.as_mut() {
                        c.next_chain();
                    }
                    m.read(1, i * 4096, 4096, 0);
                    m.write(2, i * 64, 64, 0);
                    m.sync(0);
                }
                let charge = chains.map(IoChains::finish).unwrap_or_default();
                assert_eq!(charge, ChainsCharge::default());
                assert_eq!(DeviceModel::thread_debt_ns(), 0);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn dropping_a_run_charges_it_like_finishing_it() {
        std::thread::spawn(|| {
            let m = no_scale(DeviceProfile::nvme_optane());
            {
                let _chains = IoChains::enter();
                m.read(3, 0, 4096, 0);
                assert_eq!(DeviceModel::thread_debt_ns(), 0);
            }
            assert!(DeviceModel::thread_debt_ns() as u64 >= READ_4K_NS);
            // The run is closed: the next read is charged on the spot.
            let before = DeviceModel::thread_debt_ns();
            m.read(3, 4096, 4096, 0);
            assert!(DeviceModel::thread_debt_ns() > before);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn with_queues_preserves_aggregate_capacity() {
        let p = DeviceProfile::nvme_optane().with_queues(4);
        assert_eq!(p.queues, 4);
        assert_eq!(p.queue_depth, 2);
        assert_eq!(p.aggregate_depth(), 8);
        // Clamped to MAX_QUEUES, never zero depth.
        let p = DeviceProfile::hdd().with_queues(99);
        assert_eq!(p.queues, MAX_QUEUES);
        assert_eq!(p.queue_depth, 1);
        let p = DeviceProfile::instant().with_queues(4);
        assert_eq!(p.queue_depth, usize::MAX);
        assert_eq!(p.aggregate_depth(), usize::MAX);
    }

    #[test]
    fn bandwidth_caps_throughput() {
        // 100 MiB at 1 GiB/s aggregate must take ≥ ~90ms of wall time.
        let wall = on_fresh_thread(|| {
            let mut profile = DeviceProfile::nvme_optane();
            profile.write_bw = 1024 * 1024 * 1024;
            profile.write_latency = Duration::ZERO;
            profile.channels = 1;
            profile.queue_depth = 1;
            let m = no_scale(profile);
            let t0 = Instant::now();
            for i in 0..100u64 {
                m.write(1, i << 20, 1 << 20, 0);
            }
            DeviceModel::charge_wait(DEBT_SLEEP_NS);
            t0.elapsed()
        });
        assert!(wall >= Duration::from_millis(85), "{wall:?}");
    }

    #[test]
    fn debt_is_compensated_not_accumulated() {
        // Many small charges must not each pay the OS timer floor.
        let wall = on_fresh_thread(|| {
            let mut profile = DeviceProfile::nvme_optane();
            profile.write_latency = Duration::from_micros(5);
            profile.write_bw = u64::MAX;
            profile.channels = 1;
            profile.queue_depth = 1;
            let m = no_scale(profile);
            let t0 = Instant::now();
            for i in 0..1000u64 {
                m.write(1, i * 64, 64, 0);
            }
            DeviceModel::charge_wait(DEBT_SLEEP_NS);
            t0.elapsed()
        });
        // Model time = 5ms; naive per-IO sleeping would cost ≥ 60ms.
        assert!(wall >= Duration::from_millis(4), "{wall:?}");
        assert!(wall < Duration::from_millis(40), "{wall:?}");
    }
}

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
//! The model keeps timing state only. Every op returns its service time,
//! and the env records it once, with the op's queue and bytes, in
//! [`crate::IoStats`]: the one ledger of what the device did.
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
//! # Overlapped chains
//!
//! A caller about to run several *independent sequences* of I/O — a
//! worker executing one engine call per shard of a drained batch — holds
//! an [`IoChains`] run across them and starts a new chain before each
//! sequence. Every op is still reserved on its queue exactly as above, and
//! within a chain waits add up as they do without the run, but a chain's
//! waits are owed by the chain, not slept: the run charges the thread
//! once, for the chain that ends last. This is the schedule of a thread
//! that submits every sequence's I/O before it waits (an io_uring / libaio
//! loop). A run of one-read chains is the block layer's plug: one thread
//! reaches the queue depth that would otherwise take one blocked thread
//! per outstanding read. Runs nest: an inner run's one charge is owed by
//! the enclosing run's current chain, so it advances only that chain.
//!
//! Profiles are calibrated to the paper's testbed (§5.1): HDD ≈ 0.2 GB/s
//! and ~8 ms seeks; SATA SSD ≈ 0.5 GB/s; Optane 905p ≈ 2.2 GB/s write /
//! 2.6 GB/s read with ~10 µs access latency.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use p2kvs_util::sync::Mutex;
use p2kvs_util::timing;

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
    /// Wait owed by the current chain of the innermost [`IoChains`] run,
    /// ns; `None` when no run is open on this thread.
    static CHAIN_LAG: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A thread-scoped run of independent I/O chains. While one is held, the
/// wait of every device op on this thread is added to the current
/// chain's lag instead of the thread's sleep debt; the ops themselves are
/// reserved on their queues exactly as without the run.
/// [`IoChains::next_chain`] closes the current chain as ending at
/// `now + lag`; [`IoChains::finish`] (or the drop) owes one wait, for the
/// chain that ends last: to the enclosing run's current chain when runs
/// nest, else to the thread. Environments without a device model ignore
/// it.
///
/// A chain must not act on another chain's results: each is one
/// dependent sequence whose data is "on the host" only at its own end,
/// and nothing derived from any chain's I/O may leave the caller before
/// the run settles, or the wait it models would be skipped. An enclosing
/// run must start a new chain before an inner run that should overlap
/// the I/O ahead of it.
///
/// Without a run, a wait of 200 µs or more is slept before the
/// op returns; under one, every wait — syncs and seeks included — is
/// deferred to the run's end. Whatever a chain's caller does between an
/// op and the run's end (a worker sends its replies) can therefore lead
/// the op's modelled completion by up to the longest chain's lag: tens of
/// µs on the NVMe profile, one sync or seek latency or more (400 µs to
/// 8 ms) on the SATA and HDD profiles.
pub struct IoChains {
    /// The enclosing run's chain lag, saved at `enter` and restored when
    /// the run settles; `None` once settled, so a drop after
    /// [`IoChains::finish`] owes nothing.
    outer: Option<Option<u64>>,
    /// Latest end among the closed chains, ns on the clock's base.
    end: Option<u64>,
    /// Sum of the closed chains' lags, ns.
    lag_ns: u64,
    /// Tied to the thread whose run it opened.
    _thread: PhantomData<*const ()>,
}

/// What closing an [`IoChains`] run owed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainsCharge {
    /// The one wait owed: latest chain end − now, ns.
    pub charged_ns: u64,
    /// Device wait the overlap saved: the chains' summed lags − `charged_ns`.
    pub saved_ns: u64,
}

impl IoChains {
    /// Opens a run on the calling thread, inside the current chain of an
    /// enclosing run if there is one; its first chain starts now.
    pub fn enter() -> IoChains {
        IoChains {
            outer: Some(CHAIN_LAG.with(|l| l.replace(Some(0)))),
            end: None,
            lag_ns: 0,
            _thread: PhantomData,
        }
    }

    /// Closes the current chain and starts the next one.
    pub fn next_chain(&mut self) {
        let lag = CHAIN_LAG.with(|l| l.replace(Some(0))).unwrap_or(0);
        if lag > 0 {
            self.close(lag, timing::now_ns());
        }
    }

    /// Closes the run: owes one wait, for the latest chain end.
    pub fn finish(mut self) -> ChainsCharge {
        self.settle()
    }

    /// Folds a chain that owed `lag` ns, closed at `now` ns, into the run.
    fn close(&mut self, lag: u64, now: u64) {
        let end = now + lag;
        self.end = Some(self.end.map_or(end, |e| e.max(end)));
        self.lag_ns += lag;
    }

    fn settle(&mut self) -> ChainsCharge {
        let Some(outer) = self.outer.take() else {
            return ChainsCharge::default();
        };
        let lag = CHAIN_LAG.with(|l| l.replace(outer)).unwrap_or(0);
        if lag == 0 && self.end.is_none() {
            return ChainsCharge::default();
        }
        let now = timing::now_ns();
        if lag > 0 {
            self.close(lag, now);
        }
        let charged = self.end.take().map_or(0, |e| e.saturating_sub(now));
        DeviceModel::owe(charged);
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

/// The runtime timing engine for one simulated device. It keeps timing
/// state only — each queue's virtual clock and the HDD head; what the
/// device did is counted by the env's [`crate::IoStats`], from the
/// service times [`DeviceModel::read`], [`DeviceModel::write`] and
/// [`DeviceModel::sync`] return.
pub struct DeviceModel {
    profile: DeviceProfile,
    /// Per submission queue: its virtual "free at" clock, ns on the
    /// clock's base ([`timing::now_ns`]).
    free_at: Vec<AtomicU64>,
    head: Mutex<HeadPos>,
}

impl DeviceModel {
    /// Builds a model from a profile.
    pub fn from_profile(profile: DeviceProfile) -> Self {
        let n = profile.queues.clamp(1, MAX_QUEUES);
        DeviceModel {
            profile,
            free_at: (0..n).map(|_| AtomicU64::new(0)).collect(),
            head: Mutex::new(HeadPos::default()),
        }
    }

    /// The profile this model was built from.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Number of submission queues this device models.
    pub fn queue_count(&self) -> usize {
        self.free_at.len()
    }

    /// Reserves `service` worth of work on queue `queue`. Contention is
    /// per-queue: only IOs on the same queue push this one's start time
    /// out. Returns `(now, completion)` in ns on the clock's base, or
    /// `None` when the service time is zero.
    fn reserve(&self, queue: QueueId, service: Duration) -> Option<(u64, u64)> {
        if service.is_zero() {
            return None;
        }
        let free_at = &self.free_at[queue % self.free_at.len()];
        let svc_ns = service.as_nanos() as u64;
        // Capacity consumed on this queue's timeline: the queue works on up
        // to `queue_depth` IOs at once.
        let depth = self.profile.queue_depth.clamp(1, 64) as u64;
        let occupancy_ns = (svc_ns / depth).max(1);
        let now_ns = timing::now_ns();
        // start = max(now, free_at); free_at' = start + occupancy.
        let mut start;
        let mut cur = free_at.load(Ordering::Relaxed);
        loop {
            start = cur.max(now_ns);
            match free_at.compare_exchange_weak(
                cur,
                start + occupancy_ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        // The IO completes at start + service.
        Some((now_ns, start + svc_ns))
    }

    /// Reserves `service` on `queue` and charges the caller the resulting
    /// wait. Returns `service`, for the env to record.
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
                let t0 = timing::now();
                timing::sleep(Duration::from_nanos(d as u64));
                d -= timing::elapsed(t0).as_nanos() as i64;
                if d < DEBT_CREDIT_CAP_NS {
                    d = DEBT_CREDIT_CAP_NS;
                }
            }
            debt.set(d);
        });
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
    /// model time.
    pub fn read(&self, file: u64, offset: u64, bytes: u64, queue: QueueId) -> Duration {
        let svc = self.profile.read_latency
            + DeviceProfile::transfer(bytes, self.profile.read_bw)
            + self.seek_cost(file, offset, bytes);
        self.occupy(queue, svc)
    }

    /// Charges a durability barrier on `queue`; returns model time.
    pub fn sync(&self, queue: QueueId) -> Duration {
        self.occupy(queue, self.profile.sync_latency)
    }
}

#[cfg(test)]
impl DeviceModel {
    /// The calling thread's current sleep debt in nanoseconds.
    fn thread_debt_ns() -> i64 {
        SLEEP_DEBT.with(|d| d.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::time::Instant;

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
        let m = DeviceModel::from_profile(DeviceProfile::instant());
        let start = Instant::now();
        for i in 0..10_000 {
            m.write(1, i * 100, 100, 0);
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn hdd_charges_seeks_on_random_access() {
        let (seq, rnd) = on_fresh_thread(|| {
            let m = DeviceModel::from_profile(DeviceProfile::hdd());
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
            let m = DeviceModel::from_profile(DeviceProfile::nvme_optane());
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
        let m = std::sync::Arc::new(DeviceModel::from_profile(profile));
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
        let m = std::sync::Arc::new(DeviceModel::from_profile(profile));
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
            let m = std::sync::Arc::new(DeviceModel::from_profile(profile.with_queues(4)));
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
    fn ops_return_their_service_time_not_their_wait() {
        let mut profile = DeviceProfile::sata_ssd();
        profile.write_latency = Duration::from_millis(2);
        profile.write_bw = u64::MAX;
        let m = DeviceModel::from_profile(profile.with_queues(2));
        // The second write on queue 0 queues behind the first; what it
        // returns is still its own service time, which the env records.
        let q0 = m.write(1, 0, 64, 0) + m.write(1, 64, 64, 0);
        let q1 = m.write(2, 0, 64, 1) + m.sync(1);
        assert_eq!(q0, Duration::from_millis(4));
        assert_eq!(q1, Duration::from_millis(2) + profile.sync_latency);
        // Settle the debt this thread accumulated.
        DeviceModel::charge_wait(DEBT_SLEEP_NS);
    }

    #[test]
    fn plugged_reads_charge_the_latest_completion_once() {
        // A run of one-read chains is a plug: on the manual clock it owes
        // exactly the latest completion − its start, once, at its end.
        const N: u64 = 8;
        let run = |plugged: bool| {
            std::thread::spawn(move || {
                let m = DeviceModel::from_profile(DeviceProfile::nvme_optane());
                let _clock = timing::Manual::start();
                let mut plug = plugged.then(IoChains::enter);
                let mut service = Duration::ZERO;
                for i in 0..N {
                    if let Some(p) = plug.as_mut() {
                        p.next_chain();
                    }
                    service += m.read(3, i * 4096, 4096, 0);
                }
                if plugged {
                    assert_eq!(DeviceModel::thread_debt_ns(), 0, "charged inside the run");
                }
                let charge = plug.map(IoChains::finish);
                (DeviceModel::thread_debt_ns() as u64, charge, service)
            })
            .join()
            .unwrap()
        };
        let (serial_debt, _, serial_svc) = run(false);
        let (plugged_debt, charge, plugged_svc) = run(true);
        // Read i starts i occupancies after the first, on the depth-8
        // queue. Unplugged, each owes its backlog and its service in turn.
        assert_eq!(serial_debt, N * READ_4K_NS + 28 * READ_4K_OCCUPANCY_NS);
        // Plugged, the thread owes the last completion, once.
        let latest = READ_4K_NS + (N - 1) * READ_4K_OCCUPANCY_NS;
        assert_eq!(plugged_debt, latest);
        let charge = charge.expect("the run was closed");
        assert_eq!(charge.charged_ns, latest);
        assert_eq!(charge.saved_ns, serial_debt - latest);
        // The device did the same work either way.
        assert_eq!(plugged_svc, serial_svc);
        assert_eq!(plugged_svc, Duration::from_nanos(N * READ_4K_NS));
    }

    #[test]
    fn nested_plugs_wait_once_at_the_outermost_drop() {
        // A run holding a nested run of one-read chains, with no run
        // around it, charges the thread once: when it settles.
        const SVC_NS: u64 = 5_000_000;
        const OCCUPANCY_NS: u64 = SVC_NS / 8;
        let mut profile = DeviceProfile::nvme_optane();
        profile.read_latency = Duration::from_nanos(SVC_NS);
        profile.read_bw = u64::MAX;
        std::thread::spawn(move || {
            let m = DeviceModel::from_profile(profile);
            let _clock = timing::Manual::start();
            let t0 = timing::now();
            let mut outer = IoChains::enter();
            m.read(1, 0, 64, 0);
            // A new chain, so that the inner run overlaps the read above.
            outer.next_chain();
            let mut inner = IoChains::enter();
            for offset in [64, 128] {
                inner.next_chain();
                m.read(1, offset, 64, 0);
            }
            let inner = inner.finish();
            assert_eq!(inner.charged_ns, SVC_NS + 2 * OCCUPANCY_NS);
            assert_eq!(DeviceModel::thread_debt_ns(), 0, "inner runs must not wait");
            assert_eq!(timing::elapsed(t0), Duration::ZERO);
            // The inner run's charge is the outer run's second chain: the
            // one that ends last, slept off once.
            let outer = outer.finish();
            assert_eq!(outer.charged_ns, inner.charged_ns);
            assert_eq!(outer.saved_ns, SVC_NS);
            assert_eq!(timing::elapsed(t0).as_nanos() as u64, inner.charged_ns);
            assert_eq!(DeviceModel::thread_debt_ns(), 0);
            // Both runs are closed: the next read is charged on the spot.
            m.read(1, 192, 64, 0);
            assert_eq!(
                timing::elapsed(t0).as_nanos() as u64,
                inner.charged_ns + SVC_NS
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn plug_is_a_noop_on_the_instant_device() {
        std::thread::spawn(|| {
            let m = DeviceModel::from_profile(DeviceProfile::instant());
            let mut service = Duration::ZERO;
            let mut outer = IoChains::enter();
            for _ in 0..2 {
                outer.next_chain();
                let mut plug = IoChains::enter();
                for i in 0..100 {
                    plug.next_chain();
                    service += m.read(1, i * 4096, 4096, 0);
                }
                assert_eq!(plug.finish(), ChainsCharge::default());
            }
            assert_eq!(outer.finish(), ChainsCharge::default());
            assert_eq!(DeviceModel::thread_debt_ns(), 0);
            assert_eq!(service, Duration::ZERO);
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
                let m = DeviceModel::from_profile(DeviceProfile::nvme_optane());
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
                let m = DeviceModel::from_profile(DeviceProfile::nvme_optane());
                let mut chains = chained.then(IoChains::enter);
                let mut service = Duration::ZERO;
                for i in 0..K {
                    if let Some(c) = chains.as_mut() {
                        c.next_chain();
                    }
                    service += m.read(3, i * 4096, 4096, 0);
                }
                let charge = chains.map(IoChains::finish);
                (DeviceModel::thread_debt_ns() as u64, charge, service)
            })
            .join()
            .unwrap()
        };
        let (serial, _, serial_svc) = run(false);
        let (chained, charge, chained_svc) = run(true);
        let charge = charge.expect("the run was closed");
        assert!(serial >= K * READ_4K_NS, "{serial}");
        assert_eq!(charge.charged_ns, chained);
        assert!(chained >= READ_4K_NS, "{chained}");
        assert!(
            chained <= READ_4K_NS + (K - 1) * READ_4K_OCCUPANCY_NS,
            "{chained}"
        );
        assert!(charge.saved_ns >= (K - 1) * READ_4K_NS - (K - 1) * READ_4K_OCCUPANCY_NS);
        assert_eq!(chained_svc, serial_svc);
        assert_eq!(chained_svc, Duration::from_nanos(K * READ_4K_NS));
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
        // Chain 1: a nested run of two one-read chains, then a read that
        // depends on both.
        // Chain 2: one independent read.
        let ops = |m: &DeviceModel, chains: &mut Option<IoChains>| {
            {
                let mut plug = IoChains::enter();
                for offset in [0, 64] {
                    plug.next_chain();
                    m.read(1, offset, 64, 0);
                }
            }
            m.read(1, 128, 64, 0);
            if let Some(c) = chains.as_mut() {
                c.next_chain();
            }
            m.read(2, 0, 64, 0);
        };
        let serial = std::thread::spawn(move || {
            let m = DeviceModel::from_profile(profile);
            let t0 = Instant::now();
            ops(&m, &mut None);
            // Slept plus still owed: at least every wait charged.
            t0.elapsed().as_nanos() as i64 + DeviceModel::thread_debt_ns()
        })
        .join()
        .unwrap();
        assert!(serial as u64 >= 3 * SVC_NS - SLACK_NS, "{serial}");
        let charge = std::thread::spawn(move || {
            let m = DeviceModel::from_profile(profile);
            let mut chains = Some(IoChains::enter());
            ops(&m, &mut chains);
            assert_eq!(
                DeviceModel::thread_debt_ns(),
                0,
                "the nested run charged the thread"
            );
            chains.take().unwrap().finish()
        })
        .join()
        .unwrap();
        // The dependent read starts after the nested run's end...
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
            let m = DeviceModel::from_profile(DeviceProfile::instant());
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
            let m = DeviceModel::from_profile(DeviceProfile::nvme_optane());
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
        // 100 × 1 MiB at 1 GiB/s on one depth-1 queue: 97.66 ms of model
        // time, up to each transfer's rounding down to whole ns.
        std::thread::spawn(|| {
            let mut profile = DeviceProfile::nvme_optane();
            profile.write_bw = 1024 * 1024 * 1024;
            profile.write_latency = Duration::ZERO;
            profile.channels = 1;
            profile.queue_depth = 1;
            let m = DeviceModel::from_profile(profile);
            let _clock = timing::Manual::start();
            let t0 = timing::now();
            for i in 0..100u64 {
                m.write(1, i << 20, 1 << 20, 0);
            }
            let model = timing::elapsed(t0).as_nanos() as i64;
            assert!((model - 97_656_250).abs() <= 100, "{model} ns");
            assert_eq!(DeviceModel::thread_debt_ns(), 0, "every wait was slept");
        })
        .join()
        .unwrap();
    }

    /// Drives `reserve` on the manual clock with `k` closed-loop virtual
    /// submitters per queue, each re-issuing at its previous completion,
    /// until every queue has issued `IOS` IOs. Returns each queue's IOs per
    /// second, from the first issue to its last completion.
    fn closed_loop_iops(m: &DeviceModel, k: usize, service: Duration) -> Vec<f64> {
        // A power of two, so every `k` of the sweep divides it. The
        // ramp-up and drain cost at most `queue_depth / IOS` < 0.4 %.
        const IOS: usize = 2048;
        let _clock = timing::Manual::start();
        let t0 = timing::now_ns();
        let queues = m.queue_count();
        // (next issue, queue, IOs left) per submitter, earliest first.
        let mut due: BinaryHeap<Reverse<(u64, usize, usize)>> = (0..queues)
            .flat_map(|q| (0..k).map(move |_| Reverse((t0, q, IOS / k))))
            .collect();
        let mut last = vec![t0; queues];
        while let Some(Reverse((at, q, left))) = due.pop() {
            timing::sleep(Duration::from_nanos(at - timing::now_ns()));
            let (now, done) = m.reserve(q, service).expect("non-zero service");
            assert_eq!(now, at, "reserve reads the manual clock");
            last[q] = last[q].max(done);
            if left > 1 {
                due.push(Reverse((done, q, left - 1)));
            }
        }
        last.iter()
            .map(|&end| IOS as f64 * 1e9 / (end - t0) as f64)
            .collect()
    }

    #[test]
    fn closed_loop_throughput_matches_the_closed_form() {
        // Per queue, `k` outstanding IOs complete min(k, queue_depth) per
        // service time, service = latency + bytes / bw; queues never
        // contend with one another.
        let profiles = [
            DeviceProfile::hdd(),
            DeviceProfile::sata_ssd(),
            DeviceProfile::nvme_optane(),
        ];
        for profile in profiles {
            let shapes = [
                (profile.read_latency, 4096, profile.read_bw),
                (profile.write_latency, 64 << 10, profile.write_bw),
            ];
            for (latency, bytes, bw) in shapes {
                let service = latency + DeviceProfile::transfer(bytes, bw);
                for queues in 1..=4 {
                    let p = profile.with_queues(queues);
                    for k in (0..=6).map(|i| 1usize << i) {
                        let want = k.min(p.queue_depth) as f64 / service.as_secs_f64();
                        let m = DeviceModel::from_profile(p);
                        for (q, got) in closed_loop_iops(&m, k, service).into_iter().enumerate() {
                            assert!(
                                (got - want).abs() <= 0.01 * want,
                                "{}, {bytes} B, {queues} queues, k = {k}, queue {q}: \
                                 {got:.0} IO/s, closed form {want:.0}",
                                p.name
                            );
                        }
                    }
                }
            }
        }
        // Occupancy is service / queue_depth, so a deep queue of large IOs
        // moves up to queue_depth × bw: 8 outstanding 64 KiB writes on the
        // NVMe profile move about 6.6 × `write_bw`.
        let p = DeviceProfile::nvme_optane();
        let service = p.write_latency + DeviceProfile::transfer(64 << 10, p.write_bw);
        let iops = closed_loop_iops(&DeviceModel::from_profile(p), 8, service)[0];
        let ratio = iops * (64 << 10) as f64 / p.write_bw as f64;
        assert!((6.5..6.7).contains(&ratio), "{ratio}");
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
            let m = DeviceModel::from_profile(profile);
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

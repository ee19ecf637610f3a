//! Precise sleeping and busy-time accounting.
//!
//! The simulated storage devices (crate `p2kvs-storage`) need to charge IO
//! service times in the microsecond range, far below the OS sleep
//! granularity. [`precise_sleep`] sleeps coarsely and spins for the
//! remainder. [`BusyClock`] lets worker threads separate "useful CPU time"
//! from "waiting on IO / queue" time, which is how the CPU-utilization
//! figures (Figs 4, 5c, 21) are produced without relying on `/proc`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Threshold below which we yield-wait instead of asking the OS to sleep
/// (the OS timer floor is tens of microseconds).
const YIELD_THRESHOLD: Duration = Duration::from_micros(150);

/// Sleeps for at least `dur`.
///
/// Long waits use `std::thread::sleep`. Short waits yield the CPU in a
/// loop until the deadline — never a hot spin, which on small machines
/// (CI runners often expose a single core) would starve every other
/// thread, including the ones being waited for.
pub fn precise_sleep(dur: Duration) {
    if dur.is_zero() {
        return;
    }
    let deadline = Instant::now() + dur;
    if dur > YIELD_THRESHOLD {
        std::thread::sleep(dur);
        return;
    }
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// Accumulates busy nanoseconds across threads.
///
/// Workers wrap the "actually processing" parts of their loop in
/// [`BusyClock::time`]; the ratio of accumulated busy time to wall time is
/// the per-worker CPU utilization reported by the benchmark harness.
#[derive(Default)]
pub struct BusyClock {
    busy_ns: AtomicU64,
}

impl BusyClock {
    /// Creates a clock with zero accumulated time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, adding its wall duration to the busy counter.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(start.elapsed());
        out
    }

    /// Adds an externally measured duration.
    pub fn add(&self, dur: Duration) {
        self.busy_ns
            .fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total accumulated busy time.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed))
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn take(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.swap(0, Ordering::Relaxed))
    }
}

/// Total CPU time (user + system) consumed by this process so far.
///
/// Used by the benchmark harness to report real CPU consumption — on
/// small machines, per-thread wall-clock "busy" measures include scheduler
/// wait and overstate usage.
pub fn process_cpu_time() -> Duration {
    crate::sys::process_cpu_time()
}

/// A monotone stopwatch that reports elapsed nanoseconds.
pub struct Stopwatch {
    start: Instant,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn new() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since the stopwatch was started.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Duration since the stopwatch was started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precise_sleep_is_at_least_requested() {
        for us in [5u64, 50, 300, 1500] {
            let dur = Duration::from_micros(us);
            let start = Instant::now();
            precise_sleep(dur);
            let elapsed = start.elapsed();
            assert!(elapsed >= dur, "slept {elapsed:?} < requested {dur:?}");
            // Not absurdly long either (CI machines can stall; be generous).
            assert!(elapsed < dur + Duration::from_millis(60));
        }
    }

    #[test]
    fn precise_sleep_zero_returns_immediately() {
        let start = Instant::now();
        precise_sleep(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn process_cpu_time_counts_cpu_burnt_by_any_thread() {
        let before = process_cpu_time();
        let burn = Duration::from_millis(30);
        std::thread::spawn(move || {
            let start = Instant::now();
            while start.elapsed() < burn {
                std::hint::spin_loop();
            }
        })
        .join()
        .unwrap();
        let spent = process_cpu_time() - before;
        // The spinner may be descheduled for part of its wall time, and
        // other tests' threads add to the count.
        assert!(
            spent >= burn / 3,
            "only {spent:?} of CPU for a {burn:?} spin"
        );
    }

    #[test]
    fn busy_clock_accumulates() {
        let clock = BusyClock::new();
        clock.time(|| precise_sleep(Duration::from_micros(500)));
        clock.add(Duration::from_micros(250));
        let busy = clock.busy();
        assert!(busy >= Duration::from_micros(750));
        let taken = clock.take();
        assert_eq!(taken, busy);
        assert_eq!(clock.busy(), Duration::ZERO);
    }

    #[test]
    fn busy_clock_is_shareable_across_threads() {
        let clock = std::sync::Arc::new(BusyClock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = clock.clone();
                std::thread::spawn(move || c.add(Duration::from_micros(100)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.busy(), Duration::from_micros(400));
    }
}

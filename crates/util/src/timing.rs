//! The one clock: every time read, sleep, yield and backoff of the
//! product crates goes through [`now`], [`elapsed`], [`now_ns`],
//! [`sleep`], [`yield_now`] and [`Backoff`] (`tests/one_clock.rs`
//! checks). Each is the `std` call it wraps behind one relaxed load.
//!
//! [`Manual`] is a test fake, not model time: on the thread that holds
//! it, [`now`] reads the guard's time and [`sleep`] advances it instead
//! of sleeping, so tests check the simulated device's timelines exactly
//! and without waiting. [`BusyClock`] separates a worker's "useful CPU
//! time" from its waits, for the CPU-utilization figures (Figs 4, 5c,
//! 21) without relying on `/proc`.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Live [`Manual`] guards on all threads; zero outside tests. Relaxed:
/// it publishes nothing, since a thread reads only its own manual time.
static MANUAL_GUARDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MANUAL_NOW: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The calling thread's manual time, if it holds a [`Manual`].
#[inline]
fn manual_now() -> Option<Instant> {
    let any = MANUAL_GUARDS.load(Ordering::Relaxed) != 0;
    any.then(|| MANUAL_NOW.with(Cell::get)).flatten()
}

/// The current time.
#[inline]
pub fn now() -> Instant {
    manual_now().unwrap_or_else(Instant::now)
}

/// Time since `since` (zero if `since` is later).
#[inline]
pub fn elapsed(since: Instant) -> Duration {
    now().saturating_duration_since(since)
}

/// Nanoseconds from the process's clock base to [`now`]: the one
/// timeline the simulated device's queues count on.
#[inline]
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    let base = *BASE.get_or_init(Instant::now);
    now().saturating_duration_since(base).as_nanos() as u64
}

/// Sleeps for `dur`, or advances the thread's [`Manual`] time by it.
pub fn sleep(dur: Duration) {
    match manual_now() {
        Some(t) => MANUAL_NOW.with(|m| m.set(Some(t + dur))),
        None => std::thread::sleep(dur),
    }
}

/// Gives the CPU to whichever thread is runnable.
pub fn yield_now() {
    std::thread::yield_now();
}

/// `limit` on a multiprocessor, 0 on a uniprocessor. With one hardware
/// thread, every spin iteration only delays the peer that would make
/// progress, so the sites that spin (the consumer guard, [`Backoff`])
/// yield at once. Detected once per process.
pub fn adaptive_spin(limit: usize) -> usize {
    static NCPUS: OnceLock<usize> = OnceLock::new();
    let n = *NCPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    if n > 1 {
        limit
    } else {
        0
    }
}

/// The one wait ladder for a condition another thread will make true (a
/// full ring drains, pinned readers leave an epoch): up to 16 spins on a
/// multiprocessor, yields to round 64, then [`Backoff::NAP`]s. Past the
/// yields the other side is the bottleneck; burning a core only slows it.
#[derive(Debug, Default)]
pub struct Backoff {
    rounds: u32,
}

impl Backoff {
    /// One nap once the yields are spent.
    pub const NAP: Duration = Duration::from_micros(50);

    /// Waits one round.
    pub fn snooze(&mut self) {
        self.rounds = self.rounds.saturating_add(1);
        match self.rounds {
            0..=16 if adaptive_spin(1) > 0 => std::hint::spin_loop(),
            0..=64 => yield_now(),
            _ => sleep(Self::NAP),
        }
    }
}

/// A manual clock for tests on the calling thread: while the guard lives,
/// [`now`] starts at the wall clock's time and moves only by [`sleep`].
/// Dropping it restores the wall clock. Guards do not nest; no product
/// code starts one.
pub struct Manual(PhantomData<*const ()>);

impl Manual {
    /// Switches the calling thread to a manual clock.
    pub fn start() -> Manual {
        now_ns(); // fixes the base at or before the manual start
        let outer = MANUAL_NOW.with(|m| m.replace(Some(Instant::now())));
        assert!(outer.is_none(), "manual clocks do not nest");
        MANUAL_GUARDS.fetch_add(1, Ordering::Relaxed);
        Manual(PhantomData)
    }
}

impl Drop for Manual {
    fn drop(&mut self) {
        MANUAL_NOW.with(|m| m.set(None));
        MANUAL_GUARDS.fetch_sub(1, Ordering::Relaxed);
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
        let start = now();
        let out = f();
        self.add(elapsed(start));
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
}

/// Total CPU time (user + system) consumed by this process so far.
///
/// Used by the benchmark harness to report real CPU consumption — on
/// small machines, per-thread wall-clock "busy" measures include scheduler
/// wait and overstate usage.
pub fn process_cpu_time() -> Duration {
    crate::sys::process_cpu_time()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_sleep_advances_exactly_and_never_sleeps() {
        let wall = Instant::now();
        let _clock = Manual::start();
        let t0 = now();
        let ns0 = now_ns();
        sleep(Duration::from_secs(3600));
        sleep(Duration::from_nanos(7));
        assert_eq!(
            elapsed(t0),
            Duration::from_secs(3600) + Duration::from_nanos(7)
        );
        assert_eq!(now_ns() - ns0, 3_600_000_000_007);
        assert!(wall.elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn manual_clock_is_per_thread() {
        let _clock = Manual::start();
        let frozen = now();
        sleep(Duration::from_secs(3600));
        let other = std::thread::spawn(|| {
            let t0 = now();
            sleep(Duration::from_millis(2));
            (t0, elapsed(t0))
        })
        .join()
        .unwrap();
        assert!(
            other.0 < frozen + Duration::from_secs(60),
            "other thread on manual time"
        );
        assert!(
            other.1 >= Duration::from_millis(2),
            "other thread did not sleep"
        );
    }

    #[test]
    fn dropping_manual_restores_the_wall_clock() {
        let clock = Manual::start();
        sleep(Duration::from_secs(3600));
        let ahead = now();
        drop(clock);
        let back = now();
        assert!(back < ahead, "still on manual time");
        sleep(Duration::from_millis(1));
        assert!(elapsed(back) >= Duration::from_millis(1));
    }

    #[test]
    fn backoff_naps_only_past_round_64() {
        let _clock = Manual::start();
        let t0 = now();
        let mut backoff = Backoff::default();
        for _ in 0..64 {
            backoff.snooze();
        }
        assert_eq!(elapsed(t0), Duration::ZERO, "spins and yields take no time");
        for _ in 64..100 {
            backoff.snooze();
        }
        assert_eq!(elapsed(t0), 36 * Backoff::NAP);
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
        let _clock = Manual::start();
        let busy = BusyClock::new();
        busy.time(|| sleep(Duration::from_micros(500)));
        busy.add(Duration::from_micros(250));
        assert_eq!(busy.busy(), Duration::from_micros(750));
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

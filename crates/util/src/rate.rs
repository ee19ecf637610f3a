//! Request-rate control and measurement.
//!
//! [`RateLimiter`] is a token bucket used by the latency-vs-intensity
//! experiment (Fig 13) to drive clients at a fixed offered load.
//! [`Meter`] accumulates an event count over a window and reports
//! events-per-second, used for the bandwidth/QPS timelines (Figs 4, 5b).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::timing::precise_sleep;

/// A token-bucket rate limiter shared by any number of threads.
pub struct RateLimiter {
    /// Tokens issued per second; 0 disables limiting.
    per_second: u64,
    /// Nanoseconds between tokens.
    interval_ns: u64,
    /// Virtual time (ns since `start`) at which the next token is available.
    next_ns: AtomicU64,
    start: Instant,
}

impl RateLimiter {
    /// Creates a limiter that admits `per_second` operations per second
    /// across all callers. `0` means unlimited.
    pub fn new(per_second: u64) -> Self {
        RateLimiter {
            per_second,
            interval_ns: if per_second == 0 {
                0
            } else {
                1_000_000_000 / per_second.max(1)
            },
            next_ns: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Blocks until one token is available, consumes it and returns the
    /// instant the schedule gave it (now, when unlimited). A call that
    /// goes out late still starts its latency there, so the time spent
    /// queued behind a slow call is counted (no coordinated omission).
    pub fn acquire(&self) -> Instant {
        if self.per_second == 0 {
            return Instant::now();
        }
        let slot = self.next_ns.fetch_add(self.interval_ns, Ordering::Relaxed);
        let now = self.start.elapsed().as_nanos() as u64;
        if slot > now {
            precise_sleep(Duration::from_nanos(slot - now));
        }
        self.start + Duration::from_nanos(slot)
    }

    /// The configured rate (ops/s); 0 means unlimited.
    pub fn rate(&self) -> u64 {
        self.per_second
    }
}

/// A windowed event meter: count events, then read events/second.
#[derive(Default)]
pub struct Meter {
    events: AtomicU64,
}

impl Meter {
    /// Creates a meter with a zero count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.events.fetch_add(n, Ordering::Relaxed);
    }

    /// Current cumulative count.
    pub fn count(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Resets the count to zero and returns the previous value.
    pub fn take(&self) -> u64 {
        self.events.swap(0, Ordering::Relaxed)
    }

    /// Converts a taken count into a rate over `window`.
    pub fn rate_over(count: u64, window: Duration) -> f64 {
        if window.is_zero() {
            0.0
        } else {
            count as f64 / window.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_limiter_never_blocks() {
        let rl = RateLimiter::new(0);
        let start = Instant::now();
        for _ in 0..100_000 {
            rl.acquire();
        }
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn limiter_enforces_rate() {
        // 10k ops/s for 500 tokens should take ~50ms.
        let rl = RateLimiter::new(10_000);
        let start = Instant::now();
        for _ in 0..500 {
            rl.acquire();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(45),
            "too fast: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(500),
            "too slow: {elapsed:?}"
        );
    }

    #[test]
    fn limiter_is_fair_across_threads() {
        let rl = std::sync::Arc::new(RateLimiter::new(20_000));
        let start = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rl = rl.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        rl.acquire();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 1000 tokens at 20k/s ≈ 50ms total regardless of thread count.
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(40), "{elapsed:?}");
    }

    #[test]
    fn meter_take_resets() {
        let m = Meter::new();
        m.add(5);
        m.add(7);
        assert_eq!(m.count(), 12);
        assert_eq!(m.take(), 12);
        assert_eq!(m.count(), 0);
        assert_eq!(Meter::rate_over(100, Duration::from_millis(500)), 200.0);
    }
}

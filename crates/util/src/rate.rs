//! Request-rate control.
//!
//! [`RateLimiter`] is a token bucket used by the latency-vs-intensity
//! experiment (Fig 13) to drive clients at a fixed offered load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::timing;

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
            start: timing::now(),
        }
    }

    /// Blocks until one token is available, consumes it and returns the
    /// instant the schedule gave it (now, when unlimited). A call that
    /// goes out late still starts its latency there, so the time spent
    /// queued behind a slow call is counted (no coordinated omission).
    pub fn acquire(&self) -> Instant {
        if self.per_second == 0 {
            return timing::now();
        }
        let slot = self.next_ns.fetch_add(self.interval_ns, Ordering::Relaxed);
        let due = self.start + Duration::from_nanos(slot);
        let wait = due.saturating_duration_since(timing::now());
        // Below the OS timer floor (tens of µs) the wait yields until the
        // slot: never a hot spin, which on a single-core CI runner would
        // starve the threads being waited for.
        if wait > Duration::from_micros(150) {
            timing::sleep(wait);
        } else {
            while timing::now() < due {
                timing::yield_now();
            }
        }
        due
    }

    /// The configured rate (ops/s); 0 means unlimited.
    pub fn rate(&self) -> u64 {
        self.per_second
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
        // ~50 ms either way: 100 µs slots wait by yielding, 1 ms slots by
        // sleeping.
        for (rate, tokens) in [(10_000, 500), (1_000, 50)] {
            let rl = RateLimiter::new(rate);
            let start = Instant::now();
            for _ in 0..tokens {
                rl.acquire();
            }
            let elapsed = start.elapsed();
            assert!(
                elapsed >= Duration::from_millis(45),
                "{rate}/s too fast: {elapsed:?}"
            );
            assert!(
                elapsed < Duration::from_millis(500),
                "{rate}/s too slow: {elapsed:?}"
            );
        }
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
}

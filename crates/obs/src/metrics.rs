//! Metric primitives: counters, gauges, and a sharded concurrent
//! histogram.
//!
//! Counters and gauges are single atomics — recording is one relaxed RMW,
//! cheap enough to sit on every request. Histograms wrap
//! [`p2kvs_util::Histogram`] (which needs `&mut self`) in per-thread
//! shards so concurrent workers never serialize on one lock; a snapshot
//! merges the shards into one histogram, which is exact because merging
//! log-bucketed counts is associative.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use p2kvs_util::histogram::Histogram;

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (for mirroring an externally owned monotonic
    /// counter into the registry at snapshot time).
    #[inline]
    pub fn store(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a point-in-time `f64` that can go up and down.
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at 0.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Shards per concurrent histogram. 8 keeps the footprint at a few tens
/// of KiB while making cross-worker collisions rare (each store has
/// dedicated per-worker histograms anyway; shards absorb user threads).
const HIST_SHARDS: usize = 8;

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Stable per-thread shard hint: threads get round-robin slots on
    /// first use, so two threads only contend when more than
    /// `HIST_SHARDS` of them record into the same histogram at once.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// A histogram that can be recorded into from many threads.
pub struct ConcurrentHistogram {
    shards: Vec<Mutex<Histogram>>,
}

impl Default for ConcurrentHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentHistogram {
    /// Creates an empty histogram.
    pub fn new() -> ConcurrentHistogram {
        ConcurrentHistogram {
            shards: (0..HIST_SHARDS)
                .map(|_| Mutex::new(Histogram::new()))
                .collect(),
        }
    }

    /// Records one observation (e.g. nanoseconds).
    #[inline]
    pub fn record(&self, value: u64) {
        let slot = THREAD_SLOT.with(|s| *s) % self.shards.len();
        // The home shard is almost always uncontended; fall through to the
        // neighbouring shards rather than block behind another recorder.
        for i in 0..self.shards.len() {
            let idx = (slot + i) % self.shards.len();
            if let Ok(mut h) = self.shards[idx].try_lock() {
                h.record(value);
                return;
            }
        }
        self.shards[slot]
            .lock()
            .expect("histogram shard poisoned")
            .record(value);
    }

    /// Merges all shards into one point-in-time histogram.
    pub fn snapshot(&self) -> Histogram {
        let mut out = Histogram::new();
        for shard in &self.shards {
            out.merge(&shard.lock().expect("histogram shard poisoned"));
        }
        out
    }

    /// Total observations across shards.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("histogram shard poisoned").count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.store(3);
        assert_eq!(c.get(), 3);
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn concurrent_histogram_counts_all_records() {
        let h = Arc::new(ConcurrentHistogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        let merged = h.snapshot();
        assert_eq!(merged.count(), 8000);
        assert_eq!(merged.min(), 0);
        // 7999 quantizes within the histogram's relative error bound.
        assert!(merged.max() >= 7900);
    }

    #[test]
    fn snapshot_of_empty_is_empty() {
        let h = ConcurrentHistogram::new();
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        // The sharded snapshot depends on merging log-bucketed counts
        // being order-independent; check digests across groupings.
        use crate::snapshot::HistogramStats;
        let fill = |seed: u64, n: u64| {
            let mut h = Histogram::new();
            for i in 0..n {
                h.record(seed.wrapping_mul(2654435761).wrapping_add(i * 37) % 1_000_000);
            }
            h
        };
        let (a, b, c) = (fill(1, 500), fill(2, 300), fill(3, 700));
        // (a ⊕ b) ⊕ c
        let mut left = Histogram::new();
        left.merge(&a);
        left.merge(&b);
        let mut left_then_c = left;
        left_then_c.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = Histogram::new();
        bc.merge(&b);
        bc.merge(&c);
        let mut right = Histogram::new();
        right.merge(&a);
        right.merge(&bc);
        // c ⊕ b ⊕ a (commuted)
        let mut rev = Histogram::new();
        rev.merge(&c);
        rev.merge(&b);
        rev.merge(&a);
        let digest = |h: &Histogram| HistogramStats::from(h);
        assert_eq!(digest(&left_then_c), digest(&right));
        assert_eq!(digest(&left_then_c), digest(&rev));
        assert_eq!(left_then_c.count(), 1500);
    }
}

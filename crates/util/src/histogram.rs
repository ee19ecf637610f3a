//! Log-bucketed latency histogram.
//!
//! An HdrHistogram-style structure: values are bucketed by
//! (exponent, sub-bucket) so that relative error is bounded (~1.5% with 64
//! sub-buckets) across the full `u64` range while the footprint stays a few
//! KiB. Every latency number reported in EXPERIMENTS.md (average, p50, p99,
//! p99.9, max — cf. Fig 13) comes from this type.

/// Sub-buckets per power of two; 64 gives <1.6% relative error.
const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Number of power-of-two ranges needed to cover `u64`.
const RANGES: usize = 64 - SUB_BUCKET_BITS as usize + 1;

/// A fixed-size, mergeable latency histogram.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; RANGES * SUB_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let range = (msb - SUB_BUCKET_BITS + 1) as usize;
        let sub = (value >> (msb - SUB_BUCKET_BITS)) as usize & (SUB_BUCKETS - 1);
        // Range 0 covers [0, SUB_BUCKETS); each later range covers one
        // power-of-two span split into SUB_BUCKETS/2 used slots, but the
        // simple (range, sub) layout keeps indexing branch-free.
        range * SUB_BUCKETS + sub
    }

    /// Representative (upper-bound) value of bucket `idx`.
    fn value_of(idx: usize) -> u64 {
        let range = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if range == 0 {
            return sub;
        }
        let shift = range as u32 - 1;
        ((SUB_BUCKETS as u64 + sub) << shift).saturating_add((1u64 << shift) - 1)
    }

    /// Records one observation of `value` (e.g. nanoseconds).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of all recorded observations (sums are tracked outside
    /// the buckets, so this carries no quantization error).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`), or 0 when empty.
    ///
    /// The returned value is the upper bound of the bucket containing the
    /// requested rank, clamped to the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(idx).min(self.max);
            }
        }
        self.max
    }

    /// Convenience wrapper: percentile in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.quantile(p / 100.0)
    }

    /// One-line summary (`count/mean/p50/p99/p999/max`), values treated as
    /// nanoseconds and printed in microseconds.
    pub fn summary_us(&self) -> String {
        format!(
            "n={} mean={:.1}us p50={:.1}us p99={:.1}us p999={:.1}us max={:.1}us",
            self.total,
            self.mean() / 1e3,
            self.percentile(50.0) as f64 / 1e3,
            self.percentile(99.0) as f64 / 1e3,
            self.percentile(99.9) as f64 / 1e3,
            self.max as f64 / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        // Rank ceil(0.5 × 64) = 32 → the 32nd smallest value, which is 31.
        assert_eq!(h.quantile(0.5), SUB_BUCKETS as u64 / 2 - 1);
    }

    #[test]
    fn bounded_relative_error() {
        let mut h = Histogram::new();
        let values = [100u64, 1_000, 10_000, 123_456, 9_999_999, 1 << 40];
        for &v in &values {
            let mut one = Histogram::new();
            one.record(v);
            let q = one.quantile(0.5);
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.02, "value {v} quantized to {q} (err {err})");
        }
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        for i in 1..=100_000u64 {
            h.record(i);
        }
        let mut prev = 0;
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let q = h.percentile(p);
            assert!(q >= prev, "p{p} = {q} < previous {prev}");
            prev = q;
        }
        // p50 of 1..=100k should be close to 50k.
        let p50 = h.percentile(50.0) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.03, "p50={p50}");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..10_000u64 {
            let v = (i * 2654435761) % 1_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.min(), both.min());
        for p in [10.0, 50.0, 99.0] {
            assert_eq!(a.percentile(p), both.percentile(p));
        }
    }

    #[test]
    fn sum_is_exact() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(1_000_003);
        assert_eq!(h.sum(), 1_000_006);
        let mut other = Histogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.sum(), 1_000_006 + u128::from(u64::MAX));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        for v in [5u64, 500, 50_000] {
            a.record(v);
        }
        let before = (a.count(), a.sum(), a.min(), a.max(), a.percentile(50.0));
        a.merge(&Histogram::new());
        assert_eq!(
            (a.count(), a.sum(), a.min(), a.max(), a.percentile(50.0)),
            before
        );
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.count(), a.count());
        assert_eq!(empty.min(), a.min());
        assert_eq!(empty.max(), a.max());
    }

    #[test]
    fn tail_percentiles_are_ordered() {
        // p50 ≤ p99 ≤ p99.9 ≤ max on a heavy-tailed distribution.
        let mut h = Histogram::new();
        let mut x = 88172645463325252u64;
        for _ in 0..50_000 {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mostly small values with a 1/1000 huge tail.
            let v = if x.is_multiple_of(1000) {
                x % 1_000_000_000
            } else {
                x % 10_000
            };
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        let p999 = h.percentile(99.9);
        assert!(p50 <= p99, "p50={p50} p99={p99}");
        assert!(p99 <= p999, "p99={p99} p999={p999}");
        assert!(p999 <= h.max(), "p999={p999} max={}", h.max());
        assert!(p999 > p50, "the tail must be visible in p99.9");
    }

    #[test]
    fn relative_error_bounded_at_bucket_boundaries() {
        // Power-of-two boundaries are where log-bucketing error peaks:
        // check v-1, v, v+1 around each boundary stay within the bound
        // promised by 64 sub-buckets (1/64 ≈ 1.6%).
        for shift in [7u32, 10, 16, 24, 32, 47] {
            let boundary = 1u64 << shift;
            for v in [boundary - 1, boundary, boundary + 1] {
                let mut h = Histogram::new();
                h.record(v);
                // A far larger second value keeps the max clamp away from
                // v's bucket, so the p50 we read is the raw bucket bound.
                h.record(v * 8);
                let q = h.quantile(0.5);
                let err = (q as f64 - v as f64).abs() / v as f64;
                assert!(
                    err <= 1.0 / 64.0 + 1e-9,
                    "value {v} (2^{shift} boundary) quantized to {q}, err {err}"
                );
                assert!(
                    q >= v,
                    "bucket upper bound must not under-report: {q} < {v}"
                );
            }
        }
    }

    #[test]
    fn max_value_does_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        let _ = h.quantile(1.0);
    }
}

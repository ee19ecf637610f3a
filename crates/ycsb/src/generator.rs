//! Request-distribution generators (YCSB semantics).

use p2kvs_util::hash::{fnv1a64, mix64};
use p2kvs_util::rng::Rng;

/// Default zipfian skew used by YCSB (`θ = 0.99`).
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// Uniform choice over `[0, n)`.
#[derive(Debug, Clone)]
pub struct Uniform {
    n: u64,
}

impl Uniform {
    /// Creates a generator over `[0, n)`.
    pub fn new(n: u64) -> Uniform {
        Uniform { n: n.max(1) }
    }

    /// Draws the next item.
    pub fn next(&self, rng: &mut Rng) -> u64 {
        rng.below(self.n)
    }
}

/// Zipfian over `[0, n)` with items ranked by popularity (item 0 hottest)
/// — Gray et al.'s rejection-free method, as used by YCSB.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl Zipfian {
    /// Creates a zipfian generator over `[0, n)` with skew `theta`.
    pub fn new(n: u64, theta: f64) -> Zipfian {
        let n = n.max(1);
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    /// Creates the standard YCSB zipfian (θ = 0.99).
    pub fn ycsb(n: u64) -> Zipfian {
        Zipfian::new(n, ZIPFIAN_CONSTANT)
    }

    /// Draws the next rank.
    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// `ζ(2, θ)` (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

/// Zipfian popularity scattered over the key space (YCSB
/// `ScrambledZipfianGenerator`): hot items are random keys, not
/// lexicographic neighbours — this is what makes hash partitioning spread
/// hot keys across p2KVS workers (§4.2).
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
    n: u64,
}

impl ScrambledZipfian {
    /// Creates a scrambled zipfian over `[0, n)`.
    pub fn new(n: u64) -> ScrambledZipfian {
        ScrambledZipfian {
            inner: Zipfian::ycsb(n),
            n: n.max(1),
        }
    }

    /// Draws the next item.
    pub fn next(&self, rng: &mut Rng) -> u64 {
        mix64(self.inner.next(rng)) % self.n
    }
}

/// "Latest" distribution: skewed toward the most recently inserted items
/// (workload D). The caller advances `max` as inserts happen.
#[derive(Debug, Clone)]
pub struct Latest {
    zipf: Zipfian,
}

impl Latest {
    /// Creates a latest-skewed generator for a key space that currently
    /// holds `n` items.
    pub fn new(n: u64) -> Latest {
        Latest {
            zipf: Zipfian::ycsb(n.max(1)),
        }
    }

    /// Draws an item given the current newest index `max`.
    pub fn next(&self, rng: &mut Rng, max: u64) -> u64 {
        let off = self.zipf.next(rng);
        max.saturating_sub(off)
    }
}

/// Maps item indices to keys and generates deterministic values.
#[derive(Debug, Clone)]
pub struct KeySpace {
    /// Keys are ordered (`user0000000001`) instead of hashed — used by
    /// sequential-fill micro workloads.
    pub ordered: bool,
}

impl KeySpace {
    /// Hashed key space (YCSB default).
    pub fn hashed() -> KeySpace {
        KeySpace { ordered: false }
    }

    /// Ordered key space (fillseq).
    pub fn ordered() -> KeySpace {
        KeySpace { ordered: true }
    }

    /// The key for item `i`.
    pub fn key(&self, i: u64) -> Vec<u8> {
        if self.ordered {
            format!("user{i:020}").into_bytes()
        } else {
            format!("user{:020}", fnv1a64(&i.to_le_bytes())).into_bytes()
        }
    }

    /// A deterministic value of `size` bytes for item `i`.
    pub fn value(&self, i: u64, size: usize) -> Vec<u8> {
        let mut out = vec![0u8; size];
        let mut x = mix64(i ^ 0x5bd1_e995);
        for chunk in out.chunks_mut(8) {
            x = mix64(x);
            let bytes = x.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_range() {
        let g = Uniform::new(100);
        let mut rng = Rng::new(1);
        let mut seen = [false; 100];
        for _ in 0..10_000 {
            seen[g.next(&mut rng) as usize] = true;
        }
        assert!(seen.iter().filter(|s| **s).count() > 95);
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let g = Zipfian::ycsb(10_000);
        let mut rng = Rng::new(7);
        let mut counts = vec![0u32; 10_000];
        const N: u32 = 100_000;
        for _ in 0..N {
            let v = g.next(&mut rng);
            assert!(v < 10_000);
            counts[v as usize] += 1;
        }
        // Item 0 must be by far the hottest; top-10 items take a large
        // share (YCSB zipfian ~ top 10 of 10k ≈ 25%+).
        let top10: u32 = counts[..10].iter().sum();
        assert!(counts[0] > N / 20, "item0 count {}", counts[0]);
        assert!(top10 > N / 5, "top10 {top10}");
        // But the tail is still exercised.
        assert!(counts[5000..].iter().filter(|&&c| c > 0).count() > 100);
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_items() {
        let g = ScrambledZipfian::new(10_000);
        let mut rng = Rng::new(3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(g.next(&mut rng)).or_insert(0u32) += 1;
        }
        // Still skewed: one item dominates...
        let max = counts.values().max().copied().unwrap();
        assert!(max > 2_000, "hottest item only {max}");
        // ...but the hottest items are scattered, not items 0..k.
        let mut by_count: Vec<_> = counts.iter().collect();
        by_count.sort_by_key(|(_, c)| std::cmp::Reverse(**c));
        let hot_ids: Vec<u64> = by_count[..5].iter().map(|(i, _)| **i).collect();
        assert!(
            hot_ids.iter().any(|&i| i > 1000),
            "hot items should be scattered: {hot_ids:?}"
        );
    }

    #[test]
    fn latest_prefers_recent() {
        let g = Latest::new(100_000);
        let mut rng = Rng::new(9);
        let max = 50_000u64;
        let mut recent = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            let v = g.next(&mut rng, max);
            assert!(v <= max);
            if v > max - 100 {
                recent += 1;
            }
        }
        assert!(recent > N / 10, "recent hits {recent}");
    }

    #[test]
    fn keyspace_is_deterministic() {
        let ks = KeySpace::hashed();
        assert_eq!(ks.key(42), ks.key(42));
        assert_ne!(ks.key(42), ks.key(43));
        let v = ks.value(7, 128);
        assert_eq!(v.len(), 128);
        assert_eq!(v, ks.value(7, 128));
        assert_ne!(v, ks.value(8, 128));
        // Ordered keys sort by index.
        let os = KeySpace::ordered();
        assert!(os.key(1) < os.key(2));
        assert!(os.key(99) < os.key(100));
    }

    #[test]
    fn value_sizes_not_multiple_of_8() {
        let ks = KeySpace::hashed();
        for size in [0usize, 1, 7, 9, 100, 1023] {
            assert_eq!(ks.value(1, size).len(), size);
        }
    }
}

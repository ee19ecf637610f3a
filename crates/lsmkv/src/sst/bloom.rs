//! Bloom filters for SST tables (LevelDB `FilterPolicy` style).
//!
//! One filter is built per table over all user keys it contains; GETs probe
//! it before touching the index or data blocks, which is what keeps
//! multi-level reads cheap and lets the paper's read-heavy workloads (B, C,
//! D) scale with instance count rather than with LSM depth.

use p2kvs_util::hash::bloom_hash;

#[cfg(test)]
thread_local! {
    /// Filter probes this thread has made: lets tests assert that a lookup
    /// probes each candidate table's filter exactly once.
    pub(crate) static PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Builds and probes bloom filters with `bits_per_key` bits per key.
#[derive(Debug, Clone, Copy)]
pub struct BloomPolicy {
    bits_per_key: usize,
    /// Number of probes, derived as `bits_per_key × ln 2`.
    k: u32,
}

impl BloomPolicy {
    /// Creates a policy; `bits_per_key = 10` gives ~1% false positives.
    pub fn new(bits_per_key: usize) -> BloomPolicy {
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        BloomPolicy { bits_per_key, k }
    }

    /// The hash of `key` a filter is built from and probed with.
    pub fn hash(key: &[u8]) -> u32 {
        bloom_hash(key)
    }

    /// Builds a filter over the keys whose [`BloomPolicy::hash`]es are
    /// `hashes` (one per key added, repeats included), appending it to
    /// `dst`. The final byte stores the probe count so readers need no
    /// out-of-band config.
    pub fn create_filter(&self, hashes: &[u32], dst: &mut Vec<u8>) {
        let bits = (hashes.len() * self.bits_per_key).max(64);
        let bytes = bits.div_ceil(8);
        let bits = bytes * 8;
        let start = dst.len();
        dst.resize(start + bytes, 0);
        for &hash in hashes {
            let mut h = hash;
            let delta = h.rotate_left(15);
            for _ in 0..self.k {
                let bit = (h as usize) % bits;
                dst[start + bit / 8] |= 1 << (bit % 8);
                h = h.wrapping_add(delta);
            }
        }
        dst.push(self.k as u8);
    }

    /// Whether `key` may be in the filter (`false` = definitely absent).
    pub fn key_may_match(key: &[u8], filter: &[u8]) -> bool {
        Self::hash_may_match(Self::hash(key), filter)
    }

    /// [`BloomPolicy::key_may_match`] for a key whose [`BloomPolicy::hash`]
    /// the caller already has: a lookup hashes its key once for all the
    /// tables it probes.
    pub fn hash_may_match(hash: u32, filter: &[u8]) -> bool {
        #[cfg(test)]
        PROBES.with(|p| p.set(p.get() + 1));
        if filter.len() < 2 {
            return true;
        }
        let k = filter[filter.len() - 1] as u32;
        if k > 30 {
            // Reserved for future encodings: err on the safe side.
            return true;
        }
        let data = &filter[..filter.len() - 1];
        // 32-bit arithmetic: the hash is 32 bits wide, and a filter of
        // 2^32 bits or more is not one the builder wrote.
        let Ok(bits) = u32::try_from(data.len() * 8) else {
            return true;
        };
        let mut h = hash;
        let delta = h.rotate_left(15);
        for _ in 0..k {
            let bit = h % bits;
            if data[(bit / 8) as usize] & (1 << (bit % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_of(keys: &[&[u8]]) -> Vec<u8> {
        let hashes: Vec<u32> = keys.iter().map(|k| BloomPolicy::hash(k)).collect();
        let mut f = Vec::new();
        BloomPolicy::new(10).create_filter(&hashes, &mut f);
        f
    }

    /// The filter as it was built before tables kept hashes: straight from
    /// the keys. The on-disk format is defined by this.
    fn filter_from_keys(bits_per_key: usize, keys: &[&[u8]]) -> Vec<u8> {
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let bytes = (keys.len() * bits_per_key).max(64).div_ceil(8);
        let bits = bytes * 8;
        let mut f = vec![0u8; bytes];
        for key in keys {
            let mut h = bloom_hash(key);
            let delta = h.rotate_left(15);
            for _ in 0..k {
                let bit = (h as usize) % bits;
                f[bit / 8] |= 1 << (bit % 8);
                h = h.wrapping_add(delta);
            }
        }
        f.push(k as u8);
        f
    }

    #[test]
    fn filter_from_hashes_is_bit_identical_to_filter_from_keys() {
        for (n, bits_per_key) in [(0usize, 10usize), (1, 10), (7, 4), (1000, 10), (5000, 16)] {
            // Every third key twice in a row, as a table with two versions
            // of a user key adds it.
            let keys: Vec<Vec<u8>> = (0..n)
                .flat_map(|i| {
                    let key = format!("key{i:07}").into_bytes();
                    std::iter::repeat(key).take(1 + usize::from(i % 3 == 0))
                })
                .collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let hashes: Vec<u32> = refs.iter().map(|k| BloomPolicy::hash(k)).collect();
            let mut built = Vec::new();
            BloomPolicy::new(bits_per_key).create_filter(&hashes, &mut built);
            assert_eq!(
                built,
                filter_from_keys(bits_per_key, &refs),
                "n={n} bits={bits_per_key}"
            );
        }
    }

    #[test]
    fn empty_filter_matches_nothing_definite() {
        let f = filter_of(&[]);
        // An empty filter has all bits clear: everything is "absent".
        assert!(!BloomPolicy::key_may_match(b"anything", &f));
    }

    #[test]
    fn present_keys_always_match() {
        let keys: Vec<Vec<u8>> = (0..5000).map(|i| format!("key{i:07}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let f = filter_of(&refs);
        for k in &keys {
            assert!(BloomPolicy::key_may_match(k, &f), "false negative on {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let keys: Vec<Vec<u8>> = (0..10_000).map(|i| format!("in{i:07}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let f = filter_of(&refs);
        let mut fp = 0;
        let probes = 10_000;
        for i in 0..probes {
            if BloomPolicy::key_may_match(format!("out{i:07}").as_bytes(), &f) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn short_or_garbage_filter_is_permissive() {
        assert!(BloomPolicy::key_may_match(b"k", &[]));
        assert!(BloomPolicy::key_may_match(b"k", &[0xff]));
        // Probe count 31 is reserved.
        assert!(BloomPolicy::key_may_match(b"k", &[0x00, 0x00, 31]));
    }

    #[test]
    fn single_key_filter() {
        let f = filter_of(&[b"lonely"]);
        assert!(BloomPolicy::key_may_match(b"lonely", &f));
        let mut miss = 0;
        for i in 0..100 {
            if !BloomPolicy::key_may_match(format!("other{i}").as_bytes(), &f) {
                miss += 1;
            }
        }
        assert!(miss > 90, "only {miss}/100 definite misses");
    }
}

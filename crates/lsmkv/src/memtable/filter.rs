//! The memtable's whole-key filter (RocksDB's
//! `memtable_whole_key_filtering`).
//!
//! A bloom filter whose blocks are one 64-bit word: each key picks one
//! word and sets four bits inside it, so an insert is one `fetch_or` and a
//! probe is one load. The word and the bits come from the key's
//! [`BloomPolicy::hash`](crate::sst::BloomPolicy::hash), the hash the
//! table filters below are probed with, so a lookup hashes its key once
//! for every memtable and table it asks.
//!
//! The filter is sized from the memtable's budget, one word per
//! [`BYTES_PER_WORD`] bytes (1/64 of it), and is not charged against that
//! budget: the memtable fills and flushes exactly as it would without it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Memtable bytes per filter word.
const BYTES_PER_WORD: usize = 512;

/// A fixed-size, insert-only set of key hashes with false positives and
/// no false negatives.
pub(crate) struct KeyFilter {
    words: Box<[AtomicU64]>,
}

impl KeyFilter {
    /// An empty filter for a memtable of `memtable_size` bytes.
    pub(crate) fn for_memtable(memtable_size: usize) -> KeyFilter {
        let words = (memtable_size / BYTES_PER_WORD).max(1);
        KeyFilter {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The word `hash` lives in and its four bits there. The word comes
    /// from the high half of a multiplicative remix (which every bit of
    /// the hash reaches), the bits from the hash's low 24 bits, six each.
    fn locate(&self, hash: u32) -> (&AtomicU64, u64) {
        let mixed = u64::from(hash).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        let word = (mixed * self.words.len() as u64) >> 32;
        let bits = (0..4).fold(0u64, |m, i| m | 1 << ((hash >> (6 * i)) & 63));
        (&self.words[word as usize], bits)
    }

    /// Adds `hash`. `Relaxed` suffices: a reader only needs the bits of
    /// entries whose sequence numbers it has seen published, and the
    /// publication orders them (see [`MemTable::add`](super::MemTable::add)).
    pub(crate) fn add(&self, hash: u32) {
        let (word, bits) = self.locate(hash);
        word.fetch_or(bits, Ordering::Relaxed);
    }

    /// Whether a key with `hash` may have been added (`false`: it was not).
    pub(crate) fn may_contain(&self, hash: u32) -> bool {
        let (word, bits) = self.locate(hash);
        word.load(Ordering::Relaxed) & bits == bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::BloomPolicy;

    #[test]
    fn size_is_one_sixty_fourth_of_the_memtable() {
        let bytes = |memtable_size| KeyFilter::for_memtable(memtable_size).words.len() * 8;
        assert_eq!(bytes(1 << 20), 16 << 10);
        assert_eq!(bytes(4 << 20), 64 << 10);
        // A memtable smaller than one word's share still gets one word.
        assert_eq!(bytes(100), 8);
    }

    #[test]
    fn no_added_hash_is_rejected() {
        for memtable_size in [100, 64 << 10, 1 << 20] {
            let f = KeyFilter::for_memtable(memtable_size);
            let hashes: Vec<u32> = (0..20_000u32)
                .map(|i| BloomPolicy::hash(format!("key{i:08}").as_bytes()))
                .collect();
            for (i, &h) in hashes.iter().enumerate() {
                f.add(h);
                // Every hash added so far, not just the last one.
                if i % 1000 == 0 {
                    assert!(hashes[..=i].iter().all(|&h| f.may_contain(h)));
                }
            }
            assert!(hashes.iter().all(|&h| f.may_contain(h)), "{memtable_size}");
        }
    }

    #[test]
    fn an_empty_filter_rejects_everything() {
        let f = KeyFilter::for_memtable(1 << 20);
        assert!((0..10_000u32).all(|i| !f.may_contain(BloomPolicy::hash(&i.to_le_bytes()))));
    }
}

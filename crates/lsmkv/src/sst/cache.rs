//! Sharded LRU block cache.
//!
//! Caches parsed [`Block`]s keyed by `(table_id, block_offset)`. Sharding
//! by key hash keeps lock hold times short; each shard is one
//! [`Lru`], charged each block's size.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use p2kvs_util::lru::Lru;
use p2kvs_util::sync::Mutex;

use super::block::Block;

const SHARDS: usize = 8;

/// Cache key: table id + offset of the block within the table file.
pub type CacheKey = (u64, u64);

/// A thread-safe sharded LRU cache of parsed blocks.
pub struct BlockCache {
    shards: Vec<Mutex<Lru<CacheKey, Arc<Block>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl BlockCache {
    /// Creates a cache with `capacity` bytes total.
    pub fn new(capacity: usize) -> BlockCache {
        BlockCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Lru::new(capacity / SHARDS)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Lru<CacheKey, Arc<Block>>> {
        let h = key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key.1;
        &self.shards[(h as usize) % SHARDS]
    }

    /// Looks up a block, refreshing its recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Block>> {
        let got = self.shard(key).lock().get(key).cloned();
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Inserts a block (possibly evicting older ones).
    pub fn insert(&self, key: CacheKey, block: Arc<Block>) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let charge = block.size();
        self.shard(&key).lock().insert(key, block, charge);
    }

    /// Drops every block of table `table_id` (a table file being
    /// deleted): a cached block holds the buffer it was read into, which
    /// may be the whole file's.
    pub fn erase_table(&self, table_id: u64) {
        for shard in &self.shards {
            shard.lock().retain(|key, _| key.0 != table_id);
        }
    }

    /// Approximate resident bytes.
    pub fn usage(&self) -> usize {
        self.shards.iter().map(|s| s.lock().usage()).sum()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Blocks inserted so far.
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::block::BlockBuilder;
    use crate::types::{make_internal_key, ValueType};

    fn block_of_size(seed: u64, approx: usize) -> Arc<Block> {
        let mut b = BlockBuilder::new(16);
        let mut i = 0u64;
        while b.size_estimate() < approx {
            let key =
                make_internal_key(format!("k{seed:04}-{i:08}").as_bytes(), 1, ValueType::Value);
            b.add(&key, &[0u8; 64]);
            i += 1;
        }
        Arc::new(Block::new(Arc::new(b.finish().to_vec())).unwrap())
    }

    #[test]
    fn hit_and_miss() {
        let cache = BlockCache::new(1 << 20);
        let blk = block_of_size(1, 1024);
        assert!(cache.get(&(1, 0)).is_none());
        cache.insert((1, 0), blk.clone());
        let got = cache.get(&(1, 0)).unwrap();
        assert_eq!(got.size(), blk.size());
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn eviction_respects_capacity() {
        let cache = BlockCache::new(64 * 1024);
        for i in 0..200u64 {
            cache.insert((i, 0), block_of_size(i, 4096));
        }
        // Per-shard capacity is 8 KiB; usage must be bounded near capacity.
        assert!(cache.usage() <= 96 * 1024, "usage {}", cache.usage());
        // Recently inserted entries survive.
        assert!(cache.get(&(199, 0)).is_some() || cache.get(&(198, 0)).is_some());
    }

    #[test]
    fn lru_prefers_recent_entries() {
        // Repeatedly touch one key while inserting others; the touched key
        // should survive.
        let cache = BlockCache::new(160 * 1024);
        cache.insert((42, 0), block_of_size(42, 4096));
        for i in 0..500u64 {
            let _ = cache.get(&(42, 0));
            cache.insert((1000 + i, 0), block_of_size(i, 4096));
        }
        assert!(cache.get(&(42, 0)).is_some(), "hot key was evicted");
    }

    #[test]
    fn reinsert_replaces_charge() {
        let cache = BlockCache::new(1 << 20);
        cache.insert((7, 7), block_of_size(1, 8192));
        let before = cache.usage();
        cache.insert((7, 7), block_of_size(2, 8192));
        let after = cache.usage();
        assert!(after <= before + 9000, "charge leaked: {before} -> {after}");
    }

    #[test]
    fn erase_table_drops_only_that_tables_blocks() {
        let cache = BlockCache::new(1 << 20);
        for offset in 0..20u64 {
            cache.insert((3, offset * 4096), block_of_size(offset, 2048));
            cache.insert((4, offset * 4096), block_of_size(offset, 2048));
        }
        let before = cache.usage();
        cache.erase_table(3);
        assert_eq!(cache.usage(), before / 2);
        for offset in 0..20u64 {
            assert!(cache.get(&(3, offset * 4096)).is_none());
            assert!(cache.get(&(4, offset * 4096)).is_some());
        }
        // The erased blocks' recency entries are skipped, not evicted twice.
        for i in 0..600u64 {
            cache.insert((5, i), block_of_size(i, 2048));
        }
        assert!(cache.usage() <= 1 << 20);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(BlockCache::new(256 * 1024));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..300u64 {
                        let key = (i % 50, t);
                        if cache.get(&key).is_none() {
                            cache.insert(key, block_of_size(i, 2048));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.usage() <= 300 * 1024);
    }
}

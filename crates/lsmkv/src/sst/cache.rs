//! Sharded LRU block cache.
//!
//! Caches parsed [`Block`]s keyed by `(table_id, block_offset)`. Sharding
//! by key hash keeps lock hold times short; within a shard a generation
//! queue implements LRU with lazy eviction (stale queue entries are skipped
//! when they resurface).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use p2kvs_util::sync::Mutex;

use super::block::Block;

const SHARDS: usize = 8;

/// Cache key: table id + offset of the block within the table file.
pub type CacheKey = (u64, u64);

struct Entry {
    block: Arc<Block>,
    charge: usize,
    gen: u64,
}

struct Shard {
    map: HashMap<CacheKey, Entry>,
    /// Recency queue of (key, gen); entries with stale gens are skipped.
    queue: VecDeque<(CacheKey, u64)>,
    usage: usize,
    capacity: usize,
    next_gen: u64,
}

impl Shard {
    fn touch(&mut self, key: CacheKey) -> Option<Arc<Block>> {
        // Split borrow: bump the generation first.
        let gen = self.next_gen;
        let entry = self.map.get_mut(&key)?;
        self.next_gen += 1;
        entry.gen = gen;
        let block = entry.block.clone();
        self.queue.push_back((key, gen));
        self.compact_queue();
        Some(block)
    }

    fn insert(&mut self, key: CacheKey, block: Arc<Block>) {
        let charge = block.size();
        let gen = self.next_gen;
        self.next_gen += 1;
        if let Some(old) = self.map.insert(key, Entry { block, charge, gen }) {
            self.usage -= old.charge;
        }
        self.usage += charge;
        self.queue.push_back((key, gen));
        self.evict();
    }

    fn evict(&mut self) {
        while self.usage > self.capacity {
            let Some((key, gen)) = self.queue.pop_front() else {
                return;
            };
            let stale = self.map.get(&key).map(|e| e.gen != gen).unwrap_or(true);
            if stale {
                continue;
            }
            if let Some(entry) = self.map.remove(&key) {
                self.usage -= entry.charge;
            }
        }
    }

    /// Bounds queue growth caused by repeated touches.
    fn compact_queue(&mut self) {
        if self.queue.len() > self.map.len() * 4 + 16 {
            let map = &self.map;
            self.queue
                .retain(|(key, gen)| map.get(key).map(|e| e.gen == *gen).unwrap_or(false));
        }
    }
}

/// A thread-safe sharded LRU cache of parsed blocks.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl BlockCache {
    /// Creates a cache with `capacity` bytes total.
    pub fn new(capacity: usize) -> BlockCache {
        let per_shard = capacity / SHARDS;
        BlockCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        queue: VecDeque::new(),
                        usage: 0,
                        capacity: per_shard,
                        next_gen: 0,
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let h = key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key.1;
        &self.shards[(h as usize) % SHARDS]
    }

    /// Looks up a block, refreshing its recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Block>> {
        let got = self.shard(key).lock().touch(*key);
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
        self.shard(&key).lock().insert(key, block);
    }

    /// Drops every block of table `table_id` (a table file being
    /// deleted): a cached block holds the buffer it was read into, which
    /// may be the whole file's.
    pub fn erase_table(&self, table_id: u64) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let mut freed = 0;
            shard.map.retain(|key, entry| {
                let keep = key.0 != table_id;
                if !keep {
                    freed += entry.charge;
                }
                keep
            });
            shard.usage -= freed;
        }
    }

    /// Approximate resident bytes.
    pub fn usage(&self) -> usize {
        self.shards.iter().map(|s| s.lock().usage).sum()
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
        // Single-shard-sized cache exercise: repeatedly touch one key while
        // inserting others; the touched key should survive.
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

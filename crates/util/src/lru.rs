//! Charge-bounded LRU cache.
//!
//! One mechanism for every engine cache: lsmkv's block-cache shards,
//! KVell's item cache and WiredTiger's page cache ([`ByteLru`]). Every
//! entry carries a charge its inserter states; the cache holds at most
//! `capacity` of charge. Recency is tracked with a generation queue and
//! lazy eviction (a queue entry whose generation is no longer its key's
//! is skipped when it resurfaces); the structure is not internally
//! synchronized — wrap it in a mutex or give each worker its own.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// An LRU of owned byte strings charged `key.len() + value.len()`.
pub type ByteLru = Lru<Vec<u8>, Vec<u8>>;

/// One resident entry.
struct Slot<V> {
    value: V,
    charge: usize,
    /// Generation of the entry's newest queue position.
    gen: u64,
}

/// An LRU bounded by the summed charge of its entries.
pub struct Lru<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Recency queue of (key, gen); entries with stale gens are skipped.
    queue: VecDeque<(K, u64)>,
    usage: usize,
    capacity: usize,
    gen: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// Creates a cache holding at most `capacity` of charge (0 disables it).
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            map: HashMap::new(),
            queue: VecDeque::new(),
            usage: 0,
            capacity,
            gen: 0,
        }
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if self.queue.len() > self.map.len() * 4 + 16 {
            // Bounds queue growth from repeated touches.
            let map = &self.map;
            self.queue
                .retain(|(k, g)| map.get::<K>(k).is_some_and(|s| s.gen == *g));
        }
        self.gen += 1;
        let slot = self.map.get_mut(key)?;
        slot.gen = self.gen;
        self.queue.push_back((key.to_owned(), self.gen));
        Some(&slot.value)
    }

    /// Inserts `key -> value` charged `charge`, replacing any entry of
    /// `key` and evicting least-recently-used entries as needed.
    pub fn insert(&mut self, key: K, value: V, charge: usize) {
        if self.capacity == 0 {
            return;
        }
        self.gen += 1;
        let gen = self.gen;
        self.queue.push_back((key.clone(), gen));
        let slot = Slot { value, charge, gen };
        if let Some(old) = self.map.insert(key, slot) {
            self.usage -= old.charge;
        }
        self.usage += charge;
        while self.usage > self.capacity {
            let Some((k, g)) = self.queue.pop_front() else {
                break;
            };
            if self.map.get(&k).is_some_and(|s| s.gen == g) {
                self.remove(&k);
            }
        }
    }

    /// Removes `key` if present.
    pub fn remove<Q>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(slot) = self.map.remove(key) {
            self.usage -= slot.charge;
        }
    }

    /// Keeps only the entries for which `keep` holds, freeing the charge
    /// of every entry it drops. Their queue entries go stale.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let mut freed = 0;
        self.map.retain(|k, slot| {
            let kept = keep(k, &slot.value);
            if !kept {
                freed += slot.charge;
            }
            kept
        });
        self.usage -= freed;
    }

    /// Current resident charge.
    pub fn usage(&self) -> usize {
        self.usage
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl ByteLru {
    /// Inserts copies of `key` and `value`, charged their summed length.
    pub fn insert_bytes(&mut self, key: &[u8], value: &[u8]) {
        self.insert(key.to_vec(), value.to_vec(), key.len() + value.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_usage() {
        let mut c = ByteLru::new(1024);
        assert!(c.get(b"a".as_slice()).is_none());
        c.insert_bytes(b"a", b"1111");
        assert_eq!(c.get(b"a".as_slice()).unwrap(), b"1111");
        assert_eq!(c.usage(), 5);
        c.remove(b"a".as_slice());
        assert!(c.get(b"a".as_slice()).is_none());
        assert_eq!(c.usage(), 0);
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut c = ByteLru::new(100);
        for i in 0..50u32 {
            c.insert_bytes(format!("key{i:02}").as_bytes(), &[0u8; 10]);
        }
        assert!(c.usage() <= 100);
        assert!(c.len() <= 7);
        // Charges are the inserter's: 200 entries of 4 KiB against 64 KiB.
        let mut c = Lru::new(64 << 10);
        for i in 0..200u64 {
            c.insert((i, 0u64), i, 4096);
        }
        assert_eq!(c.usage(), 64 << 10);
        assert_eq!(c.len(), 16);
        // The most recent inserts survive, the oldest went.
        assert_eq!(c.get(&(199, 0)), Some(&199));
        assert!(c.get(&(183, 0)).is_none());
    }

    #[test]
    fn recently_used_survive() {
        let mut c = ByteLru::new(60);
        c.insert_bytes(b"hot", &[1u8; 10]);
        for i in 0..100u32 {
            let _ = c.get(b"hot".as_slice());
            c.insert_bytes(format!("x{i:03}").as_bytes(), &[0u8; 10]);
        }
        assert!(c.get(b"hot".as_slice()).is_some(), "hot entry evicted");
    }

    #[test]
    fn reinsert_updates_value_and_usage() {
        let mut c = ByteLru::new(1024);
        c.insert_bytes(b"k", &[0u8; 100]);
        c.insert_bytes(b"k", &[1u8; 10]);
        assert_eq!(c.get(b"k".as_slice()).unwrap(), &[1u8; 10]);
        assert_eq!(c.usage(), 11);
        // A replaced entry's stale queue position evicts nothing when it
        // resurfaces: the newer entry stays until its own turn.
        let mut c = Lru::new(3);
        c.insert('a', 1, 1);
        c.insert('b', 2, 1);
        c.insert('a', 3, 1);
        c.insert('c', 4, 1);
        c.insert('d', 5, 1);
        assert_eq!(c.get(&'a'), Some(&3));
        assert_eq!(c.get(&'b'), None);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ByteLru::new(0);
        c.insert_bytes(b"k", b"v");
        assert!(c.get(b"k".as_slice()).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn retain_frees_the_charge_of_every_entry_it_drops() {
        let mut c = Lru::new(1 << 20);
        for offset in 0..20u64 {
            c.insert((3u64, offset), offset, 100 + offset as usize);
            c.insert((4u64, offset), offset, 100);
        }
        c.retain(|&(table, _), _| table != 3);
        assert_eq!((c.usage(), c.len()), (20 * 100, 20));
        assert!((0..20).all(|o| c.get(&(3, o)).is_none() && c.get(&(4, o)).is_some()));
        // The dropped entries' queue positions are skipped, not evicted
        // twice: filling past capacity still ends at most at capacity.
        for i in 0..600u64 {
            c.insert((5, i), i, 2048);
        }
        assert!(c.usage() <= 1 << 20);
        c.retain(|_, _| false);
        assert_eq!((c.usage(), c.len()), (0, 0));
    }
}

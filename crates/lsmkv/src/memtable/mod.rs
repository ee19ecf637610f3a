//! The in-memory write buffer.
//!
//! A [`MemTable`] wraps the concurrent skiplist with the engine's entry
//! encoding, a whole-key filter that answers most lookups of absent keys
//! without walking the list, point lookups honoring snapshot sequence
//! numbers, and an iterator adapter used by flushes and merged reads.

pub mod arena;
mod filter;
pub mod skiplist;

use std::sync::Arc;

use p2kvs_util::coding::put_varint32;

use crate::iterator::InternalIterator;
use crate::sst::BloomPolicy;
use crate::types::{
    make_internal_key, seq_and_type, user_key, SequenceNumber, ValueType, VALUE_TYPE_FOR_SEEK,
};
use arena::Arena;
use filter::KeyFilter;
use skiplist::{entry_internal_key, entry_value, SkipIter, SkipList};

/// Outcome of a MemTable point lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum MemGet {
    /// The key is live with this value.
    Found(Vec<u8>),
    /// The key was deleted at or before the snapshot.
    Deleted,
    /// The MemTable has no visible entry for the key.
    NotFound,
}

/// An in-memory, sorted write buffer.
pub struct MemTable {
    list: SkipList,
    arena: Arc<Arena>,
    /// Every key ever added, tombstones included.
    filter: KeyFilter,
}

impl Default for MemTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MemTable {
    /// Creates an empty MemTable whose filter is sized for the
    /// `rocksdb_like` budget of 4 MiB.
    pub fn new() -> MemTable {
        Self::with_budget(4 << 20)
    }

    /// Creates an empty MemTable that will be flushed at about
    /// `memtable_size` bytes; its filter takes 1/64 of that on top.
    pub(crate) fn with_budget(memtable_size: usize) -> MemTable {
        let arena = Arc::new(Arena::new());
        MemTable {
            list: SkipList::new(arena.clone()),
            arena,
            filter: KeyFilter::for_memtable(memtable_size),
        }
    }

    /// Inserts `(user_key, seq, kind, value)`.
    ///
    /// Safe to call from multiple threads concurrently (the paper's
    /// "concurrent MemTable"); the caller serializes when emulating the
    /// vanilla single-writer MemTable.
    pub fn add(&self, seq: SequenceNumber, kind: ValueType, key: &[u8], value: &[u8]) {
        // The key's filter bits are set before its entry is linked, so a
        // visible entry always passes the filter. A reader only asks for
        // entries at or below a sequence it loaded from `visible_seq` with
        // Acquire, and a write group stores that sequence with Release
        // only after every insert of the group has returned (the
        // concurrent inserters hand over through `GroupSync` first):
        // these bits happen-before the reader's probe, and since bits are
        // only ever added, the probe sees them. The same publication lets
        // a flush read a switched-out memtable (`wait_published`).
        self.filter.add(BloomPolicy::hash(key));
        let mut entry = Vec::with_capacity(key.len() + value.len() + 16);
        put_varint32(&mut entry, (key.len() + 8) as u32);
        crate::types::append_internal_key(&mut entry, key, seq, kind);
        put_varint32(&mut entry, value.len() as u32);
        entry.extend_from_slice(value);
        self.list.insert(&entry);
    }

    /// Whether a key whose [`BloomPolicy::hash`] is `hash` may be in the
    /// table; `false` means no version of it is.
    pub(crate) fn may_contain(&self, hash: u32) -> bool {
        self.filter.may_contain(hash)
    }

    /// Looks up `key` as of sequence `snapshot`; a key the filter rules
    /// out is not searched for.
    pub fn get(&self, key: &[u8], snapshot: SequenceNumber) -> MemGet {
        if !self.may_contain(BloomPolicy::hash(key)) {
            return MemGet::NotFound;
        }
        self.search(key, snapshot)
    }

    /// [`MemTable::get`] without the filter: walks the skiplist. For
    /// callers that probed [`MemTable::may_contain`] already.
    pub(crate) fn search(&self, key: &[u8], snapshot: SequenceNumber) -> MemGet {
        let lookup = make_internal_key(key, snapshot, VALUE_TYPE_FOR_SEEK);
        match self.list.seek(&lookup) {
            None => MemGet::NotFound,
            Some(entry) => {
                let ikey = entry_internal_key(entry);
                if user_key(ikey) != key {
                    return MemGet::NotFound;
                }
                match seq_and_type(ikey).1 {
                    ValueType::Value => MemGet::Found(entry_value(entry).to_vec()),
                    ValueType::Deletion => MemGet::Deleted,
                }
            }
        }
    }

    /// Approximate bytes of memory held.
    pub fn approximate_memory_usage(&self) -> usize {
        self.arena.allocated_bytes()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// An iterator over internal entries (used by flush and merged reads).
    pub fn iter(self: &Arc<Self>) -> MemTableIterator {
        // SAFETY-adjacent note: the iterator clones the Arc so skiplist
        // nodes outlive it.
        MemTableIterator {
            _mem: self.clone(),
            iter: {
                // SAFETY: we extend the borrow of `list` to 'static inside
                // the iterator; the `_mem` Arc guarantees the list (and its
                // arena) outlive `iter`, and `SkipIter` never exposes
                // references beyond its own lifetime parameter.
                let list: &'static SkipList = unsafe { std::mem::transmute(&self.list) };
                list.iter()
            },
            init: false,
        }
    }
}

/// Owning iterator over a MemTable's internal entries.
pub struct MemTableIterator {
    _mem: Arc<MemTable>,
    iter: SkipIter<'static>,
    init: bool,
}

impl InternalIterator for MemTableIterator {
    fn valid(&self) -> bool {
        self.init && self.iter.valid()
    }

    fn seek_to_first(&mut self) {
        self.iter.seek_to_first();
        self.init = true;
    }

    fn seek(&mut self, target: &[u8]) {
        self.iter.seek(target);
        self.init = true;
    }

    fn next(&mut self) {
        self.iter.next();
    }

    fn key(&self) -> &[u8] {
        entry_internal_key(self.iter.entry())
    }

    fn value(&self) -> &[u8] {
        entry_value(self.iter.entry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_latest_visible() {
        let m = MemTable::new();
        m.add(1, ValueType::Value, b"k", b"v1");
        m.add(2, ValueType::Value, b"k", b"v2");
        assert_eq!(m.get(b"k", 10), MemGet::Found(b"v2".to_vec()));
        // Snapshot at seq 1 sees the old value.
        assert_eq!(m.get(b"k", 1), MemGet::Found(b"v1".to_vec()));
        assert_eq!(m.get(b"nope", 10), MemGet::NotFound);
    }

    #[test]
    fn deletion_shadows_value() {
        let m = MemTable::new();
        m.add(1, ValueType::Value, b"k", b"v");
        m.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(m.get(b"k", 10), MemGet::Deleted);
        assert_eq!(m.get(b"k", 1), MemGet::Found(b"v".to_vec()));
    }

    #[test]
    fn snapshot_before_any_write_sees_nothing() {
        let m = MemTable::new();
        m.add(5, ValueType::Value, b"k", b"v");
        assert_eq!(m.get(b"k", 4), MemGet::NotFound);
    }

    #[test]
    fn iterator_yields_sorted_internal_entries() {
        let m = Arc::new(MemTable::new());
        m.add(3, ValueType::Value, b"b", b"2");
        m.add(1, ValueType::Value, b"a", b"1");
        m.add(2, ValueType::Deletion, b"c", b"");
        let mut it = m.iter();
        assert!(!it.valid());
        it.seek_to_first();
        let mut seen = Vec::new();
        while it.valid() {
            seen.push((user_key(it.key()).to_vec(), it.value().to_vec()));
            it.next();
        }
        assert_eq!(
            seen,
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec()),
                (b"c".to_vec(), b"".to_vec()),
            ]
        );
    }

    #[test]
    fn iterator_seek() {
        let m = Arc::new(MemTable::new());
        for (i, k) in [b"aa", b"bb", b"cc", b"dd"].iter().enumerate() {
            m.add(i as u64 + 1, ValueType::Value, *k, b"v");
        }
        let mut it = m.iter();
        it.seek(&make_internal_key(
            b"bb",
            u64::MAX >> 8,
            VALUE_TYPE_FOR_SEEK,
        ));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"bb");
        it.seek(&make_internal_key(
            b"zz",
            u64::MAX >> 8,
            VALUE_TYPE_FOR_SEEK,
        ));
        assert!(!it.valid());
    }

    #[test]
    fn iterator_outlives_external_arc() {
        let m = Arc::new(MemTable::new());
        m.add(1, ValueType::Value, b"x", b"y");
        let mut it = m.iter();
        drop(m);
        it.seek_to_first();
        assert!(it.valid());
        assert_eq!(it.value(), b"y");
    }

    #[test]
    fn memory_usage_grows() {
        let m = MemTable::new();
        let before = m.approximate_memory_usage();
        for i in 0..100u64 {
            m.add(
                i + 1,
                ValueType::Value,
                format!("key{i}").as_bytes(),
                &[0u8; 100],
            );
        }
        assert!(m.approximate_memory_usage() > before);
        assert_eq!(m.len(), 100);
    }

    /// A key of the benchmark's shape: `user` and 16 hex digits, 20 bytes.
    fn bench_key(id: u64) -> Vec<u8> {
        format!("user{:016x}", p2kvs_util::hash::mix64(id)).into_bytes()
    }

    #[test]
    fn the_filter_rejects_no_added_key_and_few_absent_ones() {
        // Fill a 1 MiB memtable with 20 B keys and 128 B values, the
        // benchmark's records, about a tenth of them tombstones.
        let m = MemTable::with_budget(1 << 20);
        let mut added = std::collections::HashSet::new();
        let mut id = 0u64;
        while m.approximate_memory_usage() < 1 << 20 {
            let key = bench_key(id);
            if id % 10 == 9 {
                m.add(id + 1, ValueType::Deletion, &key, b"");
            } else {
                m.add(id + 1, ValueType::Value, &key, &[7u8; 128]);
            }
            added.insert(key);
            id += 1;
        }
        for key in &added {
            assert!(m.may_contain(BloomPolicy::hash(key)), "{key:?} rejected");
            assert_ne!(m.get(key, u64::MAX >> 8), MemGet::NotFound);
        }
        let mut rng = p2kvs_util::rng::Rng::new(43);
        let (mut probes, mut passed) = (0, 0);
        while probes < 100_000 {
            let key = bench_key(rng.next_u64());
            if added.contains(&key) {
                continue;
            }
            probes += 1;
            passed += usize::from(m.may_contain(BloomPolicy::hash(&key)));
            assert_eq!(m.get(&key, u64::MAX >> 8), MemGet::NotFound);
        }
        // Over a million such probes, 0.21 % pass.
        assert!(
            passed <= probes / 100,
            "{passed} of {probes} absent keys passed"
        );
    }

    #[test]
    fn a_search_and_a_filtered_get_agree() {
        let m = MemTable::with_budget(4 << 10);
        for i in 0..500u64 {
            let kind = if i % 3 == 0 {
                ValueType::Deletion
            } else {
                ValueType::Value
            };
            m.add(i + 1, kind, &bench_key(i), b"v");
        }
        // 500 keys in an 8-word filter: most absent keys pass it.
        for i in 0..1000u64 {
            let key = bench_key(i);
            for snapshot in [1, 250, u64::MAX >> 8] {
                assert_eq!(
                    m.get(&key, snapshot),
                    m.search(&key, snapshot),
                    "{i}@{snapshot}"
                );
            }
        }
    }

    #[test]
    fn concurrent_adds_are_all_visible() {
        let m = Arc::new(MemTable::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        let seq = t * 1000 + i + 1;
                        m.add(
                            seq,
                            ValueType::Value,
                            format!("t{t}-{i:05}").as_bytes(),
                            b"v",
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 4000);
        for t in 0..4u64 {
            for i in (0..1000u64).step_by(97) {
                assert_eq!(
                    m.get(format!("t{t}-{i:05}").as_bytes(), u64::MAX >> 8),
                    MemGet::Found(b"v".to_vec())
                );
            }
        }
    }
}

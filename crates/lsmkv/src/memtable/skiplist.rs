//! Concurrent, insert-only skiplist (RocksDB `InlineSkipList` style).
//!
//! Nodes live in an [`Arena`]; they are never unlinked or freed, which is
//! what makes lock-free reads sound: any pointer a reader observes stays
//! valid until the whole MemTable is dropped. Inserts link nodes level by
//! level with CAS, retrying a level on contention. This is the data
//! structure whose shared-case synchronization cost the paper measures as
//! the "MemTable lock" component (Fig 6) — with `p2kvs` giving each worker
//! its own skiplist, that cost disappears.
//!
//! Keys are *entries*: `varint32 klen | internal_key | varint32 vlen |
//! value`, ordered by [`internal_cmp`] on the internal-key portion. Sequence
//! numbers make keys unique, so duplicate insertion cannot occur.

use std::cmp::Ordering as CmpOrdering;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use p2kvs_util::coding::get_varint32;

use super::arena::Arena;
use crate::types::internal_cmp;

/// Maximum tower height.
const MAX_HEIGHT: usize = 12;
/// 1-in-`BRANCHING` chance of growing a level.
const BRANCHING: u32 = 4;

/// Extracts the internal key from an encoded entry.
#[inline]
pub fn entry_internal_key(entry: &[u8]) -> &[u8] {
    let (klen, used) = get_varint32(entry).expect("corrupt memtable entry");
    &entry[used..used + klen as usize]
}

/// Extracts the value from an encoded entry.
#[inline]
pub fn entry_value(entry: &[u8]) -> &[u8] {
    let (klen, used) = get_varint32(entry).expect("corrupt memtable entry");
    let rest = &entry[used + klen as usize..];
    let (vlen, vused) = get_varint32(rest).expect("corrupt memtable entry");
    &rest[vused..vused + vlen as usize]
}

#[repr(C)]
struct Node {
    entry_ptr: *const u8,
    entry_len: u32,
    height: u16,
    // Tower of `height` AtomicPtr<Node> follows immediately after.
}

impl Node {
    /// # Safety
    ///
    /// `node` must point to a node allocated by [`SkipList::new_node`] and
    /// `level < node.height`.
    #[inline]
    unsafe fn tower(node: *mut Node, level: usize) -> &'static AtomicPtr<Node> {
        debug_assert!(level < (*node).height as usize);
        let base = (node as *mut u8).add(std::mem::size_of::<Node>()) as *mut AtomicPtr<Node>;
        &*base.add(level)
    }

    /// # Safety
    ///
    /// `node` must be a valid, fully initialized non-head node.
    #[inline]
    unsafe fn entry<'a>(node: *mut Node) -> &'a [u8] {
        std::slice::from_raw_parts((*node).entry_ptr, (*node).entry_len as usize)
    }

    /// # Safety
    ///
    /// As for [`Node::entry`].
    #[inline]
    unsafe fn key<'a>(node: *mut Node) -> &'a [u8] {
        entry_internal_key(Node::entry(node))
    }
}

/// The concurrent skiplist.
pub struct SkipList {
    arena: Arc<Arena>,
    head: *mut Node,
    max_height: AtomicUsize,
    len: AtomicUsize,
    seed: AtomicUsize,
}

// SAFETY: nodes are immutable after publication except for their atomic
// towers; all cross-thread traffic goes through atomics with
// acquire/release ordering, and node memory is owned by the arena.
unsafe impl Send for SkipList {}
unsafe impl Sync for SkipList {}

impl SkipList {
    /// Creates an empty list over `arena`.
    pub fn new(arena: Arc<Arena>) -> SkipList {
        let list = SkipList {
            head: ptr::null_mut(),
            arena,
            max_height: AtomicUsize::new(1),
            len: AtomicUsize::new(0),
            seed: AtomicUsize::new(0x9e3779b9),
        };
        let head = list.new_node(&[], MAX_HEIGHT);
        // SAFETY: `head` was just allocated with height MAX_HEIGHT.
        unsafe {
            for level in 0..MAX_HEIGHT {
                Node::tower(head, level).store(ptr::null_mut(), Ordering::Relaxed);
            }
        }
        SkipList { head, ..list }
    }

    /// Number of entries inserted.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn new_node(&self, entry: &[u8], height: usize) -> *mut Node {
        let tower_bytes = height * std::mem::size_of::<AtomicPtr<Node>>();
        let total = std::mem::size_of::<Node>() + tower_bytes;
        let mem = self.arena.alloc(total, std::mem::align_of::<Node>());
        let entry_ptr = if entry.is_empty() {
            ptr::NonNull::dangling().as_ptr() as *const u8
        } else {
            self.arena.alloc_bytes(entry).as_ptr() as *const u8
        };
        let node = mem.as_ptr() as *mut Node;
        // SAFETY: `node` points at `total` freshly allocated zeroed bytes
        // sized and aligned for a Node plus its tower; no other thread can
        // see it before we publish it via CAS.
        unsafe {
            ptr::write(
                node,
                Node {
                    entry_ptr,
                    entry_len: entry.len() as u32,
                    height: height as u16,
                },
            );
            for level in 0..height {
                Node::tower(node, level).store(ptr::null_mut(), Ordering::Relaxed);
            }
        }
        node
    }

    fn random_height(&self) -> usize {
        // Xorshift over a shared seed; contention-tolerant (races only
        // perturb randomness).
        let mut s = self.seed.load(Ordering::Relaxed);
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.seed.store(s, Ordering::Relaxed);
        let mut height = 1;
        let mut v = s as u32;
        while height < MAX_HEIGHT && v.is_multiple_of(BRANCHING) {
            height += 1;
            v /= BRANCHING;
        }
        height
    }

    /// Compares `node`'s key with `key`; head sorts before everything.
    ///
    /// # Safety
    ///
    /// `node` must be a valid node pointer from this list (possibly head).
    #[inline]
    unsafe fn cmp_node(&self, node: *mut Node, key: &[u8]) -> CmpOrdering {
        if node == self.head {
            CmpOrdering::Less
        } else {
            internal_cmp(Node::key(node), key)
        }
    }

    /// Finds `(prev, next)` around `key` at `level`, starting from `start`
    /// (whose key must be `< key` or be the head).
    fn find_splice_for_level(
        &self,
        key: &[u8],
        mut start: *mut Node,
        level: usize,
    ) -> (*mut Node, *mut Node) {
        loop {
            // SAFETY: `start` is head or a published node; towers of
            // published nodes are valid for `level < height`, which holds
            // because we only descend within heights we observed.
            let next = unsafe { Node::tower(start, level).load(Ordering::Acquire) };
            // SAFETY: `next` is null or a fully initialized published node.
            let go_right =
                !next.is_null() && unsafe { self.cmp_node(next, key) } == CmpOrdering::Less;
            if go_right {
                start = next;
            } else {
                return (start, next);
            }
        }
    }

    /// Inserts an encoded entry. The internal key inside `entry` must be
    /// unique (guaranteed by unique sequence numbers).
    pub fn insert(&self, entry: &[u8]) {
        let key = entry_internal_key(entry);
        let height = self.random_height();
        let mut max_h = self.max_height.load(Ordering::Relaxed);
        while height > max_h {
            match self.max_height.compare_exchange_weak(
                max_h,
                height,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => max_h = actual,
            }
        }

        let node = self.new_node(entry, height);
        let mut prev = [self.head; MAX_HEIGHT];
        let mut next = [ptr::null_mut::<Node>(); MAX_HEIGHT];
        // Top-down search to fill the splice.
        {
            let mut before = self.head;
            let mut level = self.max_height.load(Ordering::Relaxed).max(height);
            while level > 0 {
                let l = level - 1;
                let (p, n) = self.find_splice_for_level(key, before, l);
                prev[l] = p;
                next[l] = n;
                before = p;
                level -= 1;
            }
        }

        for level in 0..height {
            loop {
                // SAFETY: `node` has `height` tower slots; `level < height`.
                unsafe {
                    Node::tower(node, level).store(next[level], Ordering::Relaxed);
                }
                // SAFETY: `prev[level]` is head or a published node whose
                // height exceeds `level` (it was found at this level).
                let cas = unsafe {
                    Node::tower(prev[level], level).compare_exchange(
                        next[level],
                        node,
                        Ordering::Release,
                        Ordering::Relaxed,
                    )
                };
                if cas.is_ok() {
                    break;
                }
                // Lost a race: recompute the splice at this level from the
                // last known predecessor (still strictly before `key`).
                let (p, n) = self.find_splice_for_level(key, prev[level], level);
                prev[level] = p;
                next[level] = n;
            }
        }
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// First node with key `>= key`, or null.
    fn find_greater_or_equal(&self, key: &[u8]) -> *mut Node {
        let mut node = self.head;
        let mut level = self.max_height.load(Ordering::Relaxed);
        loop {
            let l = level - 1;
            let (p, n) = self.find_splice_for_level(key, node, l);
            node = p;
            if level == 1 {
                return n;
            }
            level -= 1;
        }
    }

    /// Entry of the first element `>= key` (by internal-key order).
    pub fn seek(&self, key: &[u8]) -> Option<&[u8]> {
        let node = self.find_greater_or_equal(key);
        if node.is_null() {
            None
        } else {
            // SAFETY: non-null nodes returned by the search are published
            // and outlive `self` via the arena.
            Some(unsafe { Node::entry(node) })
        }
    }

    /// Forward iterator over entries in key order.
    pub fn iter(&self) -> SkipIter<'_> {
        SkipIter {
            list: self,
            node: ptr::null_mut(),
        }
    }
}

/// Forward-only cursor over a [`SkipList`].
pub struct SkipIter<'a> {
    list: &'a SkipList,
    node: *mut Node,
}

// SAFETY: the cursor only dereferences published, immutable nodes whose
// memory is owned by the list's arena; moving the cursor across threads is
// as safe as sharing the list itself (which is `Sync`).
unsafe impl Send for SkipIter<'_> {}

impl<'a> SkipIter<'a> {
    /// Positions at the first entry.
    pub fn seek_to_first(&mut self) {
        // SAFETY: head is always valid with MAX_HEIGHT tower slots.
        self.node = unsafe { Node::tower(self.list.head, 0).load(Ordering::Acquire) };
    }

    /// Positions at the first entry with key `>= key`.
    pub fn seek(&mut self, key: &[u8]) {
        self.node = self.list.find_greater_or_equal(key);
    }

    /// Whether the cursor points at an entry.
    pub fn valid(&self) -> bool {
        !self.node.is_null()
    }

    /// Advances to the next entry.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not valid.
    pub fn next(&mut self) {
        assert!(self.valid(), "next() on invalid iterator");
        // SAFETY: `self.node` is a published node (valid() checked).
        self.node = unsafe { Node::tower(self.node, 0).load(Ordering::Acquire) };
    }

    /// The current encoded entry.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not valid.
    pub fn entry(&self) -> &'a [u8] {
        assert!(self.valid(), "entry() on invalid iterator");
        // SAFETY: published node; entry bytes live in the arena borrowed
        // for 'a.
        unsafe { Node::entry(self.node) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};
    use p2kvs_util::coding::put_varint32;

    fn encode_entry(user_key: &[u8], seq: u64, value: &[u8]) -> Vec<u8> {
        let ikey = make_internal_key(user_key, seq, ValueType::Value);
        let mut e = Vec::new();
        put_varint32(&mut e, ikey.len() as u32);
        e.extend_from_slice(&ikey);
        put_varint32(&mut e, value.len() as u32);
        e.extend_from_slice(value);
        e
    }

    fn new_list() -> SkipList {
        SkipList::new(Arc::new(Arena::new()))
    }

    #[test]
    fn empty_list() {
        let list = new_list();
        assert!(list.is_empty());
        let mut it = list.iter();
        it.seek_to_first();
        assert!(!it.valid());
        assert!(list
            .seek(&make_internal_key(b"a", 1, ValueType::Value))
            .is_none());
    }

    #[test]
    fn insert_and_seek() {
        let list = new_list();
        for (i, k) in [b"banana", b"apple!", b"cherry"].iter().enumerate() {
            list.insert(&encode_entry(*k, i as u64 + 1, b"v"));
        }
        assert_eq!(list.len(), 3);
        let e = list
            .seek(&make_internal_key(
                b"apple!",
                u64::MAX >> 8,
                ValueType::Value,
            ))
            .unwrap();
        assert_eq!(crate::types::user_key(entry_internal_key(e)), b"apple!");
        // Seek past everything.
        assert!(list
            .seek(&make_internal_key(b"zzz", 1, ValueType::Value))
            .is_none());
    }

    #[test]
    fn iteration_is_sorted() {
        let list = new_list();
        let mut keys: Vec<String> = (0..500)
            .map(|i| format!("key{:05}", (i * 7919) % 500))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            list.insert(&encode_entry(k.as_bytes(), i as u64 + 1, b"x"));
        }
        keys.sort();
        let mut it = list.iter();
        it.seek_to_first();
        let mut got = Vec::new();
        while it.valid() {
            let uk = crate::types::user_key(entry_internal_key(it.entry())).to_vec();
            got.push(String::from_utf8(uk).unwrap());
            it.next();
        }
        assert_eq!(got, keys);
    }

    #[test]
    fn same_user_key_orders_newest_first() {
        let list = new_list();
        list.insert(&encode_entry(b"k", 5, b"old"));
        list.insert(&encode_entry(b"k", 9, b"new"));
        let mut it = list.iter();
        it.seek_to_first();
        assert_eq!(entry_value(it.entry()), b"new");
        it.next();
        assert_eq!(entry_value(it.entry()), b"old");
    }

    #[test]
    fn values_roundtrip() {
        let list = new_list();
        list.insert(&encode_entry(b"a", 1, b""));
        list.insert(&encode_entry(b"b", 2, &vec![0xcd; 4096]));
        let mut it = list.iter();
        it.seek_to_first();
        assert_eq!(entry_value(it.entry()), b"");
        it.next();
        assert_eq!(entry_value(it.entry()), &vec![0xcd; 4096][..]);
    }

    #[test]
    fn concurrent_inserts_preserve_all_entries() {
        let arena = Arc::new(Arena::new());
        let list = Arc::new(SkipList::new(arena));
        const THREADS: u64 = 8;
        const PER: u64 = 2000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let list = list.clone();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        let key = format!("k{:08}", i * THREADS + t);
                        let seq = t * PER + i + 1;
                        list.insert(&encode_entry(key.as_bytes(), seq, b"v"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(list.len(), (THREADS * PER) as usize);
        // Full scan must see every key exactly once, in order.
        let mut it = list.iter();
        it.seek_to_first();
        let mut count = 0u64;
        let mut last: Option<Vec<u8>> = None;
        while it.valid() {
            let uk = crate::types::user_key(entry_internal_key(it.entry())).to_vec();
            if let Some(prev) = &last {
                assert!(*prev < uk, "unsorted: {prev:?} !< {uk:?}");
            }
            last = Some(uk);
            count += 1;
            it.next();
        }
        assert_eq!(count, THREADS * PER);
    }

    #[test]
    fn readers_run_during_writes() {
        let list = Arc::new(SkipList::new(Arc::new(Arena::new())));
        let writer = {
            let list = list.clone();
            std::thread::spawn(move || {
                for i in 0..5000u64 {
                    list.insert(&encode_entry(format!("w{i:06}").as_bytes(), i + 1, b"v"));
                }
            })
        };
        // Concurrent readers continuously scan; they must never see
        // out-of-order or torn entries.
        for _ in 0..50 {
            let mut it = list.iter();
            it.seek_to_first();
            let mut last: Option<Vec<u8>> = None;
            while it.valid() {
                let uk = crate::types::user_key(entry_internal_key(it.entry())).to_vec();
                if let Some(prev) = &last {
                    assert!(*prev < uk);
                }
                last = Some(uk);
                it.next();
            }
        }
        writer.join().unwrap();
    }
}

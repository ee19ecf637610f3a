//! SST data/index blocks with prefix compression and restart points.
//!
//! Entry encoding (LevelDB format):
//!
//! ```text
//! shared: varint | non_shared: varint | value_len: varint
//! key_delta: non_shared bytes | value: value_len bytes
//! ```
//!
//! Every `restart_interval` entries the full key is stored and its offset
//! recorded in the restart array, enabling binary search:
//!
//! ```text
//! entries... | restart_offsets: fixed32 × n | n: fixed32
//! ```

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use p2kvs_util::coding::{get_fixed32, get_varint32, put_fixed32, put_varint32};

use crate::error::{Error, Result};
use crate::types::internal_cmp;

/// Builds blocks, one after another, in one reused buffer.
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    counter: usize,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    /// Creates a builder restarting prefix compression every
    /// `restart_interval` entries.
    pub fn new(restart_interval: usize) -> BlockBuilder {
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            restart_interval: restart_interval.max(1),
            counter: 0,
            last_key: Vec::new(),
            entries: 0,
        }
    }

    /// Adds an entry; keys must arrive in strictly increasing internal-key
    /// order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(
            self.entries == 0 || internal_cmp(&self.last_key, key) == Ordering::Less,
            "unsorted block insertion"
        );
        let shared = if self.counter < self.restart_interval {
            self.last_key
                .iter()
                .zip(key.iter())
                .take_while(|(a, b)| a == b)
                .count()
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.counter = 0;
            0
        };
        put_varint32(&mut self.buf, shared as u32);
        put_varint32(&mut self.buf, (key.len() - shared) as u32);
        put_varint32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.counter += 1;
        self.entries += 1;
    }

    /// Serializes the block into the builder's buffer and returns it; the
    /// bytes and [`BlockBuilder::last_key`] hold until
    /// [`BlockBuilder::reset`].
    pub fn finish(&mut self) -> &[u8] {
        for r in &self.restarts {
            put_fixed32(&mut self.buf, *r);
        }
        put_fixed32(&mut self.buf, self.restarts.len() as u32);
        &self.buf
    }

    /// Starts the next block, keeping the allocations of the last one.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.restarts.truncate(1);
        self.counter = 0;
        self.last_key.clear();
        self.entries = 0;
    }

    /// Estimated serialized size so far.
    pub fn size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    /// Number of entries added.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Whether no entries were added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The last key added (empty before the first add).
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }
}

/// A parsed, immutable block.
pub struct Block {
    /// The buffer the block lies in: its own, or a readahead window it
    /// shares with its neighbours.
    data: Arc<Vec<u8>>,
    /// Offset of the first entry.
    start: usize,
    /// Offset of the restart array.
    restarts_off: usize,
    num_restarts: usize,
}

impl Block {
    /// Parses a serialized block.
    pub fn new(data: Arc<Vec<u8>>) -> Result<Block> {
        let len = data.len();
        Block::within(data, 0..len)
    }

    /// Parses the serialized block that occupies `range` of `data`.
    pub fn within(data: Arc<Vec<u8>>, range: Range<usize>) -> Result<Block> {
        let block = &data[range.clone()];
        if block.len() < 4 {
            return Err(Error::corruption("block too small"));
        }
        let num_restarts = get_fixed32(&block[block.len() - 4..]) as usize;
        let needed = 4 + num_restarts * 4;
        if block.len() < needed || num_restarts == 0 {
            return Err(Error::corruption("bad restart array"));
        }
        Ok(Block {
            start: range.start,
            restarts_off: range.end - needed,
            data,
            num_restarts,
        })
    }

    /// Offset of restart point `i`'s entry.
    fn restart_point(&self, i: usize) -> usize {
        self.start + get_fixed32(&self.data[self.restarts_off + i * 4..]) as usize
    }

    /// An iterator over the block's entries.
    pub fn iter(self: &Arc<Self>) -> BlockIter {
        BlockIter {
            block: self.clone(),
            pos: usize::MAX,
            key: Vec::new(),
            val_range: (0, 0),
            next_pos: self.start,
        }
    }

    /// Serialized bytes (for cache charging).
    pub fn size(&self) -> usize {
        self.restarts_off + 4 + self.num_restarts * 4 - self.start
    }
}

/// Cursor over a [`Block`].
pub struct BlockIter {
    block: Arc<Block>,
    /// Offset of the current entry; `usize::MAX` = invalid.
    pos: usize,
    key: Vec<u8>,
    val_range: (usize, usize),
    /// Offset of the next entry.
    next_pos: usize,
}

impl BlockIter {
    /// Whether the cursor points at an entry.
    pub fn valid(&self) -> bool {
        self.pos != usize::MAX
    }

    /// Positions at the first entry (invalid if block has none).
    pub fn seek_to_first(&mut self) {
        self.key.clear();
        self.next_pos = self.block.start;
        self.advance();
    }

    /// Positions at the first entry with key `>= target` (internal order).
    pub fn seek(&mut self, target: &[u8]) {
        // Binary search the restart array for the last restart whose key is
        // < target.
        let (mut lo, mut hi) = (0usize, self.block.num_restarts - 1);
        while lo < hi {
            let mid = (lo + hi + 1) / 2;
            if internal_cmp(self.restart_key(mid), target) == Ordering::Less {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        self.key.clear();
        self.next_pos = self.block.restart_point(lo);
        self.advance();
        while self.valid() && internal_cmp(&self.key, target) == Ordering::Less {
            self.next();
        }
    }

    /// Full key stored at restart point `i`.
    fn restart_key(&self, i: usize) -> &[u8] {
        let mut off = self.block.restart_point(i);
        let data = &self.block.data[..self.block.restarts_off];
        let (_shared, used) = get_varint32(&data[off..]).expect("corrupt restart entry");
        off += used;
        let (non_shared, used) = get_varint32(&data[off..]).expect("corrupt restart entry");
        off += used;
        let (_vlen, used) = get_varint32(&data[off..]).expect("corrupt restart entry");
        off += used;
        &data[off..off + non_shared as usize]
    }

    /// Decodes the entry at `next_pos` into the cursor state.
    fn advance(&mut self) {
        let data = &self.block.data[..self.block.restarts_off];
        if self.next_pos >= data.len() {
            self.pos = usize::MAX;
            return;
        }
        self.pos = self.next_pos;
        let mut off = self.pos;
        let (shared, used) = get_varint32(&data[off..]).expect("corrupt block entry");
        off += used;
        let (non_shared, used) = get_varint32(&data[off..]).expect("corrupt block entry");
        off += used;
        let (vlen, used) = get_varint32(&data[off..]).expect("corrupt block entry");
        off += used;
        self.key.truncate(shared as usize);
        self.key
            .extend_from_slice(&data[off..off + non_shared as usize]);
        off += non_shared as usize;
        self.val_range = (off, off + vlen as usize);
        self.next_pos = off + vlen as usize;
    }

    /// Advances to the next entry. Requires `valid()`.
    pub fn next(&mut self) {
        assert!(self.valid(), "next() on invalid block iterator");
        self.advance();
    }

    /// Current key. Requires `valid()`.
    pub fn key(&self) -> &[u8] {
        assert!(self.valid());
        &self.key
    }

    /// Current value. Requires `valid()`.
    pub fn value(&self) -> &[u8] {
        assert!(self.valid());
        &self.block.data[self.val_range.0..self.val_range.1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, user_key, ValueType};

    fn ik(k: &str, seq: u64) -> Vec<u8> {
        make_internal_key(k.as_bytes(), seq, ValueType::Value)
    }

    fn build(entries: &[(Vec<u8>, Vec<u8>)], restart: usize) -> Arc<Block> {
        let mut b = BlockBuilder::new(restart);
        for (k, v) in entries {
            b.add(k, v);
        }
        Arc::new(Block::new(Arc::new(b.finish().to_vec())).unwrap())
    }

    fn sample(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| (ik(&format!("key{i:06}"), 1), format!("value{i}").into_bytes()))
            .collect()
    }

    #[test]
    fn roundtrip_various_restart_intervals() {
        let entries = sample(100);
        for restart in [1usize, 2, 16, 1000] {
            let block = build(&entries, restart);
            let mut it = block.iter();
            it.seek_to_first();
            for (k, v) in &entries {
                assert!(it.valid());
                assert_eq!(it.key(), k.as_slice());
                assert_eq!(it.value(), v.as_slice());
                it.next();
            }
            assert!(!it.valid());
        }
    }

    #[test]
    fn seek_exact_and_between() {
        let entries = sample(50);
        let block = build(&entries, 4);
        let mut it = block.iter();
        // Exact key.
        it.seek(&ik("key000025", u64::MAX >> 8));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key000025");
        // Between keys: lands on the next one.
        it.seek(&ik("key000025x", u64::MAX >> 8));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key000026");
        // Before all.
        it.seek(&ik("a", u64::MAX >> 8));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key000000");
        // Past all.
        it.seek(&ik("zzz", u64::MAX >> 8));
        assert!(!it.valid());
    }

    #[test]
    fn empty_values_and_shared_prefixes() {
        let entries = vec![
            (ik("aaaa", 1), Vec::new()),
            (ik("aaab", 1), b"v".to_vec()),
            (ik("aabb", 1), Vec::new()),
        ];
        let block = build(&entries, 16);
        let mut it = block.iter();
        it.seek_to_first();
        assert_eq!(it.value(), b"");
        it.next();
        assert_eq!(it.value(), b"v");
        it.next();
        assert_eq!(user_key(it.key()), b"aabb");
    }

    #[test]
    fn single_entry_block() {
        let entries = vec![(ik("only", 9), b"one".to_vec())];
        let block = build(&entries, 16);
        let mut it = block.iter();
        it.seek(&ik("only", u64::MAX >> 8));
        assert!(it.valid());
        assert_eq!(it.value(), b"one");
    }

    #[test]
    fn corrupt_blocks_rejected() {
        assert!(Block::new(Arc::new(vec![])).is_err());
        assert!(Block::new(Arc::new(vec![0, 0, 0])).is_err());
        // num_restarts = 0.
        assert!(Block::new(Arc::new(vec![0, 0, 0, 0])).is_err());
        // num_restarts larger than the data.
        assert!(Block::new(Arc::new(vec![0xff, 0xff, 0xff, 0x7f])).is_err());
    }

    #[test]
    fn size_estimate_tracks_finish() {
        let entries = sample(64);
        let mut b = BlockBuilder::new(8);
        for (k, v) in &entries {
            b.add(k, v);
        }
        let estimate = b.size_estimate();
        let finished = b.finish().len();
        assert_eq!(estimate, finished);
    }

    #[test]
    fn same_user_key_multiple_seqs() {
        // Internal order: seq descending.
        let entries = vec![
            (ik("k", 9), b"new".to_vec()),
            (ik("k", 5), b"mid".to_vec()),
            (ik("k", 1), b"old".to_vec()),
        ];
        let block = build(&entries, 2);
        let mut it = block.iter();
        // Snapshot seek at seq 6 must land on seq-5 entry.
        it.seek(&ik("k", 6));
        assert!(it.valid());
        assert_eq!(it.value(), b"mid");
    }
}

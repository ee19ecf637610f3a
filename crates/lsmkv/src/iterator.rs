//! Internal iterator trait and the merging iterator.
//!
//! Internal iterators walk *internal* entries — `(user_key, seq, type)`
//! keys with raw values — in internal-key order. User-visible iteration
//! (deduplication, tombstone filtering, snapshot visibility) is layered on
//! top in `db::DbIterator`. Iteration is forward-only throughout the
//! engine: the paper's RANGE/SCAN operations are forward scans.

use std::cmp::Ordering;

use crate::error::Result;
use crate::types::internal_cmp;

/// A forward-only cursor over internal entries.
pub trait InternalIterator: Send {
    /// Whether the cursor points at an entry.
    fn valid(&self) -> bool;

    /// First error the iterator ran into, if any. An iterator that hits a
    /// read error simply becomes invalid — indistinguishable from a clean
    /// end of stream — so any consumer that drains an iterator to make a
    /// durable decision (compaction rewrites, scans) MUST check `status`
    /// after its loop, or a transient read error silently truncates data.
    fn status(&self) -> Result<()> {
        Ok(())
    }

    /// Positions at the first entry.
    fn seek_to_first(&mut self);

    /// Positions at the first entry with internal key `>= target`.
    fn seek(&mut self, target: &[u8]);

    /// Advances to the next entry. Requires `valid()`.
    fn next(&mut self);

    /// Current internal key. Requires `valid()`.
    fn key(&self) -> &[u8];

    /// Current value. Requires `valid()`.
    fn value(&self) -> &[u8];
}

/// An iterator over zero entries.
pub struct EmptyIterator;

impl InternalIterator for EmptyIterator {
    fn valid(&self) -> bool {
        false
    }
    fn seek_to_first(&mut self) {}
    fn seek(&mut self, _target: &[u8]) {}
    fn next(&mut self) {
        panic!("next() on empty iterator");
    }
    fn key(&self) -> &[u8] {
        panic!("key() on empty iterator");
    }
    fn value(&self) -> &[u8] {
        panic!("value() on empty iterator");
    }
}

/// Merges multiple sorted children into one sorted stream.
///
/// Children yielding equal internal keys (impossible inside one engine, but
/// tolerated) are emitted in child order. A linear min-scan is used — the
/// fan-in is small (a handful of memtables and levels), matching LevelDB's
/// own choice — and only when it can change the answer: the scan also
/// remembers the runner-up, and while the current child's keys stay below
/// the runner-up's (runs of one level's keys are the common case) the
/// current child stays current at the cost of one comparison.
pub struct MergingIterator {
    children: Vec<Box<dyn InternalIterator>>,
    current: Option<usize>,
    /// The child that comes after `current` in emission order, as of the
    /// last scan; it and every other child but `current` have not moved
    /// since. `None` when `current` is the only valid child.
    runner_up: Option<usize>,
}

impl MergingIterator {
    /// Builds a merging iterator over `children`.
    pub fn new(children: Vec<Box<dyn InternalIterator>>) -> MergingIterator {
        MergingIterator {
            children,
            current: None,
            runner_up: None,
        }
    }

    /// Whether child `a` is emitted before child `b` (both valid).
    fn before(&self, a: usize, b: usize) -> bool {
        match internal_cmp(self.children[a].key(), self.children[b].key()) {
            Ordering::Less => true,
            Ordering::Equal => a < b,
            Ordering::Greater => false,
        }
    }

    fn find_smallest(&mut self) {
        let (mut smallest, mut runner_up) = (None, None);
        for i in 0..self.children.len() {
            if !self.children[i].valid() {
                continue;
            }
            if smallest.map_or(true, |s| self.before(i, s)) {
                runner_up = smallest.replace(i);
            } else if runner_up.map_or(true, |r| self.before(i, r)) {
                runner_up = Some(i);
            }
        }
        self.current = smallest;
        self.runner_up = runner_up;
    }
}

impl InternalIterator for MergingIterator {
    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn status(&self) -> Result<()> {
        for child in &self.children {
            child.status()?;
        }
        Ok(())
    }

    fn seek_to_first(&mut self) {
        for child in &mut self.children {
            child.seek_to_first();
        }
        self.find_smallest();
    }

    fn seek(&mut self, target: &[u8]) {
        for child in &mut self.children {
            child.seek(target);
        }
        self.find_smallest();
    }

    fn next(&mut self) {
        let cur = self.current.expect("next() on invalid merging iterator");
        self.children[cur].next();
        let still_first =
            self.children[cur].valid() && self.runner_up.map_or(true, |r| self.before(cur, r));
        if !still_first {
            self.find_smallest();
        }
    }

    fn key(&self) -> &[u8] {
        self.children[self.current.expect("key() on invalid iterator")].key()
    }

    fn value(&self) -> &[u8] {
        self.children[self.current.expect("value() on invalid iterator")].value()
    }
}

/// A sorted in-memory iterator used by tests and small metadata scans.
pub struct VecIterator {
    /// `(internal_key, value)` pairs sorted by internal key.
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    pos: usize,
}

impl VecIterator {
    /// Builds an iterator; `entries` are sorted internally.
    pub fn new(mut entries: Vec<(Vec<u8>, Vec<u8>)>) -> VecIterator {
        entries.sort_by(|a, b| internal_cmp(&a.0, &b.0));
        VecIterator {
            entries,
            pos: usize::MAX,
        }
    }
}

impl InternalIterator for VecIterator {
    fn valid(&self) -> bool {
        self.pos < self.entries.len()
    }

    fn seek_to_first(&mut self) {
        self.pos = 0;
    }

    fn seek(&mut self, target: &[u8]) {
        self.pos = self
            .entries
            .partition_point(|(k, _)| internal_cmp(k, target) == Ordering::Less);
    }

    fn next(&mut self) {
        assert!(self.valid());
        self.pos += 1;
    }

    fn key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }

    fn value(&self) -> &[u8] {
        &self.entries[self.pos].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, user_key, ValueType};

    fn ik(k: &[u8], seq: u64) -> Vec<u8> {
        make_internal_key(k, seq, ValueType::Value)
    }

    fn drain(it: &mut dyn InternalIterator) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while it.valid() {
            out.push(user_key(it.key()).to_vec());
            it.next();
        }
        out
    }

    #[test]
    fn empty_children() {
        let mut m = MergingIterator::new(vec![Box::new(EmptyIterator), Box::new(EmptyIterator)]);
        m.seek_to_first();
        assert!(!m.valid());
        m.seek(&ik(b"a", 1));
        assert!(!m.valid());
    }

    #[test]
    fn merge_interleaves_sorted_streams() {
        let a = VecIterator::new(vec![(ik(b"a", 1), b"1".to_vec()), (ik(b"c", 1), b"3".to_vec())]);
        let b = VecIterator::new(vec![(ik(b"b", 1), b"2".to_vec()), (ik(b"d", 1), b"4".to_vec())]);
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b)]);
        m.seek_to_first();
        assert_eq!(
            drain(&mut m),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn merge_respects_seq_ordering_within_key() {
        // Same user key in two children: newer (higher seq) must win order.
        let a = VecIterator::new(vec![(ik(b"k", 5), b"old".to_vec())]);
        let b = VecIterator::new(vec![(ik(b"k", 9), b"new".to_vec())]);
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b)]);
        m.seek_to_first();
        assert!(m.valid());
        assert_eq!(m.value(), b"new");
        m.next();
        assert_eq!(m.value(), b"old");
        m.next();
        assert!(!m.valid());
    }

    #[test]
    fn merge_seek_lands_on_lower_bound() {
        let a = VecIterator::new(vec![(ik(b"apple", 1), vec![]), (ik(b"melon", 1), vec![])]);
        let b = VecIterator::new(vec![(ik(b"banana", 1), vec![])]);
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b)]);
        m.seek(&make_internal_key(b"b", u64::MAX >> 8, ValueType::Value));
        assert!(m.valid());
        assert_eq!(user_key(m.key()), b"banana");
        assert_eq!(drain(&mut m), vec![b"banana".to_vec(), b"melon".to_vec()]);
    }

    /// The merge rescans its children only when the current one's key
    /// passes the runner-up's: runs of any length from one child, children
    /// that run out, and equal keys (child order) must all come out as a
    /// full sort does.
    #[test]
    fn merge_of_long_runs_matches_a_sort() {
        // Child c holds the keys of every run whose number is c mod 4; run
        // lengths cycle through 1, 2, 7 and 40. Child 3 runs out early.
        let mut children: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); 4];
        let mut n = 0u32;
        for run in 0..60usize {
            let child = run % 4;
            if child == 3 && run > 20 {
                continue;
            }
            for _ in 0..[1, 2, 7, 40][(run / 4) % 4] {
                children[child].push((ik(format!("k{n:06}").as_bytes(), 1), vec![child as u8]));
                n += 1;
            }
        }
        // The same internal key in children 0 and 2.
        for child in [2, 0] {
            children[child].push((ik(b"k000100x", 1), vec![child as u8]));
        }
        let mut expect: Vec<(Vec<u8>, Vec<u8>)> = children.concat();
        expect.sort_by(|a, b| internal_cmp(&a.0, &b.0).then(a.1.cmp(&b.1)));
        let mut m = MergingIterator::new(
            children
                .into_iter()
                .map(|c| Box::new(VecIterator::new(c)) as Box<dyn InternalIterator>)
                .collect(),
        );
        for start in [0, 1, 57, 101, expect.len() - 1] {
            if start == 0 {
                m.seek_to_first();
            } else {
                m.seek(&expect[start].0);
            }
            let mut got = Vec::new();
            while m.valid() {
                got.push((m.key().to_vec(), m.value().to_vec()));
                m.next();
            }
            // A seek lands on the first of two equal keys.
            let from = expect.iter().position(|e| e.0 == expect[start].0).unwrap();
            assert_eq!(got, expect[from..], "from entry {start}");
        }
    }

    #[test]
    fn vec_iterator_sorts_input() {
        let mut v = VecIterator::new(vec![
            (ik(b"z", 1), vec![]),
            (ik(b"a", 1), vec![]),
            (ik(b"m", 1), vec![]),
        ]);
        v.seek_to_first();
        assert_eq!(drain(&mut v), vec![b"a".to_vec(), b"m".to_vec(), b"z".to_vec()]);
    }
}

//! User-facing database iterator.
//!
//! Wraps a [`MergingIterator`] over the memtables and every on-disk level,
//! applying snapshot visibility, per-key deduplication (newest visible
//! version wins) and tombstone filtering. Forward-only, matching the
//! paper's RANGE/SCAN semantics.

use crate::iterator::{InternalIterator, MergingIterator};
use crate::types::{
    make_internal_key, seq_and_type, user_key, SequenceNumber, ValueType, VALUE_TYPE_FOR_SEEK,
};

/// Iterator over live user keys and values.
pub struct DbIterator {
    inner: MergingIterator,
    seq: SequenceNumber,
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
    valid: bool,
    /// Keeps the version (and thus its table files) alive against GC for
    /// the iterator's lifetime.
    _pin: Option<std::sync::Arc<crate::version::Version>>,
}

impl DbIterator {
    /// Builds an iterator at sequence `seq` over merged `children`.
    pub(crate) fn new(children: Vec<Box<dyn InternalIterator>>, seq: SequenceNumber) -> DbIterator {
        DbIterator {
            inner: MergingIterator::new(children),
            seq,
            key_buf: Vec::new(),
            val_buf: Vec::new(),
            valid: false,
            _pin: None,
        }
    }

    /// Like [`DbIterator::new`], additionally pinning `version` so its
    /// files cannot be garbage-collected while the iterator lives.
    pub(crate) fn new_pinned(
        children: Vec<Box<dyn InternalIterator>>,
        seq: SequenceNumber,
        version: std::sync::Arc<crate::version::Version>,
    ) -> DbIterator {
        DbIterator {
            _pin: Some(version),
            ..Self::new(children, seq)
        }
    }

    /// Whether the iterator points at a live entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// First read error any child iterator ran into. A child that errors
    /// goes invalid, which otherwise just looks like its data ended:
    /// callers draining the iterator must check this afterwards or a
    /// transient read error silently truncates their results.
    pub fn status(&self) -> crate::error::Result<()> {
        self.inner.status()
    }

    /// Positions at the first live user key.
    pub fn seek_to_first(&mut self) {
        self.inner.seek_to_first();
        self.advance_to_visible(None);
    }

    /// Positions at the first live user key `>= key`.
    pub fn seek(&mut self, key: &[u8]) {
        self.inner
            .seek(&make_internal_key(key, self.seq, VALUE_TYPE_FOR_SEEK));
        self.advance_to_visible(None);
    }

    /// Advances to the next live user key.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is not valid.
    pub fn next(&mut self) {
        assert!(self.valid, "next() on invalid DbIterator");
        let current = std::mem::take(&mut self.key_buf);
        self.inner.next();
        self.advance_to_visible(Some(current));
    }

    /// Current user key. Requires `valid()`.
    pub fn key(&self) -> &[u8] {
        assert!(self.valid);
        &self.key_buf
    }

    /// Current value. Requires `valid()`.
    pub fn value(&self) -> &[u8] {
        assert!(self.valid);
        &self.val_buf
    }

    /// Skips hidden sequence numbers, shadowed versions and tombstones
    /// until a live entry (or the end) is reached. `skipping` suppresses
    /// all remaining versions of one user key.
    fn advance_to_visible(&mut self, mut skipping: Option<Vec<u8>>) {
        self.valid = false;
        while self.inner.valid() {
            let ikey = self.inner.key();
            let (seq, kind) = seq_and_type(ikey);
            if seq <= self.seq {
                let ukey = user_key(ikey);
                let skip = skipping.as_deref() == Some(ukey);
                if !skip {
                    match kind {
                        ValueType::Deletion => skipping = Some(ukey.to_vec()),
                        ValueType::Value => {
                            self.key_buf.clear();
                            self.key_buf.extend_from_slice(ukey);
                            self.val_buf.clear();
                            self.val_buf.extend_from_slice(self.inner.value());
                            self.valid = true;
                            return;
                        }
                    }
                }
            }
            self.inner.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterator::VecIterator;

    fn entry(k: &str, seq: u64, kind: ValueType, v: &str) -> (Vec<u8>, Vec<u8>) {
        (
            make_internal_key(k.as_bytes(), seq, kind),
            v.as_bytes().to_vec(),
        )
    }

    fn iter_over(entries: Vec<(Vec<u8>, Vec<u8>)>, seq: u64) -> DbIterator {
        DbIterator::new(vec![Box::new(VecIterator::new(entries))], seq)
    }

    fn collect(it: &mut DbIterator) -> Vec<(String, String)> {
        let mut out = Vec::new();
        while it.valid() {
            out.push((
                String::from_utf8(it.key().to_vec()).unwrap(),
                String::from_utf8(it.value().to_vec()).unwrap(),
            ));
            it.next();
        }
        out
    }

    #[test]
    fn newest_visible_version_wins() {
        let mut it = iter_over(
            vec![
                entry("a", 3, ValueType::Value, "new"),
                entry("a", 1, ValueType::Value, "old"),
                entry("b", 2, ValueType::Value, "b2"),
            ],
            10,
        );
        it.seek_to_first();
        assert_eq!(
            collect(&mut it),
            vec![("a".into(), "new".into()), ("b".into(), "b2".into())]
        );
    }

    #[test]
    fn snapshot_hides_future_writes() {
        let mut it = iter_over(
            vec![
                entry("a", 9, ValueType::Value, "future"),
                entry("a", 2, ValueType::Value, "past"),
            ],
            5,
        );
        it.seek_to_first();
        assert_eq!(collect(&mut it), vec![("a".into(), "past".into())]);
    }

    #[test]
    fn tombstone_hides_older_versions() {
        let mut it = iter_over(
            vec![
                entry("a", 5, ValueType::Deletion, ""),
                entry("a", 2, ValueType::Value, "dead"),
                entry("b", 1, ValueType::Value, "live"),
            ],
            10,
        );
        it.seek_to_first();
        assert_eq!(collect(&mut it), vec![("b".into(), "live".into())]);
    }

    #[test]
    fn tombstone_invisible_at_earlier_snapshot() {
        let mut it = iter_over(
            vec![
                entry("a", 5, ValueType::Deletion, ""),
                entry("a", 2, ValueType::Value, "alive-at-2"),
            ],
            2,
        );
        it.seek_to_first();
        assert_eq!(collect(&mut it), vec![("a".into(), "alive-at-2".into())]);
    }

    #[test]
    fn seek_skips_dead_prefix() {
        let mut it = iter_over(
            vec![
                entry("a", 5, ValueType::Deletion, ""),
                entry("a", 2, ValueType::Value, "x"),
                entry("c", 3, ValueType::Value, "c3"),
            ],
            10,
        );
        it.seek(b"a");
        assert!(it.valid());
        assert_eq!(it.key(), b"c");
        it.seek(b"d");
        assert!(!it.valid());
    }

    #[test]
    fn empty_iterator() {
        let mut it = iter_over(vec![], 10);
        it.seek_to_first();
        assert!(!it.valid());
        it.seek(b"k");
        assert!(!it.valid());
    }

    #[test]
    fn merges_across_children() {
        let c1 = VecIterator::new(vec![
            entry("a", 8, ValueType::Value, "mem"),
            entry("c", 8, ValueType::Value, "mem-c"),
        ]);
        let c2 = VecIterator::new(vec![
            entry("a", 2, ValueType::Value, "disk"),
            entry("b", 2, ValueType::Value, "disk-b"),
        ]);
        let mut it = DbIterator::new(vec![Box::new(c1), Box::new(c2)], 10);
        it.seek_to_first();
        assert_eq!(
            collect(&mut it),
            vec![
                ("a".into(), "mem".into()),
                ("b".into(), "disk-b".into()),
                ("c".into(), "mem-c".into())
            ]
        );
    }
}

//! `WriteBatch`: the unit of atomic writes and of OBM request batching.
//!
//! Wire format (also the WAL payload):
//!
//! ```text
//! sequence: fixed64 | count: fixed32 | gsn: fixed64 | records...
//! record   := kTypeValue    varstring varstring
//!           | kTypeDeletion varstring
//! ```
//!
//! The `gsn` field is this reproduction's nonintrusive hook for the p2KVS
//! transaction layer (§4.5): WriteBatches split from one cross-instance
//! transaction carry the same Global Sequence Number, and recovery can skip
//! batches whose GSN exceeds the last committed one. Non-transactional
//! writes carry GSN 0 and are never rolled back.

use p2kvs_util::coding::{get_fixed32, get_fixed64, get_length_prefixed, put_length_prefixed};

use crate::error::{Error, Result};
use crate::types::{SequenceNumber, ValueType};

/// Byte offset layout of the header.
pub const BATCH_HEADER: usize = 8 + 4 + 8;

/// An ordered set of updates applied atomically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteBatch {
    rep: Vec<u8>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> WriteBatch {
        let mut rep = Vec::with_capacity(BATCH_HEADER + 64);
        rep.resize(BATCH_HEADER, 0);
        WriteBatch { rep }
    }

    /// Adds a key/value insertion.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.set_count(self.count() + 1);
        self.rep.push(ValueType::Value as u8);
        put_length_prefixed(&mut self.rep, key);
        put_length_prefixed(&mut self.rep, value);
    }

    /// Adds a deletion.
    pub fn delete(&mut self, key: &[u8]) {
        self.set_count(self.count() + 1);
        self.rep.push(ValueType::Deletion as u8);
        put_length_prefixed(&mut self.rep, key);
    }

    /// Removes all updates.
    pub fn clear(&mut self) {
        self.rep.truncate(0);
        self.rep.resize(BATCH_HEADER, 0);
    }

    /// Number of updates in the batch.
    pub fn count(&self) -> u32 {
        get_fixed32(&self.rep[8..12])
    }

    fn set_count(&mut self, n: u32) {
        self.rep[8..12].copy_from_slice(&n.to_le_bytes());
    }

    /// The sequence number assigned to the first update.
    pub fn sequence(&self) -> SequenceNumber {
        get_fixed64(&self.rep[..8])
    }

    /// Assigns the starting sequence number (done by the write path).
    pub fn set_sequence(&mut self, seq: SequenceNumber) {
        self.rep[..8].copy_from_slice(&seq.to_le_bytes());
    }

    /// The Global Sequence Number tag (0 = non-transactional).
    pub fn gsn(&self) -> u64 {
        get_fixed64(&self.rep[12..20])
    }

    /// Tags the batch with a Global Sequence Number.
    pub fn set_gsn(&mut self, gsn: u64) {
        self.rep[12..20].copy_from_slice(&gsn.to_le_bytes());
    }

    /// Total encoded size in bytes.
    pub fn size(&self) -> usize {
        self.rep.len()
    }

    /// Whether the batch holds no updates.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The full encoded representation (the WAL payload).
    pub fn data(&self) -> &[u8] {
        &self.rep
    }

    /// Rebuilds a batch from its encoded representation.
    pub fn from_data(data: &[u8]) -> Result<WriteBatch> {
        if data.len() < BATCH_HEADER {
            return Err(Error::corruption("write batch header truncated"));
        }
        let wb = WriteBatch { rep: data.to_vec() };
        // Validate the record stream eagerly so later iteration can't fail.
        let mut n = 0;
        for item in wb.iter() {
            item?;
            n += 1;
        }
        if n != wb.count() {
            return Err(Error::corruption(format!(
                "write batch count {} != records {}",
                wb.count(),
                n
            )));
        }
        Ok(wb)
    }

    /// Appends all updates of `other` to `self` (used by group commit and
    /// OBM merging). Sequence/GSN of `self` are preserved.
    pub fn append(&mut self, other: &WriteBatch) {
        self.set_count(self.count() + other.count());
        self.rep.extend_from_slice(&other.rep[BATCH_HEADER..]);
    }

    /// Iterates over the updates.
    pub fn iter(&self) -> BatchIter<'_> {
        BatchIter {
            rest: &self.rep[BATCH_HEADER..],
        }
    }
}

/// One decoded update.
#[derive(Debug, PartialEq, Eq)]
pub enum BatchOp<'a> {
    /// Insert `key -> value`.
    Put { key: &'a [u8], value: &'a [u8] },
    /// Delete `key`.
    Delete { key: &'a [u8] },
}

/// Iterator over a batch's updates.
pub struct BatchIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = Result<BatchOp<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let tag = self.rest[0];
        self.rest = &self.rest[1..];
        let Some((key, used)) = get_length_prefixed(self.rest) else {
            self.rest = &[];
            return Some(Err(Error::corruption("truncated batch key")));
        };
        self.rest = &self.rest[used..];
        match ValueType::from_u8(tag) {
            Some(ValueType::Value) => {
                let Some((value, used)) = get_length_prefixed(self.rest) else {
                    self.rest = &[];
                    return Some(Err(Error::corruption("truncated batch value")));
                };
                self.rest = &self.rest[used..];
                Some(Ok(BatchOp::Put { key, value }))
            }
            Some(ValueType::Deletion) => Some(Ok(BatchOp::Delete { key })),
            None => {
                self.rest = &[];
                Some(Err(Error::corruption(format!("bad batch tag {tag}"))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_iterate() {
        let mut b = WriteBatch::new();
        b.put(b"k1", b"v1");
        b.delete(b"k2");
        b.put(b"k3", b"");
        assert_eq!(b.count(), 3);
        let ops: Vec<_> = b.iter().map(|r| r.unwrap()).collect();
        assert_eq!(
            ops,
            vec![
                BatchOp::Put {
                    key: b"k1",
                    value: b"v1"
                },
                BatchOp::Delete { key: b"k2" },
                BatchOp::Put {
                    key: b"k3",
                    value: b""
                },
            ]
        );
    }

    #[test]
    fn sequence_and_gsn_fields() {
        let mut b = WriteBatch::new();
        assert_eq!(b.sequence(), 0);
        assert_eq!(b.gsn(), 0);
        b.set_sequence(12345);
        b.set_gsn(777);
        b.put(b"a", b"b");
        assert_eq!(b.sequence(), 12345);
        assert_eq!(b.gsn(), 777);
    }

    #[test]
    fn roundtrip_through_data() {
        let mut b = WriteBatch::new();
        b.set_sequence(9);
        b.put(b"alpha", b"beta");
        b.delete(b"gamma");
        let decoded = WriteBatch::from_data(b.data()).unwrap();
        assert_eq!(decoded, b);
        assert_eq!(decoded.count(), 2);
    }

    #[test]
    fn append_merges_counts() {
        let mut a = WriteBatch::new();
        a.put(b"1", b"x");
        let mut b = WriteBatch::new();
        b.put(b"2", b"y");
        b.delete(b"3");
        a.append(&b);
        assert_eq!(a.count(), 3);
        let keys: Vec<Vec<u8>> = a
            .iter()
            .map(|r| match r.unwrap() {
                BatchOp::Put { key, .. } | BatchOp::Delete { key } => key.to_vec(),
            })
            .collect();
        assert_eq!(keys, vec![b"1".to_vec(), b"2".to_vec(), b"3".to_vec()]);
    }

    #[test]
    fn clear_resets() {
        let mut b = WriteBatch::new();
        b.put(b"a", b"b");
        b.set_gsn(4);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.gsn(), 0);
        assert_eq!(b.size(), BATCH_HEADER);
    }

    #[test]
    fn corrupt_data_is_rejected() {
        assert!(WriteBatch::from_data(&[0u8; 5]).is_err());
        let mut b = WriteBatch::new();
        b.put(b"key", b"value");
        let mut data = b.data().to_vec();
        data.truncate(data.len() - 2);
        assert!(WriteBatch::from_data(&data).is_err());
        // Wrong count.
        let mut data = b.data().to_vec();
        data[8] = 5;
        assert!(WriteBatch::from_data(&data).is_err());
        // Bad tag.
        let mut data = b.data().to_vec();
        data[BATCH_HEADER] = 9;
        assert!(WriteBatch::from_data(&data).is_err());
    }
}

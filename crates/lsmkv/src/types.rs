//! Core key/sequence types and file naming.
//!
//! Internal keys follow the LevelDB/RocksDB convention: the user key
//! followed by an 8-byte trailer packing `(sequence << 8) | value_type`.
//! Internal ordering is user key ascending, then sequence *descending*, so
//! that the newest version of a key sorts first.

use std::cmp::Ordering;
use std::path::{Path, PathBuf};

use p2kvs_util::coding::{get_fixed64, put_fixed64};

/// Monotonically increasing write sequence number (56 bits usable).
pub type SequenceNumber = u64;

/// Largest representable sequence number.
pub const MAX_SEQUENCE: SequenceNumber = (1 << 56) - 1;

/// The kind of a record stored under an internal key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ValueType {
    /// A deletion tombstone.
    Deletion = 0,
    /// A value insertion.
    Value = 1,
}

impl ValueType {
    /// Decodes a tag byte.
    pub fn from_u8(v: u8) -> Option<ValueType> {
        match v {
            0 => Some(ValueType::Deletion),
            1 => Some(ValueType::Value),
            _ => None,
        }
    }
}

/// Value type used when seeking: sorts before all records of the same
/// (user_key, sequence).
pub const VALUE_TYPE_FOR_SEEK: ValueType = ValueType::Value;

/// Packs a sequence number and type into the 8-byte trailer.
#[inline]
pub fn pack_seq_type(seq: SequenceNumber, t: ValueType) -> u64 {
    debug_assert!(seq <= MAX_SEQUENCE);
    (seq << 8) | t as u64
}

/// Appends the encoded internal key `(user_key, seq, t)` to `dst`.
pub fn append_internal_key(dst: &mut Vec<u8>, user_key: &[u8], seq: SequenceNumber, t: ValueType) {
    dst.extend_from_slice(user_key);
    put_fixed64(dst, pack_seq_type(seq, t));
}

/// Builds the encoded internal key `(user_key, seq, t)`.
pub fn make_internal_key(user_key: &[u8], seq: SequenceNumber, t: ValueType) -> Vec<u8> {
    let mut v = Vec::with_capacity(user_key.len() + 8);
    append_internal_key(&mut v, user_key, seq, t);
    v
}

/// The user-key portion of an encoded internal key.
///
/// # Panics
///
/// Panics if `ikey` is shorter than the 8-byte trailer.
#[inline]
pub fn user_key(ikey: &[u8]) -> &[u8] {
    assert!(ikey.len() >= 8, "internal key too short");
    &ikey[..ikey.len() - 8]
}

/// The `(sequence, type)` trailer of an encoded internal key.
///
/// # Panics
///
/// Panics if `ikey` is shorter than the 8-byte trailer.
#[inline]
pub fn seq_and_type(ikey: &[u8]) -> (SequenceNumber, ValueType) {
    let tag = get_fixed64(&ikey[ikey.len() - 8..]);
    let t = ValueType::from_u8((tag & 0xff) as u8).unwrap_or(ValueType::Value);
    (tag >> 8, t)
}

/// Compares two encoded internal keys: user key ascending, sequence
/// descending (newer first), type descending.
#[inline]
pub fn internal_cmp(a: &[u8], b: &[u8]) -> Ordering {
    match user_key(a).cmp(user_key(b)) {
        Ordering::Equal => {
            let ta = get_fixed64(&a[a.len() - 8..]);
            let tb = get_fixed64(&b[b.len() - 8..]);
            // Descending on the packed (seq, type) word.
            tb.cmp(&ta)
        }
        other => other,
    }
}

/// Numbered file kinds inside a database directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Write-ahead log (`NNNNNN.log`).
    Wal,
    /// Sorted string table (`NNNNNN.sst`).
    Table,
    /// Version-edit log (`MANIFEST-NNNNNN`).
    Manifest,
    /// Temporary file (`NNNNNN.tmp`).
    Temp,
}

/// Builds the path of file `num` of `kind` inside `dir`.
pub fn file_path(dir: &Path, num: u64, kind: FileKind) -> PathBuf {
    let name = match kind {
        FileKind::Wal => format!("{num:06}.log"),
        FileKind::Table => format!("{num:06}.sst"),
        FileKind::Manifest => format!("MANIFEST-{num:06}"),
        FileKind::Temp => format!("{num:06}.tmp"),
    };
    dir.join(name)
}

/// Parses a database file name into its number and kind.
pub fn parse_file_name(name: &str) -> Option<(u64, FileKind)> {
    if let Some(rest) = name.strip_prefix("MANIFEST-") {
        return rest.parse().ok().map(|n| (n, FileKind::Manifest));
    }
    let (stem, ext) = name.split_once('.')?;
    let num: u64 = stem.parse().ok()?;
    match ext {
        "log" => Some((num, FileKind::Wal)),
        "sst" => Some((num, FileKind::Table)),
        "tmp" => Some((num, FileKind::Temp)),
        _ => None,
    }
}

/// Name of the pointer file holding the current manifest name.
pub const CURRENT_FILE: &str = "CURRENT";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_key_roundtrip() {
        let ik = make_internal_key(b"apple", 42, ValueType::Value);
        assert_eq!(user_key(&ik), b"apple");
        assert_eq!(seq_and_type(&ik), (42, ValueType::Value));
        let del = make_internal_key(b"", 7, ValueType::Deletion);
        assert_eq!(user_key(&del), b"");
        assert_eq!(seq_and_type(&del), (7, ValueType::Deletion));
    }

    #[test]
    fn ordering_user_key_then_seq_desc() {
        let a1 = make_internal_key(b"a", 10, ValueType::Value);
        let a2 = make_internal_key(b"a", 5, ValueType::Value);
        let b1 = make_internal_key(b"b", 1, ValueType::Value);
        assert_eq!(internal_cmp(&a1, &a2), Ordering::Less); // newer first
        assert_eq!(internal_cmp(&a2, &a1), Ordering::Greater);
        assert_eq!(internal_cmp(&a1, &b1), Ordering::Less);
        assert_eq!(internal_cmp(&a1, &a1), Ordering::Equal);
    }

    #[test]
    fn deletion_sorts_after_value_at_same_seq() {
        // Packed tag: value(1) > deletion(0), descending order puts the
        // Value first, matching LevelDB's seek semantics.
        let v = make_internal_key(b"k", 9, ValueType::Value);
        let d = make_internal_key(b"k", 9, ValueType::Deletion);
        assert_eq!(internal_cmp(&v, &d), Ordering::Less);
    }

    #[test]
    fn file_names_roundtrip() {
        let dir = Path::new("/db");
        assert_eq!(
            file_path(dir, 7, FileKind::Wal),
            Path::new("/db/000007.log")
        );
        assert_eq!(
            file_path(dir, 12, FileKind::Table),
            Path::new("/db/000012.sst")
        );
        assert_eq!(
            file_path(dir, 3, FileKind::Manifest),
            Path::new("/db/MANIFEST-000003")
        );
        assert_eq!(parse_file_name("000007.log"), Some((7, FileKind::Wal)));
        assert_eq!(parse_file_name("000012.sst"), Some((12, FileKind::Table)));
        assert_eq!(
            parse_file_name("MANIFEST-000003"),
            Some((3, FileKind::Manifest))
        );
        assert_eq!(parse_file_name("000099.tmp"), Some((99, FileKind::Temp)));
        assert_eq!(parse_file_name("CURRENT"), None);
        assert_eq!(parse_file_name("junk.xyz"), None);
        assert_eq!(parse_file_name("NaN.log"), None);
    }

    #[test]
    fn pack_unpack_boundaries() {
        let ik = make_internal_key(b"x", MAX_SEQUENCE, ValueType::Deletion);
        assert_eq!(seq_and_type(&ik), (MAX_SEQUENCE, ValueType::Deletion));
    }
}

//! Version edits: the manifest's record type.
//!
//! A [`VersionEdit`] describes one atomic change to the LSM shape: files
//! added/removed per level plus updates to the WAL number, file-number
//! counter and last sequence. Edits are appended to the `MANIFEST` using
//! the WAL record format; recovery replays them in order.

use std::sync::{Arc, OnceLock};

use p2kvs_util::coding::{
    get_length_prefixed, get_varint32, get_varint64, put_length_prefixed, put_varint32,
    put_varint64,
};

use crate::error::{Error, Result};
use crate::sst::TableReader;
use crate::version::table_cache::TableCache;

/// Metadata of one on-disk table file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMetaData {
    /// File number (names the `.sst` file).
    pub number: u64,
    /// File size in bytes.
    pub size: u64,
    /// Smallest internal key in the file.
    pub smallest: Vec<u8>,
    /// Largest internal key in the file.
    pub largest: Vec<u8>,
    /// Entry count (informational).
    pub entries: u64,
}

/// A delta applied to a [`super::Version`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VersionEdit {
    /// New WAL number: logs older than this are no longer needed.
    pub log_number: Option<u64>,
    /// High-water mark for file numbers.
    pub next_file_number: Option<u64>,
    /// Last sequence number persisted to tables.
    pub last_sequence: Option<u64>,
    /// Files added: `(level, meta)`.
    pub added: Vec<(usize, FileMetaData)>,
    /// Files removed: `(level, file_number)`.
    pub deleted: Vec<(usize, u64)>,
}

// Field tags.
const TAG_LOG_NUMBER: u32 = 1;
const TAG_NEXT_FILE: u32 = 2;
const TAG_LAST_SEQ: u32 = 3;
const TAG_ADDED: u32 = 4;
const TAG_DELETED: u32 = 5;

impl VersionEdit {
    /// Serializes the edit.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(v) = self.log_number {
            put_varint32(&mut out, TAG_LOG_NUMBER);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.next_file_number {
            put_varint32(&mut out, TAG_NEXT_FILE);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.last_sequence {
            put_varint32(&mut out, TAG_LAST_SEQ);
            put_varint64(&mut out, v);
        }
        for (level, f) in &self.added {
            put_varint32(&mut out, TAG_ADDED);
            put_varint32(&mut out, *level as u32);
            put_varint64(&mut out, f.number);
            put_varint64(&mut out, f.size);
            put_varint64(&mut out, f.entries);
            put_length_prefixed(&mut out, &f.smallest);
            put_length_prefixed(&mut out, &f.largest);
        }
        for (level, num) in &self.deleted {
            put_varint32(&mut out, TAG_DELETED);
            put_varint32(&mut out, *level as u32);
            put_varint64(&mut out, *num);
        }
        out
    }

    /// Parses an edit.
    pub fn decode(mut src: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        fn take_varint64(src: &mut &[u8]) -> Result<u64> {
            let (v, n) =
                get_varint64(src).ok_or_else(|| Error::corruption("truncated edit varint"))?;
            *src = &src[n..];
            Ok(v)
        }
        fn take_varint32(src: &mut &[u8]) -> Result<u32> {
            let (v, n) =
                get_varint32(src).ok_or_else(|| Error::corruption("truncated edit varint"))?;
            *src = &src[n..];
            Ok(v)
        }
        fn take_bytes(src: &mut &[u8]) -> Result<Vec<u8>> {
            let (b, n) =
                get_length_prefixed(src).ok_or_else(|| Error::corruption("truncated edit bytes"))?;
            let out = b.to_vec();
            *src = &src[n..];
            Ok(out)
        }
        while !src.is_empty() {
            let tag = take_varint32(&mut src)?;
            match tag {
                TAG_LOG_NUMBER => edit.log_number = Some(take_varint64(&mut src)?),
                TAG_NEXT_FILE => edit.next_file_number = Some(take_varint64(&mut src)?),
                TAG_LAST_SEQ => edit.last_sequence = Some(take_varint64(&mut src)?),
                TAG_ADDED => {
                    let level = take_varint32(&mut src)? as usize;
                    let number = take_varint64(&mut src)?;
                    let size = take_varint64(&mut src)?;
                    let entries = take_varint64(&mut src)?;
                    let smallest = take_bytes(&mut src)?;
                    let largest = take_bytes(&mut src)?;
                    edit.added.push((
                        level,
                        FileMetaData {
                            number,
                            size,
                            smallest,
                            largest,
                            entries,
                        },
                    ));
                }
                TAG_DELETED => {
                    let level = take_varint32(&mut src)? as usize;
                    let num = take_varint64(&mut src)?;
                    edit.deleted.push((level, num));
                }
                other => return Err(Error::corruption(format!("unknown edit tag {other}"))),
            }
        }
        Ok(edit)
    }
}

/// A table file as a version holds it: its metadata and, once something
/// has read from it, its open reader. A lookup walks several tables; with
/// the reader pinned here it reaches each one without the table cache's
/// lock. The pin lives as long as a version lists the file, which is as
/// long as the file may be read.
pub struct TableFile {
    meta: FileMetaData,
    reader: OnceLock<Arc<TableReader>>,
}

impl TableFile {
    /// The file's metadata.
    pub fn meta(&self) -> &FileMetaData {
        &self.meta
    }

    /// The file's reader, opened through `cache` on first use.
    pub fn reader(&self, cache: &TableCache) -> Result<&Arc<TableReader>> {
        if let Some(reader) = self.reader.get() {
            return Ok(reader);
        }
        let opened = cache.get(self.meta.number, self.meta.size)?;
        Ok(self.reader.get_or_init(|| opened))
    }
}

impl From<FileMetaData> for TableFile {
    fn from(meta: FileMetaData) -> TableFile {
        TableFile {
            meta,
            reader: OnceLock::new(),
        }
    }
}

impl std::ops::Deref for TableFile {
    type Target = FileMetaData;

    fn deref(&self) -> &FileMetaData {
        &self.meta
    }
}

impl std::fmt::Debug for TableFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.meta.fmt(f)
    }
}

/// Shared handle to a version's table file.
pub type FileRef = Arc<TableFile>;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file(n: u64) -> FileMetaData {
        FileMetaData {
            number: n,
            size: 1000 + n,
            smallest: format!("a{n}").into_bytes(),
            largest: format!("z{n}").into_bytes(),
            entries: 10 * n,
        }
    }

    #[test]
    fn empty_edit_roundtrip() {
        let e = VersionEdit::default();
        assert_eq!(VersionEdit::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn full_edit_roundtrip() {
        let mut e = VersionEdit::default();
        e.log_number = Some(12);
        e.next_file_number = Some(99);
        e.last_sequence = Some(123_456_789);
        e.added.push((0, sample_file(7)));
        e.added.push((3, sample_file(8)));
        e.deleted.push((1, 4));
        e.deleted.push((2, 5));
        assert_eq!(VersionEdit::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn truncated_edit_fails() {
        let mut e = VersionEdit::default();
        e.added.push((0, sample_file(7)));
        let enc = e.encode();
        assert!(VersionEdit::decode(&enc[..enc.len() - 3]).is_err());
    }

    #[test]
    fn unknown_tag_fails() {
        assert!(VersionEdit::decode(&[0x63]).is_err());
    }
}

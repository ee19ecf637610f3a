//! Write-ahead log: LevelDB/RocksDB record format.
//!
//! The log is a sequence of 32 KiB blocks; records are fragmented across
//! blocks with a 7-byte header per fragment:
//!
//! ```text
//! masked_crc32c: fixed32 | length: fixed16 | type: u8 (FULL/FIRST/MIDDLE/LAST)
//! ```
//!
//! A torn tail (power failure mid-record) is detected by checksum or length
//! mismatch and treated as end-of-log, exactly like LevelDB's default
//! recovery mode. Group commit lives above this layer in `db::write_queue`;
//! the writer itself just appends one payload (typically a merged
//! [`crate::WriteBatch`]) per call.

use p2kvs_storage::{SequentialFile, WritableFile};
use p2kvs_util::crc32c;

use crate::error::{Error, Result};

/// Log block size.
pub const BLOCK_SIZE: usize = 32 * 1024;
/// Fragment header size: crc(4) + len(2) + type(1).
pub const HEADER_SIZE: usize = 7;

const FULL: u8 = 1;
const FIRST: u8 = 2;
const MIDDLE: u8 = 3;
const LAST: u8 = 4;

/// Appends records to a log file.
pub struct LogWriter {
    file: Box<dyn WritableFile>,
    /// Offset within the current block.
    block_offset: usize,
    /// Bytes appended through this writer: payloads, fragment headers and
    /// block padding.
    written: u64,
}

impl LogWriter {
    /// Wraps `file`, which must be positioned at a block boundary (new or
    /// freshly truncated files always are).
    pub fn new(file: Box<dyn WritableFile>) -> LogWriter {
        LogWriter {
            file,
            block_offset: 0,
            written: 0,
        }
    }

    /// Appends one record. Data is buffered in the file; call [`flush`] or
    /// [`sync`](LogWriter::sync) per the durability policy.
    pub fn add_record(&mut self, mut payload: &[u8]) -> Result<()> {
        let mut begin = true;
        loop {
            let leftover = BLOCK_SIZE - self.block_offset;
            if leftover < HEADER_SIZE {
                // Pad the block trailer with zeros.
                if leftover > 0 {
                    self.file.append(&[0u8; HEADER_SIZE - 1][..leftover])?;
                    self.written += leftover as u64;
                }
                self.block_offset = 0;
            }
            let avail = BLOCK_SIZE - self.block_offset - HEADER_SIZE;
            let fragment_len = payload.len().min(avail);
            let end = fragment_len == payload.len();
            let kind = match (begin, end) {
                (true, true) => FULL,
                (true, false) => FIRST,
                (false, true) => LAST,
                (false, false) => MIDDLE,
            };
            self.emit(kind, &payload[..fragment_len])?;
            payload = &payload[fragment_len..];
            begin = false;
            if end {
                return Ok(());
            }
        }
    }

    fn emit(&mut self, kind: u8, fragment: &[u8]) -> Result<()> {
        let crc = crc32c::mask(crc32c::extend(crc32c::crc32c(&[kind]), fragment));
        let mut header = [0u8; HEADER_SIZE];
        header[..4].copy_from_slice(&crc.to_le_bytes());
        header[4..6].copy_from_slice(&(fragment.len() as u16).to_le_bytes());
        header[6] = kind;
        self.file.append(&header)?;
        self.file.append(fragment)?;
        self.block_offset += HEADER_SIZE + fragment.len();
        self.written += (HEADER_SIZE + fragment.len()) as u64;
        Ok(())
    }

    /// Pushes buffered bytes toward the device (no durability barrier).
    pub fn flush(&mut self) -> Result<()> {
        self.file.flush()?;
        Ok(())
    }

    /// Makes the log durable.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()?;
        Ok(())
    }

    /// Bytes this writer has appended (what the log costs the device; no
    /// lock, unlike [`LogWriter::len`]).
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Bytes appended so far.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.file.len() == 0
    }
}

/// Reads records back from a log file.
pub struct LogReader {
    file: Box<dyn SequentialFile>,
    block: Vec<u8>,
    /// Valid bytes in `block`.
    block_len: usize,
    /// Read cursor within `block`.
    pos: usize,
    /// Set when the last block read was short (EOF reached).
    at_eof: bool,
}

impl LogReader {
    /// Wraps a sequential file positioned at the start of the log.
    pub fn new(file: Box<dyn SequentialFile>) -> LogReader {
        LogReader {
            file,
            block: vec![0u8; BLOCK_SIZE],
            block_len: 0,
            pos: 0,
            at_eof: false,
        }
    }

    /// Reads the next record into `out`.
    ///
    /// Returns `Ok(false)` at end of log. A torn tail (checksum/length
    /// mismatch in the final partial record) also ends the log silently;
    /// corruption *before* the tail is still reported as an error by virtue
    /// of the checksum covering every fragment.
    pub fn read_record(&mut self, out: &mut Vec<u8>) -> Result<bool> {
        out.clear();
        let mut in_fragmented = false;
        loop {
            let Some((kind, fragment)) = self.read_fragment()? else {
                // EOF (possibly mid-record after a crash): drop partials.
                return Ok(false);
            };
            match kind {
                FULL => {
                    if in_fragmented {
                        return Err(Error::corruption("FULL record inside fragmented record"));
                    }
                    out.extend_from_slice(&fragment);
                    return Ok(true);
                }
                FIRST => {
                    if in_fragmented {
                        return Err(Error::corruption("FIRST record inside fragmented record"));
                    }
                    in_fragmented = true;
                    out.extend_from_slice(&fragment);
                }
                MIDDLE => {
                    if !in_fragmented {
                        return Err(Error::corruption("orphan MIDDLE fragment"));
                    }
                    out.extend_from_slice(&fragment);
                }
                LAST => {
                    if !in_fragmented {
                        return Err(Error::corruption("orphan LAST fragment"));
                    }
                    out.extend_from_slice(&fragment);
                    return Ok(true);
                }
                other => {
                    return Err(Error::corruption(format!("unknown fragment type {other}")));
                }
            }
        }
    }

    /// Reads one fragment; `None` means clean or torn end-of-log.
    fn read_fragment(&mut self) -> Result<Option<(u8, Vec<u8>)>> {
        loop {
            if self.block_len - self.pos < HEADER_SIZE {
                if !self.refill()? {
                    return Ok(None);
                }
                continue;
            }
            let header = &self.block[self.pos..self.pos + HEADER_SIZE];
            let stored_crc = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
            let len = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes")) as usize;
            let kind = header[6];
            if kind == 0 && len == 0 && stored_crc == 0 {
                // Block trailer padding; skip to next block.
                self.pos = self.block_len;
                continue;
            }
            if self.pos + HEADER_SIZE + len > self.block_len {
                // Truncated fragment: torn tail.
                return Ok(None);
            }
            let fragment =
                self.block[self.pos + HEADER_SIZE..self.pos + HEADER_SIZE + len].to_vec();
            let actual = crc32c::mask(crc32c::extend(crc32c::crc32c(&[kind]), &fragment));
            if actual != stored_crc {
                // Checksum failure: treat as torn tail (stop replay).
                return Ok(None);
            }
            self.pos += HEADER_SIZE + len;
            return Ok(Some((kind, fragment)));
        }
    }

    /// Loads the next block; returns false at EOF.
    fn refill(&mut self) -> Result<bool> {
        if self.at_eof {
            return Ok(false);
        }
        self.block_len = 0;
        self.pos = 0;
        while self.block_len < BLOCK_SIZE {
            let n = self.file.read(&mut self.block[self.block_len..])?;
            if n == 0 {
                self.at_eof = true;
                break;
            }
            self.block_len += n;
        }
        Ok(self.block_len >= HEADER_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2kvs_storage::{Env, MemEnv};
    use std::path::Path;

    fn roundtrip(records: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let env = MemEnv::new();
        let path = Path::new("test.log");
        let mut w = LogWriter::new(env.new_writable(path).unwrap());
        for r in records {
            w.add_record(r).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.bytes_written(), w.len(), "headers and padding counted");
        drop(w);
        let mut r = LogReader::new(env.new_sequential(path).unwrap());
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while r.read_record(&mut buf).unwrap() {
            out.push(buf.clone());
        }
        out
    }

    #[test]
    fn small_records_roundtrip() {
        let records = vec![
            b"one".to_vec(),
            b"two".to_vec(),
            Vec::new(),
            b"four".to_vec(),
        ];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn records_spanning_blocks_roundtrip() {
        let records = vec![
            vec![1u8; BLOCK_SIZE / 2],
            vec![2u8; BLOCK_SIZE + 100],
            vec![3u8; 3 * BLOCK_SIZE],
            b"tail".to_vec(),
        ];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn record_landing_exactly_on_boundary() {
        // Payload that leaves less than a header of space in the block.
        let sizes = [
            BLOCK_SIZE - HEADER_SIZE,     // exactly fills a block
            BLOCK_SIZE - HEADER_SIZE - 1, // leaves 1 byte (trailer pad)
            BLOCK_SIZE - 2 * HEADER_SIZE - 3,
        ];
        for size in sizes {
            let records = vec![vec![7u8; size], b"after".to_vec()];
            assert_eq!(roundtrip(&records), records, "size {size}");
        }
    }

    #[test]
    fn torn_tail_is_silently_dropped() {
        let env = MemEnv::new();
        let path = Path::new("torn.log");
        let mut w = LogWriter::new(env.new_writable(path).unwrap());
        w.add_record(b"complete-record").unwrap();
        w.sync().unwrap();
        w.add_record(&vec![9u8; 5000]).unwrap();
        // No sync: power failure loses the second record (partially).
        drop(w);
        env.fs().power_failure();
        let mut r = LogReader::new(env.new_sequential(path).unwrap());
        let mut buf = Vec::new();
        assert!(r.read_record(&mut buf).unwrap());
        assert_eq!(buf, b"complete-record");
        assert!(!r.read_record(&mut buf).unwrap());
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let env = MemEnv::new();
        let path = Path::new("corrupt.log");
        let mut w = LogWriter::new(env.new_writable(path).unwrap());
        w.add_record(b"first").unwrap();
        w.add_record(b"second").unwrap();
        w.sync().unwrap();
        drop(w);
        // Flip a payload byte of the second record.
        let mut data = p2kvs_storage::env::read_all(&env, path).unwrap();
        let second_payload = HEADER_SIZE + 5 + HEADER_SIZE;
        data[second_payload] ^= 0xff;
        p2kvs_storage::env::write_all(&env, path, &data).unwrap();
        let mut r = LogReader::new(env.new_sequential(path).unwrap());
        let mut buf = Vec::new();
        assert!(r.read_record(&mut buf).unwrap());
        assert_eq!(buf, b"first");
        assert!(!r.read_record(&mut buf).unwrap());
    }

    #[test]
    fn empty_log_reads_nothing() {
        let env = MemEnv::new();
        let path = Path::new("empty.log");
        p2kvs_storage::env::write_all(&env, path, b"").unwrap();
        let mut r = LogReader::new(env.new_sequential(path).unwrap());
        let mut buf = Vec::new();
        assert!(!r.read_record(&mut buf).unwrap());
    }

    #[test]
    fn many_records_roundtrip() {
        let records: Vec<Vec<u8>> = (0..2000)
            .map(|i| format!("record-{i:06}-{}", "x".repeat(i % 97)).into_bytes())
            .collect();
        assert_eq!(roundtrip(&records), records);
    }
}

//! The journal: an append-only record log that doubles as the value store.
//!
//! Record framing:
//!
//! ```text
//! total_len: u32 | crc32c: u32 | type: u8 (1 = put, 2 = delete)
//! key_len: u32 | key | value
//! ```
//!
//! `total_len` covers everything after the two length/crc words. The crc
//! covers the same span, so a torn tail after a crash is detected and
//! replay stops there, exactly like a conventional WAL.

use std::io;

use p2kvs_util::crc32c::crc32c;

/// Record type tags.
pub const TYPE_PUT: u8 = 1;
pub const TYPE_DELETE: u8 = 2;

/// Frame header bytes (`total_len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// A decoded journal record.
#[derive(Debug, PartialEq, Eq)]
pub struct Record {
    /// `TYPE_PUT` or `TYPE_DELETE`.
    pub kind: u8,
    pub key: Vec<u8>,
    pub value: Vec<u8>,
    /// Byte offset of the *value* within the journal file (valid for puts;
    /// this is what the index stores).
    pub value_offset: u64,
}

/// Encodes a record, returning the bytes and the offset of the value
/// relative to the start of the frame.
pub fn encode(kind: u8, key: &[u8], value: &[u8]) -> (Vec<u8>, u64) {
    let body_len = 1 + 4 + key.len() + value.len();
    let mut out = Vec::with_capacity(FRAME_HEADER + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc patched below
    out.push(kind);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let crc = crc32c(&out[FRAME_HEADER..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    let value_off = (FRAME_HEADER + 1 + 4 + key.len()) as u64;
    (out, value_off)
}

/// Decodes the record framed at `offset` inside `data`.
///
/// Returns `Ok(None)` on a clean or torn end, `Err` on framing garbage in
/// the middle of the log (caller decides whether that is fatal).
pub fn decode_at(data: &[u8], offset: usize) -> io::Result<Option<(Record, usize)>> {
    if offset >= data.len() {
        return Ok(None);
    }
    if data.len() - offset < FRAME_HEADER {
        return Ok(None); // Torn header.
    }
    let body_len =
        u32::from_le_bytes(data[offset..offset + 4].try_into().expect("4 bytes")) as usize;
    let stored_crc = u32::from_le_bytes(data[offset + 4..offset + 8].try_into().expect("4 bytes"));
    let body_start = offset + FRAME_HEADER;
    if body_start + body_len > data.len() {
        return Ok(None); // Torn body.
    }
    let body = &data[body_start..body_start + body_len];
    if crc32c(body) != stored_crc {
        return Ok(None); // Torn/corrupt tail: stop replay.
    }
    if body_len < 5 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "journal body too short",
        ));
    }
    let kind = body[0];
    let key_len = u32::from_le_bytes(body[1..5].try_into().expect("4 bytes")) as usize;
    if 5 + key_len > body_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "journal key overruns body",
        ));
    }
    let key = body[5..5 + key_len].to_vec();
    let value = body[5 + key_len..].to_vec();
    let record = Record {
        kind,
        key,
        value,
        value_offset: (body_start + 5 + key_len) as u64,
    };
    Ok(Some((record, FRAME_HEADER + body_len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_puts_and_deletes() {
        let (f1, voff1) = encode(TYPE_PUT, b"alpha", b"value-1");
        let (f2, _) = encode(TYPE_DELETE, b"beta", b"");
        let mut log = f1.clone();
        log.extend_from_slice(&f2);
        let (r1, used1) = decode_at(&log, 0).unwrap().unwrap();
        assert_eq!(r1.kind, TYPE_PUT);
        assert_eq!(r1.key, b"alpha");
        assert_eq!(r1.value, b"value-1");
        assert_eq!(r1.value_offset, voff1);
        assert_eq!(&log[r1.value_offset as usize..used1], b"value-1");
        let (r2, used2) = decode_at(&log, used1).unwrap().unwrap();
        assert_eq!(r2.kind, TYPE_DELETE);
        assert_eq!(r2.key, b"beta");
        assert!(decode_at(&log, used1 + used2).unwrap().is_none());
    }

    #[test]
    fn torn_tail_stops_replay() {
        let (frame, _) = encode(TYPE_PUT, b"k", b"a-longer-value");
        let torn = &frame[..frame.len() - 3];
        assert!(decode_at(torn, 0).unwrap().is_none());
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let (mut frame, _) = encode(TYPE_PUT, b"k", b"v");
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        assert!(decode_at(&frame, 0).unwrap().is_none());
    }

    #[test]
    fn empty_value_and_empty_log() {
        let (frame, _) = encode(TYPE_PUT, b"k", b"");
        let (r, _) = decode_at(&frame, 0).unwrap().unwrap();
        assert_eq!(r.value, b"");
        assert!(decode_at(&[], 0).unwrap().is_none());
    }
}

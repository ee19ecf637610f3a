//! Integer coding shared by the on-disk formats.
//!
//! All persistent formats in this workspace (WAL records, SST blocks,
//! manifests, slab headers) use little-endian fixed-width integers and
//! LEB128-style varints, mirroring the LevelDB/RocksDB wire formats.

/// Appends a little-endian `u32` to `dst`.
#[inline]
pub fn put_fixed32(dst: &mut Vec<u8>, v: u32) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64` to `dst`.
#[inline]
pub fn put_fixed64(dst: &mut Vec<u8>, v: u64) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32` from the first 4 bytes of `src`.
///
/// # Panics
///
/// Panics if `src` is shorter than 4 bytes.
#[inline]
pub fn get_fixed32(src: &[u8]) -> u32 {
    u32::from_le_bytes(src[..4].try_into().expect("short fixed32"))
}

/// Reads a little-endian `u64` from the first 8 bytes of `src`.
///
/// # Panics
///
/// Panics if `src` is shorter than 8 bytes.
#[inline]
pub fn get_fixed64(src: &[u8]) -> u64 {
    u64::from_le_bytes(src[..8].try_into().expect("short fixed64"))
}

/// Appends `v` as a varint (LEB128) to `dst`.
#[inline]
pub fn put_varint32(dst: &mut Vec<u8>, v: u32) {
    if v < 0x80 {
        dst.push(v as u8);
    } else {
        put_varint64(dst, u64::from(v));
    }
}

/// Appends `v` as a varint (LEB128) to `dst`.
pub fn put_varint64(dst: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        dst.push((v as u8) | 0x80);
        v >>= 7;
    }
    dst.push(v as u8);
}

/// Decodes a varint from the front of `src`, returning the value and the
/// number of bytes consumed, or `None` if `src` is truncated or the varint
/// overflows 64 bits.
///
/// Inlined, with the one- and two-byte cases (every length below
/// 16 384) answered before the loop: block decoding calls this from
/// another crate, and neither build uses LTO.
#[inline]
pub fn get_varint64(src: &[u8]) -> Option<(u64, usize)> {
    match *src {
        [b, ..] if b < 0x80 => Some((u64::from(b), 1)),
        [b0, b1, ..] if b1 < 0x80 => Some((u64::from(b0 & 0x7f) | u64::from(b1) << 7, 2)),
        _ => get_varint64_multibyte(src),
    }
}

/// [`get_varint64`] past its one- and two-byte fast paths.
#[inline]
fn get_varint64_multibyte(src: &[u8]) -> Option<(u64, usize)> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in src.iter().enumerate() {
        // The tenth byte holds bit 63 alone.
        if shift > 63 || (shift == 63 && b > 1) {
            return None;
        }
        result |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((result, i + 1));
        }
        shift += 7;
    }
    None
}

/// Decodes a 32-bit varint from the front of `src` (inlined, with
/// [`get_varint64`]'s one-byte fast path).
#[inline]
pub fn get_varint32(src: &[u8]) -> Option<(u32, usize)> {
    let (v, n) = get_varint64(src)?;
    u32::try_from(v).ok().map(|v| (v, n))
}

/// Appends a length-prefixed (varint) byte slice to `dst`.
pub fn put_length_prefixed(dst: &mut Vec<u8>, slice: &[u8]) {
    put_varint32(dst, slice.len() as u32);
    dst.extend_from_slice(slice);
}

/// Decodes a length-prefixed slice from the front of `src`, returning the
/// slice and the total bytes consumed.
pub fn get_length_prefixed(src: &[u8]) -> Option<(&[u8], usize)> {
    let (len, n) = get_varint32(src)?;
    let end = n.checked_add(len as usize)?;
    if end > src.len() {
        return None;
    }
    Some((&src[n..end], end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_roundtrip() {
        let mut buf = Vec::new();
        put_fixed32(&mut buf, 0xdead_beef);
        put_fixed64(&mut buf, 0x0123_4567_89ab_cdef);
        assert_eq!(get_fixed32(&buf), 0xdead_beef);
        assert_eq!(get_fixed64(&buf[4..]), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            let (decoded, used) = get_varint64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_truncated_is_none() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::MAX);
        assert!(get_varint64(&buf[..buf.len() - 1]).is_none());
        assert!(get_varint64(&[]).is_none());
    }

    /// Both sides of the one-byte fast path, the widest values, and
    /// truncated or over-long input, through every entry point.
    #[test]
    fn varint_fast_path_boundaries() {
        for v in [0u32, 0x7f, 0x80, 0x3fff, 0x4000, u32::MAX] {
            let mut buf = Vec::new();
            put_varint32(&mut buf, v);
            let mut wide = Vec::new();
            put_varint64(&mut wide, u64::from(v));
            assert_eq!(buf, wide, "{v:#x}");
            assert_eq!(buf.len() == 1, v <= 0x7f, "{v:#x}");
            assert_eq!(get_varint32(&buf), Some((v, buf.len())), "{v:#x}");
            assert_eq!(get_varint64(&buf), Some((u64::from(v), buf.len())));
            // Trailing bytes are not consumed.
            buf.push(0x01);
            assert_eq!(get_varint32(&buf), Some((v, buf.len() - 1)));
            buf.pop();
            for cut in 0..buf.len() {
                assert_eq!(get_varint32(&buf[..cut]), None, "{v:#x} cut at {cut}");
                assert_eq!(get_varint64(&buf[..cut]), None, "{v:#x} cut at {cut}");
            }
        }
        assert_eq!(get_varint32(&[0x7f]), Some((0x7f, 1)));
        assert_eq!(get_varint32(&[0x80, 0x01]), Some((0x80, 2)));
        assert_eq!(get_varint32(&[0x80]), None);
        // Both sides of the two-byte fast path: 128, 16 383 and 16 384,
        // and a two-byte input whose second byte asks for a third.
        assert_eq!(get_varint64(&[0x80, 0x01]), Some((128, 2)));
        assert_eq!(get_varint64(&[0xff, 0x7f]), Some((16_383, 2)));
        assert_eq!(get_varint64(&[0xff, 0x7f, 0x05]), Some((16_383, 2)));
        assert_eq!(get_varint64(&[0x80, 0x80, 0x01]), Some((16_384, 3)));
        assert_eq!(get_varint64(&[0x80, 0x80]), None);
        assert_eq!(get_varint32(&[0xff, 0xff]), None);
        let mut max = Vec::new();
        put_varint64(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(get_varint64(&max), Some((u64::MAX, 10)));
        assert_eq!(get_varint32(&max), None, "wider than 32 bits");
        for cut in 0..max.len() {
            assert_eq!(get_varint64(&max[..cut]), None);
        }
        // Eleven bytes, continuation set on all but the last: over-long.
        let mut overlong = [0x80u8; 11];
        overlong[10] = 0x01;
        assert_eq!(get_varint64(&overlong), None);
        assert_eq!(get_varint32(&overlong), None);
        // Ten bytes whose last carries more than bit 63: past u64::MAX.
        let mut wide = max.clone();
        wide[9] = 0x02;
        assert_eq!(get_varint64(&wide), None);
    }

    #[test]
    fn varint_overlong_is_none() {
        // 11 continuation bytes overflow a u64.
        let buf = [0xffu8; 11];
        assert!(get_varint64(&buf).is_none());
    }

    #[test]
    fn length_prefixed_roundtrip() {
        let mut buf = Vec::new();
        put_length_prefixed(&mut buf, b"key");
        put_length_prefixed(&mut buf, b"");
        put_length_prefixed(&mut buf, b"value-bytes");
        let (a, n1) = get_length_prefixed(&buf).unwrap();
        let (b, n2) = get_length_prefixed(&buf[n1..]).unwrap();
        let (c, n3) = get_length_prefixed(&buf[n1 + n2..]).unwrap();
        assert_eq!((a, b, c), (&b"key"[..], &b""[..], &b"value-bytes"[..]));
        assert_eq!(n1 + n2 + n3, buf.len());
    }

    #[test]
    fn length_prefixed_truncated_is_none() {
        let mut buf = Vec::new();
        put_length_prefixed(&mut buf, b"0123456789");
        assert!(get_length_prefixed(&buf[..5]).is_none());
    }

    #[test]
    fn varint32_rejects_64bit_values() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(get_varint32(&buf).is_none());
    }
}

//! CRC-32C (Castagnoli) checksums.
//!
//! Used to protect WAL records and SST blocks against torn writes and
//! corruption, exactly where RocksDB/LevelDB use it. On x86-64 with SSE4.2
//! the `crc32` instruction does the work (≈ 0.1 ns/byte: every block a read
//! verifies and every flushed, compacted or logged byte passes through
//! here); elsewhere a table-driven, slicing-by-4 software CRC, which is
//! also the reference the hardware path is tested against.

/// Castagnoli polynomial, reversed representation.
const POLY: u32 = 0x82f6_3b78;

/// 4 × 256-entry lookup tables for slicing-by-4.
static TABLES: [[u32; 256]; 4] = build_tables();

const fn build_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extends a running CRC-32C `crc` with `data`.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 was detected on the running CPU just above.
        return unsafe { extend_sse42(crc, data) };
    }
    extend_table(crc, data)
}

/// [`extend`] on the `crc32` instruction, eight bytes at a time.
///
/// # Safety
///
/// The running CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut wide = u64::from(!crc);
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        wide = _mm_crc32_u64(wide, word);
    }
    let mut crc = wide as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// [`extend`] in software: slicing-by-4 over [`TABLES`].
fn extend_table(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(4);
    for w in &mut chunks {
        crc ^= u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[3][(crc & 0xff) as usize]
            ^ TABLES[2][((crc >> 8) & 0xff) as usize]
            ^ TABLES[1][((crc >> 16) & 0xff) as usize]
            ^ TABLES[0][(crc >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Delta applied by [`mask`]; identical to LevelDB's masked CRCs.
const MASK_DELTA: u32 = 0xa282_ead8;

/// Masks a CRC so that storing the CRC of data that itself contains CRCs
/// does not produce degenerate values (LevelDB convention).
#[inline]
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Inverse of [`mask`].
#[inline]
pub fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / LevelDB test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46dd_794e);
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn table_path_passes_the_known_vectors() {
        assert_eq!(extend_table(0, &[0u8; 32]), 0x8a91_36aa);
        assert_eq!(extend_table(0, &[0xffu8; 32]), 0x62a8_ab43);
        assert_eq!(extend_table(0, b"123456789"), 0xe306_9283);
    }

    #[test]
    fn dispatched_path_equals_the_table_at_every_length_and_alignment() {
        // On a CPU without SSE4.2 both sides are the table and this is
        // trivially true; with it, it is the hardware path's whole proof.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..4100 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for align in 0..8 {
            for len in 0..=4100 {
                let slice = &data[align..align + len];
                let seed = (len as u32).wrapping_mul(0x0101_0101) ^ align as u32;
                assert_eq!(
                    extend(seed, slice),
                    extend_table(seed, slice),
                    "len {len} at alignment {align}"
                );
            }
        }
    }

    #[test]
    fn extend_matches_whole() {
        let data = b"hello world, this is a wal record";
        let whole = crc32c(data);
        let split = extend(crc32c(&data[..10]), &data[10..]);
        assert_eq!(whole, split);
    }

    #[test]
    fn mask_roundtrip() {
        for crc in [0u32, 1, 0xdead_beef, u32::MAX] {
            assert_eq!(unmask(mask(crc)), crc);
            assert_ne!(mask(crc), crc);
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"a small kv record payload".to_vec();
        let before = crc32c(&data);
        data[7] ^= 0x40;
        assert_ne!(before, crc32c(&data));
    }
}

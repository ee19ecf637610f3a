//! CRC-32C (Castagnoli) checksums.
//!
//! Used to protect WAL records and SST blocks against torn writes and
//! corruption, exactly where RocksDB/LevelDB use it: every block a read
//! verifies and every flushed, compacted or logged byte passes through
//! here. On x86-64 with SSE4.2 the `crc32` instruction does the work. One
//! chain of it waits out the instruction's 3-cycle latency every 8 bytes,
//! so with PCLMULQDQ as well a long input runs as three interleaved
//! streams whose CRCs are shifted into one by carry-less multiplication
//! (RocksDB's `crc32c_3way`). Elsewhere a table-driven, slicing-by-4
//! software CRC, which is also the reference the hardware paths are tested
//! against.

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
        // SAFETY: SSE4.2, and for the three streams PCLMULQDQ, were
        // detected on the running CPU.
        return unsafe {
            if data.len() >= 3 * 8 * MIN_STREAM_WORDS
                && std::arch::is_x86_feature_detected!("pclmulqdq")
            {
                extend_3way(crc, data)
            } else {
                !extend_sse42(u64::from(!crc), data)
            }
        };
    }
    extend_table(crc, data)
}

/// Most 8-byte words one of [`extend_3way`]'s streams takes per round.
#[cfg(target_arch = "x86_64")]
const STREAM_WORDS: usize = 128;

/// Fewest words per stream worth a round: below, the two shifts that
/// join the streams cost more than the chain latency they hide.
#[cfg(target_arch = "x86_64")]
const MIN_STREAM_WORDS: usize = 8;

/// `SHIFTS[m - 1]` multiplies a CRC register by `x^(64m)` mod P, i.e.
/// feeds it `8m` zero bytes (see [`shift`]): it is `x^(64m − 33)` mod P,
/// reflected like the register.
#[cfg(target_arch = "x86_64")]
static SHIFTS: [u32; STREAM_WORDS] = build_shifts();

#[cfg(target_arch = "x86_64")]
const fn build_shifts() -> [u32; STREAM_WORDS] {
    let mut t = [0u32; STREAM_WORDS];
    // x^31, reflected: bit i stands for x^(31 − i).
    let mut power = 1u32;
    let mut exp = 31;
    let mut m = 1;
    while m <= STREAM_WORDS {
        // Multiply by x until the exponent is 64m − 33.
        while exp < 64 * m - 33 {
            power = if power & 1 != 0 {
                (power >> 1) ^ POLY
            } else {
                power >> 1
            };
            exp += 1;
        }
        t[m - 1] = power;
        m += 1;
    }
    t
}

/// The CRC register `reg` after `8m` zero bytes, for `k = SHIFTS[m - 1]`:
/// the carry-less product of two 32-bit reflected polynomials is 63 bits
/// wide, and `crc32` of it from a zero register multiplies by `x^33` and
/// reduces mod P.
///
/// # Safety
///
/// The running CPU must support SSE4.2 and PCLMULQDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2,pclmulqdq")]
unsafe fn shift(reg: u64, k: u32) -> u64 {
    use std::arch::x86_64::{
        _mm_clmulepi64_si128, _mm_crc32_u64, _mm_cvtsi128_si64, _mm_cvtsi64_si128,
    };
    let product = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(reg as i64),
        _mm_cvtsi64_si128(i64::from(k)),
        0x00,
    );
    _mm_crc32_u64(0, _mm_cvtsi128_si64(product) as u64)
}

/// [`extend`] on three interleaved `crc32` chains. Each round splits up to
/// `3 × 8 ×` [`STREAM_WORDS`] bytes into three equal stripes: the first
/// continues the running register, the other two start from zero, and the
/// stripes' registers are joined by shifting over one stripe twice. What
/// is too short for a round takes the single chain.
///
/// # Safety
///
/// The running CPU must support SSE4.2 and PCLMULQDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2,pclmulqdq")]
unsafe fn extend_3way(crc: u32, mut data: &[u8]) -> u32 {
    use std::arch::x86_64::_mm_crc32_u64;
    let mut reg = u64::from(!crc);
    loop {
        let words = (data.len() / 24).min(STREAM_WORDS);
        if words < MIN_STREAM_WORDS {
            break;
        }
        let n = 8 * words;
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        let (mut a, mut b, mut c) = (reg, 0, 0);
        let stripes = data[..n]
            .chunks_exact(8)
            .zip(data[n..2 * n].chunks_exact(8))
            .zip(data[2 * n..3 * n].chunks_exact(8));
        for ((wa, wb), wc) in stripes {
            a = _mm_crc32_u64(a, word(wa));
            b = _mm_crc32_u64(b, word(wb));
            c = _mm_crc32_u64(c, word(wc));
        }
        let k = SHIFTS[words - 1];
        reg = shift(shift(a, k) ^ b, k) ^ c;
        data = &data[3 * n..];
    }
    !extend_sse42(reg, data)
}

/// The CRC register `reg` (not inverted) after `data`, on one chain of the
/// `crc32` instruction, eight bytes at a time.
///
/// # Safety
///
/// The running CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn extend_sse42(reg: u64, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut wide = reg;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        wide = _mm_crc32_u64(wide, word);
    }
    let mut crc = wide as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
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
        // trivially true; with it, it is the hardware paths' whole proof.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..(64 << 10) + 8 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        // Every length up to a 4 KiB block and then some, and lengths
        // past several full three-stream rounds, with partial rounds and
        // single-chain tails after them.
        // A full three-stream round: three stripes of 1 KiB.
        let round = 3 << 10;
        let mut lens: Vec<usize> = (0..=4100).collect();
        lens.extend([9 << 10, 64 << 10, (64 << 10) + 8]);
        for rounds in 2..=4 {
            for delta in [1, 7, 8, 23, 24, 191, 192, 193, 1000] {
                lens.extend([
                    rounds * round - delta,
                    rounds * round,
                    rounds * round + delta,
                ]);
            }
        }
        for align in 0..8 {
            for &len in &lens {
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

    /// Each shift constant feeds a register `8m` zero bytes.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn each_shift_feeds_its_count_of_zero_bytes() {
        if !(std::arch::is_x86_feature_detected!("sse4.2")
            && std::arch::is_x86_feature_detected!("pclmulqdq"))
        {
            return;
        }
        let zeros = [0u8; 8 * STREAM_WORDS];
        for m in 1..=STREAM_WORDS {
            for reg in [1u32, 0x8000_0000, 0xdead_beef, u32::MAX] {
                // The table path inverts on the way in and out.
                let fed = !extend_table(!reg, &zeros[..8 * m]);
                // SAFETY: both features were detected above.
                let shifted = unsafe { shift(u64::from(reg), SHIFTS[m - 1]) };
                assert_eq!(shifted, u64::from(fed), "{m} words from {reg:#x}");
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

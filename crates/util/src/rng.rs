//! The workspace's one pseudo-random generator: SplitMix64 over
//! [`mix64`](crate::hash::mix64).
//!
//! Seeds name schedules: `P2KVS_CRASH_SEED` / `P2KVS_BACKUP_SEED` pick the
//! crash matrix's workload and sampled sync points, and every seeded
//! differential test prints the seed of a failing case. The stream is
//! therefore part of the test suite's interface — the golden test below
//! pins it, and it is the same on every platform.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::hash::{fnv1a64, mix64};

/// A seeded stream of 64-bit values.
pub struct Rng(u64);

impl Rng {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Rng {
        Rng(mix64(seed ^ 0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform draw from `0..n` (`n > 0`), by remainder: the bias is below
    /// `n / 2^64`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw from the half-open, non-empty `range`.
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        range.start + self.below(range.end - range.start)
    }

    /// A length drawn from `len`, then that many draws of `item`.
    pub fn vec_of<T>(&mut self, len: Range<u64>, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// Uniform draw from `[0, 1)`, from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded differential test: runs `property` on `cases` inputs, each
/// drawn by `generate` from its own seed (derived from `name`, so two
/// properties with the same generator see different inputs). The first
/// case that panics fails the test with a message that names the seed and
/// prints the input, regenerated from it — enough to replay the case.
pub fn check<I: Debug>(
    name: &str,
    cases: u64,
    generate: impl Fn(&mut Rng) -> I,
    property: impl Fn(I),
) {
    let base = fnv1a64(name.as_bytes());
    for case in 0..cases {
        let seed = base.wrapping_add(case);
        let input = generate(&mut Rng::new(seed));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(input))) {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(panic without a message)");
            let input = generate(&mut Rng::new(seed));
            panic!(
                "{name}: case {case} of {cases} (seed {seed:#x}) failed: {why}\ninput: {input:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First eight outputs of `tests/src/crash.rs::Rng` at `6e5d525`, the
    /// generator this one replaced, for the two seeds CI fixes. A change
    /// here silently renames every crash schedule those seeds stand for.
    #[test]
    fn stream_matches_the_crash_harness_it_replaced() {
        let golden: [(u64, [u64; 8]); 2] = [
            (
                0xCAFE_F00D,
                [
                    0x417d_4147_6822_2069,
                    0x3b8e_35c8_b996_2dd4,
                    0x5f62_36af_e9f3_1f27,
                    0x6eb3_17b9_93c9_992a,
                    0x9a61_6562_7758_4918,
                    0x63e5_59ff_77d3_3f67,
                    0x0bc1_240d_ecca_017a,
                    0x3506_d0c1_0450_2512,
                ],
            ),
            (
                0x0BAC_CAB5,
                [
                    0xfc31_08f3_4717_fbb2,
                    0x0284_dcf2_6337_cc3c,
                    0x2d03_879e_5832_4806,
                    0x3fa6_8866_49e9_5889,
                    0xb786_7bf3_49e2_0ef4,
                    0x309e_df8b_5017_4969,
                    0xccce_49f7_c90b_1957,
                    0x5e60_0341_e957_2d06,
                ],
            ),
        ];
        for (seed, want) in golden {
            let mut rng = Rng::new(seed);
            let got: [u64; 8] = std::array::from_fn(|_| rng.next_u64());
            assert_eq!(got, want, "seed {seed:#x}");
        }
    }

    #[test]
    fn draws_stay_in_range_and_use_it() {
        let mut rng = Rng::new(7);
        for n in [1u64, 2, 7, 24, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.below(n) < n);
            }
        }
        for range in [0..1, 5..6, 5..12, 128..2048] {
            for _ in 0..200 {
                assert!(range.contains(&rng.range(range.clone())));
            }
        }
        let mut seen = [false; 7];
        let (mut lo, mut hi) = (1.0f64, 0.0f64);
        for _ in 0..2000 {
            seen[rng.below(7) as usize] = true;
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(seen.iter().all(|&s| s), "below(7) never drew some value");
        assert!(lo < 0.01 && hi > 0.99, "unit() spans [{lo}, {hi}]");
    }

    #[test]
    fn check_names_the_seed_and_input_of_the_first_failing_case() {
        // Passes: every case runs, on distinct inputs.
        let seen = std::sync::Mutex::new(Vec::new());
        check(
            "all-pass",
            10,
            |rng| rng.next_u64(),
            |x| seen.lock().unwrap().push(x),
        );
        let mut seen = seen.into_inner().unwrap();
        seen.dedup();
        assert_eq!(seen.len(), 10);

        // Fails: the message carries what is needed to replay the case.
        let failed = catch_unwind(|| {
            check(
                "finds-a-multiple-of-three",
                64,
                |rng| rng.below(1000),
                |x| assert!(x % 3 != 0, "{x} divides"),
            )
        })
        .expect_err("some draw below 1000 in 64 is a multiple of three");
        let msg = failed.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("finds-a-multiple-of-three: case "), "{msg}");
        assert!(msg.contains("(seed 0x"), "{msg}");
        assert!(msg.contains(" divides\ninput: "), "{msg}");
        let input: u64 = msg.rsplit("input: ").next().unwrap().parse().unwrap();
        assert_eq!(input % 3, 0, "the printed input is the failing one");
    }
}

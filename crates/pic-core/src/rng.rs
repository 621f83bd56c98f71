//! Seeded pseudo-random number generation, std-only.
//!
//! The kernel needs randomness in exactly one place — [`RowSpread::Random`]
//! particle placement — and the only contract there is *reproducibility*:
//! the same seed must yield the same placement on every platform, and
//! different seeds should yield different placements. SplitMix64 (Steele,
//! Lea & Flood, OOPSLA 2014; the `java.util.SplittableRandom` finalizer)
//! satisfies both with three lines of mixing, so the kernel carries its own
//! implementation instead of an external RNG crate.
//!
//! [`RowSpread::Random`]: crate::init::RowSpread::Random

use std::ops::Range;

/// A tiny, fast, seedable PRNG with a guaranteed period of 2^64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator. Any seed is fine, including 0.
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[range.start, range.end)`.
    ///
    /// Uses Lemire's multiply-shift reduction without the rejection step;
    /// the bias is < 2^-40 for any grid-sized span, far below anything the
    /// placement distribution tests can observe.
    #[inline]
    pub(crate) fn gen_range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = (range.end - range.start) as u64;
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::seed_from_u64(1);
        let mut b = SplitMix64::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn known_answer_first_outputs() {
        // Reference values from the published SplitMix64 algorithm, seed 0.
        let mut r = SplitMix64::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut r = SplitMix64::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(3..13);
            assert!((3..13).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all rows should be reachable");
    }
}

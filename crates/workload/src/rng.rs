//! Small deterministic PRNG with the `rand` call shapes the workloads use.
//!
//! The workload generators only need seeded reproducibility — shuffles and
//! uniform index draws whose sequences are stable per seed — not
//! cryptographic or statistical-suite quality. The external `rand` crate is
//! not vendored in this offline build, so this module provides
//! [`StdRng::seed_from_u64`], [`StdRng::gen_range`] and a
//! [`SliceRandom::shuffle`] extension with the same call syntax,
//! implemented over splitmix64 (Vigna 2015, [`qdb_storage::splitmix64`]),
//! which passes BigCrush on its 64-bit output stream.
//!
//! Sequences differ from `rand`'s `StdRng` for the same seed; every
//! consumer in this workspace treats the seed as an opaque reproducibility
//! token, so only self-consistency matters. This is also the one generator
//! of the workspace's seeded tests (each crate takes it as a
//! dev-dependency), so a change to its sequence changes every seeded
//! test's cases; `seed_zero_is_the_reference_splitmix64` pins it.

use std::ops::Range;

/// Seeded splitmix64 generator.
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    /// Construct from a 64-bit seed (same name as `rand::SeedableRng`).
    pub fn seed_from_u64(seed: u64) -> Self {
        StdRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = qdb_storage::splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        out
    }

    /// Uniform draw from a half-open range (same name as `rand::Rng`).
    ///
    /// Uses rejection sampling below the largest multiple of the span, so
    /// the draw is exactly uniform. Panics on an empty range, like `rand`.
    pub fn gen_range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = (range.end - range.start) as u64;
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let raw = self.next_u64();
            if raw < zone {
                return range.start + (raw % span) as usize;
            }
        }
    }
}

/// Fisher–Yates shuffling for slices (same call syntax as
/// `rand::seq::SliceRandom`).
pub trait SliceRandom {
    /// Shuffle in place.
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> SliceRandom for [T] {
    fn shuffle(&mut self, rng: &mut StdRng) {
        for i in (1..self.len()).rev() {
            self.swap(i, rng.gen_range(0..i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn seed_zero_is_the_reference_splitmix64() {
        // The first outputs of Vigna's splitmix64.c from state 0.
        let mut rng = StdRng::seed_from_u64(0);
        for want in [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
        ] {
            assert_eq!(rng.next_u64(), want);
        }
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_every_value() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = rng.gen_range(2..7);
            assert!((2..7).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values drawn: {seen:?}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<usize> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(1);
        v.shuffle(&mut rng);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}

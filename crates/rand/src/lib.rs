//! Minimal, dependency-free stand-in for the `rand` crate.
//!
//! The workspace builds in fully offline environments, so the real
//! crates.io `rand` cannot be fetched.  This crate re-implements the small
//! slice of the `rand` 0.8 API surface that the decoder workspace uses —
//! [`Rng`], [`SeedableRng`], [`rngs::StdRng`] and [`seq::SliceRandom`] — on
//! top of a xoshiro256++ generator seeded through SplitMix64 (the same
//! construction the real crate uses for its small RNGs).
//!
//! The generator is deterministic for a given seed, which is exactly what
//! the Monte-Carlo simulation engine needs for reproducible BER curves.
//!
//! # Example
//!
//! ```
//! use rand::{Rng, SeedableRng};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let bit: u8 = rng.gen_range(0..=1);
//! assert!(bit <= 1);
//! let u: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&u));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from the unit interval / full range
/// by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, bound)` via Lemire's widening-multiply method with
/// rejection, so every value is exactly equally likely.  The rejection
/// zone, `2^64 mod bound`, is below `bound`, so it is computed (a 64-bit
/// division) only when a draw's low product falls below `bound`.
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "cannot sample from an empty range");
    let mut m = u128::from(rng.next_u64()) * u128::from(bound);
    if (m as u64) < bound {
        let zone = bound.wrapping_neg() % bound; // 2^64 mod bound
        while (m as u64) < zone {
            m = u128::from(rng.next_u64()) * u128::from(bound);
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty => $wide:ty),+ $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                let off = uniform_u64_below(rng, span);
                ((self.start as $wide).wrapping_add(off as $wide)) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from an empty range");
                let span = (end as $wide).wrapping_sub(start as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let off = uniform_u64_below(rng, span + 1);
                ((start as $wide).wrapping_add(off as $wide)) as $t
            }
        }
    )+};
}

impl_int_range!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

macro_rules! impl_float_range {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let u = <$t as Standard>::sample_standard(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from an empty range");
                let u = <$t as Standard>::sample_standard(rng);
                start + u * (end - start)
            }
        }
    )+};
}

impl_float_range!(f32, f64);

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Draws a value of type `T` (for floats: uniform in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        <f64 as Standard>::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs that can be constructed from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 step: advances `state` and returns the next output.
/// Crate-private: the real `rand` exposes no such API, and keeping the
/// public surface a strict subset of crates.io `rand` 0.8 preserves the
/// option of swapping this stand-in for the real crate.
pub(crate) fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{split_mix64, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Not the same stream as crates.io `rand`'s `StdRng` (which is ChaCha12),
    /// but statistically strong, fast, and fully deterministic for a seed —
    /// which is all the Monte-Carlo harness requires.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = split_mix64(&mut sm);
            }
            // xoshiro's state must not be all zero; SplitMix64 of any seed
            // cannot produce four zero outputs in a row, but guard anyway.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s2 = s2 ^ s0;
            let mut s3 = s3 ^ s1;
            let s1 = s1 ^ s2;
            let s0 = s0 ^ s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
            self.s = [s0, s1, s2, s3];
            result
        }
    }

    /// Alias kept for parity with the real crate's small generator.
    pub type SmallRng = StdRng;
}

/// Slice helpers (`shuffle`, `choose`).
pub mod seq {
    use super::{RngCore, SampleRange};

    /// Random slice operations, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (0..=i).sample_from(rng);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[(0..self.len()).sample_from(rng)])
            }
        }
    }
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{uniform_u64_below, Rng, RngCore, SeedableRng};

    /// `uniform_u64_below` before its fast path, kept as its oracle: the
    /// rejection zone computed on every call.
    fn reference_uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
        let zone = bound.wrapping_neg() % bound; // 2^64 mod bound
        loop {
            let x = rng.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            if (m as u64) >= zone {
                return (m >> 64) as u64;
            }
        }
    }

    const BOUNDS: [u64; 8] = [1, 2, 3, 7, (1 << 32) + 1, 1 << 63, (1 << 63) + 1, u64::MAX];

    /// Plays a script of values, then a seeded stream; counts its draws.
    struct Scripted {
        script: Vec<u64>,
        draws: usize,
        rest: StdRng,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            match self.script.get(self.draws - 1) {
                Some(&x) => x,
                None => self.rest.next_u64(),
            }
        }
    }

    #[test]
    fn the_fast_path_draws_what_the_reference_draws() {
        for bound in BOUNDS {
            let mut fast = StdRng::seed_from_u64(bound);
            let mut reference = StdRng::seed_from_u64(bound);
            for _ in 0..10_000 {
                assert_eq!(
                    uniform_u64_below(&mut fast, bound),
                    reference_uniform_u64_below(&mut reference, bound),
                    "bound {bound}"
                );
            }
            assert_eq!(fast.next_u64(), reference.next_u64(), "bound {bound}");
        }
    }

    /// Values whose low product lands below `bound`: 0, and `x_k =
    /// ceil(k * 2^64 / bound)`, whose product is `k * 2^64` plus less than
    /// `bound`.  Those below `2^64 mod bound` are rejected, and both
    /// functions draw again, alike.
    #[test]
    fn rejected_draws_are_resampled_as_before() {
        for bound in BOUNDS {
            let zone = bound.wrapping_neg() % bound;
            let script: Vec<u64> = std::iter::once(0)
                .chain(
                    (1..u128::from(bound).min(64))
                        .map(|k| ((k << 64).div_ceil(u128::from(bound))) as u64),
                )
                .collect();
            let low = |x: u64| (u128::from(x) * u128::from(bound)) as u64;
            assert!(script.iter().all(|&x| low(x) < bound), "bound {bound}");
            let rejected = script.iter().filter(|&&x| low(x) < zone).count();
            assert_eq!(rejected > 0, zone > 0, "bound {bound}");
            let scripted = || Scripted {
                script: script.clone(),
                draws: 0,
                rest: StdRng::seed_from_u64(bound),
            };
            let (mut fast, mut reference) = (scripted(), scripted());
            while fast.draws <= script.len() {
                assert_eq!(
                    uniform_u64_below(&mut fast, bound),
                    reference_uniform_u64_below(&mut reference, bound),
                    "bound {bound}"
                );
                assert_eq!(fast.draws, reference.draws, "bound {bound}");
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_floats_are_in_range_and_balanced() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn gen_range_int_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v: usize = rng.gen_range(0..6);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let v: i32 = rng.gen_range(-3..=3);
            assert!((-3..=3).contains(&v));
        }
        let b: u8 = rng.gen_range(0..=1);
        assert!(b <= 1);
    }

    #[test]
    fn gen_range_float_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v: f64 = rng.gen_range(-0.5..0.5);
            assert!((-0.5..0.5).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _: usize = rng.gen_range(3..3);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle should move something");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = StdRng::seed_from_u64(13);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &x = items.choose(&mut rng).unwrap();
            seen[x - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn works_through_mut_references() {
        fn takes_rng<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(17);
        let _ = takes_rng(&mut rng);
        let r = &mut rng;
        let _: f64 = (*r).gen();
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = StdRng::seed_from_u64(19);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }
}

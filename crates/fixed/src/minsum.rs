//! Saturating fixed-point message arithmetic for the normalized-min-sum
//! check-node update (Eq. (11) of the paper).
//!
//! The hardware datapath never touches floating point: channel LLRs enter as
//! `lambda_bits`-bit integers (see [`crate::Quantizer`]), the `Q_lk = lambda -
//! R_lk` subtraction saturates at the register width, the two-minimum
//! magnitude is scaled by the hardware-friendly factor `3/4` with a single
//! shift-add, and the resulting `R_lk` is saturated to `r_bits` bits before
//! being written back to the message memory.  [`MinSumArith`] models exactly
//! that pipeline; `wimax_ldpc::decoder::FixedLayeredDecoder` is built on it.
//!
//! All values are plain integers in units of one LSB (`2^-frac_bits` in real
//! terms); the fractional position only matters when converting to or from
//! floating point, which this module never does.
//!
//! # Example
//!
//! ```
//! use fec_fixed::minsum::MinSumArith;
//!
//! let a = MinSumArith::new(7, 7);
//! assert_eq!(a.q_message(60, -10), 63);      // saturates at the 7-bit rail
//! assert_eq!(a.scale_magnitude(8), 6);       // 3/4 scaling, round to nearest
//! assert_eq!(a.r_message(8, true), -6);
//! assert_eq!(a.lambda_update(-62, -6), -64); // saturates at the negative rail
//! ```

use crate::rails;

/// Numerator of the fixed normalization factor `sigma = 3/4` of Eq. (11).
pub const NMS_SCALE_NUM: i32 = 3;

/// Shift implementing the division of the normalization factor (`>> 2`).
pub const NMS_SCALE_SHIFT: u32 = 2;

/// Saturating integer arithmetic for normalized-min-sum messages at fixed
/// register widths.
///
/// `lambda_bits` is the width of the bit-LLR registers (`lambda`, `Q_lk`),
/// `r_bits` the width of the check-to-variable message memory (`R_lk`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinSumArith {
    lambda_min: i32,
    lambda_max: i32,
    r_max: i32,
}

impl MinSumArith {
    /// Creates the arithmetic model for the given register widths.
    ///
    /// # Panics
    ///
    /// Panics if either width is outside `2..=15` (values must fit an `i16`
    /// datapath with headroom for the intermediate `i32` sums).
    pub fn new(lambda_bits: u32, r_bits: u32) -> Self {
        assert!(
            (2..=15).contains(&lambda_bits),
            "lambda bit width must be in 2..=15"
        );
        assert!((2..=15).contains(&r_bits), "R bit width must be in 2..=15");
        let (lambda_min, lambda_max) = rails(lambda_bits);
        MinSumArith {
            lambda_min,
            lambda_max,
            r_max: rails(r_bits).1,
        }
    }

    /// Largest representable bit-LLR value.
    pub fn lambda_max(&self) -> i32 {
        self.lambda_max
    }

    /// Smallest representable bit-LLR value.
    pub fn lambda_min(&self) -> i32 {
        self.lambda_min
    }

    /// Largest representable `R_lk` magnitude (sign-magnitude datapath: the
    /// negative rail is `-r_max`, keeping the message symmetric).
    pub fn r_max(&self) -> i32 {
        self.r_max
    }

    /// `Q_lk = lambda - R_lk`, saturated to the bit-LLR register width
    /// (Eq. (6)).
    #[inline]
    pub fn q_message(&self, lambda: i32, r: i32) -> i16 {
        (lambda - r).clamp(self.lambda_min, self.lambda_max) as i16
    }

    /// The `3/4` normalization of Eq. (11) as the hardware computes it: one
    /// shift-add with round-to-nearest (`(3·m + 2) >> 2`).
    #[inline]
    pub fn scale_magnitude(&self, magnitude: i32) -> i32 {
        debug_assert!(magnitude >= 0);
        (NMS_SCALE_NUM * magnitude + (1 << (NMS_SCALE_SHIFT - 1))) >> NMS_SCALE_SHIFT
    }

    /// Builds the outgoing `R_lk` from a two-minimum magnitude and the
    /// excluded sign: scaled by `3/4`, saturated to the message width.
    #[inline]
    pub fn r_message(&self, magnitude: i32, negative: bool) -> i16 {
        let mag = self.scale_magnitude(magnitude).min(self.r_max);
        (if negative { -mag } else { mag }) as i16
    }

    /// `lambda = Q_lk + R_lk(new)`, saturated to the bit-LLR register width
    /// (Eq. (10)).
    #[inline]
    pub fn lambda_update(&self, q: i32, r_new: i32) -> i16 {
        (q + r_new).clamp(self.lambda_min, self.lambda_max) as i16
    }

    /// True when `Q_lk = lambda - R_lk` hits a saturation rail — the
    /// observability predicate matching [`q_message`](MinSumArith::q_message)
    /// exactly, kept separate so the hot path only evaluates it when a
    /// recorder is enabled.
    #[inline]
    pub fn q_saturates(&self, lambda: i32, r: i32) -> bool {
        let raw = lambda - r;
        raw < self.lambda_min || raw > self.lambda_max
    }

    /// True when the scaled two-minimum magnitude clips at the `R_lk`
    /// message-memory rail (the `.min(r_max)` inside
    /// [`r_message`](MinSumArith::r_message)).
    #[inline]
    pub fn r_clips(&self, magnitude: i32) -> bool {
        self.scale_magnitude(magnitude) > self.r_max
    }

    /// True when `lambda = Q_lk + R_lk(new)` hits a saturation rail
    /// (matching [`lambda_update`](MinSumArith::lambda_update)).
    #[inline]
    pub fn lambda_saturates(&self, q: i32, r_new: i32) -> bool {
        let raw = q + r_new;
        raw < self.lambda_min || raw > self.lambda_max
    }

    /// Array form of [`q_message`](MinSumArith::q_message) for `B` lockstep
    /// frame lanes: `q[f] = sat(lambda[f] - r[f])`.
    ///
    /// The `i16` subtraction cannot overflow for legal register widths
    /// (`<= 15` bits means `|lambda - r| <= 32767`), so `saturating_sub` +
    /// clamp is bit-identical to the widening scalar path while staying in
    /// 16-bit vector lanes; the clamp is spelled `max(lo).min(hi)` so it
    /// compiles to packed min/max.  A single lane (`B = 1`) takes the
    /// widening scalar path instead, because x86 has no scalar saturating
    /// `i16` arithmetic.
    #[inline(always)]
    pub fn q_message_array<const B: usize>(&self, lambda: [i16; B], r: [i16; B]) -> [i16; B] {
        let (lo, hi) = (self.lambda_min as i16, self.lambda_max as i16);
        let mut q = [0i16; B];
        for f in 0..B {
            q[f] = if B == 1 {
                self.q_message(i32::from(lambda[f]), i32::from(r[f]))
            } else {
                lambda[f].saturating_sub(r[f]).max(lo).min(hi)
            };
        }
        q
    }

    /// Array form of the magnitude half of
    /// [`r_message`](MinSumArith::r_message): `min(scale_magnitude(m), r_max)`
    /// per lane, leaving the per-position sign to the caller (the sign
    /// depends on the excluded input, not only on the lane).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if any input magnitude is negative.
    #[inline(always)]
    pub fn scaled_magnitude_array<const B: usize>(&self, mins: [i16; B]) -> [i16; B] {
        let mut out = [0i16; B];
        for f in 0..B {
            out[f] = self.scale_magnitude(i32::from(mins[f])).min(self.r_max) as i16;
        }
        out
    }

    /// Array form of [`lambda_update`](MinSumArith::lambda_update):
    /// `lambda[f] = sat(q[f] + r_new[f])`.
    ///
    /// Like [`q_message_array`](MinSumArith::q_message_array), the `i16`
    /// saturating add followed by the register clamp is bit-identical to the
    /// scalar `i32` path for every legal register width (`|q + r|` <= 32766
    /// never wraps), and `B = 1` takes that scalar path.
    #[inline(always)]
    pub fn lambda_update_array<const B: usize>(&self, q: [i16; B], r_new: [i16; B]) -> [i16; B] {
        let (lo, hi) = (self.lambda_min as i16, self.lambda_max as i16);
        let mut lambda = [0i16; B];
        for f in 0..B {
            lambda[f] = if B == 1 {
                self.lambda_update(i32::from(q[f]), i32::from(r_new[f]))
            } else {
                q[f].saturating_add(r_new[f]).max(lo).min(hi)
            };
        }
        lambda
    }
}

impl Default for MinSumArith {
    /// The paper's widths: 7-bit bit LLRs, with the full-width `R` memory the
    /// BER studies default to (use [`MinSumArith::new`] with
    /// [`crate::R_BITS`] for the compressed 5-bit message memory).
    fn default() -> Self {
        MinSumArith::new(crate::LAMBDA_BITS, crate::LAMBDA_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn q_message_saturates_at_both_rails() {
        let a = MinSumArith::new(7, 7);
        assert_eq!(a.q_message(63, -63), 63);
        assert_eq!(a.q_message(-64, 63), -64);
        assert_eq!(a.q_message(10, 3), 7);
    }

    #[test]
    fn scaling_rounds_to_nearest() {
        let a = MinSumArith::new(7, 7);
        // 3/4 of 1, 2, 3, 4 = 0.75, 1.5, 2.25, 3 -> 1, 2, 2, 3
        assert_eq!(a.scale_magnitude(1), 1);
        assert_eq!(a.scale_magnitude(2), 2);
        assert_eq!(a.scale_magnitude(3), 2);
        assert_eq!(a.scale_magnitude(4), 3);
        assert_eq!(a.scale_magnitude(0), 0);
    }

    #[test]
    fn r_message_saturates_to_message_width() {
        let a = MinSumArith::new(7, 5);
        // 3/4 of 63 = 47, saturated to the 5-bit magnitude 15.
        assert_eq!(a.r_message(63, false), 15);
        assert_eq!(a.r_message(63, true), -15);
        assert_eq!(a.r_message(4, true), -3);
    }

    #[test]
    fn default_matches_paper_lambda_width() {
        let a = MinSumArith::default();
        assert_eq!(a.lambda_max(), 63);
        assert_eq!(a.lambda_min(), -64);
        assert_eq!(a.r_max(), 63);
    }

    #[test]
    fn saturation_predicates_match_the_ops() {
        let a = MinSumArith::new(7, 5);
        for lambda in -70..=70 {
            for r in -15..=15 {
                let clamped = i32::from(a.q_message(lambda, r)) != lambda - r;
                assert_eq!(a.q_saturates(lambda, r), clamped, "({lambda}, {r})");
                let l = i32::from(a.lambda_update(lambda.clamp(-64, 63), r))
                    != lambda.clamp(-64, 63) + r;
                assert_eq!(a.lambda_saturates(lambda.clamp(-64, 63), r), l);
            }
        }
        for mag in 0..=63 {
            let clipped = i32::from(a.r_message(mag, false)) != a.scale_magnitude(mag);
            assert_eq!(a.r_clips(mag), clipped, "magnitude {mag}");
        }
    }

    #[test]
    #[should_panic(expected = "lambda bit width")]
    fn too_wide_lambda_panics() {
        let _ = MinSumArith::new(16, 7);
    }

    #[test]
    fn lane_ops_match_the_scalar_ops_elementwise() {
        // Width 15 exercises the widest legal registers: the i16 lane
        // arithmetic must still agree with the widening scalar path.
        for (lambda_bits, r_bits) in [(7, 7), (7, 5), (15, 15)] {
            let a = MinSumArith::new(lambda_bits, r_bits);
            let lo = a.lambda_min() as i16;
            let hi = a.lambda_max() as i16;
            let lambda: [i16; 13] = std::array::from_fn(|i| (i as i32 * 2731 - 16000) as i16);
            let lambda = lambda.map(|v| v.clamp(lo, hi));
            let r: [i16; 13] = std::array::from_fn(|i| ((i as i32 * 1931) % 32000 - 16000) as i16);
            let r = r.map(|v| v.clamp(-hi, hi));
            let q = a.q_message_array(lambda, r);
            let updated = a.lambda_update_array(q, r);
            for f in 0..13 {
                let (l, rv) = (i32::from(lambda[f]), i32::from(r[f]));
                let widths = format!("lane {f} at widths ({lambda_bits}, {r_bits})");
                assert_eq!(q[f], a.q_message(l, rv), "{widths}");
                assert_eq!(updated[f], a.lambda_update(i32::from(q[f]), rv), "{widths}");
            }

            // Every magnitude a clamped Q can have, in 16-lane chunks.
            for chunk in (0..=i32::from(hi) + 1).collect::<Vec<_>>().chunks(16) {
                let mins: [i16; 16] =
                    std::array::from_fn(|f| chunk.get(f).map_or(0, |&m| m as i16));
                let out = a.scaled_magnitude_array(mins);
                for f in 0..16 {
                    assert_eq!(
                        out[f],
                        a.r_message(i32::from(mins[f]), false),
                        "magnitude {} at widths ({lambda_bits}, {r_bits})",
                        mins[f]
                    );
                }
            }
        }
    }

    /// Floating-point reference of the same message chain, quantized back to
    /// the integer grid with round-half-away-from-zero (matching
    /// `f64::round`).
    fn float_reference_r(magnitude: i32, negative: bool, r_max: i32) -> f64 {
        let mag = (0.75 * f64::from(magnitude)).round().min(f64::from(r_max));
        if negative {
            -mag
        } else {
            mag
        }
    }

    proptest! {
        /// Satellite regression: the saturating integer min-sum arithmetic
        /// matches the f64 reference within one LSB for in-range inputs.
        #[test]
        fn r_message_matches_f64_reference_within_one_lsb(
            magnitude in 0i32..=63,
            neg in 0u8..=1,
            r_bits in 2u32..=7,
        ) {
            let negative = neg == 1;
            let a = MinSumArith::new(7, r_bits);
            let fixed = f64::from(a.r_message(magnitude, negative));
            let reference = float_reference_r(magnitude, negative, a.r_max());
            prop_assert!(
                (fixed - reference).abs() <= 1.0,
                "fixed {fixed} vs reference {reference} for magnitude {magnitude}"
            );
        }

        /// Q and lambda updates are exact integer arithmetic up to the
        /// saturation rails, so they agree with the clamped f64 reference
        /// exactly.
        #[test]
        fn q_and_lambda_updates_match_clamped_f64(
            lambda in -200i32..=200,
            r in -63i32..=63,
            r_new in -63i32..=63,
        ) {
            let a = MinSumArith::new(7, 7);
            let q = a.q_message(lambda, r);
            let q_ref = (f64::from(lambda) - f64::from(r)).clamp(-64.0, 63.0);
            prop_assert_eq!(f64::from(q), q_ref);
            let l = a.lambda_update(i32::from(q), r_new);
            let l_ref = (f64::from(q) + f64::from(r_new)).clamp(-64.0, 63.0);
            prop_assert_eq!(f64::from(l), l_ref);
        }

        /// The full check-node chain (Q -> scale -> R -> lambda) stays within
        /// one LSB of the f64 reference when nothing saturates.
        #[test]
        fn full_chain_within_one_lsb_when_in_range(
            lambda in -40i32..=40,
            r_old in -20i32..=20,
            min_mag in 0i32..=40,
            neg in 0u8..=1,
        ) {
            let negative = neg == 1;
            let a = MinSumArith::new(7, 7);
            let q = a.q_message(lambda, r_old);
            let r_new = a.r_message(min_mag, negative);
            let l = a.lambda_update(i32::from(q), i32::from(r_new));

            let q_ref = f64::from(lambda) - f64::from(r_old);
            let sign = if negative { -1.0 } else { 1.0 };
            let r_ref = sign * 0.75 * f64::from(min_mag);
            let l_ref = (q_ref + r_ref).clamp(-64.0, 63.0);
            prop_assert!(
                (f64::from(l) - l_ref).abs() <= 1.0,
                "lambda {l} vs reference {l_ref}"
            );
        }
    }
}

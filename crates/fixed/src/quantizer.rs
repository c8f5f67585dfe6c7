//! Uniform LLR quantization with saturation accounting.

use crate::rails;

/// Statistics accumulated while quantizing a stream of values.
///
/// Useful for choosing fractional bit allocations: a high saturation ratio
/// indicates the quantizer range is too small for the channel conditions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantStats {
    /// Number of values quantized so far.
    pub total: u64,
    /// Number of values that hit the positive or negative saturation rail.
    pub saturated: u64,
}

/// A uniform mid-tread quantizer mapping floating-point LLRs to `bits`-bit
/// signed integers with `frac_bits` fractional bits.
///
/// The quantized value of `x` is `round(x * 2^frac_bits)` saturated to the
/// representable range, the usual choice for channel-LLR quantization in
/// turbo/LDPC decoder ASICs.  It is returned as the `i32` a `bits`-bit
/// datapath register holds.
///
/// # Example
///
/// ```
/// use fec_fixed::Quantizer;
///
/// let q = Quantizer::new(5, 1);   // 5-bit, one fractional bit => range [-8, 7.5]
/// assert_eq!(q.quantize(1.0), 2);
/// assert_eq!(q.quantize(100.0), 15);   // saturates
/// assert_eq!(q.quantize(-3.0), -6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    bits: u32,
    frac_bits: u32,
}

impl Quantizer {
    /// Creates a quantizer with `bits` total bits and `frac_bits` fractional
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=31` or `frac_bits >= bits`.
    pub fn new(bits: u32, frac_bits: u32) -> Self {
        assert!((1..=31).contains(&bits), "bit width must be in 1..=31");
        assert!(
            frac_bits < bits,
            "fractional bits must be less than total bits"
        );
        Quantizer { bits, frac_bits }
    }

    /// Total bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Scaling factor `2^frac_bits`.
    pub fn scale(&self) -> f64 {
        (1u64 << self.frac_bits) as f64
    }

    /// Largest representable real value.
    #[cfg(test)]
    fn max_real(&self) -> f64 {
        self.dequantize(rails(self.bits).1)
    }

    /// Smallest representable real value.
    #[cfg(test)]
    fn min_real(&self) -> f64 {
        self.dequantize(rails(self.bits).0)
    }

    /// Quantizes a single value: `round(x * 2^frac_bits)` with halves away
    /// from zero, as [`f64::round`], saturated to the register range; NaN
    /// maps to 0.
    ///
    /// Inlined, and free of `f64::round`, which is a libm call on baseline
    /// x86-64: the scaled value is clamped to one step past the rails (NaN
    /// passes, and the cast maps it to 0), truncated, and moved one step
    /// away from zero where its exact fraction reaches a half.
    #[inline]
    pub fn quantize(&self, x: f64) -> i32 {
        let (min, max) = rails(self.bits);
        let v = (x * self.scale()).clamp(f64::from(min - 1), f64::from(max + 1));
        let truncated = v as i32;
        let frac = v - f64::from(truncated);
        let rounded = truncated + i32::from(frac >= 0.5) - i32::from(frac <= -0.5);
        rounded.clamp(min, max)
    }

    /// Quantizes a single value while updating saturation statistics.
    #[inline]
    pub fn quantize_tracked(&self, x: f64, stats: &mut QuantStats) -> i32 {
        let q = self.quantize(x);
        let (min, max) = rails(self.bits);
        stats.total += 1;
        if q == max || q == min {
            stats.saturated += 1;
        }
        q
    }

    /// Converts a quantized register value back to a real number.
    #[cfg(test)]
    fn dequantize(&self, q: i32) -> f64 {
        f64::from(q) / self.scale()
    }
}

impl Default for Quantizer {
    /// The paper's 7-bit channel-LLR quantizer with one fractional bit.
    fn default() -> Self {
        Quantizer::new(crate::LAMBDA_BITS, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_on_representable_values() {
        let q = Quantizer::new(7, 2);
        for i in -256..=255 {
            let x = i as f64 / 4.0;
            if x <= q.max_real() && x >= q.min_real() {
                assert_eq!(q.dequantize(q.quantize(x)), x);
            }
        }
    }

    #[test]
    fn saturation_at_rails() {
        let q = Quantizer::new(5, 0);
        assert_eq!(q.quantize(1000.0), 15);
        assert_eq!(q.quantize(-1000.0), -16);
    }

    #[test]
    fn nan_maps_to_zero() {
        let q = Quantizer::new(7, 1);
        assert_eq!(q.quantize(f64::NAN), 0);
    }

    #[test]
    fn halves_round_away_from_zero_and_infinities_saturate() {
        let q = Quantizer::new(7, 1);
        let cases = [
            (0.25, 1),
            (-0.25, -1),
            (0.2499999999999999, 0),
            (-0.2499999999999999, 0),
            (0.75, 2),
            (-0.75, -2),
            (31.25, 63),
            (-32.25, -64),
            (f64::INFINITY, 63),
            (f64::NEG_INFINITY, -64),
        ];
        for (x, want) in cases {
            assert_eq!(q.quantize(x), want, "x = {x}");
        }
    }

    #[test]
    fn stats_track_saturation() {
        let q = Quantizer::new(5, 0);
        let mut stats = QuantStats::default();
        q.quantize_tracked(0.0, &mut stats);
        q.quantize_tracked(500.0, &mut stats);
        q.quantize_tracked(-500.0, &mut stats);
        assert_eq!(stats.total, 3);
        assert_eq!(stats.saturated, 2);
    }

    #[test]
    fn default_is_paper_lambda_quantizer() {
        let q = Quantizer::default();
        assert_eq!(q.bits(), 7);
        assert_eq!(q.frac_bits(), 1);
    }

    #[test]
    #[should_panic(expected = "fractional bits")]
    fn too_many_frac_bits_panics() {
        let _ = Quantizer::new(4, 4);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn zero_width_panics() {
        let _ = Quantizer::new(0, 0);
    }

    proptest! {
        #[test]
        fn quantization_error_bounded(x in -30.0f64..30.0, frac in 0u32..4) {
            let q = Quantizer::new(7, frac);
            let dq = q.dequantize(q.quantize(x));
            if x <= q.max_real() && x >= q.min_real() {
                prop_assert!((dq - x).abs() <= 0.5 / q.scale() + 1e-12);
            } else {
                // saturated: result is one of the rails
                prop_assert!(dq == q.max_real() || dq == q.min_real());
            }
        }

        #[test]
        fn quantize_matches_rounding_then_saturating(
            wide in -1e12f64..1e12,
            near in -200.0f64..200.0,
            quarters in -800i32..800,
            special in 0usize..4,
            bits in 1u32..=31,
            frac in 0u32..8,
        ) {
            let q = Quantizer::new(bits, frac.min(bits - 1));
            let (min, max) = rails(bits);
            // Quarter steps put exact halves before the rounding at
            // `frac_bits` 0 and 1; NaN rounds to NaN, which the cast maps to
            // 0, and the infinities clamp to the rails.
            let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][special];
            for x in [wide, near, f64::from(quarters) / 4.0, special] {
                let rounded = (x * q.scale()).round().clamp(f64::from(min), f64::from(max));
                prop_assert_eq!(q.quantize(x), rounded as i32);
            }
        }

        #[test]
        fn quantizer_is_monotone(a in -100.0f64..100.0, b in -100.0f64..100.0, frac in 0u32..4) {
            let q = Quantizer::new(7, frac);
            if a <= b {
                prop_assert!(q.quantize(a) <= q.quantize(b));
            }
        }
    }
}

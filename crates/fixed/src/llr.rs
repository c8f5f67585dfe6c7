//! Floating-point log-likelihood ratio newtype used by the reference decoders.

/// A log-likelihood ratio `ln(P(bit = 0) / P(bit = 1))`.
///
/// The algorithmic reference decoders (floating-point belief propagation and
/// BCJR) operate on `Llr` values; the architectural models quantize them with
/// [`crate::Quantizer`] before feeding the fixed-point datapath models.
///
/// Positive values favour the bit value `0`, negative values favour `1`,
/// matching the convention used throughout the WiMAX decoder literature.
///
/// # Example
///
/// ```
/// use fec_fixed::Llr;
///
/// assert_eq!(Llr::new(2.5).hard_bit(), 0);
/// assert_eq!(Llr::new(-2.5).hard_bit(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Llr(pub f64);

impl Llr {
    /// Magnitude of an LLR that marks its bit as known for certain.
    ///
    /// Deliberately a *large finite, addition-safe* value rather than
    /// `f64::MAX / 4.0`: the old constant overflowed to `±inf` after a
    /// handful of additions, and `inf - inf` in the trellis recursions then
    /// produced `NaN`.  At `1e12` it still dominates any realistic channel
    /// LLR while billions of accumulations stay comfortably finite.
    pub const CERTAIN_MAGNITUDE: f64 = 1.0e12;

    /// Creates a new LLR from a raw floating-point value.
    pub fn new(value: f64) -> Self {
        Llr(value)
    }

    /// Returns the inner floating-point value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Hard decision: `1` if the LLR is strictly negative, `0` otherwise.
    ///
    /// This is **the** hard-decision convention of the workspace: every
    /// decoder routes its final decisions through this method.  `NaN` decodes
    /// as `0`, consistent with [`crate::Quantizer`] (which quantizes `NaN` to
    /// `0`).
    pub fn hard_bit(self) -> u8 {
        u8::from(self.0 < 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quantizer;

    #[test]
    fn hard_decision_convention() {
        assert_eq!(Llr::new(0.5).hard_bit(), 0);
        assert_eq!(Llr::new(0.0).hard_bit(), 0);
        assert_eq!(Llr::new(-0.5).hard_bit(), 1);
        assert_eq!(Llr::new(Llr::CERTAIN_MAGNITUDE).hard_bit(), 0);
        assert_eq!(Llr::new(-Llr::CERTAIN_MAGNITUDE).hard_bit(), 1);
    }

    #[test]
    fn nan_decodes_as_zero_like_the_quantizer() {
        // One convention for NaN everywhere: hard bit 0, quantizer 0.
        assert_eq!(Llr::new(f64::NAN).hard_bit(), 0);
        assert_eq!(Quantizer::default().quantize(f64::NAN), 0);
    }

    #[test]
    fn certain_llrs_survive_repeated_addition() {
        // Regression: `f64::MAX / 4.0` overflowed to +inf after four
        // additions, and `inf - inf` produced NaN further down the chain.
        let mut acc = 0.0;
        for _ in 0..1_000 {
            acc += Llr::CERTAIN_MAGNITUDE;
        }
        assert!(acc.is_finite(), "accumulated certain LLR must stay finite");
        let diff = acc - Llr::CERTAIN_MAGNITUDE - Llr::CERTAIN_MAGNITUDE;
        assert!(diff.is_finite());
        assert_eq!(Llr::new(diff).hard_bit(), 0);
    }
}

//! Floating-point log-likelihood ratio newtype used by the reference decoders.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

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
/// let l = Llr::new(2.5);
/// assert_eq!(l.hard_bit(), 0);
/// assert_eq!((-l).hard_bit(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Llr(pub f64);

impl Llr {
    /// Magnitude of the [`certain_zero`](Llr::certain_zero) /
    /// [`certain_one`](Llr::certain_one) constants.
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

    /// The LLR corresponding to a perfectly known `0` bit (large positive).
    pub fn certain_zero() -> Self {
        Llr(Self::CERTAIN_MAGNITUDE)
    }

    /// The LLR corresponding to a perfectly known `1` bit (large negative).
    pub fn certain_one() -> Self {
        Llr(-Self::CERTAIN_MAGNITUDE)
    }

    /// Returns the inner floating-point value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Hard decision: `1` if the LLR is strictly negative, `0` otherwise.
    ///
    /// This is **the** hard-decision convention of the workspace: every
    /// decoder routes its final decisions through this method.  `NaN` decodes
    /// as `0`, consistent with [`Llr::signum`] (which maps `NaN` to `+1.0`)
    /// and with [`crate::Quantizer`] (which quantizes `NaN` to `0`).
    pub fn hard_bit(self) -> u8 {
        u8::from(self.0 < 0.0)
    }

    /// Magnitude (reliability) of the LLR.
    pub fn abs(self) -> f64 {
        self.0.abs()
    }

    /// Sign of the LLR as `+1.0` or `-1.0` (zero maps to `+1.0`).
    pub fn signum(self) -> f64 {
        if self.0 < 0.0 {
            -1.0
        } else {
            1.0
        }
    }

    /// Clamps the LLR magnitude, mirroring datapath saturation.
    pub fn clamp(self, max_abs: f64) -> Self {
        Llr(self.0.clamp(-max_abs, max_abs))
    }

    /// Returns `true` if the value is finite (neither NaN nor infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl fmt::Display for Llr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<f64> for Llr {
    fn from(v: f64) -> Self {
        Llr(v)
    }
}

impl From<Llr> for f64 {
    fn from(l: Llr) -> Self {
        l.0
    }
}

impl Add for Llr {
    type Output = Llr;
    fn add(self, rhs: Llr) -> Llr {
        Llr(self.0 + rhs.0)
    }
}

impl AddAssign for Llr {
    fn add_assign(&mut self, rhs: Llr) {
        self.0 += rhs.0;
    }
}

impl Sub for Llr {
    type Output = Llr;
    fn sub(self, rhs: Llr) -> Llr {
        Llr(self.0 - rhs.0)
    }
}

impl SubAssign for Llr {
    fn sub_assign(&mut self, rhs: Llr) {
        self.0 -= rhs.0;
    }
}

impl Neg for Llr {
    type Output = Llr;
    fn neg(self) -> Llr {
        Llr(-self.0)
    }
}

impl Mul<f64> for Llr {
    type Output = Llr;
    fn mul(self, rhs: f64) -> Llr {
        Llr(self.0 * rhs)
    }
}

impl Div<f64> for Llr {
    type Output = Llr;
    fn div(self, rhs: f64) -> Llr {
        Llr(self.0 / rhs)
    }
}

impl Sum for Llr {
    fn sum<I: Iterator<Item = Llr>>(iter: I) -> Llr {
        Llr(iter.map(|l| l.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_decision_convention() {
        assert_eq!(Llr::new(0.5).hard_bit(), 0);
        assert_eq!(Llr::new(0.0).hard_bit(), 0);
        assert_eq!(Llr::new(-0.5).hard_bit(), 1);
        assert_eq!(Llr::certain_zero().hard_bit(), 0);
        assert_eq!(Llr::certain_one().hard_bit(), 1);
    }

    #[test]
    fn nan_decodes_as_zero_like_the_quantizer() {
        // One convention for NaN everywhere: hard bit 0, sign +1, quantizer 0.
        assert_eq!(Llr::new(f64::NAN).hard_bit(), 0);
        assert_eq!(Llr::new(f64::NAN).signum(), 1.0);
    }

    #[test]
    fn certain_llrs_survive_repeated_addition() {
        // Regression: `f64::MAX / 4.0` overflowed to +inf after four
        // additions, and `inf - inf` produced NaN further down the chain.
        let mut acc = Llr::new(0.0);
        for _ in 0..1_000 {
            acc += Llr::certain_zero();
        }
        assert!(acc.is_finite(), "accumulated certain LLR must stay finite");
        let diff = acc + Llr::certain_one() - Llr::certain_zero();
        assert!(diff.is_finite());
        assert_eq!(diff.hard_bit(), 0);
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Llr::new(1.5);
        let b = Llr::new(-0.5);
        assert_eq!((a + b).value(), 1.0);
        assert_eq!((a - b).value(), 2.0);
        assert_eq!((-a).value(), -1.5);
        assert_eq!((a * 2.0).value(), 3.0);
        assert_eq!((a / 3.0).value(), 0.5);
        let mut c = a;
        c += b;
        assert_eq!(c.value(), 1.0);
        c -= b;
        assert_eq!(c.value(), 1.5);
    }

    #[test]
    fn clamp_limits_magnitude() {
        assert_eq!(Llr::new(100.0).clamp(31.0).value(), 31.0);
        assert_eq!(Llr::new(-100.0).clamp(31.0).value(), -31.0);
        assert_eq!(Llr::new(3.0).clamp(31.0).value(), 3.0);
    }

    #[test]
    fn sum_of_llrs() {
        let total: Llr = vec![Llr::new(1.0), Llr::new(2.0), Llr::new(-0.5)]
            .into_iter()
            .sum();
        assert!((total.value() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn signum_convention() {
        assert_eq!(Llr::new(3.0).signum(), 1.0);
        assert_eq!(Llr::new(0.0).signum(), 1.0);
        assert_eq!(Llr::new(-3.0).signum(), -1.0);
    }
}

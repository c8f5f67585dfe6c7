//! Saturating two's-complement fixed-point values of configurable width.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A saturating signed integer constrained to `bits` bits, mirroring the
/// behaviour of a hardware datapath register.
///
/// A `SatFixed` with `bits = 7` can represent values in `[-64, 63]`; additions
/// and subtractions saturate at the representable range instead of wrapping,
/// exactly as the adders in the LDPC core and SISO of the paper do.
///
/// # Example
///
/// ```
/// use fec_fixed::SatFixed;
///
/// let a = SatFixed::new(50, 7);
/// let b = SatFixed::new(40, 7);
/// assert_eq!((a + b).value(), 63);          // saturates at +63
/// assert_eq!((-a - b).value(), -64);        // saturates at -64
/// assert_eq!((a - b).value(), 10);
/// ```
#[derive(Debug, Clone, Copy, Eq)]
pub struct SatFixed {
    value: i32,
    bits: u32,
}

impl SatFixed {
    /// Creates a new value, clamping `value` to the representable range of
    /// `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 31.
    #[inline]
    pub fn new(value: i32, bits: u32) -> Self {
        assert!((1..=31).contains(&bits), "bit width must be in 1..=31");
        let mut s = SatFixed { value: 0, bits };
        s.value = s.clamp_raw(value);
        s
    }

    /// The zero value at the given bit width.
    pub fn zero(bits: u32) -> Self {
        SatFixed::new(0, bits)
    }

    /// Largest representable value: `2^(bits-1) - 1`.
    pub fn max_value(bits: u32) -> i32 {
        (1i32 << (bits - 1)) - 1
    }

    /// Smallest representable value: `-2^(bits-1)`.
    pub fn min_value(bits: u32) -> i32 {
        -(1i32 << (bits - 1))
    }

    #[inline]
    fn clamp_raw(&self, v: i32) -> i32 {
        v.clamp(Self::min_value(self.bits), Self::max_value(self.bits))
    }

    /// Returns the stored integer value.
    pub fn value(self) -> i32 {
        self.value
    }

    /// Returns the bit width.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Re-saturates this value to a (possibly narrower) bit width.
    pub fn resize(self, bits: u32) -> Self {
        SatFixed::new(self.value, bits)
    }

    /// Absolute value (saturating: `|-2^(b-1)|` clamps to `2^(b-1)-1`).
    pub fn abs(self) -> Self {
        SatFixed::new(self.value.saturating_abs(), self.bits)
    }
}

impl fmt::Display for SatFixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}q{}", self.value, self.bits)
    }
}

impl PartialEq for SatFixed {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

// `Hash` must agree with the manual `PartialEq`, which compares only the
// stored value (the bit width is metadata).
impl std::hash::Hash for SatFixed {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.value.hash(state);
    }
}

impl PartialOrd for SatFixed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SatFixed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value.cmp(&other.value)
    }
}

impl Add for SatFixed {
    type Output = SatFixed;
    fn add(self, rhs: SatFixed) -> SatFixed {
        let bits = self.bits.max(rhs.bits);
        SatFixed::new(self.value.saturating_add(rhs.value), bits)
    }
}

impl Sub for SatFixed {
    type Output = SatFixed;
    fn sub(self, rhs: SatFixed) -> SatFixed {
        let bits = self.bits.max(rhs.bits);
        SatFixed::new(self.value.saturating_sub(rhs.value), bits)
    }
}

impl Neg for SatFixed {
    type Output = SatFixed;
    fn neg(self) -> SatFixed {
        SatFixed::new(self.value.saturating_neg(), self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn range_of_seven_bits() {
        assert_eq!(SatFixed::max_value(7), 63);
        assert_eq!(SatFixed::min_value(7), -64);
        assert_eq!(SatFixed::new(100, 7).value(), 63);
        assert_eq!(SatFixed::new(-100, 7).value(), -64);
    }

    #[test]
    fn range_of_five_bits() {
        assert_eq!(SatFixed::max_value(5), 15);
        assert_eq!(SatFixed::min_value(5), -16);
    }

    #[test]
    fn addition_saturates() {
        let a = SatFixed::new(60, 7);
        let b = SatFixed::new(10, 7);
        assert_eq!((a + b).value(), 63);
        assert_eq!((-a - b).value(), -64);
    }

    #[test]
    fn mixed_width_uses_wider() {
        let a = SatFixed::new(15, 5);
        let b = SatFixed::new(30, 7);
        let c = a + b;
        assert_eq!(c.bits(), 7);
        assert_eq!(c.value(), 45);
    }

    #[test]
    fn resize_saturates_to_narrower_width() {
        let a = SatFixed::new(45, 7);
        assert_eq!(a.resize(5).value(), 15);
        assert_eq!(a.resize(5).bits(), 5);
    }

    #[test]
    fn abs_saturates_at_minimum() {
        let m = SatFixed::new(SatFixed::min_value(7), 7);
        assert_eq!(m.abs().value(), 63);
        assert_eq!(SatFixed::new(-5, 7).abs().value(), 5);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn zero_width_panics() {
        let _ = SatFixed::new(0, 0);
    }

    #[test]
    fn display_contains_width() {
        assert_eq!(SatFixed::new(-3, 5).to_string(), "-3q5");
    }

    #[test]
    fn ordering_by_value() {
        assert!(SatFixed::new(3, 7) > SatFixed::new(2, 7));
        assert_eq!(SatFixed::new(3, 7), SatFixed::new(3, 5));
    }

    proptest! {
        #[test]
        fn always_within_range(v in i32::MIN/2..i32::MAX/2, bits in 1u32..=31) {
            let s = SatFixed::new(v, bits);
            prop_assert!(s.value() >= SatFixed::min_value(bits));
            prop_assert!(s.value() <= SatFixed::max_value(bits));
        }

        #[test]
        fn add_commutative(a in -1000i32..1000, b in -1000i32..1000) {
            let x = SatFixed::new(a, 7) + SatFixed::new(b, 7);
            let y = SatFixed::new(b, 7) + SatFixed::new(a, 7);
            prop_assert_eq!(x.value(), y.value());
        }

        #[test]
        fn neg_is_involution_within_range(a in -63i32..=63) {
            let s = SatFixed::new(a, 7);
            prop_assert_eq!((-(-s)).value(), a);
        }
    }
}

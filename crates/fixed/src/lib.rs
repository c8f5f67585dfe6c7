//! Fixed-point arithmetic primitives shared by the turbo and LDPC decoder models.
//!
//! The decoder architecture of Condo, Martina and Masera (DATE 2012) quantizes
//! channel and state metrics on 7 bits and the LDPC check-to-variable messages
//! (`R_lk`) on 5 bits (Section IV of the paper).  This crate provides:
//!
//! * [`Quantizer`] — converts floating-point log-likelihood ratios (LLRs) into
//!   quantized integers and back, with saturation statistics.
//! * [`minsum`] — saturating integer message arithmetic for the
//!   normalized-min-sum check-node update (Eq. (11)), the substrate of the
//!   fixed-point layered decoder.
//! * [`Llr`] — a thin newtype over `f64` used throughout the algorithmic
//!   (floating-point) reference decoders.
//!
//! # The two datapaths
//!
//! The workspace carries **two parallel decode datapaths** built on this
//! crate:
//!
//! 1. the **floating-point reference** — decoders operating on [`Llr`]
//!    (`f64`), used to validate algorithms against textbook behaviour; and
//! 2. the **fixed hardware model** — decoders operating on quantized
//!    integers, mirroring what the paper's silicon computes: channel LLRs
//!    pass through the λ [`Quantizer`] ([`LAMBDA_BITS`]-bit with one
//!    fractional bit, NaN mapping to 0), every message add/subtract saturates
//!    at the register width ([`minsum::MinSumArith`]) and the `3/4` min-sum
//!    normalization is a shift-add.
//!
//! Comparing the two (see the `wimax_ldpc_quantization` example) yields the
//! quantization-loss curves the hardware evaluation relies on.
//!
//! # Example
//!
//! ```
//! use fec_fixed::Quantizer;
//!
//! // 7-bit quantizer with 1 fractional bit, as used for channel LLRs:
//! // 3.2 is 6.4 half-LSB steps, held as the register value 6 (3.0).
//! let q = Quantizer::new(7, 1);
//! assert_eq!(q.quantize(3.2), 6);
//! // 100 saturates at the 7-bit register's maximum of 63.
//! assert_eq!(q.quantize(100.0), 63);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod llr;
pub mod minsum;
pub mod quantizer;

pub use llr::Llr;
pub use minsum::MinSumArith;
pub use quantizer::{QuantStats, Quantizer};

/// Number of bits used for channel LLRs, state metrics (`alpha`, `beta`) and
/// extrinsic values in the paper's processing element (Section IV).
pub const LAMBDA_BITS: u32 = 7;

/// Number of bits used for the LDPC check-to-variable messages `R_lk` and for
/// the turbo branch metric inputs `lambda[c(e)]` (Section IV).
pub const R_BITS: u32 = 5;

pub(crate) use sat::rails;

/// Saturation of a datapath register: the one definition of its rails.
mod sat {
    /// The saturation rails `(-2^(bits-1), 2^(bits-1) - 1)` of a `bits`-bit
    /// two's-complement register, the range every datapath value is clamped to.
    #[inline]
    pub(crate) const fn rails(bits: u32) -> (i32, i32) {
        let half = 1i32 << (bits - 1);
        (-half, half - 1)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use proptest::prelude::*;

        #[test]
        fn range_of_seven_bits() {
            assert_eq!(rails(7), (-64, 63));
        }

        #[test]
        fn range_of_five_bits() {
            assert_eq!(rails(5), (-16, 15));
        }

        proptest! {
            /// A value clamped to the rails fits a `bits`-bit two's-complement
            /// register (sign-extending its low `bits` bits gives it back), and
            /// a value already within them is kept.
            #[test]
            fn always_within_range(v in i32::MIN / 2..i32::MAX / 2, bits in 1u32..=31) {
                let (min, max) = rails(bits);
                prop_assert!(min <= max);
                let s = v.clamp(min, max);
                let unused = 32 - bits;
                prop_assert_eq!((s << unused) >> unused, s);
                prop_assert_eq!(i64::from(max) - i64::from(min), (1i64 << bits) - 1);
                if (min..=max).contains(&v) {
                    prop_assert_eq!(s, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(LAMBDA_BITS, 7);
        assert_eq!(R_BITS, 5);
    }
}

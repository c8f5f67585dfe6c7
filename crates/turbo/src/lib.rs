//! The turbo codes of the workspace — the IEEE 802.16e (WiMAX) and DVB-RCS
//! double-binary convolutional turbo codes (CTC) and the 3GPP LTE binary
//! turbo code — and the one Max-Log-MAP turbo decoder that runs them all.
//!
//! This crate provides the turbo-code substrate of the NoC-based decoder of
//! Condo, Martina and Masera (DATE 2012):
//!
//! * [`trellis`] — the 8-state duo-binary circular recursive systematic
//!   convolutional (CRSC) constituent encoder, the binary LTE RSC, their
//!   compile-time trellis tables and the circulation-state computation
//!   (solved algebraically over GF(2) instead of using the standard's lookup
//!   table).
//! * [`interleaver`] — [`Interleaver`], the one validated permutation of
//!   every turbo code (natural to interleaved position, with its inverse),
//!   and the almost-regular-permutation (ARP) law with the WiMAX parameter
//!   set for all frame sizes.
//! * [`encoder`] — [`CtcCode`], the duo-binary code, which encodes itself:
//!   the parallel concatenation of two CRSC encoders with the odd-couple
//!   bit swap and puncturing to the transmitted code rates.
//! * [`siso`] — the Soft-In-Soft-Out kernel implementing the Max-Log BCJR
//!   recursion of Eq. (1)–(5) of the paper for any constituent trellis known
//!   at compile time.
//! * [`decoder`] — the iterative loop shared by every turbo code and the
//!   duo-binary decoder, including the symbol-level / bit-level extrinsic
//!   exchange trade-off (paper Sec. IV.B, refs \[23\] and \[24\]).
//! * [`binary`] — [`LteTurboCode`], the tail-terminated binary code of LTE,
//!   which encodes itself, and its decoder [`BinaryTurboDecoder`].
//! * [`codec`] — both decoders behind the Monte-Carlo engine's
//!   [`fec_channel::sim::FecCodec`] interface.
//! * [`bitlevel`] — the Symbol-To-Bit (STB) and Bit-To-Symbol (BTS)
//!   conversion units.
//!
//! # Example
//!
//! ```
//! use wimax_turbo::{CtcCode, TurboDecoder, TurboDecoderConfig};
//! use fec_channel::{AwgnChannel, BpskModulator, EbN0};
//! use rand::SeedableRng;
//!
//! let code = CtcCode::wimax(24)?;              // 24 couples = 48 info bits
//! let decoder = TurboDecoder::new(&code, TurboDecoderConfig::default());
//!
//! let info = vec![0u8; code.info_bits()];
//! let coded = code.encode(&info)?;
//!
//! let ch = AwgnChannel::for_code_rate(EbN0::from_db(3.0), 0.5);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let tx = BpskModulator::new().modulate(&coded);
//! let rx = ch.transmit(&tx, &mut rng);
//! let llrs = ch.llrs(&rx);
//!
//! let out = decoder.decode(&llrs)?;
//! assert_eq!(out.info_bits.len(), code.info_bits());
//! # Ok::<(), wimax_turbo::TurboError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod binary;
pub mod bitlevel;
pub mod codec;
pub mod decoder;
pub mod encoder;
pub mod interleaver;
pub mod siso;
pub mod trellis;

pub use binary::{BinaryTurboDecoder, LteTurboCode};
pub use decoder::{ExtrinsicExchange, TurboDecodeOutcome, TurboDecoder, TurboDecoderConfig};
pub use encoder::{CtcCode, PunctureRate};
pub use interleaver::{ArpParameters, Interleaver};
pub use siso::{Constituent, SisoUnit};
pub use trellis::{
    lte_rsc_step, CirculationState, ConstTrellis, DuoBinaryTrellis, LteTrellis, NUM_STATES, SYMBOLS,
};

use std::fmt;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TurboError {
    /// The requested frame size (in couples) is not a WiMAX CTC size.
    UnsupportedFrameSize {
        /// Offending number of couples.
        couples: usize,
    },
    /// The block size `K` is not in the LTE QPP table.
    UnsupportedBlockSize {
        /// Offending number of information bits.
        k: usize,
    },
    /// The frame size is incompatible with the CRSC period (N mod 7 == 0),
    /// which makes the circulation state undefined.
    InvalidCirculation {
        /// Offending number of couples.
        couples: usize,
    },
    /// An interleaver map (or the law that builds it) is not a
    /// permutation.
    InvalidInterleaver,
    /// An input slice had the wrong length.
    InvalidLength {
        /// What the slice represents.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
}

impl fmt::Display for TurboError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TurboError::UnsupportedFrameSize { couples } => {
                write!(f, "frame size of {couples} couples is not a WiMAX CTC size")
            }
            TurboError::UnsupportedBlockSize { k } => {
                write!(f, "block size K = {k} is not in the LTE QPP table")
            }
            TurboError::InvalidCirculation { couples } => write!(
                f,
                "frame size {couples} couples is a multiple of the CRSC period 7"
            ),
            TurboError::InvalidInterleaver => {
                write!(f, "interleaver map is not a permutation")
            }
            TurboError::InvalidLength {
                what,
                expected,
                actual,
            } => write!(f, "{what} has length {actual}, expected {expected}"),
        }
    }
}

impl std::error::Error for TurboError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_sizes_are_not_multiples_of_seven() {
        // The CRSC circulation state only exists when N mod 7 != 0.
        for n in interleaver::WIMAX_ARP_TABLE.map(|p| p.couples) {
            assert_ne!(n % 7, 0, "frame size {n}");
        }
    }

    #[test]
    fn error_display_mentions_details() {
        let e = TurboError::UnsupportedFrameSize { couples: 100 };
        assert!(e.to_string().contains("100"));
        let e = TurboError::InvalidLength {
            what: "info",
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains("info"));
    }
}

//! IEEE 802.16e (WiMAX) quasi-cyclic LDPC codes, encoder and decoders.
//!
//! This crate implements the LDPC substrate required by the NoC-based
//! turbo/LDPC decoder of Condo, Martina and Masera (DATE 2012):
//!
//! * [`base_matrix`] — the 802.16e base (model) matrices for code rates 1/2,
//!   2/3A, 2/3B, 3/4A, 3/4B and 5/6.  The rate-1/2 matrix uses the standard's
//!   published shift coefficients; the remaining rates use structured
//!   surrogates with the standard's dimensions, parity structure and degree
//!   profile (the README's "Supported standards" table lists the published
//!   and surrogate tables of every standard).
//! * [`code`] — a base matrix expanded by `z`, for any of the 19 WiMAX
//!   block lengths (576..=2304 bits in steps of 96), held as its base matrix
//!   and its layer plan.
//! * [`plan`] — the layer plan: each block row's non-zero blocks with their
//!   shifts at `z` and every check row's bits (the rows of the parity-check
//!   matrix H), built once per code; the parity check, the decoders, both
//!   encoders and the NoC mapping flow (its row graph, its traffic and its
//!   store key) read it.
//! * [`encoder`] — the efficient two-stage QC encoder exploiting the
//!   dual-diagonal parity structure, plus a generic Gaussian-elimination
//!   encoder used for cross-validation.
//! * [`decoder`] — the layered normalized-min-sum decoder of the paper
//!   (Eq. 6–11), including the two-minimum extraction performed by the
//!   hardware MEU, in two flavours: the floating-point reference
//!   ([`LayeredDecoder`], which updates a layer's check rows as f64
//!   lanes, and whose loop also runs the two-phase (flooding) baseline,
//!   [`LayeredDecoder::flooding`]) and the fixed-point hardware-datapath
//!   model ([`FixedLayeredDecoder`]: channel LLRs quantized to λ on entry,
//!   saturating arithmetic, per-edge message buffers over the plan's row
//!   columns and frames as lanes of one refill loop).
//!
//! # Example
//!
//! ```
//! use wimax_ldpc::{CodeRate, QcLdpcCode};
//! use wimax_ldpc::decoder::{LayeredConfig, LayeredDecoder};
//! use fec_fixed::Llr;
//!
//! let code = QcLdpcCode::wimax(2304, CodeRate::R12)?;
//! assert_eq!(code.n(), 2304);
//! assert_eq!(code.m(), 1152);
//!
//! // Decode a noiseless all-zero codeword.
//! let llrs = vec![Llr::new(5.0); code.n()];
//! let decoder = LayeredDecoder::new(&code, LayeredConfig::default());
//! let out = decoder.decode(&llrs);
//! assert!(out.converged);
//! assert!(out.hard_bits.iter().all(|&b| b == 0));
//! # Ok::<(), wimax_ldpc::LdpcError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod base_matrix;
pub mod code;
pub mod codec;
pub mod decoder;
pub mod encoder;
pub mod plan;

pub use base_matrix::{BaseMatrix, CodeRate, ShiftScaling};
pub use code::{LdpcError, QcLdpcCode};
pub use codec::{LayeredLdpcCodec, QuantizedLayeredLdpcCodec};
pub use decoder::{
    DecodeOutcome, FixedLayeredConfig, FixedLayeredDecoder, LayeredConfig, LayeredDecoder,
};
pub use encoder::{GaussianEncoder, QcEncoder};
pub use plan::{Block, LayerPlan};

/// The number of columns of every 802.16e base matrix.
pub const BASE_COLUMNS: usize = 24;

/// All WiMAX LDPC block lengths (bits): 576..=2304 in steps of 96.
pub fn wimax_block_lengths() -> Vec<usize> {
    (0..19).map(|i| 576 + 96 * i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_block_lengths() {
        let lens = wimax_block_lengths();
        assert_eq!(lens.len(), 19);
        assert_eq!(lens[0], 576);
        assert_eq!(*lens.last().unwrap(), 2304);
        assert!(lens.windows(2).all(|w| w[1] - w[0] == 96));
    }
}

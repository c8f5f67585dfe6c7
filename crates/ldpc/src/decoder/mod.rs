//! LDPC decoders: the layered normalized-min-sum decoder used by the
//! paper's processing element, in a floating-point reference flavour
//! ([`LayeredDecoder`]) and the fixed-point hardware-datapath flavour
//! ([`FixedLayeredDecoder`]).  The f64 decoder also runs the two-phase
//! (flooding) baseline ([`LayeredDecoder::flooding`]): the same loop with
//! λ written once per iteration.  Both walk the code's
//! [`LayerPlan`](crate::LayerPlan): the f64 loop by blocks, with a layer's
//! check rows as lanes, the fixed-point loop by the plan's row columns,
//! with frames as lanes.

mod layered;
mod layered_fixed;
mod meu;

pub use layered::{LayeredConfig, LayeredDecoder};
pub use layered_fixed::{FixedLayeredConfig, FixedLayeredDecoder};
pub use meu::{MinimumExtractionUnit, TwoMinScan};

/// Result of a decoding attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeOutcome {
    /// Hard decisions on every codeword bit.
    pub hard_bits: Vec<u8>,
    /// Final a-posteriori LLR of every codeword bit.
    pub posterior: Vec<f64>,
    /// Number of iterations actually performed.
    pub iterations: usize,
    /// `true` if the decoder stopped because the syndrome became zero.
    pub converged: bool,
}

impl DecodeOutcome {
    /// The decoded information bits, assuming a systematic code where the
    /// first `k` bits are the information bits.
    pub fn info_bits(&self, k: usize) -> &[u8] {
        &self.hard_bits[..k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_bits_are_a_prefix() {
        let out = DecodeOutcome {
            hard_bits: vec![1, 0, 1, 1],
            posterior: vec![0.0; 4],
            iterations: 1,
            converged: true,
        };
        assert_eq!(out.info_bits(2), &[1, 0]);
    }
}

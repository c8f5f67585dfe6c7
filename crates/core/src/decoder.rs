//! The top-level flexible decoder object.

use crate::config::DecoderConfig;
use crate::evaluation::{
    evaluate_ldpc, evaluate_turbo, DecoderError, DesignEvaluation, CTC_PAYLOAD_BITS,
};
use asic_model::power::OperatingMode;
use asic_model::{PowerModel, Technology};
use fec_fixed::Llr;
use noc_mapping::MappingStore;
use wimax_ldpc::decoder::{LayeredConfig, LayeredDecoder};
use wimax_ldpc::{DecodeOutcome, QcLdpcCode};
use wimax_turbo::{CtcCode, TurboDecodeOutcome, TurboDecoder, TurboDecoderConfig, TurboError};

/// The flexible NoC-based turbo/LDPC decoder.
///
/// A `NocDecoder` couples the functional decoders (so frames can actually be
/// decoded) with the architectural evaluation flow (so throughput, area and
/// power of the chosen configuration can be computed as in the paper).
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct NocDecoder {
    config: DecoderConfig,
    power: PowerModel,
}

impl NocDecoder {
    /// Creates a decoder for the given configuration.
    pub fn new(config: DecoderConfig) -> Self {
        NocDecoder {
            config,
            power: PowerModel::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// Functionally decodes an LDPC frame with the layered normalized-min-sum
    /// decoder, using the configured maximum iteration count.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len() != code.n()` (propagated from the decoder).
    pub fn decode_ldpc_frame(&self, code: &QcLdpcCode, llrs: &[Llr]) -> DecodeOutcome {
        let cfg = LayeredConfig {
            max_iterations: self.config.ldpc_iterations,
            ..LayeredConfig::default()
        };
        LayeredDecoder::new(code, cfg).decode(llrs)
    }

    /// Functionally decodes a turbo frame with the Max-Log-MAP iterative
    /// decoder and bit-level extrinsic exchange (the paper's configuration).
    ///
    /// # Errors
    ///
    /// Returns a [`TurboError`] if the LLR vector length does not match the
    /// punctured codeword length.
    pub fn decode_turbo_frame(
        &self,
        code: &CtcCode,
        llrs: &[Llr],
    ) -> Result<TurboDecodeOutcome, TurboError> {
        let cfg = TurboDecoderConfig {
            max_iterations: self.config.turbo_iterations,
            ..TurboDecoderConfig::default()
        };
        TurboDecoder::new(code, cfg).decode(llrs)
    }

    /// Evaluates this configuration in LDPC mode on the given code, mapping
    /// the code anew.
    ///
    /// # Errors
    ///
    /// Returns a [`DecoderError`] if the configuration cannot be realised.
    pub fn evaluate_ldpc(&self, code: &QcLdpcCode) -> Result<DesignEvaluation, DecoderError> {
        evaluate_ldpc(&self.config, code, &MappingStore::new())
    }

    /// Evaluates this configuration in turbo mode on the given code.
    ///
    /// # Errors
    ///
    /// Returns a [`DecoderError`] if the configuration cannot be realised.
    pub fn evaluate_turbo(&self, code: &CtcCode) -> Result<DesignEvaluation, DecoderError> {
        evaluate_turbo(
            &self.config,
            code.info_bits(),
            code.interleaver(),
            CTC_PAYLOAD_BITS,
        )
    }

    /// Estimated peak power in mW of an evaluated design point.
    pub fn power_mw(&self, evaluation: &DesignEvaluation) -> f64 {
        let (f_mhz, mode) = match evaluation.mode {
            crate::evaluation::Mode::Ldpc => (self.config.ldpc_clock_mhz, OperatingMode::Ldpc),
            crate::evaluation::Mode::Turbo => {
                // NoC at the turbo clock, SISO at half of it: use the average
                // as the effective switching frequency.
                (0.75 * self.config.turbo_clock_mhz, OperatingMode::Turbo)
            }
        };
        self.power
            .power_mw(evaluation.total_area_mm2(), f_mhz, mode)
    }

    /// Total area normalised to another technology node (Table III's `A_N`).
    pub fn normalized_area_mm2(&self, evaluation: &DesignEvaluation, target: Technology) -> f64 {
        Technology::nm90().scale_area(evaluation.total_area_mm2(), target)
    }
}

impl Default for NocDecoder {
    fn default() -> Self {
        NocDecoder::new(DecoderConfig::paper_design_point())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use wimax_ldpc::{CodeRate, QcEncoder};

    #[test]
    fn functional_ldpc_decode_roundtrip() {
        let decoder = NocDecoder::default();
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
        let cw = enc.encode(&info).unwrap();
        let llrs: Vec<Llr> = cw
            .iter()
            .map(|&b| Llr::new(5.0 * (1.0 - 2.0 * b as f64)))
            .collect();
        let out = decoder.decode_ldpc_frame(&code, &llrs);
        assert!(out.converged);
        assert_eq!(out.info_bits(code.k()), &info[..]);
    }

    #[test]
    fn functional_turbo_decode_roundtrip() {
        let decoder = NocDecoder::default();
        let code = CtcCode::wimax(48).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let info: Vec<u8> = (0..code.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let cw = code.encode(&info).unwrap();
        let llrs: Vec<Llr> = cw
            .iter()
            .map(|&b| Llr::new(6.0 * (1.0 - 2.0 * b as f64)))
            .collect();
        let out = decoder.decode_turbo_frame(&code, &llrs).unwrap();
        assert_eq!(out.info_bits, info);
    }

    #[test]
    fn iteration_limits_follow_configuration() {
        let decoder = NocDecoder::new(DecoderConfig {
            ldpc_iterations: 3,
            ..DecoderConfig::paper_design_point()
        });
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let llrs: Vec<Llr> = (0..code.n())
            .map(|_| Llr::new(rng.gen_range(-0.5..0.5)))
            .collect();
        let out = decoder.decode_ldpc_frame(&code, &llrs);
        assert!(out.iterations <= 3);
    }

    #[test]
    fn power_is_larger_in_ldpc_mode() {
        let decoder = NocDecoder::new(DecoderConfig::paper_design_point().with_pes(8));
        let ldpc_code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let turbo_code = CtcCode::wimax(240).unwrap();
        let e_ldpc = decoder.evaluate_ldpc(&ldpc_code).unwrap();
        let e_turbo = decoder.evaluate_turbo(&turbo_code).unwrap();
        assert!(decoder.power_mw(&e_ldpc) > decoder.power_mw(&e_turbo));
    }

    #[test]
    fn normalized_area_shrinks_at_65nm() {
        let decoder = NocDecoder::new(DecoderConfig::paper_design_point().with_pes(8));
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let eval = decoder.evaluate_ldpc(&code).unwrap();
        let a65 = decoder.normalized_area_mm2(&eval, Technology::nm65());
        assert!(a65 < eval.total_area_mm2());
        assert!((a65 / eval.total_area_mm2() - (65.0f64 / 90.0).powi(2)).abs() < 1e-9);
    }
}

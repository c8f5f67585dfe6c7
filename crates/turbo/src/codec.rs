//! The turbo decoders behind the [`FecCodec`] interface of the unified
//! Monte-Carlo simulation engine (`fec_channel::sim`): each decoder holds its
//! code, which encodes the frames, so the decoder is the codec.

use crate::binary::BinaryTurboDecoder;
use crate::decoder::{ExtrinsicExchange, TurboDecoder};
use fec_channel::sim::{decode_serially, FecCodec, FrameStream};
use fec_obs::Registry;

/// The duo-binary CTC; the extrinsic-exchange mode (symbol- or bit-level)
/// of its [`crate::TurboDecoderConfig`] names it.
impl FecCodec for TurboDecoder {
    fn name(&self) -> String {
        let mode = match self.config.exchange {
            ExtrinsicExchange::SymbolLevel => "symbol",
            ExtrinsicExchange::BitLevel => "bit",
        };
        format!("wimax-ctc-{}c-{mode}", self.code.couples())
    }

    fn info_bits(&self) -> usize {
        self.code.info_bits()
    }

    fn codeword_bits(&self) -> usize {
        self.code.coded_bits()
    }

    fn encode(&self, info: &[u8]) -> Vec<u8> {
        self.code
            .encode(info)
            .expect("info length matches the code")
    }

    fn decode_frames(&self, frames: &mut dyn FrameStream, _obs: Option<&mut Registry>) {
        decode_serially(self, frames, |llrs| {
            let out = self
                .decode(llrs)
                .expect("LLR length matches the punctured codeword");
            (out.info_bits, out.iterations, out.converged)
        });
    }
}

/// The LTE binary turbo code.
impl FecCodec for BinaryTurboDecoder {
    fn name(&self) -> String {
        format!("lte-turbo-k{}", self.code.info_bits())
    }

    fn info_bits(&self) -> usize {
        self.code.info_bits()
    }

    fn codeword_bits(&self) -> usize {
        self.code.coded_bits()
    }

    fn encode(&self, info: &[u8]) -> Vec<u8> {
        self.code
            .encode(info)
            .expect("info length matches the code")
    }

    fn decode_frames(&self, frames: &mut dyn FrameStream, _obs: Option<&mut Registry>) {
        decode_serially(self, frames, |llrs| {
            let out = self.decode(llrs).expect("LLR length matches the codeword");
            (out.info_bits, out.iterations, out.converged)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CtcCode, TurboDecoderConfig};
    use fec_channel::sim::{EngineConfig, SimulationEngine};
    use fec_fixed::Llr;

    fn codec(exchange: ExtrinsicExchange) -> TurboDecoder {
        let code = CtcCode::wimax(24).expect("valid WiMAX frame size");
        TurboDecoder::new(
            &code,
            TurboDecoderConfig {
                exchange,
                ..TurboDecoderConfig::default()
            },
        )
    }

    #[test]
    fn codec_reports_code_dimensions() {
        let c = codec(ExtrinsicExchange::BitLevel);
        assert_eq!(c.info_bits(), 48);
        assert_eq!(c.codeword_bits(), 2 * c.info_bits());
        assert!((c.rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.name(), "wimax-ctc-24c-bit");
        assert_eq!(
            codec(ExtrinsicExchange::SymbolLevel).name(),
            "wimax-ctc-24c-symbol"
        );
    }

    #[test]
    fn noiseless_roundtrip() {
        let c = codec(ExtrinsicExchange::SymbolLevel);
        let info: Vec<u8> = (0..c.info_bits()).map(|i| (i % 2) as u8).collect();
        let cw = c.encode(&info);
        let llrs: Vec<Llr> = cw
            .iter()
            .map(|&b| Llr::new(7.0 * (1.0 - 2.0 * f64::from(b))))
            .collect();
        let out = FecCodec::decode(&c, &llrs);
        assert_eq!(out.info_bits, info);
    }

    #[test]
    fn engine_runs_the_turbo_codec_error_free_at_high_snr() {
        let c = codec(ExtrinsicExchange::BitLevel);
        let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 2));
        let point = engine.run_point(&c, 6.0);
        assert_eq!(point.frames, 5);
        assert_eq!(point.bit_errors, 0);
    }
}

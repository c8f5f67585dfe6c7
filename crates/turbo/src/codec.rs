//! [`FecCodec`] adapter exposing the WiMAX double-binary turbo decoder to
//! the unified Monte-Carlo simulation engine (`fec_channel::sim`).

use crate::decoder::{ExtrinsicExchange, TurboDecoder, TurboDecoderConfig};
use crate::encoder::{CtcCode, TurboEncoder};
use fec_channel::sim::{decode_serially, FecCodec, FrameStream};
use fec_obs::Registry;

/// The iterative duo-binary turbo decoder behind the [`FecCodec`]
/// interface; the extrinsic-exchange mode (symbol- or bit-level) comes from
/// the [`TurboDecoderConfig`].
#[derive(Debug, Clone)]
pub struct TurboCodec {
    code: CtcCode,
    encoder: TurboEncoder,
    decoder: TurboDecoder,
    exchange: ExtrinsicExchange,
}

impl TurboCodec {
    /// Builds the codec for `code` with the given decoder configuration.
    pub fn new(code: &CtcCode, config: TurboDecoderConfig) -> Self {
        TurboCodec {
            code: code.clone(),
            encoder: TurboEncoder::new(code),
            decoder: TurboDecoder::new(code, config),
            exchange: config.exchange,
        }
    }
}

impl FecCodec for TurboCodec {
    fn name(&self) -> String {
        let mode = match self.exchange {
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
        self.encoder
            .encode(info)
            .expect("info length matches the code")
    }

    fn decode_frames(&self, frames: &mut dyn FrameStream, _obs: Option<&mut Registry>) {
        decode_serially(self, frames, |llrs| {
            let out = self
                .decoder
                .decode(llrs)
                .expect("LLR length matches the punctured codeword");
            (out.info_bits, out.iterations, out.converged)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_channel::sim::{EngineConfig, SimulationEngine};
    use fec_fixed::Llr;

    fn codec(exchange: ExtrinsicExchange) -> TurboCodec {
        let code = CtcCode::wimax(24).expect("valid WiMAX frame size");
        TurboCodec::new(
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
        let out = c.decode(&llrs);
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

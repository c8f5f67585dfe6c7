//! [`FecCodec`] adapters exposing the WiMAX LDPC decoders to the unified
//! Monte-Carlo simulation engine (`fec_channel::sim`).

use crate::code::QcLdpcCode;
use crate::decoder::{FixedLayeredConfig, FixedLayeredDecoder, LayeredConfig, LayeredDecoder};
use crate::encoder::QcEncoder;
use fec_channel::sim::{FecCodec, FrameStream};
use fec_obs::{NoopRecorder, Registry};

/// The f64 layered normalized-min-sum decoder (the paper's hardware
/// algorithm), or the same loop on the two-phase (flooding) schedule,
/// behind the [`FecCodec`] interface.
#[derive(Debug, Clone)]
pub struct LayeredLdpcCodec {
    n: usize,
    k: usize,
    encoder: QcEncoder,
    decoder: LayeredDecoder,
    /// The schedule's name: `layered` or `flooding`.
    schedule: &'static str,
}

impl LayeredLdpcCodec {
    /// Builds the codec for `code` with the given decoder configuration.
    pub fn new(code: &QcLdpcCode, config: LayeredConfig) -> Self {
        Self::with(code, LayeredDecoder::new(code, config), "layered")
    }

    /// Builds the codec of [`LayeredDecoder::flooding`], the two-phase
    /// baseline.
    pub fn flooding(code: &QcLdpcCode, config: LayeredConfig) -> Self {
        Self::with(code, LayeredDecoder::flooding(code, config), "flooding")
    }

    fn with(code: &QcLdpcCode, decoder: LayeredDecoder, schedule: &'static str) -> Self {
        LayeredLdpcCodec {
            n: code.n(),
            k: code.k(),
            encoder: QcEncoder::new(code),
            decoder,
            schedule,
        }
    }
}

impl FecCodec for LayeredLdpcCodec {
    fn name(&self) -> String {
        format!("wimax-ldpc-n{}-{}", self.n, self.schedule)
    }

    fn info_bits(&self) -> usize {
        self.k
    }

    fn codeword_bits(&self) -> usize {
        self.n
    }

    fn encode(&self, info: &[u8]) -> Vec<u8> {
        self.encoder
            .encode(info)
            .expect("info length matches the code")
    }

    /// Decodes frame after frame through the decoder's one loop, whose
    /// lanes are a layer's check rows, not frames, so the stream's width
    /// changes nothing; each frame's information bits go to the stream
    /// straight from the decoder's scratch, and no `DecodeOutcome` is
    /// built.
    fn decode_frames(&self, frames: &mut dyn FrameStream, _obs: Option<&mut Registry>) {
        self.decoder.decode_stream(frames);
    }
}

/// The fixed-point layered decoder (quantized λ, saturating message
/// arithmetic — the hardware datapath model) behind the [`FecCodec`]
/// interface, so the [`fec_channel::sim::SimulationEngine`] can run
/// hardware-faithful quantized Monte-Carlo unchanged.
#[derive(Debug, Clone)]
pub struct QuantizedLayeredLdpcCodec {
    n: usize,
    k: usize,
    encoder: QcEncoder,
    decoder: FixedLayeredDecoder,
}

impl QuantizedLayeredLdpcCodec {
    /// Builds the codec for `code` with the given decoder configuration.
    pub fn new(code: &QcLdpcCode, config: FixedLayeredConfig) -> Self {
        QuantizedLayeredLdpcCodec {
            n: code.n(),
            k: code.k(),
            encoder: QcEncoder::new(code),
            decoder: FixedLayeredDecoder::new(code, config),
        }
    }
}

impl FecCodec for QuantizedLayeredLdpcCodec {
    fn name(&self) -> String {
        format!(
            "wimax-ldpc-n{}-layered-q{}",
            self.n,
            self.decoder.config().lambda_bits
        )
    }

    fn info_bits(&self) -> usize {
        self.k
    }

    fn codeword_bits(&self) -> usize {
        self.n
    }

    fn encode(&self, info: &[u8]) -> Vec<u8> {
        self.encoder
            .encode(info)
            .expect("info length matches the code")
    }

    /// Streams the frames through the refilled lanes of
    /// [`FixedLayeredDecoder::decode_stream`]; with `obs` set, the fixed
    /// datapath records its `fixed.*` quantizer, saturation and lockstep
    /// metrics into it.
    fn decode_frames(&self, frames: &mut dyn FrameStream, obs: Option<&mut Registry>) {
        match obs {
            Some(obs) => self.decoder.decode_stream(frames, obs),
            None => self.decoder.decode_stream(frames, &mut NoopRecorder),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_matrix::CodeRate;
    use fec_channel::sim::{DecodedFrame, EngineConfig, FrameSlice, SimulationEngine};
    use fec_fixed::Llr;

    fn code() -> QcLdpcCode {
        QcLdpcCode::wimax(576, CodeRate::R12).expect("valid WiMAX length")
    }

    #[test]
    fn layered_codec_reports_code_dimensions() {
        let codec = LayeredLdpcCodec::new(&code(), LayeredConfig::default());
        assert_eq!(codec.info_bits(), 288);
        assert_eq!(codec.codeword_bits(), 576);
        assert!((codec.rate() - 0.5).abs() < 1e-12);
        assert_eq!(codec.name(), "wimax-ldpc-n576-layered");
    }

    #[test]
    fn noiseless_roundtrip_through_both_codecs() {
        let code = code();
        let layered = LayeredLdpcCodec::new(&code, LayeredConfig::default());
        let flooding = LayeredLdpcCodec::flooding(&code, LayeredConfig::default());
        assert_eq!(flooding.name(), "wimax-ldpc-n576-flooding");
        let info = vec![1u8; layered.info_bits()];
        for codec in [&layered as &dyn FecCodec, &flooding] {
            let cw = codec.encode(&info);
            let llrs: Vec<Llr> = cw
                .iter()
                .map(|&b| Llr::new(8.0 * (1.0 - 2.0 * f64::from(b))))
                .collect();
            let out = codec.decode(&llrs);
            assert!(out.converged, "{}", codec.name());
            assert_eq!(out.info_bits, info, "{}", codec.name());
        }
    }

    #[test]
    fn engine_runs_the_ldpc_codec_error_free_at_high_snr() {
        let codec = LayeredLdpcCodec::new(&code(), LayeredConfig::default());
        let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 1));
        let point = engine.run_point(&codec, 6.0);
        assert_eq!(point.frames, 5);
        assert_eq!(point.bit_errors, 0);
    }

    #[test]
    fn quantized_codec_reports_dimensions_and_width_in_name() {
        let codec = QuantizedLayeredLdpcCodec::new(&code(), FixedLayeredConfig::default());
        assert_eq!(codec.info_bits(), 288);
        assert_eq!(codec.codeword_bits(), 576);
        assert_eq!(codec.name(), "wimax-ldpc-n576-layered-q7");
    }

    #[test]
    fn engine_runs_the_quantized_codec_error_free_at_high_snr() {
        let codec = QuantizedLayeredLdpcCodec::new(&code(), FixedLayeredConfig::default());
        let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 1));
        let point = engine.run_point(&codec, 6.0);
        assert_eq!(point.frames, 5);
        assert_eq!(point.bit_errors, 0);
    }

    #[test]
    fn layered_codec_batch_decode_matches_serial_decode() {
        use rand::{Rng, SeedableRng};
        let codec = LayeredLdpcCodec::new(&code(), LayeredConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let frames: Vec<Vec<Llr>> = (0..5)
            .map(|_| {
                (0..codec.codeword_bits())
                    .map(|_| Llr::new(rng.gen_range(-40i32..=40) as f64 / 8.0))
                    .collect()
            })
            .collect();
        let refs: Vec<&[Llr]> = frames.iter().map(|f| f.as_slice()).collect();
        let batched = codec.decode_batch(&refs);
        let serial: Vec<DecodedFrame> = frames.iter().map(|f| codec.decode(f)).collect();
        assert_eq!(batched, serial);
        // Observation never changes results.
        let mut obs = Registry::new();
        let mut stream = FrameSlice::new(&refs, 5);
        codec.decode_frames(&mut stream, Some(&mut obs));
        assert_eq!(stream.into_decoded(), serial);
    }

    #[test]
    fn quantized_codec_batch_decode_matches_serial_decode() {
        use rand::{Rng, SeedableRng};
        let codec = QuantizedLayeredLdpcCodec::new(&code(), FixedLayeredConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let frames: Vec<Vec<Llr>> = (0..5)
            .map(|_| {
                (0..codec.codeword_bits())
                    .map(|_| Llr::new(rng.gen_range(-40i32..=40) as f64 / 8.0))
                    .collect()
            })
            .collect();
        let refs: Vec<&[Llr]> = frames.iter().map(|f| f.as_slice()).collect();
        let batched = codec.decode_batch(&refs);
        let serial: Vec<DecodedFrame> = frames.iter().map(|f| codec.decode(f)).collect();
        assert_eq!(batched, serial);
    }

    #[test]
    fn observed_decode_is_bitwise_plain_and_counts_are_batch_invariant() {
        use rand::{Rng, SeedableRng};
        let codec = QuantizedLayeredLdpcCodec::new(&code(), FixedLayeredConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let frames: Vec<Vec<Llr>> = (0..5)
            .map(|_| {
                (0..codec.codeword_bits())
                    .map(|_| Llr::new(rng.gen_range(-40i32..=40) as f64 / 8.0))
                    .collect()
            })
            .collect();
        let refs: Vec<&[Llr]> = frames.iter().map(|f| f.as_slice()).collect();

        let mut serial_obs = Registry::new();
        let serial: Vec<DecodedFrame> = refs
            .chunks(1)
            .flat_map(|frame| {
                let mut stream = FrameSlice::new(frame, 1);
                codec.decode_frames(&mut stream, Some(&mut serial_obs));
                stream.into_decoded()
            })
            .collect();
        let plain: Vec<DecodedFrame> = frames.iter().map(|f| codec.decode(f)).collect();
        assert_eq!(serial, plain, "observation must not change results");

        // Five frames on four refilled lanes.
        let mut batch_obs = Registry::new();
        let mut stream = FrameSlice::new(&refs, 5);
        codec.decode_frames(&mut stream, Some(&mut batch_obs));
        assert_eq!(stream.into_decoded(), plain);
        // Count-class metrics (fixed.* saturation counters included) skip
        // emptied lanes in the lockstep path, so batch == serial.
        assert_eq!(batch_obs.render_counts(), serial_obs.render_counts());
        assert_eq!(serial_obs.counter("fixed.frames"), Some(5));
        assert!(serial_obs.get("fixed.iterations").is_some());
        // Both report the Execution-class lockstep metrics; a one-lane
        // stream never waits on another lane.
        assert!(batch_obs.get("fixed.lane_iterations").is_some());
        assert!(serial_obs.get("fixed.lane_iterations").is_some());
        assert_eq!(serial_obs.counter("fixed.overwork_iters"), Some(0));
        assert_eq!(lane_width(&batch_obs), (1, 4));
        assert_eq!(lane_width(&serial_obs), (5, 5));
    }

    /// The `fixed.lane_width` histogram: refill loops run and the sum of
    /// their lane widths.
    fn lane_width(obs: &Registry) -> (u64, u64) {
        match obs.get("fixed.lane_width").map(|m| &m.value) {
            Some(fec_obs::MetricValue::Histogram(h)) => (h.total(), h.sum()),
            other => panic!("fixed.lane_width must be a histogram, got {other:?}"),
        }
    }

    #[test]
    fn engine_point_is_identical_at_any_batch_size() {
        // 4 shards × 16 frames: every round holds 64 frames, so each batch
        // size runs lanes as wide as it asks for.
        let config = EngineConfig {
            frames_per_shard_round: 16,
            ..EngineConfig::fixed_frames(64, 7).with_shards(4)
        };
        let codec = QuantizedLayeredLdpcCodec::new(&code(), FixedLayeredConfig::default());
        let reference = SimulationEngine::new(config).run_point(&codec, 1.0);
        for batch in [5, 8, 16] {
            let engine = SimulationEngine::new(config.with_batch_frames(batch));
            assert_eq!(engine.run_point(&codec, 1.0), reference, "batch = {batch}");
        }
    }
}

//! Integration tests of the unified Monte-Carlo simulation engine with the
//! real WiMAX codecs: worker-count invariance (the determinism contract of
//! `fec_channel::sim`) and early-stopping bounds.

use fec_channel::sim::{EngineConfig, FecCodec, SimulationEngine};
use fec_channel::StopRule;
use fec_obs::{ManualClock, Registry};
use wimax_ldpc::decoder::{FixedLayeredConfig, LayeredConfig};
use wimax_ldpc::{CodeRate, LayeredLdpcCodec, QcLdpcCode, QuantizedLayeredLdpcCodec};
use wimax_turbo::{CtcCode, ExtrinsicExchange, TurboDecoder, TurboDecoderConfig};

fn layered_codec() -> LayeredLdpcCodec {
    let code = QcLdpcCode::wimax(576, CodeRate::R12).expect("valid WiMAX length");
    LayeredLdpcCodec::new(&code, LayeredConfig::default())
}

fn q7_codec() -> QuantizedLayeredLdpcCodec {
    let code = QcLdpcCode::wimax(576, CodeRate::R12).expect("valid WiMAX length");
    QuantizedLayeredLdpcCodec::new(&code, FixedLayeredConfig::default())
}

fn ctc_codec() -> TurboDecoder {
    let code = CtcCode::wimax(24).expect("valid WiMAX frame size");
    TurboDecoder::new(
        &code,
        TurboDecoderConfig {
            exchange: ExtrinsicExchange::BitLevel,
            ..TurboDecoderConfig::default()
        },
    )
}

fn engine(workers: usize, frames: u64) -> SimulationEngine {
    SimulationEngine::new(
        EngineConfig {
            shards: 16,
            frames_per_shard_round: 2,
            seed: 2012,
            stop_rule: StopRule::FixedBudget { frames },
            ..EngineConfig::default()
        }
        .with_workers(workers),
    )
}

/// Same seed => bit-identical error counts for 1, 2 and 8 worker threads,
/// with the real layered LDPC decoder in the loop.
#[test]
fn ldpc_counts_are_identical_for_1_2_and_8_workers() {
    let codec = layered_codec();
    let frames = 60;
    let reference = engine(1, frames).run_point(&codec, 1.5);
    for workers in [2, 8] {
        let point = engine(workers, frames).run_point(&codec, 1.5);
        assert_eq!(point, reference, "workers = {workers}");
    }
}

/// The fixed-point (quantized) layered codec satisfies the same determinism
/// contract: bit-identical counts for 1, 2 and 8 workers.
#[test]
fn quantized_ldpc_counts_are_identical_for_1_2_and_8_workers() {
    let codec = q7_codec();
    let frames = 60;
    let reference = engine(1, frames).run_point(&codec, 1.5);
    for workers in [2, 8] {
        let point = engine(workers, frames).run_point(&codec, 1.5);
        assert_eq!(point, reference, "workers = {workers}");
    }
}

/// The batched decode path satisfies the full determinism contract with the
/// real fixed-point LDPC codec in the loop: every (workers, batch_frames)
/// combination — including ragged final batches — produces bit-identical
/// error counts, because channel noise is drawn frame by frame before
/// decoding and the lockstep batch decoder is bit-exact per lane.  Shard
/// jobs hold 16 frames, so the batch sizes build blocks up to 16 lanes
/// wide, and at 1.0 dB a block's lanes converge at different iterations.
#[test]
fn quantized_ldpc_counts_are_identical_for_any_worker_and_batch_size() {
    let codec = q7_codec();
    let engine = |workers: usize, batch: usize| {
        SimulationEngine::new(
            EngineConfig {
                shards: 2,
                frames_per_shard_round: 16,
                seed: 2012,
                stop_rule: StopRule::FixedBudget { frames: 32 },
                ..EngineConfig::default()
            }
            .with_workers(workers)
            .with_batch_frames(batch),
        )
    };
    let reference = engine(1, 1).run_point(&codec, 1.0);
    for workers in [1, 2, 8] {
        for batch in [1, 5, 8, 16] {
            let point = engine(workers, batch).run_point(&codec, 1.0);
            assert_eq!(point, reference, "workers = {workers}, batch = {batch}");
        }
    }
}

/// The adaptive (confidence-targeted) stop rule satisfies the full
/// determinism contract with the real fixed-point q7 LDPC codec in the
/// loop: round sizes are a pure function of the merged counts, so every
/// (workers, batch_frames) combination reproduces the single-threaded
/// unbatched schedule bit for bit — same frames, same error counts, same
/// early stop.
#[test]
fn adaptive_quantized_ldpc_counts_are_identical_for_any_worker_and_batch_size() {
    let codec = q7_codec();
    let adaptive = |workers: usize, batch: usize| {
        SimulationEngine::new(
            EngineConfig::adaptive(512, 0.35, 0.9, 2012)
                .with_workers(workers)
                .with_batch_frames(batch),
        )
    };
    // 1.0 dB on n576 r=1/2 errors often enough that the width target is
    // reachable well inside the cap — the adaptive path actually stops.
    let reference = adaptive(1, 1).run_point(&codec, 1.0);
    assert!(
        reference.frames < 512,
        "the stop rule should fire before the cap (frames = {})",
        reference.frames
    );
    for workers in [1, 2, 8] {
        for batch in [1, 8] {
            let point = adaptive(workers, batch).run_point(&codec, 1.0);
            assert_eq!(point, reference, "workers = {workers}, batch = {batch}");
        }
    }
}

/// One job per worker per point-round streams its shards' frames through
/// refilled q7 lanes: curves and every OBS Count metric are byte-identical
/// at workers 1/2/8 × batch 1/5/8/16, fixed budget and adaptive.  Rounds
/// of eight 3-frame shards make streams cross shard boundaries with frames
/// in flight, and leave 16 lanes more than a job's frames.
#[test]
fn stream_curves_and_counts_are_identical_for_any_worker_and_batch_size() {
    // Five iterations keep the debug build quick and still mix frames that
    // converge early, late and never.
    let code = QcLdpcCode::wimax(576, CodeRate::R12).expect("valid WiMAX length");
    let datapath = FixedLayeredConfig {
        max_iterations: 5,
        ..FixedLayeredConfig::default()
    };
    let codec = QuantizedLayeredLdpcCodec::new(&code, datapath);
    let snrs = [1.5, 2.5];
    let clock = ManualClock::new();
    let fixed = EngineConfig {
        shards: 8,
        frames_per_shard_round: 3,
        seed: 2012,
        stop_rule: StopRule::FixedBudget { frames: 24 },
        ..EngineConfig::default()
    };
    let adaptive = EngineConfig {
        frames_per_shard_round: 3,
        ..EngineConfig::adaptive(48, 0.5, 0.9, 2012).with_shards(8)
    };
    for config in [fixed, adaptive] {
        let run = |workers: usize, batch: usize| {
            let engine =
                SimulationEngine::new(config.with_workers(workers).with_batch_frames(batch));
            let mut obs = Registry::new();
            let curve = engine.run_curve_observed(&codec, &snrs, &clock, &mut obs);
            (curve, obs.render_counts())
        };
        let reference = run(1, 1);
        assert!(reference.1.contains("fixed.sat_q"), "{}", reference.1);
        for workers in [1, 2, 8] {
            for batch in [1, 5, 8, 16] {
                assert_eq!(
                    run(workers, batch),
                    reference,
                    "{:?} at workers = {workers}, batch = {batch}",
                    config.stop_rule
                );
            }
        }
    }
}

/// The turbo codec satisfies the same worker-count invariance.
#[test]
fn turbo_counts_are_identical_for_1_2_and_8_workers() {
    let codec = ctc_codec();
    let frames = 40;
    let reference = engine(1, frames).run_point(&codec, 0.5);
    for workers in [2, 8] {
        let point = engine(workers, frames).run_point(&codec, 0.5);
        assert_eq!(point, reference, "workers = {workers}");
    }
}

/// A multi-point curve on the shared work pool: every point
/// must be bit-identical at 1, 2 and 8 workers, with the real layered LDPC
/// decoder in the loop.
#[test]
fn ldpc_curve_counts_are_identical_for_1_2_and_8_workers() {
    let codec = layered_codec();
    let frames = 48;
    let snrs = [0.5, 1.5, 2.5];
    let reference = engine(1, frames).run_curve(&codec, &snrs);
    assert_eq!(reference.points.len(), 3);
    for workers in [2, 8] {
        let curve = engine(workers, frames).run_curve(&codec, &snrs);
        assert_eq!(curve, reference, "workers = {workers}");
    }
}

/// The pooled curve schedule must agree bit-for-bit with running the same
/// points one at a time (the pre-pool `run_curve` behaviour).
#[test]
fn pooled_curve_matches_point_at_a_time_runs() {
    let codec = layered_codec();
    let frames = 40;
    let snrs = [1.0, 2.0];
    let eng = engine(4, frames);
    let curve = eng.run_curve(&codec, &snrs);
    let pointwise: Vec<_> = snrs.iter().map(|&e| eng.run_point(&codec, e)).collect();
    assert_eq!(curve.points, pointwise);
}

/// Early stopping must never undershoot the adaptive minimum of
/// `ADAPTIVE_MIN_FRAMES` frames, even when the width target is reached in
/// the very first scheduling round.
#[test]
fn early_stopping_respects_min_frames_with_a_real_codec() {
    let codec = layered_codec();
    let mut cfg = EngineConfig::adaptive(5_000, 0.35, 0.9, 2012)
        .with_shards(16)
        .with_workers(2);
    cfg.frames_per_shard_round = 1; // a 16-frame first round
                                    // At -1 dB nearly every frame errs, so the first round alone already
                                    // meets the width target.
    let point = SimulationEngine::new(cfg).run_point(&codec, -1.0);
    assert!(
        point.frames >= EngineConfig::ADAPTIVE_MIN_FRAMES,
        "frames = {}",
        point.frames
    );
    assert!(
        point.frames < 5_000,
        "early stopping should fire long before max_frames"
    );
}

/// The object-safe `FecCodec` interface reports consistent dimensions for
/// every adapter.
#[test]
fn codec_dimensions_are_consistent() {
    let codecs: Vec<Box<dyn FecCodec>> = vec![
        Box::new(layered_codec()),
        Box::new(q7_codec()),
        Box::new(ctc_codec()),
    ];
    for codec in &codecs {
        assert!(codec.info_bits() > 0);
        assert!(codec.codeword_bits() >= codec.info_bits());
        let info = vec![0u8; codec.info_bits()];
        assert_eq!(
            codec.encode(&info).len(),
            codec.codeword_bits(),
            "{}",
            codec.name()
        );
    }
}

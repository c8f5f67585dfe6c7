//! Integration tests of the fec-obs observability layer: the determinism
//! contract of Count-class metrics (byte-identical `render_counts()` for
//! any worker count × decode batch size with the real fixed-point WiMAX
//! codec in the loop) and the zero-cost contract of [`NoopRecorder`] (the
//! instrumented decode entry point allocates exactly as much as the plain
//! one when the recorder is disabled).

mod common;

use common::allocations;
use fec_channel::sim::{EngineConfig, SimulationEngine};
use fec_channel::MonteCarloConfig;
use fec_obs::{ManualClock, NoopRecorder, Registry};
use wimax_ldpc::decoder::{FixedLayeredConfig, FixedLayeredDecoder};
use wimax_ldpc::{CodeRate, QcLdpcCode, QuantizedLayeredLdpcCodec};

fn quantized_codec() -> QuantizedLayeredLdpcCodec {
    let code = QcLdpcCode::wimax(576, CodeRate::R12).expect("valid WiMAX length");
    QuantizedLayeredLdpcCodec::new(&code, FixedLayeredConfig::default())
}

fn observed_engine(workers: usize, batch: usize) -> SimulationEngine {
    SimulationEngine::new(
        EngineConfig {
            shards: 16,
            frames_per_shard_round: 2,
            seed: 2012,
            stop: MonteCarloConfig {
                max_frames: 60,
                target_frame_errors: 10,
                min_frames: 20,
            },
            ..EngineConfig::default()
        }
        .with_workers(workers)
        .with_batch_frames(batch),
    )
}

/// The headline determinism contract of the observability layer: every
/// Count-class metric is byte-identical for any (workers, batch_frames)
/// combination, with the real fixed-point WiMAX codec — the most deeply
/// instrumented datapath (`codec.*`, `fixed.*`, `engine.*` families) — in
/// the loop.  Execution/timing sections are deliberately not compared.
#[test]
fn observed_counts_are_byte_identical_for_any_worker_and_batch_size() {
    let codec = quantized_codec();
    let snrs = [1.0, 2.0];
    let clock = ManualClock::default();

    let mut reference = Registry::new();
    let ref_curve = observed_engine(1, 1).run_curve_observed(&codec, &snrs, &clock, &mut reference);
    let ref_counts = reference.render_counts();
    assert!(
        ref_counts.contains("codec.frames") && ref_counts.contains("fixed.iterations"),
        "reference counts must cover the codec and fixed families:\n{ref_counts}"
    );
    assert!(
        ref_counts.contains("engine.p1.rounds"),
        "per-point engine counters must be present:\n{ref_counts}"
    );

    for workers in [1, 2, 8] {
        for batch in [1, 8] {
            let mut obs = Registry::new();
            let curve =
                observed_engine(workers, batch).run_curve_observed(&codec, &snrs, &clock, &mut obs);
            assert_eq!(curve, ref_curve, "workers = {workers}, batch = {batch}");
            assert_eq!(
                obs.render_counts(),
                ref_counts,
                "Count metrics must be byte-identical at workers = {workers}, batch = {batch}"
            );
        }
    }
}

/// The zero-cost contract of [`NoopRecorder`]: the recorded decode entry
/// point makes exactly as many heap allocations as the plain one, because
/// every instrumentation site is gated on the recorder's `const ENABLED`
/// and folds away.  Measured at steady state (after a warm-up decode) so
/// one-time lazy initialisation does not skew either side, and counted on
/// this thread only, so the sibling test's engine workers cannot perturb it.
#[test]
fn noop_recorder_adds_zero_allocations_to_decode_quantized() {
    let code = QcLdpcCode::wimax(576, CodeRate::R12).expect("valid WiMAX length");
    let decoder = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
    // An all-zeros frame quantizes to weak LLRs and decodes without
    // converging instantly, so the decode loop actually runs.
    let quantized = vec![1i16; 576];

    // Warm-up: populate any lazily-grown buffers on both paths.
    let warm_plain = decoder.decode_quantized(&quantized);
    let warm_noop = decoder.decode_quantized_recorded(&quantized, &mut NoopRecorder);
    assert_eq!(warm_plain.hard_bits, warm_noop.hard_bits);

    let (plain_allocs, plain) = allocations(|| decoder.decode_quantized(&quantized));
    let (noop_allocs, noop) =
        allocations(|| decoder.decode_quantized_recorded(&quantized, &mut NoopRecorder));

    assert_eq!(plain.hard_bits, noop.hard_bits);
    assert_eq!(plain.iterations, noop.iterations);
    assert_eq!(
        noop_allocs, plain_allocs,
        "a disabled recorder must not allocate: plain = {plain_allocs}, noop = {noop_allocs}"
    );
}

//! Integration tests of the fec-obs observability layer: the determinism
//! contract of Count-class metrics (byte-identical `render_counts()` for
//! any worker count × decode batch size with the real fixed-point WiMAX
//! codec in the loop).  The zero-cost contract of `NoopRecorder` is pinned
//! by the absolute allocation bounds in `integration_alloc`.

use fec_channel::sim::{EngineConfig, SimulationEngine};
use fec_channel::StopRule;
use fec_obs::{ManualClock, MetricValue, Registry};
use wimax_ldpc::decoder::FixedLayeredConfig;
use wimax_ldpc::{CodeRate, QcLdpcCode, QuantizedLayeredLdpcCodec};

fn q7_codec() -> QuantizedLayeredLdpcCodec {
    let code = QcLdpcCode::wimax(576, CodeRate::R12).expect("valid WiMAX length");
    QuantizedLayeredLdpcCodec::new(&code, FixedLayeredConfig::default())
}

/// Every round holds 32 frames (2 shards × 16 frames, one round per point),
/// so a batch size up to 16 runs lanes that wide.
fn observed_engine(workers: usize, batch: usize) -> SimulationEngine {
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
}

/// The refill loops the fixed decoder ran and the sum of their lane
/// widths: one `fixed.lane_width` observation per stream that held a frame.
fn lane_widths(obs: &Registry) -> (u64, u64) {
    match obs.get("fixed.lane_width").map(|m| &m.value) {
        Some(MetricValue::Histogram(streams)) => (streams.total(), streams.sum()),
        other => panic!("fixed.lane_width must be a histogram, got {other:?}"),
    }
}

/// The headline determinism contract of the observability layer: every
/// Count-class metric is byte-identical for any (workers, batch_frames)
/// combination, with the real fixed-point WiMAX codec — the most deeply
/// instrumented datapath (`codec.*`, `fixed.*`, `engine.*` families) — in
/// the loop.  Execution/timing sections are deliberately not compared,
/// except the lane widths that show the wide legs ran wide lanes.  At
/// 1.0 dB a stream's lanes converge at different iterations.
#[test]
fn observed_counts_are_byte_identical_for_any_worker_and_batch_size() {
    let codec = q7_codec();
    let snrs = [1.0, 2.0];
    let clock = ManualClock::default();
    // Lane width per batch size: the widest supported width not above it.
    let lanes_per_batch = [(1, 1), (5, 4), (8, 8), (16, 16)];
    let points = 2;

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
        for (batch, lanes) in lanes_per_batch {
            let mut obs = Registry::new();
            let curve =
                observed_engine(workers, batch).run_curve_observed(&codec, &snrs, &clock, &mut obs);
            assert_eq!(curve, ref_curve, "workers = {workers}, batch = {batch}");
            assert_eq!(
                obs.render_counts(),
                ref_counts,
                "Count metrics must be byte-identical at workers = {workers}, batch = {batch}"
            );
            // One job per worker (at most one per shard) per point-round;
            // a job the other job left no shard to is no stream.  Every
            // stream runs on the lanes its batch size asks for.
            let (streams, widths) = lane_widths(&obs);
            let jobs = points * workers.min(2) as u64;
            if workers == 1 {
                assert_eq!(streams, points, "streams at batch = {batch}");
            } else {
                assert!(
                    (points..=jobs).contains(&streams),
                    "{streams} streams at workers = {workers}, batch = {batch}"
                );
            }
            assert_eq!(
                widths,
                lanes * streams,
                "lane widths at workers = {workers}, batch = {batch}"
            );
        }
    }
}

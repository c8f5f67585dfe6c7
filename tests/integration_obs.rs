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

/// Every shard job holds 16 frames (2 shards × 16 frames, one round), so a
/// batch size up to 16 builds lockstep blocks that wide.
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

/// Lockstep blocks the fixed decoder ran: one `fixed.batch_exec_iterations`
/// observation each.
fn lockstep_blocks(obs: &Registry) -> u64 {
    match obs.get("fixed.batch_exec_iterations").map(|m| &m.value) {
        Some(MetricValue::Histogram(blocks)) => blocks.total(),
        other => panic!("fixed.batch_exec_iterations must be a histogram, got {other:?}"),
    }
}

/// The headline determinism contract of the observability layer: every
/// Count-class metric is byte-identical for any (workers, batch_frames)
/// combination, with the real fixed-point WiMAX codec — the most deeply
/// instrumented datapath (`codec.*`, `fixed.*`, `engine.*` families) — in
/// the loop.  Execution/timing sections are deliberately not compared,
/// except the block count that shows the wide legs ran wide blocks.  At
/// 1.0 dB a block's lanes converge at different iterations.
#[test]
fn observed_counts_are_byte_identical_for_any_worker_and_batch_size() {
    let codec = q7_codec();
    let snrs = [1.0, 2.0];
    let clock = ManualClock::default();
    // Blocks per 16-frame job: chunks of 5 run as 4 + 1 three times, then 1.
    let blocks_per_job = [(1, 16), (5, 7), (8, 2), (16, 1)];
    let jobs = 2 * 2;

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
        for (batch, blocks) in blocks_per_job {
            let mut obs = Registry::new();
            let curve =
                observed_engine(workers, batch).run_curve_observed(&codec, &snrs, &clock, &mut obs);
            assert_eq!(curve, ref_curve, "workers = {workers}, batch = {batch}");
            assert_eq!(
                obs.render_counts(),
                ref_counts,
                "Count metrics must be byte-identical at workers = {workers}, batch = {batch}"
            );
            assert_eq!(
                lockstep_blocks(&obs),
                jobs * blocks,
                "lockstep blocks at workers = {workers}, batch = {batch}"
            );
        }
    }
}

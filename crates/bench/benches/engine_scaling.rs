//! Wall-clock scaling of the unified Monte-Carlo simulation engine on the
//! shared deterministic work pool, plus the acceptance scenario of the
//! pooled curve scheduler: a multi-point sweep with a *short*
//! per-point budget, timed point-at-a-time (`run_point` in a loop — the old
//! per-point round barrier) against the pooled `run_curve` schedule at the
//! same worker count, with a bit-exactness cross-check between all runs.
//!
//! Also measures the adaptive Monte-Carlo acceptance scenario
//! (`adaptive_vs_uniform_frames_to_target`): the n576 WiMAX 6-point
//! reference curve run once with the uniform per-point budget and once with
//! the confidence-targeted stop rule at the same cap — every point must
//! reach a 20% relative FER half-width (95% confidence) and the adaptive
//! run must spend at most half the uniform frames.
//!
//! Run with `cargo bench -p decoder-bench --bench engine_scaling`.  Pass
//! `--json <path>` to emit the adaptive-vs-uniform row as machine-readable
//! JSON (`BENCH_engine_scaling.json` in CI) for trajectory tracking.

use code_tables::{DecoderKind, Standard, StandardCode};
use decoder_bench::{exit_with_usage, json_flag_from_args, write_json};
use fec_channel::sim::{BerCurve, BerPoint, EngineConfig, FecCodec, SimulationEngine};
use fec_channel::{normal_quantile, wilson_interval};
use fec_json::Json;
use std::time::Instant;

/// The WiMAX n576 layered codec every scenario decodes.
fn n576_layered() -> Box<dyn FecCodec> {
    StandardCode::resolve(Standard::Wimax, DecoderKind::Layered, 576)
        .and_then(|code| code.codec(DecoderKind::Layered))
        .expect("WiMAX n576 layered codec")
}

fn sweep(workers: usize) -> (BerCurve, f64) {
    let codec = n576_layered();
    let engine = SimulationEngine::new(EngineConfig::fixed_frames(200, 11).with_workers(workers));
    let snrs = [1.0, 1.5, 2.0, 2.5];
    let t0 = Instant::now();
    let curve = engine.run_curve(codec.as_ref(), &snrs);
    (curve, t0.elapsed().as_secs_f64())
}

/// Twenty points, 8 frames each: budgets short enough that the per-point
/// round barrier and pool setup used to dominate (the ROADMAP scenario the
/// pooled scheduler was built for).
const SHORT_SNRS: [f64; 20] = [
    0.5, 0.625, 0.75, 0.875, 1.0, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75, 1.875, 2.0, 2.125, 2.25,
    2.375, 2.5, 2.625, 2.75, 2.875,
];
const SHORT_FRAMES: u64 = 8;

fn short_budget_engine(workers: usize) -> SimulationEngine {
    SimulationEngine::new(EngineConfig::fixed_frames(SHORT_FRAMES, 11).with_workers(workers))
}

/// The serial-point baseline: one pool per point, points in sequence —
/// exactly what `run_curve` did before the shared-pool refactor.
fn serial_points(workers: usize) -> (Vec<BerPoint>, f64) {
    let codec = n576_layered();
    let engine = short_budget_engine(workers);
    let t0 = Instant::now();
    let points = SHORT_SNRS
        .iter()
        .map(|&e| engine.run_point(codec.as_ref(), e))
        .collect();
    (points, t0.elapsed().as_secs_f64())
}

/// The pooled schedule: the point-round jobs of the whole curve on one pool.
fn pooled_curve(workers: usize) -> (Vec<BerPoint>, f64) {
    let codec = n576_layered();
    let engine = short_budget_engine(workers);
    let t0 = Instant::now();
    let curve = engine.run_curve(codec.as_ref(), &SHORT_SNRS);
    (curve.points, t0.elapsed().as_secs_f64())
}

/// The n576 WiMAX 6-point reference waterfall for the adaptive acceptance
/// scenario: deep enough that the last point needs most of its budget to
/// hit the width target, shallow enough that every point *can* hit it.
const ADAPTIVE_SNRS: [f64; 6] = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0];
/// Uniform per-point budget, and the adaptive mode's hard per-point cap.
const ADAPTIVE_CAP: u64 = 4096;
const ADAPTIVE_TARGET: f64 = 0.2;
const ADAPTIVE_CONFIDENCE: f64 = 0.95;

/// Runs the uniform-budget and the adaptive sweep over the reference curve
/// and returns `(uniform, adaptive, t_uniform, t_adaptive)`.
fn adaptive_vs_uniform(workers: usize) -> (BerCurve, BerCurve, f64, f64) {
    let codec = n576_layered();
    let uniform_engine =
        SimulationEngine::new(EngineConfig::fixed_frames(ADAPTIVE_CAP, 11).with_workers(workers));
    let t0 = Instant::now();
    let uniform = uniform_engine.run_curve(codec.as_ref(), &ADAPTIVE_SNRS);
    let t_uniform = t0.elapsed().as_secs_f64();

    let adaptive_engine = SimulationEngine::new(
        EngineConfig::adaptive(ADAPTIVE_CAP, ADAPTIVE_TARGET, ADAPTIVE_CONFIDENCE, 11)
            .with_workers(workers),
    );
    let t0 = Instant::now();
    let adaptive = adaptive_engine.run_curve(codec.as_ref(), &ADAPTIVE_SNRS);
    let t_adaptive = t0.elapsed().as_secs_f64();
    (uniform, adaptive, t_uniform, t_adaptive)
}

fn main() {
    let (json_path, _rest) = json_flag_from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        exit_with_usage(
            "engine_scaling",
            &e,
            "usage: engine_scaling [--json <path>]",
        )
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("engine scaling: WiMAX LDPC N=576 r=1/2, 4 points x 200 frames ({cores} cores)\n");
    println!("{:>8} {:>12} {:>10}", "workers", "wall [s]", "speedup");

    let mut worker_counts = vec![1, 2, 4];
    if !worker_counts.contains(&cores) {
        worker_counts.push(cores);
    }

    let (reference, t1) = sweep(1);
    println!("{:>8} {:>12.3} {:>10.2}", 1, t1, 1.0);
    for &w in worker_counts.iter().skip(1) {
        let (curve, t) = sweep(w);
        assert_eq!(
            curve, reference,
            "multi-threaded run must reproduce the single-threaded counts exactly"
        );
        println!("{:>8} {:>12.3} {:>10.2}", w, t, t1 / t);
    }
    println!("\nall runs produced bit-identical error counts");

    // Point-parallel acceptance: short per-point budgets, where the pooled
    // schedule overlaps points instead of barriering on each.
    let workers = cores.clamp(2, 8);
    println!(
        "\npoint-parallel curve: {} points x {} frames, {workers} workers",
        SHORT_SNRS.len(),
        SHORT_FRAMES
    );
    // Warm-up (thread spawn, allocator), then measure.
    let _ = serial_points(workers);
    let _ = pooled_curve(workers);
    let (serial, t_serial) = serial_points(workers);
    let (pooled, t_pooled) = pooled_curve(workers);
    assert_eq!(
        pooled, serial,
        "the pooled curve schedule must reproduce the point-at-a-time counts exactly"
    );
    println!("{:>24} {:>12.3} s", "serial-point baseline", t_serial);
    println!(
        "{:>24} {:>12.3} s   ({:.2}x vs serial-point)",
        "pooled curve",
        t_pooled,
        t_serial / t_pooled
    );
    println!("\npooled and serial-point schedules produced bit-identical error counts");

    // Adaptive acceptance: the confidence-targeted stop rule must reach a
    // 20% relative FER half-width at every point of the 6-point reference
    // curve while spending at most half the uniform budget.
    println!(
        "\nadaptive vs uniform frames-to-target: n576 r=1/2, {} points, cap {} frames/point",
        ADAPTIVE_SNRS.len(),
        ADAPTIVE_CAP
    );
    let (uniform, adaptive, t_uniform, t_adaptive) = adaptive_vs_uniform(workers);
    let z = normal_quantile(0.5 + ADAPTIVE_CONFIDENCE / 2.0);
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>10}",
        "Eb/N0", "frames", "FER", "rel width", "of budget"
    );
    for point in &adaptive.points {
        let rhw = wilson_interval(point.frame_errors, point.frames, z).relative_half_width();
        println!(
            "{:>8.2} {:>10} {:>10.3e} {:>12.3} {:>9.1}%",
            point.ebn0_db,
            point.frames,
            point.fer,
            rhw,
            100.0 * point.frames as f64 / ADAPTIVE_CAP as f64,
        );
        assert!(
            rhw <= ADAPTIVE_TARGET,
            "point {} dB stopped at relative half-width {rhw} > {ADAPTIVE_TARGET}",
            point.ebn0_db
        );
    }
    let uniform_frames: u64 = uniform.points.iter().map(|p| p.frames).sum();
    let adaptive_frames: u64 = adaptive.points.iter().map(|p| p.frames).sum();
    let frames_ratio = adaptive_frames as f64 / uniform_frames as f64;
    println!(
        "\nuniform: {uniform_frames} frames in {t_uniform:.3} s; \
         adaptive: {adaptive_frames} frames in {t_adaptive:.3} s \
         ({:.1}% of the uniform budget, {:.2}x fewer frames)",
        100.0 * frames_ratio,
        1.0 / frames_ratio,
    );
    assert!(
        frames_ratio <= 0.5,
        "adaptive mode must reach the width target within half the uniform \
         frames, used {:.1}%",
        100.0 * frames_ratio
    );

    if let Some(path) = json_path {
        let json = Json::obj([
            ("bench", Json::str("engine_scaling")),
            (
                "adaptive_vs_uniform_frames_to_target",
                Json::obj([
                    ("points", Json::from(ADAPTIVE_SNRS.len() as u64)),
                    ("cap_per_point", Json::from(ADAPTIVE_CAP)),
                    ("target_rel_width", Json::from(ADAPTIVE_TARGET)),
                    ("confidence", Json::from(ADAPTIVE_CONFIDENCE)),
                    ("uniform_frames", Json::from(uniform_frames)),
                    ("adaptive_frames", Json::from(adaptive_frames)),
                    ("frames_ratio", Json::from(frames_ratio)),
                ]),
            ),
        ]);
        write_json(&path, &json);
    }
}

//! The two BER-curve workloads (`ldpc_waterfall`, `ldpc_high_snr`): timed
//! `SimulationEngine::run_curve` calls, their output checks, and the traced
//! pass with the stage-by-stage replica of the engine's frame loop.

use crate::report::Report;
use crate::stats;
use decoder_bench::{ldpc_codec, quantized_ldpc_codec, LdpcFlavor};
use fec_channel::sim::{BerCurve, EngineConfig, FecCodec, SimulationEngine};
use fec_channel::{AwgnChannel, BpskModulator, EbN0, ErrorCounter};
use fec_fixed::Llr;
use fec_json::{Json, ToJson};
use fec_obs::{MetricValue, Registry, WallClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Engine worker threads (the host has two cores).
pub const WORKERS: usize = 2;
/// The seed the committed golden counts were produced with.
pub const DEFAULT_SEED: u64 = 2012;
/// Untimed curves before measuring: the first few runs are slower.
const WARMUP_CURVES: usize = 3;
const WARMUP_SECONDS: f64 = 1.5;
/// Enough curves for a tail rank with ten samples beyond it that is well
/// above the median rank.
const MIN_CURVES: usize = 25;
/// The adaptive accuracy target: FER within ±20% at 95% confidence.
const TARGET_REL_WIDTH: f64 = 0.2;
const CONFIDENCE: f64 = 0.95;

/// One BER-curve workload.
#[derive(Debug)]
pub struct CurveWorkload {
    /// Workload name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    build: fn() -> Box<dyn FecCodec>,
    snrs: &'static [f64],
    batch: usize,
    adaptive: bool,
    /// Frames per point (fixed budget) or the per-point cap (adaptive).
    frames: u64,
    /// Curve seeds a run cycles through, all derived from `--seed`.
    curve_seeds: usize,
    /// Frames the stage replica simulates, spread over the points like
    /// the engine's frames.
    replica_frames: u64,
}

/// WiMAX n576 r1/2 on the q7 fixed-point datapath, lockstep batch 8,
/// adaptive stop rule over the waterfall.  n576 rather than n2304: an
/// n2304 curve takes five times longer, so a 10 s run held too few curves
/// for a steady median on a noisy 2-core host.
pub const WATERFALL: CurveWorkload = CurveWorkload {
    name: "ldpc_waterfall",
    build: || quantized_ldpc_codec(576, 7),
    snrs: &[1.0, 1.25, 1.5, 1.75],
    batch: 8,
    adaptive: true,
    frames: 4096,
    curve_seeds: 8,
    replica_frames: 1024,
};

/// WiMAX n576 r1/2 on the f64 reference datapath, batch 1, fixed budget
/// in the error-free region.
pub const HIGH_SNR: CurveWorkload = CurveWorkload {
    name: "ldpc_high_snr",
    build: || ldpc_codec(576, LdpcFlavor::Layered),
    snrs: &[3.5, 4.0, 4.5, 5.0],
    batch: 1,
    adaptive: false,
    frames: 512,
    curve_seeds: 8,
    replica_frames: 2048,
};

impl CurveWorkload {
    /// The timed engine configuration for one curve seed.
    pub fn config(&self, seed: u64) -> EngineConfig {
        let base = if self.adaptive {
            EngineConfig::adaptive(self.frames, TARGET_REL_WIDTH, CONFIDENCE, seed)
        } else {
            EngineConfig::fixed_frames(self.frames, seed)
        };
        base.with_workers(WORKERS).with_batch_frames(self.batch)
    }

    /// The reference configuration: the same schedule on one worker with
    /// one frame per decode call.
    fn reference_config(&self, seed: u64) -> EngineConfig {
        self.config(seed).with_workers(1).with_batch_frames(1)
    }

    /// The curve seeds of a run, derived from its `--seed`.
    pub fn curve_seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.curve_seeds as u64)
            .map(|i| {
                let mut state = seed.wrapping_add(i.wrapping_mul(0xA24B_AED4_963E_E407));
                split_mix64(&mut state)
            })
            .collect()
    }

    /// The reference curves (workers = 1, batch = 1) of every curve seed,
    /// as their JSON text.  Independent curves, so they are computed
    /// [`WORKERS`] at a time.
    pub fn reference_curves(&self, seed: u64) -> Vec<String> {
        let codec = (self.build)();
        let codec = codec.as_ref();
        let seeds = self.curve_seeds(seed);
        let mut curves = vec![String::new(); seeds.len()];
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..WORKERS)
                .map(|t| {
                    let seeds = &seeds;
                    scope.spawn(move || {
                        seeds
                            .iter()
                            .enumerate()
                            .skip(t)
                            .step_by(WORKERS)
                            .map(|(k, &s)| {
                                let curve = self.curve(codec, self.reference_config(s));
                                (k, curve.to_json().to_string())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for thread in threads {
                for (k, text) in thread.join().expect("reference thread panicked") {
                    curves[k] = text;
                }
            }
        });
        curves
    }

    fn curve(&self, codec: &dyn FecCodec, config: EngineConfig) -> BerCurve {
        SimulationEngine::new(config).run_curve(codec, self.snrs)
    }

    fn warm_up(&self, codec: &dyn FecCodec, seeds: &[u64]) {
        let start = Instant::now();
        let mut n = 0;
        while n < WARMUP_CURVES || start.elapsed().as_secs_f64() < WARMUP_SECONDS {
            self.curve(codec, self.config(seeds[n % seeds.len()]));
            n += 1;
        }
    }
}

fn frames_of(curve: &BerCurve) -> u64 {
    curve.points.iter().map(|p| p.frames).sum()
}

/// The untimed output checks of a run: every curve must be byte-identical
/// to the workers = 1, batch = 1 curve of its seed and, at the default
/// seed, to the committed golden curve.
fn check_curves(w: &CurveWorkload, seed: u64, curves: &[(usize, String)], report: &mut Report) {
    let reference = w.reference_curves(seed);
    let golden = if seed == DEFAULT_SEED {
        Some(golden_curves(w.name))
    } else {
        None
    };
    for (k, got) in curves {
        if *got != reference[*k] {
            report.fail(
                1,
                format!(
                    "{}: curve seed #{k} differs from the w1 b1 reference",
                    w.name
                ),
            );
        } else if golden.as_ref().is_some_and(|g| g.get(*k) != Some(got)) {
            report.fail(
                1,
                format!("{}: curve seed #{k} differs from the golden counts", w.name),
            );
        } else {
            report.pass();
        }
    }
}

/// One timed codec + engine construction, in seconds.
fn setup_seconds(w: &CurveWorkload, seed: u64) -> f64 {
    let start = Instant::now();
    let codec = (w.build)();
    let engine = SimulationEngine::new(w.config(seed));
    std::hint::black_box((&codec, &engine));
    start.elapsed().as_secs_f64()
}

/// The untraced run: end-to-end metrics of `w`.
pub fn run(w: &CurveWorkload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let seeds = w.curve_seeds(seed);
    let codec = (w.build)();
    w.warm_up(codec.as_ref(), &seeds);

    // Set-up is sampled between the timed curves, so its median sees the
    // same machine state as the curves do.
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut frames = 0u64;
    let mut curves = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || walls.len() < MIN_CURVES {
        let k = walls.len() % seeds.len();
        setup.push(setup_seconds(w, seeds[k]));
        let config = w.config(seeds[k]);
        let t = Instant::now();
        let curve = w.curve(codec.as_ref(), config);
        walls.push(t.elapsed().as_secs_f64());
        frames += frames_of(&curve);
        curves.push((k, curve.to_json().to_string()));
    }
    let peak = crate::env::peak_rss_mb(None).unwrap_or(f64::NAN);
    check_curves(w, seed, &curves, &mut report);

    let busy: f64 = walls.iter().sum();
    let tail = stats::tail(&walls).expect("MIN_CURVES leaves a tail rank");
    report.set("setup_s", stats::median(&setup).unwrap(), "s");
    report.set("throughput_per_s", frames as f64 / busy, "1/s");
    report.set("latency_p50_ms", 1e3 * stats::median(&walls).unwrap(), "ms");
    report.set("latency_tail_ms", 1e3 * tail.value, "ms");
    report.set("peak_rss_mb", peak, "MB");
    report.detail("operation", "one run_curve call (a curve to the stop rule)");
    report.detail("curves", walls.len());
    report.detail("frames", frames);
    report.detail("setup_samples", setup.len());
    report.detail("tail_percentile", tail.percentile);
    report.detail("tail_samples_beyond", tail.beyond);
    report.detail(
        "curve_walls_ms",
        Json::arr(walls.iter().map(|w| Json::from((1e6 * w).round() / 1e3))),
    );
    report.detail(
        "load",
        format!(
            "one process, engine with {WORKERS} workers, batch {}",
            w.batch
        ),
    );
    report
}

/// Sums of the pool and codec metrics over the traced curves.
#[derive(Debug, Default)]
struct TracedTotals {
    curves: u64,
    wall_ns: f64,
    frames: u64,
    iterations: u64,
    rounds: u64,
    tasks: u64,
    queue_hw: u64,
    run_ns: u64,
    wait_ns: u64,
    waits: u64,
    overwork: u64,
    useful_lane_iterations: u64,
}

impl TracedTotals {
    fn add(&mut self, reg: &Registry, points: usize, wall_ns: f64) {
        self.curves += 1;
        self.wall_ns += wall_ns;
        for p in 0..points {
            self.frames += reg.counter(&format!("engine.p{p}.frames")).unwrap_or(0);
            self.iterations += reg.counter(&format!("engine.p{p}.iterations")).unwrap_or(0);
            self.rounds += reg.counter(&format!("engine.p{p}.rounds")).unwrap_or(0);
        }
        self.tasks += reg.counter("pool.tasks").unwrap_or(0);
        if let Some(MetricValue::Gauge(hw)) = reg.get("pool.queue_depth_hw").map(|m| &m.value) {
            self.queue_hw = self.queue_hw.max(*hw);
        }
        if let Some(MetricValue::Timing(t)) = reg.get("pool.task_run_ns").map(|m| &m.value) {
            self.run_ns += t.total_ns;
        }
        if let Some(MetricValue::Timing(t)) = reg.get("pool.task_wait_ns").map(|m| &m.value) {
            self.wait_ns += t.total_ns;
            self.waits += t.count;
        }
        self.overwork += reg.counter("fixed.overwork_iters").unwrap_or(0);
        if let Some(MetricValue::Histogram(h)) = reg.get("fixed.lane_iterations").map(|m| &m.value)
        {
            self.useful_lane_iterations += h.sum();
        }
    }
}

/// The traced run: per-layer metrics of `w`, from `run_curve_observed`
/// with a wall clock, untraced curves interleaved with the traced ones,
/// and the stage replica.
pub fn run_traced(w: &CurveWorkload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let seeds = w.curve_seeds(seed);
    let codec = (w.build)();
    w.warm_up(codec.as_ref(), &seeds);
    let clock = WallClock::new();

    let mut plain_ns = 0.0;
    let mut plain_frames = 0u64;
    let mut traced = TracedTotals::default();
    let mut first: Vec<Option<String>> = vec![None; seeds.len()];
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || traced.curves < 3 {
        let k = (i / 2) % seeds.len();
        let engine = SimulationEngine::new(w.config(seeds[k]));
        let t = Instant::now();
        let curve = if i.is_multiple_of(2) {
            let curve = engine.run_curve(codec.as_ref(), w.snrs);
            plain_ns += t.elapsed().as_nanos() as f64;
            plain_frames += frames_of(&curve);
            curve
        } else {
            let mut reg = Registry::new();
            let curve = engine.run_curve_observed(codec.as_ref(), w.snrs, &clock, &mut reg);
            traced.add(&reg, w.snrs.len(), t.elapsed().as_nanos() as f64);
            curve
        };
        // Tracing must not change the curve: every run of a seed matches.
        let json = curve.to_json().to_string();
        match &first[k] {
            None => first[k] = Some(json),
            Some(seen) if *seen == json => report.pass(),
            Some(_) => report.fail(1, format!("{}: traced and untraced curves differ", w.name)),
        }
        i += 1;
    }

    let plain_fps = plain_frames as f64 / (plain_ns / 1e9);
    let traced_fps = traced.frames as f64 / (traced.wall_ns / 1e9);
    let engine_us = 1e6 * WORKERS as f64 / plain_fps;
    let n = traced.curves as f64;
    report.set("fec-channel.engine_us_per_frame", engine_us, "us");
    report.set(
        "fec-channel.frames_to_target",
        traced.frames as f64 / n,
        "count",
    );
    report.set(
        "fec-channel.adaptive_rounds",
        traced.rounds as f64 / n,
        "count",
    );
    report.set(
        "fec-obs.traced_overhead_pct",
        100.0 * (plain_fps / traced_fps - 1.0),
        "%",
    );
    report.set(
        "fec-sched.busy_pct",
        100.0 * traced.run_ns as f64 / (WORKERS as f64 * traced.wall_ns),
        "%",
    );
    report.set(
        "fec-sched.task_wait_mean_us",
        traced.wait_ns as f64 / traced.waits.max(1) as f64 / 1e3,
        "us",
    );
    report.set("fec-sched.tasks", traced.tasks as f64 / n, "count");
    report.set("fec-sched.queue_depth_hw", traced.queue_hw as f64, "count");
    report.set(
        "wimax-ldpc.iterations_per_frame",
        traced.iterations as f64 / traced.frames as f64,
        "count",
    );
    if traced.overwork + traced.useful_lane_iterations > 0 {
        report.set(
            "wimax-ldpc.lockstep_overwork_pct",
            100.0 * traced.overwork as f64
                / (traced.overwork + traced.useful_lane_iterations) as f64,
            "%",
        );
    }

    // Spread the replica's frames over the points like the engine's.
    let reference = w.curve(codec.as_ref(), w.config(seeds[0]));
    let total = frames_of(&reference).max(1);
    let mut stages = StageTimes::default();
    for point in &reference.points {
        let share = (w.replica_frames * point.frames).div_ceil(total);
        let frames = share.div_ceil(w.batch as u64).max(1) * w.batch as u64;
        let (times, counts) =
            replica_point(codec.as_ref(), point.ebn0_db, seeds[0], frames, w.batch);
        stages.add(&times);
        let expected = SimulationEngine::new(
            EngineConfig::fixed_frames(frames, seeds[0])
                .with_shards(1)
                .with_workers(1)
                .with_batch_frames(w.batch),
        )
        .run_point(codec.as_ref(), point.ebn0_db);
        let same = expected.frames == counts.frames()
            && expected.bit_errors == counts.bit_errors()
            && expected.frame_errors == counts.frame_errors()
            && expected.average_iterations == times.iterations as f64 / times.frames as f64;
        if same {
            report.pass();
        } else {
            report.fail(
                1,
                format!(
                    "{}: replica counts differ from run_point at {} dB",
                    w.name, point.ebn0_db
                ),
            );
        }
    }
    let per_frame = |ns: f64| ns / stages.frames as f64 / 1e3;
    let stage_sum = per_frame(stages.sum());
    report.set(
        "fec-channel.source_us_per_frame",
        per_frame(stages.source),
        "us",
    );
    report.set(
        "wimax-ldpc.encode_us_per_frame",
        per_frame(stages.encode),
        "us",
    );
    report.set(
        "fec-channel.channel_llr_us_per_frame",
        per_frame(stages.channel),
        "us",
    );
    report.set(
        "wimax-ldpc.decode_us_per_frame",
        per_frame(stages.decode),
        "us",
    );
    report.set(
        "fec-channel.count_us_per_frame",
        per_frame(stages.count),
        "us",
    );
    report.set("fec-channel.stage_sum_us_per_frame", stage_sum, "us");
    report.set(
        "fec-channel.unattributed_pct",
        100.0 * (engine_us - stage_sum) / engine_us,
        "%",
    );
    report.set(
        "wimax-ldpc.us_per_iteration",
        stages.decode / stages.iterations as f64 / 1e3,
        "us",
    );
    report.detail("traced_curves", traced.curves);
    report.detail("untraced_curves", i as u64 - traced.curves);
    report.detail("replica_frames", stages.frames);
    report.detail("untraced_frames_per_s", plain_fps);
    report.detail("traced_frames_per_s", traced_fps);
    report
}

/// Nanoseconds spent per stage of the frame loop, plus the frame and
/// iteration totals.
#[derive(Debug, Default, Clone)]
struct StageTimes {
    source: f64,
    encode: f64,
    channel: f64,
    decode: f64,
    count: f64,
    frames: u64,
    iterations: u64,
}

impl StageTimes {
    fn add(&mut self, other: &StageTimes) {
        self.source += other.source;
        self.encode += other.encode;
        self.channel += other.channel;
        self.decode += other.decode;
        self.count += other.count;
        self.frames += other.frames;
        self.iterations += other.iterations;
    }

    fn sum(&self) -> f64 {
        self.source + self.encode + self.channel + self.decode + self.count
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// A stage-by-stage copy of the engine's one-shard frame loop
/// (`simulate_frame` for batch 1, `simulate_batch` otherwise) that times
/// source, encode, channel + LLR, decode and count around the public
/// calls.  With the shard-0 RNG stream it draws exactly the engine's random
/// numbers, so its counts equal `run_point` at `shards = 1`.
fn replica_point(
    codec: &dyn FecCodec,
    ebn0_db: f64,
    seed: u64,
    frames: u64,
    batch: usize,
) -> (StageTimes, ErrorCounter) {
    let channel = AwgnChannel::for_code_rate(EbN0::from_db(ebn0_db), codec.rate());
    let modulator = BpskModulator::new();
    let mut rng = StdRng::seed_from_u64(shard_seed(seed, 0, ebn0_db));
    let mut times = StageTimes::default();
    let mut counter = ErrorCounter::new();
    let mut done = 0u64;
    while done < frames {
        let b = (frames - done).min(batch as u64) as usize;
        let mut infos = Vec::with_capacity(b);
        let mut llr_frames: Vec<Vec<Llr>> = Vec::with_capacity(b);
        for _ in 0..b {
            let t = Instant::now();
            let info: Vec<u8> = (0..codec.info_bits())
                .map(|_| rng.gen_range(0..=1))
                .collect();
            times.source += ns_since(t);
            let t = Instant::now();
            let codeword = codec.encode(&info);
            times.encode += ns_since(t);
            let t = Instant::now();
            let received = channel.transmit(&modulator.modulate(&codeword), &mut rng);
            llr_frames.push(channel.llrs(&received));
            times.channel += ns_since(t);
            infos.push(info);
        }
        let t = Instant::now();
        let decoded = if batch <= 1 {
            vec![codec.decode(&llr_frames[0])]
        } else {
            let refs: Vec<&[Llr]> = llr_frames.iter().map(Vec::as_slice).collect();
            codec.decode_batch(&refs)
        };
        times.decode += ns_since(t);
        let t = Instant::now();
        for (info, frame) in infos.iter().zip(&decoded) {
            counter.record_frame(info, &frame.info_bits);
            times.iterations += frame.iterations as u64;
        }
        times.count += ns_since(t);
        times.frames += b as u64;
        done += b as u64;
    }
    (times, counter)
}

/// One SplitMix64 step, as in `fec_channel::sim`.
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The engine's per-shard, per-point RNG seed (copied from
/// `fec_channel::sim::shard_seed`, which is private).
fn shard_seed(seed: u64, shard: u64, ebn0_db: f64) -> u64 {
    let mut state = seed ^ ebn0_db.to_bits().rotate_left(17);
    let mixed = split_mix64(&mut state);
    state = mixed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    split_mix64(&mut state)
}

/// The committed golden curves of `workload` at [`DEFAULT_SEED`] (compact
/// JSON text, one per curve seed); empty when the file has no entry.
fn golden_curves(workload: &str) -> Vec<String> {
    Json::parse(include_str!("../golden.json"))
        .ok()
        .and_then(|root| {
            root.get(workload)
                .and_then(Json::as_array)
                .map(|curves| curves.iter().map(Json::to_string).collect())
        })
        .unwrap_or_default()
}

/// The golden file body for `w` at [`DEFAULT_SEED`], as printed by
/// `--print-golden`.
pub fn golden_entry(w: &CurveWorkload) -> Json {
    Json::arr(
        w.reference_curves(DEFAULT_SEED)
            .iter()
            .map(|text| Json::parse(text).expect("curve JSON parses")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_counts_match_run_point_at_one_shard() {
        let codec = ldpc_codec(576, LdpcFlavor::Layered);
        for batch in [1, 8] {
            let (times, counts) = replica_point(codec.as_ref(), 1.5, 7, 24, batch);
            let point = SimulationEngine::new(
                EngineConfig::fixed_frames(24, 7)
                    .with_shards(1)
                    .with_workers(1)
                    .with_batch_frames(batch),
            )
            .run_point(codec.as_ref(), 1.5);
            assert_eq!(point.frames, counts.frames());
            assert_eq!(point.bit_errors, counts.bit_errors());
            assert_eq!(point.frame_errors, counts.frame_errors());
            assert_eq!(
                point.average_iterations,
                times.iterations as f64 / times.frames as f64
            );
            assert!(point.frame_errors > 0, "1.5 dB on n576 should see errors");
        }
    }

    #[test]
    fn golden_file_covers_both_curve_workloads() {
        for w in [&WATERFALL, &HIGH_SNR] {
            assert_eq!(golden_curves(w.name).len(), w.curve_seeds, "{}", w.name);
        }
    }

    #[test]
    fn curve_seeds_are_distinct_and_reproducible() {
        let a = HIGH_SNR.curve_seeds(5);
        assert_eq!(a, HIGH_SNR.curve_seeds(5));
        assert_ne!(a, HIGH_SNR.curve_seeds(6));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
    }
}

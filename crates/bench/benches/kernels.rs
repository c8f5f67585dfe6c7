//! Micro-benchmarks of the computational kernels: one layered LDPC
//! iteration (f64 reference vs the fixed-point datapath), the MEU
//! two-minimum extraction (the two-pass scan), one flooding
//! iteration and a flooding decode of varied frames, one SISO half
//! iteration, one LDPC and one turbo NoC message-passing phase, one
//! graph partitioning run and the corner compliance sweep of a daemon
//! compliance unit.
//!
//! Uses the crate's own timing harness (`decoder_bench::harness`); the
//! workspace builds offline, so criterion is unavailable.
//!
//! Pass `--json <path>` to additionally emit the rows as machine-readable
//! JSON (`BENCH_kernels.json` in CI) for trajectory tracking.

use code_tables::{lte_turbo_code, DecoderKind, Standard, StandardCode};
use decoder_bench::harness::{bench, print_header, BenchReport};
use decoder_bench::{exit_with_usage, json_flag_from_args, write_json};
use fec_channel::sim::{EngineConfig, FrameSlice, SimulationEngine};
use fec_fixed::Llr;
use fec_json::{Json, ToJson};
use fec_obs::NoopRecorder;
use noc_decoder::model::SISO_INJECTION_RATE;
use noc_decoder::{
    run_multi_compliance_sharded, run_multi_compliance_with_store, ComplianceScope, DecoderConfig,
    MappingConfig, MappingStore,
};
use noc_mapping::turbo::HalfIteration;
use noc_mapping::{LdpcMapping, TurboMapping};
use noc_sim::{NocConfig, NocSimulator, RoutingAlgorithm, Topology, TopologyKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimax_ldpc::decoder::{
    FixedLayeredConfig, FixedLayeredDecoder, LayeredConfig, LayeredDecoder, MinimumExtractionUnit,
};
use wimax_ldpc::{CodeRate, QcEncoder, QcLdpcCode};
use wimax_turbo::binary::TAIL_STEPS;
use wimax_turbo::encoder::encode_constituent;
use wimax_turbo::{lte_rsc_step, DuoBinaryTrellis, LteTrellis, SisoUnit};

/// A standard normal draw (Box-Muller).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The channel LLR of `bit` sent as BPSK over AWGN with noise variance
/// `noise_var`.
fn awgn_llr(bit: u8, noise_var: f64, rng: &mut StdRng) -> f64 {
    let s = if bit == 0 { 1.0 } else { -1.0 };
    2.0 * (s + noise_var.sqrt() * gaussian(rng)) / noise_var
}

/// Channel LLRs of a random codeword of `code` over BPSK + AWGN with noise
/// variance `noise_var`.
fn noisy_ldpc_llrs(code: &QcLdpcCode, noise_var: f64, seed: u64) -> Vec<Llr> {
    let enc = QcEncoder::new(code);
    let mut rng = StdRng::seed_from_u64(seed);
    let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
    let cw = enc.encode(&info).expect("encoding succeeds");
    cw.iter()
        .map(|&b| Llr::new(awgn_llr(b, noise_var, &mut rng)))
        .collect()
}

/// The noise variance of a rate-1/3 turbo code at `ebn0_db`.
fn turbo_noise_var(ebn0_db: f64) -> f64 {
    (2.0 / 3.0 * 10f64.powf(ebn0_db / 10.0)).recip()
}

/// An a-priori LLR of `bit` as the other constituent hands it over in
/// mid-decode: a consistent Gaussian of mean 1.
fn apriori_llr(bit: u8, rng: &mut StdRng) -> f64 {
    let mean = if bit == 0 { 1.0 } else { -1.0 };
    mean + std::f64::consts::SQRT_2 * gaussian(rng)
}

/// The inputs of one duo-binary SISO half-iteration in mid-decode: channel
/// LLRs `[A, B, Y, W]` of a random circular constituent codeword of
/// `couples` couples at `ebn0_db`, and symbol a-priori `ln P(u)/P(0)`.
fn noisy_duo_binary_siso(
    couples: usize,
    ebn0_db: f64,
    seed: u64,
) -> (Vec<[f64; 4]>, Vec<[f64; 3]>) {
    let noise_var = turbo_noise_var(ebn0_db);
    let mut rng = StdRng::seed_from_u64(seed);
    let symbols: Vec<(u8, u8)> = (0..couples)
        .map(|_| (rng.gen_range(0..=1), rng.gen_range(0..=1)))
        .collect();
    let parity = encode_constituent(&symbols).expect("N is not a multiple of 7");
    let mut channel = Vec::with_capacity(couples);
    let mut apriori = Vec::with_capacity(couples);
    for (j, &(a, b)) in symbols.iter().enumerate() {
        channel.push(
            [a, b, parity.parity_y[j], parity.parity_w[j]]
                .map(|bit| awgn_llr(bit, noise_var, &mut rng)),
        );
        let (la, lb) = (apriori_llr(a, &mut rng), apriori_llr(b, &mut rng));
        apriori.push([-lb, -la, -(la + lb)]);
    }
    (channel, apriori)
}

/// The inputs of one LTE SISO half-iteration in mid-decode: channel LLRs
/// `[systematic, parity]` of a random terminated constituent codeword of
/// `k` bits plus its tail steps at `ebn0_db`, and bit a-priori (0 on the
/// tail).
fn noisy_lte_siso(k: usize, ebn0_db: f64, seed: u64) -> (Vec<[f64; 2]>, Vec<f64>) {
    let noise_var = turbo_noise_var(ebn0_db);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = 0u8;
    let mut channel = Vec::with_capacity(k + TAIL_STEPS);
    let mut apriori = Vec::with_capacity(k + TAIL_STEPS);
    for step in 0..k + TAIL_STEPS {
        let bit = if step < k {
            rng.gen_range(0..=1)
        } else {
            // the tail bit that drains the register
            ((state >> 1) & 1) ^ (state & 1)
        };
        let (next, parity) = lte_rsc_step(state, bit);
        state = next;
        channel.push([bit, parity].map(|b| awgn_llr(b, noise_var, &mut rng)));
        apriori.push(if step < k {
            apriori_llr(bit, &mut rng)
        } else {
            0.0
        });
    }
    assert_eq!(state, 0, "the tail terminates the trellis");
    (channel, apriori)
}

/// One-iteration float and fixed layered decoders for `code`.
fn layered_pair(code: &QcLdpcCode) -> (LayeredDecoder, FixedLayeredDecoder) {
    let float = LayeredDecoder::new(
        code,
        LayeredConfig {
            max_iterations: 1,
            early_termination: false,
            ..LayeredConfig::default()
        },
    );
    let fixed = FixedLayeredDecoder::new(
        code,
        FixedLayeredConfig {
            max_iterations: 1,
            early_termination: false,
            ..FixedLayeredConfig::default()
        },
    );
    (float, fixed)
}

fn run(reports: &mut Vec<BenchReport>, report: BenchReport) {
    println!("{}", report.line());
    reports.push(report);
}

fn main() {
    let (json_path, _rest) = json_flag_from_args(std::env::args().skip(1))
        .unwrap_or_else(|e| exit_with_usage("kernels", &e, "usage: kernels [--json <path>]"));
    let mut reports = Vec::new();
    print_header();

    let code = QcLdpcCode::wimax(2304, CodeRate::R12).expect("valid code");
    let llrs = noisy_ldpc_llrs(&code, 0.64, 1);
    let (layered, layered_fixed) = layered_pair(&code);
    let flooding = LayeredDecoder::flooding(
        &code,
        LayeredConfig {
            max_iterations: 1,
            early_termination: false,
            ..LayeredConfig::default()
        },
    );
    run(
        &mut reports,
        bench("ldpc_iteration_n2304/layered_nms_f64", 2, 20, || {
            std::hint::black_box(layered.decode(&llrs));
        }),
    );
    run(
        &mut reports,
        bench("ldpc_iteration_n2304/layered_fixed_q7", 2, 20, || {
            std::hint::black_box(layered_fixed.decode(&llrs));
        }),
    );
    run(
        &mut reports,
        bench("ldpc_iteration_n2304/flooding_nms", 2, 20, || {
            std::hint::black_box(flooding.decode(&llrs));
        }),
    );

    // One serial layered iteration on the 576/R12 code (fixed iteration
    // count so both paths do identical work), float vs fixed.
    let code576 = QcLdpcCode::wimax(576, CodeRate::R12).expect("valid code");
    let llrs576 = noisy_ldpc_llrs(&code576, 0.64, 2);
    let (layered576, fixed576) = layered_pair(&code576);
    let float_report = bench("ldpc_iteration_n576_r12/layered_nms_f64", 10, 200, || {
        std::hint::black_box(layered576.decode(&llrs576));
    });
    let fixed_report = bench("ldpc_iteration_n576_r12/layered_fixed_q7", 10, 200, || {
        std::hint::black_box(fixed576.decode(&llrs576));
    });
    // Fastest-iteration ratio: the mean is too sensitive to scheduler noise
    // on shared CI runners.
    let speedup = float_report.min_ns / fixed_report.min_ns;
    run(&mut reports, float_report);
    run(&mut reports, fixed_report);
    println!("    -> fixed-point layered speedup over f64 on n576/R12: {speedup:.2}x (min/min)");

    // The MEU two-minimum extraction in isolation: the branch-light
    // two-pass scan over WiMAX-typical degree-7 rows.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let q_fixed: Vec<i16> = (0..7 * 4096).map(|_| rng.gen_range(-64i16..=63)).collect();
    run(
        &mut reports,
        bench("meu_two_min_deg7_x4096/batch_scan_i16", 3, 40, || {
            let mut acc = 0i32;
            for row in q_fixed.chunks_exact(7) {
                let scan = MinimumExtractionUnit::scan(row);
                acc += i32::from(scan.min1) + i32::from(scan.min2);
            }
            std::hint::black_box(acc);
        }),
    );

    // Serial vs lockstep batch fixed decode on n576/R12, full 10-iteration
    // budget with early termination off so every variant does identical
    // work: the b8/b1 ratio is the pure lockstep (SoA) datapath speedup.
    // The 16 frames go in as one stream of channel LLRs that quantize to
    // random λ values, 1, 8 and 16 lanes wide, so each row also quantizes
    // 576 LLRs per frame (about 2.7 µs per frame).
    let fixed10 = FixedLayeredDecoder::new(
        &code576,
        FixedLayeredConfig {
            max_iterations: 10,
            early_termination: false,
            ..FixedLayeredConfig::default()
        },
    );
    let batch_total = 16usize;
    let mut frame_rng = rand::rngs::StdRng::seed_from_u64(13);
    let quantized_frames: Vec<i16> = (0..batch_total * code576.n())
        .map(|_| frame_rng.gen_range(-64i16..=63))
        .collect();
    let n576 = code576.n();
    // One fractional bit: λ LSBs are halves of an LLR unit.
    let lambda_frames: Vec<Vec<Llr>> = quantized_frames
        .chunks_exact(n576)
        .map(|frame| {
            frame
                .iter()
                .map(|&v| Llr::new(f64::from(v) / 2.0))
                .collect()
        })
        .collect();
    let lambda_refs: Vec<&[Llr]> = lambda_frames.iter().map(Vec::as_slice).collect();
    let lanes = |width: usize| {
        let mut stream = FrameSlice::new(&lambda_refs, width);
        fixed10.decode_stream(&mut stream, &mut NoopRecorder);
        std::hint::black_box(stream.into_decoded());
    };
    let b1_report = bench("fixed_layered_n576_x16f/serial_b1", 2, 12, || lanes(1));
    let b8_report = bench("fixed_layered_n576_x16f/lockstep_b8", 2, 12, || lanes(8));
    let b16_report = bench("fixed_layered_n576_x16f/lockstep_b16", 2, 12, || lanes(16));
    let batch_speedup_b8 = b1_report.min_ns / b8_report.min_ns;
    let frames_per_s = |r: &BenchReport| batch_total as f64 / (r.min_ns * 1e-9);
    let rates = [
        frames_per_s(&b1_report),
        frames_per_s(&b8_report),
        frames_per_s(&b16_report),
    ];
    run(&mut reports, b1_report);
    run(&mut reports, b8_report);
    run(&mut reports, b16_report);
    println!(
        "    -> fixed layered n576 frames/s (10 it, no ET): b1 {:.0}, b8 {:.0}, b16 {:.0}; \
         b8 speedup {batch_speedup_b8:.2}x (min/min)",
        rates[0], rates[1], rates[2]
    );

    // The waterfall frames on the default decoder (early termination on):
    // AWGN frames at 1.0-1.75 dB, as eight 8-frame streams (most streams
    // run on after some lanes have converged), then as one 8-lane stream,
    // the path the engine runs, where a lane takes the next frame as soon
    // as its frame is decided.
    let rate = code576.k() as f64 / n576 as f64;
    let awgn_frames: Vec<Vec<Llr>> = (0..64u64)
        .map(|i| {
            let ebn0_db = 1.0 + 0.25 * (i % 4) as f64;
            let noise_var = (2.0 * rate * 10f64.powf(ebn0_db / 10.0)).recip();
            noisy_ldpc_llrs(&code576, noise_var, 100 + i)
        })
        .collect();
    let awgn_refs: Vec<&[Llr]> = awgn_frames.iter().map(Vec::as_slice).collect();
    let fixed_default = FixedLayeredDecoder::new(&code576, FixedLayeredConfig::default());
    run(
        &mut reports,
        bench("fixed_layered_n576_awgn_x64f/lockstep_b8", 2, 12, || {
            for chunk in awgn_refs.chunks(8) {
                let mut stream = FrameSlice::new(chunk, 8);
                fixed_default.decode_stream(&mut stream, &mut NoopRecorder);
                std::hint::black_box(stream.into_decoded());
            }
        }),
    );
    run(
        &mut reports,
        bench("fixed_layered_n576_awgn_x64f/stream_b8", 2, 12, || {
            let mut stream = FrameSlice::new(&awgn_refs, 8);
            fixed_default.decode_stream(&mut stream, &mut NoopRecorder);
            std::hint::black_box(stream.into_decoded());
        }),
    );

    // The path `ldpc_high_snr` runs: the default f64 decoder over AWGN
    // frames at 3.5-5.0 dB, one after another.  The frames differ, so the
    // branch predictor cannot learn one frame's compares as it does in the
    // repeated-frame `ldpc_iteration_*` rows.  A run takes about 1 ms; with
    // 12 runs the row's min spread over 1.45-2.68 ms across three sessions
    // of one build, so it takes 200.
    let high_snr_frames: Vec<Vec<Llr>> = (0..64u64)
        .map(|i| {
            let ebn0_db = 3.5 + 0.5 * (i % 4) as f64;
            let noise_var = (2.0 * rate * 10f64.powf(ebn0_db / 10.0)).recip();
            noisy_ldpc_llrs(&code576, noise_var, 200 + i)
        })
        .collect();
    let float_default = LayeredDecoder::new(&code576, LayeredConfig::default());
    run(
        &mut reports,
        bench("layered_f64_n576_awgn_x64f/serial", 2, 200, || {
            for frame in &high_snr_frames {
                std::hint::black_box(float_default.decode(frame));
            }
        }),
    );

    // The flooding baseline as `ber_study` runs it (10 iterations, early
    // stop on) over 64 AWGN frames at 1.0-2.5 dB, its waterfall, one after
    // another.
    let flooding_frames: Vec<Vec<Llr>> = (0..64u64)
        .map(|i| {
            let ebn0_db = 1.0 + 0.5 * (i % 4) as f64;
            let noise_var = (2.0 * rate * 10f64.powf(ebn0_db / 10.0)).recip();
            noisy_ldpc_llrs(&code576, noise_var, 300 + i)
        })
        .collect();
    let flooding_default = LayeredDecoder::flooding(&code576, LayeredConfig::default());
    run(
        &mut reports,
        bench("flooding_f64_n576_awgn_x64f/serial", 2, 40, || {
            for frame in &flooding_frames {
                std::hint::black_box(flooding_default.decode(frame));
            }
        }),
    );

    // The pooled Monte-Carlo path end to end: a short-budget
    // multi-point curve on the n576 layered codec, so BENCH_kernels.json
    // tracks the shared work-pool scheduler's throughput across commits.
    // Fixed worker count so the row is comparable between runners.
    let n576 = |decoder| {
        StandardCode::resolve(Standard::Wimax, decoder, 576)
            .and_then(|code| code.codec(decoder))
            .expect("WiMAX n576 codec")
    };
    let engine_codec = n576(DecoderKind::Layered);
    let engine = SimulationEngine::new(EngineConfig::fixed_frames(24, 11).with_workers(4));
    let engine_snrs = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
    run(
        &mut reports,
        bench("engine_curve_n576_6pt_x24f/pool_w4", 1, 8, || {
            std::hint::black_box(engine.run_curve(engine_codec.as_ref(), &engine_snrs));
        }),
    );

    // The same pooled curve on the quantized codec with 8-frame lockstep
    // batches: the engine-level face of the batch datapath.
    let batch_codec = n576(DecoderKind::Quantized { lambda_bits: 7 });
    let batch_engine = SimulationEngine::new(
        EngineConfig::fixed_frames(24, 11)
            .with_workers(4)
            .with_batch_frames(8),
    );
    run(
        &mut reports,
        bench("engine_curve_n576_6pt_x24f/pool_w4_b8_q7", 1, 8, || {
            std::hint::black_box(batch_engine.run_curve(batch_codec.as_ref(), &engine_snrs));
        }),
    );

    // One SISO half-iteration of the one Max-Log kernel on both trellis
    // shapes: the paper's duo-binary N = 2400 couples (circular, with the
    // wrap-around training passes) and LTE's largest block, K = 6144 plus
    // the 3 tail steps (binary, terminated).  Each run decodes the next of
    // 4 noisy frames at 1.0-2.5 dB with informative a-priori, so the branch
    // predictor cannot learn one frame's compares.
    let mut siso = SisoUnit::new();
    let n = 2400usize;
    let duo_frames: Vec<_> = (0..4u64)
        .map(|i| noisy_duo_binary_siso(n, 1.0 + 0.5 * i as f64, 400 + i))
        .collect();
    let (mut ext, mut apo) = (vec![[0.0; 3]; n], vec![[0.0; 3]; n]);
    let mut frames = duo_frames.iter().cycle();
    run(
        &mut reports,
        bench("turbo_siso_half_iteration_n2400/max_log_map", 4, 40, || {
            let (channel, apriori) = frames.next().expect("cycled frames");
            siso.run::<DuoBinaryTrellis, 4, 16>(channel, apriori, &mut ext, &mut apo);
            std::hint::black_box(&ext);
        }),
    );
    let steps = 6144 + TAIL_STEPS;
    let lte_frames: Vec<_> = (0..4u64)
        .map(|i| noisy_lte_siso(6144, 1.0 + 0.5 * i as f64, 500 + i))
        .collect();
    let (mut ext, mut apo) = (vec![0.0; steps], vec![0.0; steps]);
    let mut frames = lte_frames.iter().cycle();
    run(
        &mut reports,
        bench(
            "turbo_binary_siso_half_iteration_k6144/max_log_map",
            4,
            40,
            || {
                let (channel, apriori) = frames.next().expect("cycled frames");
                siso.run::<LteTrellis, 2, 4>(channel, apriori, &mut ext, &mut apo);
                std::hint::black_box(&ext);
            },
        ),
    );

    let mapping = LdpcMapping::new(&code, 22, MappingConfig::default());
    let topology = Topology::new(TopologyKind::GeneralizedKautz, 22, 3).expect("valid topology");
    let sim = NocSimulator::new(NocConfig::new(topology, RoutingAlgorithm::SspFl)).expect("sim");
    let trace = mapping.traffic_trace().clone();
    run(
        &mut reports,
        bench("noc_phase_p22_kautz_d3/ssp_fl_scm", 2, 20, || {
            std::hint::black_box(sim.run(&trace));
        }),
    );

    // The LTE K = 6144 turbo phase of a compliance unit: the first-half
    // trace of the QPP mapping at the SISO injection rate of 1/3.
    let lte = lte_turbo_code(6144).expect("LTE block size");
    let lte_trace = TurboMapping::new(lte.interleaver(), 22).traffic_trace(HalfIteration::First);
    let topology = Topology::new(TopologyKind::GeneralizedKautz, 22, 3).expect("valid topology");
    let lte_sim = NocSimulator::new(
        NocConfig::new(topology, RoutingAlgorithm::SspFl).with_output_rate(SISO_INJECTION_RATE),
    )
    .expect("sim");
    run(
        &mut reports,
        bench("noc_phase_p22_kautz_d3/lte_k6144_r13", 2, 20, || {
            std::hint::black_box(lte_sim.run(&lte_trace));
        }),
    );

    run(
        &mut reports,
        bench(
            "ldpc_mapping_n2304_p22/partition_and_interleaver",
            1,
            10,
            || {
                std::hint::black_box(LdpcMapping::new(&code, 22, MappingConfig::default()));
            },
        ),
    );

    // The five corner scopes at the paper design point on one worker: the
    // work of one `fec_svc` compliance unit per standard, first mapping
    // every code (each sweep call starts from an empty store), then with a
    // store that already holds the mappings, as the daemon's repeated
    // compliance units run.
    let paper = DecoderConfig::paper_design_point();
    let corners = ComplianceScope::all_corners();
    run(
        &mut reports,
        bench("compliance_corners_p22/five_standards", 1, 5, || {
            std::hint::black_box(
                run_multi_compliance_sharded(&paper, &corners, 1, |_, _| {}).expect("corner sweep"),
            );
        }),
    );
    let kept = MappingStore::new();
    run(
        &mut reports,
        bench("compliance_corners_p22/five_standards_reused", 1, 5, || {
            std::hint::black_box(
                run_multi_compliance_with_store(&paper, &corners, 1, &kept, None, |_, _| {})
                    .expect("corner sweep"),
            );
        }),
    );

    if let Some(path) = json_path {
        let json = Json::obj([
            ("table", Json::str("kernels")),
            ("fixed_vs_f64_speedup_n576", Json::from(speedup)),
            ("batch_speedup_b8_n576", Json::from(batch_speedup_b8)),
            ("rows", reports.to_json()),
        ]);
        write_json(&path, &json);
    }
}

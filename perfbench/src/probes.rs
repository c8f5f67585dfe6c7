//! Layer probes: timed calls into the turbo decoders and the NoC
//! architecture model (mapping, NoC simulation, compliance evaluation),
//! whose work the daemon does inside its units.

use crate::report::Report;
use crate::stats;
use code_tables::Standard;
use decoder_bench::{dvb_rcs_turbo_codec, lte_turbo_codec};
use fec_channel::sim::FecCodec;
use fec_channel::{AwgnChannel, BpskModulator, EbN0};
use noc_decoder::{run_multi_compliance_sharded, ComplianceScope, DecoderConfig};
use noc_mapping::LdpcMapping;
use noc_sim::{NocConfig, NocSimulator, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use wimax_ldpc::{CodeRate, QcLdpcCode};
use wimax_turbo::ExtrinsicExchange;

/// Minimum frames decoded per turbo codec.
const TURBO_MIN_FRAMES: u64 = 8;
/// Repetitions of each NoC-model call; the median is reported.
const NOC_REPS: usize = 5;

/// Decodes frames of `codec` at `ebn0_db` for about `seconds`, timing only
/// the `decode` calls: `(µs per frame, frames, iterations)`.
fn decode_rate(codec: &dyn FecCodec, ebn0_db: f64, seed: u64, seconds: f64) -> (f64, u64, u64) {
    let channel = AwgnChannel::for_code_rate(EbN0::from_db(ebn0_db), codec.rate());
    let modulator = BpskModulator::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut ns, mut frames, mut iterations) = (0.0, 0u64, 0u64);
    let start = Instant::now();
    while frames < TURBO_MIN_FRAMES || start.elapsed().as_secs_f64() < seconds {
        let info: Vec<u8> = (0..codec.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let received = channel.transmit(&modulator.modulate(&codec.encode(&info)), &mut rng);
        let llrs = channel.llrs(&received);
        let t = Instant::now();
        let decoded = codec.decode(&llrs);
        ns += t.elapsed().as_nanos() as f64;
        frames += 1;
        iterations += decoded.iterations as u64;
    }
    (ns / frames as f64 / 1e3, frames, iterations)
}

/// `wimax-turbo.*`: decode time per frame of the DVB-RCS duo-binary CTC
/// (212 couples) and the LTE binary turbo code (K = 1024) — the two turbo
/// codecs of the daemon's sweep jobs — in their waterfall.
pub fn turbo(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let ctc = dvb_rcs_turbo_codec(212, ExtrinsicExchange::BitLevel);
    let lte = lte_turbo_codec(1024);
    let (ctc_us, ctc_frames, ctc_iters) = decode_rate(ctc.as_ref(), 1.5, seed, seconds / 2.0);
    let (lte_us, lte_frames, lte_iters) = decode_rate(lte.as_ref(), 0.5, seed ^ 1, seconds / 2.0);
    report.set("wimax-turbo.ctc_decode_us_per_frame", ctc_us, "us");
    report.set("wimax-turbo.lte_decode_us_per_frame", lte_us, "us");
    report.set(
        "wimax-turbo.iterations_per_frame",
        (ctc_iters + lte_iters) as f64 / (ctc_frames + lte_frames) as f64,
        "count",
    );
    report.detail("ctc_frames", ctc_frames);
    report.detail("lte_frames", lte_frames);
    report
}

fn median_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..NOC_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            1e3 * t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples).expect("NOC_REPS > 0")
}

/// `noc-decoder.*`, `noc-mapping.*`, `noc-sim.*`: the corner-scope
/// compliance sweep per standard, the LDPC mapping of the worst-case
/// WiMAX code (n2304 r1/2 on P = 22) and one NoC message-passing phase of
/// that mapping, all at the paper's design point.  The simulated phase
/// length must equal the compliance row of the same code.
pub fn noc() -> Result<Report, String> {
    let mut report = Report::default();
    let config = DecoderConfig::paper_design_point();
    let mut per_standard = Vec::new();
    let mut reference_cycles = None;
    for standard in Standard::all() {
        let scope = [ComplianceScope::corners(standard)];
        per_standard.push(median_ms(|| {
            run_multi_compliance_sharded(&config, &scope, 1, |_, _| {}).expect("corner sweep");
        }));
        let report = run_multi_compliance_sharded(&config, &scope, 1, |_, _| {})
            .map_err(|e| format!("compliance: {e}"))?;
        if let Some(e) = report
            .entries
            .iter()
            .find(|e| e.code == "802.16e LDPC 2304 r=1/2")
        {
            reference_cycles = Some(e.phase_cycles);
        }
    }

    let code = QcLdpcCode::wimax(2304, CodeRate::R12).map_err(|e| format!("{e:?}"))?;
    let mapping_ms = median_ms(|| {
        std::hint::black_box(LdpcMapping::new(&code, config.pes, config.mapping));
    });
    let mapping = LdpcMapping::new(&code, config.pes, config.mapping);
    let topology =
        Topology::new(config.topology, config.pes, config.degree).map_err(|e| format!("{e}"))?;
    let simulator = NocSimulator::new(
        NocConfig::new(topology, config.routing)
            .with_collision(config.collision)
            .with_architecture(config.architecture)
            .with_route_local(config.route_local)
            .with_output_rate(config.ldpc_output_rate)
            .with_seed(config.seed),
    )
    .map_err(|e| format!("{e}"))?;
    let phase_ms = median_ms(|| {
        std::hint::black_box(simulator.run(mapping.traffic_trace()));
    });
    let cycles = simulator.run(mapping.traffic_trace()).cycles;
    if reference_cycles == Some(cycles) {
        report.pass();
    } else {
        report.fail(
            1,
            format!("noc-sim: {cycles} phase cycles, compliance row says {reference_cycles:?}"),
        );
    }
    report.set(
        "noc-decoder.compliance_ms_per_standard",
        stats::mean(&per_standard).expect("five standards"),
        "ms",
    );
    report.set("noc-mapping.mapping_ms", mapping_ms, "ms");
    report.set("noc-sim.phase_us", 1e3 * phase_ms, "us");
    report.set("noc-sim.phase_cycles", cycles as f64, "cycles");
    report.detail("noc_repetitions", NOC_REPS);
    Ok(report)
}

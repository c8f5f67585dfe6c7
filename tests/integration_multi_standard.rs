//! Multi-standard integration tests: every standard's codes must decode
//! through the unified Monte-Carlo engine with bit-identical counts at any
//! worker count, the turbo and f64 LDPC decoders must reproduce committed
//! golden outputs, and the architectural layer must evaluate codes from all
//! five standards in one compliance sweep.

use code_tables::{dvb_rcs_ctc, wifi_ldpc, wran_ldpc, DecoderKind};
use fec_channel::sim::{EngineConfig, FecCodec, SimulationEngine};
use fec_channel::{AwgnChannel, BpskModulator, EbN0, StopRule};
use fec_fixed::Llr;
use noc_decoder::{
    run_multi_compliance_sharded, ComplianceScope, DecoderConfig, Standard, StandardCode,
};
use rand::{Rng, SeedableRng};
use wimax_ldpc::{
    CodeRate, DecodeOutcome, LayeredConfig, LayeredDecoder, LayeredLdpcCodec, QcLdpcCode,
};
use wimax_turbo::{CtcCode, ExtrinsicExchange, TurboDecoder, TurboDecoderConfig};

/// The smallest corner code of a standard (fast enough for Monte-Carlo in a
/// test).
fn smallest_corner(standard: Standard) -> noc_decoder::StandardCode {
    standard
        .corner_codes()
        .into_iter()
        .min_by_key(|c| c.info_bits())
        .expect("registry has corner codes")
}

/// The catalogue codec of a registry code: layered for LDPC, Max-Log-MAP
/// with the default bit-level exchange for the CTCs.
fn codec_of(code: &StandardCode, ldpc: DecoderKind) -> Box<dyn FecCodec> {
    let decoder = match code.standard() {
        Standard::Lte => DecoderKind::Turbo,
        _ if code.is_ldpc() => ldpc,
        _ => DecoderKind::Ctc(ExtrinsicExchange::BitLevel),
    };
    code.codec(decoder)
        .expect("the catalogue builds every registry code")
}

fn engine(workers: usize) -> SimulationEngine {
    SimulationEngine::new(EngineConfig {
        workers,
        shards: 8,
        frames_per_shard_round: 2,
        seed: 0xC0DE5,
        batch_frames: 1,
        stop_rule: StopRule::FixedBudget { frames: 24 },
    })
}

#[test]
fn per_standard_round_trip_is_error_free_and_worker_invariant() {
    // High-SNR round-trip through the engine for one codec per standard:
    // the counts must be bit-identical at 1, 2 and 8 workers, and the
    // channel must be clean enough that every frame decodes.
    for standard in Standard::all() {
        let code = smallest_corner(standard);
        let codec = codec_of(&code, DecoderKind::Layered);
        let reference = engine(1).run_point(codec.as_ref(), 5.0);
        assert_eq!(reference.frames, 24, "{}", codec.name());
        assert_eq!(
            reference.bit_errors,
            0,
            "{} must be error-free at 5 dB",
            codec.name()
        );
        for workers in [2usize, 8] {
            let point = engine(workers).run_point(codec.as_ref(), 5.0);
            assert_eq!(
                point,
                reference,
                "{}: workers = {workers} changed the counts",
                codec.name()
            );
        }
    }
}

#[test]
fn quantized_datapath_is_also_worker_invariant_on_ldpc_standards() {
    // The fixed-point hardware datapath must run the 802.11n and 802.22
    // tables through the engine unchanged.
    for standard in [Standard::Wifi80211n, Standard::Wran80222] {
        let code = smallest_corner(standard);
        let codec = codec_of(&code, DecoderKind::Quantized { lambda_bits: 7 });
        let reference = engine(1).run_point(codec.as_ref(), 5.0);
        assert_eq!(reference.bit_errors, 0, "{}", codec.name());
        for workers in [2usize, 8] {
            assert_eq!(
                engine(workers).run_point(codec.as_ref(), 5.0),
                reference,
                "{}: workers = {workers}",
                codec.name()
            );
        }
    }
}

#[test]
fn corners_compliance_sweep_covers_all_five_standards() {
    let report = run_multi_compliance_sharded(
        &DecoderConfig::paper_design_point(),
        &ComplianceScope::all_corners(),
        1,
        |_, _| {},
    )
    .expect("multi-standard sweep evaluates");
    assert_eq!(
        report.standards(),
        vec!["802.16e", "802.11n", "LTE", "802.22", "DVB-RCS"]
    );
    // every evaluated entry carries a positive throughput and its own
    // standard's requirement
    for e in &report.entries {
        assert!(e.throughput_mbps > 0.0, "{}", e.code);
        assert!(e.required_mbps > 0.0, "{}", e.code);
    }
    // both operating modes are represented
    assert!(report.worst_ldpc_mbps > 0.0);
    assert!(report.worst_turbo_mbps > 0.0);
}

#[test]
fn new_standard_round_trips_are_bit_identical_at_1_2_and_8_workers() {
    // The satellite engine check for the two new standards, on the larger
    // corner codes too (the per-standard loop above only covers the
    // smallest): the counts must not depend on the worker count.
    let codes = [
        Standard::Wran80222
            .worst_ldpc()
            .expect("802.22 defines LDPC"),
        Standard::DvbRcs
            .worst_turbo()
            .expect("DVB-RCS defines turbo"),
    ];
    for code in codes {
        let codec = codec_of(&code, DecoderKind::Layered);
        let reference = engine(1).run_point(codec.as_ref(), 5.0);
        assert_eq!(reference.frames, 24, "{}", codec.name());
        assert_eq!(reference.bit_errors, 0, "{}", codec.name());
        for workers in [2usize, 8] {
            assert_eq!(
                engine(workers).run_point(codec.as_ref(), 5.0),
                reference,
                "{}: workers = {workers}",
                codec.name()
            );
        }
    }
}

#[test]
fn registries_expose_disjoint_standards() {
    let mut labels = Vec::new();
    for standard in Standard::all() {
        for code in standard.corner_codes() {
            assert_eq!(code.standard(), standard);
            labels.push(code.label());
        }
    }
    let mut unique = labels.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), labels.len(), "duplicate code labels");
}

/// One short fixed-seed curve of a turbo codec, pinned point by point as
/// `(Eb/N0 dB, bit errors, frame errors, total iterations)`.
struct TurboGolden {
    codec: Box<dyn FecCodec>,
    frames: u64,
    points: &'static [(f64, u64, u64, u64)],
    /// FNV-1a hash of the decoded bits of [`HASHED_FRAMES`] noisy frames at
    /// the first point.
    decoded_hash: u64,
}

/// Frames whose decoded bits are hashed per codec.
const HASHED_FRAMES: u64 = 3;

fn registry_codec(standard: Standard, info_bits: usize) -> Box<dyn FecCodec> {
    let code = standard
        .full_codes()
        .into_iter()
        .find(|c| c.info_bits() == info_bits)
        .expect("registry has the block size");
    codec_of(&code, DecoderKind::Layered)
}

fn ctc_codec(code: CtcCode, exchange: ExtrinsicExchange) -> Box<dyn FecCodec> {
    Box::new(TurboDecoder::new(
        &code,
        TurboDecoderConfig {
            exchange,
            ..TurboDecoderConfig::default()
        },
    ))
}

/// FNV-1a over the bytes `digest` takes from each of `frames` frames of
/// `codec` sent through an AWGN channel at `ebn0_db`.
fn noisy_frames_hash(
    codec: &dyn FecCodec,
    ebn0_db: f64,
    frames: u64,
    seed: u64,
    digest: impl Fn(&[Llr]) -> Vec<u8>,
) -> u64 {
    let channel = AwgnChannel::for_code_rate(EbN0::from_db(ebn0_db), codec.rate());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..frames {
        let info: Vec<u8> = (0..codec.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let tx = BpskModulator::new().modulate(&codec.encode(&info));
        let llrs = channel.llrs(&channel.transmit(&tx, &mut rng));
        for byte in digest(&llrs) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a over the decoded bits and iteration counts of `frames` frames
/// sent through an AWGN channel at `ebn0_db`.
fn decoded_bits_hash(codec: &dyn FecCodec, ebn0_db: f64, frames: u64, seed: u64) -> u64 {
    noisy_frames_hash(codec, ebn0_db, frames, seed, |llrs| {
        let decoded = codec.decode(llrs);
        let mut bytes = decoded.info_bits;
        bytes.push(decoded.iterations as u8);
        bytes
    })
}

/// `(Eb/N0 dB, bit errors, frame errors, total iterations)` of a short
/// fixed-seed curve of `frames` frames per point.
fn golden_points(codec: &dyn FecCodec, frames: u64, snrs: &[f64]) -> Vec<(f64, u64, u64, u64)> {
    let engine = SimulationEngine::new(EngineConfig::fixed_frames(frames, 0x7E4B0));
    engine
        .run_curve(codec, snrs)
        .points
        .iter()
        .map(|p| {
            let iterations = (p.average_iterations * p.frames as f64).round() as u64;
            (p.ebn0_db, p.bit_errors, p.frame_errors, iterations)
        })
        .collect()
}

/// Committed golden outputs of every turbo decoder, taken inside each
/// waterfall where one changed rounding in the SISO or in the extrinsic
/// exchange moves the counts.  Any change of the turbo decoders must keep
/// these bytes.
#[test]
fn turbo_decoders_reproduce_their_golden_outputs() {
    let goldens = [
        TurboGolden {
            codec: registry_codec(Standard::Lte, 1024),
            frames: 8,
            points: &[(0.0, 497, 5, 62), (0.25, 408, 3, 60), (0.5, 129, 1, 47)],
            decoded_hash: 0xe7f1_43ee_9785_da7c,
        },
        TurboGolden {
            codec: registry_codec(Standard::Lte, 104),
            frames: 16,
            points: &[(0.0, 241, 11, 98), (0.5, 128, 7, 92)],
            decoded_hash: 0xfdc5_549d_7f4a_89f9,
        },
        TurboGolden {
            codec: ctc_codec(
                dvb_rcs_ctc(212).expect("ATM size"),
                ExtrinsicExchange::BitLevel,
            ),
            frames: 8,
            points: &[(1.0, 168, 6, 60), (1.25, 178, 5, 55), (1.5, 70, 3, 52)],
            decoded_hash: 0x1272_b58d_fb99_3931,
        },
        TurboGolden {
            codec: ctc_codec(
                dvb_rcs_ctc(212).expect("ATM size"),
                ExtrinsicExchange::SymbolLevel,
            ),
            frames: 8,
            points: &[(1.0, 45, 3, 48), (1.25, 84, 3, 43), (1.5, 0, 0, 35)],
            decoded_hash: 0xc2fc_5278_6128_d925,
        },
        TurboGolden {
            codec: ctc_codec(
                CtcCode::wimax(240).expect("WiMAX size"),
                ExtrinsicExchange::BitLevel,
            ),
            frames: 8,
            points: &[(1.0, 187, 7, 64), (1.25, 110, 6, 55), (1.5, 53, 5, 50)],
            decoded_hash: 0x7576_717e_6486_b4f2,
        },
    ];
    let mut mismatches = Vec::new();
    for golden in &goldens {
        let codec = golden.codec.as_ref();
        let snrs: Vec<f64> = golden.points.iter().map(|p| p.0).collect();
        let measured = golden_points(codec, golden.frames, &snrs);
        let hash = decoded_bits_hash(codec, snrs[0], HASHED_FRAMES, 0x5A17);
        if measured != golden.points || hash != golden.decoded_hash {
            mismatches.push(format!(
                "{}: points {measured:?}, decoded hash {hash:#018x}",
                codec.name()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// An f64 LDPC decoder: its codec, and the decoder itself, whose posterior
/// LLRs the codec drops.
type F64Ldpc = (Box<dyn FecCodec>, Box<dyn Fn(&[Llr]) -> DecodeOutcome>);

/// The default layered decoder of `code`, as `ber_study` runs it.
fn layered(code: &QcLdpcCode) -> F64Ldpc {
    let config = LayeredConfig::default();
    let decoder = LayeredDecoder::new(code, config);
    (
        Box::new(LayeredLdpcCodec::new(code, config)),
        Box::new(move |llrs: &[Llr]| decoder.decode(llrs)),
    )
}

/// The flooding schedule of `code` with the default config, as `ber_study`
/// runs it.
fn flooding(code: &QcLdpcCode) -> F64Ldpc {
    let config = LayeredConfig::default();
    let decoder = LayeredDecoder::flooding(code, config);
    (
        Box::new(LayeredLdpcCodec::flooding(code, config)),
        Box::new(move |llrs: &[Llr]| decoder.decode(llrs)),
    )
}

/// One f64 LDPC decoder's short fixed-seed curve, pinned like
/// [`TurboGolden`]'s.
struct LdpcGolden {
    decoder: F64Ldpc,
    frames: u64,
    points: &'static [(f64, u64, u64, u64)],
    /// FNV-1a hash of the hard decisions, iteration count and posterior
    /// LLR bits of [`HASHED_FRAMES`] noisy frames at the first point.
    outcome_hash: u64,
}

/// Committed golden outputs of the f64 LDPC decoders: layered on the
/// WiMAX, 802.11n and 802.22 codes `ber_study` runs, and flooding on
/// WiMAX, inside each waterfall.  The hash covers every posterior LLR bit
/// for bit.  Any change of the f64 decoders must keep these bytes.
#[test]
fn f64_ldpc_decoders_reproduce_their_golden_outputs() {
    let wimax = QcLdpcCode::wimax(576, CodeRate::R12).expect("WiMAX n576");
    let wifi = wifi_ldpc(648, CodeRate::R12).expect("802.11n n648");
    let wran = wran_ldpc(480, CodeRate::R12).expect("802.22 n480");
    let goldens = [
        LdpcGolden {
            decoder: layered(&wimax),
            frames: 16,
            points: &[(1.0, 165, 7, 143), (1.5, 100, 7, 127), (2.0, 3, 1, 69)],
            outcome_hash: 0xa7c0_a223_0e0f_7ba4,
        },
        LdpcGolden {
            decoder: layered(&wifi),
            frames: 16,
            points: &[(1.0, 249, 9, 142), (1.5, 295, 9, 142), (1.75, 1, 1, 96)],
            outcome_hash: 0x14fc_4c6a_d270_2acc,
        },
        LdpcGolden {
            decoder: layered(&wran),
            frames: 16,
            points: &[(1.0, 250, 13, 152), (1.5, 66, 6, 115), (1.75, 23, 1, 94)],
            outcome_hash: 0x5ef6_53d1_2170_232d,
        },
        LdpcGolden {
            decoder: flooding(&wimax),
            frames: 16,
            points: &[(1.5, 147, 11, 154), (2.0, 10, 2, 116), (2.5, 1, 1, 103)],
            outcome_hash: 0x70a8_198e_e1cc_c1fe,
        },
    ];
    let mut mismatches = Vec::new();
    for golden in &goldens {
        let (codec, decode) = (golden.decoder.0.as_ref(), &golden.decoder.1);
        let snrs: Vec<f64> = golden.points.iter().map(|p| p.0).collect();
        let measured = golden_points(codec, golden.frames, &snrs);
        let hash = noisy_frames_hash(codec, snrs[0], HASHED_FRAMES, 0x5A17, |llrs| {
            let out = decode(llrs);
            let mut bytes = out.hard_bits;
            bytes.push(out.iterations as u8);
            bytes.extend(out.posterior.iter().flat_map(|p| p.to_bits().to_le_bytes()));
            bytes
        });
        if measured != golden.points || hash != golden.outcome_hash {
            mismatches.push(format!(
                "{}: points {measured:?}, outcome hash {hash:#018x}",
                codec.name()
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

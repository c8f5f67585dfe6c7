//! End-to-end integration tests: encoder -> AWGN channel -> decoder in both
//! operating modes of the flexible decoder (with the decoders' default
//! configurations, which carry the paper's 10 LDPC and 8 turbo
//! iterations), and the architectural evaluation of both modes through the
//! public API of `noc-decoder`.

use fec_channel::{AwgnChannel, BpskModulator, EbN0, ErrorCounter};
use noc_decoder::evaluation::{evaluate_ldpc, evaluate_standard_code};
use noc_decoder::{CodeRate, CtcCode, DecoderConfig, MappingStore, QcLdpcCode, StandardCode};
use rand::{Rng, SeedableRng};
use wimax_ldpc::decoder::{LayeredConfig, LayeredDecoder};
use wimax_ldpc::QcEncoder;
use wimax_turbo::{TurboDecoder, TurboDecoderConfig};

fn random_bits(len: usize, rng: &mut impl Rng) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..=1u8)).collect()
}

#[test]
fn ldpc_frames_survive_a_two_db_awgn_channel() {
    let code = QcLdpcCode::wimax(1152, CodeRate::R12).unwrap();
    let decoder = LayeredDecoder::new(&code, LayeredConfig::default());
    let encoder = QcEncoder::new(&code);
    let modulator = BpskModulator::new();
    let channel = AwgnChannel::for_code_rate(EbN0::from_db(2.2), 0.5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);

    let mut counter = ErrorCounter::new();
    for _ in 0..5 {
        let info = random_bits(code.k(), &mut rng);
        let cw = encoder.encode(&info).unwrap();
        let rx = channel.transmit(&modulator.modulate(&cw), &mut rng);
        let out = decoder.decode(&channel.llrs(&rx));
        counter.record_frame(&info, out.info_bits(code.k()));
    }
    assert_eq!(
        counter.bit_errors(),
        0,
        "LDPC decoding failed at 2.2 dB: {} bit errors",
        counter.bit_errors()
    );
}

#[test]
fn turbo_frames_survive_a_three_db_awgn_channel() {
    let code = CtcCode::wimax(480).unwrap();
    let decoder = TurboDecoder::new(&code, TurboDecoderConfig::default());
    let modulator = BpskModulator::new();
    let channel = AwgnChannel::for_code_rate(EbN0::from_db(3.0), 0.5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);

    let mut counter = ErrorCounter::new();
    for _ in 0..4 {
        let info = random_bits(code.info_bits(), &mut rng);
        let cw = code.encode(&info).unwrap();
        let rx = channel.transmit(&modulator.modulate(&cw), &mut rng);
        let out = decoder.decode(&channel.llrs(&rx)).unwrap();
        counter.record_frame(&info, &out.info_bits);
    }
    assert_eq!(
        counter.bit_errors(),
        0,
        "turbo decoding failed at 3 dB: {} bit errors",
        counter.bit_errors()
    );
}

#[test]
fn ldpc_decoding_improves_with_snr() {
    // At very low SNR the decoder must fail, at high SNR it must succeed:
    // a basic sanity check that the whole chain is actually doing something.
    let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
    let decoder = LayeredDecoder::new(&code, LayeredConfig::default());
    let encoder = QcEncoder::new(&code);
    let modulator = BpskModulator::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);

    let ber_at = |ebn0_db: f64, rng: &mut rand::rngs::StdRng| {
        let channel = AwgnChannel::for_code_rate(EbN0::from_db(ebn0_db), 0.5);
        let mut counter = ErrorCounter::new();
        for _ in 0..4 {
            let info = random_bits(code.k(), rng);
            let cw = encoder.encode(&info).unwrap();
            let rx = channel.transmit(&modulator.modulate(&cw), rng);
            let out = decoder.decode(&channel.llrs(&rx));
            counter.record_frame(&info, out.info_bits(code.k()));
        }
        counter.ber()
    };

    let low = ber_at(-2.0, &mut rng);
    let high = ber_at(3.0, &mut rng);
    assert!(low > 0.01, "BER at -2 dB should be high, got {low}");
    assert_eq!(high, 0.0, "BER at 3 dB should be zero, got {high}");
}

#[test]
fn architectural_evaluation_is_deterministic() {
    let config = DecoderConfig::paper_design_point().with_pes(12);
    let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
    let a = evaluate_ldpc(&config, &code, &MappingStore::new()).unwrap();
    let b = evaluate_ldpc(&config, &code, &MappingStore::new()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn both_modes_share_the_same_configuration() {
    // The same design point (same P, topology, routing) must evaluate in
    // both modes — that is the whole point of the flexible architecture.
    let config = DecoderConfig::paper_design_point().with_pes(16);
    let mappings = MappingStore::new();
    let ldpc = evaluate_ldpc(
        &config,
        &QcLdpcCode::wimax(1152, CodeRate::R12).unwrap(),
        &mappings,
    )
    .unwrap();
    let turbo = evaluate_standard_code(
        &config,
        &StandardCode::WimaxTurbo {
            code: CtcCode::wimax(960).unwrap(),
        },
        &mappings,
    )
    .unwrap();
    assert_eq!(ldpc.pes, turbo.pes);
    assert_eq!(ldpc.topology, turbo.topology);
    assert_eq!(ldpc.routing, turbo.routing);
    assert!(ldpc.throughput_mbps > 0.0 && turbo.throughput_mbps > 0.0);
}

//! Quickstart: decode one LDPC frame and one turbo frame over an AWGN
//! channel with the decoders' default configurations (the paper's 10 LDPC
//! and 8 turbo iterations), and print the architectural evaluation of the
//! paper's `P = 22` NoC-based decoder on both codes.
//!
//! Run with `cargo run --example quickstart --release`.

use fec_channel::{AwgnChannel, BpskModulator, EbN0};
use noc_decoder::evaluation::{evaluate_ldpc, evaluate_standard_code};
use noc_decoder::{CodeRate, CtcCode, DecoderConfig, MappingStore, QcLdpcCode, StandardCode};
use rand::{Rng, SeedableRng};
use wimax_ldpc::decoder::{LayeredConfig, LayeredDecoder};
use wimax_ldpc::QcEncoder;
use wimax_turbo::{TurboDecoder, TurboDecoderConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2012);
    let modulator = BpskModulator::new();

    // ------------------------------------------------------------------
    // 1. LDPC mode: WiMAX N = 2304, r = 1/2 (the paper's worst-case code)
    // ------------------------------------------------------------------
    let ldpc_code = QcLdpcCode::wimax(2304, CodeRate::R12)?;
    let ldpc_encoder = QcEncoder::new(&ldpc_code);
    let info: Vec<u8> = (0..ldpc_code.k()).map(|_| rng.gen_range(0..=1)).collect();
    let codeword = ldpc_encoder.encode(&info)?;

    let channel = AwgnChannel::for_code_rate(EbN0::from_db(2.0), ldpc_code.rate().as_f64());
    let received = channel.transmit(&modulator.modulate(&codeword), &mut rng);
    let llrs = channel.llrs(&received);

    let outcome = LayeredDecoder::new(&ldpc_code, LayeredConfig::default()).decode(&llrs);
    let bit_errors = outcome
        .info_bits(ldpc_code.k())
        .iter()
        .zip(&info)
        .filter(|(a, b)| a != b)
        .count();
    println!("LDPC N=2304 r=1/2 @ Eb/N0 = 2 dB:");
    println!(
        "  converged = {} after {} iterations, info-bit errors = {bit_errors}",
        outcome.converged, outcome.iterations
    );

    // ------------------------------------------------------------------
    // 2. Turbo mode: WiMAX double-binary CTC, N = 2400 couples, rate 1/2
    // ------------------------------------------------------------------
    let turbo_code = CtcCode::wimax(2400)?;
    let info: Vec<u8> = (0..turbo_code.info_bits())
        .map(|_| rng.gen_range(0..=1))
        .collect();
    let coded = turbo_code.encode(&info)?;

    let channel = AwgnChannel::for_code_rate(EbN0::from_db(2.5), 0.5);
    let received = channel.transmit(&modulator.modulate(&coded), &mut rng);
    let llrs = channel.llrs(&received);

    let outcome = TurboDecoder::new(&turbo_code, TurboDecoderConfig::default()).decode(&llrs)?;
    let bit_errors = outcome
        .info_bits
        .iter()
        .zip(&info)
        .filter(|(a, b)| a != b)
        .count();
    println!("DBTC N=4800 r=1/2 @ Eb/N0 = 2.5 dB:");
    println!(
        "  {} iterations, info-bit errors = {bit_errors}",
        outcome.iterations
    );

    // ------------------------------------------------------------------
    // 3. Architectural evaluation of the paper's design point
    // ------------------------------------------------------------------
    let config = DecoderConfig::paper_design_point();
    let mappings = MappingStore::new();
    let ldpc_eval = evaluate_ldpc(&config, &ldpc_code, &mappings)?;
    let turbo_code = StandardCode::WimaxTurbo { code: turbo_code };
    let turbo_eval = evaluate_standard_code(&config, &turbo_code, &mappings)?;
    println!("\nPaper design point (P = 22, D = 3 generalized Kautz, SSP-FL):");
    println!(
        "  LDPC : {:.2} Mb/s, phase = {} cycles, NoC area = {:.2} mm2, total = {:.2} mm2, power ~ {:.0} mW",
        ldpc_eval.throughput_mbps,
        ldpc_eval.phase_cycles,
        ldpc_eval.noc_area_mm2,
        ldpc_eval.total_area_mm2(),
        ldpc_eval.power_mw()
    );
    println!(
        "  Turbo: {:.2} Mb/s, phase = {} cycles, NoC area = {:.2} mm2, total = {:.2} mm2, power ~ {:.0} mW",
        turbo_eval.throughput_mbps,
        turbo_eval.phase_cycles,
        turbo_eval.noc_area_mm2,
        turbo_eval.total_area_mm2(),
        turbo_eval.power_mw()
    );
    Ok(())
}

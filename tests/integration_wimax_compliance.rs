//! WiMAX-compliance integration tests: the full set of 802.16e LDPC and CTC
//! codes must be constructible, encodable and decodable, and the paper's
//! P = 22 design point must sustain the standard's worst-case workload.

use noc_decoder::evaluation::{evaluate_ldpc, evaluate_standard_code, DesignEvaluation};
use noc_decoder::{CodeRate, DecoderConfig, MappingStore, QcLdpcCode, StandardCode};
use wimax_ldpc::{wimax_block_lengths, QcEncoder};
use wimax_turbo::interleaver::WIMAX_ARP_TABLE;
use wimax_turbo::CtcCode;

/// The paper design point on the worst-case WiMAX LDPC code.
fn worst_ldpc_evaluation() -> DesignEvaluation {
    let code = QcLdpcCode::wimax(2304, CodeRate::R12).unwrap();
    evaluate_ldpc(
        &DecoderConfig::paper_design_point(),
        &code,
        &MappingStore::new(),
    )
    .unwrap()
}

/// The paper design point on the largest WiMAX CTC frame, 2400 couples.
fn largest_turbo_evaluation() -> DesignEvaluation {
    let code = StandardCode::WimaxTurbo {
        code: CtcCode::wimax(2400).unwrap(),
    };
    evaluate_standard_code(
        &DecoderConfig::paper_design_point(),
        &code,
        &MappingStore::new(),
    )
    .unwrap()
}

#[test]
fn every_wimax_ldpc_code_is_constructible_and_encodable() {
    for &n in &wimax_block_lengths() {
        for rate in CodeRate::all() {
            let code =
                QcLdpcCode::wimax(n, rate).unwrap_or_else(|e| panic!("N={n} rate {rate}: {e}"));
            assert_eq!(code.n(), n);
            // spot-check the encoder on the all-one word
            let encoder = QcEncoder::new(&code);
            let cw = encoder.encode(&vec![1u8; code.k()]).unwrap();
            assert!(code.is_codeword(&cw), "N={n} rate {rate}");
        }
    }
}

#[test]
fn every_wimax_ctc_frame_size_is_constructible_and_encodable() {
    for couples in WIMAX_ARP_TABLE.map(|p| p.couples) {
        let code = CtcCode::wimax(couples).unwrap_or_else(|e| panic!("{couples} couples: {e}"));
        assert_eq!(code.info_bits(), 2 * couples);
        assert_eq!(code.interleaver().len(), couples);
        let cw = code.encode(&vec![0u8; code.info_bits()]).unwrap();
        assert_eq!(cw.len(), code.coded_bits());
    }
}

#[test]
fn worst_case_ldpc_code_is_the_rate_half_n2304() {
    // Paper Section IV.A: the heaviest workload among WiMAX codes is the
    // 1152 parity checks of degree 6/7 of the N = 2304, r = 1/2 code.
    let worst = QcLdpcCode::wimax(2304, CodeRate::R12).unwrap();
    assert_eq!(worst.m(), 1152);
    let plan = worst.plan();
    assert_eq!(plan.layers().len() * plan.expansion(), worst.m());
    for (l, layer) in plan.layers().enumerate() {
        let d = layer.len();
        assert!(d == 6 || d == 7, "layer {l} has degree {d}");
    }
    // no other WiMAX code has more parity checks
    for &n in &wimax_block_lengths() {
        for rate in CodeRate::all() {
            let code = QcLdpcCode::wimax(n, rate).unwrap();
            assert!(
                code.m() <= worst.m(),
                "N={n} rate {rate} has {} checks",
                code.m()
            );
        }
    }
}

#[test]
fn paper_design_point_sustains_the_worst_case_ldpc_workload() {
    // The P = 22 generalized-Kautz decoder must be evaluable on the
    // worst-case code and deliver a throughput within the order of magnitude
    // of the paper's 72 Mb/s (the exact value depends on the partitioner and
    // the simulator details; see README, "Reproducing the paper").
    let eval = worst_ldpc_evaluation();
    assert!(
        eval.throughput_mbps > 25.0 && eval.throughput_mbps < 250.0,
        "LDPC throughput {:.1} Mb/s is outside the plausible range",
        eval.throughput_mbps
    );
    assert!(eval.locality > 0.05 && eval.locality < 0.95);
    // total area must be of the order of a few mm2 at 90 nm
    assert!(
        eval.total_area_mm2() > 1.0 && eval.total_area_mm2() < 10.0,
        "total area {:.2} mm2",
        eval.total_area_mm2()
    );
}

#[test]
fn paper_design_point_sustains_the_largest_turbo_frame() {
    let eval = largest_turbo_evaluation();
    assert_eq!(eval.info_bits, 4800);
    assert!(
        eval.throughput_mbps > 25.0 && eval.throughput_mbps < 250.0,
        "turbo throughput {:.1} Mb/s is outside the plausible range",
        eval.throughput_mbps
    );
}

#[test]
fn turbo_mode_consumes_less_power_than_ldpc_mode() {
    // The paper highlights the particularly low power consumption in turbo
    // mode (59 mW vs 415 mW); our model must preserve that ordering.
    let p_ldpc = worst_ldpc_evaluation().power_mw();
    let p_turbo = largest_turbo_evaluation().power_mw();
    assert!(
        p_turbo < p_ldpc / 3.0,
        "turbo power {p_turbo:.0} mW should be well below LDPC power {p_ldpc:.0} mW"
    );
}

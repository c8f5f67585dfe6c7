//! Multi-standard integration tests: every standard's codes must decode
//! through the unified Monte-Carlo engine with bit-identical counts at any
//! worker count, and the architectural layer must evaluate codes from all
//! five standards in one compliance sweep.

use fec_channel::sim::{EngineConfig, SimulationEngine};
use fec_channel::StopRule;
use noc_decoder::{registry_for, run_multi_compliance, ComplianceScope, DecoderConfig, Standard};

/// The smallest corner code of a standard (fast enough for Monte-Carlo in a
/// test).
fn smallest_corner(standard: Standard) -> noc_decoder::StandardCode {
    registry_for(standard)
        .corner_codes()
        .into_iter()
        .min_by_key(|c| c.info_bits())
        .expect("registry has corner codes")
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
        let codec = code.codec();
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
        let codec = code.quantized_codec().expect("LDPC has a quantized path");
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
    let report = run_multi_compliance(
        &DecoderConfig::paper_design_point(),
        &ComplianceScope::all_corners(),
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
        registry_for(Standard::Wran80222)
            .worst_ldpc()
            .expect("802.22 defines LDPC"),
        registry_for(Standard::DvbRcs)
            .worst_turbo()
            .expect("DVB-RCS defines turbo"),
    ];
    for code in codes {
        let codec = code.codec();
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
        for code in registry_for(standard).corner_codes() {
            assert_eq!(code.standard(), standard);
            labels.push(code.label());
        }
    }
    let mut unique = labels.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), labels.len(), "duplicate code labels");
}

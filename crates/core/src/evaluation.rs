//! Evaluation of one decoder design point on one code: cycle-accurate phase
//! duration, throughput, area and power, and the supporting statistics.
//!
//! Every code goes through one private tail.  [`evaluate_ldpc`] hands it
//! the code's partitioned mapping; the turbo arm of
//! [`evaluate_standard_code`] hands it the contiguous-window mapping of the
//! code's interleaver — the duo-binary CTCs of 802.16e and DVB-RCS and the
//! binary LTE code alike — with the payload of one extrinsic message.  The
//! tail builds the network before any mapping, simulates the mapped phase
//! and costs it with the [`model`].

use crate::config::DecoderConfig;
use crate::model::{self, NocAreaInputs};
use crate::throughput::{ldpc_throughput_mbps, turbo_throughput_mbps};
use code_tables::StandardCode;
use noc_mapping::turbo::HalfIteration;
use noc_mapping::{MappingStore, TurboMapping};
use noc_sim::{NocConfig, NocError, NocSimulator, NocStats, Topology, TrafficTrace};
use std::fmt;
use wimax_ldpc::QcLdpcCode;
use wimax_turbo::Interleaver;

/// Errors produced while evaluating a design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecoderError {
    /// The NoC could not be built or simulated.
    Noc(NocError),
    /// The configuration is inconsistent with the code (e.g. more PEs than
    /// parity checks).
    InvalidConfiguration {
        /// Explanation of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for DecoderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecoderError::Noc(e) => write!(f, "NoC error: {e}"),
            DecoderError::InvalidConfiguration { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for DecoderError {}

impl From<NocError> for DecoderError {
    fn from(e: NocError) -> Self {
        DecoderError::Noc(e)
    }
}

/// Operating mode of an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// LDPC decoding mode.
    Ldpc,
    /// Turbo decoding mode.
    Turbo,
}

/// The result of evaluating one design point on one code.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignEvaluation {
    /// Operating mode.
    pub mode: Mode,
    /// Topology name.
    pub topology: String,
    /// Parallelism `P`.
    pub pes: usize,
    /// Actual node degree `D`.
    pub degree: usize,
    /// Routing algorithm name.
    pub routing: String,
    /// Node architecture name ("AP"/"PP").
    pub architecture: String,
    /// Duration of one message-passing phase in NoC cycles (`n_cycles`).
    pub phase_cycles: u64,
    /// Decoded information bits per frame.
    pub info_bits: usize,
    /// Throughput in Mb/s at the mode's clock ([`model::LDPC_CLOCK_MHZ`] or
    /// [`model::TURBO_CLOCK_MHZ`]).
    pub throughput_mbps: f64,
    /// NoC area (routing elements only, as in Table I) in mm² at 90 nm.
    pub noc_area_mm2: f64,
    /// Processing-core area (PEs with shared memories) in mm² at 90 nm.
    pub core_area_mm2: f64,
    /// Largest input-FIFO occupancy observed (hardware FIFO depth).
    pub fifo_depth: usize,
    /// Fraction of messages that stayed local to a PE.
    pub locality: f64,
    /// Average network latency in cycles.
    pub average_latency: f64,
    /// Total messages exchanged per phase.
    pub messages_per_phase: usize,
}

impl DesignEvaluation {
    /// Total decoder area (core plus NoC), the `A_tot` of Table III.
    pub fn total_area_mm2(&self) -> f64 {
        self.noc_area_mm2 + self.core_area_mm2
    }

    /// Estimated peak power in mW, from the mode and the total area.
    pub fn power_mw(&self) -> f64 {
        model::power_mw(self.mode, self.total_area_mm2())
    }

    /// Total area scaled from 90 nm to a node of `feature_nm` nm (Table
    /// III's `A_N` at 65 nm).
    pub fn total_area_mm2_at(&self, feature_nm: f64) -> f64 {
        model::scaled_area_mm2(self.total_area_mm2(), feature_nm)
    }
}

/// Evaluates one design point in LDPC mode, taking the code's mapping from
/// `mappings` (or adding it there): evaluations that share a store map each
/// `(code, P)` once.
pub fn evaluate_ldpc(
    config: &DecoderConfig,
    code: &QcLdpcCode,
    mappings: &MappingStore,
) -> Result<DesignEvaluation, DecoderError> {
    if config.pes > code.m() {
        return Err(DecoderError::InvalidConfiguration {
            reason: format!("{} PEs but only {} parity checks", config.pes, code.m()),
        });
    }
    evaluate(
        config,
        Mode::Ldpc,
        code.k(),
        code.n(),
        LDPC_PAYLOAD_BITS,
        || {
            mappings
                .mapping(code, config.pes, config.mapping)
                .into_traffic_trace()
        },
    )
}

/// Payload bits of one LDPC message: one 7-bit value.
const LDPC_PAYLOAD_BITS: u32 = 7;

/// Payload bits of one extrinsic message of a duo-binary CTC: the two 7-bit
/// bit-level values of a couple.
const CTC_PAYLOAD_BITS: u32 = 14;

/// Payload bits of one extrinsic message of the binary LTE code: one 7-bit
/// value per bit.
const BINARY_PAYLOAD_BITS: u32 = 7;

/// Evaluates one design point for any code of the multi-standard registry,
/// dispatching LDPC codes to [`evaluate_ldpc`] (with `mappings`) and turbo
/// codes to the turbo arm with their interleaver and payload.
pub fn evaluate_standard_code(
    config: &DecoderConfig,
    code: &StandardCode,
    mappings: &MappingStore,
) -> Result<DesignEvaluation, DecoderError> {
    match code {
        StandardCode::Ldpc { code, .. } => evaluate_ldpc(config, code, mappings),
        // The DVB-RCS CTC shares the duo-binary trellis and the couple-level
        // extrinsic traffic of the 802.16e CTC; only its interleaver (and
        // hence the NoC traffic pattern) differs, which `CtcCode` carries.
        StandardCode::WimaxTurbo { code } | StandardCode::DvbRcsTurbo { code } => evaluate_turbo(
            config,
            code.info_bits(),
            code.interleaver(),
            CTC_PAYLOAD_BITS,
        ),
        StandardCode::LteTurbo { code } => evaluate_turbo(
            config,
            code.info_bits(),
            code.interleaver(),
            BINARY_PAYLOAD_BITS,
        ),
    }
}

/// Evaluates one design point in turbo mode on a code of `info_bits`
/// information bits whose trellis sections (couples of a duo-binary CTC,
/// bits of a binary code) cross `interleaver`, exchanging extrinsic
/// messages of `payload_bits` bits: the first-half traffic of its
/// contiguous windows.
fn evaluate_turbo(
    config: &DecoderConfig,
    info_bits: usize,
    interleaver: &Interleaver,
    payload_bits: u32,
) -> Result<DesignEvaluation, DecoderError> {
    if config.pes > interleaver.len() {
        return Err(DecoderError::InvalidConfiguration {
            reason: format!(
                "{} PEs but only {} trellis sections",
                config.pes,
                interleaver.len()
            ),
        });
    }
    evaluate(
        config,
        Mode::Turbo,
        info_bits,
        interleaver.len(),
        payload_bits,
        || TurboMapping::new(interleaver, config.pes).traffic_trace(HalfIteration::First),
    )
}

/// The tail of every evaluation: builds the topology (so `P < 2` fails here,
/// before any mapping), the NoC configuration at the mode's PE output rate
/// and the simulator, simulates the phase of the trace `map` builds, and
/// computes throughput and areas.  `address_space` counts the units one
/// location-memory entry addresses: code bits for LDPC, trellis sections
/// for turbo.
fn evaluate(
    config: &DecoderConfig,
    mode: Mode,
    info_bits: usize,
    address_space: usize,
    payload_bits: u32,
    map: impl FnOnce() -> TrafficTrace,
) -> Result<DesignEvaluation, DecoderError> {
    let topology = Topology::new(config.topology, config.pes, config.degree)?;
    let degree = topology.degree();
    let output_rate = match mode {
        Mode::Ldpc => config.ldpc_output_rate,
        Mode::Turbo => model::SISO_INJECTION_RATE,
    };
    let noc_config = NocConfig::new(topology, config.routing)
        .with_collision(config.collision)
        .with_architecture(config.architecture)
        .with_route_local(config.route_local)
        .with_output_rate(output_rate)
        .with_seed(config.seed);
    let simulator = NocSimulator::new(noc_config)?;
    let trace = map();
    let stats = simulator.run(&trace);

    let (phase_cycles, throughput_mbps) = match mode {
        Mode::Ldpc => {
            let throughput = ldpc_throughput_mbps(
                info_bits,
                model::LDPC_CLOCK_MHZ,
                model::LDPC_ITERATIONS,
                model::LDPC_CORE_LATENCY,
                stats.cycles,
            );
            (stats.cycles, throughput)
        }
        Mode::Turbo => {
            // The message-passing phase overlaps the SISO computation of the
            // largest window, `sections.div_ceil(P)` sections; the half
            // iteration lasts as long as the slower of the two.
            let siso_cycles =
                model::siso_half_iteration_noc_cycles(address_space.div_ceil(config.pes));
            let half_cycles = stats.cycles.max(siso_cycles);
            let throughput = turbo_throughput_mbps(
                info_bits,
                model::TURBO_CLOCK_MHZ,
                model::TURBO_ITERATIONS,
                model::SISO_CORE_LATENCY,
                half_cycles,
            );
            (half_cycles, throughput)
        }
    };

    let messages_per_phase = trace.total_messages();
    let noc_area_mm2 = noc_area_inputs(
        config,
        address_space,
        &stats,
        messages_per_phase,
        payload_bits,
    )
    .noc_area_mm2();

    Ok(DesignEvaluation {
        mode,
        topology: config.topology.name().to_string(),
        pes: config.pes,
        degree,
        routing: config.routing.name().to_string(),
        architecture: config.architecture.name().to_string(),
        phase_cycles,
        info_bits,
        throughput_mbps,
        noc_area_mm2,
        core_area_mm2: model::core_area_mm2(config.pes),
        fifo_depth: stats.max_fifo_occupancy.max(1),
        locality: trace.locality(),
        average_latency: stats.average_latency,
        messages_per_phase,
    })
}

/// The NoC area inputs of a design point, from the simulation statistics.
fn noc_area_inputs(
    config: &DecoderConfig,
    address_space: usize,
    stats: &NocStats,
    total_messages: usize,
    payload_bits: u32,
) -> NocAreaInputs {
    let location_bits = (usize::BITS - address_space.saturating_sub(1).leading_zeros()).max(1);
    let messages_per_node = total_messages.div_ceil(config.pes);
    let forwarded_max = stats.forwarded_per_node.iter().copied().max().unwrap_or(0) as usize;
    let crossbar_size = config.degree + 1;
    let routing_entries = match config.architecture {
        noc_sim::NodeArchitecture::AllPrecalculated => forwarded_max.max(messages_per_node),
        noc_sim::NodeArchitecture::PartiallyPrecalculated => 0,
    };
    NocAreaInputs {
        nodes: config.pes,
        crossbar_size,
        fifo_depth: stats.max_fifo_occupancy.max(2),
        payload_bits,
        header_bits: config.architecture.header_bits(config.pes),
        location_entries: messages_per_node,
        location_bits,
        routing_entries,
        routing_bits: (usize::BITS - crossbar_size.saturating_sub(1).leading_zeros()).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimax_ldpc::CodeRate;
    use wimax_turbo::CtcCode;

    fn small_code() -> QcLdpcCode {
        QcLdpcCode::wimax(576, CodeRate::R12).unwrap()
    }

    /// The turbo evaluation of a duo-binary CTC.
    fn evaluate_ctc(
        config: &DecoderConfig,
        code: &CtcCode,
    ) -> Result<DesignEvaluation, DecoderError> {
        evaluate_turbo(
            config,
            code.info_bits(),
            code.interleaver(),
            CTC_PAYLOAD_BITS,
        )
    }

    #[test]
    fn ldpc_evaluation_produces_consistent_numbers() {
        let config = DecoderConfig::paper_design_point().with_pes(8);
        let eval = evaluate_ldpc(&config, &small_code(), &MappingStore::new()).unwrap();
        assert_eq!(eval.mode, Mode::Ldpc);
        assert_eq!(eval.pes, 8);
        assert!(eval.phase_cycles > 0);
        assert!(eval.throughput_mbps > 0.0);
        assert!(eval.noc_area_mm2 > 0.0);
        assert!(eval.core_area_mm2 > 0.0);
        assert!(eval.total_area_mm2() > eval.noc_area_mm2);
        assert_eq!(eval.messages_per_phase, small_code().edge_count());
        assert!(eval.locality > 0.0 && eval.locality < 1.0);
    }

    #[test]
    fn turbo_evaluation_produces_consistent_numbers() {
        let config = DecoderConfig::paper_design_point().with_pes(8);
        let code = CtcCode::wimax(240).unwrap();
        let eval = evaluate_ctc(&config, &code).unwrap();
        assert_eq!(eval.mode, Mode::Turbo);
        assert_eq!(eval.info_bits, 480);
        assert!(eval.phase_cycles > 0);
        assert!(eval.throughput_mbps > 0.0);
        assert_eq!(eval.messages_per_phase, 240);
    }

    #[test]
    fn more_pes_gives_higher_ldpc_throughput() {
        let code = small_code();
        let mappings = MappingStore::new();
        let slow = evaluate_ldpc(
            &DecoderConfig::paper_design_point().with_pes(4),
            &code,
            &mappings,
        )
        .unwrap();
        let fast = evaluate_ldpc(
            &DecoderConfig::paper_design_point().with_pes(16),
            &code,
            &mappings,
        )
        .unwrap();
        assert!(
            fast.throughput_mbps > slow.throughput_mbps,
            "P=16 {} <= P=4 {}",
            fast.throughput_mbps,
            slow.throughput_mbps
        );
    }

    #[test]
    fn too_many_pes_is_rejected() {
        let config = DecoderConfig::paper_design_point().with_pes(2000);
        assert!(matches!(
            evaluate_ldpc(&config, &small_code(), &MappingStore::new()),
            Err(DecoderError::InvalidConfiguration { .. })
        ));
        let code = CtcCode::wimax(24).unwrap();
        assert!(evaluate_ctc(&config, &code).is_err());
    }

    #[test]
    fn zero_pes_is_an_error_for_every_corner_code() {
        let config = DecoderConfig::paper_design_point().with_pes(0);
        let mappings = MappingStore::new();
        for code in code_tables::Standard::all()
            .into_iter()
            .flat_map(code_tables::Standard::corner_codes)
        {
            assert!(
                evaluate_standard_code(&config, &code, &mappings).is_err(),
                "{}",
                code.label()
            );
        }
    }

    #[test]
    fn ap_architecture_has_no_header_but_routing_memory() {
        let code = small_code();
        let mappings = MappingStore::new();
        let pp = evaluate_ldpc(
            &DecoderConfig::paper_design_point()
                .with_pes(8)
                .with_architecture(noc_sim::NodeArchitecture::PartiallyPrecalculated),
            &code,
            &mappings,
        )
        .unwrap();
        let ap = evaluate_ldpc(
            &DecoderConfig::paper_design_point()
                .with_pes(8)
                .with_architecture(noc_sim::NodeArchitecture::AllPrecalculated),
            &code,
            &mappings,
        )
        .unwrap();
        // cycle counts are identical (same routing), areas differ
        assert_eq!(pp.phase_cycles, ap.phase_cycles);
        assert_ne!(pp.noc_area_mm2, ap.noc_area_mm2);
    }

    #[test]
    fn power_is_larger_in_ldpc_mode() {
        let config = DecoderConfig::paper_design_point().with_pes(8);
        let e_ldpc = evaluate_ldpc(&config, &small_code(), &MappingStore::new()).unwrap();
        let e_turbo = evaluate_ctc(&config, &CtcCode::wimax(240).unwrap()).unwrap();
        assert!(e_ldpc.power_mw() > e_turbo.power_mw());
    }

    #[test]
    fn normalized_area_shrinks_at_65nm() {
        let config = DecoderConfig::paper_design_point().with_pes(8);
        let eval = evaluate_ldpc(&config, &small_code(), &MappingStore::new()).unwrap();
        let a65 = eval.total_area_mm2_at(65.0);
        assert!(a65 < eval.total_area_mm2());
        assert!((a65 / eval.total_area_mm2() - (65.0f64 / 90.0).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn error_display() {
        let e = DecoderError::InvalidConfiguration { reason: "x".into() };
        assert!(e.to_string().contains("invalid configuration"));
    }

    #[test]
    fn lte_turbo_evaluation_through_the_registry() {
        use code_tables::Standard;
        let config = DecoderConfig::paper_design_point().with_pes(8);
        let code = Standard::Lte.worst_turbo().unwrap();
        let eval = evaluate_standard_code(&config, &code, &MappingStore::new()).unwrap();
        assert_eq!(eval.mode, Mode::Turbo);
        assert_eq!(eval.info_bits, 6144);
        assert_eq!(eval.messages_per_phase, 6144);
        assert!(eval.throughput_mbps > 0.0);
        assert!(eval.noc_area_mm2 > 0.0);
    }

    #[test]
    fn wifi_ldpc_evaluation_through_the_registry() {
        use code_tables::Standard;
        let config = DecoderConfig::paper_design_point().with_pes(8);
        let code = Standard::Wifi80211n.worst_ldpc().unwrap();
        let eval = evaluate_standard_code(&config, &code, &MappingStore::new()).unwrap();
        assert_eq!(eval.mode, Mode::Ldpc);
        assert_eq!(eval.info_bits, 972);
        assert!(eval.throughput_mbps > 0.0);
    }

    #[test]
    fn standard_dispatch_matches_the_direct_paths() {
        let config = DecoderConfig::paper_design_point().with_pes(8);
        let direct = evaluate_ldpc(&config, &small_code(), &MappingStore::new()).unwrap();
        let via = evaluate_standard_code(
            &config,
            &code_tables::StandardCode::Ldpc {
                standard: code_tables::Standard::Wimax,
                code: small_code(),
            },
            &MappingStore::new(),
        )
        .unwrap();
        assert_eq!(direct, via);

        let ctc = CtcCode::wimax(240).unwrap();
        let direct = evaluate_ctc(&config, &ctc).unwrap();
        let via = evaluate_standard_code(
            &config,
            &code_tables::StandardCode::WimaxTurbo { code: ctc },
            &MappingStore::new(),
        )
        .unwrap();
        assert_eq!(direct, via);
    }

    #[test]
    fn lte_dispatch_uses_the_natural_to_interleaved_orientation() {
        // The decoder sends natural section j's extrinsic to interleaved
        // position pi^{-1}(j) (QPP output i reads input pi(i)); the NoC
        // traffic follows the code's interleaver, which runs that way.
        let config = DecoderConfig::paper_design_point().with_pes(8);
        let code = code_tables::lte_turbo_code(104).unwrap();
        let pi = code.interleaver();
        for j in 0..104 {
            let p = pi.permute(j);
            assert_eq!((7 * p + 26 * p * p) % 104, j, "section {j}");
        }
        let expected = evaluate_turbo(&config, 104, pi, 7).unwrap();
        let via = evaluate_standard_code(
            &config,
            &code_tables::StandardCode::LteTurbo { code },
            &MappingStore::new(),
        )
        .unwrap();
        assert_eq!(via, expected);
    }

    #[test]
    fn wran_ldpc_evaluation_through_the_registry() {
        use code_tables::Standard;
        let config = DecoderConfig::paper_design_point().with_pes(8);
        let code = Standard::Wran80222.worst_ldpc().unwrap();
        let eval = evaluate_standard_code(&config, &code, &MappingStore::new()).unwrap();
        assert_eq!(eval.mode, Mode::Ldpc);
        assert_eq!(eval.info_bits, 1152);
        assert!(eval.throughput_mbps > 0.0);
    }

    #[test]
    fn dvb_rcs_evaluation_matches_the_direct_turbo_path() {
        // The DVB-RCS dispatch must be exactly the duo-binary turbo
        // evaluation on its own CtcCode (same trellis, its own interleaver).
        let config = DecoderConfig::paper_design_point().with_pes(8);
        let code = code_tables::dvb_rcs_ctc(212).unwrap();
        let direct = evaluate_ctc(&config, &code).unwrap();
        let via = evaluate_standard_code(
            &config,
            &code_tables::StandardCode::DvbRcsTurbo { code: code.clone() },
            &MappingStore::new(),
        )
        .unwrap();
        assert_eq!(direct, via);
        assert_eq!(via.mode, Mode::Turbo);
        assert_eq!(via.info_bits, 424);
        assert_eq!(via.messages_per_phase, 212);
        // A different interleaver than the (nonexistent) WiMAX 212 would
        // give different traffic; sanity-check against a WiMAX size close by.
        let wimax = evaluate_ctc(&config, &CtcCode::wimax(216).unwrap()).unwrap();
        assert_ne!(via.phase_cycles, 0);
        assert_ne!(wimax.messages_per_phase, via.messages_per_phase);
    }

    #[test]
    fn generic_turbo_rejects_too_many_pes() {
        let config = DecoderConfig::paper_design_point().with_pes(100);
        let identity = Interleaver::new((0..40).collect()).unwrap();
        assert!(matches!(
            evaluate_turbo(&config, 40, &identity, 7),
            Err(DecoderError::InvalidConfiguration { .. })
        ));
    }
}

//! Evaluation of one decoder design point on one code: cycle-accurate phase
//! duration, throughput, area and the supporting statistics.
//!
//! LDPC codes go through [`evaluate_ldpc`] and their partitioned mapping.
//! Every turbo code — the duo-binary CTCs of 802.16e and DVB-RCS and the
//! binary LTE code — goes through the one [`evaluate_turbo`], which maps the
//! code's interleaver onto the SISOs and takes the payload of one extrinsic
//! message; [`evaluate_standard_code`] picks the path for a registry code.

use crate::config::DecoderConfig;
use crate::throughput::{ldpc_throughput_mbps, turbo_throughput_mbps};
use asic_model::{NocAreaInputs, NocAreaModel, PeAreaInputs, PeAreaModel};
use code_tables::StandardCode;
use decoder_pe::{LdpcCoreModel, SharedMemoryPlan, SisoCoreModel};
use noc_mapping::turbo::HalfIteration;
use noc_mapping::{MappingStore, TurboMapping};
use noc_sim::{NocConfig, NocError, NocSimulator, NocStats, Topology};
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
    /// Throughput in Mb/s at the configured clock.
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
    let topology = Topology::new(config.topology, config.pes, config.degree)?;
    let degree = topology.degree();

    let mapping = mappings.mapping(code, config.pes, config.mapping);
    let quality = mapping.quality();

    let noc_config = NocConfig::new(topology, config.routing)
        .with_collision(config.collision)
        .with_architecture(config.architecture)
        .with_route_local(config.route_local)
        .with_output_rate(config.ldpc_output_rate)
        .with_seed(config.seed);
    let simulator = NocSimulator::new(noc_config)?;
    let stats = simulator.run(mapping.traffic_trace());

    let core = LdpcCoreModel::default();
    let throughput = ldpc_throughput_mbps(
        code.k(),
        config.ldpc_clock_mhz,
        config.ldpc_iterations,
        core.core_latency,
        stats.cycles,
    );

    let (noc_area, core_area) = areas(config, code.n(), &stats, quality.total_messages, 7);

    Ok(DesignEvaluation {
        mode: Mode::Ldpc,
        topology: config.topology.name().to_string(),
        pes: config.pes,
        degree,
        routing: config.routing.name().to_string(),
        architecture: config.architecture.name().to_string(),
        phase_cycles: stats.cycles,
        info_bits: code.k(),
        throughput_mbps: throughput,
        noc_area_mm2: noc_area,
        core_area_mm2: core_area,
        fifo_depth: stats.max_fifo_occupancy.max(1),
        locality: quality.locality(),
        average_latency: stats.average_latency,
        messages_per_phase: quality.total_messages,
    })
}

/// Payload bits of one extrinsic message of a duo-binary CTC: the two 7-bit
/// bit-level values of a couple.
pub(crate) const CTC_PAYLOAD_BITS: u32 = 14;

/// Payload bits of one extrinsic message of the binary LTE code: one 7-bit
/// value per bit.
const BINARY_PAYLOAD_BITS: u32 = 7;

/// Evaluates one design point for any code of the multi-standard registry,
/// dispatching LDPC codes to [`evaluate_ldpc`] (with `mappings`) and turbo
/// codes to [`evaluate_turbo`] with their interleaver and payload.
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
/// messages of `payload_bits` bits: NoC phase simulation of the first-half
/// traffic, SISO overlap, throughput and areas.
pub fn evaluate_turbo(
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
    let mapping = TurboMapping::new(interleaver, config.pes);
    let topology = Topology::new(config.topology, config.pes, config.degree)?;
    let degree = topology.degree();

    let quality = mapping.quality();
    let siso = SisoCoreModel::default();

    let noc_config = NocConfig::new(topology, config.routing)
        .with_collision(config.collision)
        .with_architecture(config.architecture)
        .with_route_local(config.route_local)
        .with_output_rate(siso.injection_rate())
        .with_seed(config.seed);
    let simulator = NocSimulator::new(noc_config)?;
    let stats = simulator.run(&mapping.traffic_trace(HalfIteration::First));

    // The message-passing phase overlaps the SISO computation; the half
    // iteration lasts as long as the slower of the two.
    let siso_cycles = siso.half_iteration_noc_cycles(mapping.max_window());
    let half_cycles = stats.cycles.max(siso_cycles);

    let throughput = turbo_throughput_mbps(
        info_bits,
        config.turbo_clock_mhz,
        config.turbo_iterations,
        siso.core_latency,
        half_cycles,
    );

    let (noc_area, core_area) = areas(
        config,
        mapping.sections(),
        &stats,
        quality.total_messages,
        payload_bits,
    );

    Ok(DesignEvaluation {
        mode: Mode::Turbo,
        topology: config.topology.name().to_string(),
        pes: config.pes,
        degree,
        routing: config.routing.name().to_string(),
        architecture: config.architecture.name().to_string(),
        phase_cycles: half_cycles,
        info_bits,
        throughput_mbps: throughput,
        noc_area_mm2: noc_area,
        core_area_mm2: core_area,
        fifo_depth: stats.max_fifo_occupancy.max(1),
        locality: quality.locality(),
        average_latency: stats.average_latency,
        messages_per_phase: quality.total_messages,
    })
}

/// Computes the NoC and core areas of a design point from the simulation
/// statistics.
fn areas(
    config: &DecoderConfig,
    address_space: usize,
    stats: &NocStats,
    total_messages: usize,
    payload_bits: u32,
) -> (f64, f64) {
    let location_bits = (usize::BITS - address_space.saturating_sub(1).leading_zeros()).max(1);
    let messages_per_node = total_messages.div_ceil(config.pes);
    let forwarded_max = stats.forwarded_per_node.iter().copied().max().unwrap_or(0) as usize;
    let crossbar_size = config.degree + 1;
    let routing_entries = match config.architecture {
        noc_sim::NodeArchitecture::AllPrecalculated => forwarded_max.max(messages_per_node),
        noc_sim::NodeArchitecture::PartiallyPrecalculated => 0,
    };
    let noc_inputs = NocAreaInputs {
        nodes: config.pes,
        crossbar_size,
        fifo_depth: stats.max_fifo_occupancy.max(2),
        payload_bits,
        header_bits: config.architecture.header_bits(config.pes),
        location_entries: messages_per_node,
        location_bits,
        routing_entries,
        routing_bits: (usize::BITS - crossbar_size.saturating_sub(1).leading_zeros()).max(1),
        stored_codes: config.stored_codes,
    };
    let noc_area = NocAreaModel::default().noc_area(&noc_inputs).mm2();

    let memory = SharedMemoryPlan::wimax(config.pes);
    let pe_inputs = PeAreaInputs::wimax(config.pes, memory.total_bits());
    let core_area = PeAreaModel::default().core_area(&pe_inputs).mm2();
    (noc_area, core_area)
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

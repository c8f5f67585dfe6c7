//! The cost model of a decoder design point: the paper's calibration as
//! constants, and timing, memory, area and power as functions over them.
//!
//! The paper costs its `P = 22` decoder with Eq. (12) and with area and
//! power from Synopsys Design Compiler on a 90 nm CMOS library (Tables
//! II–III: a 0.61 mm² NoC, a 2.56 mm² processing core, 415 mW in LDPC and
//! 59 mW in turbo mode).  That flow needs the proprietary library, so this
//! module substitutes an analytical model:
//!
//! * component areas come from bit counts and per-bit unit areas
//!   (flip-flop, SRAM, crossbar multiplexer, random logic) calibrated so
//!   that the paper's component areas are approximated;
//! * areas scale with the square of the feature-size ratio when normalised
//!   to another node (Table III normalises to 65 nm);
//! * power follows an `area x frequency x activity` model calibrated on
//!   the two peak-power figures.
//!
//! Absolute numbers are therefore estimates; *relative* comparisons between
//! configurations (the purpose of Tables I and II) are preserved because
//! every configuration shares the same constants.

use crate::evaluation::Mode;
use fec_fixed::{LAMBDA_BITS, R_BITS};
use wimax_ldpc::{BaseMatrix, CodeRate};

/// NoC clock in LDPC mode, in MHz.
pub const LDPC_CLOCK_MHZ: f64 = 300.0;

/// NoC clock in turbo mode, in MHz; the SISO runs at half of it.
pub const TURBO_CLOCK_MHZ: f64 = 75.0;

/// Maximum LDPC iterations (`It_max` of Eq. (12)).
pub const LDPC_ITERATIONS: usize = 10;

/// Maximum turbo iterations.
pub const TURBO_ITERATIONS: usize = 8;

/// Code configurations whose routing and location sequences an AP node
/// stores at once: one, the single-code analysis of Table I (the full
/// WiMAX set would be 19 LDPC lengths x 6 rates + 17 turbo sizes).
const STORED_CODES: usize = 1;

/// Latency of the LDPC decoding core (`lat_core` of Eq. (12)), in cycles.
///
/// The core (paper Fig. 2) processes parity checks sequentially: it reads
/// the `(lambda_old, R_old)` pairs of a check, extracts the two minima in
/// the MEU and writes `lambda_new` / `R_new` back.  The message-passing
/// phase is timed by the NoC simulation at the PE output rate
/// (`DecoderConfig::ldpc_output_rate`); the core adds its latency once per
/// iteration.
pub(crate) const LDPC_CORE_LATENCY: u64 = 15;

/// Extrinsic values the SISO (paper Fig. 3) produces per
/// [`SISO_CYCLES_PER_GROUP`] SISO cycles.
const SISO_OUTPUTS_PER_GROUP: u64 = 2;

/// SISO cycles per group of [`SISO_OUTPUTS_PER_GROUP`] extrinsics.
const SISO_CYCLES_PER_GROUP: u64 = 3;

/// Ratio of the SISO clock to the NoC clock.
const SISO_CLOCK_RATIO: f64 = 0.5;

/// Pipeline fill of one SISO half iteration, in SISO cycles.
pub(crate) const SISO_CORE_LATENCY: u64 = 15;

/// Message injection rate of a SISO into the NoC, in messages per NoC
/// cycle: two extrinsics per three SISO cycles, one SISO cycle per two NoC
/// cycles, so 1/3.
pub const SISO_INJECTION_RATE: f64 =
    SISO_OUTPUTS_PER_GROUP as f64 / SISO_CYCLES_PER_GROUP as f64 * SISO_CLOCK_RATIO;

/// SISO cycles of one half iteration over a window of `sections` trellis
/// sections.
fn siso_half_iteration_cycles(sections: usize) -> u64 {
    let groups = (sections as u64).div_ceil(SISO_OUTPUTS_PER_GROUP);
    groups * SISO_CYCLES_PER_GROUP + SISO_CORE_LATENCY
}

/// The same half iteration in NoC cycles (the SISO runs at
/// [`SISO_CLOCK_RATIO`] of the NoC clock).
pub(crate) fn siso_half_iteration_noc_cycles(sections: usize) -> u64 {
    (siso_half_iteration_cycles(sections) as f64 / SISO_CLOCK_RATIO).ceil() as u64
}

/// Tanner-graph edges of the worst-case WiMAX code, `N = 2304`, `r = 1/2`,
/// counted on its base matrix: each non-zero block expands to `z = 2304 /
/// 24 = 96` edges, so the code itself need not be built.
fn worst_wimax_ldpc_edges() -> usize {
    BaseMatrix::wimax(CodeRate::R12).nonzero_blocks() * 96
}

/// Words of the two memories the SISO and the LDPC core of one PE share
/// (paper Section IV.B), in a decoder of `pes` PEs, sized for the full
/// WiMAX code set:
///
/// * the 7-bit memory holds this PE's share of the `lambda_old` values of
///   the worst-case LDPC code (`N = 2304`, `r = 1/2`, 1152 checks of degree
///   6/7), one per edge, plus the SISO's 3 windows x (8 + 8) state metrics;
/// * the 5-bit memory holds the larger of this PE's share of the `R_lk`
///   values, one per edge, and of the turbo branch metrics: 4 transmitted
///   bit LLRs per couple of the largest frame, 2400 couples.
///
/// # Panics
///
/// Panics if `pes` is zero.
fn memory_words(pes: usize) -> (usize, usize) {
    assert!(pes > 0, "need at least one PE");
    let ldpc_edges_per_pe = worst_wimax_ldpc_edges().div_ceil(pes);
    let siso_state_words = 3 * 16;
    let turbo_branch_words = (2400 * 4usize).div_ceil(pes);
    (
        ldpc_edges_per_pe + siso_state_words,
        ldpc_edges_per_pe.max(turbo_branch_words),
    )
}

/// Shared-memory bits of one PE in a decoder of `pes` PEs: the
/// [`memory_words`] of the 7-bit and the 5-bit memory.
fn pe_memory_bits(pes: usize) -> u64 {
    let (lambda_words, r_words) = memory_words(pes);
    lambda_words as u64 * LAMBDA_BITS as u64 + r_words as u64 * R_BITS as u64
}

/// Feature size of the node the unit areas describe, in nm.
const FEATURE_NM: f64 = 90.0;

/// Area of one flip-flop bit, routing overhead included, in µm².
const FLIPFLOP_UM2: f64 = 18.0;

/// Area of one SRAM bit, periphery overhead included, in µm².
const SRAM_BIT_UM2: f64 = 2.0;

/// Area of one crossbar multiplexer bit per input-output pair, in µm².
const CROSSBAR_BIT_UM2: f64 = 2.5;

/// Area of one equivalent NAND2 gate of random logic, in µm².
const GATE_UM2: f64 = 3.1;

/// Random logic of one routing element (arbitration, FIFO pointers,
/// configuration), in gates.
const NODE_CONTROL_GATES: f64 = 900.0;

/// SISO-exclusive logic of one PE, in gates.  With [`LDPC_GATES`] it is
/// calibrated on the paper's breakdown of the 2.56 mm² processing core of
/// 22 PEs: 61.8 % shared memory, 18.6 % SISO-exclusive and 19.6 %
/// LDPC-exclusive logic.
const SISO_GATES: f64 = 7_000.0;

/// LDPC-core-exclusive logic of one PE, in gates.
const LDPC_GATES: f64 = 7_400.0;

/// Multiplier applied to raw SRAM bits for the redundancy of the shared
/// memories (dual porting, banking for concurrent SISO/LDPC access),
/// calibrated on the paper's 61.8 % memory share.
const MEMORY_OVERHEAD: f64 = 6.0;

/// Dynamic power coefficient in mW per (mm² · MHz · activity).
const DYNAMIC_MW_PER_MM2_MHZ: f64 = 0.42;

/// Leakage power in mW per mm².
const LEAKAGE_MW_PER_MM2: f64 = 4.0;

/// Switching activity in LDPC mode: every iteration touches the whole
/// shared memory.
const LDPC_ACTIVITY: f64 = 1.0;

/// Switching activity in turbo mode, whose memory-access rate is lower
/// (paper Section V).
const TURBO_ACTIVITY: f64 = 0.55;

/// Everything the NoC area of a design point depends on.  The NoC is its
/// routing elements only, as in Table I, which excludes PE and
/// incoming-message memories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NocAreaInputs {
    /// Number of router nodes `P`.
    pub nodes: usize,
    /// Crossbar size `F = D + 1`.
    pub crossbar_size: usize,
    /// Input FIFO depth (from the simulated maximum occupancy).
    pub fifo_depth: usize,
    /// Payload width in bits (extrinsic values carried by one message).
    pub payload_bits: u32,
    /// Header width in bits (0 for the AP architecture, `log2(P)` for PP).
    pub header_bits: u32,
    /// Entries of the per-node location memory (`t'` sequences): the number
    /// of messages this node receives per message-passing phase.
    pub location_entries: usize,
    /// Width of one location-memory entry in bits.
    pub location_bits: u32,
    /// Entries of the per-node routing memory (AP architecture: one routing
    /// decision per forwarded message; 0 for PP).
    pub routing_entries: usize,
    /// Width of one routing-memory entry in bits (`log2(F)`).
    pub routing_bits: u32,
}

impl NocAreaInputs {
    /// Width of one FIFO word (payload plus header).
    fn flit_bits(&self) -> u32 {
        self.payload_bits + self.header_bits
    }

    /// Area of one routing element, in mm².
    fn node_area_mm2(&self) -> f64 {
        let f = self.crossbar_size as f64;
        let flit = self.flit_bits() as f64;

        // F input FIFOs of `fifo_depth` flits (flip-flop based).
        let fifos = f * self.fifo_depth as f64 * flit * FLIPFLOP_UM2;
        // F output registers of one flit each.
        let out_regs = f * flit * FLIPFLOP_UM2;
        // F x F crossbar, `flit` bits wide.
        let crossbar = f * f * flit * CROSSBAR_BIT_UM2;
        // Location memory (t' sequences) for every stored code.
        let location = self.location_entries as f64
            * self.location_bits as f64
            * STORED_CODES as f64
            * SRAM_BIT_UM2;
        // Routing memory (AP only).
        let routing = self.routing_entries as f64
            * self.routing_bits as f64
            * STORED_CODES as f64
            * SRAM_BIT_UM2;
        let control = NODE_CONTROL_GATES * GATE_UM2;

        (fifos + out_regs + crossbar + location + routing + control) / 1.0e6
    }

    /// Area of the whole NoC (all routing elements), in mm².
    pub(crate) fn noc_area_mm2(&self) -> f64 {
        self.node_area_mm2() * self.nodes as f64
    }
}

/// Shared-memory area of one PE holding `bits` bits, in mm².
fn pe_memory_mm2(bits: u64) -> f64 {
    bits as f64 * MEMORY_OVERHEAD * SRAM_BIT_UM2 / 1.0e6
}

/// Logic area of one PE (both cores), in mm².
fn pe_logic_mm2() -> f64 {
    (SISO_GATES + LDPC_GATES) * GATE_UM2 / 1.0e6
}

/// Area of the processing core, all `pes` PEs with their shared memories
/// (the `A_core` of Table III), in mm².
pub(crate) fn core_area_mm2(pes: usize) -> f64 {
    (pe_memory_mm2(pe_memory_bits(pes)) + pe_logic_mm2()) * pes as f64
}

/// Peak power in mW of a design of `area_mm2` in `mode`:
/// `k_dyn x A x f x activity + k_leak x A`, at the LDPC clock, or in turbo
/// mode at 0.75 x the turbo clock, the average of the NoC and the
/// half-speed SISO clock domains.  The constants make the paper's `P = 22`
/// decoder draw roughly 415 mW in LDPC and 59 mW in turbo mode.
pub(crate) fn power_mw(mode: Mode, area_mm2: f64) -> f64 {
    let (f_mhz, activity) = match mode {
        Mode::Ldpc => (LDPC_CLOCK_MHZ, LDPC_ACTIVITY),
        Mode::Turbo => (0.75 * TURBO_CLOCK_MHZ, TURBO_ACTIVITY),
    };
    DYNAMIC_MW_PER_MM2_MHZ * area_mm2 * f_mhz * activity + LEAKAGE_MW_PER_MM2 * area_mm2
}

/// An area of `area_mm2` at the model's 90 nm scaled to a node of
/// `feature_nm` nm: areas scale with the square of the feature-size ratio.
pub(crate) fn scaled_area_mm2(area_mm2: f64, feature_nm: f64) -> f64 {
    area_mm2 * (feature_nm / FEATURE_NM).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimax_ldpc::QcLdpcCode;

    /// The paper's total area at 90 nm (Table III).
    const PAPER_AREA_MM2: f64 = 3.17;

    #[test]
    fn ldpc_core_defaults_match_paper() {
        assert_eq!(LDPC_CORE_LATENCY, 15);
    }

    #[test]
    fn siso_core_defaults_match_paper() {
        assert!((SISO_INJECTION_RATE / SISO_CLOCK_RATIO - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(SISO_CLOCK_RATIO, 0.5);
    }

    #[test]
    fn half_iteration_duration_scales_with_window() {
        // 2400 couples over 22 SISOs ~ 110 couples per SISO
        let c110 = siso_half_iteration_cycles(110);
        let c55 = siso_half_iteration_cycles(55);
        assert!(c110 > c55);
        assert_eq!(c110, 55 * 3 + 15);
    }

    #[test]
    fn noc_cycles_account_for_clock_ratio() {
        assert_eq!(
            siso_half_iteration_noc_cycles(110),
            2 * siso_half_iteration_cycles(110)
        );
    }

    #[test]
    fn injection_rate_is_one_third_of_noc_clock() {
        assert!((SISO_INJECTION_RATE - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn worst_case_edges_match_the_expanded_code() {
        let code = QcLdpcCode::wimax(2304, CodeRate::R12).unwrap();
        assert_eq!(worst_wimax_ldpc_edges(), code.edge_count());
        assert_eq!(worst_wimax_ldpc_edges(), 7296);
    }

    #[test]
    fn wimax_plan_for_22_pes() {
        let (lambda_words, r_words) = memory_words(22);
        // 7296 edges of the worst-case code over 22 PEs ~ 332, plus 48 state metrics
        assert!(lambda_words > 300 && lambda_words < 450, "{lambda_words}");
        // turbo branch metrics dominate the 5-bit memory: 2400*4/22 ~ 437
        assert!(r_words >= 400, "{r_words}");
        assert_eq!(LAMBDA_BITS, 7);
        assert_eq!(R_BITS, 5);
        assert!(pe_memory_bits(22) > 4000);
    }

    #[test]
    fn fewer_pes_means_more_memory_each() {
        assert!(memory_words(8).0 > memory_words(22).0);
        assert!(pe_memory_bits(8) > pe_memory_bits(22));
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_panics() {
        let _ = pe_memory_bits(0);
    }

    #[test]
    fn decoder_level_storage_matches_paper_magnitude() {
        // The paper stores 1152 x 7-bit lambda values (worst-case code) plus
        // SISO metrics in the 7-bit memory; aggregated over the decoder our
        // plan must be of the same order of magnitude (the paper's 1152
        // lambda values are per *decoder*, one per parity check; our per-edge
        // buffering is an upper bound).
        let decoder_lambda_bits: u64 = memory_words(22).0 as u64 * 7 * 22;
        assert!(decoder_lambda_bits >= 1152 * 7, "{decoder_lambda_bits}");
        assert!(decoder_lambda_bits < 20 * 1152 * 7, "{decoder_lambda_bits}");
    }

    fn paper_like_inputs(fifo_depth: usize, header_bits: u32) -> NocAreaInputs {
        // P = 22, D = 3 generalized Kautz; one WiMAX LDPC mapping stored.
        NocAreaInputs {
            nodes: 22,
            crossbar_size: 4,
            fifo_depth,
            payload_bits: 14,
            header_bits,
            location_entries: 340,
            location_bits: 9,
            routing_entries: 0,
            routing_bits: 2,
        }
    }

    #[test]
    fn flit_width_includes_header() {
        let i = paper_like_inputs(4, 5);
        assert_eq!(i.flit_bits(), 19);
    }

    #[test]
    fn noc_area_is_in_the_papers_ballpark() {
        // The paper's P = 22 NoC occupies 0.34-0.63 mm2 depending on the
        // routing algorithm / architecture (Table II) and 0.61 mm2 in the
        // complete decoder breakdown (Table III).
        let area = paper_like_inputs(6, 5).noc_area_mm2();
        assert!(area > 0.15 && area < 1.2, "NoC area {area} mm2");
    }

    #[test]
    fn deeper_fifos_cost_more_area() {
        let shallow = paper_like_inputs(2, 5).noc_area_mm2();
        let deep = paper_like_inputs(16, 5).noc_area_mm2();
        assert!(deep > shallow * 1.5, "deep {deep} shallow {shallow}");
    }

    #[test]
    fn ap_headerless_flits_save_fifo_area() {
        let pp = paper_like_inputs(8, 5).noc_area_mm2();
        let ap = paper_like_inputs(8, 0).noc_area_mm2();
        assert!(ap < pp);
    }

    #[test]
    fn routing_memory_adds_area() {
        let mut with = paper_like_inputs(4, 0);
        with.routing_entries = 340;
        let without = paper_like_inputs(4, 0);
        assert!(with.noc_area_mm2() > without.noc_area_mm2());
    }

    #[test]
    fn area_scales_linearly_with_node_count() {
        let mut a = paper_like_inputs(4, 5);
        let single = a.node_area_mm2();
        a.nodes = 10;
        assert!((a.noc_area_mm2() - 10.0 * single).abs() < 1e-9);
    }

    #[test]
    fn core_area_is_in_the_papers_ballpark() {
        // Paper: A_core = 2.56 mm2 at 90 nm for 22 PEs.
        let core = core_area_mm2(22);
        assert!(core > 1.2 && core < 4.5, "core area {core} mm2");
    }

    #[test]
    fn memory_dominates_the_core_area() {
        // Paper: shared memories are 61.8 % of the processing core.
        let memory = pe_memory_mm2(pe_memory_bits(22));
        let share = memory / (memory + pe_logic_mm2());
        assert!(share > 0.45 && share < 0.85, "memory share {share}");
    }

    #[test]
    fn core_area_scales_with_pe_count() {
        assert!(core_area_mm2(22) > core_area_mm2(8));
    }

    #[test]
    fn more_memory_means_more_area() {
        assert!(pe_memory_mm2(10_000) > pe_memory_mm2(2_000));
    }

    #[test]
    fn pe_area_is_memory_plus_logic() {
        let total = core_area_mm2(22) / 22.0;
        let parts = pe_memory_mm2(pe_memory_bits(22)) + pe_logic_mm2();
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn ldpc_mode_power_matches_paper_order() {
        // Paper Table III: 415 mW at 300 MHz in LDPC mode.
        let p = power_mw(Mode::Ldpc, PAPER_AREA_MM2);
        assert!(p > 300.0 && p < 550.0, "LDPC power {p} mW");
    }

    #[test]
    fn turbo_mode_power_matches_paper_order() {
        // Paper Table III: 59 mW with a 75 MHz NoC (37.5 MHz SISO).
        let p = power_mw(Mode::Turbo, PAPER_AREA_MM2);
        assert!(p > 30.0 && p < 110.0, "turbo power {p} mW");
    }

    #[test]
    fn turbo_mode_is_much_cheaper_than_ldpc_mode() {
        let ldpc = power_mw(Mode::Ldpc, PAPER_AREA_MM2);
        let turbo = power_mw(Mode::Turbo, PAPER_AREA_MM2);
        assert!(ldpc / turbo > 4.0, "ratio {}", ldpc / turbo);
    }

    #[test]
    fn power_increases_with_area() {
        for mode in [Mode::Ldpc, Mode::Turbo] {
            assert!(power_mw(mode, 2.0) > power_mw(mode, 1.0));
        }
    }

    #[test]
    fn activity_factors() {
        assert_eq!(LDPC_ACTIVITY, 1.0);
        const { assert!(TURBO_ACTIVITY < 1.0) };
    }

    #[test]
    fn scaling_is_quadratic() {
        assert!((scaled_area_mm2(1.0, 45.0) - 0.25).abs() < 1e-12);
        assert!((scaled_area_mm2(4.0, 45.0) - 1.0).abs() < 1e-12);
        // identity
        assert!((scaled_area_mm2(1.0, FEATURE_NM) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_normalization_to_65nm() {
        // Table III: 3.17 mm2 at 90 nm normalises to ~1.65 mm2 at 65 nm.
        let n = scaled_area_mm2(PAPER_AREA_MM2, 65.0);
        assert!((n - 1.65).abs() < 0.05, "normalised area {n}");
    }

    #[test]
    fn flipflops_are_larger_than_sram_bits() {
        const { assert!(FLIPFLOP_UM2 > SRAM_BIT_UM2) };
    }
}

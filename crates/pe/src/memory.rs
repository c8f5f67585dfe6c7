//! Shared-memory sizing of the processing element (paper Section IV.B).
//!
//! The SISO and the LDPC core share the PE's internal memories:
//!
//! * a 7-bit memory whose size is fixed by the worst-case LDPC workload
//!   (the `lambda_old` values of the `N = 2304`, `r = 1/2` code) and which
//!   also hosts the SISO's `alpha`/`beta` window metrics;
//! * a 5-bit memory sized by the larger of the LDPC `R_lk` storage and the
//!   SISO's branch-metric (`lambda[c(e)]`) storage.

use fec_fixed::{LAMBDA_BITS, R_BITS};
use wimax_ldpc::{BaseMatrix, CodeRate};

/// The shared-memory plan of one PE in a decoder with `pes` processing
/// elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedMemoryPlan {
    /// Number of processing elements the workload is split over.
    pub pes: usize,
    /// Words of the 7-bit memory (`lambda` values plus SISO state metrics).
    pub lambda_words: usize,
    /// Width of the 7-bit memory.
    pub lambda_bits: u32,
    /// Words of the 5-bit memory (`R_lk` values / branch metrics).
    pub r_words: usize,
    /// Width of the 5-bit memory.
    pub r_bits: u32,
}

impl SharedMemoryPlan {
    /// Builds the memory plan for the full WiMAX code set, matching the
    /// sizing rationale of Section IV.B:
    ///
    /// * the 7-bit memory must hold this PE's share of the `lambda_old`
    ///   values of the worst-case LDPC code (`N = 2304`, `r = 1/2`, 1152
    ///   checks of degree 6/7) plus the 3 x (8 + 8) SISO state metrics;
    /// * the 5-bit memory must hold the larger of this PE's share of the
    ///   `R_lk` values and of the turbo branch metrics (2400 couples x 4
    ///   transmitted bit LLRs over all PEs).
    ///
    /// # Panics
    ///
    /// Panics if `pes` is zero.
    pub fn wimax(pes: usize) -> Self {
        assert!(pes > 0, "need at least one PE");
        // LDPC: each PE handles ~M/pes checks; for every check it must buffer
        // one lambda and one R value per edge.
        let ldpc_edges_per_pe = worst_wimax_ldpc_edges().div_ceil(pes);
        // SISO state metrics: 3 windows x (8 + 8) metrics.
        let siso_state_words = 3 * 16;
        // SISO branch metrics: 4 transmitted LLRs per couple of this PE's
        // window, for the largest frame of 2400 couples.
        let turbo_branch_words = (2400 * 4usize).div_ceil(pes);

        SharedMemoryPlan {
            pes,
            lambda_words: ldpc_edges_per_pe + siso_state_words,
            lambda_bits: LAMBDA_BITS,
            r_words: ldpc_edges_per_pe.max(turbo_branch_words),
            r_bits: R_BITS,
        }
    }

    /// Total storage of this PE in bits.
    pub fn total_bits(&self) -> u64 {
        self.lambda_words as u64 * self.lambda_bits as u64
            + self.r_words as u64 * self.r_bits as u64
    }
}

/// Tanner-graph edges of the worst-case WiMAX code, `N = 2304`, `r = 1/2`,
/// counted on its base matrix: each non-zero block expands to `z = 2304 /
/// 24 = 96` edges, so the code itself need not be built.
fn worst_wimax_ldpc_edges() -> usize {
    BaseMatrix::wimax(CodeRate::R12).nonzero_blocks() * 96
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimax_ldpc::QcLdpcCode;

    #[test]
    fn worst_case_edges_match_the_expanded_code() {
        let code = QcLdpcCode::wimax(2304, CodeRate::R12).unwrap();
        assert_eq!(worst_wimax_ldpc_edges(), code.edge_count());
        assert_eq!(worst_wimax_ldpc_edges(), 7296);
    }

    #[test]
    fn wimax_plan_for_22_pes() {
        let plan = SharedMemoryPlan::wimax(22);
        // 7296 edges of the worst-case code over 22 PEs ~ 332, plus 48 state metrics
        assert!(
            plan.lambda_words > 300 && plan.lambda_words < 450,
            "{}",
            plan.lambda_words
        );
        // turbo branch metrics dominate the 5-bit memory: 2400*4/22 ~ 437
        assert!(plan.r_words >= 400, "{}", plan.r_words);
        assert_eq!(plan.lambda_bits, 7);
        assert_eq!(plan.r_bits, 5);
        assert!(plan.total_bits() > 4000);
    }

    #[test]
    fn fewer_pes_means_more_memory_each() {
        let p8 = SharedMemoryPlan::wimax(8);
        let p22 = SharedMemoryPlan::wimax(22);
        assert!(p8.lambda_words > p22.lambda_words);
        assert!(p8.total_bits() > p22.total_bits());
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_panics() {
        let _ = SharedMemoryPlan::wimax(0);
    }

    #[test]
    fn decoder_level_storage_matches_paper_magnitude() {
        // The paper stores 1152 x 7-bit lambda values (worst-case code) plus
        // SISO metrics in the 7-bit memory; aggregated over the decoder our
        // plan must be of the same order of magnitude (the paper's 1152
        // lambda values are per *decoder*, one per parity check; our per-edge
        // buffering is an upper bound).
        let plan = SharedMemoryPlan::wimax(22);
        let decoder_lambda_bits: u64 = plan.lambda_words as u64 * 7 * 22;
        assert!(decoder_lambda_bits >= 1152 * 7, "{decoder_lambda_bits}");
        assert!(decoder_lambda_bits < 20 * 1152 * 7, "{decoder_lambda_bits}");
    }
}

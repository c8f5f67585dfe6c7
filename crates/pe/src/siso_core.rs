//! Timing model of the turbo decoding core (SISO, paper Fig. 3).

/// Timing model of the SISO.
///
/// The paper's SISO produces two extrinsic values `lambda_k[u]` every three
/// clock cycles and therefore runs at half the NoC clock frequency
/// (`f_SISO = 0.5 * f_NoC`).  The frame window assigned to a SISO is split
/// into sliding windows (3 in the paper's WiMAX design) whose `alpha`/`beta`
/// state metrics (8 + 8 values) live in the shared PE memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SisoCoreModel {
    /// Extrinsic values produced per `cycles_per_output_group` SISO cycles.
    pub outputs_per_group: u64,
    /// SISO cycles per output group.
    pub cycles_per_output_group: u64,
    /// Ratio between the SISO clock and the NoC clock (0.5 in the paper).
    pub clock_ratio: f64,
    /// Core latency of one half iteration (pipeline fill, in SISO cycles).
    pub core_latency: u64,
}

impl Default for SisoCoreModel {
    fn default() -> Self {
        SisoCoreModel {
            outputs_per_group: 2,
            cycles_per_output_group: 3,
            clock_ratio: 0.5,
            core_latency: 15,
        }
    }
}

impl SisoCoreModel {
    /// Throughput of the core itself in extrinsic values per SISO cycle.
    pub fn outputs_per_cycle(&self) -> f64 {
        self.outputs_per_group as f64 / self.cycles_per_output_group as f64
    }

    /// SISO cycles needed to produce the extrinsics of `couples` couples in
    /// one half iteration.
    pub fn half_iteration_cycles(&self, couples: usize) -> u64 {
        let groups = (couples as u64).div_ceil(self.outputs_per_group);
        groups * self.cycles_per_output_group + self.core_latency
    }

    /// The same duration expressed in NoC clock cycles (the SISO runs slower
    /// by `clock_ratio`).
    pub fn half_iteration_noc_cycles(&self, couples: usize) -> u64 {
        (self.half_iteration_cycles(couples) as f64 / self.clock_ratio).ceil() as u64
    }

    /// Effective message injection rate into the NoC, in messages per NoC
    /// cycle: the SISO produces `outputs_per_cycle()` values per SISO cycle
    /// and the SISO cycle is `1 / clock_ratio` NoC cycles.
    pub fn injection_rate(&self) -> f64 {
        self.outputs_per_cycle() * self.clock_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let m = SisoCoreModel::default();
        assert!((m.outputs_per_cycle() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.clock_ratio, 0.5);
    }

    #[test]
    fn half_iteration_duration_scales_with_window() {
        let m = SisoCoreModel::default();
        // 2400 couples over 22 SISOs ~ 110 couples per SISO
        let c110 = m.half_iteration_cycles(110);
        let c55 = m.half_iteration_cycles(55);
        assert!(c110 > c55);
        assert_eq!(c110, 55 * 3 + 15);
    }

    #[test]
    fn noc_cycles_account_for_clock_ratio() {
        let m = SisoCoreModel::default();
        assert_eq!(
            m.half_iteration_noc_cycles(110),
            2 * m.half_iteration_cycles(110)
        );
    }

    #[test]
    fn injection_rate_is_one_third_of_noc_clock() {
        let m = SisoCoreModel::default();
        assert!((m.injection_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}

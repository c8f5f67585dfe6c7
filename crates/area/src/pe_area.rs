//! Area model of the processing elements (decoding cores plus shared
//! memories).

use crate::technology::UnitAreas;
use crate::AreaMm2;

/// Inputs of the PE area model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeAreaInputs {
    /// Number of processing elements.
    pub pes: usize,
    /// Shared-memory bits per PE (from the memory plan of `decoder-pe`).
    pub memory_bits_per_pe: u64,
    /// SISO-exclusive logic per PE, in equivalent gates.
    pub siso_gates: f64,
    /// LDPC-core-exclusive logic per PE, in equivalent gates.
    pub ldpc_gates: f64,
}

impl PeAreaInputs {
    /// The gate budgets calibrated on the paper's area breakdown: the
    /// processing core occupies 2.56 mm² for 22 PEs, of which 61.8 % is
    /// shared memory, 18.6 % SISO-exclusive logic and 19.6 % LDPC-exclusive
    /// logic.
    pub fn wimax(pes: usize, memory_bits_per_pe: u64) -> Self {
        PeAreaInputs {
            pes,
            memory_bits_per_pe,
            siso_gates: 7_000.0,
            ldpc_gates: 7_400.0,
        }
    }
}

/// The PE / processing-core area model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeAreaModel {
    units: UnitAreas,
}

/// Multiplier applied to raw SRAM bits to account for the redundancy of the
/// shared-memory organisation (dual porting, banking for concurrent
/// SISO/LDPC access), calibrated on the paper's 61.8 % memory share.
const MEMORY_OVERHEAD: f64 = 6.0;

impl PeAreaModel {
    /// Creates a model with the given unit areas.
    pub fn new(units: UnitAreas) -> Self {
        PeAreaModel { units }
    }

    /// The unit areas in use.
    pub fn units(&self) -> &UnitAreas {
        &self.units
    }

    /// Shared-memory area of one PE.
    pub fn memory_area(&self, inputs: &PeAreaInputs) -> AreaMm2 {
        AreaMm2::from_um2(
            inputs.memory_bits_per_pe as f64 * MEMORY_OVERHEAD * self.units.sram_bit_um2,
        )
    }

    /// Logic area of one PE (both cores).
    pub fn logic_area(&self, inputs: &PeAreaInputs) -> AreaMm2 {
        AreaMm2::from_um2((inputs.siso_gates + inputs.ldpc_gates) * self.units.gate_um2)
    }

    /// Area of one PE.
    pub fn pe_area(&self, inputs: &PeAreaInputs) -> AreaMm2 {
        self.memory_area(inputs) + self.logic_area(inputs)
    }

    /// Area of the whole processing core (all PEs), the `A_core` of Table III.
    pub fn core_area(&self, inputs: &PeAreaInputs) -> AreaMm2 {
        AreaMm2::new(self.pe_area(inputs).mm2() * inputs.pes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_inputs() -> PeAreaInputs {
        // ~7.5 kbit of shared memory per PE (from SharedMemoryPlan::wimax(22)).
        PeAreaInputs::wimax(22, 5_000)
    }

    #[test]
    fn core_area_is_in_the_papers_ballpark() {
        // Paper: A_core = 2.56 mm2 at 90 nm for 22 PEs.
        let model = PeAreaModel::default();
        let core = model.core_area(&paper_inputs()).mm2();
        assert!(core > 1.2 && core < 4.5, "core area {core} mm2");
    }

    #[test]
    fn memory_dominates_the_core_area() {
        // Paper: shared memories are 61.8 % of the processing core.
        let model = PeAreaModel::default();
        let inputs = paper_inputs();
        let share = model.memory_area(&inputs).mm2() / model.pe_area(&inputs).mm2();
        assert!(share > 0.45 && share < 0.85, "memory share {share}");
    }

    #[test]
    fn core_area_scales_with_pe_count() {
        let model = PeAreaModel::default();
        let a22 = model.core_area(&PeAreaInputs::wimax(22, 5_000)).mm2();
        let a8 = model.core_area(&PeAreaInputs::wimax(8, 5_000)).mm2();
        assert!(a22 > a8);
    }

    #[test]
    fn more_memory_means_more_area() {
        let model = PeAreaModel::default();
        let small = model.pe_area(&PeAreaInputs::wimax(22, 2_000)).mm2();
        let large = model.pe_area(&PeAreaInputs::wimax(22, 10_000)).mm2();
        assert!(large > small);
    }

    #[test]
    fn pe_area_is_memory_plus_logic() {
        let model = PeAreaModel::default();
        let i = paper_inputs();
        let total = model.pe_area(&i).mm2();
        let parts = model.memory_area(&i).mm2() + model.logic_area(&i).mm2();
        assert!((total - parts).abs() < 1e-12);
    }
}

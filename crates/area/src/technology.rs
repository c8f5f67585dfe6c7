//! Technology nodes and per-bit unit areas.

/// A CMOS technology node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Feature size in nanometres.
    pub feature_nm: f64,
}

impl Technology {
    /// The 90 nm node used by the paper's synthesis.
    pub fn nm90() -> Self {
        Technology { feature_nm: 90.0 }
    }

    /// The 65 nm node used for the normalised comparison of Table III.
    pub fn nm65() -> Self {
        Technology { feature_nm: 65.0 }
    }

    /// Area scaling factor from this node to `target` (areas scale with the
    /// square of the feature-size ratio).
    ///
    /// # Example
    ///
    /// ```
    /// use asic_model::Technology;
    /// let f = Technology::nm90().scale_factor_to(Technology::nm65());
    /// assert!((f - (65.0f64 / 90.0).powi(2)).abs() < 1e-12);
    /// ```
    pub fn scale_factor_to(&self, target: Technology) -> f64 {
        (target.feature_nm / self.feature_nm).powi(2)
    }

    /// Scales an area (in mm²) designed at this node to the target node.
    pub fn scale_area(&self, area_mm2: f64, target: Technology) -> f64 {
        area_mm2 * self.scale_factor_to(target)
    }
}

/// Per-bit / per-gate unit areas at a given technology node (µm²).
///
/// The 90 nm defaults are typical standard-cell/SRAM figures chosen so that
/// the paper's component areas are approximated (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitAreas {
    /// Area of one flip-flop bit including routing overhead (µm²).
    pub flipflop_um2: f64,
    /// Area of one SRAM bit including periphery overhead (µm²).
    pub sram_bit_um2: f64,
    /// Area of one crossbar multiplexer bit per input-output pair (µm²).
    pub crossbar_bit_um2: f64,
    /// Area of one equivalent NAND2 gate of random logic (µm²).
    pub gate_um2: f64,
}

impl UnitAreas {
    /// Default constants for the 90 nm node.
    pub fn nm90() -> Self {
        UnitAreas {
            flipflop_um2: 18.0,
            sram_bit_um2: 2.0,
            crossbar_bit_um2: 2.5,
            gate_um2: 3.1,
        }
    }
}

impl Default for UnitAreas {
    fn default() -> Self {
        UnitAreas::nm90()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_quadratic() {
        let t90 = Technology::nm90();
        let t45 = Technology { feature_nm: 45.0 };
        assert!((t90.scale_factor_to(t45) - 0.25).abs() < 1e-12);
        assert!((t90.scale_area(4.0, t45) - 1.0).abs() < 1e-12);
        // identity
        assert!((t90.scale_factor_to(t90) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_normalization_to_65nm() {
        // Table III: 3.17 mm2 at 90 nm normalises to ~1.65 mm2 at 65 nm.
        let n = Technology::nm90().scale_area(3.17, Technology::nm65());
        assert!((n - 1.65).abs() < 0.05, "normalised area {n}");
    }

    #[test]
    fn flipflops_are_larger_than_sram_bits() {
        let u = UnitAreas::default();
        assert!(u.flipflop_um2 > u.sram_bit_um2);
    }
}

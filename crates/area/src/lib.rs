//! Analytical area, power and technology-scaling models.
//!
//! The paper reports post-synthesis results obtained with Synopsys Design
//! Compiler on a 90 nm CMOS library; that flow cannot be reproduced without
//! the proprietary library, so this crate substitutes it with an analytical
//! model:
//!
//! * component areas are computed from bit counts and per-bit unit areas
//!   (flip-flop, SRAM, crossbar multiplexer, random logic) calibrated so that
//!   the paper's headline figures — a 0.61 mm² NoC and a 2.56 mm² processing
//!   core at 90 nm for the `P = 22` design — are approximated;
//! * areas scale with the square of the feature-size ratio when normalised
//!   to another technology node (the paper normalises to 65 nm in Table III);
//! * power follows an `area x frequency x activity` model calibrated on the
//!   paper's 415 mW (LDPC mode) and 59 mW (turbo mode) figures.
//!
//! Absolute numbers are therefore estimates; *relative* comparisons between
//! configurations (the purpose of Tables I and II) are preserved because all
//! configurations share the same unit-area constants.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod noc_area;
pub mod pe_area;
pub mod power;
pub mod technology;

pub use noc_area::{NocAreaInputs, NocAreaModel};
pub use pe_area::{PeAreaInputs, PeAreaModel};
pub use power::PowerModel;
pub use technology::{Technology, UnitAreas};

/// Area expressed in square millimetres.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct AreaMm2(pub f64);

impl AreaMm2 {
    /// Creates an area from a value in mm².
    pub fn new(mm2: f64) -> Self {
        AreaMm2(mm2)
    }

    /// Creates an area from a value in µm².
    pub fn from_um2(um2: f64) -> Self {
        AreaMm2(um2 / 1.0e6)
    }

    /// The value in mm².
    pub fn mm2(self) -> f64 {
        self.0
    }

    /// The value in µm².
    pub fn um2(self) -> f64 {
        self.0 * 1.0e6
    }
}

impl std::ops::Add for AreaMm2 {
    type Output = AreaMm2;
    fn add(self, rhs: AreaMm2) -> AreaMm2 {
        AreaMm2(self.0 + rhs.0)
    }
}

impl std::iter::Sum for AreaMm2 {
    fn sum<I: Iterator<Item = AreaMm2>>(iter: I) -> AreaMm2 {
        AreaMm2(iter.map(|a| a.0).sum())
    }
}

impl std::fmt::Display for AreaMm2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} mm2", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let a = AreaMm2::from_um2(2_500_000.0);
        assert!((a.mm2() - 2.5).abs() < 1e-12);
        assert!((a.um2() - 2_500_000.0).abs() < 1e-6);
        assert_eq!((a + AreaMm2::new(0.5)).mm2(), 3.0);
        let total: AreaMm2 = [AreaMm2::new(1.0), AreaMm2::new(2.0)].into_iter().sum();
        assert_eq!(total.mm2(), 3.0);
        assert_eq!(AreaMm2::new(1.234567).to_string(), "1.235 mm2");
    }
}

//! Quasi-cyclic LDPC base (model) matrices.
//!
//! A base matrix has `mb` rows and `nb` columns (24 for both 802.16e and
//! 802.11n).  Each entry is either `-1` (an all-zero `z x z` block) or a
//! shift value `p >= 0` (a `z x z` identity matrix cyclically right-shifted
//! by `p`).  How a stored shift maps to the shift used at a given expansion
//! factor `z` is standard-specific and captured by [`ShiftScaling`]:
//! 802.16e publishes shifts for the largest factor `z0 = 96` and rescales
//! them (modulo for rate 2/3A, floor scaling otherwise), while 802.11n
//! publishes one table per block length with shifts already below `z`.
//!
//! The WiMAX rate-1/2 matrix below reproduces the shift coefficients
//! published in the 802.16e standard.  The matrices for the other rates are
//! *structured surrogates*: they use the standard's dimensions, the
//! standard's parity structure (weight-3 column `h_b` followed by a dual
//! diagonal) and row degrees matching the standard's degree profile, with
//! deterministic pseudo-random shift coefficients.  This substitution keeps
//! every architectural quantity used by the paper (number of check nodes,
//! row degrees, message counts, memory sizing) identical while avoiding the
//! transcription of three hundred further coefficients; BER curves for those
//! rates are representative rather than bit-exact (the README's "Supported
//! standards" table lists the published and surrogate tables).  The
//! `code-tables` crate builds the 802.11n matrices on the same foundation
//! via [`BaseMatrix::from_entries`] and [`BaseMatrix::structured`].

use crate::BASE_COLUMNS;
use std::fmt;

/// QC-LDPC code rates (the union of the 802.16e and 802.11n rate sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 (12 x 24 base matrix); used by both 802.16e and 802.11n.
    R12,
    /// Rate 2/3, 802.16e code A (8 x 24 base matrix).
    R23A,
    /// Rate 2/3, 802.16e code B (8 x 24 base matrix).
    R23B,
    /// Rate 2/3, single-variant standards such as 802.11n (8 x 24).
    R23,
    /// Rate 3/4, 802.16e code A (6 x 24 base matrix).
    R34A,
    /// Rate 3/4, 802.16e code B (6 x 24 base matrix).
    R34B,
    /// Rate 3/4, single-variant standards such as 802.11n (6 x 24).
    R34,
    /// Rate 5/6 (4 x 24 base matrix); used by both 802.16e and 802.11n.
    R56,
}

impl CodeRate {
    /// All six WiMAX LDPC rates.
    pub fn all() -> [CodeRate; 6] {
        [
            CodeRate::R12,
            CodeRate::R23A,
            CodeRate::R23B,
            CodeRate::R34A,
            CodeRate::R34B,
            CodeRate::R56,
        ]
    }

    /// The rate as a fraction.
    pub fn as_f64(&self) -> f64 {
        match self {
            CodeRate::R12 => 0.5,
            CodeRate::R23A | CodeRate::R23B | CodeRate::R23 => 2.0 / 3.0,
            CodeRate::R34A | CodeRate::R34B | CodeRate::R34 => 0.75,
            CodeRate::R56 => 5.0 / 6.0,
        }
    }

    /// Number of base-matrix rows `mb` (the number of block rows) for the
    /// 24-column layout shared by 802.16e and 802.11n.
    pub fn base_rows(&self) -> usize {
        match self {
            CodeRate::R12 => 12,
            CodeRate::R23A | CodeRate::R23B | CodeRate::R23 => 8,
            CodeRate::R34A | CodeRate::R34B | CodeRate::R34 => 6,
            CodeRate::R56 => 4,
        }
    }

    /// Target row degree of the systematic+parity row for the surrogate
    /// construction, matching each standard's degree profile.
    fn target_row_degree(&self) -> usize {
        match self {
            CodeRate::R12 => 7,
            CodeRate::R23A | CodeRate::R23B => 10,
            CodeRate::R23 => 11,
            CodeRate::R34A | CodeRate::R34B | CodeRate::R34 => 15,
            CodeRate::R56 => 20,
        }
    }

    /// Whether 802.16e shift rescaling uses the modulo rule (true only for
    /// 2/3A).
    pub fn uses_modulo_scaling(&self) -> bool {
        matches!(self, CodeRate::R23A)
    }
}

impl fmt::Display for CodeRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CodeRate::R12 => "1/2",
            CodeRate::R23A => "2/3A",
            CodeRate::R23B => "2/3B",
            CodeRate::R23 => "2/3",
            CodeRate::R34A => "3/4A",
            CodeRate::R34B => "3/4B",
            CodeRate::R34 => "3/4",
            CodeRate::R56 => "5/6",
        };
        f.write_str(s)
    }
}

/// How a stored base-matrix entry maps to the cyclic shift used at a given
/// expansion factor `z`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftScaling {
    /// 802.16e floor rule: the stored shift refers to `z0` and becomes
    /// `floor(p * z / z0)` at expansion factor `z`.
    Floor {
        /// The expansion factor the stored shifts refer to (96 for 802.16e).
        z0: usize,
    },
    /// 802.16e rate-2/3A rule: `p mod z`.
    Modulo,
    /// The stored shifts already refer to the target expansion factor
    /// (802.11n publishes one table per block length).  Shifts are still
    /// reduced modulo `z` defensively.
    Direct,
}

impl ShiftScaling {
    /// Applies the rule to stored shift `p` at expansion factor `z`.
    pub fn apply(&self, p: usize, z: usize) -> usize {
        match self {
            ShiftScaling::Floor { z0 } => p * z / z0,
            ShiftScaling::Modulo | ShiftScaling::Direct => p % z,
        }
    }
}

/// A QC-LDPC base matrix: `mb x nb` entries, `-1` for zero blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseMatrix {
    rate: CodeRate,
    scaling: ShiftScaling,
    cols: usize,
    entries: Vec<Vec<i32>>,
}

/// Shift coefficients of the 802.16e rate-1/2 base matrix (for `z0 = 96`).
const RATE_12_ENTRIES: [[i32; 24]; 12] = [
    [
        -1, 94, 73, -1, -1, -1, -1, -1, 55, 83, -1, -1, 7, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        -1,
    ],
    [
        -1, 27, -1, -1, -1, 22, 79, 9, -1, -1, -1, 12, -1, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    ],
    [
        -1, -1, -1, 24, 22, 81, -1, 33, -1, -1, -1, 0, -1, -1, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1,
    ],
    [
        61, -1, 47, -1, -1, -1, -1, -1, 65, 25, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1, -1,
        -1,
    ],
    [
        -1, -1, 39, -1, -1, -1, 84, -1, -1, 41, 72, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1,
        -1,
    ],
    [
        -1, -1, -1, -1, 46, 40, -1, 82, -1, -1, -1, 79, 0, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1,
    ],
    [
        -1, -1, 95, 53, -1, -1, -1, -1, -1, 14, 18, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1,
        -1,
    ],
    [
        -1, 11, 73, -1, -1, -1, 2, -1, -1, 47, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1,
    ],
    [
        12, -1, -1, -1, 83, 24, -1, 43, -1, -1, -1, 51, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1,
        -1,
    ],
    [
        -1, -1, -1, -1, -1, 94, -1, 59, -1, -1, 70, 72, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0,
        -1,
    ],
    [
        -1, -1, 7, 65, -1, -1, -1, -1, 39, 49, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0,
    ],
    [
        43, -1, -1, -1, -1, 66, -1, 41, -1, -1, -1, 26, 7, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        0,
    ],
];

/// Simple deterministic generator used for surrogate shift coefficients.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407))
    }

    fn next_u64(&mut self) -> u64 {
        // Numerical Recipes LCG constants.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

impl BaseMatrix {
    /// Returns the base matrix for the given WiMAX code rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not one of the six 802.16e rates (the plain `R23`
    /// / `R34` variants belong to single-variant standards such as 802.11n).
    pub fn wimax(rate: CodeRate) -> Self {
        let scaling = if rate.uses_modulo_scaling() {
            ShiftScaling::Modulo
        } else {
            ShiftScaling::Floor { z0: 96 }
        };
        match rate {
            CodeRate::R12 => BaseMatrix {
                rate,
                scaling,
                cols: BASE_COLUMNS,
                entries: RATE_12_ENTRIES.iter().map(|r| r.to_vec()).collect(),
            },
            CodeRate::R23 | CodeRate::R34 => {
                panic!("rate {rate} is not an 802.16e rate (use R23A/R23B or R34A/R34B)")
            }
            _ => Self::structured(
                rate,
                scaling,
                BASE_COLUMNS,
                96,
                0xC0DE0000 + rate.base_rows() as u64 * 131 + rate.uses_modulo_scaling() as u64,
            ),
        }
    }

    /// Builds a base matrix from explicit entries (`-1` for zero blocks).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, ragged, or wider than it is meaningful
    /// (fewer columns than rows would leave no systematic part).
    pub fn from_entries(rate: CodeRate, scaling: ShiftScaling, entries: Vec<Vec<i32>>) -> Self {
        assert!(!entries.is_empty(), "base matrix needs at least one row");
        let cols = entries[0].len();
        assert!(
            entries.iter().all(|r| r.len() == cols),
            "base matrix rows must all have the same length"
        );
        assert!(
            cols > entries.len(),
            "base matrix needs systematic columns (cols > rows)"
        );
        BaseMatrix {
            rate,
            scaling,
            cols,
            entries,
        }
    }

    /// Builds a structured surrogate matrix with the QC parity structure
    /// shared by 802.16e and 802.11n (weight-3 `h_b` column followed by a
    /// dual diagonal) and the degree profile of `rate`, using shifts drawn
    /// below `max_shift` from a deterministic stream seeded by `seed` (see
    /// the module documentation).
    ///
    /// # Panics
    ///
    /// Panics if `cols` does not exceed the rate's block-row count or
    /// `max_shift < 3`.
    pub fn structured(
        rate: CodeRate,
        scaling: ShiftScaling,
        cols: usize,
        max_shift: usize,
        seed: u64,
    ) -> Self {
        let mb = rate.base_rows();
        assert!(cols > mb, "need systematic columns: cols {cols} <= mb {mb}");
        assert!(max_shift >= 3, "max_shift {max_shift} leaves no shift room");
        let kb = cols - mb;
        let mut entries = vec![vec![-1i32; cols]; mb];
        let mut rng = Lcg::new(seed);

        // Parity part: column kb is h_b with weight 3 (same shift at top and
        // bottom, shift 0 in the middle); columns kb+1.. form the dual
        // diagonal with shift 0.
        let hb_shift = 1 + rng.below(max_shift as u64 - 2) as i32;
        let mid = mb / 2;
        entries[0][kb] = hb_shift;
        entries[mid][kb] = 0;
        entries[mb - 1][kb] = hb_shift;
        for j in 0..mb - 1 {
            entries[j][kb + 1 + j] = 0;
            entries[j + 1][kb + 1 + j] = 0;
        }

        // Row degree budget for the systematic part.
        let target = rate.target_row_degree();
        let mut remaining: Vec<usize> = (0..mb)
            .map(|i| {
                let parity_deg = entries[i].iter().filter(|&&e| e >= 0).count();
                target.saturating_sub(parity_deg)
            })
            .collect();

        // Distribute systematic entries column by column, always filling the
        // rows that still have the largest remaining budget, so row degrees
        // stay within the target-degree profile.
        let total_sys: usize = remaining.iter().sum();
        let base_col_deg = total_sys / kb;
        let extra = total_sys % kb;
        #[allow(clippy::needless_range_loop)] // `col` indexes the inner dim of `entries[r][col]`
        for col in 0..kb {
            let col_deg = base_col_deg + usize::from(col < extra);
            for _ in 0..col_deg {
                // pick the row with maximum remaining budget not yet used in this column
                let mut best: Option<usize> = None;
                for r in 0..mb {
                    if entries[r][col] >= 0 || remaining[r] == 0 {
                        continue;
                    }
                    match best {
                        None => best = Some(r),
                        Some(b) if remaining[r] > remaining[b] => best = Some(r),
                        _ => {}
                    }
                }
                let Some(r) = best else { break };
                entries[r][col] = rng.below(max_shift as u64) as i32;
                remaining[r] -= 1;
            }
        }

        BaseMatrix {
            rate,
            scaling,
            cols,
            entries,
        }
    }

    /// The code rate this base matrix belongs to.
    pub fn rate(&self) -> CodeRate {
        self.rate
    }

    /// The shift-scaling rule of this matrix.
    pub fn scaling(&self) -> ShiftScaling {
        self.scaling
    }

    /// Number of block rows `mb`.
    pub fn rows(&self) -> usize {
        self.entries.len()
    }

    /// Number of block columns `nb` (24 for 802.16e and 802.11n).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of systematic block columns `kb = nb - mb`.
    pub fn systematic_cols(&self) -> usize {
        self.cols - self.rows()
    }

    /// Raw entry access: `-1` for a zero block, otherwise the stored shift
    /// (interpreted through [`BaseMatrix::scaling`]).
    pub fn entry(&self, row: usize, col: usize) -> i32 {
        self.entries[row][col]
    }

    /// Returns the shift for expansion factor `z`, applying this matrix's
    /// scaling rule, or `None` for a zero block.
    pub fn shift(&self, row: usize, col: usize, z: usize) -> Option<usize> {
        let e = self.entries[row][col];
        if e < 0 {
            return None;
        }
        Some(self.scaling.apply(e as usize, z))
    }

    /// Degree (number of non-zero blocks) of base row `row`.
    pub fn row_degree(&self, row: usize) -> usize {
        self.entries[row].iter().filter(|&&e| e >= 0).count()
    }

    /// Degree (number of non-zero blocks) of base column `col`.
    pub fn col_degree(&self, col: usize) -> usize {
        self.entries.iter().filter(|r| r[col] >= 0).count()
    }

    /// Total number of non-zero blocks.
    pub fn nonzero_blocks(&self) -> usize {
        (0..self.rows()).map(|r| self.row_degree(r)).sum()
    }

    /// Iterates over `(row, col, base_shift)` for every non-zero block.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize, i32)> + '_ {
        self.entries.iter().enumerate().flat_map(|(r, row)| {
            row.iter()
                .enumerate()
                .filter(|(_, &e)| e >= 0)
                .map(move |(c, &e)| (r, c, e))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_12_dimensions_and_degrees() {
        let b = BaseMatrix::wimax(CodeRate::R12);
        assert_eq!(b.rows(), 12);
        assert_eq!(b.cols(), 24);
        assert_eq!(b.systematic_cols(), 12);
        // The paper: "1152 parity checks of degree 6/7" for N=2304, r=1/2.
        for r in 0..12 {
            let d = b.row_degree(r);
            assert!(d == 6 || d == 7, "row {r} degree {d}");
        }
    }

    #[test]
    fn rate_12_parity_structure() {
        let b = BaseMatrix::wimax(CodeRate::R12);
        // h_b column (12): weight 3, equal shift at top/bottom, zero shift in the middle.
        let hb: Vec<(usize, i32)> = (0..12)
            .filter(|&r| b.entry(r, 12) >= 0)
            .map(|r| (r, b.entry(r, 12)))
            .collect();
        assert_eq!(hb.len(), 3);
        assert_eq!(hb[0].1, hb[2].1);
        assert_eq!(hb[1].1, 0);
        // Dual diagonal on columns 13..24.
        for j in 0..11 {
            assert_eq!(b.entry(j, 13 + j), 0);
            assert_eq!(b.entry(j + 1, 13 + j), 0);
            assert_eq!(b.col_degree(13 + j), 2);
        }
    }

    #[test]
    fn all_rates_have_standard_dimensions() {
        for rate in CodeRate::all() {
            let b = BaseMatrix::wimax(rate);
            assert_eq!(b.cols(), 24);
            assert_eq!(b.rows(), rate.base_rows());
            assert_eq!(b.systematic_cols() + b.rows(), 24);
        }
    }

    #[test]
    fn surrogate_rates_have_parity_structure() {
        for rate in [
            CodeRate::R23A,
            CodeRate::R23B,
            CodeRate::R34A,
            CodeRate::R34B,
            CodeRate::R56,
        ] {
            let b = BaseMatrix::wimax(rate);
            let mb = b.rows();
            let kb = b.systematic_cols();
            // h_b weight 3 with matching top/bottom shifts.
            assert_eq!(b.col_degree(kb), 3, "rate {rate}");
            assert_eq!(b.entry(0, kb), b.entry(mb - 1, kb));
            assert_eq!(b.entry(mb / 2, kb), 0);
            // dual diagonal
            for j in 0..mb - 1 {
                assert_eq!(b.entry(j, kb + 1 + j), 0);
                assert_eq!(b.entry(j + 1, kb + 1 + j), 0);
            }
        }
    }

    #[test]
    fn surrogate_row_degrees_match_profile() {
        for rate in [
            CodeRate::R23A,
            CodeRate::R23B,
            CodeRate::R34A,
            CodeRate::R34B,
            CodeRate::R56,
        ] {
            let b = BaseMatrix::wimax(rate);
            let target = rate.target_row_degree();
            for r in 0..b.rows() {
                let d = b.row_degree(r);
                assert!(
                    d >= target - 2 && d <= target,
                    "rate {rate} row {r} degree {d} target {target}"
                );
            }
        }
    }

    #[test]
    fn surrogates_are_deterministic() {
        let a = BaseMatrix::wimax(CodeRate::R56);
        let b = BaseMatrix::wimax(CodeRate::R56);
        assert_eq!(a, b);
    }

    #[test]
    fn shift_scaling_rules() {
        let b = BaseMatrix::wimax(CodeRate::R12);
        // floor scaling: shift 94 at z=24 becomes floor(94*24/96)=23
        assert_eq!(b.shift(0, 1, 24), Some(23));
        assert_eq!(b.shift(0, 1, 96), Some(94));
        assert_eq!(b.shift(0, 0, 96), None);

        let a = BaseMatrix::wimax(CodeRate::R23A);
        assert!(a.rate().uses_modulo_scaling());
        // the modulo rule keeps values below z
        for (r, c, _) in a.iter_blocks() {
            let s = a.shift(r, c, 28).unwrap();
            assert!(s < 28);
        }
    }

    #[test]
    fn rate_values() {
        assert_eq!(CodeRate::R12.as_f64(), 0.5);
        assert!((CodeRate::R23A.as_f64() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CodeRate::R34B.as_f64(), 0.75);
        assert!((CodeRate::R56.as_f64() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(format!("{}", CodeRate::R23B), "2/3B");
    }

    #[test]
    fn from_entries_with_direct_scaling() {
        let b = BaseMatrix::from_entries(
            CodeRate::R12,
            ShiftScaling::Direct,
            vec![vec![3, -1, 0, 0], vec![-1, 2, 0, 0]],
        );
        assert_eq!(b.cols(), 4);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.systematic_cols(), 2);
        // direct scaling leaves the stored shift untouched (mod z)
        assert_eq!(b.shift(0, 0, 8), Some(3));
        assert_eq!(b.shift(0, 0, 2), Some(1));
        assert_eq!(b.shift(0, 1, 8), None);
        assert_eq!(b.scaling(), ShiftScaling::Direct);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_entries_panic() {
        let _ = BaseMatrix::from_entries(
            CodeRate::R12,
            ShiftScaling::Direct,
            vec![vec![0, 0, 0], vec![0, 0]],
        );
    }

    #[test]
    fn structured_respects_cols_and_max_shift() {
        let b = BaseMatrix::structured(CodeRate::R56, ShiftScaling::Direct, 24, 27, 42);
        assert_eq!(b.cols(), 24);
        assert_eq!(b.rows(), 4);
        for (r, c, e) in b.iter_blocks() {
            assert!(e >= 0 && (e as usize) < 27, "({r},{c}) shift {e}");
        }
        // parity structure: weight-3 h_b plus dual diagonal
        let kb = b.systematic_cols();
        assert_eq!(b.col_degree(kb), 3);
        assert_eq!(b.entry(0, kb), b.entry(b.rows() - 1, kb));
        // deterministic in the seed
        assert_eq!(
            b,
            BaseMatrix::structured(CodeRate::R56, ShiftScaling::Direct, 24, 27, 42)
        );
        assert_ne!(
            b,
            BaseMatrix::structured(CodeRate::R56, ShiftScaling::Direct, 24, 27, 43)
        );
    }

    #[test]
    #[should_panic(expected = "not an 802.16e rate")]
    fn wimax_rejects_single_variant_rates() {
        let _ = BaseMatrix::wimax(CodeRate::R23);
    }

    #[test]
    fn plain_rate_variants_have_wifi_dimensions() {
        assert_eq!(CodeRate::R23.base_rows(), 8);
        assert_eq!(CodeRate::R34.base_rows(), 6);
        assert!((CodeRate::R23.as_f64() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CodeRate::R34.as_f64(), 0.75);
        assert_eq!(format!("{}", CodeRate::R23), "2/3");
        assert_eq!(format!("{}", CodeRate::R34), "3/4");
        assert!(!CodeRate::R23.uses_modulo_scaling());
    }

    #[test]
    fn nonzero_blocks_consistent_with_iter() {
        for rate in CodeRate::all() {
            let b = BaseMatrix::wimax(rate);
            assert_eq!(b.iter_blocks().count(), b.nonzero_blocks());
        }
    }
}

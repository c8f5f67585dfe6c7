//! Expansion of 802.16e base matrices into full quasi-cyclic parity-check
//! matrices and the [`QcLdpcCode`] handle used by encoders, decoders and the
//! NoC mapping flow.

use crate::base_matrix::{BaseMatrix, CodeRate};
use crate::plan::LayerPlan;
use crate::sparse::SparseBinaryMatrix;
use crate::BASE_COLUMNS;
use std::fmt;

/// Errors returned when constructing a WiMAX LDPC code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LdpcError {
    /// The requested block length is not one of the 19 WiMAX lengths.
    InvalidBlockLength {
        /// The offending length.
        n: usize,
    },
    /// The information word passed to an encoder has the wrong length.
    InvalidInfoLength {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// The LLR vector passed to a decoder has the wrong length.
    InvalidLlrLength {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
}

impl fmt::Display for LdpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdpcError::InvalidBlockLength { n } => write!(
                f,
                "block length {n} is not a WiMAX LDPC length (576..=2304 step 96)"
            ),
            LdpcError::InvalidInfoLength { expected, actual } => {
                write!(f, "information word length {actual}, expected {expected}")
            }
            LdpcError::InvalidLlrLength { expected, actual } => {
                write!(f, "LLR vector length {actual}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for LdpcError {}

/// A fully-expanded quasi-cyclic LDPC code.
///
/// Holds the base matrix, the expansion factor `z`, the layer plan (each
/// block row's non-zero blocks with their shifts at `z`, which the decoders,
/// the encoder and the NoC mapping flow read) and the expanded parity-check
/// matrix in sparse form.
#[derive(Debug, Clone)]
pub struct QcLdpcCode {
    base: BaseMatrix,
    z: usize,
    plan: LayerPlan,
    h: SparseBinaryMatrix,
}

impl QcLdpcCode {
    /// Constructs the WiMAX LDPC code with block length `n` (bits) and the
    /// given rate.
    ///
    /// # Errors
    ///
    /// Returns [`LdpcError::InvalidBlockLength`] if `n` is not one of the 19
    /// lengths 576, 672, ..., 2304.
    pub fn wimax(n: usize, rate: CodeRate) -> Result<Self, LdpcError> {
        if !(576..=2304).contains(&n) || !n.is_multiple_of(96) {
            return Err(LdpcError::InvalidBlockLength { n });
        }
        let z = n / BASE_COLUMNS;
        Ok(Self::from_base(BaseMatrix::wimax(rate), z))
    }

    /// Expands an arbitrary base matrix with expansion factor `z`.
    ///
    /// # Panics
    ///
    /// Panics if `z` is zero.
    pub fn from_base(base: BaseMatrix, z: usize) -> Self {
        assert!(z > 0, "expansion factor must be positive");
        let plan = LayerPlan::new(&base, z);
        let mut h = SparseBinaryMatrix::new(base.rows() * z, base.cols() * z);
        for (l, layer) in plan.layers().enumerate() {
            // Row `r` of the layer is chunk `r` (an empty layer has none).
            let columns = &plan.columns()[layer.start * z..layer.end * z];
            for (r, bits) in columns.chunks(layer.len().max(1)).enumerate() {
                for &c in bits {
                    h.set(l * z + r, c as usize);
                }
            }
        }
        QcLdpcCode { base, z, plan, h }
    }

    /// The base matrix.
    pub fn base(&self) -> &BaseMatrix {
        &self.base
    }

    /// The code rate.
    pub fn rate(&self) -> CodeRate {
        self.base.rate()
    }

    /// The expansion factor `z = n / 24`.
    pub fn expansion(&self) -> usize {
        self.z
    }

    /// Codeword length in bits.
    pub fn n(&self) -> usize {
        self.base.cols() * self.z
    }

    /// Number of parity checks (rows of H).
    pub fn m(&self) -> usize {
        self.base.rows() * self.z
    }

    /// Number of information bits `k = n - m`.
    pub fn k(&self) -> usize {
        self.n() - self.m()
    }

    /// The layer plan: per block row, its non-zero blocks in ascending block
    /// column with their shifts at `z`, and every check row's bits.
    pub fn plan(&self) -> &LayerPlan {
        &self.plan
    }

    /// The expanded parity-check matrix.
    pub fn parity_check(&self) -> &SparseBinaryMatrix {
        &self.h
    }

    /// Degree of check row `row` of the expanded matrix.
    pub fn check_degree(&self, row: usize) -> usize {
        self.h.row_degree(row)
    }

    /// Total number of edges of the Tanner graph (ones of H), which equals
    /// the number of extrinsic messages exchanged per decoding iteration in a
    /// layered decoder.
    pub fn edge_count(&self) -> usize {
        self.h.nonzeros()
    }

    /// Returns `true` if `x` satisfies every parity check.
    pub fn is_codeword(&self, x: &[u8]) -> bool {
        x.len() == self.n() && self.h.is_codeword(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wimax_2304_r12_dimensions() {
        let code = QcLdpcCode::wimax(2304, CodeRate::R12).unwrap();
        assert_eq!(code.expansion(), 96);
        assert_eq!(code.n(), 2304);
        assert_eq!(code.m(), 1152);
        assert_eq!(code.k(), 1152);
    }

    #[test]
    fn wimax_576_r56_dimensions() {
        let code = QcLdpcCode::wimax(576, CodeRate::R56).unwrap();
        assert_eq!(code.expansion(), 24);
        assert_eq!(code.n(), 576);
        assert_eq!(code.m(), 96);
        assert_eq!(code.k(), 480);
    }

    #[test]
    fn invalid_lengths_rejected() {
        assert!(matches!(
            QcLdpcCode::wimax(600, CodeRate::R12),
            Err(LdpcError::InvalidBlockLength { n: 600 })
        ));
        assert!(QcLdpcCode::wimax(480, CodeRate::R12).is_err());
        assert!(QcLdpcCode::wimax(2400, CodeRate::R12).is_err());
    }

    #[test]
    fn every_row_degree_matches_base_degree() {
        let code = QcLdpcCode::wimax(1152, CodeRate::R12).unwrap();
        let z = code.expansion();
        for br in 0..code.base().rows() {
            let expected = code.base().row_degree(br);
            for r in br * z..(br + 1) * z {
                assert_eq!(code.check_degree(r), expected);
            }
        }
    }

    #[test]
    fn column_degrees_match_base() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let z = code.expansion();
        let cols = code.parity_check().column_lists();
        for bc in 0..24 {
            let expected = code.base().col_degree(bc);
            for (c, col) in cols.iter().enumerate().take((bc + 1) * z).skip(bc * z) {
                assert_eq!(col.len(), expected, "column {c}");
            }
        }
    }

    #[test]
    fn expanded_h_has_full_row_rank_for_rate_half() {
        // The dual-diagonal construction gives a full-rank H (the code rate is
        // exactly k/n).  Use the smallest code to keep the test fast.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        assert_eq!(code.parity_check().rank(), code.m());
    }

    #[test]
    fn all_rates_and_a_few_lengths_expand() {
        for rate in CodeRate::all() {
            for n in [576, 1152, 2304] {
                let code = QcLdpcCode::wimax(n, rate).unwrap();
                assert_eq!(code.n(), n);
                assert_eq!(code.m(), rate.base_rows() * n / 24);
                assert!(code.edge_count() > 0);
            }
        }
    }

    #[test]
    fn layers_cover_all_rows_once() {
        // Walked layer by layer, the plan's rows reach every check row of H
        // once, `z` rows per layer in row order.
        let code = QcLdpcCode::wimax(672, CodeRate::R34A).unwrap();
        let (plan, h, z) = (code.plan(), code.parity_check(), code.expansion());
        assert_eq!(plan.layers().len(), code.base().rows());
        let mut seen = vec![false; code.m()];
        let mut next = 0;
        for layer in plan.layers() {
            let columns = &plan.columns()[layer.start * z..layer.end * z];
            assert_eq!(columns.chunks_exact(layer.len()).len(), z);
            for bits in columns.chunks_exact(layer.len()) {
                let bits: Vec<usize> = bits.iter().map(|&c| c as usize).collect();
                let r = (0..code.m())
                    .find(|&r| h.row(r) == &bits[..])
                    .expect("every plan row is a row of H");
                assert_eq!(r, next);
                assert!(!seen[r]);
                seen[r] = true;
                next += 1;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn all_zero_word_is_codeword() {
        let code = QcLdpcCode::wimax(576, CodeRate::R23B).unwrap();
        assert!(code.is_codeword(&vec![0u8; code.n()]));
        assert!(!code.is_codeword(&vec![0u8; code.n() - 1]));
    }

    #[test]
    fn error_display() {
        let e = LdpcError::InvalidBlockLength { n: 100 };
        assert!(e.to_string().contains("100"));
        let e = LdpcError::InvalidInfoLength {
            expected: 10,
            actual: 5,
        };
        assert!(e.to_string().contains("expected 10"));
    }
}

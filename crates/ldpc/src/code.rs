//! The [`QcLdpcCode`] handle used by encoders, decoders and the NoC mapping
//! flow: an 802.16e-style base matrix expanded by `z`, held as its base
//! matrix and its layer plan, whose rows are the rows of the parity-check
//! matrix H.

use crate::base_matrix::{BaseMatrix, CodeRate};
use crate::plan::LayerPlan;
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

/// A quasi-cyclic LDPC code: a base matrix expanded by `z`.
///
/// Holds the base matrix, the expansion factor `z` and the layer plan: each
/// block row's non-zero blocks with their shifts at `z`, and every check
/// row's bits, the rows of the parity-check matrix H.  The decoders, the
/// encoders, the parity check and the NoC mapping flow all read the plan;
/// H is never expanded as a matrix of its own.
#[derive(Debug, Clone)]
pub struct QcLdpcCode {
    base: BaseMatrix,
    z: usize,
    plan: LayerPlan,
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

    /// The code of an arbitrary base matrix with expansion factor `z`.
    ///
    /// # Panics
    ///
    /// Panics if `z` is zero.
    pub fn from_base(base: BaseMatrix, z: usize) -> Self {
        assert!(z > 0, "expansion factor must be positive");
        let plan = LayerPlan::new(&base, z);
        QcLdpcCode { base, z, plan }
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

    /// Total number of edges of the Tanner graph (ones of H), which equals
    /// the number of extrinsic messages exchanged per decoding iteration in a
    /// layered decoder.
    pub fn edge_count(&self) -> usize {
        self.plan.columns().len()
    }

    /// Returns `true` if `x` (bits as 0/1 values) satisfies every parity
    /// check.  Allocation-free; stops at the first unsatisfied check.
    pub fn is_codeword(&self, x: &[u8]) -> bool {
        x.len() == self.n()
            && self
                .plan
                .rows()
                .all(|bits| bits.iter().fold(0, |parity, &c| parity ^ x[c as usize]) & 1 == 0)
    }
}

/// The rows of H spelled out from the base matrix's shifts, apart from the
/// layer plan: row `l * z + r` meets bit `bc * z + (r + shift) % z` of every
/// non-zero block `(l, bc)`, in ascending block column.  The test oracles
/// read H through these rows.
#[cfg(test)]
pub(crate) fn spelled_rows(code: &QcLdpcCode) -> Vec<Vec<usize>> {
    let (base, z) = (code.base(), code.expansion());
    (0..base.rows() * z)
        .map(|row| {
            let (l, r) = (row / z, row % z);
            (0..base.cols())
                .filter_map(|bc| base.shift(l, bc, z).map(|s| bc * z + (r + s) % z))
                .collect()
        })
        .collect()
}

/// `true` when the bits `x` (0/1 values) satisfy every row of `rows`.
#[cfg(test)]
pub(crate) fn satisfies_rows(rows: &[Vec<usize>], x: &[u8]) -> bool {
    rows.iter()
        .all(|row| row.iter().fold(0, |parity, &c| parity ^ x[c]) & 1 == 0)
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
        let plan = code.plan();
        let z = plan.expansion();
        for (br, layer) in plan.layers().enumerate() {
            assert_eq!(layer.len(), code.base().row_degree(br));
        }
        let degrees: Vec<usize> = plan.rows().map(<[u32]>::len).collect();
        assert_eq!(degrees.len(), code.m());
        for (r, &degree) in degrees.iter().enumerate() {
            assert_eq!(degree, code.base().row_degree(r / z), "row {r}");
        }
    }

    #[test]
    fn column_degrees_match_base() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let z = code.expansion();
        let mut degrees = vec![0; code.n()];
        for &c in code.plan().columns() {
            degrees[c as usize] += 1;
        }
        for (c, &degree) in degrees.iter().enumerate() {
            assert_eq!(degree, code.base().col_degree(c / z), "column {c}");
        }
    }

    #[test]
    fn expanded_h_has_full_row_rank_for_rate_half() {
        // The dual-diagonal construction gives a full-rank H (the code rate is
        // exactly k/n): the Gaussian encoder inverts H's square parity part.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        assert!(crate::GaussianEncoder::new(&code).is_some());
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
        let (plan, h, z) = (code.plan(), spelled_rows(&code), code.expansion());
        assert_eq!(plan.layers().len(), code.base().rows());
        let mut seen = vec![false; code.m()];
        let mut next = 0;
        for layer in plan.layers() {
            let columns = &plan.columns()[layer.start * z..layer.end * z];
            assert_eq!(columns.chunks_exact(layer.len()).len(), z);
            for bits in columns.chunks_exact(layer.len()) {
                let bits: Vec<usize> = bits.iter().map(|&c| c as usize).collect();
                let r = (0..code.m())
                    .find(|&r| h[r] == bits)
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

    /// On a codeword of n576 at every rate and on every single-bit flip of
    /// it, `is_codeword` agrees with the rows spelled from the base matrix.
    #[test]
    fn is_codeword_agrees_with_the_spelled_rows() {
        for rate in CodeRate::all() {
            let code = QcLdpcCode::wimax(576, rate).unwrap();
            let h = spelled_rows(&code);
            let info: Vec<u8> = (0..code.k()).map(|i| (i * 7 % 5 % 2) as u8).collect();
            let mut word = crate::QcEncoder::new(&code).encode(&info).unwrap();
            assert!(code.is_codeword(&word), "rate {rate}");
            assert!(satisfies_rows(&h, &word), "rate {rate}");
            for bit in 0..code.n() {
                word[bit] ^= 1;
                assert_eq!(
                    code.is_codeword(&word),
                    satisfies_rows(&h, &word),
                    "rate {rate}, bit {bit}"
                );
                assert!(!code.is_codeword(&word), "rate {rate}, bit {bit}");
                word[bit] ^= 1;
            }
        }
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

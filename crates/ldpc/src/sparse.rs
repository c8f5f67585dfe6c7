//! A simple sparse binary (GF(2)) matrix used for parity-check matrices.

/// Sparse binary matrix stored as sorted column indices per row.
///
/// # Example
///
/// ```
/// use wimax_ldpc::SparseBinaryMatrix;
///
/// let mut m = SparseBinaryMatrix::new(2, 4);
/// m.set(0, 1);
/// m.set(0, 3);
/// m.set(1, 0);
/// assert_eq!(m.row(0), &[1, 3]);
/// assert_eq!(m.multiply_vector(&[1, 0, 0, 1]), vec![1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseBinaryMatrix {
    rows: Vec<Vec<usize>>,
    cols: usize,
}

impl SparseBinaryMatrix {
    /// Creates an all-zero matrix with the given dimensions.
    pub fn new(rows: usize, cols: usize) -> Self {
        SparseBinaryMatrix {
            rows: vec![Vec::new(); rows],
            cols,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Sets entry `(row, col)` to one (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize) {
        assert!(
            row < self.num_rows() && col < self.cols,
            "index out of range"
        );
        let r = &mut self.rows[row];
        if let Err(pos) = r.binary_search(&col) {
            r.insert(pos, col);
        }
    }

    /// Returns `true` if entry `(row, col)` is one.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.rows[row].binary_search(&col).is_ok()
    }

    /// The sorted column indices of the ones in `row`.
    pub fn row(&self, row: usize) -> &[usize] {
        &self.rows[row]
    }

    /// Number of ones in `row`.
    pub fn row_degree(&self, row: usize) -> usize {
        self.rows[row].len()
    }

    /// Column adjacency: for every column, the sorted list of rows with a one.
    pub fn column_lists(&self) -> Vec<Vec<usize>> {
        let mut cols = vec![Vec::new(); self.cols];
        for (r, row) in self.rows.iter().enumerate() {
            for &c in row {
                cols[c].push(r);
            }
        }
        cols
    }

    /// Total number of ones.
    pub fn nonzeros(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }

    /// GF(2) matrix-vector product `H * v` (bits given as 0/1 values).
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the number of columns.
    pub fn multiply_vector(&self, v: &[u8]) -> Vec<u8> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        self.rows.iter().map(|row| parity(row, v)).collect()
    }

    /// Returns `true` if `H * v = 0`, i.e. `v` is a codeword of the code with
    /// this parity-check matrix.  Allocation-free; stops at the first
    /// unsatisfied check.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the number of columns.
    pub fn is_codeword(&self, v: &[u8]) -> bool {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        self.rows.iter().all(|row| parity(row, v) == 0)
    }

    /// Computes the rank of the matrix over GF(2) (dense elimination on
    /// 64-bit words; intended for matrices up to a few thousand rows).
    pub fn rank(&self) -> usize {
        let words = self.cols.div_ceil(64);
        let mut dense: Vec<Vec<u64>> = self
            .rows
            .iter()
            .map(|row| {
                let mut w = vec![0u64; words];
                for &c in row {
                    w[c / 64] |= 1u64 << (c % 64);
                }
                w
            })
            .collect();

        let mut rank = 0;
        for col in 0..self.cols {
            let word = col / 64;
            let bit = 1u64 << (col % 64);
            // find pivot
            let pivot = (rank..dense.len()).find(|&r| dense[r][word] & bit != 0);
            let Some(p) = pivot else { continue };
            dense.swap(rank, p);
            let pivot_row = dense[rank].clone();
            for (r, row) in dense.iter_mut().enumerate() {
                if r != rank && row[word] & bit != 0 {
                    for (w, pw) in row.iter_mut().zip(&pivot_row) {
                        *w ^= pw;
                    }
                }
            }
            rank += 1;
            if rank == dense.len() {
                break;
            }
        }
        rank
    }

    /// Counts length-4 cycles in the Tanner graph (pairs of rows sharing two
    /// or more columns).  Useful as a code-quality diagnostic.
    pub fn count_four_cycles(&self) -> usize {
        self.four_cycle_pairs()
            .iter()
            .map(|&(_, _, c)| c * (c - 1) / 2)
            .sum()
    }

    /// The row pairs participating in length-4 cycles, as sorted
    /// `(row_a, row_b, shared_columns)` triples with `row_a < row_b` and
    /// `shared_columns >= 2`.
    ///
    /// The accumulator is a `BTreeMap` (not a hash map) so the returned
    /// order is a pure function of the matrix contents: identical matrices
    /// yield identical vectors on every run, which keeps any downstream
    /// iteration over the diagnostic deterministic.
    pub fn four_cycle_pairs(&self) -> Vec<(usize, usize, usize)> {
        let cols = self.column_lists();
        let mut pair_counts: std::collections::BTreeMap<(usize, usize), usize> =
            std::collections::BTreeMap::new();
        for rows in &cols {
            for i in 0..rows.len() {
                for j in i + 1..rows.len() {
                    *pair_counts.entry((rows[i], rows[j])).or_insert(0) += 1;
                }
            }
        }
        pair_counts
            .into_iter()
            .filter(|&(_, c)| c >= 2)
            .map(|((a, b), c)| (a, b, c))
            .collect()
    }
}

/// GF(2) parity of the bits of `v` selected by one sparse row.
fn parity(row: &[usize], v: &[u8]) -> u8 {
    row.iter().fold(0u8, |acc, &c| acc ^ (v[c] & 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix() -> SparseBinaryMatrix {
        // H = [1 1 0 1 0 0]
        //     [0 1 1 0 1 0]
        //     [1 0 1 0 0 1]
        let mut h = SparseBinaryMatrix::new(3, 6);
        for (r, c) in [
            (0, 0),
            (0, 1),
            (0, 3),
            (1, 1),
            (1, 2),
            (1, 4),
            (2, 0),
            (2, 2),
            (2, 5),
        ] {
            h.set(r, c);
        }
        h
    }

    #[test]
    fn set_get_idempotent() {
        let mut m = SparseBinaryMatrix::new(2, 3);
        m.set(1, 2);
        m.set(1, 2);
        assert!(m.get(1, 2));
        assert!(!m.get(0, 2));
        assert_eq!(m.nonzeros(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut m = SparseBinaryMatrix::new(2, 3);
        m.set(2, 0);
    }

    #[test]
    fn matvec_over_gf2() {
        let h = small_matrix();
        assert_eq!(h.multiply_vector(&[1, 1, 0, 0, 0, 0]), vec![0, 1, 1]);
        assert_eq!(h.multiply_vector(&[0, 0, 0, 0, 0, 0]), vec![0, 0, 0]);
    }

    #[test]
    fn codeword_check() {
        let h = small_matrix();
        // x = [1,1,1,0,0,0]: row0 = 1^1^0 = 0? cols 0,1,3 -> 1^1^0 = 0; row1 cols 1,2,4 -> 1^1^0=0; row2 cols 0,2,5 -> 1^1^0=0.
        assert!(h.is_codeword(&[1, 1, 1, 0, 0, 0]));
        assert!(!h.is_codeword(&[1, 0, 0, 0, 0, 0]));
    }

    #[test]
    fn rank_of_small_matrix() {
        let h = small_matrix();
        assert_eq!(h.rank(), 3);
        let empty = SparseBinaryMatrix::new(3, 5);
        assert_eq!(empty.rank(), 0);
    }

    #[test]
    fn rank_detects_dependent_rows() {
        let mut h = SparseBinaryMatrix::new(3, 4);
        // row2 = row0 + row1
        for c in [0, 1] {
            h.set(0, c);
        }
        for c in [1, 2] {
            h.set(1, c);
        }
        for c in [0, 2] {
            h.set(2, c);
        }
        assert_eq!(h.rank(), 2);
    }

    #[test]
    fn four_cycle_count() {
        let mut h = SparseBinaryMatrix::new(2, 4);
        // rows share columns 0 and 1 => one 4-cycle
        for c in [0, 1, 2] {
            h.set(0, c);
        }
        for c in [0, 1, 3] {
            h.set(1, c);
        }
        assert_eq!(h.count_four_cycles(), 1);
        assert_eq!(small_matrix().count_four_cycles(), 0);
    }

    #[test]
    fn four_cycle_pairs_are_order_stable_across_runs() {
        // Regression for the old HashMap accumulator: iteration order over
        // the pair counts must be a pure function of the matrix contents,
        // independent of insertion order (and hence of hash seeding).
        let entries = [
            (0, 0),
            (0, 1),
            (0, 5),
            (1, 0),
            (1, 1),
            (1, 4),
            (2, 0),
            (2, 1),
            (2, 4),
            (3, 4),
            (3, 5),
        ];
        let mut forward = SparseBinaryMatrix::new(4, 6);
        for &(r, c) in &entries {
            forward.set(r, c);
        }
        let mut backward = SparseBinaryMatrix::new(4, 6);
        for &(r, c) in entries.iter().rev() {
            backward.set(r, c);
        }
        let pairs = forward.four_cycle_pairs();
        assert_eq!(pairs, backward.four_cycle_pairs());
        // Stable across repeated calls on the same matrix, too.
        assert_eq!(pairs, forward.four_cycle_pairs());
        // Sorted (row_a, row_b) with row_a < row_b, counts >= 2.
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        assert!(pairs.iter().all(|&(a, b, c)| a < b && c >= 2));
        // Rows 0/1 and 0/2 share columns {0,1}; rows 1/2 share {0,1,4}.
        assert_eq!(pairs, vec![(0, 1, 2), (0, 2, 2), (1, 2, 3)]);
        assert_eq!(
            forward.count_four_cycles(),
            1 + 1 + 3 // C(2,2) + C(2,2) + C(3,2)
        );
    }

    #[test]
    fn column_lists_match_rows() {
        let h = small_matrix();
        let cols = h.column_lists();
        assert_eq!(cols[0], vec![0, 2]);
        assert_eq!(cols[1], vec![0, 1]);
        assert_eq!(cols[5], vec![2]);
    }

    proptest! {
        #[test]
        fn matvec_linearity(seed in 0u64..1000) {
            // (H a) xor (H b) == H (a xor b)
            let h = small_matrix();
            let mut lcg = seed;
            let mut next_bit = || { lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1); ((lcg >> 33) & 1) as u8 };
            let a: Vec<u8> = (0..6).map(|_| next_bit()).collect();
            let b: Vec<u8> = (0..6).map(|_| next_bit()).collect();
            let ab: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            let ha = h.multiply_vector(&a);
            let hb = h.multiply_vector(&b);
            let hab = h.multiply_vector(&ab);
            let hxor: Vec<u8> = ha.iter().zip(&hb).map(|(x, y)| x ^ y).collect();
            prop_assert_eq!(h.is_codeword(&a), ha.iter().all(|&s| s == 0));
            prop_assert_eq!(hab, hxor);
        }
    }
}

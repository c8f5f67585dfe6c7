//! The layer plan of a QC-LDPC code: the schedule that the decoders, the
//! encoder and the NoC mapping read.
//!
//! Each layer is one block row of the base matrix.  Its `z` check rows
//! share no bit, so the paper's PEs update them together.  The plan lists
//! each layer's non-zero blocks in ascending block column, each as its
//! first bit and its circulant shift at `z`, and every check row's bits in
//! that order.  It is the one place that fixes the order of the entries
//! within a row: the decoders' first-minimum positions, and so their
//! output bytes, depend on it.

use crate::base_matrix::BaseMatrix;
use std::ops::Range;

/// A non-zero block of the base matrix: a `z × z` identity shifted right
/// by `shift`, so check row `r` of its layer meets bit `col + (r + shift)
/// % z`.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// The first bit of the block column.
    pub col: usize,
    /// The circulant shift at `z`, below `z`.
    pub shift: usize,
}

impl Block {
    /// The block's check rows and the bits they meet, as the two
    /// contiguous pieces of the rotation: rows `..z - shift` meet bits
    /// `col + shift..`, the rest meet `col..col + shift`.
    pub(crate) fn runs(self, z: usize) -> [(Range<usize>, Range<usize>); 2] {
        let Block { col, shift } = self;
        [
            (0..z - shift, col + shift..col + z),
            (z - shift..z, col..col + shift),
        ]
    }
}

/// The layered schedule of a QC-LDPC code, built once per code from its
/// base matrix (see [`QcLdpcCode::plan`](crate::QcLdpcCode::plan)).
///
/// # Example
///
/// ```
/// use wimax_ldpc::{CodeRate, QcLdpcCode};
///
/// let code = QcLdpcCode::wimax(576, CodeRate::R12)?;
/// let plan = code.plan();
/// let z = plan.expansion();
/// let first = plan.layers().next().unwrap();
/// // Check row 0 meets one bit per block of layer 0, at the block's shift.
/// let row0 = plan.rows().next().unwrap();
/// assert_eq!(row0.len(), first.len());
/// for (&bit, block) in row0.iter().zip(&plan.blocks()[first]) {
///     assert_eq!(bit as usize, block.col + block.shift);
/// }
/// assert_eq!(plan.rows().count(), code.m());
/// assert_eq!(plan.columns().len(), plan.blocks().len() * z);
/// # Ok::<(), wimax_ldpc::LdpcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LayerPlan {
    z: usize,
    /// Every non-zero block, layer by layer, in ascending block column.
    blocks: Vec<Block>,
    /// Layer `l` is `blocks[layer_ptr[l]..layer_ptr[l + 1]]`.
    layer_ptr: Vec<usize>,
    /// The bits of every check row, row by row in schedule order, each row
    /// in its blocks' order.
    columns: Vec<u32>,
}

impl LayerPlan {
    /// The plan of `base` expanded by `z`.
    ///
    /// # Panics
    ///
    /// Panics if the code has more bits than `u32` numbers.
    pub(crate) fn new(base: &BaseMatrix, z: usize) -> Self {
        assert!(
            u32::try_from(base.cols() * z).is_ok(),
            "a code of {} bits is too long for u32 bit indices",
            base.cols() * z
        );
        let mut blocks = Vec::with_capacity(base.nonzero_blocks());
        let mut layer_ptr = vec![0];
        for (br, bc, _) in base.iter_blocks() {
            // Close every layer before `br`, the empty ones too.
            layer_ptr.resize(br + 1, blocks.len());
            let shift = base
                .shift(br, bc, z)
                .expect("iter_blocks only yields non-zero blocks");
            blocks.push(Block {
                col: bc * z,
                shift: shift % z,
            });
        }
        layer_ptr.resize(base.rows() + 1, blocks.len());
        let mut columns = Vec::with_capacity(blocks.len() * z);
        for layer in layer_ptr.windows(2) {
            let blocks = &blocks[layer[0]..layer[1]];
            for r in 0..z {
                columns.extend(blocks.iter().map(|b| (b.col + (r + b.shift) % z) as u32));
            }
        }
        LayerPlan {
            z,
            blocks,
            layer_ptr,
            columns,
        }
    }

    /// The expansion factor `z`: the check rows of a layer.
    pub fn expansion(&self) -> usize {
        self.z
    }

    /// Every non-zero block, layer by layer, each layer in ascending block
    /// column.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The layers in schedule order, each as the range of its blocks in
    /// [`blocks`](Self::blocks).  Layer `l` holds the `z` check rows from
    /// `l * z` on, and its rows' bits are entries `start * z..end * z` of
    /// [`columns`](Self::columns): one chunk per row, as long as the
    /// layer's degree.
    pub fn layers(&self) -> impl ExactSizeIterator<Item = Range<usize>> + '_ {
        self.layer_ptr.windows(2).map(|layer| layer[0]..layer[1])
    }

    /// The largest layer degree, in blocks.
    pub fn widest_layer(&self) -> usize {
        self.layers().map(|layer| layer.len()).max().unwrap_or(0)
    }

    /// The bits every check row meets, row after row in schedule order,
    /// each row in ascending column order: the rows of H.
    pub fn columns(&self) -> &[u32] {
        &self.columns
    }

    /// Every check row's bits, row after row in schedule order: row `r` of
    /// layer `l` is check row `l * z + r`, chunk `r` of the layer's
    /// [`columns`](Self::columns).  An empty layer's rows meet no bit.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let z = self.z;
        self.layers().flat_map(move |layer| {
            let (degree, first) = (layer.len(), layer.start * z);
            (0..z).map(move |r| &self.columns[first + r * degree..first + (r + 1) * degree])
        })
    }

    /// `true` when the hard decisions of `lambda` ([`Llr::hard_bit`]: `λ <
    /// 0`) satisfy every parity check.  Per layer, each check row XORs the
    /// decisions of its bits, block by block along the rotation, into
    /// `syndrome`, one lane per row.
    ///
    /// [`Llr::hard_bit`]: fec_fixed::Llr::hard_bit
    pub(crate) fn satisfied(&self, lambda: &[f64], syndrome: &mut Vec<u64>) -> bool {
        let z = self.z;
        self.layers().all(|layer| {
            syndrome.clear();
            syndrome.resize(z, 0);
            for block in &self.blocks[layer] {
                for (rows, bits) in block.runs(z) {
                    for (parity, &l) in syndrome[rows].iter_mut().zip(&lambda[bits]) {
                        *parity ^= u64::from(l < 0.0);
                    }
                }
            }
            syndrome.iter().all(|&parity| parity == 0)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::base_matrix::{BaseMatrix, CodeRate};
    use crate::code::{spelled_rows, QcLdpcCode};

    /// Every check row of every WiMAX rate at n576 and n2304, and of the
    /// rate-1/2 base at the odd `z` = 27 (802.11n n648's shape) and at
    /// `z` = 20 (802.22 n480's): the plan's rows, cut from its columns
    /// layer by layer and read through `rows`, equal the rows of H spelled
    /// out from the base matrix's shifts, entry for entry, in order.
    #[test]
    fn plan_rows_are_the_rows_of_h() {
        let r12 = BaseMatrix::wimax(CodeRate::R12);
        let mut codes = vec![
            QcLdpcCode::from_base(r12.clone(), 27),
            QcLdpcCode::from_base(r12, 20),
        ];
        for rate in CodeRate::all() {
            for n in [576, 2304] {
                codes.push(QcLdpcCode::wimax(n, rate).unwrap());
            }
        }
        for code in &codes {
            let (base, plan, h) = (code.base(), code.plan(), spelled_rows(code));
            let z = plan.expansion();
            assert_eq!(z, code.expansion());
            assert_eq!(plan.layers().len(), base.rows());
            assert_eq!(plan.columns().len(), code.edge_count());
            assert_eq!(h.len(), code.m());
            let mut row = 0;
            for (l, layer) in plan.layers().enumerate() {
                let columns = &plan.columns()[layer.start * z..layer.end * z];
                assert_eq!(layer.len(), base.row_degree(l));
                for bits in columns.chunks_exact(layer.len()) {
                    let bits: Vec<usize> = bits.iter().map(|&c| c as usize).collect();
                    assert_eq!(bits, h[row], "n{} row {row}", code.n());
                    row += 1;
                }
            }
            assert_eq!(row, code.m());
            let rows: Vec<Vec<usize>> = plan
                .rows()
                .map(|bits| bits.iter().map(|&c| c as usize).collect())
                .collect();
            assert_eq!(rows, h, "n{}", code.n());
            assert!(plan.widest_layer() >= 2);
        }
    }

    /// A layer without blocks still holds `z` check rows, which meet no
    /// bit, so the rows after it keep their numbers.
    #[test]
    fn an_empty_layer_keeps_its_rows() {
        let base = BaseMatrix::from_entries(
            CodeRate::R12,
            crate::base_matrix::ShiftScaling::Modulo,
            vec![vec![0, 1, -1, -1], vec![-1, -1, -1, -1], vec![2, -1, 0, 3]],
        );
        let code = QcLdpcCode::from_base(base, 4);
        let rows: Vec<Vec<usize>> = code
            .plan()
            .rows()
            .map(|bits| bits.iter().map(|&c| c as usize).collect())
            .collect();
        assert_eq!(rows, spelled_rows(&code));
        assert!(rows[4..8].iter().all(Vec::is_empty));
        assert_eq!(rows[8], vec![2, 8, 15]);
    }
}

//! Systematic encoders for WiMAX QC-LDPC codes.
//!
//! Two encoders are provided:
//!
//! * [`QcEncoder`] — the efficient two-stage encoder that exploits the
//!   802.16e parity structure (weight-3 `h_b` column followed by a dual
//!   diagonal), the one a hardware implementation would use.
//! * [`GaussianEncoder`] — a generic encoder that inverts the parity part of
//!   `H` over GF(2); slower to build but works for any full-rank parity part
//!   and is used to cross-validate the QC encoder.

use crate::code::{LdpcError, QcLdpcCode};

/// `dst ^= P_shift · src` for one `z × z` block: `dst[r] ^= src[(r + shift) % z]`
/// (the product of a right-shifted identity with `src`), done as two
/// contiguous slice XORs around the wrap point.
fn xor_shifted(dst: &mut [u8], src: &[u8], shift: usize) {
    let (head, tail) = dst.split_at_mut(src.len() - shift);
    for (d, s) in head.iter_mut().zip(&src[shift..]) {
        *d ^= s;
    }
    for (d, s) in tail.iter_mut().zip(&src[..shift]) {
        *d ^= s;
    }
}

/// Fast systematic encoder exploiting the 802.16e dual-diagonal structure.
///
/// # Example
///
/// ```
/// use wimax_ldpc::{CodeRate, QcEncoder, QcLdpcCode};
///
/// let code = QcLdpcCode::wimax(576, CodeRate::R12)?;
/// let encoder = QcEncoder::new(&code);
/// let info = vec![1u8; code.k()];
/// let cw = encoder.encode(&info)?;
/// assert!(code.is_codeword(&cw));
/// assert_eq!(&cw[..code.k()], &info[..]);
/// # Ok::<(), wimax_ldpc::LdpcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QcEncoder {
    code: QcLdpcCode,
    /// Shift of the `h_b` column's top (and bottom) block.
    hb_shift: usize,
    /// The "middle" block row of the weight-3 `h_b` column (the entry with
    /// shift 0 strictly between the first and last block rows).
    mid: usize,
}

impl QcEncoder {
    /// Creates an encoder for the given code.
    ///
    /// # Panics
    ///
    /// Panics if the parity part lacks the 802.16e structure: a weight-3
    /// `h_b` column with entries in the first block row and in a middle
    /// block row.
    pub fn new(code: &QcLdpcCode) -> Self {
        let (plan, base) = (code.plan(), code.base());
        let mb = base.rows();
        let kb = base.systematic_cols();
        // The h_b column's first bit is the first parity bit, `k`.
        let hb_shift = plan
            .layers()
            .next()
            .and_then(|layer| plan.blocks()[layer].iter().find(|b| b.col == code.k()))
            .expect("h_b column has an entry in block row 0")
            .shift;
        let mid = (1..mb - 1)
            .find(|&r| base.entry(r, kb) >= 0)
            .expect("h_b column has a middle entry");
        QcEncoder {
            code: code.clone(),
            hb_shift,
            mid,
        }
    }

    /// Encodes `info` (length `k`) into a systematic codeword of length `n`.
    ///
    /// The parity blocks are computed in place in the returned codeword, so
    /// an encode makes one allocation.
    ///
    /// # Errors
    ///
    /// Returns [`LdpcError::InvalidInfoLength`] if `info.len() != k`.
    pub fn encode(&self, info: &[u8]) -> Result<Vec<u8>, LdpcError> {
        let code = &self.code;
        let k = code.k();
        if info.len() != k {
            return Err(LdpcError::InvalidInfoLength {
                expected: k,
                actual: info.len(),
            });
        }
        let plan = code.plan();
        let z = code.expansion();
        let mb = plan.layers().len();
        let mut codeword = vec![0u8; code.n()];
        codeword[..k].copy_from_slice(info);
        let parity = &mut codeword[k..];

        // lambda_i = sum_j P_{s(i,j)} u_j over the systematic part (the
        // blocks before bit `k`, which lead each layer), written one parity
        // block ahead (lambda_i into block i + 1, the last one into block
        // 0) so the recursion below can run in place.
        for (br, layer) in plan.layers().enumerate() {
            let slot = (br + 1) % mb;
            let dst = &mut parity[slot * z..(slot + 1) * z];
            for block in plan.blocks()[layer].iter().take_while(|b| b.col < k) {
                xor_shifted(dst, &info[block.col..block.col + z], block.shift);
            }
        }

        // p_0 = sum_i lambda_i (the double h_b shift cancels, the dual
        // diagonal cancels pairwise, leaving the single shift-0 h_b entry).
        let (p0, rest) = parity.split_at_mut(z);
        for lambda in rest.chunks_exact(z) {
            xor_shifted(p0, lambda, 0);
        }

        // Forward recursion on the dual diagonal; block i + 1 holds lambda_i.
        // row 0:  lambda_0 + P_hb p_0 + p_1 = 0
        xor_shifted(&mut rest[..z], p0, self.hb_shift);
        for i in 1..mb - 1 {
            // row i: lambda_i + [p_0 if i == mid] + p_i + p_{i+1} = 0
            let (prev, next) = rest[(i - 1) * z..(i + 1) * z].split_at_mut(z);
            xor_shifted(next, prev, 0);
            if i == self.mid {
                xor_shifted(next, p0, 0);
            }
        }
        Ok(codeword)
    }

    /// The code this encoder targets.
    pub fn code(&self) -> &QcLdpcCode {
        &self.code
    }
}

/// Dense GF(2) generic encoder: precomputes the inverse of the parity part of
/// `H` and solves `H_p * p = H_s * u` for every information word.
#[derive(Debug, Clone)]
pub struct GaussianEncoder {
    code: QcLdpcCode,
    /// Inverse of the parity submatrix, stored as bit-packed rows of length m.
    inv_rows: Vec<Vec<u64>>,
}

impl GaussianEncoder {
    /// Builds the encoder.  Returns `None` if the parity part of `H` is
    /// singular over GF(2) (cannot happen for the 802.16e structure, but may
    /// for arbitrary base matrices).
    pub fn new(code: &QcLdpcCode) -> Option<Self> {
        let m = code.m();
        let k = code.k();
        let words = m.div_ceil(64);

        // Dense copy of the parity columns of H, augmented with the identity.
        let mut rows: Vec<(Vec<u64>, Vec<u64>)> = code
            .plan()
            .rows()
            .enumerate()
            .map(|(r, bits)| {
                let mut a = vec![0u64; words];
                for &c in bits {
                    let c = c as usize;
                    if c >= k {
                        let pc = c - k;
                        a[pc / 64] |= 1 << (pc % 64);
                    }
                }
                let mut e = vec![0u64; words];
                e[r / 64] |= 1 << (r % 64);
                (a, e)
            })
            .collect();

        // Gauss-Jordan elimination.
        for col in 0..m {
            let w = col / 64;
            let bit = 1u64 << (col % 64);
            let pivot = (col..m).find(|&r| rows[r].0[w] & bit != 0)?;
            rows.swap(col, pivot);
            let (pa, pe) = (rows[col].0.clone(), rows[col].1.clone());
            for (r, (a, e)) in rows.iter_mut().enumerate() {
                if r != col && a[w] & bit != 0 {
                    for (x, y) in a.iter_mut().zip(&pa) {
                        *x ^= y;
                    }
                    for (x, y) in e.iter_mut().zip(&pe) {
                        *x ^= y;
                    }
                }
            }
        }

        Some(GaussianEncoder {
            code: code.clone(),
            inv_rows: rows.into_iter().map(|(_, e)| e).collect(),
        })
    }

    /// Encodes `info` into a systematic codeword.
    ///
    /// # Errors
    ///
    /// Returns [`LdpcError::InvalidInfoLength`] if `info.len() != k`.
    pub fn encode(&self, info: &[u8]) -> Result<Vec<u8>, LdpcError> {
        let code = &self.code;
        if info.len() != code.k() {
            return Err(LdpcError::InvalidInfoLength {
                expected: code.k(),
                actual: info.len(),
            });
        }
        let m = code.m();
        let k = code.k();
        let words = m.div_ceil(64);

        // s = H_s * u as a bit-packed vector.
        let mut s = vec![0u64; words];
        for (r, bits) in code.plan().rows().enumerate() {
            let mut acc = 0u8;
            for &c in bits {
                let c = c as usize;
                if c < k {
                    acc ^= info[c] & 1;
                }
            }
            if acc == 1 {
                s[r / 64] |= 1 << (r % 64);
            }
        }

        // p = Hp^{-1} * s.
        let mut parity = vec![0u8; m];
        for (r, inv_row) in self.inv_rows.iter().enumerate() {
            let mut acc = 0u32;
            for (a, b) in inv_row.iter().zip(&s) {
                acc ^= (a & b).count_ones() & 1;
            }
            parity[r] = (acc & 1) as u8;
        }

        let mut cw = Vec::with_capacity(code.n());
        cw.extend_from_slice(info);
        cw.extend_from_slice(&parity);
        Ok(cw)
    }

    /// The code this encoder targets.
    pub fn code(&self) -> &QcLdpcCode {
        &self.code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_matrix::CodeRate;
    use rand::{Rng, SeedableRng};

    fn random_info(k: usize, seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..k).map(|_| rng.gen_range(0..=1u8)).collect()
    }

    #[test]
    fn xor_shifted_adds_the_rotated_block() {
        let src = [1, 2, 3, 4];
        for shift in 0..4 {
            let mut dst = [0u8; 4];
            xor_shifted(&mut dst, &src, shift);
            let rotated: Vec<u8> = (0..4).map(|r| src[(r + shift) % 4]).collect();
            assert_eq!(dst.to_vec(), rotated, "shift {shift}");
            xor_shifted(&mut dst, &src, shift);
            assert_eq!(dst, [0; 4], "adding twice cancels, shift {shift}");
        }
    }

    #[test]
    fn qc_encoder_produces_codewords_rate_half() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        for seed in 0..5 {
            let info = random_info(code.k(), seed);
            let cw = enc.encode(&info).unwrap();
            assert_eq!(cw.len(), code.n());
            assert_eq!(&cw[..code.k()], &info[..]);
            assert!(code.is_codeword(&cw), "seed {seed}");
        }
    }

    #[test]
    fn qc_encoder_produces_codewords_all_rates() {
        for rate in CodeRate::all() {
            let code = QcLdpcCode::wimax(576, rate).unwrap();
            let enc = QcEncoder::new(&code);
            let info = random_info(code.k(), 42);
            let cw = enc.encode(&info).unwrap();
            assert!(code.is_codeword(&cw), "rate {rate}");
        }
    }

    #[test]
    fn qc_encoder_largest_code() {
        let code = QcLdpcCode::wimax(2304, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let info = random_info(code.k(), 7);
        let cw = enc.encode(&info).unwrap();
        assert!(code.is_codeword(&cw));
    }

    #[test]
    fn gaussian_encoder_agrees_with_qc_encoder() {
        for rate in CodeRate::all() {
            let code = QcLdpcCode::wimax(576, rate).unwrap();
            let qc = QcEncoder::new(&code);
            let ge = GaussianEncoder::new(&code).expect("parity part is invertible");
            for seed in 0..3 {
                let info = random_info(code.k(), seed);
                assert_eq!(
                    qc.encode(&info).unwrap(),
                    ge.encode(&info).unwrap(),
                    "rate {rate}"
                );
            }
        }
    }

    #[test]
    fn gaussian_encoder_all_rates() {
        for rate in CodeRate::all() {
            let code = QcLdpcCode::wimax(576, rate).unwrap();
            let ge = GaussianEncoder::new(&code).expect("invertible");
            let info = random_info(code.k(), 3);
            let cw = ge.encode(&info).unwrap();
            assert!(code.is_codeword(&cw), "rate {rate}");
        }
    }

    #[test]
    fn all_zero_info_encodes_to_all_zero() {
        let code = QcLdpcCode::wimax(672, CodeRate::R56).unwrap();
        let enc = QcEncoder::new(&code);
        let cw = enc.encode(&vec![0u8; code.k()]).unwrap();
        assert!(cw.iter().all(|&b| b == 0));
    }

    #[test]
    fn wrong_info_length_is_rejected() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        assert!(matches!(
            enc.encode(&[0u8; 10]),
            Err(LdpcError::InvalidInfoLength { expected, actual: 10 }) if expected == code.k()
        ));
        let ge = GaussianEncoder::new(&code).unwrap();
        assert!(ge.encode(&[0u8; 10]).is_err());
    }

    #[test]
    fn encoding_is_linear() {
        // encode(a) xor encode(b) == encode(a xor b) for a systematic linear code
        let code = QcLdpcCode::wimax(576, CodeRate::R23A).unwrap();
        let enc = QcEncoder::new(&code);
        let a = random_info(code.k(), 1);
        let b = random_info(code.k(), 2);
        let ab: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ca = enc.encode(&a).unwrap();
        let cb = enc.encode(&b).unwrap();
        let cab = enc.encode(&ab).unwrap();
        let cxor: Vec<u8> = ca.iter().zip(&cb).map(|(x, y)| x ^ y).collect();
        assert_eq!(cab, cxor);
    }
}

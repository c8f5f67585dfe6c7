//! IEEE 802.22 (WRAN) QC-LDPC code tables.
//!
//! 802.22 inherits its optional LDPC mode from 802.16e: the same 24-column
//! quasi-cyclic base layout (weight-3 `h_b` column plus a dual diagonal in
//! the parity part) with one stored shift table per rate, rescaled to the
//! target expansion factor with the 802.16e floor rule
//! (`floor(p * z / z0)`, [`ShiftScaling::Floor`] with `z0 = 96`).  This
//! repository supports the rates 1/2, 2/3 and 3/4 over six block lengths
//! between 384 and 2304 bits (`z` = 16 … 96).
//!
//! Following the repository's substitution policy (the README's "Supported
//! standards" table), the rate-1/2 table reuses the *published* 802.16e rate-1/2
//! shift coefficients — 802.22 adopts the 802.16e LDPC design, so that
//! matrix is transcribable from the already-verified table — while the
//! rate-2/3 and rate-3/4 matrices are clearly-labeled *structured
//! surrogates*: the standard's dimensions (8 x 24 and 6 x 24), the shared
//! parity structure and the matching row-degree profiles, with
//! deterministic pseudo-random shifts below `z0`.  Every architectural
//! quantity (check counts, degrees, message counts) matches the standard;
//! BER curves for the surrogate rates are representative rather than
//! bit-exact.

use wimax_ldpc::{BaseMatrix, CodeRate, LdpcError, QcLdpcCode, ShiftScaling};

/// The 802.22 LDPC block lengths (bits) supported by this repository.
pub const WRAN_BLOCK_LENGTHS: [usize; 6] = [384, 480, 960, 1440, 1920, 2304];

/// Number of base-matrix columns (subblocks per codeword), as in 802.16e.
pub const WRAN_BASE_COLUMNS: usize = 24;

/// The expansion factor the stored 802.22 shift tables refer to (the
/// 802.16e convention the standard inherits).
pub const WRAN_Z0: usize = 96;

/// The three 802.22 LDPC code rates.
pub fn wran_rates() -> [CodeRate; 3] {
    [CodeRate::R12, CodeRate::R23, CodeRate::R34]
}

/// Returns the 802.22 base matrix for `rate`.  One matrix per rate: shifts
/// are stored for `z0 = 96` and rescaled per block length by the floor
/// rule, exactly as in 802.16e.
///
/// # Panics
///
/// Panics if `rate` is not an 802.22 LDPC rate (use [`wran_rates`]).
pub fn wran_base_matrix(rate: CodeRate) -> BaseMatrix {
    assert!(
        wran_rates().contains(&rate),
        "rate {rate} is not an 802.22 LDPC rate"
    );
    if rate == CodeRate::R12 {
        // 802.22 adopts the 802.16e rate-1/2 design: reuse the published
        // shift table (already transcribed in `wimax-ldpc`) unchanged.
        return BaseMatrix::wimax(CodeRate::R12);
    }
    // Structured surrogates for the single-variant 2/3 and 3/4 tables.
    let rate_tag = if rate == CodeRate::R23 { 2u64 } else { 3 };
    BaseMatrix::structured(
        rate,
        ShiftScaling::Floor { z0: WRAN_Z0 },
        WRAN_BASE_COLUMNS,
        WRAN_Z0,
        0x8022_2000 + 131 * rate_tag,
    )
}

/// Constructs the 802.22 LDPC code with block length `n` (bits) and the
/// given rate, ready for the workspace's encoders, decoders (f64 and
/// quantized q7 datapaths) and the NoC mapping flow.
///
/// # Errors
///
/// Returns [`LdpcError::InvalidBlockLength`] if `n` is not one of
/// [`WRAN_BLOCK_LENGTHS`].
pub fn wran_ldpc(n: usize, rate: CodeRate) -> Result<QcLdpcCode, LdpcError> {
    if !WRAN_BLOCK_LENGTHS.contains(&n) {
        return Err(LdpcError::InvalidBlockLength { n });
    }
    let z = n / WRAN_BASE_COLUMNS;
    Ok(QcLdpcCode::from_base(wran_base_matrix(rate), z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use wimax_ldpc::QcEncoder;

    #[test]
    fn rate_half_reuses_the_published_wimax_table() {
        let wran = wran_base_matrix(CodeRate::R12);
        assert_eq!(wran, BaseMatrix::wimax(CodeRate::R12));
        assert_eq!(wran.scaling(), ShiftScaling::Floor { z0: 96 });
    }

    #[test]
    fn all_three_matrices_have_standard_dimensions() {
        for rate in wran_rates() {
            let b = wran_base_matrix(rate);
            assert_eq!(b.rows(), rate.base_rows(), "rate {rate}");
            assert_eq!(b.cols(), 24, "rate {rate}");
            assert_eq!(b.scaling(), ShiftScaling::Floor { z0: 96 });
            for (_, _, e) in b.iter_blocks() {
                assert!((e as usize) < WRAN_Z0, "rate {rate}: shift {e}");
            }
        }
    }

    #[test]
    fn surrogate_rates_keep_the_shared_parity_structure() {
        for rate in [CodeRate::R23, CodeRate::R34] {
            let b = wran_base_matrix(rate);
            let mb = b.rows();
            let kb = b.systematic_cols();
            assert_eq!(b.col_degree(kb), 3, "rate {rate}");
            assert_eq!(b.entry(0, kb), b.entry(mb - 1, kb));
            assert_eq!(b.entry(mb / 2, kb), 0);
            for j in 0..mb - 1 {
                assert_eq!(b.entry(j, kb + 1 + j), 0);
                assert_eq!(b.entry(j + 1, kb + 1 + j), 0);
            }
        }
    }

    #[test]
    fn every_wran_code_encodes_valid_codewords_at_two_z_values() {
        // The H * c^T = 0 validation of the new tables at two expansion
        // factors (the satellite requirement): random information words must
        // encode into parity-check-satisfying codewords for every rate at
        // both the smallest and the largest block length.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x222);
        for &n in &[384usize, 2304] {
            for rate in wran_rates() {
                let code = wran_ldpc(n, rate).unwrap();
                assert_eq!(code.n(), n);
                assert_eq!(code.expansion(), n / 24);
                let enc = QcEncoder::new(&code);
                let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
                let cw = enc.encode(&info).unwrap();
                assert!(code.is_codeword(&cw), "n {n} rate {rate}");
            }
        }
    }

    #[test]
    fn all_supported_lengths_expand() {
        for &n in &WRAN_BLOCK_LENGTHS {
            for rate in wran_rates() {
                let code = wran_ldpc(n, rate).unwrap();
                assert_eq!(code.n(), n, "rate {rate}");
                assert_eq!(code.m(), rate.base_rows() * n / 24, "rate {rate}");
            }
        }
    }

    #[test]
    fn invalid_lengths_are_rejected() {
        assert!(matches!(
            wran_ldpc(576, CodeRate::R12),
            Err(LdpcError::InvalidBlockLength { n: 576 })
        ));
        assert!(wran_ldpc(648, CodeRate::R12).is_err());
        assert!(wran_ldpc(0, CodeRate::R12).is_err());
    }

    #[test]
    #[should_panic(expected = "not an 802.22 LDPC rate")]
    fn non_wran_rates_are_rejected() {
        let _ = wran_base_matrix(CodeRate::R56);
    }

    #[test]
    fn code_dimensions_match_the_rates() {
        let code = wran_ldpc(2304, CodeRate::R34).unwrap();
        assert_eq!(code.k(), 1728);
        assert_eq!(code.m(), 576);
        let code = wran_ldpc(384, CodeRate::R12).unwrap();
        assert_eq!(code.k(), 192);
        assert_eq!(code.m(), 192);
    }
}

//! IEEE 802.11n QC-LDPC code tables.
//!
//! 802.11n defines twelve QC-LDPC codes: three block lengths (648, 1296 and
//! 1944 bits, i.e. expansion factors `z` = 27, 54 and 81 over the shared
//! 24-column base layout) times four rates (1/2, 2/3, 3/4 and 5/6).  Unlike
//! 802.16e, the standard publishes one shift table *per block length* — the
//! shifts already refer to the target `z` and are never rescaled, which is
//! exactly the [`ShiftScaling::Direct`] rule of the generalized
//! [`BaseMatrix`].
//!
//! Following the repository's substitution policy (the README's "Supported
//! standards" table), the rate-1/2 `z = 27` matrix below reproduces the
//! standard's published shift coefficients; the remaining eleven tables are
//! *structured surrogates* sharing the standard's dimensions, parity
//! structure (weight-3 `h_b` column with equal top/bottom shifts followed by
//! a dual diagonal — 802.11n uses the same encoding structure as 802.16e)
//! and row-degree profile, with deterministic pseudo-random shifts below
//! `z`.  Every architectural quantity (check counts, degrees, message
//! counts) matches the standard; BER curves for the surrogate tables are
//! representative rather than bit-exact.

use wimax_ldpc::{BaseMatrix, CodeRate, LdpcError, QcLdpcCode, ShiftScaling};

/// The three 802.11n LDPC block lengths in bits.
pub const WIFI_BLOCK_LENGTHS: [usize; 3] = [648, 1296, 1944];

/// Number of base-matrix columns (subblocks per codeword), as in 802.16e.
pub const WIFI_BASE_COLUMNS: usize = 24;

/// The four 802.11n LDPC code rates.
pub fn wifi_rates() -> [CodeRate; 4] {
    [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56]
}

/// The published 802.11n rate-1/2 base matrix for `z = 27` (n = 648).
const WIFI_R12_Z27: [[i32; 24]; 12] = [
    [
        0, -1, -1, -1, 0, 0, -1, -1, 0, -1, -1, 0, 1, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    ],
    [
        22, 0, -1, -1, 17, -1, 0, 0, 12, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    ],
    [
        6, -1, 0, -1, 10, -1, -1, -1, 24, -1, 0, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1,
    ],
    [
        2, -1, -1, 0, 20, -1, -1, -1, 25, 0, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1, -1, -1,
    ],
    [
        23, -1, -1, -1, 3, -1, -1, -1, 0, -1, 9, 11, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1, -1,
    ],
    [
        24, -1, 23, 1, 17, -1, 3, -1, 10, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1, -1,
    ],
    [
        25, -1, -1, -1, 8, -1, -1, -1, 7, 18, -1, -1, 0, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1, -1,
    ],
    [
        13, 24, -1, -1, 0, -1, 8, -1, 6, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1, -1, -1,
    ],
    [
        7, 20, -1, 16, 22, 10, -1, -1, 23, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1, -1,
    ],
    [
        11, -1, -1, -1, 19, -1, -1, -1, 13, -1, 3, 17, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, -1,
    ],
    [
        25, -1, 8, -1, 23, 18, -1, 14, 9, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0,
    ],
    [
        3, -1, -1, -1, 16, -1, -1, 2, 25, 5, -1, -1, 1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0,
    ],
];

/// Returns the 802.11n base matrix for `rate` at expansion factor `z`
/// (27, 54 or 81).
///
/// # Panics
///
/// Panics if `z` is not an 802.11n expansion factor or `rate` is not an
/// 802.11n rate (use [`wifi_rates`]).
pub fn wifi_base_matrix(rate: CodeRate, z: usize) -> BaseMatrix {
    assert!(
        matches!(z, 27 | 54 | 81),
        "z = {z} is not an 802.11n expansion factor (27, 54 or 81)"
    );
    assert!(
        wifi_rates().contains(&rate),
        "rate {rate} is not an 802.11n LDPC rate"
    );
    if rate == CodeRate::R12 && z == 27 {
        return BaseMatrix::from_entries(
            rate,
            ShiftScaling::Direct,
            WIFI_R12_Z27.iter().map(|r| r.to_vec()).collect(),
        );
    }
    // One deterministic surrogate per (rate, z) pair: 802.11n publishes an
    // independent table per block length, so the seed folds in both.
    let rate_tag = match rate {
        CodeRate::R12 => 1u64,
        CodeRate::R23 => 2,
        CodeRate::R34 => 3,
        _ => 4,
    };
    BaseMatrix::structured(
        rate,
        ShiftScaling::Direct,
        WIFI_BASE_COLUMNS,
        z,
        0x8021_1000 + 97 * z as u64 + rate_tag,
    )
}

/// Constructs the 802.11n LDPC code with block length `n` (bits) and the
/// given rate, ready for the workspace's encoders, decoders and NoC mapping
/// flow.
///
/// # Errors
///
/// Returns [`LdpcError::InvalidBlockLength`] if `n` is not 648, 1296 or
/// 1944.
pub fn wifi_ldpc(n: usize, rate: CodeRate) -> Result<QcLdpcCode, LdpcError> {
    if !WIFI_BLOCK_LENGTHS.contains(&n) {
        return Err(LdpcError::InvalidBlockLength { n });
    }
    let z = n / WIFI_BASE_COLUMNS;
    Ok(QcLdpcCode::from_base(wifi_base_matrix(rate, z), z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use wimax_ldpc::{GaussianEncoder, QcEncoder};

    #[test]
    fn published_z27_r12_matrix_has_the_standard_structure() {
        let b = wifi_base_matrix(CodeRate::R12, 27);
        assert_eq!(b.rows(), 12);
        assert_eq!(b.cols(), 24);
        assert_eq!(b.scaling(), ShiftScaling::Direct);
        // h_b column: weight 3, equal top/bottom shifts, zero in the middle.
        assert_eq!(b.col_degree(12), 3);
        assert_eq!(b.entry(0, 12), b.entry(11, 12));
        assert_eq!(b.entry(6, 12), 0);
        // dual diagonal
        for j in 0..11 {
            assert_eq!(b.entry(j, 13 + j), 0);
            assert_eq!(b.entry(j + 1, 13 + j), 0);
        }
        // all shifts below z
        for (_, _, e) in b.iter_blocks() {
            assert!(e < 27);
        }
    }

    #[test]
    fn all_twelve_matrices_have_standard_dimensions() {
        for &z in &[27usize, 54, 81] {
            for rate in wifi_rates() {
                let b = wifi_base_matrix(rate, z);
                assert_eq!(b.rows(), rate.base_rows(), "z {z} rate {rate}");
                assert_eq!(b.cols(), 24);
                for (_, _, e) in b.iter_blocks() {
                    assert!((e as usize) < z, "z {z} rate {rate}: shift {e}");
                }
            }
        }
    }

    #[test]
    fn every_wifi_code_encodes_valid_codewords() {
        // The H * c^T = 0 validation of the new tables: random information
        // words must encode into parity-check-satisfying codewords for all
        // 12 (rate, z) combinations.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x11A);
        for &n in &WIFI_BLOCK_LENGTHS {
            for rate in wifi_rates() {
                let code = wifi_ldpc(n, rate).unwrap();
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
    fn qc_encoder_agrees_with_gaussian_encoder_on_the_published_matrix() {
        let code = wifi_ldpc(648, CodeRate::R12).unwrap();
        let qc = QcEncoder::new(&code);
        let ge = GaussianEncoder::new(&code).expect("parity part invertible");
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
        assert_eq!(qc.encode(&info).unwrap(), ge.encode(&info).unwrap());
    }

    #[test]
    fn invalid_lengths_are_rejected() {
        assert!(matches!(
            wifi_ldpc(576, CodeRate::R12),
            Err(LdpcError::InvalidBlockLength { n: 576 })
        ));
        assert!(wifi_ldpc(2304, CodeRate::R12).is_err());
    }

    #[test]
    #[should_panic(expected = "not an 802.11n LDPC rate")]
    fn wimax_only_rates_are_rejected() {
        let _ = wifi_base_matrix(CodeRate::R23A, 27);
    }

    #[test]
    fn code_dimensions_match_the_standard() {
        let code = wifi_ldpc(1944, CodeRate::R56).unwrap();
        assert_eq!(code.m(), 324);
        assert_eq!(code.k(), 1620);
        let code = wifi_ldpc(1296, CodeRate::R23).unwrap();
        assert_eq!(code.k(), 864);
    }
}

//! Symbol-To-Bit (STB) and Bit-To-Symbol (BTS) conversion units.
//!
//! The paper (Section IV.B) sends *bit-level* extrinsic information over the
//! NoC for the double-binary turbo code: this reduces the network payload by
//! roughly one third (two bit LLRs instead of three symbol LLRs per couple)
//! at the cost of about 0.2 dB of BER performance (refs \[23\], \[24\]).  The
//! STB unit compresses a symbol-level extrinsic vector into two bit LLRs
//! before transmission; the BTS unit expands the received bit LLRs back into
//! a symbol-level a-priori vector.  Both units use the Max-Log `max*` of the
//! SISO kernel.

use crate::siso::max;

/// A symbol-level LLR vector for one couple: `lambda[u] = ln P(u)/P(0)` for
/// `u = 1, 2, 3` (the value for `u = 0` is zero by definition).
pub type SymbolLlr = [f64; 3];

/// Converts a symbol-level extrinsic vector into bit-level LLRs (STB unit).
///
/// Bit `A` is the most-significant bit of the couple (`u = 2A + B`).
/// The returned LLRs follow the convention `lambda = ln P(bit=0)/P(bit=1)`.
///
/// # Example
///
/// ```
/// use wimax_turbo::bitlevel::symbol_to_bits;
///
/// // strongly favour symbol 3 (A = 1, B = 1)
/// let (la, lb) = symbol_to_bits(&[-5.0, -5.0, 10.0]);
/// assert!(la < 0.0 && lb < 0.0);
/// ```
pub fn symbol_to_bits(symbol: &SymbolLlr) -> (f64, f64) {
    // metrics for u = 0..3 with metric(0) = 0
    let m = [0.0, symbol[0], symbol[1], symbol[2]];
    // A = 0 for u in {0,1}; A = 1 for u in {2,3}
    let la = max(m[0], m[1]) - max(m[2], m[3]);
    // B = 0 for u in {0,2}; B = 1 for u in {1,3}
    let lb = max(m[0], m[2]) - max(m[1], m[3]);
    (la, lb)
}

/// Reconstructs a symbol-level a-priori vector from bit-level LLRs (BTS unit),
/// assuming the two bits are independent.
///
/// # Example
///
/// ```
/// use wimax_turbo::bitlevel::bits_to_symbol;
///
/// let s = bits_to_symbol(2.0, -1.0);
/// // u = 1 (A=0, B=1): favoured by the negative B LLR
/// assert!(s[0] > 0.0);
/// // u = 2 (A=1, B=0): penalised by the positive A LLR
/// assert!(s[1] < 0.0);
/// ```
pub fn bits_to_symbol(lambda_a: f64, lambda_b: f64) -> SymbolLlr {
    // ln P(u)/P(0) = -A(u) * lambda_a - B(u) * lambda_b
    [
        -lambda_b,            // u = 1: A=0, B=1
        -lambda_a,            // u = 2: A=1, B=0
        -lambda_a - lambda_b, // u = 3: A=1, B=1
    ]
}

/// Round-trips a symbol extrinsic through the bit-level exchange, modelling
/// what the receiving SISO actually sees when bit-level messages are used.
pub fn bitlevel_roundtrip(symbol: &SymbolLlr) -> SymbolLlr {
    let (la, lb) = symbol_to_bits(symbol);
    bits_to_symbol(la, lb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Number of NoC payload values per couple with symbol-level exchange.
    const SYMBOL_LEVEL_VALUES_PER_COUPLE: usize = 3;

    /// Number of NoC payload values per couple with bit-level exchange.
    const BIT_LEVEL_VALUES_PER_COUPLE: usize = 2;

    #[test]
    fn neutral_symbol_gives_neutral_bits() {
        let (la, lb) = symbol_to_bits(&[0.0, 0.0, 0.0]);
        assert!(la.abs() < 1e-12);
        assert!(lb.abs() < 1e-12);
    }

    #[test]
    fn certain_symbol_maps_to_consistent_bits() {
        // strongly favour u = 2 (A = 1, B = 0)
        let (la, lb) = symbol_to_bits(&[-20.0, 20.0, -20.0]);
        assert!(la < -5.0, "A should favour 1 (negative LLR), got {la}");
        assert!(lb > 5.0, "B should favour 0 (positive LLR), got {lb}");
    }

    #[test]
    fn bts_reconstruction_is_product_form() {
        let s = bits_to_symbol(3.0, 1.0);
        assert_eq!(s, [-1.0, -3.0, -4.0]);
    }

    #[test]
    fn roundtrip_preserves_hard_decision() {
        for (idx, sym) in [
            [5.0, -2.0, -3.0],  // favours u=1
            [-2.0, 6.0, -1.0],  // favours u=2
            [-1.0, -2.0, 7.0],  // favours u=3
            [-4.0, -5.0, -6.0], // favours u=0
        ]
        .iter()
        .enumerate()
        {
            let rt = bitlevel_roundtrip(sym);
            let best_before = best_symbol(sym);
            let best_after = best_symbol(&rt);
            assert_eq!(best_before, best_after, "case {idx}");
        }
    }

    fn best_symbol(s: &SymbolLlr) -> usize {
        let m = [0.0, s[0], s[1], s[2]];
        (0..4)
            .max_by(|&a, &b| m[a].partial_cmp(&m[b]).unwrap())
            .unwrap()
    }

    #[test]
    fn payload_reduction_is_one_third() {
        let reduction =
            1.0 - BIT_LEVEL_VALUES_PER_COUPLE as f64 / SYMBOL_LEVEL_VALUES_PER_COUPLE as f64;
        assert!((reduction - 1.0 / 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn roundtrip_is_lossless_for_product_form_inputs(la in -8.0f64..8.0, lb in -8.0f64..8.0) {
            // If the symbol distribution is already a product of independent
            // bit marginals, STB followed by BTS is exact: Max-Log commutes
            // with the common offset of each bit's two metrics.
            let s = bits_to_symbol(la, lb);
            let rt = bitlevel_roundtrip(&s);
            for (x, y) in s.iter().zip(&rt) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }

        #[test]
        fn stb_output_is_bounded_by_symbol_range(s1 in -10.0f64..10.0, s2 in -10.0f64..10.0, s3 in -10.0f64..10.0) {
            let (la, lb) = symbol_to_bits(&[s1, s2, s3]);
            let bound = 2.0 * s1.abs().max(s2.abs()).max(s3.abs()) + 2.0;
            prop_assert!(la.abs() <= bound);
            prop_assert!(lb.abs() <= bound);
        }
    }
}

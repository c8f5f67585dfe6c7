//! Binary modulation used by the BER evaluation harness.

/// Binary phase-shift keying: bit `0` maps to `+1.0`, bit `1` maps to `-1.0`.
///
/// This sign convention matches the LLR convention in [`fec_fixed::Llr`]:
/// a positive received sample favours bit `0`.
///
/// # Example
///
/// ```
/// use fec_channel::BpskModulator;
///
/// let m = BpskModulator::new();
/// assert_eq!(m.modulate(&[0, 1]), vec![1.0, -1.0]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BpskModulator;

impl BpskModulator {
    /// Creates a BPSK modulator.
    pub fn new() -> Self {
        BpskModulator
    }

    /// Maps a single bit to its antipodal symbol.
    pub fn map_bit(&self, bit: u8) -> f64 {
        if bit & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Modulates a slice of bits (values other than 0/1 use their LSB).
    pub fn modulate(&self, bits: &[u8]) -> Vec<f64> {
        bits.iter().map(|&b| self.map_bit(b)).collect()
    }

    /// Hard-decision demodulation (sign detector), the tests' inverse of
    /// [`BpskModulator::modulate`].
    #[cfg(test)]
    fn demodulate_hard(&self, symbols: &[f64]) -> Vec<u8> {
        symbols
            .iter()
            .map(|&s| if s >= 0.0 { 0 } else { 1 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn antipodal_mapping() {
        let m = BpskModulator::new();
        assert_eq!(m.map_bit(0), 1.0);
        assert_eq!(m.map_bit(1), -1.0);
        assert_eq!(m.map_bit(2), 1.0); // LSB
    }

    #[test]
    fn modulate_then_demodulate_is_identity() {
        let m = BpskModulator::new();
        let bits = vec![0, 1, 1, 0, 0, 1];
        assert_eq!(m.demodulate_hard(&m.modulate(&bits)), bits);
    }

    #[test]
    fn empty_input() {
        let m = BpskModulator::new();
        assert!(m.modulate(&[]).is_empty());
        assert!(m.demodulate_hard(&[]).is_empty());
    }

    proptest! {
        #[test]
        fn roundtrip_random_bits(bits in proptest::collection::vec(0u8..=1, 0..512)) {
            let m = BpskModulator::new();
            prop_assert_eq!(m.demodulate_hard(&m.modulate(&bits)), bits);
        }

        #[test]
        fn unit_energy(bits in proptest::collection::vec(0u8..=1, 1..64)) {
            let m = BpskModulator::new();
            for s in m.modulate(&bits) {
                prop_assert!((s.abs() - 1.0).abs() < 1e-12);
            }
        }
    }
}

//! The duo-binary convolutional turbo code of 802.16e and DVB-RCS: the
//! parallel concatenation of two CRSC encoders through the couple
//! interleaver and the odd-couple bit swap, and its puncturing to the
//! transmitted rates.

use crate::interleaver::{Interleaver, WIMAX_ARP_TABLE};
use crate::trellis::{step, CirculationState};
use crate::TurboError;

/// Code rates obtained by puncturing the rate-1/3 mother code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PunctureRate {
    /// Rate 1/3: transmit `A, B, Y1, W1, Y2, W2`.
    R13,
    /// Rate 1/2: transmit `A, B, Y1, Y2` (the rate used by the paper's
    /// evaluation: N = 2400 info bits, r = 0.5).
    #[default]
    R12,
    /// Rate 2/3: transmit `A, B` plus `Y1` of even couples and `Y2` of odd
    /// couples.
    R23,
    /// Rate 3/4: transmit `A, B` plus `Y1`/`Y2` of every other even/odd
    /// couple (approximation of the standard's subblock puncturing).
    R34,
}

impl PunctureRate {
    /// Nominal code rate.
    pub fn as_f64(&self) -> f64 {
        match self {
            PunctureRate::R13 => 1.0 / 3.0,
            PunctureRate::R12 => 0.5,
            PunctureRate::R23 => 2.0 / 3.0,
            PunctureRate::R34 => 0.75,
        }
    }

    /// Whether parity `Y1` of couple `j` is transmitted.
    pub fn keeps_y1(&self, j: usize) -> bool {
        match self {
            PunctureRate::R13 | PunctureRate::R12 => true,
            PunctureRate::R23 => j.is_multiple_of(2),
            PunctureRate::R34 => j.is_multiple_of(4),
        }
    }

    /// Whether parity `W1` of couple `j` is transmitted.
    pub fn keeps_w1(&self, _j: usize) -> bool {
        matches!(self, PunctureRate::R13)
    }

    /// Whether parity `Y2` of couple `j` is transmitted.
    pub fn keeps_y2(&self, j: usize) -> bool {
        match self {
            PunctureRate::R13 | PunctureRate::R12 => true,
            PunctureRate::R23 => j % 2 == 1,
            PunctureRate::R34 => j % 4 == 2,
        }
    }

    /// Whether parity `W2` of couple `j` is transmitted.
    pub fn keeps_w2(&self, _j: usize) -> bool {
        matches!(self, PunctureRate::R13)
    }
}

/// A duo-binary turbo code (the CTC of 802.16e and DVB-RCS): its couple
/// interleaver plus puncturing.  The code encodes itself; its decoder is
/// [`crate::TurboDecoder`].
///
/// The transmitted bit layout is sub-block oriented, matching the order the
/// decoder expects:
/// `A[0..N] | B[0..N] | Y1 (kept) | W1 (kept) | Y2 (kept) | W2 (kept)`.
///
/// # Example
///
/// ```
/// use wimax_turbo::{CtcCode, PunctureRate};
///
/// let code = CtcCode::wimax(2400)?;                 // N = 2400 couples
/// assert_eq!(code.info_bits(), 4800);
/// assert_eq!(code.rate(), PunctureRate::R12);
/// assert_eq!(code.coded_bits(), 9600);
/// assert_eq!(code.encode(&vec![0; 4800])?, vec![0; 9600]);
/// # Ok::<(), wimax_turbo::TurboError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtcCode {
    rate: PunctureRate,
    interleaver: Interleaver,
}

impl CtcCode {
    /// Builds the rate-1/2 WiMAX CTC with the given frame size in couples.
    ///
    /// # Errors
    ///
    /// Returns an error if the size is not in the WiMAX table or is a
    /// multiple of 7.
    pub fn wimax(couples: usize) -> Result<Self, TurboError> {
        Self::with_rate(couples, PunctureRate::R12)
    }

    /// Builds a WiMAX CTC with an explicit puncture rate.
    ///
    /// # Errors
    ///
    /// Same as [`CtcCode::wimax`].
    pub fn with_rate(couples: usize, rate: PunctureRate) -> Result<Self, TurboError> {
        let params = WIMAX_ARP_TABLE
            .iter()
            .find(|p| p.couples == couples)
            .ok_or(TurboError::UnsupportedFrameSize { couples })?;
        Self::from_interleaver(Interleaver::arp(*params)?, rate)
    }

    /// Builds a duo-binary CTC from a couple interleaver and a puncture
    /// rate.  The constituent trellis is the shared 8-state duo-binary CRSC
    /// used by both 802.16e and DVB-RCS; standards that reuse it with their
    /// own interleaver parameter tables (DVB-RCS in the `code-tables` crate)
    /// construct their codes through this entry point.
    ///
    /// # Errors
    ///
    /// Returns [`TurboError::InvalidCirculation`] if the frame size is a
    /// multiple of the CRSC period 7 (the circulation state would be
    /// undefined).
    pub fn from_interleaver(
        interleaver: Interleaver,
        rate: PunctureRate,
    ) -> Result<Self, TurboError> {
        let couples = interleaver.len();
        if couples.is_multiple_of(7) {
            return Err(TurboError::InvalidCirculation { couples });
        }
        Ok(CtcCode { rate, interleaver })
    }

    /// Frame size in couples.
    pub fn couples(&self) -> usize {
        self.interleaver.len()
    }

    /// Number of information bits `2 * couples`.
    pub fn info_bits(&self) -> usize {
        2 * self.couples()
    }

    /// Puncture rate.
    pub fn rate(&self) -> PunctureRate {
        self.rate
    }

    /// The couple interleaver.
    pub fn interleaver(&self) -> &Interleaver {
        &self.interleaver
    }

    /// Number of transmitted bits after puncturing.
    pub fn coded_bits(&self) -> usize {
        let parity: usize = (0..self.couples())
            .map(|j| {
                usize::from(self.rate.keeps_y1(j))
                    + usize::from(self.rate.keeps_w1(j))
                    + usize::from(self.rate.keeps_y2(j))
                    + usize::from(self.rate.keeps_w2(j))
            })
            .sum();
        self.info_bits() + parity
    }

    /// The couple sequence seen by the second constituent encoder: output
    /// position `permute(j)` receives couple `j`, its two bits swapped when
    /// [`swaps_couple`] says so.
    ///
    /// # Panics
    ///
    /// Panics if `couples.len() != self.couples()`.
    pub(crate) fn interleaved_couples(&self, couples: &[(u8, u8)]) -> Vec<(u8, u8)> {
        assert_eq!(couples.len(), self.couples(), "frame size mismatch");
        let mut out = couples.to_vec();
        for (j, &(a, b)) in couples.iter().enumerate() {
            out[self.interleaver.permute(j)] = if swaps_couple(j) { (b, a) } else { (a, b) };
        }
        out
    }

    /// Encodes `info` (length `2 * couples`, couple `j` is bits `2j`,
    /// `2j+1`) into the transmitted bits.
    ///
    /// # Errors
    ///
    /// Returns [`TurboError::InvalidLength`] if `info` has the wrong length.
    pub fn encode(&self, info: &[u8]) -> Result<Vec<u8>, TurboError> {
        let n = self.couples();
        if info.len() != 2 * n {
            return Err(TurboError::InvalidLength {
                what: "information bits",
                expected: 2 * n,
                actual: info.len(),
            });
        }
        let couples: Vec<(u8, u8)> = (0..n)
            .map(|j| (info[2 * j] & 1, info[2 * j + 1] & 1))
            .collect();
        let enc1 = encode_constituent(&couples)?;
        let enc2 = encode_constituent(&self.interleaved_couples(&couples))?;

        let rate = self.rate;
        let mut out = Vec::with_capacity(self.coded_bits());
        out.extend(couples.iter().map(|&(a, _)| a));
        out.extend(couples.iter().map(|&(_, b)| b));
        out.extend(
            (0..n)
                .filter(|&j| rate.keeps_y1(j))
                .map(|j| enc1.parity_y[j]),
        );
        out.extend(
            (0..n)
                .filter(|&j| rate.keeps_w1(j))
                .map(|j| enc1.parity_w[j]),
        );
        out.extend(
            (0..n)
                .filter(|&j| rate.keeps_y2(j))
                .map(|j| enc2.parity_y[j]),
        );
        out.extend(
            (0..n)
                .filter(|&j| rate.keeps_w2(j))
                .map(|j| enc2.parity_w[j]),
        );
        Ok(out)
    }
}

/// Whether the couple at natural position `j` has its two bits swapped on
/// the way into the second constituent encoder: step 1 of the CTC
/// interleaver swaps every odd couple.
pub(crate) fn swaps_couple(j: usize) -> bool {
    j % 2 == 1
}

/// Parity streams produced by one CRSC constituent encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstituentOutput {
    /// Circulation (initial = final) state used.
    pub circulation_state: u8,
    /// Parity `Y` bit per couple.
    pub parity_y: Vec<u8>,
    /// Parity `W` bit per couple.
    pub parity_w: Vec<u8>,
}

/// Encodes one constituent CRSC code with circular termination.
///
/// # Errors
///
/// Returns [`TurboError::InvalidCirculation`] if the number of couples is a
/// multiple of 7.
pub fn encode_constituent(couples: &[(u8, u8)]) -> Result<ConstituentOutput, TurboError> {
    let n = couples.len();
    // Pass 1: find the final state from the all-zero initial state.
    let mut state = 0u8;
    for &(a, b) in couples {
        state = step(state, ((a & 1) << 1) | (b & 1)).next_state;
    }
    let sc =
        CirculationState::compute(n, state).ok_or(TurboError::InvalidCirculation { couples: n })?;
    // Pass 2: encode from the circulation state.
    let mut parity_y = Vec::with_capacity(n);
    let mut parity_w = Vec::with_capacity(n);
    let mut s = sc;
    for &(a, b) in couples {
        let out = step(s, ((a & 1) << 1) | (b & 1));
        parity_y.push(out.parity_y);
        parity_w.push(out.parity_w);
        s = out.next_state;
    }
    debug_assert_eq!(s, sc, "circular termination must close");
    Ok(ConstituentOutput {
        circulation_state: sc,
        parity_y,
        parity_w,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rate_accounting() {
        let code = CtcCode::wimax(24).unwrap();
        assert_eq!(code.info_bits(), 48);
        assert_eq!(code.coded_bits(), 96); // rate 1/2
        let code = CtcCode::with_rate(24, PunctureRate::R13).unwrap();
        assert_eq!(code.coded_bits(), 144); // rate 1/3
        let code = CtcCode::with_rate(24, PunctureRate::R23).unwrap();
        assert_eq!(code.coded_bits(), 72); // rate 2/3
    }

    #[test]
    fn paper_code_dimensions() {
        // Table II/III of the paper: DBTC N = 4800 transmitted as rate 1/2,
        // i.e. 2400 couples = 4800 information bits.
        let code = CtcCode::wimax(2400).unwrap();
        assert_eq!(code.info_bits(), 4800);
        assert_eq!(code.coded_bits(), 9600);
    }

    #[test]
    fn unsupported_sizes_rejected() {
        assert!(CtcCode::wimax(100).is_err());
        assert!(CtcCode::wimax(0).is_err());
    }

    #[test]
    fn from_interleaver_accepts_non_wimax_sizes() {
        // A 64-couple ARP permutation is not a WiMAX frame size but is a
        // perfectly valid duo-binary CTC (DVB-RCS defines one): the generic
        // constructor accepts it, the WiMAX one rejects it.
        let params = crate::ArpParameters {
            couples: 64,
            p0: 7,
            p1: 34,
            p2: 32,
            p3: 2,
        };
        let pi = Interleaver::arp(params).unwrap();
        let code = CtcCode::from_interleaver(pi, PunctureRate::R12).unwrap();
        assert_eq!(code.couples(), 64);
        assert_eq!(code.info_bits(), 128);
        assert_eq!(code.coded_bits(), 256);
        assert!(CtcCode::wimax(64).is_err());
        // the full encode path runs on it
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let info: Vec<u8> = (0..128).map(|_| rng.gen_range(0..=1)).collect();
        let cw = code.encode(&info).unwrap();
        assert_eq!(cw.len(), code.coded_bits());
        assert_eq!(
            &cw[..64],
            &info.iter().step_by(2).copied().collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn from_interleaver_rejects_multiples_of_seven() {
        // 28 couples: multiple of 4 (valid ARP) but of the CRSC period too.
        let params = crate::ArpParameters {
            couples: 28,
            p0: 5,
            p1: 0,
            p2: 0,
            p3: 0,
        };
        let pi = Interleaver::arp(params).unwrap();
        assert!(matches!(
            CtcCode::from_interleaver(pi, PunctureRate::R12),
            Err(TurboError::InvalidCirculation { couples: 28 })
        ));
    }

    #[test]
    fn constituent_encoding_is_circular() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let couples: Vec<(u8, u8)> = (0..48)
            .map(|_| (rng.gen_range(0..=1), rng.gen_range(0..=1)))
            .collect();
        let out = encode_constituent(&couples).unwrap();
        assert_eq!(out.parity_y.len(), 48);
        assert_eq!(out.parity_w.len(), 48);
        // re-run from the circulation state and confirm closure
        let mut s = out.circulation_state;
        for &(a, b) in &couples {
            s = step(s, (a << 1) | b).next_state;
        }
        assert_eq!(s, out.circulation_state);
    }

    #[test]
    fn constituent_rejects_multiples_of_seven() {
        let couples = vec![(0u8, 0u8); 14];
        assert!(matches!(
            encode_constituent(&couples),
            Err(TurboError::InvalidCirculation { couples: 14 })
        ));
    }

    #[test]
    fn all_zero_info_encodes_to_all_zero() {
        let code = CtcCode::wimax(24).unwrap();
        let cw = code.encode(&[0u8; 48]).unwrap();
        assert!(cw.iter().all(|&b| b == 0));
        assert_eq!(cw.len(), code.coded_bits());
    }

    #[test]
    fn systematic_prefix_matches_info() {
        let code = CtcCode::wimax(36).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let info: Vec<u8> = (0..72).map(|_| rng.gen_range(0..=1)).collect();
        let cw = code.encode(&info).unwrap();
        let n = code.couples();
        for j in 0..n {
            assert_eq!(cw[j], info[2 * j], "A[{j}]");
            assert_eq!(cw[n + j], info[2 * j + 1], "B[{j}]");
        }
    }

    #[test]
    fn encode_wrong_length_rejected() {
        let code = CtcCode::wimax(24).unwrap();
        assert!(matches!(
            code.encode(&[0u8; 10]),
            Err(TurboError::InvalidLength {
                expected: 48,
                actual: 10,
                ..
            })
        ));
    }

    #[test]
    fn encoding_is_deterministic_and_rate_dependent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let info: Vec<u8> = (0..96).map(|_| rng.gen_range(0..=1)).collect();
        let c12 = CtcCode::wimax(48).unwrap().encode(&info).unwrap();
        let c12b = CtcCode::wimax(48).unwrap().encode(&info).unwrap();
        assert_eq!(c12, c12b);
        let c13 = CtcCode::with_rate(48, PunctureRate::R13)
            .unwrap()
            .encode(&info)
            .unwrap();
        assert!(c13.len() > c12.len());
        // the rate-1/2 stream is a prefix-compatible subset: A and B sub-blocks agree
        assert_eq!(&c13[..96], &c12[..96]);
    }

    #[test]
    fn puncture_patterns_keep_expected_fraction() {
        let n = 240;
        for (rate, expect_parity) in [
            (PunctureRate::R13, 4 * n),
            (PunctureRate::R12, 2 * n),
            (PunctureRate::R23, n),
            (PunctureRate::R34, n / 2),
        ] {
            let parity: usize = (0..n)
                .map(|j| {
                    usize::from(rate.keeps_y1(j))
                        + usize::from(rate.keeps_w1(j))
                        + usize::from(rate.keeps_y2(j))
                        + usize::from(rate.keeps_w2(j))
                })
                .sum();
            assert_eq!(parity, expect_parity, "{rate:?}");
        }
    }
}

//! The turbo interleaver: one validated permutation type for every turbo
//! code of the workspace, and the almost-regular-permutation (ARP) law of
//! the duo-binary CTCs.
//!
//! An [`Interleaver`] maps each natural trellis section (a couple of the
//! duo-binary CTC, a bit of the binary LTE code) to its interleaved
//! position and holds the inverse map.  [`Interleaver::new`] is the one
//! place that checks a map is a bijection; both laws go through it:
//!
//! * the ARP law of 802.16e and DVB-RCS ([`Interleaver::arp`]), which
//!   permutes the couple positions as
//!
//!   ```text
//!   P(j) = (P0*j + 1 + Q(j)) mod N        with
//!   Q(j) = 0            for j = 0 (mod 4)
//!          N/2 + P1     for j = 1 (mod 4)
//!          P2           for j = 2 (mod 4)
//!          N/2 + P3     for j = 3 (mod 4)
//!   ```
//!
//! * the QPP law of LTE, which `code-tables` writes as the read order of
//!   the interleaved positions and turns around with
//!   [`Interleaver::inverted`] where it builds the code.
//!
//! The CTC's first interleaving step, the swap of the two bits of every
//! odd couple, is a rule of the CTC (`CtcCode`), not of the permutation.
//!
//! The `(P0, P1, P2, P3)` parameters per frame size follow the 802.16e CTC
//! channel-coding table.  Transcription of the larger sizes is best-effort
//! (not checked against the standard's text); every parameter set is
//! validated to be a permutation at construction time, so a transcription
//! slip can only shift BER performance marginally, never break correctness.

use crate::TurboError;

/// ARP parameter quadruple for a given frame size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArpParameters {
    /// Number of couples `N`.
    pub couples: usize,
    /// Multiplicative parameter `P0` (coprime with `N`).
    pub p0: usize,
    /// Additive parameter `P1`.
    pub p1: usize,
    /// Additive parameter `P2`.
    pub p2: usize,
    /// Additive parameter `P3`.
    pub p3: usize,
}

/// The WiMAX CTC interleaver parameter table, one entry per frame size in
/// couples (two information bits each), in ascending order: its `couples`
/// column is the list of 802.16e CTC frame sizes.
pub const WIMAX_ARP_TABLE: [ArpParameters; 17] = [
    ArpParameters {
        couples: 24,
        p0: 5,
        p1: 0,
        p2: 0,
        p3: 0,
    },
    ArpParameters {
        couples: 36,
        p0: 11,
        p1: 18,
        p2: 0,
        p3: 18,
    },
    ArpParameters {
        couples: 48,
        p0: 13,
        p1: 24,
        p2: 0,
        p3: 24,
    },
    ArpParameters {
        couples: 72,
        p0: 11,
        p1: 6,
        p2: 0,
        p3: 6,
    },
    ArpParameters {
        couples: 96,
        p0: 7,
        p1: 48,
        p2: 24,
        p3: 72,
    },
    ArpParameters {
        couples: 108,
        p0: 11,
        p1: 54,
        p2: 56,
        p3: 2,
    },
    ArpParameters {
        couples: 120,
        p0: 13,
        p1: 60,
        p2: 0,
        p3: 60,
    },
    ArpParameters {
        couples: 144,
        p0: 17,
        p1: 74,
        p2: 72,
        p3: 2,
    },
    ArpParameters {
        couples: 180,
        p0: 23,
        p1: 90,
        p2: 0,
        p3: 90,
    },
    ArpParameters {
        couples: 192,
        p0: 11,
        p1: 96,
        p2: 48,
        p3: 144,
    },
    ArpParameters {
        couples: 216,
        p0: 13,
        p1: 108,
        p2: 0,
        p3: 108,
    },
    ArpParameters {
        couples: 240,
        p0: 13,
        p1: 120,
        p2: 60,
        p3: 180,
    },
    ArpParameters {
        couples: 480,
        p0: 53,
        p1: 62,
        p2: 12,
        p3: 2,
    },
    ArpParameters {
        couples: 960,
        p0: 43,
        p1: 64,
        p2: 300,
        p3: 824,
    },
    ArpParameters {
        couples: 1440,
        p0: 43,
        p1: 720,
        p2: 360,
        p3: 540,
    },
    ArpParameters {
        couples: 1920,
        p0: 31,
        p1: 8,
        p2: 24,
        p3: 16,
    },
    ArpParameters {
        couples: 2400,
        p0: 53,
        p1: 66,
        p2: 24,
        p3: 2,
    },
];

/// A validated turbo interleaver: the interleaved position of every natural
/// trellis section, and the natural section at every interleaved position.
///
/// # Example
///
/// ```
/// use wimax_turbo::Interleaver;
///
/// let pi = Interleaver::new(vec![2, 0, 3, 1])?;
/// assert_eq!(pi.permute(0), 2);
/// assert_eq!(pi.inverse(2), 0);
/// // read the other way round, the same map is its own inverse
/// let back = pi.clone().inverted();
/// assert_eq!(back.permute(2), 0);
/// assert!(Interleaver::new(vec![0, 0, 1]).is_err());
/// # Ok::<(), wimax_turbo::TurboError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interleaver {
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl Interleaver {
    /// Validates `forward`, the interleaved position of every natural
    /// section, and builds its inverse.
    ///
    /// # Errors
    ///
    /// Returns [`TurboError::InvalidInterleaver`] if `forward` is empty or
    /// not a permutation of `0..forward.len()`.
    pub fn new(forward: Vec<usize>) -> Result<Self, TurboError> {
        if forward.is_empty() {
            return Err(TurboError::InvalidInterleaver);
        }
        let mut inverse = vec![usize::MAX; forward.len()];
        for (j, &p) in forward.iter().enumerate() {
            match inverse.get_mut(p) {
                Some(slot) if *slot == usize::MAX => *slot = j,
                _ => return Err(TurboError::InvalidInterleaver),
            }
        }
        Ok(Interleaver { forward, inverse })
    }

    /// The couple permutation of the ARP law with the given parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TurboError::InvalidInterleaver`] if the frame size is not a
    /// positive multiple of 4 or the parameters do not yield a bijection.
    pub fn arp(params: ArpParameters) -> Result<Self, TurboError> {
        let n = params.couples;
        if n == 0 || !n.is_multiple_of(4) {
            return Err(TurboError::InvalidInterleaver);
        }
        let forward = (0..n)
            .map(|j| {
                let q = match j % 4 {
                    0 => 0,
                    1 => n / 2 + params.p1,
                    2 => params.p2,
                    _ => n / 2 + params.p3,
                };
                (params.p0 * j + 1 + q) % n
            })
            .collect();
        Self::new(forward)
    }

    /// The same permutation read the other way round: natural and
    /// interleaved positions trade places.
    pub fn inverted(self) -> Self {
        Interleaver {
            forward: self.inverse,
            inverse: self.forward,
        }
    }

    /// Number of trellis sections.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Always `false`: an interleaver maps at least one section.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Interleaved position of natural section `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn permute(&self, j: usize) -> usize {
        self.forward[j]
    }

    /// Natural section at interleaved position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn inverse(&self, p: usize) -> usize {
        self.inverse[p]
    }

    /// The interleaved position of every natural section, in natural order.
    pub(crate) fn forward(&self) -> &[usize] {
        &self.forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::swaps_couple;
    use crate::CtcCode;

    /// Spread factor: the minimum over all section pairs `(i, j)` with
    /// `|i - j| <= window` (cyclically) of `|permute(i) - permute(j)| +
    /// |i - j|`.  A larger spread gives better turbo-code distance.
    fn spread(pi: &Interleaver, window: usize) -> usize {
        let n = pi.len();
        let mut best = usize::MAX;
        for i in 0..n {
            for d in 1..=window.min(n - 1) {
                let j = (i + d) % n;
                let (pi, pj) = (pi.permute(i) as isize, pi.permute(j) as isize);
                let dp = (pi - pj).unsigned_abs().min(n - (pi - pj).unsigned_abs());
                best = best.min(d.min(n - d) + dp);
            }
        }
        best
    }

    fn wimax(couples: usize) -> Interleaver {
        let params = WIMAX_ARP_TABLE.iter().find(|p| p.couples == couples);
        Interleaver::arp(*params.expect("a WiMAX frame size")).unwrap()
    }

    #[test]
    fn all_wimax_sizes_are_permutations() {
        for params in WIMAX_ARP_TABLE {
            let n = params.couples;
            let pi = Interleaver::arp(params).unwrap_or_else(|e| panic!("size {n}: {e}"));
            let mut seen = vec![false; n];
            for j in 0..n {
                let p = pi.permute(j);
                assert!(!seen[p], "size {n}: position {p} hit twice");
                seen[p] = true;
                assert_eq!(pi.inverse(p), j);
            }
        }
    }

    #[test]
    fn unsupported_size_is_rejected() {
        assert!(WIMAX_ARP_TABLE.iter().all(|p| p.couples != 100));
        assert_eq!(
            CtcCode::wimax(100),
            Err(TurboError::UnsupportedFrameSize { couples: 100 })
        );
    }

    #[test]
    fn non_multiple_of_four_is_rejected() {
        let params = ArpParameters {
            couples: 26,
            p0: 5,
            p1: 0,
            p2: 0,
            p3: 0,
        };
        assert_eq!(
            Interleaver::arp(params),
            Err(TurboError::InvalidInterleaver)
        );
    }

    #[test]
    fn even_p0_is_not_a_permutation() {
        let params = ArpParameters {
            couples: 24,
            p0: 6,
            p1: 0,
            p2: 0,
            p3: 0,
        };
        assert_eq!(
            Interleaver::arp(params),
            Err(TurboError::InvalidInterleaver)
        );
    }

    #[test]
    fn inverted_trades_the_two_directions() {
        let pi = wimax(48);
        let back = pi.clone().inverted();
        for j in 0..48 {
            assert_eq!(back.permute(pi.permute(j)), j);
            assert_eq!(back.inverse(j), pi.permute(j));
        }
        assert_eq!(back.inverted(), pi);
    }

    #[test]
    fn swap_rule_is_odd_positions() {
        assert!(!swaps_couple(0));
        assert!(swaps_couple(1));
        assert!(!swaps_couple(2));
    }

    #[test]
    fn interleave_couples_applies_swap_and_permutation() {
        let code = CtcCode::wimax(24).unwrap();
        let pi = code.interleaver();
        let couples: Vec<(u8, u8)> = (0..24).map(|i| (i as u8, 100 + i as u8)).collect();
        let out = code.interleaved_couples(&couples);
        for j in 0..24 {
            let expected = if j % 2 == 1 {
                (couples[j].1, couples[j].0)
            } else {
                couples[j]
            };
            assert_eq!(out[pi.permute(j)], expected);
        }
    }

    #[test]
    #[should_panic(expected = "frame size mismatch")]
    fn interleave_wrong_length_panics() {
        let code = CtcCode::wimax(24).unwrap();
        let _ = code.interleaved_couples(&[(0u8, 0u8); 10]);
    }

    #[test]
    fn interleaver_has_nontrivial_spread() {
        let pi = wimax(240);
        // neighbouring couples must be sent far apart
        assert!(spread(&pi, 4) >= 8, "spread = {}", spread(&pi, 4));
    }

    #[test]
    fn table_covers_every_wimax_size_once() {
        // strictly ascending: no size twice, in the registry's order
        for pair in WIMAX_ARP_TABLE.windows(2) {
            assert!(pair[0].couples < pair[1].couples, "{pair:?}");
        }
    }
}

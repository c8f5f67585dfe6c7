//! The two-step almost-regular-permutation (ARP) interleaver of the WiMAX CTC.
//!
//! Step 1 swaps the two bits of every odd-indexed couple; step 2 permutes the
//! couple positions with the ARP law
//!
//! ```text
//! P(j) = (P0*j + 1 + Q(j)) mod N        with
//! Q(j) = 0            for j = 0 (mod 4)
//!        N/2 + P1     for j = 1 (mod 4)
//!        P2           for j = 2 (mod 4)
//!        N/2 + P3     for j = 3 (mod 4)
//! ```
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

/// The WiMAX CTC interleaver parameter table (frame size in couples).
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

/// A validated ARP interleaver: a couple-level permutation plus the per-couple
/// bit swap of step 1.
///
/// # Example
///
/// ```
/// use wimax_turbo::ArpInterleaver;
///
/// let pi = ArpInterleaver::wimax(24)?;
/// assert_eq!(pi.len(), 24);
/// // the map is a bijection
/// let mut seen = vec![false; 24];
/// for j in 0..24 {
///     seen[pi.permute(j)] = true;
/// }
/// assert!(seen.iter().all(|&s| s));
/// # Ok::<(), wimax_turbo::TurboError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArpInterleaver {
    params: ArpParameters,
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl ArpInterleaver {
    /// Builds the interleaver for a WiMAX frame size (in couples).
    ///
    /// # Errors
    ///
    /// Returns [`TurboError::UnsupportedFrameSize`] for sizes outside the
    /// WiMAX table, or [`TurboError::InvalidInterleaver`] if the table entry
    /// does not describe a permutation.
    pub fn wimax(couples: usize) -> Result<Self, TurboError> {
        let params = WIMAX_ARP_TABLE
            .iter()
            .find(|p| p.couples == couples)
            .copied()
            .ok_or(TurboError::UnsupportedFrameSize { couples })?;
        Self::from_parameters(params)
    }

    /// Builds the interleaver from explicit ARP parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TurboError::InvalidInterleaver`] if the parameters do not
    /// yield a bijection.
    pub fn from_parameters(params: ArpParameters) -> Result<Self, TurboError> {
        let n = params.couples;
        if n == 0 || !n.is_multiple_of(4) {
            return Err(TurboError::InvalidInterleaver);
        }
        let mut forward = vec![0usize; n];
        for (j, f) in forward.iter_mut().enumerate() {
            let q = match j % 4 {
                0 => 0,
                1 => n / 2 + params.p1,
                2 => params.p2,
                _ => n / 2 + params.p3,
            };
            *f = (params.p0 * j + 1 + q) % n;
        }
        let mut inverse = vec![usize::MAX; n];
        for (j, &p) in forward.iter().enumerate() {
            if inverse[p] != usize::MAX {
                return Err(TurboError::InvalidInterleaver);
            }
            inverse[p] = j;
        }
        Ok(ArpInterleaver {
            params,
            forward,
            inverse,
        })
    }

    /// The ARP parameters.
    pub fn parameters(&self) -> ArpParameters {
        self.params
    }

    /// Frame size in couples.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Returns `true` if the frame size is zero (never for valid parameters).
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Interleaved position of couple `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn permute(&self, j: usize) -> usize {
        self.forward[j]
    }

    /// Natural position feeding interleaved position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn inverse(&self, p: usize) -> usize {
        self.inverse[p]
    }

    /// Whether the couple at *natural* position `j` has its two bits swapped
    /// (step 1 of the interleaver; odd positions are swapped).
    pub fn swaps_couple(&self, j: usize) -> bool {
        j % 2 == 1
    }

    /// Interleaves a sequence of couples given as `(a, b)` pairs, applying
    /// both the bit swap and the position permutation: output position
    /// `permute(j)` receives the (possibly swapped) couple `j`.
    ///
    /// # Panics
    ///
    /// Panics if `couples.len() != self.len()`.
    pub fn interleave_couples<T: Copy>(&self, couples: &[(T, T)]) -> Vec<(T, T)> {
        assert_eq!(couples.len(), self.len(), "frame size mismatch");
        let mut out = vec![couples[0]; couples.len()];
        for (j, &(a, b)) in couples.iter().enumerate() {
            let v = if self.swaps_couple(j) { (b, a) } else { (a, b) };
            out[self.permute(j)] = v;
        }
        out
    }

    /// Spread factor: the minimum over all couple pairs `(i, j)` with
    /// `|i - j| <= window` of `|permute(i) - permute(j)| + |i - j|`.  A larger
    /// spread gives better turbo-code distance properties; exposed for
    /// diagnostics and interleaver-quality tests.
    pub fn spread(&self, window: usize) -> usize {
        let n = self.len();
        let mut best = usize::MAX;
        for i in 0..n {
            for d in 1..=window.min(n - 1) {
                let j = (i + d) % n;
                let pi = self.forward[i] as isize;
                let pj = self.forward[j] as isize;
                let dp = (pi - pj).unsigned_abs().min(n - (pi - pj).unsigned_abs());
                let spread = d.min(n - d) + dp;
                best = best.min(spread);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WIMAX_FRAME_SIZES;

    #[test]
    fn all_wimax_sizes_are_permutations() {
        for &n in &WIMAX_FRAME_SIZES {
            let pi = ArpInterleaver::wimax(n).unwrap_or_else(|e| panic!("size {n}: {e}"));
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
        assert!(matches!(
            ArpInterleaver::wimax(100),
            Err(TurboError::UnsupportedFrameSize { couples: 100 })
        ));
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
            ArpInterleaver::from_parameters(params),
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
            ArpInterleaver::from_parameters(params),
            Err(TurboError::InvalidInterleaver)
        );
    }

    #[test]
    fn swap_rule_is_odd_positions() {
        let pi = ArpInterleaver::wimax(24).unwrap();
        assert!(!pi.swaps_couple(0));
        assert!(pi.swaps_couple(1));
        assert!(!pi.swaps_couple(2));
    }

    #[test]
    fn interleave_couples_applies_swap_and_permutation() {
        let pi = ArpInterleaver::wimax(24).unwrap();
        let couples: Vec<(u8, u8)> = (0..24).map(|i| (i as u8, 100 + i as u8)).collect();
        let out = pi.interleave_couples(&couples);
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
        let pi = ArpInterleaver::wimax(24).unwrap();
        let _ = pi.interleave_couples(&[(0u8, 0u8); 10]);
    }

    #[test]
    fn interleaver_has_nontrivial_spread() {
        let pi = ArpInterleaver::wimax(240).unwrap();
        // neighbouring couples must be sent far apart
        assert!(pi.spread(4) >= 8, "spread = {}", pi.spread(4));
    }

    #[test]
    fn table_covers_every_wimax_size_once() {
        assert_eq!(WIMAX_ARP_TABLE.len(), WIMAX_FRAME_SIZES.len());
        for &n in &WIMAX_FRAME_SIZES {
            assert_eq!(
                WIMAX_ARP_TABLE.iter().filter(|p| p.couples == n).count(),
                1,
                "size {n}"
            );
        }
    }
}

//! The Minimum Extraction Unit (MEU) of the paper's LDPC decoding core.
//!
//! The hardware core (paper Fig. 2) compares the `Q_lk` values of a parity
//! check sequentially and keeps the two smallest magnitudes, the index of the
//! smallest, and the product of the signs.  With these four quantities every
//! outgoing normalized-min-sum message of the check can be produced
//! (Eq. (11) of the paper).

/// Sequential two-minimum extractor with sign accumulation.
///
/// # Example
///
/// ```
/// use wimax_ldpc::decoder::MinimumExtractionUnit;
///
/// let mut meu = MinimumExtractionUnit::new();
/// for (i, q) in [3.0, -1.0, 2.0, -5.0].iter().enumerate() {
///     meu.push(i, *q);
/// }
/// assert_eq!(meu.min1(), 1.0);
/// assert_eq!(meu.min2(), 2.0);
/// assert_eq!(meu.min1_index(), Some(1));
/// assert_eq!(meu.sign_product(), 1.0);   // two negatives
/// // message to the position holding the minimum uses min2:
/// assert_eq!(meu.magnitude_for(1), 2.0);
/// assert_eq!(meu.magnitude_for(0), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinimumExtractionUnit {
    min1: f64,
    min2: f64,
    min1_index: Option<usize>,
    sign_product: f64,
    count: usize,
}

impl Default for MinimumExtractionUnit {
    fn default() -> Self {
        Self::new()
    }
}

impl MinimumExtractionUnit {
    /// Creates an empty MEU.
    pub fn new() -> Self {
        MinimumExtractionUnit {
            min1: f64::INFINITY,
            min2: f64::INFINITY,
            min1_index: None,
            sign_product: 1.0,
            count: 0,
        }
    }

    /// Feeds one `Q_lk` value (signed) into the unit.
    ///
    /// Like the hardware comparators, the unit has no data-dependent
    /// control: magnitudes are compared and selected as their bit patterns,
    /// which compiles to integer compares feeding `cmov` on x86-64, where
    /// float compares here compile to a `ucomisd` and a conditional jump.
    /// Non-negative f64 values order like their bits, and a NaN magnitude
    /// sorts above `INFINITY`, so, as with a float `<`, it never becomes a
    /// minimum.
    #[inline]
    pub fn push(&mut self, index: usize, q: f64) {
        let mag = q.abs().to_bits();
        let (min1, min2) = (self.min1.to_bits(), self.min2.to_bits());
        let below_min1 = mag < min1;
        // A new minimum hands the old one down to `min2`.
        self.min2 = f64::from_bits(min2.min(mag.max(min1)));
        self.min1 = f64::from_bits(min1.min(mag));
        self.min1_index = if below_min1 {
            Some(index)
        } else {
            self.min1_index
        };
        self.sign_product = if q < 0.0 {
            -self.sign_product
        } else {
            self.sign_product
        };
        self.count += 1;
    }

    /// Smallest magnitude seen so far (infinite if empty).
    pub fn min1(&self) -> f64 {
        self.min1
    }

    /// Second-smallest magnitude seen so far (infinite if fewer than two
    /// values were pushed).
    pub fn min2(&self) -> f64 {
        self.min2
    }

    /// Index of the smallest-magnitude input.
    pub fn min1_index(&self) -> Option<usize> {
        self.min1_index
    }

    /// Product of the signs of all inputs (`+1.0` or `-1.0`).
    pub fn sign_product(&self) -> f64 {
        self.sign_product
    }

    /// Number of values pushed.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` if nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The outgoing message magnitude for input position `index`
    /// (min-sum exclusion rule: the position holding the minimum receives the
    /// second minimum, every other position receives the minimum).
    ///
    /// A degree-1 check (or an empty unit) has no leave-one-out partner: the
    /// corresponding minimum is still at its `INFINITY` sentinel, and
    /// propagating it would inject non-finite `R` messages into the decoder.
    /// Such positions receive a `0.0` message instead (the check carries no
    /// extrinsic information).
    pub fn magnitude_for(&self, index: usize) -> f64 {
        let magnitude = if Some(index) == self.min1_index {
            self.min2
        } else {
            self.min1
        };
        if magnitude.is_finite() {
            magnitude
        } else {
            0.0
        }
    }

    /// Batch two-minimum extraction over a quantized check row — the
    /// fixed-point, SIMD-friendly counterpart of feeding every `Q_lk` through
    /// [`push`](MinimumExtractionUnit::push).
    ///
    /// The scan is written as two branch-light reduction passes (min/select
    /// and compare/count) so the autovectorizer can emit packed integer
    /// min/cmp instructions; `cargo bench -p decoder-bench --bench kernels`
    /// compares it against the sequential scalar unit.
    ///
    /// Degenerate rows follow the same convention as
    /// [`magnitude_for`](MinimumExtractionUnit::magnitude_for): a degree-1
    /// row reports `min2 = 0`, an empty row reports all-zero results.
    #[inline]
    pub fn scan(q: &[i16]) -> TwoMinScan {
        if q.is_empty() {
            return TwoMinScan {
                min1: 0,
                min2: 0,
                min1_pos: 0,
                negative_parity: false,
            };
        }
        // Pass 1: global minimum magnitude and the parity of the signs.
        let mut min1 = i16::MAX;
        let mut negatives = 0u32;
        for &v in q {
            min1 = min1.min(v.saturating_abs());
            negatives += u32::from(v < 0);
        }
        // Pass 2: second minimum, first position of the minimum, and the
        // number of entries tied at the minimum (select-based, no branches).
        let mut min2 = i16::MAX;
        let mut ties = 0u32;
        let mut pos = u32::MAX;
        for (i, &v) in q.iter().enumerate() {
            let mag = v.saturating_abs();
            let at_min = mag == min1;
            min2 = min2.min(if at_min { i16::MAX } else { mag });
            ties += u32::from(at_min);
            pos = pos.min(if at_min { i as u32 } else { u32::MAX });
        }
        let min2 = if ties > 1 {
            min1
        } else if q.len() < 2 {
            0 // degree-1 row: no leave-one-out partner
        } else {
            min2
        };
        TwoMinScan {
            min1,
            min2,
            min1_pos: pos,
            negative_parity: negatives % 2 == 1,
        }
    }
}

/// Lockstep two-minimum extraction over `B` frame lanes: the MEU state of
/// one check row for a whole batch of frames, fed one `[i16; B]` position
/// at a time so the decoder can fuse it with the `Q_lk` computation.
///
/// Each lane follows [`MinimumExtractionUnit::scan`] bit for bit on rows of
/// degree ≥ 2 (the only rows the decoder accepts): the select recurrence
/// `min2 = min(min2, max(min1, mag))` folds the tie convention in for free,
/// since a magnitude tied with the running minimum lands in `min2`.
#[derive(Debug)]
pub(crate) struct LaneScan<const B: usize> {
    /// Smallest input magnitude per lane.
    pub(crate) min1: [i16; B],
    /// Second-smallest input magnitude per lane (equal to `min1` on ties).
    pub(crate) min2: [i16; B],
    /// Position of the first input holding `min1`, per lane.
    pub(crate) min1_pos: [u16; B],
    /// XOR of every input per lane: the sign bit is set exactly when an odd
    /// number of inputs were negative, so `(q ^ sign) < 0` is the sign of
    /// the message excluding `q`.
    pub(crate) sign: [i16; B],
}

impl<const B: usize> Default for LaneScan<B> {
    /// An empty scan.
    fn default() -> Self {
        LaneScan {
            min1: [i16::MAX; B],
            min2: [i16::MAX; B],
            min1_pos: [0; B],
            sign: [0; B],
        }
    }
}

impl<const B: usize> LaneScan<B> {
    /// Feeds input position `pos` of every lane.  Branch-free selects only,
    /// one short loop per step: each loop fully unrolls into a few vector
    /// instructions even at `B = 16`, where one fused lane loop stays a
    /// scalar loop.
    #[inline(always)]
    pub(crate) fn push(&mut self, pos: u16, q: [i16; B]) {
        // `saturating_abs` as a saturating negate and a max.
        let mag = q.map(|v| v.max(v.saturating_neg()));
        for (sign, v) in self.sign.iter_mut().zip(q) {
            *sign ^= v;
        }
        for ((min2, m), min1) in self.min2.iter_mut().zip(mag).zip(self.min1) {
            *min2 = (*min2).min(m.max(min1));
        }
        for ((first, m), min1) in self.min1_pos.iter_mut().zip(mag).zip(self.min1) {
            *first = if m < min1 { pos } else { *first };
        }
        for (min1, m) in self.min1.iter_mut().zip(mag) {
            *min1 = (*min1).min(m);
        }
    }
}

/// Result of [`MinimumExtractionUnit::scan`]: the four quantities the
/// hardware MEU keeps per check row (paper Fig. 2), on the integer datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoMinScan {
    /// Smallest input magnitude.
    pub min1: i16,
    /// Second-smallest input magnitude (equal to `min1` on ties; `0` for
    /// degree-1 rows, which have no leave-one-out partner).
    pub min2: i16,
    /// Position (within the scanned slice) of the first input holding `min1`.
    pub min1_pos: u32,
    /// `true` if an odd number of inputs were negative (sign product `-1`).
    pub negative_parity: bool,
}

impl TwoMinScan {
    /// Min-sum exclusion rule: the position holding the minimum receives the
    /// second minimum, every other position receives the minimum.
    #[inline]
    pub fn magnitude_for(&self, pos: usize) -> i16 {
        if pos as u32 == self.min1_pos {
            self.min2
        } else {
            self.min1
        }
    }
}

/// Inputs at or past the edges of f64 arithmetic, for the MEU's and the
/// decoder's tests.
#[cfg(test)]
pub(super) const SPECIAL_VALUES: [f64; 10] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e308,
    -1e308,
    5e-324,
    -2.5e-310,
];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_unit() {
        let meu = MinimumExtractionUnit::new();
        assert!(meu.is_empty());
        assert_eq!(meu.len(), 0);
        assert_eq!(meu.min1(), f64::INFINITY);
        assert_eq!(meu.min1_index(), None);
        assert_eq!(meu.sign_product(), 1.0);
    }

    #[test]
    fn single_value() {
        let mut meu = MinimumExtractionUnit::new();
        meu.push(3, -2.0);
        assert_eq!(meu.min1(), 2.0);
        assert_eq!(meu.min2(), f64::INFINITY);
        assert_eq!(meu.min1_index(), Some(3));
        assert_eq!(meu.sign_product(), -1.0);
    }

    #[test]
    fn duplicate_minimum_values() {
        let mut meu = MinimumExtractionUnit::new();
        meu.push(0, 1.5);
        meu.push(1, 1.5);
        meu.push(2, 4.0);
        assert_eq!(meu.min1(), 1.5);
        assert_eq!(meu.min2(), 1.5);
        assert_eq!(meu.min1_index(), Some(0));
        // position 0 holds min1, so it receives min2 == 1.5 as well
        assert_eq!(meu.magnitude_for(0), 1.5);
        assert_eq!(meu.magnitude_for(2), 1.5);
    }

    #[test]
    fn sign_product_tracks_parity_of_negatives() {
        let mut meu = MinimumExtractionUnit::new();
        for (i, v) in [-1.0, -2.0, -3.0].iter().enumerate() {
            meu.push(i, *v);
        }
        assert_eq!(meu.sign_product(), -1.0);
        meu.push(4, -0.5);
        assert_eq!(meu.sign_product(), 1.0);
    }

    #[test]
    fn degree_one_check_yields_zero_magnitude() {
        // Regression: a degree-1 row used to return `f64::INFINITY` from
        // `magnitude_for`, making the layered/flooding update emit
        // non-finite R messages.
        let mut meu = MinimumExtractionUnit::new();
        meu.push(0, -3.5);
        assert_eq!(meu.magnitude_for(0), 0.0);
        // Positions other than the single entry still see the plain minimum.
        assert_eq!(meu.magnitude_for(1), 3.5);
        // An empty unit is fully degenerate: every position gets zero.
        let empty = MinimumExtractionUnit::new();
        assert_eq!(empty.magnitude_for(0), 0.0);
    }

    #[test]
    fn scan_matches_sequential_unit() {
        let values: [i16; 6] = [12, -3, 7, -3, 20, 5];
        let scan = MinimumExtractionUnit::scan(&values);
        let mut meu = MinimumExtractionUnit::new();
        for (i, &v) in values.iter().enumerate() {
            meu.push(i, f64::from(v));
        }
        assert_eq!(f64::from(scan.min1), meu.min1());
        assert_eq!(f64::from(scan.min2), meu.min2());
        assert_eq!(scan.min1_pos as usize, meu.min1_index().unwrap());
        assert_eq!(scan.negative_parity, meu.sign_product() < 0.0);
        for i in 0..values.len() {
            assert_eq!(f64::from(scan.magnitude_for(i)), meu.magnitude_for(i));
        }
    }

    #[test]
    fn scan_handles_degenerate_rows() {
        let empty = MinimumExtractionUnit::scan(&[]);
        assert_eq!((empty.min1, empty.min2), (0, 0));
        assert!(!empty.negative_parity);

        let single = MinimumExtractionUnit::scan(&[-9]);
        assert_eq!(single.min1, 9);
        assert_eq!(single.min2, 0, "degree-1 rows carry no extrinsic message");
        assert_eq!(single.min1_pos, 0);
        assert!(single.negative_parity);
    }

    #[test]
    fn scan_tie_at_minimum_uses_min1_for_everyone() {
        let scan = MinimumExtractionUnit::scan(&[4, -4, 10]);
        assert_eq!(scan.min1, 4);
        assert_eq!(scan.min2, 4);
        assert_eq!(scan.min1_pos, 0);
        for i in 0..3 {
            assert_eq!(scan.magnitude_for(i), 4);
        }
    }

    #[test]
    fn scan_saturates_i16_min_magnitude() {
        let scan = MinimumExtractionUnit::scan(&[i16::MIN, 5]);
        assert_eq!(scan.min1, 5);
        assert_eq!(scan.min2, i16::MAX);
        assert!(scan.negative_parity);
    }

    /// Replaces `values[i]` by `SPECIAL_VALUES[picks[i]]` wherever that
    /// index exists, so about half the positions carry a special value.
    fn with_special_values(mut values: Vec<f64>, picks: &[usize]) -> Vec<f64> {
        for (v, &pick) in values.iter_mut().zip(picks) {
            if let Some(&special) = SPECIAL_VALUES.get(pick) {
                *v = special;
            }
        }
        values
    }

    /// Feeds per-lane rows (`lanes[f]` is lane `f`'s row) through a
    /// `LaneScan<B>` position by position.
    fn lane_scan<const B: usize>(lanes: &[Vec<i16>; B]) -> LaneScan<B> {
        let mut meu = LaneScan::<B>::default();
        for (pos, j) in (0u16..).zip(0..lanes[0].len()) {
            meu.push(pos, std::array::from_fn(|f| lanes[f][j]));
        }
        meu
    }

    fn assert_lane_matches_scan<const B: usize>(meu: &LaneScan<B>, lane: usize, values: &[i16]) {
        let scan = MinimumExtractionUnit::scan(values);
        assert_eq!(meu.min1[lane], scan.min1, "lane {lane} min1");
        assert_eq!(meu.min2[lane], scan.min2, "lane {lane} min2");
        assert_eq!(
            u32::from(meu.min1_pos[lane]),
            scan.min1_pos,
            "lane {lane} pos"
        );
        assert_eq!(
            meu.sign[lane] < 0,
            scan.negative_parity,
            "lane {lane} parity"
        );
    }

    #[test]
    fn scan_batch_matches_per_lane_scan() {
        let lanes = [
            vec![12, -3, 7, -3, 20, 5],
            vec![4, -4, 10, 1, 1, 9],
            vec![-9, 63, -63, 0, 2, -2],
        ];
        let meu = lane_scan(&lanes);
        for (f, lane) in lanes.iter().enumerate() {
            assert_lane_matches_scan(&meu, f, lane);
        }
    }

    /// Degree-2 rows, the smallest the decoder accepts, with degenerate
    /// contents per lane: a tie at the minimum, an `i16::MIN` whose
    /// magnitude saturates, and all zeros.
    #[test]
    fn scan_batch_handles_degenerate_rows_per_lane() {
        let lanes = [
            vec![-9, 5],
            vec![4, -4],
            vec![i16::MIN, 5],
            vec![i16::MIN, i16::MIN],
            vec![0, 0],
        ];
        let meu = lane_scan(&lanes);
        for (f, lane) in lanes.iter().enumerate() {
            assert_lane_matches_scan(&meu, f, lane);
        }
    }

    proptest! {
        #[test]
        fn scan_batch_agrees_with_scan_on_every_lane(
            rows in proptest::collection::vec(
                proptest::collection::vec(-64i16..=63, 2..24), 16)
        ) {
            // Ragged draws are cut to the shortest row: one degree per batch.
            let degree = rows.iter().map(Vec::len).min().unwrap_or(2);
            let lanes: [Vec<i16>; 16] = std::array::from_fn(|f| rows[f][..degree].to_vec());
            let meu = lane_scan(&lanes);
            for (f, lane) in lanes.iter().enumerate() {
                let scan = MinimumExtractionUnit::scan(lane);
                prop_assert_eq!(meu.min1[f], scan.min1);
                prop_assert_eq!(meu.min2[f], scan.min2);
                prop_assert_eq!(u32::from(meu.min1_pos[f]), scan.min1_pos);
                prop_assert_eq!(meu.sign[f] < 0, scan.negative_parity);
            }
        }

        #[test]
        fn scan_agrees_with_sequential_unit(values in proptest::collection::vec(-64i16..=63, 1..24)) {
            let scan = MinimumExtractionUnit::scan(&values);
            let mut meu = MinimumExtractionUnit::new();
            for (i, &v) in values.iter().enumerate() {
                meu.push(i, f64::from(v));
            }
            prop_assert_eq!(f64::from(scan.min1), meu.min1());
            prop_assert_eq!(scan.min1_pos as usize, meu.min1_index().unwrap());
            prop_assert_eq!(scan.negative_parity, meu.sign_product() < 0.0);
            for i in 0..values.len() {
                prop_assert_eq!(f64::from(scan.magnitude_for(i)), meu.magnitude_for(i));
            }
        }

        #[test]
        fn matches_naive_two_minimum(
            values in proptest::collection::vec(-10.0f64..10.0, 2..20),
            picks in proptest::collection::vec(0..2 * SPECIAL_VALUES.len(), 20),
        ) {
            let values = with_special_values(values, &picks);
            let mut meu = MinimumExtractionUnit::new();
            for (i, v) in values.iter().enumerate() {
                meu.push(i, *v);
            }
            // A NaN never becomes a minimum, and an infinity only ties the
            // empty unit's `INFINITY`.
            let mut mags: Vec<f64> = values.iter().filter(|v| !v.is_nan()).map(|v| v.abs()).collect();
            mags.sort_by(f64::total_cmp);
            let nth = |i: usize| mags.get(i).copied().unwrap_or(f64::INFINITY);
            prop_assert_eq!(meu.min1().to_bits(), nth(0).to_bits());
            prop_assert_eq!(meu.min2().to_bits(), nth(1).to_bits());
            let negs = values.iter().filter(|v| **v < 0.0).count();
            let expected_sign = if negs % 2 == 0 { 1.0 } else { -1.0 };
            prop_assert_eq!(meu.sign_product(), expected_sign);
        }

        #[test]
        fn exclusion_rule_matches_per_position_min(
            values in proptest::collection::vec(-10.0f64..10.0, 2..15),
            picks in proptest::collection::vec(0..2 * SPECIAL_VALUES.len(), 15),
        ) {
            let values = with_special_values(values, &picks);
            let mut meu = MinimumExtractionUnit::new();
            for (i, v) in values.iter().enumerate() {
                meu.push(i, *v);
            }
            for i in 0..values.len() {
                let naive = values
                    .iter()
                    .enumerate()
                    .filter(|(j, v)| *j != i && !v.is_nan())
                    .map(|(_, v)| v.abs())
                    .fold(f64::INFINITY, f64::min);
                // The MEU reproduces the leave-one-out minimum exactly unless
                // the excluded position ties with another equal minimum, in
                // which case both give the same value anyway.  With no finite
                // partner the message is zero.
                let naive = if naive.is_finite() { naive } else { 0.0 };
                prop_assert_eq!(meu.magnitude_for(i).to_bits(), naive.to_bits());
            }
        }
    }
}

//! The Minimum Extraction Unit (MEU) of the paper's LDPC decoding core.
//!
//! The hardware core (paper Fig. 2) compares the `Q_lk` values of a parity
//! check sequentially and keeps the two smallest magnitudes, the index of the
//! smallest, and the product of the signs.  With these four quantities every
//! outgoing normalized-min-sum message of the check can be produced
//! (Eq. (11) of the paper).

/// The paper's MEU on the fixed-point datapath: [`scan`] reduces one
/// quantized check row to the four quantities of [`TwoMinScan`].  The
/// decoders run its lane forms: `LaneScan` (q7, one lane per frame) and
/// `LayerScan` (f64, one lane per check row of a layer).
///
/// [`scan`]: MinimumExtractionUnit::scan
///
/// # Example
///
/// ```
/// use wimax_ldpc::decoder::MinimumExtractionUnit;
///
/// let scan = MinimumExtractionUnit::scan(&[3, -1, 2, -5]);
/// assert_eq!((scan.min1, scan.min2), (1, 2));
/// assert_eq!(scan.min1_pos, 1);
/// assert!(!scan.negative_parity); // two negatives
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimumExtractionUnit;

impl MinimumExtractionUnit {
    /// Two-minimum extraction over a quantized check row.
    ///
    /// The scan is written as two branch-light reduction passes (min/select
    /// and compare/count) so the autovectorizer can emit packed integer
    /// min/cmp instructions; `cargo bench -p decoder-bench --bench kernels`
    /// times it (`meu_two_min_deg7_x4096/batch_scan_i16`).
    ///
    /// A degree-1 row has no leave-one-out partner and reports `min2 = 0`;
    /// an empty row reports all-zero results.
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

/// Check rows per [`LayerScan`]: each of its four quantities fills two
/// SSE2 registers.
pub(crate) const ROW_LANES: usize = 4;

/// Two-minimum extraction over [`ROW_LANES`] check rows of one layer, one
/// f64 lane per row, like the paper's PE updating a block row's checks in
/// parallel.  It is fed one non-zero block at a time, as the `Q_lk` of
/// every row at that block's position, and keeps the MEU's four quantities
/// per lane; [`messages`](LayerScan::messages) then turns them into each
/// row's two signed messages (Eq. (11)).
///
/// Every select is a bit-mask blend ([`select`]): an `if` between f64
/// values compiles to branches in these loops, a blend to packed SSE2
/// compares and logic.  SSE2 has no 64-bit integer compare, so magnitudes
/// are compared as f64 values and the first minimum's position is an f64
/// lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LayerScan {
    /// Smallest input magnitude per lane, `INFINITY` while empty; after
    /// [`messages`](LayerScan::messages), the signed message to every
    /// position but the first minimum's.
    min1: [f64; ROW_LANES],
    /// Second-smallest input magnitude per lane (equal to `min1` on ties);
    /// after `messages`, the signed message to the first minimum's
    /// position.
    min2: [f64; ROW_LANES],
    /// Position of the first input holding `min1`, −1 while there is none.
    first: [f64; ROW_LANES],
    /// Sign bit set when an odd number of inputs were negative (`< 0.0`).
    parity: [u64; ROW_LANES],
}

impl Default for LayerScan {
    /// An empty scan.
    fn default() -> Self {
        LayerScan {
            min1: [f64::INFINITY; ROW_LANES],
            min2: [f64::INFINITY; ROW_LANES],
            first: [-1.0; ROW_LANES],
            parity: [0; ROW_LANES],
        }
    }
}

impl LayerScan {
    /// Feeds input position `pos`: `q[lane]` is that lane's `Q_lk`.  In
    /// this order a NaN magnitude enters neither minimum, since every
    /// compare with it is false.
    #[inline(always)]
    pub(crate) fn push(&mut self, pos: f64, q: &[f64; ROW_LANES]) {
        for lane in 0..ROW_LANES {
            let (q, min1) = (q[lane], self.min1[lane]);
            let mag = q.abs();
            let below = mag < min1;
            // A new minimum hands the old one down to `min2`.
            let demoted = select(below, min1, mag);
            self.min2[lane] = select(demoted < self.min2[lane], demoted, self.min2[lane]);
            self.first[lane] = select(below, pos, self.first[lane]);
            self.min1[lane] = select(below, mag, min1);
            self.parity[lane] ^= u64::from(q < 0.0) << 63;
        }
    }

    /// Replaces every lane's two minima by its two outgoing messages,
    /// `scale` times the sign product times `(min - offset).max(0.0)`.  A
    /// minimum still at its `INFINITY` sentinel (a degree-1 row, or NaN
    /// inputs only) has no leave-one-out partner and sends a `0.0`
    /// magnitude: a non-finite `R` would poison λ.
    #[inline(always)]
    pub(crate) fn messages(&mut self, scale: f64, offset: f64) {
        for lane in 0..ROW_LANES {
            // `scale` times the sign product, ±1.0.
            let signed_scale = scale * f64::from_bits(1f64.to_bits() | self.parity[lane]);
            let message =
                |min: f64| signed_scale * (select(min.is_finite(), min, 0.0) - offset).max(0.0);
            self.min1[lane] = message(self.min1[lane]);
            self.min2[lane] = message(self.min2[lane]);
        }
    }

    /// The new `R_lk` of input position `pos`, given its `Q_lk` values
    /// `q`: the first minimum's message or the other one, with the lane's
    /// own sign excluded by a negation when `Q < 0`.  IEEE rounding is
    /// sign-symmetric, so this equals multiplying by the excluded sign bit
    /// for bit whenever the message is not NaN (a finite scale and a
    /// non-negative offset).
    #[inline(always)]
    pub(crate) fn update(&self, pos: f64, q: &[f64; ROW_LANES], r: &mut [f64; ROW_LANES]) {
        for lane in 0..ROW_LANES {
            let message = select(self.first[lane] == pos, self.min2[lane], self.min1[lane]);
            r[lane] = f64::from_bits(message.to_bits() ^ (u64::from(q[lane] < 0.0) << 63));
        }
    }
}

/// `if take { a } else { b }` as a bit-mask blend.
#[inline(always)]
fn select(take: bool, a: f64, b: f64) -> f64 {
    let mask = u64::from(take).wrapping_neg();
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
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

#[cfg(test)]
impl TwoMinScan {
    /// Min-sum exclusion rule, the tests' reading of a scan: the position
    /// holding the minimum receives the second minimum, every other
    /// position receives the minimum.
    fn magnitude_for(&self, pos: usize) -> i16 {
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

    /// The sign bit of an f64, as `LayerScan` keeps its parity.
    const SIGN: u64 = 1 << 63;

    /// Feeds `rows[lane]` (at most [`ROW_LANES`] rows, each as long as
    /// the first) through a `LayerScan`, position by position; lanes
    /// without a row see zeros.
    fn layer_scan(rows: &[Vec<f64>]) -> LayerScan {
        let mut scan = LayerScan::default();
        for pos in 0..rows[0].len() {
            scan.push(pos as f64, &lane_values(rows, pos));
        }
        scan
    }

    /// Position `pos` of every lane's row.
    fn lane_values(rows: &[Vec<f64>], pos: usize) -> [f64; ROW_LANES] {
        std::array::from_fn(|lane| rows.get(lane).map_or(0.0, |row| row[pos]))
    }

    /// The `R` messages of every position of `rows` under plain min-sum
    /// (`scale` 1, no offset): `out[lane][pos]`.
    fn plain_messages(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut scan = layer_scan(rows);
        scan.messages(1.0, 0.0);
        let mut out = vec![vec![0.0; rows[0].len()]; rows.len()];
        for pos in 0..rows[0].len() {
            let mut r = [0.0; ROW_LANES];
            scan.update(pos as f64, &lane_values(rows, pos), &mut r);
            for (lane, out) in out.iter_mut().enumerate() {
                out[pos] = r[lane];
            }
        }
        out
    }

    #[test]
    fn empty_unit() {
        let mut scan = LayerScan::default();
        assert_eq!(scan.min1, [f64::INFINITY; ROW_LANES]);
        assert_eq!(scan.min2, [f64::INFINITY; ROW_LANES]);
        assert_eq!(scan.first, [-1.0; ROW_LANES]);
        assert_eq!(scan.parity, [0; ROW_LANES]);
        // An empty row has no partner for anyone: zero messages, signed
        // by the receiving position's own `Q`.
        scan.messages(0.75, 0.0);
        let mut r = [1.0; ROW_LANES];
        scan.update(0.0, &[1.0, -1.0, f64::NAN, -0.0], &mut r);
        assert_eq!(r.map(f64::to_bits), [0.0, -0.0, 0.0, 0.0].map(f64::to_bits));
    }

    #[test]
    fn single_value() {
        let scan = layer_scan(&[vec![-2.0]]);
        assert_eq!(scan.min1[0], 2.0);
        assert_eq!(scan.min2[0], f64::INFINITY);
        assert_eq!(scan.first[0], 0.0);
        assert_eq!(scan.parity[0], SIGN);
    }

    #[test]
    fn duplicate_minimum_values() {
        let row = vec![1.5, 1.5, 4.0];
        let scan = layer_scan(std::slice::from_ref(&row));
        assert_eq!((scan.min1[0], scan.min2[0]), (1.5, 1.5));
        assert_eq!(scan.first[0], 0.0);
        // Position 0 holds min1, so it receives min2 == 1.5 as well.
        assert_eq!(plain_messages(&[row]), [[1.5; 3]]);
    }

    #[test]
    fn sign_product_tracks_parity_of_negatives() {
        let scan = layer_scan(&[
            vec![-1.0, -2.0, -3.0, 7.0],
            vec![-1.0, -2.0, -3.0, -0.5],
            // Like `Q < 0`, the parity ignores -0 and a negative NaN.
            vec![-1.0, -0.0, -f64::NAN, 2.0],
        ]);
        assert_eq!(scan.parity[..3], [SIGN, 0, SIGN]);
    }

    #[test]
    fn degree_one_check_yields_zero_magnitude() {
        // Regression: a degree-1 row used to emit an infinite message to
        // its one entry, and non-finite R messages into the decoder.
        let mut scan = layer_scan(&[vec![-3.5]]);
        scan.messages(1.0, 0.0);
        let mut r = [f64::NAN; ROW_LANES];
        scan.update(0.0, &[-3.5; ROW_LANES], &mut r);
        assert_eq!(r[0].to_bits(), 0.0f64.to_bits());
        // Positions other than the single entry still see the plain minimum.
        scan.update(1.0, &[2.0; ROW_LANES], &mut r);
        assert_eq!(r[0], -3.5);
    }

    #[test]
    fn scan_matches_sequential_unit() {
        let values: [i16; 6] = [12, -3, 7, -3, 20, 5];
        let scan = MinimumExtractionUnit::scan(&values);
        let row = values.map(f64::from).to_vec();
        let meu = layer_scan(std::slice::from_ref(&row));
        assert_eq!(f64::from(scan.min1), meu.min1[0]);
        assert_eq!(f64::from(scan.min2), meu.min2[0]);
        assert_eq!(f64::from(scan.min1_pos), meu.first[0]);
        assert_eq!(scan.negative_parity, meu.parity[0] == SIGN);
        for (i, r) in plain_messages(&[row]).remove(0).into_iter().enumerate() {
            assert_eq!(f64::from(scan.magnitude_for(i)), r.abs());
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

    /// Up to [`ROW_LANES`] rotations of `values`, one row per lane.
    fn rotations(values: &[f64]) -> Vec<Vec<f64>> {
        (0..values.len().min(ROW_LANES))
            .map(|i| [&values[i..], &values[..i]].concat())
            .collect()
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
            let row: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
            let meu = layer_scan(std::slice::from_ref(&row));
            prop_assert_eq!(f64::from(scan.min1), meu.min1[0]);
            prop_assert_eq!(f64::from(scan.min1_pos), meu.first[0]);
            prop_assert_eq!(scan.negative_parity, meu.parity[0] == SIGN);
            for (i, r) in plain_messages(&[row]).remove(0).into_iter().enumerate() {
                prop_assert_eq!(f64::from(scan.magnitude_for(i)), r.abs());
            }
        }

        /// Every lane holds a rotation of the same row, so the lanes agree
        /// on the minima and parity but not on the first position.
        #[test]
        fn matches_naive_two_minimum(
            values in proptest::collection::vec(-10.0f64..10.0, 2..20),
            picks in proptest::collection::vec(0..2 * SPECIAL_VALUES.len(), 20),
        ) {
            let values = with_special_values(values, &picks);
            let rows = rotations(&values);
            let meu = layer_scan(&rows);
            // A NaN never becomes a minimum, and an infinity only ties the
            // empty unit's `INFINITY`.
            let mut mags: Vec<f64> = values.iter().filter(|v| !v.is_nan()).map(|v| v.abs()).collect();
            mags.sort_by(f64::total_cmp);
            let nth = |i: usize| mags.get(i).copied().unwrap_or(f64::INFINITY);
            let negs = values.iter().filter(|v| **v < 0.0).count();
            for (lane, row) in rows.iter().enumerate() {
                prop_assert_eq!(meu.min1[lane].to_bits(), nth(0).to_bits());
                prop_assert_eq!(meu.min2[lane].to_bits(), nth(1).to_bits());
                prop_assert_eq!(meu.parity[lane] == SIGN, negs % 2 == 1);
                // Only a magnitude below the `INFINITY` sentinel is a first
                // minimum.
                let first = row.iter().position(|v| v.abs() == nth(0) && nth(0).is_finite());
                prop_assert_eq!(meu.first[lane], first.map_or(-1.0, |p| p as f64));
            }
        }

        #[test]
        fn exclusion_rule_matches_per_position_min(
            values in proptest::collection::vec(-10.0f64..10.0, 2..15),
            picks in proptest::collection::vec(0..2 * SPECIAL_VALUES.len(), 15),
        ) {
            let values = with_special_values(values, &picks);
            let rows = rotations(&values);
            for (row, messages) in rows.iter().zip(plain_messages(&rows)) {
                for (i, r) in messages.into_iter().enumerate() {
                    let others = row.iter().enumerate().filter(|&(j, _)| j != i);
                    let naive = others
                        .clone()
                        .filter(|(_, v)| !v.is_nan())
                        .map(|(_, v)| v.abs())
                        .fold(f64::INFINITY, f64::min);
                    // The MEU reproduces the leave-one-out minimum exactly
                    // unless the excluded position ties with another equal
                    // minimum, in which case both give the same value
                    // anyway.  With no finite partner the message is zero.
                    let naive = if naive.is_finite() { naive } else { 0.0 };
                    let negative = others.filter(|(_, v)| **v < 0.0).count() % 2 == 1;
                    let sign = if negative { -1.0 } else { 1.0 };
                    prop_assert_eq!(r.to_bits(), (sign * naive).to_bits());
                }
            }
        }
    }
}

//! The Soft-In-Soft-Out (SISO) unit: one Max-Log BCJR kernel (Eq. (1)–(5)
//! of the paper) for every constituent code.
//!
//! The kernel is generic over a [`Constituent`] whose trellis is known at
//! compile time — states, branches, bits per symbol and frame boundary — so
//! every trellis step compiles to straight-line code over constant tables
//! and keeps the 8 state metrics in registers.  It allocates nothing per
//! frame: the branch metrics γ, the forward metrics α entering every step
//! and the backward metrics β leaving every step live in a [`SisoUnit`]
//! that only grows.  Both recursions run side by side from the two frame
//! ends, then one pass emits every step's a-posteriori and extrinsic
//! outputs.  `max*` is the Max-Log `max`, the paper's choice for
//! double-binary codes.
//!
//! The Max-Log results do not depend on the order of the `max` operations,
//! only on how each addition groups its operands, so every code keeps the
//! grouping of the reference BCJR: `γ = (a-priori + systematic) + parity`
//! and `metric = (α + γ) + β`.

use crate::trellis::{ConstTrellis, DuoBinaryTrellis, LteTrellis, NUM_STATES, SYMBOLS};

/// Extrinsic scaling factor `sigma <= 1` compensating the Max-Log optimism
/// (paper Sec. II.A, ref. \[18\]).
pub const EXTRINSIC_SCALE: f64 = 0.75;

/// How a constituent trellis is closed at the frame ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Circular (tail-biting) trellis (the CRSC codes).  Both recursions
    /// first run from uniform metrics, a wrap-around training pass that
    /// learns the boundary metrics.  Each then reruns from its learnt
    /// boundary until its metrics equal the training's bit for bit; from
    /// there on they stay equal, because a step is a pure function of the
    /// metrics and γ.
    Circular,
    /// Both ends pinned to state 0 by tail bits (LTE).
    Terminated,
}

/// A constituent code whose trellis is known at compile time, with `U`
/// symbols per trellis step and `L` distinct branch metrics per step.
pub trait Constituent<const U: usize, const L: usize> {
    /// The branch and incoming-state tables.
    const TRELLIS: ConstTrellis<U>;
    /// How the trellis is closed at the frame ends.
    const BOUNDARY: Boundary;
    /// Channel LLRs of one trellis step (systematic, then parity; 0 where
    /// punctured).
    type Channel: Copy + Default;
    /// A-priori, extrinsic or a-posteriori information of one step.
    type Message: Copy + Default;

    /// The `L` distinct branch metrics of one step, indexed by label.
    fn gammas(channel: &Self::Channel, apriori: &Self::Message) -> [f64; L];

    /// Turns the per-symbol a-posteriori metrics of one step into its
    /// scaled extrinsic and its a-posteriori information.
    fn output(
        apo: [f64; U],
        channel: &Self::Channel,
        apriori: &Self::Message,
    ) -> (Self::Message, Self::Message);
}

/// Max-Log `max*`; inputs are never NaN (channel LLRs are clamped).
#[inline(always)]
pub(crate) fn max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// `[f(0), …, f(N - 1)]`, built by a loop that always inlines, so that a
/// trellis step compiles to straight-line code over the constant tables.
#[inline(always)]
fn build<const N: usize>(mut f: impl FnMut(usize) -> f64) -> [f64; N] {
    let mut out = [0.0; N];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = f(i);
    }
    out
}

/// The largest of `N` (a power of two) metrics, as a balanced tree of
/// [`max`] so that no dependency chain is longer than `log2(N)`.
#[inline(always)]
fn max_of<const N: usize>(mut metrics: [f64; N]) -> f64 {
    let mut width = N;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            metrics[i] = max(metrics[i], metrics[i + width]);
        }
    }
    metrics[0]
}

/// Duo-binary CRSC: channel `[A, B, Y, W]`, symbol LLRs `ln P(u)/P(0)` for
/// `u = 1, 2, 3`.
impl Constituent<SYMBOLS, 16> for DuoBinaryTrellis {
    const TRELLIS: ConstTrellis<SYMBOLS> = Self::TABLE;
    const BOUNDARY: Boundary = Boundary::Circular;
    type Channel = [f64; 4];
    type Message = [f64; 3];

    #[inline(always)]
    fn gammas(channel: &[f64; 4], apriori: &[f64; 3]) -> [f64; 16] {
        let [la, lb, ly, lw] = *channel;
        let sign = |bit: usize| 1.0 - 2.0 * bit as f64;
        let par: [f64; 4] = build(|p| 0.5 * (sign(p >> 1) * ly + sign(p & 1) * lw));
        let mut gamma = [0.0; 16];
        for u in 0..SYMBOLS {
            let apr = if u == 0 { 0.0 } else { apriori[u - 1] };
            let sys = 0.5 * (sign(u >> 1) * la + sign(u & 1) * lb);
            for (p, &par) in par.iter().enumerate() {
                gamma[4 * u + p] = apr + sys + par;
            }
        }
        gamma
    }

    #[inline(always)]
    fn output(apo: [f64; 4], channel: &[f64; 4], apriori: &[f64; 3]) -> ([f64; 3], [f64; 3]) {
        let rel = [apo[1] - apo[0], apo[2] - apo[0], apo[3] - apo[0]];
        let [la, lb, ..] = *channel;
        let ext = build(|i| {
            let u = i + 1;
            let a = ((u >> 1) & 1) as f64;
            let b = (u & 1) as f64;
            // systematic contribution of symbol u relative to symbol 0
            let sys_rel = -a * la - b * lb;
            EXTRINSIC_SCALE * (rel[i] - apriori[i] - sys_rel)
        });
        (ext, rel)
    }
}

/// Binary LTE RSC: channel `[systematic, parity]`, bit LLRs with positive
/// values favouring 0.
impl Constituent<2, 4> for LteTrellis {
    const TRELLIS: ConstTrellis<2> = Self::TABLE;
    const BOUNDARY: Boundary = Boundary::Terminated;
    type Channel = [f64; 2];
    type Message = f64;

    #[inline(always)]
    fn gammas(channel: &[f64; 2], apriori: &f64) -> [f64; 4] {
        let lu = channel[0] + apriori;
        let lp = channel[1];
        build(|label| {
            let (input, parity) = ((label >> 1) as f64, (label & 1) as f64);
            0.5 * ((1.0 - 2.0 * input) * lu + (1.0 - 2.0 * parity) * lp)
        })
    }

    #[inline(always)]
    fn output(apo: [f64; 2], channel: &[f64; 2], apriori: &f64) -> (f64, f64) {
        let app = apo[0] - apo[1];
        (EXTRINSIC_SCALE * (app - channel[0] - apriori), app)
    }
}

/// Working memory of the SISO: the branch metrics γ of a frame, α entering
/// every step and β leaving every step.  Buffers only grow, so a unit that
/// keeps decoding frames of one size never reallocates.
///
/// # Example
///
/// ```
/// use wimax_turbo::{DuoBinaryTrellis, SisoUnit};
///
/// // 8 noiseless all-zero couples
/// let n = 8;
/// let channel = vec![[4.0; 4]; n];
/// let apriori = vec![[0.0; 3]; n];
/// let (mut ext, mut apo) = (vec![[0.0; 3]; n], vec![[0.0; 3]; n]);
/// let mut siso = SisoUnit::new();
/// siso.run::<DuoBinaryTrellis, 4, 16>(&channel, &apriori, &mut ext, &mut apo);
/// // every symbol is less likely than symbol 0
/// assert!(apo.iter().flatten().all(|&m| m < 0.0));
/// ```
#[derive(Debug, Default)]
pub struct SisoUnit {
    /// γ of every step, `L` labels each.
    gamma: Vec<f64>,
    /// α entering every step, then β leaving every step.
    metrics: Vec<[f64; NUM_STATES]>,
}

impl SisoUnit {
    /// An empty unit; the first run sizes it.
    pub const fn new() -> Self {
        SisoUnit {
            gamma: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Runs one half-iteration over a whole frame: writes each step's
    /// scaled extrinsic and a-posteriori information.
    ///
    /// # Panics
    ///
    /// Panics if the four slices do not all have the same length.
    pub fn run<C: Constituent<U, L>, const U: usize, const L: usize>(
        &mut self,
        channel: &[C::Channel],
        apriori: &[C::Message],
        extrinsic: &mut [C::Message],
        aposteriori: &mut [C::Message],
    ) {
        let n = channel.len();
        assert!(
            apriori.len() == n && extrinsic.len() == n && aposteriori.len() == n,
            "SISO input and output vectors must have equal length"
        );
        self.gamma.resize(n * L, 0.0);
        self.metrics.resize(2 * n, [0.0; NUM_STATES]);
        let gamma = self.gamma.as_chunks_mut::<L>().0;
        for ((g, ch), apr) in gamma.iter_mut().zip(channel).zip(apriori) {
            *g = C::gammas(ch, apr);
        }
        let gamma = &*gamma;
        let (alphas, betas) = self.metrics.split_at_mut(n);

        // Both recursions run at once from the two frame ends, so neither
        // waits for the other, and store α entering and β leaving every
        // step.  On a circular trellis this is the wrap-around training.
        let (mut alpha, mut beta) = match C::BOUNDARY {
            Boundary::Circular => ([0.0; NUM_STATES], [0.0; NUM_STATES]),
            Boundary::Terminated => {
                let mut pinned = [f64::NEG_INFINITY; NUM_STATES];
                pinned[0] = 0.0;
                (pinned, pinned)
            }
        };
        let forward_steps = alphas.iter_mut().zip(gamma);
        let backward_steps = betas.iter_mut().zip(gamma).rev();
        for ((alpha_slot, ga), (beta_slot, gb)) in forward_steps.zip(backward_steps) {
            *alpha_slot = alpha;
            *beta_slot = beta;
            alpha = forward::<C, U, L>(alpha, ga);
            beta = backward::<C, U, L>(beta, gb);
        }

        // Each recursion reruns from the boundary the training learnt until
        // its metrics equal the stored ones bit for bit (`==` would take
        // -0.0 for 0.0).  A rerun that never meets them covers the frame.
        if C::BOUNDARY == Boundary::Circular {
            let same = |a: &[f64; NUM_STATES], b: &[f64; NUM_STATES]| {
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            for (slot, g) in alphas.iter_mut().zip(gamma) {
                if same(slot, &alpha) {
                    break;
                }
                *slot = alpha;
                alpha = forward::<C, U, L>(alpha, g);
            }
            for (slot, g) in betas.iter_mut().zip(gamma).rev() {
                if same(slot, &beta) {
                    break;
                }
                *slot = beta;
                beta = backward::<C, U, L>(beta, g);
            }
        }

        for (j, ((alpha, beta), g)) in alphas.iter().zip(&*betas).zip(gamma).enumerate() {
            let apo = a_posteriori::<C, U, L>(alpha, g, beta);
            (extrinsic[j], aposteriori[j]) = C::output(apo, &channel[j], &apriori[j]);
        }
    }
}

/// One forward step: α of the next step from α of this one.
#[inline(always)]
fn forward<C: Constituent<U, L>, const U: usize, const L: usize>(
    alpha: [f64; NUM_STATES],
    gamma: &[f64; L],
) -> [f64; NUM_STATES] {
    let table = &C::TRELLIS;
    normalize(build(|s| {
        max_of(build::<U>(|k| {
            let (from, label) = table.prev[s][k];
            alpha[usize::from(from)] + gamma[usize::from(label)]
        }))
    }))
}

/// One backward step: β of this step from β of the next one.
#[inline(always)]
fn backward<C: Constituent<U, L>, const U: usize, const L: usize>(
    beta: [f64; NUM_STATES],
    gamma: &[f64; L],
) -> [f64; NUM_STATES] {
    let table = &C::TRELLIS;
    normalize(build(|s| {
        max_of(build::<U>(|u| {
            beta[usize::from(table.next[s][u])] + gamma[usize::from(table.label[s][u])]
        }))
    }))
}

/// The per-symbol a-posteriori metrics of one step: the best
/// `(α + γ) + β` over the branches carrying each symbol.
#[inline(always)]
fn a_posteriori<C: Constituent<U, L>, const U: usize, const L: usize>(
    alpha: &[f64; NUM_STATES],
    gamma: &[f64; L],
    beta: &[f64; NUM_STATES],
) -> [f64; U] {
    let table = &C::TRELLIS;
    build(|u| {
        max_of(build::<NUM_STATES>(|s| {
            let branch = alpha[s] + gamma[usize::from(table.label[s][u])];
            branch + beta[usize::from(table.next[s][u])]
        }))
    })
}

/// Subtracts the largest metric so the metrics stay bounded.
#[inline(always)]
fn normalize(mut metrics: [f64; NUM_STATES]) -> [f64; NUM_STATES] {
    let top = max_of(metrics);
    if top.is_finite() {
        for m in &mut metrics {
            *m -= top;
        }
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode_constituent;
    use fec_fixed::Llr;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The `(extrinsic, a-posteriori)` outputs of one half-iteration.
    type Outputs<M> = (Vec<M>, Vec<M>);

    /// The former SISO loop, kept as the oracle of [`SisoUnit::run`]: on a
    /// circular trellis the wrap-around training as a fold, then both
    /// recursions side by side, each storing its metrics up to the middle
    /// and emitting its half's outputs past it.
    fn reference_run<C: Constituent<U, L>, const U: usize, const L: usize>(
        channel: &[C::Channel],
        apriori: &[C::Message],
    ) -> Outputs<C::Message> {
        let n = channel.len();
        let mut extrinsic = vec![C::Message::default(); n];
        let mut aposteriori = vec![C::Message::default(); n];
        let gamma: Vec<[f64; L]> = channel
            .iter()
            .zip(apriori)
            .map(|(ch, apr)| C::gammas(ch, apr))
            .collect();
        let (alpha_0, beta_n) = match C::BOUNDARY {
            Boundary::Circular => gamma.iter().zip(gamma.iter().rev()).fold(
                ([0.0; NUM_STATES], [0.0; NUM_STATES]),
                |(a, b), (ga, gb)| (forward::<C, U, L>(a, ga), backward::<C, U, L>(b, gb)),
            ),
            Boundary::Terminated => {
                let mut pinned = [f64::NEG_INFINITY; NUM_STATES];
                pinned[0] = 0.0;
                (pinned, pinned)
            }
        };
        let mut slots = vec![[0.0; NUM_STATES]; n];
        let half = n / 2;
        let (mut alpha, mut beta) = (alpha_0, beta_n);
        for (i, j) in (0..half).zip((n - half..n).rev()) {
            slots[i] = alpha;
            slots[j] = beta;
            alpha = forward::<C, U, L>(alpha, &gamma[i]);
            beta = backward::<C, U, L>(beta, &gamma[j]);
        }
        let mut emit = |j: usize, alpha: &[f64; NUM_STATES], beta: &[f64; NUM_STATES]| {
            let apo = a_posteriori::<C, U, L>(alpha, &gamma[j], beta);
            (extrinsic[j], aposteriori[j]) = C::output(apo, &channel[j], &apriori[j]);
        };
        if n % 2 == 1 {
            emit(half, &alpha, &beta);
            alpha = forward::<C, U, L>(alpha, &gamma[half]);
            beta = backward::<C, U, L>(beta, &gamma[half]);
        }
        for (i, j) in (n - half..n).zip((0..half).rev()) {
            emit(i, &alpha, &slots[i]);
            emit(j, &slots[j], &beta);
            alpha = forward::<C, U, L>(alpha, &gamma[i]);
            beta = backward::<C, U, L>(beta, &gamma[j]);
        }
        (extrinsic, aposteriori)
    }

    /// The outputs of [`SisoUnit::run`] on the first `n` steps of a frame,
    /// on a unit last run on the whole frame, and of [`reference_run`] on
    /// the same steps.
    fn both_runs<C: Constituent<U, L>, const U: usize, const L: usize>(
        channel: &[C::Channel],
        apriori: &[C::Message],
        n: usize,
    ) -> [Outputs<C::Message>; 2] {
        let mut siso = SisoUnit::new();
        let mut outputs = |steps: usize| {
            let mut extrinsic = vec![C::Message::default(); steps];
            let mut aposteriori = vec![C::Message::default(); steps];
            siso.run::<C, U, L>(
                &channel[..steps],
                &apriori[..steps],
                &mut extrinsic,
                &mut aposteriori,
            );
            (extrinsic, aposteriori)
        };
        outputs(channel.len());
        [
            outputs(n),
            reference_run::<C, U, L>(&channel[..n], &apriori[..n]),
        ]
    }

    /// The position of the first value whose bits differ between two
    /// output sequences.
    fn first_difference<'a>(
        ours: impl Iterator<Item = &'a f64>,
        reference: impl Iterator<Item = &'a f64>,
    ) -> Option<usize> {
        ours.zip(reference)
            .position(|(a, b)| a.to_bits() != b.to_bits())
    }

    /// A channel or a-priori value: mostly uniform in `±scale`, at times a
    /// signed zero or a clamped certainty.
    fn value(rng: &mut StdRng, scale: f64) -> f64 {
        match rng.gen_range(0..32) {
            0 => 0.0,
            1 => -0.0,
            2 => Llr::CERTAIN_MAGNITUDE,
            3 => -Llr::CERTAIN_MAGNITUDE,
            _ => rng.gen_range(-scale..scale),
        }
    }

    /// Frame lengths past the short range, odd and even.
    const LONG_FRAMES: [usize; 4] = [200, 201, 1499, 2400];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `SisoUnit::run` gives the former loop's extrinsic and
        /// a-posteriori outputs bit for bit on both trellises, for 1-64
        /// steps and a few long frames, with random a-priori and channel
        /// values that include ±0 and ±`Llr::CERTAIN_MAGNITUDE`.
        #[test]
        fn run_matches_the_reference_loop(len_pick in 0usize..72, seed in 0u64..u64::MAX) {
            let n = if len_pick < 64 { len_pick + 1 } else { LONG_FRAMES[len_pick % 4] };
            let mut rng = StdRng::seed_from_u64(seed);
            // a few more steps than `n`, which the unit runs first
            let steps = n + 5;

            let channel: Vec<[f64; 4]> =
                (0..steps).map(|_| build(|_| value(&mut rng, 12.0))).collect();
            let apriori: Vec<[f64; 3]> =
                (0..steps).map(|_| build(|_| value(&mut rng, 8.0))).collect();
            let [(ext, apo), (ref_ext, ref_apo)] =
                both_runs::<DuoBinaryTrellis, 4, 16>(&channel, &apriori, n);
            let differs = first_difference(
                ext.iter().chain(&apo).flatten(),
                ref_ext.iter().chain(&ref_apo).flatten(),
            );
            prop_assert!(differs.is_none(), "duo-binary, {n} steps: value {differs:?} differs");

            let channel: Vec<[f64; 2]> =
                (0..steps).map(|_| build(|_| value(&mut rng, 12.0))).collect();
            let apriori: Vec<f64> = (0..steps).map(|_| value(&mut rng, 8.0)).collect();
            let [(ext, apo), (ref_ext, ref_apo)] =
                both_runs::<LteTrellis, 2, 4>(&channel, &apriori, n);
            let differs =
                first_difference(ext.iter().chain(&apo), ref_ext.iter().chain(&ref_apo));
            prop_assert!(differs.is_none(), "LTE, {n} steps: value {differs:?} differs");
        }
    }

    /// Runs one duo-binary half-iteration with neutral a-priori information:
    /// `(extrinsic, a-posteriori)`.
    fn run(channel: &[[f64; 4]]) -> (Vec<[f64; 3]>, Vec<[f64; 3]>) {
        let n = channel.len();
        let (mut ext, mut apo) = (vec![[0.0; 3]; n], vec![[0.0; 3]; n]);
        SisoUnit::new().run::<DuoBinaryTrellis, 4, 16>(
            channel,
            &vec![[0.0; 3]; n],
            &mut ext,
            &mut apo,
        );
        (ext, apo)
    }

    /// The most likely symbol of an a-posteriori vector.
    fn hard_symbol(apo: &[f64; 3]) -> u8 {
        let m = [0.0, apo[0], apo[1], apo[2]];
        (0..4)
            .max_by(|&a, &b| m[a].partial_cmp(&m[b]).expect("finite"))
            .expect("non-empty") as u8
    }

    fn bpsk_llr(bit: u8, snr: f64) -> f64 {
        if bit == 0 {
            snr
        } else {
            -snr
        }
    }

    /// Channel LLRs of a circularly encoded couple sequence.
    fn channel_of(couples: &[(u8, u8)], sys_snr: f64, par_snr: f64) -> Vec<[f64; 4]> {
        let enc = encode_constituent(couples).unwrap();
        couples
            .iter()
            .enumerate()
            .map(|(j, &(a, b))| {
                [
                    bpsk_llr(a, sys_snr),
                    bpsk_llr(b, sys_snr),
                    bpsk_llr(enc.parity_y[j], par_snr),
                    bpsk_llr(enc.parity_w[j], par_snr),
                ]
            })
            .collect()
    }

    #[test]
    fn noiseless_all_zero_decodes_to_zero() {
        let (ext, apo) = run(&[[5.0; 4]; 12]);
        for j in 0..12 {
            assert_eq!(hard_symbol(&apo[j]), 0);
            // extrinsic should also favour symbol 0 (all negative relative metrics)
            assert!(ext[j].iter().all(|&e| e <= 1e-9));
        }
    }

    #[test]
    fn noiseless_random_frame_is_recovered() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let couples: Vec<(u8, u8)> = (0..48)
            .map(|_| (rng.gen_range(0..=1), rng.gen_range(0..=1)))
            .collect();
        let (_, apo) = run(&channel_of(&couples, 6.0, 6.0));
        for (j, &(a, b)) in couples.iter().enumerate() {
            assert_eq!(hard_symbol(&apo[j]), (a << 1) | b, "couple {j}");
        }
    }

    #[test]
    fn parity_alone_carries_information() {
        // With erased systematic bits the SISO must still prefer the
        // transmitted sequence thanks to the parity LLRs.
        let couples: Vec<(u8, u8)> = (0..24)
            .map(|j| (((j / 3) % 2) as u8, (j % 2) as u8))
            .collect();
        let (ext, _) = run(&channel_of(&couples, 0.0, 8.0));
        // the extrinsic must be non-trivial
        let energy: f64 = ext.iter().flatten().map(|v| v.abs()).sum();
        assert!(energy > 1.0, "extrinsic energy {energy}");
    }

    #[test]
    fn extrinsic_excludes_systematic_input() {
        // With only systematic information (no parity, no a-priori) the
        // extrinsic of a recursive code is weak compared to the a-posteriori.
        let n = 16;
        let (ext, apo) = run(&vec![[4.0, 4.0, 0.0, 0.0]; n]);
        let mid = n / 2;
        let apo_mag: f64 = apo[mid].iter().map(|v| v.abs()).sum();
        let ext_mag: f64 = ext[mid].iter().map(|v| v.abs()).sum();
        assert!(apo_mag > 3.0 * ext_mag, "apo {apo_mag} ext {ext_mag}");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_inputs_panic() {
        let (mut ext, mut apo) = (vec![[0.0; 3]; 4], vec![[0.0; 3]; 4]);
        SisoUnit::new().run::<DuoBinaryTrellis, 4, 16>(
            &[[0.0; 4]; 4],
            &[[0.0; 3]; 3],
            &mut ext,
            &mut apo,
        );
    }
}

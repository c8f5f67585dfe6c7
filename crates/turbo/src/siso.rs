//! The Soft-In-Soft-Out (SISO) unit: one Max-Log BCJR kernel (Eq. (1)–(5)
//! of the paper) for every constituent code.
//!
//! The kernel is generic over a [`Constituent`] whose trellis is known at
//! compile time — states, branches, bits per symbol and frame boundary — so
//! the recursions unroll over constant tables and keep the 8 state metrics
//! in registers.  Like the paper's SISO (Fig. 3), which keeps 8 + 8 state
//! metrics in fixed PE memory, it allocates nothing per frame: the branch
//! metrics γ and the forward metrics α live in a [`SisoUnit`] that only
//! grows, and the backward metrics β are folded into the a-posteriori /
//! extrinsic pass.  `max*` is the Max-Log `max`, the paper's choice for
//! double-binary codes.
//!
//! The Max-Log results do not depend on the order of the `max` operations,
//! only on how each addition groups its operands, so every code keeps the
//! grouping of the reference BCJR: `γ = (a-priori + systematic) + parity`
//! and `metric = (α + γ) + β`.

use crate::trellis::{ConstTrellis, DuoBinaryTrellis, LteTrellis, NUM_STATES, SYMBOLS};

/// Extrinsic scaling factor `sigma <= 1` compensating the Max-Log optimism
/// (paper Sec. II.A, ref. [18]).
pub const EXTRINSIC_SCALE: f64 = 0.75;

/// How a constituent trellis is closed at the frame ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Circular (tail-biting) trellis: the boundary metrics are learnt by a
    /// wrap-around training pass in each direction (the CRSC codes).
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
        let par: [f64; 4] = std::array::from_fn(|p| 0.5 * (sign(p >> 1) * ly + sign(p & 1) * lw));
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
        let ext = std::array::from_fn(|i| {
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
        std::array::from_fn(|label| {
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

/// Working memory of the SISO: the branch metrics γ of a frame and the
/// state metrics each recursion stores for its half of it.  Buffers only
/// grow, so a unit that keeps decoding frames of one size never
/// reallocates.
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
    /// α entering each step of the first half of the frame, β leaving
    /// each step of the second half.
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
        self.metrics.resize(n, [0.0; NUM_STATES]);
        let gamma = self.gamma.as_chunks_mut::<L>().0;
        for ((g, ch), apr) in gamma.iter_mut().zip(channel).zip(apriori) {
            *g = C::gammas(ch, apr);
        }
        let gamma = &*gamma;

        let (alpha_0, beta_n) = match C::BOUNDARY {
            // wrap-around training: one pass in each direction from uniform
            // metrics, run side by side
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

        // Both recursions run at once from the two ends.  Up to the middle
        // each stores its metrics — α of the first half, β of the second —
        // and past it each meets the other's stored metrics and emits the
        // outputs of its half, so the recursions never wait for each other.
        let slots = &mut self.metrics;
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
    }
}

/// One forward step: α of the next step from α of this one.
#[inline(always)]
fn forward<C: Constituent<U, L>, const U: usize, const L: usize>(
    alpha: [f64; NUM_STATES],
    gamma: &[f64; L],
) -> [f64; NUM_STATES] {
    let table = &C::TRELLIS;
    normalize(std::array::from_fn(|s| {
        max_of(std::array::from_fn::<_, U, _>(|k| {
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
    normalize(std::array::from_fn(|s| {
        max_of(std::array::from_fn::<_, U, _>(|u| {
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
    std::array::from_fn(|u| {
        max_of(std::array::from_fn::<_, NUM_STATES, _>(|s| {
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
    use rand::{Rng, SeedableRng};

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

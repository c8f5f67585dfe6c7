//! Layered normalized-min-sum decoder (Eq. (6)–(11) of the paper), and
//! the one f64 decode loop that also runs the two-phase (flooding)
//! schedule.
//!
//! Parity checks are grouped into layers (one layer per base-matrix block
//! row, as the code's [`LayerPlan`](crate::LayerPlan) lists them); layers
//! are decoded in sequence and the updated bit LLRs propagate from one
//! layer to the next within the same iteration, which roughly doubles
//! convergence speed with respect to two-phase scheduling.  The `z` checks
//! of a layer share no bit, so, like the paper's PEs, the decoder updates
//! them together: one f64 lane per check row.  The flooding schedule walks
//! the same layers with the same lanes but defers λ: every layer reads the
//! λ of the previous iteration, and λ is rewritten once per iteration.

use super::meu::{LayerScan, ROW_LANES};
use super::DecodeOutcome;
use crate::code::QcLdpcCode;
use fec_channel::sim::FrameStream;
use fec_fixed::Llr;
use std::cell::RefCell;

thread_local! {
    /// Per-thread memories and frame buffers of [`LayeredDecoder`] on
    /// either schedule, the f64 counterpart of the fixed-point decoder's
    /// scratch.  Buffers only grow, so a thread decoding the same code
    /// repeatedly never reallocates them.
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// Working memory of the decoder.
#[derive(Debug)]
struct Scratch {
    memory: Memory,
    /// One frame of channel LLRs, pulled from a stream.
    frame: Vec<Llr>,
    /// One frame's information-bit decisions, handed back to a stream.
    bits: Vec<u8>,
}

/// The decode loop's memories, sized once per code like the processing
/// element's fixed λ and `R_lk` memories.
#[derive(Debug)]
struct Memory {
    /// Bit LLRs λ, one per variable.
    lambda: Vec<f64>,
    /// Under the flooding schedule, the sum of each bit's `R_lk` over the
    /// layers of the running iteration.
    sum: Vec<f64>,
    /// `R_lk` message memory: per non-zero block, one message per check
    /// row of its layer, padded to a whole number of [`LayerScan`]s.
    r: Vec<f64>,
    /// `Q_lk` values of the layer being updated, laid out like its `R`.
    q: Vec<f64>,
    /// Per check row, the parity of one layer's hard decisions.
    syndrome: Vec<u64>,
}

impl Scratch {
    const fn new() -> Self {
        Scratch {
            memory: Memory {
                lambda: Vec::new(),
                sum: Vec::new(),
                r: Vec::new(),
                q: Vec::new(),
                syndrome: Vec::new(),
            },
            frame: Vec::new(),
            bits: Vec::new(),
        }
    }
}

/// Configuration of the layered decoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayeredConfig {
    /// Maximum number of iterations (the paper uses 10 for LDPC mode).
    pub max_iterations: usize,
    /// Normalization factor `sigma <= 1` of Eq. (11); 0.75 is the usual
    /// hardware-friendly choice.
    pub scale: f64,
    /// Offset `beta >= 0` subtracted from the message magnitude before
    /// scaling (offset-min-sum variant; 0 disables it).
    pub offset: f64,
    /// Stop as soon as the hard decisions satisfy all parity checks.
    pub early_termination: bool,
}

impl Default for LayeredConfig {
    fn default() -> Self {
        LayeredConfig {
            max_iterations: 10,
            scale: 0.75,
            offset: 0.0,
            early_termination: true,
        }
    }
}

/// When the decode loop writes λ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// After every layer, `λ = Q + R`: the next layer reads it.
    Layered,
    /// Once per iteration, after the last layer: `λ = channel + Σ R`, the
    /// two-phase (flooding) schedule.
    Flooding,
}

/// Layered normalized-min-sum decoder operating on one code.
///
/// # Example
///
/// ```
/// use wimax_ldpc::{CodeRate, QcLdpcCode};
/// use wimax_ldpc::decoder::{LayeredConfig, LayeredDecoder};
/// use fec_fixed::Llr;
///
/// let code = QcLdpcCode::wimax(576, CodeRate::R12)?;
/// let decoder = LayeredDecoder::new(&code, LayeredConfig::default());
/// let out = decoder.decode(&vec![Llr::new(4.0); code.n()]);
/// assert!(out.converged);
/// # Ok::<(), wimax_ldpc::LdpcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LayeredDecoder {
    code: QcLdpcCode,
    config: LayeredConfig,
    schedule: Schedule,
}

impl LayeredDecoder {
    /// Creates a decoder for `code` with the given configuration.
    pub fn new(code: &QcLdpcCode, config: LayeredConfig) -> Self {
        LayeredDecoder {
            code: code.clone(),
            config,
            schedule: Schedule::Layered,
        }
    }

    /// The same loop on the two-phase (flooding) schedule, the baseline of
    /// the paper's Section II.B: every layer computes `Q = λ − R` from the
    /// λ of the previous iteration and its new `R` with the same lane MEU,
    /// and once per iteration λ becomes the channel LLR plus the sum of
    /// each bit's `R` over the layers, in ascending order.
    ///
    /// # Example
    ///
    /// ```
    /// use wimax_ldpc::{CodeRate, QcLdpcCode};
    /// use wimax_ldpc::decoder::{LayeredConfig, LayeredDecoder};
    /// use fec_fixed::Llr;
    ///
    /// let code = QcLdpcCode::wimax(576, CodeRate::R12)?;
    /// let decoder = LayeredDecoder::flooding(&code, LayeredConfig::default());
    /// let out = decoder.decode(&vec![Llr::new(4.0); code.n()]);
    /// assert!(out.converged);
    /// # Ok::<(), wimax_ldpc::LdpcError>(())
    /// ```
    pub fn flooding(code: &QcLdpcCode, config: LayeredConfig) -> Self {
        LayeredDecoder {
            schedule: Schedule::Flooding,
            ..Self::new(code, config)
        }
    }

    /// The decoder configuration.
    pub fn config(&self) -> &LayeredConfig {
        &self.config
    }

    /// Decodes a block of channel LLRs.
    ///
    /// λ, the `R` message memory and the `Q` values live in a per-thread
    /// scratch, so in steady state a decode allocates only the two vectors
    /// of the returned [`DecodeOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != code.n()`.
    pub fn decode(&self, channel: &[Llr]) -> DecodeOutcome {
        assert_eq!(
            channel.len(),
            self.code.n(),
            "LLR vector length must equal the code length"
        );
        SCRATCH.with(|scratch| {
            let memory = &mut scratch.borrow_mut().memory;
            let (iterations, converged) = self.run(channel, memory);
            DecodeOutcome {
                hard_bits: memory
                    .lambda
                    .iter()
                    .map(|&l| Llr::new(l).hard_bit())
                    .collect(),
                posterior: memory.lambda.clone(),
                iterations,
                converged,
            }
        })
    }

    /// Decodes every frame of `frames`, one after another, and hands each
    /// frame's `k` information-bit decisions, iterations and convergence
    /// back to the stream.  No outcome is built per frame, and in steady
    /// state nothing is allocated.
    pub(crate) fn decode_stream(&self, frames: &mut dyn FrameStream) {
        let k = self.code.k();
        SCRATCH.with(|scratch| {
            let Scratch {
                memory,
                frame,
                bits,
            } = &mut *scratch.borrow_mut();
            frame.resize(self.code.n(), Llr::default());
            while let Some(tag) = frames.next_frame(frame) {
                let (iterations, converged) = self.run(frame, memory);
                bits.clear();
                bits.extend(memory.lambda[..k].iter().map(|&l| Llr::new(l).hard_bit()));
                frames.decided(tag, bits, iterations, converged);
            }
        });
    }

    /// The decode loop: decodes `channel` into `memory.lambda` and returns
    /// the iterations run and whether the syndrome is zero.
    fn run(&self, channel: &[Llr], memory: &mut Memory) -> (usize, bool) {
        let plan = self.code.plan();
        let z = plan.expansion();
        // A block's slots in `R` and `Q`: one per check row, then padding
        // up to a whole number of `LayerScan`s, which no bit reads.
        let stride = z.next_multiple_of(ROW_LANES);
        let LayeredConfig {
            max_iterations,
            scale,
            offset,
            early_termination,
        } = self.config;
        let flooding = self.schedule == Schedule::Flooding;
        let Memory {
            lambda,
            sum,
            r,
            q,
            syndrome,
        } = memory;
        lambda.clear();
        lambda.extend(channel.iter().map(|l| l.value()));
        r.clear();
        r.resize(plan.blocks().len() * stride, 0.0);
        q.resize(plan.widest_layer() * stride, 0.0);

        for iteration in 1..=max_iterations {
            if flooding {
                // `Iterator::sum`'s start: an empty sum is −0.0.
                sum.clear();
                sum.resize(lambda.len(), -0.0);
            }
            for layer in plan.layers() {
                let blocks = &plan.blocks()[layer.clone()];
                let r = &mut r[layer.start * stride..layer.end * stride];
                let q = &mut q[..r.len()];
                // Q_lk = lambda_old - R_old, Eq. (6), gathered into lane
                // order.
                for ((block, q), r) in blocks
                    .iter()
                    .zip(q.chunks_exact_mut(stride))
                    .zip(r.chunks_exact(stride))
                {
                    for (rows, bits) in block.runs(z) {
                        let rows = q[rows.clone()].iter_mut().zip(&r[rows]);
                        for ((q, &r), &l) in rows.zip(&lambda[bits]) {
                            *q = l - r;
                        }
                    }
                }
                // Two-minimum extraction, Eq. (11), and the new R, Eq.
                // (9)-(10), with the optional offset-min-sum correction
                // applied before normalization, `ROW_LANES` rows at a time.
                for chunk in 0..stride / ROW_LANES {
                    let mut scan = LayerScan::default();
                    for (pos, q) in (0u32..).zip(q.chunks_exact(stride)) {
                        scan.push(f64::from(pos), &q.as_chunks().0[chunk]);
                    }
                    scan.messages(scale, offset);
                    let blocks = q.chunks_exact(stride).zip(r.chunks_exact_mut(stride));
                    for (pos, (q, r)) in (0u32..).zip(blocks) {
                        scan.update(
                            f64::from(pos),
                            &q.as_chunks().0[chunk],
                            &mut r.as_chunks_mut().0[chunk],
                        );
                    }
                }
                // Scattered back along the rotation: lambda = Q + R_new,
                // or, when flooding, R_new added to its bit's sum.
                for ((block, q), r) in blocks
                    .iter()
                    .zip(q.chunks_exact(stride))
                    .zip(r.chunks_exact(stride))
                {
                    for (rows, bits) in block.runs(z) {
                        if flooding {
                            for (&r, s) in r[rows].iter().zip(&mut sum[bits]) {
                                *s += r;
                            }
                        } else {
                            let rows = q[rows.clone()].iter().zip(&r[rows]);
                            for ((&q, &r), l) in rows.zip(&mut lambda[bits]) {
                                *l = q + r;
                            }
                        }
                    }
                }
            }
            if flooding {
                // The variable phase: each bit's R summed over the layers
                // in ascending order, after its channel LLR.
                for ((l, &s), c) in lambda.iter_mut().zip(&*sum).zip(channel) {
                    *l = c.value() + s;
                }
            }
            if early_termination && plan.satisfied(lambda, syndrome) {
                return (iteration, true);
            }
        }
        (max_iterations, plan.satisfied(lambda, syndrome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_matrix::{BaseMatrix, CodeRate};
    use crate::code::{satisfies_rows, spelled_rows};
    use crate::decoder::meu::SPECIAL_VALUES;
    use crate::encoder::QcEncoder;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The serial loop with a branching check-node update, kept as the
    /// oracle of the lane loop: row after row of the parity-check matrix
    /// (spelled from the base matrix) in layer order, a sequential
    /// two-minimum scan that compares magnitudes as floats, one signed
    /// message computed per edge, and a syndrome over the spelled rows.
    fn reference_decode(dec: &LayeredDecoder, channel: &[Llr]) -> DecodeOutcome {
        let h = spelled_rows(&dec.code);
        let LayeredConfig { scale, offset, .. } = dec.config;
        // The rows as CSR, with one `R` per entry.
        let mut row_ptr = vec![0];
        let mut cols = Vec::new();
        for row in &h {
            cols.extend_from_slice(row);
            row_ptr.push(cols.len());
        }
        let mut lambda: Vec<f64> = channel.iter().map(|l| l.value()).collect();
        let (mut r, mut q) = (vec![0.0; cols.len()], Vec::new());
        let hard = |lambda: &[f64]| -> Vec<u8> {
            lambda.iter().map(|&l| Llr::new(l).hard_bit()).collect()
        };
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..dec.config.max_iterations {
            iterations = it + 1;
            for rows in row_ptr.windows(2) {
                let (start, end) = (rows[0], rows[1]);
                let cols = &cols[start..end];
                q.clear();
                q.extend(
                    cols.iter()
                        .zip(&r[start..end])
                        .map(|(&col, &rj)| lambda[col] - rj),
                );
                let (mut min1, mut min2, mut min_pos, mut sign) =
                    (f64::INFINITY, f64::INFINITY, None, 1.0);
                for (j, &qj) in q.iter().enumerate() {
                    let mag = qj.abs();
                    if qj < 0.0 {
                        sign = -sign;
                    }
                    if mag < min1 {
                        min2 = min1;
                        min1 = mag;
                        min_pos = Some(j);
                    } else if mag < min2 {
                        min2 = mag;
                    }
                }
                for (j, (&qj, &col)) in q.iter().zip(cols).enumerate() {
                    let sign_excl = if qj < 0.0 { -sign } else { sign };
                    let min = if Some(j) == min_pos { min2 } else { min1 };
                    let min = if min.is_finite() { min } else { 0.0 };
                    let r_new = scale * sign_excl * (min - offset).max(0.0);
                    lambda[col] = qj + r_new;
                    r[start + j] = r_new;
                }
            }
            if dec.config.early_termination && satisfies_rows(&h, &hard(&lambda)) {
                converged = true;
                break;
            }
        }
        if !converged {
            converged = satisfies_rows(&h, &hard(&lambda));
        }
        DecodeOutcome {
            hard_bits: hard(&lambda),
            posterior: lambda,
            iterations,
            converged,
        }
    }

    /// The two-phase loop the flooding schedule replaced, kept as its
    /// oracle: per-row `Vec`s of variable-to-check and check-to-variable
    /// messages, a branching two-minimum scan per row, then per column the
    /// channel LLR plus the sum of its messages in row order, and a
    /// syndrome over the rows spelled from the base matrix.  A row without
    /// a finite minimum sends 0, and the offset applies before the scale,
    /// as in the layered loop.
    fn flooding_reference_decode(
        code: &QcLdpcCode,
        cfg: LayeredConfig,
        channel: &[Llr],
    ) -> DecodeOutcome {
        let h = spelled_rows(code);
        let m = code.m();
        // For each column, the (row, position-within-row) pairs of its
        // entries, in row order.
        let mut col_entries: Vec<Vec<(usize, usize)>> = vec![Vec::new(); code.n()];
        for (row, cols) in h.iter().enumerate() {
            for (pos, &c) in cols.iter().enumerate() {
                col_entries[c].push((row, pos));
            }
        }
        let ch: Vec<f64> = channel.iter().map(|l| l.value()).collect();
        let mut v2c: Vec<Vec<f64>> = h
            .iter()
            .map(|row| row.iter().map(|&c| ch[c]).collect())
            .collect();
        let mut c2v: Vec<Vec<f64>> = h.iter().map(|row| vec![0.0; row.len()]).collect();
        let mut posterior = ch.clone();
        let hard = |lambda: &[f64]| -> Vec<u8> {
            lambda.iter().map(|&l| Llr::new(l).hard_bit()).collect()
        };
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..cfg.max_iterations {
            iterations = it + 1;
            // Check-node phase.
            for row in 0..m {
                let (mut min1, mut min2, mut min_pos, mut sign) =
                    (f64::INFINITY, f64::INFINITY, 0, 1.0);
                for (j, &v) in v2c[row].iter().enumerate() {
                    let mag = v.abs();
                    if v < 0.0 {
                        sign = -sign;
                    }
                    if mag < min1 {
                        min2 = min1;
                        min1 = mag;
                        min_pos = j;
                    } else if mag < min2 {
                        min2 = mag;
                    }
                }
                for j in 0..c2v[row].len() {
                    let mag = if j == min_pos { min2 } else { min1 };
                    let mag = if mag.is_finite() { mag } else { 0.0 };
                    let s = if v2c[row][j] < 0.0 { -sign } else { sign };
                    c2v[row][j] = cfg.scale * s * (mag - cfg.offset).max(0.0);
                }
            }
            // Variable-node phase and posterior computation.
            for (c, entries) in col_entries.iter().enumerate() {
                let total: f64 = entries.iter().map(|&(row, pos)| c2v[row][pos]).sum();
                posterior[c] = ch[c] + total;
                for &(row, pos) in entries {
                    v2c[row][pos] = posterior[c] - c2v[row][pos];
                }
            }
            if cfg.early_termination && satisfies_rows(&h, &hard(&posterior)) {
                converged = true;
                break;
            }
        }
        if !converged {
            converged = satisfies_rows(&h, &hard(&posterior));
        }
        DecodeOutcome {
            hard_bits: hard(&posterior),
            posterior,
            iterations,
            converged,
        }
    }

    /// Noisy all-zero frames, from clean to hopeless, each with its own
    /// share (0–50%) of positions replaced by [`SPECIAL_VALUES`].
    fn frames_with_special_llrs(n: usize, seed: u64) -> Vec<Vec<Llr>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..6u64)
            .map(|f| {
                let sigma = rng.gen_range(0.5..1.2);
                // Cubed, so most frames carry few specials and some converge.
                let special_share = if f == 0 {
                    0.0
                } else {
                    0.5 * rng.gen::<f64>().powi(3)
                };
                let mut frame = noisy_llrs(&vec![0; n], sigma, seed ^ (f << 40));
                for llr in &mut frame {
                    if rng.gen::<f64>() < special_share {
                        *llr = Llr::new(SPECIAL_VALUES[rng.gen_range(0..SPECIAL_VALUES.len())]);
                    }
                }
                frame
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The decoder equals its branching oracle bit for bit, posterior
        /// included, on frames mixing NaN, signed zeros, infinities, huge
        /// and subnormal LLRs into noise, under min-sum, offset-min-sum and
        /// a fixed budget without early stop, on every lane width and
        /// shift pattern the codecs use; so does the flooding schedule,
        /// against the two-phase loop, under each config.
        #[test]
        fn decode_matches_the_branching_reference(seed in 0u64..1 << 32) {
            let r12 = BaseMatrix::wimax(CodeRate::R12);
            let codes = [
                QcLdpcCode::wimax(576, CodeRate::R12).unwrap(),
                // An odd z, the shape of 802.11n n648.
                QcLdpcCode::from_base(r12.clone(), 27),
                // The shape of 802.22 n480.
                QcLdpcCode::from_base(r12, 20),
                QcLdpcCode::wimax(2304, CodeRate::R12).unwrap(),
                // Rows of about 20 entries.
                QcLdpcCode::wimax(576, CodeRate::R56).unwrap(),
            ];
            let configs = [
                LayeredConfig::default(),
                LayeredConfig {
                    scale: 1.0,
                    offset: 0.3,
                    ..LayeredConfig::default()
                },
                LayeredConfig {
                    max_iterations: 4,
                    early_termination: false,
                    ..LayeredConfig::default()
                },
            ];
            for (code, cfg) in codes.iter().flat_map(|code| configs.map(|cfg| (code, cfg))) {
                let dec = LayeredDecoder::new(code, cfg);
                let n = code.n();
                for (f, frame) in frames_with_special_llrs(n, seed).iter().enumerate() {
                    let (got, want) = (dec.decode(frame), reference_decode(&dec, frame));
                    prop_assert!(got.hard_bits == want.hard_bits, "n{} frame {} hard bits under {:?}", n, f, cfg);
                    prop_assert_eq!(got.iterations, want.iterations);
                    prop_assert_eq!(got.converged, want.converged);
                    let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert!(bits(&got.posterior) == bits(&want.posterior), "n{} frame {} posterior under {:?}", n, f, cfg);
                    let got = LayeredDecoder::flooding(code, cfg).decode(frame);
                    let want = flooding_reference_decode(code, cfg, frame);
                    prop_assert!(got.hard_bits == want.hard_bits, "flooding n{} frame {} hard bits under {:?}", n, f, cfg);
                    prop_assert_eq!(got.iterations, want.iterations);
                    prop_assert_eq!(got.converged, want.converged);
                    prop_assert!(bits(&got.posterior) == bits(&want.posterior), "flooding n{} frame {} posterior under {:?}", n, f, cfg);
                }
            }
        }
    }

    fn noisy_llrs(cw: &[u8], sigma: f64, seed: u64) -> Vec<Llr> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        cw.iter()
            .map(|&b| {
                let s = if b == 0 { 1.0 } else { -1.0 };
                let mut n = 0.0;
                // Box-Muller
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                n += (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                Llr::new(2.0 * (s + sigma * n) / (sigma * sigma))
            })
            .collect()
    }

    #[test]
    fn noiseless_all_zero_converges_in_one_iteration() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = LayeredDecoder::new(&code, LayeredConfig::default());
        let out = dec.decode(&vec![Llr::new(6.0); code.n()]);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert!(out.hard_bits.iter().all(|&b| b == 0));
    }

    #[test]
    fn decodes_random_codeword_with_moderate_noise() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let dec = LayeredDecoder::new(&code, LayeredConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
        let cw = enc.encode(&info).unwrap();
        // Eb/N0 = 2 dB at rate 1/2 -> sigma^2 = 1/(2*0.5*10^0.2) ~= 0.63
        let out = dec.decode(&noisy_llrs(&cw, 0.63f64.sqrt(), 9));
        assert!(out.converged, "decoder did not converge");
        assert_eq!(out.hard_bits, cw);
        assert_eq!(out.info_bits(code.k()), &info[..]);
    }

    #[test]
    fn corrects_a_few_flipped_bits() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = LayeredDecoder::new(&code, LayeredConfig::default());
        let mut llrs = vec![Llr::new(4.0); code.n()];
        // flip 10 well-separated bits
        for i in 0..10 {
            llrs[i * 53] = Llr::new(-4.0);
        }
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert!(out.hard_bits.iter().all(|&b| b == 0));
    }

    #[test]
    fn unsatisfiable_input_does_not_converge() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let cfg = LayeredConfig {
            max_iterations: 3,
            ..LayeredConfig::default()
        };
        let dec = LayeredDecoder::new(&code, cfg);
        // random noise with no signal: decoding should normally fail within 3 iterations
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let llrs: Vec<Llr> = (0..code.n())
            .map(|_| Llr::new(rng.gen_range(-1.0..1.0)))
            .collect();
        let out = dec.decode(&llrs);
        assert_eq!(out.iterations, 3);
        assert!(!out.converged);
    }

    #[test]
    fn early_termination_can_be_disabled() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let cfg = LayeredConfig {
            max_iterations: 4,
            early_termination: false,
            ..LayeredConfig::default()
        };
        let dec = LayeredDecoder::new(&code, cfg);
        let out = dec.decode(&vec![Llr::new(5.0); code.n()]);
        assert!(out.converged);
        assert_eq!(out.iterations, 4);
    }

    #[test]
    fn nan_llr_decodes_as_zero_bit() {
        // Regression: the old inline `l >= 0.0` hard decision silently mapped
        // NaN to bit 1.  The shared `Llr::hard_bit` convention maps NaN to 0
        // (matching the quantizer's NaN -> 0), so a single NaN in an
        // otherwise clean all-zero frame must not flip its bit.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let cfg = LayeredConfig {
            max_iterations: 1,
            early_termination: false,
            ..LayeredConfig::default()
        };
        let dec = LayeredDecoder::new(&code, cfg);
        let mut llrs = vec![Llr::new(6.0); code.n()];
        llrs[37] = Llr::new(f64::NAN);
        let out = dec.decode(&llrs);
        assert_eq!(out.hard_bits[37], 0, "NaN LLR must decode as bit 0");
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_llr_length_panics() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = LayeredDecoder::new(&code, LayeredConfig::default());
        let _ = dec.decode(&[Llr::new(1.0); 10]);
    }

    #[test]
    fn offset_min_sum_also_decodes() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let cfg = LayeredConfig {
            scale: 1.0,
            offset: 0.3,
            ..LayeredConfig::default()
        };
        let dec = LayeredDecoder::new(&code, cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
        let cw = enc.encode(&info).unwrap();
        let out = dec.decode(&noisy_llrs(&cw, 0.63f64.sqrt(), 5));
        assert!(out.converged);
        assert_eq!(out.hard_bits, cw);
    }

    #[test]
    fn large_offset_degrades_messages_to_zero() {
        // With an offset larger than any magnitude the check messages vanish
        // and the decoder can only echo the channel hard decisions.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let cfg = LayeredConfig {
            offset: 1.0e6,
            max_iterations: 2,
            ..LayeredConfig::default()
        };
        let dec = LayeredDecoder::new(&code, cfg);
        let mut llrs = vec![Llr::new(3.0); code.n()];
        llrs[7] = Llr::new(-3.0);
        let out = dec.decode(&llrs);
        assert_eq!(out.hard_bits[7], 1, "channel decision must be unchanged");
        assert!(!out.converged);
    }

    #[test]
    fn works_for_all_rates() {
        for rate in CodeRate::all() {
            let code = QcLdpcCode::wimax(576, rate).unwrap();
            let enc = QcEncoder::new(&code);
            let dec = LayeredDecoder::new(&code, LayeredConfig::default());
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
            let cw = enc.encode(&info).unwrap();
            // light noise
            let out = dec.decode(&noisy_llrs(&cw, 0.4, 3));
            assert!(out.converged, "rate {rate}");
            assert_eq!(out.hard_bits, cw, "rate {rate}");
        }
    }

    /// The flooding schedule with `max_iterations` and the default scale,
    /// early stop on.
    fn flooding(code: &QcLdpcCode, max_iterations: usize) -> LayeredDecoder {
        let cfg = LayeredConfig {
            max_iterations,
            ..LayeredConfig::default()
        };
        LayeredDecoder::flooding(code, cfg)
    }

    #[test]
    fn flooding_noiseless_all_zero_converges() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let out = flooding(&code, 20).decode(&vec![Llr::new(5.0); code.n()]);
        assert!(out.converged);
        assert!(out.hard_bits.iter().all(|&b| b == 0));
    }

    #[test]
    fn flooding_decodes_noisy_codeword() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
        let cw = enc.encode(&info).unwrap();
        let out = flooding(&code, 20).decode(&noisy_llrs(&cw, 0.63f64.sqrt(), 4));
        assert!(out.converged);
        assert_eq!(out.hard_bits, cw);
    }

    #[test]
    fn layered_converges_in_fewer_iterations_than_flooding() {
        // The paper (Sec. II.B): layered scheduling nearly doubles convergence speed.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let flooding = flooding(&code, 50);
        let layered = LayeredDecoder::new(
            &code,
            LayeredConfig {
                max_iterations: 50,
                ..LayeredConfig::default()
            },
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let mut flood_iters = 0usize;
        let mut layer_iters = 0usize;
        let mut frames = 0usize;
        for seed in 0..8 {
            let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
            let cw = enc.encode(&info).unwrap();
            let llrs = noisy_llrs(&cw, 0.7, seed + 200);
            let f = flooding.decode(&llrs);
            let l = layered.decode(&llrs);
            if f.converged && l.converged {
                flood_iters += f.iterations;
                layer_iters += l.iterations;
                frames += 1;
            }
        }
        assert!(frames >= 4, "not enough convergent frames to compare");
        assert!(
            layer_iters < flood_iters,
            "layered ({layer_iters}) should need fewer total iterations than flooding ({flood_iters})"
        );
    }

    #[test]
    fn flooding_does_not_converge_on_pure_noise() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let llrs: Vec<Llr> = (0..code.n())
            .map(|_| Llr::new(rng.gen_range(-1.0..1.0)))
            .collect();
        let out = flooding(&code, 3).decode(&llrs);
        assert!(!out.converged);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn flooding_wrong_llr_length_panics() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let _ = flooding(&code, 20).decode(&[]);
    }

    #[test]
    fn flooding_nan_llr_decodes_as_zero_bit() {
        // Same NaN hard-decision convention as the layered schedule: a NaN
        // posterior must decode as bit 0, not silently as bit 1.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let cfg = LayeredConfig {
            max_iterations: 1,
            early_termination: false,
            ..LayeredConfig::default()
        };
        let mut llrs = vec![Llr::new(6.0); code.n()];
        llrs[11] = Llr::new(f64::NAN);
        let out = LayeredDecoder::flooding(&code, cfg).decode(&llrs);
        assert_eq!(out.hard_bits[11], 0, "NaN LLR must decode as bit 0");
    }
}

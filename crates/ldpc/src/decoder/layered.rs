//! Layered normalized-min-sum decoder (Eq. (6)–(11) of the paper).
//!
//! Parity checks are grouped into layers (one layer per base-matrix block
//! row); layers are decoded in sequence and the updated bit LLRs propagate
//! from one layer to the next within the same iteration, which roughly
//! doubles convergence speed with respect to two-phase scheduling.

use super::{DecodeOutcome, MinimumExtractionUnit};
use crate::code::QcLdpcCode;
use fec_fixed::Llr;
use std::cell::RefCell;

thread_local! {
    /// Per-thread λ / `R` / `Q` memories of the serial
    /// [`LayeredDecoder::decode`], the f64 counterpart of the fixed-point
    /// decoder's default scratch.  Buffers only grow, so a thread decoding
    /// the same code repeatedly never reallocates them.
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// Working memory of one serial decode, sized once per code like the
/// processing element's fixed λ and `R_lk` memories.
#[derive(Debug)]
struct Scratch {
    /// Bit LLRs λ, one per variable.
    lambda: Vec<f64>,
    /// `R_lk` message memory, one per parity-check edge in CSR order.
    r: Vec<f64>,
    /// `Q_lk` values of the row being updated, up to the maximum degree.
    q: Vec<f64>,
}

impl Scratch {
    const fn new() -> Self {
        Scratch {
            lambda: Vec::new(),
            r: Vec::new(),
            q: Vec::new(),
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
    /// CSR row pointers into `cols` (length `m + 1`), rows stored in the
    /// layered schedule order.
    row_ptr: Vec<u32>,
    /// Flattened column indices of every parity-check entry, schedule order.
    cols: Vec<u32>,
    /// Largest check-node degree (`Q` row scratch size).
    max_degree: usize,
}

impl LayeredDecoder {
    /// Creates a decoder for `code` with the given configuration.
    pub fn new(code: &QcLdpcCode, config: LayeredConfig) -> Self {
        // Flatten the parity-check rows into CSR in the layered schedule
        // order (layer by layer), mirroring the fixed-point decoder's
        // layout.
        let h = code.parity_check();
        let mut row_ptr = Vec::with_capacity(code.m() + 1);
        let mut cols = Vec::with_capacity(code.edge_count());
        let mut max_degree = 0;
        row_ptr.push(0u32);
        for layer in code.layers() {
            for &row in &layer {
                let entries = h.row(row);
                max_degree = max_degree.max(entries.len());
                cols.extend(entries.iter().map(|&c| c as u32));
                row_ptr.push(cols.len() as u32);
            }
        }
        LayeredDecoder {
            code: code.clone(),
            config,
            row_ptr,
            cols,
            max_degree,
        }
    }

    /// The decoder configuration.
    pub fn config(&self) -> &LayeredConfig {
        &self.config
    }

    /// Decodes a block of channel LLRs.
    ///
    /// λ, the `R` message memory and the `Q` row live in a per-thread
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
        SCRATCH.with(|s| self.decode_in(channel, &mut s.borrow_mut()))
    }

    /// The serial layered iteration over the CSR arrays.
    fn decode_in(&self, channel: &[Llr], scratch: &mut Scratch) -> DecodeOutcome {
        let h = self.code.parity_check();
        let LayeredConfig { scale, offset, .. } = self.config;
        let Scratch { lambda, r, q } = scratch;
        lambda.clear();
        lambda.extend(channel.iter().map(|l| l.value()));
        r.clear();
        r.resize(self.cols.len(), 0.0);
        q.resize(self.max_degree, 0.0);
        let mut hard = vec![0u8; lambda.len()];

        let mut iterations = 0;
        let mut converged = false;

        for it in 0..self.config.max_iterations {
            iterations = it + 1;
            for rows in self.row_ptr.windows(2) {
                let (start, end) = (rows[0] as usize, rows[1] as usize);
                let cols = &self.cols[start..end];
                let r_row = &mut r[start..end];
                let q_row = &mut q[..cols.len()];
                // Q_lk = lambda_old - R_old, Eq. (6); two-minimum extraction, Eq. (11).
                let mut meu = MinimumExtractionUnit::new();
                for (j, ((qj, &col), &rj)) in
                    q_row.iter_mut().zip(cols).zip(r_row.iter()).enumerate()
                {
                    *qj = lambda[col as usize] - rj;
                    meu.push(j, *qj);
                }
                // R_new and lambda update, Eq. (9)-(10), with the optional
                // offset-min-sum correction applied before normalization.
                // A row sends two messages, signed by the product of all its
                // signs: `min2` to the minimum's position and `min1` to every
                // other one.  Every edge takes the second, then the minimum's
                // edge is updated again with the first, so no edge selects
                // between them.  An edge excludes its own sign by negating
                // when its `Q` is negative.  IEEE rounding is sign-symmetric,
                // so this equals multiplying by the excluded sign bit for bit
                // whenever the message is not NaN (a finite scale and a
                // non-negative offset).
                let signed_scale = scale * meu.sign_product();
                let message = |pos| signed_scale * (meu.magnitude_for(pos) - offset).max(0.0);
                let excluding = |qj: f64, m: f64| if qj < 0.0 { -m } else { m };
                // Position `cols.len()` is past the row, so it receives
                // `min1`, like every position but the minimum's.
                let to_rest = message(cols.len());
                for ((&qj, &col), rj) in q_row.iter().zip(cols).zip(r_row.iter_mut()) {
                    *rj = excluding(qj, to_rest);
                    lambda[col as usize] = qj + *rj;
                }
                if let Some(pos) = meu.min1_index() {
                    let qj = q_row[pos];
                    r_row[pos] = excluding(qj, message(pos));
                    lambda[cols[pos] as usize] = qj + r_row[pos];
                }
            }

            if self.config.early_termination {
                hard_decisions(lambda, &mut hard);
                if h.is_codeword(&hard) {
                    converged = true;
                    break;
                }
            }
        }

        if !converged {
            hard_decisions(lambda, &mut hard);
            converged = h.is_codeword(&hard);
        }
        DecodeOutcome {
            hard_bits: hard,
            posterior: lambda.clone(),
            iterations,
            converged,
        }
    }
}

/// Writes the hard decisions of `lambda` into `hard` through
/// [`Llr::hard_bit`] (so NaN decodes as bit 0).
fn hard_decisions(lambda: &[f64], hard: &mut [u8]) {
    for (hb, &l) in hard.iter_mut().zip(lambda) {
        *hb = Llr::new(l).hard_bit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_matrix::CodeRate;
    use crate::decoder::meu::SPECIAL_VALUES;
    use crate::encoder::QcEncoder;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The serial loop with a branching check-node update, kept as the
    /// oracle of the branch-free one: a sequential two-minimum scan that
    /// compares magnitudes as floats, and one signed message computed per
    /// edge.
    fn reference_decode(dec: &LayeredDecoder, channel: &[Llr]) -> DecodeOutcome {
        let h = dec.code.parity_check();
        let LayeredConfig { scale, offset, .. } = dec.config;
        let mut lambda: Vec<f64> = channel.iter().map(|l| l.value()).collect();
        let mut r = vec![0.0; dec.cols.len()];
        let hard = |lambda: &[f64]| -> Vec<u8> {
            lambda.iter().map(|&l| Llr::new(l).hard_bit()).collect()
        };
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..dec.config.max_iterations {
            iterations = it + 1;
            for rows in dec.row_ptr.windows(2) {
                let (start, end) = (rows[0] as usize, rows[1] as usize);
                let cols = &dec.cols[start..end];
                let q: Vec<f64> = cols
                    .iter()
                    .zip(&r[start..end])
                    .map(|(&col, &rj)| lambda[col as usize] - rj)
                    .collect();
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
                    lambda[col as usize] = qj + r_new;
                    r[start + j] = r_new;
                }
            }
            if dec.config.early_termination && h.is_codeword(&hard(&lambda)) {
                converged = true;
                break;
            }
        }
        if !converged {
            converged = h.is_codeword(&hard(&lambda));
        }
        DecodeOutcome {
            hard_bits: hard(&lambda),
            posterior: lambda,
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
        /// a fixed budget without early stop.
        #[test]
        fn decode_matches_the_branching_reference(seed in 0u64..1 << 32) {
            let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
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
            for cfg in configs {
                let dec = LayeredDecoder::new(&code, cfg);
                for (f, frame) in frames_with_special_llrs(code.n(), seed).iter().enumerate() {
                    let (got, want) = (dec.decode(frame), reference_decode(&dec, frame));
                    prop_assert!(got.hard_bits == want.hard_bits, "frame {} hard bits under {:?}", f, cfg);
                    prop_assert_eq!(got.iterations, want.iterations);
                    prop_assert_eq!(got.converged, want.converged);
                    let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert!(bits(&got.posterior) == bits(&want.posterior), "frame {} posterior under {:?}", f, cfg);
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
}

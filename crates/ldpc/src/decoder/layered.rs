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
    /// layered schedule order — walked by the serial loop and shared by
    /// all lanes of the batch path.
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
        // layout; the serial and the lockstep batch loop both walk it.
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
                for (j, ((&qj, &col), rj)) in
                    q_row.iter().zip(cols).zip(r_row.iter_mut()).enumerate()
                {
                    let sign_excl = if qj < 0.0 {
                        -meu.sign_product()
                    } else {
                        meu.sign_product()
                    };
                    let magnitude = (meu.magnitude_for(j) - offset).max(0.0);
                    let r_new = scale * sign_excl * magnitude;
                    lambda[col as usize] = qj + r_new;
                    *rj = r_new;
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

    /// Decodes a batch of frames **in lockstep** over the shared CSR
    /// structure: λ and the `R` messages live in struct-of-arrays buffers
    /// (frame innermost, `lambda[v * batch + f]`), so every row update runs
    /// over `batch` contiguous lanes — the floating-point counterpart of
    /// the fixed-point decoder's batch datapath.
    ///
    /// Early termination is per-lane: a converged frame's λ and `R` lanes
    /// are frozen while the others keep iterating, so every lane's result
    /// is **bit-identical** to decoding that frame alone with
    /// [`decode`](LayeredDecoder::decode); once all lanes have converged
    /// the iteration stops entirely.
    ///
    /// # Panics
    ///
    /// Panics if any frame's length differs from `code.n()`.
    pub fn decode_batch(&self, frames: &[&[Llr]]) -> Vec<DecodeOutcome> {
        let n = self.code.n();
        let batch = frames.len();
        if batch == 0 {
            return Vec::new();
        }
        let h = self.code.parity_check();

        // Transpose the frames into the [var][frame] SoA layout.
        let mut lambda = vec![0.0f64; n * batch];
        for (f, frame) in frames.iter().enumerate() {
            assert_eq!(
                frame.len(),
                n,
                "LLR vector length must equal the code length"
            );
            for (v, l) in frame.iter().enumerate() {
                lambda[v * batch + f] = l.value();
            }
        }
        let mut r = vec![0.0f64; self.cols.len() * batch];
        let mut q = vec![0.0f64; self.max_degree * batch];
        let mut hard = vec![0u8; n];
        let mut active = vec![true; batch];
        let mut iterations = vec![0usize; batch];
        let mut converged = vec![false; batch];
        let mut live = batch;
        let rows = self.row_ptr.len() - 1;

        for it in 0..self.config.max_iterations {
            for f in 0..batch {
                if active[f] {
                    iterations[f] = it + 1;
                }
            }
            for row in 0..rows {
                let start = self.row_ptr[row] as usize;
                let end = self.row_ptr[row + 1] as usize;
                let cols = &self.cols[start..end];

                // Q_lk = lambda_old - R_old, Eq. (6), over contiguous lanes.
                for (j, &col) in cols.iter().enumerate() {
                    let lam = &lambda[col as usize * batch..(col as usize + 1) * batch];
                    let r_row = &r[(start + j) * batch..(start + j + 1) * batch];
                    let q_row = &mut q[j * batch..(j + 1) * batch];
                    for f in 0..batch {
                        q_row[f] = lam[f] - r_row[f];
                    }
                }

                // Two-minimum extraction and the R/λ update, Eq. (9)-(11),
                // per lane in the exact arithmetic order of the serial
                // loop, so each lane stays bit-identical to `decode`.
                // Converged lanes are skipped: their λ and R stay frozen.
                for f in 0..batch {
                    if !active[f] {
                        continue;
                    }
                    let mut meu = MinimumExtractionUnit::new();
                    for j in 0..cols.len() {
                        meu.push(j, q[j * batch + f]);
                    }
                    for (j, &col) in cols.iter().enumerate() {
                        let qj = q[j * batch + f];
                        let sign_excl = if qj < 0.0 {
                            -meu.sign_product()
                        } else {
                            meu.sign_product()
                        };
                        let magnitude = (meu.magnitude_for(j) - self.config.offset).max(0.0);
                        let r_new = self.config.scale * sign_excl * magnitude;
                        lambda[col as usize * batch + f] = qj + r_new;
                        r[(start + j) * batch + f] = r_new;
                    }
                }
            }

            if self.config.early_termination {
                for f in 0..batch {
                    if !active[f] {
                        continue;
                    }
                    for (v, hb) in hard.iter_mut().enumerate() {
                        *hb = Llr::new(lambda[v * batch + f]).hard_bit();
                    }
                    if h.is_codeword(&hard) {
                        converged[f] = true;
                        active[f] = false;
                        live -= 1;
                    }
                }
                if live == 0 {
                    break;
                }
            }
        }

        (0..batch)
            .map(|f| {
                let posterior: Vec<f64> = (0..n).map(|v| lambda[v * batch + f]).collect();
                let hard_bits: Vec<u8> =
                    posterior.iter().map(|&l| Llr::new(l).hard_bit()).collect();
                let lane_converged = converged[f] || h.is_codeword(&hard_bits);
                DecodeOutcome {
                    hard_bits,
                    posterior,
                    iterations: iterations[f],
                    converged: lane_converged,
                }
            })
            .collect()
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
    use crate::encoder::QcEncoder;
    use rand::{Rng, SeedableRng};

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

    /// A batch that exercises every lane state the lockstep loop can reach:
    /// instant convergence, convergence at different iteration counts, a
    /// frame that never converges, and a NaN-bearing frame.
    fn mixed_batch(code: &QcLdpcCode) -> Vec<Vec<Llr>> {
        let enc = QcEncoder::new(code);
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut frames = vec![vec![Llr::new(6.0); code.n()]];
        for seed in [2u64, 6, 15] {
            let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
            let cw = enc.encode(&info).unwrap();
            frames.push(noisy_llrs(&cw, 0.8, seed));
        }
        // Pure noise: should exhaust max_iterations without converging.
        frames.push(
            (0..code.n())
                .map(|_| Llr::new(rng.gen_range(-1.0..1.0)))
                .collect(),
        );
        let mut with_nan = vec![Llr::new(6.0); code.n()];
        with_nan[37] = Llr::new(f64::NAN);
        frames.push(with_nan);
        frames
    }

    /// Per-lane equality with the posterior compared **by bit pattern**
    /// (`f64::to_bits`), so the NaN-bearing lane still asserts bit-exact
    /// lockstep arithmetic instead of tripping over `NaN != NaN`.
    fn assert_outcomes_bit_identical(batched: &[DecodeOutcome], serial: &[DecodeOutcome]) {
        assert_eq!(batched.len(), serial.len());
        for (f, (b, s)) in batched.iter().zip(serial).enumerate() {
            assert_eq!(b.hard_bits, s.hard_bits, "lane {f}: hard bits");
            assert_eq!(b.iterations, s.iterations, "lane {f}: iterations");
            assert_eq!(b.converged, s.converged, "lane {f}: converged");
            let b_bits: Vec<u64> = b.posterior.iter().map(|x| x.to_bits()).collect();
            let s_bits: Vec<u64> = s.posterior.iter().map(|x| x.to_bits()).collect();
            assert_eq!(b_bits, s_bits, "lane {f}: posterior bit patterns");
        }
    }

    #[test]
    fn batch_decode_matches_serial_decode_bit_for_bit() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = LayeredDecoder::new(&code, LayeredConfig::default());
        let frames = mixed_batch(&code);
        let refs: Vec<&[Llr]> = frames.iter().map(|f| f.as_slice()).collect();
        let batched = dec.decode_batch(&refs);
        let serial: Vec<DecodeOutcome> = frames.iter().map(|f| dec.decode(f)).collect();
        assert_outcomes_bit_identical(&batched, &serial);
        let iters: Vec<usize> = serial.iter().map(|o| o.iterations).collect();
        assert!(
            iters.windows(2).any(|w| w[0] != w[1]),
            "test batch must mix convergence depths, got {iters:?}"
        );
        assert!(serial.iter().any(|o| !o.converged));
    }

    #[test]
    fn batch_decode_matches_serial_with_offset_and_no_early_termination() {
        let code = QcLdpcCode::wimax(576, CodeRate::R34A).unwrap();
        let cfg = LayeredConfig {
            scale: 1.0,
            offset: 0.15,
            max_iterations: 6,
            early_termination: false,
        };
        let dec = LayeredDecoder::new(&code, cfg);
        let frames = mixed_batch(&code);
        let refs: Vec<&[Llr]> = frames.iter().map(|f| f.as_slice()).collect();
        let serial: Vec<DecodeOutcome> = frames.iter().map(|f| dec.decode(f)).collect();
        assert_outcomes_bit_identical(&dec.decode_batch(&refs), &serial);
    }

    #[test]
    fn batch_decode_handles_empty_and_singleton_batches() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = LayeredDecoder::new(&code, LayeredConfig::default());
        assert!(dec.decode_batch(&[]).is_empty());
        let frame = vec![Llr::new(6.0); code.n()];
        assert_eq!(dec.decode_batch(&[&frame]), vec![dec.decode(&frame)]);
    }
}

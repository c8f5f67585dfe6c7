//! Fixed-point layered normalized-min-sum decoder — the hardware datapath
//! model of the paper's LDPC mode.
//!
//! Where [`super::LayeredDecoder`] is the floating-point algorithmic
//! reference, this decoder computes exactly what the silicon computes:
//! channel LLRs are quantized to `lambda_bits` (7 in the paper, one
//! fractional bit), every message addition saturates at the register width,
//! the `3/4` normalization of Eq. (11) is a shift-add, and the `R_lk`
//! messages are saturated to `r_bits` before being written back.
//!
//! There is one decode loop: a lockstep kernel over `B` frame lanes with
//! `B` a compile-time width, one of 1, 2, 4, 8 and 16.  The three entry
//! points ([`decode`], [`decode_batch`] and [`decode_quantized`]) split
//! their frames into those widths (a single frame is `B = 1`; 13 frames
//! run as 8 + 4 + 1), and lanes never interact, so results do not depend on
//! the split.  λ and the `R_lk` message memory are
//! struct-of-arrays (`[var][lane]`, `[edge][lane]`) over the CSR structure,
//! so every message update is one `[i16; B]` vector operation — the batch
//! analogue of the paper's PE updating `z` check rows in parallel.  See
//! `cargo bench -p decoder-bench --bench kernels` for the per-width
//! throughput.
//!
//! [`decode`]: FixedLayeredDecoder::decode
//! [`decode_batch`]: FixedLayeredDecoder::decode_batch
//! [`decode_quantized`]: FixedLayeredDecoder::decode_quantized

use super::meu::LaneScan;
use super::DecodeOutcome;
use crate::code::QcLdpcCode;
use fec_fixed::{Llr, MinSumArith, QuantStats, Quantizer, LAMBDA_BITS, R_BITS};
use fec_obs::{Class, NoopRecorder, Recorder};
use std::cell::RefCell;

thread_local! {
    /// Per-thread λ / `R` / `Q` memories of every entry point, so steady-
    /// state decoding allocates only the returned outcomes.  Buffers only
    /// grow, so one thread decoding the same code repeatedly never
    /// reallocates.
    static SCRATCH: RefCell<FixedScratch> = const { RefCell::new(FixedScratch::new()) };
}

/// Working memory of the fixed-point decoder: the λ registers, the `R_lk`
/// message memory and the `Q_lk` row scratch of one lockstep block.
///
/// The buffers hold **struct-of-arrays** data, frame lane innermost:
/// `lambda[v * B + f]` is variable `v` of lane `f`, `r[e * B + f]` edge `e`
/// of lane `f`, so every message update runs over `B` contiguous lanes.
#[derive(Debug)]
struct FixedScratch {
    /// λ registers, `[var][lane]`.
    lambda: Vec<i16>,
    /// `R_lk` message memory, `[edge][lane]`.
    r: Vec<i16>,
    /// `Q_lk` row scratch, `[position][lane]` up to the maximum degree.
    q: Vec<i16>,
}

impl FixedScratch {
    const fn new() -> Self {
        FixedScratch {
            lambda: Vec::new(),
            r: Vec::new(),
            q: Vec::new(),
        }
    }
}

/// Configuration of the fixed-point layered decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedLayeredConfig {
    /// Maximum number of iterations (the paper uses 10 for LDPC mode).
    pub max_iterations: usize,
    /// Bit width of the channel/bit-LLR registers (λ); the paper uses 7.
    pub lambda_bits: u32,
    /// Bit width of the check-to-variable message memory (`R_lk`).  Defaults
    /// to the λ width for a near-lossless datapath; set it to
    /// [`fec_fixed::R_BITS`] (5) to model the paper's compressed message
    /// memory.
    pub r_bits: u32,
    /// Fractional bits of the λ quantizer (the paper uses 1).
    pub frac_bits: u32,
    /// Stop as soon as the hard decisions satisfy all parity checks.
    pub early_termination: bool,
}

impl Default for FixedLayeredConfig {
    fn default() -> Self {
        FixedLayeredConfig {
            max_iterations: 10,
            lambda_bits: LAMBDA_BITS,
            r_bits: LAMBDA_BITS,
            frac_bits: 1,
            early_termination: true,
        }
    }
}

impl FixedLayeredConfig {
    /// The paper's exact register widths (Section IV): 7-bit λ with one
    /// fractional bit and the compressed 5-bit `R` memory.
    pub fn paper() -> Self {
        FixedLayeredConfig {
            r_bits: R_BITS,
            ..FixedLayeredConfig::default()
        }
    }

    /// Builder-style setter tying the λ width (and the `R` width) to
    /// `bits`, for quantization-loss sweeps.
    pub fn with_lambda_bits(mut self, bits: u32) -> Self {
        self.lambda_bits = bits;
        self.r_bits = bits;
        self
    }
}

/// Fixed-point layered normalized-min-sum decoder operating on one code.
///
/// # Example
///
/// ```
/// use wimax_ldpc::{CodeRate, QcLdpcCode};
/// use wimax_ldpc::decoder::{FixedLayeredConfig, FixedLayeredDecoder};
/// use fec_fixed::Llr;
///
/// let code = QcLdpcCode::wimax(576, CodeRate::R12)?;
/// let decoder = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
/// let out = decoder.decode(&vec![Llr::new(4.0); code.n()]);
/// assert!(out.converged);
/// # Ok::<(), wimax_ldpc::LdpcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FixedLayeredDecoder {
    code: QcLdpcCode,
    config: FixedLayeredConfig,
    arith: MinSumArith,
    quantizer: Quantizer,
    /// CSR row pointers into `cols` (length `m + 1`).  Rows are stored in
    /// natural order, which *is* the layered schedule: each block row of the
    /// base matrix occupies one contiguous run of `z` rows.
    row_ptr: Vec<u32>,
    /// Flattened column indices of every parity-check entry.
    cols: Vec<u32>,
    /// Largest check-node degree (scratch-buffer size).
    max_degree: usize,
}

impl FixedLayeredDecoder {
    /// Creates a decoder for `code` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the register widths are outside `2..=15`, if any parity
    /// check has degree below 2 (a degree-1 check carries no extrinsic
    /// information and indicates a malformed code) or above `u16::MAX`.
    pub fn new(code: &QcLdpcCode, config: FixedLayeredConfig) -> Self {
        let h = code.parity_check();
        let m = code.m();
        let mut row_ptr = Vec::with_capacity(m + 1);
        let mut cols = Vec::with_capacity(code.edge_count());
        let mut max_degree = 0;
        row_ptr.push(0);
        for row in 0..m {
            let entries = h.row(row);
            assert!(
                entries.len() >= 2,
                "check row {row} has degree {} (< 2): the min-sum update needs \
                 a leave-one-out partner",
                entries.len()
            );
            assert!(
                entries.len() <= usize::from(u16::MAX),
                "check row {row} is wider than the u16 MEU positions"
            );
            max_degree = max_degree.max(entries.len());
            cols.extend(entries.iter().map(|&c| c as u32));
            row_ptr.push(cols.len() as u32);
        }
        FixedLayeredDecoder {
            code: code.clone(),
            arith: MinSumArith::new(config.lambda_bits, config.r_bits),
            quantizer: Quantizer::new(config.lambda_bits, config.frac_bits),
            config,
            row_ptr,
            cols,
            max_degree,
        }
    }

    /// The decoder configuration.
    pub fn config(&self) -> &FixedLayeredConfig {
        &self.config
    }

    /// The λ quantizer in front of the datapath.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// Quantizes floating-point channel LLRs and decodes one frame.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != code.n()`.
    pub fn decode(&self, channel: &[Llr]) -> DecodeOutcome {
        self.decode_batch(&[channel], &mut NoopRecorder).remove(0)
    }

    /// Quantizes `frames.len()` frames of channel LLRs and decodes them **in
    /// lockstep** blocks of 16, 8, 4, 2 and 1 lanes over the shared CSR
    /// structure.  Per-frame results are bit-identical to decoding each
    /// frame alone.
    ///
    /// `rec` receives the per-frame count metrics (`fixed.frames`,
    /// iterations, convergence, quantizer and min-sum saturation), which
    /// are bit-identical at any batch size, and the Execution-class lockstep
    /// metrics of every block (per-lane iteration histogram and over-work).
    /// With [`NoopRecorder`] every recording site compiles away.
    ///
    /// # Panics
    ///
    /// Panics if any frame's length differs from `code.n()`.
    pub fn decode_batch<R: Recorder>(&self, frames: &[&[Llr]], rec: &mut R) -> Vec<DecodeOutcome> {
        let n = self.code.n();
        for frame in frames {
            assert_eq!(
                frame.len(),
                n,
                "LLR vector length must equal the code length"
            );
        }
        let mut quant = QuantStats::default();
        let outcomes = self.decode_frames(frames.len(), rec, |f, v| {
            self.quantize_lambda::<R>(frames[f][v], &mut quant)
        });
        record_quant_stats(rec, &quant);
        outcomes
    }

    /// Decodes already-quantized frames (integer λ values in LSB units) in
    /// lockstep like [`decode_batch`](FixedLayeredDecoder::decode_batch).
    /// `quantized` holds the frames back to back (frame `f` occupies
    /// `quantized[f * n .. (f + 1) * n]`); out-of-range values are
    /// saturated to the register width.  Returns one [`DecodeOutcome`] per
    /// frame, in input order — none for an empty input.
    ///
    /// # Panics
    ///
    /// Panics if `quantized.len()` is not a multiple of `code.n()`.
    pub fn decode_quantized<R: Recorder>(
        &self,
        quantized: &[i16],
        rec: &mut R,
    ) -> Vec<DecodeOutcome> {
        let n = self.code.n();
        assert_eq!(
            quantized.len() % n,
            0,
            "quantized input must hold whole frames: batch * n LLR values"
        );
        let (lo, hi) = self.lambda_bounds();
        self.decode_frames(quantized.len() / n, rec, |f, v| {
            quantized[f * n + v].clamp(lo, hi)
        })
    }

    /// Decodes `count` frames, split greedily into lockstep blocks of 16,
    /// 8, 4, 2 and 1 lanes, in the per-thread scratch; λ of frame `f` at
    /// variable `v` is `lambda_of(f, v)`.  Records the lockstep execution
    /// metrics of every block.
    fn decode_frames<R: Recorder>(
        &self,
        count: usize,
        rec: &mut R,
        mut lambda_of: impl FnMut(usize, usize) -> i16,
    ) -> Vec<DecodeOutcome> {
        SCRATCH.with(|scratch| {
            let scratch = &mut scratch.borrow_mut();
            let mut outcomes = Vec::with_capacity(count);
            while outcomes.len() < count {
                let first = outcomes.len();
                let lanes = |f, v| lambda_of(first + f, v);
                match count - first {
                    16.. => self.push_block::<16, R>(scratch, rec, lanes, &mut outcomes),
                    8..=15 => self.push_block::<8, R>(scratch, rec, lanes, &mut outcomes),
                    4..=7 => self.push_block::<4, R>(scratch, rec, lanes, &mut outcomes),
                    2..=3 => self.push_block::<2, R>(scratch, rec, lanes, &mut outcomes),
                    _ => self.push_block::<1, R>(scratch, rec, lanes, &mut outcomes),
                }
            }
            outcomes
        })
    }

    /// Decodes one `B`-lane block of [`decode_frames`](Self::decode_frames)
    /// and appends its outcomes.
    fn push_block<const B: usize, R: Recorder>(
        &self,
        scratch: &mut FixedScratch,
        rec: &mut R,
        lambda_of: impl FnMut(usize, usize) -> i16,
        outcomes: &mut Vec<DecodeOutcome>,
    ) {
        let (lanes, exec) = self.decode_block::<B, R>(scratch, rec, lambda_of);
        if R::ENABLED {
            // Each lane occupies its slot for all `exec` iterations of the
            // block; `exec - iterations` is the over-work its early
            // termination could not reclaim.
            let mut overwork = 0u64;
            for out in &lanes {
                rec.observe(
                    Class::Execution,
                    "fixed.lane_iterations",
                    out.iterations as u64,
                );
                overwork += (exec - out.iterations) as u64;
            }
            rec.observe(Class::Execution, "fixed.batch_exec_iterations", exec as u64);
            rec.incr(Class::Execution, "fixed.overwork_iters", overwork);
            rec.incr(Class::Execution, "fixed.lockstep_lanes", B as u64);
        }
        outcomes.extend(lanes);
    }

    /// Quantizes one channel LLR into a λ register value, counting
    /// quantizer saturation into `stats` when recording.
    fn quantize_lambda<R: Recorder>(&self, llr: Llr, stats: &mut QuantStats) -> i16 {
        let q = if R::ENABLED {
            self.quantizer.quantize_tracked(llr.value(), stats)
        } else {
            self.quantizer.quantize(llr.value())
        };
        // fec-lint: allow(fixed-narrowing-cast, quantizer output is a SatFixed already clamped to the lambda register range, which new() bounds to 15 bits)
        q.value() as i16
    }

    /// The λ register rails, for saturating already-quantized inputs.
    fn lambda_bounds(&self) -> (i16, i16) {
        // fec-lint: allow(fixed-narrowing-cast, lambda register bounds fit i16 because MinSumArith::new rejects lambda_bits > 15)
        let lo = self.arith.lambda_min() as i16;
        // fec-lint: allow(fixed-narrowing-cast, lambda register bounds fit i16 because MinSumArith::new rejects lambda_bits > 15)
        let hi = self.arith.lambda_max() as i16;
        (lo, hi)
    }

    /// The outcome of lane `f` from the λ registers as they stand.
    fn lane_outcome<const B: usize>(
        &self,
        lambda: &[[i16; B]],
        f: usize,
        iterations: usize,
        converged: bool,
    ) -> DecodeOutcome {
        let scale = self.quantizer.scale();
        DecodeOutcome {
            hard_bits: lambda.iter().map(|l| u8::from(l[f] < 0)).collect(),
            posterior: lambda.iter().map(|l| f64::from(l[f]) / scale).collect(),
            iterations,
            converged,
        }
    }

    /// Per-frame count metrics of one decoded lane.  They depend only on
    /// the frame, so they stay part of the determinism contract at any
    /// batch size.
    fn record_frame_counts<R: Recorder>(&self, rec: &mut R, iterations: usize, converged: bool) {
        rec.incr(Class::Count, "fixed.frames", 1);
        rec.observe(Class::Count, "fixed.iterations", iterations as u64);
        if converged {
            rec.incr(Class::Count, "fixed.converged", 1);
        }
        if converged && iterations < self.config.max_iterations {
            rec.incr(Class::Count, "fixed.early_stops", 1);
        }
    }

    /// The decode loop: `B` frame lanes in lockstep, with λ of lane `f` at
    /// variable `v` given by `lambda_of(f, v)`.  Returns the per-lane
    /// outcomes and the number of iterations the block executed.
    ///
    /// Early termination is per lane: the iteration in which a lane's hard
    /// decisions first satisfy every check takes that lane's outcome, so it
    /// matches a decode of that frame alone bit for bit.  The lane then
    /// keeps running with the others, unobserved: lanes never interact, and
    /// one sweep body serves any mix of decided and undecided lanes.  The
    /// block stops once every lane is decided.
    ///
    /// Generic over [`Recorder`]: every recording site sits behind
    /// `R::ENABLED`, an associated `const`, so the [`NoopRecorder`]
    /// monomorphization carries no instrumentation.
    fn decode_block<const B: usize, R: Recorder>(
        &self,
        scratch: &mut FixedScratch,
        rec: &mut R,
        mut lambda_of: impl FnMut(usize, usize) -> i16,
    ) -> ([DecodeOutcome; B], usize) {
        let n = self.code.n();
        let FixedScratch { lambda, r, q } = scratch;
        lambda.clear();
        lambda.resize(n * B, 0);
        // `R_lk` starts at zero for every frame.
        r.clear();
        r.resize(self.cols.len() * B, 0);
        q.clear();
        q.resize(self.max_degree * B, 0);
        let lambda = lambda.as_chunks_mut::<B>().0;
        let r = r.as_chunks_mut::<B>().0;
        let q = q.as_chunks_mut::<B>().0;
        for (v, lanes) in lambda.iter_mut().enumerate() {
            for (f, value) in lanes.iter_mut().enumerate() {
                *value = lambda_of(f, v);
            }
        }

        // Lane masks are all-ones while a lane is undecided and zero once
        // its outcome is taken.
        let mut undecided = [-1i16; B];
        let mut decided: [Option<DecodeOutcome>; B] = [const { None }; B];
        let mut sat = SatCounts::default();
        let mut exec = 0;
        for it in 1..=self.config.max_iterations {
            exec = it;
            self.sweep::<B, R>(lambda, r, q, undecided, &mut sat);
            if self.config.early_termination {
                let satisfied = self.parity_satisfied(lambda, undecided);
                for f in 0..B {
                    if satisfied[f] {
                        decided[f] = Some(self.lane_outcome(lambda, f, it, true));
                        undecided[f] = 0;
                    }
                }
                if undecided == [0; B] {
                    break;
                }
            }
        }
        // Lanes that never stopped early ran every iteration; they get one
        // syndrome check of their final hard decisions.
        let satisfied = self.parity_satisfied(lambda, undecided);
        let outcomes = std::array::from_fn(|f| {
            decided[f]
                .take()
                .unwrap_or_else(|| self.lane_outcome(lambda, f, exec, satisfied[f]))
        });
        if R::ENABLED {
            for out in &outcomes {
                self.record_frame_counts(rec, out.iterations, out.converged);
            }
            rec.incr(Class::Count, "fixed.sat_q", sat.sat_q);
            rec.incr(Class::Count, "fixed.r_clip", sat.r_clip);
            rec.incr(Class::Count, "fixed.sat_lambda", sat.sat_lambda);
        }
        (outcomes, exec)
    }

    /// One layered iteration over every check row, Eq. (6)–(11), for all
    /// `B` lanes, decided or not.  The saturation counters skip the lanes
    /// whose `undecided` mask is zero.
    ///
    /// Kept out of line, one body per lane width and recorder, so the
    /// vectorization of each `[i16; B]` operation does not depend on the
    /// iteration loop around it.  Check the `B = 8` codegen (not only
    /// `B = 16`) when changing the lane loops: a loop body too large to
    /// unroll stays a scalar loop over the lanes.
    #[inline(never)]
    fn sweep<const B: usize, R: Recorder>(
        &self,
        lambda: &mut [[i16; B]],
        r: &mut [[i16; B]],
        q: &mut [[i16; B]],
        undecided: [i16; B],
        sat: &mut SatCounts,
    ) {
        let arith = &self.arith;
        // Natural row order == layered schedule (see `row_ptr` docs).
        for row in self.row_ptr.windows(2) {
            let (start, end) = (row[0] as usize, row[1] as usize);
            let cols = &self.cols[start..end];
            let r_row = &mut r[start..end];
            let q_row = &mut q[..cols.len()];
            let mut sat_q = [0u16; B];
            let mut r_clip = [0u16; B];
            let mut sat_lambda = [0u16; B];

            // Fused pass: Q_lk = sat(λ - R_old), Eq. (6), streamed through
            // the lane MEU (two minima, first position, sign parity).
            let mut meu = LaneScan::<B>::default();
            for (pos, ((qj, &col), rj)) in (0u16..).zip(q_row.iter_mut().zip(cols).zip(&*r_row)) {
                let lam = lambda[col as usize];
                *qj = arith.q_message_array(lam, *rj);
                if R::ENABLED {
                    // Saturated where the clamp moved the exact difference
                    // (at legal widths the `i16` difference never saturates;
                    // see `MinSumArith::q_message_array`).
                    count_lanes(&mut sat_q, undecided, |f| {
                        qj[f] != lam[f].saturating_sub(rj[f])
                    });
                }
                meu.push(pos, *qj);
            }
            if R::ENABLED {
                count_lanes(&mut r_clip, undecided, |f| {
                    arith.r_clips(i32::from(meu.min1[f]))
                });
                count_lanes(&mut r_clip, undecided, |f| {
                    arith.r_clips(i32::from(meu.min2[f]))
                });
            }

            // Update pass: R_new and λ, Eq. (9)-(11).  The 3/4 scaling runs
            // once per row: the first position holding min1 gets the scaled
            // min2 (mag1 ^ swap), every other one the scaled min1, negated
            // as `(mag ^ s) - s`, with `s` all ones where the other inputs'
            // signs multiply to -1.
            let mag1 = arith.scaled_magnitude_array(meu.min1);
            let mag2 = arith.scaled_magnitude_array(meu.min2);
            let swap: [i16; B] = std::array::from_fn(|f| mag1[f] ^ mag2[f]);
            for (pos, ((qj, &col), rj)) in (0u16..).zip(q_row.iter().zip(cols).zip(r_row)) {
                // One short loop per step, like `LaneScan::push`.
                let mut r_new = mag1;
                for ((r, swap), first) in r_new.iter_mut().zip(swap).zip(meu.min1_pos) {
                    *r ^= swap & -i16::from(first == pos);
                }
                for ((r, q), sign) in r_new.iter_mut().zip(*qj).zip(meu.sign) {
                    let s = (q ^ sign) >> 15;
                    // Never wraps: magnitudes are non-negative.
                    *r = (*r ^ s).wrapping_sub(s);
                }
                let lam_new = arith.lambda_update_array(*qj, r_new);
                if R::ENABLED {
                    // As for `sat_q`: the clamp moved the exact sum.
                    count_lanes(&mut sat_lambda, undecided, |f| {
                        lam_new[f] != qj[f].saturating_add(r_new[f])
                    });
                }
                lambda[col as usize] = lam_new;
                *rj = r_new;
            }
            if R::ENABLED {
                sat.add_row(sat_q, r_clip, sat_lambda);
            }
        }
    }

    /// Syndrome check of the hard decisions `λ < 0` for the lanes whose
    /// `lanes` mask is set: the sign bit of the XOR of a row's λ values is
    /// that row's parity, so all lanes are checked at once.  Unchecked lanes
    /// report `false`.
    fn parity_satisfied<const B: usize>(&self, lambda: &[[i16; B]], lanes: [i16; B]) -> [bool; B] {
        // Sign bit of `failed[f]`: lane `f` has an odd-parity row (unchecked
        // lanes start failed, so they never hold up the early exit).
        let mut failed = lanes.map(|m| !m);
        for row in self.row_ptr.windows(2) {
            let mut parity = [0i16; B];
            for &col in &self.cols[row[0] as usize..row[1] as usize] {
                let l = &lambda[col as usize];
                for f in 0..B {
                    parity[f] ^= l[f];
                }
            }
            for f in 0..B {
                failed[f] |= parity[f];
            }
            if failed.iter().all(|&x| x < 0) {
                break;
            }
        }
        failed.map(|x| x >= 0)
    }
}

/// Saturation-event counts of one block, summed over its undecided lanes.
#[derive(Default)]
struct SatCounts {
    sat_q: u64,
    r_clip: u64,
    sat_lambda: u64,
}

impl SatCounts {
    /// Adds one check row's per-lane counts, summing the lanes.
    fn add_row<const B: usize>(&mut self, sat_q: [u16; B], r_clip: [u16; B], sat_lambda: [u16; B]) {
        let sum = |lanes: [u16; B]| lanes.iter().map(|&n| u64::from(n)).sum::<u64>();
        self.sat_q += sum(sat_q);
        self.r_clip += sum(r_clip);
        self.sat_lambda += sum(sat_lambda);
    }
}

/// Records the quantizer saturation counts of the frames just loaded.
fn record_quant_stats<R: Recorder>(rec: &mut R, quant: &QuantStats) {
    if R::ENABLED {
        rec.incr(Class::Count, "fixed.sat_quantize", quant.saturated);
        rec.incr(Class::Count, "fixed.quantized_llrs", quant.total);
    }
}

/// Adds one to `counts[f]` for every lane `f` whose `lanes` mask is set
/// and for which `event` holds.  Branch-free and lane by lane, with no sum
/// across lanes, so predicates and counts stay vector operations.  A check
/// row holds at most `u16::MAX` messages (checked in `new`), so a row's
/// counts never wrap.
#[inline(always)]
fn count_lanes<const B: usize>(
    counts: &mut [u16; B],
    lanes: [i16; B],
    event: impl Fn(usize) -> bool,
) {
    for (f, (count, mask)) in counts.iter_mut().zip(lanes).enumerate() {
        *count += u16::from(event(f)) & mask.cast_unsigned();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_matrix::CodeRate;
    use crate::decoder::{LayeredConfig, LayeredDecoder, MinimumExtractionUnit};
    use crate::encoder::QcEncoder;
    use fec_obs::Registry;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The serial loop the lockstep kernel replaced, kept as its oracle:
    /// one frame at a time, a two-pass [`MinimumExtractionUnit::scan`] per
    /// row and a syndrome check of the hard decisions after every
    /// iteration.  Records the same Count-class metrics as the kernel.
    fn reference_decode(
        dec: &FixedLayeredDecoder,
        quantized: &[i16],
        rec: &mut Registry,
    ) -> DecodeOutcome {
        let arith = &dec.arith;
        let h = dec.code.parity_check();
        let (lo, hi) = dec.lambda_bounds();
        let mut lambda: Vec<i16> = quantized.iter().map(|&v| v.clamp(lo, hi)).collect();
        let mut r = vec![0i16; dec.cols.len()];
        let mut q = vec![0i16; dec.max_degree];
        let (mut sat_q, mut r_clip, mut sat_lambda) = (0u64, 0u64, 0u64);
        let hard =
            |lambda: &[i16]| -> Vec<u8> { lambda.iter().map(|&l| u8::from(l < 0)).collect() };
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..dec.config.max_iterations {
            iterations = it + 1;
            for row in 0..dec.code.m() {
                let start = dec.row_ptr[row] as usize;
                let end = dec.row_ptr[row + 1] as usize;
                let cols = &dec.cols[start..end];
                let r_row = &mut r[start..end];
                let q_row = &mut q[..cols.len()];
                for ((qj, &col), &rj) in q_row.iter_mut().zip(cols).zip(r_row.iter()) {
                    let (lam, rv) = (i32::from(lambda[col as usize]), i32::from(rj));
                    sat_q += u64::from(arith.q_saturates(lam, rv));
                    *qj = arith.q_message(lam, rv);
                }
                let scan = MinimumExtractionUnit::scan(q_row);
                r_clip += u64::from(arith.r_clips(i32::from(scan.min1)));
                r_clip += u64::from(arith.r_clips(i32::from(scan.min2)));
                let mag1 = arith.r_message(i32::from(scan.min1), false);
                let mag2 = arith.r_message(i32::from(scan.min2), false);
                for (j, ((&qj, &col), rj)) in
                    q_row.iter().zip(cols).zip(r_row.iter_mut()).enumerate()
                {
                    let mag = if j as u32 == scan.min1_pos {
                        mag2
                    } else {
                        mag1
                    };
                    let r_new = if (qj < 0) != scan.negative_parity {
                        -mag
                    } else {
                        mag
                    };
                    sat_lambda +=
                        u64::from(arith.lambda_saturates(i32::from(qj), i32::from(r_new)));
                    lambda[col as usize] = arith.lambda_update(i32::from(qj), i32::from(r_new));
                    *rj = r_new;
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
        dec.record_frame_counts(rec, iterations, converged);
        rec.incr(Class::Count, "fixed.sat_q", sat_q);
        rec.incr(Class::Count, "fixed.r_clip", r_clip);
        rec.incr(Class::Count, "fixed.sat_lambda", sat_lambda);
        DecodeOutcome {
            hard_bits: hard(&lambda),
            posterior: lambda
                .iter()
                .map(|&l| f64::from(l) / dec.quantizer.scale())
                .collect(),
            iterations,
            converged,
        }
    }

    /// Quantized λ frames of the all-zero codeword, each with its own sign
    /// flip rate from clean to hopeless, so one batch mixes lanes that stop
    /// early, late and never.  Magnitudes are mostly small, so a converged
    /// lane's λ still moves in the sweeps it runs after its outcome is
    /// taken; one in twenty reaches half again past the rail.
    fn random_lambda_frames(n: usize, hi: i16, seed: u64) -> Vec<Vec<i16>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..17)
            .map(|_| {
                let flip_rate = rng.gen_range(0.0..0.25);
                (0..n)
                    .map(|_| {
                        let magnitude = if rng.gen_range(0..20) == 0 {
                            rng.gen_range(0..=hi + hi / 2)
                        } else {
                            rng.gen_range(0..=hi / 4)
                        };
                        if rng.gen::<f64>() < flip_rate {
                            -magnitude
                        } else {
                            magnitude
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Decodes one already-quantized frame.
    fn decode_one(dec: &FixedLayeredDecoder, frame: &[i16]) -> DecodeOutcome {
        dec.decode_quantized(frame, &mut NoopRecorder).remove(0)
    }

    fn noisy_llrs(cw: &[u8], sigma: f64, seed: u64) -> Vec<Llr> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        cw.iter()
            .map(|&b| {
                let s = if b == 0 { 1.0 } else { -1.0 };
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                Llr::new(2.0 * (s + sigma * n) / (sigma * sigma))
            })
            .collect()
    }

    #[test]
    fn noiseless_all_zero_converges_in_one_iteration() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let out = dec.decode(&vec![Llr::new(6.0); code.n()]);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert!(out.hard_bits.iter().all(|&b| b == 0));
    }

    #[test]
    fn decodes_random_codeword_with_moderate_noise() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
        let cw = enc.encode(&info).unwrap();
        let out = dec.decode(&noisy_llrs(&cw, 0.63f64.sqrt(), 9));
        assert!(out.converged, "decoder did not converge");
        assert_eq!(out.hard_bits, cw);
        assert_eq!(out.info_bits(code.k()), &info[..]);
    }

    #[test]
    fn wide_registers_decode_without_wrapping() {
        // Regression: R messages used to be stored as i8, silently wrapping
        // (sign-flipping) for r_bits >= 9 instead of saturating.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let cfg = FixedLayeredConfig {
            frac_bits: 3,
            ..FixedLayeredConfig::default().with_lambda_bits(10)
        };
        let dec = FixedLayeredDecoder::new(&code, cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
        let cw = enc.encode(&info).unwrap();
        let out = dec.decode(&noisy_llrs(&cw, 0.63f64.sqrt(), 41));
        assert!(out.converged, "10-bit datapath did not converge");
        assert_eq!(out.hard_bits, cw);
    }

    #[test]
    fn paper_widths_also_decode() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::paper());
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
        let cw = enc.encode(&info).unwrap();
        let out = dec.decode(&noisy_llrs(&cw, 0.63f64.sqrt(), 14));
        assert!(out.converged, "paper-width decoder did not converge");
        assert_eq!(out.hard_bits, cw);
    }

    #[test]
    fn tracks_float_decoder_frame_for_frame_at_moderate_noise() {
        // The quantized datapath must agree with the f64 reference on the
        // overwhelming majority of moderately noisy frames: this is the
        // unit-level face of the "within 0.2 dB" quantization-loss claim.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let float_dec = LayeredDecoder::new(&code, LayeredConfig::default());
        let fixed_dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut agree = 0;
        let frames = 20;
        for seed in 0..frames {
            let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
            let cw = enc.encode(&info).unwrap();
            let llrs = noisy_llrs(&cw, 0.63f64.sqrt(), 300 + seed);
            let f = float_dec.decode(&llrs);
            let x = fixed_dec.decode(&llrs);
            if f.hard_bits == x.hard_bits {
                agree += 1;
            }
        }
        assert!(
            agree >= frames - 2,
            "fixed datapath agreed on only {agree}/{frames} frames"
        );
    }

    #[test]
    fn decode_quantized_saturates_out_of_range_inputs() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        // +1000 saturates to +63: still a confident zero bit.
        let out = decode_one(&dec, &vec![1000i16; code.n()]);
        assert!(out.converged);
        assert!(out.hard_bits.iter().all(|&b| b == 0));
        assert!(out.posterior.iter().all(|&p| p == 31.5)); // 63 / 2^1
    }

    #[test]
    fn nan_channel_llr_decodes_as_zero_bit() {
        // The quantizer maps NaN to 0, so a NaN input behaves like an erased
        // bit and the surrounding checks pull it to the right value.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let mut llrs = vec![Llr::new(6.0); code.n()];
        llrs[100] = Llr::new(f64::NAN);
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert!(out.hard_bits.iter().all(|&b| b == 0));
    }

    #[test]
    fn corrects_a_few_flipped_bits() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let mut llrs = vec![Llr::new(4.0); code.n()];
        for i in 0..10 {
            llrs[i * 53] = Llr::new(-4.0);
        }
        let out = dec.decode(&llrs);
        assert!(out.converged);
        assert!(out.hard_bits.iter().all(|&b| b == 0));
    }

    #[test]
    fn works_for_all_rates() {
        for rate in CodeRate::all() {
            let code = QcLdpcCode::wimax(576, rate).unwrap();
            let enc = QcEncoder::new(&code);
            let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
            let cw = enc.encode(&info).unwrap();
            let out = dec.decode(&noisy_llrs(&cw, 0.4, 3));
            assert!(out.converged, "rate {rate}");
            assert_eq!(out.hard_bits, cw, "rate {rate}");
        }
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_llr_length_panics() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let _ = dec.decode(&[Llr::new(1.0); 10]);
    }

    #[test]
    fn batch_decode_is_bit_identical_to_serial_for_every_lane() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let n = code.n();
        for (seed, batch) in [(1u64, 1usize), (2, 2), (3, 3), (4, 5), (5, 8)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // ±300 exceeds the 7-bit λ range, so saturation is exercised too.
            let q: Vec<i16> = (0..batch * n)
                .map(|_| rng.gen_range(-300i16..=300))
                .collect();
            let batched = dec.decode_quantized(&q, &mut NoopRecorder);
            assert_eq!(batched.len(), batch);
            for f in 0..batch {
                let serial = decode_one(&dec, &q[f * n..(f + 1) * n]);
                assert_eq!(batched[f], serial, "lane {f} of batch {batch}");
            }
        }
    }

    #[test]
    fn batch_lanes_with_mixed_convergence_match_serial() {
        // Lanes that converge at different iterations are decided at
        // different times and keep running after that; every lane must
        // still equal its own serial run.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let frames: Vec<Vec<Llr>> = (0..4)
            .map(|i| {
                let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
                let cw = enc.encode(&info).unwrap();
                // The last lane gets much heavier noise so it stays busy
                // (or fails) while the clean lanes finish early.
                let sigma = if i == 3 { 1.8 } else { 0.5 + 0.1 * i as f64 };
                noisy_llrs(&cw, sigma, 100 + i as u64)
            })
            .collect();
        let refs: Vec<&[Llr]> = frames.iter().map(|f| f.as_slice()).collect();
        let batched = dec.decode_batch(&refs, &mut NoopRecorder);
        let serial: Vec<DecodeOutcome> = frames.iter().map(|f| dec.decode(f)).collect();
        assert_eq!(batched, serial);
        let iters: Vec<usize> = serial.iter().map(|o| o.iterations).collect();
        assert!(
            iters.iter().any(|&i| i != iters[0]),
            "test frames all converged in {} iterations — noise levels no \
             longer exercise per-lane early termination",
            iters[0]
        );
    }

    #[test]
    fn batch_decode_matches_serial_at_paper_widths() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::paper());
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let frames: Vec<Vec<Llr>> = (0..3)
            .map(|i| {
                let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
                let cw = enc.encode(&info).unwrap();
                noisy_llrs(&cw, 0.63f64.sqrt(), 500 + i as u64)
            })
            .collect();
        let refs: Vec<&[Llr]> = frames.iter().map(|f| f.as_slice()).collect();
        let batched = dec.decode_batch(&refs, &mut NoopRecorder);
        for (f, frame) in frames.iter().enumerate() {
            assert_eq!(batched[f], dec.decode(frame), "lane {f}");
        }
    }

    #[test]
    fn empty_batch_decodes_to_no_outcomes() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        assert!(dec.decode_batch(&[], &mut NoopRecorder).is_empty());
        assert!(dec.decode_quantized(&[], &mut NoopRecorder).is_empty());
    }

    #[test]
    #[should_panic(expected = "whole frames")]
    fn zero_batch_of_quantized_frames_panics() {
        // Fewer values than one frame is zero whole frames plus a ragged
        // tail: it must panic, not decode to no outcomes like `&[]`.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let _ = dec.decode_quantized(&vec![0i16; code.n() - 1], &mut NoopRecorder);
    }

    #[test]
    #[should_panic(expected = "batch * n")]
    fn ragged_quantized_batch_panics() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let _ = dec.decode_quantized(&vec![0i16; code.n() + 1], &mut NoopRecorder);
    }

    #[test]
    fn scratch_reuse_across_calls_is_harmless() {
        // The per-thread scratch driven through one, three and one lanes in
        // alternation must not leak state between calls of either width.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let n = code.n();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let q: Vec<i16> = (0..3 * n).map(|_| rng.gen_range(-100i16..=100)).collect();
        let expected: Vec<DecodeOutcome> = q
            .chunks_exact(n)
            .map(|frame| reference_decode(&dec, frame, &mut Registry::new()))
            .collect();
        assert_eq!(decode_one(&dec, &q[..n]), expected[0]);
        assert_eq!(dec.decode_quantized(&q, &mut NoopRecorder), expected);
        assert_eq!(decode_one(&dec, &q[2 * n..]), expected[2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn batch_decode_agrees_with_serial_on_random_lanes(
            frames in proptest::collection::vec(
                proptest::collection::vec(-300i16..=300, 576), 1..6)
        ) {
            let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
            let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
            let batch = frames.len();
            let flat: Vec<i16> = frames.concat();
            let batched = dec.decode_quantized(&flat, &mut NoopRecorder);
            for (f, frame) in frames.iter().enumerate() {
                let serial = decode_one(&dec, frame);
                prop_assert!(batched[f] == serial, "lane {} of batch {} diverged", f, batch);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]
        /// Every batch size 1..=17 (all lane widths and their splits, up to
        /// 16 + 1) under four datapath configurations: each lane's outcome
        /// and the batch's Count-class `fixed.*` metrics equal the serial
        /// reference's.
        #[test]
        fn every_batch_size_matches_the_serial_reference(seed in 0u64..1 << 32) {
            let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
            let n = code.n();
            let configs = [
                FixedLayeredConfig::default(),
                FixedLayeredConfig::paper(),
                FixedLayeredConfig {
                    frac_bits: 3,
                    ..FixedLayeredConfig::default().with_lambda_bits(10)
                },
                FixedLayeredConfig {
                    early_termination: false,
                    ..FixedLayeredConfig::default()
                },
            ];
            for cfg in configs {
                let dec = FixedLayeredDecoder::new(&code, cfg);
                let frames = random_lambda_frames(n, dec.lambda_bounds().1, seed);
                let mut reference = Vec::new();
                for frame in &frames {
                    let mut reg = Registry::new();
                    let out = reference_decode(&dec, frame, &mut reg);
                    prop_assert!(decode_one(&dec, frame) == out, "serial decode under {:?}", cfg);
                    reference.push((out, reg));
                }
                for batch in 1..=frames.len() {
                    let mut got_counts = Registry::new();
                    let got = dec.decode_quantized(&frames[..batch].concat(), &mut got_counts);
                    let mut want_counts = Registry::new();
                    for (f, (want, counts)) in reference[..batch].iter().enumerate() {
                        prop_assert!(got[f] == *want, "lane {} of batch {} under {:?}", f, batch, cfg);
                        want_counts.merge(counts);
                    }
                    prop_assert_eq!(got_counts.render_counts(), want_counts.render_counts());
                }
            }
        }
    }

    #[test]
    fn csr_layout_matches_the_sparse_matrix() {
        let code = QcLdpcCode::wimax(672, CodeRate::R34A).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        assert_eq!(dec.row_ptr.len(), code.m() + 1);
        assert_eq!(dec.cols.len(), code.edge_count());
        let h = code.parity_check();
        for row in 0..code.m() {
            let s = dec.row_ptr[row] as usize;
            let e = dec.row_ptr[row + 1] as usize;
            let cols: Vec<usize> = dec.cols[s..e].iter().map(|&c| c as usize).collect();
            assert_eq!(&cols[..], h.row(row));
        }
        assert!(dec.max_degree >= 2);
    }
}

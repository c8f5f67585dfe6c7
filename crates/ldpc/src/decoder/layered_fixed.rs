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
//! Messages live in contiguous CSR-style buffers (`row_ptr`/`cols`/`r`),
//! and the two-minimum extraction runs through the branch-light batch
//! kernel [`MinimumExtractionUnit::scan`], so the hot loop is pure integer
//! compare/select arithmetic over dense slices.  Its speed edge over the
//! f64 reference comes from lockstep batching (`decode_batch*`); a serial
//! frame is slower than the f64 serial loop.  See `cargo bench -p
//! decoder-bench --bench kernels` for both comparisons.

use super::{BatchTwoMinScan, DecodeOutcome, MinimumExtractionUnit};
use crate::code::QcLdpcCode;
use fec_fixed::{Llr, MinSumArith, QuantStats, Quantizer, LAMBDA_BITS, R_BITS};
use fec_obs::{Class, NoopRecorder, Recorder};
use std::cell::RefCell;

thread_local! {
    /// Per-thread default scratch: the convenience entry points
    /// ([`FixedLayeredDecoder::decode`] and friends) borrow this so steady-
    /// state decoding is allocation-free without forcing every caller to
    /// carry a [`FixedScratch`].  Buffers only grow, so one thread decoding
    /// the same code repeatedly never reallocates.
    static SCRATCH: RefCell<FixedScratch> = RefCell::new(FixedScratch::new());
}

/// Reusable working memory of the fixed-point decoder, for both the serial
/// and the batch lockstep paths.
///
/// The decoder's hot buffers (λ, the `R` message memory, the `Q_lk` row
/// scratch, hard decisions, per-lane scan results) historically were
/// reallocated on every `decode` call.  A `FixedScratch` owns them instead:
/// pass one to the `*_with` entry points to make repeated decoding
/// allocation-free in steady state (aside from the returned
/// [`DecodeOutcome`]s, which own their results by contract).
///
/// In the batch path the buffers hold **struct-of-arrays** data, frame
/// innermost: `lambda[v * batch + f]` is variable `v` of frame lane `f`,
/// `r[e * batch + f]` edge `e` of lane `f` — so every message update runs
/// over `batch` contiguous lanes.
#[derive(Debug, Clone, Default)]
pub struct FixedScratch {
    /// λ registers, `[var][frame]`.
    lambda: Vec<i16>,
    /// `R_lk` message memory, `[edge][frame]`.
    r: Vec<i16>,
    /// `Q_lk` row scratch, `[position][frame]` up to the maximum degree.
    q: Vec<i16>,
    /// Hard decisions of one frame (syndrome-check scratch).
    hard: Vec<u8>,
    /// Per-lane two-minimum results, reused across rows.
    scan: BatchTwoMinScan,
    /// Scaled `3/4` message magnitudes for `min1`, per lane.
    mag1: Vec<i16>,
    /// Scaled `3/4` message magnitudes for `min2`, per lane.
    mag2: Vec<i16>,
    /// Per-lane live mask: `false` once a lane's stopping rule fired.
    active: Vec<bool>,
    /// Per-lane iteration counts.
    iterations: Vec<usize>,
    /// Per-lane convergence flags.
    converged: Vec<bool>,
}

impl FixedScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        FixedScratch::default()
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
    /// Panics if the register widths are outside `2..=15` or if any parity
    /// check has degree below 2 (a degree-1 check carries no extrinsic
    /// information and indicates a malformed code).
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

    /// Quantizes floating-point channel LLRs and decodes (per-thread default
    /// scratch; see [`FixedLayeredDecoder::decode_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != code.n()`.
    pub fn decode(&self, channel: &[Llr]) -> DecodeOutcome {
        SCRATCH.with(|s| self.decode_with(channel, &mut s.borrow_mut()))
    }

    /// Quantizes floating-point channel LLRs and decodes using the caller's
    /// scratch buffers — allocation-free in steady state.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != code.n()`.
    pub fn decode_with(&self, channel: &[Llr], scratch: &mut FixedScratch) -> DecodeOutcome {
        self.decode_with_recorded(channel, scratch, &mut NoopRecorder)
    }

    /// Instrumented form of [`decode`](FixedLayeredDecoder::decode): emits
    /// frame/iteration/saturation count metrics into `rec` (per-thread
    /// default scratch).
    pub fn decode_recorded<R: Recorder>(&self, channel: &[Llr], rec: &mut R) -> DecodeOutcome {
        SCRATCH.with(|s| self.decode_with_recorded(channel, &mut s.borrow_mut(), rec))
    }

    /// [`decode_recorded`](FixedLayeredDecoder::decode_recorded) with
    /// caller-owned scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != code.n()`.
    pub fn decode_with_recorded<R: Recorder>(
        &self,
        channel: &[Llr],
        scratch: &mut FixedScratch,
        rec: &mut R,
    ) -> DecodeOutcome {
        assert_eq!(
            channel.len(),
            self.code.n(),
            "LLR vector length must equal the code length"
        );
        let mut quant = QuantStats::default();
        scratch.lambda.clear();
        scratch.lambda.extend(channel.iter().map(|l| {
            let q = if R::ENABLED {
                self.quantizer.quantize_tracked(l.value(), &mut quant)
            } else {
                self.quantizer.quantize(l.value())
            };
            // fec-lint: allow(fixed-narrowing-cast, quantizer output is a SatFixed already clamped to the lambda register range, which new() bounds to 15 bits)
            q.value() as i16
        }));
        if R::ENABLED {
            rec.incr(Class::Count, "fixed.sat_quantize", quant.saturated);
            rec.incr(Class::Count, "fixed.quantized_llrs", quant.total);
        }
        self.decode_lambda(scratch, rec)
    }

    /// Decodes already-quantized channel LLRs (integer λ values in LSB
    /// units).  Out-of-range inputs are saturated to the register width.
    /// Uses the per-thread default scratch; see
    /// [`FixedLayeredDecoder::decode_quantized_with`].
    ///
    /// # Panics
    ///
    /// Panics if `quantized.len() != code.n()`.
    pub fn decode_quantized(&self, quantized: &[i16]) -> DecodeOutcome {
        SCRATCH.with(|s| self.decode_quantized_with(quantized, &mut s.borrow_mut()))
    }

    /// [`decode_quantized`](FixedLayeredDecoder::decode_quantized) with
    /// caller-owned scratch buffers — allocation-free in steady state.
    ///
    /// # Panics
    ///
    /// Panics if `quantized.len() != code.n()`.
    pub fn decode_quantized_with(
        &self,
        quantized: &[i16],
        scratch: &mut FixedScratch,
    ) -> DecodeOutcome {
        self.decode_quantized_with_recorded(quantized, scratch, &mut NoopRecorder)
    }

    /// Instrumented form of
    /// [`decode_quantized`](FixedLayeredDecoder::decode_quantized) (per-thread
    /// default scratch).
    pub fn decode_quantized_recorded<R: Recorder>(
        &self,
        quantized: &[i16],
        rec: &mut R,
    ) -> DecodeOutcome {
        SCRATCH.with(|s| self.decode_quantized_with_recorded(quantized, &mut s.borrow_mut(), rec))
    }

    /// [`decode_quantized_recorded`](FixedLayeredDecoder::decode_quantized_recorded)
    /// with caller-owned scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if `quantized.len() != code.n()`.
    pub fn decode_quantized_with_recorded<R: Recorder>(
        &self,
        quantized: &[i16],
        scratch: &mut FixedScratch,
        rec: &mut R,
    ) -> DecodeOutcome {
        assert_eq!(
            quantized.len(),
            self.code.n(),
            "LLR vector length must equal the code length"
        );
        // fec-lint: allow(fixed-narrowing-cast, lambda register bounds fit i16 because MinSumArith::new rejects lambda_bits > 15)
        let lo = self.arith.lambda_min() as i16;
        // fec-lint: allow(fixed-narrowing-cast, lambda register bounds fit i16 because MinSumArith::new rejects lambda_bits > 15)
        let hi = self.arith.lambda_max() as i16;
        scratch.lambda.clear();
        scratch
            .lambda
            .extend(quantized.iter().map(|&v| v.clamp(lo, hi)));
        self.decode_lambda(scratch, rec)
    }

    /// Decodes a batch of frames in lockstep (per-thread default scratch;
    /// see [`FixedLayeredDecoder::decode_batch_with`]).
    ///
    /// # Panics
    ///
    /// Panics if any frame's length differs from `code.n()`.
    pub fn decode_batch(&self, frames: &[&[Llr]]) -> Vec<DecodeOutcome> {
        SCRATCH.with(|s| self.decode_batch_with(frames, &mut s.borrow_mut()))
    }

    /// Quantizes `frames.len()` frames of channel LLRs and decodes them **in
    /// lockstep** over the shared CSR structure: λ and `R` live in
    /// struct-of-arrays buffers (frame innermost), so the two-minimum scan
    /// and every saturating message update run over `B` contiguous lanes.
    /// Per-frame results are bit-identical to decoding each frame alone.
    ///
    /// # Panics
    ///
    /// Panics if any frame's length differs from `code.n()`.
    pub fn decode_batch_with(
        &self,
        frames: &[&[Llr]],
        scratch: &mut FixedScratch,
    ) -> Vec<DecodeOutcome> {
        self.decode_batch_with_recorded(frames, scratch, &mut NoopRecorder)
    }

    /// Instrumented form of
    /// [`decode_batch`](FixedLayeredDecoder::decode_batch): emits the same
    /// count metrics as the serial recorded path (bit-identical at any batch
    /// size) plus lockstep execution metrics — per-lane iteration histogram
    /// and over-work counters (per-thread default scratch).
    pub fn decode_batch_recorded<R: Recorder>(
        &self,
        frames: &[&[Llr]],
        rec: &mut R,
    ) -> Vec<DecodeOutcome> {
        SCRATCH.with(|s| self.decode_batch_with_recorded(frames, &mut s.borrow_mut(), rec))
    }

    /// [`decode_batch_recorded`](FixedLayeredDecoder::decode_batch_recorded)
    /// with caller-owned scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if any frame's length differs from `code.n()`.
    pub fn decode_batch_with_recorded<R: Recorder>(
        &self,
        frames: &[&[Llr]],
        scratch: &mut FixedScratch,
        rec: &mut R,
    ) -> Vec<DecodeOutcome> {
        let n = self.code.n();
        let batch = frames.len();
        if batch == 0 {
            return Vec::new();
        }
        let mut quant = QuantStats::default();
        scratch.lambda.clear();
        scratch.lambda.resize(n * batch, 0);
        for (f, frame) in frames.iter().enumerate() {
            assert_eq!(
                frame.len(),
                n,
                "LLR vector length must equal the code length"
            );
            for (v, l) in frame.iter().enumerate() {
                let q = if R::ENABLED {
                    self.quantizer.quantize_tracked(l.value(), &mut quant)
                } else {
                    self.quantizer.quantize(l.value())
                };
                // fec-lint: allow(fixed-narrowing-cast, quantizer output is a SatFixed already clamped to the lambda register range, which new() bounds to 15 bits)
                scratch.lambda[v * batch + f] = q.value() as i16;
            }
        }
        if R::ENABLED {
            rec.incr(Class::Count, "fixed.sat_quantize", quant.saturated);
            rec.incr(Class::Count, "fixed.quantized_llrs", quant.total);
        }
        self.decode_lanes(batch, scratch, rec)
    }

    /// Decodes `batch` already-quantized frames in lockstep.  `quantized`
    /// holds the frames back to back (frame-major: frame `f` occupies
    /// `quantized[f * n .. (f + 1) * n]`); out-of-range λ values are
    /// saturated like in
    /// [`decode_quantized`](FixedLayeredDecoder::decode_quantized).  Returns
    /// one [`DecodeOutcome`] per frame, in input order, each bit-identical
    /// to the serial `decode_quantized` result for that frame.
    ///
    /// Uses the per-thread default scratch; see
    /// [`FixedLayeredDecoder::decode_batch_quantized_with`].
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `quantized.len() != batch * code.n()`.
    pub fn decode_batch_quantized(&self, quantized: &[i16], batch: usize) -> Vec<DecodeOutcome> {
        SCRATCH.with(|s| self.decode_batch_quantized_with(quantized, batch, &mut s.borrow_mut()))
    }

    /// [`decode_batch_quantized`](FixedLayeredDecoder::decode_batch_quantized)
    /// with caller-owned scratch buffers — allocation-free in steady state
    /// (aside from the returned outcomes).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `quantized.len() != batch * code.n()`.
    pub fn decode_batch_quantized_with(
        &self,
        quantized: &[i16],
        batch: usize,
        scratch: &mut FixedScratch,
    ) -> Vec<DecodeOutcome> {
        self.decode_batch_quantized_with_recorded(quantized, batch, scratch, &mut NoopRecorder)
    }

    /// Instrumented form of
    /// [`decode_batch_quantized`](FixedLayeredDecoder::decode_batch_quantized)
    /// (per-thread default scratch).
    pub fn decode_batch_quantized_recorded<R: Recorder>(
        &self,
        quantized: &[i16],
        batch: usize,
        rec: &mut R,
    ) -> Vec<DecodeOutcome> {
        SCRATCH.with(|s| {
            self.decode_batch_quantized_with_recorded(quantized, batch, &mut s.borrow_mut(), rec)
        })
    }

    /// [`decode_batch_quantized_recorded`](FixedLayeredDecoder::decode_batch_quantized_recorded)
    /// with caller-owned scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `quantized.len() != batch * code.n()`.
    pub fn decode_batch_quantized_with_recorded<R: Recorder>(
        &self,
        quantized: &[i16],
        batch: usize,
        scratch: &mut FixedScratch,
        rec: &mut R,
    ) -> Vec<DecodeOutcome> {
        let n = self.code.n();
        assert!(batch > 0, "batch must hold at least one frame");
        assert_eq!(
            quantized.len(),
            batch * n,
            "quantized input must hold exactly batch * n LLR values"
        );
        // fec-lint: allow(fixed-narrowing-cast, lambda register bounds fit i16 because MinSumArith::new rejects lambda_bits > 15)
        let lo = self.arith.lambda_min() as i16;
        // fec-lint: allow(fixed-narrowing-cast, lambda register bounds fit i16 because MinSumArith::new rejects lambda_bits > 15)
        let hi = self.arith.lambda_max() as i16;
        // Transpose the frame-major input into the [var][frame] SoA layout.
        scratch.lambda.clear();
        scratch.lambda.resize(n * batch, 0);
        for f in 0..batch {
            let frame = &quantized[f * n..(f + 1) * n];
            for (v, &value) in frame.iter().enumerate() {
                scratch.lambda[v * batch + f] = value.clamp(lo, hi);
            }
        }
        self.decode_lanes(batch, scratch, rec)
    }

    /// Per-frame count metrics shared by the serial and lockstep paths.
    /// Both must emit identical values for the same frame — lockstep lanes
    /// are bit-identical to serial decodes, so these counts stay part of
    /// the determinism contract at any batch size.
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

    /// The serial fixed-point layered iteration over the CSR message
    /// buffers; `scratch.lambda` holds the quantized λ values on entry.
    ///
    /// Generic over [`Recorder`]: every recording site sits behind
    /// `R::ENABLED`, an associated `const`, so the [`NoopRecorder`]
    /// monomorphization is the exact pre-instrumentation loop (gated by the
    /// kernels bench).
    fn decode_lambda<R: Recorder>(&self, scratch: &mut FixedScratch, rec: &mut R) -> DecodeOutcome {
        let m = self.code.m();
        let h = self.code.parity_check();
        let arith = &self.arith;
        let mut sat_q = 0u64;
        let mut r_clip = 0u64;
        let mut sat_lambda = 0u64;

        let FixedScratch {
            lambda, r, q, hard, ..
        } = scratch;

        // Contiguous R message memory, one entry per parity-check edge
        // (i16: `r_bits` may legally be up to 15); zeroed for this frame.
        r.clear();
        r.resize(self.cols.len(), 0);
        // Scratch Q_lk buffer, reused across rows.
        q.clear();
        q.resize(self.max_degree, 0);
        hard.clear();
        hard.resize(lambda.len(), 0);

        let mut iterations = 0;
        let mut converged = false;

        for it in 0..self.config.max_iterations {
            iterations = it + 1;
            // Natural row order == layered schedule (see `row_ptr` docs).
            for row in 0..m {
                let start = self.row_ptr[row] as usize;
                let end = self.row_ptr[row + 1] as usize;
                let cols = &self.cols[start..end];
                let r_row = &mut r[start..end];
                let q_row = &mut q[..cols.len()];

                // Q_lk = lambda_old - R_old, Eq. (6), saturated.
                for ((qj, &col), &rj) in q_row.iter_mut().zip(cols).zip(r_row.iter()) {
                    let lam = i32::from(lambda[col as usize]);
                    let rv = i32::from(rj);
                    if R::ENABLED && arith.q_saturates(lam, rv) {
                        sat_q += 1;
                    }
                    *qj = arith.q_message(lam, rv);
                }

                // Two-minimum extraction, Eq. (11), as one batch scan.
                let scan = MinimumExtractionUnit::scan(q_row);
                if R::ENABLED {
                    r_clip += u64::from(arith.r_clips(i32::from(scan.min1)));
                    r_clip += u64::from(arith.r_clips(i32::from(scan.min2)));
                }
                let mag1 = arith.r_message(i32::from(scan.min1), false);
                let mag2 = arith.r_message(i32::from(scan.min2), false);

                // R_new and lambda update, Eq. (9)-(10).
                for (j, ((&qj, &col), rj)) in
                    q_row.iter().zip(cols).zip(r_row.iter_mut()).enumerate()
                {
                    let mag = if j as u32 == scan.min1_pos {
                        mag2
                    } else {
                        mag1
                    };
                    let negative = (qj < 0) != scan.negative_parity;
                    let r_new = if negative { -mag } else { mag };
                    if R::ENABLED && arith.lambda_saturates(i32::from(qj), i32::from(r_new)) {
                        sat_lambda += 1;
                    }
                    lambda[col as usize] = arith.lambda_update(i32::from(qj), i32::from(r_new));
                    *rj = r_new;
                }
            }

            for (hb, &l) in hard.iter_mut().zip(lambda.iter()) {
                *hb = u8::from(l < 0);
            }
            if self.config.early_termination && h.is_codeword(hard) {
                converged = true;
                break;
            }
        }

        if !converged {
            for (hb, &l) in hard.iter_mut().zip(lambda.iter()) {
                *hb = u8::from(l < 0);
            }
            converged = h.is_codeword(hard);
        }
        if R::ENABLED {
            self.record_frame_counts(rec, iterations, converged);
            rec.incr(Class::Count, "fixed.sat_q", sat_q);
            rec.incr(Class::Count, "fixed.r_clip", r_clip);
            rec.incr(Class::Count, "fixed.sat_lambda", sat_lambda);
        }
        let scale = self.quantizer.scale();
        DecodeOutcome {
            hard_bits: hard.clone(),
            posterior: lambda.iter().map(|&l| f64::from(l) / scale).collect(),
            iterations,
            converged,
        }
    }

    /// The lockstep batch iteration: identical arithmetic to
    /// [`decode_lambda`](FixedLayeredDecoder::decode_lambda) per lane, but
    /// every loop body runs over `batch` contiguous frame lanes of the
    /// struct-of-arrays buffers.  `scratch.lambda` holds the `[var][frame]`
    /// λ values on entry.
    ///
    /// Early termination is per-lane: a converged frame's λ and `R` lanes
    /// are frozen (masked writes), so its result — and every other
    /// lane's — matches the serial path bit for bit; once every lane has
    /// converged the iteration stops entirely.
    fn decode_lanes<R: Recorder>(
        &self,
        batch: usize,
        scratch: &mut FixedScratch,
        rec: &mut R,
    ) -> Vec<DecodeOutcome> {
        let n = self.code.n();
        let m = self.code.m();
        let h = self.code.parity_check();
        let arith = &self.arith;
        let mut sat_q = 0u64;
        let mut r_clip = 0u64;
        let mut sat_lambda = 0u64;

        let FixedScratch {
            lambda,
            r,
            q,
            hard,
            scan,
            mag1,
            mag2,
            active,
            iterations,
            converged,
        } = scratch;

        r.clear();
        r.resize(self.cols.len() * batch, 0);
        q.clear();
        q.resize(self.max_degree * batch, 0);
        hard.clear();
        hard.resize(n, 0);
        mag1.clear();
        mag1.resize(batch, 0);
        mag2.clear();
        mag2.resize(batch, 0);
        active.clear();
        active.resize(batch, true);
        iterations.clear();
        iterations.resize(batch, 0);
        converged.clear();
        converged.resize(batch, false);
        let mut live = batch;
        let mut exec = 0usize;

        for it in 0..self.config.max_iterations {
            exec = it + 1;
            for f in 0..batch {
                if active[f] {
                    iterations[f] = it + 1;
                }
            }
            for row in 0..m {
                let start = self.row_ptr[row] as usize;
                let end = self.row_ptr[row + 1] as usize;
                let cols = &self.cols[start..end];
                let q_rows = &mut q[..cols.len() * batch];

                // Q_lk = lambda_old - R_old per lane, Eq. (6), saturated.
                // The saturation count only looks at live lanes, so it
                // matches the serial path's count frame for frame (λ and R
                // are still the pre-update values here).
                if R::ENABLED {
                    for (j, &col) in cols.iter().enumerate() {
                        let lam = &lambda[col as usize * batch..(col as usize + 1) * batch];
                        let r_row = &r[(start + j) * batch..(start + j + 1) * batch];
                        for f in 0..batch {
                            if active[f]
                                && arith.q_saturates(i32::from(lam[f]), i32::from(r_row[f]))
                            {
                                sat_q += 1;
                            }
                        }
                    }
                }
                for (j, &col) in cols.iter().enumerate() {
                    arith.q_message_lanes(
                        &mut q_rows[j * batch..(j + 1) * batch],
                        &lambda[col as usize * batch..(col as usize + 1) * batch],
                        &r[(start + j) * batch..(start + j + 1) * batch],
                    );
                }

                // Per-lane two-minimum extraction, Eq. (11), one lockstep
                // scan over the whole row.
                MinimumExtractionUnit::scan_batch(q_rows, batch, scan);
                if R::ENABLED {
                    for ((&is_active, &m1), &m2) in active
                        .iter()
                        .zip(scan.min1.iter())
                        .zip(scan.min2.iter())
                        .take(batch)
                    {
                        if is_active {
                            r_clip += u64::from(arith.r_clips(i32::from(m1)));
                            r_clip += u64::from(arith.r_clips(i32::from(m2)));
                        }
                    }
                }
                arith.scaled_magnitude_lanes(mag1, &scan.min1);
                arith.scaled_magnitude_lanes(mag2, &scan.min2);

                // R_new and lambda update per lane, Eq. (9)-(10).  Inactive
                // (converged) lanes keep their frozen λ/R via the select on
                // `active`, which stays branch-light for the vectorizer.
                let all_active = live == batch;
                for (j, &col) in cols.iter().enumerate() {
                    let j32 = j as u32;
                    let q_row = &q_rows[j * batch..(j + 1) * batch];
                    let lam = &mut lambda[col as usize * batch..(col as usize + 1) * batch];
                    let r_row = &mut r[(start + j) * batch..(start + j + 1) * batch];
                    if all_active {
                        // Fast path — no convergence mask in flight: write
                        // the signed R messages straight into the edge
                        // memory, then one pure element-wise saturating
                        // update over the contiguous lanes.
                        for ((((&qj, &pos), (&m1, &m2)), &par), rf) in q_row
                            .iter()
                            .zip(scan.min1_pos.iter())
                            .zip(mag1.iter().zip(mag2.iter()))
                            .zip(scan.negative_parity.iter())
                            .zip(r_row.iter_mut())
                        {
                            let mag = if j32 == pos { m2 } else { m1 };
                            let negative = (qj < 0) != par;
                            *rf = if negative { -mag } else { mag };
                        }
                        if R::ENABLED {
                            // Every lane is live on this path.
                            for (&qj, &rf) in q_row.iter().zip(r_row.iter()) {
                                if arith.lambda_saturates(i32::from(qj), i32::from(rf)) {
                                    sat_lambda += 1;
                                }
                            }
                        }
                        arith.lambda_update_lanes(lam, q_row, r_row);
                    } else {
                        // Masked path: converged lanes keep their frozen
                        // λ and R via branch-light selects.
                        for ((((((&qj, &pos), (&m1, &m2)), &par), &act), lamf), rf) in q_row
                            .iter()
                            .zip(scan.min1_pos.iter())
                            .zip(mag1.iter().zip(mag2.iter()))
                            .zip(scan.negative_parity.iter())
                            .zip(active.iter())
                            .zip(lam.iter_mut())
                            .zip(r_row.iter_mut())
                        {
                            let mag = if j32 == pos { m2 } else { m1 };
                            let negative = (qj < 0) != par;
                            let r_new = if negative { -mag } else { mag };
                            if R::ENABLED
                                && act
                                && arith.lambda_saturates(i32::from(qj), i32::from(r_new))
                            {
                                sat_lambda += 1;
                            }
                            let lam_new = arith.lambda_update(i32::from(qj), i32::from(r_new));
                            *lamf = if act { lam_new } else { *lamf };
                            *rf = if act { r_new } else { *rf };
                        }
                    }
                }
            }

            if self.config.early_termination {
                for f in 0..batch {
                    if !active[f] {
                        continue;
                    }
                    for (v, hb) in hard.iter_mut().enumerate() {
                        *hb = u8::from(lambda[v * batch + f] < 0);
                    }
                    if h.is_codeword(hard) {
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

        let scale = self.quantizer.scale();
        let outcomes: Vec<DecodeOutcome> = (0..batch)
            .map(|f| {
                let hard_bits: Vec<u8> = (0..n)
                    .map(|v| u8::from(lambda[v * batch + f] < 0))
                    .collect();
                let lane_converged = converged[f] || h.is_codeword(&hard_bits);
                DecodeOutcome {
                    posterior: (0..n)
                        .map(|v| f64::from(lambda[v * batch + f]) / scale)
                        .collect(),
                    hard_bits,
                    iterations: iterations[f],
                    converged: lane_converged,
                }
            })
            .collect();
        if R::ENABLED {
            // Count-class metrics: identical to what the serial path would
            // record for the same frames.  Execution-class metrics quantify
            // the lockstep schedule itself: each lane occupies its SIMD slot
            // for all `exec` loop iterations, so `exec - iterations[f]` is
            // the over-work a lane's early termination could not reclaim.
            let mut overwork = 0u64;
            for out in &outcomes {
                self.record_frame_counts(rec, out.iterations, out.converged);
                rec.observe(
                    Class::Execution,
                    "fixed.lane_iterations",
                    out.iterations as u64,
                );
                overwork += (exec - out.iterations) as u64;
            }
            rec.incr(Class::Count, "fixed.sat_q", sat_q);
            rec.incr(Class::Count, "fixed.r_clip", r_clip);
            rec.incr(Class::Count, "fixed.sat_lambda", sat_lambda);
            rec.observe(Class::Execution, "fixed.batch_exec_iterations", exec as u64);
            rec.incr(Class::Execution, "fixed.overwork_iters", overwork);
            rec.incr(Class::Execution, "fixed.lockstep_lanes", batch as u64);
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_matrix::CodeRate;
    use crate::decoder::{LayeredConfig, LayeredDecoder};
    use crate::encoder::QcEncoder;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

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
        let out = dec.decode_quantized(&vec![1000i16; code.n()]);
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
            let batched = dec.decode_batch_quantized(&q, batch);
            assert_eq!(batched.len(), batch);
            for f in 0..batch {
                let serial = dec.decode_quantized(&q[f * n..(f + 1) * n]);
                assert_eq!(batched[f], serial, "lane {f} of batch {batch}");
            }
        }
    }

    #[test]
    fn batch_lanes_with_mixed_convergence_match_serial() {
        // Lanes that converge at different iterations freeze at different
        // times; every frozen lane must still equal its own serial run.
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
        let batched = dec.decode_batch(&refs);
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
        let batched = dec.decode_batch(&refs);
        for (f, frame) in frames.iter().enumerate() {
            assert_eq!(batched[f], dec.decode(frame), "lane {f}");
        }
    }

    #[test]
    fn empty_batch_decodes_to_no_outcomes() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        assert!(dec.decode_batch(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_batch_of_quantized_frames_panics() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let _ = dec.decode_batch_quantized(&[], 0);
    }

    #[test]
    #[should_panic(expected = "batch * n")]
    fn ragged_quantized_batch_panics() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let _ = dec.decode_batch_quantized(&vec![0i16; code.n() + 1], 1);
    }

    #[test]
    fn scratch_reuse_across_calls_is_harmless() {
        // One scratch driven through serial and batch entry points in
        // alternation must not leak state between calls.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let n = code.n();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let q: Vec<i16> = (0..3 * n).map(|_| rng.gen_range(-100i16..=100)).collect();
        let mut scratch = FixedScratch::new();
        let expected: Vec<DecodeOutcome> = (0..3)
            .map(|f| dec.decode_quantized(&q[f * n..(f + 1) * n]))
            .collect();
        let serial_reused = dec.decode_quantized_with(&q[..n], &mut scratch);
        assert_eq!(serial_reused, expected[0]);
        let batched = dec.decode_batch_quantized_with(&q, 3, &mut scratch);
        assert_eq!(batched, expected);
        let serial_again = dec.decode_quantized_with(&q[2 * n..], &mut scratch);
        assert_eq!(serial_again, expected[2]);
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
            let batched = dec.decode_batch_quantized(&flat, batch);
            for (f, frame) in frames.iter().enumerate() {
                let serial = dec.decode_quantized(frame);
                prop_assert!(batched[f] == serial, "lane {} of batch {} diverged", f, batch);
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

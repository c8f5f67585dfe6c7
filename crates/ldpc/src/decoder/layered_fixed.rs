//! Fixed-point layered normalized-min-sum decoder — the hardware datapath
//! model of the paper's LDPC mode.
//!
//! Where [`super::LayeredDecoder`] is the floating-point algorithmic
//! reference, this decoder computes exactly what the silicon computes:
//! channel LLRs are quantized to `lambda_bits` (7 in the paper, one
//! fractional bit) as they enter, every message addition saturates at the
//! register width, the `3/4` normalization of Eq. (11) is a shift-add, and
//! the `R_lk` messages are saturated to `r_bits` before being written back.
//!
//! There is one decode loop: a refill loop over `B` frame lanes in
//! lockstep, with `B` a compile-time width, one of 1, 2, 4, 8 and 16, that
//! pulls frames of channel LLRs from a [`FrameStream`].  When a lane's
//! frame is decided, the lane hands its decisions out, loads the next
//! frame, resets its `R_lk` messages and iteration count and sweeps on with
//! the others, so while frames are left no lane waits for a slower one.
//! [`decode_stream`] runs at the widest width not above its stream's frames
//! in flight, and [`decode`] is a one-lane run over a one-frame stream;
//! lanes never interact, so results do not depend on the width.  λ and the
//! `R_lk` message memory are struct-of-arrays (`[var][lane]`,
//! `[edge][lane]`), with one edge per entry of the code's
//! [`LayerPlan`](crate::LayerPlan) columns, check row after check row, so
//! every message update is one `[i16; B]` vector operation — the batch
//! analogue of the paper's PE updating `z` check rows in parallel.  See
//! `cargo bench -p decoder-bench --bench kernels` for the per-width
//! throughput.
//!
//! [`decode`]: FixedLayeredDecoder::decode
//! [`decode_stream`]: FixedLayeredDecoder::decode_stream

use super::meu::LaneScan;
use super::DecodeOutcome;
use crate::code::QcLdpcCode;
use fec_channel::sim::FrameStream;
use fec_fixed::{Llr, MinSumArith, QuantStats, Quantizer, LAMBDA_BITS, R_BITS};
use fec_obs::{Class, NoopRecorder, Recorder};
use std::cell::RefCell;

thread_local! {
    /// Per-thread lane memories and frame buffers, so steady-state decoding
    /// allocates only the outcome [`FixedLayeredDecoder::decode`] returns
    /// (nothing on the stream path).  Buffers only grow, so one thread
    /// decoding the same code repeatedly never reallocates.
    static SCRATCH: RefCell<FixedScratch> = const { RefCell::new(FixedScratch::new()) };
}

/// The widest lane width the kernel is compiled for.
const MAX_LANES: usize = 16;

/// Working memory of the fixed-point decoder.
#[derive(Debug)]
struct FixedScratch {
    lanes: LaneMemory,
    /// One frame of channel LLRs, pulled from a stream.
    frame: Vec<Llr>,
    /// One frame's information-bit decisions, handed back to a stream.
    bits: Vec<u8>,
}

impl FixedScratch {
    const fn new() -> Self {
        FixedScratch {
            lanes: LaneMemory {
                lambda: Vec::new(),
                r: Vec::new(),
                q: Vec::new(),
            },
            frame: Vec::new(),
            bits: Vec::new(),
        }
    }
}

/// The λ registers, the `R_lk` message memory and the `Q_lk` row scratch
/// of the lanes.
///
/// The buffers hold **struct-of-arrays** data, frame lane innermost:
/// `lambda[v * B + f]` is variable `v` of lane `f`, `r[e * B + f]` edge `e`
/// of lane `f`, so every message update runs over `B` contiguous lanes.
#[derive(Debug)]
struct LaneMemory {
    /// λ registers, `[var][lane]`.
    lambda: Vec<i16>,
    /// `R_lk` message memory, `[edge][lane]`.
    r: Vec<i16>,
    /// `Q_lk` row scratch, `[position][lane]` up to the maximum degree.
    q: Vec<i16>,
}

/// One frame of channel LLRs as a [`FrameStream`], the input of
/// [`FixedLayeredDecoder::decode`]; it keeps the frame's iterations and
/// convergence.
struct OneFrame<'a> {
    frame: Option<&'a [Llr]>,
    iterations: usize,
    converged: bool,
}

impl FrameStream for OneFrame<'_> {
    fn max_in_flight(&self) -> usize {
        1
    }

    fn next_frame(&mut self, llrs: &mut [Llr]) -> Option<usize> {
        llrs.copy_from_slice(self.frame.take()?);
        Some(0)
    }

    fn decided(&mut self, _frame: usize, _info_bits: &[u8], iterations: usize, converged: bool) {
        self.iterations = iterations;
        self.converged = converged;
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
}

impl FixedLayeredDecoder {
    /// Creates a decoder for `code` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the register widths are outside `2..=15`, if any layer's
    /// check rows have degree below 2 (a degree-1 check carries no
    /// extrinsic information and indicates a malformed code) or above
    /// `u16::MAX`.
    pub fn new(code: &QcLdpcCode, config: FixedLayeredConfig) -> Self {
        for (l, layer) in code.plan().layers().enumerate() {
            assert!(
                layer.len() >= 2,
                "the check rows of layer {l} have degree {} (< 2): the min-sum \
                 update needs a leave-one-out partner",
                layer.len()
            );
            assert!(
                layer.len() <= usize::from(u16::MAX),
                "the check rows of layer {l} are wider than the u16 MEU positions"
            );
        }
        FixedLayeredDecoder {
            code: code.clone(),
            arith: MinSumArith::new(config.lambda_bits, config.r_bits),
            quantizer: Quantizer::new(config.lambda_bits, config.frac_bits),
            config,
        }
    }

    /// The decoder configuration.
    pub fn config(&self) -> &FixedLayeredConfig {
        &self.config
    }

    /// Quantizes floating-point channel LLRs and decodes one frame: a
    /// one-lane run of the refill loop over a one-frame stream.  The
    /// outcome is read from the lane's λ after the run, which the drained
    /// stream never reloads; in steady state a decode allocates only the
    /// two vectors of its outcome.
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
        let mut stream = OneFrame {
            frame: Some(channel),
            iterations: 0,
            converged: false,
        };
        self.decode_stream(&mut stream, &mut NoopRecorder);
        let scale = self.quantizer.scale();
        SCRATCH.with(|scratch| {
            // One lane: λ holds one value per variable.
            let lambda = &scratch.borrow().lanes.lambda;
            DecodeOutcome {
                hard_bits: lambda.iter().map(|&l| u8::from(l < 0)).collect(),
                posterior: lambda.iter().map(|&l| f64::from(l) / scale).collect(),
                iterations: stream.iterations,
                converged: stream.converged,
            }
        })
    }

    /// Decodes every frame of `frames` in the refill loop, on the widest
    /// lane width not above its
    /// [`max_in_flight`](FrameStream::max_in_flight) (at most 16), and hands
    /// each frame's `k` information-bit decisions, iterations and
    /// convergence back to the stream.  No outcome is built per frame, and
    /// in steady state nothing is allocated.
    ///
    /// `rec` receives the per-frame count metrics (`fixed.frames`,
    /// iterations, convergence, quantizer and min-sum saturation), which
    /// are bit-identical at any width, and the Execution-class lockstep
    /// metrics: the per-frame iteration histogram `fixed.lane_iterations`,
    /// the loop's lane width `fixed.lane_width` and the lane-iterations of
    /// emptied lanes, `fixed.overwork_iters`.  With [`NoopRecorder`] every
    /// recording site compiles away.
    pub fn decode_stream<R: Recorder>(&self, frames: &mut dyn FrameStream, rec: &mut R) {
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            match frames.max_in_flight() {
                MAX_LANES.. => self.refill::<MAX_LANES, R>(scratch, rec, frames),
                8..=15 => self.refill::<8, R>(scratch, rec, frames),
                4..=7 => self.refill::<4, R>(scratch, rec, frames),
                2..=3 => self.refill::<2, R>(scratch, rec, frames),
                _ => self.refill::<1, R>(scratch, rec, frames),
            }
        });
    }

    /// Quantizes one channel LLR into a λ register value, counting
    /// quantizer saturation into `stats` when recording.
    fn quantize_lambda<R: Recorder>(&self, llr: Llr, stats: &mut QuantStats) -> i16 {
        let q = if R::ENABLED {
            self.quantizer.quantize_tracked(llr.value(), stats)
        } else {
            self.quantizer.quantize(llr.value())
        };
        // fec-lint: allow(fixed-narrowing-cast, quantizer output is already clamped to the lambda register range, which new() bounds to 15 bits)
        q as i16
    }

    /// Quantizes one frame of channel LLRs into lane `f`, counting
    /// quantizer saturation into `quant` when recording.
    fn load<const B: usize, R: Recorder>(
        &self,
        lambda: &mut [[i16; B]],
        f: usize,
        llrs: &[Llr],
        quant: &mut QuantStats,
    ) {
        // Quantize a contiguous block, then scatter it into the lane: with
        // the lane stride inside the quantizer loop, an 8-lane decode of
        // waterfall frames took about 8 µs more per frame.
        let mut block = [0i16; 64];
        for (lanes, llrs) in lambda.chunks_mut(block.len()).zip(llrs.chunks(block.len())) {
            for (value, &llr) in block.iter_mut().zip(llrs) {
                *value = self.quantize_lambda::<R>(llr, quant);
            }
            for (lane, &value) in lanes.iter_mut().zip(&block) {
                lane[f] = value;
            }
        }
    }

    /// Per-frame count metrics of one decoded lane.  They depend only on
    /// the frame, so they stay part of the determinism contract at any
    /// lane width.
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

    /// The decode loop: `B` frame lanes in lockstep, each refilled from
    /// `frames` as soon as its frame is decided.
    ///
    /// A lane's frame is decided after the sweep in which its hard decisions
    /// first satisfy every check (under early termination) or after its
    /// last iteration, so its outcome matches a decode of that frame alone
    /// bit for bit.  The lane hands its first `k` hard decisions to
    /// `frames`, loads the next frame, resets its `R_lk` messages and
    /// iteration count, and sweeps on with the others: lanes never
    /// interact, and one sweep body serves any mix of lanes.  Once `frames`
    /// runs dry, emptied lanes keep running, unobserved, until the last
    /// frame is decided; an emptied lane is never loaded again.
    ///
    /// Generic over [`Recorder`]: every recording site sits behind
    /// `R::ENABLED`, an associated `const`, so the [`NoopRecorder`]
    /// monomorphization carries no instrumentation.
    fn refill<const B: usize, R: Recorder>(
        &self,
        scratch: &mut FixedScratch,
        rec: &mut R,
        frames: &mut dyn FrameStream,
    ) {
        let (n, k) = (self.code.n(), self.code.k());
        let plan = self.code.plan();
        let max_iterations = self.config.max_iterations;
        let FixedScratch {
            lanes: LaneMemory { lambda, r, q },
            frame,
            bits,
        } = scratch;
        frame.resize(n, Llr::default());
        lambda.clear();
        lambda.resize(n * B, 0);
        // `R_lk` starts at zero for every frame.
        r.clear();
        r.resize(plan.columns().len() * B, 0);
        q.clear();
        q.resize(plan.widest_layer() * B, 0);
        let lambda = lambda.as_chunks_mut::<B>().0;
        let r = r.as_chunks_mut::<B>().0;
        let q = q.as_chunks_mut::<B>().0;

        // Lane masks are all-ones while a lane holds an undecided frame and
        // zero once it is empty.
        let mut live = [0i16; B];
        // The stream's tag of the frame each lane holds.
        let mut tags = [0usize; B];
        let mut quant = QuantStats::default();
        let mut dry = false;
        for (f, lane) in live.iter_mut().enumerate() {
            let Some(tag) = frames.next_frame(frame) else {
                dry = true;
                break;
            };
            tags[f] = tag;
            self.load::<B, R>(lambda, f, frame, &mut quant);
            *lane = -1;
        }
        if live == [0; B] {
            return;
        }

        let mut iterations = [0usize; B];
        let mut sat = SatCounts::default();
        let mut sweeps = 0u64;
        let mut lane_iterations = 0u64;
        while live != [0; B] {
            if max_iterations > 0 {
                self.sweep::<B, R>(lambda, r, q, live, &mut sat);
                sweeps += 1;
                for (it, lane) in iterations.iter_mut().zip(live) {
                    *it += usize::from(lane != 0);
                }
            }
            // Check every live lane under early termination, otherwise only
            // the lanes that ran their last iteration.
            let due: [i16; B] = std::array::from_fn(|f| {
                if self.config.early_termination || iterations[f] == max_iterations {
                    live[f]
                } else {
                    0
                }
            });
            let satisfied = self.parity_satisfied(lambda, due);
            // All-ones for the lanes that load a frame now.
            let mut fresh = [0i16; B];
            for f in 0..B {
                if live[f] == 0 || !(satisfied[f] || iterations[f] == max_iterations) {
                    continue;
                }
                bits.clear();
                bits.extend(lambda[..k].iter().map(|l| u8::from(l[f] < 0)));
                frames.decided(tags[f], bits, iterations[f], satisfied[f]);
                if R::ENABLED {
                    self.record_frame_counts(rec, iterations[f], satisfied[f]);
                    let it = iterations[f] as u64;
                    rec.observe(Class::Execution, "fixed.lane_iterations", it);
                    lane_iterations += it;
                }
                iterations[f] = 0;
                live[f] = 0;
                if dry {
                    continue;
                }
                match frames.next_frame(frame) {
                    Some(tag) => {
                        tags[f] = tag;
                        self.load::<B, R>(lambda, f, frame, &mut quant);
                        live[f] = -1;
                        fresh[f] = -1;
                    }
                    None => dry = true,
                }
            }
            if fresh != [0; B] {
                for edge in r.iter_mut() {
                    for (value, lane) in edge.iter_mut().zip(fresh) {
                        *value &= !lane;
                    }
                }
            }
        }
        if R::ENABLED {
            rec.incr(Class::Count, "fixed.sat_q", sat.sat_q);
            rec.incr(Class::Count, "fixed.r_clip", sat.r_clip);
            rec.incr(Class::Count, "fixed.sat_lambda", sat.sat_lambda);
            rec.incr(Class::Count, "fixed.sat_quantize", quant.saturated);
            rec.incr(Class::Count, "fixed.quantized_llrs", quant.total);
            // Every sweep runs all `B` lanes; the lane-iterations not spent
            // on a frame are the over-work of the emptied lanes.
            rec.observe(Class::Execution, "fixed.lane_width", B as u64);
            rec.incr(
                Class::Execution,
                "fixed.overwork_iters",
                B as u64 * sweeps - lane_iterations,
            );
        }
    }

    /// One layered iteration over every check row, Eq. (6)–(11), for all
    /// `B` lanes, live or not.  The saturation counters skip the lanes
    /// whose `live` mask is zero.
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
        live: [i16; B],
        sat: &mut SatCounts,
    ) {
        let arith = &self.arith;
        let plan = self.code.plan();
        let z = plan.expansion();
        // Check row after check row, layer by layer: the layered schedule.
        // A layer's rows are the chunks of its degree in its columns and in
        // its `R` edges.
        for layer in plan.layers() {
            let (degree, edges) = (layer.len(), layer.start * z..layer.end * z);
            let rows = plan.columns()[edges.clone()].chunks_exact(degree);
            for (cols, r_row) in rows.zip(r[edges].chunks_exact_mut(degree)) {
                let q_row = &mut q[..degree];
                let mut sat_q = [0u16; B];
                let mut r_clip = [0u16; B];
                let mut sat_lambda = [0u16; B];

                // Fused pass: Q_lk = sat(λ - R_old), Eq. (6), streamed through
                // the lane MEU (two minima, first position, sign parity).
                let mut meu = LaneScan::<B>::default();
                for (pos, ((qj, &col), rj)) in (0u16..).zip(q_row.iter_mut().zip(cols).zip(&*r_row))
                {
                    let lam = lambda[col as usize];
                    *qj = arith.q_message_array(lam, *rj);
                    if R::ENABLED {
                        // Saturated where the clamp moved the exact difference
                        // (at legal widths the `i16` difference never saturates;
                        // see `MinSumArith::q_message_array`).
                        count_lanes(&mut sat_q, live, |f| qj[f] != lam[f].saturating_sub(rj[f]));
                    }
                    meu.push(pos, *qj);
                }
                if R::ENABLED {
                    count_lanes(&mut r_clip, live, |f| arith.r_clips(i32::from(meu.min1[f])));
                    count_lanes(&mut r_clip, live, |f| arith.r_clips(i32::from(meu.min2[f])));
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
                        count_lanes(&mut sat_lambda, live, |f| {
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
    }

    /// Syndrome check of the hard decisions `λ < 0` for the lanes whose
    /// `lanes` mask is set: the sign bit of the XOR of a row's λ values is
    /// that row's parity, so all lanes are checked at once.  Unchecked lanes
    /// report `false`.
    fn parity_satisfied<const B: usize>(&self, lambda: &[[i16; B]], lanes: [i16; B]) -> [bool; B] {
        // Sign bit of `failed[f]`: lane `f` has an odd-parity row (unchecked
        // lanes start failed, so they never hold up the early exit).
        let mut failed = lanes.map(|m| !m);
        for cols in self.code.plan().rows() {
            let mut parity = [0i16; B];
            for &col in cols {
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

/// Saturation-event counts of one refill loop, summed over its live lanes.
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
    use crate::code::{satisfies_rows, spelled_rows};
    use crate::decoder::{LayeredConfig, LayeredDecoder, MinimumExtractionUnit};
    use crate::encoder::QcEncoder;
    use fec_channel::sim::{DecodedFrame, FrameSlice};
    use fec_obs::Registry;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The λ register rails of `dec`.
    fn rails(dec: &FixedLayeredDecoder) -> (i16, i16) {
        let rail = |v: i32| i16::try_from(v).unwrap();
        (rail(dec.arith.lambda_min()), rail(dec.arith.lambda_max()))
    }

    /// The serial loop the lockstep kernel replaced, kept as its oracle:
    /// one frame of λ values at a time, saturated to the register rails as
    /// the quantizer saturates [`llrs_of`] them, a two-pass
    /// [`MinimumExtractionUnit::scan`] per row and a syndrome check of the
    /// hard decisions after every iteration.  Records the same Count-class
    /// metrics as the kernel.
    fn reference_decode(
        dec: &FixedLayeredDecoder,
        quantized: &[i16],
        rec: &mut Registry,
    ) -> DecodeOutcome {
        let arith = &dec.arith;
        let h = spelled_rows(&dec.code);
        let (lo, hi) = rails(dec);
        let mut lambda: Vec<i16> = quantized.iter().map(|&v| v.clamp(lo, hi)).collect();
        let at_rail = lambda.iter().filter(|&&l| l == lo || l == hi).count();
        // The rows of H (spelled from the base matrix) as CSR, with one `R`
        // per entry.
        let mut row_ptr = vec![0];
        for (row, cols) in h.iter().enumerate() {
            row_ptr.push(row_ptr[row] + cols.len());
        }
        let mut r = vec![0i16; row_ptr[h.len()]];
        let mut q = Vec::new();
        let (mut sat_q, mut r_clip, mut sat_lambda) = (0u64, 0u64, 0u64);
        let hard =
            |lambda: &[i16]| -> Vec<u8> { lambda.iter().map(|&l| u8::from(l < 0)).collect() };
        let mut iterations = 0;
        let mut converged = false;
        for it in 0..dec.config.max_iterations {
            iterations = it + 1;
            for (row, cols) in h.iter().enumerate() {
                let r_row = &mut r[row_ptr[row]..row_ptr[row + 1]];
                q.resize(cols.len(), 0);
                let q_row = &mut q[..];
                for ((qj, &col), &rj) in q_row.iter_mut().zip(cols).zip(r_row.iter()) {
                    let (lam, rv) = (i32::from(lambda[col]), i32::from(rj));
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
                    lambda[col] = arith.lambda_update(i32::from(qj), i32::from(r_new));
                    *rj = r_new;
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
        dec.record_frame_counts(rec, iterations, converged);
        rec.incr(Class::Count, "fixed.sat_q", sat_q);
        rec.incr(Class::Count, "fixed.r_clip", r_clip);
        rec.incr(Class::Count, "fixed.sat_lambda", sat_lambda);
        rec.incr(Class::Count, "fixed.sat_quantize", at_rail as u64);
        rec.incr(Class::Count, "fixed.quantized_llrs", lambda.len() as u64);
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

    /// Channel LLRs that quantize to exactly the λ values of `frame`
    /// (saturated to the register width, as `reference_decode` clamps).
    fn llrs_of(dec: &FixedLayeredDecoder, frame: &[i16]) -> Vec<Llr> {
        let scale = dec.quantizer.scale();
        frame
            .iter()
            .map(|&v| Llr::new(f64::from(v) / scale))
            .collect()
    }

    /// Decodes one frame of λ values, entered as [`llrs_of`] them.
    fn decode_one(dec: &FixedLayeredDecoder, frame: &[i16]) -> DecodeOutcome {
        dec.decode(&llrs_of(dec, frame))
    }

    /// Decodes `frames` as one stream with at most `width` in flight.
    fn decode_streamed(
        dec: &FixedLayeredDecoder,
        frames: &[Vec<Llr>],
        width: usize,
        rec: &mut Registry,
    ) -> Vec<DecodedFrame> {
        let frames: Vec<&[Llr]> = frames.iter().map(Vec::as_slice).collect();
        let mut stream = FrameSlice::new(&frames, width);
        dec.decode_stream(&mut stream, rec);
        stream.into_decoded()
    }

    /// What a stream is handed for a frame with outcome `out`.
    fn decision(dec: &FixedLayeredDecoder, out: &DecodeOutcome) -> DecodedFrame {
        DecodedFrame {
            info_bits: out.info_bits(dec.code.k()).to_vec(),
            iterations: out.iterations,
            converged: out.converged,
        }
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
    fn decode_saturates_out_of_range_llrs() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        // +500 quantizes to +1000 LSB and saturates to +63: still a
        // confident zero bit.
        let out = dec.decode(&vec![Llr::new(500.0); code.n()]);
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
            let frames: Vec<Vec<Llr>> = (0..batch)
                .map(|_| {
                    let q: Vec<i16> = (0..n).map(|_| rng.gen_range(-300i16..=300)).collect();
                    llrs_of(&dec, &q)
                })
                .collect();
            let batched = decode_streamed(&dec, &frames, batch, &mut Registry::new());
            assert_eq!(batched.len(), batch);
            for (f, frame) in frames.iter().enumerate() {
                let serial = decision(&dec, &dec.decode(frame));
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
        let batched = decode_streamed(&dec, &frames, 4, &mut Registry::new());
        let serial: Vec<DecodedFrame> = frames
            .iter()
            .map(|f| decision(&dec, &dec.decode(f)))
            .collect();
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
        let batched = decode_streamed(&dec, &frames, 3, &mut Registry::new());
        for (f, frame) in frames.iter().enumerate() {
            assert_eq!(batched[f], decision(&dec, &dec.decode(frame)), "lane {f}");
        }
    }

    #[test]
    fn scratch_reuse_across_calls_is_harmless() {
        // The per-thread scratch driven through one, two and one lanes in
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
        let frames: Vec<Vec<Llr>> = q.chunks_exact(n).map(|f| llrs_of(&dec, f)).collect();
        let streamed = decode_streamed(&dec, &frames, 3, &mut Registry::new());
        let want: Vec<DecodedFrame> = expected.iter().map(|out| decision(&dec, out)).collect();
        assert_eq!(streamed, want);
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
            let llrs: Vec<Vec<Llr>> = frames.iter().map(|f| llrs_of(&dec, f)).collect();
            let batched = decode_streamed(&dec, &llrs, batch, &mut Registry::new());
            for (f, frame) in frames.iter().enumerate() {
                let serial = decision(&dec, &decode_one(&dec, frame));
                prop_assert!(batched[f] == serial, "lane {} of batch {} diverged", f, batch);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]
        /// Under four datapath configurations, the one-frame `decode`
        /// equals the serial reference on every outcome field, and a stream
        /// of every batch size 1..=17 (all lane widths and their splits, up
        /// to 16 + 1) hands back each frame's reference decisions, with the
        /// stream's Count-class `fixed.*` metrics equal to the reference's.
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
                let frames = random_lambda_frames(n, rails(&dec).1, seed);
                let llrs: Vec<Vec<Llr>> = frames.iter().map(|f| llrs_of(&dec, f)).collect();
                let mut reference = Vec::new();
                for (frame, llr) in frames.iter().zip(&llrs) {
                    let mut reg = Registry::new();
                    let out = reference_decode(&dec, frame, &mut reg);
                    prop_assert!(dec.decode(llr) == out, "serial decode under {:?}", cfg);
                    reference.push((decision(&dec, &out), reg));
                }
                for batch in 1..=frames.len() {
                    let mut got_counts = Registry::new();
                    let got = decode_streamed(&dec, &llrs[..batch], batch, &mut got_counts);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The refill loop against the serial oracle, frame by frame, at
        /// every lane width: 0..=40 frames per stream (fewer than the lanes
        /// too), early termination on and off, 1..=10 iterations, 7- and
        /// 5-bit `R`.  Each frame's information bits, iterations and
        /// convergence equal `reference_decode`'s, and each stream's
        /// Count-class `fixed.*` metrics equal those of one-frame streams.
        #[test]
        fn refill_stream_matches_the_serial_reference(
            seed in 0u64..1 << 32,
            frames in 0usize..=40,
            max_iterations in 1usize..=10,
            early_termination in 0u8..=1,
            paper_r in 0u8..=1,
        ) {
            let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
            let base = if paper_r == 1 {
                FixedLayeredConfig::paper()
            } else {
                FixedLayeredConfig::default()
            };
            let cfg = FixedLayeredConfig {
                max_iterations,
                early_termination: early_termination == 1,
                ..base
            };
            let dec = FixedLayeredDecoder::new(&code, cfg);
            let hi = rails(&dec).1;
            let lambdas: Vec<Vec<i16>> = (seed..)
                .flat_map(|s| random_lambda_frames(code.n(), hi, s))
                .take(frames)
                .collect();
            let llrs: Vec<Vec<Llr>> = lambdas.iter().map(|f| llrs_of(&dec, f)).collect();
            let llrs: Vec<&[Llr]> = llrs.iter().map(Vec::as_slice).collect();
            let mut want = Vec::new();
            let mut serial_counts = Registry::new();
            for (lambda, llr) in lambdas.iter().zip(&llrs) {
                let out = reference_decode(&dec, lambda, &mut Registry::new());
                want.push((out.info_bits(code.k()).to_vec(), out.iterations, out.converged));
                let mut stream = FrameSlice::new(std::slice::from_ref(llr), 1);
                dec.decode_stream(&mut stream, &mut serial_counts);
                stream.into_decoded();
            }
            for width in [1, 2, 4, 8, 16] {
                let mut counts = Registry::new();
                let mut stream = FrameSlice::new(&llrs, width);
                dec.decode_stream(&mut stream, &mut counts);
                for (f, (got, want)) in stream.into_decoded().iter().zip(&want).enumerate() {
                    prop_assert!(
                        (&got.info_bits, got.iterations, got.converged) == (&want.0, want.1, want.2),
                        "frame {} of {} on {} lanes under {:?}", f, frames, width, cfg
                    );
                }
                prop_assert_eq!(counts.render_counts(), serial_counts.render_counts());
            }
        }
    }

    #[test]
    fn a_stream_wider_than_its_frames_leaves_lanes_empty() {
        // Three frames on 16 lanes: the empty lanes run as over-work and
        // record nothing per frame; an empty stream records nothing at all.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        let frames: Vec<Vec<Llr>> = random_lambda_frames(code.n(), 63, 3)[..3]
            .iter()
            .map(|f| llrs_of(&dec, f))
            .collect();
        let frames: Vec<&[Llr]> = frames.iter().map(Vec::as_slice).collect();
        let mut obs = Registry::new();
        let mut stream = FrameSlice::new(&frames, 16);
        dec.decode_stream(&mut stream, &mut obs);
        let decoded = stream.into_decoded();
        assert_eq!(obs.counter("fixed.frames"), Some(3));
        let lanes = match obs.get("fixed.lane_width").map(|m| &m.value) {
            Some(fec_obs::MetricValue::Histogram(h)) => (h.total(), h.sum()),
            other => panic!("fixed.lane_width must be a histogram, got {other:?}"),
        };
        assert_eq!(lanes, (1, 16));
        let most = decoded.iter().map(|d| d.iterations as u64).max().unwrap();
        let useful: u64 = decoded.iter().map(|d| d.iterations as u64).sum();
        assert_eq!(
            obs.counter("fixed.overwork_iters"),
            Some(16 * most - useful)
        );

        let mut empty = Registry::new();
        let mut stream = FrameSlice::new(&[], 8);
        dec.decode_stream(&mut stream, &mut empty);
        assert!(stream.into_decoded().is_empty());
        assert!(empty.is_empty(), "{empty:?}");
    }

    #[test]
    fn csr_layout_matches_the_sparse_matrix() {
        // The rows the sweep and the parity check walk are the rows of H,
        // and the `R` edges they index are one per entry of H.
        let code = QcLdpcCode::wimax(672, CodeRate::R34A).unwrap();
        let plan = code.plan();
        assert_eq!(plan.columns().len(), code.edge_count());
        let h = spelled_rows(&code);
        let mut row = 0;
        for bits in plan.rows() {
            let cols: Vec<usize> = bits.iter().map(|&c| c as usize).collect();
            assert_eq!(cols, h[row], "row {row}");
            row += 1;
        }
        assert_eq!(row, code.m());
        assert_eq!(h.iter().map(Vec::len).sum::<usize>(), code.edge_count());
        let z = plan.expansion();
        let mut edges = 0;
        for layer in plan.layers() {
            assert_eq!(layer.start * z, edges);
            edges = layer.end * z;
        }
        assert_eq!(edges, code.edge_count());
        assert!(plan.widest_layer() >= 2);
    }
}

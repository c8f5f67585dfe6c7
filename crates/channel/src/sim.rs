//! The unified Monte-Carlo simulation engine behind every BER study.
//!
//! Historically each decode flavour (layered LDPC, flooding LDPC, bit-level
//! turbo, symbol-level turbo) carried its own hand-written serial
//! Monte-Carlo loop.  This module replaces all of them with one engine:
//!
//! * [`FecCodec`] — an object-safe encode/decode abstraction implemented by
//!   every decoder flavour (`wimax_ldpc::codec`, `wimax_turbo::codec`), with
//!   one decode method, [`FecCodec::decode_frames`], which pulls frames from
//!   a [`FrameStream`] and hands each frame's decision back to it;
//! * [`SimulationEngine`] — shards frames across worker threads, gives every
//!   shard an independent deterministic RNG stream, aggregates via
//!   [`ErrorCounter::merge`] and ends each point by its [`StopRule`], which
//!   owns the point's frame budget;
//! * [`BerPoint`] / [`BerCurve`] — machine-readable results
//!   ([`fec_json::ToJson`]).
//!
//! # Determinism
//!
//! Work is split into a fixed number of *shards* (independent RNG streams),
//! and frames are scheduled onto shards in rounds whose sizes depend only on
//! the configuration and the merged counts — never on the number of worker
//! threads.  Threads are merely executors of shards, and the aggregated
//! [`ErrorCounter`] is a sum of integers, so a run with 8 workers produces
//! **bit-identical** error counts to a run with 1 worker and the same seed.
//!
//! A shard's frames are generated, encoded and sent through the channel one
//! at a time, when the codec asks for its next frame, so each shard's RNG is
//! consumed frame by frame in its own order whatever the codec does in
//! between.  A codec may hold up to [`EngineConfig::batch_frames`] frames
//! in flight (the lane width of the lockstep q7 decoder) and may decide them
//! in any order; decodes are bit-identical per frame, so the counts do not
//! depend on the batch size either.
//!
//! # Scheduling
//!
//! All fan-out runs on the shared deterministic
//! [`fec_sched::WorkPool`].  Each point-round is one job per worker
//! ([`SimulationEngine::effective_workers`]): a job claims the round's
//! shards one at a time and streams their frames through one
//! [`FecCodec::decode_frames`] call, so a lockstep codec keeps its lanes
//! busy across shard boundaries.  The jobs of every point go into **one**
//! pool, so a 10-point sweep keeps every core busy across points instead of
//! barriering per round per point.  Adaptive stopping stays exact because
//! each point's next round is submitted as continuation jobs only after its
//! previous round has been merged — but jobs of other points fill the gap
//! in the meantime.  Per-shard RNG streams are keyed on
//! `(seed, shard, ebn0_db)`, so the counts are bit-identical to the
//! point-at-a-time schedule.
//!
//! # Observability
//!
//! [`run_curve_observed`] runs the same schedule while filling a
//! [`fec_obs::Registry`]: every job records into a private registry that is
//! merged on completion (the merge is commutative, so Count-class metrics
//! stay bit-identical for any worker count and batch size), the engine
//! records the `codec.*` family of every decoded frame and per-point
//! `engine.p{i}.*` counters, instrumented codecs add their datapath metrics,
//! and the pool contributes `pool.*` metrics via [`fec_sched::PoolObs`]
//! (its task totals are Execution-class here: the engine runs one job per
//! worker).  Timing spans use the injected [`fec_obs::Clock`] and are
//! excluded from determinism gating.
//!
//! [`run_curve_observed`]: SimulationEngine::run_curve_observed
//!
//! # Example
//!
//! ```
//! use fec_channel::sim::{decode_serially, EngineConfig, FecCodec, FrameStream, SimulationEngine};
//! use fec_obs::Registry;
//!
//! /// A rate-1/2 repetition code: good enough to show the engine at work.
//! struct Repetition;
//!
//! impl FecCodec for Repetition {
//!     fn name(&self) -> String { "repetition-2".into() }
//!     fn info_bits(&self) -> usize { 32 }
//!     fn codeword_bits(&self) -> usize { 64 }
//!     fn encode(&self, info: &[u8]) -> Vec<u8> {
//!         info.iter().chain(info).copied().collect()
//!     }
//!     fn decode_frames(&self, frames: &mut dyn FrameStream, _obs: Option<&mut Registry>) {
//!         let k = self.info_bits();
//!         decode_serially(self, frames, |llrs| {
//!             let bits: Vec<u8> = (0..k)
//!                 .map(|i| u8::from(llrs[i].value() + llrs[i + k].value() < 0.0))
//!                 .collect();
//!             (bits, 1, true)
//!         });
//!     }
//! }
//!
//! let engine = SimulationEngine::new(EngineConfig::fixed_frames(50, 7));
//! let point = engine.run_point(&Repetition, 4.0);
//! assert_eq!(point.frames, 50);
//! ```

use crate::awgn::{AwgnChannel, EbN0};
use crate::ber::{ErrorCounter, StopRule};
use crate::modulation::BpskModulator;
use crate::stats::{normal_quantile, wilson_interval};
use fec_fixed::Llr;
use fec_json::{Json, ToJson};
use fec_obs::{Class, Clock, Registry};
use fec_sched::{Job, JobOutcome, PoolObs, WorkPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// The result of decoding one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// Hard decisions on the information bits.
    pub info_bits: Vec<u8>,
    /// Decoder iterations spent on this frame.
    pub iterations: usize,
    /// Whether the decoder's stopping rule fired (syndrome zero / decisions
    /// stable) before the iteration limit.
    pub converged: bool,
}

/// The frames of one [`FecCodec::decode_frames`] call and the sink of their
/// decisions.
///
/// The codec pulls a frame's channel LLRs into its own buffer when it has
/// room for the frame, and hands the frame's decision back once it is
/// decided.  It may hold up to [`max_in_flight`](FrameStream::max_in_flight)
/// frames at once and decide them in any order, but must pull until
/// [`next_frame`](FrameStream::next_frame) returns `None` and decide every
/// frame it pulled exactly once.
pub trait FrameStream {
    /// The most frames the codec may hold undecided at once (at least 1):
    /// the lane width a lockstep codec may use.
    fn max_in_flight(&self) -> usize;

    /// Writes the next frame's channel LLRs into `llrs` (its length is the
    /// codec's `codeword_bits()`) and returns the frame's tag, or `None` once
    /// the stream is exhausted, and on every call after that.
    fn next_frame(&mut self, llrs: &mut [Llr]) -> Option<usize>;

    /// Takes the decision on the frame tagged `frame`: its `info_bits()`
    /// hard decisions, the decoder iterations it took and whether the
    /// decoder's stopping rule fired before the iteration limit.
    fn decided(&mut self, frame: usize, info_bits: &[u8], iterations: usize, converged: bool);
}

/// An object-safe forward-error-correction codec: everything the Monte-Carlo
/// engine needs to close the encode → channel → decode loop.
///
/// Implementations must be [`Send`] + [`Sync`] so a single codec instance
/// can be shared by all worker threads.
pub trait FecCodec: Send + Sync {
    /// Human-readable label used in reports ("wimax-ldpc-576-r12-layered").
    fn name(&self) -> String;

    /// Number of information bits per frame.
    fn info_bits(&self) -> usize;

    /// Number of transmitted codeword bits per frame.
    fn codeword_bits(&self) -> usize;

    /// Encodes `info_bits()` information bits into `codeword_bits()` coded
    /// bits.
    fn encode(&self, info: &[u8]) -> Vec<u8>;

    /// Decodes every frame of `frames` (channel LLRs, `codeword_bits()` per
    /// frame) and hands each frame's decision back to the stream.  This is
    /// the codec's one decode path.
    ///
    /// Decisions must be **bit-identical** to decoding each frame alone: the
    /// engine's determinism contract extends to the stream's width.  With
    /// `obs` set, instrumented codecs record their datapath metrics into it
    /// (the engine itself records the generic `codec.*` family); observation
    /// never changes results, and Count-class metrics must be a pure
    /// per-frame function so they too are independent of the width.
    fn decode_frames(&self, frames: &mut dyn FrameStream, obs: Option<&mut Registry>);

    /// Decodes one frame: a stream of one, without observation.
    fn decode(&self, llrs: &[Llr]) -> DecodedFrame {
        self.decode_batch(&[llrs]).remove(0)
    }

    /// Decodes a chunk of frames without observation, all of them in flight
    /// at once, and returns their decisions in input order.
    fn decode_batch(&self, frames: &[&[Llr]]) -> Vec<DecodedFrame> {
        let mut slice = FrameSlice::new(frames, frames.len());
        self.decode_frames(&mut slice, None);
        slice.into_decoded()
    }

    /// Code rate `k / n`, used to set the AWGN noise variance for a target
    /// `Eb/N0`.
    fn rate(&self) -> f64 {
        self.info_bits() as f64 / self.codeword_bits() as f64
    }
}

/// The decode loop of a codec whose decoder has no stream path of its own
/// (the turbo codecs; every LDPC codec streams frames from its decoder's
/// scratch): pulls the frames of `frames` one at a time into one buffer and
/// hands back what `decode` makes of each — its hard decisions (at least
/// `codec.info_bits()`, the information bits first), iterations and
/// convergence.
pub fn decode_serially<B: AsRef<[u8]>>(
    codec: &dyn FecCodec,
    frames: &mut dyn FrameStream,
    mut decode: impl FnMut(&[Llr]) -> (B, usize, bool),
) {
    let k = codec.info_bits();
    let mut llrs = vec![Llr::default(); codec.codeword_bits()];
    while let Some(frame) = frames.next_frame(&mut llrs) {
        let (bits, iterations, converged) = decode(&llrs);
        frames.decided(frame, &bits.as_ref()[..k], iterations, converged);
    }
}

/// Frames held in memory as a [`FrameStream`] with at most `width` of them
/// in flight, their decisions collected in input order.  Panics when a
/// codec breaks the stream's contract: a frame past the width, a frame
/// decided twice or never.
#[derive(Debug)]
pub struct FrameSlice<'a> {
    frames: &'a [&'a [Llr]],
    width: usize,
    next: usize,
    in_flight: usize,
    decoded: Vec<Option<DecodedFrame>>,
}

impl<'a> FrameSlice<'a> {
    /// The stream of `frames` with at most `width` (at least 1) in flight.
    pub fn new(frames: &'a [&'a [Llr]], width: usize) -> Self {
        FrameSlice {
            frames,
            width: width.max(1),
            next: 0,
            in_flight: 0,
            decoded: vec![None; frames.len()],
        }
    }

    /// The decisions, in input order.
    ///
    /// # Panics
    ///
    /// Panics if a frame was never decided.
    pub fn into_decoded(self) -> Vec<DecodedFrame> {
        self.decoded
            .into_iter()
            .enumerate()
            .map(|(f, frame)| frame.unwrap_or_else(|| panic!("frame {f} was never decided")))
            .collect()
    }
}

impl FrameStream for FrameSlice<'_> {
    fn max_in_flight(&self) -> usize {
        self.width
    }

    fn next_frame(&mut self, llrs: &mut [Llr]) -> Option<usize> {
        let frame = self.frames.get(self.next)?;
        assert!(
            self.in_flight < self.width,
            "a codec pulled more than {} frames at once",
            self.width
        );
        assert_eq!(
            frame.len(),
            llrs.len(),
            "LLR vector length must equal the codeword length"
        );
        llrs.copy_from_slice(frame);
        self.in_flight += 1;
        self.next += 1;
        Some(self.next - 1)
    }

    fn decided(&mut self, frame: usize, info_bits: &[u8], iterations: usize, converged: bool) {
        assert!(self.decoded[frame].is_none(), "frame {frame} decided twice");
        self.in_flight -= 1;
        self.decoded[frame] = Some(DecodedFrame {
            info_bits: info_bits.to_vec(),
            iterations,
            converged,
        });
    }
}

/// Configuration of the [`SimulationEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Number of worker threads; `0` means one per available core.
    pub workers: usize,
    /// Number of independent deterministic RNG streams.  Results depend on
    /// this value (it defines the frame → stream schedule) but **not** on
    /// `workers`.
    pub shards: usize,
    /// Frames each shard simulates per scheduling round; early stopping is
    /// evaluated between rounds.
    pub frames_per_shard_round: u64,
    /// Base seed; each shard stream is derived from it with SplitMix64.
    pub seed: u64,
    /// The most frames a codec holds in flight in one
    /// [`FecCodec::decode_frames`] call (`1` = one frame at a time), capped
    /// by the frames of the round: the lane width of a lockstep codec, which
    /// runs at the widest width it supports up to this value (the q7 LDPC
    /// decoder: 1, 2, 4, 8 or 16).  Because decodes are bit-identical per
    /// frame and each shard's RNG is consumed frame by frame in its own
    /// order, results do not depend on this value.
    pub batch_frames: usize,
    /// How a point decides it is done, budget included:
    /// [`StopRule::FixedBudget`] runs exactly its frame count;
    /// [`StopRule::RelativeWidth`] runs adaptive continuation rounds until
    /// the Wilson relative half-width of the FER estimate reaches the target
    /// (never fewer than
    /// [`ADAPTIVE_MIN_FRAMES`](EngineConfig::ADAPTIVE_MIN_FRAMES) frames) or
    /// the cap.
    pub stop_rule: StopRule,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            shards: 32,
            frames_per_shard_round: 8,
            seed: 0x5EED,
            batch_frames: 1,
            stop_rule: StopRule::FixedBudget { frames: 10_000 },
        }
    }
}

impl EngineConfig {
    /// A configuration that simulates exactly `frames` frames per point
    /// (no early stopping), matching the historical fixed-frame BER loops.
    pub fn fixed_frames(frames: u64, seed: u64) -> Self {
        EngineConfig {
            seed,
            stop_rule: StopRule::FixedBudget { frames },
            ..EngineConfig::default()
        }
    }

    /// Minimum frames a [`StopRule::RelativeWidth`] point runs before the
    /// width target may stop it, so a couple of lucky error-free frames
    /// cannot end a point prematurely (clamped to the frame cap for tiny
    /// budgets).
    pub const ADAPTIVE_MIN_FRAMES: u64 = 32;

    /// A confidence-targeted adaptive configuration: each point runs until
    /// the Wilson relative half-width of its FER estimate is at most
    /// `target_rel_width` at the two-sided `confidence` level, or until
    /// `max_frames` frames, whichever comes first — never fewer than
    /// [`ADAPTIVE_MIN_FRAMES`](EngineConfig::ADAPTIVE_MIN_FRAMES) frames.
    pub fn adaptive(max_frames: u64, target_rel_width: f64, confidence: f64, seed: u64) -> Self {
        EngineConfig {
            seed,
            stop_rule: StopRule::RelativeWidth {
                target_rel_width,
                confidence,
                max_frames,
            },
            ..EngineConfig::default()
        }
    }

    /// Builder-style setter for the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style setter for the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Builder-style setter for the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the decode batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_frames` is zero.
    pub fn with_batch_frames(mut self, batch_frames: usize) -> Self {
        assert!(batch_frames > 0, "need at least one frame per decode batch");
        self.batch_frames = batch_frames;
        self
    }

    /// Checks the configuration for internal consistency.
    ///
    /// `shards == 0` is rejected here (it would be a division by zero in the
    /// round-splitting schedule), together with a zero batch and every
    /// degenerate setting caught by [`StopRule::validate`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("need at least one shard (shards == 0 cannot schedule any frame)".into());
        }
        if self.batch_frames == 0 {
            return Err(
                "need at least one frame per decode batch (batch_frames == 0 decodes nothing)"
                    .into(),
            );
        }
        self.stop_rule.validate()
    }
}

/// One point of a BER curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerPoint {
    /// Eb/N0 in dB.
    pub ebn0_db: f64,
    /// Bit error rate.
    pub ber: f64,
    /// Frame error rate.
    pub fer: f64,
    /// Average decoder iterations per frame.
    pub average_iterations: f64,
    /// Frames simulated at this point.
    pub frames: u64,
    /// Bit errors observed.
    pub bit_errors: u64,
    /// Frame errors observed.
    pub frame_errors: u64,
}

impl ToJson for BerPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("ebn0_db", Json::from(self.ebn0_db)),
            ("ber", Json::from(self.ber)),
            ("fer", Json::from(self.fer)),
            ("average_iterations", Json::from(self.average_iterations)),
            ("frames", Json::from(self.frames)),
            ("bit_errors", Json::from(self.bit_errors)),
            ("frame_errors", Json::from(self.frame_errors)),
        ])
    }
}

/// A labelled BER curve: one [`BerPoint`] per simulated `Eb/N0`.
#[derive(Debug, Clone, PartialEq)]
pub struct BerCurve {
    /// Codec label the curve was measured for.
    pub label: String,
    /// The simulated points, in the order the `Eb/N0` values were given.
    pub points: Vec<BerPoint>,
}

impl ToJson for BerCurve {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label.clone())),
            ("points", self.points.to_json()),
        ])
    }
}

/// Per-point aggregation state merged across shards.
#[derive(Debug, Clone, Copy, Default)]
struct PointAccumulator {
    counter: ErrorCounter,
    iterations: u64,
}

impl PointAccumulator {
    fn merge(&mut self, other: &PointAccumulator) {
        self.counter.merge(&other.counter);
        self.iterations += other.iterations;
    }
}

/// The parallel Monte-Carlo simulation engine.  See the module docs for the
/// determinism contract and an end-to-end example.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimulationEngine {
    config: EngineConfig,
}

impl SimulationEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero or the stopping rules are
    /// inconsistent (see [`EngineConfig::validate`]).
    pub fn new(config: EngineConfig) -> Self {
        if let Err(message) = config.validate() {
            panic!("invalid EngineConfig: {message}");
        }
        SimulationEngine { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of jobs each point-round runs as, and the number of worker
    /// threads a *single-point* run uses: the configured count (one per core
    /// for `0`) clamped to the shard count.  A multi-point [`run_curve`]
    /// runs the jobs of every point on one pool of this many workers.
    ///
    /// [`run_curve`]: SimulationEngine::run_curve
    pub fn effective_workers(&self) -> usize {
        WorkPool::new(self.config.workers).effective_workers(self.config.shards)
    }

    /// Simulates one `Eb/N0` point for `codec` (a single-point curve on the
    /// shared work pool).
    pub fn run_point(&self, codec: &dyn FecCodec, ebn0_db: f64) -> BerPoint {
        self.run_points_inner(codec, std::slice::from_ref(&ebn0_db), None)
            .pop()
            .expect("one point per Eb/N0 value")
    }

    /// Simulates a full curve (one point per `Eb/N0` value, in order).
    ///
    /// The point-round jobs of the whole curve are scheduled onto **one**
    /// deterministic [`WorkPool`], so short per-point budgets no longer
    /// serialize on a per-point round barrier; see the module docs.
    pub fn run_curve(&self, codec: &dyn FecCodec, ebn0_dbs: &[f64]) -> BerCurve {
        BerCurve {
            label: codec.name(),
            points: self.run_points_inner(codec, ebn0_dbs, None),
        }
    }

    /// Simulates a full curve while filling `obs`: jobs record into
    /// private registries merged on completion, the pool reports `pool.*`
    /// metrics, and the engine emits per-point `engine.p{i}.*` counters.
    ///
    /// Count-class metrics are **bit-identical** for any worker count and
    /// decode batch size (registry merge is commutative and every Count
    /// metric is a pure per-frame function); Timing-class spans use the
    /// injected `clock` and carry no determinism guarantee.
    pub fn run_curve_observed(
        &self,
        codec: &dyn FecCodec,
        ebn0_dbs: &[f64],
        clock: &dyn Clock,
        obs: &mut Registry,
    ) -> BerCurve {
        BerCurve {
            label: codec.name(),
            points: self.run_points_inner(codec, ebn0_dbs, Some((clock, obs))),
        }
    }

    /// Runs every `Eb/N0` point on one shared pool and returns the points in
    /// input order (each job's counts are a sum over the frames of the
    /// shards it claimed, so the merged counts are bit-identical for any
    /// worker count).  With
    /// `observe = Some(..)` the same schedule additionally fills the
    /// registry; the plain path pays nothing for the instrumentation.
    fn run_points_inner(
        &self,
        codec: &dyn FecCodec,
        ebn0_dbs: &[f64],
        observe: Option<(&dyn Clock, &mut Registry)>,
    ) -> Vec<BerPoint> {
        let cfg = &self.config;
        let shards = cfg.shards;
        let modulator = BpskModulator::new();
        let channels: Vec<AwgnChannel> = ebn0_dbs
            .iter()
            .map(|&e| AwgnChannel::for_code_rate(EbN0::from_db(e), codec.rate()))
            .collect();

        let mut states: Vec<PointState> = ebn0_dbs
            .iter()
            .map(|&e| PointState {
                rngs: (0..shards)
                    .map(|s| Some(StdRng::seed_from_u64(shard_seed(cfg.seed, s as u64, e))))
                    .collect(),
                total: PointAccumulator::default(),
                in_flight: 0,
                rounds: 0,
            })
            .collect();

        let ctx = CurveCtx {
            codec,
            channels: &channels,
            modulator: &modulator,
            cfg,
            workers: self.effective_workers(),
            round_quota: (shards as u64).saturating_mul(cfg.frames_per_shard_round),
            z: match cfg.stop_rule {
                StopRule::FixedBudget { .. } => 0.0,
                StopRule::RelativeWidth { confidence, .. } => {
                    normal_quantile(0.5 + confidence / 2.0)
                }
            },
            observed: observe.is_some(),
        };

        // A round never schedules more jobs per point than there are
        // workers, so the first round's job count is the concurrency the
        // whole curve can ever expose (later adaptive rounds grow in frames
        // per job, not in jobs) — the pool sizes itself from it.
        let mut initial = Vec::new();
        for (point, state) in states.iter_mut().enumerate() {
            initial.extend(schedule_round(&ctx, state, point));
        }
        let (clock, mut obs) = observe.unzip();
        let mut pool_obs = PoolObs::new();
        let mut run = WorkPool::new(cfg.workers).run();
        if let Some(clock) = clock {
            run = run.observed(clock, &mut pool_obs);
        }
        run.jobs(initial, |id, outcome, sink| {
            let JobOutcome::Done((rngs, acc, reg)) = outcome else {
                unreachable!("engine jobs carry no cancel token")
            };
            if let (Some(obs), Some(reg)) = (obs.as_deref_mut(), reg) {
                obs.merge(&reg);
            }
            let point = id / shards;
            let state = &mut states[point];
            for (shard, rng) in rngs {
                state.rngs[shard] = Some(rng);
            }
            state.total.merge(&acc);
            state.in_flight -= 1;
            if state.in_flight == 0 {
                sink.submit_all(schedule_round(&ctx, state, point));
            }
        });
        if let Some(obs) = obs {
            pool_obs.record_into(obs, "pool", Class::Execution);
            obs.incr(Class::Count, "engine.points", ebn0_dbs.len() as u64);
            for (i, state) in states.iter().enumerate() {
                record_point_obs(obs, i, state, cfg, ctx.z);
            }
        }

        states
            .iter()
            .zip(ebn0_dbs)
            .map(|(state, &ebn0_db)| finish_point(ebn0_db, &state.total))
            .collect()
    }
}

/// Emits the per-point `engine.p{i}.*` Count metrics: frames, bit/frame
/// errors, decoder iterations, scheduling rounds and whether the stop rule
/// ended the point before its frame budget.  Adaptive runs
/// additionally report `adaptive_rounds`, `frames_saved_vs_budget` (the
/// unspent part of the per-point cap) and `ci_half_width_ppm` (the final
/// Wilson *relative* half-width in parts per million, so `200_000`
/// corresponds to a 20% target).  All of these are pure functions of the
/// merged counters, so they inherit the engine's worker-count determinism.
fn record_point_obs(
    obs: &mut Registry,
    point: usize,
    state: &PointState,
    cfg: &EngineConfig,
    z: f64,
) {
    let c = &state.total.counter;
    obs.incr(Class::Count, &format!("engine.p{point}.frames"), c.frames());
    obs.incr(
        Class::Count,
        &format!("engine.p{point}.bit_errors"),
        c.bit_errors(),
    );
    obs.incr(
        Class::Count,
        &format!("engine.p{point}.frame_errors"),
        c.frame_errors(),
    );
    obs.incr(
        Class::Count,
        &format!("engine.p{point}.iterations"),
        state.total.iterations,
    );
    obs.incr(
        Class::Count,
        &format!("engine.p{point}.rounds"),
        state.rounds,
    );
    let budget = cfg.stop_rule.max_frames();
    if c.frames() < budget {
        obs.incr(Class::Count, &format!("engine.p{point}.early_stop"), 1);
    }
    if cfg.stop_rule.is_adaptive() {
        obs.incr(
            Class::Count,
            &format!("engine.p{point}.adaptive_rounds"),
            state.rounds,
        );
        obs.incr(
            Class::Count,
            &format!("engine.p{point}.frames_saved_vs_budget"),
            budget.saturating_sub(c.frames()),
        );
        let rhw = wilson_interval(c.frame_errors(), c.frames(), z).relative_half_width();
        obs.incr(
            Class::Count,
            &format!("engine.p{point}.ci_half_width_ppm"),
            (rhw * 1e6).round() as u64,
        );
    }
}

/// The result of one point-round job: the RNG streams of the shards it
/// claimed, handed back for the next round, the counts of the frames it
/// simulated, and — on observed runs only — its private metric registry
/// (`None` keeps the plain path free of it).
type JobResult = (
    Vec<(usize, StdRng)>,
    PointAccumulator,
    Option<Box<Registry>>,
);

/// One shard's part of a round: the shard's index, its frames this round
/// and its RNG stream.
type ShardWork = (usize, u64, StdRng);

/// The shards of a point-round that no job has claimed yet.
type Claims = Mutex<std::vec::IntoIter<ShardWork>>;

/// Mutable per-point scheduling state, owned by the pool's calling thread.
struct PointState {
    /// Per-shard RNG streams; `None` while a shard's job is in flight.
    rngs: Vec<Option<StdRng>>,
    total: PointAccumulator,
    /// Jobs of the point's current round still in the pool.
    in_flight: usize,
    /// Scheduling rounds submitted for this point (a pure function of the
    /// configuration and the merged counters, so worker-count independent).
    rounds: u64,
}

/// The shared immutable context point-round jobs capture.
struct CurveCtx<'env> {
    codec: &'env dyn FecCodec,
    channels: &'env [AwgnChannel],
    modulator: &'env BpskModulator,
    cfg: &'env EngineConfig,
    /// Jobs per point-round.
    workers: usize,
    round_quota: u64,
    /// Normal quantile matching the adaptive confidence level (unused in
    /// fixed-budget mode).  Derived from the configuration alone.
    z: f64,
    /// Whether jobs should fill a private metric registry.
    observed: bool,
}

/// Largest adaptive round, as a multiple of the configured round quota.
/// Growth rounds are capped so the scheduler re-projects from fresh merged
/// counts instead of committing the whole remaining budget to a projection
/// made from an early, noisy estimate.
const ADAPTIVE_ROUND_GROWTH: u64 = 4;

/// Frames `point` should be granted in its next round — `0` once its
/// stopping rule fires and the point releases its budget.  A pure function
/// of the merged counter and the configuration: no clocks, no completion
/// order, no worker count.
fn next_round_frames(ctx: &CurveCtx<'_>, counter: &ErrorCounter) -> u64 {
    let base = ctx.round_quota.max(1);
    let frames = counter.frames();
    match ctx.cfg.stop_rule {
        StopRule::FixedBudget { frames: budget } => budget.saturating_sub(frames).min(base),
        StopRule::RelativeWidth {
            target_rel_width,
            max_frames,
            ..
        } => {
            if frames >= max_frames {
                return 0;
            }
            let rhw = wilson_interval(counter.frame_errors(), frames, ctx.z).relative_half_width();
            let min_frames = EngineConfig::ADAPTIVE_MIN_FRAMES.min(max_frames);
            if frames >= min_frames && rhw <= target_rel_width {
                return 0;
            }
            let remaining = max_frames - frames;
            if frames == 0 {
                return base.min(remaining);
            }
            // The relative half-width shrinks roughly as 1/sqrt(n) at a
            // fixed error rate, so project the total frames needed and ask
            // for the difference — clamped below to one full round (tiny
            // top-ups would strand shards idle) and above to a growth
            // limit (re-steer from fresher counts before committing more).
            let ratio = rhw / target_rel_width;
            let projected_total = (frames as f64 * ratio * ratio).ceil();
            let needed_f = (projected_total - frames as f64).max(0.0);
            let ceiling = base.saturating_mul(ADAPTIVE_ROUND_GROWTH);
            let needed = if needed_f >= ceiling as f64 {
                ceiling
            } else {
                needed_f as u64
            };
            needed.max(base).min(remaining)
        }
    }
}

/// Builds the jobs of `point`'s next scheduling round — none once its
/// stopping rule fires.  The round's frames are split over the point's
/// shard streams; one job per worker (fewer if fewer shards have frames)
/// claims those shards one at a time and streams their frames through one
/// [`FecCodec::decode_frames`] call.  Round sizes are a pure function of the
/// configuration and the merged counters, never of the worker count.
fn schedule_round<'env>(
    ctx: &CurveCtx<'env>,
    state: &mut PointState,
    point: usize,
) -> Vec<Job<'env, JobResult>> {
    let round = next_round_frames(ctx, &state.total.counter);
    let shards = state.rngs.len();
    let work: Vec<ShardWork> = split_round(round, shards)
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .map(|(shard, n)| {
            let rng = state.rngs[shard].take().expect("shard RNG checked back in");
            (shard, n, rng)
        })
        .collect();
    let count = ctx.workers.min(work.len());
    let lanes = ctx
        .cfg
        .batch_frames
        .min(usize::try_from(round).unwrap_or(usize::MAX));
    let claims = Arc::new(Claims::new(work.into_iter()));
    let (codec, channel, modulator) = (ctx.codec, &ctx.channels[point], ctx.modulator);
    let observed = ctx.observed;
    let jobs: Vec<_> = (0..count)
        .map(|job| {
            let claims = Arc::clone(&claims);
            // Job ids stay below `shards` per point: `workers <= shards`.
            Job::new(point * shards + job, move || {
                let mut stream = RoundStream {
                    codec,
                    channel,
                    modulator,
                    claims: &claims,
                    lanes,
                    shard: None,
                    spent: Vec::new(),
                    infos: Vec::new(),
                    free: Vec::new(),
                    acc: PointAccumulator::default(),
                    obs: observed.then(Registry::new),
                };
                let mut reg = observed.then(|| Box::new(Registry::new()));
                codec.decode_frames(&mut stream, reg.as_deref_mut());
                stream.finish(reg)
            })
        })
        .collect();
    state.in_flight = jobs.len();
    state.rounds += u64::from(!jobs.is_empty());
    jobs
}

/// Folds a point's merged accumulator into the reported [`BerPoint`].
fn finish_point(ebn0_db: f64, total: &PointAccumulator) -> BerPoint {
    let frames = total.counter.frames();
    BerPoint {
        ebn0_db,
        ber: total.counter.ber(),
        fer: total.counter.fer(),
        average_iterations: if frames == 0 {
            0.0
        } else {
            total.iterations as f64 / frames as f64
        },
        frames,
        bit_errors: total.counter.bit_errors(),
        frame_errors: total.counter.frame_errors(),
    }
}

/// The frames of one job: the shards it claims from its point-round, one
/// at a time, each simulated frame by frame from its own RNG stream when the
/// codec pulls a frame.  Every decision is counted into the job's
/// accumulator (and, when observing, the `codec.*` family into `obs`).
///
/// Only the frames in flight are held: their information bits, one vector
/// per tag, reused once the frame is decided.
struct RoundStream<'a> {
    codec: &'a dyn FecCodec,
    channel: &'a AwgnChannel,
    modulator: &'a BpskModulator,
    claims: &'a Claims,
    lanes: usize,
    /// The shard being drawn from, with its frames still to simulate.
    shard: Option<ShardWork>,
    /// The claimed shards whose frames have all been drawn.
    spent: Vec<(usize, StdRng)>,
    /// Information bits by frame tag.
    infos: Vec<Vec<u8>>,
    /// The tags not in flight.
    free: Vec<usize>,
    acc: PointAccumulator,
    obs: Option<Registry>,
}

impl RoundStream<'_> {
    /// Makes sure the current shard has a frame left, claiming the next
    /// shard of the round while it has not; `false` once the round is dry.
    fn claim(&mut self) -> bool {
        loop {
            match self.shard.take() {
                Some(work) if work.1 > 0 => {
                    self.shard = Some(work);
                    return true;
                }
                Some((shard, _, rng)) => self.spent.push((shard, rng)),
                None => {}
            }
            match self
                .claims
                .lock()
                .expect("no job panics holding the claims")
                .next()
            {
                Some(work) => self.shard = Some(work),
                None => return false,
            }
        }
    }

    /// The job's result, once the codec has drained the stream.
    fn finish(mut self, mut reg: Option<Box<Registry>>) -> JobResult {
        assert!(!self.claim(), "the codec pulls every frame of its stream");
        assert_eq!(
            self.free.len(),
            self.infos.len(),
            "the codec decides every frame it pulls"
        );
        if let (Some(reg), Some(obs)) = (reg.as_deref_mut(), &self.obs) {
            reg.merge(obs);
        }
        (self.spent, self.acc, reg)
    }
}

impl FrameStream for RoundStream<'_> {
    fn max_in_flight(&self) -> usize {
        self.lanes
    }

    fn next_frame(&mut self, llrs: &mut [Llr]) -> Option<usize> {
        if !self.claim() {
            return None;
        }
        let frame = self.free.pop().unwrap_or_else(|| {
            self.infos.push(Vec::new());
            self.infos.len() - 1
        });
        let (_, left, rng) = self.shard.as_mut().expect("claimed above");
        *left -= 1;
        let info = &mut self.infos[frame];
        info.clear();
        info.extend((0..self.codec.info_bits()).map(|_| rng.gen_range(0..=1u8)));
        let codeword = self.codec.encode(info);
        debug_assert_eq!(codeword.len(), self.codec.codeword_bits());
        let received = self
            .channel
            .transmit(&self.modulator.modulate(&codeword), rng);
        debug_assert_eq!(received.len(), llrs.len());
        for (llr, &y) in llrs.iter_mut().zip(&received) {
            *llr = self.channel.llr(y);
        }
        Some(frame)
    }

    fn decided(&mut self, frame: usize, info_bits: &[u8], iterations: usize, converged: bool) {
        self.acc.counter.record_frame(&self.infos[frame], info_bits);
        self.acc.iterations += iterations as u64;
        if let Some(obs) = &mut self.obs {
            obs.incr(Class::Count, "codec.frames", 1);
            obs.observe(Class::Count, "codec.iterations", iterations as u64);
            if converged {
                obs.incr(Class::Count, "codec.converged", 1);
            }
        }
        self.free.push(frame);
    }
}

/// Splits `round` frames over `shards` streams: low-index shards take the
/// remainder, so the schedule is a pure function of the configuration.
/// `shards == 0` is rejected by [`EngineConfig::validate`] before any
/// schedule is built; the assert keeps the divide-by-zero unreachable even
/// for future callers that bypass the engine.
fn split_round(round: u64, shards: usize) -> Vec<u64> {
    assert!(shards > 0, "split_round requires at least one shard");
    let base = round / shards as u64;
    let extra = (round % shards as u64) as usize;
    (0..shards).map(|i| base + u64::from(i < extra)).collect()
}

/// One SplitMix64 step (Steele et al.): used only for seed derivation, so
/// the vendored `rand` facade can stay a strict subset of the real crate.
fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the per-shard, per-point RNG seed with SplitMix64 so streams are
/// decorrelated across shards and `Eb/N0` points.
fn shard_seed(seed: u64, shard: u64, ebn0_db: f64) -> u64 {
    let mut state = seed ^ ebn0_db.to_bits().rotate_left(17);
    let mixed = split_mix64(&mut state);
    state = mixed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    split_mix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rate-1/2 repetition code used as a cheap, error-prone test codec.
    struct Repetition {
        k: usize,
    }

    impl FecCodec for Repetition {
        fn name(&self) -> String {
            format!("repetition-2-k{}", self.k)
        }

        fn info_bits(&self) -> usize {
            self.k
        }

        fn codeword_bits(&self) -> usize {
            2 * self.k
        }

        fn encode(&self, info: &[u8]) -> Vec<u8> {
            info.iter().chain(info).copied().collect()
        }

        fn decode_frames(&self, frames: &mut dyn FrameStream, _obs: Option<&mut Registry>) {
            decode_serially(self, frames, |llrs| {
                let bits: Vec<u8> = (0..self.k)
                    .map(|i| u8::from(llrs[i].value() + llrs[i + self.k].value() < 0.0))
                    .collect();
                (bits, 1, true)
            });
        }
    }

    /// A codec that always decodes to the complement: every frame errs.
    struct AlwaysWrong;

    impl FecCodec for AlwaysWrong {
        fn name(&self) -> String {
            "always-wrong".into()
        }

        fn info_bits(&self) -> usize {
            8
        }

        fn codeword_bits(&self) -> usize {
            8
        }

        fn encode(&self, info: &[u8]) -> Vec<u8> {
            info.to_vec()
        }

        fn decode_frames(&self, frames: &mut dyn FrameStream, _obs: Option<&mut Registry>) {
            decode_serially(self, frames, |llrs| {
                let bits: Vec<u8> = llrs.iter().map(|l| u8::from(l.value() >= 0.0)).collect();
                (bits, 1, false)
            });
        }
    }

    fn engine(workers: usize, frames: u64) -> SimulationEngine {
        SimulationEngine::new(EngineConfig {
            workers,
            shards: 8,
            frames_per_shard_round: 4,
            seed: 99,
            batch_frames: 1,
            stop_rule: StopRule::FixedBudget { frames },
        })
    }

    #[test]
    fn identical_counts_for_1_2_and_8_workers() {
        let codec = Repetition { k: 24 };
        let reference = engine(1, 300).run_point(&codec, 1.0);
        for workers in [2, 8] {
            let point = engine(workers, 300).run_point(&codec, 1.0);
            assert_eq!(point, reference, "workers = {workers}");
        }
    }

    #[test]
    fn curve_counts_are_identical_for_1_2_and_8_workers() {
        // The pooled curve schedule: every point of the curve must
        // be bit-identical at any worker count.
        let codec = Repetition { k: 24 };
        let snrs = [-1.0, 1.0, 3.0, 5.0];
        let reference = engine(1, 200).run_curve(&codec, &snrs);
        for workers in [2, 8] {
            let curve = engine(workers, 200).run_curve(&codec, &snrs);
            assert_eq!(curve, reference, "workers = {workers}");
        }
    }

    #[test]
    fn batched_counts_are_identical_for_any_worker_and_batch_size() {
        // The determinism contract extends to `batch_frames`: the RNG is
        // drawn frame by frame before decoding, so any (workers, batch)
        // combination must reproduce the serial single-frame counts.
        let codec = Repetition { k: 24 };
        let reference = engine(1, 300).run_point(&codec, 1.0);
        for workers in [1, 2, 8] {
            for batch in [1, 4, 8] {
                let eng = SimulationEngine::new(EngineConfig {
                    batch_frames: batch,
                    ..*engine(workers, 300).config()
                });
                let point = eng.run_point(&codec, 1.0);
                assert_eq!(point, reference, "workers = {workers}, batch = {batch}");
            }
        }
    }

    #[test]
    fn config_validate_rejects_zero_batch_frames() {
        let config = EngineConfig {
            batch_frames: 0,
            ..EngineConfig::default()
        };
        let err = config.validate().unwrap_err();
        assert!(err.contains("batch"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one frame per decode batch")]
    fn with_batch_frames_rejects_zero() {
        let _ = EngineConfig::default().with_batch_frames(0);
    }

    #[test]
    #[should_panic(expected = "decode batch")]
    fn engine_rejects_zero_batch_frames() {
        let _ = SimulationEngine::new(EngineConfig {
            batch_frames: 0,
            ..EngineConfig::default()
        });
    }

    #[test]
    fn config_validate_rejects_zero_shards() {
        // Regression: shards == 0 used to reach split_round's division.
        let config = EngineConfig {
            shards: 0,
            ..EngineConfig::default()
        };
        let err = config.validate().unwrap_err();
        assert!(err.contains("shard"), "{err}");
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn engine_rejects_zero_shards() {
        // A literal (builder-bypassing) config must still be caught by new().
        let _ = SimulationEngine::new(EngineConfig {
            shards: 0,
            ..EngineConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn split_round_rejects_zero_shards() {
        let _ = split_round(10, 0);
    }

    #[test]
    fn fixed_frames_simulates_exactly_that_many() {
        let codec = Repetition { k: 16 };
        let eng = SimulationEngine::new(EngineConfig::fixed_frames(123, 5));
        let point = eng.run_point(&codec, 2.0);
        assert_eq!(point.frames, 123);
    }

    #[test]
    fn early_stopping_never_undershoots_min_frames() {
        // Every frame errs, so the width target is met within a few 3-frame
        // rounds; the point must still run ADAPTIVE_MIN_FRAMES frames.
        let run = |max_frames| {
            let mut cfg = EngineConfig::adaptive(max_frames, 0.3, 0.9, 99).with_shards(3);
            cfg.frames_per_shard_round = 1; // a 3-frame base round
            SimulationEngine::new(cfg).run_point(&AlwaysWrong, 0.0)
        };
        let point = run(10_000);
        assert!(
            point.frames >= EngineConfig::ADAPTIVE_MIN_FRAMES,
            "frames = {}",
            point.frames
        );
        assert!(point.frames < 10_000, "early stopping should fire");
        assert_eq!(point.fer, 1.0);
        // A cap below the minimum is the minimum: the point runs all of it.
        assert_eq!(run(20).frames, 20);
    }

    #[test]
    fn max_frames_is_never_exceeded() {
        let codec = Repetition { k: 8 };
        let point = engine(3, 41).run_point(&codec, 1.0);
        assert_eq!(point.frames, 41);
    }

    #[test]
    fn ber_improves_with_snr() {
        let codec = Repetition { k: 32 };
        let eng = SimulationEngine::new(EngineConfig::fixed_frames(200, 11));
        let curve = eng.run_curve(&codec, &[-2.0, 6.0]);
        assert_eq!(curve.points.len(), 2);
        assert!(curve.points[0].ber > curve.points[1].ber);
        assert_eq!(curve.label, "repetition-2-k32");
    }

    #[test]
    fn curve_serializes_to_json() {
        let codec = Repetition { k: 8 };
        let eng = SimulationEngine::new(EngineConfig::fixed_frames(10, 3));
        let json = eng.run_curve(&codec, &[1.0]).to_json().to_string();
        assert!(json.contains("\"label\":\"repetition-2-k8\""), "{json}");
        assert!(json.contains("\"frames\":10"), "{json}");
    }

    #[test]
    fn split_round_distributes_remainder_low_first() {
        assert_eq!(split_round(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_round(3, 4), vec![1, 1, 1, 0]);
        assert_eq!(split_round(0, 2), vec![0, 0]);
    }

    #[test]
    fn shard_seeds_are_decorrelated() {
        let a = shard_seed(1, 0, 2.0);
        let b = shard_seed(1, 1, 2.0);
        let c = shard_seed(1, 0, 2.5);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "frames (the fixed per-point budget) must be at least 1")]
    fn engine_rejects_zero_frame_budget() {
        let _ = engine(1, 0);
    }

    #[test]
    fn observed_counts_are_identical_for_any_worker_and_batch_size() {
        // The observability contract: Count-class metrics (and the points
        // themselves) must be byte-identical at any (workers, batch)
        // combination, because shard registries merge commutatively.
        let codec = Repetition { k: 24 };
        let clock = fec_obs::ManualClock::new();
        let snrs = [0.0, 4.0];
        let mut reference_obs = Registry::new();
        let reference =
            engine(1, 200).run_curve_observed(&codec, &snrs, &clock, &mut reference_obs);
        assert_eq!(reference, engine(1, 200).run_curve(&codec, &snrs));
        let reference_counts = reference_obs.render_counts();
        assert!(reference_obs.counter("codec.frames").unwrap() >= 60);
        assert!(
            reference_counts.contains("engine.p0.frames"),
            "{reference_counts}"
        );
        assert!(
            reference_counts.contains("engine.p1.rounds"),
            "{reference_counts}"
        );
        assert!(reference_obs.get("pool.task_run_ns").is_some());
        for workers in [2, 8] {
            for batch in [1, 8] {
                let eng = SimulationEngine::new(EngineConfig {
                    batch_frames: batch,
                    ..*engine(workers, 200).config()
                });
                let mut obs = Registry::new();
                let curve = eng.run_curve_observed(&codec, &snrs, &clock, &mut obs);
                assert_eq!(curve, reference, "workers = {workers}, batch = {batch}");
                assert_eq!(
                    obs.render_counts(),
                    reference_counts,
                    "workers = {workers}, batch = {batch}"
                );
            }
        }
    }

    /// An adaptive engine tuned for cheap tests: 8 shards x 4 frames per
    /// round (base round 32), 30% width target at 90% confidence, 2000-frame
    /// per-point cap.
    fn adaptive_engine(workers: usize, batch: usize) -> SimulationEngine {
        SimulationEngine::new(
            EngineConfig::adaptive(2_000, 0.3, 0.9, 99)
                .with_shards(8)
                .with_workers(workers)
                .with_batch_frames(batch),
        )
    }

    #[test]
    fn adaptive_counts_identical_for_any_worker_and_batch_size() {
        // The tentpole contract: the adaptive schedule is a pure function of
        // the merged counts, so counts and frame totals are bit-identical at
        // any (workers, batch) combination.
        let codec = Repetition { k: 24 };
        let snrs = [0.0, 2.0];
        let reference = adaptive_engine(1, 1).run_curve(&codec, &snrs);
        for workers in [2, 8] {
            for batch in [1, 8] {
                let curve = adaptive_engine(workers, batch).run_curve(&codec, &snrs);
                assert_eq!(curve, reference, "workers = {workers}, batch = {batch}");
            }
        }
        // The noisy low-SNR point must have released its budget early...
        let p0 = &reference.points[0];
        assert!(p0.frames < 2_000, "frames = {}", p0.frames);
        assert!(p0.frame_errors > 0);
        // ...and only because it actually reached the width target.
        let z = normal_quantile(0.5 + 0.9 / 2.0);
        let rhw = wilson_interval(p0.frame_errors, p0.frames, z).relative_half_width();
        assert!(rhw <= 0.3, "stopped at relative half-width {rhw}");
    }

    #[test]
    fn adaptive_never_undershoots_min_frames() {
        // Every frame errs, so the width target is met after the first
        // 8-frame round; the point must still run ADAPTIVE_MIN_FRAMES
        // frames before stopping, at any worker count.
        for workers in [1, 2] {
            let mut cfg = EngineConfig::adaptive(10_000, 0.3, 0.9, 7)
                .with_shards(8)
                .with_workers(workers);
            cfg.frames_per_shard_round = 1; // an 8-frame base round
            let point = SimulationEngine::new(cfg).run_point(&AlwaysWrong, 0.0);
            assert!(
                point.frames >= EngineConfig::ADAPTIVE_MIN_FRAMES,
                "frames = {}",
                point.frames
            );
            assert!(point.frames < 10_000, "the width target should stop early");
            assert_eq!(point.fer, 1.0);
        }
    }

    #[test]
    fn adaptive_spends_fewer_frames_than_the_fixed_budget() {
        // Same codec, same cap: the adaptive run must finish the noisy point
        // well under the uniform budget (this is the whole point).
        let codec = Repetition { k: 24 };
        let fixed = SimulationEngine::new(EngineConfig::fixed_frames(2_000, 99).with_shards(8))
            .run_point(&codec, 0.0);
        let adaptive = adaptive_engine(0, 1).run_point(&codec, 0.0);
        assert_eq!(fixed.frames, 2_000);
        assert!(
            adaptive.frames * 2 <= fixed.frames,
            "adaptive used {} of {} frames",
            adaptive.frames,
            fixed.frames
        );
    }

    #[test]
    fn adaptive_observed_counts_and_metrics_are_deterministic() {
        let codec = Repetition { k: 24 };
        let clock = fec_obs::ManualClock::new();
        let snrs = [0.0, 2.0];
        let mut reference_obs = Registry::new();
        let reference =
            adaptive_engine(1, 1).run_curve_observed(&codec, &snrs, &clock, &mut reference_obs);
        let reference_counts = reference_obs.render_counts();
        for name in [
            "engine.p0.adaptive_rounds",
            "engine.p0.frames_saved_vs_budget",
            "engine.p0.ci_half_width_ppm",
            "engine.p1.ci_half_width_ppm",
        ] {
            assert!(reference_obs.counter(name).is_some(), "missing {name}");
        }
        // frames + saved == budget, and the reported width is under target.
        assert_eq!(
            reference_obs.counter("engine.p0.frames").unwrap()
                + reference_obs
                    .counter("engine.p0.frames_saved_vs_budget")
                    .unwrap(),
            2_000
        );
        assert!(
            reference_obs
                .counter("engine.p0.ci_half_width_ppm")
                .unwrap()
                <= 300_000
        );
        for workers in [2, 8] {
            for batch in [1, 8] {
                let mut obs = Registry::new();
                let curve = adaptive_engine(workers, batch)
                    .run_curve_observed(&codec, &snrs, &clock, &mut obs);
                assert_eq!(curve, reference, "workers = {workers}, batch = {batch}");
                assert_eq!(
                    obs.render_counts(),
                    reference_counts,
                    "workers = {workers}, batch = {batch}"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_degenerate_adaptive_configs() {
        // Degenerate width target / confidence / cap, surfaced through
        // EngineConfig::validate with field-named messages.
        let err = EngineConfig::adaptive(1_000, 1.5, 0.95, 1)
            .validate()
            .unwrap_err();
        assert!(err.contains("target_rel_width"), "{err}");
        let err = EngineConfig::adaptive(1_000, 0.2, 0.4, 1)
            .validate()
            .unwrap_err();
        assert!(err.contains("confidence"), "{err}");
        let mut cfg = EngineConfig::adaptive(1_000, 0.2, 0.95, 1);
        cfg.stop_rule = StopRule::RelativeWidth {
            target_rel_width: 0.2,
            confidence: 0.95,
            max_frames: 0,
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("max_frames"), "{err}");
        // A zero fixed budget is rejected too.
        let err = EngineConfig::fixed_frames(0, 1).validate().unwrap_err();
        assert!(err.contains("frames"), "{err}");
        assert!(EngineConfig::adaptive(1_000, 0.2, 0.95, 1)
            .validate()
            .is_ok());
    }

    #[test]
    fn fixed_budget_outputs_match_the_pre_adaptive_golden_counts() {
        // Byte-identity guard for the fixed-budget mode: these counts were
        // produced by the engine before the adaptive stop rule existed (the
        // vendored RNG makes them stable across toolchains).  If this test
        // fails, the FixedBudget scheduling path changed behaviour — which
        // breaks the CI bench_diff trajectory gates.
        let codec = Repetition { k: 24 };
        let eng = SimulationEngine::new(EngineConfig::fixed_frames(400, 2012).with_shards(8));
        let point = eng.run_point(&codec, 1.0);
        assert_eq!(point.frames, 400);
        assert_eq!(
            (point.bit_errors, point.frame_errors),
            (golden_repetition_counts().0, golden_repetition_counts().1),
            "FixedBudget counts drifted: {point:?}"
        );
    }

    /// The pre-adaptive reference counts for
    /// `Repetition { k: 24 }`, 400 frames, seed 2012, 8 shards, 1.0 dB —
    /// captured from the engine as of the commit before the adaptive stop
    /// rule landed.
    fn golden_repetition_counts() -> (u64, u64) {
        (523, 307)
    }

    #[test]
    fn effective_workers_is_capped_by_shards() {
        let eng = engine(64, 100);
        assert_eq!(eng.effective_workers(), 8);
        assert!(engine(0, 100).effective_workers() >= 1);
    }
}

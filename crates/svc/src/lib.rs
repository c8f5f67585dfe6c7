//! Decode-as-a-service: a long-running job daemon over the shared
//! deterministic work pool.
//!
//! The `fec_svc` binary accepts decode jobs as line-delimited JSON over
//! stdio or a unix socket ([`protocol`] defines the wire format), validates
//! them with the same option handling the study binaries use
//! ([`decoder_bench::cli`]), and schedules every job's work units onto ONE
//! shared [`fec_sched::WorkPool`] with per-job priorities and admission
//! control ([`Service`]).  Row-level results stream back in completion
//! order, every event is first appended to the daemon's one event log
//! ([`EVENT_LOG`]), and a client that reconnects after a disconnect can
//! `resume` from any row without duplicating or missing output.
//!
//! # Determinism
//!
//! A daemon BER job is built by [`decoder_bench::study_engine_config`] with
//! the [`decoder_bench::study_seed`] of its `(standard, decoder)` family —
//! literally the same engine assembly as a `ber_study` run with
//! the same options — and each `Eb/N0` point runs as one single-worker
//! engine unit whose RNG stream is keyed on `(seed, shard, ebn0_db)`.  A
//! job's rows are therefore byte-identical to the one-shot CLI output for
//! any daemon worker count, and a cancelled job's emitted rows are
//! byte-identical to the same rows of an uncancelled run.
//!
//! # Cancellation
//!
//! `cancel` sets the job's [`fec_sched::CancelToken`]; the pool retires the
//! job's not-yet-started units at the next queue barrier (units already
//! decoding finish and their rows are kept), and the job completes with
//! `status: "cancelled"`.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod job;
pub mod protocol;
pub mod service;

pub use job::{run_unit, run_unit_with_store, JobSpec, Unit};
pub use protocol::Request;
pub use service::{
    EventSink, Service, ServiceConfig, COMPACT_LOG_FLOOR, EVENT_LOG, KEPT_FINISHED_JOBS,
    MAX_REQUEST_LINE,
};

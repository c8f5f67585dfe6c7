//! `--metrics` support for the study binaries: flag parsing, a per-run
//! collector, and re-exports of the canonical `OBS_*.json` schema
//! ([`noc_decoder::obs_export`]).
//!
//! Every study binary accepts `--metrics <path>`: the metrics collected
//! during the run are written as an `OBS_*.json` file with one object per
//! determinism section (`counts`, `execution`, `timing_ns`) plus a
//! `derived` object of export-time ratios.  `--metrics-report` prints the
//! human-readable ASCII report ([`fec_obs::render_report`]) instead of, or
//! in addition to, the file.
//!
//! The `counts` section is the determinism-gated surface: it must be
//! byte-identical for any worker count and decode batch size.  CI's
//! `obs_check` binary validates exported files against
//! [`REQUIRED_COUNT_METRICS`] via [`check_obs_json`].

use fec_channel::sim::FecCodec;
use fec_channel::sim::{BerCurve, SimulationEngine};
use fec_obs::{Registry, WallClock};
use std::path::PathBuf;

pub use noc_decoder::obs_export::{
    check_obs_json, registry_json, OBS_SECTIONS, REQUIRED_COUNT_METRICS,
};

/// Options parsed from the shared `--metrics` / `--metrics-report` flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOptions {
    /// Where to write the `OBS_*.json` export, if requested.
    pub path: Option<PathBuf>,
    /// Whether to print the ASCII report to stdout.
    pub report: bool,
}

impl ObsOptions {
    /// `true` when the run should collect metrics at all.
    pub fn enabled(&self) -> bool {
        self.path.is_some() || self.report
    }

    /// Writes/prints the collected registry per the options: the JSON
    /// export via [`crate::results::write_json`], the ASCII report to
    /// stdout.
    pub fn emit(&self, reg: &Registry) {
        if let Some(path) = &self.path {
            crate::results::write_json(path, &registry_json(reg));
        }
        if self.report {
            println!("{}", fec_obs::render_report(reg));
        }
    }
}

/// A metric collector for the study binaries: one registry for the whole
/// run plus the audited [`WallClock`] that times the pool's spans.
#[derive(Debug, Default)]
pub struct ObsCollector {
    /// Wall clock injected into observed runs (Timing-class spans only).
    pub clock: WallClock,
    /// The metrics collected so far.
    pub registry: Registry,
}

impl ObsCollector {
    /// An empty collector with a freshly-anchored wall clock.
    pub fn new() -> Self {
        ObsCollector::default()
    }
}

/// Runs a curve observed when a collector is present, plain otherwise —
/// the one-liner the study binaries route every curve through.
pub fn run_curve_maybe_observed(
    engine: &SimulationEngine,
    codec: &dyn FecCodec,
    snrs: &[f64],
    obs: &mut Option<ObsCollector>,
) -> BerCurve {
    match obs.as_mut() {
        Some(collector) => {
            engine.run_curve_observed(codec, snrs, &collector.clock, &mut collector.registry)
        }
        None => engine.run_curve(codec, snrs),
    }
}

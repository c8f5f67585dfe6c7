//! Shared command-line/job-option parsing for the benchmark binaries and
//! the `fec-svc` daemon.
//!
//! Every binary used to carry its own copy of the
//! `--standard/--workers/--json/--metrics/--batch-frames/--adaptive`
//! extraction loops; they live here once, so the CLIs and the daemon's job
//! schema validate options identically.  Each `*_from_args` parser removes
//! its flags from the raw argument list and returns the remaining
//! arguments in order, so binaries can chain the parsers and then consume
//! their own positional/extra flags; [`CommonFlags::parse`] runs the whole
//! chain in the canonical order.  A malformed flag is an `Err` naming it,
//! which the binaries report through [`exit_with_usage`].
//!
//! The study RNG seeds ([`study_seed`]) and the engine assembly
//! ([`study_engine_config`]) also live here: a daemon BER job and a
//! `ber_study` run built from the same options are byte-identical because
//! they are literally the same configuration.

use code_tables::{DecoderKind, Standard};
use fec_channel::sim::EngineConfig;
use std::path::PathBuf;

use crate::obs::ObsOptions;

/// Prints `message` and `usage` to stderr and exits with status 2: how the
/// study binaries answer a bad flag or value, never with a panic.
pub fn exit_with_usage(binary: &str, message: &str, usage: &str) -> ! {
    eprintln!("{binary}: {message}\n{usage}");
    std::process::exit(2)
}

/// The value following `flag`, or an error naming what it requires.
fn value_of(
    flag: &str,
    what: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} requires {what}"))
}

/// The value following `flag`, parsed, or an error naming the flag.
fn parsed_value_of<T: std::str::FromStr>(
    flag: &str,
    what: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let value = value_of(flag, what, args)?;
    value
        .parse()
        .map_err(|_| format!("{flag} takes {what}, not {value:?}"))
}

/// Extracts a `--json <path>` flag from a raw argument list, returning the
/// path (if present) and the remaining arguments in order.
///
/// # Errors
///
/// `--json` without a following path.
pub fn json_flag_from_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(Option<PathBuf>, Vec<String>), String> {
    let mut path = None;
    let mut rest = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--json" {
            path = Some(PathBuf::from(value_of(&arg, "a file path", &mut args)?));
        } else {
            rest.push(arg);
        }
    }
    Ok((path, rest))
}

/// Extracts a `--standard <name>` flag from a raw argument list, returning
/// the parsed standard (if present) and the remaining arguments in order —
/// the shared parser behind every binary's `--standard` support.
///
/// # Errors
///
/// `--standard` without a name or with an unknown one.
pub fn standard_flag_from_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(Option<Standard>, Vec<String>), String> {
    let mut standard = None;
    let mut rest = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--standard" {
            let value = value_of(&arg, "a name", &mut args)?;
            standard = Some(value.parse().map_err(|e| format!("{e}"))?);
        } else {
            rest.push(arg);
        }
    }
    Ok((standard, rest))
}

/// Extracts a `--workers <n>` flag from a raw argument list, returning the
/// worker count (`0` = one per core, also the default when the flag is
/// absent) and the remaining arguments in order — the shared parser behind
/// every binary's work-pool `--workers` support.
///
/// # Errors
///
/// `--workers` without a count, with a non-integer, or above
/// [`fec_sched::MAX_WORKERS`].
pub fn workers_flag_from_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(usize, Vec<String>), String> {
    let mut workers = 0usize;
    let mut rest = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--workers" {
            workers = parsed_value_of(&arg, "a thread count", &mut args)?;
            if workers > fec_sched::MAX_WORKERS {
                return Err(format!(
                    "--workers must be at most {}, not {workers}",
                    fec_sched::MAX_WORKERS
                ));
            }
        } else {
            rest.push(arg);
        }
    }
    Ok((workers, rest))
}

/// Extracts a `--batch-frames <n>` flag from a raw argument list, returning
/// the decode batch size (default `1`: the classic one-frame-at-a-time loop,
/// byte-for-byte identical output) and the remaining arguments in order —
/// the shared parser behind every binary's batched-decode support.
///
/// # Errors
///
/// `--batch-frames` without a count, with a non-integer, or with `0` (a
/// batch must hold at least one frame).
pub fn batch_frames_flag_from_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(usize, Vec<String>), String> {
    let mut batch = 1usize;
    let mut rest = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--batch-frames" {
            batch = parsed_value_of(&arg, "a frame count", &mut args)?;
            if batch == 0 {
                return Err("--batch-frames must be at least 1".to_string());
            }
        } else {
            rest.push(arg);
        }
    }
    Ok((batch, rest))
}

/// Adaptive stop-rule settings parsed from the command line: the study
/// runs each curve point until the Wilson relative half-width of its FER
/// estimate reaches `target_rel_width` at the two-sided `confidence` level
/// (the per-point frame argument becomes the hard cap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveFlags {
    /// Target relative half-width of the FER confidence interval, in (0, 1).
    pub target_rel_width: f64,
    /// Two-sided confidence level of the interval, in (0.5, 1).
    pub confidence: f64,
}

impl Default for AdaptiveFlags {
    fn default() -> Self {
        AdaptiveFlags {
            target_rel_width: 0.2,
            confidence: 0.95,
        }
    }
}

/// Extracts the adaptive Monte-Carlo flags from a raw argument list:
/// `--adaptive` switches the engine to the confidence-targeted stop rule,
/// `--target-rel-width <f>` (default 0.2) and `--confidence <f>` (default
/// 0.95) tune it (each implies `--adaptive`).  Returns `None` and the
/// remaining arguments when no adaptive flag is present — the shared parser
/// behind every binary's adaptive-mode support.
///
/// # Errors
///
/// `--target-rel-width` / `--confidence` without a value or with a
/// non-number.  (Range validation happens in `EngineConfig::validate`,
/// which names the offending field.)
pub fn adaptive_flags_from_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(Option<AdaptiveFlags>, Vec<String>), String> {
    let mut adaptive = None;
    let mut rest = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--adaptive" => {
                adaptive.get_or_insert_with(AdaptiveFlags::default);
            }
            "--target-rel-width" => {
                let width = parsed_value_of(&arg, "a fraction", &mut args)?;
                adaptive
                    .get_or_insert_with(AdaptiveFlags::default)
                    .target_rel_width = width;
            }
            "--confidence" => {
                let level = parsed_value_of(&arg, "a level", &mut args)?;
                adaptive
                    .get_or_insert_with(AdaptiveFlags::default)
                    .confidence = level;
            }
            _ => rest.push(arg),
        }
    }
    Ok((adaptive, rest))
}

/// Extracts the `--metrics <path>` and `--metrics-report` flags from a raw
/// argument list, returning the parsed options and the remaining arguments
/// in order — the shared parser behind every binary's observability
/// support.
///
/// # Errors
///
/// `--metrics` without a following path.
pub fn metrics_flags_from_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(ObsOptions, Vec<String>), String> {
    let mut opts = ObsOptions::default();
    let mut rest = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics" => {
                opts.path = Some(PathBuf::from(value_of(&arg, "a file path", &mut args)?));
            }
            "--metrics-report" => opts.report = true,
            _ => rest.push(arg),
        }
    }
    Ok((opts, rest))
}

/// The flag set shared by the study binaries and the daemon job schema,
/// parsed in the canonical order by [`CommonFlags::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct CommonFlags {
    /// `--json <path>`: machine-readable result output.
    pub json: Option<PathBuf>,
    /// `--metrics <path>` / `--metrics-report`: observability export.
    pub metrics: ObsOptions,
    /// `--standard <name>`, if given.
    pub standard: Option<Standard>,
    /// `--workers <n>` (default 0 = one per core).
    pub workers: usize,
    /// `--batch-frames <n>` (default 1).
    pub batch_frames: usize,
    /// `--adaptive` / `--target-rel-width` / `--confidence`, if given.
    pub adaptive: Option<AdaptiveFlags>,
    /// Everything the shared parsers did not consume, in order.
    pub rest: Vec<String>,
}

impl CommonFlags {
    /// Runs the shared parser chain (`--json`, `--metrics`, `--standard`,
    /// `--workers`, `--batch-frames`, adaptive flags) over `args`; the
    /// caller consumes `rest` for its own positionals and extra flags.
    ///
    /// # Errors
    ///
    /// The individual parsers' messages on malformed flags.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (json, rest) = json_flag_from_args(args)?;
        let (metrics, rest) = metrics_flags_from_args(rest.into_iter())?;
        let (standard, rest) = standard_flag_from_args(rest.into_iter())?;
        let (workers, rest) = workers_flag_from_args(rest.into_iter())?;
        let (batch_frames, rest) = batch_frames_flag_from_args(rest.into_iter())?;
        let (adaptive, rest) = adaptive_flags_from_args(rest.into_iter())?;
        Ok(CommonFlags {
            json,
            metrics,
            standard,
            workers,
            batch_frames,
            adaptive,
            rest,
        })
    }
}

/// The fixed per-study RNG seed used by `ber_study` and the daemon's BER
/// jobs: one seed per standard, and on WiMAX one for the LDPC decoders and
/// one for the CTC.  Fixed seeds keep the CI trajectory byte-identical and
/// let a daemon job reproduce the exact one-shot CLI output.
pub fn study_seed(standard: Standard, decoder: DecoderKind) -> u64 {
    match (standard, decoder) {
        (Standard::Wimax, DecoderKind::Turbo | DecoderKind::Ctc(_)) => 13,
        (Standard::Wimax, _) => 11,
        (Standard::Wifi80211n, _) => 17,
        (Standard::Lte, _) => 19,
        (Standard::Wran80222, _) => 23,
        (Standard::DvbRcs, _) => 29,
    }
}

/// Assembles the engine configuration for one study curve family from the
/// shared options: fixed frame budget or adaptive stop rule, pool workers
/// and decode batch size.  `ber_study` and the daemon both route through
/// this, so their engines — and therefore their outputs — are identical
/// given identical options.
pub fn study_engine_config(
    frames: u64,
    workers: usize,
    batch_frames: usize,
    adaptive: Option<AdaptiveFlags>,
    seed: u64,
) -> EngineConfig {
    let cfg = match adaptive {
        None => EngineConfig::fixed_frames(frames, seed),
        Some(a) => EngineConfig::adaptive(frames, a.target_rel_width, a.confidence, seed),
    };
    cfg.with_workers(workers).with_batch_frames(batch_frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_flag_is_extracted_anywhere() {
        let (path, rest) = json_flag_from_args(
            ["--quick", "--json", "out/x.json", "60"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert_eq!(path.unwrap(), PathBuf::from("out/x.json"));
        assert_eq!(rest, vec!["--quick".to_string(), "60".to_string()]);
    }

    #[test]
    fn standard_flag_is_extracted_anywhere() {
        let (standard, rest) = standard_flag_from_args(
            ["--quick", "--standard", "80211n", "60"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert_eq!(standard, Some(Standard::Wifi80211n));
        assert_eq!(rest, vec!["--quick".to_string(), "60".to_string()]);
        let (standard, rest) =
            standard_flag_from_args(["60"].map(String::from).into_iter()).unwrap();
        assert_eq!(standard, None);
        assert_eq!(rest, vec!["60".to_string()]);
    }

    #[test]
    fn workers_flag_is_extracted_anywhere_and_defaults_to_per_core() {
        let (workers, rest) = workers_flag_from_args(
            ["--quick", "--workers", "8", "60"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert_eq!(workers, 8);
        assert_eq!(rest, vec!["--quick".to_string(), "60".to_string()]);
        let (workers, rest) = workers_flag_from_args(["60"].map(String::from).into_iter()).unwrap();
        assert_eq!(workers, 0);
        assert_eq!(rest, vec!["60".to_string()]);
    }

    #[test]
    fn dangling_workers_flag_is_an_error() {
        let err = workers_flag_from_args(["--workers"].map(String::from).into_iter()).unwrap_err();
        assert!(err.contains("--workers requires"), "{err}");
        let err =
            workers_flag_from_args(["--workers", "x"].map(String::from).into_iter()).unwrap_err();
        assert_eq!(err, "--workers takes a thread count, not \"x\"");
    }

    #[test]
    fn workers_flag_is_bounded() {
        let workers = |count: usize| {
            workers_flag_from_args(["--workers".to_string(), count.to_string()].into_iter())
        };
        assert_eq!(
            workers(fec_sched::MAX_WORKERS).unwrap().0,
            fec_sched::MAX_WORKERS
        );
        for count in [fec_sched::MAX_WORKERS + 1, usize::MAX] {
            let err = workers(count).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "--workers must be at most {}, not {count}",
                    fec_sched::MAX_WORKERS
                )
            );
        }
    }

    #[test]
    fn adaptive_flags_are_extracted_anywhere_with_defaults() {
        let (adaptive, rest) = adaptive_flags_from_args(
            ["--quick", "--adaptive", "60"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert_eq!(adaptive, Some(AdaptiveFlags::default()));
        assert_eq!(rest, vec!["--quick".to_string(), "60".to_string()]);

        // Tuning flags imply --adaptive on their own.
        let (adaptive, rest) = adaptive_flags_from_args(
            ["--target-rel-width", "0.1", "--confidence", "0.99", "60"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        let adaptive = adaptive.unwrap();
        assert_eq!(adaptive.target_rel_width, 0.1);
        assert_eq!(adaptive.confidence, 0.99);
        assert_eq!(rest, vec!["60".to_string()]);

        let (adaptive, rest) =
            adaptive_flags_from_args(["60"].map(String::from).into_iter()).unwrap();
        assert_eq!(adaptive, None);
        assert_eq!(rest, vec!["60".to_string()]);
    }

    #[test]
    fn dangling_target_rel_width_flag_is_an_error() {
        let err = adaptive_flags_from_args(["--target-rel-width"].map(String::from).into_iter())
            .unwrap_err();
        assert!(err.contains("--target-rel-width requires"), "{err}");
    }

    #[test]
    fn batch_frames_flag_is_extracted_anywhere_and_defaults_to_one() {
        let (batch, rest) = batch_frames_flag_from_args(
            ["--quick", "--batch-frames", "8", "60"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert_eq!(batch, 8);
        assert_eq!(rest, vec!["--quick".to_string(), "60".to_string()]);
        let (batch, rest) =
            batch_frames_flag_from_args(["60"].map(String::from).into_iter()).unwrap();
        assert_eq!(batch, 1);
        assert_eq!(rest, vec!["60".to_string()]);
    }

    #[test]
    fn dangling_batch_frames_flag_is_an_error() {
        let err = batch_frames_flag_from_args(["--batch-frames"].map(String::from).into_iter())
            .unwrap_err();
        assert!(err.contains("--batch-frames requires"), "{err}");
    }

    #[test]
    fn zero_batch_frames_is_an_error() {
        let err =
            batch_frames_flag_from_args(["--batch-frames", "0"].map(String::from).into_iter())
                .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn dangling_standard_flag_is_an_error() {
        let err =
            standard_flag_from_args(["--standard"].map(String::from).into_iter()).unwrap_err();
        assert!(err.contains("--standard requires"), "{err}");
    }

    #[test]
    fn unknown_standard_is_an_error() {
        let err = standard_flag_from_args(["--standard", "gsm"].map(String::from).into_iter())
            .unwrap_err();
        assert!(err.contains("unknown standard"), "{err}");
    }

    #[test]
    fn missing_flag_returns_none() {
        let (path, rest) = json_flag_from_args(["abc"].map(String::from).into_iter()).unwrap();
        assert!(path.is_none());
        assert_eq!(rest, vec!["abc".to_string()]);
    }

    #[test]
    fn dangling_json_flag_is_an_error() {
        let err = json_flag_from_args(["--json"].map(String::from).into_iter()).unwrap_err();
        assert!(err.contains("--json requires"), "{err}");
    }

    #[test]
    fn metrics_flags_are_extracted_anywhere() {
        let (opts, rest) = metrics_flags_from_args(
            ["--quick", "--metrics", "OBS.json", "--metrics-report", "60"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert_eq!(opts.path.as_deref(), Some(std::path::Path::new("OBS.json")));
        assert!(opts.report);
        assert!(opts.enabled());
        assert_eq!(rest, vec!["--quick".to_string(), "60".to_string()]);
        let (opts, _) = metrics_flags_from_args(["60"].map(String::from).into_iter()).unwrap();
        assert!(!opts.enabled());
    }

    #[test]
    fn dangling_metrics_flag_is_an_error() {
        let err = metrics_flags_from_args(["--metrics"].map(String::from).into_iter()).unwrap_err();
        assert!(err.contains("--metrics requires"), "{err}");
    }

    #[test]
    fn common_flags_chain_all_shared_parsers() {
        let flags = CommonFlags::parse(
            [
                "--standard",
                "wimax",
                "--workers",
                "4",
                "--batch-frames",
                "8",
                "--json",
                "out.json",
                "--adaptive",
                "--quantized",
                "40",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(flags.standard, Some(Standard::Wimax));
        assert_eq!(flags.workers, 4);
        assert_eq!(flags.batch_frames, 8);
        assert_eq!(
            flags.json.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        assert_eq!(flags.adaptive, Some(AdaptiveFlags::default()));
        assert!(!flags.metrics.enabled());
        assert_eq!(
            flags.rest,
            vec!["--quantized".to_string(), "40".to_string()]
        );
    }

    #[test]
    fn common_flags_defaults_match_the_individual_parsers() {
        let flags = CommonFlags::parse(std::iter::empty()).unwrap();
        assert_eq!(flags.standard, None);
        assert_eq!(flags.workers, 0);
        assert_eq!(flags.batch_frames, 1);
        assert_eq!(flags.json, None);
        assert_eq!(flags.adaptive, None);
        assert!(flags.rest.is_empty());
    }

    #[test]
    fn study_seeds_are_the_documented_per_family_constants() {
        let q7 = DecoderKind::Quantized { lambda_bits: 7 };
        let ctc = DecoderKind::Ctc(wimax_turbo::ExtrinsicExchange::BitLevel);
        for ldpc in [DecoderKind::Layered, DecoderKind::Flooding, q7] {
            assert_eq!(study_seed(Standard::Wimax, ldpc), 11);
            assert_eq!(study_seed(Standard::Wifi80211n, ldpc), 17);
            assert_eq!(study_seed(Standard::Wran80222, ldpc), 23);
        }
        assert_eq!(study_seed(Standard::Wimax, ctc), 13);
        assert_eq!(study_seed(Standard::Lte, DecoderKind::Turbo), 19);
        assert_eq!(study_seed(Standard::DvbRcs, ctc), 29);
    }

    #[test]
    fn study_engine_config_selects_the_stop_rule() {
        let fixed = study_engine_config(60, 2, 4, None, 11);
        assert!(fixed.validate().is_ok());
        let adaptive = study_engine_config(
            60,
            0,
            1,
            Some(AdaptiveFlags {
                target_rel_width: 0.1,
                confidence: 0.99,
            }),
            11,
        );
        assert!(adaptive.validate().is_ok());
        assert_ne!(fixed, adaptive);
    }
}

//! `perfbench`: the end-to-end benchmark of the decoder workspace.
//!
//! Usage (normally through `perfbench/run.sh`, which builds the daemon):
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --daemon <path to fec_svc> --out <scratch dir>
//! perfbench --print-golden
//! ```
//!
//! Workloads: `ldpc_waterfall`, `ldpc_high_snr`, `svc_mixed`.  With
//! `--trace 0` the run reports the end-to-end metrics declared in
//! `BENCHMARK.json`; with `--trace 1` it reports the per-layer metrics: the
//! named workload's own layers for `--seconds`, plus short probes for the
//! layers only the other workloads exercise.  Every output is checked; the
//! last stdout line is the JSON result, and the exit code is non-zero when
//! any check failed.  A results file with the run environment is written
//! under `--out`.

mod curve;
mod env;
mod probes;
mod report;
mod spec;
mod stats;
mod svc;

use curve::{HIGH_SNR, WATERFALL};
use fec_json::Json;
use report::Report;
use std::path::PathBuf;

/// Seconds each secondary workload runs in a traced run.
const PROBE_SECONDS: f64 = 3.0;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    out: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut out = None;
    while let Some(flag) = args.next() {
        if flag == "--print-golden" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--daemon" => daemon = Some(PathBuf::from(&value)),
            "--out" => out = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        daemon: daemon.ok_or("--daemon is required")?,
        out: out.ok_or("--out is required")?,
    }))
}

/// The untraced run of the named workload.
fn measure(args: &Args) -> Result<Report, String> {
    let seconds = args.seconds as f64;
    match args.workload.as_str() {
        "ldpc_waterfall" => Ok(curve::run(&WATERFALL, args.seed, seconds)),
        "ldpc_high_snr" => Ok(curve::run(&HIGH_SNR, args.seed, seconds)),
        "svc_mixed" => svc::run(&args.daemon, &args.out, args.seed, seconds),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The traced run: the named workload's layers for the full time, then
/// short probes for the layers it does not exercise (its own values win).
fn measure_traced(args: &Args) -> Result<Report, String> {
    let seconds = args.seconds as f64;
    let seed = args.seed;
    let svc_probe = || svc::run(&args.daemon, &args.out, seed, PROBE_SECONDS);
    let mut report = match args.workload.as_str() {
        "ldpc_waterfall" => {
            let mut r = curve::run_traced(&WATERFALL, seed, seconds);
            r.absorb("svc_mixed", svc_probe()?);
            r
        }
        "ldpc_high_snr" => {
            let mut r = curve::run_traced(&HIGH_SNR, seed, seconds);
            r.absorb(
                WATERFALL.name,
                curve::run_traced(&WATERFALL, seed, PROBE_SECONDS),
            );
            r.absorb("svc_mixed", svc_probe()?);
            r
        }
        "svc_mixed" => {
            let mut r = svc::run(&args.daemon, &args.out, seed, seconds)?;
            r.absorb(
                WATERFALL.name,
                curve::run_traced(&WATERFALL, seed, PROBE_SECONDS),
            );
            r
        }
        other => return Err(format!("unknown workload {other}")),
    };
    report.absorb("turbo_probe", probes::turbo(seed, PROBE_SECONDS));
    report.absorb("noc_probe", probes::noc()?);
    Ok(report)
}

fn print_golden() {
    let golden = Json::obj([
        (WATERFALL.name, curve::golden_entry(&WATERFALL)),
        (HIGH_SNR.name, curve::golden_entry(&HIGH_SNR)),
    ]);
    println!("{}", golden.to_string_pretty());
}

fn run() -> Result<bool, String> {
    let Some(args) = parse_args(std::env::args().skip(1))? else {
        print_golden();
        return Ok(true);
    };
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json in the working directory: {e}"))?;
    let spec = spec::parse(&text)?;
    if !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "workload {} is not declared in BENCHMARK.json",
            args.workload
        ));
    }
    let env = env::RunEnv::collect();
    let report = if args.trace {
        measure_traced(&args)?
    } else {
        measure(&args)?
    };

    // The reported metrics are exactly the declared ones, in their units.
    let mut metrics = Vec::new();
    for m in spec.metrics(args.trace) {
        let Some(&(value, unit)) = report.metrics.get(&m.name) else {
            return Err(format!("metric {} was not measured", m.name));
        };
        if unit != m.unit {
            return Err(format!(
                "metric {} measured in {unit}, declared in {}",
                m.name, m.unit
            ));
        }
        if !value.is_finite() {
            return Err(format!("metric {} has no finite value", m.name));
        }
        metrics.push((
            m.name.clone(),
            Json::obj([("value", Json::from(value)), ("unit", Json::str(unit))]),
        ));
    }
    let correct = report.failed == 0;
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;

    for m in spec.metrics(args.trace) {
        let (value, unit) = report.metrics[&m.name];
        println!("{:<44} {value:>14.4} {unit}", m.name);
    }
    println!(
        "failed_ratio {failed_ratio} ({} of {} checked operations failed)",
        report.failed, report.attempted
    );
    for why in &report.failures {
        eprintln!("check failed: {why}");
    }

    let results = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("environment", env.to_json()),
        ("metrics", Json::Obj(metrics.clone())),
        ("failed_ratio", Json::from(failed_ratio)),
        (
            "failures",
            Json::arr(report.failures.iter().map(|f| Json::str(f.clone()))),
        ),
        ("details", Json::Obj(report.details)),
    ]);
    let dir = args.out.join("results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, results.to_string_pretty()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results file: {}", path.display());

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> impl Iterator<Item = String> {
        args.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn command_line_arguments_parse() {
        let args = parse_args(strings(&[
            "--daemon",
            "d",
            "--out",
            "o",
            "--workload",
            "svc_mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(args.workload, "svc_mixed");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
        assert!(parse_args(strings(&["--print-golden"])).unwrap().is_none());
        assert!(parse_args(strings(&["--seed"])).is_err());
        assert!(parse_args(strings(&["--seed", "x"])).is_err());
        assert!(parse_args(strings(&["--bogus", "1"])).is_err());
        assert!(parse_args(strings(&["--seed", "1"])).is_err());
    }
}

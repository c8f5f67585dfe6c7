//! Multi-standard compliance sweep: evaluates the paper's P = 22 design
//! point on the corner subset (or, with `--full`, the complete set) of every
//! supported standard's codes — 802.16e LDPC + CTC, 802.11n LDPC, LTE
//! turbo, 802.22 WRAN LDPC and the DVB-RCS CTC — and reports the worst-case
//! throughput of each mode against each standard's own requirement.
//!
//! The per-code evaluations are sharded over the shared deterministic work
//! pool (`--workers`, default one per core; the report is bit-identical for
//! any worker count), and with `--json` the entries are *streamed* to the
//! result file as codes finish, so a full 131-code 802.16e sweep is
//! observable with `tail -f`.
//!
//! Run with `cargo run --example wimax_compliance --release [-- --full]
//! [-- --standard wimax|80211n|lte|80222|dvbrcs] [-- --workers <n>]
//! [-- --json <path>] [-- --metrics <path>] [-- --metrics-report]`.
//!
//! `--metrics` exports the sweep's observability registry (`compliance.*`
//! counters, `pool.*` spans) as an `OBS_*.json` file in the canonical
//! schema ([`noc_decoder::obs_export`]); `--metrics-report` prints the
//! ASCII report.

use decoder_bench::{
    exit_with_usage, json_flag_from_args, metrics_flags_from_args, standard_flag_from_args,
    workers_flag_from_args, ObsCollector,
};
use fec_json::{Json, StreamedRows};
use fec_obs::Clock;
use noc_decoder::{run_multi_compliance_with_store, ComplianceScope, DecoderConfig, MappingStore};

const USAGE: &str = "usage: wimax_compliance [--full] \
                     [--standard wimax|80211n|lte|80222|dvbrcs] [--workers <n>] \
                     [--json <path>] [--metrics <path>] [--metrics-report]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let parsed = json_flag_from_args(std::env::args().skip(1)).and_then(|(json_path, rest)| {
        let (metrics, rest) = metrics_flags_from_args(rest.into_iter())?;
        let (standard, rest) = standard_flag_from_args(rest.into_iter())?;
        let (workers, rest) = workers_flag_from_args(rest.into_iter())?;
        match rest.iter().find(|a| *a != "--full") {
            Some(other) => Err(format!("unrecognised argument: {other}")),
            None => Ok((json_path, metrics, standard, workers, !rest.is_empty())),
        }
    });
    let (json_path, metrics, standard, workers, full) =
        parsed.unwrap_or_else(|e| exit_with_usage("wimax_compliance", &e, USAGE));

    let scopes = match (standard, full) {
        (Some(s), true) => vec![ComplianceScope::full(s)],
        (Some(s), false) => vec![ComplianceScope::corners(s)],
        (None, true) => ComplianceScope::all_full(),
        (None, false) => ComplianceScope::all_corners(),
    };
    let config = DecoderConfig::paper_design_point();
    println!(
        "Compliance sweep at the paper design point (P = 22, D = 3 generalized Kautz), {} scope ({} workers)\n",
        if full { "full" } else { "corner" },
        if workers == 0 {
            "per-core".to_string()
        } else {
            workers.to_string()
        }
    );

    let mut stream = json_path
        .as_ref()
        .map(|path| {
            StreamedRows::create(
                path,
                "compliance",
                &[
                    ("scope", Json::str(if full { "full" } else { "corners" })),
                    (
                        "standard",
                        Json::str(standard.map_or("all".to_string(), |s| s.name().to_string())),
                    ),
                ],
            )
        })
        .transpose()?;
    let mut on_entry = |_: usize, entry: &noc_decoder::ComplianceEntry| {
        if let Some(stream) = &mut stream {
            stream.push(entry).expect("write result row");
        }
    };
    let mut obs = metrics.enabled().then(ObsCollector::new);
    let observe = obs
        .as_mut()
        .map(|c| (&c.clock as &dyn Clock, &mut c.registry));
    let report = run_multi_compliance_with_store(
        &config,
        &scopes,
        workers,
        &MappingStore::new(),
        observe,
        &mut on_entry,
    )?;
    if let Some(collector) = &obs {
        metrics.emit(&collector.registry);
    }
    if let Some(stream) = stream {
        let path = stream.path().to_path_buf();
        let rows = stream.finish()?;
        eprintln!("wrote {} ({rows} rows)", path.display());
    }

    println!(
        "{:<10} {:<26} {:>10} {:>12} {:>12} {:>10}",
        "standard", "code", "info bits", "cycles", "T [Mb/s]", "meets req"
    );
    for e in &report.entries {
        println!(
            "{:<10} {:<26} {:>10} {:>12} {:>12.2} {:>10}",
            e.standard,
            e.code,
            e.info_bits,
            e.phase_cycles,
            e.throughput_mbps,
            if e.compliant { "yes" } else { "no" }
        );
    }
    println!(
        "\nstandards covered           : {}",
        report.standards().join(", ")
    );
    println!(
        "worst-case LDPC throughput : {:.2} Mb/s",
        report.worst_ldpc_mbps
    );
    println!(
        "worst-case turbo throughput: {:.2} Mb/s",
        report.worst_turbo_mbps
    );
    if let Some(worst) = report.worst_code() {
        println!("worst code overall          : {}", worst.code);
    }
    println!(
        "all codes meet their req    : {}",
        if report.fully_compliant() {
            "yes"
        } else {
            "no (802.11n/LTE targets exceed the paper's WiMAX-sized fabric; small frames are latency-bound)"
        }
    );
    Ok(())
}

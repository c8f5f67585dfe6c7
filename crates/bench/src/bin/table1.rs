//! Regenerates Table I of the paper.
//!
//! Usage: `cargo run -p decoder-bench --bin table1 --release --
//! [--quick] [--standard wimax|80211n|lte] [--workers <n>] [--json <path>]
//! [--metrics <path>] [--metrics-report]`
//!
//! `--metrics` writes the sweep's observability registry (`dse.*` counters,
//! `pool.*` spans) as an `OBS_*.json` export; `--metrics-report` prints the
//! ASCII report.
//!
//! The 72 design points are sharded over `--workers` scoped threads (default
//! one per core; the rows are bit-identical for any worker count).  With
//! `--json`, rows are *streamed* to the result file as they finish, so
//! progress is observable with `tail -f` and an interrupted sweep leaves a
//! useful partial file.
//!
//! `--standard` selects the code the sweep evaluates: the standard's
//! worst-case LDPC code (WiMAX N = 2304 r = 1/2 — the paper's table — or
//! 802.11n N = 1944 r = 1/2), or the LTE K = 6144 turbo code.  `--quick`
//! uses the standard's smallest corner code so the sweep finishes in a few
//! seconds.

use code_tables::Standard;
use decoder_bench::{
    exit_with_usage, json_flag_from_args, metrics_flags_from_args, print_table1,
    standard_flag_from_args, table1_code, workers_flag_from_args, ObsCollector, StreamedRows,
};
use fec_json::Json;
use fec_obs::Clock;
use noc_decoder::{DecoderConfig, DesignSpaceExplorer};

const USAGE: &str = "usage: table1 [--quick] [--standard wimax|80211n|lte|80222|dvbrcs] \
                     [--workers <n>] [--json <path>] [--metrics <path>] [--metrics-report]";

fn main() {
    let parsed = json_flag_from_args(std::env::args().skip(1)).and_then(|(json_path, rest)| {
        let (metrics, rest) = metrics_flags_from_args(rest.into_iter())?;
        let (standard, rest) = standard_flag_from_args(rest.into_iter())?;
        let (workers, rest) = workers_flag_from_args(rest.into_iter())?;
        match rest.iter().find(|a| *a != "--quick") {
            Some(other) => Err(format!("unrecognised argument: {other}")),
            None => Ok((json_path, metrics, standard, workers, !rest.is_empty())),
        }
    });
    let (json_path, metrics, standard, workers, quick) =
        parsed.unwrap_or_else(|e| exit_with_usage("table1", &e, USAGE));
    let standard = standard.unwrap_or(Standard::Wimax);

    let code = table1_code(standard, quick);
    println!(
        "Running the Table I sweep on {} ({} workers)...\n",
        code.label(),
        if workers == 0 {
            "per-core".to_string()
        } else {
            workers.to_string()
        }
    );

    let mut stream = json_path.as_ref().map(|path| {
        StreamedRows::create(
            path,
            "table1",
            &[
                ("standard", Json::str(standard.name())),
                ("code", Json::str(code.label())),
            ],
        )
        .expect("create result file")
    });
    let mut finished = 0usize;
    let mut obs = metrics.enabled().then(ObsCollector::new);
    let on_row = |idx: usize, row: &noc_decoder::dse::Table1Row| {
        finished += 1;
        if let Some(stream) = &mut stream {
            stream.push(row).expect("write result row");
        }
        eprintln!(
            "  [{finished:>2}/72] point {idx:>2}: {} D={} P={} {} ({}) -> {:.2} Mb/s",
            row.topology, row.degree, row.pes, row.routing, row.architecture, row.throughput_mbps
        );
    };
    let observe = obs
        .as_mut()
        .map(|c| (&c.clock as &dyn Clock, &mut c.registry));
    let rows = DesignSpaceExplorer::new(DecoderConfig::paper_design_point())
        .table1(&code, workers, observe, on_row)
        .expect("Table I sweep evaluates");
    if let Some(collector) = &obs {
        metrics.emit(&collector.registry);
    }
    if let Some(stream) = stream {
        let path = stream.path().to_path_buf();
        let rows = stream.finish().expect("write result trailer");
        eprintln!("wrote {} ({rows} rows)", path.display());
    }

    print_table1(&rows);
    println!(
        "({} design points on {}; the paper's Table I reports the same layout for WiMAX N = 2304)",
        rows.len(),
        code.label()
    );
}

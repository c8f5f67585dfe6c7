//! Regenerates Table II of the paper: the `P = 22`, `D = 3` generalized-Kautz
//! decoder supporting all turbo and LDPC codes.
//!
//! Usage: `cargo run -p decoder-bench --bin table2 --release --
//! [--quick] [--standard wimax|80211n|lte] [--json <path>]
//! [--metrics <path>] [--metrics-report]`
//!
//! `--standard` evaluates the flexible design point on the worst-case codes
//! of another standard (802.11n LDPC N = 1944, LTE turbo K = 6144);
//! standards lacking one family borrow the WiMAX code for the missing role.
//! `--quick` uses the chosen standard's smallest corner codes instead.
//!
//! `--metrics` writes the run's observability registry (`dse.table2_*`
//! counters plus the whole-run span) as an `OBS_*.json` export;
//! `--metrics-report` prints the ASCII report.  Table II is a serial
//! 3-row evaluation, so no pool metrics appear here.

use code_tables::Standard;
use decoder_bench::{
    exit_with_usage, json_flag_from_args, metrics_flags_from_args, print_table2, rows_json,
    standard_flag_from_args, table2_codes, write_json,
};
use fec_obs::{Class, Clock, Registry, WallClock};
use noc_decoder::{DecoderConfig, DesignSpaceExplorer};

const USAGE: &str = "usage: table2 [--quick] [--standard wimax|80211n|lte|80222|dvbrcs] \
                     [--json <path>] [--metrics <path>] [--metrics-report]";

fn main() {
    let parsed = json_flag_from_args(std::env::args().skip(1)).and_then(|(json_path, rest)| {
        let (metrics, rest) = metrics_flags_from_args(rest.into_iter())?;
        let (standard, rest) = standard_flag_from_args(rest.into_iter())?;
        match rest.iter().find(|a| *a != "--quick") {
            Some(other) => Err(format!("unrecognised argument: {other}")),
            None => Ok((json_path, metrics, standard, !rest.is_empty())),
        }
    });
    let (json_path, metrics, standard, quick) =
        parsed.unwrap_or_else(|e| exit_with_usage("table2", &e, USAGE));
    let standard = standard.unwrap_or(Standard::Wimax);

    let (ldpc, turbo) = table2_codes(standard, quick);
    println!(
        "Running the Table II evaluation for {standard}: {} + {} ...\n",
        ldpc.label(),
        turbo.label()
    );
    let clock = WallClock::new();
    let t0 = clock.now_ns();
    let rows = DesignSpaceExplorer::new(DecoderConfig::paper_design_point())
        .table2(&ldpc, &turbo)
        .expect("Table II evaluates");
    // print_table2 labels columns by LDPC block length (k + m) and turbo
    // info bits (2 * couples).
    print_table2(
        &rows,
        ldpc.info_bits() + ldpc.mapping_units(),
        turbo.info_bits() / 2,
    );

    if metrics.enabled() {
        let mut reg = Registry::new();
        reg.incr(Class::Count, "dse.table2_rows", rows.len() as u64);
        // Each Table II row evaluates the design point twice: LDPC + turbo.
        reg.incr(
            Class::Count,
            "dse.table2_evaluations",
            2 * rows.len() as u64,
        );
        reg.timing("dse.table2_run_ns", clock.now_ns().saturating_sub(t0));
        metrics.emit(&reg);
    }

    if let Some(path) = json_path {
        write_json(&path, &rows_json("table2", &rows));
    }
}

//! Regenerates Table III of the paper: comparison with state-of-the-art
//! flexible turbo/LDPC decoders.  Competitor rows are quoted from the paper
//! (proprietary designs); the "This Work (measured)" rows are produced by
//! this repository's models.
//!
//! Usage: `cargo run -p decoder-bench --bin table3 --release --
//! [--json <path>]`

use decoder_bench::{
    exit_with_usage, json_flag_from_args, print_table3, rows_json, table3_rows, write_json,
};

fn main() {
    let parsed = json_flag_from_args(std::env::args().skip(1)).and_then(|(json_path, rest)| {
        match rest.first() {
            Some(other) => Err(format!("unrecognised argument: {other}")),
            None => Ok(json_path),
        }
    });
    let json_path =
        parsed.unwrap_or_else(|e| exit_with_usage("table3", &e, "usage: table3 [--json <path>]"));
    let rows = table3_rows();
    print_table3(&rows);
    println!("\nRows marked \"measured\" are regenerated by this repository;");
    println!("all other rows are quoted from the paper (see README, \"Reproducing the paper\").");
    if let Some(path) = json_path {
        write_json(&path, &rows_json("table3", &rows));
    }
}

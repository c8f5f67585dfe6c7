//! `cargo bench` target regenerating Table I (throughput/area design-space
//! exploration of the WiMAX LDPC N = 2304, r = 1/2 code).
//!
//! This is an experiment harness rather than a timing benchmark: it prints
//! the table the paper reports.  Timing micro-benchmarks live in
//! `benches/kernels.rs`.

use code_tables::DecoderKind;
use decoder_bench::print_table1;
use noc_decoder::{DesignSpaceExplorer, Standard, StandardCode};

fn main() {
    // The paper's code length; set TABLE1_N to sweep a different WiMAX length.
    let n = std::env::var("TABLE1_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2304);
    println!("== Table I reproduction (N = {n}, r = 1/2) ==\n");
    let code = StandardCode::resolve(Standard::Wimax, DecoderKind::Layered, n)
        .expect("valid WiMAX length");
    let rows = DesignSpaceExplorer::default()
        .table1(&code, 0, None, |_, _| {})
        .expect("Table I sweep evaluates");
    print_table1(&rows);
}

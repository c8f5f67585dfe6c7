//! `cargo bench` target regenerating Table II (the P = 22 WiMAX-compliant
//! flexible decoder, turbo N = 2400 couples @ 75 MHz and LDPC N = 2304
//! @ 300 MHz).

use decoder_bench::{print_table2, table2_codes};
use noc_decoder::{DesignSpaceExplorer, Standard};

fn main() {
    println!("== Table II reproduction ==\n");
    // the paper's pair: WiMAX LDPC N = 2304 and the 2400-couple CTC
    let (ldpc, turbo) = table2_codes(Standard::Wimax, false);
    let rows = DesignSpaceExplorer::default()
        .table2(&ldpc, &turbo)
        .expect("Table II evaluates");
    print_table2(&rows, 2304, 2400);

    println!("\n== Table III reproduction ==\n");
    decoder_bench::print_table3(&decoder_bench::table3_rows());
}

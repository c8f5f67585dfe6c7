//! `cargo bench` target regenerating the BER studies (algorithmic claims of
//! Sections II and IV: layered vs flooding scheduling, bit-level vs
//! symbol-level extrinsic exchange).

use code_tables::DecoderKind;
use decoder_bench::{print_curve, run_ldpc_ber, run_turbo_ber};
use wimax_turbo::ExtrinsicExchange;

fn main() {
    let frames = 40;
    let snrs = [1.0, 1.5, 2.0, 2.5];

    println!("== BER studies ({frames} frames per point) ==\n");
    print_curve(
        "WiMAX LDPC N=576 r=1/2 — layered normalized min-sum",
        &run_ldpc_ber(576, DecoderKind::Layered, &snrs, frames, 21),
    );
    print_curve(
        "WiMAX LDPC N=576 r=1/2 — two-phase (flooding) min-sum",
        &run_ldpc_ber(576, DecoderKind::Flooding, &snrs, frames, 21),
    );
    print_curve(
        "WiMAX DBTC 240 couples r=1/2 — symbol-level extrinsic exchange",
        &run_turbo_ber(240, ExtrinsicExchange::SymbolLevel, &snrs, frames, 23),
    );
    print_curve(
        "WiMAX DBTC 240 couples r=1/2 — bit-level extrinsic exchange",
        &run_turbo_ber(240, ExtrinsicExchange::BitLevel, &snrs, frames, 23),
    );
}

//! Double-binary turbo decoding example: compares symbol-level and bit-level
//! extrinsic exchange (the paper's NoC payload reduction, Section IV.B).
//!
//! Both codecs come from the `code-tables` catalogue and both curves run
//! on the unified parallel Monte-Carlo engine
//! (`fec_channel::sim::SimulationEngine`) — this example only selects the
//! two exchange modes and formats the comparison table.
//!
//! Run with `cargo run --example wimax_turbo_decode --release -- [frames]`.

use code_tables::DecoderKind;
use fec_channel::sim::{EngineConfig, SimulationEngine};
use noc_decoder::{Standard, StandardCode};
use wimax_turbo::ExtrinsicExchange::{BitLevel, SymbolLevel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let frames: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(30);

    // 240 couples: 480 information bits, rate 1/2.
    let code = StandardCode::resolve(Standard::Wimax, DecoderKind::Ctc(BitLevel), 240)?;
    let symbol = code.codec(DecoderKind::Ctc(SymbolLevel))?;
    let bit = code.codec(DecoderKind::Ctc(BitLevel))?;

    let engine = SimulationEngine::new(EngineConfig::fixed_frames(frames, 7));
    let snrs = [1.0f64, 1.5, 2.0, 2.5];
    let sym_curve = engine.run_curve(symbol.as_ref(), &snrs);
    let bit_curve = engine.run_curve(bit.as_ref(), &snrs);

    println!(
        "WiMAX DBTC, {} couples ({} info bits), rate 1/2, {frames} frames per point, {} worker threads",
        code.mapping_units(),
        code.info_bits(),
        engine.effective_workers()
    );
    println!(
        "{:>8} {:>16} {:>16}",
        "Eb/N0", "BER symbol-level", "BER bit-level"
    );
    for (s, b) in sym_curve.points.iter().zip(&bit_curve.points) {
        println!("{:>7.1}  {:>16.3e} {:>16.3e}", s.ebn0_db, s.ber, b.ber);
    }
    println!("\nBit-level exchange cuts the NoC payload per couple from 3 to 2 values");
    println!("(a ~1/3 reduction) at a small BER penalty (~0.2 dB per refs [23][24]).");
    Ok(())
}

//! BER study of the WiMAX LDPC decoders: layered normalized-min-sum versus
//! two-phase flooding, over a small Eb/N0 sweep.
//!
//! Both codecs come from the `code-tables` catalogue and both curves run
//! on the unified parallel Monte-Carlo engine
//! (`fec_channel::sim::SimulationEngine`) — this example only selects the
//! two decoders and formats the comparison table.
//!
//! Run with `cargo run --example wimax_ldpc_ber --release -- [frames]`.

use code_tables::DecoderKind;
use fec_channel::sim::{EngineConfig, SimulationEngine};
use noc_decoder::{Standard, StandardCode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let frames: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(40);

    let code = StandardCode::resolve(Standard::Wimax, DecoderKind::Layered, 576)?;
    let layered = code.codec(DecoderKind::Layered)?;
    let flooding = code.codec(DecoderKind::Flooding)?;

    let engine = SimulationEngine::new(EngineConfig::fixed_frames(frames, 42));
    let snrs = [1.0f64, 1.5, 2.0, 2.5];
    let lay = engine.run_curve(layered.as_ref(), &snrs);
    let flo = engine.run_curve(flooding.as_ref(), &snrs);

    println!(
        "WiMAX LDPC N=576 r=1/2, {frames} frames per point, {} worker threads",
        engine.effective_workers()
    );
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>10}",
        "Eb/N0", "BER layered", "BER flooding", "it lay", "it flood"
    );
    for (l, f) in lay.points.iter().zip(&flo.points) {
        println!(
            "{:>7.1}  {:>14.3e} {:>14.3e} {:>10.1} {:>10.1}",
            l.ebn0_db, l.ber, f.ber, l.average_iterations, f.average_iterations,
        );
    }
    println!("\nLayered scheduling converges in roughly half the iterations of two-phase");
    println!("scheduling at the same BER, as stated in Section II.B of the paper.");
    Ok(())
}

//! The pieces the BER studies share: each standard's `Eb/N0` grid
//! ([`standard_snrs`]), the curve table ([`print_curve`]) and the codec
//! delegations perfbench imports.
//!
//! The studies themselves (the normalized-min-sum LDPC decoder, layered vs
//! two-phase scheduling, and the bit-level vs symbol-level turbo extrinsic
//! exchange of Section IV.B) are the `ber_study` binary, which runs every
//! curve on the unified parallel [`fec_channel::sim::SimulationEngine`], as
//! the `fec-svc` daemon's BER jobs do.

use code_tables::{DecoderKind, Standard, StandardCode};
use fec_channel::sim::FecCodec;
pub use fec_channel::sim::{BerCurve, BerPoint};
use wimax_turbo::ExtrinsicExchange;

/// Kept for perfbench, which imports it; the catalogue's [`DecoderKind`].
pub type LdpcFlavor = DecoderKind;

/// Kept for perfbench, which imports it: the WiMAX `r = 1/2` LDPC codec of
/// length `n` from the catalogue.  Panics if `n` is not a WiMAX length.
pub fn ldpc_codec(n: usize, flavor: LdpcFlavor) -> Box<dyn FecCodec> {
    catalogue_codec(Standard::Wimax, flavor, n)
}

/// Kept for perfbench, which imports it: the WiMAX `r = 1/2` fixed-point
/// codec with a `lambda_bits`-wide λ.  Panics on a bad length or width.
pub fn quantized_ldpc_codec(n: usize, lambda_bits: u32) -> Box<dyn FecCodec> {
    catalogue_codec(Standard::Wimax, DecoderKind::Quantized { lambda_bits }, n)
}

/// Kept for perfbench, which imports it: the LTE turbo codec of block size
/// `k`.  Panics if `k` is not in the LTE QPP table.
pub fn lte_turbo_codec(k: usize) -> Box<dyn FecCodec> {
    catalogue_codec(Standard::Lte, DecoderKind::Turbo, k)
}

/// Kept for perfbench, which imports it: the DVB-RCS CTC of `couples`
/// couples.  Panics if `couples` is not a DVB-RCS size.
pub fn dvb_rcs_turbo_codec(couples: usize, exchange: ExtrinsicExchange) -> Box<dyn FecCodec> {
    catalogue_codec(Standard::DvbRcs, DecoderKind::Ctc(exchange), couples)
}

/// The catalogue codec of a combination the caller knows to exist.
fn catalogue_codec(standard: Standard, decoder: DecoderKind, block: usize) -> Box<dyn FecCodec> {
    StandardCode::resolve(standard, decoder, block)
        .and_then(|code| code.codec(decoder))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The `Eb/N0` grid (dB) a standard's BER study sweeps: chosen so the
/// waterfall of the study's default codes falls inside the grid and the
/// error rate decreases monotonically over it at modest frame budgets.
pub fn standard_snrs(standard: Standard) -> &'static [f64] {
    match standard {
        Standard::Wimax => &[1.0, 1.5, 2.0, 2.5],
        Standard::Wifi80211n => &[0.0, 1.0, 2.0, 3.0],
        Standard::Lte => &[0.0, 0.5, 1.0, 1.5],
        // 802.22 runs the same rate-1/2 24-column QC family as WiMAX; the
        // DVB-RCS CTC is the WiMAX duo-binary trellis at rate 1/2.
        Standard::Wran80222 => &[1.0, 1.5, 2.0, 2.5],
        Standard::DvbRcs => &[1.0, 1.5, 2.0, 2.5],
    }
}

/// Prints a BER curve as a table.
pub fn print_curve(label: &str, points: &[BerPoint]) {
    println!("{label}");
    println!("{:>8} {:>12} {:>12} {:>8}", "Eb/N0", "BER", "FER", "avg it");
    for p in points {
        println!(
            "{:>8.2} {:>12.3e} {:>12.3e} {:>8.1}",
            p.ebn0_db, p.ber, p.fer, p.average_iterations
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_channel::sim::{EngineConfig, SimulationEngine};

    const Q7: DecoderKind = DecoderKind::Quantized { lambda_bits: 7 };

    /// The points of a `frames`-per-point curve of the catalogue's WiMAX
    /// `decoder` codec of size `block`.
    fn wimax_curve(
        decoder: DecoderKind,
        block: usize,
        snrs: &[f64],
        frames: u64,
        seed: u64,
    ) -> Vec<BerPoint> {
        let codec = catalogue_codec(Standard::Wimax, decoder, block);
        let engine = SimulationEngine::new(EngineConfig::fixed_frames(frames, seed));
        engine.run_curve(codec.as_ref(), snrs).points
    }

    #[test]
    fn ldpc_ber_decreases_with_snr() {
        let points = wimax_curve(DecoderKind::Layered, 576, &[0.0, 3.0], 10, 1);
        assert_eq!(points.len(), 2);
        assert!(points[0].ber >= points[1].ber);
        assert_eq!(
            points[1].ber, 0.0,
            "3 dB should be error free over 10 frames"
        );
        assert_eq!(points[0].frames, 10);
    }

    #[test]
    fn turbo_ber_decreases_with_snr() {
        let bit = DecoderKind::Ctc(ExtrinsicExchange::BitLevel);
        let points = wimax_curve(bit, 48, &[0.0, 3.5], 10, 2);
        assert!(points[0].ber >= points[1].ber);
        assert_eq!(points[1].ber, 0.0);
    }

    #[test]
    fn layered_uses_fewer_iterations_than_flooding() {
        let lay = wimax_curve(DecoderKind::Layered, 576, &[2.0], 10, 3);
        let flo = wimax_curve(DecoderKind::Flooding, 576, &[2.0], 10, 3);
        assert!(lay[0].average_iterations <= flo[0].average_iterations);
    }

    #[test]
    fn quantized_flavor_tracks_the_float_reference() {
        let float = wimax_curve(DecoderKind::Layered, 576, &[3.0], 10, 1);
        let fixed = wimax_curve(Q7, 576, &[3.0], 10, 1);
        assert_eq!(float[0].frames, fixed[0].frames);
        assert_eq!(fixed[0].ber, 0.0, "7-bit datapath must be clean at 3 dB");
        let custom = catalogue_codec(
            Standard::Wimax,
            DecoderKind::Quantized { lambda_bits: 6 },
            576,
        );
        assert_eq!(custom.name(), "wimax-ldpc-n576-layered-q6");
    }

    #[test]
    fn wifi_codecs_run_on_both_datapaths() {
        for decoder in [DecoderKind::Layered, Q7] {
            let codec = catalogue_codec(Standard::Wifi80211n, decoder, 648);
            let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 4));
            let point = engine.run_point(codec.as_ref(), 6.0);
            assert_eq!(point.bit_errors, 0, "{}", codec.name());
        }
        assert_eq!(
            catalogue_codec(Standard::Wifi80211n, Q7, 1296).name(),
            "80211n-ldpc-n1296-layered-q7"
        );
    }

    #[test]
    fn lte_codec_runs_through_the_engine() {
        let codec = catalogue_codec(Standard::Lte, DecoderKind::Turbo, 104);
        let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 6));
        let point = engine.run_point(codec.as_ref(), 4.0);
        assert_eq!(point.bit_errors, 0);
        assert_eq!(codec.name(), "lte-turbo-k104");
    }

    #[test]
    fn wran_codecs_run_on_both_datapaths() {
        for decoder in [DecoderKind::Layered, Q7] {
            let codec = catalogue_codec(Standard::Wran80222, decoder, 384);
            let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 21));
            let point = engine.run_point(codec.as_ref(), 6.0);
            assert_eq!(point.bit_errors, 0, "{}", codec.name());
        }
        assert_eq!(
            catalogue_codec(Standard::Wran80222, Q7, 960).name(),
            "80222-ldpc-n960-layered-q7"
        );
    }

    #[test]
    fn dvb_rcs_codec_runs_through_the_engine() {
        let bit = DecoderKind::Ctc(ExtrinsicExchange::BitLevel);
        let codec = catalogue_codec(Standard::DvbRcs, bit, 48);
        let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 22));
        let point = engine.run_point(codec.as_ref(), 6.0);
        assert_eq!(point.bit_errors, 0);
        assert_eq!(codec.name(), "dvbrcs-ctc-48c-bit");
        let symbol = DecoderKind::Ctc(ExtrinsicExchange::SymbolLevel);
        assert_eq!(
            catalogue_codec(Standard::DvbRcs, symbol, 212).name(),
            "dvbrcs-ctc-212c-symbol"
        );
    }

    #[test]
    fn snr_grids_are_increasing() {
        for standard in Standard::all() {
            let snrs = standard_snrs(standard);
            assert!(snrs.len() >= 4);
            assert!(snrs.windows(2).all(|w| w[1] > w[0]), "{standard}");
        }
    }

    #[test]
    fn worker_count_does_not_change_the_counts() {
        let codec = catalogue_codec(Standard::Wimax, DecoderKind::Layered, 576);
        let run = |workers| {
            SimulationEngine::new(EngineConfig::fixed_frames(20, 9).with_workers(workers))
                .run_point(codec.as_ref(), 1.5)
        };
        assert_eq!(run(1), run(4));
    }
}

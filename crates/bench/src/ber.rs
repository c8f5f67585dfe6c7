//! BER studies backing the paper's algorithmic claims: the
//! normalized-min-sum LDPC decoder, layered vs two-phase scheduling, and the
//! bit-level vs symbol-level turbo extrinsic exchange (Section IV.B).
//!
//! All runs route through the unified parallel
//! [`fec_channel::sim::SimulationEngine`]; this module only selects codecs
//! and formats results.  The historical per-flavour Monte-Carlo loops are
//! gone.

use code_tables::{
    dvb_rcs_ctc, wifi_ldpc, wran_ldpc, LteTurboCode, LteTurboCodec, NamedCodec, Standard,
};
pub use fec_channel::sim::{BerCurve, BerPoint};
use fec_channel::sim::{EngineConfig, FecCodec, SimulationEngine};
use wimax_ldpc::decoder::{FixedLayeredConfig, FloodingConfig, LayeredConfig};
use wimax_ldpc::{
    CodeRate, FloodingLdpcCodec, LayeredLdpcCodec, QcLdpcCode, QuantizedLayeredLdpcCodec,
};
use wimax_turbo::{CtcCode, ExtrinsicExchange, TurboCodec, TurboDecoderConfig};

/// LDPC decoder flavour for the BER study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdpcFlavor {
    /// Layered normalized min-sum (the paper's hardware algorithm),
    /// floating-point reference datapath.
    Layered,
    /// Two-phase flooding normalized min-sum (baseline scheduling).
    Flooding,
    /// Fixed-point layered normalized min-sum (the hardware datapath model,
    /// 7-bit λ quantization).
    Quantized,
}

/// Builds the [`FecCodec`] for the WiMAX `r = 1/2` LDPC code of length `n`
/// with the study's iteration budget (`Itmax = 10` for every schedule).
///
/// # Panics
///
/// Panics if `n` is not a WiMAX length.
pub fn ldpc_codec(n: usize, flavor: LdpcFlavor) -> Box<dyn FecCodec> {
    let code = QcLdpcCode::wimax(n, CodeRate::R12).expect("valid WiMAX length");
    match flavor {
        LdpcFlavor::Layered => Box::new(LayeredLdpcCodec::new(&code, LayeredConfig::default())),
        LdpcFlavor::Flooding => Box::new(FloodingLdpcCodec::new(
            &code,
            FloodingConfig {
                max_iterations: 10,
                ..FloodingConfig::default()
            },
        )),
        LdpcFlavor::Quantized => Box::new(QuantizedLayeredLdpcCodec::new(
            &code,
            FixedLayeredConfig::default(),
        )),
    }
}

/// Builds the fixed-point layered [`FecCodec`] with a custom λ bit width
/// (the `R` message memory follows the λ width), for quantization-loss
/// sweeps.
///
/// # Panics
///
/// Panics if `n` is not a WiMAX length or `lambda_bits` is outside `2..=15`.
pub fn quantized_ldpc_codec(n: usize, lambda_bits: u32) -> Box<dyn FecCodec> {
    let code = QcLdpcCode::wimax(n, CodeRate::R12).expect("valid WiMAX length");
    Box::new(QuantizedLayeredLdpcCodec::new(
        &code,
        FixedLayeredConfig::default().with_lambda_bits(lambda_bits),
    ))
}

/// Builds the [`FecCodec`] for the 802.11n `r = 1/2` LDPC code of length `n`
/// (648, 1296 or 1944) in the requested decoder flavour — the new tables run
/// on both decode datapaths through the engine unchanged.
///
/// # Panics
///
/// Panics if `n` is not an 802.11n length.
pub fn wifi_ldpc_codec(n: usize, flavor: LdpcFlavor) -> Box<dyn FecCodec> {
    let code = wifi_ldpc(n, CodeRate::R12).expect("valid 802.11n length");
    match flavor {
        LdpcFlavor::Layered => Box::new(NamedCodec::new(
            LayeredLdpcCodec::new(&code, LayeredConfig::default()),
            format!("80211n-ldpc-n{n}-layered"),
        )),
        LdpcFlavor::Flooding => Box::new(NamedCodec::new(
            FloodingLdpcCodec::new(
                &code,
                FloodingConfig {
                    max_iterations: 10,
                    ..FloodingConfig::default()
                },
            ),
            format!("80211n-ldpc-n{n}-flooding"),
        )),
        LdpcFlavor::Quantized => Box::new(NamedCodec::new(
            QuantizedLayeredLdpcCodec::new(&code, FixedLayeredConfig::default()),
            format!("80211n-ldpc-n{n}-layered-q7"),
        )),
    }
}

/// Builds the [`FecCodec`] for the LTE rate-1/3 turbo code with block size
/// `k` (Max-Log-MAP, 8 iterations).
///
/// # Panics
///
/// Panics if `k` is not in the LTE QPP table.
pub fn lte_turbo_codec(k: usize) -> Box<dyn FecCodec> {
    let code = LteTurboCode::new(k).expect("valid LTE block size");
    Box::new(LteTurboCodec::new(&code, TurboDecoderConfig::default()))
}

/// Builds the [`FecCodec`] for the 802.22 `r = 1/2` WRAN LDPC code of
/// length `n` (384 … 2304) in the requested decoder flavour — like the
/// 802.11n tables, the WRAN tables run on both decode datapaths through the
/// engine unchanged.
///
/// # Panics
///
/// Panics if `n` is not an 802.22 length.
pub fn wran_ldpc_codec(n: usize, flavor: LdpcFlavor) -> Box<dyn FecCodec> {
    let code = wran_ldpc(n, CodeRate::R12).expect("valid 802.22 length");
    match flavor {
        LdpcFlavor::Layered => Box::new(NamedCodec::new(
            LayeredLdpcCodec::new(&code, LayeredConfig::default()),
            format!("80222-ldpc-n{n}-layered"),
        )),
        LdpcFlavor::Flooding => Box::new(NamedCodec::new(
            FloodingLdpcCodec::new(
                &code,
                FloodingConfig {
                    max_iterations: 10,
                    ..FloodingConfig::default()
                },
            ),
            format!("80222-ldpc-n{n}-flooding"),
        )),
        LdpcFlavor::Quantized => Box::new(NamedCodec::new(
            QuantizedLayeredLdpcCodec::new(&code, FixedLayeredConfig::default()),
            format!("80222-ldpc-n{n}-layered-q7"),
        )),
    }
}

/// Builds the [`FecCodec`] for the DVB-RCS duo-binary CTC with `couples`
/// couples and the given extrinsic-exchange mode (Max-Log-MAP, 8
/// iterations on the shared 8-state CRSC trellis).
///
/// # Panics
///
/// Panics if `couples` is not a DVB-RCS couple size.
pub fn dvb_rcs_turbo_codec(couples: usize, exchange: ExtrinsicExchange) -> Box<dyn FecCodec> {
    let code = dvb_rcs_ctc(couples).expect("valid DVB-RCS couple size");
    let mode = match exchange {
        ExtrinsicExchange::SymbolLevel => "symbol",
        ExtrinsicExchange::BitLevel => "bit",
    };
    Box::new(NamedCodec::new(
        TurboCodec::new(
            &code,
            TurboDecoderConfig {
                exchange,
                ..TurboDecoderConfig::default()
            },
        ),
        format!("dvbrcs-ctc-{couples}c-{mode}"),
    ))
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

/// Builds the [`FecCodec`] for the WiMAX CTC with `couples` couples and the
/// given extrinsic-exchange mode.
///
/// # Panics
///
/// Panics if `couples` is not a WiMAX frame size.
pub fn turbo_codec(couples: usize, exchange: ExtrinsicExchange) -> Box<dyn FecCodec> {
    let code = CtcCode::wimax(couples).expect("valid WiMAX frame size");
    Box::new(TurboCodec::new(
        &code,
        TurboDecoderConfig {
            exchange,
            ..TurboDecoderConfig::default()
        },
    ))
}

/// Runs an LDPC BER curve on the WiMAX `r = 1/2` code of length `n`, with
/// exactly `frames` frames per point.
///
/// # Panics
///
/// Panics if `n` is not a WiMAX length.
pub fn run_ldpc_ber(
    n: usize,
    flavor: LdpcFlavor,
    ebn0_dbs: &[f64],
    frames: usize,
    seed: u64,
) -> Vec<BerPoint> {
    let engine = SimulationEngine::new(EngineConfig::fixed_frames(frames as u64, seed));
    engine
        .run_curve(ldpc_codec(n, flavor).as_ref(), ebn0_dbs)
        .points
}

/// Runs a turbo BER curve on the WiMAX CTC with `couples` couples using the
/// given extrinsic exchange mode, with exactly `frames` frames per point.
///
/// # Panics
///
/// Panics if `couples` is not a WiMAX frame size.
pub fn run_turbo_ber(
    couples: usize,
    exchange: ExtrinsicExchange,
    ebn0_dbs: &[f64],
    frames: usize,
    seed: u64,
) -> Vec<BerPoint> {
    let engine = SimulationEngine::new(EngineConfig::fixed_frames(frames as u64, seed));
    engine
        .run_curve(turbo_codec(couples, exchange).as_ref(), ebn0_dbs)
        .points
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

    #[test]
    fn ldpc_ber_decreases_with_snr() {
        let points = run_ldpc_ber(576, LdpcFlavor::Layered, &[0.0, 3.0], 10, 1);
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
        let points = run_turbo_ber(48, ExtrinsicExchange::BitLevel, &[0.0, 3.5], 10, 2);
        assert!(points[0].ber >= points[1].ber);
        assert_eq!(points[1].ber, 0.0);
    }

    #[test]
    fn layered_uses_fewer_iterations_than_flooding() {
        let lay = run_ldpc_ber(576, LdpcFlavor::Layered, &[2.0], 10, 3);
        let flo = run_ldpc_ber(576, LdpcFlavor::Flooding, &[2.0], 10, 3);
        assert!(lay[0].average_iterations <= flo[0].average_iterations);
    }

    #[test]
    fn quantized_flavor_tracks_the_float_reference() {
        let float = run_ldpc_ber(576, LdpcFlavor::Layered, &[3.0], 10, 1);
        let fixed = run_ldpc_ber(576, LdpcFlavor::Quantized, &[3.0], 10, 1);
        assert_eq!(float[0].frames, fixed[0].frames);
        assert_eq!(fixed[0].ber, 0.0, "7-bit datapath must be clean at 3 dB");
        let custom = quantized_ldpc_codec(576, 6);
        assert_eq!(custom.name(), "wimax-ldpc-n576-layered-q6");
    }

    #[test]
    fn wifi_codecs_run_on_both_datapaths() {
        for flavor in [LdpcFlavor::Layered, LdpcFlavor::Quantized] {
            let codec = wifi_ldpc_codec(648, flavor);
            let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 4));
            let point = engine.run_point(codec.as_ref(), 6.0);
            assert_eq!(point.bit_errors, 0, "{}", codec.name());
        }
        assert_eq!(
            wifi_ldpc_codec(1296, LdpcFlavor::Quantized).name(),
            "80211n-ldpc-n1296-layered-q7"
        );
    }

    #[test]
    fn lte_codec_runs_through_the_engine() {
        let codec = lte_turbo_codec(104);
        let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 6));
        let point = engine.run_point(codec.as_ref(), 4.0);
        assert_eq!(point.bit_errors, 0);
        assert_eq!(codec.name(), "lte-turbo-k104");
    }

    #[test]
    fn wran_codecs_run_on_both_datapaths() {
        for flavor in [LdpcFlavor::Layered, LdpcFlavor::Quantized] {
            let codec = wran_ldpc_codec(384, flavor);
            let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 21));
            let point = engine.run_point(codec.as_ref(), 6.0);
            assert_eq!(point.bit_errors, 0, "{}", codec.name());
        }
        assert_eq!(
            wran_ldpc_codec(960, LdpcFlavor::Quantized).name(),
            "80222-ldpc-n960-layered-q7"
        );
    }

    #[test]
    fn dvb_rcs_codec_runs_through_the_engine() {
        let codec = dvb_rcs_turbo_codec(48, ExtrinsicExchange::BitLevel);
        let engine = SimulationEngine::new(EngineConfig::fixed_frames(5, 22));
        let point = engine.run_point(codec.as_ref(), 6.0);
        assert_eq!(point.bit_errors, 0);
        assert_eq!(codec.name(), "dvbrcs-ctc-48c-bit");
        assert_eq!(
            dvb_rcs_turbo_codec(212, ExtrinsicExchange::SymbolLevel).name(),
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
        let codec = ldpc_codec(576, LdpcFlavor::Layered);
        let run = |workers| {
            SimulationEngine::new(EngineConfig::fixed_frames(20, 9).with_workers(workers))
                .run_point(codec.as_ref(), 1.5)
        };
        assert_eq!(run(1), run(4));
    }
}

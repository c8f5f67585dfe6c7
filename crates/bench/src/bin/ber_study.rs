//! BER studies backing the paper's algorithmic statements, now per
//! standard:
//!
//! * `--standard wimax` (default) — layered vs two-phase LDPC scheduling
//!   (Section II.B) and bit-level vs symbol-level turbo extrinsic exchange
//!   (Section IV.B) on the 802.16e codes;
//! * `--standard 80211n` — the 802.11n LDPC codes on both decode datapaths
//!   (f64 layered reference and the fixed-point hardware model) plus the
//!   flooding baseline;
//! * `--standard lte` — the LTE rate-1/3 binary turbo code at two block
//!   sizes;
//! * `--standard 80222` — the 802.22 WRAN LDPC codes on both decode
//!   datapaths (f64 layered reference and the fixed-point q7 hardware
//!   model) plus the flooding baseline;
//! * `--standard dvbrcs` — the DVB-RCS duo-binary CTC (ATM and signalling
//!   frame sizes) with bit- and symbol-level extrinsic exchange.
//!
//! All studies run on the unified parallel simulation engine.
//!
//! Usage: `cargo run -p decoder-bench --bin ber_study --release --
//! [frames] [--standard wimax|80211n|lte|80222|dvbrcs] [--quantized]
//! [--lambda-bits <n>] [--workers <n>] [--batch-frames <n>]
//! [--adaptive] [--target-rel-width <f>] [--confidence <f>]
//! [--json <path>] [--metrics <path>] [--metrics-report]`
//!
//! `--quantized` adds the fixed-point layered LDPC curve (the hardware
//! datapath model) next to the floating-point reference, quantizing channel
//! LLRs to `--lambda-bits` bits (default 7, the paper's λ width).
//!
//! `--workers` sets the worker count of the shared simulation pool (default
//! one per core); every curve runs each point-round as one job per worker
//! on one pool, and the counts are bit-identical for any worker count.
//!
//! `--batch-frames` is the most frames the codec's one decode method,
//! `FecCodec::decode_frames`, holds in flight (default 1, one frame at a
//! time): the fixed-point codec streams a job's frames through that many
//! lockstep lanes (the widest of 1, 2, 4, 8 and 16 not above it), loading
//! the next frame into a lane as soon as the lane's frame is decided; the
//! other codecs decode one frame after another.  Each shard's channel noise
//! is drawn frame by frame in its own order and decodes are bit-identical
//! per frame, so every count — and the `--json` output — is byte-for-byte
//! independent of the batch size.
//!
//! `--adaptive` switches every curve to the confidence-targeted stop rule:
//! a point keeps running continuation rounds until the Wilson relative
//! half-width of its frame-error-rate estimate is at most
//! `--target-rel-width` (default 0.2) at the two-sided `--confidence` level
//! (default 0.95), capped by `[frames]` — which becomes the per-point
//! budget instead of the exact frame count.  Round sizes are a pure
//! function of the merged counts, so adaptive outputs too are
//! byte-identical for any `--workers`/`--batch-frames` combination.
//!
//! `--metrics` writes the observability registry of the whole study (codec,
//! fixed-datapath, engine and pool metrics) as an `OBS_*.json` export; its
//! `counts` section is byte-identical for any `--workers`/`--batch-frames`
//! combination.  `--metrics-report` prints the ASCII report instead of (or
//! next to) the file.

use code_tables::{DecoderKind, Standard, StandardCode};
use decoder_bench::{
    exit_with_usage, print_curve, run_curve_maybe_observed as run_observed, standard_snrs,
    study_engine_config, study_seed, write_json, CommonFlags, ObsCollector,
};
use fec_channel::sim::{FecCodec, SimulationEngine};
use fec_json::{Json, ToJson};
use wimax_turbo::ExtrinsicExchange::{BitLevel, SymbolLevel};

const USAGE: &str = "usage: ber_study [frames] [--standard wimax|80211n|lte|80222|dvbrcs] \
                     [--quantized] [--lambda-bits <n>] [--workers <n>] [--batch-frames <n>] \
                     [--adaptive] [--target-rel-width <f>] [--confidence <f>] [--json <path>] \
                     [--metrics <path>] [--metrics-report]";

/// The options `ber_study` reads beyond the shared [`CommonFlags`].
struct StudyArgs {
    flags: CommonFlags,
    /// `--lambda-bits` (default 7), when `--quantized` or `--lambda-bits`
    /// asks for the fixed-point curve.
    quantized: Option<u32>,
    /// Frames per point: exact in fixed mode, a cap in adaptive mode.
    frames: u64,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<StudyArgs, String> {
    let mut flags = CommonFlags::parse(args)?;
    let mut quantized = false;
    let mut lambda_bits = 7;
    let mut frames = 60;
    let mut rest = std::mem::take(&mut flags.rest).into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quantized" => quantized = true,
            "--lambda-bits" => {
                let value = rest.next().ok_or("--lambda-bits requires a bit width")?;
                lambda_bits = value
                    .parse()
                    .map_err(|_| format!("--lambda-bits takes a bit width, not {value:?}"))?;
                quantized = true;
            }
            other => {
                frames = other
                    .parse()
                    .map_err(|_| format!("unrecognised argument: {other}"))?;
            }
        }
    }
    Ok(StudyArgs {
        flags,
        quantized: quantized.then_some(lambda_bits),
        frames,
    })
}

/// One curve of a study: the code heading it opens (if any), its title,
/// and the decoder and block the catalogue builds its codec from.
struct CurveSpec {
    heading: Option<String>,
    title: String,
    decoder: DecoderKind,
    block: usize,
}

fn curve(
    heading: Option<String>,
    title: impl Into<String>,
    decoder: DecoderKind,
    block: usize,
) -> CurveSpec {
    CurveSpec {
        heading,
        title: title.into(),
        decoder,
        block,
    }
}

/// The curves of `standard`'s study, in output order.
fn study_curves(standard: Standard, quantized: Option<u32>) -> Vec<CurveSpec> {
    use DecoderKind::{Ctc, Flooding, Layered, Quantized, Turbo};
    let flooding = "Two-phase (flooding) normalized min-sum (Itmax = 10)";
    let fixed = |bits: u32| format!("Fixed-point layered min-sum, {bits}-bit lambda (Itmax = 10)");
    let symbol = "Symbol-level extrinsic exchange (Max-Log-MAP, Itmax = 8)";
    let bit = "Bit-level extrinsic exchange (Max-Log-MAP, Itmax = 8)";
    // 802.11n and 802.22: both datapaths and the flooding baseline on the
    // default length, the f64 reference on a larger one.
    let ldpc_family = |name: &str, n: usize, large: usize| {
        let layered = "Layered normalized min-sum, f64 reference (Itmax = 10)";
        vec![
            curve(
                Some(format!("{name} LDPC N = {n}, r = 1/2")),
                layered,
                Layered,
                n,
            ),
            curve(None, fixed(7), Quantized { lambda_bits: 7 }, n),
            curve(None, flooding, Flooding, n),
            curve(
                Some(format!("{name} LDPC N = {large}, r = 1/2")),
                layered,
                Layered,
                large,
            ),
        ]
    };
    match standard {
        Standard::Wimax => {
            let layered = "Layered normalized min-sum (Itmax = 10)";
            let mut curves = vec![
                curve(
                    Some("WiMAX LDPC N = 576, r = 1/2".into()),
                    layered,
                    Layered,
                    576,
                ),
                curve(None, flooding, Flooding, 576),
            ];
            curves.extend(quantized.map(|lambda_bits| {
                curve(None, fixed(lambda_bits), Quantized { lambda_bits }, 576)
            }));
            let heading = "WiMAX DBTC 240 couples, rate 1/2";
            curves.push(curve(Some(heading.into()), symbol, Ctc(SymbolLevel), 240));
            curves.push(curve(None, bit, Ctc(BitLevel), 240));
            curves
        }
        Standard::Wifi80211n => ldpc_family("802.11n", 648, 1296),
        Standard::Wran80222 => ldpc_family("802.22", 480, 1440),
        Standard::Lte => {
            let title = "QPP + binary Max-Log-MAP (Itmax = 8)";
            [1024, 104]
                .map(|k| curve(Some(format!("LTE turbo K = {k}, r = 1/3")), title, Turbo, k))
                .into()
        }
        Standard::DvbRcs => vec![
            curve(
                Some("DVB-RCS CTC 212 couples (ATM cell), rate 1/2".into()),
                bit,
                Ctc(BitLevel),
                212,
            ),
            curve(None, symbol, Ctc(SymbolLevel), 212),
            curve(
                Some("DVB-RCS CTC 48 couples (signalling burst), rate 1/2".into()),
                bit,
                Ctc(BitLevel),
                48,
            ),
        ],
    }
}

fn main() {
    let fail = |message: String| -> ! { exit_with_usage("ber_study", &message, USAGE) };
    let StudyArgs {
        flags,
        quantized,
        frames,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| fail(e));
    let standard = flags.standard.unwrap_or(Standard::Wimax);
    let adaptive = flags.adaptive;
    let config = |decoder| {
        study_engine_config(
            frames,
            flags.workers,
            flags.batch_frames,
            adaptive,
            study_seed(standard, decoder),
        )
    };
    // Every curve's engine settings and codec are checked before the first
    // frame is simulated, so a bad value never costs a finished curve.
    let specs = study_curves(standard, quantized);
    let codecs: Vec<Box<dyn FecCodec>> = specs
        .iter()
        .map(|c| {
            config(c.decoder).validate()?;
            StandardCode::resolve(standard, c.decoder, c.block)?.codec(c.decoder)
        })
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| fail(e));

    if let Some(a) = adaptive {
        println!(
            "adaptive stop rule: target relative half-width {} at {}% confidence, \
             cap {frames} frames per point\n",
            a.target_rel_width,
            100.0 * a.confidence
        );
    }
    let mut obs = flags.metrics.enabled().then(ObsCollector::new);
    let snrs = standard_snrs(standard);
    let curves: Vec<_> = specs
        .iter()
        .zip(&codecs)
        .map(|(spec, codec)| {
            if let Some(heading) = &spec.heading {
                println!("{heading} ({frames} frames per point)\n");
            }
            // The engine assembly the `fec-svc` daemon uses too, so CLI and
            // daemon outputs are identical.
            let engine = SimulationEngine::new(config(spec.decoder));
            let curve = run_observed(&engine, codec.as_ref(), snrs, &mut obs);
            print_curve(&spec.title, &curve.points);
            curve
        })
        .collect();
    if let Some(collector) = &obs {
        flags.metrics.emit(&collector.registry);
    }

    if let Some(path) = flags.json {
        let mut pairs = vec![
            ("study", Json::str("ber_study")),
            ("standard", Json::str(standard.name())),
            ("frames_per_point", Json::from(frames)),
            (
                "stop_rule",
                Json::str(if adaptive.is_some() {
                    "relative_width"
                } else {
                    "fixed_budget"
                }),
            ),
        ];
        if let Some(a) = adaptive {
            pairs.push(("target_rel_width", Json::from(a.target_rel_width)));
            pairs.push(("confidence", Json::from(a.confidence)));
        }
        pairs.push(("curves", Json::arr(curves.iter().map(ToJson::to_json))));
        write_json(&path, &Json::obj(pairs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<StudyArgs, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    /// The decoder and block of each curve, in output order.
    fn decoders(standard: Standard, quantized: Option<u32>) -> Vec<(DecoderKind, usize)> {
        study_curves(standard, quantized)
            .iter()
            .map(|c| (c.decoder, c.block))
            .collect()
    }

    #[test]
    fn a_positional_argument_is_the_frame_count() {
        let args = parse(&["256"]).unwrap();
        assert_eq!(args.frames, 256);
        assert_eq!(args.quantized, None);
        assert_eq!(parse(&[]).unwrap().frames, 60);
    }

    #[test]
    fn quantized_alone_means_seven_bits() {
        assert_eq!(parse(&["--quantized"]).unwrap().quantized, Some(7));
        let args = parse(&["--lambda-bits", "5", "20"]).unwrap();
        assert_eq!((args.quantized, args.frames), (Some(5), 20));
    }

    #[test]
    fn a_missing_or_malformed_lambda_width_names_the_flag() {
        for args in [&["--lambda-bits"][..], &["--lambda-bits", "x"]] {
            let message = parse(args).err().expect("rejected");
            assert!(message.contains("--lambda-bits"), "{args:?}: {message}");
        }
    }

    #[test]
    fn an_unknown_flag_is_unrecognised() {
        let message = parse(&["--bogus"]).err().expect("rejected");
        assert_eq!(message, "unrecognised argument: --bogus");
    }

    #[test]
    fn the_wimax_study_compares_both_schedules_and_both_exchanges() {
        use DecoderKind::{Ctc, Flooding, Layered, Quantized};
        let ctc = [(Ctc(SymbolLevel), 240), (Ctc(BitLevel), 240)];
        let ldpc = [(Layered, 576), (Flooding, 576)];
        assert_eq!(decoders(Standard::Wimax, None), [&ldpc[..], &ctc].concat());
        let q7 = [(Quantized { lambda_bits: 7 }, 576)];
        assert_eq!(
            decoders(Standard::Wimax, Some(7)),
            [&ldpc[..], &q7, &ctc].concat()
        );
    }
}

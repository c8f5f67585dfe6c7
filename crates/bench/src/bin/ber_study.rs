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
//! one per core); every curve schedules its `(point, shard)` work units
//! onto one pool, and the counts are bit-identical for any worker count.
//!
//! `--batch-frames` hands that many frames per call to the codec's one
//! decode method, `FecCodec::decode_frames` (default 1, one frame at a
//! time).  The fixed-point codec decodes them as lockstep lanes; the other
//! codecs decode them one after another.  Channel noise is drawn frame by
//! frame before decoding and decodes are bit-identical per frame, so every
//! count — and the `--json` output — is byte-for-byte independent of the
//! batch size.
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

use code_tables::Standard;
use decoder_bench::{
    dvb_rcs_turbo_codec, ldpc_codec, lte_turbo_codec, print_curve, quantized_ldpc_codec,
    run_curve_maybe_observed as run_observed, standard_snrs, study_engine_config, study_seed,
    turbo_codec, wifi_ldpc_codec, wran_ldpc_codec, write_json, AdaptiveFlags, BerCurve, CodecClass,
    CommonFlags, LdpcFlavor, ObsCollector,
};
use fec_channel::sim::SimulationEngine;
use fec_json::{Json, ToJson};
use wimax_turbo::ExtrinsicExchange;

fn main() {
    let flags = CommonFlags::parse(std::env::args().skip(1));
    let CommonFlags {
        json: json_path,
        metrics,
        standard,
        workers,
        batch_frames: batch,
        adaptive,
        rest,
    } = flags;
    let standard = standard.unwrap_or(Standard::Wimax);
    let mut quantized = false;
    let mut lambda_bits: u32 = 7;
    let mut frames: u64 = 60;
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quantized" => quantized = true,
            "--lambda-bits" => {
                let value = rest.next().expect("--lambda-bits requires a bit width");
                lambda_bits = value.parse().expect("--lambda-bits takes an integer");
                quantized = true;
            }
            other => {
                frames = other
                    .parse()
                    .unwrap_or_else(|_| panic!("unrecognised argument: {other}"));
            }
        }
    }

    let study = StudyCfg {
        frames,
        workers,
        batch,
        adaptive,
    };
    if let Some(a) = adaptive {
        println!(
            "adaptive stop rule: target relative half-width {} at {}% confidence, \
             cap {frames} frames per point\n",
            a.target_rel_width,
            100.0 * a.confidence
        );
    }
    let mut obs = metrics.enabled().then(ObsCollector::new);
    let curves = match standard {
        Standard::Wimax => wimax_study(&study, quantized, lambda_bits, &mut obs),
        Standard::Wifi80211n => wifi_study(&study, &mut obs),
        Standard::Lte => lte_study(&study, &mut obs),
        Standard::Wran80222 => wran_study(&study, &mut obs),
        Standard::DvbRcs => dvbrcs_study(&study, &mut obs),
    };
    if let Some(collector) = &obs {
        metrics.emit(&collector.registry);
    }

    if let Some(path) = json_path {
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
        let json = Json::obj(pairs);
        write_json(&path, &json);
    }
}

/// Per-study engine settings shared by all five standards: the frame
/// budget (exact in fixed mode, a cap in adaptive mode), pool workers,
/// decode batch size and the optional adaptive stop rule.
#[derive(Debug, Clone, Copy)]
struct StudyCfg {
    frames: u64,
    workers: usize,
    batch: usize,
    adaptive: Option<AdaptiveFlags>,
}

impl StudyCfg {
    /// Builds the engine for one curve family, with the standard-specific
    /// RNG `seed` (fixed seeds keep the CI trajectory byte-identical).
    /// Routes through [`study_engine_config`] — the same assembly the
    /// `fec-svc` daemon uses — so CLI and daemon outputs are identical.
    fn engine(&self, seed: u64) -> SimulationEngine {
        SimulationEngine::new(study_engine_config(
            self.frames,
            self.workers,
            self.batch,
            self.adaptive,
            seed,
        ))
    }
}

fn wimax_study(
    study: &StudyCfg,
    quantized: bool,
    lambda_bits: u32,
    obs: &mut Option<ObsCollector>,
) -> Vec<BerCurve> {
    let frames = study.frames;
    let snrs = standard_snrs(Standard::Wimax);
    let ldpc_engine = study.engine(study_seed(Standard::Wimax, CodecClass::Ldpc));
    let turbo_engine = study.engine(study_seed(Standard::Wimax, CodecClass::Turbo));

    println!("WiMAX LDPC N = 576, r = 1/2 ({frames} frames per point)\n");
    let layered = run_observed(
        &ldpc_engine,
        ldpc_codec(576, LdpcFlavor::Layered).as_ref(),
        snrs,
        obs,
    );
    print_curve("Layered normalized min-sum (Itmax = 10)", &layered.points);
    let flooding = run_observed(
        &ldpc_engine,
        ldpc_codec(576, LdpcFlavor::Flooding).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Two-phase (flooding) normalized min-sum (Itmax = 10)",
        &flooding.points,
    );
    let quantized_curve = quantized.then(|| {
        let curve = run_observed(
            &ldpc_engine,
            quantized_ldpc_codec(576, lambda_bits).as_ref(),
            snrs,
            obs,
        );
        print_curve(
            &format!("Fixed-point layered min-sum, {lambda_bits}-bit lambda (Itmax = 10)"),
            &curve.points,
        );
        curve
    });

    println!("WiMAX DBTC 240 couples, rate 1/2 ({frames} frames per point)\n");
    let symbol = run_observed(
        &turbo_engine,
        turbo_codec(240, ExtrinsicExchange::SymbolLevel).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Symbol-level extrinsic exchange (Max-Log-MAP, Itmax = 8)",
        &symbol.points,
    );
    let bit = run_observed(
        &turbo_engine,
        turbo_codec(240, ExtrinsicExchange::BitLevel).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Bit-level extrinsic exchange (Max-Log-MAP, Itmax = 8)",
        &bit.points,
    );

    let mut curves = vec![layered, flooding];
    curves.extend(quantized_curve);
    curves.push(symbol);
    curves.push(bit);
    curves
}

fn wifi_study(study: &StudyCfg, obs: &mut Option<ObsCollector>) -> Vec<BerCurve> {
    let frames = study.frames;
    let snrs = standard_snrs(Standard::Wifi80211n);
    let engine = study.engine(study_seed(Standard::Wifi80211n, CodecClass::Ldpc));

    println!("802.11n LDPC N = 648, r = 1/2 ({frames} frames per point)\n");
    let layered = run_observed(
        &engine,
        wifi_ldpc_codec(648, LdpcFlavor::Layered).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Layered normalized min-sum, f64 reference (Itmax = 10)",
        &layered.points,
    );
    let fixed = run_observed(
        &engine,
        wifi_ldpc_codec(648, LdpcFlavor::Quantized).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Fixed-point layered min-sum, 7-bit lambda (Itmax = 10)",
        &fixed.points,
    );
    let flooding = run_observed(
        &engine,
        wifi_ldpc_codec(648, LdpcFlavor::Flooding).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Two-phase (flooding) normalized min-sum (Itmax = 10)",
        &flooding.points,
    );

    println!("802.11n LDPC N = 1296, r = 1/2 ({frames} frames per point)\n");
    let layered_1296 = run_observed(
        &engine,
        wifi_ldpc_codec(1296, LdpcFlavor::Layered).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Layered normalized min-sum, f64 reference (Itmax = 10)",
        &layered_1296.points,
    );

    vec![layered, fixed, flooding, layered_1296]
}

fn wran_study(study: &StudyCfg, obs: &mut Option<ObsCollector>) -> Vec<BerCurve> {
    let frames = study.frames;
    let snrs = standard_snrs(Standard::Wran80222);
    let engine = study.engine(study_seed(Standard::Wran80222, CodecClass::Ldpc));

    println!("802.22 LDPC N = 480, r = 1/2 ({frames} frames per point)\n");
    let layered = run_observed(
        &engine,
        wran_ldpc_codec(480, LdpcFlavor::Layered).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Layered normalized min-sum, f64 reference (Itmax = 10)",
        &layered.points,
    );
    let fixed = run_observed(
        &engine,
        wran_ldpc_codec(480, LdpcFlavor::Quantized).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Fixed-point layered min-sum, 7-bit lambda (Itmax = 10)",
        &fixed.points,
    );
    let flooding = run_observed(
        &engine,
        wran_ldpc_codec(480, LdpcFlavor::Flooding).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Two-phase (flooding) normalized min-sum (Itmax = 10)",
        &flooding.points,
    );

    println!("802.22 LDPC N = 1440, r = 1/2 ({frames} frames per point)\n");
    let layered_1440 = run_observed(
        &engine,
        wran_ldpc_codec(1440, LdpcFlavor::Layered).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Layered normalized min-sum, f64 reference (Itmax = 10)",
        &layered_1440.points,
    );

    vec![layered, fixed, flooding, layered_1440]
}

fn dvbrcs_study(study: &StudyCfg, obs: &mut Option<ObsCollector>) -> Vec<BerCurve> {
    let frames = study.frames;
    let snrs = standard_snrs(Standard::DvbRcs);
    let engine = study.engine(study_seed(Standard::DvbRcs, CodecClass::Turbo));

    println!("DVB-RCS CTC 212 couples (ATM cell), rate 1/2 ({frames} frames per point)\n");
    let bit = run_observed(
        &engine,
        dvb_rcs_turbo_codec(212, ExtrinsicExchange::BitLevel).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Bit-level extrinsic exchange (Max-Log-MAP, Itmax = 8)",
        &bit.points,
    );
    let symbol = run_observed(
        &engine,
        dvb_rcs_turbo_codec(212, ExtrinsicExchange::SymbolLevel).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Symbol-level extrinsic exchange (Max-Log-MAP, Itmax = 8)",
        &symbol.points,
    );

    println!("DVB-RCS CTC 48 couples (signalling burst), rate 1/2 ({frames} frames per point)\n");
    let small = run_observed(
        &engine,
        dvb_rcs_turbo_codec(48, ExtrinsicExchange::BitLevel).as_ref(),
        snrs,
        obs,
    );
    print_curve(
        "Bit-level extrinsic exchange (Max-Log-MAP, Itmax = 8)",
        &small.points,
    );

    vec![bit, symbol, small]
}

fn lte_study(study: &StudyCfg, obs: &mut Option<ObsCollector>) -> Vec<BerCurve> {
    let frames = study.frames;
    let snrs = standard_snrs(Standard::Lte);
    let engine = study.engine(study_seed(Standard::Lte, CodecClass::Turbo));

    println!("LTE turbo K = 1024, r = 1/3 ({frames} frames per point)\n");
    let k1024 = run_observed(&engine, lte_turbo_codec(1024).as_ref(), snrs, obs);
    print_curve("QPP + binary Max-Log-MAP (Itmax = 8)", &k1024.points);

    println!("LTE turbo K = 104, r = 1/3 ({frames} frames per point)\n");
    let k104 = run_observed(&engine, lte_turbo_codec(104).as_ref(), snrs, obs);
    print_curve("QPP + binary Max-Log-MAP (Itmax = 8)", &k104.points);

    vec![k1024, k104]
}

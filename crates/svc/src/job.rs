//! Job specifications: validation of `submit` requests and execution of
//! their work units.
//!
//! A job is decomposed into independent [`Unit`]s at admission time — one
//! unit per `Eb/N0` point for a BER job, one unit per standard scope for a
//! compliance job — and every unit is plain owned data, so it can be moved
//! into the shared pool as one [`fec_sched::Job`].  Units construct their
//! codec in the worker and run a **single-worker** engine (the engine's
//! per-shard RNG streams are keyed on `(seed, shard, ebn0_db)`, so a
//! point's counts are byte-identical to the same point of a one-shot
//! multi-worker curve run).
//!
//! Validation is fallible end to end: a bad standard, codec key, block
//! length or stop-rule setting turns into a `rejected` reason, never a
//! daemon panic.

use code_tables::{dvb_rcs_ctc, wifi_ldpc, wran_ldpc, LteTurboCode, Standard};
use decoder_bench::{
    dvb_rcs_turbo_codec, ldpc_codec, lte_turbo_codec, quantized_ldpc_codec, standard_snrs,
    study_engine_config, study_seed, turbo_codec, wifi_ldpc_codec, wran_ldpc_codec, AdaptiveFlags,
    CodecClass, LdpcFlavor,
};
use fec_channel::sim::{FecCodec, SimulationEngine};
use fec_channel::{AwgnChannel, EbN0};
use fec_json::{Json, ToJson};
use fec_sched::Priority;
use noc_decoder::{run_multi_compliance_sharded, ComplianceScope, DecoderConfig};
use wimax_ldpc::{CodeRate, QcLdpcCode};
use wimax_turbo::{CtcCode, ExtrinsicExchange};

use crate::protocol::as_u64;

/// A validated, admitted job: its display label, scheduling priority and
/// the work units the scheduler hands to the pool.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job kind, `"ber"` or `"compliance"`.
    pub kind: &'static str,
    /// Display label (the codec name for BER jobs, the scope for
    /// compliance jobs) — matches the `label` of the one-shot CLI output.
    pub label: String,
    /// Scheduling priority at the shared pool.
    pub priority: Priority,
    /// The independent work units, in submission order.
    pub units: Vec<Unit>,
}

/// One independent work unit of a job; plain owned data, safe to move into
/// a pool worker.
#[derive(Debug, Clone)]
pub enum Unit {
    /// One `Eb/N0` point of a BER study curve.
    Ber {
        /// The curve family settings shared by the job's points.
        spec: BerSpec,
        /// The point's `Eb/N0` in dB.
        ebn0_db: f64,
    },
    /// One standard's compliance sweep at the paper design point.
    Compliance {
        /// The standard to evaluate.
        standard: Standard,
        /// `true` for the full code set, `false` for the corner subset.
        full: bool,
    },
}

/// Which decoder a BER job runs, named like the CLI flags that select it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKey {
    /// Layered normalized min-sum, f64 reference datapath.
    Layered,
    /// Two-phase flooding normalized min-sum.
    Flooding,
    /// Fixed-point layered min-sum (the hardware datapath model).
    Quantized,
    /// Binary turbo (LTE only).
    Turbo,
    /// Duo-binary CTC with symbol-level extrinsic exchange.
    TurboSymbol,
    /// Duo-binary CTC with bit-level extrinsic exchange.
    TurboBit,
}

/// The settings of one BER curve family, identical to a `ber_study` run
/// with the same options (same seed, same engine assembly).
#[derive(Debug, Clone)]
pub struct BerSpec {
    /// The standard whose code is decoded.
    pub standard: Standard,
    /// The decoder flavour.
    pub codec: CodecKey,
    /// Block size: LDPC length `n`, turbo info bits `k`, or CTC couples.
    pub block: usize,
    /// λ quantization width for the WiMAX fixed-point datapath.
    pub lambda_bits: u32,
    /// Frames per point (exact in fixed mode, a cap in adaptive mode).
    pub frames: u64,
    /// Frames per decode call (`FecCodec::decode_frames`).
    pub batch_frames: usize,
    /// Optional confidence-targeted stop rule.
    pub adaptive: Option<AdaptiveFlags>,
}

impl BerSpec {
    fn class(&self) -> CodecClass {
        match self.codec {
            CodecKey::Layered | CodecKey::Flooding | CodecKey::Quantized => CodecClass::Ldpc,
            CodecKey::Turbo | CodecKey::TurboSymbol | CodecKey::TurboBit => CodecClass::Turbo,
        }
    }

    /// Builds the codec.  Infallible after [`parse`] validated the block.
    fn build_codec(&self) -> Box<dyn FecCodec> {
        let flavor = match self.codec {
            CodecKey::Layered => Some(LdpcFlavor::Layered),
            CodecKey::Flooding => Some(LdpcFlavor::Flooding),
            CodecKey::Quantized => Some(LdpcFlavor::Quantized),
            _ => None,
        };
        match (self.standard, self.codec) {
            (Standard::Wimax, CodecKey::Quantized) => {
                quantized_ldpc_codec(self.block, self.lambda_bits)
            }
            (Standard::Wimax, CodecKey::TurboSymbol) => {
                turbo_codec(self.block, ExtrinsicExchange::SymbolLevel)
            }
            (Standard::Wimax, CodecKey::TurboBit) => {
                turbo_codec(self.block, ExtrinsicExchange::BitLevel)
            }
            (Standard::Wimax, _) => ldpc_codec(self.block, flavor.expect("ldpc key")),
            (Standard::Wifi80211n, _) => wifi_ldpc_codec(self.block, flavor.expect("ldpc key")),
            (Standard::Wran80222, _) => wran_ldpc_codec(self.block, flavor.expect("ldpc key")),
            (Standard::Lte, _) => lte_turbo_codec(self.block),
            (Standard::DvbRcs, CodecKey::TurboSymbol) => {
                dvb_rcs_turbo_codec(self.block, ExtrinsicExchange::SymbolLevel)
            }
            (Standard::DvbRcs, _) => dvb_rcs_turbo_codec(self.block, ExtrinsicExchange::BitLevel),
        }
    }

    fn engine(&self) -> SimulationEngine {
        // One worker: the unit runs serial inline on the pool worker it was
        // scheduled on — no nested thread fan-out — and its counts are
        // byte-identical to any multi-worker one-shot run of the same point.
        SimulationEngine::new(study_engine_config(
            self.frames,
            1,
            self.batch_frames,
            self.adaptive,
            study_seed(self.standard, self.class()),
        ))
    }
}

/// Validates a `submit` request object into a [`JobSpec`].  The error
/// string becomes the `rejected` reason verbatim.
pub fn parse(request: &Json) -> Result<JobSpec, String> {
    let priority = match request.get("priority").map(|v| v.as_str()) {
        None => Priority::Normal,
        Some(Some("high")) => Priority::High,
        Some(Some("normal")) => Priority::Normal,
        Some(Some("low")) => Priority::Low,
        Some(_) => return Err("\"priority\" must be \"high\", \"normal\" or \"low\"".to_string()),
    };
    match request.get("job").and_then(Json::as_str) {
        Some("ber") => parse_ber(request, priority),
        Some("compliance") => parse_compliance(request, priority),
        Some(other) => Err(format!(
            "unknown job kind {other:?} (valid: ber, compliance)"
        )),
        None => Err("submit needs a \"job\" field (\"ber\" or \"compliance\")".to_string()),
    }
}

fn parse_standard(request: &Json) -> Result<Option<Standard>, String> {
    match request.get("standard") {
        None => Ok(None),
        Some(v) => {
            let name = v.as_str().ok_or("\"standard\" must be a string")?;
            name.parse().map(Some).map_err(|e| format!("{e}"))
        }
    }
}

fn parse_ber(request: &Json, priority: Priority) -> Result<JobSpec, String> {
    let standard = parse_standard(request)?.unwrap_or(Standard::Wimax);
    let codec = match request.get("codec").map(|v| v.as_str()) {
        None => Ok(match standard {
            Standard::Lte => CodecKey::Turbo,
            Standard::DvbRcs => CodecKey::TurboBit,
            _ => CodecKey::Layered,
        }),
        Some(Some("layered")) => Ok(CodecKey::Layered),
        Some(Some("flooding")) => Ok(CodecKey::Flooding),
        Some(Some("quantized")) => Ok(CodecKey::Quantized),
        Some(Some("turbo")) => Ok(CodecKey::Turbo),
        Some(Some("turbo-symbol")) => Ok(CodecKey::TurboSymbol),
        Some(Some("turbo-bit")) => Ok(CodecKey::TurboBit),
        Some(_) => Err(
            "\"codec\" must be one of layered, flooding, quantized, turbo, \
                        turbo-symbol, turbo-bit"
                .to_string(),
        ),
    }?;
    validate_combo(standard, codec)?;

    let block = match request.get("block") {
        None => default_block(standard, codec),
        Some(v) => as_u64(v).ok_or("\"block\" must be a positive integer")? as usize,
    };
    validate_block(standard, codec, block)?;

    let lambda_bits = match request.get("lambda_bits") {
        None => 7,
        Some(v) => {
            if !(standard == Standard::Wimax && codec == CodecKey::Quantized) {
                return Err(
                    "\"lambda_bits\" is only meaningful for the wimax quantized codec".to_string(),
                );
            }
            let bits = as_u64(v).ok_or("\"lambda_bits\" must be a positive integer")?;
            if !(2..=15).contains(&bits) {
                return Err("\"lambda_bits\" must be in 2..=15".to_string());
            }
            bits as u32
        }
    };

    let frames = match request.get("frames") {
        None => 60,
        Some(v) => match as_u64(v) {
            Some(f) if f > 0 => f,
            _ => return Err("\"frames\" must be a positive integer".to_string()),
        },
    };
    let batch_frames = match request.get("batch_frames") {
        None => 1,
        Some(v) => match as_u64(v) {
            Some(b) if b > 0 => b as usize,
            _ => return Err("\"batch_frames\" must be a positive integer".to_string()),
        },
    };
    let adaptive = match request.get("adaptive") {
        None | Some(Json::Bool(false)) => None,
        Some(Json::Bool(true)) => Some(AdaptiveFlags::default()),
        Some(obj @ Json::Obj(_)) => {
            let mut flags = AdaptiveFlags::default();
            if let Some(w) = obj.get("target_rel_width") {
                flags.target_rel_width =
                    w.as_f64().ok_or("\"target_rel_width\" must be a number")?;
            }
            if let Some(c) = obj.get("confidence") {
                flags.confidence = c.as_f64().ok_or("\"confidence\" must be a number")?;
            }
            Some(flags)
        }
        Some(_) => return Err("\"adaptive\" must be a bool or an object".to_string()),
    };
    let snrs = match request.get("snrs") {
        None => standard_snrs(standard).to_vec(),
        Some(v) => {
            let items = v.as_array().ok_or("\"snrs\" must be an array of numbers")?;
            if items.is_empty() {
                return Err("\"snrs\" must not be empty".to_string());
            }
            items
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| "\"snrs\" must be an array of numbers".to_string())
                })
                .collect::<Result<Vec<f64>, String>>()?
        }
    };

    let spec = BerSpec {
        standard,
        codec,
        block,
        lambda_bits,
        frames,
        batch_frames,
        adaptive,
    };
    // Reuse the engine's own validation for the stop-rule ranges so the
    // daemon rejects exactly what the CLI would panic on.
    spec.engine_config_for_validation().validate()?;
    let codec = spec.build_codec();
    // 10^(dB/10) overflows above about 3083 dB and underflows to 0 below
    // about -3233 dB (the exact rails depend on the code rate); the AWGN
    // channel needs a finite, positive noise variance.
    for &ebn0_db in &snrs {
        let sigma2 =
            AwgnChannel::for_code_rate(EbN0::from_db(ebn0_db), codec.rate()).noise_variance();
        if !(sigma2.is_finite() && sigma2 > 0.0) {
            return Err(format!(
                "\"snrs\" value {ebn0_db:?} dB has no finite noise variance"
            ));
        }
    }
    let label = codec.name();
    let units = snrs
        .into_iter()
        .map(|ebn0_db| Unit::Ber {
            spec: spec.clone(),
            ebn0_db,
        })
        .collect();
    Ok(JobSpec {
        kind: "ber",
        label,
        priority,
        units,
    })
}

impl BerSpec {
    fn engine_config_for_validation(&self) -> fec_channel::sim::EngineConfig {
        study_engine_config(
            self.frames,
            1,
            self.batch_frames,
            self.adaptive,
            study_seed(self.standard, self.class()),
        )
    }
}

fn parse_compliance(request: &Json, priority: Priority) -> Result<JobSpec, String> {
    let standard = parse_standard(request)?;
    let full = match request.get("scope").map(|v| v.as_str()) {
        None | Some(Some("corners")) => false,
        Some(Some("full")) => true,
        Some(_) => return Err("\"scope\" must be \"corners\" or \"full\"".to_string()),
    };
    let standards: Vec<Standard> = match standard {
        Some(s) => vec![s],
        None => Standard::all().to_vec(),
    };
    let label = format!(
        "compliance-{}-{}",
        if full { "full" } else { "corners" },
        standard.map_or("all".to_string(), |s| s.flag().to_string())
    );
    let units = standards
        .into_iter()
        .map(|standard| Unit::Compliance { standard, full })
        .collect();
    Ok(JobSpec {
        kind: "compliance",
        label,
        priority,
        units,
    })
}

/// Standard/codec combinations the registries can actually build.
fn validate_combo(standard: Standard, codec: CodecKey) -> Result<(), String> {
    let ok = match standard {
        Standard::Wimax => codec != CodecKey::Turbo,
        Standard::Wifi80211n | Standard::Wran80222 => matches!(
            codec,
            CodecKey::Layered | CodecKey::Flooding | CodecKey::Quantized
        ),
        Standard::Lte => codec == CodecKey::Turbo,
        Standard::DvbRcs => matches!(codec, CodecKey::TurboSymbol | CodecKey::TurboBit),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "codec is not available for standard {}",
            standard.flag()
        ))
    }
}

/// The `ber_study` default block per `(standard, codec class)` family.
fn default_block(standard: Standard, codec: CodecKey) -> usize {
    match (standard, codec) {
        (Standard::Wimax, CodecKey::TurboSymbol | CodecKey::TurboBit) => 240,
        (Standard::Wimax, _) => 576,
        (Standard::Wifi80211n, _) => 648,
        (Standard::Wran80222, _) => 480,
        (Standard::Lte, _) => 1024,
        (Standard::DvbRcs, _) => 212,
    }
}

/// Checks the block against the standard's code registry without
/// constructing a decoder (the same tables the codec builders `expect` on).
fn validate_block(standard: Standard, codec: CodecKey, block: usize) -> Result<(), String> {
    let result = match (standard, codec) {
        (Standard::Wimax, CodecKey::TurboSymbol | CodecKey::TurboBit) => CtcCode::wimax(block)
            .map(|_| ())
            .map_err(|e| format!("{e:?}")),
        (Standard::Wimax, _) => QcLdpcCode::wimax(block, CodeRate::R12)
            .map(|_| ())
            .map_err(|e| format!("{e:?}")),
        (Standard::Wifi80211n, _) => wifi_ldpc(block, CodeRate::R12)
            .map(|_| ())
            .map_err(|e| format!("{e:?}")),
        (Standard::Wran80222, _) => wran_ldpc(block, CodeRate::R12)
            .map(|_| ())
            .map_err(|e| format!("{e:?}")),
        (Standard::Lte, _) => LteTurboCode::new(block)
            .map(|_| ())
            .map_err(|e| format!("{e:?}")),
        (Standard::DvbRcs, _) => dvb_rcs_ctc(block).map(|_| ()).map_err(|e| format!("{e:?}")),
    };
    result.map_err(|e| format!("invalid block {block} for {}: {e}", standard.flag()))
}

/// Executes one work unit, returning its result rows in order.  Panics in
/// the decode path (none are expected after validation) are caught and
/// turned into an error string, so a failing job never takes the daemon or
/// its pool down.
pub fn run_unit(unit: &Unit) -> Result<Vec<Json>, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_unit_inner(unit))) {
        Ok(result) => result,
        Err(panic) => Err(panic_message(&panic)),
    }
}

fn run_unit_inner(unit: &Unit) -> Result<Vec<Json>, String> {
    match unit {
        Unit::Ber { spec, ebn0_db } => {
            let codec = spec.build_codec();
            let point = spec.engine().run_point(codec.as_ref(), *ebn0_db);
            Ok(vec![Json::obj([
                ("label", Json::str(codec.name())),
                ("point", point.to_json()),
            ])])
        }
        Unit::Compliance { standard, full } => {
            let scope = if *full {
                ComplianceScope::full(*standard)
            } else {
                ComplianceScope::corners(*standard)
            };
            let mut rows = Vec::new();
            run_multi_compliance_sharded(
                &DecoderConfig::paper_design_point(),
                &[scope],
                1,
                |_, entry| rows.push(entry.to_json()),
            )
            .map_err(|e| format!("{e}"))?;
            Ok(rows)
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("unit panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("unit panicked: {s}")
    } else {
        "unit panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn ber_defaults_mirror_ber_study() {
        let spec = parse(&submit(r#"{"type":"submit","job":"ber"}"#)).unwrap();
        assert_eq!(spec.kind, "ber");
        assert_eq!(spec.label, "wimax-ldpc-n576-layered");
        assert_eq!(spec.priority, Priority::Normal);
        assert_eq!(spec.units.len(), standard_snrs(Standard::Wimax).len());
        let Unit::Ber { spec: ber, ebn0_db } = &spec.units[0] else {
            panic!("expected a BER unit");
        };
        assert_eq!(ber.frames, 60);
        assert_eq!(ber.batch_frames, 1);
        assert_eq!(*ebn0_db, standard_snrs(Standard::Wimax)[0]);
    }

    #[test]
    fn ber_options_are_honored() {
        let spec = parse(&submit(
            r#"{"type":"submit","job":"ber","standard":"dvbrcs","codec":"turbo-symbol",
               "block":48,"frames":10,"priority":"high","snrs":[2.0,3.0]}"#,
        ))
        .unwrap();
        assert_eq!(spec.label, "dvbrcs-ctc-48c-symbol");
        assert_eq!(spec.priority, Priority::High);
        assert_eq!(spec.units.len(), 2);
    }

    #[test]
    fn invalid_submissions_are_rejected_with_reasons() {
        let cases = [
            (r#"{"type":"submit"}"#, "\"job\" field"),
            (r#"{"type":"submit","job":"fly"}"#, "unknown job kind"),
            (
                r#"{"type":"submit","job":"ber","standard":"gsm"}"#,
                "unknown standard",
            ),
            (
                r#"{"type":"submit","job":"ber","codec":"warp"}"#,
                "\"codec\" must be",
            ),
            (
                r#"{"type":"submit","job":"ber","standard":"lte","codec":"layered"}"#,
                "not available",
            ),
            (
                r#"{"type":"submit","job":"ber","block":577}"#,
                "invalid block 577",
            ),
            (r#"{"type":"submit","job":"ber","frames":0}"#, "\"frames\""),
            (
                r#"{"type":"submit","job":"ber","priority":"urgent"}"#,
                "\"priority\"",
            ),
            (
                r#"{"type":"submit","job":"ber","adaptive":{"confidence":2.0}}"#,
                "confidence",
            ),
            (
                r#"{"type":"submit","job":"compliance","scope":"half"}"#,
                "\"scope\"",
            ),
        ];
        for (text, needle) in cases {
            let err = parse(&submit(text)).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn compliance_jobs_decompose_per_standard() {
        let spec = parse(&submit(r#"{"type":"submit","job":"compliance"}"#)).unwrap();
        assert_eq!(spec.kind, "compliance");
        assert_eq!(spec.label, "compliance-corners-all");
        assert_eq!(spec.units.len(), Standard::all().len());
        let one = parse(&submit(
            r#"{"type":"submit","job":"compliance","standard":"wimax","scope":"full"}"#,
        ))
        .unwrap();
        assert_eq!(one.label, "compliance-full-wimax");
        assert_eq!(one.units.len(), 1);
    }

    #[test]
    fn ber_unit_rows_match_the_one_shot_engine_point() {
        let spec = parse(&submit(
            r#"{"type":"submit","job":"ber","frames":5,"snrs":[2.0]}"#,
        ))
        .unwrap();
        let rows = run_unit(&spec.units[0]).unwrap();
        assert_eq!(rows.len(), 1);
        // The reference: the same engine assembly the CLI uses, at a
        // different worker count — bit-identical by the engine contract.
        let engine = SimulationEngine::new(study_engine_config(
            5,
            4,
            1,
            None,
            study_seed(Standard::Wimax, CodecClass::Ldpc),
        ));
        let reference = engine.run_point(
            decoder_bench::ldpc_codec(576, LdpcFlavor::Layered).as_ref(),
            2.0,
        );
        assert_eq!(
            rows[0].get("point").unwrap().to_string(),
            reference.to_json().to_string()
        );
        assert_eq!(
            rows[0].get("label").and_then(Json::as_str),
            Some("wimax-ldpc-n576-layered")
        );
    }

    #[test]
    fn compliance_unit_produces_corner_rows() {
        let rows = run_unit(&Unit::Compliance {
            standard: Standard::DvbRcs,
            full: false,
        })
        .unwrap();
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(row.get("throughput_mbps").is_some(), "{row}");
        }
    }
}

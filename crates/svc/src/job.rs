//! Job specifications: validation of `submit` requests and execution of
//! their work units.
//!
//! A job is decomposed into independent [`Unit`]s at admission time — one
//! unit per `Eb/N0` point for a BER job, one unit per standard scope for a
//! compliance job — and every unit is owned data, so it can be moved into
//! the shared pool as one [`fec_sched::Job`].  A BER job's units share the
//! codec built once at validation, and each runs a **single-worker** engine
//! (the engine's per-shard RNG streams are keyed on `(seed, shard,
//! ebn0_db)`, so a point's counts are byte-identical to the same point of a
//! one-shot multi-worker curve run).  A compliance unit takes its LDPC
//! mappings from the [`MappingStore`] it runs with, so a daemon that keeps
//! one store maps each code once.
//!
//! Validation is fallible end to end: a bad standard, codec key, block
//! length, λ width or stop-rule setting turns into a `rejected` reason,
//! never a daemon panic.  Codecs and their block checks come from the
//! `code-tables` catalogue ([`StandardCode::resolve`] and
//! [`StandardCode::codec`]), the same constructor `ber_study` uses.

use std::sync::Arc;

use code_tables::{DecoderKind, Standard, StandardCode};
use decoder_bench::{standard_snrs, study_engine_config, study_seed, AdaptiveFlags};
use fec_channel::sim::{EngineConfig, FecCodec, SimulationEngine};
use fec_channel::{AwgnChannel, EbN0};
use fec_json::{Json, ToJson};
use fec_sched::Priority;
use noc_decoder::{run_multi_compliance_with_store, ComplianceScope, DecoderConfig, MappingStore};
use wimax_turbo::ExtrinsicExchange;

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

/// One independent work unit of a job; owned data, safe to move into a
/// pool worker.
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

/// The settings of one BER curve family, identical to a `ber_study` run
/// with the same options (same seed, same engine assembly).
#[derive(Clone)]
pub struct BerSpec {
    /// The standard whose code is decoded.
    pub standard: Standard,
    /// The decoder, with its λ width on the fixed-point datapath.
    pub decoder: DecoderKind,
    /// The catalogue codec, built once when the job is validated and
    /// shared by its units.
    pub codec: Arc<dyn FecCodec>,
    /// Frames per point (exact in fixed mode, a cap in adaptive mode).
    pub frames: u64,
    /// The most frames one decode call (`FecCodec::decode_frames`) holds
    /// in flight: the unit streams its point's frames through that many
    /// lanes of the fixed-point decoder (the widest of 1, 2, 4, 8 and 16 not
    /// above it); other codecs decode one frame at a time.
    pub batch_frames: usize,
    /// Optional confidence-targeted stop rule.
    pub adaptive: Option<AdaptiveFlags>,
}

impl std::fmt::Debug for BerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BerSpec")
            .field("standard", &self.standard)
            .field("decoder", &self.decoder)
            .field("codec", &self.codec.name())
            .field("frames", &self.frames)
            .field("batch_frames", &self.batch_frames)
            .field("adaptive", &self.adaptive)
            .finish()
    }
}

impl BerSpec {
    /// One worker: the unit runs serial inline on the pool worker it was
    /// scheduled on — no nested thread fan-out — and its counts are
    /// byte-identical to any multi-worker one-shot run of the same point.
    fn engine_config(&self) -> EngineConfig {
        study_engine_config(
            self.frames,
            1,
            self.batch_frames,
            self.adaptive,
            study_seed(self.standard, self.decoder),
        )
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
    let mut decoder = match request.get("codec").map(|v| v.as_str()) {
        None => match standard {
            Standard::Lte => DecoderKind::Turbo,
            Standard::DvbRcs => DecoderKind::Ctc(ExtrinsicExchange::BitLevel),
            _ => DecoderKind::Layered,
        },
        Some(Some("layered")) => DecoderKind::Layered,
        Some(Some("flooding")) => DecoderKind::Flooding,
        Some(Some("quantized")) => DecoderKind::Quantized { lambda_bits: 7 },
        Some(Some("turbo")) => DecoderKind::Turbo,
        Some(Some("turbo-symbol")) => DecoderKind::Ctc(ExtrinsicExchange::SymbolLevel),
        Some(Some("turbo-bit")) => DecoderKind::Ctc(ExtrinsicExchange::BitLevel),
        Some(_) => {
            return Err(
                "\"codec\" must be one of layered, flooding, quantized, turbo, \
                        turbo-symbol, turbo-bit"
                    .to_string(),
            )
        }
    };
    let block = match request.get("block") {
        None => default_block(standard, decoder),
        Some(v) => as_u64(v).ok_or("\"block\" must be a positive integer")? as usize,
    };
    let code = StandardCode::resolve(standard, decoder, block)?;
    if let Some(v) = request.get("lambda_bits") {
        if !(standard == Standard::Wimax && matches!(decoder, DecoderKind::Quantized { .. })) {
            return Err(
                "\"lambda_bits\" is only meaningful for the wimax quantized codec".to_string(),
            );
        }
        let bits = as_u64(v).ok_or("\"lambda_bits\" must be a positive integer")?;
        // A width beyond `u32` is outside the catalogue's range as well.
        let lambda_bits = u32::try_from(bits).unwrap_or(u32::MAX);
        decoder = DecoderKind::Quantized { lambda_bits };
    }
    let codec: Arc<dyn FecCodec> = Arc::from(code.codec(decoder)?);

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

    let label = codec.name();
    let spec = BerSpec {
        standard,
        decoder,
        codec,
        frames,
        batch_frames,
        adaptive,
    };
    // Reuse the engine's own validation for the stop-rule ranges so the
    // daemon rejects exactly what `ber_study` rejects.
    spec.engine_config().validate()?;
    // 10^(dB/10) overflows above about 3083 dB and underflows to 0 below
    // about -3233 dB (the exact rails depend on the code rate); the AWGN
    // channel needs a finite, positive noise variance.
    for &ebn0_db in &snrs {
        let sigma2 =
            AwgnChannel::for_code_rate(EbN0::from_db(ebn0_db), spec.codec.rate()).noise_variance();
        if !(sigma2.is_finite() && sigma2 > 0.0) {
            return Err(format!(
                "\"snrs\" value {ebn0_db:?} dB has no finite noise variance"
            ));
        }
    }
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

/// The `ber_study` default block per `(standard, decoder)` family.
fn default_block(standard: Standard, decoder: DecoderKind) -> usize {
    match (standard, decoder) {
        (Standard::Wimax, DecoderKind::Ctc(_)) => 240,
        (Standard::Wimax, _) => 576,
        (Standard::Wifi80211n, _) => 648,
        (Standard::Wran80222, _) => 480,
        (Standard::Lte, _) => 1024,
        (Standard::DvbRcs, _) => 212,
    }
}

/// Executes one work unit, returning its result rows in order.  A
/// compliance unit maps its LDPC codes anew; see [`run_unit_with_store`].
pub fn run_unit(unit: &Unit) -> Result<Vec<Json>, String> {
    run_unit_with_store(unit, &MappingStore::new())
}

/// Executes one work unit, a compliance unit taking its LDPC mappings from
/// `mappings` and adding the codes it is the first to map.  The rows are
/// those of [`run_unit`].  Panics in the decode path (none are expected
/// after validation) are caught and turned into an error string, so a
/// failing job never takes the daemon or its pool down.
pub fn run_unit_with_store(unit: &Unit, mappings: &MappingStore) -> Result<Vec<Json>, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_unit_inner(unit, mappings)
    })) {
        Ok(result) => result,
        Err(panic) => Err(panic_message(&panic)),
    }
}

fn run_unit_inner(unit: &Unit, mappings: &MappingStore) -> Result<Vec<Json>, String> {
    match unit {
        Unit::Ber { spec, ebn0_db } => {
            let engine = SimulationEngine::new(spec.engine_config());
            let point = engine.run_point(spec.codec.as_ref(), *ebn0_db);
            Ok(vec![Json::obj([
                ("label", Json::str(spec.codec.name())),
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
            run_multi_compliance_with_store(
                &DecoderConfig::paper_design_point(),
                &[scope],
                1,
                mappings,
                None,
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
                r#"{"type":"submit","job":"ber","standard":"80211n","codec":"turbo-bit"}"#,
                "not available",
            ),
            (
                r#"{"type":"submit","job":"ber","block":577}"#,
                "invalid block 577",
            ),
            (
                r#"{"type":"submit","job":"ber","codec":"quantized","lambda_bits":16}"#,
                "\"lambda_bits\" must be in 2..=15",
            ),
            (
                r#"{"type":"submit","job":"ber","standard":"80211n","codec":"quantized","lambda_bits":6}"#,
                "only meaningful",
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

    /// Every accepted `(standard, codec)` combination, at its default
    /// block: the unit's row is the one-shot engine point of the catalogue
    /// codec, at a different worker count — bit-identical by the engine
    /// contract.
    #[test]
    fn ber_unit_rows_match_the_one_shot_engine_point() {
        use DecoderKind::{Ctc, Flooding, Layered, Quantized, Turbo};
        use ExtrinsicExchange::{BitLevel, SymbolLevel};
        let q7 = Quantized { lambda_bits: 7 };
        let combos = [
            ("wimax", "layered", Layered, 576, "wimax-ldpc-n576-layered"),
            (
                "wimax",
                "flooding",
                Flooding,
                576,
                "wimax-ldpc-n576-flooding",
            ),
            ("wimax", "quantized", q7, 576, "wimax-ldpc-n576-layered-q7"),
            (
                "wimax",
                "turbo-symbol",
                Ctc(SymbolLevel),
                240,
                "wimax-ctc-240c-symbol",
            ),
            (
                "wimax",
                "turbo-bit",
                Ctc(BitLevel),
                240,
                "wimax-ctc-240c-bit",
            ),
            (
                "80211n",
                "layered",
                Layered,
                648,
                "80211n-ldpc-n648-layered",
            ),
            (
                "80211n",
                "flooding",
                Flooding,
                648,
                "80211n-ldpc-n648-flooding",
            ),
            (
                "80211n",
                "quantized",
                q7,
                648,
                "80211n-ldpc-n648-layered-q7",
            ),
            ("80222", "layered", Layered, 480, "80222-ldpc-n480-layered"),
            (
                "80222",
                "flooding",
                Flooding,
                480,
                "80222-ldpc-n480-flooding",
            ),
            ("80222", "quantized", q7, 480, "80222-ldpc-n480-layered-q7"),
            ("lte", "turbo", Turbo, 1024, "lte-turbo-k1024"),
            (
                "dvbrcs",
                "turbo-symbol",
                Ctc(SymbolLevel),
                212,
                "dvbrcs-ctc-212c-symbol",
            ),
            (
                "dvbrcs",
                "turbo-bit",
                Ctc(BitLevel),
                212,
                "dvbrcs-ctc-212c-bit",
            ),
        ];
        for (flag, key, decoder, block, label) in combos {
            let spec = parse(&submit(&format!(
                r#"{{"type":"submit","job":"ber","standard":"{flag}","codec":"{key}",
                   "frames":2,"snrs":[2.0]}}"#
            )))
            .unwrap();
            assert_eq!(spec.label, label);
            let rows = run_unit(&spec.units[0]).unwrap();
            assert_eq!(rows.len(), 1, "{label}");
            let standard: Standard = flag.parse().unwrap();
            let engine = SimulationEngine::new(study_engine_config(
                2,
                4,
                1,
                None,
                study_seed(standard, decoder),
            ));
            let codec = StandardCode::resolve(standard, decoder, block)
                .and_then(|code| code.codec(decoder))
                .unwrap();
            let reference = engine.run_point(codec.as_ref(), 2.0);
            assert_eq!(
                rows[0].get("point").unwrap().to_string(),
                reference.to_json().to_string(),
                "{label}"
            );
            assert_eq!(rows[0].get("label").and_then(Json::as_str), Some(label));
        }
    }

    #[test]
    fn a_q7_ber_unit_streams_its_frames_through_its_lanes() {
        // A 24-frame unit runs one round on its 1-worker engine: one stream,
        // decoded on the 8 lanes its batch size asks for, with the row bytes
        // of the same point decoded one frame per call on 4 workers.
        let job = parse(&submit(
            r#"{"type":"submit","job":"ber","standard":"wimax","codec":"quantized",
               "frames":24,"batch_frames":8,"snrs":[1.5]}"#,
        ))
        .unwrap();
        let Unit::Ber { spec, ebn0_db } = &job.units[0] else {
            panic!("expected a BER unit");
        };
        let rows = run_unit(&job.units[0]).unwrap();
        let reference = SimulationEngine::new(study_engine_config(
            24,
            4,
            1,
            None,
            study_seed(Standard::Wimax, spec.decoder),
        ))
        .run_point(spec.codec.as_ref(), *ebn0_db);
        assert_eq!(
            rows[0].get("point").unwrap().to_string(),
            reference.to_json().to_string()
        );

        let mut obs = fec_obs::Registry::new();
        SimulationEngine::new(spec.engine_config()).run_curve_observed(
            spec.codec.as_ref(),
            &[*ebn0_db],
            &fec_obs::ManualClock::new(),
            &mut obs,
        );
        let Some(fec_obs::MetricValue::Histogram(widths)) =
            obs.get("fixed.lane_width").map(|m| &m.value)
        else {
            panic!("the q7 decoder records its lane width");
        };
        assert_eq!((widths.total(), widths.sum()), (1, 8));
        assert_eq!(obs.counter("fixed.frames"), Some(24));
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

//! `BENCHMARK.json`: the declared workloads and metrics this program must
//! report.  The benchmark reads the file at start-up and refuses to print
//! a result whose metric set or units differ from the declaration.

use fec_json::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit (see [`valid_unit`]).
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of traced runs.
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// The metrics a run in the given mode must report.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// A metric or workload name: 1 to 64 ASCII letters, digits, `_`, `.` and
/// `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 ASCII letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

const TOP_KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

/// Parses and validates the text of `BENCHMARK.json`.
///
/// # Errors
///
/// Names the first key, name, unit or bound that breaks the format.
pub fn parse(text: &str) -> Result<BenchSpec, String> {
    let root = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Json::Obj(pairs) = &root else {
        return Err("BENCHMARK.json: top level must be an object".into());
    };
    exact_keys(pairs, &TOP_KEYS, "top level")?;

    let mut names = Vec::new();
    let mut workloads = Vec::new();
    let declared = array(&root, "workloads")?;
    if !(2..=8).contains(&declared.len()) {
        return Err("workloads must list 2 to 8 entries".into());
    }
    for w in declared {
        let Json::Obj(pairs) = w else {
            return Err("each workload must be an object".into());
        };
        exact_keys(pairs, &["name", "why"], "workload")?;
        let name = string(w, "name")?;
        let why = string(w, "why")?;
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workload {name}: why must be one line of at most 200 characters"
            ));
        }
        fresh_name(&mut names, &name)?;
        workloads.push(name);
    }
    let end_to_end = metrics(&root, "end_to_end", 1..=16, true, &mut names)?;
    let per_layer = metrics(&root, "per_layer", 1..=128, false, &mut names)?;
    let setup = end_to_end.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && !m.higher_is_better) {
        return Err("end_to_end must declare setup_s in s, lower is better".into());
    }
    Ok(BenchSpec {
        workloads,
        end_to_end,
        per_layer,
    })
}

fn metrics(
    root: &Json,
    key: &str,
    count: std::ops::RangeInclusive<usize>,
    bounded: bool,
    names: &mut Vec<String>,
) -> Result<Vec<MetricSpec>, String> {
    let items = array(root, key)?;
    if !count.contains(&items.len()) {
        return Err(format!(
            "{key} must list {} to {} metrics",
            count.start(),
            count.end()
        ));
    }
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    let mut out = Vec::new();
    for item in items {
        let Json::Obj(pairs) = item else {
            return Err(format!("each {key} metric must be an object"));
        };
        exact_keys(pairs, keys, key)?;
        let name = string(item, "name")?;
        fresh_name(names, &name)?;
        let unit = string(item, "unit")?;
        if !valid_unit(&unit) {
            return Err(format!("metric {name}: invalid unit {unit:?}"));
        }
        let higher_is_better = match string(item, "better")?.as_str() {
            "higher" => true,
            "lower" => false,
            other => {
                return Err(format!(
                    "metric {name}: better must be higher or lower, not {other:?}"
                ))
            }
        };
        let bound = if bounded {
            match item.get("bound").and_then(Json::as_f64) {
                Some(b) if b > 0.0 && b <= 0.25 => Some(b),
                _ => return Err(format!("metric {name}: bound must be in (0, 0.25]")),
            }
        } else {
            None
        };
        out.push(MetricSpec {
            name,
            unit,
            higher_is_better,
            bound,
        });
    }
    Ok(out)
}

fn exact_keys(pairs: &[(String, Json)], want: &[&str], what: &str) -> Result<(), String> {
    let mut have: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    have.sort_unstable();
    let mut want = want.to_vec();
    want.sort_unstable();
    if have == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: keys must be exactly {want:?}, found {have:?}"
        ))
    }
}

fn fresh_name(names: &mut Vec<String>, name: &str) -> Result<(), String> {
    if !valid_name(name) {
        return Err(format!("invalid name {name:?}"));
    }
    if names.iter().any(|n| n == name) {
        return Err(format!("name {name:?} is used twice"));
    }
    names.push(name.to_string());
    Ok(())
}

fn array<'a>(root: &'a Json, key: &str) -> Result<&'a [Json], String> {
    root.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{key} must be a list"))
}

fn string(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{key} must be a string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
      "command": ["bash", "perfbench/run.sh"],
      "paths": ["perfbench"],
      "run_seconds": 10,
      "workloads": [
        {"name": "hit", "why": "repeated keys"},
        {"name": "miss", "why": "distinct keys"}
      ],
      "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
      ],
      "per_layer": [
        {"name": "fec-sched.busy_pct", "unit": "%", "better": "higher"}
      ]
    }"#;

    #[test]
    fn names_allow_letters_digits_and_three_punctuation_marks() {
        for ok in ["setup_s", "fec-sched.busy_pct", "p50", "9lives", "a.b-c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "pct%",
            "é",
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
        for ok in ["ms", "1/s", "%", "count", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "a".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn parses_the_declared_workloads_and_metrics() {
        let spec = parse(MINIMAL).unwrap();
        assert_eq!(spec.workloads, vec!["hit", "miss"]);
        assert_eq!(spec.metrics(false).len(), 2);
        assert_eq!(spec.metrics(false)[0].bound, Some(0.1));
        assert!(!spec.metrics(false)[1].higher_is_better);
        assert_eq!(spec.metrics(true)[0].name, "fec-sched.busy_pct");
        assert_eq!(spec.metrics(true)[0].bound, None);
        assert!(spec.metrics(true)[0].higher_is_better);
    }

    #[test]
    fn rejects_malformed_declarations() {
        let cases = [
            (MINIMAL.replace("0.1}", "0.3}"), "bound"),
            (MINIMAL.replace("\"setup_s\"", "\"setup_ms\""), "setup_s"),
            (MINIMAL.replace("\"miss\"", "\"hit\""), "used twice"),
            (
                MINIMAL.replace("fec-sched.busy_pct", "fec sched"),
                "invalid name",
            ),
            (
                MINIMAL.replace("\"unit\": \"%\"", "\"unit\": \"per cent\""),
                "invalid unit",
            ),
            (
                MINIMAL.replace("\"better\": \"higher\"", "\"better\": \"up\""),
                "better",
            ),
            (
                MINIMAL.replace("\"paths\"", "\"extra\": 1, \"paths\""),
                "keys",
            ),
            (
                MINIMAL.replace("\"higher\"}", "\"higher\", \"bound\": 0.1}"),
                "keys",
            ),
            ("[1, 2]".to_string(), "object"),
            ("{".to_string(), "BENCHMARK.json"),
        ];
        for (text, needle) in cases {
            let err = parse(&text).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn the_committed_declaration_parses() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = parse(text).unwrap();
        assert!(spec.workloads.iter().any(|w| w == "svc_mixed"));
        assert!(spec.metrics(false).iter().all(|m| m.bound.is_some()));
    }
}

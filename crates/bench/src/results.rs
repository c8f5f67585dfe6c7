//! Machine-readable result emission for the benchmark binaries.
//!
//! Every `decoder-bench` binary accepts `--json <path>`: the produced rows
//! (BER curves, table rows) are then written as pretty-printed JSON for
//! trajectory tracking across commits.

use fec_json::{Json, ToJson};
use std::io::Write;
use std::path::Path;

/// Writes `value` to `path` as pretty-printed JSON (with a trailing
/// newline), creating parent directories as needed.
///
/// # Panics
///
/// Panics if the file cannot be written; benchmark binaries treat an
/// unwritable result path as a hard error.
pub fn write_json(path: &Path, value: &Json) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create result directory");
        }
    }
    let mut file = std::fs::File::create(path).expect("create result file");
    writeln!(file, "{}", value.to_string_pretty()).expect("write result file");
    eprintln!("wrote {}", path.display());
}

/// Convenience: serializes a slice of rows under a labelled object, e.g.
/// `{"table": "table1", "rows": [...]}`.
pub fn rows_json<T: ToJson>(table: &str, rows: &[T]) -> Json {
    Json::obj([("table", Json::str(table)), ("rows", rows.to_json())])
}

/// Incremental row streaming, re-exported from [`fec_json`] so every layer
/// (Table I sweeps, compliance sweeps) can stream completion-order rows
/// without depending on this crate.  The finished file parses to the same
/// shape as [`rows_json`] output (rows appear in completion order).
pub use fec_json::StreamedRows;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_json_roundtrip() {
        let dir = std::env::temp_dir().join("decoder-bench-test-results");
        let path = dir.join("nested").join("r.json");
        write_json(&path, &Json::obj([("k", Json::from(1u64))]));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"k\": 1"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rows_json_wraps_rows() {
        struct R;
        impl ToJson for R {
            fn to_json(&self) -> Json {
                Json::from(7u64)
            }
        }
        let json = rows_json("t", &[R, R]).to_string();
        assert_eq!(json, r#"{"table":"t","rows":[7,7]}"#);
    }
}

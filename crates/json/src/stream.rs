//! Incremental row streaming for `{"table": ..., "rows": [...]}` result
//! files.
//!
//! Lives here (rather than in the bench harness) so every layer that runs
//! on the shared work pool — Table I sweeps, compliance sweeps, BER studies
//! — can stream completion-order rows to disk without depending on the
//! bench crate.

use crate::{Json, ToJson};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Incremental writer for `{"table": ..., "rows": [...]}` result files:
/// rows are written (and flushed) *as they finish*, so a long sweep leaves a
/// useful partial file behind if interrupted and progress is observable with
/// `tail -f`.  The finished file parses to the same shape as a batch-built
/// object (rows appear in completion order).
#[derive(Debug)]
pub struct StreamedRows {
    file: std::fs::File,
    path: PathBuf,
    rows: usize,
}

impl StreamedRows {
    /// Creates the result file and writes the header.  `meta` key/value
    /// pairs are emitted before the `rows` array (e.g. the standard and the
    /// code label of a sweep).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory or the file cannot be created
    /// or the header cannot be written.
    pub fn create(path: &Path, table: &str, meta: &[(&str, Json)]) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(path)?;
        let mut header = format!("{{\"table\":{}", Json::str(table));
        for (key, value) in meta {
            header.push_str(&format!(",{}:{value}", Json::str(*key)));
        }
        header.push_str(",\"rows\":[");
        write!(file, "{header}")?;
        Ok(StreamedRows {
            file,
            path: path.to_path_buf(),
            rows: 0,
        })
    }

    /// Appends one row (compact JSON, one line) and flushes it to disk.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the row cannot be written; the row is then
    /// not counted.
    pub fn push(&mut self, row: &impl ToJson) -> std::io::Result<()> {
        let separator = if self.rows == 0 { "\n" } else { ",\n" };
        write!(self.file, "{separator}{}", row.to_json())?;
        self.file.flush()?;
        self.rows += 1;
        Ok(())
    }

    /// Number of rows written so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The path the rows are streaming to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Closes the array and the object, returning the row count.  Silent on
    /// success — a library must not chat on stderr; binaries that want a
    /// "wrote …" line print it themselves.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the trailer cannot be written.
    pub fn finish(mut self) -> std::io::Result<usize> {
        writeln!(self.file, "\n]}}")?;
        Ok(self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_rows_produce_a_parsable_labelled_object() {
        struct R(u64);
        impl ToJson for R {
            fn to_json(&self) -> Json {
                Json::obj([("v", Json::from(self.0))])
            }
        }
        let dir = std::env::temp_dir().join("fec-json-test-streamed");
        let path = dir.join("rows.json");
        let mut out =
            StreamedRows::create(&path, "t", &[("standard", Json::str("802.11n"))]).unwrap();
        assert_eq!(out.rows(), 0);
        out.push(&R(1)).unwrap();
        out.push(&R(2)).unwrap();
        assert_eq!(out.finish().unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with(r#"{"table":"t","standard":"802.11n","rows":["#),
            "{text}"
        );
        assert!(text.contains(r#"{"v":1},"#), "{text}");
        assert!(text.trim_end().ends_with("]}"), "{text}");
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("rows")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

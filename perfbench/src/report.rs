//! What one workload pass produces: metric values, operation counts, the
//! reasons for any failed check, and details for the results file.

use fec_json::Json;
use std::collections::BTreeMap;

/// The outcome of one workload pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Operations attempted (curves, jobs, replica points).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Sample counts, percentiles and load shape for the results file.
    pub details: Vec<(String, Json)>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a detail for the results file.
    pub fn detail(&mut self, key: &str, value: impl Into<Json>) {
        self.details.push((key.to_string(), value.into()));
    }

    /// Counts one attempted operation that passed its check.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Counts `ops` attempted operations that failed a check.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.attempted += ops;
        self.failed += ops;
        self.failures.push(why.into());
    }

    /// Folds a secondary pass in: its operation counts and failures add up,
    /// its metrics fill only names this report does not have yet, and its
    /// details are kept under `prefix`.
    pub fn absorb(&mut self, prefix: &str, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        for (name, value) in other.metrics {
            self.metrics.entry(name).or_insert(value);
        }
        self.details
            .push((prefix.to_string(), Json::Obj(other.details)));
    }
}

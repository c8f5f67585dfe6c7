//! Multi-standard compliance sweep: evaluates one decoder configuration on
//! the code set of each supported standard (802.16e LDPC + CTC, 802.11n
//! LDPC, LTE turbo, 802.22 LDPC, DVB-RCS CTC) and reports the worst-case
//! throughput of each mode against the *standard's own* throughput
//! requirement.
//!
//! This backs the paper's central claim that the chosen `P = 22` design is a
//! flexible decoder "supporting the whole set of turbo and LDPC codes" — and
//! extends it across standards, which is exactly the flexibility argument of
//! the NoC-based fabric.

use crate::config::DecoderConfig;
use crate::evaluation::{evaluate_standard_code, DecoderError};
use code_tables::{Standard, StandardCode};
use fec_json::{Json, ToJson};
use fec_obs::{Class, Clock, Registry};
use fec_sched::{PoolObs, WorkPool};
use noc_mapping::MappingStore;

/// The result of evaluating one code of a compliance sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplianceEntry {
    /// The standard the code belongs to (e.g. "802.11n").
    pub standard: String,
    /// Human-readable code label (e.g. "802.16e LDPC 2304 r=1/2").
    pub code: String,
    /// Information bits per frame.
    pub info_bits: usize,
    /// Evaluated throughput in Mb/s.
    pub throughput_mbps: f64,
    /// Message-passing phase duration in cycles.
    pub phase_cycles: u64,
    /// The standard's throughput requirement in Mb/s.
    pub required_mbps: f64,
    /// Whether this code meets its standard's requirement.
    pub compliant: bool,
}

impl ToJson for ComplianceEntry {
    fn to_json(&self) -> Json {
        Json::obj([
            ("standard", Json::str(self.standard.clone())),
            ("code", Json::str(self.code.clone())),
            ("info_bits", Json::from(self.info_bits)),
            ("throughput_mbps", Json::from(self.throughput_mbps)),
            ("phase_cycles", Json::from(self.phase_cycles)),
            ("required_mbps", Json::from(self.required_mbps)),
            ("compliant", Json::Bool(self.compliant)),
        ])
    }
}

/// The aggregate result of a compliance sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplianceReport {
    /// Per-code results, in scope order (LDPC before turbo per standard).
    pub entries: Vec<ComplianceEntry>,
    /// Worst-case LDPC throughput over the sweep.
    pub worst_ldpc_mbps: f64,
    /// Worst-case turbo throughput over the sweep.
    pub worst_turbo_mbps: f64,
}

impl ComplianceReport {
    /// `true` when every evaluated code meets its standard's requirement.
    pub fn fully_compliant(&self) -> bool {
        self.entries.iter().all(|e| e.compliant)
    }

    /// The label of the worst (lowest-throughput) code of the sweep.
    pub fn worst_code(&self) -> Option<&ComplianceEntry> {
        self.entries.iter().min_by(|a, b| {
            a.throughput_mbps
                .partial_cmp(&b.throughput_mbps)
                .expect("finite")
        })
    }

    /// The distinct standards the report covers, in entry order.
    pub fn standards(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for e in &self.entries {
            if !seen.contains(&e.standard.as_str()) {
                seen.push(e.standard.as_str());
            }
        }
        seen
    }
}

/// Which codes a compliance sweep covers: one standard's full or corner set,
/// materialized from the `code-tables` registry.
#[derive(Debug, Clone)]
pub struct ComplianceScope {
    standard: Standard,
    codes: Vec<StandardCode>,
}

impl ComplianceScope {
    /// The full scope of `standard`: every code its registry defines
    /// (131 codes for 802.16e, 12 for 802.11n, the QPP table for LTE).
    pub fn full(standard: Standard) -> Self {
        ComplianceScope {
            standard,
            codes: standard.full_codes(),
        }
    }

    /// The corner scope of `standard`: its smallest and largest codes at the
    /// extreme rates, as selected by the registry — no standard's
    /// block-length list is assumed here.  Used by tests and quick runs.
    pub fn corners(standard: Standard) -> Self {
        ComplianceScope {
            standard,
            codes: standard.corner_codes(),
        }
    }

    /// Corner scopes for every supported standard, in registry order.
    pub fn all_corners() -> Vec<Self> {
        Standard::all().into_iter().map(Self::corners).collect()
    }

    /// Full scopes for every supported standard, in registry order.
    pub fn all_full() -> Vec<Self> {
        Standard::all().into_iter().map(Self::full).collect()
    }

    /// The standard this scope covers.
    pub fn standard(&self) -> Standard {
        self.standard
    }

    /// The codes this scope evaluates.
    pub fn codes(&self) -> &[StandardCode] {
        &self.codes
    }
}

/// Runs a compliance sweep of `config` over several scopes (typically one
/// per standard), concatenating the entries, with the per-code evaluations
/// sharded over a deterministic [`WorkPool`] of `workers` threads (0 = one
/// per available core) — the same scheduler the simulation engine and the
/// Table I sweep run on.  Results are merged by sweep-cell index, so the
/// report is **bit-identical** for any worker count.
///
/// Codes that cannot be mapped on the configured parallelism (fewer parity
/// checks or trellis sections than PEs) are skipped: the real decoder would
/// fold such small codes onto a subset of the PEs and is trivially fast on
/// them.
///
/// `on_entry` is invoked from the calling thread as each code *finishes*
/// (completion order) with the cell's sweep index, so long full-scope sweeps
/// (131+ codes for 802.16e) can stream rows to disk while still running.
/// Codes skipped by the mapping guard never reach `on_entry`.
///
/// The sweep keeps its LDPC mappings in a [`MappingStore`] of its own, so a
/// code that two scopes share (802.22's rate-1/2 table is 802.16e's) is
/// mapped once per call; every call starts from an empty store.
///
/// # Errors
///
/// The first evaluation error in sweep order other than an
/// invalid-configuration (too-few-rows) one, after all workers have
/// drained.
pub fn run_multi_compliance_sharded(
    config: &DecoderConfig,
    scopes: &[ComplianceScope],
    workers: usize,
    on_entry: impl FnMut(usize, &ComplianceEntry),
) -> Result<ComplianceReport, DecoderError> {
    run_multi_compliance_with_store(
        config,
        scopes,
        workers,
        &MappingStore::new(),
        None,
        on_entry,
    )
}

/// Runs [`run_multi_compliance_sharded`] with the LDPC mappings taken from
/// `mappings`, and the codes it has not mapped yet added to it: a sweep on
/// a store that already holds its mappings only simulates their NoC
/// phases.  The report is the same as with an empty store.
///
/// With `observe`, the sweep fills its registry: the pool reports `pool.*`
/// spans (timed with its clock) and the sweep emits `compliance.*` counters
/// (cells scheduled, entries produced, codes skipped by the mapping guard,
/// compliant codes).  The report and every Count-class metric are
/// bit-identical for any worker count.
///
/// # Errors
///
/// Same contract as [`run_multi_compliance_sharded`].
pub fn run_multi_compliance_with_store(
    config: &DecoderConfig,
    scopes: &[ComplianceScope],
    workers: usize,
    mappings: &MappingStore,
    mut observe: Option<(&dyn Clock, &mut Registry)>,
    mut on_entry: impl FnMut(usize, &ComplianceEntry),
) -> Result<ComplianceReport, DecoderError> {
    // Enumerate the sweep cells up front: the indexed task set the pool
    // executes.  The mapping-size guard is part of the schedule (not the
    // evaluation), so cell indices are a pure function of scope + config.
    let cells: Vec<(Standard, &StandardCode)> = scopes
        .iter()
        .flat_map(|scope| {
            scope
                .codes()
                .iter()
                .map(move |code| (scope.standard(), code))
        })
        .filter(|(_, code)| code.mapping_units() >= config.pes)
        .collect();

    let task = |index: usize| {
        let (standard, code) = cells[index];
        let eval = match evaluate_standard_code(config, code, mappings) {
            Ok(eval) => eval,
            Err(DecoderError::InvalidConfiguration { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let required = standard.required_throughput_mbps();
        Ok(Some(ComplianceEntry {
            standard: standard.name().to_string(),
            code: code.label(),
            info_bits: eval.info_bits,
            throughput_mbps: eval.throughput_mbps,
            phase_cycles: eval.phase_cycles,
            required_mbps: required,
            compliant: eval.throughput_mbps >= required,
        }))
    };
    let mut on_done = |index: usize, result: &Result<Option<ComplianceEntry>, DecoderError>| {
        if let Ok(Some(entry)) = result {
            on_entry(index, entry);
        }
    };
    let mut pool_obs = PoolObs::new();
    let mut pool = WorkPool::new(workers).run();
    if let Some((clock, _)) = &observe {
        pool = pool.observed(*clock, &mut pool_obs);
    }
    let results = pool.indexed_streamed(cells.len(), task, &mut on_done);
    if let Some((_, obs)) = observe.as_mut() {
        pool_obs.record_into(obs, "pool", Class::Count);
    }

    let mut entries = Vec::new();
    let mut worst_ldpc = f64::INFINITY;
    let mut worst_turbo = f64::INFINITY;
    for ((_, code), result) in cells.iter().zip(results) {
        let Some(entry) = result? else { continue };
        let worst = if code.is_ldpc() {
            &mut worst_ldpc
        } else {
            &mut worst_turbo
        };
        *worst = worst.min(entry.throughput_mbps);
        entries.push(entry);
    }

    if let Some((_, obs)) = observe.as_mut() {
        obs.incr(Class::Count, "compliance.cells", cells.len() as u64);
        obs.incr(Class::Count, "compliance.entries", entries.len() as u64);
        obs.incr(
            Class::Count,
            "compliance.skipped",
            (cells.len() - entries.len()) as u64,
        );
        obs.incr(
            Class::Count,
            "compliance.compliant",
            entries.iter().filter(|e| e.compliant).count() as u64,
        );
    }

    Ok(ComplianceReport {
        entries,
        worst_ldpc_mbps: if worst_ldpc.is_finite() {
            worst_ldpc
        } else {
            0.0
        },
        worst_turbo_mbps: if worst_turbo.is_finite() {
            worst_turbo
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep of `scopes` on one worker.
    fn sweep(config: &DecoderConfig, scopes: &[ComplianceScope]) -> ComplianceReport {
        run_multi_compliance_sharded(config, scopes, 1, |_, _| {}).unwrap()
    }

    #[test]
    fn corner_scope_runs_on_the_paper_design_point() {
        let report = sweep(
            &DecoderConfig::paper_design_point(),
            &[ComplianceScope::corners(Standard::Wimax)],
        );
        // 2 lengths x 2 rates LDPC + both CTC sizes (24 couples >= P = 22).
        assert!(
            report.entries.len() >= 5,
            "{} entries",
            report.entries.len()
        );
        assert!(report.worst_ldpc_mbps > 0.0);
        assert!(report.worst_turbo_mbps > 0.0);
        assert!(report.worst_code().is_some());
        // Shorter codes have shorter phases but fewer bits; all must stay in
        // a plausible band.
        for e in &report.entries {
            assert!(
                e.throughput_mbps > 1.0 && e.throughput_mbps < 400.0,
                "{}: {}",
                e.code,
                e.throughput_mbps
            );
        }
    }

    #[test]
    fn small_codes_are_skipped_when_p_exceeds_their_size() {
        // With P = 128 the 576-bit rate-5/6 code has only 96 checks and must
        // be skipped rather than failing the sweep.
        let config = DecoderConfig::paper_design_point().with_pes(128);
        let report = sweep(&config, &[ComplianceScope::corners(Standard::Wimax)]);
        assert!(report.entries.iter().all(|e| !e.code.contains("576 r=5/6")));
    }

    #[test]
    fn full_scopes_list_every_registry_code() {
        assert_eq!(
            ComplianceScope::full(Standard::Wimax).codes().len(),
            19 * 6 + 17
        );
        assert_eq!(
            ComplianceScope::full(Standard::Wifi80211n).codes().len(),
            12
        );
        assert!(!ComplianceScope::full(Standard::Lte).codes().is_empty());
        assert_eq!(ComplianceScope::full(Standard::Wran80222).codes().len(), 18);
        assert_eq!(ComplianceScope::full(Standard::DvbRcs).codes().len(), 12);
        assert_eq!(ComplianceScope::all_full().len(), 5);
    }

    #[test]
    fn corner_selection_is_per_standard() {
        // 802.11n corners come from the 802.11n length list, not WiMAX's.
        let wifi = ComplianceScope::corners(Standard::Wifi80211n);
        assert_eq!(wifi.standard(), Standard::Wifi80211n);
        let labels: Vec<String> = wifi.codes().iter().map(|c| c.label()).collect();
        assert!(labels.iter().any(|l| l.contains("648")), "{labels:?}");
        assert!(labels.iter().any(|l| l.contains("1944")), "{labels:?}");
        assert!(labels.iter().all(|l| !l.contains("576")), "{labels:?}");

        let lte = ComplianceScope::corners(Standard::Lte);
        let labels: Vec<String> = lte.codes().iter().map(|c| c.label()).collect();
        assert!(labels.iter().any(|l| l.contains("K=40")), "{labels:?}");
        assert!(labels.iter().any(|l| l.contains("K=6144")), "{labels:?}");
    }

    #[test]
    fn sharded_sweep_is_bit_identical_at_1_2_and_8_workers() {
        let config = DecoderConfig::paper_design_point();
        let scopes = ComplianceScope::all_corners();
        let reference = sweep(&config, &scopes);
        for workers in [1usize, 2, 8] {
            let mut streamed = 0usize;
            let report = run_multi_compliance_sharded(&config, &scopes, workers, |_, entry| {
                assert!(entry.throughput_mbps > 0.0, "{}", entry.code);
                streamed += 1;
            })
            .unwrap();
            assert_eq!(report, reference, "workers = {workers}");
            assert_eq!(streamed, report.entries.len(), "workers = {workers}");
        }
    }

    #[test]
    fn a_kept_store_gives_the_same_report_without_mapping_again() {
        let config = DecoderConfig::paper_design_point();
        let scopes = ComplianceScope::all_corners();
        let reference = sweep(&config, &scopes);
        let mappings = MappingStore::new();
        for workers in [1usize, 2] {
            let report = run_multi_compliance_with_store(
                &config,
                &scopes,
                workers,
                &mappings,
                None,
                |_, _| {},
            )
            .unwrap();
            assert_eq!(report, reference, "workers = {workers}");
            // 12 LDPC corner codes; 802.22's n2304 r1/2 is 802.16e's
            assert_eq!(mappings.len(), 11, "workers = {workers}");
        }
    }

    #[test]
    fn sharded_sweep_streams_each_cell_once_with_a_stable_index() {
        let config = DecoderConfig::paper_design_point();
        let scopes = ComplianceScope::all_corners();
        let mut seen = std::collections::BTreeSet::new();
        let report = run_multi_compliance_sharded(&config, &scopes, 4, |idx, _| {
            assert!(seen.insert(idx), "cell {idx} streamed twice");
        })
        .unwrap();
        assert_eq!(seen.len(), report.entries.len());
    }

    #[test]
    fn observed_sweep_matches_and_counts_are_worker_invariant() {
        let config = DecoderConfig::paper_design_point();
        let scopes = ComplianceScope::all_corners();
        let reference = sweep(&config, &scopes);
        let clock = fec_obs::ManualClock::new();
        let mut reference_counts = None;
        for workers in [1usize, 4] {
            let mut obs = Registry::new();
            let report = run_multi_compliance_with_store(
                &config,
                &scopes,
                workers,
                &MappingStore::new(),
                Some((&clock, &mut obs)),
                |_, _| {},
            )
            .unwrap();
            assert_eq!(report, reference, "workers = {workers}");
            assert_eq!(
                obs.counter("compliance.entries"),
                Some(reference.entries.len() as u64)
            );
            assert!(obs.get("pool.task_run_ns").is_some());
            let counts = obs.render_counts();
            if let Some(first) = &reference_counts {
                assert_eq!(&counts, first, "workers = {workers}");
            } else {
                reference_counts = Some(counts);
            }
        }
    }

    #[test]
    fn compliance_entry_serializes_to_json() {
        let config = DecoderConfig::paper_design_point();
        let report = sweep(&config, &[ComplianceScope::corners(Standard::Wimax)]);
        let json = report.entries[0].to_json().to_string();
        assert!(json.contains("\"standard\":\"802.16e\""), "{json}");
        assert!(json.contains("\"throughput_mbps\":"), "{json}");
        assert!(
            json.contains("\"compliant\":true") || json.contains("\"compliant\":false"),
            "{json}"
        );
    }

    #[test]
    fn multi_standard_sweep_reports_entries_for_all_five_standards() {
        let report = sweep(
            &DecoderConfig::paper_design_point(),
            &ComplianceScope::all_corners(),
        );
        let standards = report.standards();
        assert_eq!(
            standards,
            vec!["802.16e", "802.11n", "LTE", "802.22", "DVB-RCS"]
        );
        for e in &report.entries {
            assert!(e.throughput_mbps > 0.0, "{}", e.code);
        }
    }

    #[test]
    fn new_standard_corners_fit_the_paper_design_point() {
        // Every 802.22 and DVB-RCS corner code has at least P = 22 mapping
        // units, so none may be silently skipped by the mapping guard.
        let config = DecoderConfig::paper_design_point();
        for standard in [Standard::Wran80222, Standard::DvbRcs] {
            let scope = ComplianceScope::corners(standard);
            let report = sweep(&config, std::slice::from_ref(&scope));
            assert_eq!(
                report.entries.len(),
                scope.codes().len(),
                "{standard}: corner codes skipped"
            );
            for e in &report.entries {
                assert_eq!(e.standard, standard.name());
                assert_eq!(
                    e.required_mbps,
                    standard.required_throughput_mbps(),
                    "{}",
                    e.code
                );
            }
        }
    }

    #[test]
    fn compliance_flag_follows_the_per_standard_threshold() {
        let report = sweep(
            &DecoderConfig::paper_design_point(),
            &ComplianceScope::all_corners(),
        );
        for e in &report.entries {
            assert_eq!(
                e.compliant,
                e.throughput_mbps >= e.required_mbps,
                "{}",
                e.code
            );
        }
        // the WiMAX requirement stays the paper's 70 Mb/s
        assert!(report
            .entries
            .iter()
            .filter(|e| e.standard == "802.16e")
            .all(|e| e.required_mbps == 70.0));
    }
}

//! Design-space exploration: the sweeps that generate Tables I and II of the
//! paper and the minimum-parallelism search of Section III.C.

use crate::config::DecoderConfig;
use crate::evaluation::{evaluate_ldpc, evaluate_standard_code, DecoderError, DesignEvaluation};
use code_tables::StandardCode;
use fec_json::{Json, ToJson};
use fec_obs::{Class, Clock, Registry};
use fec_sched::{PoolObs, WorkPool};
use noc_mapping::MappingStore;
use noc_sim::{NodeArchitecture, RoutingAlgorithm, TopologyKind};
use wimax_ldpc::QcLdpcCode;

/// The (topology, degree) families explored in Table I, in the paper's order.
pub const TABLE1_FAMILIES: [(TopologyKind, usize); 6] = [
    (TopologyKind::GeneralizedDeBruijn, 2),
    (TopologyKind::GeneralizedKautz, 2),
    (TopologyKind::Spidergon, 3),
    (TopologyKind::GeneralizedKautz, 3),
    (TopologyKind::Honeycomb, 4),
    (TopologyKind::GeneralizedKautz, 4),
];

/// The parallelism values explored in Table I.
pub const TABLE1_PARALLELISM: [usize; 4] = [16, 24, 32, 36];

/// The (routing algorithm, node architecture) rows of Tables I and II.
pub const TABLE_ROUTING_ROWS: [(RoutingAlgorithm, NodeArchitecture); 3] = [
    (
        RoutingAlgorithm::SspRr,
        NodeArchitecture::PartiallyPrecalculated,
    ),
    (
        RoutingAlgorithm::SspFl,
        NodeArchitecture::PartiallyPrecalculated,
    ),
    (RoutingAlgorithm::AspFt, NodeArchitecture::AllPrecalculated),
];

/// One entry of the Table I reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Topology family name.
    pub topology: String,
    /// Node degree `D`.
    pub degree: usize,
    /// Parallelism `P`.
    pub pes: usize,
    /// Routing algorithm name.
    pub routing: String,
    /// Node architecture name.
    pub architecture: String,
    /// Throughput in Mb/s.
    pub throughput_mbps: f64,
    /// NoC area in mm².
    pub noc_area_mm2: f64,
}

impl ToJson for Table1Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("topology", Json::str(self.topology.clone())),
            ("degree", Json::from(self.degree)),
            ("pes", Json::from(self.pes)),
            ("routing", Json::str(self.routing.clone())),
            ("architecture", Json::str(self.architecture.clone())),
            ("throughput_mbps", Json::from(self.throughput_mbps)),
            ("noc_area_mm2", Json::from(self.noc_area_mm2)),
        ])
    }
}

/// One entry of the Table II reproduction (the `P = 22` flexible decoder).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Routing algorithm name.
    pub routing: String,
    /// Node architecture name.
    pub architecture: String,
    /// Turbo throughput in Mb/s at the turbo clock.
    pub turbo_throughput_mbps: f64,
    /// Turbo-mode NoC area in mm².
    pub turbo_noc_area_mm2: f64,
    /// LDPC throughput in Mb/s at the LDPC clock.
    pub ldpc_throughput_mbps: f64,
    /// LDPC-mode NoC area in mm².
    pub ldpc_noc_area_mm2: f64,
}

impl ToJson for Table2Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("routing", Json::str(self.routing.clone())),
            ("architecture", Json::str(self.architecture.clone())),
            (
                "turbo_throughput_mbps",
                Json::from(self.turbo_throughput_mbps),
            ),
            ("turbo_noc_area_mm2", Json::from(self.turbo_noc_area_mm2)),
            (
                "ldpc_throughput_mbps",
                Json::from(self.ldpc_throughput_mbps),
            ),
            ("ldpc_noc_area_mm2", Json::from(self.ldpc_noc_area_mm2)),
        ])
    }
}

/// One Table I design point: `((topology, degree), parallelism, (routing,
/// node architecture))`.
pub type Table1Point = (
    (TopologyKind, usize),
    usize,
    (RoutingAlgorithm, NodeArchitecture),
);

/// The design-space exploration driver.
#[derive(Debug, Clone)]
pub struct DesignSpaceExplorer {
    base: DecoderConfig,
}

impl DesignSpaceExplorer {
    /// Creates an explorer whose sweeps start from `base` (only the swept
    /// parameters are overridden).
    pub fn new(base: DecoderConfig) -> Self {
        DesignSpaceExplorer { base }
    }

    /// The base configuration.
    pub fn base(&self) -> &DecoderConfig {
        &self.base
    }

    /// Evaluates one Table I design point on any catalogue code (LDPC or
    /// turbo, from any standard), the LDPC mapping taken from `mappings` or
    /// added there: cells that share a store map each `(code, P)` once for
    /// its 18 NoC configurations.
    ///
    /// # Errors
    ///
    /// The evaluation's error, e.g. more PEs than the code has parity checks
    /// or trellis sections.
    pub fn table1_cell(
        &self,
        code: &StandardCode,
        (family, pes, row): Table1Point,
        mappings: &MappingStore,
    ) -> Result<Table1Row, DecoderError> {
        let config = self
            .base
            .with_topology(family.0, family.1)
            .with_pes(pes)
            .with_routing(row.0)
            .with_architecture(row.1);
        let eval = evaluate_standard_code(&config, code, mappings)?;
        Ok(Table1Row {
            topology: eval.topology,
            degree: family.1,
            pes,
            routing: eval.routing,
            architecture: eval.architecture,
            throughput_mbps: eval.throughput_mbps,
            noc_area_mm2: eval.noc_area_mm2,
        })
    }

    /// The Table I design points in sweep order:
    /// `6 families x 4 parallelism values x 3 routing rows = 72 points`.
    pub fn table1_points() -> Vec<Table1Point> {
        let mut points = Vec::with_capacity(72);
        for family in TABLE1_FAMILIES {
            for pes in TABLE1_PARALLELISM {
                for row in TABLE_ROUTING_ROWS {
                    points.push((family, pes, row));
                }
            }
        }
        points
    }

    /// Runs the Table I sweep on any catalogue code with the 72 design
    /// points sharded over a [`WorkPool`] of `workers` threads (0 = one per
    /// available core) — the same deterministic scheduler the simulation
    /// engine and the compliance sweeps run on.  Every point evaluation is
    /// independent and seeded by the base configuration, and the pool merges
    /// results by sweep index, so the returned rows are in sweep order —
    /// bit-identical for any worker count.  The cells share a
    /// [`MappingStore`] for the length of the call, so an LDPC code is
    /// mapped once per parallelism value.
    ///
    /// `on_row` is invoked from the calling thread as each row *finishes*
    /// (completion order), so callers can stream rows to disk or a progress
    /// display while the sweep is still running.
    ///
    /// With `observe`, the sweep fills its registry: the pool reports
    /// `pool.*` spans (timed with its clock) and the sweep emits `dse.*`
    /// counters.  The rows and every Count-class metric are bit-identical
    /// for any worker count.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing point, after all
    /// workers have drained.
    pub fn table1(
        &self,
        code: &StandardCode,
        workers: usize,
        mut observe: Option<(&dyn Clock, &mut Registry)>,
        mut on_row: impl FnMut(usize, &Table1Row),
    ) -> Result<Vec<Table1Row>, DecoderError> {
        let points = Self::table1_points();
        let mappings = MappingStore::new();
        let mut pool_obs = PoolObs::new();
        let mut pool = WorkPool::new(workers).run();
        if let Some((clock, _)) = &observe {
            pool = pool.observed(*clock, &mut pool_obs);
        }
        let rows: Result<Vec<Table1Row>, DecoderError> = pool
            .indexed_streamed(
                points.len(),
                |index| self.table1_cell(code, points[index], &mappings),
                |index, result| {
                    if let Ok(row) = result {
                        on_row(index, row);
                    }
                },
            )
            .into_iter()
            .collect();
        if let Some((_, obs)) = observe.as_mut() {
            pool_obs.record_into(obs, "pool", Class::Count);
            obs.incr(Class::Count, "dse.table1_points", points.len() as u64);
            if let Ok(rows) = &rows {
                obs.incr(Class::Count, "dse.table1_rows", rows.len() as u64);
            }
        }
        rows
    }

    /// Regenerates Table II: the `P = 22`, `D = 3` generalized-Kautz decoder
    /// evaluated on an (LDPC, turbo) pair of catalogue codes — the paper's
    /// worst-case WiMAX pair, or the worst cases of any standard
    /// combination (e.g. 802.11n LDPC with the LTE turbo code).
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error; returns an
    /// invalid-configuration error if the codes are passed in the wrong
    /// roles.
    pub fn table2(
        &self,
        ldpc_code: &StandardCode,
        turbo_code: &StandardCode,
    ) -> Result<Vec<Table2Row>, DecoderError> {
        if !ldpc_code.is_ldpc() || turbo_code.is_ldpc() {
            return Err(DecoderError::InvalidConfiguration {
                reason: "table2 expects (LDPC, turbo) codes in that order".into(),
            });
        }
        let mappings = MappingStore::new();
        let mut rows = Vec::new();
        for (routing, architecture) in TABLE_ROUTING_ROWS {
            let config = self
                .base
                .with_topology(TopologyKind::GeneralizedKautz, 3)
                .with_pes(22)
                .with_routing(routing)
                .with_architecture(architecture);
            let ldpc = evaluate_standard_code(&config, ldpc_code, &mappings)?;
            let turbo = evaluate_standard_code(&config, turbo_code, &mappings)?;
            rows.push(Table2Row {
                routing: routing.name().to_string(),
                architecture: architecture.name().to_string(),
                turbo_throughput_mbps: turbo.throughput_mbps,
                turbo_noc_area_mm2: turbo.noc_area_mm2,
                ldpc_throughput_mbps: ldpc.throughput_mbps,
                ldpc_noc_area_mm2: ldpc.noc_area_mm2,
            });
        }
        Ok(rows)
    }

    /// Finds the minimum parallelism `P` (within `candidates`) for which the
    /// LDPC throughput reaches `target_mbps`, as done in Section III.C to
    /// select `P = 22`.  Each `(code, P)` mapping is taken from `mappings`
    /// or added there, so searches that share a store map each `P` once.
    ///
    /// Returns the chosen `P` and its evaluation, or `None` if no candidate
    /// meets the target.
    pub fn minimum_parallelism(
        &self,
        code: &QcLdpcCode,
        candidates: &[usize],
        target_mbps: f64,
        mappings: &MappingStore,
    ) -> Result<Option<(usize, DesignEvaluation)>, DecoderError> {
        let mut sorted: Vec<usize> = candidates.to_vec();
        sorted.sort_unstable();
        for pes in sorted {
            let config = self.base.with_pes(pes);
            let eval = evaluate_ldpc(&config, code, mappings)?;
            if eval.throughput_mbps >= target_mbps {
                return Ok(Some((pes, eval)));
            }
        }
        Ok(None)
    }
}

impl Default for DesignSpaceExplorer {
    fn default() -> Self {
        DesignSpaceExplorer::new(DecoderConfig::paper_design_point())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use code_tables::Standard;
    use wimax_ldpc::CodeRate;
    use wimax_turbo::CtcCode;

    fn small_ldpc() -> QcLdpcCode {
        QcLdpcCode::wimax(576, CodeRate::R12).unwrap()
    }

    fn small_code() -> StandardCode {
        StandardCode::Ldpc {
            standard: Standard::Wimax,
            code: small_ldpc(),
        }
    }

    const SSP_FL_PP: (RoutingAlgorithm, NodeArchitecture) = (
        RoutingAlgorithm::SspFl,
        NodeArchitecture::PartiallyPrecalculated,
    );

    /// One Table I cell on a store of its own.
    fn cell(
        dse: &DesignSpaceExplorer,
        code: &StandardCode,
        family: (TopologyKind, usize),
        pes: usize,
    ) -> Table1Row {
        dse.table1_cell(code, (family, pes, SSP_FL_PP), &MappingStore::new())
            .unwrap()
    }

    #[test]
    fn table1_cell_produces_a_row() {
        let dse = DesignSpaceExplorer::default();
        let row = cell(&dse, &small_code(), (TopologyKind::GeneralizedKautz, 3), 16);
        assert_eq!(row.pes, 16);
        assert_eq!(row.topology, "gen-kautz");
        assert!(row.throughput_mbps > 0.0);
        assert!(row.noc_area_mm2 > 0.0);
    }

    #[test]
    fn kautz_beats_de_bruijn_at_same_degree() {
        // The paper's qualitative conclusion: generalized Kautz topologies
        // outperform the other families in throughput-to-area ratio.
        let dse = DesignSpaceExplorer::default();
        let code = small_code();
        let kautz = cell(&dse, &code, (TopologyKind::GeneralizedKautz, 3), 16);
        let debruijn = cell(&dse, &code, (TopologyKind::GeneralizedDeBruijn, 2), 16);
        assert!(
            kautz.throughput_mbps >= debruijn.throughput_mbps,
            "kautz {} < de bruijn {}",
            kautz.throughput_mbps,
            debruijn.throughput_mbps
        );
    }

    #[test]
    fn higher_degree_increases_throughput() {
        let dse = DesignSpaceExplorer::default();
        let code = small_code();
        let d2 = cell(&dse, &code, (TopologyKind::GeneralizedKautz, 2), 24);
        let d4 = cell(&dse, &code, (TopologyKind::GeneralizedKautz, 4), 24);
        assert!(d4.throughput_mbps >= d2.throughput_mbps);
    }

    #[test]
    fn minimum_parallelism_is_monotone() {
        let dse = DesignSpaceExplorer::default();
        let code = small_ldpc();
        // A generous target should be met by a small P; an absurd target by none.
        let mappings = MappingStore::new();
        let low = dse
            .minimum_parallelism(&code, &[4, 8, 16], 1.0, &mappings)
            .unwrap();
        assert!(low.is_some());
        assert_eq!(low.unwrap().0, 4);
        let impossible = dse
            .minimum_parallelism(&code, &[4, 8], 1.0e9, &mappings)
            .unwrap();
        assert!(impossible.is_none());
    }

    #[test]
    fn sharded_table1_matches_the_serial_sweep_at_any_worker_count() {
        // Each reference cell is evaluated on a store of its own, so the
        // comparison also shows that the sweep's shared store changes no row.
        let dse = DesignSpaceExplorer::default();
        let code = small_code();
        let serial: Vec<Table1Row> = DesignSpaceExplorer::table1_points()
            .into_iter()
            .map(|point| dse.table1_cell(&code, point, &MappingStore::new()))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(serial.len(), 72);
        for workers in [1usize, 3, 8] {
            let mut streamed = 0usize;
            let sharded = dse
                .table1(&code, workers, None, |_, _| streamed += 1)
                .unwrap();
            assert_eq!(sharded, serial, "workers = {workers}");
            assert_eq!(streamed, 72);
        }
    }

    #[test]
    fn sharded_table1_streams_rows_with_their_sweep_index() {
        let dse = DesignSpaceExplorer::default();
        let mut seen = [false; 72];
        let rows = dse
            .table1(&small_code(), 4, None, |idx, row| {
                assert!(!seen[idx], "point {idx} streamed twice");
                seen[idx] = true;
                assert!(row.throughput_mbps > 0.0);
            })
            .unwrap();
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rows.len(), 72);
    }

    #[test]
    fn observed_table1_matches_the_serial_sweep() {
        let dse = DesignSpaceExplorer::default();
        let code = small_code();
        let serial = dse.table1(&code, 1, None, |_, _| {}).unwrap();
        let clock = fec_obs::ManualClock::new();
        let mut obs = Registry::new();
        let rows = dse
            .table1(&code, 4, Some((&clock, &mut obs)), |_, _| {})
            .unwrap();
        assert_eq!(rows, serial);
        assert_eq!(obs.counter("dse.table1_points"), Some(72));
        assert_eq!(obs.counter("dse.table1_rows"), Some(72));
        assert!(obs.get("pool.task_wait_ns").is_some());
    }

    #[test]
    fn table1_runs_on_a_wifi_code() {
        use code_tables::wifi_ldpc;
        let dse = DesignSpaceExplorer::default();
        let code = StandardCode::Ldpc {
            standard: Standard::Wifi80211n,
            code: wifi_ldpc(648, CodeRate::R12).unwrap(),
        };
        let row = cell(&dse, &code, (TopologyKind::GeneralizedKautz, 3), 16);
        assert!(row.throughput_mbps > 0.0);
    }

    #[test]
    fn table2_rejects_swapped_roles() {
        let dse = DesignSpaceExplorer::default();
        let ldpc = small_code();
        let turbo = StandardCode::WimaxTurbo {
            code: CtcCode::wimax(240).unwrap(),
        };
        assert!(dse.table2(&turbo, &ldpc).is_err());
        assert_eq!(dse.table2(&ldpc, &turbo).unwrap().len(), 3);
    }

    #[test]
    fn per_standard_minimum_parallelism_uses_the_standard_requirement() {
        let dse = DesignSpaceExplorer::default();
        let code = small_ldpc();
        let candidates: Vec<usize> = (4..=24).step_by(4).collect();
        // A trivial target is always met by the smallest candidate; the
        // 802.11n 450 Mb/s target never is on this small fabric.
        let mappings = MappingStore::new();
        assert_eq!(
            dse.minimum_parallelism(&code, &candidates, 1.0, &mappings)
                .unwrap()
                .map(|(p, _)| p),
            Some(4)
        );
        let wifi = Standard::Wifi80211n.required_throughput_mbps();
        assert!(dse
            .minimum_parallelism(&code, &candidates, wifi, &mappings)
            .unwrap()
            .is_none());
    }

    #[test]
    fn table2_has_three_rows() {
        let dse = DesignSpaceExplorer::default();
        // keep the codes small so the test stays fast
        let turbo = StandardCode::WimaxTurbo {
            code: CtcCode::wimax(240).unwrap(),
        };
        let rows = dse.table2(&small_code(), &turbo).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().any(|r| r.routing == "SSP-FL"));
        for r in &rows {
            assert!(r.ldpc_throughput_mbps > 0.0);
            assert!(r.turbo_throughput_mbps > 0.0);
        }
    }
}

//! Table III reproduction: comparison of the proposed decoder with the
//! state-of-the-art flexible turbo/LDPC decoders of refs [5]–[9].
//!
//! The competitor rows are literature values quoted from the paper (those
//! designs are proprietary RTL and cannot be regenerated); the "This Work"
//! rows are regenerated from our architectural models.

use noc_decoder::evaluation::{evaluate_ldpc, evaluate_standard_code};
use noc_decoder::model::{LDPC_CLOCK_MHZ, LDPC_ITERATIONS, TURBO_CLOCK_MHZ, TURBO_ITERATIONS};
use noc_decoder::{CodeRate, CtcCode, DecoderConfig, MappingStore, QcLdpcCode, StandardCode};

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Design label ("This Work", "[9]", ...).
    pub decoder: String,
    /// Parallelism (PEs / ASIPs).
    pub parallelism: usize,
    /// Technology node in nm.
    pub technology_nm: u32,
    /// Total area in mm² (at the native node).
    pub total_area_mm2: f64,
    /// Area normalised to 65 nm.
    pub normalized_area_mm2: f64,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Peak power in mW (`None` when not reported).
    pub power_mw: Option<f64>,
    /// Maximum iterations.
    pub iterations: usize,
    /// Code family ("LDPC" / "DBTC" / "BTC").
    pub code: String,
    /// Throughput in Mb/s (worst case unless stated otherwise in the paper).
    pub throughput_mbps: f64,
    /// Whether the row was measured by this repository or quoted from the
    /// literature.
    pub measured: bool,
}

impl fec_json::ToJson for Table3Row {
    fn to_json(&self) -> fec_json::Json {
        use fec_json::Json;
        Json::obj([
            ("decoder", Json::str(self.decoder.clone())),
            ("parallelism", Json::from(self.parallelism)),
            ("technology_nm", Json::from(self.technology_nm)),
            ("total_area_mm2", Json::from(self.total_area_mm2)),
            ("normalized_area_mm2", Json::from(self.normalized_area_mm2)),
            ("clock_mhz", Json::from(self.clock_mhz)),
            ("power_mw", self.power_mw.map_or(Json::Null, Json::from)),
            ("iterations", Json::from(self.iterations)),
            ("code", Json::str(self.code.clone())),
            ("throughput_mbps", Json::from(self.throughput_mbps)),
            ("measured", Json::from(self.measured)),
        ])
    }
}

/// Builds the comparison table: the measured "This Work" rows (LDPC and
/// turbo modes of the paper's design point) followed by the literature rows
/// exactly as quoted in the paper.
///
/// # Panics
///
/// Panics if the worst-case WiMAX codes cannot be constructed or evaluated.
pub fn table3_rows() -> Vec<Table3Row> {
    let config = DecoderConfig::paper_design_point();
    let ldpc_code = QcLdpcCode::wimax(2304, CodeRate::R12).expect("worst-case LDPC code");
    let turbo_code = StandardCode::WimaxTurbo {
        code: CtcCode::wimax(2400).expect("largest CTC frame"),
    };
    let mappings = MappingStore::new();
    let ldpc = evaluate_ldpc(&config, &ldpc_code, &mappings).expect("LDPC evaluation");
    let turbo = evaluate_standard_code(&config, &turbo_code, &mappings).expect("turbo evaluation");

    let mut rows = vec![
        Table3Row {
            decoder: "This Work (measured)".into(),
            parallelism: ldpc.pes,
            technology_nm: 90,
            total_area_mm2: ldpc.total_area_mm2(),
            normalized_area_mm2: ldpc.total_area_mm2_at(65.0),
            clock_mhz: LDPC_CLOCK_MHZ,
            power_mw: Some(ldpc.power_mw()),
            iterations: LDPC_ITERATIONS,
            code: "LDPC 2304, 0.5".into(),
            throughput_mbps: ldpc.throughput_mbps,
            measured: true,
        },
        Table3Row {
            decoder: "This Work (measured)".into(),
            parallelism: turbo.pes,
            technology_nm: 90,
            total_area_mm2: turbo.total_area_mm2(),
            normalized_area_mm2: turbo.total_area_mm2_at(65.0),
            clock_mhz: TURBO_CLOCK_MHZ,
            power_mw: Some(turbo.power_mw()),
            iterations: TURBO_ITERATIONS,
            code: "DBTC 4800, 0.5".into(),
            throughput_mbps: turbo.throughput_mbps,
            measured: true,
        },
    ];
    rows.extend(literature_rows());
    rows
}

/// The rows of Table III quoted from the paper (the paper's own reported
/// values plus the compared designs [5]–[9]).
pub fn literature_rows() -> Vec<Table3Row> {
    let quoted = |decoder: &str,
                  parallelism: usize,
                  technology_nm: u32,
                  total: f64,
                  normalized: f64,
                  clock: f64,
                  power: Option<f64>,
                  iterations: usize,
                  code: &str,
                  throughput: f64| Table3Row {
        decoder: decoder.into(),
        parallelism,
        technology_nm,
        total_area_mm2: total,
        normalized_area_mm2: normalized,
        clock_mhz: clock,
        power_mw: power,
        iterations,
        code: code.into(),
        throughput_mbps: throughput,
        measured: false,
    };
    vec![
        quoted(
            "This Work (paper)",
            22,
            90,
            3.17,
            1.65,
            300.0,
            Some(415.0),
            10,
            "LDPC 2304, 0.5",
            72.00,
        ),
        quoted(
            "This Work (paper)",
            22,
            90,
            3.17,
            1.65,
            75.0,
            Some(59.0),
            8,
            "DBTC 4800, 0.5",
            74.26,
        ),
        quoted(
            "[9] Murugappa 2011",
            8,
            90,
            2.6,
            1.36,
            520.0,
            None,
            10,
            "LDPC 2304, 0.5",
            62.5,
        ),
        quoted(
            "[9] Murugappa 2011",
            8,
            90,
            2.6,
            1.36,
            520.0,
            None,
            6,
            "DBTC (max)",
            173.0,
        ),
        quoted(
            "[5] FlexiChaP",
            1,
            65,
            0.62,
            0.62,
            400.0,
            Some(76.8),
            20,
            "LDPC (min)",
            27.7,
        ),
        quoted(
            "[5] FlexiChaP",
            1,
            65,
            0.62,
            0.62,
            400.0,
            Some(76.8),
            5,
            "DBTC (min)",
            18.6,
        ),
        quoted(
            "[7] Gentile 2010",
            12,
            45,
            0.9,
            1.88,
            150.0,
            Some(86.1),
            8,
            "LDPC (min)",
            71.05,
        ),
        quoted(
            "[7] Gentile 2010",
            12,
            45,
            0.9,
            1.88,
            150.0,
            Some(86.1),
            8,
            "DBTC (min)",
            73.46,
        ),
        quoted(
            "[6] Naessens 2008",
            384,
            45,
            0.94,
            1.96,
            333.0,
            Some(1000.0),
            25,
            "LDPC (avg)",
            333.0,
        ),
        quoted(
            "[8] Sun-Cavallaro",
            12,
            90,
            3.20,
            1.67,
            500.0,
            None,
            15,
            "LDPC 2304, 0.5 (max)",
            600.0,
        ),
        quoted(
            "[8] Sun-Cavallaro",
            12,
            90,
            3.20,
            1.67,
            500.0,
            None,
            6,
            "BTC 6144, 0.3 (max)",
            450.0,
        ),
    ]
}

/// Pretty-prints the comparison table.
pub fn print_table3(rows: &[Table3Row]) {
    println!("Table III — LDPC/turbo flexible decoder comparison");
    println!(
        "{:<22} {:>3} {:>5} {:>8} {:>8} {:>7} {:>8} {:>6}  {:<22} {:>9}",
        "decoder", "P", "Tp", "Atot", "A65nm", "fclk", "Pow", "Itmax", "code", "T [Mb/s]"
    );
    for r in rows {
        println!(
            "{:<22} {:>3} {:>5} {:>8.2} {:>8.2} {:>7.0} {:>8} {:>6}  {:<22} {:>9.2}",
            r.decoder,
            r.parallelism,
            format!("{}nm", r.technology_nm),
            r.total_area_mm2,
            r.normalized_area_mm2,
            r.clock_mhz,
            r.power_mw.map_or("N/A".to_string(), |p| format!("{p:.0}")),
            r.iterations,
            r.code,
            r.throughput_mbps,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literature_rows_match_the_papers_key_figures() {
        let rows = literature_rows();
        let paper_ldpc = rows
            .iter()
            .find(|r| r.decoder == "This Work (paper)" && r.code.starts_with("LDPC"))
            .unwrap();
        assert_eq!(paper_ldpc.total_area_mm2, 3.17);
        assert_eq!(paper_ldpc.throughput_mbps, 72.00);
        let ref9 = rows
            .iter()
            .find(|r| r.decoder.starts_with("[9]") && r.code.starts_with("LDPC"))
            .unwrap();
        assert_eq!(ref9.throughput_mbps, 62.5);
        assert_eq!(rows.iter().filter(|r| r.measured).count(), 0);
    }

    #[test]
    fn measured_rows_are_present_and_plausible() {
        let rows = table3_rows();
        let measured: Vec<&Table3Row> = rows.iter().filter(|r| r.measured).collect();
        assert_eq!(measured.len(), 2);
        for r in measured {
            assert!(r.total_area_mm2 > 0.5 && r.total_area_mm2 < 10.0);
            assert!(r.normalized_area_mm2 < r.total_area_mm2);
            assert!(r.throughput_mbps > 10.0);
        }
        print_table3(&rows);
    }
}

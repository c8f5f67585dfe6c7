//! Table I reproduction: throughput / NoC area of the WiMAX LDPC
//! `N = 2304, r = 1/2` code across topologies, parallelism values, node
//! degrees, routing algorithms and node architectures
//! (`RL = 0`, `SCM`, `R = 0.5`, 300 MHz, `It_max = 10`, `lat_core = 15`).

use code_tables::{Standard, StandardCode};
use noc_decoder::dse::{Table1Row, TABLE1_FAMILIES, TABLE1_PARALLELISM, TABLE_ROUTING_ROWS};

/// The code a `--standard` Table I sweep exercises: the standard's
/// worst-case (largest) code — LDPC where the standard defines LDPC, its
/// turbo code otherwise (LTE).  `quick` selects the smallest corner code
/// that is still mappable at every swept parallelism (the sweep goes up to
/// `max(TABLE1_PARALLELISM)` PEs, so smaller codes would fail evaluation —
/// the WiMAX DBTC 48 corner has only 24 couples, for example).
pub fn table1_code(standard: Standard, quick: bool) -> StandardCode {
    if quick {
        let max_pes = TABLE1_PARALLELISM.into_iter().max().unwrap_or(0);
        standard
            .corner_codes()
            .into_iter()
            .filter(|c| c.mapping_units() >= max_pes)
            .min_by_key(|c| c.mapping_units())
            .expect("registry has a corner code mappable at the swept parallelism")
    } else {
        standard
            .worst_ldpc()
            .or_else(|| standard.worst_turbo())
            .expect("registry has codes")
    }
}

/// Pretty-prints Table I in the paper's layout: one block per (topology, D)
/// family, rows = routing algorithms, columns = parallelism.
pub fn print_table1(rows: &[Table1Row]) {
    println!("Table I — throughput [Mb/s] / NoC area [mm2], WiMAX LDPC r=1/2");
    println!("(RL = 0, SCM, R = 0.5, 300 MHz, Itmax = 10, latcore = 15)\n");
    for (kind, degree) in TABLE1_FAMILIES {
        println!("D = {degree}, {}", kind.name());
        print!("{:<14}", "");
        for p in TABLE1_PARALLELISM {
            print!("{:>16}", format!("P = {p}"));
        }
        println!();
        for (routing, arch) in TABLE_ROUTING_ROWS {
            print!("{:<14}", format!("{} ({})", routing.name(), arch.name()));
            for p in TABLE1_PARALLELISM {
                let cell = rows.iter().find(|r| {
                    r.topology == kind.name()
                        && r.degree == degree
                        && r.pes == p
                        && r.routing == routing.name()
                        && r.architecture == arch.name()
                });
                match cell {
                    Some(c) => print!(
                        "{:>16}",
                        format!("{:.2}/{:.2}", c.throughput_mbps, c.noc_area_mm2)
                    ),
                    None => print!("{:>16}", "-"),
                }
            }
            println!();
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_decoder::{CodeRate, DesignSpaceExplorer, QcLdpcCode};

    #[test]
    fn smoke_sweep_on_the_smallest_code_has_72_points() {
        let code = StandardCode::Ldpc {
            standard: Standard::Wimax,
            code: QcLdpcCode::wimax(576, CodeRate::R12).unwrap(),
        };
        let rows = DesignSpaceExplorer::default()
            .table1(&code, 0, None, |_, _| {})
            .unwrap();
        assert_eq!(rows.len(), 6 * 4 * 3);
        assert!(rows
            .iter()
            .all(|r| r.throughput_mbps > 0.0 && r.noc_area_mm2 > 0.0));
        // printing must not panic
        print_table1(&rows[..6]);
    }

    #[test]
    fn standard_selection_picks_the_worst_case_code() {
        assert!(table1_code(Standard::Wimax, false)
            .label()
            .contains("LDPC 2304"));
        assert!(table1_code(Standard::Wifi80211n, false)
            .label()
            .contains("LDPC 1944"));
        // LTE defines no LDPC: the sweep falls back to its turbo code.
        assert!(table1_code(Standard::Lte, false).label().contains("K=6144"));
        assert!(table1_code(Standard::Wran80222, false)
            .label()
            .contains("802.22 LDPC 2304"));
        // DVB-RCS defines no LDPC either: its duo-binary CTC is the sweep code.
        assert!(table1_code(Standard::DvbRcs, false)
            .label()
            .contains("DVB-RCS CTC 1728"));
        assert!(table1_code(Standard::Wifi80211n, true)
            .label()
            .contains("648"));
    }

    #[test]
    fn quick_codes_are_mappable_at_every_swept_parallelism() {
        // Regression: the quick WiMAX pick used to be the DBTC 48 corner
        // (24 couples), which cannot be mapped at P = 32/36 and panicked the
        // sweep.  Every standard's quick code must survive the largest P.
        let max_pes = TABLE1_PARALLELISM.into_iter().max().unwrap();
        for standard in Standard::all() {
            let code = table1_code(standard, true);
            assert!(
                code.mapping_units() >= max_pes,
                "{standard}: {} has {} mapping units < {max_pes}",
                code.label(),
                code.mapping_units()
            );
        }
    }

    #[test]
    fn sweep_streams_each_point_once_on_a_wifi_code() {
        let code = table1_code(Standard::Wifi80211n, true);
        let mut streamed = 0;
        let rows = DesignSpaceExplorer::default()
            .table1(&code, 2, None, |_, _| streamed += 1)
            .unwrap();
        assert_eq!(rows.len(), 72);
        assert_eq!(streamed, 72);
    }
}

//! Table II reproduction: the `P = 22`, `D = 3` generalized-Kautz NoC
//! supporting all WiMAX turbo and LDPC codes — turbo `N = 2400` couples at
//! 75 MHz, LDPC `N = 2304, r = 1/2` at 300 MHz, for the three routing rows.

use code_tables::{Standard, StandardCode};
use noc_decoder::dse::Table2Row;

/// The (LDPC, turbo) pair a `--standard` Table II evaluation exercises on
/// the flexible `P = 22` fabric: the standard's worst-case (largest) codes,
/// or its smallest corner codes when `quick`.  Standards that lack one of
/// the two families borrow the WiMAX code for the missing role, so the
/// table always reports both operating modes.
pub fn table2_codes(standard: Standard, quick: bool) -> (StandardCode, StandardCode) {
    let pick = |want_ldpc: bool| -> StandardCode {
        let from = |standard: Standard| -> Option<StandardCode> {
            if quick {
                standard
                    .corner_codes()
                    .into_iter()
                    .filter(|c| c.is_ldpc() == want_ldpc)
                    .min_by_key(|c| c.mapping_units())
            } else if want_ldpc {
                standard.worst_ldpc()
            } else {
                standard.worst_turbo()
            }
        };
        from(standard)
            .or_else(|| from(Standard::Wimax))
            .expect("the WiMAX registry has both families")
    };
    (pick(true), pick(false))
}

/// Pretty-prints Table II in the paper's layout.
pub fn print_table2(rows: &[Table2Row], ldpc_length: usize, turbo_couples: usize) {
    println!("Table II — P = 22, D = 3 generalized Kautz, R = 0.5");
    println!(
        "{:<14}{:>26}{:>26}",
        "",
        format!("turbo @75 MHz N={}", 2 * turbo_couples),
        format!("LDPC @300 MHz N={ldpc_length}")
    );
    println!(
        "{:<14}{:>26}{:>26}",
        "", "T [Mb/s] / area [mm2]", "T [Mb/s] / area [mm2]"
    );
    for row in rows {
        println!(
            "{:<14}{:>26}{:>26}",
            format!("{} ({})", row.routing, row.architecture),
            format!(
                "{:.2}/{:.2}",
                row.turbo_throughput_mbps, row.turbo_noc_area_mm2
            ),
            format!(
                "{:.2}/{:.2}",
                row.ldpc_throughput_mbps, row.ldpc_noc_area_mm2
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_decoder::{CodeRate, CtcCode, DesignSpaceExplorer, QcLdpcCode};

    fn table2(ldpc: &StandardCode, turbo: &StandardCode) -> Vec<Table2Row> {
        DesignSpaceExplorer::default().table2(ldpc, turbo).unwrap()
    }

    #[test]
    fn smoke_table2_on_small_codes() {
        let rows = table2(
            &StandardCode::Ldpc {
                standard: Standard::Wimax,
                code: QcLdpcCode::wimax(576, CodeRate::R12).unwrap(),
            },
            &StandardCode::WimaxTurbo {
                code: CtcCode::wimax(240).unwrap(),
            },
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.ldpc_throughput_mbps > 0.0);
            assert!(r.turbo_throughput_mbps > 0.0);
            assert!(r.ldpc_noc_area_mm2 > 0.0);
            assert!(r.turbo_noc_area_mm2 > 0.0);
        }
        print_table2(&rows, 576, 240);
    }

    #[test]
    fn standard_pairs_borrow_wimax_for_missing_families() {
        let (ldpc, turbo) = table2_codes(Standard::Wimax, false);
        assert!(ldpc.label().contains("802.16e LDPC 2304"));
        assert!(turbo.label().contains("DBTC 4800"));
        let (ldpc, turbo) = table2_codes(Standard::Wifi80211n, false);
        assert!(ldpc.label().contains("802.11n LDPC 1944"));
        assert!(turbo.label().contains("DBTC 4800"));
        let (ldpc, turbo) = table2_codes(Standard::Lte, false);
        assert!(ldpc.label().contains("802.16e LDPC 2304"));
        assert!(turbo.label().contains("K=6144"));
        // 802.22 defines only LDPC, DVB-RCS only turbo: each borrows the
        // missing WiMAX family so both operating modes stay reported.
        let (ldpc, turbo) = table2_codes(Standard::Wran80222, false);
        assert!(
            ldpc.label().contains("802.22 LDPC 2304"),
            "{}",
            ldpc.label()
        );
        assert!(turbo.label().contains("802.16e DBTC 4800"));
        let (ldpc, turbo) = table2_codes(Standard::DvbRcs, false);
        assert!(ldpc.label().contains("802.16e LDPC 2304"));
        assert!(
            turbo.label().contains("DVB-RCS CTC 1728"),
            "{}",
            turbo.label()
        );
    }

    #[test]
    fn quick_pairs_honor_the_standard() {
        // --quick must not silently fall back to the WiMAX pair when the
        // standard defines the family itself.
        let (ldpc, turbo) = table2_codes(Standard::Wifi80211n, true);
        assert!(
            ldpc.label().contains("802.11n LDPC 648"),
            "{}",
            ldpc.label()
        );
        assert!(turbo.label().contains("802.16e DBTC"), "{}", turbo.label());
        let (ldpc, turbo) = table2_codes(Standard::Lte, true);
        assert!(
            ldpc.label().contains("802.16e LDPC 576"),
            "{}",
            ldpc.label()
        );
        assert!(turbo.label().contains("K=40"), "{}", turbo.label());
        // and the quick rows still evaluate (P = 22 fits the smallest codes)
        let rows = table2(&ldpc, &turbo);
        assert_eq!(rows.len(), 3);
        // DVB-RCS quick: its own smallest CTC plus a borrowed WiMAX LDPC.
        let (ldpc, turbo) = table2_codes(Standard::DvbRcs, true);
        assert!(ldpc.label().contains("802.16e LDPC"), "{}", ldpc.label());
        assert!(
            turbo.label().contains("DVB-RCS CTC 96"),
            "{}",
            turbo.label()
        );
        let rows = table2(&ldpc, &turbo);
        assert_eq!(rows.len(), 3);
    }
}

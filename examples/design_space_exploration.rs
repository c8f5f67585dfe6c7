//! Design-space exploration example: a reduced Table-I-style sweep plus the
//! minimum-parallelism search that selects the paper's `P = 22` design point.
//!
//! The full Table I sweep on the N = 2304 code is produced by the
//! `decoder-bench` crate (`cargo run -p decoder-bench --bin table1 --release`);
//! this example keeps the code length smaller so it finishes quickly.
//!
//! Run with `cargo run --example design_space_exploration --release`.

use noc_decoder::dse::TABLE_ROUTING_ROWS;
use noc_decoder::{
    CodeRate, DecoderConfig, DesignSpaceExplorer, MappingStore, QcLdpcCode, RoutingAlgorithm,
    Standard, StandardCode, TopologyKind,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let code = QcLdpcCode::wimax(1152, CodeRate::R12)?;
    let dse = DesignSpaceExplorer::new(DecoderConfig::paper_design_point());

    println!(
        "Reduced design-space exploration on WiMAX LDPC N = {}, r = 1/2\n",
        code.n()
    );
    println!(
        "{:<16} {:>2} {:>3} {:>8} {:>12} {:>12}",
        "topology", "D", "P", "routing", "T [Mb/s]", "NoC [mm2]"
    );

    // the Table I cells, the minimum-P searches and the routing evaluations
    // map the code once per P into this store
    let mappings = MappingStore::new();
    let cell_code = StandardCode::Ldpc {
        standard: Standard::Wimax,
        code: code.clone(),
    };
    let families = [
        (TopologyKind::GeneralizedDeBruijn, 2),
        (TopologyKind::GeneralizedKautz, 2),
        (TopologyKind::Spidergon, 3),
        (TopologyKind::GeneralizedKautz, 3),
        (TopologyKind::Honeycomb, 4),
        (TopologyKind::GeneralizedKautz, 4),
    ];
    for family in families {
        for pes in [16usize, 32] {
            // use the SSP-FL (PP) row, the paper's preferred flexible choice
            let row = TABLE_ROUTING_ROWS[1];
            let cell = dse.table1_cell(&cell_code, (family, pes, row), &mappings)?;
            println!(
                "{:<16} {:>2} {:>3} {:>8} {:>12.2} {:>12.3}",
                cell.topology,
                cell.degree,
                cell.pes,
                cell.routing,
                cell.throughput_mbps,
                cell.noc_area_mm2
            );
        }
    }

    // Minimum parallelism meeting each standard's throughput requirement.
    println!("\nMinimum-parallelism search (SSP-FL, generalized Kautz D = 3):");
    let candidates: Vec<usize> = (16..=36).step_by(2).collect();
    for standard in Standard::all() {
        let target = standard.required_throughput_mbps();
        match dse.minimum_parallelism(&code, &candidates, target, &mappings)? {
            Some((pes, eval)) => println!(
                "  {standard:<8} P = {pes} reaches {:.2} Mb/s (>= {target:.0} Mb/s requirement)",
                eval.throughput_mbps
            ),
            None => println!(
                "  {standard:<8} no candidate in {candidates:?} reaches {target:.0} Mb/s on this code"
            ),
        }
    }

    // Routing-algorithm sensitivity at the paper's design point.
    println!("\nRouting-algorithm sensitivity at P = 22 (D = 3 generalized Kautz):");
    for routing in [
        RoutingAlgorithm::SspRr,
        RoutingAlgorithm::SspFl,
        RoutingAlgorithm::AspFt,
    ] {
        let config = DecoderConfig::paper_design_point().with_routing(routing);
        let eval = noc_decoder::evaluation::evaluate_ldpc(&config, &code, &mappings)?;
        println!(
            "  {:<8} {:>8.2} Mb/s   fifo depth {:>3}   locality {:>5.2}",
            eval.routing, eval.throughput_mbps, eval.fifo_depth, eval.locality
        );
    }
    Ok(())
}

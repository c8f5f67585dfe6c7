//! `cargo bench` target for the NoC parameter ablations of Section III.A:
//! collision management (DCM vs SCM), the Route-Local flag, the node
//! architecture (AP vs PP) and the routing algorithm, all evaluated at the
//! paper's design point.

use noc_decoder::evaluation::evaluate_ldpc;
use noc_decoder::{
    CodeRate, CollisionPolicy, DecoderConfig, MappingStore, NodeArchitecture, QcLdpcCode,
    RoutingAlgorithm,
};

fn main() {
    let code = QcLdpcCode::wimax(1152, CodeRate::R12).expect("valid code");
    let base = DecoderConfig::paper_design_point();
    // every variant maps the code onto the same P = 22 PEs
    let mappings = MappingStore::new();

    println!("== Ablations at the P = 22, D = 3 generalized-Kautz design point ==");
    println!("(WiMAX LDPC N = 1152, r = 1/2)\n");
    println!(
        "{:<34} {:>10} {:>12} {:>12} {:>10}",
        "variant", "cycles", "T [Mb/s]", "NoC [mm2]", "FIFO depth"
    );

    let report = |label: &str, config: DecoderConfig| {
        let eval = evaluate_ldpc(&config, &code, &mappings).expect("evaluation succeeds");
        println!(
            "{:<34} {:>10} {:>12.2} {:>12.3} {:>10}",
            label, eval.phase_cycles, eval.throughput_mbps, eval.noc_area_mm2, eval.fifo_depth
        );
    };

    report("baseline (SSP-FL, SCM, RL=0, PP)", base);
    report("collision: DCM", base.with_collision(CollisionPolicy::Dcm));
    report("route local: RL=1", base.with_route_local(true));
    report(
        "architecture: AP",
        base.with_architecture(NodeArchitecture::AllPrecalculated),
    );
    report(
        "routing: SSP-RR",
        base.with_routing(RoutingAlgorithm::SspRr),
    );
    report(
        "routing: ASP-FT",
        base.with_routing(RoutingAlgorithm::AspFt),
    );
}

//! Integration tests of the mapping + NoC-simulation pipeline: the
//! "equivalent interleaver" produced by the mapping flow must be deliverable
//! by every topology/routing combination, and the resulting phase duration
//! must respect the structural lower bounds.

use code_tables::DecoderKind;
use fec_json::ToJson;
use noc_decoder::evaluation::{evaluate_standard_code, Mode};
use noc_decoder::model::SISO_INJECTION_RATE;
use noc_decoder::{
    run_multi_compliance_sharded, ComplianceScope, DecoderConfig, MappingConfig, Standard,
    StandardCode,
};
use noc_mapping::turbo::HalfIteration;
use noc_mapping::{LdpcMapping, MappingStore, TurboMapping};
use noc_sim::{
    CollisionPolicy, NocConfig, NocSimulator, NocStats, NodeArchitecture, RoutingAlgorithm,
    Topology, TopologyKind, TrafficTrace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimax_ldpc::{CodeRate, QcLdpcCode};
use wimax_turbo::{CtcCode, ExtrinsicExchange};

#[test]
fn ldpc_equivalent_interleaver_is_fully_delivered_on_every_routing() {
    let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
    let pes = 16;
    let mapping = LdpcMapping::new(&code, pes, MappingConfig::default());
    let trace = mapping.traffic_trace();

    for routing in RoutingAlgorithm::all() {
        let topology = Topology::new(TopologyKind::GeneralizedKautz, pes, 3).unwrap();
        let sim = NocSimulator::new(NocConfig::new(topology, routing)).unwrap();
        let stats = sim.run(trace);
        assert_eq!(stats.delivered, trace.total_messages(), "{routing}");
        // the phase cannot be shorter than the remote-injection bound
        let remote_per_pe = (0..pes)
            .map(|p| trace.messages(p).iter().filter(|m| !m.is_local()).count())
            .max()
            .unwrap();
        let lower_bound = (remote_per_pe as f64 / 0.5).floor() as u64;
        assert!(
            stats.cycles >= lower_bound,
            "{routing}: cycles {} < injection bound {lower_bound}",
            stats.cycles
        );
    }
}

#[test]
fn turbo_mapping_traffic_is_delivered_on_the_paper_design_point() {
    let code = CtcCode::wimax(960).unwrap();
    let pes = 22;
    let mapping = TurboMapping::new(code.interleaver(), pes);
    let topology = Topology::new(TopologyKind::GeneralizedKautz, pes, 3).unwrap();
    let sim = NocSimulator::new(
        NocConfig::new(topology, RoutingAlgorithm::SspFl).with_output_rate(1.0 / 3.0),
    )
    .unwrap();
    for half in [
        noc_mapping::turbo::HalfIteration::First,
        noc_mapping::turbo::HalfIteration::Second,
    ] {
        let trace = mapping.traffic_trace(half);
        let stats = sim.run(&trace);
        assert_eq!(stats.delivered, trace.total_messages());
    }
}

#[test]
fn dcm_and_scm_both_deliver_the_ldpc_phase() {
    let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
    let pes = 16;
    let mapping = LdpcMapping::new(&code, pes, MappingConfig::default());
    let trace = mapping.traffic_trace();
    for collision in [CollisionPolicy::Dcm, CollisionPolicy::Scm] {
        let topology = Topology::new(TopologyKind::GeneralizedKautz, pes, 2).unwrap();
        let sim = NocSimulator::new(
            NocConfig::new(topology, RoutingAlgorithm::SspRr).with_collision(collision),
        )
        .unwrap();
        let stats = sim.run(trace);
        assert_eq!(stats.delivered, trace.total_messages(), "{collision:?}");
    }
}

#[test]
fn better_topologies_give_shorter_phases() {
    // Degree-3 Kautz should never be slower than degree-2 De Bruijn on the
    // same mapped traffic — the qualitative conclusion of Table I.
    let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
    let pes = 16;
    let mapping = LdpcMapping::new(&code, pes, MappingConfig::default());
    let trace = mapping.traffic_trace();

    let run = |kind, degree| {
        let topology = Topology::new(kind, pes, degree).unwrap();
        NocSimulator::new(NocConfig::new(topology, RoutingAlgorithm::SspFl))
            .unwrap()
            .run(trace)
            .cycles
    };
    let kautz3 = run(TopologyKind::GeneralizedKautz, 3);
    let debruijn2 = run(TopologyKind::GeneralizedDeBruijn, 2);
    assert!(
        kautz3 <= debruijn2,
        "Kautz D=3 ({kautz3}) should not be slower than De Bruijn D=2 ({debruijn2})"
    );
}

#[test]
fn mapping_locality_reduces_network_load() {
    // The partitioned mapping must put a significant share of the traffic
    // inside PEs; a cyclic (round-robin) assignment is the baseline.
    let code = QcLdpcCode::wimax(768, CodeRate::R12).unwrap();
    let pes = 16;
    let mapping = LdpcMapping::new(&code, pes, MappingConfig::default());
    let partitioned_locality = mapping.quality().locality();
    // the expected locality of a random/cyclic assignment is roughly 1/P
    assert!(
        partitioned_locality > 2.0 / pes as f64,
        "partitioned locality {partitioned_locality:.3} is not better than ~random"
    );
}

// Golden outputs of the mapping flow and the NoC phase.  `svc_check` and the
// benchmark's row check compare two runs of the same code, so only these
// committed values catch a change to the partitioner, the trace builder or
// the simulator that moves an output bit; every compliance row, Table I-III
// number and DSE number derives from them.

/// FNV-1a over `words`, each fed as its 8 little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        word.to_le_bytes().iter().fold(hash, |h, &byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// FNV-1a over the partition assignment, every message of the traffic
/// trace (source by source: src, dst, location, sequence) and the quality
/// fields of `mapping`.
fn mapping_hash(mapping: &LdpcMapping) -> u64 {
    let assignment = mapping.partition().assignment().iter().map(|&p| p as u64);
    let trace = mapping.traffic_trace();
    let messages = (0..trace.nodes())
        .flat_map(|pe| trace.messages(pe))
        .flat_map(|m| [m.src, m.dst, m.location, m.sequence])
        .map(|x| x as u64);
    let q = mapping.quality();
    let quality = [
        q.pes as u64,
        q.total_messages as u64,
        q.remote_messages as u64,
        q.max_per_pe as u64,
        q.min_per_pe as u64,
        q.edge_cut,
    ];
    fnv1a(assignment.chain(messages).chain(quality))
}

/// FNV-1a over every field of `stats`, the averages by their `f64` bits.
fn noc_stats_hash(stats: &NocStats) -> u64 {
    let scalars = [
        stats.cycles,
        stats.delivered as u64,
        stats.local_bypassed as u64,
        stats.average_latency.to_bits(),
        stats.max_latency,
        stats.average_hops.to_bits(),
        stats.max_fifo_occupancy as u64,
        stats.collisions,
        stats.misrouted,
    ];
    let per_node = (stats.per_node_max_fifo.iter().map(|&f| f as u64))
        .chain(stats.forwarded_per_node.iter().copied());
    fnv1a(scalars.into_iter().chain(per_node))
}

/// `(label, code)` of every LDPC code in `codes`, in registry order.
fn ldpc_codes(codes: Vec<StandardCode>) -> Vec<(String, QcLdpcCode)> {
    codes
        .into_iter()
        .filter_map(|code| {
            let label = code.label();
            match code {
                StandardCode::Ldpc { code, .. } => Some((label, code)),
                _ => None,
            }
        })
        .collect()
}

/// The mapping flow's row graph on every LDPC code of the five
/// registries, against a sorted merge of each pair of rows: the listed
/// weights are those merge counts, and they add up to all other entries
/// of the row's columns, so no row sharing a column is left out.
#[test]
fn every_registry_ldpc_code_has_an_exact_row_adjacency() {
    let shared = |a: &[u32], b: &[u32]| a.iter().filter(|c| b.binary_search(c).is_ok()).count();
    for standard in Standard::all() {
        for (label, code) in ldpc_codes(standard.full_codes()) {
            let rows: Vec<&[u32]> = code.plan().rows().collect();
            let mut column_degree = vec![0; code.n()];
            for &c in code.plan().columns() {
                column_degree[c as usize] += 1;
            }
            let graph = LdpcMapping::row_graph(&code);
            assert_eq!(graph.len(), code.m(), "{label}");
            for (a, bits) in rows.iter().enumerate() {
                let neighbours = graph.neighbors(a);
                assert!(
                    neighbours.windows(2).all(|p| p[0].0 < p[1].0),
                    "{label} row {a}"
                );
                for &(b, w) in neighbours {
                    assert!(b != a && w > 0, "{label} row {a}: ({b}, {w})");
                    assert_eq!(w as usize, shared(bits, rows[b]), "{label} rows {a}, {b}");
                }
                let others: usize = bits.iter().map(|&c| column_degree[c as usize] - 1).sum();
                let listed: u64 = neighbours.iter().map(|&(_, w)| w).sum();
                assert_eq!(listed as usize, others, "{label} row {a}");
            }
        }
    }
}

/// [`mapping_hash`] of every LDPC corner code at `P = 22`.
const CORNER_MAPPING_HASHES: [(&str, u64); 12] = [
    ("802.16e LDPC 576 r=1/2", 0x1b0c_a109_7701_7d2c),
    ("802.16e LDPC 576 r=5/6", 0xce03_f9ab_b07d_7a8c),
    ("802.16e LDPC 2304 r=1/2", 0x97dd_8ae2_f004_a5d4),
    ("802.16e LDPC 2304 r=5/6", 0x3fb1_6286_7cc0_1e96),
    ("802.11n LDPC 648 r=1/2", 0xdf49_1e82_004d_7610),
    ("802.11n LDPC 648 r=5/6", 0x42f3_ecbe_be06_9b87),
    ("802.11n LDPC 1944 r=1/2", 0x492a_1ba7_faab_3677),
    ("802.11n LDPC 1944 r=5/6", 0x657e_3d6d_732f_4ab3),
    ("802.22 LDPC 384 r=1/2", 0x67d2_6d7a_0491_be8b),
    ("802.22 LDPC 384 r=3/4", 0x91fa_8cec_3f1e_a895),
    ("802.22 LDPC 2304 r=1/2", 0x97dd_8ae2_f004_a5d4),
    ("802.22 LDPC 2304 r=3/4", 0x72f0_49bd_ab21_1887),
];

#[test]
fn ldpc_corner_mappings_reproduce_their_golden_hashes() {
    let mut hashes = Vec::new();
    for standard in Standard::all() {
        for (label, code) in ldpc_codes(standard.corner_codes()) {
            let mapping = LdpcMapping::new(&code, 22, MappingConfig::default());
            hashes.push((label, mapping_hash(&mapping)));
        }
    }
    let golden: Vec<(String, u64)> = CORNER_MAPPING_HASHES
        .iter()
        .map(|&(label, hash)| (label.to_string(), hash))
        .collect();
    assert_eq!(hashes, golden);
}

/// A mapping rebuilt from a store hit is the fresh mapping: every corner
/// code looked up a second time reproduces its golden hash, and the store
/// keeps one entry per distinct code.
#[test]
fn store_hits_reproduce_the_golden_corner_mappings() {
    let corners: Vec<(String, QcLdpcCode)> = Standard::all()
        .into_iter()
        .flat_map(|standard| ldpc_codes(standard.corner_codes()))
        .collect();
    let store = MappingStore::new();
    for (_, code) in &corners {
        store.mapping(code, 22, MappingConfig::default());
    }
    // 802.22's rate-1/2 n2304 code is 802.16e's
    assert_eq!(store.len(), corners.len() - 1);
    let hits: Vec<(String, u64)> = corners
        .iter()
        .map(|(label, code)| {
            let hit = store.mapping(code, 22, MappingConfig::default());
            (label.clone(), mapping_hash(&hit))
        })
        .collect();
    assert_eq!(store.len(), corners.len() - 1);
    let golden: Vec<(String, u64)> = CORNER_MAPPING_HASHES
        .iter()
        .map(|&(label, hash)| (label.to_string(), hash))
        .collect();
    assert_eq!(hits, golden);

    let (_, code) = &corners[0];
    let hit = store.mapping(code, 22, MappingConfig::default());
    let fresh = LdpcMapping::new(code, 22, MappingConfig::default());
    assert_eq!(hit.partition(), fresh.partition());
    assert_eq!(hit.traffic_trace(), fresh.traffic_trace());
    assert_eq!(hit.quality(), fresh.quality());
}

/// `(cycles, delivered, collisions, misrouted, noc_stats_hash)` of one NoC
/// phase.
type PhaseGolden = (u64, usize, u64, u64, u64);

/// The NoC phase of the WiMAX rate-1/2 mappings of length `n` at the paper
/// design point (`P = 22` generalized Kautz, `D = 3`), for every routing
/// algorithm × {DCM, SCM} × {AP, PP} in that loop order.
const NOC_PHASE_GOLDENS: [(usize, [PhaseGolden; 12]); 2] = [
    (
        576,
        [
            (164, 1824, 898, 0, 0x633f_d3be_d737_a774), // SSP-RR DCM AP
            (164, 1824, 898, 0, 0x633f_d3be_d737_a774), // SSP-RR DCM PP
            (164, 1824, 1465, 1090, 0x3142_f2f8_8246_792b), // SSP-RR SCM AP
            (164, 1824, 1465, 1090, 0x3142_f2f8_8246_792b), // SSP-RR SCM PP
            (164, 1824, 926, 0, 0x7893_fb8f_4d92_4429), // SSP-FL DCM AP
            (164, 1824, 926, 0, 0x7893_fb8f_4d92_4429), // SSP-FL DCM PP
            (164, 1824, 1328, 912, 0xb4ca_2922_f434_e0c3), // SSP-FL SCM AP
            (164, 1824, 1328, 912, 0xb4ca_2922_f434_e0c3), // SSP-FL SCM PP
            (164, 1824, 931, 0, 0x90ea_e31b_040f_d6d1), // ASP-FT DCM AP
            (164, 1824, 931, 0, 0x90ea_e31b_040f_d6d1), // ASP-FT DCM PP
            (164, 1824, 1208, 855, 0x2103_5075_c00b_bf98), // ASP-FT SCM AP
            (164, 1824, 1208, 855, 0x2103_5075_c00b_bf98), // ASP-FT SCM PP
        ],
    ),
    (
        2304,
        [
            (549, 7296, 3628, 0, 0x6463_01c2_5102_13e3), // SSP-RR DCM AP
            (549, 7296, 3628, 0, 0x6463_01c2_5102_13e3), // SSP-RR DCM PP
            (549, 7296, 5648, 4085, 0xa9bf_e92c_3557_deec), // SSP-RR SCM AP
            (549, 7296, 5648, 4085, 0xa9bf_e92c_3557_deec), // SSP-RR SCM PP
            (549, 7296, 3774, 0, 0x38bf_bd68_4d26_9a1b), // SSP-FL DCM AP
            (549, 7296, 3774, 0, 0x38bf_bd68_4d26_9a1b), // SSP-FL DCM PP
            (549, 7296, 4987, 3503, 0xabd9_94e7_254e_980a), // SSP-FL SCM AP
            (549, 7296, 4987, 3503, 0xabd9_94e7_254e_980a), // SSP-FL SCM PP
            (549, 7296, 3687, 0, 0x105d_51d3_6881_5c21), // ASP-FT DCM AP
            (549, 7296, 3687, 0, 0x105d_51d3_6881_5c21), // ASP-FT DCM PP
            (549, 7296, 5011, 3453, 0xdad9_58bf_3b86_5b38), // ASP-FT SCM AP
            (549, 7296, 5011, 3453, 0xdad9_58bf_3b86_5b38), // ASP-FT SCM PP
        ],
    ),
];

#[test]
fn noc_phases_reproduce_their_golden_stats() {
    let paper = DecoderConfig::paper_design_point();
    for (n, goldens) in NOC_PHASE_GOLDENS {
        let code = QcLdpcCode::wimax(n, CodeRate::R12).unwrap();
        let mapping = LdpcMapping::new(&code, paper.pes, paper.mapping);
        let mut goldens = goldens.into_iter();
        for routing in RoutingAlgorithm::all() {
            for collision in [CollisionPolicy::Dcm, CollisionPolicy::Scm] {
                for architecture in [
                    NodeArchitecture::AllPrecalculated,
                    NodeArchitecture::PartiallyPrecalculated,
                ] {
                    let topology = Topology::new(paper.topology, paper.pes, paper.degree).unwrap();
                    let config = NocConfig::new(topology, routing)
                        .with_collision(collision)
                        .with_architecture(architecture)
                        .with_output_rate(paper.ldpc_output_rate)
                        .with_seed(paper.seed);
                    let stats = NocSimulator::new(config)
                        .unwrap()
                        .run(mapping.traffic_trace());
                    let phase = (
                        stats.cycles,
                        stats.delivered,
                        stats.collisions,
                        stats.misrouted,
                        noc_stats_hash(&stats),
                    );
                    assert_eq!(
                        Some(phase),
                        goldens.next(),
                        "n = {n}, {routing} {} {}",
                        collision.name(),
                        architecture.name()
                    );
                }
            }
        }
    }

    let rate = SISO_INJECTION_RATE;
    let turbo: Vec<(String, Vec<PhaseGolden>)> = Standard::all()
        .into_iter()
        .filter_map(|standard| standard.corner_codes().iter().rev().find_map(turbo_trace))
        .map(|(label, trace)| {
            let topology = Topology::new(paper.topology, paper.pes, paper.degree).unwrap();
            (
                label,
                phase_goldens(&topology, &trace, rate, false, paper.seed),
            )
        })
        .collect();
    let golden: Vec<(String, Vec<PhaseGolden>)> = TURBO_PHASE_GOLDENS
        .iter()
        .map(|(label, phases)| (label.to_string(), phases.to_vec()))
        .collect();
    assert_eq!(turbo, golden, "turbo phases at R = {rate}");

    let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
    let mapping = LdpcMapping::new(&code, paper.pes, paper.mapping);
    let topology = Topology::new(paper.topology, paper.pes, paper.degree).unwrap();
    let routed = phase_goldens(
        &topology,
        mapping.traffic_trace(),
        paper.ldpc_output_rate,
        true,
        paper.seed,
    );
    assert_eq!(routed, ROUTE_LOCAL_PHASE_GOLDENS, "n = 576 with RL = 1");

    let topology = Topology::new(TopologyKind::GeneralizedKautz, 70, 66).unwrap();
    assert_eq!(topology.crossbar_size(), 67);
    let trace = TrafficTrace::uniform_random(70, 24, 0x70_66);
    let wide = phase_goldens(&topology, &trace, paper.ldpc_output_rate, false, paper.seed);
    assert_eq!(
        wide, WIDE_KAUTZ_PHASE_GOLDENS,
        "uniform traffic on P = 70, D = 66"
    );
}

/// The phase of `trace` on `topology` for every routing algorithm ×
/// {DCM, SCM} in that loop order.
fn phase_goldens(
    topology: &Topology,
    trace: &TrafficTrace,
    rate: f64,
    route_local: bool,
    seed: u64,
) -> Vec<PhaseGolden> {
    let mut phases = Vec::new();
    for routing in RoutingAlgorithm::all() {
        for collision in [CollisionPolicy::Dcm, CollisionPolicy::Scm] {
            let config = NocConfig::new(topology.clone(), routing)
                .with_collision(collision)
                .with_route_local(route_local)
                .with_output_rate(rate)
                .with_seed(seed);
            let stats = NocSimulator::new(config).unwrap().run(trace);
            phases.push((
                stats.cycles,
                stats.delivered,
                stats.collisions,
                stats.misrouted,
                noc_stats_hash(&stats),
            ));
        }
    }
    phases
}

/// `(label, first-half trace)` of a turbo code's mapping at `P = 22`,
/// built the way the compliance evaluation builds it; `None` for LDPC.
fn turbo_trace(code: &StandardCode) -> Option<(String, TrafficTrace)> {
    let pes = DecoderConfig::paper_design_point().pes;
    let mapping = match code {
        StandardCode::WimaxTurbo { code } | StandardCode::DvbRcsTurbo { code } => {
            TurboMapping::new(code.interleaver(), pes)
        }
        StandardCode::LteTurbo { code } => TurboMapping::new(code.interleaver(), pes),
        StandardCode::Ldpc { .. } => return None,
    };
    Some((code.label(), mapping.traffic_trace(HalfIteration::First)))
}

/// The first-half NoC phase of the largest turbo corner code of each
/// standard at the paper design point and the SISO injection rate (1/3),
/// for every routing algorithm × {DCM, SCM} in that loop order.
const TURBO_PHASE_GOLDENS: [(&str, [PhaseGolden; 6]); 3] = [
    (
        "802.16e DBTC 4800 r=1/2",
        [
            (323, 2400, 577, 0, 0x76f1_05e1_6f06_f762),   // SSP-RR DCM
            (323, 2400, 717, 475, 0xc484_cc5b_9776_5e40), // SSP-RR SCM
            (323, 2400, 561, 0, 0xfc22_33d8_ce54_4f02),   // SSP-FL DCM
            (323, 2400, 694, 462, 0x37f4_a6e9_b145_b760), // SSP-FL SCM
            (323, 2400, 540, 0, 0x642e_0719_768f_e327),   // ASP-FT DCM
            (323, 2400, 651, 418, 0x8f71_375a_9ab7_188b), // ASP-FT SCM
        ],
    ),
    (
        "LTE TC K=6144 r=1/3",
        [
            (810, 6144, 1870, 0, 0x9379_3f76_325f_6365), // SSP-RR DCM
            (810, 6144, 2229, 1457, 0x89f6_e7a4_36ab_c28e), // SSP-RR SCM
            (810, 6144, 1853, 0, 0x4281_a69e_33a6_ee64), // SSP-FL DCM
            (813, 6144, 2069, 1282, 0xfa84_ed74_36f9_17bb), // SSP-FL SCM
            (810, 6144, 1795, 0, 0x193d_ca58_23a7_58f5), // ASP-FT DCM
            (810, 6144, 1939, 1189, 0xb716_3eb0_37e7_a67e), // ASP-FT SCM
        ],
    ),
    (
        "DVB-RCS CTC 1728 r=1/2",
        [
            (117, 864, 254, 0, 0xd0c9_e4bf_48b4_81a2),   // SSP-RR DCM
            (117, 864, 310, 249, 0xca4b_7785_c1f7_9c32), // SSP-RR SCM
            (117, 864, 238, 0, 0xc3ba_5c3c_0a44_d68f),   // SSP-FL DCM
            (118, 864, 291, 237, 0x7343_f04e_1af2_7ae3), // SSP-FL SCM
            (117, 864, 230, 0, 0x478a_1898_654b_41b1),   // ASP-FT DCM
            (118, 864, 344, 284, 0x74f6_5478_5892_12a3), // ASP-FT SCM
        ],
    ),
];

/// The WiMAX n576 rate-1/2 phase at the paper design point with RL = 1
/// (local messages take the node's local port), every routing × {DCM, SCM}.
const ROUTE_LOCAL_PHASE_GOLDENS: [PhaseGolden; 6] = [
    (206, 1824, 878, 0, 0x0215_d7e5_ea59_c295), // SSP-RR DCM
    (206, 1824, 1149, 662, 0x08ee_77a1_68f6_b096), // SSP-RR SCM
    (206, 1824, 951, 0, 0xb34a_8b70_0827_2fd3), // SSP-FL DCM
    (206, 1824, 1103, 566, 0x082a_a775_2634_3910), // SSP-FL SCM
    (206, 1824, 966, 0, 0xb04d_0b88_b8ca_5a8a), // ASP-FT DCM
    (206, 1824, 1050, 562, 0x441a_f291_4f1c_a9e2), // ASP-FT SCM
];

/// Uniform random traffic (24 messages per node) on a `P = 70`, `D = 66`
/// generalized Kautz network, whose nodes have 67 ports, at `R = 0.5`,
/// every routing × {DCM, SCM}.
const WIDE_KAUTZ_PHASE_GOLDENS: [PhaseGolden; 6] = [
    (55, 1680, 1155, 0, 0xda90_e7db_fdd2_3e38), // SSP-RR DCM
    (55, 1680, 1162, 1, 0xdbaa_30cf_b552_c868), // SSP-RR SCM
    (55, 1680, 1176, 0, 0x2de5_dd50_35e2_ff97), // SSP-FL DCM
    (55, 1680, 1176, 1, 0xd98a_3b02_1f5d_b69d), // SSP-FL SCM
    (55, 1680, 1176, 0, 0xd52e_0785_da83_a1f1), // ASP-FT DCM
    (55, 1680, 1176, 1, 0xc85a_8920_dd87_30bb), // ASP-FT SCM
];

/// The JSON rows of the five corner scopes at the paper design point.
const CORNER_COMPLIANCE_ROWS: [&str; 18] = [
    r#"{"standard":"802.16e","code":"802.16e LDPC 576 r=1/2","info_bits":288,"throughput_mbps":48.26815642458101,"phase_cycles":164,"required_mbps":70.0,"compliant":false}"#,
    r#"{"standard":"802.16e","code":"802.16e LDPC 576 r=5/6","info_bits":480,"throughput_mbps":64.86486486486487,"phase_cycles":207,"required_mbps":70.0,"compliant":false}"#,
    r#"{"standard":"802.16e","code":"802.16e LDPC 2304 r=1/2","info_bits":1152,"throughput_mbps":61.276595744680854,"phase_cycles":549,"required_mbps":70.0,"compliant":false}"#,
    r#"{"standard":"802.16e","code":"802.16e LDPC 2304 r=5/6","info_bits":1920,"throughput_mbps":84.83063328424153,"phase_cycles":664,"required_mbps":70.0,"compliant":true}"#,
    r#"{"standard":"802.16e","code":"802.16e DBTC 48 r=1/2","info_bits":48,"throughput_mbps":4.411764705882353,"phase_cycles":36,"required_mbps":70.0,"compliant":false}"#,
    r#"{"standard":"802.16e","code":"802.16e DBTC 4800 r=1/2","info_bits":4800,"throughput_mbps":60.0,"phase_cycles":360,"required_mbps":70.0,"compliant":false}"#,
    r#"{"standard":"802.11n","code":"802.11n LDPC 648 r=1/2","info_bits":324,"throughput_mbps":42.63157894736842,"phase_cycles":213,"required_mbps":450.0,"compliant":false}"#,
    r#"{"standard":"802.11n","code":"802.11n LDPC 648 r=5/6","info_bits":540,"throughput_mbps":71.68141592920354,"phase_cycles":211,"required_mbps":450.0,"compliant":false}"#,
    r#"{"standard":"802.11n","code":"802.11n LDPC 1944 r=1/2","info_bits":972,"throughput_mbps":56.731517509727624,"phase_cycles":499,"required_mbps":450.0,"compliant":false}"#,
    r#"{"standard":"802.11n","code":"802.11n LDPC 1944 r=5/6","info_bits":1620,"throughput_mbps":85.56338028169014,"phase_cycles":553,"required_mbps":450.0,"compliant":false}"#,
    r#"{"standard":"LTE","code":"LTE TC K=40 r=1/3","info_bits":40,"throughput_mbps":3.676470588235294,"phase_cycles":36,"required_mbps":150.0,"compliant":false}"#,
    r#"{"standard":"LTE","code":"LTE TC K=6144 r=1/3","info_bits":6144,"throughput_mbps":32.54237288135593,"phase_cycles":870,"required_mbps":150.0,"compliant":false}"#,
    r#"{"standard":"802.22","code":"802.22 LDPC 384 r=1/2","info_bits":192,"throughput_mbps":45.354330708661415,"phase_cycles":112,"required_mbps":23.0,"compliant":true}"#,
    r#"{"standard":"802.22","code":"802.22 LDPC 384 r=3/4","info_bits":288,"throughput_mbps":50.526315789473685,"phase_cycles":156,"required_mbps":23.0,"compliant":true}"#,
    r#"{"standard":"802.22","code":"802.22 LDPC 2304 r=1/2","info_bits":1152,"throughput_mbps":61.276595744680854,"phase_cycles":549,"required_mbps":23.0,"compliant":true}"#,
    r#"{"standard":"802.22","code":"802.22 LDPC 2304 r=3/4","info_bits":1728,"throughput_mbps":70.6267029972752,"phase_cycles":719,"required_mbps":23.0,"compliant":true}"#,
    r#"{"standard":"DVB-RCS","code":"DVB-RCS CTC 96 r=1/2","info_bits":96,"throughput_mbps":7.894736842105263,"phase_cycles":42,"required_mbps":8.0,"compliant":false}"#,
    r#"{"standard":"DVB-RCS","code":"DVB-RCS CTC 1728 r=1/2","info_bits":1728,"throughput_mbps":49.09090909090909,"phase_cycles":150,"required_mbps":8.0,"compliant":true}"#,
];

#[test]
fn corner_compliance_rows_reproduce_their_golden_json() {
    let report = run_multi_compliance_sharded(
        &DecoderConfig::paper_design_point(),
        &ComplianceScope::all_corners(),
        1,
        |_, _| {},
    )
    .unwrap();
    let rows: Vec<String> = report
        .entries
        .iter()
        .map(|e| e.to_json().to_string())
        .collect();
    assert_eq!(rows, CORNER_COMPLIANCE_ROWS);
}

/// `(standard, P, LDPC codes, FNV-1a over their mapping hashes in registry
/// order)` for every LDPC code of the five full registries.
const FULL_REGISTRY_MAPPING_HASHES: [(&str, usize, usize, u64); 9] = [
    ("802.16e", 4, 114, 0x3929_63a0_f0b2_89dd),
    ("802.16e", 22, 114, 0xe360_3b7a_67d0_b37d),
    ("802.16e", 37, 114, 0x3fdc_9f35_432d_1ceb),
    ("802.11n", 4, 12, 0x8cf9_e574_10fc_8709),
    ("802.11n", 22, 12, 0xa23d_5d6f_81a2_3054),
    ("802.11n", 37, 12, 0x153d_ed85_34a6_4397),
    ("802.22", 4, 18, 0x1dfc_0505_cda4_7a5c),
    ("802.22", 22, 18, 0xe526_b514_8959_7190),
    ("802.22", 37, 18, 0xf057_3bfb_722d_4472),
];

#[test]
#[ignore = "432 mappings: run in release with `-- --ignored`"]
fn full_registry_mappings_reproduce_their_golden_hashes() {
    let mut hashes = Vec::new();
    for standard in Standard::all() {
        let codes = ldpc_codes(standard.full_codes());
        if codes.is_empty() {
            continue;
        }
        for pes in [4, 22, 37] {
            let per_code = codes.iter().map(|(_, code)| {
                mapping_hash(&LdpcMapping::new(code, pes, MappingConfig::default()))
            });
            hashes.push((standard.name(), pes, codes.len(), fnv1a(per_code)));
        }
    }
    assert_eq!(hashes, FULL_REGISTRY_MAPPING_HASHES);
}

/// FNV-1a over one turbo code of the registry: its label, its catalogue
/// codec's name, the codeword of one random frame seeded by the code's
/// size, and every field of its evaluation at the paper design point.
fn turbo_code_hash(code: &StandardCode) -> u64 {
    let decoder = match code.standard() {
        Standard::Lte => DecoderKind::Turbo,
        _ => DecoderKind::Ctc(ExtrinsicExchange::BitLevel),
    };
    let codec = code.codec(decoder).unwrap();
    let mut rng = StdRng::seed_from_u64(code.info_bits() as u64);
    let info: Vec<u8> = (0..codec.info_bits())
        .map(|_| rng.gen_range(0..=1))
        .collect();
    let codeword = codec.encode(&info);
    let e = evaluate_standard_code(
        &DecoderConfig::paper_design_point(),
        code,
        &MappingStore::new(),
    )
    .unwrap();
    let text = [
        code.label(),
        codec.name(),
        e.topology.clone(),
        e.routing.clone(),
        e.architecture.clone(),
    ]
    .join("\n");
    let numbers = [
        u64::from(e.mode == Mode::Turbo),
        e.pes as u64,
        e.degree as u64,
        e.phase_cycles,
        e.info_bits as u64,
        e.throughput_mbps.to_bits(),
        e.noc_area_mm2.to_bits(),
        e.core_area_mm2.to_bits(),
        e.fifo_depth as u64,
        e.locality.to_bits(),
        e.average_latency.to_bits(),
        e.messages_per_phase as u64,
    ];
    let bytes = text.bytes().chain(codeword).map(u64::from);
    fnv1a(bytes.chain(numbers))
}

/// `(label, turbo_code_hash)` of every turbo code of the five full
/// registries, in registry order: 17 802.16e CTC sizes, 10 LTE block sizes
/// and 12 DVB-RCS sizes.
const TURBO_CODE_HASHES: [(&str, u64); 39] = [
    ("802.16e DBTC 48 r=1/2", 0x9b16_6208_7740_b314),
    ("802.16e DBTC 72 r=1/2", 0x32fe_7283_5aa9_22f6),
    ("802.16e DBTC 96 r=1/2", 0xbb75_b5db_e55e_b37e),
    ("802.16e DBTC 144 r=1/2", 0xb959_0a93_9f49_7835),
    ("802.16e DBTC 192 r=1/2", 0xc177_067b_cdfb_c256),
    ("802.16e DBTC 216 r=1/2", 0x9112_4d3e_1c50_1138),
    ("802.16e DBTC 240 r=1/2", 0x7ecc_4828_045b_6fd8),
    ("802.16e DBTC 288 r=1/2", 0xe610_7fac_afc5_c245),
    ("802.16e DBTC 360 r=1/2", 0x84ae_b7ec_9c43_67a1),
    ("802.16e DBTC 384 r=1/2", 0x4bf4_0681_e713_3198),
    ("802.16e DBTC 432 r=1/2", 0xa7b8_f89c_53fb_30c1),
    ("802.16e DBTC 480 r=1/2", 0xa994_c64e_0bfe_e6d2),
    ("802.16e DBTC 960 r=1/2", 0x8511_03e0_987b_5066),
    ("802.16e DBTC 1920 r=1/2", 0x8580_8e04_b682_0acd),
    ("802.16e DBTC 2880 r=1/2", 0x3276_0e1a_3f2c_0978),
    ("802.16e DBTC 3840 r=1/2", 0xa607_98fa_1738_e349),
    ("802.16e DBTC 4800 r=1/2", 0x8358_53ad_fe79_6777),
    ("LTE TC K=40 r=1/3", 0x36cd_9230_d3dc_16d2),
    ("LTE TC K=64 r=1/3", 0x1327_d0f7_f3b9_5c0b),
    ("LTE TC K=104 r=1/3", 0x0a77_79a7_2dcb_c0e8),
    ("LTE TC K=128 r=1/3", 0xcab7_b0df_c9fa_8b01),
    ("LTE TC K=208 r=1/3", 0x8340_b7ce_dc8a_0f33),
    ("LTE TC K=256 r=1/3", 0xfd81_d531_8534_4613),
    ("LTE TC K=512 r=1/3", 0x4a43_3b4d_55f5_8070),
    ("LTE TC K=1024 r=1/3", 0x1c14_61b3_dbd3_3597),
    ("LTE TC K=2048 r=1/3", 0x2798_2553_1d9a_5118),
    ("LTE TC K=6144 r=1/3", 0x5039_8b7b_a2ed_69fd),
    ("DVB-RCS CTC 96 r=1/2", 0x7d6b_716a_942f_bd7c),
    ("DVB-RCS CTC 128 r=1/2", 0x8331_8b11_0a5d_7566),
    ("DVB-RCS CTC 424 r=1/2", 0x0c66_788e_6dfc_fde4),
    ("DVB-RCS CTC 440 r=1/2", 0x6888_5c22_9831_e0e5),
    ("DVB-RCS CTC 456 r=1/2", 0xb7a2_fde3_f8ce_87d8),
    ("DVB-RCS CTC 848 r=1/2", 0x9515_6dea_4ce2_7f14),
    ("DVB-RCS CTC 864 r=1/2", 0x0c59_ded3_adb4_ea96),
    ("DVB-RCS CTC 880 r=1/2", 0x02df_2e81_3395_7211),
    ("DVB-RCS CTC 1504 r=1/2", 0xae24_e176_63e5_0b00),
    ("DVB-RCS CTC 1696 r=1/2", 0xc1e7_b7d0_7769_1d39),
    ("DVB-RCS CTC 1712 r=1/2", 0x87be_c344_2524_e4b5),
    ("DVB-RCS CTC 1728 r=1/2", 0x006a_aeea_44cf_9c6c),
];

#[test]
fn every_registry_turbo_code_reproduces_its_golden_hash() {
    let hashes: Vec<(String, u64)> = Standard::all()
        .into_iter()
        .flat_map(Standard::full_codes)
        .filter(|code| !code.is_ldpc())
        .map(|code| (code.label(), turbo_code_hash(&code)))
        .collect();
    let golden: Vec<(String, u64)> = TURBO_CODE_HASHES
        .iter()
        .map(|&(label, hash)| (label.to_string(), hash))
        .collect();
    assert_eq!(hashes, golden);
}

/// FNV-1a over a code's label, the `Debug` text of its evaluation at
/// `config`, the bits of its power and the bits of its total area at 65 nm.
fn design_point_hash(config: &DecoderConfig, code: &StandardCode, mappings: &MappingStore) -> u64 {
    let e = evaluate_standard_code(config, code, mappings).unwrap();
    let text = format!("{}\n{e:?}", code.label());
    let model = [e.power_mw().to_bits(), e.total_area_mm2_at(65.0).to_bits()];
    fnv1a(text.bytes().map(u64::from).chain(model))
}

/// `[paper design point, ASP-FT routing with AP nodes at P = 16]`
/// `design_point_hash`es of the 18 corner codes of the five standards, in
/// registry order.
const CORNER_DESIGN_POINT_HASHES: [[u64; 2]; 18] = [
    [0x020f_e221_a24d_750e, 0xd637_c250_bdf0_c00b], // 802.16e LDPC 576 r=1/2
    [0x0ff7_5422_d345_e605, 0x02de_b45b_c6cb_a8c9], // 802.16e LDPC 576 r=5/6
    [0xebae_dd82_8985_d850, 0x16bc_b301_318d_5691], // 802.16e LDPC 2304 r=1/2
    [0x852f_0936_7fe4_fa7b, 0x9f08_02b1_c2c7_aeb0], // 802.16e LDPC 2304 r=5/6
    [0xc99e_7927_04e7_ad17, 0xd057_321a_f718_97dc], // 802.16e DBTC 48 r=1/2
    [0xf45e_8287_cc0e_3e8c, 0x66ec_09ee_9be5_baf9], // 802.16e DBTC 4800 r=1/2
    [0x5ff7_ffd1_8cd5_fa9a, 0x2be6_c55f_8469_e5e6], // 802.11n LDPC 648 r=1/2
    [0x3ac3_f164_f862_7d00, 0x1ed1_53c9_60a2_a14d], // 802.11n LDPC 648 r=5/6
    [0x7bf6_a2e2_fec5_b7ca, 0x7118_3ed9_6b94_0499], // 802.11n LDPC 1944 r=1/2
    [0x790e_9380_2bc9_aeca, 0x577c_9a5f_4edc_d878], // 802.11n LDPC 1944 r=5/6
    [0x0f51_4e49_fec5_ab3c, 0x6c0d_b9d6_b36f_ccf2], // LTE TC K=40 r=1/3
    [0x86a2_aedc_cf52_db5c, 0xc588_4ade_1981_3399], // LTE TC K=6144 r=1/3
    [0x3e98_c177_655a_9c57, 0x762e_9978_a8f0_5ed6], // 802.22 LDPC 384 r=1/2
    [0xd1c5_216f_42fb_5796, 0x872b_9a97_3910_3691], // 802.22 LDPC 384 r=3/4
    [0x376b_aed8_13fe_82c6, 0x3671_2d63_02ed_46bb], // 802.22 LDPC 2304 r=1/2
    [0x0b62_81db_d341_dfa8, 0xd5d5_8a37_5fc1_e787], // 802.22 LDPC 2304 r=3/4
    [0xb430_0e80_4a44_1e1e, 0x7982_af4a_e22d_58ec], // DVB-RCS CTC 96 r=1/2
    [0xfde0_2a6b_99ef_909a, 0x5d29_96d9_ff53_8da5], // DVB-RCS CTC 1728 r=1/2
];

#[test]
fn corner_design_points_reproduce_their_golden_hashes() {
    let paper = DecoderConfig::paper_design_point();
    let asp_ft = paper
        .with_pes(16)
        .with_routing(RoutingAlgorithm::AspFt)
        .with_architecture(NodeArchitecture::AllPrecalculated);
    let mappings = MappingStore::new();
    let codes: Vec<StandardCode> = Standard::all()
        .into_iter()
        .flat_map(Standard::corner_codes)
        .collect();
    let hashes: Vec<[u64; 2]> = codes
        .iter()
        .map(|code| [paper, asp_ft].map(|config| design_point_hash(&config, code, &mappings)))
        .collect();
    let labels: Vec<String> = codes.iter().map(StandardCode::label).collect();
    assert_eq!(hashes, CORNER_DESIGN_POINT_HASHES, "{labels:?}");
}

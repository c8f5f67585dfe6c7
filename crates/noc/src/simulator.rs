//! The cycle-accurate simulation loop.

use crate::node::{CollisionPolicy, NodeArchitecture, NodeState};
use crate::packet::InFlight;
use crate::routing::{RoutingAlgorithm, RoutingTables};
use crate::stats::NocStats;
use crate::topology::Topology;
use crate::traffic::TrafficTrace;
use crate::NocError;
use rand::{Rng, SeedableRng};

/// Full configuration of a NoC instance (the parameter set of Section III.A).
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// The interconnection topology.
    pub topology: Topology,
    /// Routing algorithm / serving policy.
    pub routing: RoutingAlgorithm,
    /// Collision management (DCM or SCM).
    pub collision: CollisionPolicy,
    /// Node architecture flavour (AP or PP) — affects the area model, not the
    /// cycle behaviour.
    pub architecture: NodeArchitecture,
    /// Route-Local flag: when `false` (RL = 0) messages whose destination is
    /// their source bypass the network through an internal queue.
    pub route_local: bool,
    /// PE output rate `R`: messages produced per PE per clock cycle
    /// (the paper uses `R = 0.5`).
    pub output_rate: f64,
    /// Seed of the deterministic RNG used by SCM misrouting.
    pub seed: u64,
}

impl NocConfig {
    /// Creates a configuration with the paper's default parameters
    /// (`RL = 0`, `SCM`, `R = 0.5`, PP architecture).
    pub fn new(topology: Topology, routing: RoutingAlgorithm) -> Self {
        NocConfig {
            topology,
            routing,
            collision: CollisionPolicy::Scm,
            architecture: NodeArchitecture::PartiallyPrecalculated,
            route_local: false,
            output_rate: 0.5,
            seed: 0x5EED,
        }
    }

    /// Builder-style setter for the collision policy.
    pub fn with_collision(mut self, collision: CollisionPolicy) -> Self {
        self.collision = collision;
        self
    }

    /// Builder-style setter for the node architecture.
    pub fn with_architecture(mut self, architecture: NodeArchitecture) -> Self {
        self.architecture = architecture;
        self
    }

    /// Builder-style setter for the Route-Local flag.
    pub fn with_route_local(mut self, route_local: bool) -> Self {
        self.route_local = route_local;
        self
    }

    /// Builder-style setter for the PE output rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not in `(0, 1]` — a PE cannot inject more than
    /// one message per cycle through its single local port.
    pub fn with_output_rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "output rate must be in (0, 1]");
        self.output_rate = rate;
        self
    }

    /// Builder-style setter for the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The cycle-accurate NoC simulator.
///
/// See the crate-level example for typical usage.
#[derive(Debug, Clone)]
pub struct NocSimulator {
    config: NocConfig,
    tables: RoutingTables,
    /// `link[u][port] = (v, input_port_of_v)` for every network output port.
    link: Vec<Vec<(usize, usize)>>,
    /// Number of input ports (in-degree + 1) per node.
    input_ports: Vec<usize>,
}

/// Safety cap on the number of simulated cycles; reached only if the
/// configuration cannot deliver the traffic (which would indicate a bug).
const MAX_CYCLES: u64 = 50_000_000;

impl NocSimulator {
    /// Builds a simulator: computes the routing tables and the link map.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidTopology`] if the topology has isolated
    /// nodes (cannot happen for topologies built by [`Topology::new`]).
    pub fn new(config: NocConfig) -> Result<Self, NocError> {
        let topo = &config.topology;
        let p = topo.nodes();
        let tables = RoutingTables::build(topo);

        // Build the link map and per-node input port counts.
        let mut in_count = vec![0usize; p];
        let mut link: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p];
        for (u, link_u) in link.iter_mut().enumerate() {
            for &v in topo.neighbors(u) {
                let input_port = in_count[v];
                in_count[v] += 1;
                link_u.push((v, input_port));
            }
        }
        if in_count.contains(&0) {
            return Err(NocError::InvalidTopology {
                reason: "a node has no incoming links".to_string(),
            });
        }
        let input_ports = in_count.iter().map(|&c| c + 1).collect();
        Ok(NocSimulator {
            config,
            tables,
            link,
            input_ports,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The pre-computed routing tables.
    pub fn tables(&self) -> &RoutingTables {
        &self.tables
    }

    /// Simulates one message-passing phase described by `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the trace references more sources than the network has
    /// nodes or a destination outside the network.
    pub fn run(&self, trace: &TrafficTrace) -> NocStats {
        let topo = &self.config.topology;
        let p = topo.nodes();
        assert!(
            trace.nodes() <= p,
            "trace has {} sources but the network has {p} nodes",
            trace.nodes()
        );
        if let Some(max_dst) = trace.max_destination() {
            assert!(
                max_dst < p,
                "trace destination {max_dst} outside network of {p} nodes"
            );
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let mut nodes: Vec<NodeState> = (0..p)
            .map(|i| {
                // input ports: in-degree + 1 local (but at least as many as
                // the output side, preserving the round-robin rotation
                // period); output ports: out-degree + 1 local.
                let outputs = topo.neighbors(i).len() + 1;
                NodeState::with_ports(self.input_ports[i].max(outputs), outputs)
            })
            .collect();

        let total = trace.total_messages();
        let mut next_to_inject = vec![0usize; p];
        let mut credit = vec![0.0f64; p];

        let mut stats = NocStats {
            per_node_max_fifo: vec![0; p],
            forwarded_per_node: vec![0; p],
            ..NocStats::default()
        };
        let mut delivered = 0usize;
        let mut latency_sum: u64 = 0;
        let mut hop_sum: u64 = 0;
        let mut routed_delivered: u64 = 0;

        let longest_first = matches!(
            self.config.routing,
            RoutingAlgorithm::SspFl | RoutingAlgorithm::AspFt
        );
        // per-node scratch, reused across nodes and cycles
        let mut order: Vec<usize> = Vec::new();
        let mut output_taken: Vec<bool> = Vec::new();

        let mut cycle: u64 = 0;
        while delivered < total && cycle < MAX_CYCLES {
            // -------- 1. injection --------
            for src in 0..trace.nodes() {
                credit[src] += self.config.output_rate;
                let msgs = trace.messages(src);
                while next_to_inject[src] < msgs.len() {
                    let msg = msgs[next_to_inject[src]];
                    if msg.is_local() && !self.config.route_local {
                        // RL = 0: local messages go through an internal queue
                        // and do not occupy the network injection port.
                        next_to_inject[src] += 1;
                        delivered += 1;
                        stats.local_bypassed += 1;
                        continue;
                    }
                    if credit[src] < 1.0 {
                        break;
                    }
                    credit[src] -= 1.0;
                    next_to_inject[src] += 1;
                    let local_in = nodes[src].ports() - 1;
                    nodes[src].enqueue(local_in, InFlight::new(msg, cycle));
                }
            }

            // -------- 2. routing / crossbar arbitration --------
            #[allow(clippy::needless_range_loop)] // `nodes` is indexed mutably at several spots
            for node_idx in 0..p {
                let out_ports = topo.neighbors(node_idx).len();
                let local_out = out_ports; // delivery port index
                nodes[node_idx].fill_serving_order(longest_first, &mut order);
                output_taken.clear();
                output_taken.resize(out_ports + 1, false);

                for &in_port in &order {
                    let Some(head) = nodes[node_idx].input_fifos[in_port].front().copied() else {
                        continue;
                    };
                    let dst = head.message.dst;
                    let chosen: Option<usize> = if dst == node_idx {
                        if output_taken[local_out] {
                            None
                        } else {
                            Some(local_out)
                        }
                    } else {
                        let candidates = self.tables.ports(node_idx, dst);
                        match self.config.routing {
                            RoutingAlgorithm::SspRr | RoutingAlgorithm::SspFl => candidates
                                .first()
                                .copied()
                                .filter(|&port| !output_taken[port]),
                            RoutingAlgorithm::AspFt => candidates
                                .iter()
                                .copied()
                                .filter(|&port| !output_taken[port])
                                .min_by_key(|&port| nodes[node_idx].sent_per_port[port]),
                        }
                    };

                    let assigned = match chosen {
                        Some(port) => Some(port),
                        None => {
                            stats.collisions += 1;
                            match self.config.collision {
                                CollisionPolicy::Dcm => None,
                                CollisionPolicy::Scm => {
                                    // misroute to a uniformly drawn free *network* port
                                    let mut free_ports =
                                        (0..out_ports).filter(|&q| !output_taken[q]);
                                    let free = free_ports.clone().count();
                                    if free == 0 || dst == node_idx {
                                        None
                                    } else {
                                        stats.misrouted += 1;
                                        free_ports.nth(rng.gen_range(0..free))
                                    }
                                }
                            }
                        }
                    };

                    if let Some(port) = assigned {
                        let mut msg = nodes[node_idx].input_fifos[in_port]
                            .pop_front()
                            .expect("head exists");
                        output_taken[port] = true;
                        nodes[node_idx].sent_per_port[port] += 1;
                        if port == local_out {
                            // delivered to the PE attached to this node
                            delivered += 1;
                            routed_delivered += 1;
                            let lat = cycle + 1 - msg.injected_at;
                            latency_sum += lat;
                            hop_sum += msg.hops as u64;
                            stats.max_latency = stats.max_latency.max(lat);
                        } else {
                            msg.hops += 1;
                            stats.forwarded_per_node[node_idx] += 1;
                            nodes[node_idx].output_registers[port] = Some(msg);
                        }
                    }
                }
                nodes[node_idx].rr_pointer = nodes[node_idx].rr_pointer.wrapping_add(1);
            }

            // -------- 3. link traversal: output registers -> downstream FIFOs --------
            for u in 0..p {
                for port in 0..topo.neighbors(u).len() {
                    if let Some(msg) = nodes[u].output_registers[port].take() {
                        let (v, in_port) = self.link[u][port];
                        nodes[v].enqueue(in_port, msg);
                    }
                }
            }

            cycle += 1;
        }

        stats.cycles = cycle;
        stats.delivered = delivered;
        for (i, node) in nodes.iter().enumerate() {
            let max = node.max_fifo_occupancy.iter().copied().max().unwrap_or(0);
            stats.per_node_max_fifo[i] = max;
            stats.max_fifo_occupancy = stats.max_fifo_occupancy.max(max);
        }
        if routed_delivered > 0 {
            stats.average_latency = latency_sum as f64 / routed_delivered as f64;
            stats.average_hops = hop_sum as f64 / routed_delivered as f64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Message;
    use crate::topology::TopologyKind;

    fn kautz_config(p: usize, d: usize, routing: RoutingAlgorithm) -> NocConfig {
        let topo = Topology::new(TopologyKind::GeneralizedKautz, p, d).unwrap();
        NocConfig::new(topo, routing)
    }

    #[test]
    fn all_messages_are_delivered_uniform_traffic() {
        for routing in RoutingAlgorithm::all() {
            let sim = NocSimulator::new(kautz_config(16, 2, routing)).unwrap();
            let trace = TrafficTrace::uniform_random(16, 40, 3);
            let stats = sim.run(&trace);
            assert_eq!(stats.delivered, trace.total_messages(), "{routing}");
            assert!(stats.cycles > 0);
            assert!(stats.average_latency >= 1.0);
        }
    }

    #[test]
    fn single_message_takes_distance_plus_pipeline_cycles() {
        // one message from node 0 to a direct neighbour
        let config = kautz_config(8, 2, RoutingAlgorithm::SspRr).with_output_rate(1.0);
        let sim = NocSimulator::new(config).unwrap();
        let dst = sim.config().topology.neighbors(0)[0];
        let trace = TrafficTrace::new(vec![vec![Message::new(0, dst, 0, 0)]]);
        let stats = sim.run(&trace);
        assert_eq!(stats.delivered, 1);
        // inject (cycle 0), route out of node 0 (cycle 0), arrive at dst FIFO
        // (end of cycle 0), route to local port (cycle 1): latency 2, hops 1.
        assert_eq!(stats.max_latency, 2);
        assert!((stats.average_hops - 1.0).abs() < 1e-12);
    }

    #[test]
    fn local_messages_bypass_when_rl_zero() {
        let config = kautz_config(8, 2, RoutingAlgorithm::SspFl);
        let sim = NocSimulator::new(config).unwrap();
        let trace = TrafficTrace::new(vec![vec![
            Message::new(0, 0, 0, 0),
            Message::new(0, 3, 1, 1),
        ]]);
        let stats = sim.run(&trace);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.local_bypassed, 1);
    }

    #[test]
    fn local_messages_are_routed_when_rl_one() {
        let config = kautz_config(8, 2, RoutingAlgorithm::SspFl).with_route_local(true);
        let sim = NocSimulator::new(config).unwrap();
        let trace = TrafficTrace::new(vec![vec![Message::new(0, 0, 0, 0)]]);
        let stats = sim.run(&trace);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.local_bypassed, 0);
        // routed through the node: latency at least the local-port hop
        assert!(stats.max_latency >= 1);
    }

    #[test]
    fn lower_output_rate_stretches_the_phase() {
        let trace = TrafficTrace::uniform_random(16, 30, 9);
        let fast =
            NocSimulator::new(kautz_config(16, 3, RoutingAlgorithm::SspFl).with_output_rate(1.0))
                .unwrap()
                .run(&trace);
        let slow =
            NocSimulator::new(kautz_config(16, 3, RoutingAlgorithm::SspFl).with_output_rate(0.25))
                .unwrap()
                .run(&trace);
        assert!(slow.cycles > fast.cycles);
        // with R = 0.25 a PE needs at least 4 cycles per message
        assert!(slow.cycles >= 30 * 4);
    }

    #[test]
    fn dcm_never_misroutes_scm_may() {
        let trace = TrafficTrace::permutation(16, 40);
        let dcm = NocSimulator::new(
            kautz_config(16, 2, RoutingAlgorithm::SspRr).with_collision(CollisionPolicy::Dcm),
        )
        .unwrap()
        .run(&trace);
        let scm = NocSimulator::new(
            kautz_config(16, 2, RoutingAlgorithm::SspRr).with_collision(CollisionPolicy::Scm),
        )
        .unwrap()
        .run(&trace);
        assert_eq!(dcm.misrouted, 0);
        assert_eq!(dcm.delivered, trace.total_messages());
        assert_eq!(scm.delivered, trace.total_messages());
    }

    #[test]
    fn higher_degree_reduces_phase_duration() {
        let trace = TrafficTrace::uniform_random(24, 60, 17);
        let d2 = NocSimulator::new(kautz_config(24, 2, RoutingAlgorithm::SspFl))
            .unwrap()
            .run(&trace);
        let d4 = NocSimulator::new(kautz_config(24, 4, RoutingAlgorithm::SspFl))
            .unwrap()
            .run(&trace);
        assert!(
            d4.cycles <= d2.cycles,
            "D=4 ({}) should not be slower than D=2 ({})",
            d4.cycles,
            d2.cycles
        );
    }

    #[test]
    fn fifo_occupancy_is_tracked() {
        let sim = NocSimulator::new(kautz_config(16, 2, RoutingAlgorithm::SspRr)).unwrap();
        let trace = TrafficTrace::permutation(16, 50);
        let stats = sim.run(&trace);
        assert!(stats.max_fifo_occupancy >= 1);
        assert_eq!(stats.per_node_max_fifo.len(), 16);
        assert!(stats.per_node_max_fifo.iter().any(|&m| m > 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = TrafficTrace::uniform_random(16, 40, 5);
        let run = |seed| {
            NocSimulator::new(kautz_config(16, 2, RoutingAlgorithm::SspRr).with_seed(seed))
                .unwrap()
                .run(&trace)
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let sim = NocSimulator::new(kautz_config(8, 2, RoutingAlgorithm::SspFl)).unwrap();
        let stats = sim.run(&TrafficTrace::empty(8));
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    #[should_panic(expected = "output rate")]
    fn invalid_output_rate_panics() {
        let _ = kautz_config(8, 2, RoutingAlgorithm::SspFl).with_output_rate(1.5);
    }

    #[test]
    fn works_on_all_topology_kinds() {
        for kind in TopologyKind::all() {
            let topo = Topology::new(kind, 16, 3).unwrap();
            let sim = NocSimulator::new(NocConfig::new(topo, RoutingAlgorithm::SspFl)).unwrap();
            let trace = TrafficTrace::uniform_random(16, 25, 11);
            let stats = sim.run(&trace);
            assert_eq!(stats.delivered, trace.total_messages(), "{kind}");
        }
    }
}

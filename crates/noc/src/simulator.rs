//! The cycle-accurate simulation loop.

use crate::node::{CollisionPolicy, NodeArchitecture};
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
/// [`NocSimulator::new`] lays the network out flat once: node `n`'s input
/// port `q` is ring `ring_base + q` of one shared ring buffer, its network
/// output port `o` is link `out_base + o`, and the SSP next hop of every
/// `(node, dst)` pair is one entry of a `P x P` table.
/// [`NocSimulator::run`] allocates the per-phase state in that layout.
///
/// See the crate-level example for typical usage.
#[derive(Debug, Clone)]
pub struct NocSimulator {
    config: NocConfig,
    tables: RoutingTables,
    nodes: Vec<NodeLayout>,
    /// `next_port[node * P + dst]`: the SSP output port of `node` towards
    /// `dst`; the diagonal holds each node's local delivery port.
    next_port: Vec<u32>,
    /// Every network output port, node by node.
    links: Vec<Link>,
    /// Input rings in the network.
    rings: usize,
    /// 64-bit words of each node's occupancy mask.
    mask_words: usize,
}

/// Where one node's ports sit in the flat layout.
#[derive(Debug, Clone, Copy)]
struct NodeLayout {
    /// The node's first input ring.
    ring_base: u32,
    /// Input ports: in-degree + 1, but at least out-degree + 1 (the
    /// round-robin rotation period); the last is the local injection port.
    ports: u32,
    /// The node's first link.
    out_base: u32,
    /// Network output ports; the local delivery port has this number.
    out_ports: u32,
}

/// The downstream end of one network output port.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The input ring it feeds.
    ring: u32,
    /// That ring's node and its port there.
    node: u32,
    port: u32,
}

/// Safety cap on the number of simulated cycles; reached only if the
/// configuration cannot deliver the traffic (which would indicate a bug).
const MAX_CYCLES: u64 = 50_000_000;

/// log2 of the rings' initial capacity; every ring doubles when one fills.
const INITIAL_RING_SHIFT: u32 = 3;

impl NocSimulator {
    /// Builds a simulator: computes the routing tables and the flat layout
    /// of the network's ports and links.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidTopology`] if the topology has isolated
    /// nodes (cannot happen for topologies built by [`Topology::new`]).
    pub fn new(config: NocConfig) -> Result<Self, NocError> {
        let topo = &config.topology;
        let p = topo.nodes();
        let tables = RoutingTables::build(topo);

        // Network input port `k` of `v` is its `k`-th incoming link in
        // (source node, output port) order.
        let mut in_count = vec![0u32; p];
        let mut link_ends = Vec::new();
        for u in 0..p {
            for &v in topo.neighbors(u) {
                link_ends.push((v, in_count[v]));
                in_count[v] += 1;
            }
        }
        if in_count.contains(&0) {
            return Err(NocError::InvalidTopology {
                reason: "a node has no incoming links".to_string(),
            });
        }
        let mut nodes = Vec::with_capacity(p);
        let (mut ring_base, mut out_base) = (0, 0);
        for (n, &inputs) in in_count.iter().enumerate() {
            let out_ports = topo.neighbors(n).len() as u32;
            let ports = (inputs + 1).max(out_ports + 1);
            nodes.push(NodeLayout {
                ring_base,
                ports,
                out_base,
                out_ports,
            });
            ring_base += ports;
            out_base += out_ports;
        }
        let links = link_ends
            .iter()
            .map(|&(v, port)| Link {
                ring: nodes[v].ring_base + port,
                node: v as u32,
                port,
            })
            .collect();
        let mut next_port = tables.first_ports();
        for (n, node) in nodes.iter().enumerate() {
            next_port[n * p + n] = node.out_ports;
        }
        let widest = nodes.iter().map(|node| node.ports).max().unwrap_or(1);
        Ok(NocSimulator {
            config,
            tables,
            nodes,
            next_port,
            links,
            rings: ring_base as usize,
            mask_words: (widest as usize).div_ceil(64),
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
    /// Every cycle has three steps: each source PE injects at most one
    /// message into its node's local input FIFO (local messages bypass the
    /// network when RL = 0); each node serves its non-empty input FIFOs in
    /// round-robin or longest-first order, sending each head message to a
    /// free output port (or, under SCM, misrouting it to a random free
    /// network port); then every forwarded message crosses its link into
    /// the downstream FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the trace references more sources than the network has
    /// nodes or a destination outside the network.
    pub fn run(&self, trace: &TrafficTrace) -> NocStats {
        let p = self.nodes.len();
        assert!(
            trace.nodes() <= p,
            "trace has {} sources but the network has {p} nodes",
            trace.nodes()
        );
        // The messages each source injects into the network, in order:
        // source `s` injects `to_inject[inject_end[s - 1]..inject_end[s]]`.
        // With RL = 0 a local message goes through an internal queue instead
        // and does not occupy the network injection port.
        let bypass_local = !self.config.route_local;
        let total = trace.total_messages();
        let mut to_inject = vec![0u32; total];
        let mut inject_end = Vec::with_capacity(trace.nodes());
        let (mut injected, mut bypassed, mut max_dst) = (0, 0, 0);
        for src in 0..trace.nodes() {
            for msg in trace.messages(src) {
                max_dst = max_dst.max(msg.dst);
                let bypass = msg.is_local() && bypass_local;
                to_inject[injected] = msg.dst as u32;
                injected += usize::from(!bypass);
                bypassed += usize::from(bypass);
            }
            inject_end.push(injected);
        }
        assert!(
            total == 0 || max_dst < p,
            "trace destination {max_dst} outside network of {p} nodes"
        );

        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let words = self.mask_words;
        let mut fifos = Rings::new(self.rings);
        // bit `q` of node `n`'s words is set while input FIFO `q` is non-empty
        let mut occupied = vec![0u64; p * words];
        let mut stats = NocStats {
            per_node_max_fifo: vec![0; p],
            forwarded_per_node: vec![0; p],
            ..NocStats::default()
        };
        // messages sent through each network output port (ASP-FT
        // spreading), plus a slot that delivered messages count in vain
        let mut sent = vec![0u64; self.links.len() + 1];

        // each source's next message to inject, for the sources that have one
        let mut next_to_inject: Vec<usize> = (0..inject_end.len())
            .map(|src| if src == 0 { 0 } else { inject_end[src - 1] })
            .collect();
        let mut injecting: Vec<usize> = (0..inject_end.len())
            .filter(|&src| next_to_inject[src] < inject_end[src])
            .collect();
        // Every source that still has a message to inject holds the same
        // credit: each adds the rate every cycle and spends 1.0 on each
        // injection, which it makes whenever its credit reaches 1.0.  So one
        // accumulator, with the same f64 operations, stands for them all.
        let mut credit = 0.0f64;
        let mut delivered = 0usize;
        let mut latency_sum: u64 = 0;
        let mut hop_sum: u64 = 0;
        let mut routed_delivered: u64 = 0;
        let (mut max_latency, mut collisions, mut misrouted) = (0, 0, 0);

        let routing = self.config.routing;
        let longest_first = matches!(routing, RoutingAlgorithm::SspFl | RoutingAlgorithm::AspFt);
        let misroute = self.config.collision == CollisionPolicy::Scm;
        let spreads = routing == RoutingAlgorithm::AspFt;
        // per-node scratch, reused across nodes and cycles: the serving
        // order and, per output port, the node visit that last took it
        let mut order: Vec<u64> = Vec::new();
        // each non-empty FIFO's head destination, read while ordering so
        // routing decisions do not wait on the rings
        let widest = self.nodes.iter().map(|node| node.ports).max();
        let mut head_dst = vec![0u32; widest.unwrap_or(0) as usize];
        let widest_out = self.nodes.iter().map(|node| node.out_ports).max();
        let mut taken_at = vec![0u64; widest_out.unwrap_or(0) as usize + 1];
        let mut visit: u64 = 0;
        // the messages forwarded this cycle, `(link, message)`: at most one
        // per link, plus a slot that a delivered message writes in vain
        let mut staged = vec![(0u32, Packet::default()); self.links.len() + 1];
        let mut forwarded = 0;

        let mut cycle: u64 = 0;
        while delivered < total && cycle < MAX_CYCLES {
            // -------- 1. injection --------
            if cycle == 0 {
                // A bypassing message is delivered when it comes up, no later
                // than the injection of its source's next network message,
                // which is delivered a cycle or more later: so counting them
                // all now ends the phase on the same cycle.
                delivered += bypassed;
                stats.local_bypassed = bypassed;
            }
            credit += self.config.output_rate;
            if credit >= 1.0 && !injecting.is_empty() {
                credit -= 1.0;
                injecting.retain(|&src| {
                    let layout = self.nodes[src];
                    let local_in = layout.ports as usize - 1;
                    let packet = Packet {
                        dst: to_inject[next_to_inject[src]],
                        injected_at: cycle as u32,
                        hops: 0,
                    };
                    let len = fifos.push(layout.ring_base as usize + local_in, packet);
                    let hw = &mut stats.per_node_max_fifo[src];
                    *hw = (*hw).max(len as usize);
                    occupied[src * words + local_in / 64] |= 1 << (local_in % 64);
                    next_to_inject[src] += 1;
                    next_to_inject[src] < inject_end[src]
                });
            }

            // -------- 2. routing / crossbar arbitration --------
            for (node, layout) in self.nodes.iter().enumerate() {
                let mask = &mut occupied[node * words..(node + 1) * words];
                if mask.iter().all(|&w| w == 0) {
                    continue;
                }
                let ring_base = layout.ring_base as usize;
                // the serving order of the non-empty input FIFOs, as keys
                // whose low half is the complemented port
                order.clear();
                for (w, &word) in mask.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let port = w as u32 * 64 + bits.trailing_zeros();
                        bits &= bits - 1;
                        head_dst[port as usize] = fifos.front(ring_base + port as usize).dst;
                        if !longest_first {
                            order.push(u64::from(!port));
                            continue;
                        }
                        // longest FIFO first, ties by port index: the length
                        // over the complemented port makes every key distinct
                        let len = fifos.len(ring_base + port as usize);
                        let key = u64::from(len) << 32 | u64::from(!port);
                        let mut j = order.len();
                        order.push(key);
                        while j > 0 && order[j - 1] < key {
                            order[j] = order[j - 1];
                            j -= 1;
                        }
                        order[j] = key;
                    }
                }
                if !longest_first {
                    // round-robin from port `cycle mod ports`: every node's
                    // pointer advances once per cycle
                    let start = (cycle % u64::from(layout.ports)) as u32;
                    let first = order.partition_point(|&key| !(key as u32) < start);
                    order.rotate_left(first);
                }

                let out_base = layout.out_base as usize;
                let out_ports = layout.out_ports as usize;
                let local_out = out_ports;
                let next_port = &self.next_port[node * p..(node + 1) * p];
                visit += 1;
                let mut taken_network = 0;
                for &key in &order {
                    let in_port = !(key as u32) as usize;
                    let ring = ring_base + in_port;
                    let dst = head_dst[in_port] as usize;
                    let free = |port: usize| taken_at[port] != visit;
                    let chosen = match routing {
                        RoutingAlgorithm::SspRr | RoutingAlgorithm::SspFl => {
                            Some(next_port[dst] as usize).filter(|&port| free(port))
                        }
                        RoutingAlgorithm::AspFt if dst == node => {
                            Some(local_out).filter(|&port| free(port))
                        }
                        RoutingAlgorithm::AspFt => self
                            .tables
                            .ports(node, dst)
                            .iter()
                            .copied()
                            .filter(|&port| free(port))
                            .min_by_key(|&port| sent[out_base + port]),
                    };

                    let assigned = match chosen {
                        Some(port) => port,
                        None => {
                            collisions += 1;
                            // SCM: misroute to a uniformly drawn free
                            // *network* port
                            let free_count = out_ports - taken_network;
                            if !misroute || free_count == 0 || dst == node {
                                continue;
                            }
                            misrouted += 1;
                            let k = rng.gen_range(0..free_count);
                            (0..out_ports)
                                .filter(|&port| free(port))
                                .nth(k)
                                .expect("k is below the free port count")
                        }
                    };

                    // the rest is branch-free: every message either leaves
                    // through a network port, into the cycle's staging
                    // list, or is delivered to the PE
                    let packet = fifos.front(ring);
                    let left = fifos.pop(ring);
                    mask[in_port / 64] &= !(u64::from(left == 0) << (in_port % 64));
                    taken_at[assigned] = visit;
                    let forward = assigned != local_out;
                    staged[forwarded] = (
                        (out_base + assigned) as u32,
                        Packet {
                            hops: packet.hops + 1,
                            ..packet
                        },
                    );
                    forwarded += usize::from(forward);
                    taken_network += usize::from(forward);
                    if spreads {
                        sent[out_base + assigned] += u64::from(forward);
                    }
                    let arrived = u64::from(!forward);
                    let lat = cycle + 1 - u64::from(packet.injected_at);
                    delivered += arrived as usize;
                    routed_delivered += arrived;
                    latency_sum += arrived * lat;
                    hop_sum += arrived * u64::from(packet.hops);
                    max_latency = max_latency.max(arrived * lat);
                }
                stats.forwarded_per_node[node] += taken_network as u64;
            }

            // -------- 3. link traversal: forwarded messages -> downstream FIFOs --------
            for &(link, packet) in &staged[..forwarded] {
                let link = self.links[link as usize];
                let (node, port) = (link.node as usize, link.port as usize);
                let len = fifos.push(link.ring as usize, packet);
                let hw = &mut stats.per_node_max_fifo[node];
                *hw = (*hw).max(len as usize);
                occupied[node * words + port / 64] |= 1 << (port % 64);
            }
            forwarded = 0;

            cycle += 1;
        }

        stats.cycles = cycle;
        stats.delivered = delivered;
        stats.max_latency = max_latency;
        stats.collisions = collisions;
        stats.misrouted = misrouted;
        stats.max_fifo_occupancy = stats.per_node_max_fifo.iter().copied().max().unwrap_or(0);
        if routed_delivered > 0 {
            stats.average_latency = latency_sum as f64 / routed_delivered as f64;
            stats.average_hops = hop_sum as f64 / routed_delivered as f64;
        }
        stats
    }
}

/// A message in an input FIFO: all the cycle loop needs of it.
#[derive(Debug, Clone, Copy, Default)]
struct Packet {
    dst: u32,
    /// Cycle of injection (below [`MAX_CYCLES`]).
    injected_at: u32,
    /// Links crossed so far.
    hops: u32,
}

/// Every input FIFO of the network: ring `r` holds `len` packets from slot
/// `head` of its `2^shift` slots at `slots[r << shift..]`.
#[derive(Debug)]
struct Rings {
    slots: Vec<Packet>,
    /// `(head, len)` of each ring.
    state: Vec<(u32, u32)>,
    shift: u32,
}

impl Rings {
    fn new(rings: usize) -> Self {
        Rings {
            slots: vec![Packet::default(); rings << INITIAL_RING_SHIFT],
            state: vec![(0, 0); rings],
            shift: INITIAL_RING_SHIFT,
        }
    }

    fn len(&self, ring: usize) -> u32 {
        self.state[ring].1
    }

    fn front(&self, ring: usize) -> Packet {
        self.slots[(ring << self.shift) | self.state[ring].0 as usize]
    }

    /// Appends `packet` to `ring` and returns the ring's new length.
    fn push(&mut self, ring: usize, packet: Packet) -> u32 {
        if self.state[ring].1 >> self.shift != 0 {
            self.grow();
        }
        let (head, len) = self.state[ring];
        let wrap = (1u32 << self.shift) - 1;
        self.slots[(ring << self.shift) | ((head + len) & wrap) as usize] = packet;
        self.state[ring].1 = len + 1;
        len + 1
    }

    /// Drops the head of a non-empty `ring` and returns its new length.
    fn pop(&mut self, ring: usize) -> u32 {
        let wrap = (1u32 << self.shift) - 1;
        let (head, len) = &mut self.state[ring];
        *head = (*head + 1) & wrap;
        *len -= 1;
        *len
    }

    /// Doubles every ring's capacity, unwrapping each ring to start at slot 0.
    fn grow(&mut self) {
        let shift = self.shift + 1;
        let wrap = (1u32 << self.shift) - 1;
        let mut slots = vec![Packet::default(); self.state.len() << shift];
        for (ring, (head, len)) in self.state.iter_mut().enumerate() {
            for i in 0..*len {
                let from = (ring << self.shift) | ((*head + i) & wrap) as usize;
                slots[(ring << shift) + i as usize] = self.slots[from];
            }
            *head = 0;
        }
        self.slots = slots;
        self.shift = shift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeState;
    use crate::packet::{InFlight, Message};
    use crate::topology::TopologyKind;
    use proptest::prelude::*;

    /// The simulator's former cycle loop, kept as the oracle of
    /// [`NocSimulator::run`]: one `NodeState` per node with `VecDeque` input
    /// FIFOs, a full serving order over every port of every node each
    /// cycle, and a scan of every output register for link traversal.
    fn reference_run(config: &NocConfig, trace: &TrafficTrace) -> NocStats {
        let topo = &config.topology;
        let p = topo.nodes();
        let tables = RoutingTables::build(topo);
        let mut in_count = vec![0usize; p];
        let mut link: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p];
        for (u, link_u) in link.iter_mut().enumerate() {
            for &v in topo.neighbors(u) {
                let input_port = in_count[v];
                in_count[v] += 1;
                link_u.push((v, input_port));
            }
        }
        let input_ports: Vec<usize> = in_count.iter().map(|&c| c + 1).collect();

        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut nodes: Vec<NodeState> = (0..p)
            .map(|i| {
                let outputs = topo.neighbors(i).len() + 1;
                NodeState::with_ports(input_ports[i].max(outputs), outputs)
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
            config.routing,
            RoutingAlgorithm::SspFl | RoutingAlgorithm::AspFt
        );
        let mut order: Vec<usize> = Vec::new();
        let mut output_taken: Vec<bool> = Vec::new();

        let mut cycle: u64 = 0;
        while delivered < total && cycle < MAX_CYCLES {
            // -------- 1. injection --------
            for src in 0..trace.nodes() {
                credit[src] += config.output_rate;
                let msgs = trace.messages(src);
                while next_to_inject[src] < msgs.len() {
                    let msg = msgs[next_to_inject[src]];
                    if msg.is_local() && !config.route_local {
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
                let local_out = out_ports;
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
                        let candidates = tables.ports(node_idx, dst);
                        match config.routing {
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
                            match config.collision {
                                CollisionPolicy::Dcm => None,
                                CollisionPolicy::Scm => {
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
            for (u, link_u) in link.iter().enumerate() {
                for (port, &(v, in_port)) in link_u.iter().enumerate() {
                    if let Some(msg) = nodes[u].output_registers[port].take() {
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

    /// A random trace on `p` nodes from `seed`: `sources <= p` sources
    /// (some of them empty), up to `max_messages` each, destinations
    /// anywhere (local ones included) or, for a third of the traces, mostly
    /// on a few hot spots that build long FIFOs.
    fn random_trace(p: usize, max_messages: usize, seed: u64) -> TrafficTrace {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sources = if rng.gen_range(0..4) == 0 {
            rng.gen_range(1..=p)
        } else {
            p
        };
        let hot_spots = if rng.gen_range(0..3) == 0 {
            rng.gen_range(1..=2.min(p))
        } else {
            0
        };
        let per_source = (0..sources)
            .map(|src| {
                let count = if rng.gen_range(0..5) == 0 {
                    0
                } else {
                    rng.gen_range(0..=max_messages)
                };
                (0..count)
                    .map(|seq| {
                        let dst = if hot_spots > 0 && rng.gen_range(0..4) != 0 {
                            rng.gen_range(0..hot_spots)
                        } else {
                            rng.gen_range(0..p)
                        };
                        Message::new(src, dst, seq, seq)
                    })
                    .collect()
            })
            .collect();
        TrafficTrace::new(per_source)
    }

    /// The output rates the oracle runs: the SISO's 1/3, the LDPC 0.5,
    /// one message per cycle, or a random rate in (0, 1].
    fn rate_from(pick: u64, seed: u64) -> f64 {
        match pick {
            0 => 1.0 / 3.0,
            1 => 0.5,
            2 => 1.0,
            _ => (seed % 1000 + 1) as f64 / 1000.0,
        }
    }

    fn config_from(
        topology: Topology,
        routing: usize,
        scm: bool,
        route_local: bool,
        rate: f64,
        seed: u64,
    ) -> NocConfig {
        let collision = if scm {
            CollisionPolicy::Scm
        } else {
            CollisionPolicy::Dcm
        };
        NocConfig::new(topology, RoutingAlgorithm::all()[routing])
            .with_collision(collision)
            .with_route_local(route_local)
            .with_output_rate(rate)
            .with_seed(seed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat-ring loop gives the reference loop's `NocStats`, every
        /// field, on random networks, policies, rates and traces.
        #[test]
        fn run_matches_the_reference_loop(
            p in 2usize..=40,
            kind in 0usize..6,
            degree in 1usize..=6,
            routing in 0usize..3,
            scm in 0u8..=1,
            route_local in 0u8..=1,
            rate_pick in 0u64..5,
            seed in 0u64..u64::MAX,
        ) {
            let topology = Topology::new(TopologyKind::all()[kind], p, degree);
            prop_assume!(topology.is_ok());
            let rate = rate_from(rate_pick, seed);
            let config = config_from(
                topology.unwrap(), routing, scm == 1, route_local == 1, rate, seed,
            );
            let trace = random_trace(p, 24, seed);
            let stats = NocSimulator::new(config.clone()).unwrap().run(&trace);
            prop_assert_eq!(&stats, &reference_run(&config, &trace));
            prop_assert_eq!(stats.delivered, trace.total_messages());
        }
    }

    #[test]
    fn run_matches_the_reference_loop_on_nodes_of_more_than_64_ports() {
        // P = 70, D = 66 generalized Kautz: 67 output ports per node and up
        // to 67 input FIFOs, two occupancy words per node
        let topology = Topology::new(TopologyKind::GeneralizedKautz, 70, 66).unwrap();
        for case in 0..4 {
            let seed = 70 + case;
            let (scm, route_local) = (case % 2 == 1, case / 2 == 1);
            let config = config_from(
                topology.clone(),
                case as usize % 3,
                scm,
                route_local,
                rate_from(case, seed),
                seed,
            );
            let trace = random_trace(70, 8, seed);
            let stats = NocSimulator::new(config.clone()).unwrap().run(&trace);
            assert_eq!(stats, reference_run(&config, &trace), "case {case}");
        }
    }

    #[test]
    fn rings_grow_past_their_initial_capacity() {
        // every node sends to node 0 at one message per cycle under DCM:
        // its input FIFOs fill far beyond the rings' initial 8 slots
        let topology = Topology::new(TopologyKind::Spidergon, 16, 3).unwrap();
        let trace = TrafficTrace::new(
            (0..16)
                .map(|src| (0..40).map(|seq| Message::new(src, 0, seq, seq)).collect())
                .collect(),
        );
        let config = config_from(topology, 1, false, true, 1.0, 9);
        let stats = NocSimulator::new(config.clone()).unwrap().run(&trace);
        assert!(
            stats.max_fifo_occupancy > 4 << INITIAL_RING_SHIFT,
            "{stats:?}"
        );
        assert_eq!(stats, reference_run(&config, &trace));
    }

    #[test]
    fn ssp_routes_on_the_first_shortest_path_port() {
        let topology = Topology::new(TopologyKind::GeneralizedKautz, 22, 3).unwrap();
        let sim = NocSimulator::new(NocConfig::new(topology, RoutingAlgorithm::SspFl)).unwrap();
        for src in 0..22 {
            assert_eq!(sim.next_port[src * 22 + src], 3, "local delivery port");
            for dst in (0..22).filter(|&dst| dst != src) {
                let port = sim.next_port[src * 22 + dst] as usize;
                assert_eq!(Some(&port), sim.tables().ports(src, dst).first());
            }
        }
    }

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

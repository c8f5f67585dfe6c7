//! The routing-element (RE) node's parameters: collision management and the
//! node architecture (paper Fig. 1).  The node state itself (input FIFOs,
//! crossbar, output registers) lives in the simulator's flat per-port rings.

#[cfg(test)]
use crate::packet::InFlight;
#[cfg(test)]
use std::collections::VecDeque;

/// Collision-management strategy (paper parameter `DCM`/`SCM`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollisionPolicy {
    /// Delay Colliding Messages: losers stay at the head of their FIFO.
    Dcm,
    /// Send Colliding Messages: losers are sent out of any free output port
    /// (possibly misrouted) instead of stalling.
    #[default]
    Scm,
}

impl CollisionPolicy {
    /// Short name for tables ("DCM"/"SCM").
    pub fn name(&self) -> &'static str {
        match self {
            CollisionPolicy::Dcm => "DCM",
            CollisionPolicy::Scm => "SCM",
        }
    }
}

/// Node architecture flavour (paper Section III).
///
/// The choice does not affect cycle-accurate behaviour — both use the same
/// routing tables — but it determines what is stored in each node and hence
/// the area: the All-Precalculated architecture stores per-code routing
/// memories and needs no packet header, the Partially-Precalculated one
/// computes routes on line from a destination header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeArchitecture {
    /// All-Precalculated: off-line routing decisions stored in a routing
    /// memory, header-less packets, shallow FIFOs.
    AllPrecalculated,
    /// Partially-Precalculated: on-line routing from the packet header, only
    /// the destination-location sequences `t'` are precalculated.
    #[default]
    PartiallyPrecalculated,
}

impl NodeArchitecture {
    /// Short name ("AP"/"PP").
    pub fn name(&self) -> &'static str {
        match self {
            NodeArchitecture::AllPrecalculated => "AP",
            NodeArchitecture::PartiallyPrecalculated => "PP",
        }
    }

    /// Number of header bits a packet needs with this architecture, for a
    /// network of `nodes` routers: AP packets carry no header, PP packets
    /// carry the destination node identifier.
    pub fn header_bits(&self, nodes: usize) -> u32 {
        match self {
            NodeArchitecture::AllPrecalculated => 0,
            NodeArchitecture::PartiallyPrecalculated => {
                (usize::BITS - nodes.saturating_sub(1).leading_zeros()).max(1)
            }
        }
    }
}

/// State of one router node in the test-only reference loop
/// (`simulator::tests::reference_run`), which keeps the simulator's former
/// `VecDeque` FIFOs as an oracle for the flat rings of
/// [`NocSimulator::run`](crate::NocSimulator::run).
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct NodeState {
    /// One input FIFO per port (`0..degree` are network ports, the last is
    /// the local PE injection port).
    pub input_fifos: Vec<VecDeque<InFlight>>,
    /// One output register per port (`None` when empty); the last port is the
    /// local delivery port towards the PE.
    pub output_registers: Vec<Option<InFlight>>,
    /// Round-robin pointer used by the RR serving policy.
    pub rr_pointer: usize,
    /// Messages sent through each output port so far (used by ASP-FT traffic
    /// spreading and by the link-utilization statistics).
    pub sent_per_port: Vec<u64>,
    /// Maximum occupancy ever reached by each input FIFO (used to size the
    /// hardware FIFOs and hence the area model).
    pub max_fifo_occupancy: Vec<usize>,
}

#[cfg(test)]
impl NodeState {
    /// Creates an idle node with `ports` input/output ports
    /// (`degree + 1`, the extra one being the local PE port).
    pub fn new(ports: usize) -> Self {
        NodeState::with_ports(ports, ports)
    }

    /// Creates an idle node with asymmetric port counts: `inputs` input
    /// FIFOs (in-degree + 1 local injection port) and `outputs` output
    /// registers (out-degree + 1 local delivery port).  Directed topologies
    /// such as generalized Kautz graphs can have different in- and
    /// out-degrees per node.
    pub fn with_ports(inputs: usize, outputs: usize) -> Self {
        NodeState {
            input_fifos: vec![VecDeque::new(); inputs],
            output_registers: vec![None; outputs],
            rr_pointer: 0,
            sent_per_port: vec![0; outputs],
            max_fifo_occupancy: vec![0; inputs],
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.input_fifos.len()
    }

    /// Pushes a message into an input FIFO, updating the occupancy high-water
    /// mark.
    pub fn enqueue(&mut self, port: usize, msg: InFlight) {
        self.input_fifos[port].push_back(msg);
        let occ = self.input_fifos[port].len();
        if occ > self.max_fifo_occupancy[port] {
            self.max_fifo_occupancy[port] = occ;
        }
    }

    /// Total number of messages currently waiting in the node.
    pub fn queued(&self) -> usize {
        self.input_fifos.iter().map(|f| f.len()).sum::<usize>()
            + self.output_registers.iter().filter(|r| r.is_some()).count()
    }

    /// Writes into `order` the order in which input ports are served this
    /// cycle (the reference loop reuses one buffer for every node and cycle).
    ///
    /// * Round-robin: start from the rotating pointer.
    /// * FIFO-length: longest FIFO first (ties broken by port index).
    pub fn fill_serving_order(&self, longest_first: bool, order: &mut Vec<usize>) {
        let ports = self.ports();
        order.clear();
        order.extend(0..ports);
        if longest_first {
            order.sort_by_key(|&p| std::cmp::Reverse(self.input_fifos[p].len()));
        } else {
            order.rotate_left(self.rr_pointer % ports);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Message;

    fn msg(seq: usize) -> InFlight {
        InFlight::new(Message::new(0, 1, 0, seq), 0)
    }

    #[test]
    fn policy_and_architecture_names() {
        assert_eq!(CollisionPolicy::Dcm.name(), "DCM");
        assert_eq!(CollisionPolicy::Scm.name(), "SCM");
        assert_eq!(NodeArchitecture::AllPrecalculated.name(), "AP");
        assert_eq!(NodeArchitecture::PartiallyPrecalculated.name(), "PP");
    }

    #[test]
    fn header_bits() {
        assert_eq!(NodeArchitecture::AllPrecalculated.header_bits(22), 0);
        assert_eq!(NodeArchitecture::PartiallyPrecalculated.header_bits(22), 5);
        assert_eq!(NodeArchitecture::PartiallyPrecalculated.header_bits(16), 4);
        assert_eq!(NodeArchitecture::PartiallyPrecalculated.header_bits(2), 1);
    }

    #[test]
    fn with_ports_sizes_inputs_and_outputs_independently() {
        let node = NodeState::with_ports(5, 3);
        assert_eq!(node.input_fifos.len(), 5);
        assert_eq!(node.max_fifo_occupancy.len(), 5);
        assert_eq!(node.output_registers.len(), 3);
        assert_eq!(node.sent_per_port.len(), 3);
        assert_eq!(node.ports(), 5);
    }

    #[test]
    fn enqueue_tracks_high_water_mark() {
        let mut node = NodeState::new(4);
        node.enqueue(2, msg(0));
        node.enqueue(2, msg(1));
        node.enqueue(2, msg(2));
        node.input_fifos[2].pop_front();
        node.enqueue(2, msg(3));
        assert_eq!(node.max_fifo_occupancy[2], 3);
        assert_eq!(node.queued(), 3);
    }

    fn serving_order(node: &NodeState, longest_first: bool) -> Vec<usize> {
        // a stale, longer buffer must be overwritten
        let mut order = vec![9; 7];
        node.fill_serving_order(longest_first, &mut order);
        order
    }

    #[test]
    fn round_robin_order_rotates() {
        let mut node = NodeState::new(3);
        assert_eq!(serving_order(&node, false), vec![0, 1, 2]);
        node.rr_pointer = 1;
        assert_eq!(serving_order(&node, false), vec![1, 2, 0]);
        node.rr_pointer = 5; // wraps modulo 3
        assert_eq!(serving_order(&node, false), vec![2, 0, 1]);
    }

    #[test]
    fn fifo_length_order_serves_longest_first() {
        let mut node = NodeState::new(3);
        node.enqueue(1, msg(0));
        node.enqueue(1, msg(1));
        node.enqueue(2, msg(2));
        assert_eq!(serving_order(&node, true), vec![1, 2, 0]);
    }
}

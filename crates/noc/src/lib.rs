//! Cycle-accurate intra-IP Network-on-Chip simulator.
//!
//! This crate reproduces, in Rust, the functionality of the SystemC "Turbo
//! NOC" simulator the paper builds on (refs [16], [17]): a configurable
//! network of routing elements (REs), each attached to one processing element
//! (PE), used to evaluate how many clock cycles the message-passing phase of
//! a parallel turbo/LDPC decoder takes.
//!
//! The building blocks match Section III of the paper:
//!
//! * [`topology`] — mesh, toroidal mesh, spidergon, honeycomb, generalized
//!   De Bruijn and generalized Kautz digraphs of configurable parallelism.
//! * [`routing`] — Single-Shortest-Path and All-local-Shortest-Paths routing
//!   tables with the three serving policies of the paper: SSP-RR, SSP-FL and
//!   ASP-FT (FIFO-length with traffic spreading).
//! * [`node`] — the RE node's parameters: Delay-Colliding-Message (DCM) or
//!   Send-Colliding-Message (SCM) collision management and the
//!   All-/Partially-Precalculated architecture.  The node itself (`F x F`
//!   crossbar, `F` input FIFOs, `F` output registers) is simulated on flat
//!   state: every input FIFO is a power-of-two ring in one buffer shared by
//!   the network, and a per-node occupancy mask names the non-empty ones.
//! * [`traffic`] — injection traces: for every PE, the ordered list of
//!   messages it produces during one message-passing phase, injected at a
//!   configurable output rate `R`.
//! * [`simulator`] — the cycle loop and the statistics (phase duration,
//!   per-FIFO maximum occupancy, latency, link utilization) needed for the
//!   throughput and area models.
//!
//! # Example
//!
//! ```
//! use noc_sim::{NocConfig, NocSimulator, RoutingAlgorithm, Topology, TopologyKind, TrafficTrace};
//!
//! // A P = 8, degree-2 generalized Kautz NoC with uniform random traffic.
//! let topology = Topology::new(TopologyKind::GeneralizedKautz, 8, 2)?;
//! let config = NocConfig::new(topology, RoutingAlgorithm::SspFl);
//! let trace = TrafficTrace::uniform_random(8, 50, 0xBEEF);
//! let stats = NocSimulator::new(config)?.run(&trace);
//! assert!(stats.cycles > 0);
//! assert_eq!(stats.delivered, 8 * 50);
//! # Ok::<(), noc_sim::NocError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod node;
pub mod packet;
pub mod routing;
pub mod simulator;
pub mod stats;
pub mod topology;
pub mod traffic;

pub use node::{CollisionPolicy, NodeArchitecture};
pub use packet::Message;
pub use routing::{RoutingAlgorithm, RoutingTables};
pub use simulator::{NocConfig, NocSimulator};
pub use stats::NocStats;
pub use topology::{Topology, TopologyKind};
pub use traffic::TrafficTrace;

use std::fmt;

/// Errors produced by the NoC simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NocError {
    /// The requested topology cannot be built with the given parameters.
    InvalidTopology {
        /// Human-readable reason.
        reason: String,
    },
    /// The topology is not strongly connected, so some traffic could never be
    /// delivered.
    NotConnected,
    /// A traffic trace references a node outside the network.
    InvalidTraffic {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the network.
        nodes: usize,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::InvalidTopology { reason } => write!(f, "invalid topology: {reason}"),
            NocError::NotConnected => write!(f, "topology is not strongly connected"),
            NocError::InvalidTraffic { node, nodes } => {
                write!(
                    f,
                    "traffic references node {node} but the network has {nodes} nodes"
                )
            }
        }
    }
}

impl std::error::Error for NocError {}

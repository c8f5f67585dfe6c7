//! Configuration of one decoder architecture instance.

use noc_mapping::MappingConfig;
use noc_sim::{CollisionPolicy, NodeArchitecture, RoutingAlgorithm, TopologyKind};

/// The settable part of a decoder design point: the NoC, the parallelism,
/// the mapping flow and the LDPC output rate.  The clocks, iteration limits
/// and calibration of the paper's design are the [`model`](crate::model)'s
/// constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderConfig {
    /// NoC topology family.
    pub topology: TopologyKind,
    /// Parallelism `P` (number of PEs = number of NoC nodes).
    pub pes: usize,
    /// Requested node degree `D`.
    pub degree: usize,
    /// Routing algorithm / serving policy.
    pub routing: RoutingAlgorithm,
    /// Collision management strategy.
    pub collision: CollisionPolicy,
    /// Node architecture (AP or PP).
    pub architecture: NodeArchitecture,
    /// Route-Local flag (RL); the paper's results use `RL = 0`.
    pub route_local: bool,
    /// PE output rate `R` in LDPC mode (messages per NoC cycle).
    pub ldpc_output_rate: f64,
    /// Mapping-flow configuration.
    pub mapping: MappingConfig,
    /// Simulation seed.
    pub seed: u64,
}

impl DecoderConfig {
    /// The paper's chosen design point: `P = 22`, `D = 3` generalized Kautz,
    /// SSP-FL routing, PP node architecture, `RL = 0`, `SCM`, `R = 0.5`.
    /// Its clocks and iteration limits are the [`model`](crate::model)'s
    /// constants.
    pub fn paper_design_point() -> Self {
        DecoderConfig {
            topology: TopologyKind::GeneralizedKautz,
            pes: 22,
            degree: 3,
            routing: RoutingAlgorithm::SspFl,
            collision: CollisionPolicy::Scm,
            architecture: NodeArchitecture::PartiallyPrecalculated,
            route_local: false,
            ldpc_output_rate: 0.5,
            mapping: MappingConfig::default(),
            seed: 0x1CE,
        }
    }

    /// Builder-style setter for the topology family and degree.
    pub fn with_topology(mut self, topology: TopologyKind, degree: usize) -> Self {
        self.topology = topology;
        self.degree = degree;
        self
    }

    /// Builder-style setter for the parallelism.
    pub fn with_pes(mut self, pes: usize) -> Self {
        self.pes = pes;
        self
    }

    /// Builder-style setter for the routing algorithm.
    pub fn with_routing(mut self, routing: RoutingAlgorithm) -> Self {
        self.routing = routing;
        self
    }

    /// Builder-style setter for the node architecture.
    pub fn with_architecture(mut self, architecture: NodeArchitecture) -> Self {
        self.architecture = architecture;
        self
    }

    /// Builder-style setter for the collision policy.
    pub fn with_collision(mut self, collision: CollisionPolicy) -> Self {
        self.collision = collision;
        self
    }

    /// Builder-style setter for the Route-Local flag.
    pub fn with_route_local(mut self, route_local: bool) -> Self {
        self.route_local = route_local;
        self
    }
}

impl Default for DecoderConfig {
    fn default() -> Self {
        Self::paper_design_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_point_matches_paper() {
        let c = DecoderConfig::paper_design_point();
        assert_eq!(c.pes, 22);
        assert_eq!(c.degree, 3);
        assert_eq!(c.topology, TopologyKind::GeneralizedKautz);
        assert_eq!(crate::model::LDPC_CLOCK_MHZ, 300.0);
        assert_eq!(crate::model::TURBO_CLOCK_MHZ, 75.0);
        assert_eq!(crate::model::LDPC_ITERATIONS, 10);
        assert_eq!(crate::model::TURBO_ITERATIONS, 8);
        assert!(!c.route_local);
        assert_eq!(c.ldpc_output_rate, 0.5);
    }

    #[test]
    fn builder_setters() {
        let c = DecoderConfig::default()
            .with_topology(TopologyKind::Spidergon, 3)
            .with_pes(16)
            .with_routing(RoutingAlgorithm::AspFt)
            .with_architecture(NodeArchitecture::AllPrecalculated)
            .with_collision(CollisionPolicy::Dcm)
            .with_route_local(true);
        assert_eq!(c.topology, TopologyKind::Spidergon);
        assert_eq!(c.pes, 16);
        assert_eq!(c.routing, RoutingAlgorithm::AspFt);
        assert_eq!(c.architecture, NodeArchitecture::AllPrecalculated);
        assert_eq!(c.collision, CollisionPolicy::Dcm);
        assert!(c.route_local);
    }
}

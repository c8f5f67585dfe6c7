//! Routing algorithms and pre-computed routing tables.
//!
//! The paper embeds three routing policies in its simulator (Section III.A):
//!
//! * **SSP-RR** — Single-Shortest-Path with Round-Robin input serving.
//! * **SSP-FL** — Single-Shortest-Path serving the longest input FIFO first.
//! * **ASP-FT** — All-local-Shortest-Paths with FIFO-length serving and
//!   traffic spreading over the alternative output ports.
//!
//! All of them rely on the off-line computation of shortest paths between
//! nodes, stored in one (SSP) or more (ASP) routing tables.

use crate::topology::Topology;
use std::collections::VecDeque;

/// The routing policies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingAlgorithm {
    /// Single shortest path, round-robin input arbitration.
    SspRr,
    /// Single shortest path, longest-FIFO-first input arbitration.
    SspFl,
    /// All shortest paths, longest-FIFO-first arbitration with traffic
    /// spreading across the alternative ports.
    AspFt,
}

impl RoutingAlgorithm {
    /// All three policies.
    pub fn all() -> [RoutingAlgorithm; 3] {
        [
            RoutingAlgorithm::SspRr,
            RoutingAlgorithm::SspFl,
            RoutingAlgorithm::AspFt,
        ]
    }

    /// Whether the policy uses every local shortest path (ASP) or one (SSP).
    pub fn uses_all_shortest_paths(&self) -> bool {
        matches!(self, RoutingAlgorithm::AspFt)
    }

    /// Short name used in result tables ("SSP-RR", "SSP-FL", "ASP-FT").
    pub fn name(&self) -> &'static str {
        match self {
            RoutingAlgorithm::SspRr => "SSP-RR",
            RoutingAlgorithm::SspFl => "SSP-FL",
            RoutingAlgorithm::AspFt => "ASP-FT",
        }
    }
}

impl std::fmt::Display for RoutingAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Pre-computed shortest-path routing tables for a topology.
///
/// # Example
///
/// ```
/// use noc_sim::{RoutingTables, Topology, TopologyKind};
///
/// let t = Topology::new(TopologyKind::GeneralizedKautz, 12, 2)?;
/// let tables = RoutingTables::build(&t);
/// // every (src, dst) pair with src != dst has at least one next-hop port
/// for s in 0..12 {
///     for d in 0..12 {
///         if s != d {
///             assert!(!tables.ports(s, d).is_empty());
///         }
///     }
/// }
/// # Ok::<(), noc_sim::NocError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTables {
    nodes: usize,
    /// `ports[src][dst]` = all output ports of `src` that lie on a shortest
    /// path towards `dst` (empty when `src == dst`).
    ports: Vec<Vec<Vec<usize>>>,
    /// `distance[src][dst]` in hops.
    distance: Vec<Vec<usize>>,
}

impl RoutingTables {
    /// Builds the tables from a topology (BFS towards every destination).
    pub fn build(topology: &Topology) -> Self {
        let p = topology.nodes();
        // reverse adjacency for BFS from destinations
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); p];
        for i in 0..p {
            for &j in topology.neighbors(i) {
                rev[j].push(i);
            }
        }

        let mut distance = vec![vec![usize::MAX; p]; p];
        for dst in 0..p {
            let mut dist = vec![usize::MAX; p];
            let mut queue = VecDeque::new();
            dist[dst] = 0;
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                for &v in &rev[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            for src in 0..p {
                distance[src][dst] = dist[src];
            }
        }

        let mut ports = vec![vec![Vec::new(); p]; p];
        for src in 0..p {
            for dst in 0..p {
                if src == dst || distance[src][dst] == usize::MAX {
                    continue;
                }
                for (port, &n) in topology.neighbors(src).iter().enumerate() {
                    if distance[n][dst] != usize::MAX && distance[n][dst] + 1 == distance[src][dst]
                    {
                        ports[src][dst].push(port);
                    }
                }
            }
        }

        RoutingTables {
            nodes: p,
            ports,
            distance,
        }
    }

    /// Number of nodes the tables were built for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// All shortest-path output ports from `src` towards `dst`.
    pub fn ports(&self, src: usize, dst: usize) -> &[usize] {
        &self.ports[src][dst]
    }

    /// The single shortest-path port (lowest-numbered) used by SSP policies.
    pub fn single_port(&self, src: usize, dst: usize) -> Option<usize> {
        self.ports[src][dst].first().copied()
    }

    /// Hop distance from `src` to `dst`.
    pub fn distance(&self, src: usize, dst: usize) -> usize {
        self.distance[src][dst]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    fn kautz(p: usize, d: usize) -> Topology {
        Topology::new(TopologyKind::GeneralizedKautz, p, d).unwrap()
    }

    #[test]
    fn names_and_flags() {
        assert_eq!(RoutingAlgorithm::SspRr.name(), "SSP-RR");
        assert_eq!(RoutingAlgorithm::AspFt.to_string(), "ASP-FT");
        assert!(RoutingAlgorithm::AspFt.uses_all_shortest_paths());
        assert!(!RoutingAlgorithm::SspFl.uses_all_shortest_paths());
        assert_eq!(RoutingAlgorithm::all().len(), 3);
    }

    #[test]
    fn every_pair_is_routable() {
        let t = kautz(22, 3);
        let tables = RoutingTables::build(&t);
        for s in 0..22 {
            for d in 0..22 {
                if s != d {
                    assert!(!tables.ports(s, d).is_empty(), "{s} -> {d}");
                    assert!(tables.distance(s, d) >= 1);
                    assert!(tables.distance(s, d) <= t.diameter());
                }
            }
        }
    }

    #[test]
    fn next_hop_reduces_distance() {
        let t = kautz(16, 2);
        let tables = RoutingTables::build(&t);
        for s in 0..16 {
            for d in 0..16 {
                if s == d {
                    continue;
                }
                for &port in tables.ports(s, d) {
                    let n = t.neighbors(s)[port];
                    assert_eq!(tables.distance(n, d) + 1, tables.distance(s, d));
                }
            }
        }
    }

    #[test]
    fn single_port_is_first_alternative() {
        let t = kautz(24, 3);
        let tables = RoutingTables::build(&t);
        for s in 0..24 {
            for d in 0..24 {
                if s != d {
                    assert_eq!(
                        tables.single_port(s, d),
                        tables.ports(s, d).first().copied()
                    );
                }
            }
        }
        assert_eq!(tables.single_port(3, 3), None);
    }

    #[test]
    fn asp_offers_at_least_as_many_paths_as_ssp() {
        // SSP routes each (src, dst) pair on one port; ASP's alternatives
        // include it, so every pair has at least one.
        let t = kautz(24, 3);
        let tables = RoutingTables::build(&t);
        for s in 0..24 {
            for d in (0..24).filter(|&d| d != s) {
                assert!(!tables.ports(s, d).is_empty(), "{s} -> {d}");
            }
        }
    }

    #[test]
    fn direct_neighbors_have_distance_one() {
        let t = Topology::new(TopologyKind::Spidergon, 16, 3).unwrap();
        let tables = RoutingTables::build(&t);
        for s in 0..16 {
            for &n in t.neighbors(s) {
                assert_eq!(tables.distance(s, n), 1);
            }
        }
    }

    #[test]
    fn mesh_routing_matches_manhattan_distance() {
        let t = Topology::new(TopologyKind::ToroidalMesh, 16, 4).unwrap();
        let tables = RoutingTables::build(&t);
        // 4x4 torus: the maximum distance is 2 + 2 = 4
        let max = (0..16)
            .flat_map(|s| (0..16).map(move |d| (s, d)))
            .filter(|(s, d)| s != d)
            .map(|(s, d)| tables.distance(s, d))
            .max()
            .unwrap();
        assert_eq!(max, 4);
    }
}

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
    /// All output ports of `src` that lie on a shortest path towards `dst`,
    /// flat: pair `src * P + dst` owns `ports[start[pair]..start[pair + 1]]`
    /// (none when `src == dst`).
    ports: Vec<usize>,
    start: Vec<usize>,
}

impl RoutingTables {
    /// Builds the tables from a topology's all-pairs hop distances.
    pub fn build(topology: &Topology) -> Self {
        let p = topology.nodes();
        let distance = topology.all_distances();
        let mut ports = Vec::new();
        let mut start = Vec::with_capacity(p * p + 1);
        start.push(0);
        for (src, row) in distance.iter().enumerate() {
            for (dst, &hops) in row.iter().enumerate() {
                if src != dst && hops != usize::MAX {
                    let neighbors = topology.neighbors(src).iter().enumerate();
                    ports.extend(
                        neighbors
                            .filter(|&(_, &n)| distance[n][dst].checked_add(1) == Some(hops))
                            .map(|(port, _)| port),
                    );
                }
                start.push(ports.len());
            }
        }
        RoutingTables {
            nodes: p,
            ports,
            start,
        }
    }

    /// Number of nodes the tables were built for.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// All shortest-path output ports from `src` towards `dst`.
    pub fn ports(&self, src: usize, dst: usize) -> &[usize] {
        let pair = src * self.nodes + dst;
        &self.ports[self.start[pair]..self.start[pair + 1]]
    }

    /// The single shortest-path port (lowest-numbered) the SSP policies use,
    /// flat: entry `src * P + dst`; `u32::MAX` when `src == dst` or `dst` is
    /// unreachable.
    pub(crate) fn first_ports(&self) -> Vec<u32> {
        self.start
            .windows(2)
            .map(|pair| {
                if pair[0] < pair[1] {
                    self.ports[pair[0]] as u32
                } else {
                    u32::MAX
                }
            })
            .collect()
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
        assert_eq!(RoutingAlgorithm::all().len(), 3);
    }

    #[test]
    fn every_pair_is_routable() {
        let t = kautz(22, 3);
        let tables = RoutingTables::build(&t);
        for (s, row) in t.all_distances().iter().enumerate() {
            for (d, &distance) in row.iter().enumerate() {
                if s != d {
                    assert!(!tables.ports(s, d).is_empty(), "{s} -> {d}");
                    assert!(distance >= 1);
                    assert!(distance <= t.diameter());
                }
            }
        }
    }

    #[test]
    fn next_hop_reduces_distance() {
        let t = kautz(16, 2);
        let tables = RoutingTables::build(&t);
        let all = t.all_distances();
        for (s, row) in all.iter().enumerate() {
            for (d, &distance) in row.iter().enumerate() {
                if s == d {
                    continue;
                }
                for &port in tables.ports(s, d) {
                    let n = t.neighbors(s)[port];
                    assert_eq!(all[n][d] + 1, distance);
                }
                // and no other port does
                let shortest = t
                    .neighbors(s)
                    .iter()
                    .filter(|&&n| all[n][d] + 1 == distance);
                assert_eq!(shortest.count(), tables.ports(s, d).len());
            }
        }
    }

    #[test]
    fn single_port_is_first_alternative() {
        let t = kautz(24, 3);
        let tables = RoutingTables::build(&t);
        let first = tables.first_ports();
        assert_eq!(first.len(), 24 * 24);
        for s in 0..24 {
            for d in 0..24 {
                let expected = tables.ports(s, d).first().map_or(u32::MAX, |&p| p as u32);
                assert_eq!(first[s * 24 + d], expected, "{s} -> {d}");
            }
        }
        assert_eq!(first[3 * 24 + 3], u32::MAX);
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
        // a direct link is the one shortest path: its port is the only
        // alternative
        let t = Topology::new(TopologyKind::Spidergon, 16, 3).unwrap();
        let tables = RoutingTables::build(&t);
        for s in 0..16 {
            for (port, &n) in t.neighbors(s).iter().enumerate() {
                assert_eq!(tables.ports(s, n), [port]);
            }
        }
    }

    #[test]
    fn mesh_routing_matches_manhattan_distance() {
        let t = Topology::new(TopologyKind::ToroidalMesh, 16, 4).unwrap();
        let tables = RoutingTables::build(&t);
        // following the first shortest-path port from every source reaches
        // every destination in its Manhattan distance on the 4x4 torus:
        // at most 2 + 2 = 4 hops
        let first = tables.first_ports();
        let torus = |a: usize, b: usize| {
            let ring = |x: usize, y: usize| x.abs_diff(y).min(4 - x.abs_diff(y));
            ring(a / 4, b / 4) + ring(a % 4, b % 4)
        };
        let mut max = 0;
        for s in 0..16 {
            for d in (0..16).filter(|&d| d != s) {
                let (mut at, mut hops) = (s, 0);
                while at != d {
                    at = t.neighbors(at)[first[at * 16 + d] as usize];
                    hops += 1;
                }
                assert_eq!(hops, torus(s, d), "{s} -> {d}");
                max = max.max(hops);
            }
        }
        assert_eq!(max, 4);
    }
}

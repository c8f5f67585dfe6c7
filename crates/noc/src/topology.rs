//! NoC topologies considered by the paper's design-space exploration.
//!
//! The set `T` of Section III.A: mesh, toroidal mesh, spidergon, rectangular
//! honeycomb, generalized De Bruijn and generalized Kautz.  Every topology is
//! represented as a directed graph of `P` router nodes; node degree `D` is
//! the number of *network* output ports, so the crossbar size is
//! `F = D + 1` once the local PE port is included.

use crate::NocError;
use std::collections::VecDeque;

/// The topology families of the paper's set `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// 2-D mesh (nodes arranged on a near-square grid, no wraparound).
    Mesh,
    /// 2-D toroidal mesh (wraparound links).
    ToroidalMesh,
    /// Spidergon: ring plus cross links to the diametrically opposite node.
    Spidergon,
    /// Rectangular honeycomb (brick-wall) arrangement.
    Honeycomb,
    /// Generalized De Bruijn digraph: `i -> (i * D + j) mod P`.
    GeneralizedDeBruijn,
    /// Generalized Kautz digraph: `i -> (-(i * D) - j - 1) mod P`.
    GeneralizedKautz,
}

impl TopologyKind {
    /// All the topology kinds of the paper's exploration set.
    pub fn all() -> [TopologyKind; 6] {
        [
            TopologyKind::Mesh,
            TopologyKind::ToroidalMesh,
            TopologyKind::Spidergon,
            TopologyKind::Honeycomb,
            TopologyKind::GeneralizedDeBruijn,
            TopologyKind::GeneralizedKautz,
        ]
    }

    /// Short name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::ToroidalMesh => "toroidal-mesh",
            TopologyKind::Spidergon => "spidergon",
            TopologyKind::Honeycomb => "honeycomb",
            TopologyKind::GeneralizedDeBruijn => "gen-de-bruijn",
            TopologyKind::GeneralizedKautz => "gen-kautz",
        }
    }
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A directed NoC topology.
///
/// # Example
///
/// ```
/// use noc_sim::{Topology, TopologyKind};
///
/// let t = Topology::new(TopologyKind::GeneralizedKautz, 24, 3)?;
/// assert_eq!(t.nodes(), 24);
/// assert_eq!(t.degree(), 3);
/// # Ok::<(), noc_sim::NocError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    kind: TopologyKind,
    nodes: usize,
    degree: usize,
    /// `neighbors[i][p]` is the node reached from node `i` through output
    /// port `p`.
    neighbors: Vec<Vec<usize>>,
}

impl Topology {
    /// Builds a topology with `nodes` routers and requested degree `degree`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidTopology`] when the parameters are
    /// incompatible with the family (e.g. a spidergon needs an even number of
    /// nodes) and [`NocError::NotConnected`] if the resulting digraph is not
    /// strongly connected.
    pub fn new(kind: TopologyKind, nodes: usize, degree: usize) -> Result<Self, NocError> {
        if nodes < 2 {
            return Err(NocError::InvalidTopology {
                reason: format!("need at least 2 nodes, got {nodes}"),
            });
        }
        if degree == 0 {
            return Err(NocError::InvalidTopology {
                reason: "degree must be at least 1".to_string(),
            });
        }
        let neighbors = match kind {
            TopologyKind::GeneralizedDeBruijn => Self::de_bruijn(nodes, degree),
            TopologyKind::GeneralizedKautz => Self::kautz(nodes, degree),
            TopologyKind::Spidergon => Self::spidergon(nodes)?,
            TopologyKind::Mesh => Self::mesh(nodes, false)?,
            TopologyKind::ToroidalMesh => Self::mesh(nodes, true)?,
            TopologyKind::Honeycomb => Self::honeycomb(nodes)?,
        };
        let degree = neighbors.iter().map(|n| n.len()).max().unwrap_or(0);
        // Pad rows with self-loops removed: instead keep ragged lists; degree is the max.
        let topo = Topology {
            kind,
            nodes,
            degree,
            neighbors,
        };
        if !topo.is_strongly_connected() {
            return Err(NocError::NotConnected);
        }
        Ok(topo)
    }

    fn de_bruijn(p: usize, d: usize) -> Vec<Vec<usize>> {
        (0..p)
            .map(|i| (0..d).map(|j| (i * d + j) % p).collect())
            .collect()
    }

    fn kautz(p: usize, d: usize) -> Vec<Vec<usize>> {
        (0..p)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        let v = (i * d) % p;
                        // (-(i*d) - j - 1) mod p
                        ((2 * p) - v - j - 1) % p
                    })
                    .collect()
            })
            .collect()
    }

    fn spidergon(p: usize) -> Result<Vec<Vec<usize>>, NocError> {
        if !p.is_multiple_of(2) {
            return Err(NocError::InvalidTopology {
                reason: format!("spidergon needs an even node count, got {p}"),
            });
        }
        Ok((0..p)
            .map(|i| vec![(i + 1) % p, (i + p - 1) % p, (i + p / 2) % p])
            .collect())
    }

    fn grid_dimensions(p: usize) -> (usize, usize) {
        // near-square factorization
        let mut best = (1, p);
        let mut r = 1;
        while r * r <= p {
            if p.is_multiple_of(r) {
                best = (r, p / r);
            }
            r += 1;
        }
        best
    }

    fn mesh(p: usize, toroidal: bool) -> Result<Vec<Vec<usize>>, NocError> {
        let (rows, cols) = Self::grid_dimensions(p);
        if rows == 1 && !toroidal && p > 2 {
            // a 1 x P open mesh is a path; still valid but degenerate — allow it
        }
        let idx = |r: usize, c: usize| r * cols + c;
        let mut neighbors = vec![Vec::new(); p];
        for r in 0..rows {
            for c in 0..cols {
                let i = idx(r, c);
                let mut push = |j: usize| {
                    if j != i && !neighbors[i].contains(&j) {
                        neighbors[i].push(j);
                    }
                };
                if toroidal {
                    push(idx(r, (c + 1) % cols));
                    push(idx(r, (c + cols - 1) % cols));
                    push(idx((r + 1) % rows, c));
                    push(idx((r + rows - 1) % rows, c));
                } else {
                    if c + 1 < cols {
                        push(idx(r, c + 1));
                    }
                    if c > 0 {
                        push(idx(r, c - 1));
                    }
                    if r + 1 < rows {
                        push(idx(r + 1, c));
                    }
                    if r > 0 {
                        push(idx(r - 1, c));
                    }
                }
            }
        }
        Ok(neighbors)
    }

    fn honeycomb(p: usize) -> Result<Vec<Vec<usize>>, NocError> {
        if !p.is_multiple_of(2) {
            return Err(NocError::InvalidTopology {
                reason: format!("honeycomb needs an even node count, got {p}"),
            });
        }
        // Rectangular (brick-wall) honeycomb on a torus: every node keeps its
        // two horizontal ring links; vertical links alternate with column
        // parity, yielding the degree-3 brick pattern.  A fourth "long"
        // vertical link is added to even columns when the grid has more than
        // two rows, matching the D = 4 rectangular honeycomb of the paper.
        let (rows, cols) = Self::grid_dimensions(p);
        let idx = |r: usize, c: usize| r * cols + c;
        let mut neighbors = vec![Vec::new(); p];
        for r in 0..rows {
            for c in 0..cols {
                let i = idx(r, c);
                let mut push = |j: usize| {
                    if j != i && !neighbors[i].contains(&j) {
                        neighbors[i].push(j);
                    }
                };
                push(idx(r, (c + 1) % cols));
                push(idx(r, (c + cols - 1) % cols));
                if rows > 1 {
                    if (r + c) % 2 == 0 {
                        push(idx((r + 1) % rows, c));
                    } else {
                        push(idx((r + rows - 1) % rows, c));
                    }
                    if rows > 2 && c % 2 == 0 {
                        push(idx((r + rows - 1) % rows, c));
                    }
                }
            }
        }
        Ok(neighbors)
    }

    /// The topology family.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of router nodes `P`.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Maximum network degree `D` (number of network output ports).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Crossbar size `F = D + 1` (network ports plus the local PE port).
    pub fn crossbar_size(&self) -> usize {
        self.degree + 1
    }

    /// Output neighbours of node `i`, indexed by output port.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.neighbors[i]
    }

    /// Breadth-first shortest-path distances from `src` to every node.
    pub fn distances_from(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.nodes];
        let mut queue = VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &v in &self.neighbors[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// All-pairs shortest-path distances.
    pub fn all_distances(&self) -> Vec<Vec<usize>> {
        (0..self.nodes).map(|s| self.distances_from(s)).collect()
    }

    /// Network diameter (largest finite shortest-path distance).
    #[cfg(test)]
    pub(crate) fn diameter(&self) -> usize {
        self.all_distances()
            .iter()
            .flat_map(|row| row.iter().copied())
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0)
    }

    fn is_strongly_connected(&self) -> bool {
        // forward reachability from node 0
        if self.distances_from(0).contains(&usize::MAX) {
            return false;
        }
        // backward reachability: build reverse adjacency
        let mut rev = vec![Vec::new(); self.nodes];
        for (i, ns) in self.neighbors.iter().enumerate() {
            for &j in ns {
                rev[j].push(i);
            }
        }
        let mut dist = vec![usize::MAX; self.nodes];
        let mut queue = VecDeque::new();
        dist[0] = 0;
        queue.push_back(0);
        while let Some(u) = queue.pop_front() {
            for &v in &rev[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist.iter().all(|&d| d != usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn de_bruijn_successor_rule() {
        let t = Topology::new(TopologyKind::GeneralizedDeBruijn, 16, 2).unwrap();
        assert_eq!(t.neighbors(3), &[6, 7]);
        assert_eq!(t.neighbors(15), &[14, 15].map(|x: usize| x % 16));
        assert_eq!(t.degree(), 2);
    }

    #[test]
    fn kautz_successor_rule() {
        let t = Topology::new(TopologyKind::GeneralizedKautz, 12, 3).unwrap();
        // successors of i are (-(3 i) - j - 1) mod 12 for j = 0, 1, 2
        assert_eq!(t.neighbors(0), &[11, 10, 9]);
        assert_eq!(t.neighbors(1), &[8, 7, 6]);
        assert_eq!(t.crossbar_size(), 4);
    }

    #[test]
    fn kautz_has_small_diameter() {
        // Kautz digraphs have diameter close to log_D(P).
        let t = Topology::new(TopologyKind::GeneralizedKautz, 24, 3).unwrap();
        assert!(t.diameter() <= 3, "diameter = {}", t.diameter());
        let t = Topology::new(TopologyKind::GeneralizedKautz, 36, 4).unwrap();
        assert!(t.diameter() <= 3);
    }

    #[test]
    fn de_bruijn_diameter_bounded_by_log() {
        let t = Topology::new(TopologyKind::GeneralizedDeBruijn, 32, 2).unwrap();
        assert!(t.diameter() <= 5, "diameter = {}", t.diameter());
    }

    #[test]
    fn spidergon_structure() {
        let t = Topology::new(TopologyKind::Spidergon, 16, 3).unwrap();
        assert_eq!(t.degree(), 3);
        assert_eq!(t.neighbors(0), &[1, 15, 8]);
        assert!(t.diameter() <= 5);
        assert!(Topology::new(TopologyKind::Spidergon, 15, 3).is_err());
    }

    #[test]
    fn mesh_and_torus() {
        let mesh = Topology::new(TopologyKind::Mesh, 16, 4).unwrap();
        assert_eq!(mesh.degree(), 4);
        // corner of a 4x4 mesh has 2 neighbours
        assert_eq!(mesh.neighbors(0).len(), 2);
        let torus = Topology::new(TopologyKind::ToroidalMesh, 16, 4).unwrap();
        assert!(torus.neighbors(0).len() == 4);
        assert!(torus.diameter() <= mesh.diameter());
    }

    #[test]
    fn honeycomb_is_connected_and_bounded_degree() {
        for p in [16usize, 24, 32, 36] {
            let t = Topology::new(TopologyKind::Honeycomb, p, 4).unwrap();
            assert!(t.degree() <= 4, "degree {}", t.degree());
            assert!(t.diameter() < p);
        }
        assert!(Topology::new(TopologyKind::Honeycomb, 15, 4).is_err());
    }

    #[test]
    fn paper_design_point_p22_d3_kautz() {
        // The paper's chosen architecture: P = 22 nodes, D = 3 generalized Kautz.
        let t = Topology::new(TopologyKind::GeneralizedKautz, 22, 3).unwrap();
        assert_eq!(t.nodes(), 22);
        assert_eq!(t.degree(), 3);
        assert!(t.diameter() <= 4);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Topology::new(TopologyKind::Mesh, 1, 2).is_err());
        assert!(Topology::new(TopologyKind::Mesh, 8, 0).is_err());
    }

    #[test]
    fn distances_are_consistent_with_diameter() {
        let t = Topology::new(TopologyKind::GeneralizedKautz, 16, 2).unwrap();
        let all = t.all_distances();
        let max = all
            .iter()
            .flat_map(|r| r.iter().copied())
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap();
        assert_eq!(max, t.diameter());
    }

    #[test]
    fn all_paper_table1_configurations_build() {
        // Table I explores P in {16, 24, 32, 36} with the listed D/topology pairs.
        let cases = [
            (TopologyKind::GeneralizedDeBruijn, 2),
            (TopologyKind::GeneralizedKautz, 2),
            (TopologyKind::Spidergon, 3),
            (TopologyKind::GeneralizedKautz, 3),
            (TopologyKind::Honeycomb, 4),
            (TopologyKind::GeneralizedKautz, 4),
        ];
        for p in [16usize, 24, 32, 36] {
            for (kind, d) in cases {
                let t = Topology::new(kind, p, d).unwrap_or_else(|e| panic!("{kind} P={p}: {e}"));
                assert!(t.degree() <= 4);
            }
        }
    }
}

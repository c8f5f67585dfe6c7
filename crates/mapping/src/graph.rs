//! Weighted undirected graphs used by the partitioning flow.

/// A weighted undirected graph stored as adjacency lists.
///
/// Node indices are dense (`0..len`).  Edge weights count how many messages
/// the two endpoints exchange per decoding iteration.
///
/// # Example
///
/// ```
/// use noc_mapping::WeightedGraph;
///
/// // a path 0 - 1 - 2 with weights 2 and 1
/// let g = WeightedGraph::from_adjacency(vec![vec![(1, 2)], vec![(2, 1)], vec![]]);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1), &[(0, 2), (2, 1)]);
/// assert_eq!(g.edge_cut(&[0, 0, 1]), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    adjacency: Vec<Vec<(usize, u64)>>,
}

impl WeightedGraph {
    /// Creates a graph with `nodes` isolated nodes, for the tests to add
    /// edges to.
    #[cfg(test)]
    pub(crate) fn new(nodes: usize) -> Self {
        WeightedGraph {
            adjacency: vec![Vec::new(); nodes],
        }
    }

    /// Builds a graph from an adjacency-list description
    /// (`lists[u]` = `(v, weight)` pairs; both directions must be present or
    /// will be merged).
    ///
    /// Only the `u < v` entries are read, as if each added the undirected
    /// edge `(u, v)` of weight `w`: repeated pairs add their weights and
    /// self-loop entries are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a neighbour index is out of range.
    pub fn from_adjacency(lists: Vec<Vec<(usize, u64)>>) -> Self {
        let n = lists.len();
        let mut adjacency: Vec<Vec<(usize, u64)>> = lists
            .iter()
            .map(|neigh| Vec::with_capacity(neigh.len()))
            .collect();
        for (u, neigh) in lists.iter().enumerate() {
            for &(v, w) in neigh {
                if u < v {
                    assert!(v < n, "node out of range");
                    adjacency[u].push((v, w));
                    adjacency[v].push((u, w));
                }
            }
        }
        for neigh in &mut adjacency {
            neigh.sort_unstable_by_key(|&(v, _)| v);
            neigh.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 += later.1;
                }
                same
            });
        }
        WeightedGraph { adjacency }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Adds an undirected edge (accumulating the weight if it exists).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or self loops.
    #[cfg(test)]
    pub(crate) fn add_edge(&mut self, u: usize, v: usize, weight: u64) {
        assert!(u < self.len() && v < self.len(), "node out of range");
        assert_ne!(u, v, "self loops are not allowed");
        for (a, b) in [(u, v), (v, u)] {
            match self.adjacency[a].binary_search_by_key(&b, |&(n, _)| n) {
                Ok(pos) => self.adjacency[a][pos].1 += weight,
                Err(pos) => self.adjacency[a].insert(pos, (b, weight)),
            }
        }
    }

    /// Neighbours of `u` with edge weights.
    pub fn neighbors(&self, u: usize) -> &[(usize, u64)] {
        &self.adjacency[u]
    }

    /// Number of neighbours of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adjacency[u].len()
    }

    /// Total weight over all (undirected) edges.
    #[cfg(test)]
    fn total_edge_weight(&self) -> u64 {
        self.adjacency
            .iter()
            .flat_map(|n| n.iter())
            .map(|&(_, w)| w)
            .sum::<u64>()
            / 2
    }

    /// Edge cut of an assignment `part[u]`: total weight of edges whose
    /// endpoints live in different parts.
    ///
    /// # Panics
    ///
    /// Panics if `part.len() != self.len()`.
    pub fn edge_cut(&self, part: &[usize]) -> u64 {
        assert_eq!(part.len(), self.len(), "partition length mismatch");
        let mut cut = 0;
        for (u, neigh) in self.adjacency.iter().enumerate() {
            for &(v, w) in neigh {
                if u < v && part[u] != part[v] {
                    cut += w;
                }
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 2);
        g.add_edge(0, 2, 3);
        g
    }

    #[test]
    fn construction_and_degrees() {
        let g = triangle();
        assert_eq!(g.len(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.total_edge_weight(), 6);
    }

    #[test]
    fn duplicate_edges_accumulate_weight() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 1, 4);
        assert_eq!(g.total_edge_weight(), 5);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_panics() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(1, 1, 1);
    }

    #[test]
    fn edge_cut_of_partitions() {
        let g = triangle();
        assert_eq!(g.edge_cut(&[0, 0, 0]), 0);
        assert_eq!(g.edge_cut(&[0, 1, 1]), 1 + 3);
        assert_eq!(g.edge_cut(&[0, 1, 2]), 6);
    }

    #[test]
    fn from_adjacency_matches_manual_construction() {
        let lists = vec![
            vec![(1, 1), (2, 3)],
            vec![(0, 1), (2, 2)],
            vec![(0, 3), (1, 2)],
        ];
        let g = WeightedGraph::from_adjacency(lists);
        assert_eq!(g, triangle());
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn from_adjacency_rejects_an_out_of_range_neighbour() {
        let _ = WeightedGraph::from_adjacency(vec![vec![(2, 1)], vec![]]);
    }

    /// The construction `from_adjacency` replaced: one `add_edge` per
    /// `u < v` entry.
    fn add_edge_construction(lists: &[Vec<(usize, u64)>]) -> WeightedGraph {
        let mut g = WeightedGraph::new(lists.len());
        for (u, neigh) in lists.iter().enumerate() {
            for &(v, w) in neigh {
                if u < v {
                    g.add_edge(u, v, w);
                }
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn from_adjacency_equals_the_add_edge_construction(
            nodes in 1usize..40,
            entries in 0usize..160,
            weight_bits in 0u32..=8,
            mirrored_pct in 0u32..=100,
            seed in 0u64..1_000_000,
        ) {
            // Random lists with repeated pairs, one-sided entries, zero
            // weights and self loops, in no particular order.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut lists = vec![Vec::new(); nodes];
            for _ in 0..entries {
                let (u, v) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
                let w = rng.gen_range(0..(1u64 << weight_bits));
                lists[u].push((v, w));
                if rng.gen_range(0..100u32) < mirrored_pct {
                    lists[v].push((u, w));
                }
            }
            let expected = add_edge_construction(&lists);
            prop_assert_eq!(WeightedGraph::from_adjacency(lists), expected);
        }
    }
}

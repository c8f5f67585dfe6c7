//! Tanner-graph views of a parity-check matrix.
//!
//! Besides the usual bipartite variable/check view, this module provides the
//! *row adjacency graph* used by the paper's mapping flow (Section III.A):
//! with layered scheduling the graph has `M` nodes (one per parity check) and
//! an edge between rows `i` and `j` whenever a non-zero entry is present in
//! the same column of both, i.e. whenever decoding row `j` consumes a bit LLR
//! updated by row `i`.

use crate::code::QcLdpcCode;
use crate::sparse::SparseBinaryMatrix;

/// Bipartite Tanner graph plus the derived row-adjacency graph.
#[derive(Debug, Clone)]
pub struct TannerGraph {
    check_to_vars: Vec<Vec<usize>>,
    var_to_checks: Vec<Vec<usize>>,
}

impl TannerGraph {
    /// Builds the Tanner graph of an expanded QC-LDPC code.
    pub fn from_code(code: &QcLdpcCode) -> Self {
        Self::from_matrix(code.parity_check())
    }

    /// Builds the Tanner graph of an arbitrary sparse parity-check matrix.
    pub fn from_matrix(h: &SparseBinaryMatrix) -> Self {
        let check_to_vars: Vec<Vec<usize>> = (0..h.num_rows()).map(|r| h.row(r).to_vec()).collect();
        let var_to_checks = h.column_lists();
        TannerGraph {
            check_to_vars,
            var_to_checks,
        }
    }

    /// Number of check nodes.
    pub fn num_checks(&self) -> usize {
        self.check_to_vars.len()
    }

    /// Number of variable nodes.
    pub fn num_variables(&self) -> usize {
        self.var_to_checks.len()
    }

    /// Edge-weighted row adjacency, the graph used for NoC mapping: for every
    /// check node, the other check nodes sharing at least one variable with
    /// it, in increasing order, each with the number of shared variables
    /// (i.e. the number of LLR messages exchanged between the two rows per
    /// iteration).
    pub fn weighted_row_adjacency(&self) -> Vec<Vec<(usize, usize)>> {
        // `shared[b]`: variables the current row shares with row `b`;
        // `touched`: the rows with a non-zero count
        let mut shared = vec![0usize; self.num_checks()];
        let mut touched = Vec::new();
        self.check_to_vars
            .iter()
            .enumerate()
            .map(|(a, vars)| {
                for &v in vars {
                    for &b in &self.var_to_checks[v] {
                        if b != a {
                            if shared[b] == 0 {
                                touched.push(b);
                            }
                            shared[b] += 1;
                        }
                    }
                }
                touched.sort_unstable();
                touched
                    .drain(..)
                    .map(|b| (b, std::mem::take(&mut shared[b])))
                    .collect()
            })
            .collect()
    }

    /// Computes the girth (length of the shortest cycle) of the bipartite
    /// graph via BFS from every variable node, returning `None` for a forest.
    /// Intended for small matrices (tests and diagnostics).
    pub fn girth(&self) -> Option<usize> {
        let nv = self.num_variables();
        let nc = self.num_checks();
        let total = nv + nc;
        let mut best: Option<usize> = None;
        // node ids: 0..nv are variables, nv..nv+nc are checks
        for start in 0..nv {
            let mut dist = vec![usize::MAX; total];
            let mut parent = vec![usize::MAX; total];
            let mut queue = std::collections::VecDeque::new();
            dist[start] = 0;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                let neighbors: Vec<usize> = if u < nv {
                    self.var_to_checks[u].iter().map(|&c| c + nv).collect()
                } else {
                    self.check_to_vars[u - nv].clone()
                };
                for v in neighbors {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        parent[v] = u;
                        queue.push_back(v);
                    } else if parent[u] != v {
                        let cycle = dist[u] + dist[v] + 1;
                        best = Some(best.map_or(cycle, |b| b.min(cycle)));
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_matrix::CodeRate;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The row adjacency as first written, kept as the oracle of
    /// [`TannerGraph::weighted_row_adjacency`]: every pair of checks in every
    /// column list, counted in one map per row.
    fn reference_weighted_row_adjacency(g: &TannerGraph) -> Vec<Vec<(usize, usize)>> {
        let mut maps: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); g.num_checks()];
        for checks in &g.var_to_checks {
            for (i, &a) in checks.iter().enumerate() {
                for &b in &checks[i + 1..] {
                    *maps[a].entry(b).or_insert(0) += 1;
                    *maps[b].entry(a).or_insert(0) += 1;
                }
            }
        }
        maps.into_iter().map(|m| m.into_iter().collect()).collect()
    }

    fn tiny_matrix() -> SparseBinaryMatrix {
        // checks: c0 = {0,1}, c1 = {1,2}, c2 = {3}
        let mut h = SparseBinaryMatrix::new(3, 4);
        h.set(0, 0);
        h.set(0, 1);
        h.set(1, 1);
        h.set(1, 2);
        h.set(2, 3);
        h
    }

    #[test]
    fn bipartite_views_consistent() {
        let g = TannerGraph::from_matrix(&tiny_matrix());
        assert_eq!(g.num_checks(), 3);
        assert_eq!(g.num_variables(), 4);
    }

    #[test]
    fn row_adjacency_links_rows_sharing_columns() {
        let g = TannerGraph::from_matrix(&tiny_matrix());
        let adj = g.weighted_row_adjacency();
        assert_eq!(adj[0], vec![(1, 1)]);
        assert_eq!(adj[1], vec![(0, 1)]);
        assert!(adj[2].is_empty());
    }

    #[test]
    fn weighted_adjacency_counts_shared_columns() {
        let mut h = SparseBinaryMatrix::new(2, 4);
        for c in [0, 1, 2] {
            h.set(0, c);
        }
        for c in [1, 2, 3] {
            h.set(1, c);
        }
        let g = TannerGraph::from_matrix(&h);
        let w = g.weighted_row_adjacency();
        assert_eq!(w[0], vec![(1, 2)]);
        assert_eq!(w[1], vec![(0, 2)]);
    }

    #[test]
    fn girth_of_a_four_cycle() {
        let mut h = SparseBinaryMatrix::new(2, 2);
        h.set(0, 0);
        h.set(0, 1);
        h.set(1, 0);
        h.set(1, 1);
        let g = TannerGraph::from_matrix(&h);
        assert_eq!(g.girth(), Some(4));
    }

    #[test]
    fn girth_of_a_tree_is_none() {
        let g = TannerGraph::from_matrix(&tiny_matrix());
        assert_eq!(g.girth(), None);
    }

    #[test]
    fn wimax_code_row_adjacency_is_symmetric_and_nontrivial() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let g = TannerGraph::from_code(&code);
        assert_eq!(g.num_checks(), code.m());
        assert_eq!(g.num_variables(), code.n());
        let adj = g.weighted_row_adjacency();
        // symmetry, weights included
        for (i, neigh) in adj.iter().enumerate() {
            for &(j, w) in neigh {
                assert!(adj[j].contains(&(i, w)));
                assert_ne!(j, i, "no self loops");
            }
        }
        // every check row shares variables with several other rows
        let avg: f64 = adj.iter().map(|n| n.len() as f64).sum::<f64>() / adj.len() as f64;
        assert!(avg > 5.0, "average adjacency degree {avg}");
    }

    #[test]
    fn wimax_rate_half_has_girth_at_least_six() {
        // The standard's rate-1/2 matrix is 4-cycle free.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        assert_eq!(code.parity_check().count_four_cycles(), 0);
    }

    #[test]
    fn weighted_adjacency_matches_the_reference_on_every_wimax_code() {
        for n in crate::wimax_block_lengths() {
            for rate in CodeRate::all() {
                let g = TannerGraph::from_code(&QcLdpcCode::wimax(n, rate).unwrap());
                assert_eq!(
                    g.weighted_row_adjacency(),
                    reference_weighted_row_adjacency(&g),
                    "n = {n}, rate {rate}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn weighted_adjacency_matches_the_reference(
            rows in 1usize..40,
            cols in 1usize..60,
            ones in 0usize..400,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut h = SparseBinaryMatrix::new(rows, cols);
            for _ in 0..ones {
                h.set(rng.gen_range(0..rows), rng.gen_range(0..cols));
            }
            let g = TannerGraph::from_matrix(&h);
            prop_assert_eq!(g.weighted_row_adjacency(), reference_weighted_row_adjacency(&g));
        }
    }
}

//! Balanced graph partitioning: the role played by the Metis bundle in the
//! paper's mapping flow.
//!
//! The partitioner combines greedy region growing (seeds spread across the
//! graph, grown breadth-first in round-robin so that every part reaches the
//! same size) with a Kernighan–Lin-style refinement that moves boundary nodes
//! between parts whenever this reduces the edge cut without violating the
//! balance constraint.

use crate::graph::WeightedGraph;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Configuration of the partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionerConfig {
    /// Number of refinement passes.
    pub refinement_passes: usize,
    /// Allowed imbalance: a part may hold at most
    /// `ceil(nodes / parts) + slack` nodes.
    pub balance_slack: usize,
    /// RNG seed for seed-node selection.
    pub seed: u64,
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        PartitionerConfig {
            refinement_passes: 8,
            balance_slack: 1,
            seed: 1,
        }
    }
}

/// The result of partitioning a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<usize>,
    parts: usize,
}

impl Partition {
    /// Creates a partition from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if any assignment is `>= parts`.
    pub fn new(assignment: Vec<usize>, parts: usize) -> Self {
        assert!(
            assignment.iter().all(|&p| p < parts),
            "assignment references a part out of range"
        );
        Partition { assignment, parts }
    }

    /// The part of node `u`.
    pub fn part_of(&self, u: usize) -> usize {
        self.assignment[u]
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Number of nodes in each part.
    #[cfg(test)]
    fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.parts];
        for &p in &self.assignment {
            sizes[p] += 1;
        }
        sizes
    }
}

/// Balanced low-edge-cut graph partitioner.
///
/// # Example
///
/// ```
/// use noc_mapping::{Partitioner, PartitionerConfig, WeightedGraph};
///
/// // a ring of 12 nodes split over 4 parts
/// let ring = (0..12).map(|i| vec![((i + 1) % 12, 1), ((i + 11) % 12, 1)]);
/// let g = WeightedGraph::from_adjacency(ring.collect());
/// let partition = Partitioner::new(PartitionerConfig::default()).partition(&g, 4);
/// assert_eq!(partition.parts(), 4);
/// for part in 0..4 {
///     assert!(partition.assignment().iter().filter(|&&p| p == part).count() <= 4);
/// }
/// // a ring cut into 4 contiguous arcs has cut 4; allow a little slack
/// assert!(g.edge_cut(partition.assignment()) <= 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partitioner {
    config: PartitionerConfig,
}

impl Partitioner {
    /// Creates a partitioner.
    pub fn new(config: PartitionerConfig) -> Self {
        Partitioner { config }
    }

    /// Partitions `graph` into `parts` balanced parts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero or larger than the number of nodes.
    pub fn partition(&self, graph: &WeightedGraph, parts: usize) -> Partition {
        let n = graph.len();
        assert!(parts >= 1, "need at least one part");
        assert!(parts <= n, "cannot split {n} nodes into {parts} parts");
        if parts == 1 {
            return Partition::new(vec![0; n], 1);
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let assignment = self.grow_regions(graph, parts, &mut rng);
        let assignment = self.refine(graph, assignment, parts);
        Partition::new(assignment, parts)
    }

    /// Greedy region growing: pick spread-out seeds, then grow each part
    /// breadth-first in round-robin until every node is assigned.
    fn grow_regions(&self, graph: &WeightedGraph, parts: usize, rng: &mut impl Rng) -> Vec<usize> {
        let n = graph.len();
        let target = n.div_ceil(parts);
        let mut assignment = vec![usize::MAX; n];
        let mut sizes = vec![0usize; parts];

        // choose seeds: first seed random, each next one the node farthest
        // (in BFS hops, unreachable counting as `n`) from the chosen seeds,
        // the last such node on ties; the seeds sit at distance 0 and some
        // other node is at least 1 away, so no seed is chosen twice
        let mut seeds = Vec::with_capacity(parts);
        let mut dist_to_seeds = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        let first = rng.gen_range(0..n);
        seeds.push(first);
        lower_distances(graph, first, &mut dist_to_seeds, &mut queue);
        while seeds.len() < parts {
            let next = (0..n)
                .max_by_key(|&u| dist_to_seeds[u].min(n))
                .expect("n >= 1");
            seeds.push(next);
            lower_distances(graph, next, &mut dist_to_seeds, &mut queue);
        }

        let mut frontiers: Vec<VecDeque<usize>> = seeds
            .iter()
            .enumerate()
            .map(|(p, &s)| {
                assignment[s] = p;
                sizes[p] = 1;
                VecDeque::from([s])
            })
            .collect();
        // `cursor[u]`: the neighbours of `u` before it are assigned, and a
        // node never returns to unassigned, so no frontier scan repeats them
        let mut cursor = vec![0usize; n];

        // round-robin growth
        let mut remaining = n - parts;
        let mut unassigned_scan = 0usize;
        while remaining > 0 {
            let mut progressed = false;
            for p in 0..parts {
                if sizes[p] >= target + self.config.balance_slack {
                    continue;
                }
                // pop from the frontier until we find a node with an unassigned neighbour
                while let Some(&u) = frontiers[p].front() {
                    let neighbors = graph.neighbors(u);
                    while cursor[u] < neighbors.len()
                        && assignment[neighbors[cursor[u]].0] != usize::MAX
                    {
                        cursor[u] += 1;
                    }
                    let Some(&(v, _)) = neighbors.get(cursor[u]) else {
                        frontiers[p].pop_front();
                        continue;
                    };
                    assignment[v] = p;
                    sizes[p] += 1;
                    frontiers[p].push_back(v);
                    remaining -= 1;
                    progressed = true;
                    break;
                }
                if remaining == 0 {
                    break;
                }
            }
            if !progressed && remaining > 0 {
                // disconnected remainder: assign the next unassigned node to the smallest part
                while unassigned_scan < n && assignment[unassigned_scan] != usize::MAX {
                    unassigned_scan += 1;
                }
                if unassigned_scan < n {
                    let p = (0..parts).min_by_key(|&p| sizes[p]).expect("parts >= 1");
                    assignment[unassigned_scan] = p;
                    sizes[p] += 1;
                    frontiers[p].push_back(unassigned_scan);
                    remaining -= 1;
                }
            }
        }
        assignment
    }

    /// Kernighan–Lin-style refinement: move boundary nodes to the neighbouring
    /// part with the largest positive gain, respecting the balance constraint.
    ///
    /// Ties between equally heavy parts go to the part whose first
    /// appearance among the node's neighbours comes last.
    fn refine(
        &self,
        graph: &WeightedGraph,
        mut assignment: Vec<usize>,
        parts: usize,
    ) -> Vec<usize> {
        let n = graph.len();
        let target = n.div_ceil(parts);
        let max_size = target + self.config.balance_slack;
        let min_size = (n / parts).saturating_sub(self.config.balance_slack).max(1);
        let mut sizes = vec![0usize; parts];
        for &p in &assignment {
            sizes[p] += 1;
        }
        // `tally[u * parts + p]`: the weight of the edges from `u` into part
        // `p`, kept up to date as nodes move
        let mut tally = vec![0u64; n * parts];
        for (u, row) in tally.chunks_exact_mut(parts).enumerate() {
            for &(v, w) in graph.neighbors(u) {
                row[assignment[v]] += w;
            }
        }
        // `seen[p] == moves`: part `p` already appeared among the neighbours
        // of the node being moved
        let mut seen = vec![0usize; parts];
        let mut moves = 0usize;

        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed ^ 0xDEAD);

        for _ in 0..self.config.refinement_passes {
            let mut improved = false;
            order.shuffle(&mut rng);
            for &u in &order {
                let from = assignment[u];
                if sizes[from] <= min_size {
                    continue;
                }
                let row = &tally[u * parts..(u + 1) * parts];
                let eligible = |p: usize| p != from && sizes[p] < max_size;
                let external = (0..parts).filter(|&p| eligible(p)).map(|p| row[p]).max();
                // weights are non-negative, so a part that beats the internal
                // weight has an edge from `u`
                let Some(external) = external.filter(|&w| w > row[from]) else {
                    continue;
                };
                moves += 1;
                let mut to = from;
                for &(v, _) in graph.neighbors(u) {
                    let p = assignment[v];
                    if seen[p] != moves {
                        seen[p] = moves;
                        if eligible(p) && row[p] == external {
                            to = p;
                        }
                    }
                }
                assignment[u] = to;
                sizes[from] -= 1;
                sizes[to] += 1;
                for &(v, w) in graph.neighbors(u) {
                    tally[v * parts + from] -= w;
                    tally[v * parts + to] += w;
                }
                improved = true;
            }
            if !improved {
                break;
            }
        }
        assignment
    }
}

/// Lowers `dist` (BFS hops to the nearest source so far) to account for the
/// new source `src`.  Only nodes whose distance drops are entered: every node
/// on a shortest path from `src` to such a node drops too, so the result is
/// the element-wise minimum of `dist` and a full BFS from `src`.
fn lower_distances(
    graph: &WeightedGraph,
    src: usize,
    dist: &mut [usize],
    queue: &mut VecDeque<usize>,
) {
    dist[src] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let next = dist[u] + 1;
        for &(v, _) in graph.neighbors(u) {
            if next < dist[v] {
                dist[v] = next;
                queue.push_back(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The partitioner as first written, kept as the oracle of the
    /// production loops: a full BFS per seed merged by element-wise minimum,
    /// `contains` over the chosen seeds, a frontier scan from each node's
    /// first neighbour and a gain list built at every refinement visit.
    fn reference_partition(
        config: PartitionerConfig,
        graph: &WeightedGraph,
        parts: usize,
    ) -> Vec<usize> {
        if parts == 1 {
            return vec![0; graph.len()];
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let assignment = reference_grow_regions(config, graph, parts, &mut rng);
        reference_refine(config, graph, assignment, parts)
    }

    fn reference_grow_regions(
        config: PartitionerConfig,
        graph: &WeightedGraph,
        parts: usize,
        rng: &mut impl Rng,
    ) -> Vec<usize> {
        let n = graph.len();
        let target = n.div_ceil(parts);
        let mut assignment = vec![usize::MAX; n];
        let mut sizes = vec![0usize; parts];

        // choose seeds: first seed random, others maximize BFS distance to chosen seeds
        let mut seeds = Vec::with_capacity(parts);
        let first = rng.gen_range(0..n);
        seeds.push(first);
        let mut dist_to_seeds = reference_bfs_distance(graph, first);
        while seeds.len() < parts {
            let next = (0..n)
                .filter(|u| !seeds.contains(u))
                .max_by_key(|&u| dist_to_seeds[u].min(n))
                .unwrap_or_else(|| rng.gen_range(0..n));
            seeds.push(next);
            let d = reference_bfs_distance(graph, next);
            for (a, b) in dist_to_seeds.iter_mut().zip(d) {
                *a = (*a).min(b);
            }
        }

        let mut frontiers: Vec<VecDeque<usize>> = seeds
            .iter()
            .enumerate()
            .map(|(p, &s)| {
                assignment[s] = p;
                sizes[p] = 1;
                VecDeque::from([s])
            })
            .collect();

        // round-robin growth
        let mut remaining = n - parts;
        let mut unassigned_scan = 0usize;
        while remaining > 0 {
            let mut progressed = false;
            for p in 0..parts {
                if sizes[p] >= target + config.balance_slack {
                    continue;
                }
                // pop from the frontier until we find a node with an unassigned neighbour
                while let Some(&u) = frontiers[p].front() {
                    let next = graph
                        .neighbors(u)
                        .iter()
                        .map(|&(v, _)| v)
                        .find(|&v| assignment[v] == usize::MAX);
                    match next {
                        Some(v) => {
                            assignment[v] = p;
                            sizes[p] += 1;
                            frontiers[p].push_back(v);
                            remaining -= 1;
                            progressed = true;
                            break;
                        }
                        None => {
                            frontiers[p].pop_front();
                        }
                    }
                    if remaining == 0 {
                        break;
                    }
                }
                if remaining == 0 {
                    break;
                }
            }
            if !progressed && remaining > 0 {
                // disconnected remainder: assign the next unassigned node to the smallest part
                while unassigned_scan < n && assignment[unassigned_scan] != usize::MAX {
                    unassigned_scan += 1;
                }
                if unassigned_scan < n {
                    let p = (0..parts).min_by_key(|&p| sizes[p]).expect("parts >= 1");
                    assignment[unassigned_scan] = p;
                    sizes[p] += 1;
                    frontiers[p].push_back(unassigned_scan);
                    remaining -= 1;
                }
            }
        }
        assignment
    }

    fn reference_refine(
        config: PartitionerConfig,
        graph: &WeightedGraph,
        mut assignment: Vec<usize>,
        parts: usize,
    ) -> Vec<usize> {
        let n = graph.len();
        let target = n.div_ceil(parts);
        let max_size = target + config.balance_slack;
        let min_size = (n / parts).saturating_sub(config.balance_slack).max(1);
        let mut sizes = vec![0usize; parts];
        for &p in &assignment {
            sizes[p] += 1;
        }

        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed ^ 0xDEAD);

        for _ in 0..config.refinement_passes {
            let mut improved = false;
            order.shuffle(&mut rng);
            for &u in &order {
                let from = assignment[u];
                if sizes[from] <= min_size {
                    continue;
                }
                // weight towards each neighbouring part
                let mut towards: Vec<(usize, i64)> = Vec::new();
                let mut internal: i64 = 0;
                for &(v, w) in graph.neighbors(u) {
                    let pv = assignment[v];
                    if pv == from {
                        internal += w as i64;
                    } else {
                        match towards.iter_mut().find(|(p, _)| *p == pv) {
                            Some((_, acc)) => *acc += w as i64,
                            None => towards.push((pv, w as i64)),
                        }
                    }
                }
                let best = towards
                    .iter()
                    .filter(|&&(p, _)| sizes[p] < max_size)
                    .max_by_key(|&&(_, w)| w);
                if let Some(&(to, external)) = best {
                    if external > internal {
                        assignment[u] = to;
                        sizes[from] -= 1;
                        sizes[to] += 1;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        assignment
    }

    fn reference_bfs_distance(graph: &WeightedGraph, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; graph.len()];
        let mut queue = VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in graph.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// A graph of `connected + isolated` nodes: the first kind split into
    /// `components` groups (a random spanning tree plus `extra` random edges
    /// each, members spread over the index range), the second without
    /// edges.  Weights go up to `2^weight_bits`, and about one edge in eight
    /// weighs 0.
    fn random_graph(
        connected: usize,
        components: usize,
        isolated: usize,
        extra: usize,
        weight_bits: u32,
        seed: u64,
    ) -> WeightedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ids: Vec<usize> = (0..connected + isolated).collect();
        ids.shuffle(&mut rng);
        let mut g = WeightedGraph::new(ids.len());
        let weight = |rng: &mut rand::rngs::StdRng| {
            if rng.gen_range(0..8) == 0 {
                0
            } else {
                rng.gen_range(1..=1u64 << weight_bits)
            }
        };
        for c in 0..components {
            let members: Vec<usize> = ids[..connected]
                .iter()
                .copied()
                .skip(c)
                .step_by(components)
                .collect();
            for (i, &u) in members.iter().enumerate().skip(1) {
                let v = members[rng.gen_range(0..i)];
                let w = weight(&mut rng);
                g.add_edge(u, v, w);
            }
            if members.len() > 1 {
                for _ in 0..extra {
                    let (u, v) = (
                        rng.gen_range(0..members.len()),
                        rng.gen_range(0..members.len()),
                    );
                    if u != v {
                        let w = weight(&mut rng);
                        g.add_edge(members[u], members[v], w);
                    }
                }
            }
        }
        g
    }

    fn ring(n: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, 1);
        }
        g
    }

    fn grid(rows: usize, cols: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    g.add_edge(i, i + 1, 1);
                }
                if r + 1 < rows {
                    g.add_edge(i, i + cols, 1);
                }
            }
        }
        g
    }

    #[test]
    fn single_part_is_trivial() {
        let g = ring(10);
        let p = Partitioner::new(PartitionerConfig::default()).partition(&g, 1);
        assert!(p.assignment().iter().all(|&x| x == 0));
        assert_eq!(p.sizes(), vec![10]);
    }

    #[test]
    fn partition_is_balanced() {
        let g = grid(8, 8);
        let p = Partitioner::new(PartitionerConfig::default()).partition(&g, 8);
        let sizes = p.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        assert!(*sizes.iter().max().unwrap() <= 8 + 1);
        assert!(*sizes.iter().min().unwrap() >= 8 - 2);
    }

    #[test]
    fn cut_is_much_better_than_random() {
        let g = grid(10, 10);
        let parts = 5;
        let p = Partitioner::new(PartitionerConfig::default()).partition(&g, parts);
        let cut = g.edge_cut(p.assignment());
        // random assignment cuts ~ (1 - 1/parts) of the 180 edges ~ 144
        assert!(cut < 80, "cut = {cut}");
    }

    #[test]
    fn ring_cut_is_near_optimal() {
        let g = ring(32);
        let p = Partitioner::new(PartitionerConfig::default()).partition(&g, 4);
        let cut = g.edge_cut(p.assignment());
        assert!(cut <= 10, "cut = {cut} (optimal is 4)");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid(6, 6);
        let a = Partitioner::new(PartitionerConfig::default()).partition(&g, 4);
        let b = Partitioner::new(PartitionerConfig::default()).partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn too_many_parts_panics() {
        let g = ring(4);
        let _ = Partitioner::new(PartitionerConfig::default()).partition(&g, 5);
    }

    #[test]
    fn partition_new_validates_range() {
        let p = Partition::new(vec![0, 1, 1], 2);
        assert_eq!(p.sizes(), vec![1, 2]);
        assert_eq!(p.part_of(2), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_new_rejects_bad_assignment() {
        let _ = Partition::new(vec![0, 2], 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn every_node_is_assigned_and_parts_nonempty(n in 8usize..40, parts in 2usize..6, seed in 0u64..100) {
            prop_assume!(parts <= n);
            let g = ring(n);
            let cfg = PartitionerConfig { seed, ..PartitionerConfig::default() };
            let p = Partitioner::new(cfg).partition(&g, parts);
            prop_assert_eq!(p.assignment().len(), n);
            let sizes = p.sizes();
            prop_assert!(sizes.iter().all(|&s| s > 0));
            prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn partition_matches_the_reference_exactly(
            connected in 1usize..120,
            components in 1usize..5,
            isolated in 0usize..6,
            extra in 0usize..200,
            weight_bits in 0u32..=20,
            parts_kind in 0usize..4,
            parts_fraction in 0.0f64..1.0,
            passes in 0usize..10,
            slack in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let g = random_graph(connected, components, isolated, extra, weight_bits, seed);
            let n = g.len();
            let parts = match parts_kind {
                0 => 1,
                1 => n,
                _ => 1 + ((n - 1) as f64 * parts_fraction) as usize,
            };
            let config = PartitionerConfig {
                refinement_passes: passes,
                balance_slack: slack,
                seed,
            };
            let partition = Partitioner::new(config).partition(&g, parts);
            prop_assert_eq!(partition.assignment(), &reference_partition(config, &g, parts)[..]);
        }
    }
}

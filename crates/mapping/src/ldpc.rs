//! Mapping of LDPC check nodes onto NoC nodes and construction of the
//! equivalent interleaver.

use crate::partition::{Partition, Partitioner, PartitionerConfig};
use crate::{MappingConfig, MappingQuality, WeightedGraph};
use noc_sim::{Message, TrafficTrace};
use wimax_ldpc::{QcLdpcCode, TannerGraph};

/// A mapping of the check rows of one LDPC code onto `P` processing elements,
/// together with the equivalent interleaver (the traffic of one layered
/// decoding iteration).
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct LdpcMapping {
    pes: usize,
    partition: Partition,
    trace: TrafficTrace,
    quality: MappingQuality,
}

impl LdpcMapping {
    /// Maps `code` onto `pes` processing elements.
    ///
    /// Several partitioning candidates are generated (see
    /// [`MappingConfig::candidates`]) and the one with the lowest cost
    /// (remote traffic, then imbalance) is kept, mirroring the candidate
    /// selection loop of the paper's flow.
    ///
    /// # Panics
    ///
    /// Panics if `pes` is zero or exceeds the number of check rows.
    pub fn new(code: &QcLdpcCode, pes: usize, config: MappingConfig) -> Self {
        assert!(pes >= 1, "need at least one PE");
        assert!(
            pes <= code.m(),
            "cannot map {} check rows onto {pes} PEs",
            code.m()
        );
        let graph = Self::row_graph(code);
        let entries = Self::schedule_entries(code);
        // rank the candidates on their quality alone; only the kept one
        // needs its messages
        let mut best: Option<(Partition, MappingQuality)> = None;
        for candidate in 0..config.candidates.max(1) {
            let pconf = PartitionerConfig {
                refinement_passes: config.refinement_passes,
                balance_slack: 1,
                seed: config.seed.wrapping_add(candidate as u64 * 7919),
            };
            let partition = Partitioner::new(pconf).partition(&graph, pes);
            let quality = Self::quality_of(&graph, &entries, &partition, pes);
            if best.as_ref().is_none_or(|(_, b)| quality.cost() < b.cost()) {
                best = Some((partition, quality));
            }
        }
        let (partition, quality) = best.expect("at least one candidate is generated");
        let trace = Self::build_trace(&entries, &partition, pes);
        LdpcMapping {
            pes,
            partition,
            trace,
            quality,
        }
    }

    /// The weighted row-adjacency graph of the code under layered scheduling.
    pub fn row_graph(code: &QcLdpcCode) -> WeightedGraph {
        let tanner = TannerGraph::from_code(code);
        WeightedGraph::from_adjacency(
            tanner
                .weighted_row_adjacency()
                .into_iter()
                .map(|neigh| neigh.into_iter().map(|(v, w)| (v, w as u64)).collect())
                .collect(),
        )
    }

    /// `(row, col, next_row)` for every H entry, in row order: after
    /// processing `row`, the updated bit LLR of `col` must reach the PE
    /// owning `next_row`, the *next* row (in the layered schedule, i.e.
    /// natural row order, cyclically) that also contains `col`.
    fn schedule_entries(code: &QcLdpcCode) -> Vec<(usize, usize, usize)> {
        let h = code.parity_check();
        let cols = h.column_lists();
        let mut entries = Vec::with_capacity(code.edge_count());
        for row in 0..code.m() {
            for &col in h.row(row) {
                let rows_of_col = &cols[col];
                let pos = rows_of_col
                    .binary_search(&row)
                    .expect("entry must be present in its own column list");
                entries.push((row, col, rows_of_col[(pos + 1) % rows_of_col.len()]));
            }
        }
        entries
    }

    /// The quality of one candidate `partition`; `graph` is the code's
    /// [`row_graph`](Self::row_graph) and `entries` its
    /// [`schedule_entries`](Self::schedule_entries), both built once per
    /// mapping.
    fn quality_of(
        graph: &WeightedGraph,
        entries: &[(usize, usize, usize)],
        partition: &Partition,
        pes: usize,
    ) -> MappingQuality {
        let mut counts = vec![0usize; pes];
        let mut remote = 0usize;
        for &(row, _, next_row) in entries {
            let src = partition.part_of(row);
            counts[src] += 1;
            if src != partition.part_of(next_row) {
                remote += 1;
            }
        }
        MappingQuality {
            pes,
            total_messages: counts.iter().sum(),
            remote_messages: remote,
            max_per_pe: counts.iter().copied().max().unwrap_or(0),
            min_per_pe: counts.iter().copied().min().unwrap_or(0),
            edge_cut: graph.edge_cut(partition.assignment()),
        }
    }

    /// The equivalent interleaver of `partition`: one message per H entry,
    /// from the PE owning its row to the PE owning its next row, numbered in
    /// injection order per source.
    fn build_trace(
        entries: &[(usize, usize, usize)],
        partition: &Partition,
        pes: usize,
    ) -> TrafficTrace {
        let mut per_source: Vec<Vec<Message>> = vec![Vec::new(); pes];
        for &(row, col, next_row) in entries {
            let src = partition.part_of(row);
            let seq = per_source[src].len();
            per_source[src].push(Message::new(src, partition.part_of(next_row), col, seq));
        }
        TrafficTrace::new(per_source)
    }

    /// Number of PEs.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// The check-row partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The equivalent interleaver: the traffic of one layered iteration.
    pub fn traffic_trace(&self) -> &TrafficTrace {
        &self.trace
    }

    /// Quality metrics of the selected candidate.
    pub fn quality(&self) -> MappingQuality {
        self.quality
    }

    /// The check rows assigned to a given PE, in schedule order.
    pub fn rows_of(&self, pe: usize) -> Vec<usize> {
        self.partition
            .assignment()
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == pe)
            .map(|(row, _)| row)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimax_ldpc::CodeRate;

    fn small_code() -> QcLdpcCode {
        QcLdpcCode::wimax(576, CodeRate::R12).unwrap()
    }

    #[test]
    fn one_message_per_parity_check_entry() {
        let code = small_code();
        let mapping = LdpcMapping::new(&code, 8, MappingConfig::default());
        assert_eq!(mapping.traffic_trace().total_messages(), code.edge_count());
        assert_eq!(mapping.quality().total_messages, code.edge_count());
    }

    #[test]
    fn every_row_is_assigned_and_balanced() {
        let code = small_code();
        let mapping = LdpcMapping::new(&code, 12, MappingConfig::default());
        let mut covered = 0;
        for pe in 0..12 {
            covered += mapping.rows_of(pe).len();
        }
        assert_eq!(covered, code.m());
        assert!(mapping.quality().balance_ratio() < 1.3);
    }

    #[test]
    fn partitioned_mapping_keeps_some_traffic_local() {
        let code = small_code();
        let mapping = LdpcMapping::new(&code, 16, MappingConfig::default());
        let q = mapping.quality();
        // a random assignment would have locality ~ 1/16 = 6%; the partitioner
        // must do significantly better.
        assert!(
            q.locality() > 0.15,
            "locality {:.3} too low (cut {})",
            q.locality(),
            q.edge_cut
        );
    }

    #[test]
    fn destinations_stay_within_the_pe_range() {
        let code = small_code();
        let pes = 22;
        let mapping = LdpcMapping::new(&code, pes, MappingConfig::default());
        assert!(mapping.traffic_trace().max_destination().unwrap() < pes);
    }

    #[test]
    fn message_locations_are_column_indices() {
        let code = small_code();
        let mapping = LdpcMapping::new(&code, 4, MappingConfig::default());
        for pe in 0..4 {
            for msg in mapping.traffic_trace().messages(pe) {
                assert!(msg.location < code.n());
            }
        }
    }

    #[test]
    fn more_pes_means_more_remote_traffic() {
        let code = small_code();
        let small = LdpcMapping::new(&code, 4, MappingConfig::default());
        let large = LdpcMapping::new(&code, 32, MappingConfig::default());
        assert!(large.quality().remote_messages > small.quality().remote_messages);
    }

    #[test]
    fn candidate_selection_prefers_lower_cost() {
        let code = small_code();
        let single = MappingConfig {
            candidates: 1,
            ..MappingConfig::default()
        };
        let multi = MappingConfig {
            candidates: 4,
            ..MappingConfig::default()
        };
        let a = LdpcMapping::new(&code, 16, single);
        let b = LdpcMapping::new(&code, 16, multi);
        assert!(b.quality().cost() <= a.quality().cost());
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_panics() {
        let code = small_code();
        let _ = LdpcMapping::new(&code, 0, MappingConfig::default());
    }

    #[test]
    fn single_pe_has_no_remote_traffic() {
        let code = small_code();
        let mapping = LdpcMapping::new(&code, 1, MappingConfig::default());
        assert_eq!(mapping.quality().remote_messages, 0);
        assert_eq!(mapping.quality().locality(), 1.0);
    }
}

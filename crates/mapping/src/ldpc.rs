//! Mapping of LDPC check nodes onto NoC nodes and construction of the
//! equivalent interleaver.

use crate::partition::{Partition, Partitioner, PartitionerConfig};
use crate::{MappingConfig, MappingQuality, WeightedGraph};
use noc_sim::{Message, TrafficTrace};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use wimax_ldpc::QcLdpcCode;

/// What a [`MappingStore`] keeps of a mapping: the selected partition and
/// its quality.  The traffic trace is rebuilt from them on every lookup.
type Kept = (Partition, MappingQuality);

/// A mapping of the check rows of one LDPC code onto `P` processing elements,
/// together with the equivalent interleaver (the traffic of one layered
/// decoding iteration).
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct LdpcMapping {
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
    /// selection loop of the paper's flow.  Every call partitions the code
    /// anew; a [`MappingStore`] keeps the partitions for later calls.
    ///
    /// # Panics
    ///
    /// Panics if `pes` is zero or exceeds the number of check rows.
    pub fn new(code: &QcLdpcCode, pes: usize, config: MappingConfig) -> Self {
        MappingStore::new().mapping(code, pes, config)
    }

    /// The kept candidate: the partition of the code's
    /// [`row_graph`](Self::row_graph) with the lowest cost, and its quality;
    /// `entries` are the code's [`schedule_entries`](Self::schedule_entries).
    fn select(
        code: &QcLdpcCode,
        entries: &[(usize, usize, usize)],
        pes: usize,
        config: MappingConfig,
    ) -> Kept {
        let graph = Self::row_graph(code);
        // rank the candidates on their quality alone; only the kept one
        // needs its messages
        let mut best: Option<Kept> = None;
        for candidate in 0..config.candidates.max(1) {
            let pconf = PartitionerConfig {
                refinement_passes: config.refinement_passes,
                balance_slack: 1,
                seed: config.seed.wrapping_add(candidate as u64 * 7919),
            };
            let partition = Partitioner::new(pconf).partition(&graph, pes);
            let quality = Self::quality_of(&graph, entries, &partition, pes);
            if best.as_ref().is_none_or(|(_, b)| quality.cost() < b.cost()) {
                best = Some((partition, quality));
            }
        }
        best.expect("at least one candidate is generated")
    }

    /// The weighted row-adjacency graph of the code under layered
    /// scheduling: one node per check row, and an edge between two rows
    /// that share a bit, weighted by the number of bits they share (the
    /// LLR messages one row hands the other per iteration).
    pub fn row_graph(code: &QcLdpcCode) -> WeightedGraph {
        let index = ColumnIndex::new(code);
        // `shared[b]`: bits the current row shares with row `b`;
        // `touched`: the rows with a non-zero count
        let mut shared = vec![0u64; code.m()];
        let mut touched = Vec::new();
        let lists = code.plan().rows().enumerate().map(|(a, bits)| {
            for &col in bits {
                for &b in index.rows_of(col as usize) {
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
        });
        WeightedGraph::from_adjacency(lists.collect())
    }

    /// `(row, col, next_row)` for every H entry, in row order: after
    /// processing `row`, the updated bit LLR of `col` must reach the PE
    /// owning `next_row`, the *next* row (in the layered schedule, i.e.
    /// natural row order, cyclically) that also contains `col`.
    fn schedule_entries(code: &QcLdpcCode) -> Vec<(usize, usize, usize)> {
        let index = ColumnIndex::new(code);
        // `at[c]`: the position in `index.rows` of the current row's entry
        // of column `c`, as the rows reach the column in order
        let mut at = index.start.clone();
        let mut entries = Vec::with_capacity(code.edge_count());
        for (row, bits) in code.plan().rows().enumerate() {
            for &col in bits {
                let col = col as usize;
                at[col] += 1;
                let next = if at[col] == index.start[col + 1] {
                    index.start[col]
                } else {
                    at[col]
                };
                entries.push((row, col, index.rows[next]));
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

    /// The check-row partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The equivalent interleaver: the traffic of one layered iteration.
    pub fn traffic_trace(&self) -> &TrafficTrace {
        &self.trace
    }

    /// The traffic of one message-passing phase, taken out of the mapping.
    pub fn into_traffic_trace(self) -> TrafficTrace {
        self.trace
    }

    /// Quality metrics of the selected candidate.
    pub fn quality(&self) -> MappingQuality {
        self.quality
    }

    /// The check rows assigned to a given PE, in schedule order.
    #[cfg(test)]
    fn rows_of(&self, pe: usize) -> Vec<usize> {
        self.partition
            .assignment()
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == pe)
            .map(|(row, _)| row)
            .collect()
    }
}

/// The check rows of every bit in row order, counting-sorted into one
/// list: bit `c` is met by rows `rows[start[c]..start[c + 1]]`.  The row
/// graph and the schedule entries read the code's rows through it.
struct ColumnIndex {
    start: Vec<usize>,
    rows: Vec<usize>,
}

impl ColumnIndex {
    fn new(code: &QcLdpcCode) -> Self {
        let plan = code.plan();
        let mut start = vec![0usize; code.n() + 1];
        for &col in plan.columns() {
            start[col as usize + 1] += 1;
        }
        for col in 0..code.n() {
            start[col + 1] += start[col];
        }
        let mut fill = start.clone();
        let mut rows = vec![0usize; plan.columns().len()];
        for (row, bits) in plan.rows().enumerate() {
            for &col in bits {
                rows[fill[col as usize]] = row;
                fill[col as usize] += 1;
            }
        }
        ColumnIndex { start, rows }
    }

    /// The rows that meet bit `col`, in row order.
    fn rows_of(&self, col: usize) -> &[usize] {
        &self.rows[self.start[col]..self.start[col + 1]]
    }
}

/// The key of a kept mapping (see [`MappingStore`]).  The base matrix's
/// shape, `z` and the block shifts at `z` (the code's layer plan)
/// determine every row of the parity-check matrix, so every input the
/// mapping flow reads.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MappingKey {
    base_rows: usize,
    base_cols: usize,
    z: usize,
    /// `(layer, block column, shift at z)` of every non-zero block.
    blocks: Vec<(usize, usize, usize)>,
    pes: usize,
    candidates: usize,
    refinement_passes: usize,
    seed: u64,
}

impl MappingKey {
    fn new(code: &QcLdpcCode, pes: usize, config: MappingConfig) -> Self {
        let (base, plan) = (code.base(), code.plan());
        let z = plan.expansion();
        let blocks = plan.layers().enumerate().flat_map(|(layer, blocks)| {
            plan.blocks()[blocks]
                .iter()
                .map(move |block| (layer, block.col / z, block.shift))
        });
        MappingKey {
            base_rows: base.rows(),
            base_cols: base.cols(),
            z,
            blocks: blocks.collect(),
            pes,
            candidates: config.candidates,
            refinement_passes: config.refinement_passes,
            seed: config.seed,
        }
    }
}

/// LDPC mappings kept for reuse: like the paper's decoder, which maps each
/// supported code once at design time and stores its location sequences in
/// the nodes, a store partitions each code once per `P` and
/// [`MappingConfig`].
///
/// An entry holds the selected [`Partition`] and its [`MappingQuality`],
/// keyed on everything the mapping flow reads: the code's layer plan,
/// whose rows are the rows of the parity-check matrix (the base matrix's
/// shape and each non-zero block's shift at `z`, i.e. its entries under
/// its shift scaling), `P` and the [`MappingConfig`].  A lookup that finds
/// its key rebuilds only the traffic trace, with the code a first mapping
/// uses, so every lookup equals [`LdpcMapping::new`] bit for bit.  The
/// trace is not kept; it is several times the size of the partition.
///
/// The store is shared by reference across threads.  When several threads
/// miss the same key, one of them partitions the code and the others wait
/// for its result; no lock is held while partitioning, so different keys
/// are mapped in parallel.  Entries are never evicted: the owner bounds the
/// store, a one-shot sweep by building one for its call, a daemon by
/// mapping a fixed set of codes at one design point.
#[derive(Default)]
pub struct MappingStore {
    slots: Mutex<BTreeMap<MappingKey, Arc<OnceLock<Kept>>>>,
}

impl std::fmt::Debug for MappingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingStore")
            .field("mappings", &self.len())
            .finish()
    }
}

impl MappingStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of kept mappings.
    pub fn len(&self) -> usize {
        self.slots()
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Returns `true` if no mapping is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maps `code` onto `pes` processing elements, as [`LdpcMapping::new`]
    /// does, but partitions the code only if this store has not mapped it
    /// with the same `pes` and `config` before.
    ///
    /// # Panics
    ///
    /// Panics if `pes` is zero or exceeds the number of check rows.
    pub fn mapping(&self, code: &QcLdpcCode, pes: usize, config: MappingConfig) -> LdpcMapping {
        assert!(pes >= 1, "need at least one PE");
        assert!(
            pes <= code.m(),
            "cannot map {} check rows onto {pes} PEs",
            code.m()
        );
        let entries = LdpcMapping::schedule_entries(code);
        // the first caller that misses the key selects the partition;
        // callers that miss it meanwhile wait for that result
        let (partition, quality) = self
            .slot(MappingKey::new(code, pes, config))
            .get_or_init(|| LdpcMapping::select(code, &entries, pes, config))
            .clone();
        let trace = LdpcMapping::build_trace(&entries, &partition, pes);
        LdpcMapping {
            partition,
            trace,
            quality,
        }
    }

    /// The cell that holds the mapping of `key`, added empty if the key is
    /// new.  The map is locked only for this lookup, never while a mapping
    /// is selected.
    fn slot(&self, key: MappingKey) -> Arc<OnceLock<Kept>> {
        Arc::clone(self.slots().entry(key).or_default())
    }

    fn slots(&self) -> MutexGuard<'_, BTreeMap<MappingKey, Arc<OnceLock<Kept>>>> {
        // the map is only ever extended by one whole entry under the lock,
        // so a panicking holder cannot leave it half-updated
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use wimax_ldpc::{BaseMatrix, CodeRate, ShiftScaling};

    fn small_code() -> QcLdpcCode {
        QcLdpcCode::wimax(576, CodeRate::R12).unwrap()
    }

    /// The rows of H, each as its sorted bits, and every column's rows in
    /// row order, as the one-`Vec`-per-row oracles read them.
    fn rows_and_columns(code: &QcLdpcCode) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let rows: Vec<Vec<usize>> = code
            .plan()
            .rows()
            .map(|bits| bits.iter().map(|&c| c as usize).collect())
            .collect();
        let mut cols = vec![Vec::new(); code.n()];
        for (r, bits) in rows.iter().enumerate() {
            for &c in bits {
                cols[c].push(r);
            }
        }
        (rows, cols)
    }

    /// The row adjacency as first written, kept as the oracle of
    /// [`LdpcMapping::row_graph`]: every pair of rows in every column list,
    /// counted in one map per row.
    fn reference_weighted_row_adjacency(code: &QcLdpcCode) -> Vec<Vec<(usize, u64)>> {
        let (_, cols) = rows_and_columns(code);
        let mut maps: Vec<BTreeMap<usize, u64>> = vec![BTreeMap::new(); code.m()];
        for checks in &cols {
            for (i, &a) in checks.iter().enumerate() {
                for &b in &checks[i + 1..] {
                    *maps[a].entry(b).or_insert(0) += 1;
                    *maps[b].entry(a).or_insert(0) += 1;
                }
            }
        }
        maps.into_iter().map(|m| m.into_iter().collect()).collect()
    }

    fn assert_row_graph_matches_the_reference(code: &QcLdpcCode) {
        let graph = LdpcMapping::row_graph(code);
        let reference = reference_weighted_row_adjacency(code);
        assert_eq!(graph.len(), reference.len());
        for (row, neighbours) in reference.iter().enumerate() {
            assert_eq!(graph.neighbors(row), &neighbours[..], "row {row}");
        }
    }

    /// The code with `z = 1` whose H is `entries` with its `0` shifts as
    /// ones and its `-1` blocks as zeros.
    fn unexpanded_code(entries: Vec<Vec<i32>>) -> QcLdpcCode {
        let base = BaseMatrix::from_entries(CodeRate::R12, ShiftScaling::Direct, entries);
        QcLdpcCode::from_base(base, 1)
    }

    #[test]
    fn row_graph_links_rows_sharing_columns() {
        // rows: r0 = {0,1}, r1 = {1,2}, r2 = {3}
        let code = unexpanded_code(vec![
            vec![0, 0, -1, -1],
            vec![-1, 0, 0, -1],
            vec![-1, -1, -1, 0],
        ]);
        let graph = LdpcMapping::row_graph(&code);
        assert_eq!(graph.neighbors(0), &[(1, 1)]);
        assert_eq!(graph.neighbors(1), &[(0, 1)]);
        assert!(graph.neighbors(2).is_empty());
    }

    #[test]
    fn row_graph_counts_shared_columns() {
        // rows: r0 = {0,1,2}, r1 = {1,2,3}
        let code = unexpanded_code(vec![vec![0, 0, 0, -1], vec![-1, 0, 0, 0]]);
        let graph = LdpcMapping::row_graph(&code);
        assert_eq!(graph.neighbors(0), &[(1, 2)]);
        assert_eq!(graph.neighbors(1), &[(0, 2)]);
    }

    #[test]
    fn row_graph_matches_the_reference_on_every_wimax_code() {
        for n in wimax_ldpc::wimax_block_lengths() {
            for rate in CodeRate::all() {
                assert_row_graph_matches_the_reference(&QcLdpcCode::wimax(n, rate).unwrap());
            }
        }
    }

    #[test]
    fn row_graph_is_symmetric_and_nontrivial() {
        let code = small_code();
        let graph = LdpcMapping::row_graph(&code);
        assert_eq!(graph.len(), code.m());
        for row in 0..graph.len() {
            for &(other, weight) in graph.neighbors(row) {
                assert_ne!(other, row, "no self loops");
                assert!(graph.neighbors(other).contains(&(row, weight)));
            }
        }
        // every check row shares bits with several other rows
        let degrees: usize = (0..graph.len()).map(|row| graph.degree(row)).sum();
        assert!(degrees > 5 * graph.len(), "{degrees} neighbours in all");
    }

    /// The standard's rate-1/2 matrix has no 4-cycle: no two check rows
    /// share two bits, so every edge of its row graph weighs 1.
    #[test]
    fn the_rate_half_row_graph_has_unit_weights() {
        let graph = LdpcMapping::row_graph(&small_code());
        for row in 0..graph.len() {
            assert!(
                graph.neighbors(row).iter().all(|&(_, weight)| weight == 1),
                "row {row}: {:?}",
                graph.neighbors(row)
            );
        }
    }

    /// A random QC code: 1-5 block rows, more block columns than rows,
    /// about a third of the blocks empty (whole empty layers included) and
    /// random shifts, expanded by a random `z`.
    fn random_qc_code(seed: u64) -> QcLdpcCode {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(1..6);
        let cols = rng.gen_range(rows + 1..rows + 9);
        let z = rng.gen_range(1..17);
        let entries = (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| {
                        if rng.gen_range(0..3) == 0 {
                            -1
                        } else {
                            rng.gen_range(0..40)
                        }
                    })
                    .collect()
            })
            .collect();
        let base = BaseMatrix::from_entries(CodeRate::R12, ShiftScaling::Direct, entries);
        QcLdpcCode::from_base(base, z)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn row_graph_matches_the_reference_on_random_qc_codes(seed in 0u64..1_000_000) {
            let code = random_qc_code(seed);
            assert_row_graph_matches_the_reference(&code);
            prop_assert_eq!(
                LdpcMapping::schedule_entries(&code),
                reference_schedule_entries(&code)
            );
        }
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

    /// The former `schedule_entries`, one `Vec` per column, as the oracle
    /// of the counting-sorted column index.
    fn reference_schedule_entries(code: &QcLdpcCode) -> Vec<(usize, usize, usize)> {
        let (rows, cols) = rows_and_columns(code);
        let mut entries = Vec::new();
        for (row, bits) in rows.iter().enumerate() {
            for &col in bits {
                let rows_of_col = &cols[col];
                let pos = rows_of_col.binary_search(&row).unwrap();
                entries.push((row, col, rows_of_col[(pos + 1) % rows_of_col.len()]));
            }
        }
        entries
    }

    #[test]
    fn schedule_entries_match_the_column_list_reference() {
        for (n, rate) in [
            (576, CodeRate::R12),
            (576, CodeRate::R56),
            (2304, CodeRate::R23A),
            (1152, CodeRate::R34B),
        ] {
            let code = QcLdpcCode::wimax(n, rate).unwrap();
            let entries = LdpcMapping::schedule_entries(&code);
            assert_eq!(entries.len(), code.edge_count());
            assert_eq!(
                entries,
                reference_schedule_entries(&code),
                "n = {n}, {rate:?}"
            );
        }
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

    #[test]
    fn a_store_keeps_one_entry_per_code_pe_count_and_config() {
        let store = MappingStore::new();
        assert!(store.is_empty());
        let code = small_code();
        let config = MappingConfig::default();
        let first = store.mapping(&code, 8, config);
        let again = store.mapping(&code, 8, config);
        assert_eq!(store.len(), 1);
        assert_eq!(again.partition(), first.partition());
        assert_eq!(again.traffic_trace(), first.traffic_trace());
        assert_eq!(again.quality(), first.quality());
        store.mapping(&code, 12, config);
        store.mapping(&code, 8, MappingConfig { seed: 1, ..config });
        store.mapping(&QcLdpcCode::wimax(672, CodeRate::R12).unwrap(), 8, config);
        assert_eq!(store.len(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot map 288 check rows onto 289 PEs")]
    fn a_store_rejects_more_pes_than_check_rows() {
        let _ = MappingStore::new().mapping(&small_code(), 289, MappingConfig::default());
    }

    #[test]
    fn two_threads_that_miss_the_same_key_compute_it_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;
        let store = MappingStore::new();
        let code = small_code();
        let config = MappingConfig::default();
        let key = MappingKey::new(&code, 8, config);
        let entries = LdpcMapping::schedule_entries(&code);
        let computed = AtomicUsize::new(0);
        let select = || {
            computed.fetch_add(1, Ordering::SeqCst);
            LdpcMapping::select(&code, &entries, 8, config)
        };
        let (selecting, first_is_selecting) = mpsc::channel();
        let (missed, second_has_missed) = mpsc::channel();
        let (store, key, select) = (&store, &key, &select);
        // fec-lint: allow(no-thread-spawn, two threads race on one store key; no decode work runs here)
        let (first, second) = std::thread::scope(|scope| {
            // fec-lint: allow(no-thread-spawn, the first of the two racing threads selects the mapping)
            let first = scope.spawn(move || {
                store.slot(key.clone()).get_or_init(|| {
                    selecting.send(()).unwrap();
                    // hold the selection open until the second thread has
                    // looked the key up and found no mapping
                    second_has_missed.recv().unwrap();
                    select()
                });
            });
            first_is_selecting.recv().unwrap();
            let slot = store.slot(key.clone());
            assert!(slot.get().is_none(), "the second lookup must miss");
            missed.send(()).unwrap();
            let second = slot.get_or_init(select).clone();
            first.join().unwrap();
            (store.slot(key.clone()).get().cloned(), second)
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        assert_eq!(first, Some(second));
        assert_eq!(store.len(), 1);
    }
}

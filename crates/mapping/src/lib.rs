//! Mapping of turbo and LDPC codes onto NoC nodes.
//!
//! This crate implements the pre-processing flow of Section III.A of the
//! paper:
//!
//! 1. build the graph representation of the parity-check matrix `H` under the
//!    layered decoding schedule (one node per check row, an edge between two
//!    rows whenever they share a column);
//! 2. partition the graph over the `P` NoC nodes with a balanced, low-cut
//!    partitioner (the paper uses the Metis bundle; here greedy region
//!    growing with Kernighan–Lin-style refinement plays that role, on the
//!    graph itself: unlike Metis it has no coarsening phase, so it is not
//!    multilevel);
//! 3. construct the *equivalent interleaver*, i.e. the per-PE ordered list of
//!    messages exchanged during one message-passing phase, and check it for
//!    minimum length and uniform message distribution, keeping the best
//!    candidate.
//!
//! A [`MappingStore`] keeps the selected partitions, so a sweep or a
//! long-lived service maps each code once per `P` and rebuilds only the
//! traffic of a code it has mapped before.
//!
//! Turbo codes follow the simpler contiguous-window mapping of the Turbo NoC
//! framework: trellis sections are split evenly across the SISOs and the
//! traffic is the code's interleaver permutation itself.
//!
//! # Example
//!
//! ```
//! use noc_mapping::{LdpcMapping, MappingConfig};
//! use wimax_ldpc::{CodeRate, QcLdpcCode};
//!
//! let code = QcLdpcCode::wimax(576, CodeRate::R12)?;
//! let mapping = LdpcMapping::new(&code, 8, MappingConfig::default());
//! let trace = mapping.traffic_trace();
//! // one message per edge of the Tanner graph
//! assert_eq!(trace.total_messages(), code.edge_count());
//! // the busiest PE carries less than 1.5 times the average load
//! let quality = mapping.quality();
//! assert!(2 * quality.max_per_pe * quality.pes < 3 * quality.total_messages);
//! # Ok::<(), wimax_ldpc::LdpcError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod graph;
pub mod ldpc;
pub mod partition;
pub mod turbo;

pub use graph::WeightedGraph;
pub use ldpc::{LdpcMapping, MappingStore};
pub use partition::{Partition, Partitioner, PartitionerConfig};
pub use turbo::TurboMapping;

/// Configuration of the code-to-NoC mapping flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingConfig {
    /// Number of partitioning candidates generated (different seeds); the
    /// best one according to [`MappingQuality`] is kept.
    pub candidates: usize,
    /// Number of refinement passes per candidate.
    pub refinement_passes: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            candidates: 4,
            refinement_passes: 8,
            seed: 0xA11CE,
        }
    }
}

/// Quality metrics of a mapping, used to select among candidates
/// (the "minimum length and uniform message distribution" checks of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingQuality {
    /// Number of processing elements the code was mapped onto.
    pub pes: usize,
    /// Total number of messages exchanged per message-passing phase.
    pub total_messages: usize,
    /// Number of messages that cross PE boundaries (the rest are local).
    pub remote_messages: usize,
    /// Largest number of messages injected by any single PE (lower bound on
    /// the phase duration divided by the output rate).
    pub max_per_pe: usize,
    /// Smallest number of messages injected by any single PE.
    pub min_per_pe: usize,
    /// Edge cut of the underlying graph partition (LDPC only; 0 for turbo).
    pub edge_cut: u64,
}

impl MappingQuality {
    /// Fraction of messages that stay inside a PE.
    pub fn locality(&self) -> f64 {
        if self.total_messages == 0 {
            0.0
        } else {
            (self.total_messages - self.remote_messages) as f64 / self.total_messages as f64
        }
    }

    /// Ratio between the busiest and the average PE load (1.0 = perfectly
    /// uniform message distribution).
    #[cfg(test)]
    fn balance_ratio(&self) -> f64 {
        if self.total_messages == 0 || self.pes == 0 {
            return 1.0;
        }
        let average = self.total_messages as f64 / self.pes as f64;
        self.max_per_pe as f64 / average
    }

    /// Scalar cost used to rank candidate mappings: remote traffic dominates,
    /// imbalance breaks ties.
    pub fn cost(&self) -> f64 {
        self.remote_messages as f64 + 0.1 * self.max_per_pe as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_locality_and_cost() {
        let q = MappingQuality {
            pes: 8,
            total_messages: 100,
            remote_messages: 40,
            max_per_pe: 13,
            min_per_pe: 12,
            edge_cut: 40,
        };
        assert!((q.locality() - 0.6).abs() < 1e-12);
        assert!(q.cost() > 40.0);
        assert!((q.balance_ratio() - 13.0 / 12.5).abs() < 1e-12);
    }

    #[test]
    fn empty_quality_is_safe() {
        let q = MappingQuality {
            pes: 0,
            total_messages: 0,
            remote_messages: 0,
            max_per_pe: 0,
            min_per_pe: 0,
            edge_cut: 0,
        };
        assert_eq!(q.locality(), 0.0);
        assert_eq!(q.balance_ratio(), 1.0);
    }
}

//! Traffic traces: what every PE injects during one message-passing phase.

use crate::packet::Message;
use rand::{Rng, SeedableRng};

/// A traffic trace: for every source PE, the ordered list of messages it
/// produces during one message-passing phase.
///
/// The decoder mapping flow ([`noc-mapping`](https://docs.rs/noc-mapping))
/// produces these traces from a code's "equivalent interleaver"; synthetic
/// generators are provided for NoC-only experiments and tests.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrafficTrace {
    per_source: Vec<Vec<Message>>,
}

impl TrafficTrace {
    /// Creates a trace from explicit per-source message lists.
    pub fn new(per_source: Vec<Vec<Message>>) -> Self {
        TrafficTrace { per_source }
    }

    /// An empty trace for `nodes` sources.
    pub fn empty(nodes: usize) -> Self {
        TrafficTrace {
            per_source: vec![Vec::new(); nodes],
        }
    }

    /// Uniform random traffic: every source sends `messages_per_node`
    /// messages to uniformly random destinations (excluding itself).
    pub fn uniform_random(nodes: usize, messages_per_node: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let per_source = (0..nodes)
            .map(|src| {
                (0..messages_per_node)
                    .map(|seq| {
                        let mut dst = rng.gen_range(0..nodes);
                        if nodes > 1 {
                            while dst == src {
                                dst = rng.gen_range(0..nodes);
                            }
                        }
                        Message::new(src, dst, seq, seq)
                    })
                    .collect()
            })
            .collect();
        TrafficTrace { per_source }
    }

    /// "Tornado"-like permutation traffic: every node sends all its messages
    /// to the node halfway across the index space — the worst case for
    /// ring-like topologies, useful for stress tests.
    pub fn permutation(nodes: usize, messages_per_node: usize) -> Self {
        let per_source = (0..nodes)
            .map(|src| {
                let dst = (src + nodes / 2) % nodes;
                (0..messages_per_node)
                    .map(|seq| Message::new(src, dst, seq, seq))
                    .collect()
            })
            .collect();
        TrafficTrace { per_source }
    }

    /// Number of source PEs.
    pub fn nodes(&self) -> usize {
        self.per_source.len()
    }

    /// Messages injected by source `src`.
    pub fn messages(&self, src: usize) -> &[Message] {
        &self.per_source[src]
    }

    /// Total number of messages in the phase.
    pub fn total_messages(&self) -> usize {
        self.per_source.iter().map(|m| m.len()).sum()
    }

    /// Number of messages whose destination differs from their source.
    pub fn remote_messages(&self) -> usize {
        self.per_source
            .iter()
            .flat_map(|m| m.iter())
            .filter(|m| !m.is_local())
            .count()
    }

    /// Fraction of messages that stay local (0 when the trace is empty).
    pub fn locality(&self) -> f64 {
        let total = self.total_messages();
        if total == 0 {
            0.0
        } else {
            (total - self.remote_messages()) as f64 / total as f64
        }
    }

    /// Largest destination index referenced by the trace, if any.
    pub fn max_destination(&self) -> Option<usize> {
        self.per_source
            .iter()
            .flat_map(|m| m.iter())
            .map(|m| m.dst)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_random_has_expected_volume() {
        let t = TrafficTrace::uniform_random(8, 20, 1);
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.total_messages(), 160);
        assert_eq!(t.remote_messages(), 160, "self-traffic is excluded");
        assert!((0..8).all(|src| t.messages(src).len() == 20));
        assert!(t.max_destination().unwrap() < 8);
    }

    #[test]
    fn uniform_random_is_seed_deterministic() {
        let a = TrafficTrace::uniform_random(6, 10, 7);
        let b = TrafficTrace::uniform_random(6, 10, 7);
        let c = TrafficTrace::uniform_random(6, 10, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn permutation_traffic_targets_opposite_node() {
        let t = TrafficTrace::permutation(8, 3);
        for src in 0..8 {
            for m in t.messages(src) {
                assert_eq!(m.dst, (src + 4) % 8);
            }
        }
    }

    #[test]
    fn locality_accounting() {
        let msgs = vec![
            vec![Message::new(0, 0, 0, 0), Message::new(0, 1, 1, 1)],
            vec![Message::new(1, 1, 0, 0)],
        ];
        let t = TrafficTrace::new(msgs);
        assert_eq!(t.total_messages(), 3);
        assert_eq!(t.remote_messages(), 1);
        assert!((t.locality() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let t = TrafficTrace::empty(4);
        assert_eq!(t.total_messages(), 0);
        assert_eq!(t.locality(), 0.0);
        assert_eq!(t.max_destination(), None);
        assert!((0..4).all(|src| t.messages(src).is_empty()));
    }
}

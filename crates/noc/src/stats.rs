//! Statistics collected by the cycle-accurate simulation.

use fec_json::{Json, ToJson};

/// Result of simulating one message-passing phase.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NocStats {
    /// Number of clock cycles from the first injection opportunity to the
    /// delivery of the last message (`n_cycles` in Eq. (12) of the paper).
    pub cycles: u64,
    /// Number of messages delivered.
    pub delivered: usize,
    /// Number of messages that bypassed the network because they were local
    /// and the Route-Local flag was off.
    pub local_bypassed: usize,
    /// Average network latency (injection to delivery) of routed messages,
    /// in cycles.
    pub average_latency: f64,
    /// Maximum network latency of any routed message, in cycles.
    pub max_latency: u64,
    /// Average number of hops of routed messages.
    pub average_hops: f64,
    /// Largest input-FIFO occupancy observed anywhere in the network
    /// (determines the FIFO depth of a hardware implementation).
    pub max_fifo_occupancy: usize,
    /// Per-node largest input-FIFO occupancy.
    pub per_node_max_fifo: Vec<usize>,
    /// Total messages forwarded per node (including transiting traffic).
    pub forwarded_per_node: Vec<u64>,
    /// Number of crossbar collisions resolved (either delayed or misrouted).
    pub collisions: u64,
    /// Number of messages that were deliberately misrouted by the SCM policy.
    pub misrouted: u64,
}

impl ToJson for NocStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", Json::from(self.cycles)),
            ("delivered", Json::from(self.delivered)),
            ("local_bypassed", Json::from(self.local_bypassed)),
            ("average_latency", Json::from(self.average_latency)),
            ("max_latency", Json::from(self.max_latency)),
            ("average_hops", Json::from(self.average_hops)),
            ("max_fifo_occupancy", Json::from(self.max_fifo_occupancy)),
            (
                "per_node_max_fifo",
                Json::arr(self.per_node_max_fifo.iter().map(|&v| Json::from(v))),
            ),
            (
                "forwarded_per_node",
                Json::arr(self.forwarded_per_node.iter().map(|&v| Json::from(v))),
            ),
            ("collisions", Json::from(self.collisions)),
            ("misrouted", Json::from(self.misrouted)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_serializable_and_cloneable() {
        let stats = NocStats {
            cycles: 7,
            delivered: 3,
            forwarded_per_node: vec![1, 2],
            ..NocStats::default()
        };
        let json = stats.to_json().to_string();
        assert!(json.contains("\"cycles\":7"), "{json}");
        assert!(json.contains("\"forwarded_per_node\":[1,2]"), "{json}");
        assert_eq!(stats.clone(), stats);
    }
}

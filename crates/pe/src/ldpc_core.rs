//! Timing model of the sequential LDPC decoding core (paper Fig. 2).

/// Timing model of the LDPC decoding core.
///
/// The core processes parity checks sequentially: for a check of degree `d`
/// it reads the `d` pairs `(lambda_old, R_old)`, pushes the differences
/// through the Minimum Extraction Unit, then performs the `d` comparisons and
/// write-backs of `lambda_new` / `R_new`.  With the two phases overlapped in
/// a pipeline the check occupies the datapath for roughly
/// `d + pipeline_overhead` cycles per phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdpcCoreModel {
    /// Pipeline fill/flush overhead added to every parity check.
    pub pipeline_overhead: u64,
    /// Core latency (`lat_core` of Eq. (12)); the paper uses 15 cycles.
    pub core_latency: u64,
    /// Messages produced per clock cycle (the PE output rate `R`); the paper
    /// uses 0.5.
    pub output_rate: f64,
}

impl Default for LdpcCoreModel {
    fn default() -> Self {
        LdpcCoreModel {
            pipeline_overhead: 2,
            core_latency: 15,
            output_rate: 0.5,
        }
    }
}

impl LdpcCoreModel {
    /// The core latency in cycles (`lat_core` in Eq. (12)).
    pub fn core_latency(&self) -> u64 {
        self.core_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let m = LdpcCoreModel::default();
        assert_eq!(m.core_latency(), 15);
        assert_eq!(m.output_rate, 0.5);
    }
}

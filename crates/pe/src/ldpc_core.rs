//! Timing model of the sequential LDPC decoding core (paper Fig. 2).

/// Timing model of the LDPC decoding core.
///
/// The core processes parity checks sequentially: for a check of degree `d`
/// it reads the `d` pairs `(lambda_old, R_old)`, pushes the differences
/// through the Minimum Extraction Unit, then performs the `d` comparisons and
/// write-backs of `lambda_new` / `R_new`.  The message-passing phase is timed
/// by the NoC simulation at the PE output rate
/// (`DecoderConfig::ldpc_output_rate` in `noc-decoder`); the core adds its
/// latency once per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdpcCoreModel {
    /// Core latency (`lat_core` of Eq. (12)); the paper uses 15 cycles.
    pub core_latency: u64,
}

impl Default for LdpcCoreModel {
    fn default() -> Self {
        LdpcCoreModel { core_latency: 15 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let m = LdpcCoreModel::default();
        assert_eq!(m.core_latency, 15);
    }
}

//! Throughput models (Eq. (12) of the paper and its turbo counterpart).

/// LDPC decoder throughput in Mb/s (Eq. (12)):
///
/// `T = (N - M) * f_clk / ((lat_core + n_cycles) * It_max)`
///
/// where `N - M` is the number of information bits per frame, `f_clk` the
/// NoC/core clock in MHz, `lat_core` the decoding-core latency and
/// `n_cycles` the duration of one message-passing phase (one per layered
/// iteration).
///
/// # Example
///
/// ```
/// use noc_decoder::ldpc_throughput_mbps;
/// // the paper's worst-case point: 1152 info bits, 300 MHz, 10 iterations,
/// // lat_core = 15 and ~465 cycles per iteration give ~72 Mb/s
/// let t = ldpc_throughput_mbps(1152, 300.0, 10, 15, 465);
/// assert!((t - 72.0).abs() < 1.0);
/// ```
pub fn ldpc_throughput_mbps(
    info_bits: usize,
    clock_mhz: f64,
    iterations: usize,
    core_latency: u64,
    phase_cycles: u64,
) -> f64 {
    assert!(iterations > 0, "iteration count must be positive");
    info_bits as f64 * clock_mhz / ((core_latency + phase_cycles) as f64 * iterations as f64)
}

/// Double-binary turbo decoder throughput in Mb/s:
///
/// `T = K * f_clk / ((lat_siso + n_cycles_half) * 2 * It_max)`
///
/// where `K` is the number of information bits per frame and
/// `n_cycles_half` the duration of the message-passing phase of one half
/// iteration (two half iterations per full iteration).
pub fn turbo_throughput_mbps(
    info_bits: usize,
    clock_mhz: f64,
    iterations: usize,
    siso_latency: u64,
    half_phase_cycles: u64,
) -> f64 {
    assert!(iterations > 0, "iteration count must be positive");
    info_bits as f64 * clock_mhz
        / ((siso_latency + half_phase_cycles) as f64 * 2.0 * iterations as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq12_matches_paper_numbers() {
        // Table I entry check: P = 36, D = 4 gen. Kautz, SSP-FL reports
        // 109.37 Mb/s; inverting Eq. (12) gives lat + ncycles = 316.
        let t = ldpc_throughput_mbps(1152, 300.0, 10, 15, 301);
        assert!((t - 109.37).abs() < 1.0, "t = {t}");
        // Table II: 72.45 Mb/s corresponds to ~477 total cycles.
        let t = ldpc_throughput_mbps(1152, 300.0, 10, 15, 462);
        assert!((t - 72.45).abs() < 1.0, "t = {t}");
    }

    #[test]
    fn turbo_formula_matches_table2_magnitude() {
        // Table II: 74.26 Mb/s for N = 4800 info bits at 75 MHz, 8 iterations
        // corresponds to ~303 cycles per half iteration.
        let t = turbo_throughput_mbps(4800, 75.0, 8, 15, 288);
        assert!((t - 74.26).abs() < 1.5, "t = {t}");
    }

    #[test]
    fn throughput_decreases_with_iterations_and_cycles() {
        let base = ldpc_throughput_mbps(1152, 300.0, 10, 15, 400);
        assert!(ldpc_throughput_mbps(1152, 300.0, 20, 15, 400) < base);
        assert!(ldpc_throughput_mbps(1152, 300.0, 10, 15, 800) < base);
        assert!(ldpc_throughput_mbps(1152, 600.0, 10, 15, 400) > base);
    }

    #[test]
    fn turbo_scaling_to_200_mhz_exceeds_the_competitor() {
        // Paper Section V: rescaling the NoC clock to 200 MHz yields 198 Mb/s,
        // above the 173 Mb/s best case of ref [9].
        let cycles = {
            // derive the half-phase cycles that give 74.26 Mb/s at 75 MHz
            let target: f64 = 74.26;
            (4800.0 * 75.0 / (target * 16.0) - 15.0).round() as u64
        };
        let rescaled = turbo_throughput_mbps(4800, 200.0, 8, 15, cycles);
        assert!(rescaled > 173.0, "rescaled throughput {rescaled}");
        assert!(
            (rescaled - 198.0).abs() < 8.0,
            "rescaled throughput {rescaled}"
        );
    }

    #[test]
    #[should_panic(expected = "iteration count")]
    fn zero_iterations_panics() {
        let _ = ldpc_throughput_mbps(1152, 300.0, 0, 15, 100);
    }
}

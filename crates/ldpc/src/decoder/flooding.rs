//! Two-phase (flooding) normalized-min-sum decoder.
//!
//! Serves as the baseline scheduling scheme against which the paper's layered
//! decoder is compared (Section II.B: layered scheduling nearly doubles the
//! convergence speed of two-phase scheduling).  It runs the layered
//! decoder's loop over the same layer plan with λ deferred: in the check
//! phase every layer computes `Q = λ − R` from the λ of the previous
//! iteration and its new `R` with the same lane MEU, and in the variable
//! phase λ becomes the channel LLR plus the sum of each bit's `R` over the
//! layers, in ascending order.

use super::layered::LayeredDecoder;
use super::{DecodeOutcome, LayeredConfig};
use crate::code::QcLdpcCode;
use fec_channel::sim::FrameStream;
use fec_fixed::Llr;

/// Configuration of the flooding decoder (normalized min-sum check-node
/// rule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodingConfig {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Normalization factor of the min-sum check-node rule.
    pub scale: f64,
    /// Stop as soon as the hard decisions satisfy all parity checks.
    pub early_termination: bool,
}

impl Default for FloodingConfig {
    fn default() -> Self {
        FloodingConfig {
            max_iterations: 20,
            scale: 0.75,
            early_termination: true,
        }
    }
}

/// Two-phase belief-propagation decoder.
///
/// # Example
///
/// ```
/// use wimax_ldpc::{CodeRate, QcLdpcCode};
/// use wimax_ldpc::decoder::{FloodingConfig, FloodingDecoder};
/// use fec_fixed::Llr;
///
/// let code = QcLdpcCode::wimax(576, CodeRate::R12)?;
/// let decoder = FloodingDecoder::new(&code, FloodingConfig::default());
/// let out = decoder.decode(&vec![Llr::new(4.0); code.n()]);
/// assert!(out.converged);
/// # Ok::<(), wimax_ldpc::LdpcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FloodingDecoder {
    config: FloodingConfig,
    /// The f64 decode loop on the flooding schedule.
    decoder: LayeredDecoder,
}

impl FloodingDecoder {
    /// Creates a decoder for `code`.
    pub fn new(code: &QcLdpcCode, config: FloodingConfig) -> Self {
        let FloodingConfig {
            max_iterations,
            scale,
            early_termination,
        } = config;
        let layered = LayeredConfig {
            max_iterations,
            scale,
            offset: 0.0,
            early_termination,
        };
        FloodingDecoder {
            config,
            decoder: LayeredDecoder::flooding(code, layered),
        }
    }

    /// The decoder configuration.
    pub fn config(&self) -> &FloodingConfig {
        &self.config
    }

    /// Decodes a block of channel LLRs.  Like the layered decoder's, a
    /// decode allocates only the two vectors of its [`DecodeOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != code.n()`.
    pub fn decode(&self, channel: &[Llr]) -> DecodeOutcome {
        self.decoder.decode(channel)
    }

    /// Decodes every frame of `frames`, one after another, handing each
    /// frame's `k` information-bit decisions to the stream; in steady
    /// state nothing is allocated.
    pub(crate) fn decode_stream(&self, frames: &mut dyn FrameStream) {
        self.decoder.decode_stream(frames);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_matrix::CodeRate;
    use crate::encoder::QcEncoder;
    use rand::{Rng, SeedableRng};

    fn noisy_llrs(cw: &[u8], sigma: f64, seed: u64) -> Vec<Llr> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        cw.iter()
            .map(|&b| {
                let s = if b == 0 { 1.0 } else { -1.0 };
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let nse = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                Llr::new(2.0 * (s + sigma * nse) / (sigma * sigma))
            })
            .collect()
    }

    #[test]
    fn noiseless_all_zero_converges() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FloodingDecoder::new(&code, FloodingConfig::default());
        let out = dec.decode(&vec![Llr::new(5.0); code.n()]);
        assert!(out.converged);
        assert!(out.hard_bits.iter().all(|&b| b == 0));
    }

    #[test]
    fn decodes_noisy_codeword_min_sum() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let dec = FloodingDecoder::new(&code, FloodingConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
        let cw = enc.encode(&info).unwrap();
        let out = dec.decode(&noisy_llrs(&cw, 0.63f64.sqrt(), 4));
        assert!(out.converged);
        assert_eq!(out.hard_bits, cw);
    }

    #[test]
    fn layered_converges_in_fewer_iterations_than_flooding() {
        // The paper (Sec. II.B): layered scheduling nearly doubles convergence speed.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let enc = QcEncoder::new(&code);
        let flooding = FloodingDecoder::new(
            &code,
            FloodingConfig {
                max_iterations: 50,
                ..FloodingConfig::default()
            },
        );
        let layered = LayeredDecoder::new(
            &code,
            LayeredConfig {
                max_iterations: 50,
                ..LayeredConfig::default()
            },
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let mut flood_iters = 0usize;
        let mut layer_iters = 0usize;
        let mut frames = 0usize;
        for seed in 0..8 {
            let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
            let cw = enc.encode(&info).unwrap();
            let llrs = noisy_llrs(&cw, 0.7, seed + 200);
            let f = flooding.decode(&llrs);
            let l = layered.decode(&llrs);
            if f.converged && l.converged {
                flood_iters += f.iterations;
                layer_iters += l.iterations;
                frames += 1;
            }
        }
        assert!(frames >= 4, "not enough convergent frames to compare");
        assert!(
            layer_iters < flood_iters,
            "layered ({layer_iters}) should need fewer total iterations than flooding ({flood_iters})"
        );
    }

    #[test]
    fn does_not_converge_on_pure_noise() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let cfg = FloodingConfig {
            max_iterations: 3,
            ..FloodingConfig::default()
        };
        let dec = FloodingDecoder::new(&code, cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let llrs: Vec<Llr> = (0..code.n())
            .map(|_| Llr::new(rng.gen_range(-1.0..1.0)))
            .collect();
        let out = dec.decode(&llrs);
        assert!(!out.converged);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_llr_length_panics() {
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let dec = FloodingDecoder::new(&code, FloodingConfig::default());
        let _ = dec.decode(&[]);
    }

    #[test]
    fn nan_llr_decodes_as_zero_bit() {
        // Same NaN hard-decision convention as the layered decoder: a NaN
        // posterior must decode as bit 0, not silently as bit 1.
        let code = QcLdpcCode::wimax(576, CodeRate::R12).unwrap();
        let cfg = FloodingConfig {
            max_iterations: 1,
            early_termination: false,
            ..FloodingConfig::default()
        };
        let dec = FloodingDecoder::new(&code, cfg);
        let mut llrs = vec![Llr::new(6.0); code.n()];
        llrs[11] = Llr::new(f64::NAN);
        let out = dec.decode(&llrs);
        assert_eq!(out.hard_bits[11], 0, "NaN LLR must decode as bit 0");
    }
}

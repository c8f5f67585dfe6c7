//! Two-phase (flooding) belief-propagation decoder.
//!
//! Serves as the baseline scheduling scheme against which the paper's layered
//! decoder is compared (Section II.B: layered scheduling nearly doubles the
//! convergence speed of two-phase scheduling).

use super::DecodeOutcome;
use crate::code::QcLdpcCode;
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
    code: QcLdpcCode,
    config: FloodingConfig,
    /// For each column, the (row, position-within-row) pairs of its entries.
    col_entries: Vec<Vec<(usize, usize)>>,
}

impl FloodingDecoder {
    /// Creates a decoder for `code`.
    pub fn new(code: &QcLdpcCode, config: FloodingConfig) -> Self {
        let h = code.parity_check();
        let col_entries = h
            .column_lists()
            .iter()
            .enumerate()
            .map(|(c, rows)| {
                rows.iter()
                    .map(|&row| {
                        let pos = h
                            .row(row)
                            .iter()
                            .position(|&x| x == c)
                            .expect("entry exists");
                        (row, pos)
                    })
                    .collect()
            })
            .collect();
        FloodingDecoder {
            code: code.clone(),
            config,
            col_entries,
        }
    }

    /// The decoder configuration.
    pub fn config(&self) -> &FloodingConfig {
        &self.config
    }

    /// Decodes a block of channel LLRs.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != code.n()`.
    pub fn decode(&self, channel: &[Llr]) -> DecodeOutcome {
        assert_eq!(
            channel.len(),
            self.code.n(),
            "LLR vector length must equal the code length"
        );
        let code = &self.code;
        let h = code.parity_check();
        let m = code.m();

        let ch: Vec<f64> = channel.iter().map(|l| l.value()).collect();
        // Variable-to-check messages, indexed per row entry; initialised to the channel LLR.
        let mut v2c: Vec<Vec<f64>> = (0..m)
            .map(|row| h.row(row).iter().map(|&c| ch[c]).collect())
            .collect();
        // Check-to-variable messages.
        let mut c2v: Vec<Vec<f64>> = (0..m).map(|row| vec![0.0; h.row_degree(row)]).collect();

        let mut posterior = ch.clone();
        let mut iterations = 0;
        let mut converged = false;

        for it in 0..self.config.max_iterations {
            iterations = it + 1;

            // Check-node phase.
            for row in 0..m {
                let mut min1 = f64::INFINITY;
                let mut min2 = f64::INFINITY;
                let mut min_pos = 0;
                let mut sign = 1.0;
                for (j, &v) in v2c[row].iter().enumerate() {
                    let mag = v.abs();
                    if v < 0.0 {
                        sign = -sign;
                    }
                    if mag < min1 {
                        min2 = min1;
                        min1 = mag;
                        min_pos = j;
                    } else if mag < min2 {
                        min2 = mag;
                    }
                }
                for j in 0..c2v[row].len() {
                    let mag = if j == min_pos { min2 } else { min1 };
                    let s = if v2c[row][j] < 0.0 { -sign } else { sign };
                    c2v[row][j] = self.config.scale * s * mag;
                }
            }

            // Variable-node phase and posterior computation.
            for (c, entries) in self.col_entries.iter().enumerate() {
                let total: f64 = entries.iter().map(|&(row, pos)| c2v[row][pos]).sum();
                posterior[c] = ch[c] + total;
                for &(row, pos) in entries {
                    v2c[row][pos] = posterior[c] - c2v[row][pos];
                }
            }

            let hard: Vec<u8> = posterior.iter().map(|&l| Llr::new(l).hard_bit()).collect();
            if self.config.early_termination && h.is_codeword(&hard) {
                converged = true;
                return DecodeOutcome {
                    hard_bits: hard,
                    posterior,
                    iterations,
                    converged,
                };
            }
        }

        let hard: Vec<u8> = posterior.iter().map(|&l| Llr::new(l).hard_bit()).collect();
        if h.is_codeword(&hard) {
            converged = true;
        }
        DecodeOutcome {
            hard_bits: hard,
            posterior,
            iterations,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_matrix::CodeRate;
    use crate::decoder::{LayeredConfig, LayeredDecoder};
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

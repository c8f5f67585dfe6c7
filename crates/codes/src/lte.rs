//! The 3GPP LTE rate-1/3 binary turbo code (36.212 §5.1.3): the quadratic
//! permutation polynomial (QPP) interleaver table for a representative set
//! of block sizes `K`, and the builder of the code.
//!
//! The code itself — its two tail-terminated 8-state RSC encoders, its
//! decoder (the same Max-Log SISO kernel and iterative loop as the
//! duo-binary CTC) and its [`fec_channel::sim::FecCodec`] — is
//! [`wimax_turbo::LteTurboCode`] and [`wimax_turbo::BinaryTurboDecoder`];
//! this module only supplies the interleaver, as [`crate::dvb_rcs`] does for
//! the DVB-RCS CTC.
//!
//! The QPP law is `pi(i) = (f1 * i + f2 * i^2) mod K`: interleaved position
//! `i` reads natural position `pi(i)`.  The builder turns that read order
//! into a [`wimax_turbo::Interleaver`], which validates it as a bijection,
//! so a transcription slip can only shift BER performance marginally, never
//! break correctness.

use wimax_turbo::{Interleaver, LteTurboCode, TurboError};

/// QPP parameter triple for one block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QppParameters {
    /// Block size `K` in bits.
    pub k: usize,
    /// Linear coefficient `f1` (coprime with `K`).
    pub f1: usize,
    /// Quadratic coefficient `f2` (divisible by every prime factor of `K`).
    pub f2: usize,
}

/// A representative subset of the 36.212 Table 5.1.3-3 QPP parameter set,
/// spanning the small, medium and maximum LTE block sizes.
pub const LTE_QPP_TABLE: [QppParameters; 10] = [
    QppParameters {
        k: 40,
        f1: 3,
        f2: 10,
    },
    QppParameters {
        k: 64,
        f1: 7,
        f2: 16,
    },
    QppParameters {
        k: 104,
        f1: 7,
        f2: 26,
    },
    QppParameters {
        k: 128,
        f1: 15,
        f2: 32,
    },
    QppParameters {
        k: 208,
        f1: 27,
        f2: 52,
    },
    QppParameters {
        k: 256,
        f1: 15,
        f2: 32,
    },
    QppParameters {
        k: 512,
        f1: 31,
        f2: 64,
    },
    QppParameters {
        k: 1024,
        f1: 31,
        f2: 64,
    },
    QppParameters {
        k: 2048,
        f1: 31,
        f2: 64,
    },
    QppParameters {
        k: 6144,
        f1: 263,
        f2: 480,
    },
];

/// The LTE block sizes covered by [`LTE_QPP_TABLE`].
pub fn lte_block_sizes() -> Vec<usize> {
    LTE_QPP_TABLE.iter().map(|p| p.k).collect()
}

/// Builds the LTE turbo code of block size `K` from [`LTE_QPP_TABLE`].
///
/// # Example
///
/// ```
/// use code_tables::lte::lte_turbo_code;
///
/// let code = lte_turbo_code(104)?;
/// assert_eq!(code.info_bits(), 104);
/// assert_eq!(code.coded_bits(), 3 * 104 + 12);
/// // interleaved position 1 reads natural position f1 + f2 = 33
/// assert_eq!(code.interleaver().inverse(1), 33);
/// # Ok::<(), wimax_turbo::TurboError>(())
/// ```
///
/// # Errors
///
/// Returns [`TurboError::UnsupportedBlockSize`] for a `K` outside the table.
pub fn lte_turbo_code(k: usize) -> Result<LteTurboCode, TurboError> {
    let params = LTE_QPP_TABLE
        .iter()
        .find(|p| p.k == k)
        .ok_or(TurboError::UnsupportedBlockSize { k })?;
    Ok(LteTurboCode::new(qpp_interleaver(*params)?))
}

/// The interleaver of the QPP law: the read order `pi(i)`, validated and
/// turned into natural-to-interleaved positions.
fn qpp_interleaver(params: QppParameters) -> Result<Interleaver, TurboError> {
    let k = params.k;
    // pi(i) = (f1*i + f2*i^2) mod K, computed incrementally to avoid
    // overflow at K = 6144: pi(i+1) - pi(i) = f1 + f2*(2i + 1) mod K.
    let mut read = Vec::with_capacity(k);
    let (mut value, mut delta) = (0, params.f1 + params.f2);
    for _ in 0..k {
        read.push(value);
        value = (value + delta) % k;
        delta = (delta + 2 * params.f2) % k;
    }
    Ok(Interleaver::new(read)?.inverted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_channel::sim::FecCodec;
    use fec_fixed::Llr;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use wimax_turbo::binary::TAIL_STEPS;
    use wimax_turbo::{lte_rsc_step, BinaryTurboDecoder, TurboDecoderConfig};

    #[test]
    fn every_table_entry_is_a_permutation() {
        for p in LTE_QPP_TABLE {
            let code = lte_turbo_code(p.k).unwrap_or_else(|e| panic!("K = {}: {e}", p.k));
            let pi = code.interleaver();
            assert_eq!(pi.len(), p.k);
            for j in 0..p.k {
                assert_eq!(pi.inverse(pi.permute(j)), j);
            }
        }
    }

    #[test]
    fn incremental_qpp_matches_the_direct_formula() {
        let code = lte_turbo_code(104).unwrap();
        let (f1, f2) = (7, 26);
        for i in 0..104 {
            let direct = (f1 * i + f2 * i * i) % 104;
            assert_eq!(code.interleaver().inverse(i), direct, "i = {i}");
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        // even f1 with even K shares a factor: not a bijection
        let bad = QppParameters {
            k: 40,
            f1: 4,
            f2: 10,
        };
        assert_eq!(qpp_interleaver(bad), Err(TurboError::InvalidInterleaver));
        let empty = QppParameters { k: 0, f1: 1, f2: 0 };
        assert_eq!(qpp_interleaver(empty), Err(TurboError::InvalidInterleaver));
        assert_eq!(
            lte_turbo_code(42),
            Err(TurboError::UnsupportedBlockSize { k: 42 })
        );
    }

    #[test]
    fn rsc_step_drains_with_feedback_input() {
        // From any state, TAIL_STEPS feedback-cancelling inputs reach 0.
        for s0 in 0..8u8 {
            let mut s = s0;
            for _ in 0..TAIL_STEPS {
                let c = ((s >> 1) & 1) ^ (s & 1);
                s = lte_rsc_step(s, c).0;
            }
            assert_eq!(s, 0, "state {s0}");
        }
    }

    #[test]
    fn encoder_emits_systematic_plus_tail() {
        let code = lte_turbo_code(40).unwrap();
        let info: Vec<u8> = (0..40).map(|i| (i % 2) as u8).collect();
        let cw = code.encode(&info).unwrap();
        assert_eq!(cw.len(), 3 * 40 + 12);
        assert_eq!(&cw[..40], &info[..]);
        assert!(code.encode(&[0u8; 10]).is_err());
    }

    #[test]
    fn all_zero_info_encodes_to_all_zero() {
        let code = lte_turbo_code(64).unwrap();
        let cw = code.encode(&[0u8; 64]).unwrap();
        assert!(cw.iter().all(|&b| b == 0));
    }

    #[test]
    fn noiseless_roundtrip() {
        let code = lte_turbo_code(104).unwrap();
        let dec = BinaryTurboDecoder::new(&code, TurboDecoderConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let info: Vec<u8> = (0..code.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let cw = code.encode(&info).unwrap();
        let llrs: Vec<Llr> = cw
            .iter()
            .map(|&b| Llr::new(7.0 * (1.0 - 2.0 * f64::from(b))))
            .collect();
        let out = dec.decode(&llrs).unwrap();
        assert_eq!(out.info_bits, info);
        assert!(out.converged);
        assert!(out.iterations < 8);
    }

    #[test]
    fn decodes_noisy_frame_at_moderate_snr() {
        let code = lte_turbo_code(208).unwrap();
        let dec = BinaryTurboDecoder::new(&code, TurboDecoderConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let info: Vec<u8> = (0..code.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let cw = code.encode(&info).unwrap();
        // Eb/N0 = 2 dB at rate ~1/3 -> sigma^2 = 1/(2*R*10^0.2) ~ 0.96
        let sigma = 0.96f64.sqrt();
        let llrs: Vec<Llr> = cw
            .iter()
            .map(|&b| {
                let s = 1.0 - 2.0 * f64::from(b);
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let noise = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                Llr::new(2.0 * (s + sigma * noise) / (sigma * sigma))
            })
            .collect();
        let out = dec.decode(&llrs).unwrap();
        assert_eq!(out.info_bits, info, "LTE turbo decoding failed at 2 dB");
    }

    #[test]
    fn wrong_llr_length_is_rejected() {
        let code = lte_turbo_code(40).unwrap();
        let dec = BinaryTurboDecoder::new(&code, TurboDecoderConfig::default());
        assert!(matches!(
            dec.decode(&[Llr::new(0.0); 10]),
            Err(TurboError::InvalidLength { .. })
        ));
    }

    #[test]
    fn codec_reports_code_dimensions() {
        let code = lte_turbo_code(512).unwrap();
        let codec = BinaryTurboDecoder::new(&code, TurboDecoderConfig::default());
        assert_eq!(codec.info_bits(), 512);
        assert_eq!(codec.codeword_bits(), 3 * 512 + 12);
        assert_eq!(codec.name(), "lte-turbo-k512");
        assert!((codec.rate() - 512.0 / 1548.0).abs() < 1e-12);
    }

    #[test]
    fn error_display_mentions_details() {
        assert!(TurboError::UnsupportedBlockSize { k: 41 }
            .to_string()
            .contains("41"));
        assert!(TurboError::InvalidLength {
            what: "info",
            expected: 4,
            actual: 2
        }
        .to_string()
        .contains("info"));
        assert!(TurboError::InvalidInterleaver
            .to_string()
            .contains("permutation"));
    }

    proptest! {
        /// Bijectivity: for every table entry and a sampled index pair,
        /// distinct interleaved positions read distinct natural positions.
        #[test]
        fn qpp_is_injective(entry in 0usize..LTE_QPP_TABLE.len(), a in 0usize..6144, b in 0usize..6144) {
            let p = LTE_QPP_TABLE[entry];
            let pi = qpp_interleaver(p).unwrap();
            let (a, b) = (a % p.k, b % p.k);
            prop_assume!(a != b);
            prop_assert!(pi.inverse(a) != pi.inverse(b));
            prop_assert_eq!(pi.permute(pi.inverse(a)), a);
        }
    }
}

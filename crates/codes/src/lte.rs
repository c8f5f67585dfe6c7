//! The 3GPP LTE rate-1/3 binary turbo code (36.212 §5.1.3): two 8-state
//! recursive systematic convolutional encoders (feedback `1 + D^2 + D^3`,
//! parity `1 + D + D^3`) concatenated through the quadratic permutation
//! polynomial (QPP) interleaver, each terminated with three tail bits.
//!
//! The decoder — the binary Max-Log SISO kernel and the iterative loop —
//! is [`wimax_turbo::BinaryTurboDecoder`], the same loop that decodes the
//! duo-binary CTC; this module adds the LTE specifics: the QPP parameter
//! table for a representative set of block sizes `K`, the
//! tail-bit-terminated encoder and the [`FecCodec`] adapter plugging the
//! decoder into the unified Monte-Carlo engine.
//!
//! The QPP law is `pi(i) = (f1 * i + f2 * i^2) mod K`: output position `i`
//! of the interleaver reads input position `pi(i)`.  Every table entry is
//! validated to be a bijection at construction time, so a transcription
//! slip can only shift BER performance marginally, never break correctness.

use fec_channel::sim::{decode_serially, FecCodec, FrameStream};
use fec_obs::Registry;
use std::fmt;
use wimax_turbo::binary::TAIL_STEPS;
use wimax_turbo::{lte_rsc_step, BinaryTurboDecoder, TurboDecoderConfig};

/// Number of tail steps per constituent encoder (the encoder memory).
pub const LTE_TAIL_STEPS: usize = TAIL_STEPS;

/// Total number of tail bits appended to a frame (systematic + parity for
/// both constituent encoders).
pub const LTE_TAIL_BITS: usize = 4 * LTE_TAIL_STEPS;

/// Errors produced by the LTE turbo substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LteTurboError {
    /// The block size `K` is not in the supported QPP table.
    UnsupportedBlockSize {
        /// Offending number of information bits.
        k: usize,
    },
    /// The QPP parameters do not describe a permutation.
    InvalidInterleaver,
    /// An input slice had the wrong length.
    InvalidLength {
        /// What the slice represents.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
}

impl fmt::Display for LteTurboError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LteTurboError::UnsupportedBlockSize { k } => {
                write!(f, "block size K = {k} is not in the LTE QPP table")
            }
            LteTurboError::InvalidInterleaver => {
                write!(f, "QPP parameters do not yield a permutation")
            }
            LteTurboError::InvalidLength {
                what,
                expected,
                actual,
            } => write!(f, "{what} has length {actual}, expected {expected}"),
        }
    }
}

impl std::error::Error for LteTurboError {}

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

/// A validated QPP interleaver.
///
/// # Example
///
/// ```
/// use code_tables::lte::QppInterleaver;
///
/// let pi = QppInterleaver::lte(40)?;
/// // the map is a bijection
/// let mut seen = vec![false; 40];
/// for i in 0..40 {
///     seen[pi.permute(i)] = true;
/// }
/// assert!(seen.iter().all(|&s| s));
/// # Ok::<(), code_tables::lte::LteTurboError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QppInterleaver {
    params: QppParameters,
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl QppInterleaver {
    /// Builds the interleaver for an LTE block size from [`LTE_QPP_TABLE`].
    ///
    /// # Errors
    ///
    /// Returns [`LteTurboError::UnsupportedBlockSize`] for sizes outside the
    /// table.
    pub fn lte(k: usize) -> Result<Self, LteTurboError> {
        let params = LTE_QPP_TABLE
            .iter()
            .find(|p| p.k == k)
            .copied()
            .ok_or(LteTurboError::UnsupportedBlockSize { k })?;
        Self::from_parameters(params)
    }

    /// Builds the interleaver from explicit QPP parameters.
    ///
    /// # Errors
    ///
    /// Returns [`LteTurboError::InvalidInterleaver`] if the parameters do
    /// not yield a bijection.
    pub fn from_parameters(params: QppParameters) -> Result<Self, LteTurboError> {
        let k = params.k;
        if k == 0 {
            return Err(LteTurboError::InvalidInterleaver);
        }
        // pi(i) = (f1*i + f2*i^2) mod K, computed incrementally to avoid
        // overflow at K = 6144: pi(i+1) - pi(i) = f1 + f2*(2i + 1) mod K.
        let mut forward = Vec::with_capacity(k);
        let mut value = 0usize;
        let mut delta = (params.f1 + params.f2) % k;
        let step = (2 * params.f2) % k;
        for _ in 0..k {
            forward.push(value);
            value = (value + delta) % k;
            delta = (delta + step) % k;
        }
        let mut inverse = vec![usize::MAX; k];
        for (i, &p) in forward.iter().enumerate() {
            if inverse[p] != usize::MAX {
                return Err(LteTurboError::InvalidInterleaver);
            }
            inverse[p] = i;
        }
        Ok(QppInterleaver {
            params,
            forward,
            inverse,
        })
    }

    /// The QPP parameters.
    pub fn parameters(&self) -> QppParameters {
        self.params
    }

    /// Block size `K`.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True when the block size is zero (never for valid parameters).
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Input position read at interleaver output `i`: `pi(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn permute(&self, i: usize) -> usize {
        self.forward[i]
    }

    /// Interleaver output position that reads input `j`: `pi^{-1}(j)`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn inverse(&self, j: usize) -> usize {
        self.inverse[j]
    }
}

/// An LTE rate-1/3 turbo code: block size plus its QPP interleaver.
///
/// # Example
///
/// ```
/// use code_tables::lte::LteTurboCode;
///
/// let code = LteTurboCode::new(104)?;
/// assert_eq!(code.info_bits(), 104);
/// assert_eq!(code.coded_bits(), 3 * 104 + 12);
/// # Ok::<(), code_tables::lte::LteTurboError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LteTurboCode {
    k: usize,
    interleaver: QppInterleaver,
}

impl LteTurboCode {
    /// Builds the code for block size `K` from the QPP table.
    ///
    /// # Errors
    ///
    /// Returns [`LteTurboError::UnsupportedBlockSize`] for unsupported `K`.
    pub fn new(k: usize) -> Result<Self, LteTurboError> {
        Ok(LteTurboCode {
            k,
            interleaver: QppInterleaver::lte(k)?,
        })
    }

    /// Number of information bits `K`.
    pub fn info_bits(&self) -> usize {
        self.k
    }

    /// Number of transmitted bits: `3K + 12` (rate-1/3 mother code plus the
    /// twelve tail bits).
    pub fn coded_bits(&self) -> usize {
        3 * self.k + LTE_TAIL_BITS
    }

    /// The actual code rate `K / (3K + 12)`.
    pub fn rate(&self) -> f64 {
        self.k as f64 / self.coded_bits() as f64
    }

    /// The QPP interleaver.
    pub fn interleaver(&self) -> &QppInterleaver {
        &self.interleaver
    }
}

/// Output of encoding one constituent stream: parity bits plus the tail.
struct ConstituentOutput {
    parity: Vec<u8>,
    /// Tail as `(systematic, parity)` pairs, [`LTE_TAIL_STEPS`] of them.
    tail: Vec<(u8, u8)>,
}

/// Encodes `bits` with the LTE RSC from state 0 and terminates the trellis
/// with [`LTE_TAIL_STEPS`] feedback-cancelling tail bits.
fn encode_constituent(bits: &[u8]) -> ConstituentOutput {
    let mut state = 0u8;
    let mut parity = Vec::with_capacity(bits.len());
    for &b in bits {
        let (ns, p) = lte_rsc_step(state, b & 1);
        state = ns;
        parity.push(p);
    }
    // Tail: feed the feedback bit so the register input d becomes 0 and the
    // state drains to zero in `memory` steps.
    let mut tail = Vec::with_capacity(LTE_TAIL_STEPS);
    for _ in 0..LTE_TAIL_STEPS {
        let r2 = (state >> 1) & 1;
        let r3 = state & 1;
        let c = r2 ^ r3; // makes d = c ^ r2 ^ r3 = 0
        let (ns, p) = lte_rsc_step(state, c);
        state = ns;
        tail.push((c, p));
    }
    debug_assert_eq!(state, 0, "tail bits must terminate the trellis");
    ConstituentOutput { parity, tail }
}

/// The LTE turbo encoder.
///
/// Transmitted bit order: `K` systematic bits, `K` parity-1 bits, `K`
/// parity-2 bits, then the 12 tail bits as `(x, z)` pairs of encoder 1
/// followed by `(x', z')` pairs of encoder 2.  (36.212 multiplexes the tail
/// across the three streams; since this codec controls both the encoder and
/// the decoder, the simpler contiguous arrangement is used — the transmitted
/// bit *set* is identical.)
#[derive(Debug, Clone)]
pub struct LteTurboEncoder {
    code: LteTurboCode,
}

impl LteTurboEncoder {
    /// Creates an encoder for `code`.
    pub fn new(code: &LteTurboCode) -> Self {
        LteTurboEncoder { code: code.clone() }
    }

    /// Encodes `info` (length `K`) into the `3K + 12` transmitted bits.
    ///
    /// # Errors
    ///
    /// Returns [`LteTurboError::InvalidLength`] on a wrong info length.
    pub fn encode(&self, info: &[u8]) -> Result<Vec<u8>, LteTurboError> {
        let k = self.code.info_bits();
        if info.len() != k {
            return Err(LteTurboError::InvalidLength {
                what: "information bits",
                expected: k,
                actual: info.len(),
            });
        }
        let pi = self.code.interleaver();
        let interleaved: Vec<u8> = (0..k).map(|i| info[pi.permute(i)]).collect();
        let c1 = encode_constituent(info);
        let c2 = encode_constituent(&interleaved);

        let mut out = Vec::with_capacity(self.code.coded_bits());
        out.extend_from_slice(info);
        out.extend_from_slice(&c1.parity);
        out.extend_from_slice(&c2.parity);
        for &(x, z) in &c1.tail {
            out.push(x);
            out.push(z);
        }
        for &(x, z) in &c2.tail {
            out.push(x);
            out.push(z);
        }
        Ok(out)
    }

    /// The code this encoder targets.
    pub fn code(&self) -> &LteTurboCode {
        &self.code
    }
}

/// The LTE turbo codec behind the [`FecCodec`] interface, so the unified
/// Monte-Carlo engine can run LTE curves unchanged.
#[derive(Debug, Clone)]
pub struct LteTurboCodec {
    code: LteTurboCode,
    encoder: LteTurboEncoder,
    decoder: BinaryTurboDecoder,
}

impl LteTurboCodec {
    /// Builds the codec for `code` with the given decoder configuration.
    pub fn new(code: &LteTurboCode, config: TurboDecoderConfig) -> Self {
        let pi = code.interleaver();
        let permutation: Vec<usize> = (0..pi.len()).map(|i| pi.permute(i)).collect();
        LteTurboCodec {
            code: code.clone(),
            encoder: LteTurboEncoder::new(code),
            decoder: BinaryTurboDecoder::new(&permutation, config)
                .expect("the QPP interleaver is a validated permutation"),
        }
    }

    /// The iterative decoder.
    pub fn decoder(&self) -> &BinaryTurboDecoder {
        &self.decoder
    }
}

impl FecCodec for LteTurboCodec {
    fn name(&self) -> String {
        format!("lte-turbo-k{}", self.code.info_bits())
    }

    fn info_bits(&self) -> usize {
        self.code.info_bits()
    }

    fn codeword_bits(&self) -> usize {
        self.code.coded_bits()
    }

    fn encode(&self, info: &[u8]) -> Vec<u8> {
        self.encoder
            .encode(info)
            .expect("info length matches the code")
    }

    fn decode_frames(&self, frames: &mut dyn FrameStream, _obs: Option<&mut Registry>) {
        decode_serially(self, frames, |llrs| {
            let out = self
                .decoder
                .decode(llrs)
                .expect("LLR length matches the codeword");
            (out.info_bits, out.iterations, out.converged)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_fixed::Llr;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn every_table_entry_is_a_permutation() {
        for p in LTE_QPP_TABLE {
            let pi =
                QppInterleaver::from_parameters(p).unwrap_or_else(|e| panic!("K = {}: {e}", p.k));
            assert_eq!(pi.len(), p.k);
            for i in 0..p.k {
                assert_eq!(pi.inverse(pi.permute(i)), i);
            }
        }
    }

    #[test]
    fn incremental_qpp_matches_the_direct_formula() {
        let p = QppParameters {
            k: 104,
            f1: 7,
            f2: 26,
        };
        let pi = QppInterleaver::from_parameters(p).unwrap();
        for i in 0..p.k {
            let direct = (p.f1 * i + p.f2 * i * i) % p.k;
            assert_eq!(pi.permute(i), direct, "i = {i}");
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
        assert_eq!(
            QppInterleaver::from_parameters(bad),
            Err(LteTurboError::InvalidInterleaver)
        );
        assert!(matches!(
            QppInterleaver::lte(42),
            Err(LteTurboError::UnsupportedBlockSize { k: 42 })
        ));
    }

    #[test]
    fn rsc_step_drains_with_feedback_input() {
        // From any state, LTE_TAIL_STEPS feedback-cancelling inputs reach 0.
        for s0 in 0..8u8 {
            let mut s = s0;
            for _ in 0..LTE_TAIL_STEPS {
                let c = ((s >> 1) & 1) ^ (s & 1);
                s = lte_rsc_step(s, c).0;
            }
            assert_eq!(s, 0, "state {s0}");
        }
    }

    #[test]
    fn encoder_emits_systematic_plus_tail() {
        let code = LteTurboCode::new(40).unwrap();
        let enc = LteTurboEncoder::new(&code);
        let info: Vec<u8> = (0..40).map(|i| (i % 2) as u8).collect();
        let cw = enc.encode(&info).unwrap();
        assert_eq!(cw.len(), 3 * 40 + 12);
        assert_eq!(&cw[..40], &info[..]);
        assert!(enc.encode(&[0u8; 10]).is_err());
    }

    #[test]
    fn all_zero_info_encodes_to_all_zero() {
        let code = LteTurboCode::new(64).unwrap();
        let enc = LteTurboEncoder::new(&code);
        let cw = enc.encode(&[0u8; 64]).unwrap();
        assert!(cw.iter().all(|&b| b == 0));
    }

    #[test]
    fn noiseless_roundtrip() {
        let code = LteTurboCode::new(104).unwrap();
        let enc = LteTurboEncoder::new(&code);
        let codec = LteTurboCodec::new(&code, TurboDecoderConfig::default());
        let dec = codec.decoder();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let info: Vec<u8> = (0..code.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let cw = enc.encode(&info).unwrap();
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
        let code = LteTurboCode::new(208).unwrap();
        let enc = LteTurboEncoder::new(&code);
        let codec = LteTurboCodec::new(&code, TurboDecoderConfig::default());
        let dec = codec.decoder();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let info: Vec<u8> = (0..code.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let cw = enc.encode(&info).unwrap();
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
        let code = LteTurboCode::new(40).unwrap();
        let codec = LteTurboCodec::new(&code, TurboDecoderConfig::default());
        let dec = codec.decoder();
        assert!(matches!(
            dec.decode(&[Llr::new(0.0); 10]),
            Err(wimax_turbo::TurboError::InvalidLength { .. })
        ));
    }

    #[test]
    fn codec_reports_code_dimensions() {
        let code = LteTurboCode::new(512).unwrap();
        let codec = LteTurboCodec::new(&code, TurboDecoderConfig::default());
        assert_eq!(codec.info_bits(), 512);
        assert_eq!(codec.codeword_bits(), 3 * 512 + 12);
        assert_eq!(codec.name(), "lte-turbo-k512");
        assert!((codec.rate() - 512.0 / 1548.0).abs() < 1e-12);
    }

    #[test]
    fn error_display_mentions_details() {
        assert!(LteTurboError::UnsupportedBlockSize { k: 41 }
            .to_string()
            .contains("41"));
        assert!(LteTurboError::InvalidLength {
            what: "info",
            expected: 4,
            actual: 2
        }
        .to_string()
        .contains("info"));
        assert!(LteTurboError::InvalidInterleaver
            .to_string()
            .contains("permutation"));
    }

    proptest! {
        /// The satellite bijectivity property: for every table entry and a
        /// sampled index pair, distinct indices map to distinct positions.
        #[test]
        fn qpp_is_injective(entry in 0usize..LTE_QPP_TABLE.len(), a in 0usize..6144, b in 0usize..6144) {
            let p = LTE_QPP_TABLE[entry];
            let pi = QppInterleaver::from_parameters(p).unwrap();
            let (a, b) = (a % p.k, b % p.k);
            prop_assume!(a != b);
            prop_assert!(pi.permute(a) != pi.permute(b));
            prop_assert_eq!(pi.inverse(pi.permute(a)), a);
        }
    }
}

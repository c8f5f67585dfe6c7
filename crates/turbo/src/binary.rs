//! The binary turbo code of 3GPP LTE: its rate-1/3 tail-terminated code,
//! which encodes itself, and its iterative decoder.
//!
//! LTE's two constituent encoders are the 8-state RSC of [`LteTrellis`]
//! (feedback `1 + D^2 + D^3`, parity `1 + D + D^3`, one step is
//! [`lte_rsc_step`]), each terminated with [`TAIL_STEPS`] tail bits.
//! [`BinaryTurboDecoder`] runs them through the same SISO kernel and
//! iterative loop as the duo-binary CTC.  The `code-tables` crate supplies
//! the QPP parameter table and builds an [`LteTurboCode`] from it.

use crate::decoder::{
    channel_llr, iterate, Iterated, Scratch, TurboDecodeOutcome, TurboDecoderConfig,
};
use crate::interleaver::Interleaver;
use crate::trellis::{lte_rsc_step, LteTrellis};
use crate::{ExtrinsicExchange, TurboError};
use fec_fixed::Llr;
use std::cell::RefCell;

/// Number of tail steps per constituent encoder (the encoder memory).
pub const TAIL_STEPS: usize = 3;

/// The LTE rate-1/3 binary turbo code: `K` information bits, one per
/// trellis section, through a bit interleaver.
///
/// Transmitted bit order: `K` systematic bits, `K` parity-1 bits, `K`
/// parity-2 bits, then the 12 tail bits as `(x, z)` pairs of encoder 1
/// followed by `(x', z')` pairs of encoder 2.  (36.212 multiplexes the tail
/// across the three streams; since this code's decoder reads the same
/// layout, the simpler contiguous arrangement is used — the transmitted bit
/// *set* is identical.)
///
/// # Example
///
/// ```
/// use wimax_turbo::{Interleaver, LteTurboCode};
///
/// // K = 8 with the identity interleaver
/// let code = LteTurboCode::new(Interleaver::new((0..8).collect())?);
/// assert_eq!(code.coded_bits(), 3 * 8 + 12);
/// assert_eq!(code.encode(&[0; 8])?, vec![0; 36]);
/// # Ok::<(), wimax_turbo::TurboError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LteTurboCode {
    interleaver: Interleaver,
}

impl LteTurboCode {
    /// The code whose second encoder reads the information bits through
    /// `interleaver`.
    pub fn new(interleaver: Interleaver) -> Self {
        LteTurboCode { interleaver }
    }

    /// Number of information bits `K`.
    pub fn info_bits(&self) -> usize {
        self.interleaver.len()
    }

    /// Number of transmitted bits: `3K + 12` (rate-1/3 mother code plus the
    /// twelve tail bits).
    pub fn coded_bits(&self) -> usize {
        3 * self.info_bits() + 4 * TAIL_STEPS
    }

    /// The bit interleaver.
    pub fn interleaver(&self) -> &Interleaver {
        &self.interleaver
    }

    /// Encodes `info` (length `K`) into the `3K + 12` transmitted bits.
    ///
    /// # Errors
    ///
    /// Returns [`TurboError::InvalidLength`] on a wrong info length.
    pub fn encode(&self, info: &[u8]) -> Result<Vec<u8>, TurboError> {
        let k = self.info_bits();
        if info.len() != k {
            return Err(TurboError::InvalidLength {
                what: "information bits",
                expected: k,
                actual: info.len(),
            });
        }
        let pi = &self.interleaver;
        let (parity_1, tail_1) = encode_constituent(info.iter().copied());
        let (parity_2, tail_2) = encode_constituent((0..k).map(|p| info[pi.inverse(p)]));

        let mut out = Vec::with_capacity(self.coded_bits());
        out.extend_from_slice(info);
        out.extend_from_slice(&parity_1[..k]);
        out.extend_from_slice(&parity_2[..k]);
        for (tail, parity) in [(tail_1, &parity_1[k..]), (tail_2, &parity_2[k..])] {
            for (&x, &z) in tail.iter().zip(parity) {
                out.extend([x, z]);
            }
        }
        Ok(out)
    }
}

/// Encodes `bits` with the LTE RSC from state 0 and drains the register
/// with [`TAIL_STEPS`] feedback-cancelling tail bits: the parity bit of
/// every step, tail steps last, and the tail's input bits.
fn encode_constituent(bits: impl Iterator<Item = u8>) -> (Vec<u8>, [u8; TAIL_STEPS]) {
    let mut state = 0u8;
    let mut parity = Vec::with_capacity(bits.size_hint().0 + TAIL_STEPS);
    for b in bits {
        let (next, p) = lte_rsc_step(state, b & 1);
        state = next;
        parity.push(p);
    }
    // Tail: feed the feedback bit so the register input becomes 0 and the
    // state drains to zero in `TAIL_STEPS` steps.
    let mut tail = [0u8; TAIL_STEPS];
    for x in &mut tail {
        *x = ((state >> 1) & 1) ^ (state & 1);
        let (next, p) = lte_rsc_step(state, *x);
        state = next;
        parity.push(p);
    }
    debug_assert_eq!(state, 0, "tail bits must terminate the trellis");
    (parity, tail)
}

impl Iterated<2, 4> for LteTrellis {
    fn with_scratch<R>(f: impl FnOnce(&mut Scratch<[f64; 2], f64>) -> R) -> R {
        thread_local! {
            static SCRATCH: RefCell<Scratch<[f64; 2], f64>> =
                const { RefCell::new(Scratch::new()) };
        }
        SCRATCH.with(|s| f(&mut s.borrow_mut()))
    }

    fn exchange(message: f64, _mode: ExtrinsicExchange) -> f64 {
        message
    }

    fn swapped(_step: usize) -> bool {
        false
    }

    fn swap(message: f64) -> f64 {
        message
    }

    fn decide(aposteriori: &f64) -> u8 {
        u8::from(*aposteriori < 0.0)
    }
}

/// The iterative binary turbo decoder of an [`LteTurboCode`]: two Max-Log
/// SISOs on tail-terminated [`LteTrellis`] constituents, exchanging bit
/// LLRs through the code's interleaver.  It is also the code's
/// [`fec_channel::sim::FecCodec`].
///
/// A frame of `K` information bits arrives as `3K + 12` channel LLRs: `K`
/// systematic, `K` parity-1 and `K` parity-2 values, then the tail as
/// `(systematic, parity)` pairs, three of encoder 1 followed by three of
/// encoder 2.
///
/// # Example
///
/// ```
/// use fec_fixed::Llr;
/// use wimax_turbo::{BinaryTurboDecoder, Interleaver, LteTurboCode, TurboDecoderConfig};
///
/// // K = 8 with the identity interleaver; the all-zero frame is a codeword
/// let code = LteTurboCode::new(Interleaver::new((0..8).collect())?);
/// let decoder = BinaryTurboDecoder::new(&code, TurboDecoderConfig::default());
/// let out = decoder.decode(&vec![Llr::new(4.0); code.coded_bits()])?;
/// assert_eq!(out.info_bits, vec![0; 8]);
/// # Ok::<(), wimax_turbo::TurboError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BinaryTurboDecoder {
    pub(crate) code: LteTurboCode,
    pub(crate) config: TurboDecoderConfig,
}

impl BinaryTurboDecoder {
    /// Creates a decoder for `code`.
    pub fn new(code: &LteTurboCode, config: TurboDecoderConfig) -> Self {
        BinaryTurboDecoder {
            code: code.clone(),
            config,
        }
    }

    /// Decodes one frame of channel LLRs in the layout described on the
    /// type.
    ///
    /// # Errors
    ///
    /// Returns [`TurboError::InvalidLength`] on a wrong LLR count.
    pub fn decode(&self, llrs: &[Llr]) -> Result<TurboDecodeOutcome, TurboError> {
        let expected = self.code.coded_bits();
        if llrs.len() != expected {
            return Err(TurboError::InvalidLength {
                what: "channel LLRs",
                expected,
                actual: llrs.len(),
            });
        }
        let interleaver = self.code.interleaver().forward();
        Ok(LteTrellis::with_scratch(|scratch| {
            demap(interleaver, llrs, &mut scratch.channel);
            let (iterations, converged) =
                iterate::<LteTrellis, 2, 4>(scratch, interleaver, &self.config);
            TurboDecodeOutcome {
                info_bits: scratch.decisions.clone(),
                iterations,
                converged,
            }
        }))
    }
}

/// Splits a frame of `3K + 12` channel LLRs (length already checked) into
/// the two constituents' `[systematic, parity]` values, tail steps last:
/// natural order for SISO 1, interleaved order for SISO 2.
fn demap(interleaver: &[usize], llrs: &[Llr], channel: &mut [Vec<[f64; 2]>; 2]) {
    let k = interleaver.len();
    let value = |i: usize| channel_llr(&llrs[i]);
    let [natural, interleaved] = channel;
    natural.resize(k + TAIL_STEPS, [0.0; 2]);
    interleaved.resize(k + TAIL_STEPS, [0.0; 2]);
    for (j, &p) in interleaver.iter().enumerate() {
        natural[j] = [value(j), value(k + j)];
        interleaved[p][0] = natural[j][0];
    }
    for (p, ch) in interleaved[..k].iter_mut().enumerate() {
        ch[1] = value(2 * k + p);
    }
    for t in 0..TAIL_STEPS {
        let tail = 3 * k + 2 * t;
        natural[k + t] = [value(tail), value(tail + 1)];
        interleaved[k + t] = [
            value(tail + 2 * TAIL_STEPS),
            value(tail + 2 * TAIL_STEPS + 1),
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::siso::{Constituent, SisoUnit};
    use crate::ConstTrellis;

    /// Runs one terminated LTE half-iteration: `(extrinsic, a-posteriori)`.
    fn run(sys: &[f64], par: &[f64], apriori: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let channel: Vec<[f64; 2]> = sys.iter().zip(par).map(|(&s, &p)| [s, p]).collect();
        let (mut ext, mut apo) = (vec![0.0; apriori.len()], vec![0.0; apriori.len()]);
        SisoUnit::new().run::<LteTrellis, 2, 4>(&channel, apriori, &mut ext, &mut apo);
        (ext, apo)
    }

    /// Encodes `bits` from state 0 and terminates the trellis: the input
    /// and parity bits of every step, tail steps included.
    fn terminated(bits: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let (parity, tail) = encode_constituent(bits.iter().copied());
        ([bits, &tail].concat(), parity)
    }

    fn hard_bit(app: f64) -> u8 {
        u8::from(app < 0.0)
    }

    #[test]
    fn trellis_connectivity_is_uniform() {
        let t = LteTrellis::TRELLIS;
        let mut incoming = [0usize; 8];
        for s in 0..8 {
            for u in 0..2 {
                let (to, parity) = lte_rsc_step(s as u8, u as u8);
                assert_eq!(t.next[s][u], to);
                assert_eq!(t.label[s][u], 2 * u as u8 + parity);
                incoming[usize::from(to)] += 1;
            }
            // the two branches out of a state reach distinct next states
            assert_ne!(t.next[s][0], t.next[s][1], "state {s}");
        }
        assert!(incoming.iter().all(|&c| c == 2));
    }

    #[test]
    fn noiseless_all_zero_decodes_to_zero() {
        let n = 16;
        let (ext, apo) = run(&[5.0; 16], &[5.0; 16], &[0.0; 16]);
        assert!((0..n).all(|j| hard_bit(apo[j]) == 0));
        assert!(ext.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn noiseless_random_frame_is_recovered() {
        let bits: Vec<u8> = (0..40).map(|i| ((i * 5 + 1) % 3 % 2) as u8).collect();
        let (inputs, parity) = terminated(&bits);
        let llr = |b: &u8| 6.0 * (1.0 - 2.0 * f64::from(*b));
        let sys: Vec<f64> = inputs.iter().map(llr).collect();
        let par: Vec<f64> = parity.iter().map(llr).collect();
        let (_, apo) = run(&sys, &par, &vec![0.0; sys.len()]);
        for (j, &b) in inputs.iter().enumerate() {
            assert_eq!(hard_bit(apo[j]), b, "bit {j}");
        }
    }

    #[test]
    fn parity_alone_carries_information_on_terminated_trellis() {
        // Erased systematic bits: the recursion plus termination still pins
        // the all-zero path.
        let n = 20;
        let (ext, apo) = run(&[0.0; 20], &[6.0; 20], &[0.0; 20]);
        let energy: f64 = ext.iter().map(|e| e.abs()).sum();
        assert!(energy > 1.0, "extrinsic energy {energy}");
        assert!((0..n).all(|j| hard_bit(apo[j]) == 0));
    }

    #[test]
    fn apriori_shifts_the_decision() {
        // weak channel evidence for 1, strong a-priori for 0 on every bit
        let n = 8;
        let (_, apo) = run(&[-0.2; 8], &[0.0; 8], &[4.0; 8]);
        assert!((0..n).all(|j| hard_bit(apo[j]) == 0));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_inputs_panic() {
        let _ = run(&[0.0; 4], &[0.0; 4], &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "leaves the state range")]
    fn bad_transition_function_panics() {
        let _ = ConstTrellis::<2>::new([[7, 8]; 8], [[0, 1]; 8]);
    }

    #[test]
    fn non_permutations_are_rejected() {
        // a code's map goes through the interleaver's bijection check
        let code = |map: Vec<usize>| Interleaver::new(map).map(LteTurboCode::new);
        assert_eq!(code(vec![0, 2, 1]).unwrap().info_bits(), 3);
        for bad in [vec![0, 0, 1], vec![0, 1, 3], Vec::new()] {
            assert_eq!(code(bad), Err(TurboError::InvalidInterleaver));
        }
    }
}

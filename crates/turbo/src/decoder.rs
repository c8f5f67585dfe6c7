//! The iterative turbo decoder: two SISO units exchanging extrinsic
//! information through the interleaver.  One loop (`iterate`) serves every
//! turbo code — the duo-binary CTCs of 802.16e and DVB-RCS
//! ([`TurboDecoder`]) and the binary LTE code
//! ([`crate::BinaryTurboDecoder`]): interleaving with couple swaps, symbol- or
//! bit-level exchange, decisions and early stop all work on borrowed slices
//! of a per-thread scratch, so a decode allocates only its outcome.

use crate::bitlevel::{bitlevel_roundtrip, SymbolLlr};
use crate::encoder::{swaps_couple, CtcCode, PunctureRate};
use crate::siso::{Constituent, SisoUnit};
use crate::trellis::DuoBinaryTrellis;
use crate::TurboError;
use fec_fixed::Llr;
use std::cell::RefCell;

/// How extrinsic information travels between the two SISOs.
///
/// The paper (Sec. IV.B) uses bit-level exchange over the NoC to cut the
/// payload by one third at a ~0.2 dB BER cost; symbol-level exchange is the
/// lossless reference.  A binary code carries one bit per symbol, so both
/// modes exchange the same message there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtrinsicExchange {
    /// Three symbol LLRs per couple (reference).
    SymbolLevel,
    /// Two bit LLRs per couple (paper's choice, refs \[23\]\[24\]).
    #[default]
    BitLevel,
}

/// Configuration of the iterative decoder, shared by every turbo code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurboDecoderConfig {
    /// Number of full iterations (the paper uses 8 for DBTC).
    pub max_iterations: usize,
    /// Extrinsic exchange mode.
    pub exchange: ExtrinsicExchange,
    /// Stop early when the hard decisions are stable across an iteration.
    pub early_termination: bool,
}

impl Default for TurboDecoderConfig {
    fn default() -> Self {
        TurboDecoderConfig {
            max_iterations: 8,
            exchange: ExtrinsicExchange::default(),
            early_termination: true,
        }
    }
}

/// Result of a turbo decoding attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct TurboDecodeOutcome {
    /// Decoded information bits.
    pub info_bits: Vec<u8>,
    /// Number of full iterations performed.
    pub iterations: usize,
    /// `true` if early termination fired (decisions became stable).
    pub converged: bool,
}

/// A channel LLR as the iterative loop sees it: clamped to
/// ±[`Llr::CERTAIN_MAGNITUDE`], so that no state metric can overflow however
/// large the channel reliability.  At rate 1/2 the bound is only reached
/// beyond about 117 dB Eb/N0.
pub(crate) fn channel_llr(llr: &Llr) -> f64 {
    llr.value()
        .clamp(-Llr::CERTAIN_MAGNITUDE, Llr::CERTAIN_MAGNITUDE)
}

/// Per-thread working memory of the iterative loop for one constituent
/// code.  Buffers only grow, so a thread decoding one code repeatedly never
/// reallocates them.
#[derive(Debug)]
pub(crate) struct Scratch<Ch, M> {
    siso: SisoUnit,
    /// Channel values of SISO 1 (natural order) and SISO 2 (interleaved
    /// order), tail steps last.
    pub(crate) channel: [Vec<Ch>; 2],
    apriori: [Vec<M>; 2],
    extrinsic: Vec<M>,
    aposteriori: Vec<M>,
    /// Hard decisions of the last iteration, in natural order.
    pub(crate) decisions: Vec<u8>,
    previous: Vec<u8>,
}

impl<Ch, M> Scratch<Ch, M> {
    pub(crate) const fn new() -> Self {
        Scratch {
            siso: SisoUnit::new(),
            channel: [Vec::new(), Vec::new()],
            apriori: [Vec::new(), Vec::new()],
            extrinsic: Vec::new(),
            aposteriori: Vec::new(),
            decisions: Vec::new(),
            previous: Vec::new(),
        }
    }
}

/// A constituent code the iterative loop can run: how its messages cross
/// the interleaver and turn into decisions, and where its scratch lives.
pub(crate) trait Iterated<const U: usize, const L: usize>: Constituent<U, L> {
    /// Runs `f` on this code's per-thread loop memory.
    fn with_scratch<R>(f: impl FnOnce(&mut Scratch<Self::Channel, Self::Message>) -> R) -> R;

    /// The extrinsic message as the other SISO receives it.
    fn exchange(message: Self::Message, mode: ExtrinsicExchange) -> Self::Message;

    /// Whether natural step `step`'s symbol is swapped crossing the
    /// interleaver.
    fn swapped(step: usize) -> bool;

    /// The message with the two bits of its symbol swapped.
    fn swap(message: Self::Message) -> Self::Message;

    /// The hard decision of an a-posteriori message.
    fn decide(aposteriori: &Self::Message) -> u8;
}

/// Runs the iterations on the channel values already in
/// `scratch.channel`, leaving the hard decisions in `scratch.decisions`:
/// `(iterations, converged)`.
///
/// `interleaver[j]` is the interleaved position of natural step `j`, and
/// [`Iterated::swapped`] says whether its symbol is swapped on the way.
/// Steps past the interleaver length are tail steps; they get no a-priori
/// information.
pub(crate) fn iterate<C: Iterated<U, L>, const U: usize, const L: usize>(
    scratch: &mut Scratch<C::Channel, C::Message>,
    interleaver: &[usize],
    config: &TurboDecoderConfig,
) -> (usize, bool) {
    let Scratch {
        siso,
        channel,
        apriori,
        extrinsic,
        aposteriori,
        decisions,
        previous,
    } = scratch;
    let steps = channel[0].len();
    let [apriori_1, apriori_2] = apriori;
    for messages in [&mut *apriori_1, &mut *apriori_2, extrinsic, aposteriori] {
        messages.clear();
        messages.resize(steps, C::Message::default());
    }
    for bits in [&mut *decisions, &mut *previous] {
        bits.clear();
        bits.resize(interleaver.len(), 0);
    }
    let cross = |message: C::Message, step: usize| {
        let message = C::exchange(message, config.exchange);
        if C::swapped(step) {
            C::swap(message)
        } else {
            message
        }
    };

    let mut iterations = 0;
    let mut converged = false;
    for it in 0..config.max_iterations {
        iterations = it + 1;

        // ---- SISO 1: natural order ----
        siso.run::<C, U, L>(&channel[0], apriori_1, extrinsic, aposteriori);
        for (j, (&ext, &p)) in extrinsic.iter().zip(interleaver).enumerate() {
            apriori_2[p] = cross(ext, j);
        }

        // ---- SISO 2: interleaved order ----
        siso.run::<C, U, L>(&channel[1], apriori_2, extrinsic, aposteriori);
        // extrinsic 2 -> a-priori 1, and decisions from SISO 2's
        // a-posteriori, both back in natural order
        for (j, &p) in interleaver.iter().enumerate() {
            apriori_1[j] = cross(extrinsic[p], j);
            let apo = if C::swapped(j) {
                C::swap(aposteriori[p])
            } else {
                aposteriori[p]
            };
            decisions[j] = C::decide(&apo);
        }

        if config.early_termination {
            if it > 0 && previous == decisions {
                converged = true;
                break;
            }
            previous.copy_from_slice(decisions);
        }
    }
    (iterations, converged)
}

impl Iterated<4, 16> for DuoBinaryTrellis {
    fn with_scratch<R>(f: impl FnOnce(&mut Scratch<[f64; 4], SymbolLlr>) -> R) -> R {
        thread_local! {
            static SCRATCH: RefCell<Scratch<[f64; 4], SymbolLlr>> =
                const { RefCell::new(Scratch::new()) };
        }
        SCRATCH.with(|s| f(&mut s.borrow_mut()))
    }

    fn exchange(message: SymbolLlr, mode: ExtrinsicExchange) -> SymbolLlr {
        match mode {
            ExtrinsicExchange::SymbolLevel => message,
            ExtrinsicExchange::BitLevel => bitlevel_roundtrip(&message),
        }
    }

    fn swapped(step: usize) -> bool {
        swaps_couple(step)
    }

    /// Symbols 1 and 2 trade places under the `A <-> B` swap; symbol 3 is
    /// invariant.
    fn swap(message: SymbolLlr) -> SymbolLlr {
        [message[1], message[0], message[2]]
    }

    /// The most likely couple; ties go to the larger symbol.
    fn decide(aposteriori: &SymbolLlr) -> u8 {
        let m = [0.0, aposteriori[0], aposteriori[1], aposteriori[2]];
        (1..4).fold(0, |best, u| if m[u] >= m[best] { u } else { best }) as u8
    }
}

/// The iterative double-binary turbo decoder of a [`CtcCode`], also the
/// code's [`fec_channel::sim::FecCodec`].
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone)]
pub struct TurboDecoder {
    pub(crate) code: CtcCode,
    pub(crate) config: TurboDecoderConfig,
}

impl TurboDecoder {
    /// Creates a decoder for `code`.
    pub fn new(code: &CtcCode, config: TurboDecoderConfig) -> Self {
        TurboDecoder {
            code: code.clone(),
            config,
        }
    }

    /// Decodes a frame of channel LLRs (one value per transmitted bit, in the
    /// encoder's output order).
    ///
    /// # Errors
    ///
    /// Returns [`TurboError::InvalidLength`] if the LLR vector has the wrong
    /// length.
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
        Ok(DuoBinaryTrellis::with_scratch(|scratch| {
            demap(self.code.rate(), interleaver, llrs, &mut scratch.channel);
            let (iterations, converged) =
                iterate::<DuoBinaryTrellis, 4, 16>(scratch, interleaver, &self.config);
            let mut info_bits = Vec::with_capacity(self.code.info_bits());
            for &u in &scratch.decisions {
                info_bits.push((u >> 1) & 1);
                info_bits.push(u & 1);
            }
            TurboDecodeOutcome {
                info_bits,
                iterations,
                converged,
            }
        }))
    }
}

/// Splits a flat channel-LLR vector of `interleaver.len()` couples (in the
/// encoder's transmitted order, length already checked) into the two
/// constituents' `[A, B, Y, W]` values, with zeros at punctured positions:
/// natural order for SISO 1, interleaved order with the couple swap for
/// SISO 2.
fn demap(
    rate: PunctureRate,
    interleaver: &[usize],
    llrs: &[Llr],
    channel: &mut [Vec<[f64; 4]>; 2],
) {
    let n = interleaver.len();
    let [natural, interleaved] = channel;
    natural.resize(n, [0.0; 4]);
    interleaved.resize(n, [0.0; 4]);
    let mut values = llrs.iter().map(channel_llr);
    let mut take = |kept: bool| {
        if kept {
            values.next().expect("length checked")
        } else {
            0.0
        }
    };
    for ch in natural.iter_mut() {
        ch[0] = take(true);
    }
    for ch in natural.iter_mut() {
        ch[1] = take(true);
    }
    for (j, ch) in natural.iter_mut().enumerate() {
        ch[2] = take(rate.keeps_y1(j));
    }
    for (j, ch) in natural.iter_mut().enumerate() {
        ch[3] = take(rate.keeps_w1(j));
    }
    for (p, ch) in interleaved.iter_mut().enumerate() {
        ch[2] = take(rate.keeps_y2(p));
    }
    for (p, ch) in interleaved.iter_mut().enumerate() {
        ch[3] = take(rate.keeps_w2(p));
    }
    for (j, (ch, &p)) in natural.iter().zip(interleaver).enumerate() {
        let (a, b) = if swaps_couple(j) {
            (ch[1], ch[0])
        } else {
            (ch[0], ch[1])
        };
        interleaved[p][0] = a;
        interleaved[p][1] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn bpsk(bit: u8) -> f64 {
        if bit == 0 {
            1.0
        } else {
            -1.0
        }
    }

    fn noisy_llrs(cw: &[u8], sigma: f64, seed: u64) -> Vec<Llr> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        cw.iter()
            .map(|&b| {
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let noise = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                Llr::new(2.0 * (bpsk(b) + sigma * noise) / (sigma * sigma))
            })
            .collect()
    }

    #[test]
    fn swap_symbol_is_involution() {
        let swap = <DuoBinaryTrellis as Iterated<4, 16>>::swap;
        let s = [1.0, 2.0, 3.0];
        assert_eq!(swap(swap(s)), s);
        assert_eq!(swap(s), [2.0, 1.0, 3.0]);
    }

    #[test]
    fn noiseless_roundtrip_small_frame() {
        let code = CtcCode::wimax(24).unwrap();
        let dec = TurboDecoder::new(&code, TurboDecoderConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let info: Vec<u8> = (0..code.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let cw = code.encode(&info).unwrap();
        let llrs: Vec<Llr> = cw
            .iter()
            .map(|&b| Llr::new(8.0 * (1.0 - 2.0 * b as f64)))
            .collect();
        let out = dec.decode(&llrs).unwrap();
        assert_eq!(out.info_bits, info);
    }

    #[test]
    fn decodes_noisy_frame_at_moderate_snr() {
        let code = CtcCode::wimax(48).unwrap();
        let dec = TurboDecoder::new(&code, TurboDecoderConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let info: Vec<u8> = (0..code.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let cw = code.encode(&info).unwrap();
        // Eb/N0 = 3 dB at rate 1/2 -> sigma^2 = 1/(2*0.5*10^0.3) ~ 0.5
        let llrs = noisy_llrs(&cw, 0.5f64.sqrt(), 33);
        let out = dec.decode(&llrs).unwrap();
        assert_eq!(out.info_bits, info, "turbo decoding failed at 3 dB");
    }

    #[test]
    fn symbol_level_exchange_also_decodes() {
        let code = CtcCode::wimax(48).unwrap();
        let cfg = TurboDecoderConfig {
            exchange: ExtrinsicExchange::SymbolLevel,
            ..TurboDecoderConfig::default()
        };
        let dec = TurboDecoder::new(&code, cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let info: Vec<u8> = (0..code.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let cw = code.encode(&info).unwrap();
        let llrs = noisy_llrs(&cw, 0.5f64.sqrt(), 44);
        let out = dec.decode(&llrs).unwrap();
        assert_eq!(out.info_bits, info);
    }

    #[test]
    fn rate_one_third_is_more_robust_than_rate_half() {
        // At a fixed (noisy) channel sigma, the rate-1/3 mother code should
        // decode at least as well as the punctured rate-1/2 code.
        let sigma = 0.9;
        let mut errors = [0usize; 2];
        for (slot, rate) in [(0, PunctureRate::R13), (1, PunctureRate::R12)] {
            let code = CtcCode::with_rate(48, rate).unwrap();
            let dec = TurboDecoder::new(&code, TurboDecoderConfig::default());
            let mut rng = rand::rngs::StdRng::seed_from_u64(123);
            for seed in 0..6 {
                let info: Vec<u8> = (0..code.info_bits())
                    .map(|_| rng.gen_range(0..=1))
                    .collect();
                let cw = code.encode(&info).unwrap();
                let llrs = noisy_llrs(&cw, sigma, 1000 + seed);
                let out = dec.decode(&llrs).unwrap();
                errors[slot] += out
                    .info_bits
                    .iter()
                    .zip(&info)
                    .filter(|(a, b)| a != b)
                    .count();
            }
        }
        assert!(
            errors[0] <= errors[1],
            "R13 errors {} > R12 errors {}",
            errors[0],
            errors[1]
        );
    }

    #[test]
    fn early_termination_reports_convergence() {
        let code = CtcCode::wimax(24).unwrap();
        let dec = TurboDecoder::new(&code, TurboDecoderConfig::default());
        let info = vec![0u8; code.info_bits()];
        let cw = code.encode(&info).unwrap();
        let llrs: Vec<Llr> = cw
            .iter()
            .map(|&b| Llr::new(9.0 * (1.0 - 2.0 * b as f64)))
            .collect();
        let out = dec.decode(&llrs).unwrap();
        assert!(out.converged);
        assert!(out.iterations < 8);
    }

    #[test]
    fn wrong_llr_length_is_rejected() {
        let code = CtcCode::wimax(24).unwrap();
        let dec = TurboDecoder::new(&code, TurboDecoderConfig::default());
        assert!(matches!(
            dec.decode(&[Llr::new(0.0); 10]),
            Err(TurboError::InvalidLength { .. })
        ));
    }

    #[test]
    fn demap_inserts_zeros_at_punctured_positions() {
        let code = CtcCode::with_rate(24, PunctureRate::R23).unwrap();
        let llrs = vec![Llr::new(1.0); code.coded_bits()];
        let mut channel = [Vec::new(), Vec::new()];
        demap(
            code.rate(),
            code.interleaver().forward(),
            &llrs,
            &mut channel,
        );
        let [natural, interleaved] = &channel;
        // systematic bits are never punctured
        assert!(natural
            .iter()
            .chain(interleaved)
            .all(|ch| ch[..2] == [1.0; 2]));
        // W1/W2 fully punctured at rate 2/3
        assert!(natural.iter().chain(interleaved).all(|ch| ch[3] == 0.0));
        // Y1 present only on even couples, Y2 only on odd interleaved ones
        for (j, (ch1, ch2)) in natural.iter().zip(interleaved).enumerate() {
            assert_eq!(ch1[2], if j % 2 == 0 { 1.0 } else { 0.0 }, "couple {j}");
            assert_eq!(ch2[2], if j % 2 == 1 { 1.0 } else { 0.0 }, "couple {j}");
        }
    }

    #[test]
    fn every_puncture_rate_decodes_a_noiseless_frame() {
        for rate in [
            PunctureRate::R13,
            PunctureRate::R12,
            PunctureRate::R23,
            PunctureRate::R34,
        ] {
            let code = CtcCode::with_rate(48, rate).unwrap();
            let info: Vec<u8> = (0..code.info_bits()).map(|i| (i % 3 % 2) as u8).collect();
            let cw = code.encode(&info).unwrap();
            let llrs: Vec<Llr> = cw.iter().map(|&b| Llr::new(8.0 * bpsk(b))).collect();
            let dec = TurboDecoder::new(&code, TurboDecoderConfig::default());
            assert_eq!(dec.decode(&llrs).unwrap().info_bits, info, "{rate:?}");
        }
    }

    #[test]
    fn channel_llrs_beyond_the_certain_magnitude_are_clamped() {
        // LLRs of a channel at ~3080 dB overflow the state metrics unless
        // the loop bounds them; clamped, they decode like any clean frame.
        let code = CtcCode::wimax(48).unwrap();
        let info: Vec<u8> = (0..code.info_bits()).map(|i| (i % 5 % 2) as u8).collect();
        let cw = code.encode(&info).unwrap();
        for magnitude in [1e300, f64::INFINITY] {
            let llrs: Vec<Llr> = cw.iter().map(|&b| Llr::new(magnitude * bpsk(b))).collect();
            for exchange in [ExtrinsicExchange::SymbolLevel, ExtrinsicExchange::BitLevel] {
                let config = TurboDecoderConfig {
                    exchange,
                    ..TurboDecoderConfig::default()
                };
                let out = TurboDecoder::new(&code, config).decode(&llrs).unwrap();
                assert_eq!(out.info_bits, info, "{magnitude:e} {exchange:?}");
                assert!(out.converged);
            }
        }
    }

    #[test]
    fn larger_wimax_frame_decodes() {
        let code = CtcCode::wimax(240).unwrap();
        let dec = TurboDecoder::new(&code, TurboDecoderConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let info: Vec<u8> = (0..code.info_bits())
            .map(|_| rng.gen_range(0..=1))
            .collect();
        let cw = code.encode(&info).unwrap();
        let llrs = noisy_llrs(&cw, 0.55f64.sqrt(), 77);
        let out = dec.decode(&llrs).unwrap();
        let errs = out
            .info_bits
            .iter()
            .zip(&info)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(errs, 0, "bit errors at 2.6 dB: {errs}");
    }
}

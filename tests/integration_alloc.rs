//! Steady-state heap-allocation counts of the LDPC and turbo frame paths.
//!
//! Both layered decoders keep λ, the `R` message memory and the `Q` values
//! in a per-thread scratch — the software image of the processing
//! element's fixed λ/`R_lk` memories — so a one-frame `decode` allocates
//! only the two vectors of its outcome, however many iterations it runs.
//! The stream path of the f64 codec, on the layered and the flooding
//! schedule alike, and of the q7 codec, whose `decode` is a one-frame
//! stream, builds no outcomes and allocates nothing at all.  The [`QcEncoder`] computes its
//! parity blocks in place in the returned codeword.  The turbo decoders
//! keep their channel values, messages and the SISO's γ/α memories in a
//! per-thread scratch too, so a turbo decode allocates only its decoded
//! bits.  A code itself is its base matrix and layer plan, built with the
//! same few allocations at every length.  Counts are taken per thread (see
//! `common`).

mod common;

use code_tables::{dvb_rcs_ctc, lte_turbo_code};
use common::allocations;
use fec_channel::sim::{FecCodec, FrameStream};
use fec_fixed::Llr;
use rand::{Rng, SeedableRng};
use wimax_ldpc::decoder::{FixedLayeredConfig, FixedLayeredDecoder, LayeredConfig, LayeredDecoder};
use wimax_ldpc::{CodeRate, LayeredLdpcCodec, QcEncoder, QcLdpcCode, QuantizedLayeredLdpcCodec};
use wimax_turbo::{
    BinaryTurboDecoder, ExtrinsicExchange, TurboDecodeOutcome, TurboDecoder, TurboDecoderConfig,
};

const BLOCK_LENGTHS: [usize; 2] = [576, 2304];

#[test]
fn layered_decode_allocations_do_not_grow_with_iterations() {
    for n in BLOCK_LENGTHS {
        let code = QcLdpcCode::wimax(n, CodeRate::R12).expect("valid WiMAX length");
        let decoder = LayeredDecoder::new(&code, LayeredConfig::default());
        // A clean all-zero frame converges in one iteration; pure noise runs
        // every iteration without converging.
        let clean = vec![Llr::new(6.0); n];
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let noise: Vec<Llr> = (0..n).map(|_| Llr::new(rng.gen_range(-1.0..1.0))).collect();

        // Warm-up: grow the per-thread scratch to this code's size.
        let _ = decoder.decode(&noise);

        let (one_allocs, one) = allocations(|| decoder.decode(&clean));
        let (all_allocs, all) = allocations(|| decoder.decode(&noise));
        assert_eq!((one.iterations, one.converged), (1, true), "n{n}");
        assert_eq!((all.iterations, all.converged), (10, false), "n{n}");
        assert_eq!(
            one_allocs, all_allocs,
            "n{n}: 1 iteration made {one_allocs} allocations, 10 made {all_allocs}"
        );
        assert!(
            one_allocs <= 2,
            "n{n}: a decode should allocate only its outcome, made {one_allocs}"
        );
    }
}

#[test]
fn fixed_decode_allocations_do_not_grow_with_iterations() {
    for n in BLOCK_LENGTHS {
        let code = QcLdpcCode::wimax(n, CodeRate::R12).expect("valid WiMAX length");
        let decoder = FixedLayeredDecoder::new(&code, FixedLayeredConfig::default());
        // LLR 2.0 (λ = +4 LSB) everywhere is a clean all-zero frame that
        // converges in one iteration; small random λ is pure noise that
        // runs every iteration without converging.
        let clean = vec![Llr::new(2.0); n];
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let noise: Vec<Llr> = (0..n)
            .map(|_| Llr::new(f64::from(rng.gen_range(-4i16..=4)) / 2.0))
            .collect();

        // Warm-up: grow the per-thread scratch to this code's size.
        let _ = decoder.decode(&noise);

        let (one_allocs, one) = allocations(|| decoder.decode(&clean));
        let (all_allocs, all) = allocations(|| decoder.decode(&noise));
        assert_eq!((one.iterations, one.converged), (1, true), "n{n}");
        assert_eq!((all.iterations, all.converged), (10, false), "n{n}");
        assert_eq!(
            one_allocs, all_allocs,
            "n{n}: 1 iteration made {one_allocs} allocations, 10 made {all_allocs}"
        );
        assert!(
            one_allocs <= 2,
            "n{n}: a decode should allocate only its outcome, made {one_allocs}"
        );
    }
}

/// `count` frames cycling through `frames`, with at most `width` in
/// flight; counts the decisions it is handed and allocates nothing.
struct Cycle<'a> {
    frames: &'a [Vec<Llr>],
    count: usize,
    width: usize,
    pulled: usize,
    decided: usize,
}

impl FrameStream for Cycle<'_> {
    fn max_in_flight(&self) -> usize {
        self.width
    }

    fn next_frame(&mut self, llrs: &mut [Llr]) -> Option<usize> {
        if self.pulled == self.count {
            return None;
        }
        llrs.copy_from_slice(&self.frames[self.pulled % self.frames.len()]);
        self.pulled += 1;
        Some(self.pulled - 1)
    }

    fn decided(&mut self, _frame: usize, _info_bits: &[u8], _iterations: usize, _converged: bool) {
        self.decided += 1;
    }
}

/// The allocations of `codec.decode_frames` over 8 and over 64 frames, at
/// most 8 in flight, after a warm-up that grows the per-thread scratch to
/// this code and width.  Clean frames converge in one iteration and noise
/// runs all ten, so a lockstep codec refills its lanes at different sweeps.
fn stream_allocations(codec: &dyn FecCodec) -> (u64, u64) {
    let n = codec.codeword_bits();
    let mut rng = rand::rngs::StdRng::seed_from_u64(79);
    let frames = [
        vec![Llr::new(6.0); n],
        (0..n).map(|_| Llr::new(rng.gen_range(-1.0..1.0))).collect(),
        vec![Llr::new(6.0); n],
    ];
    let decode = |count: usize| {
        let mut stream = Cycle {
            frames: &frames,
            count,
            width: 8,
            pulled: 0,
            decided: 0,
        };
        let (allocs, ()) = allocations(|| codec.decode_frames(&mut stream, None));
        assert_eq!(stream.decided, count, "{}", codec.name());
        allocs
    };
    decode(8);
    (decode(8), decode(64))
}

#[test]
fn q7_stream_decode_allocates_nothing_per_frame() {
    for n in BLOCK_LENGTHS {
        let code = QcLdpcCode::wimax(n, CodeRate::R12).expect("valid WiMAX length");
        let codec = QuantizedLayeredLdpcCodec::new(&code, FixedLayeredConfig::default());
        let (eight, many) = stream_allocations(&codec);
        assert_eq!(
            (eight, many),
            (0, 0),
            "n{n}: 8 frames made {eight} allocations, 64 made {many}"
        );
    }
}

/// The f64 codec, on the layered and the flooding schedule, hands each
/// frame's information bits to the stream from the decoder's scratch and
/// builds no outcome.
#[test]
fn f64_stream_decode_allocates_nothing_per_frame() {
    for n in BLOCK_LENGTHS {
        let code = QcLdpcCode::wimax(n, CodeRate::R12).expect("valid WiMAX length");
        let codecs: [Box<dyn FecCodec>; 2] = [
            Box::new(LayeredLdpcCodec::new(&code, LayeredConfig::default())),
            Box::new(LayeredLdpcCodec::flooding(&code, LayeredConfig::default())),
        ];
        for codec in &codecs {
            let (eight, many) = stream_allocations(codec.as_ref());
            assert_eq!(
                (eight, many),
                (0, 0),
                "{}: 8 frames made {eight} allocations, 64 made {many}",
                codec.name()
            );
        }
    }
}

/// A code holds its base matrix and its layer plan, no per-row storage, so
/// building one makes the same few allocations at every length.
#[test]
fn building_a_code_allocates_the_same_at_every_length() {
    let counts = BLOCK_LENGTHS.map(|n| {
        let (allocs, code) = allocations(|| QcLdpcCode::wimax(n, CodeRate::R12));
        assert_eq!(code.expect("valid WiMAX length").n(), n);
        allocs
    });
    assert_eq!(
        counts[0], counts[1],
        "n576 made {} allocations, n2304 {}",
        counts[0], counts[1]
    );
    assert!(counts[0] <= 24, "a code made {} allocations", counts[0]);
}

#[test]
fn qc_encode_allocates_at_most_twice() {
    for n in BLOCK_LENGTHS {
        let code = QcLdpcCode::wimax(n, CodeRate::R12).expect("valid WiMAX length");
        let encoder = QcEncoder::new(&code);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let info: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..=1)).collect();
        let _ = encoder.encode(&info);

        let (allocs, codeword) = allocations(|| encoder.encode(&info));
        assert!(code.is_codeword(&codeword.expect("info length matches")));
        assert!(allocs <= 2, "n{n}: encode made {allocs} allocations");
    }
}

/// A turbo configuration that runs exactly `iterations` iterations.
fn turbo_config(iterations: usize) -> TurboDecoderConfig {
    TurboDecoderConfig {
        max_iterations: iterations,
        exchange: ExtrinsicExchange::BitLevel,
        early_termination: false,
    }
}

/// Warms the per-thread scratch up with `decode[0]`, then checks that a
/// decode at 1 and at 8 iterations makes the same number of allocations,
/// at most the one vector of decoded bits.
fn check_turbo_allocations(name: &str, decode: [&dyn Fn() -> TurboDecodeOutcome; 2]) {
    let _ = decode[0]();
    let (one_allocs, one) = allocations(decode[0]);
    let (all_allocs, all) = allocations(decode[1]);
    assert_eq!((one.iterations, one.converged), (1, false), "{name}");
    assert_eq!((all.iterations, all.converged), (8, false), "{name}");
    assert_eq!(
        one_allocs, all_allocs,
        "{name}: 1 iteration made {one_allocs} allocations, 8 made {all_allocs}"
    );
    assert!(
        one_allocs <= 1,
        "{name}: a decode should allocate only its decoded bits, made {one_allocs}"
    );
}

#[test]
fn turbo_decode_allocations_do_not_grow_with_iterations() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(78);
    let mut noise =
        |n: usize| -> Vec<Llr> { (0..n).map(|_| Llr::new(rng.gen_range(-1.0..1.0))).collect() };

    let lte = lte_turbo_code(1024).expect("valid LTE block size");
    let lte_decoders = [1, 8].map(|it| BinaryTurboDecoder::new(&lte, turbo_config(it)));
    let lte_noise = noise(lte.coded_bits());
    check_turbo_allocations(
        "LTE K1024",
        [
            &|| lte_decoders[0].decode(&lte_noise).expect("length"),
            &|| lte_decoders[1].decode(&lte_noise).expect("length"),
        ],
    );

    let dvb = dvb_rcs_ctc(212).expect("valid DVB-RCS couple size");
    let dvb_decoders = [1, 8].map(|it| TurboDecoder::new(&dvb, turbo_config(it)));
    let dvb_noise = noise(dvb.coded_bits());
    check_turbo_allocations(
        "DVB-RCS 212 couples",
        [
            &|| dvb_decoders[0].decode(&dvb_noise).expect("length"),
            &|| dvb_decoders[1].decode(&dvb_noise).expect("length"),
        ],
    );
}

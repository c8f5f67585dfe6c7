//! Channel substrate: modulation, AWGN noise and Monte-Carlo error-rate
//! measurement used to exercise the turbo and LDPC decoders.
//!
//! The paper evaluates its decoder architecture on WiMAX codes; bit-error-rate
//! behaviour (e.g. the 0.2 dB penalty of bit-level extrinsic exchange, the
//! normalized-min-sum scaling factor) is reproduced here by transmitting
//! random codewords over a binary-input AWGN channel, which is the standard
//! evaluation substrate for FEC decoders.
//!
//! # Example
//!
//! ```
//! use fec_channel::{AwgnChannel, BpskModulator, EbN0};
//! use rand::SeedableRng;
//!
//! let bits = vec![0u8, 1, 1, 0, 1];
//! let modulator = BpskModulator::new();
//! let symbols = modulator.modulate(&bits);
//!
//! let ebn0 = EbN0::from_db(2.0);
//! let channel = AwgnChannel::for_code_rate(ebn0, 0.5);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let received = channel.transmit(&symbols, &mut rng);
//! let llrs = channel.llrs(&received);
//! assert_eq!(llrs.len(), bits.len());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod awgn;
pub mod ber;
pub mod modulation;
pub mod sim;
pub mod source;
pub mod stats;

pub use awgn::{AwgnChannel, EbN0};
pub use ber::{ErrorCounter, StopRule};
pub use modulation::BpskModulator;
pub use sim::{
    BerCurve, BerPoint, DecodedFrame, EngineConfig, FecCodec, FrameSlice, FrameStream,
    SimulationEngine,
};
pub use stats::{normal_quantile, wilson_interval, WilsonInterval};

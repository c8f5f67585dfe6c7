//! Multi-standard channel-code tables and registry.
//!
//! The DATE 2012 paper's central claim is *flexibility*: one NoC-based
//! decoder fabric serving multiple standards and code families.  This crate
//! is the single registry of channel codes for the workspace:
//!
//! * [`standard`] — the [`Standard`] enum (802.16e, 802.11n, LTE, 802.22,
//!   DVB-RCS) with per-standard throughput requirements and CLI flag
//!   parsing;
//! * [`wifi`] — the twelve IEEE 802.11n QC-LDPC base matrices (n = 648 /
//!   1296 / 1944 x rates 1/2, 2/3, 3/4, 5/6) built on the generalized
//!   [`wimax_ldpc::BaseMatrix`] with direct (per-`z`) shift tables;
//! * [`lte`] — the 3GPP LTE rate-1/3 binary turbo code: the QPP interleaver
//!   table and [`lte_turbo_code`], which builds `wimax_turbo`'s
//!   [`wimax_turbo::LteTurboCode`] from it (the code, its encoder, decoder
//!   and codec live beside the CTC's in `wimax_turbo`);
//! * [`wran`] — the IEEE 802.22 WRAN QC-LDPC tables (n = 384 … 2304 x
//!   rates 1/2, 2/3, 3/4) on the same 24-column base layout and floor
//!   shift-scaling rule as 802.16e;
//! * [`dvb_rcs`] — the DVB-RCS duo-binary CTC: the `(P0, Q1–Q3)`
//!   interleaver parameter table per couple size (validated bijective at
//!   construction) over the shared `wimax_turbo` 8-state CRSC trellis and
//!   SISO;
//! * [`registry`] — [`StandardCode`] and the code sets of each [`Standard`]
//!   ([`Standard::full_codes`], [`Standard::corner_codes`],
//!   [`Standard::worst_ldpc`], [`Standard::worst_turbo`]), which the
//!   compliance sweep, the design-space explorer and the BER binaries use
//!   to enumerate codes per standard, and the one codec
//!   constructor: [`StandardCode::resolve`] finds the code a
//!   `(standard, decoder, block)` names and [`StandardCode::codec`] builds
//!   its [`DecoderKind`] behind [`fec_channel::sim::FecCodec`].
//!
//! # Example
//!
//! ```
//! use code_tables::Standard;
//!
//! let wifi = Standard::Wifi80211n;
//! assert_eq!(wifi.full_codes().len(), 12);
//! let worst = wifi.worst_ldpc().unwrap();
//! assert_eq!(worst.label(), "802.11n LDPC 1944 r=1/2");
//!
//! use code_tables::{DecoderKind, StandardCode};
//!
//! let q7 = DecoderKind::Quantized { lambda_bits: 7 };
//! let codec = StandardCode::resolve(Standard::Wifi80211n, q7, 648)?.codec(q7)?;
//! assert_eq!(codec.name(), "80211n-ldpc-n648-layered-q7");
//! assert!(StandardCode::resolve(Standard::Lte, q7, 1024).is_err());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod dvb_rcs;
pub mod lte;
pub mod registry;
pub mod standard;
pub mod wifi;
pub mod wran;

pub use dvb_rcs::{dvb_rcs_ctc, dvb_rcs_ctc_with_rate, dvb_rcs_interleaver, DVB_RCS_ARP_TABLE};
pub use lte::{lte_block_sizes, lte_turbo_code, QppParameters, LTE_QPP_TABLE};
pub use registry::{DecoderKind, StandardCode};
pub use standard::{Standard, UnknownStandard};
pub use wifi::{wifi_base_matrix, wifi_ldpc, wifi_rates, WIFI_BLOCK_LENGTHS};
pub use wran::{wran_base_matrix, wran_ldpc, wran_rates, WRAN_BLOCK_LENGTHS};

//! The flexible NoC-based turbo/LDPC decoder: the paper's primary
//! contribution.
//!
//! A [`NocDecoder`] bundles
//!
//! * a **functional** decoder — the WiMAX LDPC and double-binary turbo
//!   decoders of the `wimax-ldpc` and `wimax-turbo` crates, so that frames
//!   can actually be decoded;
//! * an **architectural** model — the code-to-NoC mapping (`noc-mapping`),
//!   the cycle-accurate network simulation (`noc-sim`), the PE timing and
//!   memory models (`decoder-pe`) and the area/power models (`asic-model`) —
//!   so that the throughput (Eq. (12)), area and power of a given
//!   configuration can be evaluated exactly as the paper does;
//! * a **design-space exploration** driver ([`dse`]) that sweeps topologies,
//!   parallelism degrees and routing algorithms to regenerate Tables I and II
//!   and to find the minimum parallelism meeting the WiMAX throughput
//!   requirement.
//!
//! # Example
//!
//! ```
//! use noc_decoder::{DecoderConfig, NocDecoder};
//! use wimax_ldpc::{CodeRate, QcLdpcCode};
//!
//! // The paper's design point: P = 22, D = 3 generalized Kautz.
//! let decoder = NocDecoder::new(DecoderConfig::paper_design_point());
//! let code = QcLdpcCode::wimax(576, CodeRate::R12)?;
//! let eval = decoder.evaluate_ldpc(&code)?;
//! assert!(eval.throughput_mbps > 0.0);
//! assert!(eval.noc_area_mm2 > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod compliance;
pub mod config;
pub mod decoder;
pub mod dse;
pub mod evaluation;
pub mod obs_export;
pub mod throughput;

pub use compliance::{
    run_multi_compliance_sharded, run_multi_compliance_with_store, ComplianceEntry,
    ComplianceReport, ComplianceScope,
};
pub use config::DecoderConfig;
pub use decoder::NocDecoder;
pub use dse::{DesignSpaceExplorer, Table1Row, Table2Row};
pub use evaluation::{DecoderError, DesignEvaluation};
pub use obs_export::{check_obs_json, registry_json, OBS_SECTIONS, REQUIRED_COUNT_METRICS};
pub use throughput::{ldpc_throughput_mbps, turbo_throughput_mbps};

// Re-export the main substrate types so that downstream users (examples,
// benches) can depend on `noc-decoder` alone.
pub use asic_model::{PowerModel, Technology};
pub use code_tables::{Standard, StandardCode};
pub use fec_channel::sim::{BerCurve, BerPoint, EngineConfig, FecCodec, SimulationEngine};
pub use fec_sched::WorkPool;
pub use noc_mapping::{MappingConfig, MappingStore};
pub use noc_sim::{CollisionPolicy, NodeArchitecture, RoutingAlgorithm, TopologyKind};
pub use wimax_ldpc::{CodeRate, QcLdpcCode};
pub use wimax_turbo::CtcCode;

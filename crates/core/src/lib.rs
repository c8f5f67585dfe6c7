//! The flexible NoC-based turbo/LDPC decoder: the paper's primary
//! contribution, as an architectural model.
//!
//! * [`evaluation`] evaluates a design point ([`DecoderConfig`]) on any
//!   code of the multi-standard registry: the code-to-NoC mapping
//!   (`noc-mapping`), the cycle-accurate network simulation (`noc-sim`) and
//!   the cost [`model`] — the paper's calibration as constants, and the
//!   timing, memory, area and power functions over them — give the
//!   throughput (Eq. (12)), area and power of the configuration as the
//!   paper computes them;
//! * a **design-space exploration** driver ([`dse`]) sweeps topologies,
//!   parallelism degrees and routing algorithms to regenerate Tables I and
//!   II and to find the minimum parallelism meeting a standard's throughput
//!   requirement, and [`compliance`] runs every code of a standard at one
//!   design point.
//!
//! Frames are decoded by the functional decoders of `wimax-ldpc` and
//! `wimax-turbo`, whose default configurations carry the paper's 10 LDPC
//! and 8 turbo iterations.
//!
//! # Example
//!
//! ```
//! use noc_decoder::evaluation::evaluate_ldpc;
//! use noc_decoder::{CodeRate, DecoderConfig, MappingStore, QcLdpcCode};
//!
//! // The paper's design point: P = 22, D = 3 generalized Kautz.
//! let config = DecoderConfig::paper_design_point();
//! let code = QcLdpcCode::wimax(576, CodeRate::R12)?;
//! let eval = evaluate_ldpc(&config, &code, &MappingStore::new())?;
//! assert!(eval.throughput_mbps > 0.0);
//! assert!(eval.noc_area_mm2 > 0.0);
//! assert!(eval.power_mw() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod compliance;
pub mod config;
pub mod dse;
pub mod evaluation;
pub mod model;
pub mod obs_export;
pub mod throughput;

pub use compliance::{
    run_multi_compliance_sharded, run_multi_compliance_with_store, ComplianceEntry,
    ComplianceReport, ComplianceScope,
};
pub use config::DecoderConfig;
pub use dse::{DesignSpaceExplorer, Table1Row, Table2Row};
pub use evaluation::{DecoderError, DesignEvaluation};
pub use obs_export::{check_obs_json, registry_json, OBS_SECTIONS, REQUIRED_COUNT_METRICS};
pub use throughput::{ldpc_throughput_mbps, turbo_throughput_mbps};

// Re-export the main substrate types so that downstream users (examples,
// benches) can depend on `noc-decoder` alone.
pub use code_tables::{Standard, StandardCode};
pub use fec_channel::sim::{BerCurve, BerPoint, EngineConfig, FecCodec, SimulationEngine};
pub use fec_sched::WorkPool;
pub use noc_mapping::{MappingConfig, MappingStore};
pub use noc_sim::{CollisionPolicy, NodeArchitecture, RoutingAlgorithm, TopologyKind};
pub use wimax_ldpc::{CodeRate, QcLdpcCode};
pub use wimax_turbo::CtcCode;

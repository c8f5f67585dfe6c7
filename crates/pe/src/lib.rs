//! Architectural models of the processing element (PE) of the NoC-based
//! turbo/LDPC decoder (Section IV of the paper).
//!
//! Each PE contains two decoding cores that share their internal memories:
//!
//! * the **LDPC decoding core** (paper Fig. 2): a sequential datapath that
//!   reads `lambda` and `R` values from memory, extracts the two minima in
//!   the MEU and writes the updated values back;
//! * the **turbo decoding core / SISO** (paper Fig. 3): BMU, a sequential
//!   alpha/beta/b(e) unit, the extrinsic computation unit and the
//!   bit/symbol conversion units, organised in sliding windows.
//!
//! These models do not re-implement the algorithms (that is what the
//! `wimax-ldpc` and `wimax-turbo` crates are for); they capture *timing*
//! (cycles per task, core latency) and *storage* (shared memory sizing),
//! which are the quantities the throughput and area evaluations of the paper
//! need.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod ldpc_core;
pub mod memory;
pub mod siso_core;

pub use ldpc_core::LdpcCoreModel;
pub use memory::SharedMemoryPlan;
pub use siso_core::SisoCoreModel;

//! Shared experiment harness of the benchmark crate: the table builders
//! and printers, flag parsers, JSON writers and timing harness behind the
//! study binaries (`table1`, `table2`, `table3`, `ber_study`), the
//! `wimax_compliance` example and the `kernels` and `engine_scaling`
//! benches.
//!
//! Every Monte-Carlo study routes through the unified parallel
//! [`fec_channel::sim::SimulationEngine`]; see [`ber`].  Results can be
//! written as machine-readable JSON via [`results`].

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod ber;
pub mod cli;
pub mod harness;
pub mod obs;
pub mod results;
pub mod table1;
pub mod table2;
pub mod table3;

pub use ber::{
    dvb_rcs_turbo_codec, ldpc_codec, lte_turbo_codec, print_curve, quantized_ldpc_codec,
    standard_snrs, BerCurve, BerPoint, LdpcFlavor,
};
pub use cli::{
    adaptive_flags_from_args, batch_frames_flag_from_args, exit_with_usage, json_flag_from_args,
    metrics_flags_from_args, standard_flag_from_args, study_engine_config, study_seed,
    workers_flag_from_args, AdaptiveFlags, CommonFlags,
};
pub use harness::{bench, BenchReport};
pub use obs::{
    check_obs_json, registry_json, run_curve_maybe_observed, ObsCollector, ObsOptions,
    REQUIRED_COUNT_METRICS,
};
pub use results::{rows_json, write_json, StreamedRows};
pub use table1::{print_table1, table1_code};
pub use table2::{print_table2, table2_codes};
pub use table3::{print_table3, table3_rows, Table3Row};

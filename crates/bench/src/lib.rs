//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each public function in [`experiments`] runs one experiment on the
//! simulator (or the protocol engines directly) and returns structured
//! results. The [`repro`] registry renders each of them once; the
//! `repro <name|all>` binary prints one entry or the full summary
//! recorded in `EXPERIMENTS.md`. See `DESIGN.md` for the per-experiment
//! index (E1–E10, A1–A5, B1, M1–M2, S1, T1, L1, H1–H2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;
pub mod host_cluster;
pub mod observability;
pub mod repro;
pub mod table;

pub use experiments::*;
pub use harness::bench;
pub use host_cluster::{
    h2_live_migration,
    H2Report,
};
pub use observability::{
    observability_report,
    traced_pingpong_metrics,
    traced_storm_metrics,
};
pub use repro::{
    experiment,
    registry,
    repro_all_report,
    Experiment,
    Report,
    ReproParams,
    EXTRAS,
    REPORT,
};

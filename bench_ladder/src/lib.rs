//! `bench_ladder` — the repository's benchmark.
//!
//! One binary, one workload per invocation. An untraced run measures
//! the five end-to-end metrics at the workload's own layer; a traced run
//! drives the same schedule at every rung at or below it (`crypto` →
//! `engine` → `store` → `session` → `wire`) and prices each. See
//! `README.md` for the tables, the reasons and the calibration.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod hist;
pub mod host;
pub mod json;
pub mod ladder;
pub mod laps;
pub mod record;
pub mod report;
pub mod run;
pub mod schedule;
pub mod spans;
pub mod spec;

/// The rungs: systems under test and the loops that drive them.
pub mod workloads {
    pub mod engine;
    pub mod store;
    pub mod wire;
}

//! Experiment harness for `jpmd`: regenerates every table and figure of
//! the paper's evaluation (TCAD'06 §V; superset of DATE'05 §4) and runs
//! its §VI extension experiments.
//!
//! Each subcommand of the `figures` binary runs one function of
//! [`experiments`], prints the same rows/series the paper reports
//! (normalized against the always-on method), and drops a
//! machine-readable copy under `results/`.
//!
//! Absolute joules will not match the authors' testbed — the disk is a
//! DiskSim-style model and the workload a SPECWeb99 substitute (see
//! `DESIGN.md`) — but the *shapes* are asserted in `EXPERIMENTS.md`:
//! who wins, by roughly what factor, and where the crossovers fall.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use experiments::{ExperimentConfig, WorkloadPoint};
pub use report::{write_json, Row, Table};
pub use runner::{run_queue, MethodError};

//! Rack-as-a-service: the `sprint serve` daemon and the unified job API.
//!
//! The paper's coordinator is an online service — it watches the rack,
//! re-solves the sprinting equilibrium, and broadcasts thresholds
//! continuously. This crate turns the batch reproduction into that
//! shape:
//!
//! - [`jobs`] defines the canonical, versioned [`JobSpec`] / [`JobReport`]
//!   pair. Every CLI subcommand and every HTTP endpoint constructs and
//!   consumes the same types, so a job submitted over HTTP yields a
//!   report byte-identical to the same spec run locally.
//! - [`http`] is a hand-rolled `std::net` HTTP/1.1 layer (the workspace
//!   is offline/vendored — no external server frameworks).
//! - [`daemon`] is the long-lived process: a listener, a queue, worker
//!   threads sharing one process-wide [`EquilibriumCache`]
//!   (single-flight-deduped solves), and a telemetry aggregator
//!   streaming live health snapshots over SSE.
//!
//! Determinism contract: job reports are a function of the [`JobSpec`]
//! alone. Equilibrium solves on the shared cache run *cold*, from
//! `P_trip = 1`, so cache history never leaks into report bytes — see
//! [`sprint_game::EquilibriumCache::solve`].
//!
//! [`JobSpec`]: jobs::JobSpec
//! [`JobReport`]: jobs::JobReport
//! [`EquilibriumCache`]: sprint_game::EquilibriumCache

pub mod admission;
pub mod daemon;
pub mod error;
pub mod harness;
pub mod http;
pub mod jobs;
pub mod journal;

pub use admission::AdmissionConfig;
pub use daemon::{Daemon, DaemonHandle, ServeConfig};
pub use error::ServeError;
pub use jobs::{
    execute, report_json, ChaosMode, ChaosOutcome, ChaosSpec, ExecOptions, JobKind, JobOutcome,
    JobReport, JobSpec, RunSpec, RunSummary, SCHEMA_VERSION,
};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

//! Epoch-driven rack simulator for the computational sprinting game.
//!
//! Reimplements the paper's R-based simulator (§5, "Simulation Methods"):
//! 1000 users per rack, each running a workload whose per-epoch sprint
//! utility comes from calibrated phase processes. The simulator models the
//! full system dynamics — sprints, chip cooling, breaker trips, rack-wide
//! recovery with staggered wake-up — under the paper's four policies:
//!
//! - **Greedy (G)** — sprint at every opportunity ([`policies::Greedy`]).
//! - **Exponential Backoff (E-B)** — greedy with randomized post-trip
//!   backoff that contracts after 100 quiet epochs
//!   ([`policies::ExponentialBackoff`]).
//! - **Equilibrium Threshold (E-T)** — per-type thresholds from the
//!   mean-field game ([`policies::ThresholdPolicy`] +
//!   [`scenario::Scenario::equilibrium_thresholds`]).
//! - **Cooperative Threshold (C-T)** — the globally optimal common
//!   threshold ([`scenario::Scenario::cooperative_policy`]).
//!
//! # Example
//!
//! ```
//! use sprint_sim::scenario::Scenario;
//! use sprint_sim::policy::PolicyKind;
//! use sprint_sim::telemetry::Telemetry;
//! use sprint_workloads::Benchmark;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 200, 300)?;
//! let greedy = scenario.execute(PolicyKind::Greedy, 7, 1, &mut Telemetry::noop())?;
//! let equilibrium = scenario.execute(PolicyKind::EquilibriumThreshold, 7, 1, &mut Telemetry::noop())?;
//! assert!(equilibrium.tasks_per_agent_epoch() > greedy.tasks_per_agent_epoch());
//! # Ok(())
//! # }
//! ```

pub mod cluster;
pub mod control;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod policies;
pub mod policy;
mod pool;
pub mod runner;
pub mod scenario;
pub mod sweep;

mod error;

/// The telemetry subsystem (re-exported): structured tracing, metrics
/// registry, and timing spans. Every unified entry point —
/// [`engine::run_guarded`], [`scenario::Scenario::execute`],
/// [`runner::compare`], [`runner::chaos`], [`sweep::run_sweep_shared`] — takes a
/// [`Telemetry`](telemetry::Telemetry) kit; pass
/// [`Telemetry::noop()`](telemetry::Telemetry::noop) for unobserved runs.
pub use sprint_telemetry as telemetry;

pub use control::{
    ControlConfig, ControlReport, ControlSim, DefenseReport, DetectorConfig, FaultyTransport,
    Transport,
};
pub use engine::{
    CancelToken, Deadline, Interrupt, RecoverySemantics, RunGuard, RunOptions, SimConfig,
};
pub use error::SimError;
pub use faults::{FaultMetrics, FaultPlan, RackPartition, TransportFault};
pub use metrics::SimResult;
pub use policies::{AdversarialPopulation, AdversaryKind, AdversaryMix};
pub use policy::{PolicyKind, SprintPolicy};
pub use runner::{AdversaryReport, AdversaryTrial};
pub use sweep::{NamedAdversaries, SweepRecord, SweepReport, SweepSpec};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SimError>;

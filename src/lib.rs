//! # The Computational Sprinting Game
//!
//! A from-scratch Rust reproduction of *The Computational Sprinting Game*
//! (Fan, Zahedi, Lee — ASPLOS 2016): a rack of chip multiprocessors share a
//! power supply; each chip can *sprint* (activate extra cores at higher
//! frequency) subject to its thermal limits and the rack's circuit breaker;
//! a repeated game with a mean-field equilibrium decides who sprints when.
//!
//! This facade crate re-exports the workspace's crates:
//!
//! - [`stats`] — numerical substrate (densities, KDE, Markov chains).
//! - [`power`] — physical substrate (CMP power, PCM thermal, breaker, UPS).
//! - [`workloads`] — Spark-like workload model and calibrated benchmarks.
//! - [`game`] — the paper's contribution: Bellman solver, threshold
//!   strategies, mean-field equilibrium (Algorithm 1).
//! - [`sim`] — epoch-driven rack simulator with the paper's four policies.
//! - [`telemetry`] — observability: structured event tracing, metrics
//!   registry, and timing spans, zero-cost when disabled.
//!
//! # Quickstart
//!
//! Solve for a sprinting equilibrium and inspect the optimal threshold:
//!
//! ```
//! use computational_sprinting::game::{GameConfig, MeanFieldSolver};
//! use computational_sprinting::telemetry::Telemetry;
//! use computational_sprinting::workloads::Benchmark;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = GameConfig::paper_defaults();
//! let density = Benchmark::DecisionTree.utility_density(256)?;
//! let eq = MeanFieldSolver::new(config).run(&density, &mut Telemetry::noop())?;
//! println!(
//!     "threshold = {:.3}, sprinters = {:.0}, P(trip) = {:.3}",
//!     eq.threshold(),
//!     eq.expected_sprinters(),
//!     eq.trip_probability()
//! );
//! # Ok(())
//! # }
//! ```

pub use sprint_game as game;
pub use sprint_power as power;
pub use sprint_sim as sim;
pub use sprint_stats as stats;
pub use sprint_telemetry as telemetry;
pub use sprint_workloads as workloads;

/// The types most sessions start from.
///
/// ```
/// use computational_sprinting::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let eq = MeanFieldSolver::new(GameConfig::paper_defaults())
///     .run(&Benchmark::Svm.utility_density(256)?, &mut Telemetry::noop())?;
/// assert!(eq.threshold() > 0.0);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use sprint_game::{
        cooperative::CooperativeSearch, coordinator::Coordinator, multi::MultiSolver, Equilibrium,
        GameConfig, MeanFieldSolver, ThresholdStrategy,
    };
    pub use sprint_power::rack::RackConfig;
    pub use sprint_sim::policy::PolicyKind;
    pub use sprint_sim::runner::compare;
    pub use sprint_sim::scenario::Scenario;
    pub use sprint_sim::sweep::{run_sweep_shared, SweepReport, SweepSpec};
    pub use sprint_stats::density::DiscreteDensity;
    pub use sprint_telemetry::Telemetry;
    pub use sprint_workloads::generator::Population;
    pub use sprint_workloads::Benchmark;
}

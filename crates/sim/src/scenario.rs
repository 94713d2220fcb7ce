//! Experiment scenarios: populations, game parameters, and policy
//! construction.
//!
//! A [`Scenario`] bundles a workload population with its game
//! configuration and knows how to build each of the paper's four policies
//! for it — including running Algorithm 1 (E-T) or the exhaustive
//! threshold search (C-T) offline, exactly as the coordinator would.

use sprint_game::cooperative::CooperativeSearch;
use sprint_game::multi::{AgentTypeSpec, MultiSolver};
use sprint_game::{EquilibriumCache, GameConfig, GameError, MeanFieldSolver, ThresholdStrategy};
use sprint_stats::density::DiscreteDensity;
use sprint_workloads::generator::{Arrivals, Population};
use sprint_workloads::Benchmark;

use sprint_telemetry::{Event, Telemetry};

use crate::engine::{
    self, PhaseTrack, RecoverySemantics, RunGuard, RunOptions, SimConfig, TripInterruption,
    UtilityEstimation,
};
use crate::faults::FaultPlan;
use crate::metrics::SimResult;
use crate::policies::{
    AdversarialPopulation, AdversaryMix, ExponentialBackoff, Greedy, ThresholdPolicy,
};
use crate::policy::{PolicyKind, SprintPolicy};
use crate::SimError;

/// Grid resolution for utility densities used by offline solves.
const DENSITY_BINS: usize = 512;

/// The E-T policy's name.
const EQUILIBRIUM: &str = "Equilibrium Threshold";

/// A reproducible experiment setup.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    population: Population,
    game: GameConfig,
    epochs: usize,
    options: RunOptions,
}

impl Scenario {
    /// A homogeneous rack: `n_agents` instances of one benchmark.
    ///
    /// The breaker band scales with the population (`N_min = 0.25 N`,
    /// `N_max = 0.75 N`), with Table-2 values for everything else.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for zero agents or epochs.
    pub fn homogeneous(benchmark: Benchmark, n_agents: u32, epochs: usize) -> crate::Result<Self> {
        let population = Population::homogeneous(benchmark, n_agents as usize)?;
        Scenario::with_population(population, epochs)
    }

    /// A heterogeneous rack: `n_agents` split round-robin across
    /// `benchmarks`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Workload`] for an empty benchmark list and
    /// [`SimError::InvalidParameter`] for zero agents or epochs.
    pub fn heterogeneous(
        benchmarks: &[Benchmark],
        n_agents: u32,
        epochs: usize,
    ) -> crate::Result<Self> {
        let population = Population::heterogeneous(benchmarks, n_agents as usize)?;
        Scenario::with_population(population, epochs)
    }

    /// Build a scenario from an explicit population with the scaled
    /// Table-2 game parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for zero epochs or a game
    /// configuration the builder rejects.
    pub fn with_population(population: Population, epochs: usize) -> crate::Result<Self> {
        let n = population.len() as u32;
        let game = GameConfig::builder()
            .n_agents(n)
            .n_min(f64::from(n) * 0.25)
            .n_max(f64::from(n) * 0.75)
            .build()?;
        Scenario::with_game(population, game, epochs)
    }

    /// Build a scenario with an explicit game configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for zero epochs or a
    /// population that does not match the configuration's `N`.
    pub fn with_game(
        population: Population,
        game: GameConfig,
        epochs: usize,
    ) -> crate::Result<Self> {
        if epochs == 0 {
            return Err(SimError::InvalidParameter {
                name: "epochs",
                value: 0.0,
                expected: "at least one epoch",
            });
        }
        if population.len() != game.n_agents() as usize {
            return Err(SimError::InvalidParameter {
                name: "population",
                value: population.len() as f64,
                expected: "a population matching the game configuration's N",
            });
        }
        Ok(Scenario {
            population,
            game,
            epochs,
            options: RunOptions::default(),
        })
    }

    /// Replace the whole options bundle at once (shared with
    /// [`SimConfig`]; sweep specs carry one [`RunOptions`] value).
    #[must_use]
    pub fn with_options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// The run options.
    #[must_use]
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// Override the recovery semantics (ablation).
    #[must_use]
    pub fn with_recovery(mut self, semantics: RecoverySemantics) -> Self {
        self.options.recovery = semantics;
        self
    }

    /// Override the trip-interruption semantics (ablation).
    #[must_use]
    pub fn with_interruption(mut self, interruption: TripInterruption) -> Self {
        self.options.interruption = interruption;
        self
    }

    /// Override the utility-estimation model (ablation).
    #[must_use]
    pub fn with_estimation(mut self, estimation: UtilityEstimation) -> Self {
        self.options.estimation = estimation;
        self
    }

    /// Attach a fault-injection plan: the engine injects the runtime
    /// faults, and [`CoordinatorStaleness`](crate::faults::CoordinatorStaleness)
    /// additionally skews the population the offline solves assume.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.options.faults = faults;
        self
    }

    /// The fault-injection plan.
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.options.faults
    }

    /// The population.
    #[must_use]
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The game configuration.
    #[must_use]
    pub fn game(&self) -> &GameConfig {
        &self.game
    }

    /// Simulated epochs per run.
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// The game configuration the offline solves use. Under
    /// [`CoordinatorStaleness`](crate::faults::CoordinatorStaleness) the
    /// coordinator solved for an outdated population: `N` (and nothing
    /// else) is scaled by the staleness factor, so thresholds are tuned
    /// for a rack that no longer exists.
    fn solve_game(&self) -> crate::Result<GameConfig> {
        let Some(stale) = self.options.faults.staleness else {
            return Ok(self.game);
        };
        let stale_n = (f64::from(self.game.n_agents()) * stale.population_factor)
            .round()
            .max(1.0) as u32;
        GameConfig::builder()
            .n_agents(stale_n)
            .n_min(self.game.n_min())
            .n_max(self.game.n_max())
            .p_cooling(self.game.p_cooling())
            .p_recovery(self.game.p_recovery())
            .discount(self.game.discount())
            .build()
            .map_err(Into::into)
    }

    /// The multi-type solver's view of the population for `game`: each
    /// type's density and its count, apportioned to `game`'s `N` so the
    /// counts sum to the `N` the solver checks them against (a stale
    /// coordinator solves for a scaled `N`; see [`Scenario::solve_game`]).
    fn type_specs(&self, game: &GameConfig) -> crate::Result<Vec<AgentTypeSpec>> {
        let types = self.population.distinct_types();
        let counts: Vec<u32> = types
            .iter()
            .map(|&b| self.population.count_of(b) as u32)
            .collect();
        types
            .into_iter()
            .zip(apportion(&counts, game.n_agents()))
            .map(|(b, count)| {
                Ok(AgentTypeSpec::new(
                    b.name(),
                    b.utility_density(DENSITY_BINS)?,
                    count,
                ))
            })
            .collect()
    }

    /// Solve the game and build the E-T policy (per-type equilibrium
    /// thresholds, assigned per agent) — the unified entry point. Pass
    /// [`Telemetry::noop()`] for an unobserved solve; with an enabled kit
    /// the homogeneous path streams Algorithm 1's per-iteration residuals
    /// ([`SolverIteration`](sprint_telemetry::Event) events) and the
    /// heterogeneous path reports the multi-type fixed point as a single
    /// `CoordinatorResolve`.
    ///
    /// When Algorithm 1 exhausts every damping escalation
    /// ([`GameError::NonConvergence`]) the coordinator degrades instead of
    /// aborting: agents receive the error's conservative fallback
    /// threshold, which keeps expected sprinters inside the breaker's
    /// never-trip region (§2.2).
    ///
    /// # Errors
    ///
    /// Propagates mean-field solver failures other than recoverable
    /// non-convergence.
    pub fn equilibrium_thresholds(
        &self,
        telemetry: &mut Telemetry,
    ) -> crate::Result<ThresholdPolicy> {
        self.solve_equilibrium(None, telemetry)
            .map(|(policy, _)| policy)
    }

    /// [`Scenario::equilibrium_thresholds`] with the homogeneous solve
    /// memoized through `cache`: repeated sweep trials over the same game
    /// pay for Algorithm 1 once. Also returns a [`SolveSummary`] for
    /// per-cell convergence reporting. The solve narrates nothing.
    ///
    /// A miss runs Algorithm 1 from scratch (cold), so the result —
    /// including the [`SolveSummary`]'s iteration count and residual — is
    /// independent of whatever else the cache holds: reports built
    /// through a long-lived shared cache (the `sprint serve` daemon, the
    /// unified job path) serialize to the same bytes no matter which jobs
    /// ran before them. Cached results are bit-identical to fresh solves
    /// (the solver is deterministic).
    /// Heterogeneous populations solve uncached (the multi-type fixed
    /// point is not yet memoized).
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::equilibrium_thresholds`].
    pub fn equilibrium_policy_cached_cold(
        &self,
        cache: &EquilibriumCache,
    ) -> crate::Result<(ThresholdPolicy, SolveSummary)> {
        self.solve_equilibrium(Some(cache), &mut Telemetry::disabled())
    }

    /// The E-T solve behind both entry points: a homogeneous population
    /// runs Algorithm 1 through `cache` when there is one, else narrated
    /// into `telemetry`; a heterogeneous one runs the multi-type solver
    /// and reports it to `telemetry`.
    fn solve_equilibrium(
        &self,
        cache: Option<&EquilibriumCache>,
        telemetry: &mut Telemetry,
    ) -> crate::Result<(ThresholdPolicy, SolveSummary)> {
        let game = self.solve_game()?;
        let types = self.population.distinct_types();
        if types.len() == 1 {
            let solver = MeanFieldSolver::new(game);
            let density = types[0].utility_density(DENSITY_BINS)?;
            let solved = match cache {
                Some(cache) => cache.solve(&solver, &density),
                None => solver.run(&density, telemetry),
            };
            let (threshold, summary) = match solved {
                Ok(eq) => (
                    eq.threshold(),
                    SolveSummary {
                        converged: true,
                        iterations: eq.iterations(),
                        residual: eq.residual(),
                    },
                ),
                Err(GameError::NonConvergence {
                    iterations,
                    residual,
                    fallback_threshold,
                    ..
                }) => (
                    fallback_threshold,
                    SolveSummary {
                        converged: false,
                        iterations,
                        residual,
                    },
                ),
                Err(e) => return Err(e.into()),
            };
            let strategy = ThresholdStrategy::new(threshold)?;
            let policy = ThresholdPolicy::uniform(EQUILIBRIUM, strategy, self.population.len())?;
            Ok((policy, summary))
        } else {
            let eq = MultiSolver::new(game).solve(&self.type_specs(&game)?)?;
            telemetry.emit(&Event::CoordinatorResolve {
                types: eq.types().len(),
                converged: true,
                iterations: eq.iterations(),
                residual: eq.residual(),
                trip_probability: eq.trip_probability(),
            });
            let summary = SolveSummary {
                converged: true,
                iterations: eq.iterations(),
                residual: eq.residual(),
            };
            let policy = ThresholdPolicy::new(EQUILIBRIUM, self.per_agent_thresholds(&eq)?)?;
            Ok((policy, summary))
        }
    }

    fn per_agent_thresholds(
        &self,
        eq: &sprint_game::multi::HeterogeneousEquilibrium,
    ) -> crate::Result<Vec<f64>> {
        self.population
            .assignments()
            .iter()
            .map(|b| {
                eq.type_named(b.name())
                    .map(|t| t.threshold)
                    .ok_or(SimError::InvalidParameter {
                        name: "population",
                        value: 0.0,
                        expected: "an equilibrium covering every assigned type",
                    })
            })
            .collect::<crate::Result<_>>()
    }

    /// Build the C-T policy: the globally optimal *common* threshold from
    /// exhaustive search.
    ///
    /// For heterogeneous populations the search runs on the population's
    /// mixture density — the paper does not evaluate C-T there because
    /// per-type exhaustive search "is computationally hard" (§6.2); the
    /// common-threshold search is the tractable upper-bound proxy.
    ///
    /// # Errors
    ///
    /// Propagates search failures.
    pub fn cooperative_policy(&self) -> crate::Result<ThresholdPolicy> {
        let density = self.mixture_density()?;
        let ct = CooperativeSearch::default_resolution().solve(&self.solve_game()?, &density)?;
        ThresholdPolicy::uniform(
            "Cooperative Threshold",
            ct.strategy(),
            self.population.len(),
        )
    }

    /// The population's aggregate utility density (count-weighted mixture
    /// of per-type densities).
    ///
    /// # Errors
    ///
    /// Propagates density-construction failures.
    pub fn mixture_density(&self) -> crate::Result<DiscreteDensity> {
        let types = self.population.distinct_types();
        let densities: Vec<(DiscreteDensity, f64)> = types
            .iter()
            .map(|b| {
                Ok((
                    b.utility_density(DENSITY_BINS)?,
                    self.population.count_of(*b) as f64,
                ))
            })
            .collect::<crate::Result<_>>()?;
        if let [(only, _)] = densities.as_slice() {
            return Ok(only.clone());
        }
        let parts: Vec<(&DiscreteDensity, f64)> = densities.iter().map(|(d, w)| (d, *w)).collect();
        DiscreteDensity::mixture(&parts, DENSITY_BINS)
            .map_err(|e| SimError::Workload(sprint_workloads::WorkloadError::Stats(e)))
    }

    /// Build a policy by kind — the unified entry point (only E-T
    /// performs an observable solve; the other kinds construct silently).
    /// Pass [`Telemetry::noop()`] for unobserved construction.
    ///
    /// # Errors
    ///
    /// Propagates offline-solve failures for the threshold policies.
    pub fn policy(
        &self,
        kind: PolicyKind,
        seed: u64,
        telemetry: &mut Telemetry,
    ) -> crate::Result<Box<dyn SprintPolicy>> {
        Ok(match kind {
            PolicyKind::Greedy => Box::new(Greedy::new()),
            PolicyKind::ExponentialBackoff => {
                Box::new(ExponentialBackoff::new(self.population.len(), seed))
            }
            PolicyKind::EquilibriumThreshold => Box::new(self.equilibrium_thresholds(telemetry)?),
            PolicyKind::CooperativeThreshold => Box::new(self.cooperative_policy()?),
        })
    }

    /// Run one simulation of this scenario under `kind` with `seed` — the
    /// unified entry point. The population build
    /// ([`Population::arrivals`]) and the engine's agent kernel fan out
    /// over `jobs` threads; the result is byte-identical at every job
    /// count. Pass [`Telemetry::noop()`] for an unobserved run; with an
    /// enabled kit the offline solve narrates through the recorder first
    /// (residual curves for E-T), then the engine streams per-epoch
    /// events, metrics, and spans into the same [`Telemetry`] bundle.
    ///
    /// Telemetry never alters the simulation: the returned [`SimResult`]
    /// is bit-identical with telemetry on or off.
    ///
    /// # Errors
    ///
    /// Propagates population-build, policy construction and simulation
    /// errors.
    pub fn execute(
        &self,
        kind: PolicyKind,
        seed: u64,
        jobs: usize,
        telemetry: &mut Telemetry,
    ) -> crate::Result<SimResult> {
        let arrivals = self.population.arrivals(seed, jobs)?;
        let honest = AdversaryMix::honest();
        let guard = RunGuard::default();
        self.run_trial(
            kind, seed, &arrivals, None, None, honest, &guard, jobs, telemetry,
        )
        .map(|(result, _)| result)
    }

    /// Run `kind` with `seed` on `arrivals`, this scenario's population
    /// built for `seed` — the one code that turns a policy, a seed and a
    /// build into a run, for Run jobs, sweep and runner trials and
    /// [`Scenario::execute`]. With a `cache`, E-T solves through it cold
    /// and unnarrated and returns its [`SolveSummary`]; without one, the
    /// policy is built narrated into `telemetry` (timed as
    /// `scenario.solve` in an enabled kit). A `mix` with a positive
    /// fraction turns that share of the agents adversarial. The engine
    /// runs under `guard` on `jobs` threads and replays `track`, a
    /// recording the crate's trial pool made of these arrivals, when it
    /// covers the run; callers outside the crate pass `None` and sample
    /// live, with the same result bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates policy construction and simulation errors, and the
    /// guard's.
    #[allow(clippy::too_many_arguments)]
    pub fn run_trial(
        &self,
        kind: PolicyKind,
        seed: u64,
        arrivals: &Arrivals,
        track: Option<&PhaseTrack>,
        cache: Option<&EquilibriumCache>,
        mix: AdversaryMix,
        guard: &RunGuard,
        jobs: usize,
        telemetry: &mut Telemetry,
    ) -> crate::Result<(SimResult, Option<SolveSummary>)> {
        let (mut policy, solve): (Box<dyn SprintPolicy>, _) = match cache {
            Some(cache) if kind == PolicyKind::EquilibriumThreshold => {
                let (policy, summary) = self.equilibrium_policy_cached_cold(cache)?;
                (Box::new(policy), Some(summary))
            }
            Some(_) => (self.policy(kind, seed, telemetry)?, None),
            None => {
                let solve_span = telemetry.enabled().then(|| telemetry.spans.start());
                let policy = self.policy(kind, seed, telemetry)?;
                if let Some(start) = solve_span {
                    telemetry.spans.end("scenario.solve", start);
                }
                (policy, None)
            }
        };
        if mix.fraction > 0.0 {
            policy = Box::new(AdversarialPopulation::new(
                policy,
                mix,
                self.population.len(),
            )?);
        }
        let config = SimConfig::new(self.game, self.epochs, seed)?.with_options(self.options);
        let (result, _) = engine::run_replaying(
            &config,
            arrivals,
            policy.as_mut(),
            guard,
            jobs,
            telemetry,
            track,
        )?;
        Ok((result, solve))
    }
}

/// Split `total` in proportion to `weights` by largest remainder
/// (Hamilton's method): floor every exact quota, then give the units
/// left over to the largest fractional remainders, earlier parts first
/// on ties. Returns `weights` unchanged when `total` is their sum.
fn apportion(weights: &[u32], total: u32) -> Vec<u32> {
    let sum: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let quotas: Vec<(u64, u64)> = weights
        .iter()
        .map(|&w| {
            // Two u32 factors: the product cannot overflow.
            let exact = u64::from(w) * u64::from(total);
            (exact / sum, exact % sum)
        })
        .collect();
    let mut shares: Vec<u32> = quotas.iter().map(|&(whole, _)| whole as u32).collect();
    let left = total - shares.iter().sum::<u32>();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by_key(|&i| std::cmp::Reverse(quotas[i].1));
    for &i in by_remainder.iter().take(left as usize) {
        shares[i] += 1;
    }
    shares
}

/// Convergence facts about one offline solve, for per-cell sweep
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolveSummary {
    /// Whether Algorithm 1 (or the multi-type fixed point) converged; a
    /// `false` here means agents run the conservative fallback threshold.
    pub converged: bool,
    /// Outer iterations spent (across damping escalations on failure).
    pub iterations: usize,
    /// Final (or best) fixed-point residual.
    pub residual: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_scales_band_with_population() {
        let s = Scenario::homogeneous(Benchmark::DecisionTree, 200, 100).unwrap();
        assert_eq!(s.game().n_agents(), 200);
        assert_eq!(s.game().n_min(), 50.0);
        assert_eq!(s.game().n_max(), 150.0);
        assert_eq!(s.epochs(), 100);
    }

    #[test]
    fn validates_epochs_and_population_match() {
        assert!(Scenario::homogeneous(Benchmark::Svm, 10, 0).is_err());
        let pop = Population::homogeneous(Benchmark::Svm, 10).unwrap();
        let game = GameConfig::paper_defaults(); // N = 1000 ≠ 10
        assert!(Scenario::with_game(pop, game, 10).is_err());
    }

    #[test]
    fn equilibrium_policy_is_uniform_for_homogeneous() {
        let s = Scenario::homogeneous(Benchmark::PageRank, 100, 50).unwrap();
        let p = s.equilibrium_thresholds(&mut Telemetry::noop()).unwrap();
        let t0 = p.thresholds()[0];
        assert!(p.thresholds().iter().all(|&t| (t - t0).abs() < 1e-12));
        assert!(t0 > 1.0, "pagerank threshold should be substantial: {t0}");
    }

    #[test]
    fn equilibrium_policy_tailors_types() {
        let s =
            Scenario::heterogeneous(&[Benchmark::LinearRegression, Benchmark::PageRank], 100, 50)
                .unwrap();
        let p = s.equilibrium_thresholds(&mut Telemetry::noop()).unwrap();
        // Round-robin: even agents linear, odd agents pagerank.
        let linear = p.thresholds()[0];
        let pagerank = p.thresholds()[1];
        assert!(
            pagerank > linear,
            "pagerank {pagerank} should exceed linear {linear}"
        );
    }

    #[test]
    fn cooperative_policy_is_common_threshold() {
        let s = Scenario::heterogeneous(&[Benchmark::Svm, Benchmark::Kmeans], 60, 50).unwrap();
        let p = s.cooperative_policy().unwrap();
        let t0 = p.thresholds()[0];
        assert!(p.thresholds().iter().all(|&t| t == t0));
    }

    #[test]
    fn mixture_density_weights_by_count() {
        let s =
            Scenario::heterogeneous(&[Benchmark::LinearRegression, Benchmark::PageRank], 100, 50)
                .unwrap();
        let m = s.mixture_density().unwrap();
        // Half the mass from linear regression's 3-5x band, half from
        // pagerank's bimodal profile — upper tail must be pagerank's.
        assert!(m.tail_mass(8.0) > 0.1);
        assert!(m.tail_mass(3.0) > 0.6);
    }

    #[test]
    fn run_produces_results_for_all_policies() {
        let s = Scenario::homogeneous(Benchmark::DecisionTree, 80, 150).unwrap();
        for kind in PolicyKind::ALL {
            let r = s.execute(kind, 11, 1, &mut Telemetry::noop()).unwrap();
            assert_eq!(r.n_agents(), 80);
            assert_eq!(r.epochs(), 150);
            assert!(r.total_tasks() > 0.0, "{kind}");
        }
    }

    #[test]
    fn traced_run_matches_plain_run_and_narrates_the_solve() {
        use sprint_telemetry::EventKind;

        let s = Scenario::homogeneous(Benchmark::Svm, 60, 120).unwrap();
        let plain = s
            .execute(
                PolicyKind::EquilibriumThreshold,
                7,
                1,
                &mut Telemetry::noop(),
            )
            .unwrap();
        let mut telemetry = Telemetry::in_memory();
        let traced = s
            .execute(PolicyKind::EquilibriumThreshold, 7, 1, &mut telemetry)
            .unwrap();
        assert_eq!(plain, traced, "telemetry must not perturb the simulation");

        let events = telemetry.events().expect("in-memory recorder");
        let kinds: Vec<EventKind> = events.iter().map(sprint_telemetry::Event::kind).collect();
        assert!(kinds.contains(&EventKind::SolverIteration), "{kinds:?}");
        assert!(kinds.contains(&EventKind::SolverOutcome));
        assert!(kinds.contains(&EventKind::RunStart));
        assert!(kinds.contains(&EventKind::RunEnd));
        // The offline solve narrates before the engine starts.
        let solve_pos = kinds
            .iter()
            .position(|&k| k == EventKind::SolverOutcome)
            .unwrap();
        let run_pos = kinds
            .iter()
            .position(|&k| k == EventKind::RunStart)
            .unwrap();
        assert!(solve_pos < run_pos);
        assert!(telemetry.spans.stats("scenario.solve").is_some());
    }

    #[test]
    fn heterogeneous_traced_run_reports_a_coordinator_resolve() {
        let s = Scenario::heterogeneous(&[Benchmark::Svm, Benchmark::Kmeans], 40, 60).unwrap();
        let mut telemetry = Telemetry::in_memory();
        s.execute(PolicyKind::EquilibriumThreshold, 3, 1, &mut telemetry)
            .unwrap();
        let events = telemetry.events().unwrap();
        let resolve = events
            .iter()
            .find_map(|e| match e {
                sprint_telemetry::Event::CoordinatorResolve {
                    types, converged, ..
                } => Some((*types, *converged)),
                _ => None,
            })
            .expect("multi-type solve should emit CoordinatorResolve");
        assert_eq!(resolve, (2, true));
    }

    #[test]
    fn equilibrium_beats_greedy_in_simulation() {
        // The headline claim, at small scale: E-T outperforms G.
        let s = Scenario::homogeneous(Benchmark::DecisionTree, 150, 400).unwrap();
        let g = s
            .execute(PolicyKind::Greedy, 13, 1, &mut Telemetry::noop())
            .unwrap();
        let et = s
            .execute(
                PolicyKind::EquilibriumThreshold,
                13,
                1,
                &mut Telemetry::noop(),
            )
            .unwrap();
        let ratio = et.tasks_per_agent_epoch() / g.tasks_per_agent_epoch();
        assert!(ratio > 2.0, "E-T/G = {ratio}");
    }

    #[test]
    fn cached_equilibrium_policy_matches_fresh_solve() {
        // A homogeneous rack, sweep-grid's three-type population (the
        // multi-type branch, which bypasses the cache) and an svm rack
        // under the stale-coordinator plan (a solve at a scaled N).
        let stale = crate::runner::standard_fault_suite(1)
            .into_iter()
            .find(|p| p.name == "stale-coordinator")
            .unwrap()
            .plan;
        let three_types = [Benchmark::Svm, Benchmark::PageRank, Benchmark::Kmeans];
        let inputs = [
            (
                Scenario::homogeneous(Benchmark::PageRank, 100, 50).unwrap(),
                (1, 1),
            ),
            (
                Scenario::heterogeneous(&three_types, 2000, 50).unwrap(),
                (0, 0),
            ),
            (
                Scenario::homogeneous(Benchmark::Svm, 1000, 50)
                    .unwrap()
                    .with_faults(stale),
                (1, 1),
            ),
        ];
        let bits = |p: &ThresholdPolicy| -> Vec<u64> {
            p.thresholds().iter().map(|t| t.to_bits()).collect()
        };
        for (s, lookups) in inputs {
            let fresh = s.equilibrium_thresholds(&mut Telemetry::noop()).unwrap();
            let narrated = s
                .equilibrium_thresholds(&mut Telemetry::in_memory())
                .unwrap();
            let cache = EquilibriumCache::default();
            let (first, summary) = s.equilibrium_policy_cached_cold(&cache).unwrap();
            let (second, _) = s.equilibrium_policy_cached_cold(&cache).unwrap();
            assert_eq!(bits(&fresh), bits(&narrated));
            assert_eq!(bits(&fresh), bits(&first));
            assert_eq!(bits(&fresh), bits(&second));
            assert!(summary.converged);
            assert!(summary.iterations > 0);
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses), lookups);
        }
    }

    #[test]
    fn cached_heterogeneous_solve_bypasses_the_cache() {
        let s = Scenario::heterogeneous(&[Benchmark::Svm, Benchmark::Kmeans], 40, 60).unwrap();
        let cache = EquilibriumCache::default();
        let (p, summary) = s.equilibrium_policy_cached_cold(&cache).unwrap();
        assert_eq!(p.thresholds().len(), 40);
        assert!(summary.converged);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn apportion_by_largest_remainder() {
        // Unscaled counts come back unchanged.
        assert_eq!(apportion(&[67, 67, 66], 200), vec![67, 67, 66]);
        // 220 × (67, 67, 66) / 200 = (73.7, 73.7, 72.6): the two .7
        // remainders win the leftover units, the earlier part on ties.
        assert_eq!(apportion(&[67, 67, 66], 220), vec![74, 74, 72]);
        assert_eq!(apportion(&[1, 1, 1], 2), vec![1, 1, 0]);
        assert_eq!(apportion(&[3, 1], 1), vec![1, 0]);
        for total in [1, 7, 180, 300, 1_000_003] {
            let shares = apportion(&[67, 67, 66], total);
            assert_eq!(shares.iter().sum::<u32>(), total);
        }
    }
}

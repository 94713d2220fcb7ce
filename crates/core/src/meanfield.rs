//! Mean-field equilibrium solver — the paper's Algorithm 1 (§4.4).
//!
//! The coordinator's offline analysis iterates three steps until the
//! tripping probability is stationary:
//!
//! 1. **Optimize the sprint strategy** — solve the Bellman equation at the
//!    current `P_trip` to get threshold `u_T` ([`crate::bellman`]).
//! 2. **Characterize the sprint distribution** — compute `p_s`, the
//!    stationary active share, and `n_S` ([`crate::sprint_dist`]).
//! 3. **Update the tripping probability** — `P'_trip` from the trip curve
//!    ([`crate::trip`]); stop when `P'_trip = P_trip`.
//!
//! The paper initializes `P⁰_trip = 1` and iterates undamped. Because the
//! best-response map is *increasing* in `P_trip` (riskier racks lower
//! thresholds — §6.5's "ironic" aggression), undamped iteration can cycle;
//! [`SolverOptions::damping`] (an ablation DESIGN.md calls out) averages
//! the update, and a bisection fallback guarantees an answer whenever a
//! fixed point exists.

use sprint_stats::density::DiscreteDensity;
use sprint_telemetry::{Event, EventKind, Recorder, Telemetry};

use crate::bellman::{self, BellmanMethod};
use crate::config::GameConfig;
use crate::equilibrium::Equilibrium;
use crate::sprint_dist::SprintDistribution;
use crate::trip::TripCurve;
use crate::GameError;

/// Options for the mean-field iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Bellman solver used in step 1.
    pub method: BellmanMethod,
    /// Fraction of the tripping-probability update applied per iteration.
    /// `1.0` is the paper's undamped Algorithm 1.
    pub damping: f64,
    /// Convergence tolerance on `|P'_trip − P_trip|`.
    pub tolerance: f64,
    /// Maximum outer iterations before falling back to bisection.
    pub max_iterations: usize,
    /// Hard budget on *total* response-map evaluations across the first
    /// attempt, every damping escalation, and bisection. `None` leaves
    /// the solve unbounded (the historical behavior). This is the
    /// deterministic analog of a solve deadline: the control plane sets
    /// it so a coordinator re-solve can never stall an epoch loop, and
    /// exhaustion surfaces as [`GameError::NonConvergence`] with the
    /// conservative fallback attached.
    pub iteration_budget: Option<usize>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            method: BellmanMethod::PolicyIteration,
            damping: 0.5,
            tolerance: 1e-9,
            max_iterations: 500,
            iteration_budget: None,
        }
    }
}

impl SolverOptions {
    /// The paper's literal Algorithm 1: undamped updates from `P⁰ = 1`,
    /// value-iteration inner solver.
    #[must_use]
    pub fn paper_literal() -> Self {
        SolverOptions {
            method: BellmanMethod::ValueIteration,
            damping: 1.0,
            tolerance: 1e-6,
            max_iterations: 200,
            iteration_budget: None,
        }
    }

    /// Cap total response-map evaluations (builder style).
    #[must_use]
    pub fn with_iteration_budget(mut self, budget: usize) -> Self {
        self.iteration_budget = Some(budget);
        self
    }
}

/// Mean-field equilibrium solver for a homogeneous agent population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanFieldSolver {
    config: GameConfig,
    options: SolverOptions,
}

impl MeanFieldSolver {
    /// Create a solver with default options.
    #[must_use]
    pub fn new(config: GameConfig) -> Self {
        MeanFieldSolver {
            config,
            options: SolverOptions::default(),
        }
    }

    /// Create a solver with explicit options.
    #[must_use]
    pub fn with_options(config: GameConfig, options: SolverOptions) -> Self {
        MeanFieldSolver { config, options }
    }

    /// The game configuration.
    #[must_use]
    pub fn config(&self) -> &GameConfig {
        &self.config
    }

    /// The solver options.
    #[must_use]
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// One composition of Algorithm 1's three steps: threshold, sprint
    /// distribution, and implied tripping probability at `p_trip`.
    fn respond(
        &self,
        density: &DiscreteDensity,
        p_trip: f64,
    ) -> crate::Result<(bellman::BellmanSolution, SprintDistribution, f64)> {
        let sol = bellman::solve(&self.config, density, p_trip, self.options.method)?;
        let strategy = crate::threshold::ThresholdStrategy::new(sol.threshold)?;
        let dist = SprintDistribution::characterize(&self.config, density, &strategy)?;
        let implied = TripCurve::from_config(&self.config).p_trip(dist.expected_sprinters);
        Ok((sol, dist, implied))
    }

    /// Solve for the mean-field equilibrium of `density`, narrated
    /// through a telemetry kit — the unified entry point (pass
    /// [`Telemetry::noop()`] for an unobserved solve).
    ///
    /// The damped iteration retries with progressively heavier damping
    /// before falling back to bisection: threshold quantization makes the
    /// response map discontinuous, so a damping that cycles at one scale
    /// can settle at another. The escalation is bounded; it never spins.
    ///
    /// With an enabled kit this emits one [`Event::SolverIteration`] per
    /// outer iteration (damping, residual, and both trip probabilities),
    /// [`Event::SolverEscalation`] at each damping change,
    /// [`Event::SolverBisection`] when the fixed-point iteration gives way
    /// to bisection, and a final [`Event::SolverOutcome`]. With a disabled
    /// kit emission is gated on [`Recorder::enabled`], so no events are
    /// constructed and the iteration arithmetic is untouched — results are
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::NonConvergence`] when every damping escalation
    /// *and* bisection fail — which the paper predicts for pathological
    /// configurations such as the §6.4 prisoner's dilemma with a breaker
    /// band the population always overwhelms. The error carries the best
    /// iterate found, the full residual history, and a conservative
    /// fallback threshold that keeps expected sprinters below `N_min`
    /// (the breaker's never-trip region, §2.2), so callers can degrade
    /// gracefully instead of aborting.
    pub fn run(
        &self,
        density: &DiscreteDensity,
        telemetry: &mut Telemetry,
    ) -> crate::Result<Equilibrium> {
        self.solve_impl(density, telemetry.recorder())
    }

    pub(crate) fn solve_impl(
        &self,
        density: &DiscreteDensity,
        recorder: &mut dyn Recorder,
    ) -> crate::Result<Equilibrium> {
        // Escalation schedule: the configured damping first, then
        // progressively heavier averaging.
        const ESCALATION: [f64; 4] = [0.5, 0.25, 0.1, 0.02];
        let on = recorder.enabled();
        let want_iter = on && recorder.wants(EventKind::SolverIteration);
        let budget = self.options.iteration_budget.unwrap_or(usize::MAX);
        let mut total_iterations = 0usize;
        let mut best: Option<(f64, f64, f64)> = None; // (residual, p, threshold)
        let mut history: Vec<f64> = Vec::new();
        let mut attempt_idx = 0u32;
        let mut attempt = |damping: f64,
                           max_iterations: usize,
                           total: &mut usize,
                           best: &mut Option<(f64, f64, f64)>,
                           history: &mut Vec<f64>,
                           recorder: &mut dyn Recorder|
         -> crate::Result<Option<Equilibrium>> {
            let attempt_no = attempt_idx;
            attempt_idx += 1;
            // Algorithm 1 starts from certain tripping.
            let mut p = 1.0;
            for _ in 0..max_iterations {
                if *total >= budget {
                    return Ok(None);
                }
                let (sol, dist, implied) = self.respond(density, p)?;
                *total += 1;
                let residual = (implied - p).abs();
                history.push(residual);
                if want_iter {
                    recorder.record(&Event::SolverIteration {
                        attempt: attempt_no,
                        iteration: *total,
                        damping,
                        p_trip: p,
                        implied,
                        residual,
                    });
                }
                if best.is_none_or(|(r, _, _)| residual < r) {
                    *best = Some((residual, p, sol.threshold));
                }
                if residual < self.options.tolerance {
                    return Ok(Some(Equilibrium {
                        threshold: sol.threshold,
                        p_trip: p,
                        distribution: dist,
                        values: sol.values,
                        iterations: *total,
                        residual,
                    }));
                }
                p = (p + damping * (implied - p)).clamp(0.0, 1.0);
            }
            Ok(None)
        };

        let outcome = |recorder: &mut dyn Recorder, eq: &Equilibrium| {
            if recorder.enabled() {
                recorder.record(&Event::SolverOutcome {
                    converged: true,
                    iterations: eq.iterations,
                    residual: eq.residual,
                    threshold: eq.threshold,
                });
            }
        };

        if let Some(eq) = attempt(
            self.options.damping,
            self.options.max_iterations,
            &mut total_iterations,
            &mut best,
            &mut history,
            recorder,
        )? {
            outcome(recorder, &eq);
            return Ok(eq);
        }
        for damping in ESCALATION {
            if damping == self.options.damping {
                continue;
            }
            if on {
                recorder.record(&Event::SolverEscalation { damping });
            }
            let retry_iterations = self.options.max_iterations.max(200);
            if let Some(eq) = attempt(
                damping,
                retry_iterations,
                &mut total_iterations,
                &mut best,
                &mut history,
                recorder,
            )? {
                outcome(recorder, &eq);
                return Ok(eq);
            }
        }
        // Bisection fallback on g(p) = implied(p) − p, which brackets a
        // root on [0, 1] whenever the response map is continuous. An
        // exhausted iteration budget skips it: the caller asked for a
        // bounded solve, and bisection costs hundreds more evaluations.
        if total_iterations < budget {
            if on {
                recorder.record(&Event::SolverBisection);
            }
            if let Some(eq) = self.bisect(density) {
                outcome(recorder, &eq);
                return Ok(eq);
            }
        }
        let (residual, best_p, best_threshold) = best.unwrap_or((f64::INFINITY, 1.0, 0.0));
        let fallback_threshold = self.conservative_threshold(density);
        if on {
            recorder.record(&Event::SolverOutcome {
                converged: false,
                iterations: total_iterations,
                residual,
                threshold: fallback_threshold,
            });
        }
        Err(GameError::NonConvergence {
            iterations: total_iterations,
            residual,
            best_threshold,
            best_trip_probability: best_p,
            fallback_threshold,
            residual_history: history,
        })
    }

    /// A threshold safe under *any* dynamics: even if every agent were
    /// active every epoch, expected sprinters `N · P(u ≥ u_T)` stay at or
    /// below `0.9 · N_min`, inside the breaker's never-trip region (§2.2).
    ///
    /// This is the degradation target carried by
    /// [`GameError::NonConvergence`]; it is also useful on its own as a
    /// provably breaker-safe operating point.
    #[must_use]
    pub fn conservative_threshold(&self, density: &DiscreteDensity) -> f64 {
        let n = f64::from(self.config.n_agents());
        let target = 0.9 * self.config.n_min();
        let safe = |u: f64| n * density.tail_mass(u) <= target;
        if safe(0.0) {
            return 0.0;
        }
        // tail_mass is non-increasing in u: bracket then bisect.
        let mut hi = 1.0f64;
        while !safe(hi) && hi < 1e12 {
            hi *= 2.0;
        }
        let mut lo = 0.0f64;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if safe(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    fn bisect(&self, density: &DiscreteDensity) -> Option<Equilibrium> {
        let g = |p: f64| -> Option<f64> {
            let (_, _, implied) = self.respond(density, p).ok()?;
            Some(implied - p)
        };
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        let g_lo = g(lo)?;
        let g_hi = g(hi)?;
        if g_lo.abs() < self.options.tolerance {
            hi = lo;
        } else if g_hi.abs() >= self.options.tolerance && g_lo.signum() == g_hi.signum() {
            return None;
        }
        for _ in 0..200 {
            if hi - lo < 1e-12 {
                break;
            }
            let mid = 0.5 * (lo + hi);
            let g_mid = g(mid)?;
            if g_mid.abs() < self.options.tolerance {
                lo = mid;
                hi = mid;
                break;
            }
            if g_mid.signum() == g_lo.signum() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let p = 0.5 * (lo + hi);
        let (sol, dist, implied) = self.respond(density, p).ok()?;
        let residual = (implied - p).abs();
        // Accept only true fixed points: bisection can "converge" onto a
        // discontinuity that is not an equilibrium.
        if residual > 1e-4 {
            return None;
        }
        Some(Equilibrium {
            threshold: sol.threshold,
            p_trip: p,
            distribution: dist,
            values: sol.values,
            iterations: self.options.max_iterations,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_workloads::Benchmark;

    fn solve_benchmark(b: Benchmark) -> Equilibrium {
        let cfg = GameConfig::paper_defaults();
        MeanFieldSolver::new(cfg)
            .run(&b.utility_density(512).unwrap(), &mut Telemetry::noop())
            .unwrap()
    }

    #[test]
    fn all_benchmarks_reach_equilibrium() {
        let cfg = GameConfig::paper_defaults();
        for b in Benchmark::ALL {
            let eq = solve_benchmark(b);
            let check = eq
                .verify(&cfg, &b.utility_density(512).unwrap(), 60)
                .unwrap();
            assert!(
                check.holds(1e-4),
                "{b}: check = {check:?} at threshold {}",
                eq.threshold()
            );
        }
    }

    #[test]
    fn narrow_band_benchmarks_sprint_always() {
        // Figure 11: Linear Regression and Correlation sprint at every
        // opportunity; E-T degenerates to a greedy equilibrium (§6.2).
        for b in [Benchmark::LinearRegression, Benchmark::Correlation] {
            let eq = solve_benchmark(b);
            assert!(
                eq.sprint_probability() > 0.97,
                "{b}: p_s = {}",
                eq.sprint_probability()
            );
        }
    }

    #[test]
    fn most_benchmarks_sprint_judiciously() {
        // Figure 11: "The majority of applications resemble PageRank with
        // higher thresholds and judicious sprints."
        let mut judicious = 0;
        for b in Benchmark::ALL {
            let eq = solve_benchmark(b);
            if eq.sprint_probability() < 0.8 {
                judicious += 1;
            }
        }
        assert!(judicious >= 8, "only {judicious} of 11 sprint judiciously");
    }

    #[test]
    fn equilibrium_sprinters_near_band_edge() {
        // Figure 6: "in equilibrium, the number of sprinters is just
        // slightly above N_min = 250" for the representative app.
        let eq = solve_benchmark(Benchmark::DecisionTree);
        let ns = eq.expected_sprinters();
        assert!(
            (200.0..=350.0).contains(&ns),
            "decision tree equilibrium n_S = {ns}"
        );
        assert!(
            eq.trip_probability() < 0.25,
            "P = {}",
            eq.trip_probability()
        );
    }

    #[test]
    fn equilibrium_is_consistent_fixed_point() {
        let cfg = GameConfig::paper_defaults();
        let d = Benchmark::Svm.utility_density(512).unwrap();
        let eq = MeanFieldSolver::new(cfg)
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        // Re-deriving P from n_S reproduces the equilibrium P.
        let p = TripCurve::from_config(&cfg).p_trip(eq.expected_sprinters());
        assert!((p - eq.trip_probability()).abs() < 1e-6);
        assert!(eq.residual() < 1e-4);
        assert!(eq.iterations() >= 1);
    }

    #[test]
    fn damped_and_literal_algorithms_agree() {
        let cfg = GameConfig::paper_defaults();
        let d = Benchmark::PageRank.utility_density(512).unwrap();
        let damped = MeanFieldSolver::new(cfg)
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        let literal = MeanFieldSolver::with_options(cfg, SolverOptions::paper_literal())
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        assert!(
            (damped.threshold() - literal.threshold()).abs() < 0.05,
            "damped {} vs literal {}",
            damped.threshold(),
            literal.threshold()
        );
        assert!((damped.trip_probability() - literal.trip_probability()).abs() < 0.02);
    }

    #[test]
    fn small_band_raises_aggression() {
        // Figure 13: small N_min/N_max => high P(trip) => lower thresholds
        // ("agents sprint more aggressively and extract performance now").
        let d = Benchmark::DecisionTree.utility_density(512).unwrap();
        let small = GameConfig::builder()
            .n_min(50.0)
            .n_max(150.0)
            .build()
            .unwrap();
        let big = GameConfig::builder()
            .n_min(450.0)
            .n_max(950.0)
            .build()
            .unwrap();
        let eq_small = MeanFieldSolver::new(small)
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        let eq_big = MeanFieldSolver::new(big)
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        assert!(
            eq_small.threshold() < eq_big.threshold(),
            "small-band threshold {} should be below big-band {}",
            eq_small.threshold(),
            eq_big.threshold()
        );
        assert!(eq_small.trip_probability() > eq_big.trip_probability());
    }

    #[test]
    fn indefinite_recovery_still_yields_mean_field_fixed_point() {
        // §6.4: with p_r = 1 the *mean-field* fixed point exists but has
        // P_trip > 0 — the system eventually trips into indefinite
        // recovery. (The inefficiency shows up in throughput, Figure 12.)
        // Linear Regression exhibits it sharply: its agents sprint every
        // epoch regardless, so n_S sits above N_min at any P_trip.
        let cfg = GameConfig::builder().p_recovery(1.0).build().unwrap();
        let d = Benchmark::LinearRegression.utility_density(512).unwrap();
        let eq = MeanFieldSolver::new(cfg)
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        assert!(
            eq.trip_probability() > 0.0,
            "no equilibrium avoids tripping: P = {}",
            eq.trip_probability()
        );
    }

    #[test]
    fn strategy_round_trips() {
        let eq = solve_benchmark(Benchmark::Kmeans);
        let s = eq.strategy();
        assert_eq!(s.threshold(), eq.threshold());
    }

    #[test]
    fn equilibrium_serde_round_trip() {
        // The coordinator can archive and re-load solved equilibria.
        let eq = solve_benchmark(Benchmark::Svm);
        let json = serde_json::to_string(&eq).unwrap();
        let back: Equilibrium = serde_json::from_str(&json).unwrap();
        assert_eq!(eq, back);
        assert_eq!(back.threshold(), eq.threshold());
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use crate::threshold::ThresholdStrategy;
    use sprint_workloads::Benchmark;

    #[test]
    fn escalation_rescues_a_diverging_first_attempt() {
        // Near-zero damping with a one-iteration budget pins the first
        // attempt at P = 1, which is not a fixed point for SVM; the
        // escalation schedule must take over and still find the same
        // equilibrium as the default solver.
        let cfg = GameConfig::paper_defaults();
        let d = Benchmark::Svm.utility_density(512).unwrap();
        let crippled = SolverOptions {
            damping: 1e-6,
            max_iterations: 1,
            ..SolverOptions::default()
        };
        let eq = MeanFieldSolver::with_options(cfg, crippled)
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        assert!(
            eq.iterations() > 1,
            "escalation retries must run past the 1-iteration first attempt"
        );
        let reference = MeanFieldSolver::new(cfg)
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        assert!(
            (eq.threshold() - reference.threshold()).abs() < 1e-6,
            "escalated solve {} must match reference {}",
            eq.threshold(),
            reference.threshold()
        );
    }

    #[test]
    fn pathological_step_map_still_solves() {
        // A two-atom utility density with a needle-thin breaker band makes
        // the response map a 0/1 step — the sharpest discontinuity the
        // model can produce (the 6.4 prisoner's-dilemma regime). The
        // response map is monotone in P (thresholds fall as risk rises,
        // 6.5), so a fixed point exists and the solver must find it
        // rather than panic or err.
        let mut pdf = vec![0.0; 20];
        pdf[2] = 0.6;
        pdf[16] = 0.4;
        let d = DiscreteDensity::new(0.0, 10.0, pdf).unwrap();
        let cfg = GameConfig::builder()
            .n_agents(1000)
            .n_min(400.0)
            .n_max(410.0)
            .p_cooling(0.3)
            .p_recovery(0.99)
            .discount(0.9)
            .build()
            .unwrap();
        let eq = MeanFieldSolver::new(cfg)
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        assert!(eq.residual() < 1e-4);
        // The step lands on an endpoint equilibrium: either nobody trips
        // or the rack lives in the always-trip dilemma.
        assert!(
            eq.trip_probability() < 1e-9 || eq.trip_probability() > 1.0 - 1e-9,
            "step-map equilibrium P = {}",
            eq.trip_probability()
        );
    }

    #[test]
    fn conservative_threshold_is_breaker_safe() {
        // The degradation target must keep expected sprinters inside the
        // never-trip region even if every agent were active every epoch.
        let cfg = GameConfig::paper_defaults();
        let solver = MeanFieldSolver::new(cfg);
        for b in Benchmark::ALL {
            let d = b.utility_density(512).unwrap();
            let u = solver.conservative_threshold(&d);
            let worst_case = f64::from(cfg.n_agents()) * d.tail_mass(u);
            assert!(
                worst_case <= 0.9 * cfg.n_min() + 1e-6,
                "{b}: {worst_case} sprinters at fallback threshold {u}"
            );
            assert!(
                ThresholdStrategy::new(u).is_ok(),
                "{b}: fallback threshold must be a valid strategy"
            );
            assert!(
                TripCurve::from_config(&cfg).p_trip(worst_case) == 0.0,
                "{b}: fallback must sit strictly below the trip band"
            );
        }
    }

    #[test]
    fn conservative_threshold_is_zero_when_everything_is_safe() {
        // A tiny population can all sprint without approaching N_min.
        let cfg = GameConfig::builder()
            .n_agents(10)
            .n_min(250.0)
            .n_max(750.0)
            .build()
            .unwrap();
        let d = Benchmark::DecisionTree.utility_density(128).unwrap();
        assert_eq!(MeanFieldSolver::new(cfg).conservative_threshold(&d), 0.0);
    }

    #[test]
    fn non_convergence_error_is_actionable() {
        // The typed error must carry everything a caller needs to degrade
        // gracefully: diagnostics plus a directly usable fallback.
        let err = GameError::NonConvergence {
            iterations: 1300,
            residual: 0.37,
            best_threshold: 2.1,
            best_trip_probability: 0.45,
            fallback_threshold: 6.25,
            residual_history: vec![0.9, 0.61, 0.37],
        };
        let msg = err.to_string();
        assert!(
            msg.contains("1300"),
            "message names the iteration budget: {msg}"
        );
        assert!(msg.contains("6.25"), "message names the fallback: {msg}");
        assert!(
            msg.contains("3 residuals"),
            "message names the recorded history: {msg}"
        );
        if let GameError::NonConvergence {
            fallback_threshold,
            residual_history,
            ..
        } = err
        {
            let strategy = ThresholdStrategy::new(fallback_threshold).unwrap();
            assert!(!strategy.should_sprint(6.25));
            assert_eq!(residual_history.last(), Some(&0.37));
        } else {
            unreachable!();
        }
    }

    #[test]
    fn observed_solve_matches_plain_solve_and_narrates() {
        use sprint_telemetry::EventKind;

        let cfg = GameConfig::paper_defaults();
        let d = Benchmark::Svm.utility_density(512).unwrap();
        let solver = MeanFieldSolver::new(cfg);
        let plain = solver.run(&d, &mut Telemetry::noop()).unwrap();
        let mut kit = Telemetry::in_memory();
        let observed = solver.run(&d, &mut kit).unwrap();
        assert_eq!(plain, observed, "observation must not perturb the solve");

        let events = kit.events().unwrap();
        let iters = events
            .iter()
            .filter(|e| e.kind() == EventKind::SolverIteration)
            .count();
        assert_eq!(iters, observed.iterations(), "one event per iteration");
        match events.last().unwrap() {
            Event::SolverOutcome {
                converged,
                iterations,
                residual,
                ..
            } => {
                assert!(*converged);
                assert_eq!(*iterations, observed.iterations());
                assert!((*residual - observed.residual()).abs() < 1e-15);
            }
            other => panic!("last event must be the outcome, got {other:?}"),
        }
        // The per-iteration residuals form a usable convergence curve.
        let last_residual = events
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::SolverIteration { residual, .. } => Some(*residual),
                _ => None,
            })
            .unwrap();
        assert!(last_residual < 1e-9);
    }

    #[test]
    fn iteration_budget_bounds_the_solve_and_carries_the_fallback() {
        // An exhausted budget is the deterministic analog of a solve
        // deadline: the solver must stop promptly, skip bisection, and
        // hand back the conservative fallback for graceful degradation.
        let cfg = GameConfig::paper_defaults();
        let d = Benchmark::Svm.utility_density(512).unwrap();
        let strangled = SolverOptions {
            tolerance: -1.0, // unreachable: forces the budget to bind
            ..SolverOptions::default()
        }
        .with_iteration_budget(7);
        let err = MeanFieldSolver::with_options(cfg, strangled)
            .run(&d, &mut Telemetry::noop())
            .unwrap_err();
        match err {
            GameError::NonConvergence {
                iterations,
                fallback_threshold,
                ..
            } => {
                assert_eq!(iterations, 7, "budget must cap total evaluations");
                let reference = MeanFieldSolver::new(cfg).conservative_threshold(&d);
                assert_eq!(fallback_threshold, reference);
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
        // A generous budget leaves a convergent solve untouched.
        let roomy = SolverOptions::default().with_iteration_budget(100_000);
        let budgeted = MeanFieldSolver::with_options(cfg, roomy)
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        let plain = MeanFieldSolver::new(cfg)
            .run(&d, &mut Telemetry::noop())
            .unwrap();
        assert_eq!(budgeted, plain);
    }
}

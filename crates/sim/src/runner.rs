//! Multi-trial experiment runner.
//!
//! The paper reports averages over repeated randomized runs (e.g.
//! Figure 9 repeats each mix ten times). [`compare`] runs a scenario
//! under several policies across several seeds and aggregates the
//! metrics; [`chaos`] crosses that with fault plans; [`resilience`] and
//! [`adversary_defense`] repeat control-plane trials per seed. Every
//! suite runs its trials on the bounded trial pool within the caller's
//! thread budget and aggregates them in trial order, so a report is
//! byte-identical at every budget. For full cartesian grids over games,
//! populations, and options, see [`crate::sweep`].

use sprint_stats::summary::{confidence_interval_95, ConfidenceInterval, OnlineStats};
use sprint_telemetry::Telemetry;

use crate::control::{ControlConfig, ControlReport, ControlSim, DetectorConfig};
use crate::engine::RunGuard;
use crate::faults::{FaultMetrics, FaultPlan};
use crate::policies::AdversaryMix;
use crate::policy::PolicyKind;
use crate::pool::{self, BuiltPopulation};
use crate::scenario::Scenario;
use crate::SimError;

/// Aggregated outcome of one policy across trials.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PolicyOutcome {
    /// The policy.
    pub policy: PolicyKind,
    /// Mean task throughput per agent-epoch across trials.
    pub tasks_per_agent_epoch: f64,
    /// Standard deviation of the throughput across trials.
    pub tasks_std_dev: f64,
    /// 95 % Student-t confidence interval of the throughput across trials
    /// (`None` when only one trial was run).
    pub tasks_ci: Option<ConfidenceInterval>,
    /// Mean occupancy fractions `[active idle, cooling, recovery,
    /// sprinting]`.
    pub occupancy: [f64; 4],
    /// Mean sprinters per epoch.
    pub mean_sprinters: f64,
    /// Mean breaker trips per run.
    pub trips: f64,
    /// Per-fault counters summed across trials (all zero without an
    /// active fault plan).
    pub faults: FaultMetrics,
}

/// A full policy comparison with Greedy-normalized throughput.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Comparison {
    outcomes: Vec<PolicyOutcome>,
}

impl Comparison {
    /// Per-policy outcomes in the order requested.
    #[must_use]
    pub fn outcomes(&self) -> &[PolicyOutcome] {
        &self.outcomes
    }

    /// Outcome for a specific policy.
    #[must_use]
    pub fn outcome(&self, policy: PolicyKind) -> Option<&PolicyOutcome> {
        self.outcomes.iter().find(|o| o.policy == policy)
    }

    /// Throughput normalized to Greedy (the paper's Figure 8/9 metric),
    /// or `None` when Greedy was not among the compared policies.
    #[must_use]
    pub fn normalized_to_greedy(&self, policy: PolicyKind) -> Option<f64> {
        let greedy = self.outcome(PolicyKind::Greedy)?.tasks_per_agent_epoch;
        let target = self.outcome(policy)?.tasks_per_agent_epoch;
        if greedy <= 0.0 {
            return None;
        }
        Some(target / greedy)
    }
}

/// What [`aggregate`] reads from one trial's
/// [`SimResult`](crate::metrics::SimResult). Suites keep this instead of
/// the result, so they hold no per-epoch series.
struct TrialFacts {
    tasks: f64,
    occupancy: [f64; 4],
    sprinters: f64,
    trips: u32,
    faults: FaultMetrics,
}

fn aggregate(policy: PolicyKind, trials: &[TrialFacts]) -> PolicyOutcome {
    let per_trial: Vec<f64> = trials.iter().map(|t| t.tasks).collect();
    let tasks: OnlineStats = per_trial.iter().copied().collect();
    let tasks_ci = confidence_interval_95(&per_trial).ok();
    let mut occupancy = [0.0f64; 4];
    for t in trials {
        for (acc, x) in occupancy.iter_mut().zip(t.occupancy) {
            *acc += x;
        }
    }
    for acc in &mut occupancy {
        *acc /= trials.len() as f64;
    }
    let mut faults = FaultMetrics::default();
    for t in trials {
        let f = t.faults;
        faults.crashes += f.crashes;
        faults.restarts += f.restarts;
        faults.crashed_agent_epochs += f.crashed_agent_epochs;
        faults.stuck_epochs += f.stuck_epochs;
        faults.sensor_dropouts += f.sensor_dropouts;
        faults.spurious_trips += f.spurious_trips;
        faults.missed_trips += f.missed_trips;
    }
    PolicyOutcome {
        policy,
        tasks_per_agent_epoch: tasks.mean(),
        tasks_std_dev: tasks.std_dev(),
        tasks_ci,
        occupancy,
        mean_sprinters: trials.iter().map(|t| t.sprinters).sum::<f64>() / trials.len() as f64,
        trips: trials.iter().map(|t| f64::from(t.trips)).sum::<f64>() / trials.len() as f64,
        faults,
    }
}

/// Run `scenario` under each policy for every seed, within a budget of
/// `jobs` threads (0 means the available cores), and aggregate — the
/// unified entry point. Pass [`Telemetry::noop()`] for an unprofiled
/// comparison; with a kit attached, each trial's duration accumulates in
/// the kit's span profile under `trial.<policy>` (plus `runner.compare`
/// for the whole comparison), the population builds under the
/// `runner.population_builds` counter, and the phase trajectories
/// recorded and the trials that replayed one under `runner.phase_tracks`
/// and `runner.phase_replays`.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for empty `policies`/`seeds`
/// and propagates the first simulation error in trial order.
pub fn compare(
    scenario: &Scenario,
    policies: &[PolicyKind],
    seeds: &[u64],
    jobs: usize,
    telemetry: &mut Telemetry,
) -> crate::Result<Comparison> {
    let mut legs = compare_legs(
        std::slice::from_ref(scenario),
        policies,
        seeds,
        jobs,
        telemetry,
    )?;
    Ok(legs.remove(0))
}

/// Compare every leg (one scenario each) in one pass on the trial pool.
/// Trial `(leg × policies + policy) × seeds + seed` runs `policy` on the
/// leg for `seed`. Workers take the trials grouped by seed, so each
/// builds a seed's population once and runs the seed's other trials on
/// clones, which replay the seed's phase trajectory when each worker
/// runs enough of them to record it; every leg shares the population,
/// since legs differ only in their run options.
fn compare_legs(
    legs: &[Scenario],
    policies: &[PolicyKind],
    seeds: &[u64],
    jobs: usize,
    telemetry: &mut Telemetry,
) -> crate::Result<Vec<Comparison>> {
    if policies.is_empty() {
        return Err(SimError::InvalidParameter {
            name: "policies",
            value: 0.0,
            expected: "at least one policy",
        });
    }
    if seeds.is_empty() {
        return Err(SimError::InvalidParameter {
            name: "seeds",
            value: 0.0,
            expected: "at least one seed",
        });
    }

    let per_leg = policies.len() * seeds.len();
    let mut order: Vec<usize> = (0..legs.len() * per_leg).collect();
    order.sort_by_key(|&id| id % seeds.len());
    let (workers, intra_jobs) = pool::thread_budget(jobs, order.len());
    let started = std::time::Instant::now();
    let drained = pool::run(
        (0..workers)
            .map(|_| BuiltPopulation::new(order.len(), seeds.len(), workers))
            .collect(),
        &order,
        "policy comparison trial",
        |built, id| {
            let leg = &legs[id / per_leg];
            let policy = policies[id / seeds.len() % policies.len()];
            let seed = seeds[id % seeds.len()];
            let (arrivals, track) = built.arrivals(
                0,
                leg.population(),
                seed,
                intra_jobs,
                leg.epochs(),
                &mut RunGuard::default(),
            )?;
            leg.execute_on(
                arrivals,
                policy,
                seed,
                intra_jobs,
                &mut Telemetry::noop(),
                track,
            )
            .map(|r| TrialFacts {
                tasks: r.tasks_per_agent_epoch(),
                occupancy: r.occupancy().fractions(),
                sprinters: r.mean_sprinters(),
                trips: r.trips(),
                faults: r.faults(),
            })
        },
    );
    telemetry
        .spans
        .record_nanos("runner.compare", started.elapsed().as_nanos() as u64);
    if telemetry.enabled() {
        let built = drained.workers.iter().map(|w| &w.state);
        pool::export_builds(built, "runner", &mut telemetry.registry);
    }

    let mut results = drained.results.into_iter();
    let mut comparisons = Vec::with_capacity(legs.len());
    for _ in legs {
        let mut outcomes = Vec::with_capacity(policies.len());
        for &policy in policies {
            let mut runs = Vec::with_capacity(seeds.len());
            for (result, nanos) in results.by_ref().take(seeds.len()) {
                runs.push(result?);
                telemetry
                    .spans
                    .record_nanos(&format!("trial.{policy}"), nanos);
            }
            outcomes.push(aggregate(policy, &runs));
        }
        comparisons.push(Comparison { outcomes });
    }
    Ok(comparisons)
}

/// A fault plan with a display name, for chaos-matrix axes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NamedPlan {
    /// Human-readable plan name (unique within a suite).
    pub name: String,
    /// The fault plan.
    pub plan: FaultPlan,
}

/// The standard single-fault plans plus the composite mix, all built from
/// [`FaultPlan::composite`]'s component intensities.
#[must_use]
pub fn standard_fault_suite(seed: u64) -> Vec<NamedPlan> {
    let composite = FaultPlan::composite(seed);
    let single = |name: &str, f: &dyn Fn(&mut FaultPlan)| {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::none()
        };
        f(&mut plan);
        NamedPlan {
            name: name.to_string(),
            plan,
        }
    };
    vec![
        single("crash-churn", &|p| p.crash = composite.crash),
        single("stuck-sprinters", &|p| p.stuck = composite.stuck),
        single("sensor-noise", &|p| p.sensor = composite.sensor),
        single("breaker-drift", &|p| {
            p.breaker_drift = composite.breaker_drift
        }),
        single("stale-coordinator", &|p| p.staleness = composite.staleness),
        NamedPlan {
            name: "composite".to_string(),
            plan: composite,
        },
    ]
}

/// One cell of the chaos matrix: one policy under one fault plan.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosCell {
    /// The policy.
    pub policy: PolicyKind,
    /// The fault plan's name.
    pub plan: String,
    /// Mean throughput per agent-epoch under the faults.
    pub tasks_per_agent_epoch: f64,
    /// Mean throughput of the same policy with no faults.
    pub baseline_tasks_per_agent_epoch: f64,
    /// Faulty throughput over fault-free throughput (1.0 = unharmed,
    /// 0.0 when the baseline itself produced nothing).
    pub degradation: f64,
    /// Mean breaker trips per run under the faults.
    pub trips: f64,
    /// Per-fault counters summed across trials.
    pub faults: FaultMetrics,
}

/// The full policy × fault-plan resilience report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChaosReport {
    plans: Vec<NamedPlan>,
    baseline: Vec<PolicyOutcome>,
    cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// The fault plans exercised, in matrix order.
    #[must_use]
    pub fn plans(&self) -> &[NamedPlan] {
        &self.plans
    }

    /// Fault-free outcomes per policy.
    #[must_use]
    pub fn baseline(&self) -> &[PolicyOutcome] {
        &self.baseline
    }

    /// All matrix cells, plan-major.
    #[must_use]
    pub fn cells(&self) -> &[ChaosCell] {
        &self.cells
    }

    /// The cell for one policy under one named plan.
    #[must_use]
    pub fn cell(&self, policy: PolicyKind, plan: &str) -> Option<&ChaosCell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.plan == plan)
    }
}

/// Run the policy × fault-plan chaos matrix: every policy under every
/// plan across every seed, compared against the same policies' fault-free
/// baseline — the unified entry point. The baseline and every plan run
/// as one pass on the trial pool within a budget of `jobs` threads (0
/// means the available cores), building each seed's population once per
/// worker. Pass [`Telemetry::noop()`] for an unprofiled matrix; with a
/// kit attached, trial durations accumulate in its span profile under
/// `trial.<policy>` across the baseline and every fault plan.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for empty inputs or an invalid
/// fault plan, and propagates the first simulation error in trial order.
pub fn chaos(
    scenario: &Scenario,
    policies: &[PolicyKind],
    plans: &[NamedPlan],
    seeds: &[u64],
    jobs: usize,
    telemetry: &mut Telemetry,
) -> crate::Result<ChaosReport> {
    if plans.is_empty() {
        return Err(SimError::InvalidParameter {
            name: "plans",
            value: 0.0,
            expected: "at least one fault plan",
        });
    }
    for p in plans {
        p.plan.validate()?;
    }
    let legs: Vec<Scenario> = std::iter::once(FaultPlan::none())
        .chain(plans.iter().map(|p| p.plan))
        .map(|plan| scenario.clone().with_faults(plan))
        .collect();
    let mut legs = compare_legs(&legs, policies, seeds, jobs, telemetry)?.into_iter();
    let baseline = legs.next().expect("the fault-free leg comes first");
    let mut cells = Vec::with_capacity(plans.len() * policies.len());
    for (named, cmp) in plans.iter().zip(legs) {
        for outcome in cmp.outcomes() {
            let base = baseline
                .outcome(outcome.policy)
                .map_or(0.0, |o| o.tasks_per_agent_epoch);
            let degradation = if base > 0.0 {
                outcome.tasks_per_agent_epoch / base
            } else {
                0.0
            };
            cells.push(ChaosCell {
                policy: outcome.policy,
                plan: named.name.clone(),
                tasks_per_agent_epoch: outcome.tasks_per_agent_epoch,
                baseline_tasks_per_agent_epoch: base,
                degradation,
                trips: outcome.trips,
                faults: outcome.faults,
            });
        }
    }
    Ok(ChaosReport {
        plans: plans.to_vec(),
        baseline: baseline.outcomes().to_vec(),
        cells,
    })
}

/// Aggregated outcome of the partition-resilience suite: one
/// [`ControlSim`] trial per seed under a shared fault plan, with the
/// acceptance invariants pre-digested.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResilienceReport {
    /// The fault plan every trial ran under.
    pub plan: FaultPlan,
    /// Control-plane timing in effect.
    pub control: ControlConfig,
    /// Per-seed control-plane reports, in seed order.
    pub trials: Vec<ControlReport>,
    /// Agent-epochs at which any agent lacked a usable threshold,
    /// summed across trials. The suite's hard invariant: must be 0.
    pub invariant_violations: u64,
    /// Recovery-weighted mean epochs back to the equilibrium tier.
    pub mean_recovery_epochs: Option<f64>,
    /// Mean realized sprint-gain proxy across trials.
    pub mean_utility: f64,
    /// The always-conservative baseline proxy (identical across trials).
    pub conservative_utility: f64,
}

impl ResilienceReport {
    /// Whether mean recovery landed within `lease_periods` lease windows.
    /// Vacuously true when nothing ever degraded.
    #[must_use]
    pub fn recovered_within(&self, lease_periods: f64) -> bool {
        self.mean_recovery_epochs
            .is_none_or(|m| m <= lease_periods * f64::from(self.control.lease_epochs))
    }
}

/// Run the partition-resilience suite: one [`ControlSim`] trial per
/// seed under `plan`, on the trial pool within a budget of `jobs`
/// threads (0 means the available cores), aggregated in seed order so
/// the report is byte-reproducible. With a telemetry kit attached,
/// per-trial durations accumulate under `trial.control`.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for empty `seeds` and
/// propagates configuration errors; degraded trials are data, not
/// errors.
pub fn resilience(
    scenario: &Scenario,
    plan: FaultPlan,
    control: ControlConfig,
    seeds: &[u64],
    jobs: usize,
    telemetry: &mut Telemetry,
) -> crate::Result<ResilienceReport> {
    if seeds.is_empty() {
        return Err(SimError::InvalidParameter {
            name: "seeds",
            value: 0.0,
            expected: "at least one seed",
        });
    }
    let sim = ControlSim::new(
        *scenario.game(),
        scenario.mixture_density()?,
        scenario.epochs(),
    )?
    .with_faults(plan)
    .with_control(control);
    let (workers, _) = pool::thread_budget(jobs, seeds.len());
    let order: Vec<usize> = (0..seeds.len()).collect();
    let drained = pool::run(
        vec![(); workers],
        &order,
        "control-plane resilience trial",
        |(), i| sim.run(seeds[i], &mut Telemetry::noop()),
    );

    let mut trials = Vec::with_capacity(seeds.len());
    for (result, nanos) in drained.results {
        trials.push(result?);
        telemetry.spans.record_nanos("trial.control", nanos);
    }
    let invariant_violations = trials.iter().map(|t| t.invariant_violations).sum();
    let recoveries: u64 = trials.iter().map(|t| t.recoveries).sum();
    let mean_recovery_epochs = (recoveries > 0).then(|| {
        trials
            .iter()
            .filter_map(|t| Some(t.mean_recovery_epochs? * t.recoveries as f64))
            .sum::<f64>()
            / recoveries as f64
    });
    let mean_utility = trials.iter().map(|t| t.mean_utility).sum::<f64>() / trials.len() as f64;
    let conservative_utility = trials[0].conservative_utility;
    Ok(ResilienceReport {
        plan,
        control,
        trials,
        invariant_violations,
        mean_recovery_epochs,
        mean_utility,
        conservative_utility,
    })
}

/// One seed of the adversary-defense suite: the same scenario run three
/// ways so enforcement value is measured against matched baselines.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdversaryTrial {
    /// Trial seed.
    pub seed: u64,
    /// Fully honest population with the detector armed — the throughput
    /// baseline and the false-positive self-test.
    pub honest: ControlReport,
    /// Adversaries present, detector observing but never punishing —
    /// the damage they do unchecked.
    pub unenforced: ControlReport,
    /// Adversaries present, graduated sanctions enforced.
    pub enforced: ControlReport,
}

/// Aggregated outcome of the adversary-defense acceptance suite.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdversaryReport {
    /// The fault plan every trial ran under.
    pub plan: FaultPlan,
    /// Control-plane timing in effect.
    pub control: ControlConfig,
    /// Detector and sanctions configuration.
    pub detector: DetectorConfig,
    /// The adversary population specification.
    pub mix: AdversaryMix,
    /// Agents per trial.
    pub agents: u32,
    /// Epochs per trial.
    pub epochs: usize,
    /// Per-seed triples, in seed order.
    pub trials: Vec<AdversaryTrial>,
    /// Mean honest-population throughput (tasks per agent-epoch).
    pub honest_throughput: f64,
    /// Mean throughput with adversaries unchecked.
    pub unenforced_throughput: f64,
    /// Mean throughput with graduated enforcement.
    pub enforced_throughput: f64,
    /// `enforced / honest` — the acceptance gate requires ≥ 0.95.
    pub recovery_ratio: f64,
    /// `unenforced / honest` — how much damage enforcement undoes.
    pub unenforced_ratio: f64,
    /// Detections across enforced trials.
    pub detections: u64,
    /// Permanent exclusions across enforced trials.
    pub exclusions: u64,
    /// Completed probations across enforced trials.
    pub readmissions: u64,
    /// Honest agents permanently excluded, across the honest *and*
    /// enforced legs — the acceptance gate requires exactly 0.
    pub false_positive_exclusions: u64,
    /// Adversaries never detected, summed across enforced trials.
    pub false_negatives: u64,
    /// Detection-count-weighted mean epochs to first detection.
    pub mean_detection_latency_epochs: Option<f64>,
}

/// Run the adversary-defense suite: for each seed, the same rack is run
/// honest (detector armed — any sanction is a false positive), with
/// adversaries unchecked, and with graduated enforcement. Seeds run on
/// the trial pool within a budget of `jobs` threads (0 means the
/// available cores); aggregation is in seed order so the report is
/// byte-reproducible at any budget. With a telemetry kit attached,
/// per-trial durations accumulate under `trial.adversary` and per-trial
/// detection-latency / false-positive / false-negative distributions
/// land in the metrics registry.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for empty `seeds` or an
/// adversary fraction of zero, and propagates configuration errors.
#[allow(clippy::too_many_arguments)]
pub fn adversary_defense(
    scenario: &Scenario,
    plan: FaultPlan,
    control: ControlConfig,
    detector: DetectorConfig,
    mix: AdversaryMix,
    seeds: &[u64],
    jobs: usize,
    telemetry: &mut Telemetry,
) -> crate::Result<AdversaryReport> {
    if seeds.is_empty() {
        return Err(SimError::InvalidParameter {
            name: "seeds",
            value: 0.0,
            expected: "at least one seed",
        });
    }
    if mix.fraction <= 0.0 {
        return Err(SimError::InvalidParameter {
            name: "fraction",
            value: mix.fraction,
            expected: "a positive adversary fraction (the honest leg is built in)",
        });
    }
    mix.validate()?;
    detector.validate()?;
    let base = ControlSim::new(
        *scenario.game(),
        scenario.mixture_density()?,
        scenario.epochs(),
    )?
    .with_faults(plan)
    .with_control(control);
    let honest_sim = base.clone().with_detector(detector);
    let unenforced_sim = base
        .clone()
        .with_adversaries(mix)
        .with_detector(DetectorConfig {
            enforcement: false,
            ..detector
        });
    let enforced_sim = base.with_adversaries(mix).with_detector(detector);

    let (workers, _) = pool::thread_budget(jobs, seeds.len());
    let order: Vec<usize> = (0..seeds.len()).collect();
    let drained = pool::run(
        vec![(); workers],
        &order,
        "adversary-defense trial",
        |(), i| {
            let seed = seeds[i];
            Ok(AdversaryTrial {
                seed,
                honest: honest_sim.run(seed, &mut Telemetry::noop())?,
                unenforced: unenforced_sim.run(seed, &mut Telemetry::noop())?,
                enforced: enforced_sim.run(seed, &mut Telemetry::noop())?,
            })
        },
    );

    let mut trials = Vec::with_capacity(seeds.len());
    for (result, nanos) in drained.results {
        trials.push(result?);
        telemetry.spans.record_nanos("trial.adversary", nanos);
    }

    let mean_throughput = |pick: fn(&AdversaryTrial) -> &ControlReport| -> f64 {
        trials
            .iter()
            .filter_map(|t| pick(t).defense.as_ref().map(|d| d.throughput))
            .sum::<f64>()
            / trials.len() as f64
    };
    let honest_throughput = mean_throughput(|t| &t.honest);
    let unenforced_throughput = mean_throughput(|t| &t.unenforced);
    let enforced_throughput = mean_throughput(|t| &t.enforced);
    let ratio = |num: f64| {
        if honest_throughput > 0.0 {
            num / honest_throughput
        } else {
            0.0
        }
    };

    let mut detections = 0u64;
    let mut exclusions = 0u64;
    let mut readmissions = 0u64;
    let mut false_positive_exclusions = 0u64;
    let mut false_negatives = 0u64;
    let mut latency_weighted = 0.0f64;
    let mut latency_count = 0u64;
    for t in &trials {
        if let Some(d) = &t.enforced.defense {
            detections += d.detections;
            exclusions += d.exclusions;
            readmissions += d.readmissions;
            false_positive_exclusions += d.false_positive_exclusions;
            false_negatives += u64::from(d.false_negatives);
            if let Some(m) = d.mean_detection_latency_epochs {
                let k = u64::from(d.adversaries - d.false_negatives);
                latency_weighted += m * k as f64;
                latency_count += k;
            }
        }
        if let Some(d) = &t.honest.defense {
            // No adversaries exist in the honest leg: every exclusion
            // there is a false positive by construction.
            false_positive_exclusions += d.exclusions;
        }
    }
    let mean_detection_latency_epochs =
        (latency_count > 0).then(|| latency_weighted / latency_count as f64);

    if telemetry.enabled() {
        let reg = &mut telemetry.registry;
        let lat = reg.histogram(
            "defense.trial.detection_latency_epochs",
            &[10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0],
        );
        let fps = reg.histogram(
            "defense.trial.false_positives",
            &[0.5, 1.5, 2.5, 4.5, 8.5, 16.5],
        );
        let fns = reg.histogram(
            "defense.trial.false_negatives",
            &[0.5, 1.5, 2.5, 4.5, 8.5, 16.5],
        );
        for t in &trials {
            if let Some(d) = &t.enforced.defense {
                if let Some(m) = d.mean_detection_latency_epochs {
                    reg.observe(lat, m);
                }
                let fp = d.false_positive_warnings
                    + d.false_positive_revocations
                    + d.false_positive_exclusions;
                reg.observe(fps, fp as f64);
                reg.observe(fns, f64::from(d.false_negatives));
            }
        }
    }

    Ok(AdversaryReport {
        plan,
        control,
        detector,
        mix,
        agents: scenario.game().n_agents(),
        epochs: scenario.epochs(),
        trials,
        honest_throughput,
        unenforced_throughput,
        enforced_throughput,
        recovery_ratio: ratio(enforced_throughput),
        unenforced_ratio: ratio(unenforced_throughput),
        detections,
        exclusions,
        readmissions,
        false_positive_exclusions,
        false_negatives,
        mean_detection_latency_epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_workloads::Benchmark;

    #[test]
    fn validates_inputs() {
        let s = Scenario::homogeneous(Benchmark::Svm, 20, 10).unwrap();
        assert!(compare(&s, &[], &[1], 0, &mut Telemetry::noop()).is_err());
        assert!(compare(&s, &[PolicyKind::Greedy], &[], 0, &mut Telemetry::noop()).is_err());
    }

    #[test]
    fn comparison_reproduces_figure8_ordering() {
        // E-T and C-T beat E-B which beats (or ties) G for a diverse
        // profile, even at reduced scale.
        let s = Scenario::homogeneous(Benchmark::DecisionTree, 120, 300).unwrap();
        let cmp = compare(&s, &PolicyKind::ALL, &[1, 2], 0, &mut Telemetry::noop()).unwrap();
        let g = cmp
            .outcome(PolicyKind::Greedy)
            .unwrap()
            .tasks_per_agent_epoch;
        let eb = cmp
            .outcome(PolicyKind::ExponentialBackoff)
            .unwrap()
            .tasks_per_agent_epoch;
        let et = cmp
            .outcome(PolicyKind::EquilibriumThreshold)
            .unwrap()
            .tasks_per_agent_epoch;
        let ct = cmp
            .outcome(PolicyKind::CooperativeThreshold)
            .unwrap()
            .tasks_per_agent_epoch;
        assert!(et > eb, "E-T {et} must beat E-B {eb}");
        assert!(eb >= g * 0.9, "E-B {eb} roughly matches or beats G {g}");
        assert!(ct > g, "C-T {ct} must beat G {g}");
        let norm = cmp
            .normalized_to_greedy(PolicyKind::EquilibriumThreshold)
            .unwrap();
        assert!(norm > 2.0, "E-T/G = {norm}");
    }

    #[test]
    fn greedy_normalization_is_one() {
        let s = Scenario::homogeneous(Benchmark::Als, 40, 60).unwrap();
        let cmp = compare(&s, &[PolicyKind::Greedy], &[5], 0, &mut Telemetry::noop()).unwrap();
        assert!((cmp.normalized_to_greedy(PolicyKind::Greedy).unwrap() - 1.0).abs() < 1e-12);
        assert!(cmp
            .normalized_to_greedy(PolicyKind::CooperativeThreshold)
            .is_none());
    }

    #[test]
    fn aggregation_averages_across_seeds() {
        let s = Scenario::homogeneous(Benchmark::Kmeans, 30, 50).unwrap();
        let cmp = compare(
            &s,
            &[PolicyKind::Greedy],
            &[1, 2, 3],
            0,
            &mut Telemetry::noop(),
        )
        .unwrap();
        let o = cmp.outcome(PolicyKind::Greedy).unwrap();
        assert!(o.tasks_per_agent_epoch > 0.0);
        assert!(o.tasks_std_dev >= 0.0);
        let occ_sum: f64 = o.occupancy.iter().sum();
        assert!((occ_sum - 1.0).abs() < 1e-9);
        // Three trials yield a confidence interval containing the mean.
        let ci = o.tasks_ci.expect("multiple trials");
        assert!(ci.contains(o.tasks_per_agent_epoch));
    }

    #[test]
    fn profiled_comparison_times_every_trial() {
        let s = Scenario::homogeneous(Benchmark::Svm, 20, 30).unwrap();
        let mut kit = Telemetry::in_memory();
        let policies = [PolicyKind::Greedy, PolicyKind::ExponentialBackoff];
        let cmp = compare(&s, &policies, &[1, 2, 3], 0, &mut kit).unwrap();
        let spans = kit.spans;
        assert_eq!(cmp.outcomes().len(), 2);
        for p in policies {
            let stats = spans.stats(&format!("trial.{p}")).expect("trial span");
            assert_eq!(stats.count, 3, "one span per seed for {p}");
        }
        assert_eq!(spans.stats("runner.compare").unwrap().count, 1);
    }

    #[test]
    fn chaos_builds_each_seed_population_once_per_worker() {
        let s = Scenario::homogeneous(Benchmark::Svm, 30, 40).unwrap();
        let mut kit = Telemetry::in_memory();
        let plans = standard_fault_suite(5);
        let report = chaos(&s, &PolicyKind::ALL, &plans, &[1, 2], 1, &mut kit).unwrap();
        assert_eq!(report.cells().len(), 24);
        // 2 seeds × 4 policies × 7 legs (the baseline and six plans) = 56
        // trials, run by one worker on one build per seed.
        let trials: u64 = PolicyKind::ALL
            .iter()
            .map(|p| kit.spans.stats(&format!("trial.{p}")).unwrap().count)
            .sum();
        assert_eq!(trials, 56);
        assert_eq!(
            kit.registry.counter_value("runner.population_builds"),
            Some(2)
        );
        // One recording per seed, replayed by every trial.
        assert_eq!(kit.registry.counter_value("runner.phase_tracks"), Some(2));
        assert_eq!(kit.registry.counter_value("runner.phase_replays"), Some(56));
    }

    #[test]
    fn standard_suite_covers_every_fault_kind() {
        let suite = standard_fault_suite(9);
        assert_eq!(suite.len(), 6);
        let names: Vec<&str> = suite.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "crash-churn",
                "stuck-sprinters",
                "sensor-noise",
                "breaker-drift",
                "stale-coordinator",
                "composite"
            ]
        );
        // Each single-fault plan enables exactly one component.
        for named in &suite[..5] {
            let p = named.plan;
            let enabled = usize::from(p.crash.is_some())
                + usize::from(p.stuck.is_some())
                + usize::from(p.sensor.is_some())
                + usize::from(p.breaker_drift.is_some())
                + usize::from(p.staleness.is_some());
            assert_eq!(enabled, 1, "{} enables one fault", named.name);
            p.validate().unwrap();
        }
        assert_eq!(suite[5].plan, FaultPlan::composite(9));
    }

    #[test]
    fn chaos_matrix_validates_and_fills_cells() {
        let s = Scenario::homogeneous(Benchmark::Svm, 30, 40).unwrap();
        assert!(chaos(
            &s,
            &[PolicyKind::Greedy],
            &[],
            &[1],
            0,
            &mut Telemetry::noop()
        )
        .is_err());
        let plans = vec![
            NamedPlan {
                name: "clean".to_string(),
                plan: FaultPlan::none(),
            },
            NamedPlan {
                name: "composite".to_string(),
                plan: FaultPlan::composite(3),
            },
        ];
        let policies = [PolicyKind::Greedy, PolicyKind::EquilibriumThreshold];
        let report = chaos(&s, &policies, &plans, &[1, 2], 0, &mut Telemetry::noop()).unwrap();
        assert_eq!(report.plans().len(), 2);
        assert_eq!(report.baseline().len(), 2);
        assert_eq!(report.cells().len(), 4);
        // The clean "plan" reproduces the baseline exactly.
        for kind in policies {
            let cell = report.cell(kind, "clean").unwrap();
            assert!(
                (cell.tasks_per_agent_epoch - cell.baseline_tasks_per_agent_epoch).abs() < 1e-12,
                "clean plan must match baseline for {kind:?}"
            );
            assert!((cell.degradation - 1.0).abs() < 1e-12);
            assert!(cell.faults.is_clean());
        }
        // The composite plan records fault activity and finite degradation.
        let cell = report.cell(PolicyKind::Greedy, "composite").unwrap();
        assert!(!cell.faults.is_clean(), "composite plan must leave traces");
        assert!(cell.degradation.is_finite());
        assert!(report.cell(PolicyKind::Greedy, "missing").is_none());
    }

    #[test]
    fn adversary_defense_validates_inputs() {
        let s = Scenario::homogeneous(Benchmark::Svm, 30, 40).unwrap();
        let mix = AdversaryMix::greedy(0.1, 7);
        assert!(adversary_defense(
            &s,
            FaultPlan::none(),
            ControlConfig::default(),
            DetectorConfig::default(),
            mix,
            &[],
            0,
            &mut Telemetry::noop(),
        )
        .is_err());
        assert!(adversary_defense(
            &s,
            FaultPlan::none(),
            ControlConfig::default(),
            DetectorConfig::default(),
            AdversaryMix::honest(),
            &[1],
            0,
            &mut Telemetry::noop(),
        )
        .is_err());
    }

    #[test]
    fn adversary_defense_detects_and_recovers() {
        let s = Scenario::homogeneous(Benchmark::Svm, 40, 400).unwrap();
        let mut telemetry = Telemetry::in_memory();
        let report = adversary_defense(
            &s,
            FaultPlan::adversary_chaos(11),
            ControlConfig::default(),
            DetectorConfig::default(),
            AdversaryMix::greedy(0.1, 11),
            &[1, 2],
            0,
            &mut telemetry,
        )
        .unwrap();
        assert_eq!(report.trials.len(), 2);
        assert_eq!(report.agents, 40);
        assert!(
            report.detections > 0,
            "greedy defectors must be detected: {report:?}"
        );
        assert!(
            report.recovery_ratio > report.unenforced_ratio,
            "enforcement must beat laissez-faire: {} vs {}",
            report.recovery_ratio,
            report.unenforced_ratio
        );
        for t in &report.trials {
            let h = t.honest.defense.as_ref().unwrap();
            assert_eq!(h.adversaries, 0);
            let e = t.enforced.defense.as_ref().unwrap();
            assert_eq!(e.adversaries, 4, "10% of 40 agents");
        }
        // Per-trial distributions landed in the registry and spans.
        let snapshot = telemetry.registry.snapshot();
        assert!(snapshot
            .histograms
            .contains_key("defense.trial.detection_latency_epochs"));
        assert_eq!(telemetry.spans.stats("trial.adversary").unwrap().count, 2);
    }

    #[test]
    fn adversary_defense_report_serializes() {
        let s = Scenario::homogeneous(Benchmark::Kmeans, 20, 120).unwrap();
        let report = adversary_defense(
            &s,
            FaultPlan::none(),
            ControlConfig::default(),
            DetectorConfig::default(),
            AdversaryMix::greedy(0.15, 3),
            &[5],
            0,
            &mut Telemetry::noop(),
        )
        .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: AdversaryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn chaos_report_serializes() {
        let s = Scenario::homogeneous(Benchmark::Kmeans, 25, 30).unwrap();
        let plans = standard_fault_suite(5);
        let report = chaos(
            &s,
            &[PolicyKind::Greedy],
            &plans,
            &[4],
            0,
            &mut Telemetry::noop(),
        )
        .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"composite\""));
        assert!(json.contains("degradation"));
        let back: ChaosReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}

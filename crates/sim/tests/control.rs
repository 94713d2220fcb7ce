//! Integration tests for the control plane's degradation ladder.
//!
//! The acceptance contract (scaled down for the default profile; the
//! `acceptance_` tests run the full 500 × 10k configuration under
//! `--ignored` in the CI partition-chaos job):
//!
//! - zero panics and zero invariant violations — every agent holds a
//!   valid threshold at every epoch, under partitions, ≥ 20 % message
//!   loss, and forced solver non-convergence;
//! - exactly one `TierShift` event per actual rung change, forming a
//!   consistent per-agent ladder walk;
//! - mean recovery within two lease periods of a partition heal;
//! - degraded-mode utility at least the always-conservative baseline.

use sprint_game::meanfield::SolverOptions;
use sprint_game::GameConfig;
use sprint_sim::control::{ControlConfig, ControlReport, ControlSim};
use sprint_sim::faults::{FaultPlan, RackPartition};
use sprint_sim::runner::{self, ResilienceReport};
use sprint_sim::scenario::Scenario;
use sprint_telemetry::{ControlTier, Event, Telemetry};
use sprint_workloads::Benchmark;

fn control_sim(agents: u32, epochs: usize) -> ControlSim {
    let game = GameConfig::builder()
        .n_agents(agents)
        .n_min(f64::from(agents) * 0.25)
        .n_max(f64::from(agents) * 0.75)
        .build()
        .unwrap();
    let density = Benchmark::DecisionTree.utility_density(256).unwrap();
    ControlSim::new(game, density, epochs).unwrap()
}

/// Tight windows so a multi-epoch partition walks agents down the whole
/// ladder and back within a short run.
fn tight_control() -> ControlConfig {
    ControlConfig {
        lease_epochs: 8,
        heartbeat_interval: 2,
        suspect_after: 40,
        stale_grace_epochs: 5,
        ..ControlConfig::default()
    }
}

fn full_partition(start: usize, duration: usize) -> FaultPlan {
    FaultPlan {
        partition: Some(RackPartition {
            start_epoch: start,
            duration_epochs: duration,
            fraction: 1.0,
        }),
        ..FaultPlan::none()
    }
}

fn assert_invariants(report: &ControlReport) {
    assert_eq!(
        report.invariant_violations, 0,
        "every agent must hold a valid threshold at every epoch"
    );
    assert!(
        report.mean_utility >= report.conservative_utility - 1e-12,
        "degraded-mode utility {} must not fall below the always-conservative baseline {}",
        report.mean_utility,
        report.conservative_utility
    );
}

#[test]
fn partition_walks_the_full_ladder_and_recovers() {
    let cfg = tight_control();
    let sim = control_sim(24, 240)
        .with_faults(full_partition(60, 30))
        .with_control(cfg);
    let mut kit = Telemetry::in_memory();
    let report = sim.run(11, &mut kit).unwrap();

    assert_invariants(&report);
    let [eq, stale, cons] = report.tier_epochs;
    assert!(eq > 0, "agents must reach the equilibrium tier");
    assert!(stale > 0, "the partition must force the stale-cache rung");
    assert!(
        cons > 0,
        "the grace window must run out during the partition"
    );
    assert!(report.lease_expiries > 0);
    assert!(
        report.recoveries > 0,
        "agents must climb back after the heal"
    );
    let mean = report.mean_recovery_epochs.unwrap();
    assert!(
        mean <= 2.0 * f64::from(cfg.lease_epochs),
        "mean recovery {mean} epochs must be within two lease periods"
    );
    // The rack does better than pinning everyone to the conservative
    // threshold, because most epochs run at the equilibrium tier.
    assert!(report.mean_utility > report.conservative_utility);
}

#[test]
fn tier_shifts_are_exactly_one_event_per_rung_change() {
    let sim = control_sim(16, 220)
        .with_faults(full_partition(50, 30))
        .with_control(tight_control());
    let mut kit = Telemetry::in_memory();
    let report = sim.run(3, &mut kit).unwrap();

    let shifts: Vec<(u32, ControlTier, ControlTier)> = kit
        .events()
        .unwrap()
        .iter()
        .filter_map(|e| match *e {
            Event::TierShift {
                agent, from, to, ..
            } => Some((agent, from, to)),
            _ => None,
        })
        .collect();
    assert_eq!(
        shifts.len() as u64,
        report.tier_transitions,
        "exactly one TierShift event per rung change"
    );
    // Per agent, the shift stream is a consistent walk: each event
    // leaves the tier the previous one entered, and never self-loops.
    let mut tier = [ControlTier::Conservative; 16];
    for (agent, from, to) in shifts {
        assert_ne!(from, to, "a TierShift must change the tier");
        assert_eq!(
            tier[agent as usize], from,
            "agent {agent} shifted from a tier it was not on"
        );
        tier[agent as usize] = to;
    }
}

#[test]
fn forced_nonconvergence_with_partition_lands_on_conservative() {
    // tolerance −1 is unreachable and the tiny budget exhausts before
    // the bisection fallback, so every solve reports NonConvergence:
    // the fresh-equilibrium rung never exists and no stale cache entry
    // ever appears. The ladder must bottom out at conservative, with
    // zero panics and zero tier flapping.
    let cfg = ControlConfig {
        solve_budget: 7,
        ..tight_control()
    };
    let sim = control_sim(12, 150)
        .with_options(SolverOptions {
            tolerance: -1.0,
            ..SolverOptions::default()
        })
        .with_faults(FaultPlan {
            partition: Some(RackPartition {
                start_epoch: 40,
                duration_epochs: 10,
                fraction: 1.0,
            }),
            ..FaultPlan::partition_chaos(5, 40, 10)
        })
        .with_control(cfg);
    let mut kit = Telemetry::in_memory();
    let report = sim.run(9, &mut kit).unwrap();

    assert_invariants(&report);
    assert!(report.resolves > 0, "the coordinator must keep trying");
    assert_eq!(
        report.resolves, report.resolve_failures,
        "every solve must fail under the forced non-convergence"
    );
    let [eq, stale, cons] = report.tier_epochs;
    assert_eq!((eq, stale), (0, 0), "no fresh or stale strategy can exist");
    assert!(cons > 0);
    assert_eq!(
        report.tier_transitions, 0,
        "agents boot conservative and must not flap"
    );
    assert!(
        (report.mean_utility - report.conservative_utility).abs() < 1e-12,
        "all-conservative rack realizes exactly the baseline"
    );
}

#[test]
fn lossy_transport_alone_keeps_the_equilibrium_tier_dominant() {
    // 20 % loss + delays + duplicates but no partition: renewals retry
    // on backoff, so the rack should hold the equilibrium tier for the
    // large majority of agent-epochs.
    let plan = FaultPlan {
        partition: None,
        ..FaultPlan::partition_chaos(7, 0, 0)
    };
    let sim = control_sim(32, 400).with_faults(plan);
    let report = sim.run(21, &mut Telemetry::noop()).unwrap();
    assert_invariants(&report);
    let [eq, stale, cons] = report.tier_epochs;
    assert!(
        eq * 100 >= (eq + stale + cons) * 70,
        "equilibrium tier must dominate under loss alone: {:?}",
        report.tier_epochs
    );
    assert!(report.messages.lost > 0);
}

fn acceptance_scenario(epochs: usize) -> Scenario {
    Scenario::homogeneous(Benchmark::DecisionTree, 100, epochs).unwrap()
}

fn acceptance_control() -> ControlConfig {
    ControlConfig::default()
}

/// Scaled-down version of the acceptance suite that runs in the default
/// test profile (25 trials × 600 epochs instead of 500 × 10k).
#[test]
fn resilience_suite_smoke() {
    let seeds: Vec<u64> = (1..=25).collect();
    let report = runner::resilience(
        &acceptance_scenario(600),
        FaultPlan::partition_chaos(13, 200, 3),
        acceptance_control(),
        &seeds,
        0,
        &mut Telemetry::noop(),
    )
    .unwrap();
    assert_resilience(&report);
}

/// The full acceptance configuration: 500 trials × 10 000 epochs of
/// ≥ 20 % message loss plus a 3-epoch full-rack partition. Run by the CI
/// partition-chaos job (`--ignored --release`).
#[test]
#[ignore = "acceptance scale; run with --ignored --release"]
fn acceptance_partition_chaos_500_trials() {
    let seeds: Vec<u64> = (1..=500).collect();
    let report = runner::resilience(
        &acceptance_scenario(10_000),
        FaultPlan::partition_chaos(13, 4_000, 3),
        acceptance_control(),
        &seeds,
        0,
        &mut Telemetry::noop(),
    )
    .unwrap();
    assert_resilience(&report);
}

/// Forced-nonconvergence acceptance leg: the solver can never produce
/// an equilibrium, the whole rack must ride the conservative rung
/// without a single invalid threshold. Scaled down by default; the CI
/// job runs the ignored full-scale variant.
#[test]
fn resilience_suite_forced_nonconvergence_smoke() {
    forced_nonconvergence_trials(20, 500);
}

#[test]
#[ignore = "acceptance scale; run with --ignored --release"]
fn acceptance_forced_nonconvergence_500_trials() {
    forced_nonconvergence_trials(500, 10_000);
}

fn forced_nonconvergence_trials(trials: u64, epochs: usize) {
    let cfg = ControlConfig {
        solve_budget: 7,
        ..ControlConfig::default()
    };
    let sim = control_sim(50, epochs)
        .with_options(SolverOptions {
            tolerance: -1.0,
            ..SolverOptions::default()
        })
        .with_faults(FaultPlan::partition_chaos(17, epochs / 2, 3))
        .with_control(cfg);
    for seed in 1..=trials {
        let report = sim.run(seed, &mut Telemetry::noop()).unwrap();
        assert_invariants(&report);
        assert_eq!(report.tier_epochs[0], 0);
    }
}

fn assert_resilience(report: &ResilienceReport) {
    assert_eq!(
        report.invariant_violations, 0,
        "no agent may ever hold an invalid threshold"
    );
    assert!(
        report.recovered_within(2.0),
        "mean recovery {:?} epochs must be within two lease periods ({})",
        report.mean_recovery_epochs,
        report.control.lease_epochs
    );
    assert!(
        report.mean_utility >= report.conservative_utility - 1e-12,
        "degraded-mode utility {} must not fall below the baseline {}",
        report.mean_utility,
        report.conservative_utility
    );
    for trial in &report.trials {
        assert!(trial.messages.lost > 0, "the loss rate must bite");
    }
    // The JSON resilience report (the CI artifact) round-trips.
    let json = serde_json::to_string(report).unwrap();
    let back: ResilienceReport = serde_json::from_str(&json).unwrap();
    assert_eq!(&back, report);
}

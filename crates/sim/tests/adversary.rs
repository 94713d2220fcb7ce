//! Integration tests for online adversary defense: CUSUM detection,
//! graduated sanctions, and enforcement in the coordinator control
//! plane.
//!
//! The acceptance contract (scaled down for the default profile; the
//! `acceptance_` test runs the full 500-trial matrix under `--ignored`
//! in the CI adversary-smoke job):
//!
//! - under 10 % greedy defectors with sensor noise and transport
//!   faults, graduated enforcement restores ≥ 95 % of the honest
//!   population's throughput;
//! - zero honest agents are ever *permanently* excluded;
//! - every sanction transition is a typed telemetry event forming a
//!   consistent per-agent ladder walk;
//! - reports are byte-identical across repeat runs — detector state
//!   feeds only on control-plane messages, never scheduling order.

use sprint_game::GameConfig;
use sprint_sim::control::{ControlConfig, ControlSim, DetectorConfig};
use sprint_sim::engine::{self, SimConfig};
use sprint_sim::faults::FaultPlan;
use sprint_sim::policies::GrimTrigger;
use sprint_sim::runner::{self, AdversaryReport};
use sprint_sim::scenario::Scenario;
use sprint_sim::{AdversaryKind, AdversaryMix};
use sprint_telemetry::{Event, SanctionLevel, Telemetry};
use sprint_workloads::Benchmark;

fn defended_sim(agents: u32, epochs: usize) -> ControlSim {
    let game = GameConfig::builder()
        .n_agents(agents)
        .n_min(f64::from(agents) * 0.25)
        .n_max(f64::from(agents) * 0.75)
        .build()
        .unwrap();
    let density = Benchmark::DecisionTree.utility_density(256).unwrap();
    ControlSim::new(game, density, epochs).unwrap()
}

fn greedy(fraction: f64) -> AdversaryMix {
    AdversaryMix::greedy(fraction, 23)
}

/// Revoke → probation → renewal: defectors that stand down after the
/// first revocation window must complete probation and be readmitted,
/// never permanently excluded — all under lossy transport and noisy
/// sensors.
#[test]
fn ceasefire_walks_revocation_probation_and_readmission() {
    let mix = AdversaryMix {
        ceasefire_epoch: Some(120),
        ..greedy(0.15)
    };
    // Zero free warnings so the first detection revokes directly, and a
    // long revocation so probation starts well after the ceasefire — the
    // probation window is then clean and must end in readmission.
    let detector = DetectorConfig {
        max_warnings: 0,
        revocation_epochs: 60,
        ..DetectorConfig::default()
    };
    let sim = defended_sim(40, 500)
        .with_faults(FaultPlan::adversary_chaos(7))
        .with_adversaries(mix)
        .with_detector(detector);
    let mut kit = Telemetry::in_memory();
    let report = sim.run(5, &mut kit).unwrap();
    let d = report.defense.expect("detector attached");

    assert_eq!(d.adversaries, 6);
    assert!(d.detections > 0, "defectors must be detected: {d:?}");
    assert!(d.revocations > 0, "detections must escalate to revocation");
    assert!(
        d.readmissions > 0,
        "ceasefire must let probation complete: {d:?}"
    );
    assert_eq!(
        d.exclusions, 0,
        "a defector that stands down must not be permanently excluded"
    );
    let lifted: Vec<bool> = kit
        .events()
        .unwrap()
        .iter()
        .filter_map(|e| match *e {
            Event::SanctionLifted { probation, .. } => Some(probation),
            _ => None,
        })
        .collect();
    assert!(
        lifted.contains(&true) && lifted.contains(&false),
        "both revocation-expiry (to probation) and probation-completion \
         lifts must be emitted: {lifted:?}"
    );
}

/// Revoke → expiry → re-detection → permanent exclusion: persistent
/// defectors must strike out, and the power-gate veto must have blocked
/// sprints along the way. No honest agent may be permanently excluded.
#[test]
fn persistent_defectors_strike_out_to_permanent_exclusion() {
    let sim = defended_sim(40, 800)
        .with_faults(FaultPlan::adversary_chaos(9))
        .with_adversaries(greedy(0.1))
        .with_detector(DetectorConfig::default());
    let mut kit = Telemetry::in_memory();
    let report = sim.run(3, &mut kit).unwrap();
    let d = report.defense.expect("detector attached");

    assert_eq!(d.adversaries, 4);
    assert!(
        d.exclusions > 0,
        "persistent defectors must eventually strike out: {d:?}"
    );
    assert_eq!(d.false_positive_exclusions, 0);
    assert!(
        d.vetoed_sprints > 0,
        "revoked defectors keep trying; the power gate must veto"
    );

    // The event stream walks a consistent ladder per agent: a
    // revocation requires a prior warning, an exclusion a prior
    // revocation, and every lift a preceding revocation.
    let mut warned = [0u32; 40];
    let mut revoked = [0u32; 40];
    for e in kit.events().unwrap() {
        match *e {
            Event::SanctionApplied { agent, level, .. } => match level {
                SanctionLevel::Warning => warned[agent as usize] += 1,
                SanctionLevel::Revocation => {
                    assert!(
                        warned[agent as usize] > 0,
                        "agent {agent} revoked without a warning"
                    );
                    revoked[agent as usize] += 1;
                }
                SanctionLevel::Exclusion => {
                    assert!(
                        revoked[agent as usize] > 0,
                        "agent {agent} excluded without a revocation"
                    );
                }
            },
            Event::SanctionLifted { agent, .. } => {
                assert!(
                    revoked[agent as usize] > 0,
                    "agent {agent} had a sanction lifted that was never applied"
                );
            }
            _ => {}
        }
    }
}

/// Detection evidence must come from control-plane sensor reports, not
/// engine ground truth: with every report lost in transit, the detector
/// can never fire.
#[test]
fn detector_is_blind_without_transport() {
    let mut plan = FaultPlan::adversary_chaos(11);
    plan.transport.as_mut().unwrap().loss_probability = 1.0;
    let sim = defended_sim(30, 300)
        .with_faults(plan)
        .with_adversaries(greedy(0.1))
        .with_detector(DetectorConfig::default());
    let report = sim.run(2, &mut Telemetry::noop()).unwrap();
    let d = report.defense.expect("detector attached");
    assert_eq!(
        d.detections, 0,
        "no sensor report delivered, so nothing to detect: {d:?}"
    );
    assert_eq!(d.false_negatives, d.adversaries);
}

/// Same seed, same configuration → byte-identical reports, with
/// adversaries and enforcement enabled.
#[test]
fn defense_reports_are_deterministic() {
    let sim = defended_sim(35, 400)
        .with_faults(FaultPlan::adversary_chaos(13))
        .with_adversaries(AdversaryMix {
            kind: AdversaryKind::StochasticCheater {
                cheat_probability: 0.4,
            },
            fraction: 0.2,
            seed: 31,
            ceasefire_epoch: None,
        })
        .with_detector(DetectorConfig::default());
    let a = sim.run(17, &mut Telemetry::noop()).unwrap();
    let b = sim.run(17, &mut Telemetry::noop()).unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    let seeds = [1, 2, 3];
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 40, 300).unwrap();
    let run = || {
        runner::adversary_defense(
            &scenario,
            FaultPlan::adversary_chaos(5),
            ControlConfig::default(),
            DetectorConfig::default(),
            greedy(0.1),
            &seeds,
            0,
            &mut Telemetry::noop(),
        )
        .unwrap()
    };
    assert_eq!(
        serde_json::to_string(&run()).unwrap(),
        serde_json::to_string(&run()).unwrap()
    );
}

/// Every adversary kind is detectable and no honest agent is ever
/// permanently excluded while the zoo misbehaves.
#[test]
fn every_adversary_kind_is_caught_without_permanent_false_positives() {
    for mut kind in AdversaryKind::ALL {
        if let AdversaryKind::FictitiousPlay { pivot } = &mut kind {
            // The representative pivot tracks the paper's trip rates; at
            // this rack's actual trip frequency the learner would settle
            // into conformance and legitimately evade detection. Raise
            // the pivot so it stays aggressive for the whole run.
            *pivot = 0.5;
        }
        let sim = defended_sim(40, 600)
            .with_faults(FaultPlan::adversary_chaos(3))
            .with_adversaries(AdversaryMix {
                kind,
                fraction: 0.1,
                seed: 41,
                ceasefire_epoch: None,
            })
            .with_detector(DetectorConfig::default());
        let report = sim.run(9, &mut Telemetry::noop()).unwrap();
        let d = report.defense.expect("detector attached");
        assert!(
            d.detections > 0,
            "{} must be detectable: {d:?}",
            kind.name()
        );
        assert_eq!(
            d.false_positive_exclusions,
            0,
            "{} run permanently excluded an honest agent",
            kind.name()
        );
    }
}

fn assert_acceptance(report: &AdversaryReport) {
    assert!(
        report.recovery_ratio >= 0.95,
        "graduated enforcement must restore ≥ 95% of honest throughput, got {:.4} \
         (honest {:.4}, unenforced {:.4}, enforced {:.4})",
        report.recovery_ratio,
        report.honest_throughput,
        report.unenforced_throughput,
        report.enforced_throughput,
    );
    assert_eq!(
        report.false_positive_exclusions, 0,
        "no honest agent may ever be permanently excluded"
    );
}

/// Scaled-down acceptance: 10 % greedy defectors under sensor noise and
/// transport faults, 25 trials (the CI job runs the ignored 500-trial
/// variant).
#[test]
fn adversary_defense_suite_smoke() {
    let seeds: Vec<u64> = (1..=25).collect();
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 100, 1_000).unwrap();
    let report = runner::adversary_defense(
        &scenario,
        FaultPlan::adversary_chaos(17),
        ControlConfig::default(),
        DetectorConfig::default(),
        greedy(0.1),
        &seeds,
        0,
        &mut Telemetry::noop(),
    )
    .unwrap();
    assert_acceptance(&report);
}

/// The full acceptance matrix: 500 trials of 10 % greedy defectors with
/// sensor noise and transport faults. Run by the CI adversary-smoke job
/// (`--ignored --release`).
#[test]
#[ignore = "acceptance scale; run with --ignored --release"]
fn acceptance_adversary_defense_500_trials() {
    let seeds: Vec<u64> = (1..=500).collect();
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 100, 1_000).unwrap();
    let report = runner::adversary_defense(
        &scenario,
        FaultPlan::adversary_chaos(17),
        ControlConfig::default(),
        DetectorConfig::default(),
        greedy(0.1),
        &seeds,
        0,
        &mut Telemetry::noop(),
    )
    .unwrap();
    assert_acceptance(&report);
}

/// Grim-trigger detection and ban counts flow end-to-end into the
/// telemetry metrics registry from an engine run.
#[test]
fn grim_trigger_counts_reach_the_metrics_registry() {
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 30, 200).unwrap();
    let thresholds = scenario
        .equilibrium_thresholds(&mut Telemetry::noop())
        .unwrap()
        .thresholds()
        .to_vec();
    let mut policy = GrimTrigger::new(thresholds, &[3, 7], true).unwrap();
    let config = SimConfig::new(*scenario.game(), 200, 5).unwrap();
    let mut streams = scenario.population().spawn_streams(5).unwrap();
    let mut kit = Telemetry::in_memory();
    engine::run_guarded(
        &config,
        &mut streams,
        &mut policy,
        &engine::RunGuard::default(),
        1,
        &mut kit,
    )
    .unwrap();

    let snapshot = kit.registry.snapshot();
    let detections = snapshot.counters["policy.grim.detections"];
    let bans = snapshot.counters["policy.grim.bans"];
    assert_eq!(detections, policy.detections());
    assert_eq!(bans, policy.bans());
    assert!(detections > 0, "deviants must be caught in 200 epochs");
    assert_eq!(bans, 2, "both deviants end up banned");
    assert_eq!(snapshot.gauges["policy.grim.banned_agents"], 2.0);
}

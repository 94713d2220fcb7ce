//! Chaos suite: fault injection and graceful degradation at rack scale.
//!
//! The resilience contract for the sprinting rack: every policy finishes
//! every fault plan without a panic, runs stay bit-reproducible under a
//! fixed seed, and the equilibrium threshold keeps its edge over Greedy
//! even when agents crash, sprinters stick, sensors lie, the breaker
//! drifts, and the coordinator solves for a stale population.

use sprint_game::EquilibriumCache;
use sprint_sim::faults::{BreakerDrift, CoordinatorStaleness, CrashChurn, SensorFault};
use sprint_sim::policy::PolicyKind;
use sprint_sim::scenario::Scenario;
use sprint_sim::telemetry::Telemetry;
use sprint_sim::FaultPlan;
use sprint_workloads::Benchmark;

#[test]
fn all_policies_survive_composite_faults_at_rack_scale() {
    // The acceptance run: 1000 agents, 10k epochs, every paper policy,
    // every fault class active at once. Completing without a panic IS the
    // assertion; the throughput checks confirm degradation stays graceful.
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 1000, 10_000)
        .unwrap()
        .with_faults(FaultPlan::composite(42));
    let mut tasks = Vec::new();
    for kind in PolicyKind::ALL {
        let r = scenario.execute(kind, 11, &mut Telemetry::noop()).unwrap();
        assert!(
            r.tasks_per_agent_epoch() > 0.0,
            "{kind} must still make progress under composite faults"
        );
        assert!(
            !r.faults().is_clean(),
            "{kind} must record fault activity under the composite plan"
        );
        tasks.push((kind, r.tasks_per_agent_epoch()));
    }
    let get = |k: PolicyKind| tasks.iter().find(|(p, _)| *p == k).unwrap().1;
    let greedy = get(PolicyKind::Greedy);
    let et = get(PolicyKind::EquilibriumThreshold);
    assert!(
        et > greedy,
        "E-T ({et:.4}) must beat Greedy ({greedy:.4}) even under faults"
    );
}

#[test]
fn faulted_runs_are_bit_reproducible() {
    // Same seed + same active fault plan => bit-identical results, down
    // to the serialized representation.
    let scenario = Scenario::homogeneous(Benchmark::Svm, 150, 400)
        .unwrap()
        .with_faults(FaultPlan::composite(7));
    for kind in PolicyKind::ALL {
        let a = scenario.execute(kind, 99, &mut Telemetry::noop()).unwrap();
        let b = scenario.execute(kind, 99, &mut Telemetry::noop()).unwrap();
        assert_eq!(a, b, "{kind} must be deterministic under faults");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "{kind} serializations must be bit-identical"
        );
    }
}

#[test]
fn inactive_plan_is_rng_neutral() {
    // A plan with no enabled components must reproduce the fault-free
    // run exactly, regardless of its seed: fault randomness is drawn
    // only when a fault is actually configured.
    let base = Scenario::homogeneous(Benchmark::Svm, 120, 300).unwrap();
    let with_empty_plan = base.clone().with_faults(FaultPlan {
        seed: 0xDEAD_BEEF,
        ..FaultPlan::none()
    });
    for kind in PolicyKind::ALL {
        let clean = base.execute(kind, 77, &mut Telemetry::noop()).unwrap();
        let empty = with_empty_plan
            .execute(kind, 77, &mut Telemetry::noop())
            .unwrap();
        assert_eq!(clean, empty, "{kind}: empty plan must not perturb the run");
        assert!(empty.faults().is_clean());
    }
}

#[test]
fn occupancy_accounts_for_crashed_agents() {
    // Crashed agents leave the occupancy ledger; the invariant is
    // occupancy + crashed-agent-epochs == agents * epochs.
    let n = 200u32;
    let epochs = 500usize;
    let plan = FaultPlan {
        seed: 3,
        crash: Some(CrashChurn {
            crash_probability: 0.01,
            p_restart_stay: 0.7,
            reacquire_epochs: 2,
        }),
        ..FaultPlan::none()
    };
    let scenario = Scenario::homogeneous(Benchmark::Kmeans, n, epochs)
        .unwrap()
        .with_faults(plan);
    let r = scenario
        .execute(PolicyKind::Greedy, 5, &mut Telemetry::noop())
        .unwrap();
    let f = r.faults();
    assert!(f.crashes > 0, "crash churn must actually crash agents");
    assert!(f.restarts > 0, "crashed agents must come back");
    assert_eq!(
        r.occupancy().total() + f.crashed_agent_epochs,
        u64::from(n) * epochs as u64,
        "every agent-epoch is either occupied or crashed"
    );
}

#[test]
fn per_fault_counters_record_each_class() {
    let base = Scenario::homogeneous(Benchmark::DecisionTree, 150, 400).unwrap();

    let stuck = base
        .clone()
        .with_faults(FaultPlan {
            seed: 1,
            stuck: Some(sprint_sim::faults::StuckSprinters {
                stick_probability: 0.2,
                p_stuck_stay: 0.8,
            }),
            ..FaultPlan::none()
        })
        .execute(PolicyKind::Greedy, 4, &mut Telemetry::noop())
        .unwrap();
    assert!(
        stuck.faults().stuck_epochs > 0,
        "stuck sprinters must register"
    );

    let sensor = base
        .clone()
        .with_faults(FaultPlan {
            seed: 1,
            sensor: Some(SensorFault {
                relative_sd: 0.1,
                dropout_probability: 0.05,
            }),
            ..FaultPlan::none()
        })
        .execute(PolicyKind::Greedy, 4, &mut Telemetry::noop())
        .unwrap();
    assert!(
        sensor.faults().sensor_dropouts > 0,
        "sensor dropouts must register"
    );

    // A breaker whose band drifted well below the solver's assumption
    // trips at sprinter counts the nominal model calls safe. E-T holds
    // the rack just under the nominal N_min — squarely inside the
    // drifted trip band — so those trips register as spurious.
    let drift = base
        .clone()
        .with_faults(FaultPlan {
            seed: 1,
            breaker_drift: Some(BreakerDrift { band_shift: -0.5 }),
            ..FaultPlan::none()
        })
        .execute(PolicyKind::EquilibriumThreshold, 4, &mut Telemetry::noop())
        .unwrap();
    assert!(
        drift.faults().spurious_trips > 0,
        "a -50% band drift must produce trips the nominal curve rules out"
    );
}

#[test]
fn stale_coordinator_shifts_the_equilibrium() {
    // Thresholds solved for a 30% larger population are more cautious,
    // so the realized dynamics must differ from the fresh solve.
    let base = Scenario::homogeneous(Benchmark::DecisionTree, 200, 600).unwrap();
    let stale = base.clone().with_faults(FaultPlan {
        seed: 1,
        staleness: Some(CoordinatorStaleness {
            population_factor: 1.3,
        }),
        ..FaultPlan::none()
    });
    let fresh_run = base
        .execute(PolicyKind::EquilibriumThreshold, 9, &mut Telemetry::noop())
        .unwrap();
    let stale_run = stale
        .execute(PolicyKind::EquilibriumThreshold, 9, &mut Telemetry::noop())
        .unwrap();
    assert_ne!(
        fresh_run.sprinters_per_epoch(),
        stale_run.sprinters_per_epoch(),
        "stale population must change the realized sprint pattern"
    );
    // Degradation is graceful: the stale equilibrium still makes progress.
    assert!(stale_run.tasks_per_agent_epoch() > 0.0);
}

#[test]
fn stale_coordinator_solves_heterogeneous_populations() {
    // The multi-type solver checks type counts against the N it solves
    // for, and a stale coordinator solves for a scaled N: the counts must
    // be scaled with it, on the uncached and the cached E-T path alike.
    let base = Scenario::heterogeneous(
        &[Benchmark::Svm, Benchmark::PageRank, Benchmark::Kmeans],
        200,
        300,
    )
    .unwrap();
    for factor in [0.9, 1.1, 1.5] {
        let stale = base.clone().with_faults(FaultPlan {
            seed: 1,
            staleness: Some(CoordinatorStaleness {
                population_factor: factor,
            }),
            ..FaultPlan::none()
        });
        let policy = stale
            .equilibrium_thresholds(&mut Telemetry::noop())
            .unwrap_or_else(|e| panic!("factor {factor}: {e}"));
        let (cached, summary) = stale
            .equilibrium_policy_cached_cold(&EquilibriumCache::default())
            .unwrap_or_else(|e| panic!("factor {factor}: {e}"));
        assert_eq!(policy.thresholds(), cached.thresholds());
        assert!(summary.converged, "factor {factor}");
        let run = stale
            .execute(PolicyKind::EquilibriumThreshold, 9, &mut Telemetry::noop())
            .unwrap();
        assert!(run.tasks_per_agent_epoch() > 0.0, "factor {factor}");
    }
}

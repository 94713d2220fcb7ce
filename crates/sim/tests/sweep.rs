//! Sweep-engine integration tests: the parallel sweep must be a pure
//! function of its spec — same spec, any job count, byte-identical
//! aggregate JSON — and must pay for each distinct game's equilibrium
//! solve exactly once and for each (population, seed) build at most once
//! per worker.

use sprint_sim::runner::NamedPlan;
use sprint_sim::sweep::{
    run_sweep, run_sweep_supervised, GameVariant, PopulationSpec, Sabotage, Supervision, SweepSpec,
};
use sprint_sim::telemetry::Telemetry;
use sprint_sim::{FaultPlan, PolicyKind, RunOptions};
use sprint_workloads::Benchmark;

fn spec() -> SweepSpec {
    let mut hot = GameVariant::paper("hot");
    hot.p_cooling = 0.70;
    SweepSpec {
        games: vec![GameVariant::paper("paper"), hot],
        populations: vec![PopulationSpec::homogeneous(Benchmark::Svm, 50)],
        plans: Vec::new(),
        adversaries: Vec::new(),
        policies: vec![PolicyKind::Greedy, PolicyKind::EquilibriumThreshold],
        seeds: vec![11, 12, 13, 14],
        epochs: 80,
        options: RunOptions::default(),
    }
}

#[test]
fn fixed_seed_sweep_is_byte_identical_across_job_counts() {
    let spec = spec();
    let serial = run_sweep(&spec, 1, &mut Telemetry::noop()).unwrap();
    let json_serial = serde_json::to_string(&serial).unwrap();
    for jobs in [2, 4, 8] {
        let parallel = run_sweep(&spec, jobs, &mut Telemetry::noop()).unwrap();
        assert_eq!(
            json_serial,
            serde_json::to_string(&parallel).unwrap(),
            "jobs={jobs} must serialize byte-identically to jobs=1"
        );
    }
}

#[test]
fn each_distinct_game_solves_once() {
    let spec = spec();
    let mut kit = Telemetry::in_memory();
    let report = run_sweep(&spec, 4, &mut kit).unwrap();
    assert_eq!(report.trials, 16);
    // 2 games × 4 E-T seeds = 8 solve requests against 2 distinct keys;
    // the warm pre-pass takes the 2 misses, so every trial request hits.
    assert_eq!(
        kit.registry.counter_value("cache.equilibrium.misses"),
        Some(2)
    );
    assert_eq!(
        kit.registry.counter_value("cache.equilibrium.hits"),
        Some(8)
    );
    assert_eq!(
        kit.registry.gauge_value("cache.equilibrium.entries"),
        Some(2.0)
    );
}

#[test]
fn sweep_records_match_unified_single_runs() {
    use sprint_sim::scenario::Scenario;

    let spec = spec();
    let report = run_sweep(&spec, 2, &mut Telemetry::noop()).unwrap();
    let record = &report.records[0];
    assert_eq!(record.policy, PolicyKind::Greedy);
    let scenario = Scenario::homogeneous(Benchmark::Svm, 50, spec.epochs).unwrap();
    let single = scenario
        .execute(PolicyKind::Greedy, record.seed, 1, &mut Telemetry::noop())
        .unwrap();
    assert_eq!(
        record.tasks_per_agent_epoch,
        single.tasks_per_agent_epoch(),
        "a sweep trial must reproduce the equivalent single run bit-for-bit"
    );
    assert_eq!(record.trips, single.trips());
}

/// 2 populations × 2 seeds × 3 policies × 2 plans: 24 trials over 4
/// distinct (population, seed) pairs.
fn reuse_spec() -> SweepSpec {
    SweepSpec {
        games: vec![GameVariant::paper("paper")],
        populations: vec![
            PopulationSpec::homogeneous(Benchmark::Svm, 40),
            PopulationSpec {
                name: "mixed".to_string(),
                benchmarks: vec!["svm".into(), "pagerank".into(), "kmeans".into()],
                agents: 45,
            },
        ],
        plans: vec![
            NamedPlan {
                name: "clean".to_string(),
                plan: FaultPlan::none(),
            },
            NamedPlan {
                name: "composite".to_string(),
                plan: FaultPlan::composite(7),
            },
        ],
        adversaries: Vec::new(),
        policies: vec![
            PolicyKind::Greedy,
            PolicyKind::ExponentialBackoff,
            PolicyKind::EquilibriumThreshold,
        ],
        seeds: vec![3, 4],
        epochs: 60,
        options: RunOptions::default(),
    }
}

/// Trial 9 (svm, composite, E-B, seed 4) panics on its first attempt and
/// succeeds on the retry, after four trials of its (population, seed)
/// pair ran on clones of the same build.
fn panic_once(trial: usize, attempt: u32) -> Option<Sabotage> {
    (trial == 9 && attempt == 0).then_some(Sabotage::Panic)
}

#[test]
fn each_population_is_built_once_per_worker() {
    let spec = reuse_spec();
    let clean = run_sweep(&spec, 1, &mut Telemetry::noop()).unwrap();
    assert_eq!(clean.trials, 24);
    let clean_json = serde_json::to_string(&clean).unwrap();
    let supervision = Supervision {
        sabotage: Some(panic_once),
        ..Supervision::default()
    };
    for jobs in [1, 2, 4] {
        let mut kit = Telemetry::in_memory();
        let report = run_sweep_supervised(&spec, jobs, supervision.clone(), &mut kit).unwrap();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            clean_json,
            "jobs={jobs}: a retried trial on reused streams must not change a byte"
        );
        assert_eq!(kit.registry.counter_value("sweep.retries"), Some(1));
        let builds = kit
            .registry
            .counter_value("sweep.population_builds")
            .unwrap();
        if jobs == 1 {
            assert_eq!(builds, 4, "one build per (population, seed)");
        } else {
            assert!(builds <= jobs as u64 * 4, "jobs={jobs}: {builds} builds");
        }
    }
    // The counter is telemetry: a disabled kit carries none.
    let mut off = Telemetry::noop();
    run_sweep(&spec, 2, &mut off).unwrap();
    assert_eq!(off.registry.counter_value("sweep.population_builds"), None);
}

#[test]
fn reused_streams_match_a_fresh_build() {
    use sprint_sim::scenario::Scenario;

    // Trial 7 (svm, composite, Greedy, seed 4) runs after three trials
    // of its (population, seed) pair ran on clones of the same build.
    let spec = reuse_spec();
    let report = run_sweep(&spec, 1, &mut Telemetry::noop()).unwrap();
    let record = &report.records[7];
    assert_eq!(
        (record.population.as_str(), record.plan.as_str()),
        ("svm", "composite")
    );
    assert_eq!((record.policy, record.seed), (PolicyKind::Greedy, 4));
    let scenario = Scenario::homogeneous(Benchmark::Svm, 40, spec.epochs)
        .unwrap()
        .with_options(RunOptions {
            faults: FaultPlan::composite(7),
            ..RunOptions::default()
        });
    let single = scenario
        .execute(PolicyKind::Greedy, 4, 1, &mut Telemetry::noop())
        .unwrap();
    assert_eq!(record.tasks_per_agent_epoch, single.tasks_per_agent_epoch());
    assert_eq!(record.trips, single.trips());
}

//! Sweep-engine integration tests: the parallel sweep must be a pure
//! function of its spec — same spec, any job count, byte-identical
//! aggregate JSON — and must pay for each distinct game's equilibrium
//! solve exactly once and for each (population, seed) build at most once
//! per worker.

use sprint_game::EquilibriumCache;
use sprint_sim::runner::NamedPlan;
use sprint_sim::sweep::{
    run_sweep_shared, GameVariant, PopulationSpec, Sabotage, Supervision, SweepReport, SweepSpec,
};
use sprint_sim::telemetry::Telemetry;
use sprint_sim::{FaultPlan, PolicyKind, RunOptions};
use sprint_workloads::generator::Population;
use sprint_workloads::Benchmark;

/// A sweep on a fresh cache of its own.
fn sweep(
    spec: &SweepSpec,
    jobs: usize,
    supervision: Supervision,
    telemetry: &mut Telemetry,
) -> sprint_sim::Result<SweepReport> {
    let cache = EquilibriumCache::default();
    run_sweep_shared(spec, jobs, supervision, &cache, telemetry)
}

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
    let serial = sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).unwrap();
    let json_serial = serde_json::to_string(&serial).unwrap();
    for jobs in [2, 4, 8] {
        let parallel = sweep(&spec, jobs, Supervision::default(), &mut Telemetry::noop()).unwrap();
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
    let report = sweep(&spec, 4, Supervision::default(), &mut kit).unwrap();
    assert_eq!(report.trials, 16);
    // 2 games × 4 E-T seeds = 8 solve requests against 2 distinct keys:
    // the first request for each key misses and the other 6 hit.
    assert_eq!(
        kit.registry.counter_value("cache.equilibrium.misses"),
        Some(2)
    );
    assert_eq!(
        kit.registry.counter_value("cache.equilibrium.hits"),
        Some(6)
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
    let report = sweep(&spec, 2, Supervision::default(), &mut Telemetry::noop()).unwrap();
    assert_eq!(report.records.len(), spec.trial_count());
    let population = PopulationSpec::homogeneous(Benchmark::Svm, 50);
    for record in &report.records {
        let variant = spec.games.iter().find(|g| g.name == record.game).unwrap();
        let scenario = Scenario::with_game(
            Population::homogeneous(Benchmark::Svm, population.agents as usize).unwrap(),
            variant.build(population.agents).unwrap(),
            spec.epochs,
        )
        .unwrap();
        let single = scenario
            .execute(record.policy, record.seed, 1, &mut Telemetry::noop())
            .unwrap();
        let what = format!(
            "trial {} ({}, {})",
            record.trial, record.game, record.policy
        );
        assert_eq!(
            record.tasks_per_agent_epoch.to_bits(),
            single.tasks_per_agent_epoch().to_bits(),
            "{what}: a sweep trial must reproduce the equivalent single run bit-for-bit"
        );
        assert_eq!(
            record.total_tasks.to_bits(),
            single.total_tasks().to_bits(),
            "{what}"
        );
        assert_eq!(record.trips, single.trips(), "{what}");
        let occupancy = single.occupancy().fractions();
        for (a, b) in record.occupancy.iter().zip(occupancy) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: occupancy");
        }
    }
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
    let clean = sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).unwrap();
    assert_eq!(clean.trials, 24);
    let clean_json = serde_json::to_string(&clean).unwrap();
    let supervision = Supervision {
        sabotage: Some(panic_once),
        ..Supervision::default()
    };
    for jobs in [1, 2, 4] {
        let mut kit = Telemetry::in_memory();
        let report = sweep(&spec, jobs, supervision.clone(), &mut kit).unwrap();
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
        let tracks = kit.registry.counter_value("sweep.phase_tracks").unwrap();
        if jobs == 1 {
            assert_eq!(builds, 4, "one build per (population, seed)");
            assert_eq!(tracks, 4, "one recording per (population, seed)");
        } else {
            assert!(builds <= jobs as u64 * 4, "jobs={jobs}: {builds} builds");
            assert!(tracks <= builds, "jobs={jobs}: {tracks} recordings");
        }
        // Each pair has six trials. Four workers expect 1.5 of them
        // each, too few to pay for a recording, so they sample live.
        // Otherwise every trial replays exactly once: the sabotaged
        // attempt panics before it asks for streams.
        let replays = if jobs == 4 {
            assert_eq!(tracks, 0, "jobs=4 records nothing");
            0
        } else {
            24
        };
        assert_eq!(
            kit.registry.counter_value("sweep.phase_replays"),
            Some(replays),
            "jobs={jobs}"
        );
    }
    // The counters are telemetry: a disabled kit carries none.
    let mut off = Telemetry::noop();
    sweep(&spec, 2, Supervision::default(), &mut off).unwrap();
    for name in [
        "sweep.population_builds",
        "sweep.phase_tracks",
        "sweep.phase_replays",
    ] {
        assert_eq!(off.registry.counter_value(name), None, "{name}");
    }
}

#[test]
fn a_sweep_whose_trials_share_no_pair_samples_live() {
    // One trial per (population, seed) pair: recording a trajectory
    // would cost more than the single live run that uses it.
    let spec = SweepSpec {
        plans: Vec::new(),
        policies: vec![PolicyKind::Greedy],
        ..reuse_spec()
    };
    assert_eq!(spec.trial_count(), 4);
    let mut kit = Telemetry::in_memory();
    let report = sweep(&spec, 1, Supervision::default(), &mut kit).unwrap();
    assert_eq!(report.trials, 4);
    assert_eq!(kit.registry.counter_value("sweep.phase_tracks"), Some(0));
    assert_eq!(kit.registry.counter_value("sweep.phase_replays"), Some(0));
}

#[test]
fn reused_streams_match_a_fresh_build() {
    use sprint_sim::scenario::Scenario;

    // Trial 7 (svm, composite, Greedy, seed 4) runs after three trials
    // of its (population, seed) pair ran on clones of the same build.
    let spec = reuse_spec();
    let report = sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).unwrap();
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

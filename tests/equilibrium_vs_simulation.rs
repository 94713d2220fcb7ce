//! Cross-crate integration: the mean-field prediction must match what the
//! concrete simulator produces when the simulator's assumptions line up
//! with the analysis (iid utility draws), and stay close under realistic
//! phase persistence.

use computational_sprinting::game::{GameConfig, MeanFieldSolver, ThresholdStrategy};
use computational_sprinting::sim::engine::{run_guarded, RunGuard, SimConfig};
use computational_sprinting::sim::policies::ThresholdPolicy;
use computational_sprinting::stats::rng::SeedSequence;
use computational_sprinting::telemetry::Telemetry;
use computational_sprinting::workloads::phases::PhasedUtility;
use computational_sprinting::workloads::Benchmark;

/// Build iid (persistence = 1) utility streams so the simulation matches
/// the game's analytical assumptions exactly.
fn iid_streams(benchmark: Benchmark, n: usize, master_seed: u64) -> Vec<PhasedUtility> {
    let mut seq = SeedSequence::new(master_seed);
    (0..n)
        .map(|_| {
            PhasedUtility::new(benchmark.speedup_distribution(), 1.0, seq.next_seed())
                .expect("persistence 1 is valid")
        })
        .collect()
}

#[test]
fn mean_field_sprinter_count_matches_iid_simulation() {
    let config = GameConfig::paper_defaults();
    let density = Benchmark::DecisionTree.utility_density(512).unwrap();
    let eq = MeanFieldSolver::new(config)
        .run(&density, &mut Telemetry::noop())
        .unwrap();

    let mut streams = iid_streams(Benchmark::DecisionTree, 1000, 99);
    let mut policy =
        ThresholdPolicy::uniform("E-T", ThresholdStrategy::new(eq.threshold()).unwrap(), 1000)
            .unwrap();
    let sim_config = SimConfig::new(config, 2000, 99).unwrap();
    let result = run_guarded(
        &sim_config,
        &mut streams,
        &mut policy,
        &RunGuard::default(),
        1,
        &mut Telemetry::noop(),
    )
    .unwrap();

    // Equation 10's n_S versus the realized mean sprinter count. The
    // mean-field model ignores trips' interruption of the chain; with the
    // decision-tree equilibrium (P_trip ≈ 0) the two must agree within a
    // few percent.
    let predicted = eq.expected_sprinters();
    let simulated = result.mean_sprinters();
    let rel = (predicted - simulated).abs() / predicted;
    assert!(
        rel < 0.05,
        "predicted n_S = {predicted:.1}, simulated = {simulated:.1} (rel err {rel:.3})"
    );
}

#[test]
fn equation_9_sprint_rate_matches_iid_simulation() {
    let config = GameConfig::paper_defaults();
    let density = Benchmark::PageRank.utility_density(512).unwrap();
    let eq = MeanFieldSolver::new(config)
        .run(&density, &mut Telemetry::noop())
        .unwrap();

    // Single agent, huge band (never trips): the fraction of *active*
    // epochs that sprint must equal p_s.
    let solo = GameConfig::builder()
        .n_agents(1)
        .n_min(5.0)
        .n_max(6.0)
        .build()
        .unwrap();
    let mut streams = iid_streams(Benchmark::PageRank, 1, 7);
    let mut policy =
        ThresholdPolicy::uniform("E-T", ThresholdStrategy::new(eq.threshold()).unwrap(), 1)
            .unwrap();
    let sim_config = SimConfig::new(solo, 40_000, 7).unwrap();
    let result = run_guarded(
        &sim_config,
        &mut streams,
        &mut policy,
        &RunGuard::default(),
        1,
        &mut Telemetry::noop(),
    )
    .unwrap();

    let occ = result.occupancy();
    let active_epochs = occ.active_idle + occ.sprinting;
    let sim_ps = occ.sprinting as f64 / active_epochs as f64;
    assert!(
        (sim_ps - eq.sprint_probability()).abs() < 0.02,
        "Equation 9 p_s = {:.3}, simulated = {sim_ps:.3}",
        eq.sprint_probability()
    );
}

#[test]
fn phase_persistence_keeps_system_below_the_band() {
    // With realistic (correlated) phases the sprinter count drops below
    // the iid prediction — cooling consumes part of each high phase — so
    // the equilibrium stays safely below N_min. This is the documented
    // model-vs-simulation gap in EXPERIMENTS.md.
    let config = GameConfig::paper_defaults();
    let density = Benchmark::DecisionTree.utility_density(512).unwrap();
    let eq = MeanFieldSolver::new(config)
        .run(&density, &mut Telemetry::noop())
        .unwrap();

    let mut streams: Vec<PhasedUtility> = {
        let mut seq = SeedSequence::new(3);
        (0..1000)
            .map(|_| {
                PhasedUtility::new(
                    Benchmark::DecisionTree.speedup_distribution(),
                    3.0,
                    seq.next_seed(),
                )
                .unwrap()
            })
            .collect()
    };
    let mut policy =
        ThresholdPolicy::uniform("E-T", ThresholdStrategy::new(eq.threshold()).unwrap(), 1000)
            .unwrap();
    let result = run_guarded(
        &SimConfig::new(config, 1500, 3).unwrap(),
        &mut streams,
        &mut policy,
        &RunGuard::default(),
        1,
        &mut Telemetry::noop(),
    )
    .unwrap();
    assert!(result.mean_sprinters() < eq.expected_sprinters());
    assert!(result.mean_sprinters() > 0.5 * eq.expected_sprinters());
    // Finite-N phase correlation can brush the band at most rarely.
    assert!(result.trips() <= 2, "trips = {}", result.trips());
}

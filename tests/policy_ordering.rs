//! Cross-crate integration: the paper's headline performance orderings
//! hold end to end in the simulator.

use computational_sprinting::sim::policy::PolicyKind;
use computational_sprinting::sim::runner::compare;
use computational_sprinting::sim::scenario::Scenario;
use computational_sprinting::telemetry::Telemetry;
use computational_sprinting::workloads::Benchmark;

#[test]
fn equilibrium_beats_heuristics_for_diverse_profiles() {
    // §6.2: E-T outperforms G and E-B; E-T is competitive with C-T.
    for benchmark in [Benchmark::DecisionTree, Benchmark::PageRank] {
        let scenario = Scenario::homogeneous(benchmark, 300, 500).unwrap();
        let cmp = compare(
            &scenario,
            &PolicyKind::ALL,
            &[5, 6],
            0,
            &mut Telemetry::noop(),
        )
        .unwrap();
        let tp = |k: PolicyKind| cmp.outcome(k).unwrap().tasks_per_agent_epoch;
        let (g, eb, et, ct) = (
            tp(PolicyKind::Greedy),
            tp(PolicyKind::ExponentialBackoff),
            tp(PolicyKind::EquilibriumThreshold),
            tp(PolicyKind::CooperativeThreshold),
        );
        assert!(et > 2.5 * g, "{benchmark}: E-T {et:.3} vs G {g:.3}");
        assert!(et > 1.2 * eb, "{benchmark}: E-T {et:.3} vs E-B {eb:.3}");
        let efficiency = et / ct;
        assert!(
            efficiency > 0.85,
            "{benchmark}: E-T achieves {efficiency:.2} of C-T"
        );
    }
}

#[test]
fn narrow_profiles_degenerate_to_greedy() {
    // §6.2: for Linear Regression and Correlation, "E-T performs as badly
    // as G and E-B ... E-T produces a greedy equilibrium".
    for benchmark in [Benchmark::LinearRegression, Benchmark::Correlation] {
        let scenario = Scenario::homogeneous(benchmark, 300, 500).unwrap();
        let cmp = compare(
            &scenario,
            &[
                PolicyKind::Greedy,
                PolicyKind::EquilibriumThreshold,
                PolicyKind::CooperativeThreshold,
            ],
            &[7],
            0,
            &mut Telemetry::noop(),
        )
        .unwrap();
        let et = cmp
            .normalized_to_greedy(PolicyKind::EquilibriumThreshold)
            .unwrap();
        assert!(
            et < 1.5,
            "{benchmark}: E-T should be near-greedy, got {et:.2}x G"
        );
        // And far from the cooperative upper bound (36–65% in the paper).
        let ct = cmp
            .normalized_to_greedy(PolicyKind::CooperativeThreshold)
            .unwrap();
        assert!(
            et / ct < 0.8,
            "{benchmark}: E-T/C-T = {:.2} should be poor",
            et / ct
        );
    }
}

#[test]
fn equilibrium_policy_rarely_trips() {
    // Figure 6: the equilibrium dynamics avoid power emergencies almost
    // entirely while greedy oscillates through them.
    let scenario = Scenario::homogeneous(Benchmark::Svm, 400, 600).unwrap();
    let greedy = scenario
        .execute(PolicyKind::Greedy, 9, 1, &mut Telemetry::noop())
        .unwrap();
    let et = scenario
        .execute(
            PolicyKind::EquilibriumThreshold,
            9,
            1,
            &mut Telemetry::noop(),
        )
        .unwrap();
    assert!(greedy.trips() > 20);
    assert!(et.trips() <= 3, "E-T trips = {}", et.trips());
}

#[test]
fn heterogeneous_mixes_preserve_the_ordering() {
    // Figure 9's claim at one representative mix.
    let scenario = Scenario::heterogeneous(
        &[
            Benchmark::DecisionTree,
            Benchmark::PageRank,
            Benchmark::LinearRegression,
            Benchmark::Kmeans,
        ],
        400,
        500,
    )
    .unwrap();
    let cmp = compare(
        &scenario,
        &[
            PolicyKind::Greedy,
            PolicyKind::ExponentialBackoff,
            PolicyKind::EquilibriumThreshold,
        ],
        &[11, 12],
        0,
        &mut Telemetry::noop(),
    )
    .unwrap();
    let et = cmp
        .normalized_to_greedy(PolicyKind::EquilibriumThreshold)
        .unwrap();
    let eb = cmp
        .normalized_to_greedy(PolicyKind::ExponentialBackoff)
        .unwrap();
    assert!(et > eb, "E-T {et:.2} must beat E-B {eb:.2}");
    assert!(et > 1.8, "E-T {et:.2} must clearly beat G");
}

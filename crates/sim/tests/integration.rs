//! Simulator-level integration tests: determinism, stationarity, and
//! policy behavior over long horizons.

use sprint_sim::policy::PolicyKind;
use sprint_sim::runner::compare;
use sprint_sim::scenario::Scenario;
use sprint_sim::telemetry::Telemetry;
use sprint_stats::summary::OnlineStats;
use sprint_workloads::Benchmark;

#[test]
fn runs_are_bit_reproducible_across_invocations() {
    let scenario = Scenario::homogeneous(Benchmark::Svm, 120, 300).unwrap();
    for kind in PolicyKind::ALL {
        let a = scenario
            .execute(kind, 77, 1, &mut Telemetry::noop())
            .unwrap();
        let b = scenario
            .execute(kind, 77, 1, &mut Telemetry::noop())
            .unwrap();
        assert_eq!(a, b, "{kind} must be deterministic under a fixed seed");
    }
}

#[test]
fn different_seeds_produce_different_dynamics() {
    // Enough agents that finite-N band-brushing trips (heavy-tailed via
    // geometric recovery) do not dominate seed-to-seed throughput.
    let scenario = Scenario::homogeneous(Benchmark::Svm, 400, 800).unwrap();
    let a = scenario
        .execute(
            PolicyKind::EquilibriumThreshold,
            1,
            1,
            &mut Telemetry::noop(),
        )
        .unwrap();
    let b = scenario
        .execute(
            PolicyKind::EquilibriumThreshold,
            2,
            1,
            &mut Telemetry::noop(),
        )
        .unwrap();
    assert_ne!(a.sprinters_per_epoch(), b.sprinters_per_epoch());
    // But aggregate throughput is stable across seeds (stationarity).
    let rel =
        (a.tasks_per_agent_epoch() - b.tasks_per_agent_epoch()).abs() / a.tasks_per_agent_epoch();
    assert!(rel < 0.05, "throughput varies {rel:.3} across seeds");
}

#[test]
fn equilibrium_sprinter_series_is_stationary() {
    // Figure 6: E-T produces a flat series. Split the horizon into
    // quarters; their means must agree within a few percent.
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 400, 800).unwrap();
    let r = scenario
        .execute(
            PolicyKind::EquilibriumThreshold,
            5,
            1,
            &mut Telemetry::noop(),
        )
        .unwrap();
    let series: Vec<f64> = r
        .sprinters_per_epoch()
        .iter()
        .map(|&s| f64::from(s))
        .collect();
    let quarter = series.len() / 4;
    let means: Vec<f64> = series
        .chunks(quarter)
        .take(4)
        .map(|c| c.iter().copied().collect::<OnlineStats>().mean())
        .collect();
    let overall = series.iter().copied().collect::<OnlineStats>().mean();
    for (i, m) in means.iter().enumerate() {
        assert!(
            (m - overall).abs() / overall < 0.08,
            "quarter {i}: mean {m:.1} vs overall {overall:.1}"
        );
    }
}

#[test]
fn backoff_stabilizes_after_initial_trips() {
    // E-B learns from early emergencies: the second half of the run must
    // trip much less than the first.
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 300, 1000).unwrap();
    let r = scenario
        .execute(PolicyKind::ExponentialBackoff, 7, 1, &mut Telemetry::noop())
        .unwrap();
    let series = r.sprinters_per_epoch();
    // Count epochs at the rack ceiling (everyone sprinting = the greedy
    // signature) in each half.
    let n = series.len() / 2;
    let saturated = |s: &[u32]| s.iter().filter(|&&x| x == 300).count();
    assert!(
        saturated(&series[n..]) <= saturated(&series[..n]),
        "backoff must not get more aggressive over time"
    );
    assert!(r.trips() < 40, "E-B trips = {}", r.trips());
}

#[test]
fn comparison_is_deterministic_despite_parallelism() {
    // The parallel runner must produce identical aggregates regardless of
    // thread scheduling.
    let scenario = Scenario::homogeneous(Benchmark::Kmeans, 80, 200).unwrap();
    let a = compare(
        &scenario,
        &PolicyKind::ALL,
        &[3, 4],
        0,
        &mut Telemetry::noop(),
    )
    .unwrap();
    let b = compare(
        &scenario,
        &PolicyKind::ALL,
        &[3, 4],
        0,
        &mut Telemetry::noop(),
    )
    .unwrap();
    assert_eq!(a, b);
}

#[test]
fn longer_horizons_do_not_change_the_verdict() {
    // The E-T > G ordering is not an artifact of the horizon length.
    let short = Scenario::homogeneous(Benchmark::PageRank, 150, 200).unwrap();
    let long = Scenario::homogeneous(Benchmark::PageRank, 150, 1600).unwrap();
    for scenario in [short, long] {
        let g = scenario
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
        assert!(
            et.tasks_per_agent_epoch() > 2.0 * g.tasks_per_agent_epoch(),
            "E-T {} vs G {} at {} epochs",
            et.tasks_per_agent_epoch(),
            g.tasks_per_agent_epoch(),
            scenario.epochs()
        );
    }
}

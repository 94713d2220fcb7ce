//! Property-based tests on the core invariants, spanning the stats,
//! game, and simulation crates.

use proptest::prelude::*;

use computational_sprinting::game::bellman::{self, BellmanMethod};
use computational_sprinting::game::trip::TripCurve;
use computational_sprinting::game::{GameConfig, ThresholdStrategy};
use computational_sprinting::sim::engine::{run_guarded, RunGuard, SimConfig};
use computational_sprinting::sim::policies::ThresholdPolicy;
use computational_sprinting::stats::density::DiscreteDensity;
use computational_sprinting::stats::markov::active_cooling_stationary;
use computational_sprinting::telemetry::Telemetry;
use computational_sprinting::workloads::Benchmark;

fn arb_density() -> impl Strategy<Value = DiscreteDensity> {
    (
        prop::collection::vec(0.0f64..10.0, 4..64),
        0.0f64..5.0,
        0.1f64..20.0,
    )
        .prop_filter_map("needs positive mass", |(values, lo, width)| {
            DiscreteDensity::new(lo, lo + width, values).ok()
        })
}

proptest! {
    #[test]
    fn density_mass_is_one(d in arb_density()) {
        prop_assert!((d.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_tail_complement(d in arb_density(), q in 0.0f64..1.0) {
        let x = d.lo() + q * (d.hi() - d.lo());
        prop_assert!((d.cdf(x) + d.tail_mass(x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotone(d in arb_density(), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let xa = d.lo() + a * (d.hi() - d.lo());
        let xb = d.lo() + b * (d.hi() - d.lo());
        prop_assert!(d.cdf(xa) <= d.cdf(xb) + 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf(d in arb_density(), q in 0.001f64..0.999) {
        let x = d.quantile(q).unwrap();
        prop_assert!((d.cdf(x) - q).abs() < 1e-6);
    }

    #[test]
    fn partial_expectation_bounded_by_mean_and_tail(
        d in arb_density(),
        q in 0.0f64..1.0,
    ) {
        let u = d.lo() + q * (d.hi() - d.lo());
        let pe = d.partial_expectation(u);
        // 0 <= PE(u) <= E[X] when support is non-negative; always
        // PE(u) <= tail * hi and PE(u) >= tail * max(u, lo).
        let tail = d.tail_mass(u);
        prop_assert!(pe <= tail * d.hi() + 1e-9);
        prop_assert!(pe >= tail * u.max(d.lo()) - 1e-9);
    }

    #[test]
    fn stationary_active_share_properties(
        ps in 0.0f64..=1.0,
        pc in 0.0f64..0.999,
    ) {
        let (pa, pcool) = active_cooling_stationary(ps, pc).unwrap();
        prop_assert!((pa + pcool - 1.0).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&pa));
        // More sprinting can only shrink the active share.
        if ps < 1.0 {
            let (pa2, _) = active_cooling_stationary((ps + 0.1).min(1.0), pc).unwrap();
            prop_assert!(pa2 <= pa + 1e-12);
        }
    }

    #[test]
    fn trip_curve_monotone_and_bounded(
        n_min in 1.0f64..500.0,
        width in 1.0f64..500.0,
        a in 0.0f64..1000.0,
        b in 0.0f64..1000.0,
    ) {
        let curve = TripCurve::new(n_min, n_min + width);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(curve.p_trip(lo) <= curve.p_trip(hi) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&curve.p_trip(a)));
    }

    #[test]
    fn bellman_threshold_nonnegative_and_bounded(
        p_trip in 0.0f64..=1.0,
        pc in 0.0f64..0.95,
        pr in 0.0f64..=1.0,
    ) {
        let cfg = GameConfig::builder()
            .p_cooling(pc)
            .p_recovery(pr)
            .build()
            .unwrap();
        let density = Benchmark::DecisionTree.utility_density(128).unwrap();
        let sol = bellman::solve(&cfg, &density, p_trip, BellmanMethod::PolicyIteration)
            .unwrap();
        prop_assert!(sol.threshold >= 0.0);
        // The threshold never exceeds the best utility on offer.
        prop_assert!(sol.threshold <= density.hi());
        // Being active dominates both constrained states, and values are
        // non-negative.
        prop_assert!(sol.values.v_active >= sol.values.v_cooling - 1e-9);
        prop_assert!(sol.values.v_active >= sol.values.v_recovery - 1e-9);
        prop_assert!(sol.values.v_recovery >= -1e-9);
        // (No universal ordering between cooling and recovery: recovery
        // can beat cooling when it is short or when a high P_trip makes
        // cooling risky — cooling agents can still be swept into recovery
        // by others' trips, while Equation 6 lets recovery run out
        // undisturbed. The paper-parameter ordering is unit-tested in
        // `sprint_game::bellman`.)
    }

    #[test]
    fn policy_evaluation_never_beats_optimum(
        p_trip in 0.0f64..=1.0,
        alt in 0.0f64..16.0,
    ) {
        let cfg = GameConfig::paper_defaults();
        let density = Benchmark::PageRank.utility_density(128).unwrap();
        let opt = bellman::solve(&cfg, &density, p_trip, BellmanMethod::PolicyIteration)
            .unwrap();
        let v_alt = bellman::evaluate_threshold_policy(&cfg, &density, p_trip, alt)
            .unwrap()
            .v_active;
        prop_assert!(v_alt <= opt.values.v_active + 1e-6);
    }
}

proptest! {
    // Simulation properties are costlier; fewer cases suffice.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn simulation_conserves_agent_epochs(
        seed in 0u64..1000,
        threshold in 0.0f64..10.0,
        epochs in 10usize..120,
    ) {
        let n = 40u32;
        let game = GameConfig::builder()
            .n_agents(n)
            .n_min(10.0)
            .n_max(30.0)
            .build()
            .unwrap();
        let cfg = SimConfig::new(game, epochs, seed).unwrap();
        let mut streams =
            computational_sprinting::workloads::generator::Population::homogeneous(
                Benchmark::Svm,
                n as usize,
            )
            .unwrap()
            .spawn_streams(seed)
            .unwrap();
        let mut policy = ThresholdPolicy::uniform(
            "prop",
            ThresholdStrategy::new(threshold).unwrap(),
            n as usize,
        )
        .unwrap();
        let r = run_guarded(&cfg, &mut streams, &mut policy, &RunGuard::default(), 1, &mut Telemetry::noop()).unwrap();
        // Every agent-epoch is accounted to exactly one condition.
        prop_assert_eq!(r.occupancy().total(), u64::from(n) * epochs as u64);
        // Throughput is bounded: at least recovery-share zero, at most
        // every agent sprinting at the maximum utility.
        prop_assert!(r.total_tasks() >= 0.0);
        prop_assert!(r.tasks_per_agent_epoch() <= 16.0);
        // Sprinter counts never exceed the population.
        prop_assert!(r.sprinters_per_epoch().iter().all(|&s| s <= n));
    }
}

//! Property-based tests for the numerical substrate.

use proptest::prelude::*;
use rand::RngCore;

use sprint_stats::dist::{ContinuousDistribution, LogNormal, Mixture, TruncatedNormal, Uniform};
use sprint_stats::histogram::Histogram;
use sprint_stats::kde::{kernel_density_with_bandwidth, silverman_bandwidth};
use sprint_stats::markov::MarkovChain;
use sprint_stats::rng::{geometric_gap, seeded_rng, CounterRng, GapTable, SeedSequence};
use sprint_stats::summary::{confidence_interval_95, percentile, OnlineStats};

fn arb_uniform() -> impl Strategy<Value = Uniform> {
    (-100.0f64..100.0, 0.1f64..100.0)
        .prop_map(|(lo, width)| Uniform::new(lo, lo + width).expect("valid bounds"))
}

fn arb_truncated_normal() -> impl Strategy<Value = TruncatedNormal> {
    (-10.0f64..10.0, 0.1f64..5.0, 0.5f64..8.0).prop_map(|(mu, sigma, half)| {
        TruncatedNormal::new(mu, sigma, mu - half, mu + half).expect("valid truncation")
    })
}

proptest! {
    #[test]
    fn uniform_cdf_bounds_and_monotonicity(u in arb_uniform(), a in -200.0f64..200.0, b in -200.0f64..200.0) {
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(u.cdf(x) <= u.cdf(y) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&u.cdf(a)));
    }

    #[test]
    fn truncated_normal_mean_inside_support(d in arb_truncated_normal()) {
        let (lo, hi) = d.support();
        let m = d.mean();
        prop_assert!(m >= lo && m <= hi);
        prop_assert!(d.cdf(lo) <= 1e-12);
        prop_assert!((d.cdf(hi) - 1.0).abs() <= 1e-9);
    }

    #[test]
    fn samples_stay_in_support(d in arb_truncated_normal(), seed in 0u64..1000) {
        let mut rng = seeded_rng(seed);
        let (lo, hi) = d.support();
        for _ in 0..64 {
            let x = d.sample(&mut rng);
            prop_assert!((lo..=hi).contains(&x));
        }
    }

    #[test]
    fn lognormal_median_is_exp_mu(mu in -2.0f64..2.0, sigma in 0.05f64..1.5) {
        let d = LogNormal::new(mu, sigma).expect("valid sigma");
        // cdf(exp(mu)) = 1/2 for any sigma.
        prop_assert!((d.cdf(mu.exp()) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn mixture_cdf_between_component_cdfs(
        w in 0.0f64..1.0,
        x in -50.0f64..50.0,
    ) {
        let a = Uniform::new(-10.0, 0.0).expect("valid");
        let b = Uniform::new(0.0, 10.0).expect("valid");
        let ca = a.cdf(x);
        let cb = b.cdf(x);
        let m = Mixture::new(
            vec![Box::new(a), Box::new(b)],
            vec![1.0 - w, w],
        )
        .expect("valid mixture");
        let cm = m.cdf(x);
        prop_assert!(cm >= ca.min(cb) - 1e-12 && cm <= ca.max(cb) + 1e-12);
    }

    #[test]
    fn histogram_counts_everything(
        samples in prop::collection::vec(-100.0f64..100.0, 1..200),
        bins in 1usize..64,
    ) {
        let h = Histogram::from_samples(&samples, bins).expect("valid samples");
        prop_assert_eq!(h.count(), samples.len() as u64);
        let mass: f64 = h.densities().iter().map(|d| d * h.bin_width()).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_monotone(
        samples in prop::collection::vec(0.0f64..10.0, 2..100),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let h = Histogram::from_samples(&samples, 16).expect("valid samples");
        let (lo_q, hi_q) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(h.quantile(lo_q).unwrap() <= h.quantile(hi_q).unwrap() + 1e-9);
    }

    #[test]
    fn kde_integrates_to_one(
        samples in prop::collection::vec(-5.0f64..5.0, 2..100),
        bw in 0.05f64..2.0,
    ) {
        let d = kernel_density_with_bandwidth(&samples, 128, bw).expect("valid inputs");
        prop_assert!((d.total_mass() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn silverman_bandwidth_positive(samples in prop::collection::vec(-50.0f64..50.0, 1..100)) {
        prop_assert!(silverman_bandwidth(&samples).expect("non-empty") > 0.0);
    }

    #[test]
    fn markov_stationary_is_fixed_point(
        rows in prop::collection::vec(
            prop::collection::vec(0.05f64..1.0, 3),
            3,
        ),
    ) {
        let p: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|r| {
                let s: f64 = r.iter().sum();
                r.into_iter().map(|x| x / s).collect()
            })
            .collect();
        let mc = MarkovChain::new(p).expect("normalized rows");
        let pi = mc.stationary_direct().expect("irreducible by construction");
        let stepped = mc.step(&pi).expect("matching dimension");
        for (a, b) in pi.iter().zip(&stepped) {
            prop_assert!((a - b).abs() < 1e-8);
        }
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_merge_is_order_independent(
        a in prop::collection::vec(-100.0f64..100.0, 0..50),
        b in prop::collection::vec(-100.0f64..100.0, 0..50),
    ) {
        let mut ab: OnlineStats = a.iter().copied().collect();
        let sb: OnlineStats = b.iter().copied().collect();
        ab.merge(&sb);
        let mut ba: OnlineStats = b.iter().copied().collect();
        let sa: OnlineStats = a.iter().copied().collect();
        ba.merge(&sa);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-7);
    }

    #[test]
    fn percentile_brackets_extremes(data in prop::collection::vec(-10.0f64..10.0, 1..60)) {
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(percentile(&data, 0.0).unwrap(), min);
        prop_assert_eq!(percentile(&data, 100.0).unwrap(), max);
        let p50 = percentile(&data, 50.0).unwrap();
        prop_assert!((min..=max).contains(&p50));
    }

    #[test]
    fn confidence_interval_brackets_the_sample_mean(
        data in prop::collection::vec(-10.0f64..10.0, 2..60),
    ) {
        let ci = confidence_interval_95(&data).expect("enough samples");
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        prop_assert!(ci.contains(mean));
        prop_assert!(ci.half_width >= 0.0);
    }

    #[test]
    fn seed_sequences_never_collide_within_a_run(master in 0u64..u64::MAX, n in 2usize..64) {
        let mut seq = SeedSequence::new(master);
        let seeds: Vec<u64> = (0..n).map(|_| seq.next_seed()).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), seeds.len());
    }
}

/// Start `sample` and `skip_sample` from the same generator state `draws`
/// times over one stream: the next four words must agree every time, so
/// skipping a sample consumes exactly the draws taking it would.
fn assert_skip_consumes_sample_draws(name: &str, d: &dyn ContinuousDistribution, seed: u64) {
    const DRAWS: usize = 1_000_000;
    let mut rng = seeded_rng(seed);
    for i in 0..DRAWS {
        let mut sampled = rng.clone();
        d.sample(&mut sampled);
        d.skip_sample(&mut rng);
        for _ in 0..4 {
            assert_eq!(sampled.next_u64(), rng.next_u64(), "{name}: draw {i}");
        }
    }
}

#[test]
fn skip_sample_consumes_the_draws_of_every_workload_profile() {
    for (k, b) in sprint_workloads::Benchmark::ALL.into_iter().enumerate() {
        let d = b.speedup_distribution();
        assert_skip_consumes_sample_draws(b.name(), d.as_ref(), 0xD1CE + k as u64);
    }
}

#[test]
fn skip_sample_consumes_the_draws_of_edge_truncations() {
    let cases = [
        // The mean lies outside the band: no radius is safe.
        ("mu outside", TruncatedNormal::new(0.0, 1.0, 0.5, 2.5)),
        // A band narrower than the margin that absorbs rounding.
        (
            "narrow band",
            TruncatedNormal::new(1e6, 1e-4, 1e6 - 1e-3, 1e6 + 1e-3),
        ),
        // One bound at the mean: only the exact test is safe.
        ("bound at mu", TruncatedNormal::new(2.0, 0.5, 2.0, 4.0)),
    ];
    for (k, (name, d)) in cases.into_iter().enumerate() {
        assert_skip_consumes_sample_draws(name, &d.expect("valid truncation"), 0xED6E + k as u64);
    }
}

/// The gap scales the engine draws with: phase persistence `P` resamples
/// with probability `1 / P` (scale `1 / ln(1 - 1/P)`), and cooling
/// persistence `p_c` exits with probability `1 - p_c` (scale
/// `1 / ln(p_c)`).
fn engine_gap_scales() -> Vec<(String, f64)> {
    let phases = [1.0, 1.5, 3.0, 24.0, 1000.0]
        .map(|p: f64| (format!("persistence {p}"), 1.0 / (1.0 - 1.0 / p).ln()));
    let cooling =
        [0.0, 0.5, 0.75, 0.99, 1.0 - 1e-9].map(|p_c: f64| (format!("p_c {p_c}"), p_c.ln().recip()));
    phases.into_iter().chain(cooling).collect()
}

/// The table's gap and the logarithm's at grid index `m`; the low 11
/// bits of the word must not matter.
fn both_gaps(table: &GapTable, m: u64, low: u64) -> (u64, u64) {
    let u = m as f64 / (1u64 << 53) as f64;
    (
        table.gap(m << 11 | low & 0x7FF),
        geometric_gap(u, table.scale()),
    )
}

#[test]
fn gap_table_equals_the_logarithm_around_every_bound() {
    const REACH: u64 = 4096;
    const GRID: u64 = 1 << 53;
    for (name, scale) in engine_gap_scales() {
        let table = GapTable::new(scale);
        assert!(
            !table.bounds().is_empty(),
            "{name}: the build fell back to ln"
        );
        let mut points = vec![0, GRID - 1];
        for &b in table.bounds() {
            points.extend(b.saturating_sub(REACH)..(b + REACH + 1).min(GRID));
        }
        for m in points {
            let (got, want) = both_gaps(&table, m, m.rotate_left(17));
            assert_eq!(got, want, "{name}: grid index {m}");
        }
    }
}

#[test]
fn gap_table_equals_the_logarithm_on_random_words() {
    for (k, (name, scale)) in engine_gap_scales().into_iter().enumerate() {
        let table = GapTable::new(scale);
        let rng = CounterRng::new(0x6A9, k as u64);
        for i in 0..1_000_000 {
            let w = rng.word(i, 0, 0);
            let (got, want) = both_gaps(&table, w >> 11, w);
            assert_eq!(got, want, "{name}: word {w:#x}");
        }
    }
}

#[test]
fn gap_tables_leave_at_most_about_one_draw_in_a_million_to_the_logarithm() {
    let entries = |scale: f64| GapTable::new(scale).bounds().len();
    assert_eq!(entries((1.0 - 1.0 / 3.0f64).ln().recip()), 35);
    assert_eq!(entries(0.5f64.ln().recip()), 20);
    assert_eq!(entries(0.75f64.ln().recip()), 49);
    for (name, scale) in engine_gap_scales() {
        let table = GapTable::new(scale);
        let bounds = table.bounds();
        let tail = ((1u64 << 53) - bounds[bounds.len() - 1]) as f64 / (1u64 << 53) as f64;
        if bounds.len() < GapTable::CAPACITY {
            assert!(tail <= 2f64.powi(-20) * 1.001, "{name}: tail {tail}");
        }
    }
}

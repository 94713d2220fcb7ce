//! Shared plumbing for the reproduction harness.
//!
//! Every table and figure of the paper has a `harness = false` bench
//! target in `benches/` that regenerates its rows/series;
//! `cargo bench -p sprint-bench` reproduces the whole evaluation. This
//! library holds the pieces the targets share: the paper-scale scenario
//! builders, seed conventions, plain-text table formatting, and the
//! paired estimator ([`paired_gate`]) that overhead gates decide with.

use sprint_sim::scenario::Scenario;
use sprint_stats::rng::splitmix64;
use sprint_stats::summary::percentile;
use sprint_workloads::Benchmark;

/// Paper scale: 1000 users per rack (§5, "Simulation Methods").
pub const PAPER_AGENTS: u32 = 1000;

/// Epoch horizon used for the dynamics figures (Figure 6 plots 1000).
pub const PAPER_EPOCHS: usize = 1000;

/// Seeds for repeated trials. Deterministic so EXPERIMENTS.md is
/// reproducible.
pub const TRIAL_SEEDS: [u64; 3] = [11, 23, 47];

/// Build the paper-scale homogeneous scenario for one benchmark.
///
/// # Panics
///
/// Panics on invalid configuration — impossible for the built-in
/// constants.
#[must_use]
pub fn paper_scenario(benchmark: Benchmark, epochs: usize) -> Scenario {
    Scenario::homogeneous(benchmark, PAPER_AGENTS, epochs)
        .expect("paper-scale scenario parameters are valid")
}

/// Print the standard experiment header.
pub fn header(id: &str, title: &str, paper_says: &str) {
    println!();
    println!("================================================================");
    println!("{id} — {title}");
    println!("paper: {paper_says}");
    println!("================================================================");
}

/// Print a labelled table row of floats with 3-decimal precision.
pub fn row(label: &str, values: &[f64]) {
    print!("{label:<14}");
    for v in values {
        print!(" {v:>9.3}");
    }
    println!();
}

/// Print a table column header.
pub fn columns(label: &str, names: &[&str]) {
    print!("{label:<14}");
    for n in names {
        print!(" {n:>9}");
    }
    println!();
}

/// Render a numeric series as a compact ASCII sparkline (for Figure 6's
/// time series in terminal output).
#[must_use]
pub fn sparkline(values: &[f64], max: f64) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .iter()
        .map(|&v| {
            let idx = if max <= 0.0 {
                0
            } else {
                (((v / max) * (LEVELS.len() - 1) as f64).round() as usize).min(LEVELS.len() - 1)
            };
            LEVELS[idx]
        })
        .collect()
}

/// Downsample a series to `n` bucket means (for compact printing).
#[must_use]
pub fn downsample(series: &[f64], n: usize) -> Vec<f64> {
    if series.is_empty() || n == 0 {
        return Vec::new();
    }
    let chunk = series.len().div_ceil(n);
    series
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Pairs run before the first verdict of [`paired_gate`].
const MIN_PAIRS: usize = 9;
/// Pairs after which an undecided interval is [`Verdict::Unresolved`].
const MAX_PAIRS: usize = 41;
/// Two-sided confidence of the bootstrap interval.
const CONFIDENCE: f64 = 0.95;
/// Bootstrap resamples per interval.
const RESAMPLES: usize = 2000;
/// Bootstrap seed, so a verdict repeats on the same pairs.
const BOOTSTRAP_SEED: u64 = 0x0B5_5EED;

/// How [`paired_gate`] estimates, for the reports that record its result.
pub const PAIRED_ESTIMATOR: &str = "median per-pair ratio treatment/baseline, (baseline, \
     treatment) pairs in alternating order, 95% percentile bootstrap interval (2000 \
     resamples, seed 0xB55EED), 9 to 41 pairs";

/// What a paired gate concluded about a bound on a slowdown ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The whole interval lies at or under the bound.
    Pass,
    /// The whole interval lies over the bound.
    Fail,
    /// The interval still straddles the bound at the pair cap.
    Unresolved,
}

impl Verdict {
    /// The verdict's name as gates print it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// What [`paired_gate`] measured and concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedEstimate {
    /// `(baseline, treatment)` nanoseconds per pair, in run order.
    pub pairs: Vec<(u64, u64)>,
    /// Median per-pair ratio `treatment / baseline`.
    pub ratio: f64,
    /// The ratio's bootstrap interval.
    pub interval: (f64, f64),
    /// Where the interval lies against `1 + budget`.
    pub verdict: Verdict,
}

impl PairedEstimate {
    /// The median per-pair slowdown, `ratio - 1`.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.ratio - 1.0
    }
}

/// The `p`-th percentile of per-pair ratios, which are finite.
fn percentile_of(ratios: &[f64], p: f64) -> f64 {
    percentile(ratios, p).expect("per-pair ratios are finite and non-empty")
}

/// The median of `ratios` and its seeded percentile bootstrap interval.
fn interval(ratios: &[f64]) -> (f64, (f64, f64)) {
    let mut state = BOOTSTRAP_SEED;
    let mut sample = vec![0.0; ratios.len()];
    let medians: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            for x in &mut sample {
                *x = ratios[(splitmix64(&mut state) % ratios.len() as u64) as usize];
            }
            percentile_of(&sample, 50.0)
        })
        .collect();
    let tail = 50.0 * (1.0 - CONFIDENCE);
    (
        percentile_of(ratios, 50.0),
        (
            percentile_of(&medians, tail),
            percentile_of(&medians, 100.0 - tail),
        ),
    )
}

/// Where `interval` lies against `1 + budget`.
fn verdict(budget: f64, interval: (f64, f64)) -> Verdict {
    let bound = 1.0 + budget;
    if interval.1 <= bound {
        Verdict::Pass
    } else if interval.0 > bound {
        Verdict::Fail
    } else {
        Verdict::Unresolved
    }
}

/// Decide whether `treatment` is at most `budget` slower than `baseline`
/// (each returns the nanoseconds of one rep). Reps run in (baseline,
/// treatment) pairs whose order alternates, so slow host phases land on
/// both sides; the estimate is the median of the per-pair ratios
/// `treatment / baseline` with a seeded percentile bootstrap interval
/// ([`PAIRED_ESTIMATOR`]). Pairs are added until the interval lies
/// wholly on one side of `1 + budget` or the pair cap is reached.
pub fn paired_gate(
    budget: f64,
    mut baseline: impl FnMut() -> u64,
    mut treatment: impl FnMut() -> u64,
) -> PairedEstimate {
    let mut pairs = Vec::with_capacity(MAX_PAIRS);
    let mut ratios = Vec::with_capacity(MAX_PAIRS);
    loop {
        let pair = if pairs.len() % 2 == 0 {
            let b = baseline();
            (b, treatment())
        } else {
            let t = treatment();
            (baseline(), t)
        };
        pairs.push(pair);
        ratios.push(pair.1 as f64 / pair.0.max(1) as f64);
        if pairs.len() < MIN_PAIRS {
            continue;
        }
        let (ratio, interval) = interval(&ratios);
        let verdict = verdict(budget, interval);
        if verdict != Verdict::Unresolved || pairs.len() >= MAX_PAIRS {
            return PairedEstimate {
                pairs,
                ratio,
                interval,
                verdict,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rep clock whose reps take `base` nanoseconds scaled by `factor`,
    /// plus a deterministic spread of about `spread` either way.
    fn reps(base: f64, factor: f64, spread: f64, seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            (base * factor * (1.0 + spread * (2.0 * u - 1.0))) as u64
        }
    }

    #[test]
    fn paired_gate_passes_an_equal_treatment_and_fails_a_slow_one() {
        let same = paired_gate(0.05, reps(1e8, 1.0, 0.02, 1), reps(1e8, 1.0, 0.02, 2));
        assert_eq!(same.verdict, Verdict::Pass);
        assert_eq!(same.pairs.len(), MIN_PAIRS, "decided at the first verdict");
        assert!(same.interval.0 <= same.ratio && same.ratio <= same.interval.1);
        let slow = paired_gate(0.05, reps(1e8, 1.0, 0.02, 1), reps(1e8, 1.10, 0.02, 2));
        assert_eq!(slow.verdict, Verdict::Fail);
        assert!((slow.overhead() - 0.10).abs() < 0.03, "{}", slow.overhead());
    }

    #[test]
    fn paired_gate_adds_pairs_then_reports_unresolved_at_the_cap() {
        // A true slowdown at the bound never clears it either way.
        let edge = paired_gate(0.05, reps(1e8, 1.0, 0.03, 1), reps(1e8, 1.05, 0.03, 2));
        assert_eq!(edge.verdict, Verdict::Unresolved);
        assert_eq!(edge.pairs.len(), MAX_PAIRS);
        assert!(edge.interval.0 <= 1.05 && 1.05 < edge.interval.1);
    }

    #[test]
    fn paired_interval_repeats_under_its_seed() {
        let ratios = [1.01, 0.97, 1.04, 0.99, 1.0, 1.02, 0.98];
        assert_eq!(interval(&ratios), interval(&ratios));
        assert_eq!(interval(&ratios).0, 1.0);
        assert_eq!(verdict(0.05, (0.9, 1.05)), Verdict::Pass);
        assert_eq!(verdict(0.05, (1.051, 1.2)), Verdict::Fail);
        assert_eq!(verdict(0.05, (1.0, 1.06)), Verdict::Unresolved);
    }

    #[test]
    fn the_estimator_description_names_the_constants() {
        for part in [
            format!("{}% percentile", (CONFIDENCE * 100.0).round()),
            format!("{RESAMPLES} resamples"),
            format!("seed {BOOTSTRAP_SEED:#X}"),
            format!("{MIN_PAIRS} to {MAX_PAIRS} pairs"),
        ] {
            assert!(PAIRED_ESTIMATOR.contains(&part), "{part}");
        }
    }

    #[test]
    fn scenario_builder_matches_paper_scale() {
        let s = paper_scenario(Benchmark::DecisionTree, 10);
        assert_eq!(s.game().n_agents(), 1000);
        assert_eq!(s.game().n_min(), 250.0);
        assert_eq!(s.game().n_max(), 750.0);
    }

    #[test]
    fn sparkline_scales() {
        let s = sparkline(&[0.0, 0.5, 1.0], 1.0);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[1.0], 0.0), "▁");
    }

    #[test]
    fn downsample_means() {
        let d = downsample(&[1.0, 1.0, 3.0, 3.0], 2);
        assert_eq!(d, vec![1.0, 3.0]);
        assert!(downsample(&[], 4).is_empty());
        assert!(downsample(&[1.0], 0).is_empty());
    }
}

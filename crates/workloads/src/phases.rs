//! Temporally correlated phase behavior.
//!
//! Real applications move through computational phases: a Spark stage that
//! benefits 10× from sprinting is usually followed by more epochs of the
//! same stage. The game's analysis only needs the *stationary* utility
//! density `f(u)` (paper §4), but the simulator should present agents with
//! realistic correlated sequences — phase overlap across randomly-arriving
//! agents is what exercises the equilibrium (paper §5, "Simulation
//! Methods").
//!
//! [`PhasedUtility`] holds each utility value for a geometrically
//! distributed number of epochs (mean = the persistence), then redraws
//! from the benchmark's distribution. The marginal distribution of the
//! emitted sequence equals the benchmark's `f(u)` while consecutive epochs
//! are positively correlated.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use sprint_stats::density::DiscreteDensity;
use sprint_stats::dist::ContinuousDistribution;
use sprint_stats::rng::{seeded_rng, CounterLane, CounterRng};

use crate::benchmark::Benchmark;
use crate::WorkloadError;

/// Grid resolution of the discretized sample table a cohort of streams
/// shares for the simulator's O(1) phase-resample kernel. At 1024 bins the
/// quantization error of a resampled phase value is below 0.1% of the
/// support width — far inside every statistical tolerance in the suite.
pub const PHASE_SAMPLE_BINS: usize = 1024;

/// Default mean phase persistence: data-analytics phases span a handful
/// of 150 s epochs; 3 epochs reflects multi-epoch Spark stages.
pub const DEFAULT_PERSISTENCE_EPOCHS: f64 = 3.0;

/// Purpose tag of the counter stream the engine's lane kernel draws a
/// stream's phase changes from. Unlike the engine's own purposes, it is
/// rooted at each *stream's own seed* (not the run seed), so a
/// population's utility sequences depend only on how it was built.
const PHASE_PURPOSE: u64 = 8;

/// The counter lane of the phase draws of the stream rooted at `seed`:
/// the key the engine's lane kernel advances that agent's phase with.
/// The map from seed to key is a bijection, so two agents share a key
/// exactly when they share a seed.
#[must_use]
pub fn phase_key(seed: u64) -> CounterLane {
    CounterRng::new(seed, PHASE_PURPOSE).lane(0)
}

/// What every stream over one distribution shares: the distribution
/// phases redraw from, its discretized sample table, and the mean phase
/// persistence. Built once per application, not once per agent.
#[derive(Debug)]
pub struct Cohort {
    dist: Box<dyn ContinuousDistribution>,
    /// The discretized stationary density `f(u)`, so the engine can
    /// resample phases with one inverse-cdf lookup.
    table: Arc<DiscreteDensity>,
    /// Mean number of epochs a phase persists (>= 1; 1 = iid).
    persistence_epochs: f64,
}

impl Cohort {
    /// Discretize `dist` into the cohort's sample table.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when
    /// `persistence_epochs < 1`.
    pub(crate) fn new(
        dist: Box<dyn ContinuousDistribution>,
        persistence_epochs: f64,
    ) -> crate::Result<Self> {
        let table = Arc::new(DiscreteDensity::from_distribution(
            dist.as_ref(),
            PHASE_SAMPLE_BINS,
        )?);
        if persistence_epochs < 1.0 || !persistence_epochs.is_finite() {
            return Err(WorkloadError::InvalidParameter {
                name: "persistence_epochs",
                value: persistence_epochs,
                expected: "a finite persistence of at least 1 epoch",
            });
        }
        Ok(Cohort {
            dist,
            table,
            persistence_epochs,
        })
    }

    /// Per-epoch probability that a phase resamples (`1 / persistence`).
    #[must_use]
    pub fn resample_probability(&self) -> f64 {
        1.0 / self.persistence_epochs
    }

    /// The discretized density phases resample from.
    #[must_use]
    pub fn sample_table(&self) -> &Arc<DiscreteDensity> {
        &self.table
    }

    /// The arrival walk of an agent of this cohort, the one walk both
    /// population forms make: root a generator at `seed`, draw the first
    /// phase, then advance `offset` epochs unobserved. Returns the phase
    /// the agent arrives in and the generator as the walk left it; a
    /// stream keeps the generator, flat arrival lanes drop it.
    pub(crate) fn arrive(&self, seed: u64, offset: usize) -> (f64, StdRng) {
        let mut rng = seeded_rng(seed);
        let first = rng.clone();
        self.dist.skip_sample(&mut rng);
        let mut at = self.walk(&mut rng, offset).unwrap_or(first);
        (self.dist.sample(&mut at), rng)
    }

    /// Advance `rng` `epochs` epochs unobserved, and return its state
    /// before the walk's last resample, if it made one. Only that
    /// resample survives, so each one saves the generator state and is
    /// skipped ([`ContinuousDistribution::skip_sample`] consumes the same
    /// draws), and the caller evaluates only the last, from its saved
    /// state: the phase and the generator end bit-identical to sampling
    /// every one.
    fn walk(&self, rng: &mut StdRng, epochs: usize) -> Option<StdRng> {
        let p_new = self.resample_probability();
        let mut last = None;
        for _ in 0..epochs {
            if rng.gen::<f64>() < p_new {
                last = Some(rng.clone());
                self.dist.skip_sample(rng);
            }
        }
        last
    }
}

/// A stream of per-epoch sprinting utilities with phase persistence.
///
/// Cloning is cheap (the cohort is shared) and yields a stream that
/// emits exactly what the original would from here on.
#[derive(Debug, Clone)]
pub struct PhasedUtility {
    cohort: Arc<Cohort>,
    current: f64,
    seed: u64,
    rng: StdRng,
}

impl PhasedUtility {
    /// Create a stream drawing phases from `dist`, each persisting for a
    /// geometric number of epochs with the given mean.
    ///
    /// Discretizes `dist` into a private sample table; populations built
    /// through [`crate::generator::Population::spawn_streams`] pay that
    /// cost once per application instead of once per agent.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when
    /// `persistence_epochs < 1`.
    pub fn new(
        dist: Box<dyn ContinuousDistribution>,
        persistence_epochs: f64,
        seed: u64,
    ) -> crate::Result<Self> {
        let mut stream = PhasedUtility::shell(Arc::new(Cohort::new(dist, persistence_epochs)?));
        stream.arrive(seed, 0);
        Ok(stream)
    }

    /// A stream of `cohort` that has not arrived yet: it emits nothing
    /// meaningful until [`PhasedUtility::arrive`] roots it at its seed.
    pub(crate) fn shell(cohort: Arc<Cohort>) -> Self {
        PhasedUtility {
            cohort,
            current: 0.0,
            seed: 0,
            rng: seeded_rng(0),
        }
    }

    /// Root the stream at `seed` (draw its first phase), then advance it
    /// `offset` epochs unobserved — the randomized arrival
    /// ([`Cohort::arrive`]).
    pub(crate) fn arrive(&mut self, seed: u64, offset: usize) {
        let (phase, rng) = self.cohort.arrive(seed, offset);
        self.seed = seed;
        self.current = phase;
        self.rng = rng;
    }

    /// The cohort the stream draws its phases from.
    pub(crate) fn cohort(&self) -> &Arc<Cohort> {
        &self.cohort
    }

    /// Create a stream for a benchmark with its default persistence
    /// ([`DEFAULT_PERSISTENCE_EPOCHS`]).
    ///
    /// # Errors
    ///
    /// Never fails for the built-in persistence; the `Result` mirrors
    /// [`PhasedUtility::new`] for API uniformity.
    pub fn for_benchmark(benchmark: Benchmark, seed: u64) -> crate::Result<Self> {
        PhasedUtility::new(
            benchmark.speedup_distribution(),
            DEFAULT_PERSISTENCE_EPOCHS,
            seed,
        )
    }

    /// Mean phase persistence in epochs.
    #[must_use]
    pub fn persistence_epochs(&self) -> f64 {
        self.cohort.persistence_epochs
    }

    /// Utility of the current epoch, then advance the phase process.
    pub fn next_utility(&mut self) -> f64 {
        let out = self.current;
        let p_new = 1.0 / self.cohort.persistence_epochs;
        if self.rng.gen::<f64>() < p_new {
            self.current = self.cohort.dist.sample(&mut self.rng);
        }
        out
    }

    /// Advance the stream by `epochs` draws without observing them
    /// (used to randomize agent arrival offsets).
    pub fn skip(&mut self, epochs: usize) {
        if let Some(mut at) = self.cohort.walk(&mut self.rng, epochs) {
            self.current = self.cohort.dist.sample(&mut at);
        }
    }

    // --- Kernel decomposition -------------------------------------------
    //
    // The simulation engine advances phases in struct-of-arrays lanes
    // with counter-based draws instead of walking each stream's
    // sequential generator. It runs on flat arrival lanes
    // ([`crate::generator::Arrivals`]); a caller that holds streams has
    // them converted once, and the final phase written back with
    // [`PhasedUtility::sync_phase`].

    /// The phase value the next [`PhasedUtility::next_utility`] call
    /// would emit.
    #[must_use]
    pub fn phase_value(&self) -> f64 {
        self.current
    }

    /// Per-epoch probability that the phase resamples (`1 / persistence`).
    #[must_use]
    pub fn resample_probability(&self) -> f64 {
        self.cohort.resample_probability()
    }

    /// The shared discretized density phases resample from.
    #[must_use]
    pub fn sample_table(&self) -> &Arc<DiscreteDensity> {
        self.cohort.sample_table()
    }

    /// The seed this stream was created with — the root of its
    /// counter-based draw coordinates in the engine kernel.
    #[must_use]
    pub fn stream_seed(&self) -> u64 {
        self.seed
    }

    /// Write back a phase value advanced outside the stream (the engine's
    /// lane kernel), so the stream observes its own evolution.
    pub fn sync_phase(&mut self, value: f64) {
        self.current = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_stats::dist::Uniform;
    use sprint_stats::summary::OnlineStats;

    fn uniform_stream(persistence: f64, seed: u64) -> PhasedUtility {
        PhasedUtility::new(
            Box::new(Uniform::new(0.0, 10.0).unwrap()),
            persistence,
            seed,
        )
        .unwrap()
    }

    #[test]
    fn validates_persistence() {
        let d = || -> Box<dyn ContinuousDistribution> { Box::new(Uniform::new(0.0, 1.0).unwrap()) };
        assert!(PhasedUtility::new(d(), 0.5, 1).is_err());
        assert!(PhasedUtility::new(d(), f64::NAN, 1).is_err());
        assert!(PhasedUtility::new(d(), 1.0, 1).is_ok());
    }

    #[test]
    fn marginal_matches_source_distribution() {
        let mut s = uniform_stream(4.0, 7);
        let stats: OnlineStats = (0..50_000).map(|_| s.next_utility()).collect();
        assert!((stats.mean() - 5.0).abs() < 0.15);
        assert!((stats.variance() - 100.0 / 12.0).abs() < 0.5);
    }

    #[test]
    fn persistence_produces_repeats() {
        let mut s = uniform_stream(5.0, 11);
        let vals: Vec<f64> = (0..10_000).map(|_| s.next_utility()).collect();
        let repeats = vals.windows(2).filter(|w| w[0] == w[1]).count() as f64;
        let frac = repeats / (vals.len() - 1) as f64;
        // With mean persistence 5, ~80% of consecutive pairs repeat.
        assert!((frac - 0.8).abs() < 0.03, "repeat fraction {frac}");
    }

    #[test]
    fn persistence_one_is_iid() {
        let mut s = uniform_stream(1.0, 13);
        let vals: Vec<f64> = (0..1_000).map(|_| s.next_utility()).collect();
        let repeats = vals.windows(2).filter(|w| w[0] == w[1]).count();
        assert_eq!(repeats, 0, "continuous iid draws never repeat exactly");
    }

    #[test]
    fn skip_advances_state() {
        let mut a = uniform_stream(3.0, 17);
        let mut b = uniform_stream(3.0, 17);
        b.skip(10);
        let a_vals: Vec<f64> = (0..20).map(|_| a.next_utility()).collect();
        let b0 = b.next_utility();
        // b's first value equals a's value 10 epochs in.
        assert_eq!(b0, a_vals[10]);
    }

    #[test]
    fn benchmark_stream_stays_in_support() {
        let mut s = PhasedUtility::for_benchmark(Benchmark::LinearRegression, 3).unwrap();
        for _ in 0..1000 {
            let u = s.next_utility();
            assert!((3.0..=5.0).contains(&u), "utility {u} outside the band");
        }
        assert_eq!(s.persistence_epochs(), 3.0);
    }

    #[test]
    fn autocorrelation_matches_persistence_theory() {
        // Holding each phase for a geometric number of epochs with mean m
        // gives lag-1 autocorrelation (m − 1)/m.
        for m in [2.0, 5.0] {
            let mut s = uniform_stream(m, 31);
            let series: Vec<f64> = (0..40_000).map(|_| s.next_utility()).collect();
            let r1 = sprint_stats::summary::autocorrelation(&series, 1).unwrap();
            let expected = (m - 1.0) / m;
            assert!(
                (r1 - expected).abs() < 0.03,
                "persistence {m}: lag-1 autocorrelation {r1}, expected {expected}"
            );
        }
    }

    #[test]
    fn same_seed_reproduces_stream() {
        let mut a = PhasedUtility::for_benchmark(Benchmark::PageRank, 21).unwrap();
        let mut b = PhasedUtility::for_benchmark(Benchmark::PageRank, 21).unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_utility(), b.next_utility());
        }
    }
}

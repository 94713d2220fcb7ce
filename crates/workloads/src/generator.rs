//! Agent population builders.
//!
//! Paper §5, "Simulation Methods": one set of simulations evaluates
//! *homogeneous* agents who arrive randomly and launch the same
//! application ("randomized arrivals cause application phases to overlap
//! in diverse ways"); a second set evaluates *heterogeneous* agents who
//! launch different applications. This module constructs both population
//! shapes and instantiates per-agent utility streams with independent
//! seeds and randomized arrival offsets.

use std::sync::Arc;

use rand::Rng;

use sprint_stats::rng::SeedSequence;

use crate::benchmark::Benchmark;
use crate::phases::{Cohort, PhasedUtility, DEFAULT_PERSISTENCE_EPOCHS};
use crate::WorkloadError;

/// Maximum random arrival offset, epochs. Offsets decorrelate the phase
/// processes of agents running the same application.
const MAX_ARRIVAL_OFFSET_EPOCHS: usize = 64;

/// Fewest agents worth a thread of their own in the arrival walk (about
/// 11 ms of walking at the ~0.7 µs per svm agent measured on a 2-vCPU
/// x86-64 VM, where evaluating every resample took ~1.1 µs): smaller
/// spans stay on the caller's thread, so paper-scale populations never
/// pay a thread spawn.
const MIN_SPAN_AGENTS: usize = 1 << 14;

/// A population of agents, each assigned a benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Population {
    assignments: Vec<Benchmark>,
}

impl Population {
    /// A homogeneous population: `n` agents all running `benchmark`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when `n` is 0.
    pub fn homogeneous(benchmark: Benchmark, n: usize) -> crate::Result<Self> {
        if n == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "n",
                value: 0.0,
                expected: "at least one agent",
            });
        }
        Ok(Population {
            assignments: vec![benchmark; n],
        })
    }

    /// A heterogeneous population: `n` agents assigned round-robin across
    /// `benchmarks` (balanced mix, as in the paper's Figure 9 sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when `n` is 0 and
    /// [`WorkloadError::EmptyWorkload`] when `benchmarks` is empty.
    pub fn heterogeneous(benchmarks: &[Benchmark], n: usize) -> crate::Result<Self> {
        if benchmarks.is_empty() {
            return Err(WorkloadError::EmptyWorkload { what: "benchmarks" });
        }
        if n == 0 {
            return Err(WorkloadError::InvalidParameter {
                name: "n",
                value: 0.0,
                expected: "at least one agent",
            });
        }
        Ok(Population {
            assignments: (0..n).map(|i| benchmarks[i % benchmarks.len()]).collect(),
        })
    }

    /// Pick `k` distinct application types uniformly at random (without
    /// replacement) from the full suite and build a balanced `n`-agent
    /// population — one draw of the paper's Figure 9 experiment.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] when `k` is 0, exceeds
    /// the suite size, or `n` is 0.
    pub fn random_mix<R: Rng + ?Sized>(k: usize, n: usize, rng: &mut R) -> crate::Result<Self> {
        if k == 0 || k > Benchmark::ALL.len() {
            return Err(WorkloadError::InvalidParameter {
                name: "k",
                value: k as f64,
                expected: "between 1 and 11 application types",
            });
        }
        let mut pool = Benchmark::ALL.to_vec();
        // Partial Fisher-Yates: the first k slots become the sample.
        for i in 0..k {
            let j = i + rng.gen_range(0..pool.len() - i);
            pool.swap(i, j);
        }
        Population::heterogeneous(&pool[..k], n)
    }

    /// Number of agents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the population is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Benchmark assignment per agent.
    #[must_use]
    pub fn assignments(&self) -> &[Benchmark] {
        &self.assignments
    }

    /// The distinct application types present, in suite order.
    #[must_use]
    pub fn distinct_types(&self) -> Vec<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .filter(|b| self.assignments.contains(b))
            .collect()
    }

    /// Number of agents running `benchmark`.
    #[must_use]
    pub fn count_of(&self, benchmark: Benchmark) -> usize {
        self.assignments.iter().filter(|&&b| b == benchmark).count()
    }

    /// Instantiate per-agent utility streams with independent seeds and
    /// randomized arrival offsets derived from `master_seed`, on the
    /// caller's thread. Same as [`Population::spawn_streams_jobs`] with
    /// one job.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in benchmarks; the `Result` propagates
    /// stream-construction errors for API uniformity.
    pub fn spawn_streams(&self, master_seed: u64) -> crate::Result<Vec<PhasedUtility>> {
        self.spawn_streams_jobs(master_seed, 1)
    }

    /// [`Population::spawn_streams`] with the arrival walks split over up
    /// to `jobs` scoped threads. Agent `i` is seeded with the `(i+1)`-th
    /// seed of `master_seed`'s [`SeedSequence`] wherever it is walked, so
    /// the streams are bit-identical at every job count.
    ///
    /// Every agent of one benchmark shares one cohort (distribution,
    /// sample table, persistence), so a stream holds no heap memory of
    /// its own; the streams are built in place in one vector.
    ///
    /// # Errors
    ///
    /// As [`Population::spawn_streams`].
    pub fn spawn_streams_jobs(
        &self,
        master_seed: u64,
        jobs: usize,
    ) -> crate::Result<Vec<PhasedUtility>> {
        let cohorts: Vec<(Benchmark, Arc<Cohort>)> = self
            .distinct_types()
            .into_iter()
            .map(|b| {
                Cohort::new(b.speedup_distribution(), DEFAULT_PERSISTENCE_EPOCHS)
                    .map(|c| (b, Arc::new(c)))
            })
            .collect::<crate::Result<_>>()?;
        let mut streams: Vec<PhasedUtility> = self
            .assignments
            .iter()
            .map(|&b| {
                let (_, cohort) = cohorts
                    .iter()
                    .find(|(t, _)| *t == b)
                    .expect("every assignment is a distinct type");
                PhasedUtility::shell(Arc::clone(cohort))
            })
            .collect();

        let seeds = SeedSequence::new(master_seed);
        let spans = jobs.clamp(1, (streams.len() / MIN_SPAN_AGENTS).max(1));
        let span = streams.len().div_ceil(spans).max(1);
        std::thread::scope(|scope| {
            let mut chunks = streams.chunks_mut(span).enumerate();
            let first = chunks.next();
            for (k, chunk) in chunks {
                scope.spawn(move || arrive(chunk, seeds, k * span));
            }
            if let Some((_, chunk)) = first {
                arrive(chunk, seeds, 0);
            }
        });
        Ok(streams)
    }
}

/// Run the arrival walk of the agents in `chunk`, the first of which is
/// agent `start`: seed each from its index, draw its first phase, then
/// advance it by a seed-derived offset.
fn arrive(chunk: &mut [PhasedUtility], seeds: SeedSequence, start: usize) {
    for (i, stream) in (start..).zip(chunk) {
        let seed = seeds.seed_at(i as u64);
        let offset = (seed >> 32) as usize % MAX_ARRIVAL_OFFSET_EPOCHS;
        stream.arrive(seed, offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_stats::rng::seeded_rng;

    #[test]
    fn homogeneous_populations() {
        let p = Population::homogeneous(Benchmark::DecisionTree, 100).unwrap();
        assert_eq!(p.len(), 100);
        assert_eq!(p.count_of(Benchmark::DecisionTree), 100);
        assert_eq!(p.distinct_types(), vec![Benchmark::DecisionTree]);
        assert!(Population::homogeneous(Benchmark::Svm, 0).is_err());
    }

    #[test]
    fn heterogeneous_round_robin_is_balanced() {
        let types = [Benchmark::PageRank, Benchmark::Svm, Benchmark::Kmeans];
        let p = Population::heterogeneous(&types, 99).unwrap();
        for t in types {
            assert_eq!(p.count_of(t), 33);
        }
        assert!(Population::heterogeneous(&[], 10).is_err());
        assert!(Population::heterogeneous(&types, 0).is_err());
    }

    #[test]
    fn random_mix_draws_distinct_types() {
        let mut rng = seeded_rng(3);
        for k in 1..=11 {
            let p = Population::random_mix(k, 110, &mut rng).unwrap();
            assert_eq!(p.distinct_types().len(), k, "k = {k}");
            assert_eq!(p.len(), 110);
        }
        assert!(Population::random_mix(0, 10, &mut rng).is_err());
        assert!(Population::random_mix(12, 10, &mut rng).is_err());
    }

    #[test]
    fn random_mix_varies_across_draws() {
        let mut rng = seeded_rng(5);
        let a = Population::random_mix(3, 30, &mut rng).unwrap();
        let b = Population::random_mix(3, 30, &mut rng).unwrap();
        // Overwhelmingly likely to differ (C(11,3) = 165 possible draws).
        assert_ne!(a.distinct_types(), b.distinct_types());
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let p = Population::homogeneous(Benchmark::PageRank, 8).unwrap();
        let mut s1 = p.spawn_streams(99).unwrap();
        let mut s2 = p.spawn_streams(99).unwrap();
        assert_eq!(s1.len(), 8);
        // Reproducible across spawns with the same master seed.
        for (a, b) in s1.iter_mut().zip(s2.iter_mut()) {
            assert_eq!(a.next_utility(), b.next_utility());
        }
        // Different agents see different phases (arrival offsets + seeds).
        let firsts: Vec<f64> = p
            .spawn_streams(99)
            .unwrap()
            .iter_mut()
            .map(PhasedUtility::next_utility)
            .collect();
        let distinct = firsts
            .iter()
            .filter(|&&x| (x - firsts[0]).abs() > 1e-12)
            .count();
        assert!(distinct >= 4, "agents' phases must not be aligned");
    }

    #[test]
    fn distinct_types_in_suite_order() {
        let p = Population::heterogeneous(&[Benchmark::TriangleCounting, Benchmark::NaiveBayes], 4)
            .unwrap();
        assert_eq!(
            p.distinct_types(),
            vec![Benchmark::NaiveBayes, Benchmark::TriangleCounting]
        );
    }
}

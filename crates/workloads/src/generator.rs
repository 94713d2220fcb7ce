//! Agent population builders.
//!
//! Paper §5, "Simulation Methods": one set of simulations evaluates
//! *homogeneous* agents who arrive randomly and launch the same
//! application ("randomized arrivals cause application phases to overlap
//! in diverse ways"); a second set evaluates *heterogeneous* agents who
//! launch different applications. This module constructs both population
//! shapes and walks each agent's randomized arrival from an independent
//! seed, into one of two forms: flat [`Arrivals`] lanes, which is what
//! the simulation engine runs on, or sequential [`PhasedUtility`]
//! streams for callers that draw utilities one epoch at a time.

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;

use sprint_stats::rng::{CounterLane, SeedSequence};

use crate::benchmark::Benchmark;
use crate::phases::{phase_key, Cohort, PhasedUtility, DEFAULT_PERSISTENCE_EPOCHS};
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

    /// The distinct application types present, in suite order, found in
    /// one pass over the agents.
    #[must_use]
    pub fn distinct_types(&self) -> Vec<Benchmark> {
        // A benchmark's discriminant is its index in the suite order.
        let mut present = [false; Benchmark::ALL.len()];
        for &b in &self.assignments {
            present[b as usize] = true;
        }
        Benchmark::ALL
            .into_iter()
            .filter(|&b| present[b as usize])
            .collect()
    }

    /// Number of agents running `benchmark`.
    #[must_use]
    pub fn count_of(&self, benchmark: Benchmark) -> usize {
        self.assignments.iter().filter(|&&b| b == benchmark).count()
    }

    /// One shared cohort per distinct benchmark, in suite order, and the
    /// position of each benchmark's cohort in that list, indexed by the
    /// benchmark's discriminant (0 for a benchmark no agent runs).
    fn cohorts(&self) -> crate::Result<(Vec<Arc<Cohort>>, [u32; Benchmark::ALL.len()])> {
        let mut index = [0; Benchmark::ALL.len()];
        let cohorts = self
            .distinct_types()
            .into_iter()
            .enumerate()
            .map(|(c, b)| {
                index[b as usize] = c as u32;
                Cohort::new(b.speedup_distribution(), DEFAULT_PERSISTENCE_EPOCHS).map(Arc::new)
            })
            .collect::<crate::Result<_>>()?;
        Ok((cohorts, index))
    }

    /// The population's agents arrived, as flat lanes: agent `i` is
    /// seeded with the `(i+1)`-th seed of `master_seed`'s
    /// [`SeedSequence`] and walks the same arrival as in
    /// [`Population::spawn_streams_jobs`], split over up to `jobs` scoped
    /// threads, so the lanes are bit-identical at every job count and
    /// hold exactly the streams' phase keys and phases.
    ///
    /// Each lane is allocated once, at its final length.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] naming the agent count when a
    /// lane cannot be reserved.
    pub fn arrivals(&self, master_seed: u64, jobs: usize) -> crate::Result<Arrivals> {
        let (cohorts, index) = self.cohorts()?;
        let n = self.len();
        let mut cohort_of = Vec::new();
        if cohorts.len() > 1 {
            reserve(&mut cohort_of, n)?;
            cohort_of.extend(self.assignments.iter().map(|&b| index[b as usize]));
        }
        let mut keys = lane(n, phase_key(0))?;
        let mut phases = lane(n, 0.0)?;
        let seeds = SeedSequence::new(master_seed);
        let span = span_len(n, jobs);
        let cohort_at = |i: usize| &cohorts[index[self.assignments[i] as usize] as usize];
        walk_spans(
            span,
            keys.chunks_mut(span).zip(phases.chunks_mut(span)),
            |start, (keys, phases)| {
                for (i, (key, phase)) in (start..).zip(keys.iter_mut().zip(phases)) {
                    let (seed, offset) = arrival(seeds, i);
                    *key = phase_key(seed);
                    *phase = cohort_at(i).arrive(seed, offset).0;
                }
            },
        );
        Ok(Arrivals {
            cohorts,
            cohort_of,
            keys,
            phases,
        })
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
        let (cohorts, index) = self.cohorts()?;
        let mut streams: Vec<PhasedUtility> = self
            .assignments
            .iter()
            .map(|&b| PhasedUtility::shell(Arc::clone(&cohorts[index[b as usize] as usize])))
            .collect();

        let seeds = SeedSequence::new(master_seed);
        let span = span_len(streams.len(), jobs);
        walk_spans(span, streams.chunks_mut(span), |start, chunk| {
            for (i, stream) in (start..).zip(chunk) {
                let (seed, offset) = arrival(seeds, i);
                stream.arrive(seed, offset);
            }
        });
        Ok(streams)
    }
}

/// Agent `i`'s seed and arrival offset: the `(i+1)`-th seed of `seeds`,
/// and an offset derived from it.
fn arrival(seeds: SeedSequence, i: usize) -> (u64, usize) {
    let seed = seeds.seed_at(i as u64);
    (seed, (seed >> 32) as usize % MAX_ARRIVAL_OFFSET_EPOCHS)
}

/// The span of agents each thread walks when `n` agents split over up
/// to `jobs` threads, none of them with fewer than [`MIN_SPAN_AGENTS`]
/// unless the whole population has fewer.
fn span_len(n: usize, jobs: usize) -> usize {
    let spans = jobs.clamp(1, (n / MIN_SPAN_AGENTS).max(1));
    n.div_ceil(spans).max(1)
}

/// Run `walk(start, chunk)` for every chunk, the `k`-th of which starts
/// at agent `k × span`: the first on the caller's thread, each other on
/// a scoped thread of its own.
fn walk_spans<C: Send>(
    span: usize,
    chunks: impl Iterator<Item = C>,
    walk: impl Fn(usize, C) + Sync,
) {
    let walk = &walk;
    std::thread::scope(|scope| {
        let mut chunks = chunks.enumerate();
        let first = chunks.next();
        for (k, chunk) in chunks {
            scope.spawn(move || walk(k * span, chunk));
        }
        if let Some((_, chunk)) = first {
            walk(0, chunk);
        }
    });
}

/// The error for a population whose per-agent lanes cannot be reserved.
fn too_large(agents: usize) -> WorkloadError {
    WorkloadError::InvalidParameter {
        name: "agents",
        value: agents as f64,
        expected: "a population whose per-agent lanes fit in memory",
    }
}

/// Reserve room for exactly `n` more values in `lane`, or fail with a
/// typed error naming `n` instead of aborting.
fn reserve<T>(lane: &mut Vec<T>, n: usize) -> crate::Result<()> {
    lane.try_reserve_exact(n).map_err(|_| too_large(n))
}

/// A lane of `n` copies of `fill`, reserved as [`reserve`] does.
fn lane<T: Clone>(n: usize, fill: T) -> crate::Result<Vec<T>> {
    let mut lane = Vec::new();
    reserve(&mut lane, n)?;
    lane.resize(n, fill);
    Ok(lane)
}

/// A population after its randomized arrival, as the engine reads it:
/// per agent its phase-draw key ([`phase_key`] of its seed) and the phase
/// it arrived in, 16 B in two flat lanes; the cohorts the agents draw
/// from; and, only when there are several, a 4-B cohort index per agent.
///
/// The same walk as a [`PhasedUtility`] stream's, without the generator
/// state that only a sequential [`PhasedUtility::next_utility`] reads.
/// Nothing mutates arrivals after the build, so every run of a
/// population can share one.
#[derive(Debug)]
pub struct Arrivals {
    cohorts: Vec<Arc<Cohort>>,
    /// Index into `cohorts` per agent; empty when there is one cohort.
    cohort_of: Vec<u32>,
    keys: Vec<CounterLane>,
    phases: Vec<f64>,
}

impl Arrivals {
    /// The arrivals of `streams` as they are now: their cohorts (one per
    /// distinct shared cohort, in order of first appearance), keys and
    /// current phases. Spawned streams share one cohort per benchmark;
    /// each stream built on its own carries its own cohort.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] naming the stream count when a
    /// lane cannot be reserved.
    pub fn from_streams(streams: &[PhasedUtility]) -> crate::Result<Self> {
        let n = streams.len();
        let mut arrivals = Arrivals {
            cohorts: Vec::new(),
            cohort_of: Vec::new(),
            keys: Vec::new(),
            phases: Vec::new(),
        };
        reserve(&mut arrivals.keys, n)?;
        reserve(&mut arrivals.phases, n)?;
        // Spawned agents come in runs of one cohort (a homogeneous
        // population is a single run), so an agent that continues its
        // predecessor's run costs one compare, not a hash lookup. The
        // cohort lane is written only once a second cohort appears.
        let mut seen: HashMap<*const Cohort, u32> = HashMap::new();
        let mut run: Option<(*const Cohort, u32)> = None;
        for (a, s) in streams.iter().enumerate() {
            let cohort = s.cohort();
            let id = Arc::as_ptr(cohort);
            let c = match run {
                Some((last, c)) if last == id => c,
                _ => *seen.entry(id).or_insert_with(|| {
                    arrivals.cohorts.push(Arc::clone(cohort));
                    arrivals.cohorts.len() as u32 - 1
                }),
            };
            run = Some((id, c));
            if c != 0 && arrivals.cohort_of.is_empty() {
                reserve(&mut arrivals.cohort_of, n)?;
                arrivals.cohort_of.resize(a, 0);
            }
            if !arrivals.cohort_of.is_empty() {
                arrivals.cohort_of.push(c);
            }
            arrivals.keys.push(phase_key(s.stream_seed()));
            arrivals.phases.push(s.phase_value());
        }
        Ok(arrivals)
    }

    /// Number of agents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether there are no agents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The cohorts the agents draw their phases from.
    #[must_use]
    pub fn cohorts(&self) -> &[Arc<Cohort>] {
        &self.cohorts
    }

    /// Agent `agent`'s cohort.
    ///
    /// # Panics
    ///
    /// When `agent` is not below [`Arrivals::len`].
    #[must_use]
    pub fn cohort(&self, agent: usize) -> &Cohort {
        assert!(agent < self.len(), "agent {agent} of {}", self.len());
        &self.cohorts[self.cohort_of.get(agent).map_or(0, |&c| c as usize)]
    }

    /// Each agent's index into [`Arrivals::cohorts`]; empty when there is
    /// one cohort, so that every agent's is 0.
    #[must_use]
    pub fn cohort_of(&self) -> &[u32] {
        &self.cohort_of
    }

    /// Each agent's phase-draw key.
    #[must_use]
    pub fn keys(&self) -> &[CounterLane] {
        &self.keys
    }

    /// The phase each agent arrived in.
    #[must_use]
    pub fn phases(&self) -> &[f64] {
        &self.phases
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
        // The one-pass scan indexes the suite by discriminant.
        for (i, b) in Benchmark::ALL.into_iter().enumerate() {
            assert_eq!(b as usize, i, "{b:?}");
        }
    }
}

//! The bounded trial pool behind every multi-trial job.
//!
//! Sweeps ([`crate::sweep`]) and the runner suites ([`crate::runner`])
//! size the pool from their thread budget ([`thread_budget`]) and hand
//! their trials to [`run`]. Each scoped worker takes trial ids from one
//! atomic counter, in the order the caller gives, and each result lands
//! in its trial's slot, so completion order never reaches a report. A trial that panics yields the suite's typed
//! [`SimError::WorkerPanicked`] in its own slot while the other trials
//! complete. Every worker owns one caller-made state (a ring producer,
//! the population it keeps between trials) and hands it back at the end.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sprint_telemetry::Registry;
use sprint_workloads::generator::{Arrivals, Population};

use crate::engine::{PhaseTrack, RunGuard};
use crate::SimError;

/// Resolve a thread budget into `(pool workers, intra-run engine jobs)`.
///
/// `jobs == 0` means all available cores. The pool is never larger than
/// the trial list; when the budget exceeds the trial count, the surplus
/// is split evenly across workers as engine-level fan-out (each trial
/// runs its epoch kernel on the engine's persistent worker pool). With
/// the caller's own thread waiting on the pool, at most `budget + 1`
/// threads run. Byte-safe at any split: engine results are
/// jobs-invariant, so report bytes depend on the trials alone.
pub(crate) fn thread_budget(jobs: usize, trials: usize) -> (usize, usize) {
    let budget = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    };
    let pool = budget.clamp(1, trials.max(1));
    (pool, (budget / pool).max(1))
}

/// One worker's account: its state handed back, the trials it ran and
/// the wall time it spent in them.
pub(crate) struct Worker<S> {
    pub(crate) state: S,
    pub(crate) trials: u64,
    pub(crate) busy_nanos: u64,
}

/// A drained pool: `(result, wall nanos)` per trial id, and the
/// workers' accounts in worker order.
pub(crate) struct Drained<T, S> {
    pub(crate) results: Vec<(crate::Result<T>, u64)>,
    pub(crate) workers: Vec<Worker<S>>,
}

/// Run `trial` for every id in `order` (a permutation of
/// `0..order.len()`) on one scoped worker per entry of `states`.
pub(crate) fn run<S, T, F>(
    states: Vec<S>,
    order: &[usize],
    what: &'static str,
    trial: F,
) -> Drained<T, S>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> crate::Result<T> + Sync,
{
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(crate::Result<T>, u64)>> = (0..order.len()).map(|_| None).collect();
    let mut workers = Vec::with_capacity(states.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (next, trial) = (&next, &trial);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut busy_nanos = 0u64;
                    while let Some(&id) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let started = Instant::now();
                        let result = catch_unwind(AssertUnwindSafe(|| trial(&mut state, id)))
                            .unwrap_or(Err(SimError::WorkerPanicked { what }));
                        let nanos = started.elapsed().as_nanos() as u64;
                        busy_nanos += nanos;
                        done.push((id, result, nanos));
                    }
                    (state, done, busy_nanos)
                })
            })
            .collect();
        for handle in handles {
            // Trials panic inside `catch_unwind`; a worker that dies
            // anyway leaves its slots empty, and they fail below.
            if let Ok((state, done, busy_nanos)) = handle.join() {
                workers.push(Worker {
                    state,
                    trials: done.len() as u64,
                    busy_nanos,
                });
                for (id, result, nanos) in done {
                    slots[id] = Some((result, nanos));
                }
            }
        }
    });
    Drained {
        results: slots
            .into_iter()
            .map(|slot| slot.unwrap_or((Err(SimError::WorkerPanicked { what }), 0)))
            .collect(),
        workers,
    }
}

/// A worker's kept population build: the arrivals of one (population,
/// seed) pair, and their phase trajectory recorded from them. Runs read
/// arrivals and never write them, so every trial of the pair — and every
/// retry — runs on the same arrivals and replays the recording, and sees
/// what a fresh build would give it.
#[derive(Default)]
pub(crate) struct BuiltPopulation {
    /// `(population index, seed)` and the pair's arrivals; `None` before
    /// the first build or after a build that failed.
    pair: Option<((usize, u64), Arrivals)>,
    /// Record: the worker expects to run at least two trials of each
    /// pair, so a recording pays for itself. A worker that runs one
    /// trial of a pair would record it and replay it once, which costs
    /// more than sampling live once.
    record: bool,
    /// The phase trajectory of the pair's arrivals. Its buffers outlive
    /// the pair, so the next pair records into them.
    track: PhaseTrack,
    /// The pair's recording passed the cap: its trials sample live.
    over_cap: bool,
    /// Populations this worker has built.
    builds: u64,
    /// Phase trajectories this worker has recorded.
    tracks: u64,
    /// Trials this worker handed a recording.
    replays: u64,
}

impl BuiltPopulation {
    /// A worker's state in a job of `trials` trials over `pairs`
    /// (population, seed) pairs on `workers` workers. The pool deals the
    /// trials out in pair order from one counter, so each worker runs
    /// about `trials / (pairs × workers)` trials of every pair; the
    /// worker records a pair's trajectory only when that is at least two.
    pub(crate) fn new(trials: usize, pairs: usize, workers: usize) -> Self {
        BuiltPopulation {
            record: trials >= pairs.saturating_mul(workers).saturating_mul(2),
            ..BuiltPopulation::default()
        }
    }

    /// The arrivals of `population` (the caller's `index`) for `seed`,
    /// built only when the pair differs from the last one, and the pair's
    /// phase trajectory over `epochs` epochs for the trial to replay. The
    /// trajectory is recorded at the pair's first trial, and re-recorded
    /// for a longer horizon; it is `None` when its recording would pass
    /// the cap, and in a job whose workers each run fewer than two
    /// trials of a pair.
    ///
    /// The recording serves every later trial of the pair, so it is not
    /// charged to the trial that makes it: only `guard`'s cancel token
    /// can stop it, and `guard`'s deadline moves back by the time it
    /// took.
    ///
    /// # Errors
    ///
    /// A failed build, or the cancel token stopping the recording.
    pub(crate) fn arrivals(
        &mut self,
        index: usize,
        population: &Population,
        seed: u64,
        jobs: usize,
        epochs: usize,
        guard: &mut RunGuard,
    ) -> crate::Result<(&Arrivals, Option<&PhaseTrack>)> {
        let arrivals = match self.pair.take() {
            Some(pair) if pair.0 == (index, seed) => &self.pair.insert(pair).1,
            stale => {
                // Release the previous pair's arrivals before building,
                // and its recording, so that no trial replays it on this
                // pair.
                drop(stale);
                self.track.clear();
                self.over_cap = false;
                let arrivals = population.arrivals(seed, jobs)?;
                self.builds += 1;
                &self.pair.insert(((index, seed), arrivals)).1
            }
        };
        if self.record && !self.over_cap && !self.track.covers(arrivals.len(), epochs) {
            let started = Instant::now();
            let cancel_only = RunGuard {
                deadline: None,
                cancel: guard.cancel.clone(),
            };
            self.over_cap = !self.track.record(arrivals, epochs, &cancel_only)?;
            self.tracks += u64::from(!self.over_cap);
            guard.deadline = guard.deadline.map(|d| d.postponed(started.elapsed()));
        }
        let track = (self.record && !self.over_cap).then_some(&self.track);
        self.replays += u64::from(track.is_some());
        Ok((arrivals, track))
    }
}

/// Add the workers' population builds, phase recordings and replays to
/// `registry` as `{prefix}.population_builds`, `{prefix}.phase_tracks`
/// and `{prefix}.phase_replays`.
pub(crate) fn export_builds<'a>(
    built: impl Iterator<Item = &'a BuiltPopulation>,
    prefix: &str,
    registry: &mut Registry,
) {
    let mut counts = [0u64; 3];
    for b in built {
        counts[0] += b.builds;
        counts[1] += b.tracks;
        counts[2] += b.replays;
    }
    for (name, count) in ["population_builds", "phase_tracks", "phase_replays"]
        .iter()
        .zip(counts)
    {
        let c = registry.counter(&format!("{prefix}.{name}"));
        registry.inc(c, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Items of uneven cost: every seventh sleeps longer.
    fn cost(id: usize) -> Duration {
        Duration::from_micros(if id.is_multiple_of(7) {
            900
        } else {
            50 + 10 * (id % 5) as u64
        })
    }

    #[test]
    fn running_items_never_exceed_the_worker_count() {
        for workers in [1, 2, 4] {
            let running = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            // The first `workers` items meet at a barrier, so every
            // worker runs one at once before the uneven rest.
            let start = std::sync::Barrier::new(workers);
            let order: Vec<usize> = (0..64).collect();
            let drained = run(vec![(); workers], &order, "pool test item", |(), id| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                if id < workers {
                    start.wait();
                }
                std::thread::sleep(cost(id));
                running.fetch_sub(1, Ordering::SeqCst);
                Ok(id)
            });
            assert_eq!(peak.load(Ordering::SeqCst), workers);
            assert_eq!(drained.workers.len(), workers);
            let ran: u64 = drained.workers.iter().map(|w| w.trials).sum();
            assert_eq!(ran, 64);
        }
    }

    #[test]
    fn results_land_in_their_own_slots_whatever_the_order() {
        let reversed: Vec<usize> = (0..64).rev().collect();
        let odd_first: Vec<usize> = (1..64).step_by(2).chain((0..64).step_by(2)).collect();
        for order in [reversed, odd_first] {
            for workers in [1, 2, 4] {
                let drained = run(vec![(); workers], &order, "pool test item", |(), id| {
                    std::thread::sleep(cost(id));
                    Ok(id * 3)
                });
                for (id, (result, _)) in drained.results.into_iter().enumerate() {
                    assert_eq!(result.unwrap(), id * 3, "workers {workers}");
                }
            }
        }
    }

    #[test]
    fn a_worker_records_a_pair_only_when_it_expects_two_of_its_trials() {
        use crate::engine::{CancelToken, Deadline};
        use sprint_workloads::Benchmark;

        let population = Population::homogeneous(Benchmark::Svm, 200).unwrap();
        // 8 trials over 2 pairs on 2 workers: two each. On 3 workers, fewer.
        for (workers, recorded) in [(2, true), (3, false)] {
            let mut built = BuiltPopulation::new(8, 2, workers);
            let (_, track) = built
                .arrivals(0, &population, 3, 1, 50, &mut RunGuard::default())
                .unwrap();
            assert_eq!(track.is_some(), recorded, "workers={workers}");
        }
        // The recording is not charged to the trial's deadline: one that
        // has already passed does not stop it.
        let mut built = BuiltPopulation::new(8, 2, 1);
        let mut guard = RunGuard {
            deadline: Some(Deadline::within_ms(0)),
            cancel: None,
        };
        let (_, track) = built
            .arrivals(0, &population, 3, 1, 50, &mut guard)
            .unwrap();
        assert!(track.is_some_and(|t| t.covers(200, 50)));
        // The cancel token still stops it, and nothing is kept.
        let token = CancelToken::new();
        token.cancel();
        let mut guard = RunGuard {
            deadline: None,
            cancel: Some(token),
        };
        let stopped = built.arrivals(1, &population, 4, 1, 50, &mut guard);
        assert!(matches!(stopped, Err(SimError::Cancelled { .. })));
        assert_eq!((built.builds, built.tracks), (2, 1));
        assert!(!built.track.covers(200, 1));
    }

    #[test]
    fn a_panicking_item_fails_only_its_own_slot() {
        let order: Vec<usize> = (0..64).collect();
        for workers in [1, 2, 4] {
            let drained = run(vec![0u64; workers], &order, "pool test item", |seen, id| {
                assert_ne!(id, 17, "item 17 panics");
                *seen += 1;
                Ok(id)
            });
            for (id, (result, _)) in drained.results.into_iter().enumerate() {
                match result {
                    Err(SimError::WorkerPanicked { what }) => {
                        assert_eq!((id, what), (17, "pool test item"));
                    }
                    other => assert_eq!(other.unwrap(), id),
                }
            }
            // Every worker survives and hands its state back.
            assert_eq!(drained.workers.len(), workers);
            let seen: u64 = drained.workers.iter().map(|w| w.state).sum();
            assert_eq!(seen, 63);
        }
    }
}

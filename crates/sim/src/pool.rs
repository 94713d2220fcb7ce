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

use sprint_workloads::generator::Population;
use sprint_workloads::phases::PhasedUtility;

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

/// A worker's kept population build: the streams of one (population,
/// seed) pair exactly as spawned, never run. Every trial of the pair —
/// and every retry — runs on a clone, so it sees the same streams a
/// fresh build would give it.
#[derive(Default)]
pub(crate) struct BuiltPopulation {
    /// `(population index, seed)` of `streams`; `None` before the first
    /// build or after a build that failed.
    key: Option<(usize, u64)>,
    streams: Vec<PhasedUtility>,
    /// Populations this worker has built.
    pub(crate) builds: u64,
}

impl BuiltPopulation {
    /// Fresh streams of `population` (the caller's `index`) for `seed`,
    /// built only when the pair differs from the last one.
    pub(crate) fn streams(
        &mut self,
        index: usize,
        population: &Population,
        seed: u64,
        jobs: usize,
    ) -> crate::Result<Vec<PhasedUtility>> {
        if self.key != Some((index, seed)) {
            // Release the previous pair's streams before building.
            self.key = None;
            self.streams = Vec::new();
            self.streams = population.spawn_streams_jobs(seed, jobs)?;
            self.builds += 1;
            self.key = Some((index, seed));
        }
        Ok(self.streams.clone())
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

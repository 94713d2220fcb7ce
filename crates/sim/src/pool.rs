//! The bounded trial pool behind every multi-trial job.
//!
//! Sweeps ([`crate::sweep`]) and the runner suites ([`crate::runner`])
//! size the pool from their thread budget ([`thread_budget`]) and hand
//! their trials to [`run`]. Each scoped worker takes trial ids from one
//! atomic counter, in the order the caller gives, and each result lands
//! in its trial's slot, so completion order never reaches a report. A trial that panics yields the suite's typed
//! [`SimError::WorkerPanicked`] in its own slot while the other trials
//! complete. Every worker owns one caller-made state and hands it back
//! at the end.
//!
//! Trials that run on built populations — every sweep trial and every
//! trial of [`crate::runner::compare`] and [`crate::runner::chaos`] —
//! go through [`run_supervised`], the one trial driver: it deals the
//! trials out grouped by their (population, seed) pair, lends each
//! attempt its pair's one build ([`Pairs`]), and supervises every
//! attempt ([`Supervision`]: deadline, cancellation, bounded retries,
//! panic isolation).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sprint_telemetry::{Event, EventRing, Recorder, Registry, RingConfig, WorkerHealth};
use sprint_workloads::generator::{Arrivals, Population};

use crate::engine::{Deadline, PhaseTrack, RunGuard};
use crate::sweep::{Sabotage, Supervision};
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

/// A job's trials after [`run_supervised`].
pub(crate) struct Ran<T> {
    /// Per trial, in trial order: its outcome, its wall nanos and the
    /// attempts it took.
    pub(crate) trials: Vec<(crate::Result<T>, u64, u32)>,
    /// Per-worker utilization, in worker order.
    pub(crate) workers: Vec<WorkerHealth>,
    /// The pool's wall nanos.
    pub(crate) pool_nanos: u64,
    /// The workers' trial lifecycle events, when they were asked for.
    pub(crate) ring: Option<EventRing>,
}

/// Run `trial` for every trial of `pairs` on the pool within a budget
/// of `jobs` threads ([`thread_budget`]) — the one trial driver.
/// Workers take the trials grouped by pair, in trial order within a
/// pair, and every attempt runs under `supervision` on its pair's one
/// build ([`Pairs::lend`]), with the engine threads it may use. With
/// `events`, each worker records a [`Event::TrialStarted`] and
/// [`Event::TrialFinished`] per trial into a ring segment of its own.
///
/// # Errors
///
/// [`SimError::WorkerPanicked`] when a worker dies outside a supervised
/// attempt; trial failures are the trials' own outcomes.
pub(crate) fn run_supervised<T, F>(
    pairs: &Pairs<'_>,
    jobs: usize,
    supervision: &Supervision,
    what: &'static str,
    events: bool,
    trial: F,
) -> crate::Result<Ran<T>>
where
    T: Send,
    F: Fn(usize, &Built, usize, &RunGuard) -> crate::Result<T> + Sync,
{
    let count = pairs.trial_pairs.len();
    let (workers, intra_jobs) = thread_budget(jobs, count);
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by_key(|&id| pairs.trial_pairs[id]);
    // The ring is sized so that a worker that runs every trial still
    // never drops an event.
    let (ring, producers) = if events {
        let config = RingConfig::default().with_capacity(count.saturating_mul(2).max(16));
        let (ring, producers) = EventRing::with_config(workers, &config);
        (Some(ring), producers.into_iter().map(Some).collect())
    } else {
        (None, (0..workers).map(|_| None).collect::<Vec<_>>())
    };
    let states = producers.into_iter().enumerate().collect();

    let started = Instant::now();
    let drained = run(states, &order, what, |(worker, producer), id| {
        if let Some(p) = producer.as_mut() {
            p.record(&Event::TrialStarted {
                trial: id,
                worker: *worker,
            });
        }
        let pair = pairs.trial_pairs[id];
        let (outcome, attempts) = supervise(supervision, what, id, |guard| {
            let built = pairs.lend(pair, intra_jobs, guard)?;
            trial(id, &built, intra_jobs, guard)
        });
        pairs.finish(pair);
        if let Some(p) = producer.as_mut() {
            p.record(&Event::TrialFinished {
                trial: id,
                worker: *worker,
                attempts,
                quarantined: outcome.is_err(),
            });
        }
        Ok((outcome, attempts))
    });
    let pool_nanos = started.elapsed().as_nanos() as u64;
    let trials = drained
        .results
        .into_iter()
        .map(|(ran, nanos)| ran.map(|(outcome, attempts)| (outcome, nanos, attempts)))
        .collect::<crate::Result<_>>()?;
    Ok(Ran {
        trials,
        workers: drained
            .workers
            .iter()
            .map(|w| WorkerHealth {
                worker: w.state.0,
                trials: w.trials,
                busy_nanos: w.busy_nanos,
                utilization: w.busy_nanos as f64 / pool_nanos.max(1) as f64,
            })
            .collect(),
        pool_nanos,
        ring,
    })
}

/// Run one trial under `supervision`: a deadline per attempt, panic
/// isolation and bounded retries. Returns the final outcome and the
/// attempts consumed.
fn supervise<T>(
    supervision: &Supervision,
    what: &'static str,
    id: usize,
    mut attempt: impl FnMut(&mut RunGuard) -> crate::Result<T>,
) -> (crate::Result<T>, u32) {
    let attempts_allowed = supervision.retries.saturating_add(1);
    let mut last = SimError::WorkerPanicked { what };
    for n in 0..attempts_allowed {
        // A token that fired between attempts (or before the first) makes
        // further work pointless — and retrying a *cancelled* attempt
        // would defeat the cancellation, so those errors short-circuit
        // the retry loop entirely.
        if let Some(token) = &supervision.cancel {
            if let Err(e) = token.check(what) {
                return (Err(e), n.max(1));
            }
        }
        let mut guard = RunGuard {
            deadline: supervision.trial_deadline_ms.map(Deadline::within_ms),
            cancel: supervision.cancel.clone(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = supervision.sabotage {
                match hook(id, n) {
                    Some(Sabotage::Panic) => panic!("sabotaged {what} {id}"),
                    Some(Sabotage::Hang) => {
                        // Overshoot the deadline, then fall through to the
                        // real trial: the engine's cooperative checkpoint
                        // abandons it on entry.
                        let ms = supervision.trial_deadline_ms.unwrap_or(0);
                        std::thread::sleep(Duration::from_millis(ms + 10));
                    }
                    None => {}
                }
            }
            attempt(&mut guard)
        }));
        match outcome {
            Ok(Ok(result)) => return (Ok(result), n + 1),
            Ok(Err(e)) => {
                let fired = supervision
                    .cancel
                    .as_ref()
                    .is_some_and(|t| t.fired().is_some());
                if fired {
                    return (Err(e), n + 1);
                }
                last = e;
            }
            Err(_) => last = SimError::WorkerPanicked { what },
        }
    }
    (Err(last), attempts_allowed)
}

/// A job's (population, seed) pairs, each built and recorded at most
/// once per job and lent to every worker that runs one of its trials.
/// Runs read arrivals and never write them, so every trial and retry of
/// a pair runs on its one build, replays its one recording, and sees
/// what a fresh build would give it.
pub(crate) struct Pairs<'a> {
    /// Each pair's population and seed.
    pairs: Vec<(&'a Population, u64)>,
    /// Each trial's pair, in trial order.
    trial_pairs: Vec<usize>,
    /// Epochs per trial: what a pair's recording covers.
    epochs: usize,
    /// Per pair, its build once made, until its last trial ends. The
    /// slot's lock is held while the pair builds and records, so a
    /// second trial of the pair waits for the first's build.
    slots: Vec<Mutex<Option<Arc<Built>>>>,
    /// Per pair, its trials not yet finished.
    left: Vec<AtomicUsize>,
    /// Population builds, phase recordings and trials handed one.
    counts: [AtomicU64; 3],
}

/// One pair's build: its arrivals and their phase trajectory, recorded
/// when the pair has two or more trials and the recording fits its cap.
pub(crate) struct Built {
    pub(crate) arrivals: Arrivals,
    pub(crate) track: Option<PhaseTrack>,
}

impl<'a> Pairs<'a> {
    /// The pairs of a job whose trial `id` runs `epochs` epochs on pair
    /// `trial_pairs[id]`.
    pub(crate) fn new(
        pairs: Vec<(&'a Population, u64)>,
        trial_pairs: Vec<usize>,
        epochs: usize,
    ) -> Self {
        let mut trials = vec![0usize; pairs.len()];
        for &pair in &trial_pairs {
            trials[pair] += 1;
        }
        Pairs {
            pairs,
            trial_pairs,
            epochs,
            slots: trials.iter().map(|_| Mutex::new(None)).collect(),
            left: trials.into_iter().map(AtomicUsize::new).collect(),
            counts: Default::default(),
        }
    }

    /// Lend `pair`'s build to one trial attempt, building it on `jobs`
    /// threads, and recording it when the pair has two or more trials,
    /// if no trial has yet.
    ///
    /// A recording serves every trial of the pair, so it is not charged
    /// to the attempt that makes it, nor is the wait for another
    /// attempt's build: only `guard`'s cancel token can stop a
    /// recording, and `guard`'s deadline moves back by the time both
    /// took. The build itself is the attempt's own.
    ///
    /// # Errors
    ///
    /// A failed build, or a fired cancel token before the build or
    /// during the recording; the pair stays unbuilt, and its next
    /// attempt builds it again.
    fn lend(&self, pair: usize, jobs: usize, guard: &mut RunGuard) -> crate::Result<Arc<Built>> {
        let asked = Instant::now();
        let mut slot = self.slots[pair]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut uncharged = asked.elapsed();
        let built = match slot.as_ref() {
            Some(built) => Arc::clone(built),
            None => {
                // Trials that waited on a build the token stopped must
                // not each build the pair again before they fail.
                if let Some(token) = &guard.cancel {
                    token.check("population build")?;
                }
                let (population, seed) = self.pairs[pair];
                let arrivals = population.arrivals(seed, jobs)?;
                self.counts[0].fetch_add(1, Ordering::Relaxed);
                let mut track = None;
                if self.left[pair].load(Ordering::Relaxed) >= 2 {
                    let recording = Instant::now();
                    let cancel_only = RunGuard {
                        deadline: None,
                        cancel: guard.cancel.clone(),
                    };
                    let mut recorded = PhaseTrack::default();
                    if recorded.record(&arrivals, self.epochs, &cancel_only)? {
                        self.counts[1].fetch_add(1, Ordering::Relaxed);
                        track = Some(recorded);
                    }
                    uncharged += recording.elapsed();
                }
                Arc::clone(slot.insert(Arc::new(Built { arrivals, track })))
            }
        };
        drop(slot);
        guard.deadline = guard.deadline.map(|d| d.postponed(uncharged));
        let replays = u64::from(built.track.is_some());
        self.counts[2].fetch_add(replays, Ordering::Relaxed);
        Ok(built)
    }

    /// One trial of `pair` has ended: after its last, drop the pair's
    /// build (workers still running its trials keep theirs).
    fn finish(&self, pair: usize) {
        if self.left[pair].fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut slot = self.slots[pair]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *slot = None;
        }
    }

    /// Add the job's population builds, phase recordings and replays to
    /// `registry` as `{prefix}.population_builds`, `{prefix}.phase_tracks`
    /// and `{prefix}.phase_replays`.
    pub(crate) fn export(&self, prefix: &str, registry: &mut Registry) {
        for (name, count) in ["population_builds", "phase_tracks", "phase_replays"]
            .iter()
            .zip(&self.counts)
        {
            let c = registry.counter(&format!("{prefix}.{name}"));
            registry.inc(c, count.load(Ordering::Relaxed));
        }
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
    fn a_pair_is_built_once_and_recorded_when_it_has_two_trials() {
        use crate::engine::{CancelToken, Deadline};
        use sprint_workloads::Benchmark;

        let population = Population::homogeneous(Benchmark::Svm, 200).unwrap();
        // Pair 0 has two trials, pair 1 one, pair 2 two.
        let pairs = Pairs::new(
            vec![(&population, 3), (&population, 4), (&population, 5)],
            vec![0, 0, 1, 2, 2],
            50,
        );
        // The recording is not charged to the trial's deadline: one that
        // has already passed does not stop it.
        let mut guard = RunGuard {
            deadline: Some(Deadline::within_ms(0)),
            cancel: None,
        };
        let first = pairs.lend(0, 1, &mut guard).unwrap();
        assert!(first.track.as_ref().is_some_and(|t| t.covers(200, 50)));
        // The pair's second trial borrows the same build.
        let second = pairs.lend(0, 1, &mut RunGuard::default()).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        // A pair with one trial is not recorded.
        let single = pairs.lend(1, 1, &mut RunGuard::default()).unwrap();
        assert!(single.track.is_none());
        // After a pair's last trial its slot lets the build go.
        pairs.finish(0);
        assert!(pairs.slots[0].lock().unwrap().is_some());
        pairs.finish(0);
        assert!(pairs.slots[0].lock().unwrap().is_none());
        // A fired cancel token stops an unbuilt pair before its build,
        // and nothing is kept.
        let token = CancelToken::new();
        token.cancel();
        let mut guard = RunGuard {
            deadline: None,
            cancel: Some(token),
        };
        let stopped = pairs.lend(2, 1, &mut guard);
        assert!(matches!(stopped, Err(SimError::Cancelled { .. })));
        assert!(pairs.slots[2].lock().unwrap().is_none());
        let counts = pairs.counts.map(AtomicU64::into_inner);
        assert_eq!(counts, [2, 1, 2]);
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

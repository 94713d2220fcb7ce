//! Parallel parameter sweeps over the paper's design space.
//!
//! The paper explores Table 2's parameters (`N`, `p_c`, `p_r`, `δ`),
//! benchmark mixes (Figs. 7–10), policies, and fault plans by re-solving
//! Algorithm 1 and re-simulating for every point. A [`SweepSpec`]
//! declares that grid once — games × populations × fault plans ×
//! policies × seeds — and [`run_sweep_shared`] expands it into trials
//! and executes them on the bounded trial pool within the caller's
//! thread budget (by default the available cores).
//!
//! Three properties are load-bearing:
//!
//! - **Byte-reproducible aggregates.** Pool workers take trial indices
//!   from an atomic counter and every result lands in its trial's slot,
//!   so completion order never reaches the output: the same spec
//!   serializes to the same bytes at `--jobs 1` and `--jobs N`.
//!   Wall-clock facts (trial durations, job count, cache counters) go to
//!   the telemetry kit, never into the report.
//! - **Solve memoization.** Every E-T trial resolves its equilibrium
//!   through the caller's [`EquilibriumCache`]: trials that vary only
//!   simulation-side knobs (seeds, faults, policies) pay for Algorithm 1
//!   once per distinct game, and cached results are bit-identical to
//!   fresh solves. Every solve runs cold, so no report depends on what
//!   the cache held before.
//! - **Population reuse.** A trial's utility streams depend only on its
//!   population and seed. Workers take trials grouped by that pair, and
//!   each keeps the streams of its last pair as built, so every trial
//!   and retry runs on a clone instead of a fresh build: a pair is built
//!   at most once per worker.
//!
//! Trials use only the unified telemetry-carrying API
//! ([`engine::run_guarded`], [`Scenario::policy`],
//! [`Scenario::equilibrium_policy_cached_cold`]).
//!
//! Trials run **supervised** ([`Supervision`]): each gets an optional
//! wall-clock deadline (enforced cooperatively at the engine's epoch
//! checkpoints) and a bounded retry budget, and a trial that still
//! panics or errors after its retries is *quarantined* into
//! [`SweepReport::quarantined`] instead of failing the whole sweep.
//! Quarantine preserves byte-reproducibility: records keep expansion
//! order, aggregation groups cells by label rather than position, and
//! the quarantine list is ordered by trial id for every `--jobs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use sprint_game::{EquilibriumCache, GameConfig};
use sprint_stats::summary::{confidence_interval_95, ConfidenceInterval, OnlineStats};
use sprint_telemetry::{Event, EventRing, Recorder, RingConfig, Telemetry, WorkerHealth};
use sprint_workloads::generator::Population;
use sprint_workloads::Benchmark;

use crate::engine::{self, RunOptions, SimConfig};
use crate::metrics::SimResult;
use crate::policies::{AdversarialPopulation, AdversaryMix};
use crate::policy::{PolicyKind, SprintPolicy};
use crate::pool::{self, BuiltPopulation};
use crate::runner::NamedPlan;
use crate::scenario::{Scenario, SolveSummary};
use crate::SimError;

/// One point on the sweep's game axis: breaker band as a fraction of the
/// population (so one variant scales across population sizes), plus the
/// Markov persistences and discount.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct GameVariant {
    /// Display name (unique within a spec).
    pub name: String,
    /// `N_min` as a fraction of the population (paper: 0.25).
    pub n_min_frac: f64,
    /// `N_max` as a fraction of the population (paper: 0.75).
    pub n_max_frac: f64,
    /// Cooling-state persistence `p_c`.
    pub p_cooling: f64,
    /// Recovery-state persistence `p_r`.
    pub p_recovery: f64,
    /// Discount factor `δ`.
    pub discount: f64,
}

impl GameVariant {
    /// The Table-2 variant under `name`.
    #[must_use]
    pub fn paper(name: impl Into<String>) -> Self {
        let g = GameConfig::paper_defaults();
        GameVariant {
            name: name.into(),
            n_min_frac: g.n_min() / f64::from(g.n_agents()),
            n_max_frac: g.n_max() / f64::from(g.n_agents()),
            p_cooling: g.p_cooling(),
            p_recovery: g.p_recovery(),
            discount: g.discount(),
        }
    }

    /// Instantiate the variant for a concrete population size.
    ///
    /// # Errors
    ///
    /// Propagates [`GameConfig`] builder validation.
    pub fn build(&self, agents: u32) -> crate::Result<GameConfig> {
        GameConfig::builder()
            .n_agents(agents)
            .n_min(f64::from(agents) * self.n_min_frac)
            .n_max(f64::from(agents) * self.n_max_frac)
            .p_cooling(self.p_cooling)
            .p_recovery(self.p_recovery)
            .discount(self.discount)
            .build()
            .map_err(Into::into)
    }
}

/// One point on the sweep's population axis: benchmarks by name (a single
/// name is a homogeneous rack; several are split round-robin).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PopulationSpec {
    /// Display name (unique within a spec).
    pub name: String,
    /// Benchmark names (see [`Benchmark::from_name`]).
    pub benchmarks: Vec<String>,
    /// Rack size.
    pub agents: u32,
}

impl PopulationSpec {
    /// A homogeneous population of `agents` × `benchmark`.
    #[must_use]
    pub fn homogeneous(benchmark: Benchmark, agents: u32) -> Self {
        PopulationSpec {
            name: benchmark.name().to_string(),
            benchmarks: vec![benchmark.name().to_string()],
            agents,
        }
    }

    fn resolve(&self) -> crate::Result<Population> {
        let benchmarks: Vec<Benchmark> = self
            .benchmarks
            .iter()
            .map(|name| {
                Benchmark::from_name(name).ok_or(SimError::InvalidParameter {
                    name: "benchmarks",
                    value: 0.0,
                    expected: "benchmark names known to sprint_workloads",
                })
            })
            .collect::<crate::Result<_>>()?;
        match benchmarks.as_slice() {
            [] => Err(SimError::InvalidParameter {
                name: "benchmarks",
                value: 0.0,
                expected: "at least one benchmark name",
            }),
            [only] => Population::homogeneous(*only, self.agents as usize).map_err(Into::into),
            many => Population::heterogeneous(many, self.agents as usize).map_err(Into::into),
        }
    }
}

/// One point on the sweep's adversary axis: a named [`AdversaryMix`]
/// applied to every policy trial (the label `"honest"` with a zero
/// fraction is the clean default).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NamedAdversaries {
    /// Display name (unique within a spec).
    pub name: String,
    /// The adversary population specification.
    pub mix: AdversaryMix,
}

impl NamedAdversaries {
    /// The clean default: no adversaries.
    #[must_use]
    pub fn honest() -> Self {
        NamedAdversaries {
            name: "honest".to_string(),
            mix: AdversaryMix::honest(),
        }
    }
}

/// The adversary label of an honest trial: what a record, cell or
/// quarantined trial serialized before the adversary axis existed reads
/// as.
fn honest_label() -> String {
    NamedAdversaries::honest().name
}

/// A declarative sweep: the cartesian product
/// `games × populations × plans × adversaries × policies × seeds`,
/// expanded in exactly that axis order (seeds fastest) into trials
/// numbered from 0.
///
/// An empty `plans` list means one unnamed clean entry that keeps
/// `options.faults`; every listed plan *overrides* `options.faults` for
/// its trials. An empty `adversaries` list means one honest entry, and
/// specs written before the adversary axis (no `adversaries` field)
/// parse with an empty list.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepSpec {
    /// The game axis.
    pub games: Vec<GameVariant>,
    /// The population axis.
    pub populations: Vec<PopulationSpec>,
    /// The fault-plan axis (may be empty; see above).
    pub plans: Vec<NamedPlan>,
    /// The adversary axis (may be empty; see above).
    #[serde(default)]
    pub adversaries: Vec<NamedAdversaries>,
    /// The policy axis.
    pub policies: Vec<PolicyKind>,
    /// The seed axis.
    pub seeds: Vec<u64>,
    /// Simulated epochs per trial.
    pub epochs: usize,
    /// Shared run options (recovery/interruption/estimation/stagger and
    /// the default fault plan).
    pub options: RunOptions,
}

impl SweepSpec {
    /// A ready-to-edit example spec: the acceptance sweep — 4 game
    /// variants × 1 population × 4 policies × 4 seeds = 64 trials.
    #[must_use]
    pub fn example() -> Self {
        let paper = GameVariant::paper("paper");
        let mut tight_band = GameVariant::paper("tight-band");
        tight_band.n_min_frac = 0.15;
        tight_band.n_max_frac = 0.60;
        let mut slow_cooling = GameVariant::paper("slow-cooling");
        slow_cooling.p_cooling = 0.75;
        let mut fast_recovery = GameVariant::paper("fast-recovery");
        fast_recovery.p_recovery = 0.70;
        SweepSpec {
            games: vec![paper, tight_band, slow_cooling, fast_recovery],
            populations: vec![PopulationSpec::homogeneous(Benchmark::DecisionTree, 100)],
            plans: Vec::new(),
            adversaries: Vec::new(),
            policies: PolicyKind::ALL.to_vec(),
            seeds: vec![1, 2, 3, 4],
            epochs: 200,
            options: RunOptions::default(),
        }
    }

    /// Trials this spec expands to.
    #[must_use]
    pub fn trial_count(&self) -> usize {
        self.games.len()
            * self.populations.len()
            * self.plans.len().max(1)
            * self.adversaries.len().max(1)
            * self.policies.len()
            * self.seeds.len()
    }

    fn validate(&self) -> crate::Result<()> {
        let axes: [(&str, usize); 4] = [
            ("games", self.games.len()),
            ("populations", self.populations.len()),
            ("policies", self.policies.len()),
            ("seeds", self.seeds.len()),
        ];
        for (name, len) in axes {
            if len == 0 {
                return Err(SimError::InvalidParameter {
                    name,
                    value: 0.0,
                    expected: "a non-empty sweep axis",
                });
            }
        }
        if self.epochs == 0 {
            return Err(SimError::InvalidParameter {
                name: "epochs",
                value: 0.0,
                expected: "at least one epoch",
            });
        }
        for plan in &self.plans {
            plan.plan.validate()?;
        }
        for named in &self.adversaries {
            named.mix.validate()?;
        }
        // Resolve populations eagerly so configuration mistakes fail the
        // sweep up front; quarantine is reserved for runtime failures.
        for population in &self.populations {
            population.resolve()?;
        }
        self.options.faults.validate()?;
        Ok(())
    }

    /// The plan axis with the empty-list default applied.
    fn effective_plans(&self) -> Vec<NamedPlan> {
        if self.plans.is_empty() {
            vec![NamedPlan {
                name: "none".to_string(),
                plan: self.options.faults,
            }]
        } else {
            self.plans.clone()
        }
    }

    /// The adversary axis with the empty-list default applied.
    fn effective_adversaries(&self) -> Vec<NamedAdversaries> {
        if self.adversaries.is_empty() {
            vec![NamedAdversaries::honest()]
        } else {
            self.adversaries.clone()
        }
    }

    fn expand(&self, plans: &[NamedPlan], adversaries: &[NamedAdversaries]) -> Vec<Trial> {
        let mut trials = Vec::with_capacity(self.trial_count());
        for game in 0..self.games.len() {
            for population in 0..self.populations.len() {
                for plan in 0..plans.len() {
                    for adversary in 0..adversaries.len() {
                        for policy in 0..self.policies.len() {
                            for &seed in &self.seeds {
                                trials.push(Trial {
                                    id: trials.len(),
                                    game,
                                    population,
                                    plan,
                                    adversary,
                                    policy,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
        trials
    }
}

/// One expanded grid point (indices into the spec's axes).
#[derive(Debug, Clone, Copy)]
struct Trial {
    id: usize,
    game: usize,
    population: usize,
    plan: usize,
    adversary: usize,
    policy: usize,
    seed: u64,
}

/// The outcome of one trial.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepRecord {
    /// Trial index in expansion order.
    pub trial: usize,
    /// Game variant name.
    pub game: String,
    /// Population name.
    pub population: String,
    /// Fault-plan name (`"none"` for the clean default).
    pub plan: String,
    /// Adversary-mix name (`"honest"` for the clean default, and for
    /// records serialized before the adversary axis).
    #[serde(default = "honest_label")]
    pub adversaries: String,
    /// The policy.
    pub policy: PolicyKind,
    /// The seed.
    pub seed: u64,
    /// Task throughput per agent-epoch.
    pub tasks_per_agent_epoch: f64,
    /// Total tasks completed.
    pub total_tasks: f64,
    /// Breaker trips.
    pub trips: u32,
    /// Mean sprinters per epoch.
    pub mean_sprinters: f64,
    /// Occupancy fractions `[active idle, cooling, recovery, sprinting]`.
    pub occupancy: [f64; 4],
    /// Convergence facts for the offline solve (E-T trials only).
    pub solve: Option<SolveSummary>,
}

/// Aggregate over one cell's seeds (one `game × population × plan ×
/// adversaries × policy` point).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepCell {
    /// Game variant name.
    pub game: String,
    /// Population name.
    pub population: String,
    /// Fault-plan name.
    pub plan: String,
    /// Adversary-mix name.
    #[serde(default = "honest_label")]
    pub adversaries: String,
    /// The policy.
    pub policy: PolicyKind,
    /// Trials aggregated (the seed count).
    pub trials: usize,
    /// Mean task throughput per agent-epoch.
    pub tasks_per_agent_epoch: f64,
    /// Standard deviation of the throughput across seeds.
    pub tasks_std_dev: f64,
    /// 95 % Student-t confidence interval (`None` for one seed).
    pub tasks_ci: Option<ConfidenceInterval>,
    /// Mean breaker trips per run.
    pub trips: f64,
    /// Mean sprinters per epoch.
    pub mean_sprinters: f64,
    /// Mean occupancy fractions.
    pub occupancy: [f64; 4],
    /// Throughput over the same-cell-group Greedy throughput (the
    /// paper's Figure 8/9 metric; `None` when Greedy is not swept).
    pub normalized_to_greedy: Option<f64>,
    /// Convergence facts for the cell's offline solve (E-T cells only;
    /// identical across seeds since the solve is seed-independent).
    pub solve: Option<SolveSummary>,
}

/// A sabotage instruction for supervision tests: make a trial attempt
/// misbehave on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Panic inside the trial.
    Panic,
    /// Sleep past the trial deadline before running, so the engine's
    /// cooperative deadline check fires on entry.
    Hang,
}

/// A test hook deciding whether a given `(trial, attempt)` is sabotaged.
pub type SabotageHook = fn(trial: usize, attempt: u32) -> Option<Sabotage>;

/// Per-trial supervision policy for a sweep. Runtime-only (never part
/// of a serialized report): wall-clock limits are facts about the host,
/// not the simulation.
#[derive(Debug, Clone)]
pub struct Supervision {
    /// Wall-clock deadline per trial attempt, in milliseconds, enforced
    /// cooperatively at the engine's epoch checkpoints (a hung attempt
    /// is abandoned at the next checkpoint, never preempted). It covers
    /// the attempt's solve, population build and run, but not the
    /// recording of a pair's phase trajectory, which serves the pair's
    /// later trials too (DESIGN §12.7). `None` disables the deadline.
    pub trial_deadline_ms: Option<u64>,
    /// Re-runs granted to a failing trial before quarantine.
    pub retries: u32,
    /// Deliberate-failure injection for supervision tests.
    pub sabotage: Option<SabotageHook>,
    /// Shared cancellation / job-deadline token, checked inside every
    /// trial at the engine's epoch checkpoints. A fired token fails the
    /// *whole sweep* (typed [`SimError::Cancelled`] /
    /// [`SimError::DeadlineExceeded`]) instead of quarantining trials:
    /// cancellation is a caller decision, not a flaky trial.
    pub cancel: Option<engine::CancelToken>,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            trial_deadline_ms: None,
            retries: 1,
            sabotage: None,
            cancel: None,
        }
    }
}

impl Supervision {
    /// Supervision with a per-attempt deadline of `ms` milliseconds.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.trial_deadline_ms = Some(ms);
        self
    }

    /// Supervision carrying a shared cancel token.
    #[must_use]
    pub fn with_cancel(mut self, token: engine::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// A trial that kept failing after its retries and was excluded from
/// the records instead of failing the sweep.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QuarantinedTrial {
    /// Trial index in expansion order.
    pub trial: usize,
    /// Game variant name.
    pub game: String,
    /// Population name.
    pub population: String,
    /// Fault-plan name.
    pub plan: String,
    /// Adversary-mix name.
    #[serde(default = "honest_label")]
    pub adversaries: String,
    /// The policy.
    pub policy: PolicyKind,
    /// The seed.
    pub seed: u64,
    /// Attempts consumed (initial run plus retries).
    pub attempts: u32,
    /// Display form of the final error (panics surface as worker-panic
    /// errors).
    pub error: String,
}

/// A completed sweep: per-trial records (expansion order) and per-cell
/// aggregates. Contains simulation-time data only — wall-clock facts go
/// to the telemetry kit — so serialization is byte-identical across job
/// counts and runs.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SweepReport {
    /// Total trials executed.
    pub trials: usize,
    /// Per-trial records in expansion order.
    pub records: Vec<SweepRecord>,
    /// Per-cell aggregates in expansion order.
    pub cells: Vec<SweepCell>,
    /// Trials excluded by supervision, in trial order (empty for reports
    /// serialized before the supervision layer).
    #[serde(default)]
    pub quarantined: Vec<QuarantinedTrial>,
    /// Per-worker utilization and timing for the pool that ran this
    /// sweep, in worker-slot order. Wall-clock, scheduling-dependent
    /// diagnostics: excluded from serialization and equality so the
    /// canonical report stays byte-identical at every job count
    /// (deserialized reports carry an empty list).
    #[serde(skip)]
    pub workers: Vec<WorkerHealth>,
}

// Equality mirrors serialization: two reports with the same
// simulation-time content are equal regardless of pool scheduling.
impl PartialEq for SweepReport {
    fn eq(&self, other: &Self) -> bool {
        self.trials == other.trials
            && self.records == other.records
            && self.cells == other.cells
            && self.quarantined == other.quarantined
    }
}

/// Execute a sweep — the one entry point.
///
/// Expands `spec` into trials and runs them on the bounded trial pool
/// within a budget of `jobs` threads (`jobs == 0` means the available
/// cores). Every result lands in its trial's slot, so the report is
/// identical — byte-for-byte under serialization — for every job count.
///
/// E-T solves are memoized in `cache`, which long-lived processes (the
/// `sprint serve` daemon, the unified job path) share across jobs. Every
/// solve runs **cold**: a miss runs Algorithm 1 from scratch, so every
/// [`SolveSummary`] in the report is independent of whatever the cache
/// already holds. That makes the report bytes a function of the spec
/// alone — identical whether the cache is empty, pre-warmed by earlier
/// jobs, or being raced by concurrent clients (single-flight dedupes the
/// actual solves).
///
/// The cache's hit/miss/eviction counters land in the kit's registry
/// (`cache.equilibrium.*`), alongside `sweep.trials` and `sweep.jobs`
/// (and, when the kit is enabled, `sweep.population_builds`, the phase
/// trajectories recorded, `sweep.phase_tracks`, and the trials that
/// replayed one, `sweep.phase_replays`); per-trial wall-clock durations
/// accumulate in the kit's span profile under `sweep.trial`.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for an empty axis, invalid
/// plan, or unresolvable population. Runtime trial failures are
/// quarantined under `supervision`, not propagated; a fired cancel or
/// job-deadline token fails the sweep with [`SimError::Cancelled`] or
/// [`SimError::DeadlineExceeded`], and [`SimError::WorkerPanicked`]
/// surfaces when a worker thread itself dies outside a supervised trial.
pub fn run_sweep_shared(
    spec: &SweepSpec,
    jobs: usize,
    supervision: Supervision,
    cache: &EquilibriumCache,
    telemetry: &mut Telemetry,
) -> crate::Result<SweepReport> {
    spec.validate()?;
    let plans = spec.effective_plans();
    let adversaries = spec.effective_adversaries();
    let trials = spec.expand(&plans, &adversaries);
    let (jobs, intra_jobs) = pool::thread_budget(jobs, trials.len());

    // Workers take trials grouped by (population, seed), in trial order
    // within a group (the sort is stable), so a worker builds each
    // group's population once and runs the rest of the group on clones.
    let mut order: Vec<usize> = (0..trials.len()).collect();
    order.sort_by_key(|&id| (trials[id].population, trials[id].seed));
    let profile = telemetry.enabled();

    // Each worker emits trial lifecycle events into its own lock-free
    // ring segment — no shared sink, no contention on the hot path. The
    // ring is sized so a worker that somehow runs every trial still
    // never drops (and drops, were they to happen, are counted).
    let (ring, producers) = if profile {
        let capacity = trials.len().saturating_mul(2).max(16);
        let (r, p) = EventRing::with_config(jobs, &RingConfig::default().with_capacity(capacity));
        (Some(r), p.into_iter().map(Some).collect())
    } else {
        (None, (0..jobs).map(|_| None).collect::<Vec<_>>())
    };
    let pairs = spec.populations.len() * spec.seeds.len();
    let states: Vec<_> = producers
        .into_iter()
        .enumerate()
        .map(|(worker, producer)| {
            let built = BuiltPopulation::new(trials.len(), pairs, jobs);
            (worker, producer, built)
        })
        .collect();

    let pool_started = std::time::Instant::now();
    let drained = pool::run(
        states,
        &order,
        "sweep trial",
        |(worker, producer, built), id| {
            let trial = &trials[id];
            if let Some(p) = producer.as_mut() {
                p.record(&Event::TrialStarted {
                    trial: id,
                    worker: *worker,
                });
            }
            let (record, attempts) = run_trial_supervised(
                spec,
                &plans,
                &adversaries,
                trial,
                cache,
                &supervision,
                intra_jobs,
                built,
            );
            if let Some(p) = producer.as_mut() {
                p.record(&Event::TrialFinished {
                    trial: id,
                    worker: *worker,
                    attempts,
                    quarantined: record.is_err(),
                });
            }
            Ok((record, attempts))
        },
    );
    let pool_nanos = pool_started.elapsed().as_nanos() as u64;
    // Trials catch their own panics; a pool-level failure means a worker
    // died outside a supervised trial.
    let outcomes = drained
        .results
        .into_iter()
        .map(|(outcome, nanos)| outcome.map(|(record, attempts)| (record, nanos, attempts)))
        .collect::<crate::Result<Vec<_>>>()?;
    // A fired cancel/deadline token fails the sweep outright: partial
    // results from an abandoned sweep must not masquerade as a report
    // whose trials all happened to quarantine.
    if let Some(token) = &supervision.cancel {
        token.check("sweep")?;
    }

    // Per-worker utilization/timing ride on the report as diagnostics
    // (excluded from canonical serialization and equality), and feed the
    // span path table so flamegraphs show the pool split.
    let workers: Vec<WorkerHealth> = drained
        .workers
        .iter()
        .map(|w| WorkerHealth {
            worker: w.state.0,
            trials: w.trials,
            busy_nanos: w.busy_nanos,
            utilization: w.busy_nanos as f64 / pool_nanos.max(1) as f64,
        })
        .collect();
    if profile {
        telemetry.spans.record_path_nanos("sweep", pool_nanos);
        for w in &workers {
            telemetry
                .spans
                .record_path_nanos(&format!("sweep;worker-{}", w.worker), w.busy_nanos);
        }
    }

    // Drain the ring into the kit's recorder in deterministic (trial id,
    // started-before-finished) order, and mirror its publish/drop
    // accounting into the registry. Worker assignment inside each event
    // is inherently scheduling-dependent; everything else is invariant.
    if let Some(mut ring) = ring {
        ring.export_metrics(&mut telemetry.registry);
        let mut events = ring.drain();
        events.sort_by_key(|e| match e {
            Event::TrialStarted { trial, .. } => (*trial, 0u8),
            Event::TrialFinished { trial, .. } => (*trial, 1),
            _ => (usize::MAX, 2),
        });
        for event in &events {
            telemetry.emit(event);
        }
        telemetry.export_recorder_metrics();
    }
    let mut records = Vec::with_capacity(trials.len());
    let mut quarantined = Vec::new();
    let mut retried = 0u64;
    for (trial, (record, nanos, attempts)) in trials.iter().zip(outcomes) {
        if profile {
            telemetry.spans.record_nanos("sweep.trial", nanos);
        }
        retried += u64::from(attempts.saturating_sub(1));
        match record {
            Ok(record) => records.push(record),
            Err(e) => quarantined.push(QuarantinedTrial {
                trial: trial.id,
                game: spec.games[trial.game].name.clone(),
                population: spec.populations[trial.population].name.clone(),
                plan: plans[trial.plan].name.clone(),
                adversaries: adversaries[trial.adversary].name.clone(),
                policy: spec.policies[trial.policy],
                seed: trial.seed,
                attempts,
                error: e.to_string(),
            }),
        }
    }
    let cells = aggregate_cells(&records);

    cache.export_metrics(&mut telemetry.registry);
    let c = telemetry.registry.counter("sweep.trials");
    telemetry.registry.inc(c, records.len() as u64);
    let c = telemetry.registry.counter("sweep.quarantined");
    telemetry.registry.inc(c, quarantined.len() as u64);
    let c = telemetry.registry.counter("sweep.retries");
    telemetry.registry.inc(c, retried);
    let g = telemetry.registry.gauge("sweep.jobs");
    telemetry.registry.set(g, jobs as f64);
    let g = telemetry.registry.gauge("sweep.intra_jobs");
    telemetry.registry.set(g, intra_jobs as f64);
    if profile {
        let built = drained.workers.iter().map(|w| &w.state.2);
        pool::export_builds(built, "sweep", &mut telemetry.registry);
    }

    Ok(SweepReport {
        trials: records.len(),
        records,
        cells,
        quarantined,
        workers,
    })
}

/// Run one trial under supervision: per-attempt deadline, panic
/// isolation, bounded retry. Returns the final outcome and the attempts
/// consumed.
#[allow(clippy::too_many_arguments)]
fn run_trial_supervised(
    spec: &SweepSpec,
    plans: &[NamedPlan],
    adversaries: &[NamedAdversaries],
    trial: &Trial,
    cache: &EquilibriumCache,
    supervision: &Supervision,
    intra_jobs: usize,
    built: &mut BuiltPopulation,
) -> (crate::Result<SweepRecord>, u32) {
    let attempts_allowed = supervision.retries.saturating_add(1);
    let mut last = SimError::WorkerPanicked {
        what: "sweep trial",
    };
    for attempt in 0..attempts_allowed {
        // A token that fired between attempts (or before the first) makes
        // further work pointless — and retrying a *cancelled* attempt
        // would defeat the cancellation, so those errors short-circuit
        // the retry loop entirely.
        if let Some(token) = &supervision.cancel {
            if let Err(e) = token.check("sweep trial") {
                return (Err(e), attempt.max(1));
            }
        }
        let mut guard = engine::RunGuard {
            deadline: supervision
                .trial_deadline_ms
                .map(engine::Deadline::within_ms),
            cancel: supervision.cancel.clone(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = supervision.sabotage {
                match hook(trial.id, attempt) {
                    Some(Sabotage::Panic) => panic!("sabotaged sweep trial {}", trial.id),
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
            run_trial(
                spec,
                plans,
                adversaries,
                trial,
                cache,
                &mut guard,
                intra_jobs,
                built,
            )
        }));
        match outcome {
            Ok(Ok(record)) => return (Ok(record), attempt + 1),
            Ok(Err(e)) => {
                let fired = supervision
                    .cancel
                    .as_ref()
                    .is_some_and(|t| t.fired().is_some());
                if fired {
                    return (Err(e), attempt + 1);
                }
                last = e;
            }
            Err(_) => {
                last = SimError::WorkerPanicked {
                    what: "sweep trial",
                }
            }
        }
    }
    (Err(last), attempts_allowed)
}

/// Run one grid point through the unified API only.
#[allow(clippy::too_many_arguments)]
fn run_trial(
    spec: &SweepSpec,
    plans: &[NamedPlan],
    adversaries: &[NamedAdversaries],
    trial: &Trial,
    cache: &EquilibriumCache,
    guard: &mut engine::RunGuard,
    intra_jobs: usize,
    built: &mut BuiltPopulation,
) -> crate::Result<SweepRecord> {
    let variant = &spec.games[trial.game];
    let pop_spec = &spec.populations[trial.population];
    let named = &plans[trial.plan];
    let named_mix = &adversaries[trial.adversary];
    let kind = spec.policies[trial.policy];

    let game = variant.build(pop_spec.agents)?;
    let mut options = spec.options;
    options.faults = named.plan;
    let scenario =
        Scenario::with_game(pop_spec.resolve()?, game, spec.epochs)?.with_options(options);

    let (mut policy, solve): (Box<dyn SprintPolicy>, Option<SolveSummary>) = match kind {
        PolicyKind::EquilibriumThreshold => {
            let (policy, summary) = scenario.equilibrium_policy_cached_cold(cache)?;
            (Box::new(policy), Some(summary))
        }
        other => (
            scenario.policy(other, trial.seed, &mut Telemetry::noop())?,
            None,
        ),
    };
    if named_mix.mix.fraction > 0.0 {
        policy = Box::new(AdversarialPopulation::new(
            policy,
            named_mix.mix,
            pop_spec.agents as usize,
        )?);
    }
    let config = SimConfig::new(game, spec.epochs, trial.seed)?.with_options(*scenario.options());
    let (arrivals, track) = built.arrivals(
        trial.population,
        scenario.population(),
        trial.seed,
        intra_jobs,
        spec.epochs,
        guard,
    )?;
    let (result, _) = engine::run_replaying(
        &config,
        arrivals,
        policy.as_mut(),
        guard,
        intra_jobs,
        &mut Telemetry::noop(),
        track,
    )?;

    Ok(record_of(
        trial, variant, pop_spec, named, named_mix, kind, &result, solve,
    ))
}

#[allow(clippy::too_many_arguments)]
fn record_of(
    trial: &Trial,
    variant: &GameVariant,
    pop_spec: &PopulationSpec,
    named: &NamedPlan,
    named_mix: &NamedAdversaries,
    kind: PolicyKind,
    result: &SimResult,
    solve: Option<SolveSummary>,
) -> SweepRecord {
    SweepRecord {
        trial: trial.id,
        game: variant.name.clone(),
        population: pop_spec.name.clone(),
        plan: named.name.clone(),
        adversaries: named_mix.name.clone(),
        policy: kind,
        seed: trial.seed,
        tasks_per_agent_epoch: result.tasks_per_agent_epoch(),
        total_tasks: result.total_tasks(),
        trips: result.trips(),
        mean_sprinters: result.mean_sprinters(),
        occupancy: result.occupancy().fractions(),
        solve,
    }
}

/// Fold records into per-cell aggregates, normalizing each policy cell
/// against the Greedy cell of the same `game × population × plan`
/// group. Grouping is by label, not position, so quarantine holes in
/// the record list shrink a cell's seed count instead of smearing
/// neighbouring cells into each other; cells keep first-seen (i.e.
/// expansion) order.
fn aggregate_cells(records: &[SweepRecord]) -> Vec<SweepCell> {
    let mut groups: Vec<Vec<&SweepRecord>> = Vec::new();
    for r in records {
        let key = (&r.game, &r.population, &r.plan, &r.adversaries, r.policy);
        match groups.iter_mut().find(|g| {
            (
                &g[0].game,
                &g[0].population,
                &g[0].plan,
                &g[0].adversaries,
                g[0].policy,
            ) == key
        }) {
            Some(group) => group.push(r),
            None => groups.push(vec![r]),
        }
    }

    let mut cells: Vec<SweepCell> = groups
        .iter()
        .map(|chunk| {
            let first = chunk[0];
            let per_trial: Vec<f64> = chunk.iter().map(|r| r.tasks_per_agent_epoch).collect();
            let tasks: OnlineStats = per_trial.iter().copied().collect();
            let mut occupancy = [0.0f64; 4];
            for r in chunk {
                for (acc, x) in occupancy.iter_mut().zip(r.occupancy) {
                    *acc += x;
                }
            }
            for acc in &mut occupancy {
                *acc /= chunk.len() as f64;
            }
            SweepCell {
                game: first.game.clone(),
                population: first.population.clone(),
                plan: first.plan.clone(),
                adversaries: first.adversaries.clone(),
                policy: first.policy,
                trials: chunk.len(),
                tasks_per_agent_epoch: tasks.mean(),
                tasks_std_dev: tasks.std_dev(),
                tasks_ci: confidence_interval_95(&per_trial).ok(),
                trips: chunk.iter().map(|r| f64::from(r.trips)).sum::<f64>() / chunk.len() as f64,
                mean_sprinters: chunk.iter().map(|r| r.mean_sprinters).sum::<f64>()
                    / chunk.len() as f64,
                occupancy,
                normalized_to_greedy: None,
                solve: chunk.iter().find_map(|r| r.solve),
            }
        })
        .collect();

    for i in 0..cells.len() {
        let greedy = cells
            .iter()
            .find(|c| {
                c.policy == PolicyKind::Greedy
                    && c.game == cells[i].game
                    && c.population == cells[i].population
                    && c.plan == cells[i].plan
                    && c.adversaries == cells[i].adversaries
            })
            .map(|c| c.tasks_per_agent_epoch)
            .filter(|&g| g > 0.0);
        if let Some(greedy) = greedy {
            cells[i].normalized_to_greedy = Some(cells[i].tasks_per_agent_epoch / greedy);
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    /// A sweep on a fresh cache of its own.
    fn sweep(
        spec: &SweepSpec,
        jobs: usize,
        supervision: Supervision,
        telemetry: &mut Telemetry,
    ) -> crate::Result<SweepReport> {
        let cache = EquilibriumCache::default();
        run_sweep_shared(spec, jobs, supervision, &cache, telemetry)
    }

    fn small_spec() -> SweepSpec {
        SweepSpec {
            games: vec![GameVariant::paper("paper")],
            populations: vec![PopulationSpec::homogeneous(Benchmark::DecisionTree, 40)],
            plans: Vec::new(),
            adversaries: Vec::new(),
            policies: vec![PolicyKind::Greedy, PolicyKind::EquilibriumThreshold],
            seeds: vec![1, 2, 3],
            epochs: 60,
            options: RunOptions::default(),
        }
    }

    #[test]
    fn shared_cache_sweep_bytes_ignore_prior_cache_content() {
        // The serve-daemon property: a sweep through a shared process
        // cache must serialize identically whether the cache is fresh or
        // already warmed by earlier jobs — cold solves keep iteration
        // counts out of reach of cache history.
        let spec = small_spec();
        let fresh = EquilibriumCache::default();
        let a = run_sweep_shared(
            &spec,
            2,
            Supervision::default(),
            &fresh,
            &mut Telemetry::noop(),
        )
        .unwrap();
        let reused = EquilibriumCache::default();
        let _ = run_sweep_shared(
            &spec,
            1,
            Supervision::default(),
            &reused,
            &mut Telemetry::noop(),
        )
        .unwrap();
        let before = reused.stats();
        let b = run_sweep_shared(
            &spec,
            2,
            Supervision::default(),
            &reused,
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(a, b, "report must not depend on prior cache content");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "canonical bytes must match through a warmed shared cache"
        );
        let after = reused.stats();
        assert_eq!(after.misses, before.misses, "re-run solves nothing new");
        assert!(after.hits > before.hits, "re-run hits the shared cache");
    }

    #[test]
    fn worker_stats_ride_the_report_outside_the_canonical_bytes() {
        let spec = small_spec();
        let mut kit = Telemetry::in_memory();
        let report = sweep(&spec, 2, Supervision::default(), &mut kit).unwrap();
        assert_eq!(report.workers.len(), 2);
        let done: u64 = report.workers.iter().map(|w| w.trials).sum();
        assert_eq!(done as usize, report.trials);
        for w in &report.workers {
            assert!(w.utilization >= 0.0);
            assert!(w.busy_nanos > 0 || w.trials == 0);
        }
        // The diagnostics never reach the canonical bytes or equality.
        let json = serde_json::to_string(&report).unwrap();
        assert!(!json.contains("\"workers\""), "{json}");
        let mut stripped = report.clone();
        stripped.workers.clear();
        assert_eq!(report, stripped, "equality ignores pool diagnostics");
        // The pool split lands in the span path table for flamegraphs.
        assert!(kit.spans.path_stats("sweep").is_some());
        assert!(kit.spans.path_stats("sweep;worker-0").is_some());
        assert!(kit.spans.path_stats("sweep;worker-1").is_some());
    }

    #[test]
    fn trial_lifecycle_events_drain_from_the_ring_in_trial_order() {
        let spec = small_spec(); // 2 policies × 3 seeds = 6 trials
        let mut kit = Telemetry::in_memory();
        let report = sweep(&spec, 3, Supervision::default(), &mut kit).unwrap();
        assert_eq!(report.trials, 6);
        let events = kit.events().unwrap();
        let lifecycle: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::TrialStarted { .. } | Event::TrialFinished { .. }))
            .collect();
        assert_eq!(lifecycle.len(), 12, "start + finish per trial");
        for (i, pair) in lifecycle.chunks(2).enumerate() {
            match (pair[0], pair[1]) {
                (
                    Event::TrialStarted { trial: a, .. },
                    Event::TrialFinished {
                        trial: b,
                        attempts,
                        quarantined,
                        ..
                    },
                ) => {
                    assert_eq!(*a, i);
                    assert_eq!(*b, i);
                    assert_eq!(*attempts, 1);
                    assert!(!*quarantined);
                }
                other => panic!("unexpected lifecycle pair {other:?}"),
            }
        }
        // Ring accounting is mirrored into the registry: publishes
        // counted, drops zero (the ring is sized to the trial list).
        assert_eq!(kit.registry.counter_value("ring.published"), Some(12));
        assert_eq!(kit.registry.counter_value("ring.dropped"), Some(0));
        assert_eq!(
            kit.registry.counter_value("telemetry.recorder.written"),
            Some(events.len() as u64)
        );
    }

    #[test]
    fn validates_axes() {
        let mut spec = small_spec();
        spec.seeds.clear();
        assert!(sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).is_err());
        let mut spec = small_spec();
        spec.policies.clear();
        assert!(sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).is_err());
        let mut spec = small_spec();
        spec.epochs = 0;
        assert!(sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).is_err());
        let mut spec = small_spec();
        spec.populations[0].benchmarks = vec!["no-such-benchmark".to_string()];
        assert!(sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).is_err());
    }

    #[test]
    fn expansion_orders_trials_seeds_fastest() {
        let spec = small_spec();
        assert_eq!(spec.trial_count(), 6);
        let report = sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).unwrap();
        assert_eq!(report.trials, 6);
        let seeds: Vec<u64> = report.records.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, [1, 2, 3, 1, 2, 3]);
        assert_eq!(report.records[0].policy, PolicyKind::Greedy);
        assert_eq!(report.records[3].policy, PolicyKind::EquilibriumThreshold);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.trial, i);
            assert_eq!(r.plan, "none");
        }
    }

    #[test]
    fn aggregate_is_identical_across_job_counts() {
        let spec = small_spec();
        let serial = sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).unwrap();
        let parallel = sweep(&spec, 4, Supervision::default(), &mut Telemetry::noop()).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "reports must serialize byte-identically across job counts"
        );
    }

    #[test]
    fn cells_normalize_to_greedy_and_carry_solves() {
        let report = sweep(
            &small_spec(),
            2,
            Supervision::default(),
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(report.cells.len(), 2);
        let greedy = &report.cells[0];
        let et = &report.cells[1];
        assert_eq!(greedy.policy, PolicyKind::Greedy);
        assert!((greedy.normalized_to_greedy.unwrap() - 1.0).abs() < 1e-12);
        assert!(et.normalized_to_greedy.unwrap() > 1.0, "E-T beats G");
        assert!(greedy.solve.is_none());
        let solve = et.solve.expect("E-T cells carry solve summaries");
        assert!(solve.converged);
        assert_eq!(greedy.trials, 3);
        assert!(greedy.tasks_ci.is_some());
    }

    #[test]
    fn equilibrium_solves_hit_the_cache_across_seeds() {
        let mut spec = small_spec();
        spec.policies = vec![PolicyKind::EquilibriumThreshold];
        spec.seeds = (1..=8).collect();
        let mut kit = Telemetry::in_memory();
        let report = sweep(&spec, 4, Supervision::default(), &mut kit).unwrap();
        assert_eq!(report.trials, 8);
        assert_eq!(
            kit.registry.counter_value("cache.equilibrium.misses"),
            Some(1),
            "one distinct game solves once"
        );
        // The first trial to ask takes the one miss; the other seven hit.
        assert_eq!(
            kit.registry.counter_value("cache.equilibrium.hits"),
            Some(7)
        );
        assert_eq!(kit.registry.counter_value("sweep.trials"), Some(8));
        assert_eq!(kit.spans.stats("sweep.trial").unwrap().count, 8);
    }

    #[test]
    fn plan_axis_overrides_spec_faults() {
        let mut spec = small_spec();
        spec.policies = vec![PolicyKind::Greedy];
        spec.seeds = vec![1];
        spec.plans = vec![
            NamedPlan {
                name: "clean".to_string(),
                plan: FaultPlan::none(),
            },
            NamedPlan {
                name: "composite".to_string(),
                plan: FaultPlan::composite(7),
            },
        ];
        let report = sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).unwrap();
        assert_eq!(report.trials, 2);
        assert_eq!(report.records[0].plan, "clean");
        assert_eq!(report.records[1].plan, "composite");
        assert_ne!(
            report.records[0].tasks_per_agent_epoch, report.records[1].tasks_per_agent_epoch,
            "the composite plan must perturb the run"
        );
    }

    fn sabotage_first_attempts(trial: usize, attempt: u32) -> Option<Sabotage> {
        // Trial 1 panics on every attempt; trial 2 panics once and then
        // recovers on retry.
        match (trial, attempt) {
            (1, _) => Some(Sabotage::Panic),
            (2, 0) => Some(Sabotage::Panic),
            _ => None,
        }
    }

    fn sabotage_hang(trial: usize, _attempt: u32) -> Option<Sabotage> {
        (trial == 0).then_some(Sabotage::Hang)
    }

    #[test]
    fn panicking_trials_are_quarantined_not_fatal() {
        let mut spec = small_spec();
        spec.policies = vec![PolicyKind::Greedy];
        let supervision = Supervision {
            sabotage: Some(sabotage_first_attempts),
            ..Supervision::default()
        };
        let report = sweep(&spec, 2, supervision, &mut Telemetry::noop()).unwrap();
        assert_eq!(report.trials, 2, "two of three trials survive");
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!((q.trial, q.attempts), (1, 2), "one retry before quarantine");
        assert!(q.error.contains("panicked"));
        // The recovered-on-retry trial is a normal record.
        assert!(report.records.iter().any(|r| r.trial == 2));
        // Aggregation shrinks the cell instead of failing it.
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].trials, 2);
    }

    #[test]
    fn hanging_trials_hit_the_cooperative_deadline() {
        let mut spec = small_spec();
        spec.policies = vec![PolicyKind::Greedy];
        spec.seeds = vec![1, 2];
        let supervision = Supervision {
            retries: 0,
            sabotage: Some(sabotage_hang),
            ..Supervision::default()
        }
        .with_deadline_ms(40);
        let mut kit = Telemetry::in_memory();
        let report = sweep(&spec, 2, supervision, &mut kit).unwrap();
        assert_eq!(report.trials, 1);
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.trial, 0);
        assert!(
            q.error.contains("40 ms deadline"),
            "deadline error carries the configured limit: {}",
            q.error
        );
        assert_eq!(kit.registry.counter_value("sweep.quarantined"), Some(1));
    }

    #[test]
    fn quarantined_reports_are_identical_across_job_counts() {
        let mut spec = small_spec();
        spec.policies = vec![PolicyKind::Greedy, PolicyKind::EquilibriumThreshold];
        let supervision = Supervision {
            sabotage: Some(sabotage_first_attempts),
            ..Supervision::default()
        };
        let serial = sweep(&spec, 1, supervision.clone(), &mut Telemetry::noop()).unwrap();
        let parallel = sweep(&spec, 4, supervision, &mut Telemetry::noop()).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "quarantine must not break byte-reproducibility"
        );
        assert_eq!(serial.quarantined.len(), 1);
    }

    #[test]
    fn pre_cancelled_sweep_returns_typed_cancelled_error() {
        let token = engine::CancelToken::new();
        token.cancel();
        let supervision = Supervision::default().with_cancel(token);
        let err = sweep(&small_spec(), 2, supervision, &mut Telemetry::noop()).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { .. }), "got {err:?}");
    }

    #[test]
    fn armed_job_deadline_fails_sweep_with_typed_error() {
        let token = engine::CancelToken::new();
        token.arm_deadline_ms(0);
        // An already-expired job deadline: every trial aborts at its first
        // cooperative checkpoint and the sweep surfaces the typed error
        // instead of an all-quarantined report.
        std::thread::sleep(Duration::from_millis(5));
        let supervision = Supervision::default().with_cancel(token);
        let err = sweep(&small_spec(), 2, supervision, &mut Telemetry::noop()).unwrap_err();
        assert!(
            matches!(err, SimError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = sweep(
            &small_spec(),
            2,
            Supervision::default(),
            &mut Telemetry::noop(),
        )
        .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        // Pre-supervision reports (no quarantine field) still parse.
        let legacy = json.replace(",\"quarantined\":[]", "");
        assert_ne!(legacy, json);
        let legacy: SweepReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(legacy, report);
        let spec_json = serde_json::to_string(&SweepSpec::example()).unwrap();
        let spec_back: SweepSpec = serde_json::from_str(&spec_json).unwrap();
        assert_eq!(spec_back, SweepSpec::example());
        assert_eq!(SweepSpec::example().trial_count(), 64);
    }

    #[test]
    fn pre_adversary_json_parses_as_honest() {
        let clean = sweep(
            &small_spec(),
            1,
            Supervision::default(),
            &mut Telemetry::noop(),
        )
        .unwrap();
        let supervision = Supervision {
            sabotage: Some(sabotage_first_attempts),
            ..Supervision::default()
        };
        let with_quarantine = sweep(&small_spec(), 1, supervision, &mut Telemetry::noop()).unwrap();
        assert_eq!(with_quarantine.quarantined.len(), 1);
        for report in [clean, with_quarantine] {
            let json = serde_json::to_string(&report).unwrap();
            // Strip the adversary labels everywhere (records, cells and
            // quarantined trials), as reports serialized before the axis
            // existed would lack them.
            let legacy = json.replace("\"adversaries\":\"honest\",", "");
            assert_ne!(legacy, json);
            let back: SweepReport = serde_json::from_str(&legacy).unwrap();
            assert_eq!(back, report);
        }
        // Same for specs missing the axis entirely.
        let spec_json = serde_json::to_string(&small_spec()).unwrap();
        let legacy_spec = spec_json.replace("\"adversaries\":[],", "");
        assert_ne!(legacy_spec, spec_json);
        let back: SweepSpec = serde_json::from_str(&legacy_spec).unwrap();
        assert_eq!(back, small_spec());
    }

    #[test]
    fn adversary_axis_expands_labels_and_degrades_honest_cells() {
        let mut spec = small_spec();
        spec.policies = vec![PolicyKind::EquilibriumThreshold];
        spec.adversaries = vec![
            NamedAdversaries::honest(),
            NamedAdversaries {
                name: "greedy@0.2".to_string(),
                mix: AdversaryMix::greedy(0.2, 7),
            },
        ];
        assert_eq!(spec.trial_count(), 6);
        let report = sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).unwrap();
        assert_eq!(report.trials, 6);
        let labels: Vec<&str> = report
            .records
            .iter()
            .map(|r| r.adversaries.as_str())
            .collect();
        assert_eq!(
            labels,
            [
                "honest",
                "honest",
                "honest",
                "greedy@0.2",
                "greedy@0.2",
                "greedy@0.2"
            ],
            "adversary axis sits between plans and policies"
        );
        assert_eq!(report.cells.len(), 2);
        let honest = &report.cells[0];
        let attacked = &report.cells[1];
        assert_eq!(honest.adversaries, "honest");
        assert_eq!(attacked.adversaries, "greedy@0.2");
        assert!(
            attacked.trips > honest.trips,
            "unchecked defectors must trip the breaker more: {} vs {}",
            attacked.trips,
            honest.trips
        );
    }

    #[test]
    fn adversary_trials_are_identical_across_job_counts() {
        let mut spec = small_spec();
        spec.adversaries = vec![NamedAdversaries {
            name: "cheat".to_string(),
            mix: AdversaryMix {
                kind: crate::policies::AdversaryKind::StochasticCheater {
                    cheat_probability: 0.3,
                },
                fraction: 0.15,
                seed: 9,
                ceasefire_epoch: None,
            },
        }];
        let serial = sweep(&spec, 1, Supervision::default(), &mut Telemetry::noop()).unwrap();
        let parallel = sweep(&spec, 4, Supervision::default(), &mut Telemetry::noop()).unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }
}

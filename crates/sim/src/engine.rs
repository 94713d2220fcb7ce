//! The epoch-driven rack simulation engine.
//!
//! Models the full system dynamics of §3 on concrete agents:
//!
//! - Active agents consult the policy; sprinters earn their epoch utility
//!   and enter chip cooling (geometric duration, persistence `p_c`).
//! - The breaker trips with the Equation-11 probability evaluated at the
//!   *realized* sprinter count; a trip sends the whole rack into recovery
//!   (geometric duration, persistence `p_r`). Sprints in progress complete
//!   on UPS power, so the tripping epoch's sprint utility still counts
//!   (§2.2).
//! - Recovery epochs produce no tasks by default — the paper's "idle
//!   recovery harms performance" (§6.1). [`RecoverySemantics::NormalMode`]
//!   is the ablation in which servers compute in normal mode during
//!   recharge.
//! - Wake-up after recovery is staggered over a configurable number of
//!   epochs to avoid dI/dt problems (§2.2): woken agents compute normally
//!   but may not sprint until their slot arrives.
//! - An optional [`FaultPlan`] injects crash churn, stuck sprinters,
//!   sensor noise, and breaker drift ([`crate::faults`]). Fault
//!   randomness lives on dedicated streams, so an empty plan reproduces
//!   fault-free runs bit for bit, and the engine never panics under any
//!   plan — degradation is measured, not crashed on.
//!
//! # The hot path
//!
//! The per-epoch loop is a struct-of-arrays kernel over a `Lanes` scratch
//! block allocated once per run: after setup the epoch loop performs
//! **zero heap allocation**. All per-agent randomness comes from
//! counter-based streams ([`sprint_stats::rng::CounterRng`]) — every draw
//! is a pure function of `(purpose, agent, epoch, slot)` — so agents are
//! processed in fixed-size chunks whose partial sums are reduced in chunk
//! order, and the result is bit-identical whether the chunks run on one
//! thread or fan out over `jobs` scoped workers ([`run_guarded`]).
//!
//! Every path through an epoch runs the same passes over a chunk: phase
//! advance (A), crash churn, decide (B) and settle (C), and pass C holds
//! every transition of the A/C/R chain. Policies that expose a
//! [`StaticDecider`] snapshot (Greedy and the threshold policies) run
//! them all in one fused pass. Stateful policies, and runs whose
//! telemetry wants per-agent decisions, decide in a serial loop between
//! an Advance pass and a Settle pass, and produce the same bytes at
//! every job count.

use sprint_game::trip::TripCurve;
use sprint_game::{AgentState, GameConfig};
use sprint_power::pcm::CurrentSensor;
use sprint_stats::density::AliasSampler;
use sprint_stats::rng::{CounterLane, CounterRng, GapTable};
use sprint_telemetry::{
    CounterId, Event, EventKind, FaultKind, HistogramId, Registry, SeriesId, Telemetry,
};
use sprint_workloads::generator::Arrivals;
use sprint_workloads::phases::PhasedUtility;

use crate::faults::{FaultMetrics, FaultPlan};
use crate::metrics::{SimResult, StateOccupancy};
use crate::policy::{SprintPolicy, StaticDecider};
use crate::SimError;

#[cfg(test)]
use sprint_stats::rng::geometric_gap;

/// What servers produce while the rack recovers.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum RecoverySemantics {
    /// Paper semantics: recovery is idle, producing nothing.
    #[default]
    Idle,
    /// Ablation: servers compute in normal mode during recharge.
    NormalMode,
}

/// What happens to a sprint when the breaker trips mid-epoch.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize, Default)]
pub enum TripInterruption {
    /// Paper semantics (§2.2): "the rack augments power delivery with
    /// batteries to complete sprints in progress" — tripped-epoch sprints
    /// earn their full utility.
    #[default]
    CompleteOnUps,
    /// Ablation: the breaker's I²t element trips partway through the
    /// epoch (heavier overloads trip sooner), truncating every agent's
    /// work to the pre-trip fraction of the epoch.
    Truncated,
}

/// How agents estimate an epoch's sprint utility before deciding
/// (paper §4.4, "Online Strategy": brief profiling or heuristics).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize, Default)]
pub enum UtilityEstimation {
    /// Perfect estimates: decisions see the epoch's true utility.
    #[default]
    Oracle,
    /// Noisy estimates: decisions see the true utility times a
    /// log-normal-ish multiplicative error with the given relative
    /// standard deviation. Realized throughput still uses true utility.
    Noisy {
        /// Relative standard deviation of the estimation error.
        relative_sd: f64,
    },
}

/// Everything about a run that is not the game, horizon, or seed: the
/// ablation knobs and the fault plan, bundled so [`SimConfig`],
/// [`crate::scenario::Scenario`], and sweep specs carry one options value
/// instead of re-plumbing five setters.
///
/// On the wire an absent field takes [`RunOptions::default`]'s value, so
/// specs written before a field existed keep parsing as they did.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct RunOptions {
    /// What servers produce while the rack recovers.
    pub recovery: RecoverySemantics,
    /// What happens to sprints when the breaker trips mid-epoch.
    pub interruption: TripInterruption,
    /// How agents estimate utility before deciding.
    pub estimation: UtilityEstimation,
    /// The fault-injection plan ([`FaultPlan::none`] for clean runs).
    pub faults: FaultPlan,
    /// Post-recovery wake-up stagger window (paper: two epochs).
    pub stagger_epochs: u32,
    /// Agents per kernel chunk (default [`DEFAULT_CHUNK`]). Part of the
    /// spec, not a runtime knob: the chunk grouping fixes the float
    /// accumulation order of the chunk-ordered reduction, so two runs
    /// agree bitwise iff they agree on the chunk size — and at a fixed
    /// chunk size the result never depends on `jobs`.
    #[serde(skip_serializing_if = "is_default_chunk")]
    pub chunk_agents: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            recovery: RecoverySemantics::Idle,
            interruption: TripInterruption::CompleteOnUps,
            estimation: UtilityEstimation::Oracle,
            faults: FaultPlan::none(),
            stagger_epochs: 2,
            chunk_agents: DEFAULT_CHUNK,
        }
    }
}

/// The wire predicate for [`RunOptions::chunk_agents`]: the default
/// chunk is left off, so every spec and report written before the field
/// existed keeps its exact bytes, which the report byte-identity gates
/// pin.
fn is_default_chunk(chunk_agents: &usize) -> bool {
    *chunk_agents == DEFAULT_CHUNK
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    game: GameConfig,
    epochs: usize,
    seed: u64,
    options: RunOptions,
}

impl SimConfig {
    /// Create a configuration for `epochs` epochs of `game` with a master
    /// seed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `epochs` is 0 or above
    /// `u32::MAX`.
    pub fn new(game: GameConfig, epochs: usize, seed: u64) -> crate::Result<Self> {
        if epochs == 0 {
            return Err(SimError::InvalidParameter {
                name: "epochs",
                value: 0.0,
                expected: "at least one epoch",
            });
        }
        if epochs as u64 > u64::from(MAX_EPOCHS) {
            return Err(SimError::InvalidParameter {
                name: "epochs",
                value: epochs as f64,
                expected: "at most 4294967295 epochs (u32::MAX)",
            });
        }
        Ok(SimConfig {
            game,
            epochs,
            seed,
            options: RunOptions::default(),
        })
    }

    /// Replace the whole options bundle at once (sweep specs carry one
    /// [`RunOptions`] instead of chaining the five setters below).
    #[must_use]
    pub fn with_options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// The run options.
    #[must_use]
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// Override the recovery semantics (ablation).
    #[must_use]
    pub fn with_recovery(mut self, semantics: RecoverySemantics) -> Self {
        self.options.recovery = semantics;
        self
    }

    /// Override the post-recovery stagger window (paper: two epochs).
    #[must_use]
    pub fn with_stagger(mut self, epochs: u32) -> Self {
        self.options.stagger_epochs = epochs;
        self
    }

    /// Override the trip-interruption semantics (ablation).
    #[must_use]
    pub fn with_interruption(mut self, interruption: TripInterruption) -> Self {
        self.options.interruption = interruption;
        self
    }

    /// Override the utility-estimation model (ablation).
    #[must_use]
    pub fn with_estimation(mut self, estimation: UtilityEstimation) -> Self {
        self.options.estimation = estimation;
        self
    }

    /// Attach a fault-injection plan (robustness experiments).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.options.faults = faults;
        self
    }

    /// Override the kernel chunk size (tiling experiments). Changing it
    /// changes the float-accumulation grouping and therefore the result
    /// bytes — it is part of the spec, not a runtime knob.
    #[must_use]
    pub fn with_chunk_agents(mut self, chunk_agents: usize) -> Self {
        self.options.chunk_agents = chunk_agents;
        self
    }

    /// The fault-injection plan.
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.options.faults
    }

    /// The game parameters.
    #[must_use]
    pub fn game(&self) -> &GameConfig {
        &self.game
    }

    /// Simulated epochs.
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.epochs
    }
}

/// A wall-clock budget for one run: the moment to give up, plus the
/// configured limit so [`SimError::DeadlineExceeded`] can report the
/// number the caller actually asked for.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: std::time::Instant,
    limit_ms: u64,
}

impl Deadline {
    /// A deadline `limit_ms` milliseconds from now.
    #[must_use]
    pub fn within_ms(limit_ms: u64) -> Self {
        Deadline {
            at: std::time::Instant::now() + std::time::Duration::from_millis(limit_ms),
            limit_ms,
        }
    }

    /// A deadline at an explicit instant, reported as `limit_ms`.
    #[must_use]
    pub fn new(at: std::time::Instant, limit_ms: u64) -> Self {
        Deadline { at, limit_ms }
    }

    /// The configured limit in milliseconds.
    #[must_use]
    pub fn limit_ms(&self) -> u64 {
        self.limit_ms
    }

    /// The same limit, `by` later.
    pub(crate) fn postponed(self, by: std::time::Duration) -> Self {
        Deadline {
            at: self.at.checked_add(by).unwrap_or(self.at),
            ..self
        }
    }

    fn expired(&self) -> bool {
        std::time::Instant::now() >= self.at
    }
}

/// Why a [`CancelToken`] stopped a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The armed job deadline passed.
    DeadlineExceeded {
        /// The configured limit, in milliseconds.
        limit_ms: u64,
    },
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: std::sync::atomic::AtomicBool,
    deadline: std::sync::OnceLock<Deadline>,
}

/// A shared, cooperative stop request: a cancel flag plus an optional
/// armed wall-clock deadline, checked at the engine's epoch checkpoints
/// (every 64 epochs, like [`Deadline`] — the hot loop pays one relaxed
/// load per checkpoint, nothing per epoch).
///
/// Clones share state: a daemon hands one clone to the executing run
/// and keeps another to serve `POST /v1/jobs/{id}/cancel`. The token
/// never feeds wall-clock data into the dynamics — like the deadline,
/// it only decides *whether* a result exists, so a run that completes
/// is bit-identical to an uncancellable one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: std::sync::Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh, unarmed, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; takes effect at the next
    /// cooperative checkpoint of whatever run holds a clone.
    pub fn cancel(&self) {
        self.inner
            .cancelled
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .cancelled
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Arm a job-level deadline `limit_ms` milliseconds from now. First
    /// arm wins; later calls are ignored (a token guards one job).
    pub fn arm_deadline_ms(&self, limit_ms: u64) {
        let _ = self.inner.deadline.set(Deadline::within_ms(limit_ms));
    }

    /// What has fired, if anything. Cancellation wins over the deadline
    /// so an operator's explicit cancel is never reported as a timeout.
    #[must_use]
    pub fn fired(&self) -> Option<Interrupt> {
        if self.is_cancelled() {
            return Some(Interrupt::Cancelled);
        }
        match self.inner.deadline.get() {
            Some(d) if d.expired() => Some(Interrupt::DeadlineExceeded {
                limit_ms: d.limit_ms(),
            }),
            _ => None,
        }
    }

    /// Checkpoint: `Err` with the matching [`SimError`] once the token
    /// has fired, `Ok(())` otherwise.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] after [`CancelToken::cancel`];
    /// [`SimError::DeadlineExceeded`] once the armed deadline passes.
    pub fn check(&self, what: &'static str) -> crate::Result<()> {
        match self.fired() {
            None => Ok(()),
            Some(Interrupt::Cancelled) => Err(SimError::Cancelled { what }),
            Some(Interrupt::DeadlineExceeded { limit_ms }) => {
                Err(SimError::DeadlineExceeded { what, limit_ms })
            }
        }
    }
}

/// Everything that can stop a supervised run early: the per-attempt
/// deadline sweeps already used, plus a shared [`CancelToken`] carrying
/// operator cancellation and the job-level deadline.
#[derive(Debug, Clone, Default)]
pub struct RunGuard {
    /// Per-attempt wall-clock deadline (sweep trial supervision).
    pub deadline: Option<Deadline>,
    /// Shared cancellation / job-deadline token.
    pub cancel: Option<CancelToken>,
}

impl RunGuard {
    /// The checkpoint a run takes every 64 epochs: `Err` once the
    /// deadline has passed or the token has fired.
    fn checkpoint(&self) -> crate::Result<()> {
        const WHAT: &str = "simulation run";
        if let Some(d) = self.deadline {
            if d.expired() {
                return Err(SimError::DeadlineExceeded {
                    what: WHAT,
                    limit_ms: d.limit_ms(),
                });
            }
        }
        match &self.cancel {
            Some(token) => token.check(WHAT),
            None => Ok(()),
        }
    }
}

/// Fraction of the epoch elapsed before the breaker's thermal element
/// trips, from the center of the UL489 I²t band. Mild overloads (near
/// `N_min`) trip late; heavy overloads (beyond `N_max`) trip early.
fn pre_trip_fraction(game: &GameConfig, n_sprinters: f64) -> f64 {
    // Geometric mean of the band's I²t constants (see `sprint_power`):
    // k_fast = 84.375, k_slow = 309.375.
    const K_CENTER: f64 = 161.56;
    const EPOCH_REFERENCE_S: f64 = 150.0;
    let severity = (n_sprinters - game.n_min()) / (game.n_max() - game.n_min());
    if severity <= 0.0 {
        return 1.0;
    }
    // Current multiple interpolated through the band edges 1.25x/1.75x.
    let multiple = 1.25 + 0.5 * severity;
    let trip_s = K_CENTER / (multiple * multiple - 1.0);
    (trip_s / EPOCH_REFERENCE_S).clamp(0.05, 1.0)
}

/// Registry handles for the engine's per-epoch metric updates, registered
/// once before the hot loop so each update is a dense-vector index.
struct EngineIds {
    epochs: CounterId,
    trips: CounterId,
    sprinter_series: SeriesId,
    task_series: SeriesId,
    trip_series: SeriesId,
    sprinter_hist: HistogramId,
    faults: [CounterId; 10],
}

impl EngineIds {
    fn register(reg: &mut Registry, n_agents: f64) -> Self {
        let fault_ids = FaultKind::ALL.map(|kind| reg.counter(&format!("faults.{}", kind.name())));
        // Sprinter-load buckets as fractions of the rack.
        let bounds: Vec<f64> = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|f| f * n_agents)
            .collect();
        EngineIds {
            epochs: reg.counter("engine.epochs"),
            trips: reg.counter("engine.trips"),
            sprinter_series: reg.series("engine.sprinters"),
            task_series: reg.series("engine.tasks"),
            trip_series: reg.series("engine.tripped"),
            sprinter_hist: reg.histogram("engine.sprinter_load", &bounds),
            faults: fault_ids,
        }
    }

    fn fault(&self, kind: FaultKind) -> CounterId {
        self.faults[kind as usize]
    }
}

/// Default agents per kernel chunk ([`RunOptions::chunk_agents`]). The
/// chunk size is fixed per run — never derived from the job count — so
/// per-chunk float accumulation and the chunk-ordered reduction are
/// identical at every `jobs` value.
pub const DEFAULT_CHUNK: usize = 1024;

/// The longest horizon [`SimConfig::new`] accepts. The engine keeps its
/// per-agent epoch marks (next phase change, sprint block, cooling exit)
/// in `u32` lanes and saturates every store at `u32::MAX`; since no
/// epoch index of an accepted run reaches that value, a saturated mark
/// behaves exactly like the unsaturated one: it never fires.
const MAX_EPOCHS: u32 = u32::MAX;

/// Agents per event-buffer block. The kernel passes first collect the
/// indices of one block's event agents (phase changes, sprinters) into a
/// stack buffer of this many entries, then process them in a dense loop;
/// a chunk wider than a block runs block by block.
const EVENT_BLOCK: usize = 1024;

/// The rack-level "agent" coordinate for draws that are not per-agent
/// (breaker trip, sensor noise, recovery exit). Real agent indices are
/// always far below this sentinel.
const RACK: u64 = u64::MAX;

/// Counter-based draw streams, one per purpose. Every draw is a pure
/// function of `(purpose, agent, epoch, slot)`, so speculative draws are
/// free (nothing is consumed) and evaluation order never matters.
#[derive(Clone, Copy)]
struct Draws {
    /// Estimation noise (main stream, slots 0–1 per agent-epoch).
    estimate: CounterRng,
    /// Breaker trip draw (main stream, rack-level).
    trip: CounterRng,
    /// Chip cooling exit (main stream, per agent).
    cooling: CounterRng,
    /// Rack recovery exit (rack-level, slot 0) and wake-up stagger slots
    /// (per agent, slot 1).
    recovery: CounterRng,
    /// Crash/restart churn (fault stream; one draw per agent-epoch — an
    /// agent is either down, drawing for restart, or up, drawing for
    /// crash).
    crash: CounterRng,
    /// Stuck-gate stick/release (fault stream; mutually exclusive per
    /// agent-epoch).
    stick: CounterRng,
    /// Sensor noise and dropout (fault stream, rack-level, slots 0–2).
    sensor: CounterRng,
}

impl Draws {
    fn new(config: &SimConfig) -> Self {
        let main = config.seed ^ 0x51B_EAC0;
        // Fault randomness is keyed on the plan's own seed too: an empty
        // plan makes no fault draws, and two plans rooted at different
        // fault seeds see independent fault streams over the same
        // main-stream dynamics.
        let fault = config.seed ^ config.options.faults.seed.rotate_left(17) ^ 0xFA_17;
        Draws {
            estimate: CounterRng::new(main, 1),
            trip: CounterRng::new(main, 2),
            cooling: CounterRng::new(main, 3),
            recovery: CounterRng::new(main, 4),
            crash: CounterRng::new(fault, 5),
            stick: CounterRng::new(fault, 6),
            sensor: CounterRng::new(fault, 7),
        }
    }
}

/// The phase process of a population's arrivals, read in flat lanes by
/// the epoch loop: emit the current value, then resample from the
/// discretized stationary density with probability `1 / persistence` —
/// one counter draw per agent-epoch plus an O(1) alias-table lookup on
/// resample, instead of walking a sequential per-agent generator through
/// a boxed distribution. The per-agent lanes are borrowed from the
/// arrivals; only the per-cohort samplers are built.
struct PhaseKernel<'a> {
    /// Counter stream per agent, rooted at its own seed
    /// ([`sprint_workloads::phases::phase_key`]), so a population's
    /// utility sequences depend only on how it was built.
    keys: &'a [CounterLane],
    /// Index into `cohorts` per agent (a population has a handful of
    /// cohorts, so this lane is small integers and `cohorts` stays
    /// cache-hot). Empty when there is one cohort: every agent's is 0.
    cohort_of: &'a [u32],
    /// What the agents of one cohort share, once per listed cohort.
    cohorts: Vec<CohortKernel>,
}

/// The phase constants of one cohort: its density and its persistence
/// are properties of the cohort, not of an agent.
struct CohortKernel {
    /// O(1) alias sampler over the cohort's density.
    sampler: AliasSampler,
    /// Geometric phase lengths by inversion of one counter word, at scale
    /// `1 / ln(1 - p_resample)` (`-0.0` when `p_resample >= 1`, which
    /// correctly yields length-1 phases).
    gaps: GapTable,
}

impl<'a> PhaseKernel<'a> {
    /// One sampler per cohort `arrivals` lists; cohorts of one
    /// persistence share one gap table, built once.
    fn new(arrivals: &'a Arrivals) -> Self {
        use std::collections::hash_map::{Entry, HashMap};
        let mut tables: HashMap<u64, usize> = HashMap::new();
        let mut cohorts: Vec<CohortKernel> = Vec::with_capacity(arrivals.cohorts().len());
        for cohort in arrivals.cohorts() {
            let p = cohort.resample_probability();
            let gaps = match tables.entry(p.to_bits()) {
                Entry::Occupied(e) => cohorts[*e.get()].gaps.clone(),
                Entry::Vacant(e) => {
                    e.insert(cohorts.len());
                    GapTable::new(1.0 / (1.0 - p).ln())
                }
            };
            cohorts.push(CohortKernel {
                sampler: AliasSampler::new(cohort.sample_table()),
                gaps,
            });
        }
        PhaseKernel {
            keys: arrivals.keys(),
            cohort_of: arrivals.cohort_of(),
            cohorts,
        }
    }

    /// Agent `a`'s cohort.
    #[inline]
    fn cohort(&self, a: usize) -> &CohortKernel {
        if self.cohort_of.is_empty() {
            &self.cohorts[0]
        } else {
            &self.cohorts[self.cohort_of[a] as usize]
        }
    }

    /// Agent `a`'s resampled phase from one counter word: its high half
    /// picks the alias-table bin, its low half the position in the bin.
    #[inline]
    fn sample(&self, a: usize, w: u64) -> f64 {
        let scale = 1.0 / 4_294_967_296.0;
        let u_bin = (w >> 32) as f64 * scale;
        let u_pos = f64::from(w as u32) * scale;
        self.cohort(a).sampler.sample(u_bin, u_pos)
    }

    /// A geometric phase length on `{1, 2, ...}` with mean `persistence`,
    /// by inversion of the uniform of counter word `w`.
    #[inline]
    fn next_gap(&self, a: usize, w: u64) -> u64 {
        self.cohort(a).gaps.gap(w)
    }

    /// The phase length [`geometric_gap`] gives agent `a` at uniform `u`:
    /// the logarithm that [`PhaseKernel::next_gap`] must equal.
    #[cfg(test)]
    fn gap(&self, a: usize, u: f64) -> u64 {
        geometric_gap(u, self.cohort(a).gaps.scale())
    }
}

/// The epoch `gap` epochs after `epoch`, saturated at `u32::MAX` for an
/// epoch lane. [`SimConfig::new`] keeps every epoch index of a run below
/// `u32::MAX`, so a saturated mark compares exactly like the exact one.
#[inline]
fn epoch_after(epoch: u32, gap: u64) -> u32 {
    u64::from(epoch)
        .saturating_add(gap)
        .min(u64::from(MAX_EPOCHS)) as u32
}

/// Reserved epoch coordinate for setup-time phase draws; run epochs are
/// array indices and can never reach it.
const PHASE_SETUP_EPOCH: u64 = u64::MAX;

/// The phase process's set-up: every agent's first resample epoch comes
/// from a draw at the reserved setup coordinate. (Its phase is the one
/// it arrived in.)
fn first_changes(kernel: &PhaseKernel<'_>, next_change: &mut [u32]) {
    for (i, (next, key)) in next_change.iter_mut().zip(kernel.keys).enumerate() {
        *next = epoch_after(0, kernel.next_gap(i, key.word(PHASE_SETUP_EPOCH, 0)));
    }
}

/// Memory cap on one [`PhaseTrack`], in bytes. A pair whose recording
/// would pass it runs pass A live.
const TRACK_CAP_BYTES: usize = 16 << 20;

/// Bytes per recorded phase event: the agent index and its new value.
const TRACK_EVENT_BYTES: usize = 12;

/// The phase recording's type: public in a private module, so that a
/// public trial entry point can take one while code outside the crate
/// can only pass `None`.
mod track {
    /// One population's phase trajectory, recorded once and replayed by
    /// every run on the same arrivals.
    ///
    /// Pass A reads only the epoch, `next_change` and each agent's key and
    /// cohort, and nothing else writes `phase` or `next_change`: the phase
    /// lane at every epoch is a function of the arrivals and the epoch alone,
    /// whatever the policy, game, fault plan or trip history. So the
    /// recording is the kernel's own pass A run once over a phase and a
    /// `next_change` lane, keeping every resample. A replaying run scatters
    /// each epoch's recorded values into its phase lane instead of sampling.
    #[derive(Debug, Default)]
    pub struct PhaseTrack {
        /// Agents and epochs recorded; `None` when nothing is.
        pub(super) shape: Option<(usize, usize)>,
        /// Epoch `e`'s events are `starts[e]..starts[e + 1]`.
        pub(super) starts: Vec<u32>,
        /// The resampled agent of each event, ascending within an epoch.
        pub(super) agents: Vec<u32>,
        /// The agent's new phase value.
        pub(super) values: Vec<f64>,
    }
}

pub(crate) use track::PhaseTrack;

impl PhaseTrack {
    /// Record `arrivals`' phase trajectory over `epochs` epochs, replacing
    /// whatever was recorded before but keeping the buffers. Returns
    /// `Ok(false)`, with nothing recorded, when the recording would pass
    /// [`TRACK_CAP_BYTES`]: the expected size (the sum of resample
    /// probabilities times the horizon) is checked before recording, the
    /// actual size after every epoch.
    ///
    /// # Errors
    ///
    /// The guard's error, at the run's own checkpoint every 64 epochs. A
    /// stopped recording keeps nothing.
    pub(crate) fn record(
        &mut self,
        arrivals: &Arrivals,
        epochs: usize,
        guard: &RunGuard,
    ) -> crate::Result<bool> {
        self.clear();
        let Some(max_events) = epochs
            .checked_add(1)
            .and_then(|e| e.checked_mul(4))
            .and_then(|b| TRACK_CAP_BYTES.checked_sub(b))
            .map(|b| b / TRACK_EVENT_BYTES)
        else {
            return Ok(false);
        };
        let expected = (0..arrivals.len())
            .map(|a| arrivals.cohort(a).resample_probability())
            .sum::<f64>()
            * epochs as f64;
        // Resamples are independent across agents, so their count
        // strays from its mean by a few square roots at most.
        let reserve = (expected + 4.0 * expected.sqrt() + 64.0).ceil();
        if reserve > max_events as f64 {
            return Ok(false);
        }
        let reserved = self.starts.try_reserve_exact(epochs + 1).is_ok()
            && self.agents.try_reserve_exact(reserve as usize).is_ok()
            && self.values.try_reserve_exact(reserve as usize).is_ok();
        if !reserved {
            return Ok(false);
        }
        let n = arrivals.len();
        let kernel = PhaseKernel::new(arrivals);
        let mut phase = arrivals.phases().to_vec();
        let mut next_change = vec![0u32; n];
        first_changes(&kernel, &mut next_change);
        let mut events = [0u32; EVENT_BLOCK];
        self.starts.push(0);
        for epoch in 0..epochs {
            if epoch & 63 == 0 {
                if let Err(e) = guard.checkpoint() {
                    self.clear();
                    return Err(e);
                }
            }
            let (agents, values) = (&mut self.agents, &mut self.values);
            advance_phases(
                &kernel,
                epoch as u32,
                0,
                &mut phase,
                &mut next_change,
                0,
                n,
                &mut events,
                |i, value| {
                    agents.push(i as u32);
                    values.push(value);
                },
            );
            if self.agents.len() > max_events {
                self.clear();
                return Ok(false);
            }
            self.starts.push(self.agents.len() as u32);
        }
        self.shape = Some((n, epochs));
        Ok(true)
    }

    /// Drop the recording, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.shape = None;
        self.starts.clear();
        self.agents.clear();
        self.values.clear();
    }

    /// Whether this recording serves a run of `agents` agents over
    /// `epochs` epochs: it has those agents and at least those epochs.
    pub(crate) fn covers(&self, agents: usize, epochs: usize) -> bool {
        self.shape.is_some_and(|(n, e)| n == agents && e >= epochs)
    }

    /// Pass A from the recording: write epoch `epoch`'s recorded values
    /// for lanes `lo..hi` into `phase` (lane `i` is agent `base + i`).
    /// The epoch's events are sorted by agent, so one binary search
    /// finds the lanes' first event.
    #[inline]
    fn replay(&self, epoch: u32, base: usize, phase: &mut [f64], lo: usize, hi: usize) {
        let e = epoch as usize;
        let (from, to) = (self.starts[e] as usize, self.starts[e + 1] as usize);
        let agents = &self.agents[from..to];
        let first = agents.partition_point(|&a| (a as usize) < base + lo);
        for (&a, &value) in agents[first..].iter().zip(&self.values[from + first..to]) {
            let i = a as usize - base;
            if i >= hi {
                break;
            }
            phase[i] = value;
        }
    }
}

/// Where pass A's phases come from.
#[derive(Clone, Copy)]
enum PhasePass<'a> {
    /// Sample the phase process.
    Live(&'a PhaseKernel<'a>),
    /// Replay a recording that covers the run.
    Replay(&'a PhaseTrack),
}

/// The struct-of-arrays per-agent scratch, allocated once per run. The
/// epoch loop reads and writes these flat lanes and allocates nothing.
struct Lanes {
    /// Current phase value per agent — the utility each epoch emits.
    phase: Vec<f64>,
    /// Epoch at which each agent's phase resamples next. The three epoch
    /// lanes are `u32`, saturated by [`epoch_after`].
    next_change: Vec<u32>,
    states: Vec<AgentState>,
    /// Epoch index before which a freshly woken agent may not sprint.
    blocked_until: Vec<u32>,
    /// First epoch at which a cooling agent may return to Active, drawn
    /// once when the sprint begins (geometric inversion — same law as a
    /// per-epoch exit draw, but parked agents cost one compare).
    cool_until: Vec<u32>,
    /// Fault overlay: agents currently down.
    crashed: Vec<bool>,
    /// Fault overlay: power gates stuck in the sprint position.
    stuck: Vec<bool>,
    /// Which agents sprinted this epoch.
    sprinted: Vec<bool>,
    /// Churn outcome this epoch: 0 none, 1 crash, 2 restart. Written by
    /// the kernel, drained on the main thread for event emission.
    churn_flag: Vec<u8>,
    /// Gate stuck this epoch (speculative until the trip resolves).
    stick_flag: Vec<bool>,
}

impl Lanes {
    /// The lanes of `n` agents. Set-up writes the phase, next-change and
    /// state lanes in full, so they are reserved fallibly: a population
    /// too large for memory is a typed error naming its agent count, not
    /// an abort. The rest are zeroed lazily, so a lane a run never
    /// writes (the fault overlays of a fault-free run) never becomes
    /// resident.
    fn new(n: usize) -> crate::Result<Self> {
        fn filled<T: Clone>(n: usize, value: T) -> crate::Result<Vec<T>> {
            let mut lane = Vec::new();
            lane.try_reserve_exact(n)
                .map_err(|_| SimError::InvalidParameter {
                    name: "agents",
                    value: n as f64,
                    expected: "a population whose per-agent lanes fit in memory",
                })?;
            lane.resize(n, value);
            Ok(lane)
        }
        Ok(Lanes {
            phase: filled(n, 0.0)?,
            next_change: filled(n, 0)?,
            states: filled(n, AgentState::Active)?,
            blocked_until: vec![0; n],
            cool_until: vec![0; n],
            crashed: vec![false; n],
            stuck: vec![false; n],
            sprinted: vec![false; n],
            churn_flag: vec![0; n],
            stick_flag: vec![false; n],
        })
    }

    fn view(&mut self) -> LaneView<'_> {
        LaneView {
            phase: &mut self.phase,
            next_change: &mut self.next_change,
            states: &mut self.states,
            blocked_until: &mut self.blocked_until,
            cool_until: &mut self.cool_until,
            crashed: &mut self.crashed,
            stuck: &mut self.stuck,
            sprinted: &mut self.sprinted,
            churn_flag: &mut self.churn_flag,
            stick_flag: &mut self.stick_flag,
        }
    }
}

/// A mutable window over every lane for one contiguous span of agents.
/// Splitting a view splits every lane at the same agent index, which is
/// how disjoint spans fan out to workers.
struct LaneView<'a> {
    phase: &'a mut [f64],
    next_change: &'a mut [u32],
    states: &'a mut [AgentState],
    blocked_until: &'a mut [u32],
    cool_until: &'a mut [u32],
    crashed: &'a mut [bool],
    stuck: &'a mut [bool],
    sprinted: &'a mut [bool],
    churn_flag: &'a mut [u8],
    stick_flag: &'a mut [bool],
}

impl<'a> LaneView<'a> {
    fn len(&self) -> usize {
        self.phase.len()
    }

    fn split_at_mut(self, mid: usize) -> (LaneView<'a>, LaneView<'a>) {
        let (phase_a, phase_b) = self.phase.split_at_mut(mid);
        let (next_a, next_b) = self.next_change.split_at_mut(mid);
        let (states_a, states_b) = self.states.split_at_mut(mid);
        let (blocked_a, blocked_b) = self.blocked_until.split_at_mut(mid);
        let (cool_a, cool_b) = self.cool_until.split_at_mut(mid);
        let (crashed_a, crashed_b) = self.crashed.split_at_mut(mid);
        let (stuck_a, stuck_b) = self.stuck.split_at_mut(mid);
        let (sprinted_a, sprinted_b) = self.sprinted.split_at_mut(mid);
        let (churn_a, churn_b) = self.churn_flag.split_at_mut(mid);
        let (stick_a, stick_b) = self.stick_flag.split_at_mut(mid);
        (
            LaneView {
                phase: phase_a,
                next_change: next_a,
                states: states_a,
                blocked_until: blocked_a,
                cool_until: cool_a,
                crashed: crashed_a,
                stuck: stuck_a,
                sprinted: sprinted_a,
                churn_flag: churn_a,
                stick_flag: stick_a,
            },
            LaneView {
                phase: phase_b,
                next_change: next_b,
                states: states_b,
                blocked_until: blocked_b,
                cool_until: cool_b,
                crashed: crashed_b,
                stuck: stuck_b,
                sprinted: sprinted_b,
                churn_flag: churn_b,
                stick_flag: stick_b,
            },
        )
    }
}

/// Per-chunk partial sums, reduced on the main thread in chunk order so
/// the totals — including the float task sum — are independent of which
/// worker ran which chunk.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkStats {
    crashes: u32,
    restarts: u32,
    n_crashed: u32,
    n_sprinters: u32,
    n_stuck: u32,
    decisions: u32,
    sticks: u32,
    occ_sprinting: u32,
    occ_cooling: u32,
    occ_idle: u32,
    /// Unscaled epoch tasks (sprint utility for sprinters, 1.0 for other
    /// powered agents); the trip scale is applied during reduction.
    tasks: f64,
}

/// What a kernel pass does per agent. Every mode runs the same pass
/// functions ([`run_chunk`]), so each transition rule exists once.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KernelMode {
    /// Pass A and the churn pass only: recovery epochs, and the first
    /// pass of an epoch whose decisions are made serially.
    Advance = 0,
    /// Every pass: A, churn, decide through the [`StaticDecider`] (B)
    /// and settle (C), with speculative as-if-untripped transitions.
    Fused = 1,
    /// Pass C alone, once the serial decide loop has filled `sprinted`
    /// and the breaker has been drawn. It keeps the churn partials of
    /// the epoch's Advance pass.
    Settle = 2,
}

/// Everything a kernel pass reads, shared immutably across workers.
struct EpochCtx<'a> {
    /// The epoch index (below `u32::MAX` by [`SimConfig::new`]'s bound).
    epoch: u32,
    plan: &'a FaultPlan,
    draws: &'a Draws,
    /// Pass A's phase source, indexed by *global* agent id.
    phases: PhasePass<'a>,
    estimation: UtilityEstimation,
    rack_recovering: bool,
    /// The breaker tripped this epoch. Only a Settle pass knows: it then
    /// skips the draw loops whose writes the Recovery fill discards.
    tripped: bool,
    /// Cooling durations, at scale `1 / ln(p_cooling)`.
    cooling: &'a GapTable,
    decider: Option<&'a StaticDecider>,
    mode: KernelMode,
    /// Agents per chunk ([`RunOptions::chunk_agents`]).
    chunk: usize,
}

/// Pass A: advance the phase processes of lanes `lo..hi` (lane `i` is
/// agent `base + i`).
///
/// Phases run in geometric-jump form: each resample schedules the *next*
/// resample epoch, and phases advance in wall-clock time regardless of
/// power state, exactly like the sequential streams. About a third of
/// the agents change phase in an epoch, so a per-agent `epoch ==
/// next_change` branch would be a coin flip for the predictor. Instead,
/// each block of lanes first writes its event offsets into a stack buffer
/// without branching (the write cursor advances only past an event), and
/// a dense loop then resamples just those agents: one counter word (keyed
/// by the agent's own seed) splits into the alias-table bin and in-bin
/// position draws, and a second turns into the next geometric gap.
///
/// `on_change(i, value)` sees every resampled lane in ascending order:
/// the kernel passes a no-op, a [`PhaseTrack`] recording keeps them.
#[allow(clippy::too_many_arguments)]
#[inline]
fn advance_phases(
    kernel: &PhaseKernel<'_>,
    epoch: u32,
    base: usize,
    phase: &mut [f64],
    next_change: &mut [u32],
    lo: usize,
    hi: usize,
    events: &mut [u32; EVENT_BLOCK],
    mut on_change: impl FnMut(usize, f64),
) {
    let at = u64::from(epoch);
    for start in (lo..hi).step_by(EVENT_BLOCK) {
        let end = (start + EVENT_BLOCK).min(hi);
        let mut m = 0;
        for (k, &next) in next_change[start..end].iter().enumerate() {
            events[m] = k as u32;
            m += usize::from(next == epoch);
        }
        for &k in &events[..m] {
            let i = start + k as usize;
            let a = base + i;
            let key = kernel.keys[a];
            phase[i] = kernel.sample(a, key.word(at, 0));
            next_change[i] = epoch_after(epoch, kernel.next_gap(a, key.word(at, 1)));
            on_change(i, phase[i]);
        }
    }
}

/// The churn pass, for plans with crash churn: agents go down and come
/// back in wall-clock time, regardless of the rack's power state. Each
/// agent-epoch makes one draw on the crash stream — a down agent draws
/// for restart, an up one for crash. A restart is a cold start: the agent
/// re-acquires its threshold from the coordinator before it may sprint
/// again. Counts crashes, restarts and down agents into `st`.
fn churn(
    ctx: &EpochCtx<'_>,
    base: usize,
    v: &mut LaneView<'_>,
    lo: usize,
    hi: usize,
    st: &mut ChunkStats,
) {
    let Some(c) = ctx.plan.crash else {
        return;
    };
    let epoch = u64::from(ctx.epoch);
    for i in lo..hi {
        let u = ctx.draws.crash.uniform((base + i) as u64, epoch, 0);
        let mut flag = 0u8;
        if v.crashed[i] {
            if u >= c.p_restart_stay {
                v.crashed[i] = false;
                flag = 2;
                v.blocked_until[i] =
                    epoch_after(ctx.epoch, u64::from(c.reacquire_epochs)).max(v.blocked_until[i]);
                v.states[i] = if ctx.rack_recovering {
                    AgentState::Recovery
                } else {
                    AgentState::Active
                };
            }
        } else if u < c.crash_probability {
            v.crashed[i] = true;
            flag = 1;
            // Power drops with the machine: a stuck gate releases.
            v.stuck[i] = false;
        }
        v.churn_flag[i] = flag;
        st.crashes += u32::from(flag == 1);
        st.restarts += u32::from(flag == 2);
        st.n_crashed += u32::from(v.crashed[i]);
    }
}

/// Agent `agent`'s estimate of its epoch utility `u` (§4.4): `u` itself
/// under oracle estimation; under noisy estimation `u` times `1 + sd·z`,
/// floored at zero, with `z` from the agent-epoch's estimation draw.
#[inline]
fn estimate(estimation: UtilityEstimation, draws: &Draws, agent: usize, epoch: u32, u: f64) -> f64 {
    match estimation {
        UtilityEstimation::Oracle => u,
        UtilityEstimation::Noisy { relative_sd } => {
            let z = draws.estimate.normal(agent as u64, u64::from(epoch), 0);
            (u * (1.0 + relative_sd * z)).max(0.0)
        }
    }
}

/// Whether agent lane `i` may decide this epoch: up, Active and past its
/// wake-up or re-acquire block. The `FAULTS == false` instance never
/// reads the crash lane.
#[inline(always)]
fn may_decide<const FAULTS: bool>(v: &LaneView<'_>, i: usize, epoch: u32) -> bool {
    (!FAULTS || !v.crashed[i])
        & matches!(v.states[i], AgentState::Active)
        & (epoch >= v.blocked_until[i])
}

/// Pass B: `sprinted = up & Active & unblocked & wants`, straight-line
/// boolean arithmetic with the match over (decider, estimation) hoisted
/// out of the loop. Agents that may not decide never sprint, so writing
/// the conjunction unconditionally also clears their lane. Noisy
/// estimates are drawn only for agents that may decide.
fn decide<const FAULTS: bool>(
    ctx: &EpochCtx<'_>,
    decider: &StaticDecider,
    base: usize,
    v: &mut LaneView<'_>,
    lo: usize,
    hi: usize,
) {
    match decider {
        StaticDecider::AlwaysSprint => {
            for i in lo..hi {
                v.sprinted[i] = may_decide::<FAULTS>(v, i, ctx.epoch);
            }
        }
        StaticDecider::Uniform(t) => decide_by_threshold::<FAULTS>(ctx, base, v, lo, hi, |_| *t),
        StaticDecider::PerAgent(thresholds) => {
            // Global-agent indexing, sliced once; a mis-sized decider
            // panics here like `wants_sprint` would.
            let t = &thresholds[base + lo..base + hi];
            decide_by_threshold::<FAULTS>(ctx, base, v, lo, hi, |k| t[k]);
        }
    }
}

/// Pass B for a threshold rule: an agent that may decide sprints when
/// its utility estimate clears `threshold(k)`, `k` counting lanes from
/// `lo`.
#[inline(always)]
fn decide_by_threshold<const FAULTS: bool>(
    ctx: &EpochCtx<'_>,
    base: usize,
    v: &mut LaneView<'_>,
    lo: usize,
    hi: usize,
    threshold: impl Fn(usize) -> f64,
) {
    let epoch = ctx.epoch;
    match ctx.estimation {
        UtilityEstimation::Oracle => {
            for (k, i) in (lo..hi).enumerate() {
                v.sprinted[i] = may_decide::<FAULTS>(v, i, epoch) & (v.phase[i] > threshold(k));
            }
        }
        UtilityEstimation::Noisy { .. } => {
            for (k, i) in (lo..hi).enumerate() {
                v.sprinted[i] = may_decide::<FAULTS>(v, i, epoch)
                    && estimate(ctx.estimation, ctx.draws, base + i, epoch, v.phase[i])
                        > threshold(k);
            }
        }
    }
}

/// Pass C: throughput, occupancy and every transition of the A/C/R chain
/// (§3.2), one agent at a time in index order so the chunk's float sum
/// has one fixed order on every path.
///
/// `tasks` gets the sprint utility for sprinters and 1.0 for everyone
/// else who is up. Each next state is a select: a sprinter enters
/// Cooling, a Cooling agent stays until its exit epoch or while its gate
/// is stuck, and everyone else (Active, a stale Recovery tag) ends
/// Active. After each block, dense loops draw the sprinters' cooling
/// exits and stick outcomes and the stuck gates' releases: none of those
/// agents is read again in the block, so the order of the writes is
/// invisible.
///
/// The `FAULTS` instance serves plans with crash churn or stuck gates: a
/// down agent adds an exact `+0.0` (the sum's bits do not move) and
/// counts nowhere. Its next state needs no mask: every use of the state
/// lane excludes down agents, and the restart, a cold start, writes it.
/// The other instance never reads the `crashed`, `stuck` or `stick_flag`
/// lanes.
fn settle<const FAULTS: bool>(
    ctx: &EpochCtx<'_>,
    base: usize,
    v: &mut LaneView<'_>,
    lo: usize,
    hi: usize,
    st: &mut ChunkStats,
    buf: &mut EventBuf,
) {
    use std::hint::select_unpredictable;
    let epoch = ctx.epoch;
    let stuck_plan = if FAULTS { ctx.plan.stuck } else { None };
    let EventBuf {
        agents: sprinters,
        gates,
    } = buf;
    for start in (lo..hi).step_by(EVENT_BLOCK) {
        let end = (start + EVENT_BLOCK).min(hi);
        let mut m = 0;
        let mut g = 0;
        for (k, i) in (start..end).enumerate() {
            let up = !FAULTS || !v.crashed[i];
            let active = up & matches!(v.states[i], AgentState::Active);
            let cooling = up & matches!(v.states[i], AgentState::Cooling);
            let sprint = v.sprinted[i];
            // A stuck gate draws sprint current without doing sprint
            // work, and holds its chip in Cooling until it releases.
            let gate = FAULTS && cooling & v.stuck[i];
            st.decisions += u32::from(active & (epoch >= v.blocked_until[i]));
            st.n_sprinters += u32::from(sprint);
            st.n_stuck += u32::from(gate);
            st.occ_cooling += u32::from(cooling);
            st.occ_idle += u32::from(up & !sprint & !cooling);
            // The sprint utility or 1.0, blended instead of selected
            // (x86 has no conditional move for floats, so a float select
            // compiles to a branch). With `f` 0 or 1 the blend is exact:
            // a phase is finite, so `phase * f + (1 - f)` is `phase` or
            // `1.0` bit for bit, and `tasks` sees the same addend.
            let f = f64::from(u8::from(sprint));
            let addend = v.phase[i] * f + (1.0 - f);
            st.tasks += if FAULTS {
                addend * f64::from(u8::from(up))
            } else {
                addend
            };
            let still_cooling = cooling & (gate | (epoch < v.cool_until[i]));
            v.states[i] = select_unpredictable(
                sprint | still_cooling,
                AgentState::Cooling,
                AgentState::Active,
            );
            sprinters[m] = k as u32;
            m += usize::from(sprint);
            if FAULTS {
                v.stick_flag[i] = false;
                gates[g] = k as u32;
                g += usize::from(gate);
            }
        }
        if ctx.tripped {
            continue;
        }
        for &k in &sprinters[..m] {
            let i = start + k as usize;
            let agent = (base + i) as u64;
            if let Some(s) = stuck_plan {
                if ctx.draws.stick.uniform(agent, u64::from(epoch), 0) < s.stick_probability {
                    v.stuck[i] = true;
                    v.stick_flag[i] = true;
                    st.sticks += 1;
                }
            }
            // Cooling duration, drawn once at sprint time: the same
            // geometric law as a per-epoch exit draw, so parked agents
            // cost one load and compare.
            let w = ctx.draws.cooling.word(agent, u64::from(epoch), 0);
            v.cool_until[i] = epoch_after(epoch, ctx.cooling.gap(w));
        }
        if let Some(s) = stuck_plan {
            for &k in &gates[..g] {
                let i = start + k as usize;
                let agent = (base + i) as u64;
                if ctx.draws.stick.uniform(agent, u64::from(epoch), 0) >= s.p_stuck_stay {
                    v.stuck[i] = false;
                    // Cooling restarts from the release epoch; geometric
                    // memorylessness makes this the same law as resuming
                    // per-epoch exit draws.
                    let w = ctx.draws.cooling.word(agent, u64::from(epoch), 0);
                    v.cool_until[i] = epoch_after(epoch, ctx.cooling.gap(w));
                }
            }
        }
    }
    st.occ_sprinting = st.n_sprinters;
}

/// The event-offset buffers of the block passes. A block reads only the
/// entries it wrote, so one span pass zeroes them once for all its
/// chunks.
struct EventBuf {
    /// Phase-change offsets (live pass A), then sprinter offsets (pass
    /// C).
    agents: [u32; EVENT_BLOCK],
    /// Stuck-gate offsets (pass C).
    gates: [u32; EVENT_BLOCK],
}

/// Run one chunk of agents through the passes of `ctx.mode`, writing its
/// partial sums; lane index `i` is agent `base + i`.
#[inline]
fn run_chunk<const FAULTS: bool>(
    ctx: &EpochCtx<'_>,
    base: usize,
    v: &mut LaneView<'_>,
    lo: usize,
    hi: usize,
    st: &mut ChunkStats,
    buf: &mut EventBuf,
) {
    if ctx.mode == KernelMode::Settle {
        *st = ChunkStats {
            crashes: st.crashes,
            restarts: st.restarts,
            n_crashed: st.n_crashed,
            ..ChunkStats::default()
        };
        settle::<FAULTS>(ctx, base, v, lo, hi, st, buf);
        return;
    }
    *st = ChunkStats::default();
    match ctx.phases {
        PhasePass::Live(kernel) => advance_phases(
            kernel,
            ctx.epoch,
            base,
            v.phase,
            v.next_change,
            lo,
            hi,
            &mut buf.agents,
            |_, _| {},
        ),
        PhasePass::Replay(track) => track.replay(ctx.epoch, base, v.phase, lo, hi),
    }
    churn(ctx, base, v, lo, hi, st);
    if ctx.mode == KernelMode::Fused {
        let decider = ctx.decider.expect("fused kernel requires a static decider");
        decide::<FAULTS>(ctx, decider, base, v, lo, hi);
        settle::<FAULTS>(ctx, base, v, lo, hi, st, buf);
    }
}

/// Run every chunk of one span in order, writing one [`ChunkStats`] per
/// chunk. Plans with crash churn or stuck gates take the `FAULTS`
/// instance of passes B and C.
fn run_span(ctx: &EpochCtx<'_>, base: usize, v: &mut LaneView<'_>, stats: &mut [ChunkStats]) {
    let faults = ctx.plan.crash.is_some() || ctx.plan.stuck.is_some();
    let mut buf = EventBuf {
        agents: [0; EVENT_BLOCK],
        gates: [0; EVENT_BLOCK],
    };
    let mut lo = 0;
    for cs in stats.iter_mut() {
        let hi = (lo + ctx.chunk).min(v.len());
        if faults {
            run_chunk::<true>(ctx, base, v, lo, hi, cs, &mut buf);
        } else {
            run_chunk::<false>(ctx, base, v, lo, hi, cs, &mut buf);
        }
        lo = hi;
    }
}

// ---------------------------------------------------------------------
// The persistent epoch-kernel worker pool.
//
// `jobs > 1` used to spawn fresh scoped threads *every epoch*; a
// 20 000-epoch run paid 20 000× thread spawn/join latency, which is why
// the parallel path lost to serial. The pool below is created once per
// run: workers are spawned before the epoch loop, sleep between epochs,
// and are released per epoch through an atomic sequence barrier — no
// per-epoch allocation and, once spinning, no per-epoch syscalls.
//
// Barrier protocol (see DESIGN.md §17):
//
// - One `AtomicU64` ticket encodes the pass: `(epoch+1) << 4 | mode <<
//   2 | tripped << 1 | recovering` ([`PoolCtrl::encode`]). 0 means "no
//   pass yet"; `u64::MAX` means shutdown, and no pass encodes to either.
//   Two passes in a row never share a ticket: an epoch's passes differ
//   in mode. The coordinator publishes it with `Release`; workers
//   observe it with `Acquire`, so every lane byte the coordinator wrote
//   between passes (serial decides, recovery fills) happens-before the
//   workers' reads.
// - Each spawned worker owns a cache-line-padded `done` slot. After
//   running its span it stores the ticket with `Release` and unparks the
//   coordinator; the coordinator spins-then-parks until every slot shows
//   the ticket (`Acquire`), so every lane byte the workers wrote
//   happens-before the coordinator's reduction.
// - Workers spin briefly then `park()`; `unpark` tokens are sticky, so a
//   publish that races a worker entering `park` cannot be lost.
// - A worker wraps its span in `catch_unwind`: on panic it raises the
//   shared `panicked` flag, *still* stores its `done` ticket (the
//   barrier never deadlocks), and exits. The coordinator turns the flag
//   into a typed [`SimError::WorkerPanicked`]. A drop guard publishes
//   the shutdown ticket on every exit path — normal completion, cancel/
//   deadline error, or panic — so the scoped join always completes.
//
// Each worker's span is a fixed contiguous block of whole chunks,
// partitioned exactly like the old per-epoch split, carved once into raw
// lane pointers. Safety rests on alternating exclusive access: workers
// touch their spans only between ticket publish and done store, the
// coordinator touches the lanes only outside that window, and the two
// atomics order the handoff in both directions.
// ---------------------------------------------------------------------

/// Pool shutdown ticket.
const POOL_SHUTDOWN: u64 = u64::MAX;

/// Spins before a waiter parks. High enough that a worker whose next
/// pass is already being published never syscalls; low enough that an
/// oversubscribed host degrades to sleeping instead of burning cores.
const POOL_SPINS: u32 = 1 << 14;

/// One spawned worker's barrier slot, padded to its own cache line so
/// per-pass `done` stores never false-share with a neighbor.
#[repr(align(128))]
struct WorkerSlot {
    /// Last ticket this worker completed.
    done: std::sync::atomic::AtomicU64,
    /// Nanoseconds spent in kernel passes (tracked only when telemetry
    /// is on; read after shutdown for the pool-utilization gauge).
    busy_nanos: std::sync::atomic::AtomicU64,
}

/// Coordinator/worker shared state for one run's pool.
struct PoolCtrl {
    /// The pass ticket ([`PoolCtrl::encode`]).
    seq: std::sync::atomic::AtomicU64,
    slots: Box<[WorkerSlot]>,
    /// Raised by any participant whose span panicked.
    panicked: std::sync::atomic::AtomicBool,
    /// The coordinator's thread handle, for targeted unparks.
    coordinator: std::thread::Thread,
    /// Track per-pass busy time (telemetry enabled)?
    timed: bool,
}

impl PoolCtrl {
    fn new(spawned: usize, timed: bool) -> Self {
        PoolCtrl {
            seq: std::sync::atomic::AtomicU64::new(0),
            slots: (0..spawned)
                .map(|_| WorkerSlot {
                    done: std::sync::atomic::AtomicU64::new(0),
                    busy_nanos: std::sync::atomic::AtomicU64::new(0),
                })
                .collect(),
            panicked: std::sync::atomic::AtomicBool::new(false),
            coordinator: std::thread::current(),
            timed,
        }
    }

    /// The ticket of one pass: `(epoch+1) << 4 | mode << 2 | tripped << 1
    /// | recovering`. The epoch term lies in `1..=2^32`, so a ticket is
    /// never 0 and never [`POOL_SHUTDOWN`].
    fn encode(epoch: u32, mode: KernelMode, tripped: bool, recovering: bool) -> u64 {
        ((u64::from(epoch) + 1) << 4)
            | ((mode as u64) << 2)
            | (u64::from(tripped) << 1)
            | u64::from(recovering)
    }

    /// The `(epoch, mode, tripped, recovering)` a ticket encodes.
    fn decode(ticket: u64) -> (u32, KernelMode, bool, bool) {
        let mode = match (ticket >> 2) & 0b11 {
            0 => KernelMode::Advance,
            1 => KernelMode::Fused,
            _ => KernelMode::Settle,
        };
        (
            ((ticket >> 4) - 1) as u32,
            mode,
            ticket & 0b10 != 0,
            ticket & 0b01 != 0,
        )
    }
}

/// The run-constant inputs of [`EpochCtx`], shared with pool workers so
/// each can rebuild the epoch's context from the ticket alone.
struct PassConstants<'a> {
    plan: &'a FaultPlan,
    draws: &'a Draws,
    phases: PhasePass<'a>,
    estimation: UtilityEstimation,
    cooling: &'a GapTable,
    decider: Option<&'a StaticDecider>,
    chunk: usize,
}

impl<'a> PassConstants<'a> {
    /// The [`EpochCtx`] of one pass.
    fn ctx(&self, epoch: u32, mode: KernelMode, tripped: bool, recovering: bool) -> EpochCtx<'a> {
        EpochCtx {
            epoch,
            plan: self.plan,
            draws: self.draws,
            phases: self.phases,
            estimation: self.estimation,
            rack_recovering: recovering,
            tripped,
            cooling: self.cooling,
            decider: self.decider,
            mode,
            chunk: self.chunk,
        }
    }
}

/// One worker's fixed span: raw pointers into every lane plus its chunk
/// of the stats array, carved once at pool creation. The pointers stay
/// valid for the whole run (the `Lanes` vectors are never resized after
/// setup) and the barrier protocol makes access exclusive in time.
#[derive(Clone, Copy)]
struct SpanPtr {
    /// Global agent index of the span start.
    base: usize,
    /// Agents in the span.
    len: usize,
    /// Chunks in the span.
    n_stats: usize,
    phase: *mut f64,
    next_change: *mut u32,
    states: *mut AgentState,
    blocked_until: *mut u32,
    cool_until: *mut u32,
    crashed: *mut bool,
    stuck: *mut bool,
    sprinted: *mut bool,
    churn_flag: *mut u8,
    stick_flag: *mut bool,
    stats: *mut ChunkStats,
}

// The raw pointers target disjoint spans handed to exactly one worker
// each; the barrier protocol serializes all access (see above).
unsafe impl Send for SpanPtr {}

impl SpanPtr {
    fn carve(base: usize, view: LaneView<'_>, stats: &mut [ChunkStats]) -> Self {
        SpanPtr {
            base,
            len: view.phase.len(),
            n_stats: stats.len(),
            phase: view.phase.as_mut_ptr(),
            next_change: view.next_change.as_mut_ptr(),
            states: view.states.as_mut_ptr(),
            blocked_until: view.blocked_until.as_mut_ptr(),
            cool_until: view.cool_until.as_mut_ptr(),
            crashed: view.crashed.as_mut_ptr(),
            stuck: view.stuck.as_mut_ptr(),
            sprinted: view.sprinted.as_mut_ptr(),
            churn_flag: view.churn_flag.as_mut_ptr(),
            stick_flag: view.stick_flag.as_mut_ptr(),
            stats: stats.as_mut_ptr(),
        }
    }

    /// Run one kernel pass over this span.
    ///
    /// # Safety
    ///
    /// The caller must hold this span's turn under the barrier protocol:
    /// between the coordinator's ticket publish and this span's `done`
    /// store (workers), or any time outside a pass (the coordinator's
    /// own span).
    unsafe fn run(&self, ctx: &EpochCtx<'_>) {
        use std::slice::from_raw_parts_mut;
        let mut v = LaneView {
            phase: from_raw_parts_mut(self.phase, self.len),
            next_change: from_raw_parts_mut(self.next_change, self.len),
            states: from_raw_parts_mut(self.states, self.len),
            blocked_until: from_raw_parts_mut(self.blocked_until, self.len),
            cool_until: from_raw_parts_mut(self.cool_until, self.len),
            crashed: from_raw_parts_mut(self.crashed, self.len),
            stuck: from_raw_parts_mut(self.stuck, self.len),
            sprinted: from_raw_parts_mut(self.sprinted, self.len),
            churn_flag: from_raw_parts_mut(self.churn_flag, self.len),
            stick_flag: from_raw_parts_mut(self.stick_flag, self.len),
        };
        let stats = from_raw_parts_mut(self.stats, self.n_stats);
        run_span(ctx, self.base, &mut v, stats);
    }
}

/// Partition lanes + stats into `workers` contiguous whole-chunk spans —
/// the identical split at every job count, so chunk results land at the
/// same indices no matter who runs them. Span 0 belongs to the
/// coordinator thread.
fn carve_spans(
    lanes: &mut Lanes,
    stats: &mut [ChunkStats],
    workers: usize,
    chunk: usize,
) -> Vec<SpanPtr> {
    let n_chunks = stats.len();
    let q = n_chunks / workers;
    let r = n_chunks % workers;
    let mut spans = Vec::with_capacity(workers);
    let mut rest = lanes.view();
    let mut rest_stats = stats;
    let mut base = 0usize;
    for w in 0..workers {
        let span_chunks = q + usize::from(w < r);
        let span_agents = (span_chunks * chunk).min(rest.len());
        let (head, tail) = rest.split_at_mut(span_agents);
        rest = tail;
        let (head_stats, tail_stats) = rest_stats.split_at_mut(span_chunks);
        rest_stats = tail_stats;
        spans.push(SpanPtr::carve(base, head, head_stats));
        base += span_agents;
    }
    spans
}

/// A spawned pool worker: wait for the next ticket, run the fixed span,
/// report done, repeat until shutdown (or until a pass panics).
fn pool_worker(ctrl: &PoolCtrl, idx: usize, span: SpanPtr, consts: &PassConstants<'_>) {
    use std::sync::atomic::Ordering;
    let mut last = 0u64;
    loop {
        // Spin-then-park for the next ticket. `unpark` tokens are sticky,
        // so a publish landing between the load and `park()` just makes
        // the park return immediately.
        let mut spins = 0u32;
        let ticket = loop {
            let s = ctrl.seq.load(Ordering::Acquire);
            if s != last {
                break s;
            }
            spins += 1;
            if spins < POOL_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        };
        if ticket == POOL_SHUTDOWN {
            break;
        }
        last = ticket;
        let t0 = ctrl.timed.then(std::time::Instant::now);
        // The context the ticket denotes is the coordinator's, because
        // everything else is run-constant.
        let (epoch, mode, tripped, recovering) = PoolCtrl::decode(ticket);
        let ctx = consts.ctx(epoch, mode, tripped, recovering);
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            span.run(&ctx);
        }))
        .is_ok();
        if let Some(t0) = t0 {
            ctrl.slots[idx]
                .busy_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if !ok {
            ctrl.panicked.store(true, Ordering::Release);
        }
        // Done is stored even after a panic so the coordinator's barrier
        // wait always completes; the panic surfaces as a typed error.
        ctrl.slots[idx].done.store(ticket, Ordering::Release);
        ctrl.coordinator.unpark();
        if !ok {
            break;
        }
    }
}

/// Publishes the shutdown ticket when the coordinator leaves the epoch
/// loop — normally, via an error return, or unwinding — so parked
/// workers always exit and the scoped join never hangs.
struct PoolShutdown<'a> {
    ctrl: &'a PoolCtrl,
    threads: &'a [std::thread::Thread],
}

impl Drop for PoolShutdown<'_> {
    fn drop(&mut self) {
        self.ctrl
            .seq
            .store(POOL_SHUTDOWN, std::sync::atomic::Ordering::Release);
        for t in self.threads {
            t.unpark();
        }
    }
}

/// How one epoch's kernel pass executes: inline on the caller, or fanned
/// out through the persistent pool.
enum PassExec<'a> {
    /// One worker: run every chunk on the calling thread.
    Serial,
    /// The persistent pool: coordinator runs span 0, spawned workers run
    /// the rest, the sequence barrier hands lanes back and forth.
    Pool {
        ctrl: &'a PoolCtrl,
        /// The coordinator's own span.
        own: SpanPtr,
        /// Spawned worker handles, for per-pass unparks.
        threads: &'a [std::thread::Thread],
    },
}

impl PassExec<'_> {
    /// One kernel pass over all agents for `ctx`'s epoch. Chunk results
    /// land in `stats` by chunk index on either variant, so the
    /// reduction downstream never sees the difference.
    fn pass(
        &mut self,
        ctx: &EpochCtx<'_>,
        lanes: &mut Lanes,
        stats: &mut [ChunkStats],
        telemetry: &mut Telemetry,
        on: bool,
    ) -> crate::Result<()> {
        use std::sync::atomic::Ordering;
        match self {
            PassExec::Serial => {
                run_span(ctx, 0, &mut lanes.view(), stats);
                Ok(())
            }
            PassExec::Pool { ctrl, own, threads } => {
                let ticket =
                    PoolCtrl::encode(ctx.epoch, ctx.mode, ctx.tripped, ctx.rack_recovering);
                ctrl.seq.store(ticket, Ordering::Release);
                for t in threads.iter() {
                    t.unpark();
                }
                // The coordinator runs its own span through the same
                // catch so a panicking decider surfaces as a typed error
                // on every span, not a process abort on span 0.
                let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                    own.run(ctx);
                }))
                .is_ok();
                if !ok {
                    ctrl.panicked.store(true, Ordering::Release);
                }
                // Barrier: wait until every worker finished this pass.
                let barrier_span = on.then(|| telemetry.spans.open("engine.epoch_barrier"));
                for slot in ctrl.slots.iter() {
                    let mut spins = 0u32;
                    while slot.done.load(Ordering::Acquire) != ticket {
                        spins += 1;
                        if spins < POOL_SPINS {
                            std::hint::spin_loop();
                        } else {
                            std::thread::park_timeout(std::time::Duration::from_micros(100));
                        }
                    }
                }
                if let Some(s) = barrier_span {
                    telemetry.spans.close(s);
                }
                if ctrl.panicked.load(Ordering::Acquire) {
                    return Err(SimError::WorkerPanicked {
                        what: "engine epoch kernel",
                    });
                }
                Ok(())
            }
        }
    }
}

/// Run one simulation — the engine's one entry point.
///
/// `arrivals` supplies each agent's phase process, read only, so every
/// run of a population can share one build; `policy` makes the sprint
/// decisions; `guard` may stop the run early; the agent
/// kernel fans out over `jobs` threads; `telemetry` observes (pass
/// [`Telemetry::noop()`] for an unobserved run). Identical inputs and
/// seed produce bit-identical results.
///
/// Randomness is counter-based and partial sums reduce in chunk order, so
/// the result — and any trace or report derived from it — is
/// byte-identical at every job count, including `jobs = 1`.
///
/// With an enabled kit this emits [`Event::RunStart`]/[`Event::RunEnd`],
/// one [`Event::EpochTick`] per epoch, [`Event::BreakerTrip`] on trips,
/// [`Event::FaultInjected`] for every fault activation, and (when the
/// recorder wants them) per-agent [`Event::SprintDecision`]s; maintains
/// epoch-resolution series for sprinters, tasks, and trips plus
/// per-fault-kind counters in the kit's registry; and times each epoch
/// and decision sweep in the kit's span profile.
///
/// With a disabled kit emission is gated on [`Telemetry::enabled`] and
/// the float accumulation order is identical, so results stay
/// bit-identical with telemetry on or off.
///
/// The guard carries an optional per-attempt deadline and a shared
/// cancel/job-deadline token; [`RunGuard::default()`] guards nothing.
/// Deadlines are checked at epoch boundaries (every 64 epochs, so the
/// hot loop pays nothing measurable); a run that blows past one returns
/// [`SimError::DeadlineExceeded`] carrying the deadline's configured
/// limit. The check reads the wall clock but never feeds it into the
/// dynamics, so a run that *completes* is bit-identical to an unguarded
/// run — a guard decides only whether a result exists, which is exactly
/// the property sweep supervision needs to quarantine hung trials
/// without breaking byte-reproducibility of surviving ones.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] when the agent count of
/// `arrivals` does not match the configured one, or when the engine's
/// per-agent lanes cannot be reserved, [`SimError::DeadlineExceeded`]
/// when a deadline passes and [`SimError::Cancelled`] when the guard's
/// token is cancelled.
pub fn run_arrivals(
    config: &SimConfig,
    arrivals: &Arrivals,
    policy: &mut dyn SprintPolicy,
    guard: &RunGuard,
    jobs: usize,
    telemetry: &mut Telemetry,
) -> crate::Result<SimResult> {
    run_replaying(config, arrivals, policy, guard, jobs, telemetry, None).map(|(result, _)| result)
}

/// [`run_arrivals`] on sequential streams: the streams are converted to
/// arrivals once ([`Arrivals::from_streams`]), and each stream's final
/// phase is written back, so a caller holding the streams sees them
/// advanced by the run.
///
/// # Errors
///
/// As [`run_arrivals`], with the stream count in place of the arrivals'.
pub fn run_guarded(
    config: &SimConfig,
    streams: &mut [PhasedUtility],
    policy: &mut dyn SprintPolicy,
    guard: &RunGuard,
    jobs: usize,
    telemetry: &mut Telemetry,
) -> crate::Result<SimResult> {
    let arrivals = Arrivals::from_streams(streams)?;
    let (result, phases) = run_replaying(config, &arrivals, policy, guard, jobs, telemetry, None)?;
    for (s, p) in streams.iter_mut().zip(phases) {
        s.sync_phase(p);
    }
    Ok(result)
}

/// [`run_arrivals`], with pass A replaying `track` when it covers the
/// run ([`PhaseTrack::covers`]) and sampling live otherwise, returning
/// the result and every agent's final phase. `track` must be a recording
/// of `arrivals`: a trial pool hands out a pair's recording only
/// together with the arrivals it was recorded from. A replayed run
/// builds no phase kernel, makes no first-phase draws and never reads
/// `next_change`, and its result and final phases equal the live run's
/// bit for bit.
#[allow(clippy::too_many_lines)]
pub(crate) fn run_replaying(
    config: &SimConfig,
    arrivals: &Arrivals,
    policy: &mut dyn SprintPolicy,
    guard: &RunGuard,
    jobs: usize,
    telemetry: &mut Telemetry,
    track: Option<&PhaseTrack>,
) -> crate::Result<(SimResult, Vec<f64>)> {
    let n = config.game.n_agents() as usize;
    if arrivals.len() != n {
        return Err(SimError::InvalidParameter {
            name: "arrivals",
            value: arrivals.len() as f64,
            expected: "one arrival (or utility stream) per agent",
        });
    }
    if let UtilityEstimation::Noisy { relative_sd } = config.options.estimation {
        if relative_sd < 0.0 || !relative_sd.is_finite() {
            return Err(SimError::InvalidParameter {
                name: "relative_sd",
                value: relative_sd,
                expected: "a non-negative finite relative standard deviation",
            });
        }
    }
    let plan = config.options.faults;
    plan.validate()?;
    let draws = Draws::new(config);
    let trip_curve = TripCurve::from_config(&config.game);
    // What the breaker actually does, vs. the nominal curve every solver
    // assumes.
    let actual_curve = match plan.breaker_drift {
        Some(d) => trip_curve.with_band_shift(d.band_shift),
        None => trip_curve,
    };
    let mut sensor = match plan.sensor {
        Some(s) => CurrentSensor::new(s.relative_sd, s.dropout_probability).map_err(|_| {
            SimError::InvalidParameter {
                name: "sensor",
                value: s.relative_sd,
                expected: "a valid sensor fault specification",
            }
        })?,
        None => CurrentSensor::ideal(),
    };
    // Exit prob is 1 - p_cooling, so ln(1 - p_exit) = ln(p_cooling);
    // p_cooling = 0 gives scale -0.0 and one-epoch cooldowns, correctly.
    let cooling = GapTable::new(config.game.p_cooling().ln().recip());
    let p_recover_exit = 1.0 - config.game.p_recovery();

    // Telemetry gates, hoisted out of the hot loop: with a disabled kit
    // every emission site below is one branch on `on`.
    let on = telemetry.enabled();
    let want_decisions = on && telemetry.wants(EventKind::SprintDecision);
    let want_fault_events = on && telemetry.wants(EventKind::FaultInjected);
    let want_trip_events = on && telemetry.wants(EventKind::BreakerTrip);
    let ids =
        on.then(|| EngineIds::register(&mut telemetry.registry, f64::from(config.game.n_agents())));
    if on {
        telemetry.emit(&Event::RunStart {
            agents: config.game.n_agents(),
            epochs: config.epochs,
            seed: config.seed,
            policy: policy.name().to_string(),
        });
    }

    // Per-agent decision events need the serial loop; otherwise a policy
    // with a static snapshot decides inside the parallel kernel.
    let decider = if want_decisions {
        None
    } else {
        policy.static_decider()
    };

    // All per-run heap allocation happens here; the epoch loop below is
    // allocation-free.
    let mut lanes = Lanes::new(n)?;
    lanes.phase.copy_from_slice(arrivals.phases());
    let kernel;
    let phases = match track.filter(|t| t.covers(n, config.epochs)) {
        Some(track) => PhasePass::Replay(track),
        None => {
            kernel = PhaseKernel::new(arrivals);
            first_changes(&kernel, &mut lanes.next_change);
            PhasePass::Live(&kernel)
        }
    };
    let chunk = config.options.chunk_agents;
    if chunk == 0 {
        return Err(SimError::InvalidParameter {
            name: "chunk_agents",
            value: 0.0,
            expected: "at least one agent per chunk",
        });
    }
    let n_chunks = n.div_ceil(chunk);
    let mut chunk_stats = vec![ChunkStats::default(); n_chunks];

    // The persistent pool: sized once, spawned once, reused by every
    // epoch. One worker (or one chunk) means no pool at all.
    let workers = if n_chunks > 1 {
        jobs.clamp(1, n_chunks)
    } else {
        1
    };
    let (spans, ctrl) = if workers > 1 {
        (
            carve_spans(&mut lanes, &mut chunk_stats, workers, chunk),
            Some(PoolCtrl::new(workers - 1, on)),
        )
    } else {
        (Vec::new(), None)
    };
    let consts = PassConstants {
        plan: &plan,
        draws: &draws,
        phases,
        estimation: config.options.estimation,
        cooling: &cooling,
        decider: decider.as_ref(),
        chunk,
    };
    let loop_t0 = (on && ctrl.is_some()).then(std::time::Instant::now);

    let mut rack_recovering = false;
    let mut faults = FaultMetrics::default();
    // The one per-epoch allocation: a horizon whose series cannot be
    // reserved is a typed error, not an abort.
    let mut sprinters_per_epoch = Vec::new();
    sprinters_per_epoch
        .try_reserve_exact(config.epochs)
        .map_err(|_| SimError::InvalidParameter {
            name: "epochs",
            value: config.epochs as f64,
            expected: "a horizon whose per-epoch series fits in memory",
        })?;
    let mut occupancy = StateOccupancy::default();
    let mut total_tasks = 0.0f64;
    let mut trips = 0u32;

    // The epoch loop, parameterized by the pass executor so the serial
    // and pooled paths share every byte of the logic.
    let mut run_body = |exec: &mut PassExec<'_>| -> crate::Result<()> {
        for epoch in 0..config.epochs {
            if epoch & 63 == 0 {
                guard.checkpoint()?;
            }
            let epoch_span = on.then(|| telemetry.spans.open("engine.epoch"));
            // Epoch throughput is reported as a delta so instrumentation never
            // reorders the float accumulation below.
            let tasks_before = total_tasks;

            let fused = decider.is_some() && !rack_recovering;
            let mode = if fused {
                KernelMode::Fused
            } else {
                KernelMode::Advance
            };
            let ctx = consts.ctx(epoch as u32, mode, false, rack_recovering);
            let fused_decide_span = (on && fused).then(|| telemetry.spans.open("engine.decide"));
            exec.pass(&ctx, &mut lanes, &mut chunk_stats, telemetry, on)?;
            if let Some(s) = fused_decide_span {
                telemetry.spans.close(s);
            }

            // Reduce the churn partials (every mode produces them) and drain
            // the per-agent event flags on this thread, in agent order.
            let mut epoch_crashes = 0u32;
            let mut epoch_restarts = 0u32;
            let mut n_crashed = 0u64;
            for cs in &chunk_stats {
                epoch_crashes += cs.crashes;
                epoch_restarts += cs.restarts;
                n_crashed += u64::from(cs.n_crashed);
            }
            faults.crashes += u64::from(epoch_crashes);
            faults.restarts += u64::from(epoch_restarts);
            faults.crashed_agent_epochs += n_crashed;
            if plan.crash.is_some() {
                if want_fault_events {
                    for (i, flag) in lanes.churn_flag.iter().enumerate() {
                        let kind = match flag {
                            1 => FaultKind::Crash,
                            2 => FaultKind::Restart,
                            _ => continue,
                        };
                        telemetry.emit(&Event::FaultInjected {
                            epoch,
                            kind,
                            agent: Some(i as u32),
                        });
                    }
                }
                // Registry increments are batched per epoch: one add per
                // fault kind instead of one per affected agent.
                if let Some(ids) = &ids {
                    if epoch_crashes > 0 {
                        telemetry
                            .registry
                            .inc(ids.fault(FaultKind::Crash), u64::from(epoch_crashes));
                    }
                    if epoch_restarts > 0 {
                        telemetry
                            .registry
                            .inc(ids.fault(FaultKind::Restart), u64::from(epoch_restarts));
                    }
                }
            }

            if rack_recovering {
                occupancy.recovery += n as u64 - n_crashed;
                if config.options.recovery == RecoverySemantics::NormalMode {
                    total_tasks += (n as u64 - n_crashed) as f64;
                }
                sprinters_per_epoch.push(0);
                // Batteries recharge: geometric exit, then staggered wake-up.
                if draws.recovery.uniform(RACK, epoch as u64, 0) < p_recover_exit {
                    rack_recovering = false;
                    let stagger = config.options.stagger_epochs;
                    for (i, state) in lanes.states.iter_mut().enumerate() {
                        *state = AgentState::Active;
                        let slot = if stagger == 0 {
                            0
                        } else {
                            draws
                                .recovery
                                .index(i as u64, epoch as u64, 1, u64::from(stagger))
                        };
                        lanes.blocked_until[i] = epoch_after(ctx.epoch, 1 + slot);
                    }
                }
                if on {
                    let epoch_tasks = total_tasks - tasks_before;
                    telemetry.emit(&Event::EpochTick {
                        epoch,
                        sprinters: 0,
                        stuck: 0,
                        tripped: false,
                        recovering: true,
                        tasks: epoch_tasks,
                    });
                    if let Some(ids) = &ids {
                        telemetry.registry.inc(ids.epochs, 1);
                        telemetry.registry.push(ids.sprinter_series, 0.0);
                        telemetry.registry.push(ids.task_series, epoch_tasks);
                        telemetry.registry.push(ids.trip_series, 0.0);
                    }
                    if let Some(s) = epoch_span {
                        telemetry.spans.close(s);
                    }
                }
                policy.epoch_end(false);
                continue;
            }

            // Decisions. The fused kernel already made them; stateful
            // policies (and decision-traced runs) decide serially here on the
            // same counter draws, and a Settle pass applies them once the
            // breaker is drawn.
            let mut n_sprinters = 0u32;
            let mut n_stuck = 0u32;
            if fused {
                let mut decisions = 0u64;
                for cs in &chunk_stats {
                    n_sprinters += cs.n_sprinters;
                    n_stuck += cs.n_stuck;
                    decisions += u64::from(cs.decisions);
                }
                policy.note_decisions(decisions);
            } else {
                let decide_span = on.then(|| telemetry.spans.open("engine.decide"));
                for i in 0..n {
                    lanes.sprinted[i] = false;
                    if lanes.crashed[i] {
                        continue;
                    }
                    match lanes.states[i] {
                        AgentState::Active => {
                            let estimate = estimate(
                                config.options.estimation,
                                &draws,
                                i,
                                ctx.epoch,
                                lanes.phase[i],
                            );
                            let sprint = ctx.epoch >= lanes.blocked_until[i]
                                && policy.wants_sprint(i, estimate);
                            lanes.sprinted[i] = sprint;
                            n_sprinters += u32::from(sprint);
                            if want_decisions {
                                telemetry.emit(&Event::SprintDecision {
                                    epoch,
                                    agent: i as u32,
                                    estimate,
                                    sprint,
                                });
                            }
                        }
                        AgentState::Cooling => n_stuck += u32::from(lanes.stuck[i]),
                        AgentState::Recovery => {}
                    }
                }
                if let Some(s) = decide_span {
                    telemetry.spans.close(s);
                }
            }
            faults.stuck_epochs += u64::from(n_stuck);
            sprinters_per_epoch.push(n_sprinters);

            // Breaker: Equation 11 at what the breaker *measures*. With no
            // faults, measured load is exactly the decided sprinter count;
            // stuck gates add phantom sprinter-equivalents, and the sensor
            // may distort or hold the reading.
            let realized = f64::from(n_sprinters + n_stuck);
            let measured = match plan.sensor {
                None => realized,
                Some(_) => {
                    let z = draws.sensor.normal(RACK, epoch as u64, 0);
                    let reading =
                        sensor.measure(realized, z, draws.sensor.uniform(RACK, epoch as u64, 2));
                    if reading.dropped {
                        faults.sensor_dropouts += 1;
                        if want_fault_events {
                            telemetry.emit(&Event::FaultInjected {
                                epoch,
                                kind: FaultKind::SensorDropout,
                                agent: None,
                            });
                        }
                        if let Some(ids) = &ids {
                            telemetry
                                .registry
                                .inc(ids.fault(FaultKind::SensorDropout), 1);
                        }
                    }
                    reading.value
                }
            };
            let p_trip = actual_curve.p_trip(measured);
            let tripped = p_trip > 0.0 && draws.trip.uniform(RACK, epoch as u64, 0) < p_trip;
            if tripped && want_trip_events {
                telemetry.emit(&Event::BreakerTrip {
                    epoch,
                    realized,
                    measured,
                    p_trip,
                });
            }

            // Divergence between the breaker's behavior and the nominal curve
            // the policies reason about.
            let nominal_p = trip_curve.p_trip(f64::from(n_sprinters));
            if tripped && nominal_p == 0.0 {
                faults.spurious_trips += 1;
                if want_fault_events {
                    telemetry.emit(&Event::FaultInjected {
                        epoch,
                        kind: FaultKind::SpuriousTrip,
                        agent: None,
                    });
                }
                if let Some(ids) = &ids {
                    telemetry
                        .registry
                        .inc(ids.fault(FaultKind::SpuriousTrip), 1);
                }
            }
            if !tripped && nominal_p >= 1.0 {
                faults.missed_trips += 1;
                if want_fault_events {
                    telemetry.emit(&Event::FaultInjected {
                        epoch,
                        kind: FaultKind::MissedTrip,
                        agent: None,
                    });
                }
                if let Some(ids) = &ids {
                    telemetry.registry.inc(ids.fault(FaultKind::MissedTrip), 1);
                }
            }

            // Throughput. Under the paper's UPS semantics sprints complete
            // even on a trip; the Truncated ablation scales the tripped
            // epoch's work by the pre-trip fraction. The fused kernel already
            // produced per-chunk unscaled sums; a serially decided epoch
            // settles now that the trip is known.
            if !fused {
                let settle = consts.ctx(ctx.epoch, KernelMode::Settle, tripped, false);
                exec.pass(&settle, &mut lanes, &mut chunk_stats, telemetry, on)?;
            }
            let epoch_scale = match (tripped, config.options.interruption) {
                (true, TripInterruption::Truncated) => pre_trip_fraction(&config.game, realized),
                _ => 1.0,
            };
            let mut epoch_sticks = 0u32;
            for cs in &chunk_stats {
                total_tasks += cs.tasks * epoch_scale;
                occupancy.sprinting += u64::from(cs.occ_sprinting);
                occupancy.cooling += u64::from(cs.occ_cooling);
                occupancy.active_idle += u64::from(cs.occ_idle);
                epoch_sticks += cs.sticks;
            }

            if tripped {
                trips += 1;
                rack_recovering = true;
                lanes.states.fill(AgentState::Recovery);
                // The emergency cuts rack power: every stuck gate releases,
                // and the kernel's speculative stick outcomes are discarded.
                if plan.stuck.is_some() {
                    lanes.stuck.fill(false);
                }
            } else if plan.stuck.is_some() && epoch_sticks > 0 {
                if want_fault_events {
                    for (i, &flag) in lanes.stick_flag.iter().enumerate() {
                        if flag {
                            telemetry.emit(&Event::FaultInjected {
                                epoch,
                                kind: FaultKind::StuckGate,
                                agent: Some(i as u32),
                            });
                        }
                    }
                }
                if let Some(ids) = &ids {
                    telemetry
                        .registry
                        .inc(ids.fault(FaultKind::StuckGate), u64::from(epoch_sticks));
                }
            }
            if on {
                let epoch_tasks = total_tasks - tasks_before;
                telemetry.emit(&Event::EpochTick {
                    epoch,
                    sprinters: n_sprinters,
                    stuck: n_stuck,
                    tripped,
                    recovering: false,
                    tasks: epoch_tasks,
                });
                if let Some(ids) = &ids {
                    telemetry.registry.inc(ids.epochs, 1);
                    if tripped {
                        telemetry.registry.inc(ids.trips, 1);
                    }
                    telemetry
                        .registry
                        .push(ids.sprinter_series, f64::from(n_sprinters));
                    telemetry.registry.push(ids.task_series, epoch_tasks);
                    telemetry
                        .registry
                        .push(ids.trip_series, if tripped { 1.0 } else { 0.0 });
                    telemetry.registry.observe(ids.sprinter_hist, realized);
                }
                if let Some(s) = epoch_span {
                    telemetry.spans.close(s);
                }
            }
            policy.epoch_end(tripped);
        }
        Ok(())
    };

    let outcome = match &ctrl {
        None => run_body(&mut PassExec::Serial),
        Some(ctrl) => std::thread::scope(|scope| {
            let mut threads = Vec::with_capacity(spans.len().saturating_sub(1));
            for (idx, span) in spans.iter().copied().enumerate().skip(1) {
                let consts = &consts;
                let handle = scope.spawn(move || pool_worker(ctrl, idx - 1, span, consts));
                threads.push(handle.thread().clone());
            }
            // Shutdown fires on every exit path — completion, cancel or
            // deadline error, panic — before the scope joins.
            let _shutdown = PoolShutdown {
                ctrl,
                threads: &threads,
            };
            run_body(&mut PassExec::Pool {
                ctrl,
                own: spans[0],
                threads: &threads,
            })
        }),
    };
    outcome?;

    let result = SimResult {
        n_agents: config.game.n_agents(),
        epochs: config.epochs,
        sprinters_per_epoch,
        total_tasks,
        trips,
        occupancy,
        faults,
    };
    if on {
        telemetry.emit(&Event::RunEnd { total_tasks, trips });
        policy.export_metrics(&mut telemetry.registry);
        let g = telemetry.registry.gauge("engine.tasks_per_agent_epoch");
        telemetry.registry.set(g, result.tasks_per_agent_epoch());
        let g = telemetry.registry.gauge("engine.trip_rate");
        telemetry
            .registry
            .set(g, f64::from(trips) / config.epochs as f64);
        if let Some(ctrl) = &ctrl {
            // Spawned-worker busy time over the loop's wall time: how
            // much of the pool's capacity the kernel actually used.
            let wall = loop_t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
            let busy: u64 = ctrl
                .slots
                .iter()
                .map(|s| s.busy_nanos.load(std::sync::atomic::Ordering::Relaxed))
                .sum();
            let denom = wall * ctrl.slots.len() as f64;
            let g = telemetry.registry.gauge("engine.pool.workers");
            telemetry.registry.set(g, (ctrl.slots.len() + 1) as f64);
            let g = telemetry.registry.gauge("engine.pool.utilization");
            let util = if denom > 0.0 {
                (busy as f64 / 1e9 / denom).min(1.0)
            } else {
                0.0
            };
            telemetry.registry.set(g, util);
        }
        telemetry.export_recorder_metrics();
    }
    Ok((result, lanes.phase))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{Greedy, ThresholdPolicy};
    use sprint_game::ThresholdStrategy;
    use sprint_workloads::generator::Population;
    use sprint_workloads::Benchmark;

    fn small_game(n: u32) -> GameConfig {
        GameConfig::builder()
            .n_agents(n)
            .n_min(f64::from(n) * 0.25)
            .n_max(f64::from(n) * 0.75)
            .build()
            .unwrap()
    }

    fn streams(b: Benchmark, n: u32, seed: u64) -> Vec<PhasedUtility> {
        Population::homogeneous(b, n as usize)
            .unwrap()
            .spawn_streams(seed)
            .unwrap()
    }

    /// One unguarded, unobserved run on `jobs` threads.
    fn run_at(
        config: &SimConfig,
        streams: &mut [PhasedUtility],
        policy: &mut dyn SprintPolicy,
        jobs: usize,
    ) -> crate::Result<SimResult> {
        run_guarded(
            config,
            streams,
            policy,
            &RunGuard::default(),
            jobs,
            &mut Telemetry::noop(),
        )
    }

    #[test]
    fn validates_inputs() {
        let game = small_game(10);
        assert!(SimConfig::new(game, 0, 1).is_err());
        let cfg = SimConfig::new(game, 10, 1).unwrap();
        let mut too_few = streams(Benchmark::Svm, 5, 1);
        assert!(run_at(&cfg, &mut too_few, &mut Greedy::new(), 1).is_err());
    }

    #[test]
    fn horizon_is_bounded_by_the_epoch_lane_width() {
        // The u32 epoch lanes are exact because no accepted run has an
        // epoch index at the saturation value.
        let game = small_game(10);
        assert!(SimConfig::new(game, MAX_EPOCHS as usize, 1).is_ok());
        if let Ok(over) = usize::try_from(u64::from(MAX_EPOCHS) + 1) {
            let err = SimConfig::new(game, over, 1).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidParameter { name: "epochs", .. }),
                "got {err}"
            );
        }
        assert_eq!(epoch_after(5, 7), 12);
        assert_eq!(epoch_after(MAX_EPOCHS - 2, 1), MAX_EPOCHS - 1);
        assert_eq!(epoch_after(MAX_EPOCHS - 1, 1), MAX_EPOCHS);
        assert_eq!(epoch_after(MAX_EPOCHS - 1, 2), MAX_EPOCHS);
        assert_eq!(epoch_after(7, u64::MAX), MAX_EPOCHS);
        // A tiny exit probability draws a gap far past any u32 horizon;
        // the lane holds the saturated mark.
        let scale = 1.0 / (1.0 - 1e-15f64).ln();
        assert!(geometric_gap(0.5, scale) > u64::from(MAX_EPOCHS));
        assert_eq!(epoch_after(0, geometric_gap(0.5, scale)), MAX_EPOCHS);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = SimConfig::new(small_game(50), 200, 42).unwrap();
        let r1 = run_at(
            &cfg,
            &mut streams(Benchmark::DecisionTree, 50, 9),
            &mut Greedy::new(),
            1,
        )
        .unwrap();
        let r2 = run_at(
            &cfg,
            &mut streams(Benchmark::DecisionTree, 50, 9),
            &mut Greedy::new(),
            1,
        )
        .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn greedy_oscillates_between_sprints_and_recovery() {
        // Figure 6 top panel: full-system sprints, emergencies, idle
        // recovery.
        let cfg = SimConfig::new(small_game(100), 500, 3).unwrap();
        let mut s = streams(Benchmark::DecisionTree, 100, 3);
        let r = run_at(&cfg, &mut s, &mut Greedy::new(), 1).unwrap();
        assert!(r.trips() > 10, "greedy must trip repeatedly: {}", r.trips());
        let f = r.occupancy().fractions();
        assert!(f[2] > 0.4, "greedy spends >40% in recovery, got {}", f[2]);
        // First epoch: everyone sprints at once.
        assert_eq!(r.sprinters_per_epoch()[0], 100);
    }

    #[test]
    fn never_sprinting_never_trips() {
        let cfg = SimConfig::new(small_game(100), 300, 4).unwrap();
        let mut s = streams(Benchmark::PageRank, 100, 4);
        let never = ThresholdStrategy::new(1e9).unwrap();
        let mut policy = ThresholdPolicy::uniform("never", never, 100).unwrap();
        let r = run_at(&cfg, &mut s, &mut policy, 1).unwrap();
        assert_eq!(r.trips(), 0);
        assert!((r.tasks_per_agent_epoch() - 1.0).abs() < 1e-12);
        assert_eq!(r.occupancy().sprinting, 0);
        assert_eq!(r.occupancy().recovery, 0);
    }

    #[test]
    fn below_band_sprinting_is_safe_and_profitable() {
        // A high threshold keeps sprinters below N_min: no trips, and
        // throughput above 1.
        let cfg = SimConfig::new(small_game(100), 500, 5).unwrap();
        let mut s = streams(Benchmark::PageRank, 100, 5);
        let mut policy =
            ThresholdPolicy::uniform("safe", ThresholdStrategy::new(13.0).unwrap(), 100).unwrap();
        let r = run_at(&cfg, &mut s, &mut policy, 1).unwrap();
        // Expected sprinters ≈ 8 « N_min = 25; finite-N phase correlation
        // can brush the band at most rarely.
        assert!(r.trips() <= 1, "trips = {}", r.trips());
        assert!(r.tasks_per_agent_epoch() > 1.2);
        assert!(r.mean_sprinters() < 25.0);
    }

    #[test]
    fn occupancy_accounts_every_agent_epoch() {
        let cfg = SimConfig::new(small_game(60), 400, 6).unwrap();
        let mut s = streams(Benchmark::Kmeans, 60, 6);
        let r = run_at(&cfg, &mut s, &mut Greedy::new(), 1).unwrap();
        assert_eq!(r.occupancy().total(), 60 * 400);
    }

    #[test]
    fn recovery_ablation_raises_throughput() {
        let game = small_game(100);
        let mut idle_s = streams(Benchmark::DecisionTree, 100, 7);
        let mut norm_s = streams(Benchmark::DecisionTree, 100, 7);
        let idle = run_at(
            &SimConfig::new(game, 400, 7).unwrap(),
            &mut idle_s,
            &mut Greedy::new(),
            1,
        )
        .unwrap();
        let normal = run_at(
            &SimConfig::new(game, 400, 7)
                .unwrap()
                .with_recovery(RecoverySemantics::NormalMode),
            &mut norm_s,
            &mut Greedy::new(),
            1,
        )
        .unwrap();
        assert!(normal.tasks_per_agent_epoch() > idle.tasks_per_agent_epoch());
    }

    #[test]
    fn stagger_blocks_immediate_post_recovery_sprints() {
        // With a huge stagger, agents wake but cannot sprint within the
        // horizon, so at most one trip can ever occur.
        let game = small_game(50);
        let cfg = SimConfig::new(game, 200, 8).unwrap().with_stagger(10_000);
        let mut s = streams(Benchmark::LinearRegression, 50, 8);
        let r = run_at(&cfg, &mut s, &mut Greedy::new(), 1).unwrap();
        assert!(r.trips() <= 1, "trips = {}", r.trips());
    }

    #[test]
    fn noisy_estimation_validates_and_degrades_selectivity() {
        let game = small_game(100);
        // Negative noise is rejected.
        let bad = SimConfig::new(game, 10, 1)
            .unwrap()
            .with_estimation(UtilityEstimation::Noisy { relative_sd: -0.5 });
        let mut s = streams(Benchmark::PageRank, 100, 1);
        let mut p =
            ThresholdPolicy::uniform("t", ThresholdStrategy::new(5.0).unwrap(), 100).unwrap();
        assert!(run_at(&bad, &mut s, &mut p, 1).is_err());

        // With huge noise the threshold loses selectivity: sprinted
        // epochs no longer concentrate on high utilities, so throughput
        // falls versus the oracle.
        let run = |est: UtilityEstimation, seed: u64| {
            let cfg = SimConfig::new(game, 600, seed)
                .unwrap()
                .with_estimation(est);
            let mut s = streams(Benchmark::PageRank, 100, seed);
            let mut p =
                ThresholdPolicy::uniform("t", ThresholdStrategy::new(5.27).unwrap(), 100).unwrap();
            run_at(&cfg, &mut s, &mut p, 1)
                .unwrap()
                .tasks_per_agent_epoch()
        };
        let oracle = run(UtilityEstimation::Oracle, 5);
        let noisy = run(UtilityEstimation::Noisy { relative_sd: 2.0 }, 5);
        assert!(
            noisy < oracle,
            "noisy {noisy} should fall below oracle {oracle}"
        );
    }

    #[test]
    fn truncated_interruption_only_reduces_tripped_epochs() {
        let game = small_game(100);
        let run = |mode: TripInterruption| {
            let cfg = SimConfig::new(game, 500, 3)
                .unwrap()
                .with_interruption(mode);
            let mut s = streams(Benchmark::DecisionTree, 100, 3);
            run_at(&cfg, &mut s, &mut Greedy::new(), 1).unwrap()
        };
        let ups = run(TripInterruption::CompleteOnUps);
        let truncated = run(TripInterruption::Truncated);
        // Same seed, same decisions: identical dynamics, less credit.
        assert_eq!(ups.sprinters_per_epoch(), truncated.sprinters_per_epoch());
        assert_eq!(ups.trips(), truncated.trips());
        assert!(truncated.total_tasks() < ups.total_tasks());
    }

    #[test]
    fn pre_trip_fraction_shape() {
        let game = small_game(1000);
        // Below the band: full epoch.
        assert_eq!(pre_trip_fraction(&game, 100.0), 1.0);
        // Monotone non-increasing in overload severity, bounded.
        let mut last = 1.0;
        for n in (250..=2000).step_by(125) {
            let f = pre_trip_fraction(&game, f64::from(n));
            assert!(f <= last + 1e-12, "fraction must not increase");
            assert!((0.05..=1.0).contains(&f));
            last = f;
        }
        // At N_max (m = 1.75): t = 161.56 / (1.75² − 1) ≈ 78 s of 150.
        let at_max = pre_trip_fraction(&game, 750.0);
        assert!(
            (at_max - 0.522).abs() < 0.01,
            "fraction at N_max = {at_max}"
        );
    }

    #[test]
    fn sprint_utilities_are_collected() {
        // One agent, always sprinting, never tripping (N_min above 1):
        // throughput equals the mean utility (alternating with cooling).
        let game = GameConfig::builder()
            .n_agents(1)
            .n_min(5.0)
            .n_max(6.0)
            .p_cooling(0.0)
            .build()
            .unwrap();
        let cfg = SimConfig::new(game, 1000, 9).unwrap();
        let mut s = streams(Benchmark::LinearRegression, 1, 9);
        let r = run_at(&cfg, &mut s, &mut Greedy::new(), 1).unwrap();
        // Alternates sprint (mean 4.0) and cooling (1.0): ≈ 2.5.
        let tpe = r.tasks_per_agent_epoch();
        assert!((2.2..=2.8).contains(&tpe), "tasks/epoch = {tpe}");
        assert_eq!(r.trips(), 0);
    }

    #[test]
    fn deadline_error_reports_the_configured_limit() {
        let cfg = SimConfig::new(small_game(50), 100_000, 1).unwrap();
        let mut s = streams(Benchmark::PageRank, 50, 1);
        let mut policy = Greedy::new();
        // Already-expired deadline with a nonzero configured limit: the
        // error must echo the limit, not 0.
        let d = Deadline::new(std::time::Instant::now(), 40);
        let guard = RunGuard {
            deadline: Some(d),
            cancel: None,
        };
        let err =
            run_guarded(&cfg, &mut s, &mut policy, &guard, 1, &mut Telemetry::noop()).unwrap_err();
        match err {
            SimError::DeadlineExceeded { limit_ms, .. } => assert_eq!(limit_ms, 40),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert!(err.to_string().contains("40 ms"), "display: {err}");
        // Postponed past now, the same deadline lets the run finish and
        // still reports its own limit.
        let later = d.postponed(std::time::Duration::from_secs(3600));
        assert!(d.expired() && !later.expired());
        assert_eq!(later.limit_ms(), 40);
    }

    /// A threshold rule that hides its static snapshot, forcing the
    /// serial decide loop and Settle pass the stateful policies use.
    struct DynamicThreshold(Vec<f64>);

    impl SprintPolicy for DynamicThreshold {
        fn name(&self) -> &'static str {
            "dynamic-threshold"
        }
        fn wants_sprint(&mut self, agent: usize, utility: f64) -> bool {
            utility > self.0[agent]
        }
    }

    #[test]
    fn fused_kernel_matches_the_serial_decide_path_bitwise() {
        // Same rule, two execution paths: the fused pass (static
        // decider) and the serial decide loop + Settle pass must agree bit
        // for bit, including under faults and noisy estimation.
        let game = small_game(300);
        let cfg = SimConfig::new(game, 400, 21)
            .unwrap()
            .with_estimation(UtilityEstimation::Noisy { relative_sd: 0.3 })
            .with_faults(FaultPlan::composite(99));
        let thresholds = vec![5.0; 300];
        let mut fused_policy = ThresholdPolicy::new("E-T", thresholds.clone()).unwrap();
        let fused = run_at(
            &cfg,
            &mut streams(Benchmark::PageRank, 300, 21),
            &mut fused_policy,
            1,
        )
        .unwrap();
        let serial = run_at(
            &cfg,
            &mut streams(Benchmark::PageRank, 300, 21),
            &mut DynamicThreshold(thresholds),
            1,
        )
        .unwrap();
        assert_eq!(fused, serial);
        assert_eq!(
            fused.total_tasks().to_bits(),
            serial.total_tasks().to_bits()
        );
    }

    #[test]
    fn every_pass_survives_its_pool_ticket() {
        for epoch in [0, u32::MAX - 1] {
            for mode in [KernelMode::Advance, KernelMode::Fused, KernelMode::Settle] {
                for tripped in [false, true] {
                    for recovering in [false, true] {
                        let ticket = PoolCtrl::encode(epoch, mode, tripped, recovering);
                        assert_ne!(ticket, 0);
                        assert_ne!(ticket, POOL_SHUTDOWN);
                        assert_eq!(
                            PoolCtrl::decode(ticket),
                            (epoch, mode, tripped, recovering),
                            "ticket {ticket:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn results_are_byte_identical_at_any_job_count() {
        // More agents than one chunk so multiple chunks actually move
        // between workers; faults + noise exercise every draw site.
        let game = small_game(2500);
        let cfg = SimConfig::new(game, 120, 77)
            .unwrap()
            .with_estimation(UtilityEstimation::Noisy { relative_sd: 0.2 })
            .with_faults(FaultPlan::composite(5));
        let run_with = |jobs: usize| {
            let mut s = streams(Benchmark::DecisionTree, 2500, 77);
            let mut p = ThresholdPolicy::uniform("E-T", ThresholdStrategy::new(2.0).unwrap(), 2500)
                .unwrap();
            run_at(&cfg, &mut s, &mut p, jobs).unwrap()
        };
        let serial = run_with(1);
        for jobs in [2, 3, 4, 8] {
            let parallel = run_with(jobs);
            assert_eq!(serial, parallel, "jobs = {jobs}");
            assert_eq!(
                serial.total_tasks().to_bits(),
                parallel.total_tasks().to_bits(),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn greedy_decision_count_matches_across_paths_and_jobs() {
        // The fused kernel reports decisions through `note_decisions`;
        // the count must equal the serial path's `wants_sprint` calls.
        let cfg = SimConfig::new(small_game(1500), 150, 13).unwrap();
        let count_with = |jobs: usize| {
            let mut s = streams(Benchmark::Kmeans, 1500, 13);
            let mut g = Greedy::new();
            run_at(&cfg, &mut s, &mut g, jobs).unwrap();
            g.decisions()
        };
        let serial = count_with(1);
        assert!(serial > 0);
        assert_eq!(serial, count_with(4));
    }

    #[test]
    fn chunk_size_is_part_of_the_spec_and_jobs_invariant() {
        // At every chunk size, results are byte-identical across job
        // counts (the pool partition follows the chunk grid), and the
        // fused kernel still matches the serial decide path bitwise.
        let game = small_game(2500);
        for chunk in [256usize, 1000, 4096] {
            let cfg = SimConfig::new(game, 120, 31)
                .unwrap()
                .with_faults(FaultPlan::composite(7))
                .with_chunk_agents(chunk);
            let run_with = |jobs: usize| {
                let mut s = streams(Benchmark::DecisionTree, 2500, 31);
                let mut p =
                    ThresholdPolicy::uniform("E-T", ThresholdStrategy::new(2.0).unwrap(), 2500)
                        .unwrap();
                run_at(&cfg, &mut s, &mut p, jobs).unwrap()
            };
            let serial = run_with(1);
            for jobs in [2, 3, 8] {
                let parallel = run_with(jobs);
                assert_eq!(serial, parallel, "chunk = {chunk}, jobs = {jobs}");
                assert_eq!(
                    serial.total_tasks().to_bits(),
                    parallel.total_tasks().to_bits(),
                    "chunk = {chunk}, jobs = {jobs}"
                );
            }
            // Fused vs serial-decide bitwise equality at this chunk size.
            let thresholds = vec![2.0; 2500];
            let mut s = streams(Benchmark::DecisionTree, 2500, 31);
            let dynamic = run_at(&cfg, &mut s, &mut DynamicThreshold(thresholds), 4).unwrap();
            assert_eq!(
                serial.total_tasks().to_bits(),
                dynamic.total_tasks().to_bits(),
                "chunk = {chunk}: fused vs serial decide"
            );
        }
    }

    #[test]
    fn zero_chunk_agents_is_rejected() {
        let cfg = SimConfig::new(small_game(50), 10, 1)
            .unwrap()
            .with_chunk_agents(0);
        let mut s = streams(Benchmark::Svm, 50, 1);
        let err = run_at(&cfg, &mut s, &mut Greedy::new(), 1).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidParameter {
                name: "chunk_agents",
                ..
            }
        ));
    }

    #[test]
    fn run_options_serde_omits_default_chunk_and_defaults_when_absent() {
        // Specs written before `chunk_agents` existed keep their exact
        // bytes (field omitted at its default) and still parse (field
        // defaults when absent).
        let default = RunOptions::default();
        let serde::Value::Object(obj) = serde::Serialize::to_value(&default) else {
            panic!("RunOptions must serialize to an object");
        };
        assert!(
            serde::__field(&obj, "chunk_agents").is_none(),
            "default chunk must be omitted on the wire"
        );
        let back: RunOptions = serde::Deserialize::from_value(&serde::Value::Object(obj)).unwrap();
        assert_eq!(back, default);

        let tuned = RunOptions {
            chunk_agents: 512,
            ..RunOptions::default()
        };
        let value = serde::Serialize::to_value(&tuned);
        let serde::Value::Object(obj) = &value else {
            panic!("RunOptions must serialize to an object");
        };
        assert!(serde::__field(obj, "chunk_agents").is_some());
        let back: RunOptions = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, tuned);

        // An absent field takes `RunOptions::default()`'s value, not its
        // type's: `{}` is the default bundle, and a bundle written
        // without `stagger_epochs` keeps the paper's two epochs, not 0.
        let empty: RunOptions =
            serde::Deserialize::from_value(&serde::Value::Object(Vec::new())).unwrap();
        assert_eq!(empty, default);
        let idle_free = RunOptions {
            recovery: RecoverySemantics::NormalMode,
            ..RunOptions::default()
        };
        let serde::Value::Object(mut obj) = serde::Serialize::to_value(&idle_free) else {
            panic!("RunOptions must serialize to an object");
        };
        obj.retain(|(name, _)| name != "stagger_epochs");
        let back: RunOptions = serde::Deserialize::from_value(&serde::Value::Object(obj)).unwrap();
        assert_eq!(back.stagger_epochs, 2);
        assert_eq!(back, idle_free);
    }

    #[test]
    fn cancel_before_start_shuts_the_pool_down_cleanly() {
        // A pre-cancelled token must surface as a typed error without
        // deadlocking the pool's scoped join (the shutdown guard runs on
        // the error path before the scope joins parked workers).
        let cfg = SimConfig::new(small_game(5000), 1000, 3).unwrap();
        let mut s = streams(Benchmark::PageRank, 5000, 3);
        let token = CancelToken::new();
        token.cancel();
        let guard = RunGuard {
            deadline: None,
            cancel: Some(token),
        };
        let err = run_guarded(
            &cfg,
            &mut s,
            &mut Greedy::new(),
            &guard,
            4,
            &mut Telemetry::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Cancelled { .. }), "got {err}");
    }

    #[test]
    fn mid_run_cancel_is_honored_at_checkpoints_with_the_pool_live() {
        // Cancel from another thread while the pooled epoch loop runs:
        // the run must stop at a cooperative checkpoint with the typed
        // error, and the pool must join (the test completing at all is
        // the no-deadlock assertion).
        let cfg = SimConfig::new(small_game(5000), 200_000, 9).unwrap();
        let mut s = streams(Benchmark::DecisionTree, 5000, 9);
        let token = CancelToken::new();
        let canceller = token.clone();
        let hand = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            canceller.cancel();
        });
        let guard = RunGuard {
            deadline: None,
            cancel: Some(token),
        };
        let out = run_guarded(
            &cfg,
            &mut s,
            &mut Greedy::new(),
            &guard,
            4,
            &mut Telemetry::noop(),
        );
        hand.join().unwrap();
        // On a fast machine the run may legitimately finish first; when
        // it does not, the error must be the typed cancellation.
        if let Err(err) = out {
            assert!(matches!(err, SimError::Cancelled { .. }), "got {err}");
        }
    }

    /// A policy whose static decider is mis-sized: any span that decides
    /// with it panics on the out-of-bounds threshold index.
    struct BrokenDecider;

    impl SprintPolicy for BrokenDecider {
        fn name(&self) -> &'static str {
            "broken-decider"
        }
        fn wants_sprint(&mut self, _agent: usize, _utility: f64) -> bool {
            true
        }
        fn static_decider(&self) -> Option<StaticDecider> {
            Some(StaticDecider::PerAgent(vec![0.0; 8].into()))
        }
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error_without_deadlock() {
        // Every span (coordinator's own included) panics on the broken
        // decider; the pool must convert it to `WorkerPanicked` and join
        // instead of deadlocking at the barrier or aborting the process.
        let cfg = SimConfig::new(small_game(5000), 100, 11).unwrap();
        for jobs in [2usize, 4, 8] {
            let mut s = streams(Benchmark::Kmeans, 5000, 11);
            let err = run_at(&cfg, &mut s, &mut BrokenDecider, jobs).unwrap_err();
            assert!(
                matches!(err, SimError::WorkerPanicked { .. }),
                "jobs = {jobs}: got {err}"
            );
        }
    }

    #[test]
    fn pool_exports_utilization_gauges_when_observed() {
        let cfg = SimConfig::new(small_game(5000), 200, 17).unwrap();
        let mut s = streams(Benchmark::PageRank, 5000, 17);
        let mut telemetry = Telemetry::in_memory();
        run_guarded(
            &cfg,
            &mut s,
            &mut Greedy::new(),
            &RunGuard::default(),
            4,
            &mut telemetry,
        )
        .unwrap();
        let workers = telemetry
            .registry
            .gauge_value("engine.pool.workers")
            .expect("pooled observed runs export engine.pool.workers");
        assert!(workers >= 2.0, "workers = {workers}");
        let util = telemetry
            .registry
            .gauge_value("engine.pool.utilization")
            .expect("pooled observed runs export engine.pool.utilization");
        assert!((0.0..=1.0).contains(&util), "utilization = {util}");
    }

    #[test]
    fn phase_kernel_keeps_each_cohorts_sampler_and_scale() {
        // Runs of one cohort, a return to an earlier cohort, and one-off
        // streams whose persistence differs: every agent must resolve to
        // its own cohort's table and gap scale.
        let spawned = Population::heterogeneous(&[Benchmark::Svm, Benchmark::PageRank], 4)
            .unwrap()
            .spawn_streams(5)
            .unwrap();
        let one_off = |persistence: f64| {
            PhasedUtility::new(Benchmark::Kmeans.speedup_distribution(), persistence, 9).unwrap()
        };
        let mut mixed = vec![
            spawned[0].clone(),
            spawned[2].clone(),
            spawned[1].clone(),
            spawned[3].clone(),
            spawned[0].clone(),
        ];
        mixed.extend([one_off(1.0), one_off(8.0), spawned[1].clone()]);
        let arrivals = Arrivals::from_streams(&mixed).unwrap();
        let kernel = PhaseKernel::new(&arrivals);
        assert_eq!(kernel.cohorts.len(), 4);
        assert_eq!(kernel.cohort_of, [0, 0, 1, 1, 0, 2, 3, 1]);
        for (a, s) in mixed.iter().enumerate() {
            let scale = 1.0 / (1.0 - s.resample_probability()).ln();
            for u in [0.1, 0.5, 0.9, 0.999] {
                assert_eq!(kernel.gap(a, u), geometric_gap(u, scale), "agent {a}");
            }
            let w = 0x0123_4567_89AB_CDEF_u64.rotate_left(a as u32);
            let direct = AliasSampler::new(s.sample_table());
            let u = |x: u32| f64::from(x) / 4_294_967_296.0;
            assert_eq!(
                kernel.sample(a, w),
                direct.sample(u((w >> 32) as u32), u(w as u32)),
                "agent {a}"
            );
        }
    }

    #[test]
    fn phase_kernel_keeps_a_cohort_lane_only_for_several_cohorts() {
        // One cohort needs no lane; round-robin types keep it. Either
        // way every table draw equals the logarithm's at the word's
        // uniform.
        for (benchmarks, lane) in [
            (&[Benchmark::Svm][..], false),
            (&[Benchmark::Svm, Benchmark::PageRank][..], true),
        ] {
            let arrivals = Population::heterogeneous(benchmarks, 6)
                .unwrap()
                .arrivals(5, 1)
                .unwrap();
            let kernel = PhaseKernel::new(&arrivals);
            assert_eq!(kernel.cohort_of.is_empty(), !lane, "{benchmarks:?}");
            let rng = CounterRng::new(3, 4);
            for a in 0..arrivals.len() {
                for w in (0..2000).map(|e| rng.word(a as u64, e, 0)) {
                    let u = (w >> 11) as f64 / (1u64 << 53) as f64;
                    assert_eq!(kernel.next_gap(a, w), kernel.gap(a, u), "agent {a}");
                }
            }
        }
    }

    /// The policy of case `k`: G, E-B, E-T, C-T, or the adaptive
    /// learner, fresh for each run.
    fn replay_policy(scenario: &crate::scenario::Scenario, k: usize) -> Box<dyn SprintPolicy> {
        use crate::policies::AdaptiveThreshold;
        use crate::policy::PolicyKind;
        match k {
            0..=3 => scenario
                .policy(PolicyKind::ALL[k], 5, &mut Telemetry::noop())
                .unwrap(),
            _ => Box::new(
                AdaptiveThreshold::new(
                    *scenario.game(),
                    scenario.mixture_density().unwrap(),
                    0.2,
                    10,
                    1.0,
                )
                .unwrap(),
            ),
        }
    }

    /// A run from arrivals — live, and replaying a recording of them —
    /// equals [`run_guarded`] on the same population's streams bit for
    /// bit: the serialized result and every agent's final phase.
    #[test]
    fn a_replayed_run_equals_the_live_run_bitwise() {
        use crate::faults::StuckSprinters;
        use crate::scenario::Scenario;

        const EPOCHS: usize = 48;
        // Three cohorts, so the recording spans several samplers; 1100
        // agents make a full and a partial chunk of 1000, or 158 chunks
        // of 7.
        let scenario = Scenario::heterogeneous(
            &[Benchmark::Svm, Benchmark::PageRank, Benchmark::Kmeans],
            1100,
            EPOCHS,
        )
        .unwrap();
        let streams = scenario.population().spawn_streams(13).unwrap();
        let built = scenario.population().arrivals(13, 2).unwrap();
        // A recording longer than every run below.
        let mut track = PhaseTrack::default();
        assert!(track
            .record(&built, EPOCHS + 40, &RunGuard::default())
            .unwrap());
        assert!(track.covers(built.len(), EPOCHS));
        assert!(!track.covers(built.len(), EPOCHS + 41));
        assert!(!track.covers(built.len() + 1, EPOCHS));

        let stuck_only = FaultPlan {
            seed: 3,
            stuck: Some(StuckSprinters {
                stick_probability: 0.1,
                p_stuck_stay: 0.7,
            }),
            ..FaultPlan::none()
        };
        let plans = [FaultPlan::none(), FaultPlan::composite(11), stuck_only];
        let mut case = 0usize;
        // G, E-B, E-T, C-T, adaptive, and E-T under a kit that wants
        // decision events (the serial decide loop).
        for k in 0..6 {
            for (p, plan) in plans.iter().enumerate() {
                for (jobs, chunk) in [(1, 1000), (3, 1000), (1, 7), (3, 7)] {
                    let estimation = if (k + p) % 2 == 0 {
                        UtilityEstimation::Oracle
                    } else {
                        UtilityEstimation::Noisy { relative_sd: 0.2 }
                    };
                    let options = RunOptions {
                        faults: *plan,
                        estimation,
                        chunk_agents: chunk,
                        ..RunOptions::default()
                    };
                    let config = SimConfig::new(*scenario.game(), EPOCHS, 17)
                        .unwrap()
                        .with_options(options);
                    let policy = || replay_policy(&scenario, if k == 5 { 2 } else { k });
                    let telemetry = || {
                        if k == 5 {
                            Telemetry::in_memory()
                        } else {
                            Telemetry::noop()
                        }
                    };
                    let run = |track: Option<&PhaseTrack>| {
                        let (result, phases) = run_replaying(
                            &config,
                            &built,
                            policy().as_mut(),
                            &RunGuard::default(),
                            jobs,
                            &mut telemetry(),
                            track,
                        )
                        .unwrap();
                        let phases: Vec<u64> = phases.iter().map(|p| p.to_bits()).collect();
                        (serde_json::to_string(&result).unwrap(), phases)
                    };
                    let mut streamed = streams.clone();
                    let result = run_guarded(
                        &config,
                        &mut streamed,
                        policy().as_mut(),
                        &RunGuard::default(),
                        jobs,
                        &mut telemetry(),
                    )
                    .unwrap();
                    let streamed = (
                        serde_json::to_string(&result).unwrap(),
                        streamed
                            .iter()
                            .map(|s| s.phase_value().to_bits())
                            .collect::<Vec<_>>(),
                    );
                    let live = run(None);
                    let replayed = run(Some(&track));
                    let case_name =
                        format!("policy {k}, plan {p}, jobs {jobs}, chunk {chunk}, {estimation:?}");
                    assert!(live == streamed, "live: {case_name}");
                    assert!(replayed == streamed, "replayed: {case_name}");
                    case += 1;
                }
            }
        }
        assert_eq!(case, 72);
    }

    #[test]
    fn a_recording_over_the_cap_or_stopped_keeps_nothing() {
        let built = Population::homogeneous(Benchmark::Svm, 1000)
            .unwrap()
            .arrivals(3, 1)
            .unwrap();
        let mut track = PhaseTrack::default();
        assert!(track.record(&built, 30, &RunGuard::default()).unwrap());
        assert!(track.covers(1000, 30));
        // 1000 agents resampling a third of the time over 6000 epochs
        // expect 2M events, 24 MB: past the cap before any work.
        assert!(!track.record(&built, 6000, &RunGuard::default()).unwrap());
        assert!(
            !track.covers(1000, 30),
            "a refused recording drops the old one"
        );
        // A fired token stops the recording at its first checkpoint.
        let token = CancelToken::new();
        token.cancel();
        let guard = RunGuard {
            deadline: None,
            cancel: Some(token),
        };
        assert!(track.record(&built, 30, &RunGuard::default()).unwrap());
        assert!(matches!(
            track.record(&built, 30, &guard),
            Err(SimError::Cancelled { .. })
        ));
        assert!(!track.covers(1000, 1), "a stopped recording keeps nothing");
        assert!(track.agents.is_empty() && track.starts.is_empty());
    }
}

//! The supervised coordinator↔agent control plane.
//!
//! The paper's architecture (§2.3, Figure 4) separates an *offline*
//! coordinator — collect profiles, run Algorithm 1, hand each agent a
//! threshold strategy — from *online* agents that self-enforce the
//! assigned equilibrium. The base [`sprint_game::coordinator`] assumes
//! that handoff rides a lossless, instantaneous channel. This module
//! drops that assumption: messages flow through an injectable
//! [`Transport`] that may lose, delay, duplicate, or partition them,
//! and the protocol is built to survive it.
//!
//! The protocol, epoch by epoch:
//!
//! - **Messages** ([`Payload`]): agents send `ProfileReport` (once, at
//!   enrollment) and periodic `Heartbeat`s; the coordinator answers
//!   with `StrategyAssign` carrying a threshold and a lease; agents
//!   `Ack` adoption. Every message is idempotent, so duplicates and
//!   stale retransmissions are harmless.
//! - **Leases**: a `StrategyAssign` is valid for
//!   [`ControlConfig::lease_epochs`]. Agents heartbeat well inside the
//!   lease to renew it; an agent whose renewals go unanswered retries
//!   on a bounded exponential backoff with seeded jitter
//!   ([`sprint_game::retry`]).
//! - **Suspicion**: the coordinator marks agents silent for more than
//!   [`ControlConfig::suspect_after`] epochs as suspect and re-solves
//!   the equilibrium over the surviving population; a heartbeat from a
//!   suspect re-enrolls it (and triggers another re-solve).
//! - **Degradation ladder** ([`ControlTier`]): every agent holds a
//!   valid threshold at every epoch. Preferred: a leased, freshly
//!   solved equilibrium. If the coordinator is unreachable or its
//!   solve fails ([`sprint_game::GameError::NonConvergence`] under an
//!   iteration budget), the agent runs its last assignment stamped
//!   stale; past a grace window it falls to the provably breaker-safe
//!   conservative threshold. Each rung transition emits one typed
//!   [`Event::TierShift`], and the climb back to the equilibrium tier
//!   is measured into a recovery-latency histogram.
//!
//! On top of the ladder sits the **online adversary defense** (§6.4
//! made operational): when a [`DetectorConfig`] is attached, a rack-side
//! dynamics model simulates actual sprinting — honest agents follow
//! their held thresholds, an optional [`AdversaryMix`] misbehaves — and
//! panel sensors report per-agent sprint counts over the same lossy
//! transport. The coordinator runs a per-agent CUSUM test on the
//! observed sprint-rate-given-active against the rate the assigned
//! threshold implies under the density, and walks detected agents up a
//! graduated sanctions ladder (warn → timed revocation → probation →
//! permanent exclusion) instead of the grim trigger's one-shot ban.
//! Detection uses only delivered control-plane messages — never engine
//! ground truth and never scheduling order — so runs stay
//! bit-reproducible.
//!
//! Everything is deterministic: transport faults draw from a dedicated
//! seeded stream, backoff jitter is seeded per participant, rack-model
//! randomness is counter-based per `(agent, epoch)`, and agents are
//! iterated in index order — the same seed yields a bit-identical
//! [`ControlReport`].

use rand::rngs::StdRng;
use rand::Rng;

use sprint_game::cache::EquilibriumCache;
use sprint_game::meanfield::SolverOptions;
use sprint_game::retry::BackoffSchedule;
use sprint_game::trip::TripCurve;
use sprint_game::{GameConfig, MeanFieldSolver, RetryPolicy};
use sprint_stats::density::{AliasSampler, DiscreteDensity};
use sprint_stats::rng::{seeded_rng, CounterRng};
use sprint_telemetry::{ControlTier, Event, EventKind, FaultKind, SanctionLevel, Telemetry};

use crate::faults::{FaultPlan, RackPartition, SensorFault, TransportFault};
use crate::policies::AdversaryMix;
use crate::SimError;

/// Where a control-plane message is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Address {
    /// The rack coordinator.
    Coordinator,
    /// One agent, by index.
    Agent {
        /// Agent index.
        id: u32,
    },
}

/// A control-plane message body.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Payload {
    /// A sprint-activity report for one agent. At enrollment agents send
    /// an empty report (`window_end == 0`); when the defense subsystem
    /// is active, rack-side panel sensors send one per observation
    /// window with the counts the coordinator's detector consumes.
    ProfileReport {
        /// Reported agent.
        agent: u32,
        /// Sprints the panel sensor counted in the window (noisy under
        /// a [`SensorFault`]).
        sprints: u32,
        /// Epochs the agent was observably active (powered and not
        /// cooling) in the window.
        active: u32,
        /// Epoch the window closed, plus one; `0` marks an enrollment
        /// report carrying no observation. Monotone per agent, so
        /// duplicated or reordered deliveries are discarded.
        window_end: u32,
    },
    /// An agent signals liveness and asks for lease renewal.
    Heartbeat {
        /// Heartbeating agent.
        agent: u32,
    },
    /// The coordinator assigns (or renews) a leased strategy.
    StrategyAssign {
        /// Receiving agent.
        agent: u32,
        /// Assigned sprint threshold.
        threshold: f64,
        /// Advertised stationary tripping probability.
        trip_probability: f64,
        /// Lease duration, in epochs from receipt.
        lease_epochs: u32,
        /// Whether the strategy came from the stale-cache tier (the
        /// coordinator could not produce a fresh solve).
        stale: bool,
    },
    /// An agent acknowledges an adopted assignment.
    Ack {
        /// Acknowledging agent.
        agent: u32,
    },
}

impl Payload {
    /// The agent on whose behalf this message travels (for partition
    /// checks on coordinator-bound traffic).
    #[must_use]
    pub fn agent(&self) -> u32 {
        match *self {
            Payload::ProfileReport { agent, .. }
            | Payload::Heartbeat { agent }
            | Payload::StrategyAssign { agent, .. }
            | Payload::Ack { agent } => agent,
        }
    }
}

/// One queued control-plane message.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Envelope {
    /// Destination.
    pub to: Address,
    /// Message body.
    pub payload: Payload,
    /// Epoch the sender handed it to the transport.
    pub sent_epoch: usize,
}

/// Cumulative transport counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct TransportStats {
    /// Messages handed to the transport.
    pub sent: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages silently dropped by the lossy channel.
    pub lost: u64,
    /// Messages delivered late.
    pub delayed: u64,
    /// Extra deliveries from duplication.
    pub duplicated: u64,
    /// Messages dropped because an endpoint was partitioned.
    pub partition_drops: u64,
}

/// The injectable message channel between coordinator and agents.
///
/// Implementations must be deterministic: the delivery schedule may
/// depend only on the messages sent and the transport's own seed.
/// Minimum latency is one epoch — a message sent at epoch `e` is
/// deliverable at `e + 1` at the earliest — so the control plane never
/// depends on same-epoch round trips.
pub trait Transport {
    /// Queue a message.
    fn send(&mut self, env: Envelope);
    /// Remove and return every message due at `epoch`, in a
    /// deterministic order.
    fn deliver(&mut self, epoch: usize) -> Vec<Envelope>;
    /// Cumulative counters.
    fn stats(&self) -> TransportStats;
    /// Drain the log of fault activations since the last call
    /// (empty for well-behaved transports).
    fn drain_faults(&mut self) -> Vec<(usize, FaultKind)> {
        Vec::new()
    }
}

/// A reliable transport: every message arrives exactly once, one epoch
/// after it was sent, in send order.
#[derive(Debug, Default)]
pub struct PerfectTransport {
    queue: Vec<(usize, u64, Envelope)>,
    seq: u64,
    stats: TransportStats,
}

impl PerfectTransport {
    /// An empty reliable transport.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for PerfectTransport {
    fn send(&mut self, env: Envelope) {
        self.stats.sent += 1;
        self.queue.push((env.sent_epoch + 1, self.seq, env));
        self.seq += 1;
    }

    fn deliver(&mut self, epoch: usize) -> Vec<Envelope> {
        let mut due: Vec<(usize, u64, Envelope)> = Vec::new();
        self.queue.retain(|item| {
            if item.0 <= epoch {
                due.push(*item);
                false
            } else {
                true
            }
        });
        due.sort_by_key(|&(_, seq, _)| seq);
        self.stats.delivered += due.len() as u64;
        due.into_iter().map(|(_, _, env)| env).collect()
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// A deterministic fault-injecting transport: message loss, delay,
/// duplication ([`TransportFault`]) and rack partitions
/// ([`RackPartition`]), all drawn from a dedicated seeded stream.
///
/// Partition semantics: a message is dropped when its agent endpoint is
/// cut at the *send* epoch or at the delivery epoch — in-flight traffic
/// does not survive a partition closing around it, and nothing is
/// queued for later.
#[derive(Debug)]
pub struct FaultyTransport {
    fault: Option<TransportFault>,
    partition: Option<RackPartition>,
    n_agents: u32,
    queue: Vec<(usize, u64, Envelope)>,
    seq: u64,
    rng: StdRng,
    stats: TransportStats,
    fault_log: Vec<(usize, FaultKind)>,
}

impl FaultyTransport {
    /// Build from a fault plan's transport components. With both absent
    /// the behavior is identical to [`PerfectTransport`].
    #[must_use]
    pub fn new(plan: &FaultPlan, n_agents: u32, seed: u64) -> Self {
        FaultyTransport {
            fault: plan.transport,
            partition: plan.partition,
            n_agents,
            queue: Vec::new(),
            seq: 0,
            rng: seeded_rng(seed ^ plan.seed.rotate_left(29) ^ 0xC0_117),
            stats: TransportStats::default(),
            fault_log: Vec::new(),
        }
    }

    fn cut(&self, epoch: usize, agent: u32) -> bool {
        self.partition
            .is_some_and(|p| p.cuts(epoch, agent, self.n_agents))
    }

    fn enqueue(&mut self, env: Envelope, extra_delay: usize) {
        self.queue
            .push((env.sent_epoch + 1 + extra_delay, self.seq, env));
        self.seq += 1;
    }
}

impl Transport for FaultyTransport {
    fn send(&mut self, env: Envelope) {
        self.stats.sent += 1;
        let agent = env.payload.agent();
        if self.cut(env.sent_epoch, agent) {
            self.stats.partition_drops += 1;
            self.fault_log.push((env.sent_epoch, FaultKind::Partition));
            return;
        }
        let Some(f) = self.fault else {
            self.enqueue(env, 0);
            return;
        };
        if self.rng.gen::<f64>() < f.loss_probability {
            self.stats.lost += 1;
            self.fault_log
                .push((env.sent_epoch, FaultKind::MessageLoss));
            return;
        }
        let delay = if f.max_delay_epochs > 0 && self.rng.gen::<f64>() < f.delay_probability {
            let d = self.rng.gen_range(1..=f.max_delay_epochs) as usize;
            self.stats.delayed += 1;
            self.fault_log
                .push((env.sent_epoch, FaultKind::MessageDelay));
            d
        } else {
            0
        };
        self.enqueue(env, delay);
        if self.rng.gen::<f64>() < f.duplicate_probability {
            self.stats.duplicated += 1;
            self.fault_log
                .push((env.sent_epoch, FaultKind::MessageDuplicate));
            self.enqueue(env, delay);
        }
    }

    fn deliver(&mut self, epoch: usize) -> Vec<Envelope> {
        let mut due: Vec<(usize, u64, Envelope)> = Vec::new();
        self.queue.retain(|item| {
            if item.0 <= epoch {
                due.push(*item);
                false
            } else {
                true
            }
        });
        due.sort_by_key(|&(_, seq, _)| seq);
        let mut out = Vec::with_capacity(due.len());
        for (_, _, env) in due {
            if self.cut(epoch, env.payload.agent()) {
                self.stats.partition_drops += 1;
                self.fault_log.push((epoch, FaultKind::Partition));
                continue;
            }
            self.stats.delivered += 1;
            out.push(env);
        }
        out
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn drain_faults(&mut self) -> Vec<(usize, FaultKind)> {
        std::mem::take(&mut self.fault_log)
    }
}

/// Timing and retry knobs for the control plane.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ControlConfig {
    /// Epochs a `StrategyAssign` stays valid.
    pub lease_epochs: u32,
    /// Epochs between routine heartbeats while the lease is healthy.
    pub heartbeat_interval: u32,
    /// Epochs of silence before the coordinator suspects an agent.
    pub suspect_after: u32,
    /// Epochs an expired assignment may run stale before the agent
    /// falls to the conservative tier.
    pub stale_grace_epochs: u32,
    /// Backoff policy for unanswered renewals and failed solves.
    pub retry: RetryPolicy,
    /// Iteration budget per coordinator solve (the deterministic solve
    /// deadline threaded into [`MeanFieldSolver`]).
    pub solve_budget: usize,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            lease_epochs: 20,
            heartbeat_interval: 5,
            suspect_after: 12,
            stale_grace_epochs: 10,
            retry: RetryPolicy::default(),
            solve_budget: 50_000,
        }
    }
}

impl ControlConfig {
    /// Validate the timing parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when any window is zero
    /// or the heartbeat interval does not fit inside the lease.
    pub fn validate(&self) -> crate::Result<()> {
        let positive: [(&'static str, u32); 4] = [
            ("lease_epochs", self.lease_epochs),
            ("heartbeat_interval", self.heartbeat_interval),
            ("suspect_after", self.suspect_after),
            (
                "solve_budget",
                u32::try_from(self.solve_budget.min(1)).unwrap_or(1),
            ),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(SimError::InvalidParameter {
                    name,
                    value: 0.0,
                    expected: "a positive epoch count",
                });
            }
        }
        if self.heartbeat_interval >= self.lease_epochs {
            return Err(SimError::InvalidParameter {
                name: "heartbeat_interval",
                value: f64::from(self.heartbeat_interval),
                expected: "an interval strictly inside the lease window",
            });
        }
        Ok(())
    }
}

/// CUSUM detector and graduated-sanctions knobs for the online
/// adversary defense.
///
/// The detector runs per agent on accepted [`Payload::ProfileReport`]s:
/// with `x` the observed sprint rate given active and `p₀` the rate the
/// assigned threshold implies under the density,
/// `S ← max(0, S + x − p₀ − slack)`, and `S > decision_threshold`
/// declares a deviation. The sanctions ladder then escalates —
/// `max_warnings` free warnings, timed revocations with probation
/// re-admission, and permanent exclusion after `max_revocations`
/// strikes — so a noise spike costs an honest agent at most a warning.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DetectorConfig {
    /// Epochs per panel-sensor observation window.
    pub report_interval: u32,
    /// CUSUM slack (the allowance `k`): per-report overshoot absorbed
    /// before the statistic grows.
    pub slack: f64,
    /// CUSUM decision threshold (`h`). During probation the effective
    /// threshold is halved — the detector stays armed.
    pub decision_threshold: f64,
    /// Detections forgiven with a warning before the first revocation.
    pub max_warnings: u32,
    /// Length of a sprint-lease revocation, in epochs.
    pub revocation_epochs: u32,
    /// Probation length after a revocation expires, in epochs.
    pub probation_epochs: u32,
    /// Revocation strikes before permanent exclusion.
    pub max_revocations: u32,
    /// Apply sanctions. With `false` the detector observes and counts
    /// but never punishes — the unenforced baseline.
    pub enforcement: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            report_interval: 10,
            slack: 0.2,
            decision_threshold: 2.0,
            max_warnings: 1,
            revocation_epochs: 30,
            probation_epochs: 40,
            max_revocations: 2,
            enforcement: true,
        }
    }
}

impl DetectorConfig {
    /// Validate the detector parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for zero windows or
    /// non-positive/non-finite statistics parameters.
    pub fn validate(&self) -> crate::Result<()> {
        let positive: [(&'static str, u32); 4] = [
            ("report_interval", self.report_interval),
            ("revocation_epochs", self.revocation_epochs),
            ("probation_epochs", self.probation_epochs),
            ("max_revocations", self.max_revocations),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(SimError::InvalidParameter {
                    name,
                    value: 0.0,
                    expected: "a positive count",
                });
            }
        }
        if !(self.slack.is_finite() && self.slack >= 0.0) {
            return Err(SimError::InvalidParameter {
                name: "slack",
                value: self.slack,
                expected: "a non-negative finite CUSUM slack",
            });
        }
        if !(self.decision_threshold.is_finite() && self.decision_threshold > 0.0) {
            return Err(SimError::InvalidParameter {
                name: "decision_threshold",
                value: self.decision_threshold,
                expected: "a positive finite CUSUM threshold",
            });
        }
        Ok(())
    }
}

/// Outcome summary of the adversary-defense subsystem for one run.
/// Present in a [`ControlReport`] only when the rack model ran (a
/// detector or an adversary mix was attached).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DefenseReport {
    /// Adversarial agents in the population (ground truth, for
    /// false-positive/false-negative scoring only — the detector never
    /// sees it).
    pub adversaries: u32,
    /// Sensor reports the coordinator received.
    pub reports_received: u64,
    /// Received reports discarded as duplicates, reordered, or empty.
    pub reports_discarded: u64,
    /// CUSUM detections across all agents.
    pub detections: u64,
    /// Warnings issued.
    pub warnings: u64,
    /// Timed revocations applied.
    pub revocations: u64,
    /// Permanent exclusions applied.
    pub exclusions: u64,
    /// Probations completed (full re-admissions).
    pub readmissions: u64,
    /// Warnings issued to honest agents.
    pub false_positive_warnings: u64,
    /// Revocations applied to honest agents.
    pub false_positive_revocations: u64,
    /// Permanent exclusions of honest agents (the acceptance gate pins
    /// this to zero).
    pub false_positive_exclusions: u64,
    /// Adversarial agents the detector never flagged.
    pub false_negatives: u32,
    /// Mean epochs from adversary onset to first detection; `None` when
    /// nothing was detected.
    pub mean_detection_latency_epochs: Option<f64>,
    /// Sprint attempts physically blocked by an active sanction (the
    /// rack-side power-gate veto).
    pub vetoed_sprints: u64,
    /// Mean task-units per agent-epoch the rack actually produced.
    pub throughput: f64,
    /// Breaker trips over the run.
    pub trips: u64,
}

/// Where an agent stands on the sanctions ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sanction {
    Good,
    Warned,
    Revoked { until: usize },
    Probation { until: usize },
    Excluded,
}

impl Sanction {
    /// Sanctions that bar the agent from the cooperative population:
    /// no lease renewals, no solve membership, power gate vetoed.
    fn bars(self) -> bool {
        matches!(self, Sanction::Revoked { .. } | Sanction::Excluded)
    }
}

/// Per-agent detector and sanction state.
struct Suspicion {
    s: f64,
    last_window: u32,
    sanction: Sanction,
    warnings: u32,
    strikes: u32,
    first_detection: Option<usize>,
}

/// Counter-RNG purposes for the rack dynamics model. Distinct constants
/// per stream; none of them touch the crash/fault or transport RNGs, so
/// attaching the defense never perturbs existing fault schedules.
const DEFENSE_UTILITY: u64 = 0xDEF01;
const DEFENSE_COOLING: u64 = 0xDEF02;
const DEFENSE_TRIP: u64 = 0xDEF03;
const DEFENSE_RECOVERY: u64 = 0xDEF04;
const DEFENSE_SENSOR: u64 = 0xDEF05;

/// The adversary-defense subsystem: the rack-side dynamics model that
/// generates sensor telemetry, and the coordinator-side CUSUM detector
/// with its sanctions ladder. All state updates are driven by epoch
/// index and delivered messages only.
struct DefenseState {
    detector: Option<DetectorConfig>,
    mix: AdversaryMix,
    n: usize,
    agents: Vec<Suspicion>,
    cooling: Vec<bool>,
    window_sprints: Vec<u32>,
    window_active: Vec<u32>,
    recovering: bool,
    utility_rng: CounterRng,
    cooling_rng: CounterRng,
    trip_rng: CounterRng,
    recovery_rng: CounterRng,
    sensor_rng: CounterRng,
    cheat_rng: CounterRng,
    sampler: AliasSampler,
    trip_curve: TripCurve,
    p_cooling: f64,
    p_recovery: f64,
    sensor: Option<SensorFault>,
    learner_scale: f64,
    trips: u64,
    tasks: f64,
    vetoed_sprints: u64,
    reports_received: u64,
    reports_discarded: u64,
    detections: u64,
    warnings: u64,
    revocations: u64,
    exclusions: u64,
    readmissions: u64,
    fp_warnings: u64,
    fp_revocations: u64,
    fp_exclusions: u64,
    detection_latencies: Vec<u64>,
}

impl DefenseState {
    fn new(
        game: &GameConfig,
        density: &DiscreteDensity,
        plan: &FaultPlan,
        mix: AdversaryMix,
        detector: Option<DetectorConfig>,
        seed: u64,
    ) -> Self {
        let n = game.n_agents() as usize;
        DefenseState {
            detector,
            mix,
            n,
            agents: (0..n)
                .map(|_| Suspicion {
                    s: 0.0,
                    last_window: 0,
                    sanction: Sanction::Good,
                    warnings: 0,
                    strikes: 0,
                    first_detection: None,
                })
                .collect(),
            cooling: vec![false; n],
            window_sprints: vec![0; n],
            window_active: vec![0; n],
            recovering: false,
            utility_rng: CounterRng::new(seed, DEFENSE_UTILITY),
            cooling_rng: CounterRng::new(seed, DEFENSE_COOLING),
            trip_rng: CounterRng::new(seed, DEFENSE_TRIP),
            recovery_rng: CounterRng::new(seed, DEFENSE_RECOVERY),
            sensor_rng: CounterRng::new(seed ^ plan.seed.rotate_left(11), DEFENSE_SENSOR),
            cheat_rng: mix.cheat_rng(),
            sampler: AliasSampler::new(density),
            trip_curve: TripCurve::from_config(game),
            p_cooling: game.p_cooling(),
            p_recovery: game.p_recovery(),
            sensor: plan.sensor,
            learner_scale: 1.0,
            trips: 0,
            tasks: 0.0,
            vetoed_sprints: 0,
            reports_received: 0,
            reports_discarded: 0,
            detections: 0,
            warnings: 0,
            revocations: 0,
            exclusions: 0,
            readmissions: 0,
            fp_warnings: 0,
            fp_revocations: 0,
            fp_exclusions: 0,
            detection_latencies: Vec::new(),
        }
    }

    fn enforcing(&self) -> bool {
        self.detector.is_some_and(|d| d.enforcement)
    }

    /// Whether agent `i` is barred from the cooperative population.
    fn barred(&self, i: usize) -> bool {
        self.agents[i].sanction.bars()
    }

    fn is_honest(&self, i: usize) -> bool {
        !self.mix.is_adversary(i, self.n)
    }

    /// Timed ladder transitions: revocations expire into probation,
    /// probations complete into full re-admission. Driven purely by the
    /// epoch index, so scheduling order cannot matter.
    fn tick_sanctions(&mut self, epoch: usize, telemetry: &mut Telemetry, want: bool) {
        let Some(cfg) = self.detector else { return };
        for i in 0..self.n {
            let a = &mut self.agents[i];
            match a.sanction {
                Sanction::Revoked { until } if epoch >= until => {
                    a.sanction = Sanction::Probation {
                        until: epoch + cfg.probation_epochs as usize,
                    };
                    a.s = 0.0;
                    if want {
                        telemetry.emit(&Event::SanctionLifted {
                            epoch,
                            agent: i as u32,
                            probation: true,
                        });
                    }
                }
                Sanction::Probation { until } if epoch >= until => {
                    a.sanction = Sanction::Good;
                    a.warnings = 0;
                    a.s = 0.0;
                    self.readmissions += 1;
                    if want {
                        telemetry.emit(&Event::SanctionLifted {
                            epoch,
                            agent: i as u32,
                            probation: false,
                        });
                    }
                }
                _ => {}
            }
        }
    }

    /// Feed one accepted sensor report into the CUSUM detector.
    /// `expected` is the sprint rate (given active) the coordinator's
    /// current assignment implies for this agent.
    #[allow(clippy::too_many_arguments)]
    fn on_report(
        &mut self,
        agent: usize,
        sprints: u32,
        active: u32,
        window_end: u32,
        epoch: usize,
        expected: f64,
        telemetry: &mut Telemetry,
        want_detect: bool,
        want_sanction: bool,
    ) {
        let Some(cfg) = self.detector else { return };
        self.reports_received += 1;
        let a = &mut self.agents[agent];
        if window_end <= a.last_window || active == 0 {
            self.reports_discarded += 1;
            return;
        }
        a.last_window = window_end;
        if a.sanction.bars() {
            // A gated agent's panel counts are vetoed sprints, not
            // evidence; the statistic stays frozen until re-admission.
            return;
        }
        let x = f64::from(sprints) / f64::from(active);
        a.s = (a.s + x - expected - cfg.slack).max(0.0);
        let armed = if matches!(a.sanction, Sanction::Probation { .. }) {
            cfg.decision_threshold * 0.5
        } else {
            cfg.decision_threshold
        };
        if a.s <= armed {
            return;
        }
        // Detection.
        let statistic = a.s;
        a.s = 0.0;
        self.detections += 1;
        if a.first_detection.is_none() {
            a.first_detection = Some(epoch);
            if !self.is_honest(agent) {
                self.detection_latencies.push(epoch as u64);
            }
        }
        if want_detect {
            telemetry.emit(&Event::AdversaryDetected {
                epoch,
                agent: agent as u32,
                statistic,
                observed: x,
                expected,
            });
        }
        if cfg.enforcement {
            self.escalate(agent, epoch, cfg, telemetry, want_sanction);
        }
    }

    /// Walk one agent up the sanctions ladder after a detection.
    fn escalate(
        &mut self,
        i: usize,
        epoch: usize,
        cfg: DetectorConfig,
        telemetry: &mut Telemetry,
        want: bool,
    ) {
        let honest = self.is_honest(i);
        let a = &mut self.agents[i];
        let (level, duration) = match a.sanction {
            Sanction::Good | Sanction::Warned if a.warnings < cfg.max_warnings => {
                a.warnings += 1;
                a.sanction = Sanction::Warned;
                (SanctionLevel::Warning, None)
            }
            Sanction::Good | Sanction::Warned | Sanction::Probation { .. } => {
                a.strikes += 1;
                if a.strikes >= cfg.max_revocations {
                    a.sanction = Sanction::Excluded;
                    (SanctionLevel::Exclusion, None)
                } else {
                    a.sanction = Sanction::Revoked {
                        until: epoch + cfg.revocation_epochs as usize,
                    };
                    (SanctionLevel::Revocation, Some(cfg.revocation_epochs))
                }
            }
            // Gated agents produce no evidence; a detection here cannot
            // happen, but keep the ladder total.
            Sanction::Revoked { .. } | Sanction::Excluded => return,
        };
        let strikes = a.strikes;
        match level {
            SanctionLevel::Warning => {
                self.warnings += 1;
                if honest {
                    self.fp_warnings += 1;
                }
            }
            SanctionLevel::Revocation => {
                self.revocations += 1;
                if honest {
                    self.fp_revocations += 1;
                }
            }
            SanctionLevel::Exclusion => {
                self.exclusions += 1;
                if honest {
                    self.fp_exclusions += 1;
                }
            }
        }
        if want {
            telemetry.emit(&Event::SanctionApplied {
                epoch,
                agent: i as u32,
                level,
                strikes,
                duration_epochs: duration,
            });
        }
    }

    /// One epoch of rack dynamics: utility draws, sprint decisions
    /// (honest or adversarial), the power-gate veto, cooling/recovery
    /// churn, the Equation-11 trip draw, and — on window boundaries —
    /// panel-sensor reports over the transport.
    fn rack_epoch(&mut self, epoch: usize, agents: &[AgentCtl], transport: &mut dyn Transport) {
        if self.recovering {
            if self.recovery_rng.uniform(0, epoch as u64, 0) < self.p_recovery {
                // The rack spends the whole epoch dark: no work, no
                // decisions, cooling frozen.
                self.flush_reports(epoch, agents, transport);
                return;
            }
            self.recovering = false;
        }
        let adversary_active = self.mix.active_at(epoch);
        let enforcing = self.enforcing();
        let mut sprinters = 0u32;
        for (i, ctl) in agents.iter().enumerate() {
            if ctl.crashed {
                continue;
            }
            if self.cooling[i] {
                if self.cooling_rng.uniform(i as u64, epoch as u64, 0) < self.p_cooling {
                    // Still cooling: powered, working at nominal rate.
                    self.tasks += 1.0;
                    continue;
                }
                self.cooling[i] = false;
            }
            let u = self.sampler.sample(
                self.utility_rng.uniform(i as u64, epoch as u64, 0),
                self.utility_rng.uniform(i as u64, epoch as u64, 1),
            );
            let honest = u > ctl.threshold;
            let wants = if adversary_active && self.mix.is_adversary(i, self.n) {
                self.mix.kind.decide(
                    honest,
                    u,
                    ctl.threshold,
                    i as u64,
                    epoch as u64,
                    &self.cheat_rng,
                    self.learner_scale,
                )
            } else {
                honest
            };
            let gated = enforcing && self.agents[i].sanction.bars();
            self.window_active[i] += 1;
            if wants && gated {
                // The sanction is physical: the coordinator holds this
                // agent's power gate shut, so even a protocol-ignoring
                // defector cannot draw sprint current.
                self.vetoed_sprints += 1;
            }
            if wants && !gated {
                sprinters += 1;
                self.window_sprints[i] += 1;
                self.tasks += u;
                self.cooling[i] = true;
            } else {
                self.tasks += 1.0;
            }
        }
        let p = self.trip_curve.p_trip(f64::from(sprinters));
        if self.trip_rng.uniform(0, epoch as u64, 0) < p {
            // Tripped-epoch sprints still count (UPS ride-through);
            // recovery starts next epoch.
            self.trips += 1;
            self.recovering = true;
        }
        let freq = self.trips as f64 / (epoch + 1) as f64;
        self.learner_scale = self.mix.kind.learner_step(self.learner_scale, freq);
        self.flush_reports(epoch, agents, transport);
    }

    /// On a window boundary, send each live agent's panel counts to the
    /// coordinator (noisy and droppable under a [`SensorFault`]) and
    /// reset the windows.
    fn flush_reports(&mut self, epoch: usize, agents: &[AgentCtl], transport: &mut dyn Transport) {
        let Some(cfg) = self.detector else { return };
        if !(epoch + 1).is_multiple_of(cfg.report_interval as usize) {
            return;
        }
        for (i, ctl) in agents.iter().enumerate() {
            let active = self.window_active[i];
            if ctl.crashed || active == 0 {
                continue;
            }
            if let Some(sf) = self.sensor {
                if self.sensor_rng.uniform(i as u64, epoch as u64, 0) < sf.dropout_probability {
                    continue;
                }
            }
            let sprints = match self.sensor {
                Some(sf) if sf.relative_sd > 0.0 => {
                    let noise = self.sensor_rng.normal(i as u64, epoch as u64, 1)
                        * sf.relative_sd
                        * f64::from(active);
                    (f64::from(self.window_sprints[i]) + noise)
                        .round()
                        .clamp(0.0, f64::from(active)) as u32
                }
                _ => self.window_sprints[i],
            };
            transport.send(Envelope {
                to: Address::Coordinator,
                payload: Payload::ProfileReport {
                    agent: i as u32,
                    sprints,
                    active,
                    window_end: (epoch + 1) as u32,
                },
                sent_epoch: epoch,
            });
        }
        self.window_sprints.fill(0);
        self.window_active.fill(0);
    }

    fn export_metrics(&self, registry: &mut sprint_telemetry::Registry) {
        let pairs: [(&str, u64); 9] = [
            ("control.defense.reports_received", self.reports_received),
            ("control.defense.detections", self.detections),
            ("control.defense.warnings", self.warnings),
            ("control.defense.revocations", self.revocations),
            ("control.defense.exclusions", self.exclusions),
            ("control.defense.readmissions", self.readmissions),
            (
                "control.defense.false_positive_exclusions",
                self.fp_exclusions,
            ),
            ("control.defense.vetoed_sprints", self.vetoed_sprints),
            ("control.defense.trips", self.trips),
        ];
        for (name, v) in pairs {
            let c = registry.counter(name);
            registry.inc(c, v);
        }
        let h = registry.histogram(
            "control.defense.detection_latency_epochs",
            &[10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0],
        );
        for &l in &self.detection_latencies {
            registry.observe(h, l as f64);
        }
    }

    fn finish(self, epochs: usize) -> DefenseReport {
        let adversaries = self.mix.adversary_count(self.n) as u32;
        let false_negatives = if self.detector.is_some() {
            (0..self.n)
                .filter(|&i| !self.is_honest(i) && self.agents[i].first_detection.is_none())
                .count() as u32
        } else {
            0
        };
        let mean_detection_latency_epochs = if self.detection_latencies.is_empty() {
            None
        } else {
            Some(
                self.detection_latencies.iter().sum::<u64>() as f64
                    / self.detection_latencies.len() as f64,
            )
        };
        DefenseReport {
            adversaries,
            reports_received: self.reports_received,
            reports_discarded: self.reports_discarded,
            detections: self.detections,
            warnings: self.warnings,
            revocations: self.revocations,
            exclusions: self.exclusions,
            readmissions: self.readmissions,
            false_positive_warnings: self.fp_warnings,
            false_positive_revocations: self.fp_revocations,
            false_positive_exclusions: self.fp_exclusions,
            false_negatives,
            mean_detection_latency_epochs,
            vetoed_sprints: self.vetoed_sprints,
            throughput: self.tasks / (self.n * epochs) as f64,
            trips: self.trips,
        }
    }
}

/// Deterministic outcome summary of one control-plane run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ControlReport {
    /// Agents simulated.
    pub agents: u32,
    /// Epochs simulated.
    pub epochs: usize,
    /// Live agent-epochs spent on each ladder tier
    /// (`[equilibrium, stale_cache, conservative]`).
    pub tier_epochs: [u64; 3],
    /// Total ladder transitions across all agents.
    pub tier_transitions: u64,
    /// Epochs at which an agent held an unusable threshold (must be 0).
    pub invariant_violations: u64,
    /// Coordinator solve attempts.
    pub resolves: u64,
    /// Coordinator solves that failed (budget exhausted or divergent).
    pub resolve_failures: u64,
    /// Agents marked suspect (cumulative).
    pub suspects: u64,
    /// Strategy leases granted or renewed.
    pub lease_grants: u64,
    /// Leases that lapsed without renewal.
    pub lease_expiries: u64,
    /// Completed recoveries back to the equilibrium tier.
    pub recoveries: u64,
    /// Mean epochs from degradation (or partition heal, whichever is
    /// later) back to the equilibrium tier; `None` when no agent ever
    /// recovered.
    pub mean_recovery_epochs: Option<f64>,
    /// Mean per-agent-epoch sprint-gain proxy actually realized:
    /// `(1 − P(u > T)) + E[u · 1(u > T)]` at each held threshold.
    /// Ignores cooling externalities — it compares ladder tiers, not
    /// policies.
    pub mean_utility: f64,
    /// The same proxy for a rack pinned to the conservative threshold.
    pub conservative_utility: f64,
    /// Transport counters.
    pub messages: TransportStats,
    /// Adversary-defense outcome; `None` when the rack model was off
    /// (no detector and no adversary mix attached).
    pub defense: Option<DefenseReport>,
}

struct AgentCtl {
    threshold: f64,
    tier: ControlTier,
    lease_until: usize,
    stale_deadline: Option<usize>,
    next_heartbeat: usize,
    enrolled: bool,
    backoff: Option<BackoffSchedule>,
    attempt: u32,
    crashed: bool,
    degraded_since: Option<usize>,
}

/// An epoch-driven simulation of the control plane for one homogeneous
/// rack (the coordinator, `n` agents, and a transport between them).
#[derive(Debug, Clone)]
pub struct ControlSim {
    game: GameConfig,
    density: DiscreteDensity,
    options: SolverOptions,
    plan: FaultPlan,
    config: ControlConfig,
    adversaries: Option<AdversaryMix>,
    detector: Option<DetectorConfig>,
    epochs: usize,
}

impl ControlSim {
    /// A control-plane simulation of `epochs` epochs over the agents of
    /// `game`, all running the profile `density`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `epochs` is zero.
    pub fn new(game: GameConfig, density: DiscreteDensity, epochs: usize) -> crate::Result<Self> {
        if epochs == 0 {
            return Err(SimError::InvalidParameter {
                name: "epochs",
                value: 0.0,
                expected: "at least one epoch",
            });
        }
        Ok(ControlSim {
            game,
            density,
            options: SolverOptions::default(),
            plan: FaultPlan::none(),
            config: ControlConfig::default(),
            adversaries: None,
            detector: None,
            epochs,
        })
    }

    /// Override the solver options (the control plane adds its own
    /// iteration budget on top).
    #[must_use]
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a fault plan (transport faults, partitions, crash churn).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Override the control-plane timing/retry configuration.
    #[must_use]
    pub fn with_control(mut self, config: ControlConfig) -> Self {
        self.config = config;
        self
    }

    /// Mix adversarial agents into the rack population. Attaching a mix
    /// (or a detector) turns on the rack dynamics model.
    #[must_use]
    pub fn with_adversaries(mut self, mix: AdversaryMix) -> Self {
        self.adversaries = Some(mix);
        self
    }

    /// Attach the online CUSUM detector and sanctions ladder. Attaching
    /// a detector (or an adversary mix) turns on the rack dynamics
    /// model and its panel-sensor reports.
    #[must_use]
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.detector = Some(detector);
        self
    }

    /// The control configuration in effect.
    #[must_use]
    pub fn control(&self) -> &ControlConfig {
        &self.config
    }

    /// Run with the fault plan's own [`FaultyTransport`].
    ///
    /// # Errors
    ///
    /// As [`ControlSim::run_with_transport`].
    pub fn run(&self, seed: u64, telemetry: &mut Telemetry) -> crate::Result<ControlReport> {
        let mut transport = FaultyTransport::new(&self.plan, self.game.n_agents(), seed);
        self.run_with_transport(&mut transport, seed, telemetry)
    }

    /// Run the message loop over an injected transport.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for invalid fault or
    /// control configurations. Solver failures never error: they are
    /// what the degradation ladder absorbs.
    pub fn run_with_transport(
        &self,
        transport: &mut dyn Transport,
        seed: u64,
        telemetry: &mut Telemetry,
    ) -> crate::Result<ControlReport> {
        self.plan.validate()?;
        self.config.validate()?;
        if let Some(d) = &self.detector {
            d.validate()?;
        }
        if let Some(m) = &self.adversaries {
            m.validate()?;
        }
        let n = self.game.n_agents() as usize;
        let cfg = &self.config;
        let mut defense: Option<DefenseState> =
            (self.detector.is_some() || self.adversaries.is_some()).then(|| {
                DefenseState::new(
                    &self.game,
                    &self.density,
                    &self.plan,
                    self.adversaries.unwrap_or_else(AdversaryMix::honest),
                    self.detector,
                    seed,
                )
            });

        let budgeted = self.options.with_iteration_budget(cfg.solve_budget);
        let base_solver = MeanFieldSolver::with_options(self.game, budgeted);
        let fallback = base_solver.conservative_threshold(&self.density);
        let cache = EquilibriumCache::default();
        let mut fault_rng: StdRng = seeded_rng(seed ^ self.plan.seed.rotate_left(17) ^ 0xFA_17);

        let on = telemetry.enabled();
        let want_tier = on && telemetry.wants(EventKind::TierShift);
        let want_lease = on && telemetry.wants(EventKind::LeaseGranted);
        let want_suspect = on && telemetry.wants(EventKind::AgentSuspected);
        let want_retry = on && telemetry.wants(EventKind::RetryBackoff);
        let want_faults = on && telemetry.wants(EventKind::FaultInjected);
        let want_detect = on && telemetry.wants(EventKind::AdversaryDetected);
        let want_sanction = on
            && (telemetry.wants(EventKind::SanctionApplied)
                || telemetry.wants(EventKind::SanctionLifted));

        // Agent-side state. Every agent boots on the conservative tier:
        // the ladder's floor is also its starting rung, so a threshold
        // is valid from epoch 0.
        let mut agents: Vec<AgentCtl> = (0..n)
            .map(|_| AgentCtl {
                threshold: fallback,
                tier: ControlTier::Conservative,
                lease_until: 0,
                stale_deadline: None,
                next_heartbeat: 0,
                enrolled: false,
                backoff: None,
                attempt: 0,
                crashed: false,
                degraded_since: None,
            })
            .collect();

        // Coordinator-side state.
        let mut last_heard = vec![0usize; n];
        let mut suspect = vec![false; n];
        let mut assignment: Option<(f64, f64, bool)> = None; // (threshold, p_trip, stale)
        let mut assignment_pop: u32 = 0;
        let mut next_solve_at = 0usize;
        let mut solve_backoff: Option<BackoffSchedule> = None;
        let mut solve_attempt = 0u32;

        // Report accumulators.
        let mut tier_epochs = [0u64; 3];
        let mut tier_transitions = 0u64;
        let mut invariant_violations = 0u64;
        let mut resolves = 0u64;
        let mut resolve_failures = 0u64;
        let mut suspects = 0u64;
        let mut lease_grants = 0u64;
        let mut lease_expiries = 0u64;
        let mut recovery_samples: Vec<u64> = Vec::new();
        let mut utility_sum = 0.0f64;
        let mut live_agent_epochs = 0u64;
        // The proxy is evaluated per distinct threshold, memoized by bit
        // pattern — thresholds take a handful of values per run.
        let mut utility_memo: Vec<(u64, f64)> = Vec::new();
        let mut utility_of = |t: f64, density: &DiscreteDensity| -> f64 {
            let bits = t.to_bits();
            if let Some(&(_, u)) = utility_memo.iter().find(|&&(b, _)| b == bits) {
                return u;
            }
            let u = (1.0 - density.tail_mass(t)) + density.partial_expectation(t);
            utility_memo.push((bits, u));
            u
        };
        let heal_epoch = self.plan.partition.as_ref().map(RackPartition::heal_epoch);

        for epoch in 0..self.epochs {
            // 1. Crash churn progresses first (engine convention): agents
            // go down silently and restart cold on the conservative rung.
            if let Some(c) = self.plan.crash {
                for (i, a) in agents.iter_mut().enumerate() {
                    if a.crashed {
                        if fault_rng.gen::<f64>() >= c.p_restart_stay {
                            a.crashed = false;
                            a.threshold = fallback;
                            a.tier = ControlTier::Conservative;
                            a.lease_until = 0;
                            a.stale_deadline = None;
                            a.enrolled = false;
                            a.backoff = None;
                            a.attempt = 0;
                            a.next_heartbeat = epoch;
                            a.degraded_since = None;
                            if want_faults {
                                telemetry.emit(&Event::FaultInjected {
                                    epoch,
                                    kind: FaultKind::Restart,
                                    agent: Some(i as u32),
                                });
                            }
                        }
                    } else if fault_rng.gen::<f64>() < c.crash_probability {
                        a.crashed = true;
                        if want_faults {
                            telemetry.emit(&Event::FaultInjected {
                                epoch,
                                kind: FaultKind::Crash,
                                agent: Some(i as u32),
                            });
                        }
                    }
                }
            }

            // 2. Deliver due messages.
            let mut renewal_requests: Vec<u32> = Vec::new();
            for env in transport.deliver(epoch) {
                match env.to {
                    Address::Coordinator => {
                        let who = env.payload.agent() as usize;
                        if who >= n {
                            continue;
                        }
                        last_heard[who] = epoch;
                        if suspect[who] {
                            // The suspect came back: re-enroll and force
                            // a re-solve over the grown population.
                            suspect[who] = false;
                        }
                        if matches!(env.payload, Payload::Heartbeat { .. }) {
                            renewal_requests.push(who as u32);
                        }
                        if let Payload::ProfileReport {
                            sprints,
                            active,
                            window_end,
                            ..
                        } = env.payload
                        {
                            if window_end > 0 {
                                if let Some(d) = defense.as_mut() {
                                    // The rate the coordinator's current
                                    // assignment implies — its best model
                                    // of a conforming agent.
                                    let expected = self
                                        .density
                                        .tail_mass(assignment.map_or(fallback, |(t, _, _)| t));
                                    d.on_report(
                                        who,
                                        sprints,
                                        active,
                                        window_end,
                                        epoch,
                                        expected,
                                        telemetry,
                                        want_detect,
                                        want_sanction,
                                    );
                                }
                            }
                        }
                    }
                    Address::Agent { id } => {
                        let i = id as usize;
                        if i >= n || agents[i].crashed {
                            continue;
                        }
                        if let Payload::StrategyAssign {
                            threshold,
                            lease_epochs,
                            stale,
                            ..
                        } = env.payload
                        {
                            let a = &mut agents[i];
                            a.threshold = threshold;
                            a.lease_until = epoch + lease_epochs as usize;
                            a.stale_deadline = None;
                            a.backoff = None;
                            a.attempt = 0;
                            let to = if stale {
                                ControlTier::StaleCache
                            } else {
                                ControlTier::Equilibrium
                            };
                            if a.tier != to {
                                if to == ControlTier::Equilibrium {
                                    if let Some(since) = a.degraded_since.take() {
                                        let from = match heal_epoch {
                                            // Degraded through a partition:
                                            // recovery is measured from the
                                            // heal, the earliest instant
                                            // recovery was possible.
                                            Some(h) if since < h && epoch >= h => h,
                                            _ => since,
                                        };
                                        recovery_samples.push((epoch - from) as u64);
                                    }
                                } else if a.tier == ControlTier::Equilibrium
                                    && a.degraded_since.is_none()
                                {
                                    a.degraded_since = Some(epoch);
                                }
                                if want_tier {
                                    telemetry.emit(&Event::TierShift {
                                        epoch,
                                        agent: i as u32,
                                        from: a.tier,
                                        to,
                                    });
                                }
                                a.tier = to;
                                tier_transitions += 1;
                            }
                            lease_grants += 1;
                            if want_lease {
                                telemetry.emit(&Event::LeaseGranted {
                                    epoch,
                                    agent: i as u32,
                                    lease_epochs,
                                    stale,
                                });
                            }
                            transport.send(Envelope {
                                to: Address::Coordinator,
                                payload: Payload::Ack { agent: i as u32 },
                                sent_epoch: epoch,
                            });
                        }
                    }
                }
            }

            // 3. Surface transport fault activations.
            if want_faults {
                for (e, kind) in transport.drain_faults() {
                    telemetry.emit(&Event::FaultInjected {
                        epoch: e,
                        kind,
                        agent: None,
                    });
                }
            }

            // 4. Coordinator: sanction timers, suspicion scan, then
            // solve if the population or assignment demands one.
            if let Some(d) = defense.as_mut() {
                d.tick_sanctions(epoch, telemetry, want_sanction);
                if d.enforcing() {
                    // Barred agents get no renewals: their leases run
                    // out and they descend the ladder until probation
                    // completes.
                    renewal_requests.retain(|&w| !d.barred(w as usize));
                }
            }
            for (i, heard) in last_heard.iter().enumerate() {
                if !suspect[i] && epoch.saturating_sub(*heard) > cfg.suspect_after as usize {
                    suspect[i] = true;
                    suspects += 1;
                    if want_suspect {
                        telemetry.emit(&Event::AgentSuspected {
                            epoch,
                            agent: i as u32,
                            silent_epochs: (epoch - heard) as u32,
                        });
                    }
                }
            }
            // The cooperative population: not suspect and not under an
            // active sanction — re-solves run over the survivors.
            let in_population = |i: usize| {
                !suspect[i]
                    && defense
                        .as_ref()
                        .is_none_or(|d| !(d.enforcing() && d.barred(i)))
            };
            let live = (0..n).filter(|&i| in_population(i)).count() as u32;
            let enrolled_any = agents.iter().any(|a| a.enrolled);
            let needs_solve = enrolled_any
                && live > 0
                && (assignment.is_none_or(|(_, _, stale)| stale) || assignment_pop != live);
            if needs_solve && epoch >= next_solve_at {
                let solver = if live == self.game.n_agents() {
                    base_solver
                } else {
                    let shrunk = GameConfig::builder()
                        .n_agents(live)
                        .n_min(self.game.n_min())
                        .n_max(self.game.n_max())
                        .p_cooling(self.game.p_cooling())
                        .p_recovery(self.game.p_recovery())
                        .discount(self.game.discount())
                        .build()?;
                    MeanFieldSolver::with_options(shrunk, budgeted)
                };
                resolves += 1;
                let span = on.then(|| telemetry.spans.start());
                let solved = cache.solve(&solver, &self.density);
                if let Some(s) = span {
                    telemetry.spans.end("control.solve", s);
                }
                match solved {
                    Ok(eq) => {
                        assignment = Some((eq.threshold(), eq.trip_probability(), false));
                        assignment_pop = live;
                        solve_backoff = None;
                        solve_attempt = 0;
                        next_solve_at = epoch + 1;
                    }
                    Err(_) => {
                        resolve_failures += 1;
                        // Ladder tier 2 at the source: the last cached
                        // assignment, stamped stale. Tier 3 (conservative)
                        // is agent-side — silence gets them there.
                        assignment = cache
                            .latest()
                            .map(|eq| (eq.threshold(), eq.trip_probability(), true));
                        assignment_pop = live;
                        let sched = solve_backoff
                            .get_or_insert_with(|| cfg.retry.schedule(seed ^ 0x50_17E));
                        solve_attempt += 1;
                        let delay = sched
                            .next_delay()
                            .unwrap_or_else(|| cfg.retry.max_delay.max(1));
                        if want_retry {
                            telemetry.emit(&Event::RetryBackoff {
                                epoch,
                                attempt: solve_attempt,
                                delay_epochs: delay,
                            });
                        }
                        next_solve_at = epoch + 1 + delay as usize;
                    }
                }
                if assignment.is_some() {
                    // Broadcast to the live population.
                    for i in (0..n).filter(|&i| in_population(i)) {
                        self.send_assign(transport, assignment, i as u32, epoch, cfg);
                    }
                    renewal_requests.clear();
                }
            }
            // Unicast renewals for heartbeats that did not ride a
            // broadcast this epoch.
            for who in renewal_requests {
                self.send_assign(transport, assignment, who, epoch, cfg);
            }

            // 5. Agent bookkeeping: ladder descent and heartbeats.
            for (i, a) in agents.iter_mut().enumerate() {
                if a.crashed {
                    continue;
                }
                if a.tier != ControlTier::Conservative && epoch >= a.lease_until {
                    match a.stale_deadline {
                        None => {
                            lease_expiries += 1;
                            if on && telemetry.wants(EventKind::LeaseExpired) {
                                telemetry.emit(&Event::LeaseExpired {
                                    epoch,
                                    agent: i as u32,
                                });
                            }
                            a.stale_deadline = Some(epoch + cfg.stale_grace_epochs as usize);
                            if a.tier == ControlTier::Equilibrium {
                                if a.degraded_since.is_none() {
                                    a.degraded_since = Some(epoch);
                                }
                                if want_tier {
                                    telemetry.emit(&Event::TierShift {
                                        epoch,
                                        agent: i as u32,
                                        from: ControlTier::Equilibrium,
                                        to: ControlTier::StaleCache,
                                    });
                                }
                                a.tier = ControlTier::StaleCache;
                                tier_transitions += 1;
                            }
                        }
                        Some(deadline) if epoch >= deadline => {
                            if a.degraded_since.is_none() {
                                a.degraded_since = Some(epoch);
                            }
                            if want_tier {
                                telemetry.emit(&Event::TierShift {
                                    epoch,
                                    agent: i as u32,
                                    from: a.tier,
                                    to: ControlTier::Conservative,
                                });
                            }
                            a.tier = ControlTier::Conservative;
                            a.threshold = fallback;
                            a.stale_deadline = None;
                            tier_transitions += 1;
                        }
                        Some(_) => {}
                    }
                }
                if epoch >= a.next_heartbeat {
                    if !a.enrolled {
                        a.enrolled = true;
                        transport.send(Envelope {
                            to: Address::Coordinator,
                            payload: Payload::ProfileReport {
                                agent: i as u32,
                                sprints: 0,
                                active: 0,
                                window_end: 0,
                            },
                            sent_epoch: epoch,
                        });
                    }
                    transport.send(Envelope {
                        to: Address::Coordinator,
                        payload: Payload::Heartbeat { agent: i as u32 },
                        sent_epoch: epoch,
                    });
                    let healthy = a.tier == ControlTier::Equilibrium
                        && epoch + (cfg.heartbeat_interval as usize) < a.lease_until;
                    if healthy {
                        a.backoff = None;
                        a.attempt = 0;
                        a.next_heartbeat = epoch + cfg.heartbeat_interval as usize;
                    } else {
                        // Renewal is overdue: retry on seeded backoff so
                        // a healing partition is not met by a thundering
                        // herd of synchronized heartbeats.
                        let sched = a.backoff.get_or_insert_with(|| {
                            cfg.retry
                                .schedule(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        });
                        a.attempt += 1;
                        // Clamp to one lease period: however far the
                        // backoff has grown during an outage, a healed
                        // agent re-announces within a single lease.
                        let delay = sched
                            .next_delay()
                            .unwrap_or_else(|| cfg.retry.max_delay.max(1))
                            .min(cfg.lease_epochs);
                        if want_retry {
                            telemetry.emit(&Event::RetryBackoff {
                                epoch,
                                attempt: a.attempt,
                                delay_epochs: delay,
                            });
                        }
                        a.next_heartbeat = epoch + 1 + delay as usize;
                    }
                }

                // 6. Accounting: every live agent holds a valid
                // threshold at every epoch, on some rung.
                if !(a.threshold.is_finite() && a.threshold >= 0.0) {
                    invariant_violations += 1;
                }
                tier_epochs[match a.tier {
                    ControlTier::Equilibrium => 0,
                    ControlTier::StaleCache => 1,
                    ControlTier::Conservative => 2,
                }] += 1;
                utility_sum += utility_of(a.threshold, &self.density);
                live_agent_epochs += 1;
            }

            // 7. Rack dynamics: actual sprinting under the thresholds
            // held this epoch, panel-sensor reports, and the power-gate
            // veto — only when the defense subsystem is attached.
            if let Some(d) = defense.as_mut() {
                d.rack_epoch(epoch, &agents, transport);
            }
        }

        let conservative_utility = utility_of(fallback, &self.density);
        let mean_utility = if live_agent_epochs == 0 {
            conservative_utility
        } else {
            utility_sum / live_agent_epochs as f64
        };
        let mean_recovery_epochs = if recovery_samples.is_empty() {
            None
        } else {
            Some(recovery_samples.iter().sum::<u64>() as f64 / recovery_samples.len() as f64)
        };

        if on {
            let reg = &mut telemetry.registry;
            for (tier, count) in ControlTier::ALL.iter().zip(tier_epochs) {
                let c = reg.counter(&format!("control.tier_epochs.{}", tier.name()));
                reg.inc(c, count);
            }
            let pairs: [(&str, u64); 6] = [
                ("control.resolves", resolves),
                ("control.resolve_failures", resolve_failures),
                ("control.suspects", suspects),
                ("control.lease_grants", lease_grants),
                ("control.lease_expiries", lease_expiries),
                ("control.tier_transitions", tier_transitions),
            ];
            for (name, v) in pairs {
                let c = reg.counter(name);
                reg.inc(c, v);
            }
            let h = reg.histogram(
                "control.recovery_epochs",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            );
            for s in &recovery_samples {
                reg.observe(h, *s as f64);
            }
            let g = reg.gauge("control.mean_utility");
            reg.set(g, mean_utility);
            if let Some(d) = &defense {
                d.export_metrics(reg);
            }
            cache.export_metrics(reg);
        }

        Ok(ControlReport {
            agents: self.game.n_agents(),
            epochs: self.epochs,
            tier_epochs,
            tier_transitions,
            invariant_violations,
            resolves,
            resolve_failures,
            suspects,
            lease_grants,
            lease_expiries,
            recoveries: recovery_samples.len() as u64,
            mean_recovery_epochs,
            mean_utility,
            conservative_utility,
            messages: transport.stats(),
            defense: defense.map(|d| d.finish(self.epochs)),
        })
    }

    fn send_assign(
        &self,
        transport: &mut dyn Transport,
        assignment: Option<(f64, f64, bool)>,
        agent: u32,
        epoch: usize,
        cfg: &ControlConfig,
    ) {
        if let Some((threshold, trip_probability, stale)) = assignment {
            transport.send(Envelope {
                to: Address::Agent { id: agent },
                payload: Payload::StrategyAssign {
                    agent,
                    threshold,
                    trip_probability,
                    lease_epochs: cfg.lease_epochs,
                    stale,
                },
                sent_epoch: epoch,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_workloads::Benchmark;

    fn sim(agents: u32, epochs: usize) -> ControlSim {
        let game = GameConfig::builder()
            .n_agents(agents)
            .n_min(f64::from(agents) * 0.25)
            .n_max(f64::from(agents) * 0.75)
            .build()
            .unwrap();
        let density = Benchmark::DecisionTree.utility_density(256).unwrap();
        ControlSim::new(game, density, epochs).unwrap()
    }

    #[test]
    fn clean_transport_reaches_and_holds_the_equilibrium_tier() {
        let report = sim(32, 400).run(7, &mut Telemetry::noop()).unwrap();
        assert_eq!(report.invariant_violations, 0);
        assert_eq!(report.messages.lost, 0);
        assert_eq!(report.resolve_failures, 0);
        let [eq, stale, cons] = report.tier_epochs;
        assert!(
            eq > 9 * (stale + cons),
            "healthy racks live on the equilibrium tier: {:?}",
            report.tier_epochs
        );
        assert!(report.lease_grants > 0);
        assert!(report.mean_utility >= report.conservative_utility);
    }

    #[test]
    fn reports_are_bit_reproducible() {
        let s = sim(24, 300).with_faults(FaultPlan::partition_chaos(3, 80, 3));
        let a = s.run(11, &mut Telemetry::noop()).unwrap();
        let b = s.run(11, &mut Telemetry::noop()).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn perfect_transport_injection_matches_empty_fault_plan() {
        let s = sim(16, 200);
        let via_plan = s.run(5, &mut Telemetry::noop()).unwrap();
        let mut perfect = PerfectTransport::new();
        let injected = s
            .run_with_transport(&mut perfect, 5, &mut Telemetry::noop())
            .unwrap();
        assert_eq!(via_plan, injected);
    }

    #[test]
    fn faulty_transport_is_deterministic_and_lossy() {
        let plan = FaultPlan::partition_chaos(9, 50, 3);
        let mk = || {
            let mut t = FaultyTransport::new(&plan, 8, 123);
            for e in 0..60usize {
                t.send(Envelope {
                    to: Address::Coordinator,
                    payload: Payload::Heartbeat { agent: 3 },
                    sent_epoch: e,
                });
            }
            let mut delivered = Vec::new();
            for e in 0..80usize {
                delivered.extend(t.deliver(e));
            }
            (t.stats(), delivered.len())
        };
        let (sa, da) = mk();
        let (sb, db) = mk();
        assert_eq!(sa, sb);
        assert_eq!(da, db);
        assert!(sa.lost > 0, "20% loss over 60 sends must drop something");
        assert!(sa.partition_drops > 0, "the window must cut traffic");
        assert_eq!(
            sa.delivered + sa.lost + sa.partition_drops,
            sa.sent + sa.duplicated,
            "every copy is delivered, lost, or cut"
        );
    }

    #[test]
    fn config_validation_rejects_degenerate_windows() {
        let bad = ControlConfig {
            heartbeat_interval: 20,
            lease_epochs: 20,
            ..ControlConfig::default()
        };
        assert!(bad.validate().is_err());
        let zero = ControlConfig {
            lease_epochs: 0,
            ..ControlConfig::default()
        };
        assert!(zero.validate().is_err());
    }
}

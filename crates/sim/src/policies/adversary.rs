//! The adversary policy zoo: strategically misbehaving agents mixed into
//! an otherwise cooperative population.
//!
//! The folk-theorem argument (paper §6.4) only matters if someone actually
//! deviates. This module supplies the deviators. Each [`AdversaryKind`]
//! captures one strategic failure mode observed in shared-resource games:
//!
//! - **greedy defectors** sprint at every opportunity, the paper's
//!   canonical deviation;
//! - **stochastic cheaters** mostly conform but sprint below threshold
//!   with a configured probability, hiding inside sensor noise;
//! - **collusive cliques** coordinate sprint timing so their combined
//!   surge concentrates trip risk while each member's average rate stays
//!   moderate (the dynamic-player-set stochastic game of
//!   arXiv:1809.03143 motivates coordinated subpopulations);
//! - **fictitious-play learners** best-respond to the empirical trip
//!   frequency: while the rack looks safe they ratchet their effective
//!   threshold down, and back off after trips.
//!
//! An [`AdversarialPopulation`] wraps any honest [`SprintPolicy`] and
//! overrides the decisions of a deterministic suffix of the population,
//! so the same seed and population produce the same adversary membership
//! regardless of scheduling. All randomness is counter-based
//! ([`CounterRng`]) keyed by `(agent, epoch)`, never by call order, so
//! runs stay byte-identical at any `--jobs` count.

use crate::policy::SprintPolicy;
use crate::SimError;
use serde::{Deserialize, Serialize};
use sprint_stats::rng::CounterRng;

/// Counter-RNG purpose tag for stochastic-cheater draws. Distinct from
/// every engine stream (trip = 2, cooling = 3, utility streams) so mixing
/// adversaries never perturbs honest draws.
const CHEAT_STREAM: u64 = 0xAD_5A;

/// Multiplicative step the fictitious-play learner takes per epoch.
const LEARNER_STEP: f64 = 0.97;

/// The learner never drops its effective threshold below this fraction
/// of the honest bar.
const LEARNER_FLOOR: f64 = 0.10;

/// One strategic misbehavior archetype.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdversaryKind {
    /// Sprint at every opportunity, ignoring the assignment entirely.
    GreedyDefector,
    /// Conform most of the time; sprint below threshold with probability
    /// `cheat_probability` per active epoch.
    StochasticCheater {
        /// Per-epoch probability of an unjustified sprint.
        cheat_probability: f64,
    },
    /// All clique members sprint together every `period` epochs and
    /// conform in between, synchronizing their surge.
    CollusiveClique {
        /// Epochs between coordinated sprints.
        period: u32,
    },
    /// Best-respond to the observed trip frequency via fictitious play:
    /// while the empirical trip rate stays below `pivot`, shave the
    /// effective threshold multiplicatively toward a floor; after trips
    /// push the rate above `pivot`, restore it.
    FictitiousPlay {
        /// Trip-frequency pivot separating "safe, defect harder" from
        /// "risky, back off".
        pivot: f64,
    },
}

impl AdversaryKind {
    /// All archetypes (with representative parameters), for sweeps and
    /// acceptance matrices.
    pub const ALL: [AdversaryKind; 4] = [
        AdversaryKind::GreedyDefector,
        AdversaryKind::StochasticCheater {
            cheat_probability: 0.25,
        },
        AdversaryKind::CollusiveClique { period: 4 },
        AdversaryKind::FictitiousPlay { pivot: 0.05 },
    ];

    /// Stable snake_case name, used for metrics, sweep axis labels, and
    /// report keys.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryKind::GreedyDefector => "greedy_defector",
            AdversaryKind::StochasticCheater { .. } => "stochastic_cheater",
            AdversaryKind::CollusiveClique { .. } => "collusive_clique",
            AdversaryKind::FictitiousPlay { .. } => "fictitious_play",
        }
    }

    /// Parse a CLI-facing kind name (parameters take their
    /// representative defaults from [`AdversaryKind::ALL`]).
    #[must_use]
    pub fn from_name(name: &str) -> Option<AdversaryKind> {
        AdversaryKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// One adversarial sprint decision, shared by the engine-side
    /// [`AdversarialPopulation`] wrapper and the control plane's rack
    /// model. `honest` is what a conforming agent would do, `threshold`
    /// the bar the fictitious-play learner scales, and `learner_scale`
    /// its current multiplier. Randomness comes only from `(agent,
    /// epoch)` counters, never call order.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &self,
        honest: bool,
        utility: f64,
        threshold: f64,
        agent: u64,
        epoch: u64,
        rng: &CounterRng,
        learner_scale: f64,
    ) -> bool {
        match *self {
            AdversaryKind::GreedyDefector => true,
            AdversaryKind::StochasticCheater { cheat_probability } => {
                honest || rng.uniform(agent, epoch, 0) < cheat_probability
            }
            AdversaryKind::CollusiveClique { period } => {
                // Surge together on the clique's beat; lie low otherwise
                // so the average rate stays plausible.
                epoch.is_multiple_of(u64::from(period)) || honest
            }
            AdversaryKind::FictitiousPlay { .. } => honest || utility > learner_scale * threshold,
        }
    }

    /// Fictitious-play update: step the learner's threshold scale given
    /// the empirical trip frequency. Identity for every other kind.
    #[must_use]
    pub fn learner_step(&self, scale: f64, trip_frequency: f64) -> f64 {
        if let AdversaryKind::FictitiousPlay { pivot } = *self {
            if trip_frequency < pivot {
                (scale * LEARNER_STEP).max(LEARNER_FLOOR)
            } else {
                (scale / LEARNER_STEP).min(1.0)
            }
        } else {
            scale
        }
    }

    fn validate(&self) -> crate::Result<()> {
        match *self {
            AdversaryKind::GreedyDefector => Ok(()),
            AdversaryKind::StochasticCheater { cheat_probability } => {
                if (0.0..=1.0).contains(&cheat_probability) {
                    Ok(())
                } else {
                    Err(SimError::InvalidParameter {
                        name: "cheat_probability",
                        value: cheat_probability,
                        expected: "a probability in [0, 1]",
                    })
                }
            }
            AdversaryKind::CollusiveClique { period } => {
                if period >= 1 {
                    Ok(())
                } else {
                    Err(SimError::InvalidParameter {
                        name: "period",
                        value: f64::from(period),
                        expected: "a period of at least one epoch",
                    })
                }
            }
            AdversaryKind::FictitiousPlay { pivot } => {
                if (0.0..=1.0).contains(&pivot) && pivot.is_finite() {
                    Ok(())
                } else {
                    Err(SimError::InvalidParameter {
                        name: "pivot",
                        value: pivot,
                        expected: "a trip-frequency pivot in [0, 1]",
                    })
                }
            }
        }
    }
}

/// An adversary population specification: which archetype, what fraction
/// of the rack, and when (if ever) it stands down.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AdversaryMix {
    /// The misbehavior archetype.
    pub kind: AdversaryKind,
    /// Fraction of the population that misbehaves, in `[0, 1]`. Members
    /// are the deterministic suffix of agent indices, so membership never
    /// depends on scheduling (and never collides with the partition
    /// layer's prefix cut).
    pub fraction: f64,
    /// Seed for adversary-internal randomness (stochastic cheaters).
    pub seed: u64,
    /// Epoch after which the adversaries stand down and conform. `None`
    /// means they misbehave for the whole run. Models the dynamic player
    /// set of arXiv:1809.03143 and lets tests drive the
    /// revoke → probation → re-admission path.
    pub ceasefire_epoch: Option<usize>,
}

impl AdversaryMix {
    /// A mix with no adversaries at all (the honest baseline).
    #[must_use]
    pub fn honest() -> Self {
        AdversaryMix {
            kind: AdversaryKind::GreedyDefector,
            fraction: 0.0,
            seed: 0,
            ceasefire_epoch: None,
        }
    }

    /// The acceptance-criterion mix: `fraction` greedy defectors.
    #[must_use]
    pub fn greedy(fraction: f64, seed: u64) -> Self {
        AdversaryMix {
            kind: AdversaryKind::GreedyDefector,
            fraction,
            seed,
            ceasefire_epoch: None,
        }
    }

    /// Validate the fraction and the archetype's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when the fraction is outside
    /// `[0, 1]` or the kind's parameters are out of range.
    pub fn validate(&self) -> crate::Result<()> {
        if !(0.0..=1.0).contains(&self.fraction) || !self.fraction.is_finite() {
            return Err(SimError::InvalidParameter {
                name: "fraction",
                value: self.fraction,
                expected: "an adversary fraction in [0, 1]",
            });
        }
        self.kind.validate()
    }

    /// Number of adversarial agents in a population of `n`.
    #[must_use]
    pub fn adversary_count(&self, n: usize) -> usize {
        ((self.fraction * n as f64).ceil() as usize).min(n)
    }

    /// Whether agent `i` (of `n`) is adversarial: membership is the
    /// deterministic suffix of the index range.
    #[must_use]
    pub fn is_adversary(&self, i: usize, n: usize) -> bool {
        i >= n - self.adversary_count(n)
    }

    /// Whether the adversaries are still active at `epoch`.
    #[must_use]
    pub fn active_at(&self, epoch: usize) -> bool {
        self.fraction > 0.0 && self.ceasefire_epoch.is_none_or(|c| epoch < c)
    }

    /// The counter-based stream adversary randomness draws from — one
    /// construction shared by the engine-side wrapper and the control
    /// plane's rack model, so both see the same cheat schedule.
    #[must_use]
    pub fn cheat_rng(&self) -> CounterRng {
        CounterRng::new(self.seed, CHEAT_STREAM)
    }

    /// Stable label for sweep axes and report keys: `kind@fraction`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.fraction == 0.0 {
            "honest".to_string()
        } else {
            format!("{}@{:.2}", self.kind.name(), self.fraction)
        }
    }
}

/// Wraps an honest policy and overrides the decisions of the adversarial
/// suffix of the population.
///
/// The inner policy is always consulted first (so its own state — bans,
/// backoff windows, learned estimates — evolves exactly as it would in an
/// honest run), then the adversary archetype decides whether to override.
/// `static_decider` is `None`: the engine runs adversarial populations
/// through the serial decision loop, which is already pinned
/// byte-identical across `--jobs` counts.
pub struct AdversarialPopulation {
    inner: Box<dyn SprintPolicy>,
    mix: AdversaryMix,
    n_agents: usize,
    epoch: usize,
    trips: u64,
    /// Fictitious-play state: the learner's multiplicative threshold
    /// scale and its running estimate of the honest bar.
    learner_scale: f64,
    threshold_estimate: f64,
    rng: CounterRng,
    forced_sprints: u64,
}

impl AdversarialPopulation {
    /// Wrap `inner` for a population of `n_agents`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an invalid mix or an
    /// empty population.
    pub fn new(
        inner: Box<dyn SprintPolicy>,
        mix: AdversaryMix,
        n_agents: usize,
    ) -> crate::Result<Self> {
        mix.validate()?;
        if n_agents == 0 {
            return Err(SimError::InvalidParameter {
                name: "n_agents",
                value: 0.0,
                expected: "a non-empty population",
            });
        }
        Ok(AdversarialPopulation {
            inner,
            mix,
            n_agents,
            epoch: 0,
            trips: 0,
            learner_scale: 1.0,
            threshold_estimate: 0.0,
            rng: mix.cheat_rng(),
            forced_sprints: 0,
        })
    }

    /// The mix this population was built with.
    #[must_use]
    pub fn mix(&self) -> AdversaryMix {
        self.mix
    }

    /// Decisions where an adversary sprinted against the honest call.
    #[must_use]
    pub fn forced_sprints(&self) -> u64 {
        self.forced_sprints
    }
}

impl SprintPolicy for AdversarialPopulation {
    fn name(&self) -> &'static str {
        match self.mix.kind {
            AdversaryKind::GreedyDefector => "Adversarial (greedy defectors)",
            AdversaryKind::StochasticCheater { .. } => "Adversarial (stochastic cheaters)",
            AdversaryKind::CollusiveClique { .. } => "Adversarial (collusive clique)",
            AdversaryKind::FictitiousPlay { .. } => "Adversarial (fictitious play)",
        }
    }

    fn wants_sprint(&mut self, agent: usize, utility: f64) -> bool {
        let honest = self.inner.wants_sprint(agent, utility);
        if !self.mix.active_at(self.epoch) || !self.mix.is_adversary(agent, self.n_agents) {
            return honest;
        }
        // Track the honest bar from the adversary's own declined
        // utilities (the inner policy sprints iff u > t, so declined
        // draws approach t from below); the learner scales it.
        if !honest && utility > self.threshold_estimate {
            self.threshold_estimate = utility;
        }
        let sprint = self.mix.kind.decide(
            honest,
            utility,
            self.threshold_estimate,
            agent as u64,
            self.epoch as u64,
            &self.rng,
            self.learner_scale,
        );
        if sprint && !honest {
            self.forced_sprints += 1;
        }
        sprint
    }

    fn note_decisions(&mut self, n: u64) {
        self.inner.note_decisions(n);
    }

    fn epoch_end(&mut self, tripped: bool) {
        self.inner.epoch_end(tripped);
        if tripped {
            self.trips += 1;
        }
        // Fictitious play over the empirical trip frequency: defect
        // harder while the rack looks safe, back off after trips.
        let freq = self.trips as f64 / (self.epoch + 1) as f64;
        self.learner_scale = self.mix.kind.learner_step(self.learner_scale, freq);
        self.epoch += 1;
    }

    fn export_metrics(&self, registry: &mut sprint_telemetry::Registry) {
        self.inner.export_metrics(registry);
        let g = registry.gauge("policy.adversary.agents");
        registry.set(g, self.mix.adversary_count(self.n_agents) as f64);
        let c = registry.counter("policy.adversary.forced_sprints");
        registry.inc(c, self.forced_sprints);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::ThresholdPolicy;

    fn honest(n: usize) -> Box<dyn SprintPolicy> {
        Box::new(ThresholdPolicy::new("honest", vec![3.0; n]).unwrap())
    }

    #[test]
    fn validates_mix() {
        assert!(AdversaryMix::greedy(1.5, 0).validate().is_err());
        assert!(AdversaryMix {
            kind: AdversaryKind::StochasticCheater {
                cheat_probability: -0.1
            },
            ..AdversaryMix::honest()
        }
        .validate()
        .is_err());
        assert!(AdversaryMix {
            kind: AdversaryKind::CollusiveClique { period: 0 },
            ..AdversaryMix::honest()
        }
        .validate()
        .is_err());
        assert!(AdversaryMix::greedy(0.1, 7).validate().is_ok());
    }

    #[test]
    fn membership_is_the_population_suffix() {
        let mix = AdversaryMix::greedy(0.1, 1);
        assert_eq!(mix.adversary_count(100), 10);
        assert!(!mix.is_adversary(89, 100));
        assert!(mix.is_adversary(90, 100));
        assert!(mix.is_adversary(99, 100));
        assert_eq!(AdversaryMix::honest().adversary_count(100), 0);
    }

    #[test]
    fn greedy_defectors_always_sprint_and_honest_agents_conform() {
        let mut p =
            AdversarialPopulation::new(honest(10), AdversaryMix::greedy(0.2, 3), 10).unwrap();
        assert!(!p.wants_sprint(0, 1.0), "honest agent below threshold");
        assert!(p.wants_sprint(0, 5.0), "honest agent above threshold");
        assert!(p.wants_sprint(8, 1.0), "defector sprints regardless");
        assert!(p.wants_sprint(9, 0.0));
        assert_eq!(p.forced_sprints(), 2);
    }

    #[test]
    fn ceasefire_restores_conformance() {
        let mix = AdversaryMix {
            ceasefire_epoch: Some(2),
            ..AdversaryMix::greedy(0.5, 3)
        };
        let mut p = AdversarialPopulation::new(honest(4), mix, 4).unwrap();
        assert!(p.wants_sprint(3, 1.0), "active adversary defects");
        p.epoch_end(false);
        p.epoch_end(false);
        assert!(!p.wants_sprint(3, 1.0), "after ceasefire it conforms");
    }

    #[test]
    fn stochastic_cheater_is_deterministic_per_agent_epoch() {
        let mix = AdversaryMix {
            kind: AdversaryKind::StochasticCheater {
                cheat_probability: 0.5,
            },
            ..AdversaryMix::greedy(1.0, 11)
        };
        let mut a = AdversarialPopulation::new(honest(4), mix, 4).unwrap();
        let mut b = AdversarialPopulation::new(honest(4), mix, 4).unwrap();
        for epoch in 0..50 {
            for agent in 0..4 {
                let u = 0.1 * (agent + epoch) as f64 % 6.0;
                assert_eq!(a.wants_sprint(agent, u), b.wants_sprint(agent, u));
            }
            a.epoch_end(false);
            b.epoch_end(false);
        }
        assert!(a.forced_sprints() > 0, "a 50% cheater must cheat sometimes");
        assert_eq!(a.forced_sprints(), b.forced_sprints());
    }

    #[test]
    fn clique_surges_on_its_beat() {
        let mix = AdversaryMix {
            kind: AdversaryKind::CollusiveClique { period: 4 },
            ..AdversaryMix::greedy(0.5, 5)
        };
        let mut p = AdversarialPopulation::new(honest(4), mix, 4).unwrap();
        // Epoch 0 is on the beat: both members sprint sub-threshold.
        assert!(p.wants_sprint(2, 1.0));
        assert!(p.wants_sprint(3, 1.0));
        p.epoch_end(false);
        // Off the beat the clique conforms.
        assert!(!p.wants_sprint(2, 1.0));
        assert!(p.wants_sprint(2, 5.0));
    }

    #[test]
    fn learner_defects_while_safe_and_backs_off_after_trips() {
        let mix = AdversaryMix {
            kind: AdversaryKind::FictitiousPlay { pivot: 0.3 },
            ..AdversaryMix::greedy(1.0, 9)
        };
        let mut p = AdversarialPopulation::new(honest(2), mix, 2).unwrap();
        // Teach it the bar, then let a trip-free stretch embolden it.
        assert!(!p.wants_sprint(0, 2.9), "learner starts honest");
        for _ in 0..40 {
            p.epoch_end(false);
        }
        assert!(
            p.wants_sprint(0, 2.0),
            "after a calm stretch the scaled bar admits 2.0"
        );
        // A long run of trips pushes the cumulative empirical frequency
        // over the pivot and the learner restores its threshold.
        for _ in 0..200 {
            p.epoch_end(true);
        }
        assert!(!p.wants_sprint(0, 2.0), "after trips it conforms again");
    }

    #[test]
    fn static_decider_is_disabled() {
        let p = AdversarialPopulation::new(honest(4), AdversaryMix::greedy(0.25, 1), 4).unwrap();
        assert!(p.static_decider().is_none());
    }
}

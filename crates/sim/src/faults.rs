//! Fault injection for the sprinting rack.
//!
//! The paper's protocols assume a well-behaved rack: agents stay up,
//! sprinters release power when their epoch ends, the breaker sees the
//! true aggregate current, and the coordinator's offline analysis (§4.4)
//! matches the population actually racked. A [`FaultPlan`] breaks each of
//! those assumptions independently so the degradation of every policy can
//! be measured:
//!
//! - [`CrashChurn`] — agents crash mid-epoch and restart cold, losing
//!   their sprint privileges until they re-acquire thresholds from the
//!   coordinator.
//! - [`StuckSprinters`] — a sprinter's power gate sticks at sprint
//!   completion, so the rack keeps drawing its sprint current even though
//!   the chip does no sprint work.
//! - [`SensorFault`] — the panel's current sensor reports noisy values or
//!   drops out entirely, so the breaker's stress diverges from the truth
//!   the policies reason about.
//! - [`BreakerDrift`] — the breaker's tolerance band has drifted from the
//!   §2.2 calibration the solvers assume.
//! - [`CoordinatorStaleness`] — equilibrium thresholds were solved for an
//!   outdated population size (machines since added or drained).
//! - [`TransportFault`] — the coordinator↔agent control channel loses,
//!   delays, or duplicates messages ([`crate::control`]).
//! - [`RackPartition`] — a window of epochs during which some fraction of
//!   agents cannot exchange any message with the coordinator.
//!
//! Fault randomness is drawn from a dedicated stream seeded by
//! [`FaultPlan::seed`], *never* from the simulation's main stream, so an
//! empty plan reproduces fault-free runs bit for bit.

use crate::SimError;

/// Agent crash/restart churn.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CrashChurn {
    /// Per-agent, per-epoch probability of crashing.
    pub crash_probability: f64,
    /// Probability a crashed agent stays down another epoch (geometric
    /// restart delay, like the paper's geometric recovery).
    pub p_restart_stay: f64,
    /// Epochs a restarted agent must wait before sprinting again while it
    /// re-acquires its threshold from the coordinator (cold start).
    pub reacquire_epochs: u32,
}

/// Sprinters whose power gate fails to release at sprint completion.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct StuckSprinters {
    /// Probability a completing sprint sticks in the power-on position.
    pub stick_probability: f64,
    /// Probability a stuck gate stays stuck another epoch (geometric
    /// release).
    pub p_stuck_stay: f64,
}

/// Noise and dropout on the panel's aggregate current sensor.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SensorFault {
    /// Relative standard deviation of multiplicative Gaussian noise on
    /// the measured sprinter-equivalent load.
    pub relative_sd: f64,
    /// Per-epoch probability the sensor drops out and holds its last good
    /// reading.
    pub dropout_probability: f64,
}

/// Breaker tolerance-band miscalibration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BreakerDrift {
    /// Relative shift of both band edges: the breaker actually trips on
    /// the band `[(1 + shift)·N_min, (1 + shift)·N_max]` while every
    /// solver still assumes the nominal §2.2 band. Negative values model
    /// a breaker that trips early; positive, one that trips late.
    pub band_shift: f64,
}

/// Coordinator thresholds solved for an outdated population.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CoordinatorStaleness {
    /// Ratio of the population the coordinator solved for to the
    /// population actually racked (`> 1`: machines have since drained;
    /// `< 1`: machines have since been added).
    pub population_factor: f64,
}

/// Unreliable coordinator↔agent message transport.
///
/// Applied per message by [`crate::control::FaultyTransport`]: a message
/// is first dropped with `loss_probability`; a surviving message is
/// delayed a uniform `1..=max_delay_epochs` extra epochs with
/// `delay_probability`, and an extra copy is enqueued with
/// `duplicate_probability`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TransportFault {
    /// Per-message probability of silent loss.
    pub loss_probability: f64,
    /// Per-message probability of extra delivery delay.
    pub delay_probability: f64,
    /// Maximum extra delay, in epochs (ignored unless delay fires).
    pub max_delay_epochs: u32,
    /// Per-message probability of a duplicate delivery.
    pub duplicate_probability: f64,
}

/// A rack partition: a contiguous window of epochs during which a
/// fraction of agents exchange no messages with the coordinator in
/// either direction (messages are dropped, not queued).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RackPartition {
    /// First epoch of the partition window.
    pub start_epoch: usize,
    /// Length of the window, in epochs.
    pub duration_epochs: usize,
    /// Fraction of agents cut off, in `(0, 1]` (1.0 = the whole rack
    /// loses its coordinator). Agents `0..ceil(fraction · n)` are the
    /// partitioned ones, so the affected set is deterministic.
    pub fraction: f64,
}

impl RackPartition {
    /// Whether `agent` (of `n_agents`) is cut off at `epoch`.
    #[must_use]
    pub fn cuts(&self, epoch: usize, agent: u32, n_agents: u32) -> bool {
        if epoch < self.start_epoch || epoch >= self.start_epoch + self.duration_epochs {
            return false;
        }
        let affected = (self.fraction * f64::from(n_agents)).ceil() as u32;
        agent < affected
    }

    /// First epoch after the partition heals.
    #[must_use]
    pub fn heal_epoch(&self) -> usize {
        self.start_epoch + self.duration_epochs
    }
}

/// A complete, serializable fault schedule for one run.
///
/// Each component is optional; [`FaultPlan::none`] is the fault-free plan
/// and leaves simulations bit-identical to runs that never heard of
/// faults.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultPlan {
    /// Seed for the dedicated fault randomness stream.
    pub seed: u64,
    /// Agent crash/restart churn.
    pub crash: Option<CrashChurn>,
    /// Stuck sprinter power gates.
    pub stuck: Option<StuckSprinters>,
    /// Current-sensor noise and dropout.
    pub sensor: Option<SensorFault>,
    /// Breaker band miscalibration.
    pub breaker_drift: Option<BreakerDrift>,
    /// Stale coordinator thresholds.
    pub staleness: Option<CoordinatorStaleness>,
    /// Lossy/delaying/duplicating control-plane transport. Plan JSON
    /// written before the control plane has no such key; an absent
    /// `Option` field reads as `None`, so that JSON still loads.
    pub transport: Option<TransportFault>,
    /// A scheduled rack partition (absent from older plan JSON, like
    /// `transport`).
    pub partition: Option<RackPartition>,
}

fn check_probability(name: &'static str, p: f64) -> crate::Result<()> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(SimError::InvalidParameter {
            name,
            value: p,
            expected: "a probability in [0, 1]",
        });
    }
    Ok(())
}

impl FaultPlan {
    /// The fault-free plan.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A moderate composite plan enabling every fault class at once —
    /// the stress mix the chaos matrix uses by default.
    #[must_use]
    pub fn composite(seed: u64) -> Self {
        FaultPlan {
            seed,
            crash: Some(CrashChurn {
                crash_probability: 0.002,
                p_restart_stay: 0.8,
                reacquire_epochs: 3,
            }),
            stuck: Some(StuckSprinters {
                stick_probability: 0.05,
                p_stuck_stay: 0.6,
            }),
            sensor: Some(SensorFault {
                relative_sd: 0.05,
                dropout_probability: 0.01,
            }),
            breaker_drift: Some(BreakerDrift { band_shift: -0.05 }),
            staleness: Some(CoordinatorStaleness {
                population_factor: 1.1,
            }),
            transport: None,
            partition: None,
        }
    }

    /// A partition-chaos plan: ≥ 20% message loss with delays and
    /// duplicates, plus a full-rack partition over the given window —
    /// the acceptance mix of the partition resilience suite.
    #[must_use]
    pub fn partition_chaos(seed: u64, start_epoch: usize, duration_epochs: usize) -> Self {
        FaultPlan {
            seed,
            transport: Some(TransportFault {
                loss_probability: 0.2,
                delay_probability: 0.1,
                max_delay_epochs: 3,
                duplicate_probability: 0.05,
            }),
            partition: Some(RackPartition {
                start_epoch,
                duration_epochs,
                fraction: 1.0,
            }),
            ..FaultPlan::none()
        }
    }

    /// The adversary-defense acceptance mix: noisy, occasionally dropped
    /// sensor readings over a lossy, delaying, duplicating transport.
    /// No partition — the detector must prove itself against degraded
    /// evidence, not a severed control plane.
    #[must_use]
    pub fn adversary_chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            sensor: Some(SensorFault {
                relative_sd: 0.05,
                dropout_probability: 0.01,
            }),
            transport: Some(TransportFault {
                loss_probability: 0.2,
                delay_probability: 0.1,
                max_delay_epochs: 3,
                duplicate_probability: 0.05,
            }),
            ..FaultPlan::none()
        }
    }

    /// Whether any fault class is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.crash.is_some()
            || self.stuck.is_some()
            || self.sensor.is_some()
            || self.breaker_drift.is_some()
            || self.staleness.is_some()
            || self.transport.is_some()
            || self.partition.is_some()
    }

    /// Validate every enabled component.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for out-of-range
    /// probabilities, a non-finite noise level, a band shift at or below
    /// −1 (a breaker with a negative band), or a non-positive population
    /// factor.
    pub fn validate(&self) -> crate::Result<()> {
        if let Some(c) = self.crash {
            check_probability("crash_probability", c.crash_probability)?;
            check_probability("p_restart_stay", c.p_restart_stay)?;
        }
        if let Some(s) = self.stuck {
            check_probability("stick_probability", s.stick_probability)?;
            check_probability("p_stuck_stay", s.p_stuck_stay)?;
        }
        if let Some(s) = self.sensor {
            if s.relative_sd < 0.0 || !s.relative_sd.is_finite() {
                return Err(SimError::InvalidParameter {
                    name: "relative_sd",
                    value: s.relative_sd,
                    expected: "a non-negative finite noise level",
                });
            }
            check_probability("dropout_probability", s.dropout_probability)?;
        }
        if let Some(d) = self.breaker_drift {
            if d.band_shift <= -1.0 || !d.band_shift.is_finite() {
                return Err(SimError::InvalidParameter {
                    name: "band_shift",
                    value: d.band_shift,
                    expected: "a finite relative shift above -1",
                });
            }
        }
        if let Some(s) = self.staleness {
            if s.population_factor <= 0.0 || !s.population_factor.is_finite() {
                return Err(SimError::InvalidParameter {
                    name: "population_factor",
                    value: s.population_factor,
                    expected: "a positive finite population ratio",
                });
            }
        }
        if let Some(t) = self.transport {
            check_probability("loss_probability", t.loss_probability)?;
            check_probability("delay_probability", t.delay_probability)?;
            check_probability("duplicate_probability", t.duplicate_probability)?;
        }
        if let Some(p) = self.partition {
            if !(p.fraction > 0.0 && p.fraction <= 1.0) {
                return Err(SimError::InvalidParameter {
                    name: "fraction",
                    value: p.fraction,
                    expected: "a partitioned fraction in (0, 1]",
                });
            }
            if p.duration_epochs == 0 {
                return Err(SimError::InvalidParameter {
                    name: "duration_epochs",
                    value: 0.0,
                    expected: "a partition lasting at least one epoch",
                });
            }
        }
        Ok(())
    }
}

/// Per-fault counters collected during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct FaultMetrics {
    /// Agent crashes.
    pub crashes: u64,
    /// Agent restarts after a crash.
    pub restarts: u64,
    /// Agent-epochs lost to crashes (the agent was down).
    pub crashed_agent_epochs: u64,
    /// Agent-epochs with a stuck power gate drawing phantom sprint load.
    pub stuck_epochs: u64,
    /// Epochs the current sensor dropped out and held its last reading.
    pub sensor_dropouts: u64,
    /// Trips fired while the *decided* sprinter count was below `N_min`
    /// (the nominal curve says the breaker could not trip).
    pub spurious_trips: u32,
    /// Epochs the breaker failed to trip although the decided count was
    /// at or above `N_max` (the nominal curve says it must trip).
    pub missed_trips: u32,
}

impl FaultMetrics {
    /// Whether every counter is zero (a clean run).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == FaultMetrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_valid() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn composite_enables_everything() {
        let plan = FaultPlan::composite(7);
        assert!(plan.is_active());
        assert!(plan.validate().is_ok());
        assert!(plan.crash.is_some());
        assert!(plan.stuck.is_some());
        assert!(plan.sensor.is_some());
        assert!(plan.breaker_drift.is_some());
        assert!(plan.staleness.is_some());
        assert_eq!(plan.seed, 7);
    }

    #[test]
    fn validate_rejects_bad_components() {
        let mut plan = FaultPlan::none();
        plan.crash = Some(CrashChurn {
            crash_probability: 1.5,
            p_restart_stay: 0.5,
            reacquire_epochs: 1,
        });
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.stuck = Some(StuckSprinters {
            stick_probability: 0.1,
            p_stuck_stay: -0.1,
        });
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.sensor = Some(SensorFault {
            relative_sd: f64::NAN,
            dropout_probability: 0.0,
        });
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.breaker_drift = Some(BreakerDrift { band_shift: -1.0 });
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.staleness = Some(CoordinatorStaleness {
            population_factor: 0.0,
        });
        assert!(plan.validate().is_err());
    }

    #[test]
    fn partition_chaos_meets_the_acceptance_floor() {
        let plan = FaultPlan::partition_chaos(9, 100, 3);
        assert!(plan.is_active());
        assert!(plan.validate().is_ok());
        let t = plan.transport.unwrap();
        assert!(t.loss_probability >= 0.2, "acceptance demands ≥ 20% loss");
        let p = plan.partition.unwrap();
        assert_eq!((p.start_epoch, p.duration_epochs), (100, 3));
        assert_eq!(p.heal_epoch(), 103);
        // Full-rack partition: every agent is cut inside the window,
        // nobody outside it.
        assert!(p.cuts(100, 0, 64) && p.cuts(102, 63, 64));
        assert!(!p.cuts(99, 0, 64) && !p.cuts(103, 0, 64));
    }

    #[test]
    fn partial_partition_cuts_a_deterministic_prefix() {
        let p = RackPartition {
            start_epoch: 0,
            duration_epochs: 10,
            fraction: 0.25,
        };
        assert!(p.cuts(5, 0, 100) && p.cuts(5, 24, 100));
        assert!(!p.cuts(5, 25, 100) && !p.cuts(5, 99, 100));
    }

    #[test]
    fn validate_rejects_bad_transport_and_partition() {
        let mut plan = FaultPlan::none();
        plan.transport = Some(TransportFault {
            loss_probability: 1.2,
            delay_probability: 0.0,
            max_delay_epochs: 1,
            duplicate_probability: 0.0,
        });
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.partition = Some(RackPartition {
            start_epoch: 0,
            duration_epochs: 5,
            fraction: 0.0,
        });
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.partition = Some(RackPartition {
            start_epoch: 0,
            duration_epochs: 0,
            fraction: 1.0,
        });
        assert!(plan.validate().is_err());
    }

    #[test]
    fn pre_transport_plan_json_still_parses() {
        // Plans serialized before the control plane existed carry no
        // transport/partition keys; they must load as None.
        let legacy = r#"{"seed":7,"crash":null,"stuck":null,"sensor":null,
                          "breaker_drift":null,"staleness":null}"#;
        let plan: FaultPlan = serde_json::from_str(legacy).unwrap();
        assert!(plan.transport.is_none() && plan.partition.is_none());
        assert!(!plan.is_active());
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::composite(42);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);

        let none = FaultPlan::none();
        let json = serde_json::to_string(&none).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(none, back);
    }

    #[test]
    fn metrics_default_is_clean() {
        let m = FaultMetrics::default();
        assert!(m.is_clean());
        let dirty = FaultMetrics {
            crashes: 1,
            ..FaultMetrics::default()
        };
        assert!(!dirty.is_clean());
    }
}

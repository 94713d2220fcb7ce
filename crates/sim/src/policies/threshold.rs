//! Threshold policies: E-T and C-T (§6).
//!
//! Both the Equilibrium Threshold and Cooperative Threshold policies
//! execute the same way online — each agent compares the epoch's utility
//! against an assigned threshold — and differ only in how the thresholds
//! were computed offline (Algorithm 1 versus exhaustive search).

use std::sync::Arc;

use sprint_game::ThresholdStrategy;

use crate::policy::{SprintPolicy, StaticDecider};
use crate::SimError;

/// Per-agent threshold policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdPolicy {
    name: &'static str,
    /// Never mutated after construction.
    thresholds: Thresholds,
}

/// A threshold policy's thresholds, stored once when every agent shares
/// one.
#[derive(Debug, Clone, PartialEq)]
enum Thresholds {
    /// One threshold for all `agents`.
    Uniform { threshold: f64, agents: usize },
    /// One threshold per agent, shared with every [`StaticDecider`]
    /// snapshot.
    PerAgent(Arc<[f64]>),
}

impl ThresholdPolicy {
    /// Create a policy from per-agent thresholds. Thresholds that all
    /// agree bit for bit are stored once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an empty list or
    /// negative/non-finite thresholds.
    pub fn new(name: &'static str, thresholds: Vec<f64>) -> crate::Result<Self> {
        let Some(&first) = thresholds.first() else {
            return Err(SimError::InvalidParameter {
                name: "thresholds",
                value: 0.0,
                expected: "one threshold per agent",
            });
        };
        if thresholds.iter().any(|&t| t < 0.0 || !t.is_finite()) {
            return Err(SimError::InvalidParameter {
                name: "thresholds",
                value: f64::NAN,
                expected: "non-negative finite thresholds",
            });
        }
        let thresholds = if thresholds.iter().all(|t| t.to_bits() == first.to_bits()) {
            Thresholds::Uniform {
                threshold: first,
                agents: thresholds.len(),
            }
        } else {
            Thresholds::PerAgent(thresholds.into())
        };
        Ok(ThresholdPolicy { name, thresholds })
    }

    /// Create a policy where every agent shares one strategy, stored
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `n_agents` is 0.
    pub fn uniform(
        name: &'static str,
        strategy: ThresholdStrategy,
        n_agents: usize,
    ) -> crate::Result<Self> {
        if n_agents == 0 {
            return Err(SimError::InvalidParameter {
                name: "n_agents",
                value: 0.0,
                expected: "at least one agent",
            });
        }
        Ok(ThresholdPolicy {
            name,
            thresholds: Thresholds::Uniform {
                threshold: strategy.threshold(),
                agents: n_agents,
            },
        })
    }

    /// The thresholds, one per agent (a shared threshold is copied out
    /// once per agent).
    #[must_use]
    pub fn thresholds(&self) -> Vec<f64> {
        match &self.thresholds {
            Thresholds::Uniform { threshold, agents } => vec![*threshold; *agents],
            Thresholds::PerAgent(thresholds) => thresholds.to_vec(),
        }
    }
}

impl SprintPolicy for ThresholdPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn wants_sprint(&mut self, agent: usize, utility: f64) -> bool {
        match &self.thresholds {
            Thresholds::Uniform { threshold, .. } => utility > *threshold,
            Thresholds::PerAgent(thresholds) => utility > thresholds[agent],
        }
    }

    fn static_decider(&self) -> Option<StaticDecider> {
        Some(match &self.thresholds {
            Thresholds::Uniform { threshold, .. } => StaticDecider::Uniform(*threshold),
            Thresholds::PerAgent(thresholds) => StaticDecider::PerAgent(Arc::clone(thresholds)),
        })
    }

    fn export_metrics(&self, registry: &mut sprint_telemetry::Registry) {
        let (lo, hi, mean) = match &self.thresholds {
            // The mean sums the copies, as a per-agent list would, so the
            // gauge keeps its bits.
            Thresholds::Uniform { threshold, agents } => (
                *threshold,
                *threshold,
                std::iter::repeat_n(*threshold, *agents).sum::<f64>() / *agents as f64,
            ),
            Thresholds::PerAgent(t) => (
                t.iter().copied().fold(f64::INFINITY, f64::min),
                t.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                t.iter().sum::<f64>() / t.len() as f64,
            ),
        };
        let g = registry.gauge("policy.threshold.min");
        registry.set(g, lo);
        let g = registry.gauge("policy.threshold.max");
        registry.set(g, hi);
        let g = registry.gauge("policy.threshold.mean");
        registry.set(g, mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_thresholds() {
        assert!(ThresholdPolicy::new("t", vec![]).is_err());
        assert!(ThresholdPolicy::new("t", vec![-1.0]).is_err());
        assert!(ThresholdPolicy::new("t", vec![f64::INFINITY]).is_err());
        assert!(ThresholdPolicy::uniform("t", ThresholdStrategy::always_sprint(), 0).is_err());
    }

    #[test]
    fn per_agent_comparison() {
        let mut p = ThresholdPolicy::new("E-T", vec![2.0, 5.0]).unwrap();
        assert!(p.wants_sprint(0, 3.0));
        assert!(!p.wants_sprint(1, 3.0));
        assert_eq!(p.name(), "E-T");
    }

    #[test]
    fn uniform_replicates_strategy() {
        let s = ThresholdStrategy::new(4.0).unwrap();
        let p = ThresholdPolicy::uniform("C-T", s, 3).unwrap();
        assert_eq!(p.thresholds(), &[4.0, 4.0, 4.0]);
    }

    #[test]
    fn a_shared_threshold_is_stored_once_and_reports_like_a_list() {
        let listed = ThresholdPolicy::new("E-T", vec![0.1; 3]).unwrap();
        let shared =
            ThresholdPolicy::uniform("E-T", ThresholdStrategy::new(0.1).unwrap(), 3).unwrap();
        assert_eq!(listed, shared);
        assert_eq!(shared.static_decider(), Some(StaticDecider::Uniform(0.1)));
        // The mean sums three copies, as a list would: 0.1 + 0.1 + 0.1
        // is not 0.3 in f64, so the gauge is not the threshold itself.
        let mut registry = sprint_telemetry::Registry::new();
        shared.export_metrics(&mut registry);
        let mean = registry.gauge_value("policy.threshold.mean").unwrap();
        assert_eq!(
            mean.to_bits(),
            ([0.1; 3].iter().sum::<f64>() / 3.0).to_bits()
        );
        assert_ne!(mean, 0.1);
        let mixed = ThresholdPolicy::new("E-T", vec![0.1, 0.2]).unwrap();
        assert!(matches!(
            mixed.static_decider(),
            Some(StaticDecider::PerAgent(_))
        ));
    }
}

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
    /// Never mutated after [`ThresholdPolicy::new`]; shared with every
    /// [`StaticDecider`] snapshot.
    thresholds: Arc<[f64]>,
}

impl ThresholdPolicy {
    /// Create a policy from per-agent thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an empty list or
    /// negative/non-finite thresholds.
    pub fn new(name: &'static str, thresholds: Vec<f64>) -> crate::Result<Self> {
        if thresholds.is_empty() {
            return Err(SimError::InvalidParameter {
                name: "thresholds",
                value: 0.0,
                expected: "one threshold per agent",
            });
        }
        if thresholds.iter().any(|&t| t < 0.0 || !t.is_finite()) {
            return Err(SimError::InvalidParameter {
                name: "thresholds",
                value: f64::NAN,
                expected: "non-negative finite thresholds",
            });
        }
        Ok(ThresholdPolicy {
            name,
            thresholds: thresholds.into(),
        })
    }

    /// Create a policy where every agent shares one strategy.
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
        ThresholdPolicy::new(name, vec![strategy.threshold(); n_agents])
    }

    /// The thresholds, one per agent.
    #[must_use]
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }
}

impl SprintPolicy for ThresholdPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn wants_sprint(&mut self, agent: usize, utility: f64) -> bool {
        utility > self.thresholds[agent]
    }

    fn static_decider(&self) -> Option<StaticDecider> {
        Some(StaticDecider::PerAgent(Arc::clone(&self.thresholds)))
    }

    fn export_metrics(&self, registry: &mut sprint_telemetry::Registry) {
        let lo = self
            .thresholds
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .thresholds
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let mean = self.thresholds.iter().sum::<f64>() / self.thresholds.len() as f64;
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
}

//! The sprinting-policy interface.
//!
//! A policy answers one question per active agent per epoch: *sprint or
//! not?* — and observes the epoch's global outcome (whether the breaker
//! tripped) to adapt. The paper's four policies (§6) implement this trait
//! in [`crate::policies`].

use std::sync::Arc;

/// Identifier for the paper's evaluated policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PolicyKind {
    /// G: sprint whenever permitted.
    Greedy,
    /// E-B: greedy with randomized exponential backoff after trips.
    ExponentialBackoff,
    /// E-T: per-type equilibrium thresholds from Algorithm 1.
    EquilibriumThreshold,
    /// C-T: the globally optimal common threshold (upper bound).
    CooperativeThreshold,
}

impl PolicyKind {
    /// All four policies in the paper's presentation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Greedy,
        PolicyKind::ExponentialBackoff,
        PolicyKind::EquilibriumThreshold,
        PolicyKind::CooperativeThreshold,
    ];

    /// Abbreviation used in the paper's figures.
    #[must_use]
    pub fn abbreviation(&self) -> &'static str {
        match self {
            PolicyKind::Greedy => "G",
            PolicyKind::ExponentialBackoff => "E-B",
            PolicyKind::EquilibriumThreshold => "E-T",
            PolicyKind::CooperativeThreshold => "C-T",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolicyKind::Greedy => "Greedy",
            PolicyKind::ExponentialBackoff => "Exponential Backoff",
            PolicyKind::EquilibriumThreshold => "Equilibrium Threshold",
            PolicyKind::CooperativeThreshold => "Cooperative Threshold",
        };
        write!(f, "{s}")
    }
}

/// A snapshot of a policy's decision rule that needs no mutable state.
///
/// Policies whose per-epoch decisions are a pure function of
/// `(agent, utility)` — Greedy and the threshold policies — export one of
/// these so the engine can evaluate decisions inside its parallel agent
/// kernel without threading `&mut dyn SprintPolicy` across workers.
/// Stateful policies (backoff, adaptive, …) return `None` from
/// [`SprintPolicy::static_decider`] and keep the serial decision loop.
#[derive(Debug, Clone, PartialEq)]
pub enum StaticDecider {
    /// Sprint at every opportunity (Greedy).
    AlwaysSprint,
    /// Sprint iff `utility > threshold`, one threshold for every agent
    /// (C-T, and E-T on a population of one type).
    Uniform(f64),
    /// Sprint iff `utility > thresholds[agent]` (E-T / C-T). Shared with
    /// the policy, so taking a snapshot copies no threshold.
    PerAgent(Arc<[f64]>),
}

impl StaticDecider {
    /// The decision for `agent` at `utility`.
    #[inline]
    #[must_use]
    pub fn wants_sprint(&self, agent: usize, utility: f64) -> bool {
        match self {
            StaticDecider::AlwaysSprint => true,
            StaticDecider::Uniform(threshold) => utility > *threshold,
            StaticDecider::PerAgent(thresholds) => utility > thresholds[agent],
        }
    }
}

/// A sprinting policy driving every agent in a simulated rack.
pub trait SprintPolicy: Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Whether agent `agent` (currently active) wants to sprint this
    /// epoch, given its estimated utility.
    fn wants_sprint(&mut self, agent: usize, utility: f64) -> bool;

    /// A stateless snapshot of the decision rule, if one exists.
    ///
    /// Returning `Some` lets the engine decide agents inside its
    /// chunk-parallel kernel (bit-identical to the serial loop);
    /// [`SprintPolicy::note_decisions`] then reports how many decisions
    /// were evaluated so counting policies stay accurate. The default
    /// (`None`) keeps every decision on [`SprintPolicy::wants_sprint`].
    fn static_decider(&self) -> Option<StaticDecider> {
        None
    }

    /// Observe that the engine evaluated `n` decisions through the
    /// [`StaticDecider`] snapshot this epoch (never called on the
    /// serial `wants_sprint` path).
    fn note_decisions(&mut self, n: u64) {
        let _ = n;
    }

    /// Observe the epoch's outcome (breaker tripped or not). Called once
    /// per epoch after all decisions resolve; adaptive policies (E-B)
    /// update their state here.
    fn epoch_end(&mut self, tripped: bool) {
        let _ = tripped;
    }

    /// Export policy-internal state into a metrics registry. Called once
    /// at the end of an instrumented run ([`crate::engine::run_guarded`]);
    /// the default exports nothing, and un-instrumented runs never call
    /// it, so stateless policies pay nothing.
    fn export_metrics(&self, registry: &mut sprint_telemetry::Registry) {
        let _ = registry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_policies_in_order() {
        assert_eq!(PolicyKind::ALL.len(), 4);
        assert_eq!(PolicyKind::ALL[0].abbreviation(), "G");
        assert_eq!(PolicyKind::ALL[3].abbreviation(), "C-T");
    }

    #[test]
    fn static_decider_rules() {
        assert!(StaticDecider::AlwaysSprint.wants_sprint(3, 0.0));
        let per = StaticDecider::PerAgent(vec![2.0, 5.0].into());
        assert!(per.wants_sprint(0, 3.0));
        assert!(!per.wants_sprint(1, 3.0));
    }

    #[test]
    fn uniform_decider_holds_every_agent_to_one_threshold() {
        let uniform = StaticDecider::Uniform(2.0);
        assert!(uniform.wants_sprint(7, 3.0));
        assert!(!uniform.wants_sprint(7, 2.0));
        assert!(!uniform.wants_sprint(1_000_000, 1.0));
    }

    #[test]
    fn display_names() {
        assert_eq!(PolicyKind::Greedy.to_string(), "Greedy");
        assert_eq!(
            PolicyKind::EquilibriumThreshold.to_string(),
            "Equilibrium Threshold"
        );
    }
}

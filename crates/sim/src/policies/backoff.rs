//! The Exponential Backoff (E-B) policy.
//!
//! "Exponential Backoff throttles the frequency at which agents sprint. An
//! agent sprints greedily until the breaker trips. After the first trip,
//! agents wait 0–1 epoch before sprinting again. After the second trip,
//! agents wait 0–3 epochs. After the t-th trip, agents wait for some
//! number of epochs drawn randomly from `[0, 2^t − 1]`. The waiting
//! interval contracts by half if the breaker has not been tripped in the
//! past 100 epochs." (§6)

use rand::rngs::StdRng;
use rand::Rng;

use sprint_stats::rng::seeded_rng;

use crate::policy::SprintPolicy;

/// Epochs without a trip before the backoff interval contracts.
const CONTRACTION_WINDOW: usize = 100;

/// Cap on the backoff exponent (`2^16 − 1` epochs is already far beyond
/// any simulation horizon; the cap prevents shift overflow).
const MAX_EXPONENT: u32 = 16;

/// Greedy sprinting with randomized exponential backoff after trips.
#[derive(Debug, Clone)]
pub struct ExponentialBackoff {
    /// Remaining wait epochs per agent.
    waits: Vec<u32>,
    /// Current backoff exponent `t` (trips since last contraction phase).
    exponent: u32,
    /// Epochs since the last trip.
    quiet_epochs: usize,
    rng: StdRng,
}

impl ExponentialBackoff {
    /// Create the policy for `n_agents` agents with a deterministic seed.
    #[must_use]
    pub fn new(n_agents: usize, seed: u64) -> Self {
        ExponentialBackoff {
            waits: vec![0; n_agents],
            exponent: 0,
            quiet_epochs: 0,
            rng: seeded_rng(seed ^ 0xE_B0FF),
        }
    }

    /// Current backoff exponent `t`.
    #[must_use]
    pub fn exponent(&self) -> u32 {
        self.exponent
    }
}

impl SprintPolicy for ExponentialBackoff {
    fn name(&self) -> &'static str {
        "Exponential Backoff"
    }

    fn wants_sprint(&mut self, agent: usize, _utility: f64) -> bool {
        let wait = &mut self.waits[agent];
        if *wait > 0 {
            *wait -= 1;
            false
        } else {
            true
        }
    }

    /// [`SprintPolicy::wants_sprint`] is the countdown rule over the
    /// waits, which only a trip's refill in [`SprintPolicy::epoch_end`]
    /// sets.
    fn countdown(&mut self) -> Option<&mut [u32]> {
        Some(&mut self.waits)
    }

    fn export_metrics(&self, registry: &mut sprint_telemetry::Registry) {
        let g = registry.gauge("policy.backoff.exponent");
        registry.set(g, f64::from(self.exponent));
        let g = registry.gauge("policy.backoff.quiet_epochs");
        registry.set(g, self.quiet_epochs as f64);
        let g = registry.gauge("policy.backoff.waiting_agents");
        registry.set(g, self.waits.iter().filter(|&&w| w > 0).count() as f64);
    }

    fn epoch_end(&mut self, tripped: bool) {
        if tripped {
            self.exponent = (self.exponent + 1).min(MAX_EXPONENT);
            self.quiet_epochs = 0;
            let bound = (1u32 << self.exponent) - 1; // wait ∈ [0, 2^t − 1]
            for w in &mut self.waits {
                *w = if bound == 0 {
                    0
                } else {
                    self.rng.gen_range(0..=bound)
                };
            }
        } else {
            self.quiet_epochs += 1;
            if self.quiet_epochs >= CONTRACTION_WINDOW && self.exponent > 0 {
                self.exponent -= 1; // interval contracts by half
                self.quiet_epochs = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sprints_greedily_before_any_trip() {
        let mut p = ExponentialBackoff::new(4, 1);
        for a in 0..4 {
            assert!(p.wants_sprint(a, 1.0));
        }
        assert_eq!(p.exponent(), 0);
    }

    #[test]
    fn first_trip_waits_zero_or_one() {
        let mut p = ExponentialBackoff::new(1000, 2);
        p.epoch_end(true);
        assert_eq!(p.exponent(), 1);
        assert!(p.waits.iter().all(|&w| w <= 1));
        // Roughly half wait one epoch.
        let waiting = p.waits.iter().filter(|&&w| w == 1).count();
        assert!((300..700).contains(&waiting), "waiting = {waiting}");
    }

    #[test]
    fn repeated_trips_grow_the_interval() {
        let mut p = ExponentialBackoff::new(1000, 3);
        p.epoch_end(true);
        p.epoch_end(true);
        p.epoch_end(true);
        assert_eq!(p.exponent(), 3);
        assert!(p.waits.iter().all(|&w| w <= 7), "waits ∈ [0, 2^3 − 1]");
        assert!(p.waits.iter().any(|&w| w > 1), "some waits exceed 1");
    }

    #[test]
    fn waiting_agents_do_not_sprint() {
        let mut p = ExponentialBackoff::new(100, 4);
        for _ in 0..4 {
            p.epoch_end(true);
        }
        let sprinting_now = (0..100).filter(|&a| p.wants_sprint(a, 1.0)).count();
        assert!(sprinting_now < 40, "{sprinting_now} sprint immediately");
        // Waits drain one epoch at a time; eventually everyone sprints.
        let mut rounds = 0;
        loop {
            let all = (0..100).all(|a| {
                // Peek by cloning the wait (wants_sprint decrements).
                p.waits[a] == 0
            });
            if all {
                break;
            }
            for a in 0..100 {
                let _ = p.wants_sprint(a, 1.0);
            }
            rounds += 1;
            assert!(rounds < 20, "waits must drain within 2^4 epochs");
        }
    }

    #[test]
    fn quiet_century_contracts_interval() {
        let mut p = ExponentialBackoff::new(10, 5);
        p.epoch_end(true);
        p.epoch_end(true);
        assert_eq!(p.exponent(), 2);
        for _ in 0..100 {
            p.epoch_end(false);
        }
        assert_eq!(p.exponent(), 1);
        for _ in 0..100 {
            p.epoch_end(false);
        }
        assert_eq!(p.exponent(), 0);
        // Cannot contract below zero.
        for _ in 0..100 {
            p.epoch_end(false);
        }
        assert_eq!(p.exponent(), 0);
    }

    #[test]
    fn exponent_is_capped() {
        let mut p = ExponentialBackoff::new(4, 6);
        for _ in 0..40 {
            p.epoch_end(true);
        }
        assert_eq!(p.exponent(), 16);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = ExponentialBackoff::new(50, 9);
        let mut b = ExponentialBackoff::new(50, 9);
        a.epoch_end(true);
        b.epoch_end(true);
        assert_eq!(a.waits, b.waits);
    }
}

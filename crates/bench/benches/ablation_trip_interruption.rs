//! Ablation: UPS sprint completion vs I²t truncation on tripped epochs.
//!
//! The paper's §2.2 says batteries "complete sprints in progress", which
//! is generous to Greedy: its constant emergencies still harvest full
//! sprint utility. The truncated semantics end the epoch at the breaker's
//! I²t trip time instead. The measured effect is small — staggered greedy
//! overloads are mild, so trips come late in the epoch — which rules this
//! modeling choice *out* as the source of the E-T/G factor gap documented
//! in EXPERIMENTS.md.

use sprint_bench::{paper_scenario, TRIAL_SEEDS};
use sprint_sim::engine::TripInterruption;
use sprint_sim::policy::PolicyKind;
use sprint_sim::runner::compare;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::Benchmark;

const EPOCHS: usize = 600;

fn main() {
    sprint_bench::header(
        "Ablation: trip interruption",
        "E-T/G under UPS-completion vs I²t-truncated tripped epochs",
        "paper Figure 8 reports E-T up to 6.8x G; truncation barely moves our \
         factor, ruling it out as the gap's cause",
    );
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>14}",
        "benchmark", "G (UPS)", "E-T/G (UPS)", "G (trunc)", "E-T/G (trunc)"
    );
    for b in [
        Benchmark::DecisionTree,
        Benchmark::Svm,
        Benchmark::PageRank,
        Benchmark::Kmeans,
    ] {
        let mut cells = Vec::new();
        for mode in [TripInterruption::CompleteOnUps, TripInterruption::Truncated] {
            let scenario = paper_scenario(b, EPOCHS).with_interruption(mode);
            let cmp = compare(
                &scenario,
                &[PolicyKind::Greedy, PolicyKind::EquilibriumThreshold],
                &TRIAL_SEEDS,
                0,
                &mut Telemetry::noop(),
            )
            .expect("comparison succeeds");
            let g = cmp
                .outcome(PolicyKind::Greedy)
                .expect("greedy present")
                .tasks_per_agent_epoch;
            let ratio = cmp
                .normalized_to_greedy(PolicyKind::EquilibriumThreshold)
                .expect("greedy present");
            cells.push((g, ratio));
        }
        println!(
            "{:<14} {:>14.3} {:>14.2} {:>14.3} {:>14.2}",
            b.name(),
            cells[0].0,
            cells[0].1,
            cells[1].0,
            cells[1].1
        );
    }
}

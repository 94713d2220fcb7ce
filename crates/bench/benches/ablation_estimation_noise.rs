//! Ablation: sensitivity of the equilibrium policy to online utility
//! estimation error.
//!
//! The paper's online strategy estimates a sprint's utility from brief
//! profiling or heuristics (§4.4); the evaluation assumes good estimates.
//! This ablation injects multiplicative estimation noise into the E-T
//! decisions while keeping realized utilities exact.

use sprint_bench::{paper_scenario, TRIAL_SEEDS};
use sprint_sim::engine::UtilityEstimation;
use sprint_sim::policy::PolicyKind;
use sprint_sim::runner::compare;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::Benchmark;

const EPOCHS: usize = 600;

fn main() {
    sprint_bench::header(
        "Ablation: estimation noise",
        "E-T throughput vs relative error of online utility estimates",
        "extension — the paper assumes profiled estimates; thresholds tolerate \
         moderate noise because they cut density valleys",
    );
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "benchmark", "0%", "10%", "25%", "50%", "100%"
    );
    for b in [
        Benchmark::DecisionTree,
        Benchmark::PageRank,
        Benchmark::Kmeans,
    ] {
        print!("{:<14}", b.name());
        for sd in [0.0, 0.10, 0.25, 0.50, 1.0] {
            let scenario = paper_scenario(b, EPOCHS).with_estimation(if sd == 0.0 {
                UtilityEstimation::Oracle
            } else {
                UtilityEstimation::Noisy { relative_sd: sd }
            });
            let cmp = compare(
                &scenario,
                &[PolicyKind::EquilibriumThreshold],
                &TRIAL_SEEDS,
                0,
                &mut Telemetry::noop(),
            )
            .expect("comparison succeeds");
            let tasks = cmp
                .outcome(PolicyKind::EquilibriumThreshold)
                .expect("policy present")
                .tasks_per_agent_epoch;
            print!(" {tasks:>9.3}");
        }
        println!();
    }
    println!();
    println!("cells: tasks per agent-epoch under E-T at each relative estimation error.");
}

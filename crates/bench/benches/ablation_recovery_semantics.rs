//! Ablation: idle recovery (paper) vs normal-mode recovery.
//!
//! The paper's greedy pathology rests on "idle recovery harms
//! performance" (§6.1). If servers could compute in normal mode while
//! batteries recharge, how much of E-T's advantage would remain?

use sprint_bench::{paper_scenario, TRIAL_SEEDS};
use sprint_sim::engine::RecoverySemantics;
use sprint_sim::policy::PolicyKind;
use sprint_sim::runner::compare;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::Benchmark;

const EPOCHS: usize = 600;

fn main() {
    sprint_bench::header(
        "Ablation: recovery semantics",
        "Idle recovery (paper) vs normal-mode recovery",
        "E-T's advantage shrinks when emergencies stop idling the rack, but the \
         ordering survives",
    );
    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>14}",
        "benchmark", "G (idle)", "G (normal)", "E-T/G (idle)", "E-T/G (normal)"
    );
    for b in [Benchmark::DecisionTree, Benchmark::PageRank] {
        let mut cells = Vec::new();
        for mode in [RecoverySemantics::Idle, RecoverySemantics::NormalMode] {
            let scenario = paper_scenario(b, EPOCHS).with_recovery(mode);
            let cmp = compare(
                &scenario,
                &[PolicyKind::Greedy, PolicyKind::EquilibriumThreshold],
                &TRIAL_SEEDS,
                0,
                &mut Telemetry::noop(),
            )
            .expect("comparison succeeds");
            cells.push((
                cmp.outcome(PolicyKind::Greedy)
                    .expect("greedy present")
                    .tasks_per_agent_epoch,
                cmp.normalized_to_greedy(PolicyKind::EquilibriumThreshold)
                    .expect("greedy present"),
            ));
        }
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>14.2} {:>14.2}",
            b.name(),
            cells[0].0,
            cells[1].0,
            cells[0].1,
            cells[1].1
        );
    }
}

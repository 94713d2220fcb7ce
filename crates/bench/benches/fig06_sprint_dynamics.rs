//! Figure 6: sprinting behavior for the representative application
//! (Decision Tree) — the number of sprinters per epoch under the four
//! policies, with N_min = 250 marking the edge of the tolerance band.

use sprint_bench::{downsample, paper_scenario, sparkline, PAPER_EPOCHS};
use sprint_sim::policy::PolicyKind;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::Benchmark;

fn main() {
    sprint_bench::header(
        "Figure 6",
        "Sprinting behavior, 1000 x DecisionTree over 1000 epochs",
        "G oscillates; E-B stays under N_min; E-T/C-T sit near N_min = 250",
    );
    let scenario = paper_scenario(Benchmark::DecisionTree, PAPER_EPOCHS);
    for kind in PolicyKind::ALL {
        let result = scenario
            .execute(kind, 11, 1, &mut Telemetry::noop())
            .expect("simulation succeeds");
        let series: Vec<f64> = result
            .sprinters_per_epoch()
            .iter()
            .map(|&s| f64::from(s))
            .collect();
        let compact = downsample(&series, 72);
        println!();
        println!(
            "{kind} — mean sprinters {:.0}, trips {}, tasks/agent-epoch {:.3}",
            result.mean_sprinters(),
            result.trips(),
            result.tasks_per_agent_epoch()
        );
        println!("  {}", sparkline(&compact, 1000.0));
        // Numeric series every 50 epochs for EXPERIMENTS.md.
        let coarse = downsample(&series, 20);
        let cells: Vec<String> = coarse.iter().map(|v| format!("{v:>4.0}")).collect();
        println!("  every 50 epochs: {}", cells.join(" "));
    }
    println!();
    println!("grey line reference: N_min = 250 sprinters");
}

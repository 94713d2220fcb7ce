//! Ablation: profiled estimates vs history-only prediction.
//!
//! The paper's agents profile each epoch's first seconds to estimate its
//! sprint utility (§4.4). Prediction from history alone avoids that cost
//! but misses one epoch at every phase boundary. This ablation bounds
//! what the profiling step is worth under realistic phase persistence.

use sprint_bench::paper_scenario;
use sprint_game::{GameConfig, MeanFieldSolver};
use sprint_sim::engine::{run_guarded, RunGuard, SimConfig};
use sprint_sim::policies::PredictiveThreshold;
use sprint_sim::policy::PolicyKind;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::Benchmark;

const EPOCHS: usize = 800;

fn main() {
    sprint_bench::header(
        "Ablation: prediction vs profiling",
        "E-T decisions on profiled measurements vs history-only predictions",
        "extension — phase persistence makes prediction nearly as good as profiling",
    );
    let config = GameConfig::paper_defaults();
    println!(
        "{:<14} {:>14} {:>14} {:>10}",
        "benchmark", "profiled E-T", "predictive E-T", "pred/prof"
    );
    for b in [
        Benchmark::DecisionTree,
        Benchmark::PageRank,
        Benchmark::Kmeans,
        Benchmark::LinearRegression,
    ] {
        let density = b.utility_density(512).expect("valid bins");
        let eq = MeanFieldSolver::new(config)
            .run(&density, &mut Telemetry::noop())
            .expect("equilibrium exists");
        let scenario = paper_scenario(b, EPOCHS);
        let profiled = scenario
            .execute(
                PolicyKind::EquilibriumThreshold,
                9,
                1,
                &mut Telemetry::noop(),
            )
            .expect("simulation succeeds");

        let mut streams = scenario
            .population()
            .spawn_streams(9)
            .expect("streams spawn");
        let mut policy = PredictiveThreshold::uniform(eq.threshold(), 1000).expect("valid policy");
        let predictive = run_guarded(
            &SimConfig::new(config, EPOCHS, 9).expect("valid epochs"),
            &mut streams,
            &mut policy,
            &RunGuard::default(),
            1,
            &mut Telemetry::noop(),
        )
        .expect("simulation succeeds");

        let prof = profiled.tasks_per_agent_epoch();
        let pred = predictive.tasks_per_agent_epoch();
        println!(
            "{:<14} {:>14.3} {:>14.3} {:>10.3}",
            b.name(),
            prof,
            pred,
            pred / prof
        );
    }
    println!();
    println!(
        "prediction forfeits one epoch per phase boundary (persistence ≈ 3 epochs),\n\
         retaining ~90% of profiled throughput when the threshold sits in a density\n\
         valley (decision, pagerank) and everything for always-sprint profiles\n\
         (linear). It collapses when the threshold cuts *inside* a mode (kmeans):\n\
         the EWMA whipsaws around the cut — there, the paper's profiling step\n\
         pays for itself."
    );
}

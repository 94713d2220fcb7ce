//! Ablation/extension: can agents learn the equilibrium online?
//!
//! The paper's thresholds come from the coordinator's offline Algorithm 1.
//! Here every agent runs the AdaptiveThreshold learner — best-responding
//! to the trip frequency it actually observes — and we compare the learned
//! threshold and realized throughput against the offline equilibrium.

use sprint_bench::paper_scenario;
use sprint_game::{GameConfig, MeanFieldSolver};
use sprint_sim::engine::{run_guarded, RunGuard, SimConfig};
use sprint_sim::policies::AdaptiveThreshold;
use sprint_sim::policy::PolicyKind;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::Benchmark;

const EPOCHS: usize = 2000;

fn main() {
    sprint_bench::header(
        "Ablation: adaptive learning",
        "Online best-response vs offline Algorithm 1",
        "extension — the paper computes thresholds offline; learning should converge \
         to the same equilibrium",
    );
    let config = GameConfig::paper_defaults();
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "benchmark", "offline u_T", "learned u_T", "E-T tasks", "learn tasks", "trips"
    );
    for b in [Benchmark::DecisionTree, Benchmark::Svm, Benchmark::PageRank] {
        let density = b.utility_density(512).expect("valid bins");
        let offline = MeanFieldSolver::new(config)
            .run(&density, &mut Telemetry::noop())
            .expect("equilibrium exists");

        let scenario = paper_scenario(b, EPOCHS);
        let offline_run = scenario
            .execute(
                PolicyKind::EquilibriumThreshold,
                5,
                1,
                &mut Telemetry::noop(),
            )
            .expect("simulation succeeds");

        let mut learner =
            AdaptiveThreshold::with_defaults(config, density).expect("valid learner parameters");
        let mut streams = scenario
            .population()
            .spawn_streams(5)
            .expect("streams spawn");
        let sim_config = SimConfig::new(config, EPOCHS, 5).expect("valid epochs");
        let learned_run = run_guarded(
            &sim_config,
            &mut streams,
            &mut learner,
            &RunGuard::default(),
            1,
            &mut Telemetry::noop(),
        )
        .expect("simulation succeeds");

        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>7}",
            b.name(),
            offline.threshold(),
            learner.threshold(),
            offline_run.tasks_per_agent_epoch(),
            learned_run.tasks_per_agent_epoch(),
            learned_run.trips()
        );
    }
    println!();
    println!(
        "learned thresholds settle near the offline equilibrium; early pessimism \
         (belief P = 1) costs a brief aggressive transient."
    );
}

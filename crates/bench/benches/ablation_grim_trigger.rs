//! Ablation/extension: folk-theorem enforcement in the simulator (§6.4).
//!
//! A share of agents defect from the cooperative threshold and sprint
//! greedily; the coordinator optionally punishes detected deviations with
//! a permanent sprinting ban (grim trigger).
//!
//! Two regimes:
//! - **Paper defaults** (cheap recovery): chip cooling self-limits the
//!   defectors, so deviation barely harms the rack — and banning large
//!   shares of the population costs more than the crime. The threat alone
//!   suffices; executing it is wasteful.
//! - **Expensive recovery** (`p_r = 0.999`, near the §6.4 prisoner's
//!   dilemma): enough defectors eventually trip the breaker and idle the
//!   rack for ~1000 epochs. Enforcement bans them before the emergency
//!   and preserves throughput — the folk theorem earning its keep.

use sprint_bench::paper_scenario;
use sprint_game::cooperative::CooperativeSearch;
use sprint_game::GameConfig;
use sprint_sim::engine::{self, SimConfig};
use sprint_sim::policies::GrimTrigger;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::Benchmark;

const EPOCHS: usize = 800;
const AGENTS: usize = 1000;

fn run(config: GameConfig, n_deviants: usize, enforcement: bool) -> (f64, u32, usize) {
    let density = Benchmark::DecisionTree
        .utility_density(512)
        .expect("valid bins");
    let ct = CooperativeSearch::default_resolution()
        .solve(&config, &density)
        .expect("search succeeds");
    let scenario = paper_scenario(Benchmark::DecisionTree, EPOCHS);
    let mut streams = scenario
        .population()
        .spawn_streams(17)
        .expect("streams spawn");
    let deviants: Vec<usize> = (0..n_deviants).collect();
    let mut policy =
        GrimTrigger::new(vec![ct.threshold; AGENTS], &deviants, enforcement).expect("valid policy");
    let result = engine::run_guarded(
        &SimConfig::new(config, EPOCHS, 17).expect("valid epochs"),
        &mut streams,
        &mut policy,
        &engine::RunGuard::default(),
        1,
        &mut Telemetry::noop(),
    )
    .expect("simulation succeeds");
    (
        result.tasks_per_agent_epoch(),
        result.trips(),
        policy.banned_count(),
    )
}

fn report(title: &str, config: GameConfig) {
    println!();
    println!("{title}");
    println!(
        "{:>10} {:<14} {:>11} {:>7} {:>8}",
        "defectors", "enforcement", "tasks/epoch", "trips", "banned"
    );
    for share in [0usize, 300, 600, 900] {
        for enforcement in [false, true] {
            let (tasks, trips, banned) = run(config, share, enforcement);
            println!(
                "{share:>10} {:<14} {tasks:>11.3} {trips:>7} {banned:>8}",
                if enforcement { "grim trigger" } else { "none" }
            );
        }
    }
}

fn main() {
    sprint_bench::header(
        "Ablation: grim-trigger enforcement",
        "Cooperative thresholds with defectors, with and without punishment",
        "§6.4 — the threat of being forbidden from sprinting deters deviation",
    );
    report(
        "paper defaults (p_r = 0.88 — cheap recovery):",
        GameConfig::paper_defaults(),
    );
    report(
        "expensive recovery (p_r = 0.999 — near the prisoner's dilemma):",
        GameConfig::builder()
            .p_recovery(0.999)
            .build()
            .expect("valid config"),
    );
    println!();
    println!(
        "cheap recovery: cooling self-limits defectors; punishment costs more than \
         the crime.\nexpensive recovery: unchecked defectors trigger an emergency \
         that idles the rack\nfor ~1000 epochs, while enforcement bans them first \
         and preserves throughput."
    );
}

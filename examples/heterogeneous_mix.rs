//! Heterogeneous rack: the coordinator assigns tailored strategies.
//!
//! Registers profiles for four different applications sharing one rack,
//! runs the coordinator's offline analysis (the heterogeneous mean-field
//! solve), and shows how thresholds differ per type — then simulates the
//! assigned strategies against Greedy.
//!
//! ```text
//! cargo run --release --example heterogeneous_mix
//! ```

use computational_sprinting::game::coordinator::Coordinator;
use computational_sprinting::game::GameConfig;
use computational_sprinting::sim::policy::PolicyKind;
use computational_sprinting::sim::scenario::Scenario;
use computational_sprinting::telemetry::Telemetry;
use computational_sprinting::workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mix = [
        Benchmark::LinearRegression,
        Benchmark::PageRank,
        Benchmark::Svm,
        Benchmark::Als,
    ];
    let config = GameConfig::builder()
        .n_agents(1000)
        .n_min(250.0)
        .n_max(750.0)
        .build()?;

    // Offline: agents report profiles; the coordinator optimizes.
    let mut coordinator = Coordinator::new(config);
    for b in mix {
        coordinator.register_profile(b.name(), b.utility_density(512)?, 250);
    }
    let assignments = coordinator.run(&mut Telemetry::noop())?;

    println!(
        "coordinator assignments (shared P_trip = {:.3}):\n",
        assignments.trip_probability()
    );
    println!(
        "{:<14} {:>11} {:>11} {:>11}",
        "type", "threshold", "P(sprint)", "sprinters"
    );
    for t in assignments.equilibrium().types() {
        println!(
            "{:<14} {:>11.3} {:>11.3} {:>11.1}",
            t.name, t.threshold, t.p_sprint, t.expected_sprinters
        );
    }

    // Online: simulate the mix under the assigned strategies vs Greedy.
    let scenario = Scenario::heterogeneous(&mix, 1000, 500)?;
    let greedy = scenario.execute(PolicyKind::Greedy, 42, 1, &mut Telemetry::noop())?;
    let equilibrium = scenario.execute(
        PolicyKind::EquilibriumThreshold,
        42,
        1,
        &mut Telemetry::noop(),
    )?;
    println!(
        "\nsimulated throughput: greedy {:.3}, equilibrium {:.3} ({:.1}x better), \
         trips {} vs {}",
        greedy.tasks_per_agent_epoch(),
        equilibrium.tasks_per_agent_epoch(),
        equilibrium.tasks_per_agent_epoch() / greedy.tasks_per_agent_epoch(),
        greedy.trips(),
        equilibrium.trips()
    );
    Ok(())
}

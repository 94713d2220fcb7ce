//! Rack dynamics: simulate the four management policies head to head.
//!
//! Runs a 500-chip rack of Decision Tree agents for 600 epochs under
//! Greedy, Exponential Backoff, Equilibrium Threshold, and Cooperative
//! Threshold, and prints the Figure 6/7/8-style comparison.
//!
//! ```text
//! cargo run --release --example rack_dynamics
//! ```

use computational_sprinting::sim::policy::PolicyKind;
use computational_sprinting::sim::runner::compare;
use computational_sprinting::sim::scenario::Scenario;
use computational_sprinting::telemetry::Telemetry;
use computational_sprinting::workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 500, 600)?;
    println!(
        "rack: {} agents, band [{}, {}], {} epochs\n",
        scenario.game().n_agents(),
        scenario.game().n_min(),
        scenario.game().n_max(),
        scenario.epochs()
    );

    let comparison = compare(
        &scenario,
        &PolicyKind::ALL,
        &[1, 2, 3],
        0,
        &mut Telemetry::noop(),
    )?;

    println!(
        "{:<24} {:>10} {:>8} {:>8} {:>10} {:>9} {:>7}",
        "policy", "tasks/ep", "vs G", "active%", "recovery%", "sprint%", "trips"
    );
    for outcome in comparison.outcomes() {
        let norm = comparison
            .normalized_to_greedy(outcome.policy)
            .expect("greedy included");
        println!(
            "{:<24} {:>10.3} {:>8.2} {:>8.1} {:>10.1} {:>9.1} {:>7.1}",
            outcome.policy.to_string(),
            outcome.tasks_per_agent_epoch,
            norm,
            outcome.occupancy[0] * 100.0,
            outcome.occupancy[2] * 100.0,
            outcome.occupancy[3] * 100.0,
            outcome.trips
        );
    }

    println!(
        "\nthe equilibrium policy sprints only when an epoch's utility clears its \
         optimized threshold,\nkeeping sprinters below the breaker band — no emergencies, \
         no idle recovery."
    );
    Ok(())
}

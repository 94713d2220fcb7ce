//! Figure 7: percentage of time agents spend in each state (active but
//! not sprinting, chip cooling, rack recovery, sprinting) for the
//! representative application under each policy.

use sprint_bench::{paper_scenario, PAPER_EPOCHS};
use sprint_sim::policy::PolicyKind;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::Benchmark;

fn main() {
    sprint_bench::header(
        "Figure 7",
        "State occupancy, 1000 x DecisionTree",
        "G: >50% recovery; E-B: ~40% active-not-sprinting; E-T/C-T sprint timely",
    );
    let scenario = paper_scenario(Benchmark::DecisionTree, PAPER_EPOCHS);
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>10}",
        "policy", "active%", "cooling%", "recovery%", "sprint%"
    );
    for kind in PolicyKind::ALL {
        let result = scenario
            .execute(kind, 11, 1, &mut Telemetry::noop())
            .expect("simulation succeeds");
        let f = result.occupancy().fractions();
        println!(
            "{:<24} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            kind.to_string(),
            f[0] * 100.0,
            f[1] * 100.0,
            f[2] * 100.0,
            f[3] * 100.0
        );
    }
}

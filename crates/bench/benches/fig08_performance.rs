//! Figure 8: task throughput normalized to Greedy for every benchmark
//! under the four policies (homogeneous racks).

use sprint_bench::{paper_scenario, TRIAL_SEEDS};
use sprint_sim::policy::PolicyKind;
use sprint_sim::runner::compare;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::Benchmark;

const EPOCHS: usize = 600;

fn main() {
    sprint_bench::header(
        "Figure 8",
        "Performance normalized to Greedy, single application type",
        "E-T beats G by up to 6.8x and E-B by up to 4.8x; E-T ≈ 90% of C-T \
         (linear/correlation are outliers)",
    );
    println!(
        "{:<14} {:>7} {:>7} {:>7} {:>7} {:>9}",
        "benchmark", "G", "E-B", "E-T", "C-T", "E-T/C-T"
    );
    for b in Benchmark::ALL {
        let scenario = paper_scenario(b, EPOCHS);
        let cmp = compare(
            &scenario,
            &PolicyKind::ALL,
            &TRIAL_SEEDS,
            0,
            &mut Telemetry::noop(),
        )
        .expect("comparison succeeds");
        let norm = |k: PolicyKind| cmp.normalized_to_greedy(k).expect("greedy present");
        let et = norm(PolicyKind::EquilibriumThreshold);
        let ct = norm(PolicyKind::CooperativeThreshold);
        println!(
            "{:<14} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>9.2}",
            b.name(),
            1.0,
            norm(PolicyKind::ExponentialBackoff),
            et,
            ct,
            et / ct
        );
    }
}

//! Figure 9: task throughput normalized to Greedy as the number of
//! application types grows from 1 to 11 (ten random mixes per point).

use sprint_sim::policy::PolicyKind;
use sprint_sim::runner::compare;
use sprint_sim::scenario::Scenario;
use sprint_sim::telemetry::Telemetry;
use sprint_stats::rng::seeded_rng;
use sprint_workloads::generator::Population;

const AGENTS: usize = 1000;
const EPOCHS: usize = 400;
const MIXES_PER_POINT: usize = 10;

fn main() {
    sprint_bench::header(
        "Figure 9",
        "Performance normalized to Greedy vs number of application types",
        "E-T performs much better than G and E-B at every mix size \
         (C-T omitted: per-type exhaustive search is computationally hard)",
    );
    let mut rng = seeded_rng(0xF19);
    println!("{:>6} {:>7} {:>7} {:>7}", "types", "G", "E-B", "E-T");
    for k in 1..=11usize {
        let mut sums = [0.0f64; 3];
        for mix in 0..MIXES_PER_POINT {
            let population = Population::random_mix(k, AGENTS, &mut rng).expect("valid mix size");
            let scenario = Scenario::with_population(population, EPOCHS).expect("valid scenario");
            let policies = [
                PolicyKind::Greedy,
                PolicyKind::ExponentialBackoff,
                PolicyKind::EquilibriumThreshold,
            ];
            let cmp = compare(
                &scenario,
                &policies,
                &[100 + mix as u64],
                0,
                &mut Telemetry::noop(),
            )
            .expect("comparison succeeds");
            for (i, p) in policies.into_iter().enumerate() {
                sums[i] += cmp.normalized_to_greedy(p).expect("greedy present");
            }
        }
        let n = MIXES_PER_POINT as f64;
        println!(
            "{k:>6} {:>7.2} {:>7.2} {:>7.2}",
            sums[0] / n,
            sums[1] / n,
            sums[2] / n
        );
    }
}

//! Reports of jobs whose trials share a (population, seed) pair are
//! pinned byte for byte: a sweep over every policy, every standard fault
//! plan, a homogeneous and a three-type population and an adversary mix;
//! a chaos matrix; and a policy comparison. Each serialized report must
//! match a digest recorded on the kernel that sampled every trial's phase
//! process itself, at every thread budget.

use sprint_game::EquilibriumCache;
use sprint_sim::policies::AdversaryMix;
use sprint_sim::policy::PolicyKind;
use sprint_sim::runner::{self, standard_fault_suite};
use sprint_sim::scenario::Scenario;
use sprint_sim::sweep::{
    run_sweep_shared, GameVariant, NamedAdversaries, PopulationSpec, Supervision, SweepSpec,
};
use sprint_sim::telemetry::Telemetry;
use sprint_sim::RunOptions;
use sprint_workloads::Benchmark;

/// FNV-1a over a report's canonical JSON bytes.
fn digest<T: serde::Serialize>(report: &T) -> u64 {
    let json = serde_json::to_string(report).unwrap();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

const JOBS: [usize; 2] = [1, 3];

/// Every policy × the standard fault suite × two populations × two
/// seeds, with a greedy-defector mix on the adversary axis: 96 trials
/// over 4 (population, seed) pairs.
fn grid() -> SweepSpec {
    SweepSpec {
        games: vec![GameVariant::paper("paper")],
        populations: vec![
            PopulationSpec::homogeneous(Benchmark::Svm, 40),
            PopulationSpec {
                name: "svm+pagerank+kmeans".to_string(),
                benchmarks: vec!["svm".into(), "pagerank".into(), "kmeans".into()],
                agents: 45,
            },
        ],
        plans: standard_fault_suite(19),
        adversaries: vec![NamedAdversaries {
            name: "greedy-10".to_string(),
            mix: AdversaryMix::greedy(0.1, 5),
        }],
        policies: PolicyKind::ALL.to_vec(),
        seeds: vec![8, 9],
        epochs: 70,
        options: RunOptions::default(),
    }
}

#[test]
fn shared_pair_sweep_matches_recorded_digest() {
    let spec = grid();
    for jobs in JOBS {
        let cache = EquilibriumCache::default();
        let report = run_sweep_shared(
            &spec,
            jobs,
            Supervision::default(),
            &cache,
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(report.trials + report.quarantined.len(), 96);
        assert_eq!(digest(&report), 0xD63D_0CA7_62E9_7765, "jobs {jobs}");
    }
}

#[test]
fn shared_pair_chaos_matches_recorded_digest() {
    let scenario = Scenario::homogeneous(Benchmark::Kmeans, 48, 90).unwrap();
    let plans = standard_fault_suite(23);
    for jobs in JOBS {
        let report = runner::chaos(
            &scenario,
            &PolicyKind::ALL,
            &plans,
            &[4, 5, 6],
            jobs,
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(digest(&report), 0x3197_CA41_2550_65F1, "jobs {jobs}");
    }
}

#[test]
fn shared_pair_comparison_matches_recorded_digest() {
    let scenario = Scenario::heterogeneous(
        &[Benchmark::Svm, Benchmark::PageRank, Benchmark::Kmeans],
        45,
        120,
    )
    .unwrap();
    for jobs in JOBS {
        let cmp = runner::compare(
            &scenario,
            &PolicyKind::ALL,
            &[7, 8],
            jobs,
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(digest(&cmp), 0x944C_A89A_BE13_AEAC, "jobs {jobs}");
    }
}

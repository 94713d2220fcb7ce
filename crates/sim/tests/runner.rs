//! The runner suites' reports are a function of their inputs alone: the
//! serialized `Comparison`, `ChaosReport`, `ResilienceReport` and
//! `AdversaryReport` of small fixed scenarios must match digests recorded
//! from the runner that spawned one thread per trial, at every thread
//! budget.

use sprint_sim::control::{ControlConfig, DetectorConfig};
use sprint_sim::faults::FaultPlan;
use sprint_sim::policies::AdversaryMix;
use sprint_sim::policy::PolicyKind;
use sprint_sim::runner;
use sprint_sim::scenario::Scenario;
use sprint_sim::telemetry::Telemetry;
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

const JOBS: [usize; 3] = [1, 2, 4];

#[test]
fn comparison_matches_recorded_digest() {
    let scenario = Scenario::homogeneous(Benchmark::Svm, 100, 300).unwrap();
    for jobs in JOBS {
        let cmp = runner::compare(
            &scenario,
            &PolicyKind::ALL,
            &[1, 2, 3],
            jobs,
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(digest(&cmp), 0xD8AA_CA30_87F1_F7AB, "jobs {jobs}");
    }
}

#[test]
fn chaos_report_matches_recorded_digest() {
    let scenario = Scenario::homogeneous(Benchmark::Svm, 60, 200).unwrap();
    let plans = runner::standard_fault_suite(17);
    for jobs in JOBS {
        let report = runner::chaos(
            &scenario,
            &PolicyKind::ALL,
            &plans,
            &[1, 2],
            jobs,
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(digest(&report), 0x201D_48CD_628D_865F, "jobs {jobs}");
    }
}

#[test]
fn resilience_report_matches_recorded_digest() {
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 100, 300).unwrap();
    for jobs in JOBS {
        let report = runner::resilience(
            &scenario,
            FaultPlan::partition_chaos(17, 150, 3),
            ControlConfig::default(),
            &[1, 2, 3],
            jobs,
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(digest(&report), 0x12EF_A3EE_F69D_21DC, "jobs {jobs}");
    }
}

#[test]
fn adversary_report_matches_recorded_digest() {
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 100, 300).unwrap();
    for jobs in JOBS {
        let report = runner::adversary_defense(
            &scenario,
            FaultPlan::adversary_chaos(17),
            ControlConfig::default(),
            DetectorConfig::default(),
            AdversaryMix::greedy(0.1, 17),
            &[1, 2, 3],
            jobs,
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(digest(&report), 0x43D4_8FAC_77D8_43BF, "jobs {jobs}");
    }
}

//! The engine kernel's output is pinned byte for byte: each case digests
//! the serialized `SimResult` plus every stream's final phase value, and
//! must match a digest recorded on an earlier kernel, at every job count.
//!
//! The cases run 2500 agents, so the last 1024-agent chunk is partial and
//! the pool splits chunks between workers. Together they drive every
//! kernel path: the fused pass's fault-free instance (G, E-T, C-T), its
//! fault instance (crash churn and stuck gates), noisy estimation with
//! and without faults, and the serial decide loop with its Settle pass
//! (E-B, and E-T under a kit that wants decision events).

use sprint_sim::engine::{self, RunOptions, SimConfig, UtilityEstimation};
use sprint_sim::faults::FaultPlan;
use sprint_sim::policy::PolicyKind;
use sprint_sim::scenario::Scenario;
use sprint_sim::telemetry::{EventKind, Telemetry};
use sprint_workloads::Benchmark;

const AGENTS: u32 = 2500;
const EPOCHS: usize = 200;
const SEED: u64 = 29;
const JOBS: [usize; 2] = [1, 3];

/// FNV-1a, continuing from `h`.
fn fnv(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// One run of `scenario` under `kind`, digested over the result's
/// canonical JSON and the final phase bits of every stream.
fn digest(scenario: &Scenario, kind: PolicyKind, jobs: usize) -> u64 {
    digest_observed(scenario, kind, jobs, &mut Telemetry::noop())
}

/// [`digest`] with the engine run observed by `telemetry`.
fn digest_observed(
    scenario: &Scenario,
    kind: PolicyKind,
    jobs: usize,
    telemetry: &mut Telemetry,
) -> u64 {
    let mut streams = scenario
        .population()
        .spawn_streams_jobs(SEED, jobs)
        .unwrap();
    let config = SimConfig::new(*scenario.game(), scenario.epochs(), SEED)
        .unwrap()
        .with_options(*scenario.options());
    let mut policy = scenario.policy(kind, SEED, &mut Telemetry::noop()).unwrap();
    let result = engine::run_guarded(
        &config,
        &mut streams,
        policy.as_mut(),
        &engine::RunGuard::default(),
        jobs,
        telemetry,
    )
    .unwrap();
    let json = serde_json::to_string(&result).unwrap();
    let h = fnv(0xCBF2_9CE4_8422_2325, json.bytes());
    streams
        .iter()
        .fold(h, |h, s| fnv(h, s.phase_value().to_bits().to_le_bytes()))
}

fn svm() -> Scenario {
    Scenario::homogeneous(Benchmark::Svm, AGENTS, EPOCHS).unwrap()
}

fn mix() -> Scenario {
    Scenario::heterogeneous(
        &[Benchmark::Svm, Benchmark::PageRank, Benchmark::Kmeans],
        AGENTS,
        EPOCHS,
    )
    .unwrap()
}

fn options(faults: FaultPlan, chunk_agents: usize) -> RunOptions {
    RunOptions {
        faults,
        chunk_agents,
        ..RunOptions::default()
    }
}

fn check(name: &str, scenario: &Scenario, kind: PolicyKind, expected: u64) {
    for jobs in JOBS {
        let got = digest(scenario, kind, jobs);
        assert_eq!(got, expected, "{name} at jobs {jobs}: got {got:#018X}");
    }
}

/// The four paper policies on svm and per-agent E-T on a three-type mix,
/// with and without every fault class.
fn policy_cases(faults: FaultPlan, expected: [u64; 5]) {
    let opts = options(faults, engine::DEFAULT_CHUNK);
    let svm = svm().with_options(opts);
    check("G", &svm, PolicyKind::Greedy, expected[0]);
    check("E-B", &svm, PolicyKind::ExponentialBackoff, expected[1]);
    check("E-T", &svm, PolicyKind::EquilibriumThreshold, expected[2]);
    check(
        "E-T mix",
        &mix().with_options(opts),
        PolicyKind::EquilibriumThreshold,
        expected[3],
    );
    check("C-T", &svm, PolicyKind::CooperativeThreshold, expected[4]);
}

#[test]
fn fault_free_kernel_matches_recorded_digests() {
    policy_cases(
        FaultPlan::none(),
        [
            0x83C0_E0EE_6DDA_F9B9,
            0x313F_F2C3_58E4_B02C,
            0xDEAF_D89D_AC7A_2334,
            0xB17D_32BC_DE4C_9BE2,
            0x84CC_6B5A_B163_98CD,
        ],
    );
}

#[test]
fn composite_fault_kernel_matches_recorded_digests() {
    policy_cases(
        FaultPlan::composite(11),
        [
            0xAE2B_31B7_FA34_77C0,
            0xAA8D_B7D9_51FE_F0E9,
            0x9317_6AB2_08A4_108F,
            0xB687_1C37_03D4_5BD8,
            0xB9C7_3533_972D_8AE9,
        ],
    );
}

#[test]
fn chunk_sizes_match_recorded_digests() {
    // 1000 leaves a 500-agent tail chunk; 4096 is one chunk wider than a
    // 1024-entry event buffer.
    for (chunk, expected) in [
        (1000, [0x9317_6AB2_08A4_108F, 0x16DE_499A_3BAD_3935]),
        (4096, [0x04CB_2FE0_CA29_4A1F, 0x1356_D595_65ED_8447]),
    ] {
        let s = svm().with_options(options(FaultPlan::composite(11), chunk));
        check(
            &format!("E-T chunk {chunk}"),
            &s,
            PolicyKind::EquilibriumThreshold,
            expected[0],
        );
        check(
            &format!("E-B chunk {chunk}"),
            &s,
            PolicyKind::ExponentialBackoff,
            expected[1],
        );
    }
}

#[test]
fn noisy_estimation_matches_recorded_digest() {
    let s = svm().with_estimation(UtilityEstimation::Noisy { relative_sd: 0.3 });
    check(
        "E-T noisy",
        &s,
        PolicyKind::EquilibriumThreshold,
        0xD230_E3F3_AF7D_3852,
    );
}

#[test]
fn noisy_estimation_under_faults_matches_recorded_digest() {
    let s = svm()
        .with_options(options(FaultPlan::composite(11), engine::DEFAULT_CHUNK))
        .with_estimation(UtilityEstimation::Noisy { relative_sd: 0.3 });
    check(
        "E-T noisy composite",
        &s,
        PolicyKind::EquilibriumThreshold,
        0xBEFA_87D0_6747_E835,
    );
}

#[test]
fn decision_traced_run_matches_the_untraced_digest() {
    // A kit that wants `SprintDecision` events sends a static policy
    // through the serial decide loop; the bytes must not notice.
    let s = svm().with_options(options(FaultPlan::composite(11), engine::DEFAULT_CHUNK));
    for jobs in JOBS {
        let mut telemetry = Telemetry::in_memory();
        assert!(telemetry.wants(EventKind::SprintDecision));
        let got = digest_observed(&s, PolicyKind::EquilibriumThreshold, jobs, &mut telemetry);
        assert_eq!(
            got, 0x9317_6AB2_08A4_108F,
            "traced E-T composite at jobs {jobs}: got {got:#018X}"
        );
    }
}

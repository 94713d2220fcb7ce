//! The engine kernel's output is pinned byte for byte: each case digests
//! the serialized `SimResult` plus every stream's final phase value, and
//! must match a digest recorded on an earlier kernel, at every job count.
//!
//! The cases run 2500 agents, so the last 1024-agent chunk is partial and
//! the pool splits chunks between workers. Together they drive every
//! kernel path: the fused pass's fault-free instance (G, E-T, C-T), its
//! fault instance (crash churn and stuck gates), noisy estimation with
//! and without faults, E-B's countdown in the fused pass, and the serial
//! decide loop with its Settle pass (E-T under a kit that wants decision
//! events). The E-B digests were recorded while E-B still decided in the
//! serial loop.
//!
//! Further cases pin every geometric draw of the kernel away from the
//! default game: slower cooling, phase persistence 1 and 24 on streams
//! built one at a time, released stuck gates, and one shared threshold
//! over two cohorts. E-B, whose waits count down across epochs and
//! refill after every trip, is pinned on every option that changes what
//! a trip or a wake-up does.

use sprint_game::GameConfig;
use sprint_sim::engine::{
    self, RecoverySemantics, RunOptions, SimConfig, TripInterruption, UtilityEstimation,
};
use sprint_sim::faults::{FaultPlan, StuckSprinters};
use sprint_sim::policy::{PolicyKind, SprintPolicy};
use sprint_sim::scenario::Scenario;
use sprint_sim::telemetry::{EventKind, Telemetry};
use sprint_workloads::generator::Population;
use sprint_workloads::phases::PhasedUtility;
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
    let streams = scenario.population().spawn_streams(SEED).unwrap();
    let mut policy = scenario.policy(kind, SEED, &mut Telemetry::noop()).unwrap();
    digest_streams(scenario, streams, policy.as_mut(), jobs, telemetry)
}

/// One run of `scenario`'s game and options on caller-built `streams`,
/// digested like [`digest`].
fn digest_streams(
    scenario: &Scenario,
    mut streams: Vec<PhasedUtility>,
    policy: &mut dyn SprintPolicy,
    jobs: usize,
    telemetry: &mut Telemetry,
) -> u64 {
    let config = SimConfig::new(*scenario.game(), scenario.epochs(), SEED)
        .unwrap()
        .with_options(*scenario.options());
    let result = engine::run_guarded(
        &config,
        &mut streams,
        policy,
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

#[test]
fn slow_cooling_games_match_recorded_digests() {
    // p_c 0.95 draws cooling exits past any table of a few dozen gaps.
    for (p_cooling, expected) in [(0.75, 0x96DE_30F7_2826_A339), (0.95, 0x9B76_FB3A_A973_D89F)] {
        let game = GameConfig::builder()
            .n_agents(AGENTS)
            .p_cooling(p_cooling)
            .build()
            .unwrap();
        let population = Population::homogeneous(Benchmark::Svm, AGENTS as usize).unwrap();
        let s = Scenario::with_game(population, game, EPOCHS).unwrap();
        check(
            &format!("E-T p_c {p_cooling}"),
            &s,
            PolicyKind::EquilibriumThreshold,
            expected,
        );
    }
}

#[test]
fn one_off_streams_match_recorded_digests() {
    // Each stream carries its own cohort. Persistence 1 resamples every
    // epoch (gap scale -0.0); persistence 24 draws many gaps past the end
    // of a few-dozen-entry table.
    let s = svm();
    for (persistence, expected) in [(1.0, 0xCED2_705D_F97C_F4D6), (24.0, 0x7909_7303_1999_225C)] {
        for jobs in JOBS {
            let streams = (0..u64::from(AGENTS))
                .map(|a| {
                    PhasedUtility::new(
                        Benchmark::Svm.speedup_distribution(),
                        persistence,
                        SEED.wrapping_mul(1_000_003).wrapping_add(a),
                    )
                    .unwrap()
                })
                .collect();
            let mut policy = s
                .policy(
                    PolicyKind::EquilibriumThreshold,
                    SEED,
                    &mut Telemetry::noop(),
                )
                .unwrap();
            let got = digest_streams(&s, streams, policy.as_mut(), jobs, &mut Telemetry::noop());
            assert_eq!(
                got, expected,
                "one-off streams at persistence {persistence}, jobs {jobs}: got {got:#018X}"
            );
        }
    }
}

#[test]
fn stuck_gates_match_recorded_digests() {
    // Half the sprints stick, so many gates release and redraw their
    // cooling exit.
    let plan = FaultPlan {
        seed: 11,
        stuck: Some(StuckSprinters {
            stick_probability: 0.5,
            p_stuck_stay: 0.7,
        }),
        ..FaultPlan::none()
    };
    let s = svm().with_options(options(plan, engine::DEFAULT_CHUNK));
    check("G stuck", &s, PolicyKind::Greedy, 0x446C_9497_BA85_20AA);
    check(
        "E-T stuck",
        &s,
        PolicyKind::EquilibriumThreshold,
        0xEAF9_0E2A_7DFF_FD00,
    );
}

#[test]
fn shared_threshold_over_two_cohorts_matches_recorded_digest() {
    // Two homogeneous spawns laid end to end: two cohort runs, one C-T
    // threshold.
    let half = AGENTS as usize / 2;
    let s = Scenario::heterogeneous(&[Benchmark::Svm, Benchmark::Kmeans], AGENTS, EPOCHS).unwrap();
    for jobs in JOBS {
        let mut streams = Population::homogeneous(Benchmark::Svm, half)
            .unwrap()
            .spawn_streams(SEED)
            .unwrap();
        streams.extend(
            Population::homogeneous(Benchmark::Kmeans, AGENTS as usize - half)
                .unwrap()
                .spawn_streams(SEED + 1)
                .unwrap(),
        );
        let mut policy = s
            .policy(
                PolicyKind::CooperativeThreshold,
                SEED,
                &mut Telemetry::noop(),
            )
            .unwrap();
        let got = digest_streams(&s, streams, policy.as_mut(), jobs, &mut Telemetry::noop());
        assert_eq!(
            got, 0x1B10_4306_BF78_E78D,
            "C-T over two cohorts at jobs {jobs}: got {got:#018X}"
        );
    }
}

#[test]
fn backoff_paths_match_recorded_digests() {
    // E-B ignores its estimate, so noisy estimation keeps the oracle
    // digests of the fault-free and composite cases; stuck gates hold
    // sprinters in Cooling across a refill; truncation and normal-mode
    // recovery change what a trip epoch and a recovery epoch produce;
    // the stagger sets when a woken agent's countdown resumes; 7-agent
    // chunks split every lane at odd offsets.
    let noisy = UtilityEstimation::Noisy { relative_sd: 0.3 };
    let composite = options(FaultPlan::composite(11), engine::DEFAULT_CHUNK);
    let stuck = FaultPlan {
        seed: 11,
        stuck: Some(StuckSprinters {
            stick_probability: 0.5,
            p_stuck_stay: 0.7,
        }),
        ..FaultPlan::none()
    };
    let stagger = |epochs| RunOptions {
        stagger_epochs: epochs,
        ..RunOptions::default()
    };
    let cases = [
        (
            "E-B noisy",
            svm().with_estimation(noisy),
            0x313F_F2C3_58E4_B02C,
        ),
        (
            "E-B noisy composite",
            svm().with_options(composite).with_estimation(noisy),
            0xAA8D_B7D9_51FE_F0E9,
        ),
        (
            "E-B stuck",
            svm().with_options(options(stuck, engine::DEFAULT_CHUNK)),
            0x6778_DE36_6FC2_8578,
        ),
        (
            "E-B truncated",
            svm().with_interruption(TripInterruption::Truncated),
            0xF4AE_2510_1FD5_0EB3,
        ),
        (
            "E-B normal-mode recovery",
            svm().with_recovery(RecoverySemantics::NormalMode),
            0xD103_4AFE_F947_9AF6,
        ),
        (
            "E-B stagger 0",
            svm().with_options(stagger(0)),
            0xBF96_AF0E_AB73_D256,
        ),
        (
            "E-B stagger 3",
            svm().with_options(stagger(3)),
            0x4913_20C7_CCD0_1E6E,
        ),
        (
            "E-B chunk 7",
            svm().with_options(options(FaultPlan::composite(11), 7)),
            0xD1E0_B1B7_8551_DA4F,
        ),
    ];
    for (name, s, expected) in cases {
        check(name, &s, PolicyKind::ExponentialBackoff, expected);
    }
}

//! Population builds are a function of the population and the master
//! seed alone: the thread budget of `spawn_streams_jobs` never changes a
//! stream, and flat arrivals hold exactly the streams' keys and phases.

use std::sync::Arc;

use sprint_stats::rng::SeedSequence;
use sprint_workloads::generator::{Arrivals, Population};
use sprint_workloads::phases::{phase_key, PhasedUtility};
use sprint_workloads::Benchmark;

/// Everything observable about a stream: its seed, the phase it will
/// emit next, and its next 64 draws (which exercise the generator state
/// the arrival walk left behind).
fn observe(streams: &mut [PhasedUtility]) -> Vec<(u64, u64, Vec<u64>)> {
    streams
        .iter_mut()
        .map(|s| {
            let seed = s.stream_seed();
            let phase = s.phase_value().to_bits();
            let draws = (0..64).map(|_| s.next_utility().to_bits()).collect();
            (seed, phase, draws)
        })
        .collect()
}

#[test]
fn streams_are_identical_at_every_job_count() {
    // Five 2^14-agent spans plus three: no job count divides it evenly.
    let n = 5 * (1 << 14) + 3;
    let homogeneous = Population::homogeneous(Benchmark::Svm, n).unwrap();
    let mixed =
        Population::heterogeneous(&[Benchmark::Svm, Benchmark::PageRank, Benchmark::Kmeans], n)
            .unwrap();
    for (population, master) in [(&homogeneous, 11u64), (&mixed, u64::MAX - 2)] {
        let reference = observe(&mut population.spawn_streams(master).unwrap());
        let seeds = SeedSequence::new(master);
        for (i, (seed, _, _)) in reference.iter().enumerate() {
            assert_eq!(*seed, seeds.seed_at(i as u64), "agent {i}");
        }
        for jobs in [1, 2, 3, 8] {
            let spawned = observe(&mut population.spawn_streams_jobs(master, jobs).unwrap());
            assert!(spawned == reference, "jobs = {jobs} changed a stream");
        }
    }
}

#[test]
fn arrivals_hold_the_streams_keys_and_phases_at_every_job_count() {
    // One span, and five 2^14-agent spans plus three.
    for n in [1000, 5 * (1 << 14) + 3] {
        let homogeneous = Population::homogeneous(Benchmark::Svm, n).unwrap();
        let mixed =
            Population::heterogeneous(&[Benchmark::Svm, Benchmark::PageRank, Benchmark::Kmeans], n)
                .unwrap();
        for (population, master, cohorts) in [(&homogeneous, 11u64, 1), (&mixed, u64::MAX - 2, 3)] {
            let streams = population.spawn_streams(master).unwrap();
            // The stream adapter's conversion, and the direct build at
            // every job count, agree with the streams agent by agent.
            let converted = Arrivals::from_streams(&streams).unwrap();
            let built = [1, 2, 3, 8].map(|jobs| (jobs, population.arrivals(master, jobs).unwrap()));
            for (jobs, arrivals) in
                std::iter::once((0, &converted)).chain(built.iter().map(|(jobs, a)| (*jobs, a)))
            {
                assert_eq!(arrivals.len(), n, "jobs {jobs}");
                assert_eq!(arrivals.cohorts().len(), cohorts, "jobs {jobs}");
                let lane = if cohorts > 1 { n } else { 0 };
                assert_eq!(arrivals.cohort_of().len(), lane, "jobs {jobs}");
                for (i, s) in streams.iter().enumerate() {
                    assert_eq!(
                        arrivals.keys()[i],
                        phase_key(s.stream_seed()),
                        "agent {i}, jobs {jobs}"
                    );
                    assert_eq!(
                        arrivals.phases()[i].to_bits(),
                        s.phase_value().to_bits(),
                        "agent {i}, jobs {jobs}"
                    );
                    let cohort = arrivals.cohort(i);
                    assert_eq!(cohort.resample_probability(), s.resample_probability());
                    assert_eq!(cohort.sample_table(), s.sample_table(), "agent {i}");
                }
            }
        }
    }
}

#[test]
fn streams_match_recorded_values() {
    // (agent, stream seed, phase value bits) recorded from the
    // one-stream-at-a-time builder that preceded cohort sharing; a
    // 40 000-agent population spans more than one thread at two jobs.
    const HOMOGENEOUS: [(usize, u64, u64); 6] = [
        (0, 0x910A_2DEC_8902_5CC1, 0x4001_B4C6_4C0F_19FB),
        (1, 0xBEEB_8DA1_658E_EC67, 0x4015_2F8D_25E4_13E1),
        (2, 0xF893_A2EE_FB32_555E, 0x3FF6_E170_0061_971F),
        (16_383, 0x563A_E95B_90AE_D421, 0x4005_C864_D46A_1D81),
        (16_384, 0x91D4_B7CA_7924_DA9A, 0x4001_F0D1_E7CF_7D96),
        (39_999, 0xE6DA_3CF2_601B_1F65, 0x4003_ABE4_7E8C_04E9),
    ];
    const MIXED: [(usize, u64, u64); 6] = [
        (0, 0x4ADF_B90F_68C9_EB9B, 0x4005_7C50_DC82_127E),
        (1, 0xDE58_6A31_41A1_0922, 0x4000_82A2_24C2_F1E6),
        (2, 0x021F_BC2F_8E1C_FC1D, 0x401A_CF0C_4459_0F71),
        (16_383, 0xAA58_C495_366F_63A2, 0x4002_65C4_AA0B_1257),
        (16_384, 0x3A92_9136_AE00_73F1, 0x3FF6_C81F_F08A_86D8),
        (39_999, 0x1EE1_6A45_86DA_B937, 0x4004_F480_EB14_25B5),
    ];
    let homogeneous = Population::homogeneous(Benchmark::Svm, 40_000).unwrap();
    let mixed = Population::heterogeneous(
        &[Benchmark::Svm, Benchmark::PageRank, Benchmark::Kmeans],
        40_000,
    )
    .unwrap();
    for (population, master, recorded) in [
        (&homogeneous, 1, &HOMOGENEOUS),
        (&mixed, 0xDEAD_BEEF, &MIXED),
    ] {
        for jobs in [1, 2] {
            let streams = population.spawn_streams_jobs(master, jobs).unwrap();
            for &(i, seed, phase) in recorded {
                assert_eq!(streams[i].stream_seed(), seed, "agent {i}, jobs {jobs}");
                assert_eq!(
                    streams[i].phase_value().to_bits(),
                    phase,
                    "agent {i}, jobs {jobs}"
                );
            }
        }
    }
}

#[test]
fn cohorts_share_one_sample_table() {
    // The engine builds one phase sampler per distinct table `Arc`, and a
    // stream holds no heap memory of its own.
    let population = Population::heterogeneous(&[Benchmark::Svm, Benchmark::PageRank], 6).unwrap();
    let streams = population.spawn_streams(3).unwrap();
    for (i, s) in streams.iter().enumerate() {
        assert!(
            Arc::ptr_eq(s.sample_table(), streams[i % 2].sample_table()),
            "agent {i}"
        );
    }
    assert!(!Arc::ptr_eq(
        streams[0].sample_table(),
        streams[1].sample_table()
    ));
    assert!(std::mem::size_of::<PhasedUtility>() <= 56);
}

/// FNV-1a over every agent's seed, next phase and next 8 draws.
fn digest(streams: &mut [PhasedUtility]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for s in streams.iter_mut() {
        eat(s.stream_seed());
        eat(s.phase_value().to_bits());
        for _ in 0..8 {
            eat(s.next_utility().to_bits());
        }
    }
    h
}

#[test]
fn arrival_walk_consumes_recorded_draws() {
    // Digests recorded from the arrival walk that evaluated every
    // resample it drew. The walk may skip evaluating a resample but must
    // consume its draws: any change to how it walks the generator moves
    // a later phase or draw and changes the digest. The mixed population
    // covers a plain truncated normal, a two-normal mixture and a
    // normal/log-normal mixture.
    let homogeneous = Population::homogeneous(Benchmark::Svm, 20_000).unwrap();
    let mixed = Population::heterogeneous(
        &[
            Benchmark::LinearRegression,
            Benchmark::PageRank,
            Benchmark::TriangleCounting,
        ],
        20_000,
    )
    .unwrap();
    for (population, master, recorded) in [
        (&homogeneous, 7, 0x3678_DA64_D6CC_83C7u64),
        (&mixed, 0x5EED_F00D, 0xAFFD_EE3F_3957_E411),
    ] {
        for jobs in [1, 2] {
            let streams = &mut population.spawn_streams_jobs(master, jobs).unwrap();
            assert_eq!(digest(streams), recorded, "jobs {jobs}");
        }
    }
}

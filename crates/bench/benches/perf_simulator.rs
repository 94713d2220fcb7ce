//! Criterion benches for the rack simulator: epoch throughput at paper
//! scale (1000 agents) under cheap (Greedy) and stateful (E-B, E-T)
//! policies.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use sprint_sim::engine::{run_guarded, RunGuard, SimConfig};
use sprint_sim::policies::{ExponentialBackoff, Greedy};
use sprint_sim::policy::PolicyKind;
use sprint_sim::scenario::Scenario;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::generator::Population;
use sprint_workloads::Benchmark;

const EPOCHS: usize = 100;

fn bench_engine(c: &mut Criterion) {
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 1000, EPOCHS).unwrap();
    let game = *scenario.game();
    let population = Population::homogeneous(Benchmark::DecisionTree, 1000).unwrap();

    let mut group = c.benchmark_group("engine_1000x100");
    group.bench_function("greedy", |b| {
        b.iter_batched(
            || {
                (
                    SimConfig::new(game, EPOCHS, 7).unwrap(),
                    population.spawn_streams(7).unwrap(),
                )
            },
            |(cfg, mut streams)| {
                run_guarded(
                    black_box(&cfg),
                    &mut streams,
                    &mut Greedy::new(),
                    &RunGuard::default(),
                    1,
                    &mut Telemetry::noop(),
                )
                .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("backoff", |b| {
        b.iter_batched(
            || {
                (
                    SimConfig::new(game, EPOCHS, 7).unwrap(),
                    population.spawn_streams(7).unwrap(),
                    ExponentialBackoff::new(1000, 7),
                )
            },
            |(cfg, mut streams, mut policy)| {
                run_guarded(
                    black_box(&cfg),
                    &mut streams,
                    &mut policy,
                    &RunGuard::default(),
                    1,
                    &mut Telemetry::noop(),
                )
                .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_scenario_run(c: &mut Criterion) {
    // Full E-T pipeline: offline solve + online simulation.
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 1000, EPOCHS).unwrap();
    c.bench_function("scenario_equilibrium_run", |b| {
        b.iter(|| {
            scenario
                .execute(
                    black_box(PolicyKind::EquilibriumThreshold),
                    7,
                    1,
                    &mut Telemetry::noop(),
                )
                .unwrap()
        })
    });
}

criterion_group!(benches, bench_engine, bench_scenario_run);
criterion_main!(benches);

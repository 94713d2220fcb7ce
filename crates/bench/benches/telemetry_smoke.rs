//! Telemetry overhead smoke check (not a criterion bench).
//!
//! Measures the engine at rack scale in three configurations — two
//! independent `engine::run_guarded` passes with disabled telemetry and
//! one with a live in-memory recorder — and fails when the second
//! disabled pass ("noop") runs more than 5 % slower than the first
//! ("plain"). Both gated legs run `Telemetry::disabled()`, the same
//! path, so the gate compares that path with itself: it bounds
//! run-to-run noise and cannot see what the instrumentation costs. The
//! enabled leg is reported, not gated.
//!
//! Methodology, after the old estimator proved flaky (min of 5 reps at
//! 200 agents reported a −1.3 % "overhead"): the workload is 10k agents
//! so per-epoch kernel work dwarfs timer and scheduler jitter, reps are
//! **interleaved** round-robin across the three configurations so slow
//! drift (thermal, allocator growth, cache state) hits each equally,
//! and every configuration reports the **median** of its reps, which is
//! robust to outliers in both directions. Results land in
//! `BENCH_telemetry.json` at the workspace root so CI can archive the
//! trend.
//!
//! Run with `--quick` for a reduced-scale CI smoke pass.

use std::hint::black_box;
use std::time::Instant;

use sprint_sim::engine::{run_guarded, RunGuard, SimConfig};
use sprint_sim::policies::Greedy;
use sprint_sim::telemetry::Telemetry;
use sprint_workloads::generator::Population;
use sprint_workloads::Benchmark;

/// Maximum tolerated slowdown of the disabled-telemetry path.
const MAX_NOOP_OVERHEAD: f64 = 0.05;

struct Scale {
    agents: usize,
    epochs: usize,
    reps: usize,
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        Scale {
            agents: 10_000,
            epochs: 60,
            reps: 9,
        }
    } else {
        Scale {
            agents: 10_000,
            epochs: 200,
            reps: 15,
        }
    };

    let population = Population::homogeneous(Benchmark::DecisionTree, scale.agents).unwrap();
    let game = sprint_game::GameConfig::builder()
        .n_agents(scale.agents as u32)
        .n_min(scale.agents as f64 * 0.25)
        .n_max(scale.agents as f64 * 0.75)
        .build()
        .unwrap();
    let config = SimConfig::new(game, scale.epochs, 7).unwrap();

    let run_once = |telemetry: &mut Telemetry| -> f64 {
        let mut streams = population.spawn_streams(7).unwrap();
        let r = run_guarded(
            black_box(&config),
            &mut streams,
            &mut Greedy::new(),
            &RunGuard::default(),
            1,
            telemetry,
        )
        .unwrap();
        r.total_tasks()
    };

    // One untimed warm-up pass per configuration, then interleaved
    // timed reps: within each rep every configuration runs once, so no
    // configuration systematically enjoys a warmer process than the
    // others.
    let mut plain_tasks = run_once(&mut Telemetry::disabled());
    let mut noop_tasks = run_once(&mut Telemetry::disabled());
    let mut enabled_tasks = run_once(&mut Telemetry::in_memory());
    let mut plain_samples = Vec::with_capacity(scale.reps);
    let mut noop_samples = Vec::with_capacity(scale.reps);
    let mut enabled_samples = Vec::with_capacity(scale.reps);
    for _ in 0..scale.reps {
        let started = Instant::now();
        plain_tasks = run_once(&mut Telemetry::disabled());
        plain_samples.push(started.elapsed().as_nanos() as u64);

        let started = Instant::now();
        noop_tasks = run_once(&mut Telemetry::disabled());
        noop_samples.push(started.elapsed().as_nanos() as u64);

        let started = Instant::now();
        enabled_tasks = run_once(&mut Telemetry::in_memory());
        enabled_samples.push(started.elapsed().as_nanos() as u64);
    }
    let plain_nanos = median(&mut plain_samples);
    let noop_nanos = median(&mut noop_samples);
    let enabled_nanos = median(&mut enabled_samples);

    assert_eq!(
        plain_tasks.to_bits(),
        noop_tasks.to_bits(),
        "disabled telemetry must not perturb throughput"
    );
    assert_eq!(
        plain_tasks.to_bits(),
        enabled_tasks.to_bits(),
        "enabled telemetry must not perturb throughput"
    );

    let noop_overhead = noop_nanos as f64 / plain_nanos as f64 - 1.0;
    let enabled_overhead = enabled_nanos as f64 / plain_nanos as f64 - 1.0;
    println!(
        "telemetry smoke ({} agents x {} epochs, median of {} interleaved reps)",
        scale.agents, scale.epochs, scale.reps
    );
    println!("  plain    {plain_nanos:>12} ns");
    println!(
        "  noop     {:>12} ns  ({:+.2}%)",
        noop_nanos,
        noop_overhead * 100.0
    );
    println!(
        "  enabled  {:>12} ns  ({:+.2}%)",
        enabled_nanos,
        enabled_overhead * 100.0
    );

    let json = format!(
        "{{\n  \"agents\": {},\n  \"epochs\": {},\n  \"reps\": {},\n  \
         \"estimator\": \"median-interleaved\",\n  \
         \"plain_nanos\": {},\n  \"noop_nanos\": {},\n  \"enabled_nanos\": {},\n  \
         \"noop_overhead\": {:.6},\n  \"enabled_overhead\": {:.6},\n  \
         \"max_noop_overhead\": {MAX_NOOP_OVERHEAD}\n}}\n",
        scale.agents,
        scale.epochs,
        scale.reps,
        plain_nanos,
        noop_nanos,
        enabled_nanos,
        noop_overhead,
        enabled_overhead
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_telemetry.json");
    std::fs::write(&out, json).expect("write BENCH_telemetry.json");
    println!("  snapshot {}", out.display());

    if noop_overhead > MAX_NOOP_OVERHEAD {
        eprintln!(
            "FAIL: disabled-telemetry overhead {:.2}% exceeds the {:.0}% budget",
            noop_overhead * 100.0,
            MAX_NOOP_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
    println!("PASS: disabled-telemetry overhead within budget");
}

//! Observability pipeline smoke check (not a criterion bench).
//!
//! Three gates over the live-monitoring path, all hard failures:
//!
//! 1. **Ring overhead** — the engine at 100k agents with a lock-free
//!    ring recorder (severity-gated at `Info`, the `sprint monitor`
//!    operating point) must stay within 5 % of the disabled-telemetry
//!    baseline. Interleaved reps, median estimator, as in
//!    `telemetry_smoke`.
//! 2. **Zero drops** — that run must publish every event it offers at
//!    the default ring capacity; drops are counted, and any nonzero
//!    count fails the gate.
//! 3. **Jobs-invariant snapshots** — the health snapshot folded from a
//!    drained ring stream, rendered at a pinned elapsed time, must
//!    serialize to byte-identical JSON at `jobs = 1` and `jobs = 4`
//!    (engine events are published from the coordinating thread only).
//!
//! Results land in `BENCH_obs.json` at the workspace root. Run with
//! `--quick` for a reduced-scale CI smoke pass.

use std::hint::black_box;
use std::time::Instant;

use sprint_sim::engine::{run_guarded, RunGuard, SimConfig};
use sprint_sim::policies::Greedy;
use sprint_sim::telemetry::{
    EventRing, HealthAggregator, RingConfig, Severity, SpanProfile, Telemetry,
};
use sprint_workloads::generator::Population;
use sprint_workloads::Benchmark;

/// Maximum tolerated slowdown of the ring-recorder path vs noop.
const MAX_RING_OVERHEAD: f64 = 0.05;
/// Pinned elapsed time for snapshot rendering: wall time must never
/// reach the invariance comparison.
const PINNED_ELAPSED_NANOS: u64 = 1_000_000_000;

struct Scale {
    agents: usize,
    epochs: usize,
    reps: usize,
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn monitor_ring() -> (sprint_sim::telemetry::EventRing, Telemetry) {
    let config = RingConfig::default().with_min_severity(Severity::Info);
    let (ring, mut producers) = EventRing::with_config(1, &config);
    let producer = producers.pop().expect("one producer");
    let kit = Telemetry::new(Box::new(producer), SpanProfile::deterministic());
    (ring, kit)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        Scale {
            agents: 100_000,
            epochs: 30,
            reps: 9,
        }
    } else {
        Scale {
            agents: 100_000,
            epochs: 100,
            reps: 9,
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

    // Gate 1 + 2: interleaved noop/ring reps, medians, drop accounting.
    let mut noop_tasks = run_once(&mut Telemetry::noop());
    let mut ring_tasks = noop_tasks;
    let mut noop_samples = Vec::with_capacity(scale.reps);
    let mut ring_samples = Vec::with_capacity(scale.reps);
    let mut published = 0u64;
    let mut dropped = 0u64;
    for _ in 0..scale.reps {
        let started = Instant::now();
        noop_tasks = run_once(&mut Telemetry::noop());
        noop_samples.push(started.elapsed().as_nanos() as u64);

        let (mut ring, mut kit) = monitor_ring();
        let started = Instant::now();
        ring_tasks = run_once(&mut kit);
        ring_samples.push(started.elapsed().as_nanos() as u64);
        drop(kit);
        let _ = ring.drain();
        published = ring.published();
        dropped = ring.dropped();
    }
    let noop_nanos = median(&mut noop_samples);
    let ring_nanos = median(&mut ring_samples);
    let ring_overhead = ring_nanos as f64 / noop_nanos as f64 - 1.0;

    assert_eq!(
        noop_tasks.to_bits(),
        ring_tasks.to_bits(),
        "ring recorder must not perturb throughput"
    );

    // Gate 3: byte-identical snapshots across job counts at pinned
    // elapsed time.
    let snapshot_at = |jobs: usize| -> String {
        let (mut ring, mut kit) = monitor_ring();
        let mut streams = population.spawn_streams(11).unwrap();
        run_guarded(
            &config,
            &mut streams,
            &mut Greedy::new(),
            &RunGuard::default(),
            jobs,
            &mut kit,
        )
        .unwrap();
        let mut agg = HealthAggregator::default();
        agg.fold_all(&ring.drain());
        let snap = agg.snapshot(PINNED_ELAPSED_NANOS, ring.dropped());
        serde_json::to_string(&snap).expect("snapshot serializes")
    };
    let serial_snapshot = snapshot_at(1);
    let parallel_snapshot = snapshot_at(4);
    let snapshot_jobs_invariant = serial_snapshot == parallel_snapshot;

    println!(
        "observability smoke ({} agents x {} epochs, median of {} interleaved reps)",
        scale.agents, scale.epochs, scale.reps
    );
    println!("  noop     {noop_nanos:>12} ns");
    println!(
        "  ring     {:>12} ns  ({:+.2}%)",
        ring_nanos,
        ring_overhead * 100.0
    );
    println!("  published {published}, dropped {dropped}");
    println!("  snapshot jobs-invariant: {snapshot_jobs_invariant}");

    let json = format!(
        "{{\n  \"agents\": {},\n  \"epochs\": {},\n  \"reps\": {},\n  \
         \"estimator\": \"median-interleaved\",\n  \
         \"noop_nanos\": {},\n  \"ring_nanos\": {},\n  \
         \"ring_overhead\": {:.6},\n  \"max_ring_overhead\": {MAX_RING_OVERHEAD},\n  \
         \"ring_published\": {},\n  \"ring_dropped\": {},\n  \
         \"snapshot_jobs_invariant\": {}\n}}\n",
        scale.agents,
        scale.epochs,
        scale.reps,
        noop_nanos,
        ring_nanos,
        ring_overhead,
        published,
        dropped,
        snapshot_jobs_invariant
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_obs.json");
    std::fs::write(&out, json).expect("write BENCH_obs.json");
    println!("  snapshot {}", out.display());

    let mut failed = false;
    if ring_overhead > MAX_RING_OVERHEAD {
        eprintln!(
            "FAIL: ring-recorder overhead {:.2}% exceeds the {:.0}% budget",
            ring_overhead * 100.0,
            MAX_RING_OVERHEAD * 100.0
        );
        failed = true;
    }
    if published == 0 {
        eprintln!("FAIL: ring published no events");
        failed = true;
    }
    if dropped != 0 {
        eprintln!("FAIL: ring dropped {dropped} events at default capacity");
        failed = true;
    }
    if !snapshot_jobs_invariant {
        eprintln!("FAIL: health snapshot bytes differ across job counts");
        eprintln!("  jobs=1: {serial_snapshot}");
        eprintln!("  jobs=4: {parallel_snapshot}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("PASS: ring overhead, drop accounting, and snapshot invariance within budget");
}

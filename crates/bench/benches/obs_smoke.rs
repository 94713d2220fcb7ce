//! Observability pipeline smoke check (not a criterion bench).
//!
//! Three gates over the live-monitoring path, all hard failures:
//!
//! 1. **Ring overhead** — the engine at 100k agents with a lock-free
//!    ring recorder (severity-gated at `Info`, the `sprint monitor`
//!    operating point) must stay within 5 % of the disabled-telemetry
//!    baseline. Reps run in (noop, ring) pairs of alternating order, and
//!    [`paired_gate`] adds pairs until the bootstrap interval of the
//!    median per-pair ratio clears the budget: PASS when it lies under
//!    it, FAIL when it lies over it, UNRESOLVED (also a failure, printed
//!    with every pair) when the pair cap comes first.
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

use sprint_bench::{paired_gate, Verdict, PAIRED_ESTIMATOR};
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
        }
    } else {
        Scale {
            agents: 100_000,
            epochs: 100,
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
    let built = population.spawn_streams(7).unwrap();

    // One timed run on a clone of the built streams: its nanoseconds
    // and its throughput.
    let run_once = |telemetry: &mut Telemetry| -> (u64, f64) {
        let mut streams = built.clone();
        let started = Instant::now();
        let r = run_guarded(
            black_box(&config),
            &mut streams,
            &mut Greedy::new(),
            &RunGuard::default(),
            1,
            telemetry,
        )
        .unwrap();
        (started.elapsed().as_nanos() as u64, r.total_tasks())
    };

    // Gate 1 + 2: paired noop/ring reps, drop accounting.
    let (_, mut noop_tasks) = run_once(&mut Telemetry::noop());
    let mut ring_tasks = noop_tasks;
    let mut published = 0u64;
    let mut dropped = 0u64;
    let estimate = paired_gate(
        MAX_RING_OVERHEAD,
        || {
            let (nanos, tasks) = run_once(&mut Telemetry::noop());
            noop_tasks = tasks;
            nanos
        },
        || {
            let (mut ring, mut kit) = monitor_ring();
            let (nanos, tasks) = run_once(&mut kit);
            ring_tasks = tasks;
            drop(kit);
            let _ = ring.drain();
            published = ring.published();
            dropped = ring.dropped();
            nanos
        },
    );
    let ring_overhead = estimate.overhead();
    let (lo, hi) = estimate.interval;

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
        "observability smoke ({} agents x {} epochs, median per-pair ratio of {} (noop, ring) pairs)",
        scale.agents,
        scale.epochs,
        estimate.pairs.len()
    );
    println!(
        "  ring     {:+.2}% (95% interval {:+.2}% .. {:+.2}%, budget {:+.0}%): {}",
        ring_overhead * 100.0,
        (lo - 1.0) * 100.0,
        (hi - 1.0) * 100.0,
        MAX_RING_OVERHEAD * 100.0,
        estimate.verdict.name()
    );
    println!("  published {published}, dropped {dropped}");
    println!("  snapshot jobs-invariant: {snapshot_jobs_invariant}");

    let pairs: Vec<String> = estimate
        .pairs
        .iter()
        .map(|(noop, ring)| format!("[{noop}, {ring}]"))
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"agents\": {},\n  \"epochs\": {},\n  \"quick\": {quick},\n  \
         \"cores\": {cores},\n  \"reps\": {},\n  \
         \"estimator\": \"noop baseline, ring treatment: {PAIRED_ESTIMATOR}\",\n  \
         \"pairs_nanos\": [{}],\n  \
         \"ring_overhead\": {:.6},\n  \"interval\": [{:.6}, {:.6}],\n  \
         \"max_ring_overhead\": {MAX_RING_OVERHEAD},\n  \
         \"verdict\": \"{}\",\n  \
         \"ring_published\": {},\n  \"ring_dropped\": {},\n  \
         \"snapshot_jobs_invariant\": {}\n}}\n",
        scale.agents,
        scale.epochs,
        estimate.pairs.len(),
        pairs.join(", "),
        ring_overhead,
        lo - 1.0,
        hi - 1.0,
        estimate.verdict.name(),
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
    match estimate.verdict {
        Verdict::Pass => {}
        Verdict::Fail => {
            eprintln!(
                "FAIL: ring-recorder overhead {:+.2}% (interval {:+.2}% .. {:+.2}%) exceeds the \
                 {:.0}% budget",
                ring_overhead * 100.0,
                (lo - 1.0) * 100.0,
                (hi - 1.0) * 100.0,
                MAX_RING_OVERHEAD * 100.0
            );
            failed = true;
        }
        Verdict::Unresolved => {
            eprintln!(
                "UNRESOLVED: ring-recorder overhead {:+.2}%, interval {:+.2}% .. {:+.2}% still \
                 straddles the {:.0}% budget after {} pairs (noop ns, ring ns):",
                ring_overhead * 100.0,
                (lo - 1.0) * 100.0,
                (hi - 1.0) * 100.0,
                MAX_RING_OVERHEAD * 100.0,
                estimate.pairs.len()
            );
            for (noop, ring) in &estimate.pairs {
                eprintln!("  {noop} {ring}");
            }
            failed = true;
        }
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

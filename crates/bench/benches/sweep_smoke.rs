//! Sweep-engine smoke check (not a criterion bench).
//!
//! Runs a seeds-heavy sweep through the unified `run_sweep` entry point
//! twice — serial (`jobs = 1`) and parallel (`jobs = 4`) — and enforces
//! the tentpole contracts:
//!
//! - the two reports serialize to byte-identical JSON;
//! - repeated game configs hit the equilibrium cache (≥ 90 % hit rate);
//! - the serial sweep builds each (population, seed) population once;
//! - parallel execution is ≥ 2× faster than serial, enforced only when
//!   the host actually has ≥ 4 cores (CI containers may not).
//!
//! Results land in `BENCH_sweep.json` at the workspace root so CI can
//! archive the trend. Run with `--quick` for a reduced-scale smoke pass.

use std::time::Instant;

use sprint_sim::sweep::{run_sweep, GameVariant, PopulationSpec, SweepSpec};
use sprint_sim::telemetry::Telemetry;
use sprint_sim::{PolicyKind, RunOptions};
use sprint_workloads::Benchmark;

/// Minimum tolerated cache hit rate on the seeds-only solve axis.
const MIN_HIT_RATE: f64 = 0.90;
/// Minimum tolerated parallel speedup (enforced with ≥ 4 cores).
const MIN_SPEEDUP: f64 = 2.0;
const PARALLEL_JOBS: usize = 4;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (agents, epochs) = if quick { (60, 60) } else { (150, 150) };
    // Two policies x 16 seeds: Greedy trials are pure simulation; the
    // E-T trials all request the same game, so the cache sees 1 miss and
    // 15 hits (93.75 %).
    let spec = SweepSpec {
        games: vec![GameVariant::paper("paper")],
        populations: vec![PopulationSpec::homogeneous(Benchmark::DecisionTree, agents)],
        plans: Vec::new(),
        adversaries: Vec::new(),
        policies: vec![PolicyKind::Greedy, PolicyKind::EquilibriumThreshold],
        seeds: (1..=16).collect(),
        epochs,
        options: RunOptions::default(),
    };

    let mut serial_kit = Telemetry::in_memory();
    let started = Instant::now();
    let serial = run_sweep(&spec, 1, &mut serial_kit).expect("serial sweep succeeds");
    let serial_nanos = started.elapsed().as_nanos() as u64;
    let population_builds = serial_kit
        .registry
        .counter_value("sweep.population_builds")
        .expect("an enabled kit counts population builds");
    let pairs = (spec.populations.len() * spec.seeds.len()) as u64;

    let mut kit = Telemetry::in_memory();
    let started = Instant::now();
    let parallel = run_sweep(&spec, PARALLEL_JOBS, &mut kit).expect("parallel sweep succeeds");
    let parallel_nanos = started.elapsed().as_nanos() as u64;

    let serial_json = serde_json::to_string(&serial).expect("report serializes");
    let parallel_json = serde_json::to_string(&parallel).expect("report serializes");
    assert_eq!(
        serial_json, parallel_json,
        "jobs=1 and jobs={PARALLEL_JOBS} must serialize byte-identically"
    );

    let hits = kit
        .registry
        .counter_value("cache.equilibrium.hits")
        .unwrap_or(0);
    let misses = kit
        .registry
        .counter_value("cache.equilibrium.misses")
        .unwrap_or(0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let speedup = serial_nanos as f64 / parallel_nanos as f64;
    let enforce_speedup = cores >= PARALLEL_JOBS;

    println!(
        "sweep smoke ({} trials: {agents} agents x {epochs} epochs, 2 policies x 16 seeds)",
        serial.trials
    );
    println!("  serial    {serial_nanos:>12} ns (jobs=1)");
    println!("  parallel  {parallel_nanos:>12} ns (jobs={PARALLEL_JOBS}, {cores} cores)");
    println!("  speedup   {speedup:>12.2}x");
    println!(
        "  cache     {hits} hits / {misses} misses ({:.1}%)",
        hit_rate * 100.0
    );
    println!(
        "  builds    {population_builds} populations for {pairs} (population, seed) pairs (jobs=1)"
    );

    let json = format!(
        "{{\n  \"agents\": {agents},\n  \"epochs\": {epochs},\n  \"trials\": {},\n  \
         \"serial_nanos\": {serial_nanos},\n  \"parallel_nanos\": {parallel_nanos},\n  \
         \"jobs\": {PARALLEL_JOBS},\n  \"cores\": {cores},\n  \"speedup\": {speedup:.4},\n  \
         \"speedup_enforced\": {enforce_speedup},\n  \"min_speedup\": {MIN_SPEEDUP},\n  \
         \"cache_hits\": {hits},\n  \"cache_misses\": {misses},\n  \
         \"cache_hit_rate\": {hit_rate:.4},\n  \"min_hit_rate\": {MIN_HIT_RATE},\n  \
         \"population_builds\": {population_builds},\n  \"population_pairs\": {pairs}\n}}\n",
        serial.trials
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sweep.json");
    std::fs::write(&out, json).expect("write BENCH_sweep.json");
    println!("  snapshot {}", out.display());

    if hit_rate < MIN_HIT_RATE {
        eprintln!(
            "FAIL: cache hit rate {:.1}% below the {:.0}% floor",
            hit_rate * 100.0,
            MIN_HIT_RATE * 100.0
        );
        std::process::exit(1);
    }
    if population_builds > pairs {
        eprintln!(
            "FAIL: the serial sweep built {population_builds} populations for {pairs} \
             (population, seed) pairs"
        );
        std::process::exit(1);
    }
    if enforce_speedup && speedup < MIN_SPEEDUP {
        eprintln!("FAIL: parallel speedup {speedup:.2}x below the {MIN_SPEEDUP:.1}x floor");
        std::process::exit(1);
    }
    if enforce_speedup {
        println!("PASS: byte-identical reports, builds, cache and speedup within budget");
    } else {
        println!(
            "PASS: byte-identical reports, builds and cache within budget \
             (speedup not enforced on {cores} core(s))"
        );
    }
}

//! Sweep-engine smoke check (not a criterion bench).
//!
//! Runs a seeds-heavy sweep through the one sweep entry point,
//! `run_sweep_shared`, twice — serial (`jobs = 1`) and parallel
//! (`jobs = 4`), each on a fresh equilibrium cache — and enforces the
//! tentpole contracts:
//!
//! - the two reports serialize to byte-identical JSON;
//! - repeated game configs hit the equilibrium cache (≥ 90 % hit rate);
//! - the serial and the parallel sweep each build each (population,
//!   seed) population once, record its phase trajectory once, and
//!   replay it in every trial;
//! - parallel execution is ≥ 2× faster than serial, enforced only when
//!   the host actually has ≥ 4 cores (CI containers may not). With fewer
//!   cores the speedup is not measured: `BENCH_sweep.json` records it as
//!   `null` and the row says it did not run.
//!
//! It also times a sweep whose 24 trials share one (population, seed)
//! pair (every policy under the standard fault suite, 2000 agents × 200
//! epochs, `jobs = 1`) and records its wall time per agent-epoch. That
//! row is recorded, not gated.
//!
//! Results land in `BENCH_sweep.json` at the workspace root so CI can
//! archive the trend. Run with `--quick` for a reduced-scale smoke pass.

use std::time::Instant;

use sprint_game::EquilibriumCache;
use sprint_sim::runner::standard_fault_suite;
use sprint_sim::sweep::{
    run_sweep_shared, GameVariant, PopulationSpec, Supervision, SweepReport, SweepSpec,
};
use sprint_sim::telemetry::Telemetry;
use sprint_sim::{PolicyKind, RunOptions};
use sprint_workloads::Benchmark;

/// Minimum tolerated cache hit rate on the seeds-only solve axis.
const MIN_HIT_RATE: f64 = 0.90;
/// Minimum tolerated parallel speedup (enforced with ≥ 4 cores).
const MIN_SPEEDUP: f64 = 2.0;
const PARALLEL_JOBS: usize = 4;

/// The shared-pair sweep: 4 policies × 6 fault plans × 1 seed on one
/// 2000-agent population, 200 epochs.
fn shared_pair_spec() -> SweepSpec {
    SweepSpec {
        games: vec![GameVariant::paper("paper")],
        populations: vec![PopulationSpec::homogeneous(Benchmark::Svm, 2000)],
        plans: standard_fault_suite(1),
        adversaries: Vec::new(),
        policies: PolicyKind::ALL.to_vec(),
        seeds: vec![1],
        epochs: 200,
        options: RunOptions::default(),
    }
}

/// Run `spec` on `jobs` threads and a fresh cache of its own.
fn sweep(spec: &SweepSpec, jobs: usize, telemetry: &mut Telemetry) -> SweepReport {
    let cache = EquilibriumCache::default();
    run_sweep_shared(spec, jobs, Supervision::default(), &cache, telemetry).expect("sweep succeeds")
}

/// Median wall nanoseconds per agent-epoch of `reps` serial runs of
/// `spec`.
fn ns_per_agent_epoch(spec: &SweepSpec, reps: usize) -> f64 {
    let agent_epochs = (spec.trial_count() as u64
        * u64::from(spec.populations[0].agents)
        * spec.epochs as u64) as f64;
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            sweep(spec, 1, &mut Telemetry::noop());
            started.elapsed().as_nanos() as f64 / agent_epochs
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

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
    let serial = sweep(&spec, 1, &mut serial_kit);
    let serial_nanos = started.elapsed().as_nanos() as u64;
    let population_builds = serial_kit
        .registry
        .counter_value("sweep.population_builds")
        .expect("an enabled kit counts population builds");
    let pairs = (spec.populations.len() * spec.seeds.len()) as u64;
    let phase_tracks = serial_kit
        .registry
        .counter_value("sweep.phase_tracks")
        .expect("an enabled kit counts phase recordings");
    let phase_replays = serial_kit
        .registry
        .counter_value("sweep.phase_replays")
        .expect("an enabled kit counts phase replays");

    let mut kit = Telemetry::in_memory();
    let started = Instant::now();
    let parallel = sweep(&spec, PARALLEL_JOBS, &mut kit);
    let parallel_nanos = started.elapsed().as_nanos() as u64;
    let parallel_counts = [
        "sweep.population_builds",
        "sweep.phase_tracks",
        "sweep.phase_replays",
    ]
    .map(|name| kit.registry.counter_value(name).unwrap_or(0));

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

    let shared = shared_pair_spec();
    let shared_reps = if quick { 3 } else { 5 };
    let shared_ns = ns_per_agent_epoch(&shared, shared_reps);

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // With fewer cores than workers the parallel leg measures
    // oversubscription, not speedup: the row does not run.
    let enforce_speedup = cores >= PARALLEL_JOBS;
    let speedup = enforce_speedup.then(|| serial_nanos as f64 / parallel_nanos as f64);

    println!(
        "sweep smoke ({} trials: {agents} agents x {epochs} epochs, 2 policies x 16 seeds)",
        serial.trials
    );
    println!("  serial    {serial_nanos:>12} ns (jobs=1)");
    println!("  parallel  {parallel_nanos:>12} ns (jobs={PARALLEL_JOBS}, {cores} cores)");
    match speedup {
        Some(speedup) => println!("  speedup   {speedup:>12.2}x"),
        None => println!(
            "  speedup   not measured: jobs={PARALLEL_JOBS} on {cores} core(s) oversubscribes, \
             so the row did not run"
        ),
    }
    println!(
        "  cache     {hits} hits / {misses} misses ({:.1}%)",
        hit_rate * 100.0
    );
    println!(
        "  builds    {population_builds} populations for {pairs} (population, seed) pairs (jobs=1)"
    );
    println!(
        "  replay    {phase_tracks} phase recordings, {phase_replays} of {} trials replayed (jobs=1)",
        serial.trials
    );
    println!(
        "  parallel  {} populations, {} phase recordings, {} replays (jobs={PARALLEL_JOBS})",
        parallel_counts[0], parallel_counts[1], parallel_counts[2]
    );
    println!(
        "  shared    {shared_ns:>12.3} ns/agent-epoch ({} trials on one pair, 2000 agents x 200 \
         epochs, jobs=1, median of {shared_reps})",
        shared.trial_count()
    );

    let json = format!(
        "{{\n  \"agents\": {agents},\n  \"epochs\": {epochs},\n  \"trials\": {},\n  \
         \"serial_nanos\": {serial_nanos},\n  \"parallel_nanos\": {parallel_nanos},\n  \
         \"jobs\": {PARALLEL_JOBS},\n  \"cores\": {cores},\n  \"speedup\": {},\n  \
         \"speedup_enforced\": {enforce_speedup},\n  \"min_speedup\": {MIN_SPEEDUP},\n  \
         \"cache_hits\": {hits},\n  \"cache_misses\": {misses},\n  \
         \"cache_hit_rate\": {hit_rate:.4},\n  \"min_hit_rate\": {MIN_HIT_RATE},\n  \
         \"population_builds\": {population_builds},\n  \"population_pairs\": {pairs},\n  \
         \"phase_tracks\": {phase_tracks},\n  \"phase_replays\": {phase_replays},\n  \
         \"shared_pair_trials\": {},\n  \"shared_pair_reps\": {shared_reps},\n  \
         \"shared_pair_ns_per_agent_epoch\": {shared_ns:.4}\n}}\n",
        serial.trials,
        speedup.map_or("null".to_string(), |s| format!("{s:.4}")),
        shared.trial_count()
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
    if phase_tracks > pairs {
        eprintln!(
            "FAIL: the serial sweep recorded {phase_tracks} phase trajectories for {pairs} \
             (population, seed) pairs"
        );
        std::process::exit(1);
    }
    if phase_replays < serial.trials as u64 {
        eprintln!(
            "FAIL: the serial sweep replayed {phase_replays} of its {} trials",
            serial.trials
        );
        std::process::exit(1);
    }
    if parallel_counts != [pairs, pairs, parallel.trials as u64] {
        eprintln!(
            "FAIL: the jobs={PARALLEL_JOBS} sweep built {} populations, recorded {} phase \
             trajectories and replayed {} trials for {pairs} (population, seed) pairs and {} \
             trials",
            parallel_counts[0], parallel_counts[1], parallel_counts[2], parallel.trials
        );
        std::process::exit(1);
    }
    if let Some(speedup) = speedup.filter(|&s| s < MIN_SPEEDUP) {
        eprintln!("FAIL: parallel speedup {speedup:.2}x below the {MIN_SPEEDUP:.1}x floor");
        std::process::exit(1);
    }
    if enforce_speedup {
        println!("PASS: byte-identical reports, builds, replays, cache and speedup within budget");
    } else {
        println!(
            "PASS: byte-identical reports, builds, replays and cache within budget \
             (speedup not enforced on {cores} core(s))"
        );
    }
}

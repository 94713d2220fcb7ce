//! Engine hot-path smoke check (not a criterion bench).
//!
//! Measures the struct-of-arrays agent kernel end to end and enforces the
//! hot-path contracts:
//!
//! - agent-epochs/sec at N ∈ {10k, 100k, 1M}, serial and at as many jobs
//!   as the host has cores on the persistent worker pool, against a
//!   faithful reimplementation of the
//!   pre-SoA epoch loop (per-epoch `Vec` allocation, sequential `StdRng`,
//!   per-agent dyn policy dispatch); legs run interleaved round-robin
//!   across repetitions so frequency drift cannot bias one side;
//! - the serial kernel beats the reference loop by ≥ `MIN_SERIAL_SPEEDUP`
//!   at the gate size (N=100k);
//! - the parallel rows beat serial by ≥ `MIN_PARALLEL_SPEEDUP` at the
//!   gate size, enforced only when the host has ≥ `GATE_CORES` cores;
//! - reports are byte-identical across `jobs ∈ {1, cores}` at every
//!   size, including the N=10⁶ demonstration run;
//! - a short chunk-size sweep at the gate size records how the
//!   `chunk_agents` tile interacts with L2 residency;
//! - serial rows at the gate size for the other kernel paths: E-T under
//!   every fault class (`FaultPlan::composite`), E-B's countdown in the
//!   fused pass, and the serial decide loop with its Settle pass, which
//!   E-T takes when its snapshot is hidden;
//! - E-B and E-T rows at 200000 agents × 200 epochs at jobs 1 and 2, so
//!   the two policies' gains from a second job can be compared;
//! - every engine row runs the path the products run: the population
//!   built as flat arrivals (`Population::arrivals`) and run read-only
//!   by `engine::run_arrivals`;
//! - the epoch loop allocates nothing on any of the four kernel paths,
//!   serial *and* with the pool live: a counting global allocator sees
//!   the same allocation count for a 2× longer horizon;
//! - population builds (`Population::arrivals`) are timed at
//!   N ∈ {10⁵, 10⁶} for jobs ∈ {1, 2}, and building 2× the agents must
//!   not allocate more often: the count follows cohorts and threads;
//! - the same allocator tracks live heap bytes: the peak of one
//!   arrivals build plus one engine run, per agent, at N ∈ {10⁵, 10⁶},
//!   must stay at or below `MAX_PRODUCT_BYTES_PER_AGENT`; the stream
//!   path (`spawn_streams` plus `run_guarded`) is recorded beside
//!   it for reference;
//! - `gap_draw` rows time one geometric draw through a `GapTable` and
//!   through the logarithm it replaces, at the svm phase scale and the
//!   paper's cooling scale, and time the table's build; both routes must
//!   return the same gaps;
//! - on a multi-core host, the parallel speedup must not regress below
//!   90% of the value recorded by the previous multi-core run of this
//!   bench (read from the existing `BENCH_engine.json` before it is
//!   overwritten).
//!
//! Results land in `BENCH_engine.json` at the workspace root so CI can
//! archive the trend. Run with `--quick` for a reduced-scale smoke pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use sprint_game::trip::TripCurve;
use sprint_game::{AgentState, GameConfig, ThresholdStrategy};
use sprint_sim::engine::{run_arrivals, run_guarded, RunGuard, SimConfig, DEFAULT_CHUNK};
use sprint_sim::faults::FaultPlan;
use sprint_sim::policies::{ExponentialBackoff, ThresholdPolicy};
use sprint_sim::policy::SprintPolicy;
use sprint_sim::telemetry::Telemetry;
use sprint_stats::density::DiscreteDensity;
use sprint_stats::dist::ContinuousDistribution;
use sprint_stats::rng::{geometric_gap, seeded_rng, CounterRng, GapTable, SeedSequence};
use sprint_workloads::generator::{Arrivals, Population};
use sprint_workloads::phases::{DEFAULT_PERSISTENCE_EPOCHS, PHASE_SAMPLE_BINS};
use sprint_workloads::Benchmark;

/// Count allocations so the no-alloc contract is checkable from outside
/// the engine (a longer horizon must not allocate more), and track live
/// heap bytes and their peak so a run's memory per agent is too.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Heap bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since it was last reset to the current value.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // Forwarded, so a lazily zeroed lane stays lazily zeroed here too.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // Both blocks count until the old one is released, as a move
            // holds both.
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Measured headroom on a 2-vCPU VM: the SoA kernel runs N=100k at
/// ~19-20 ns/agent-epoch vs ~75-105 ns for the faithful reference loop,
/// a 5.2-5.5x serial speedup. The kernel collects its phase events and
/// sprinters without branching, so what it pays per event is mostly the
/// draws themselves: two counter words, an alias sample and a gap-table
/// search per phase change, a counter word and a gap-table search per
/// sprint. The reference pays an `ln` for each gap, and a branch per
/// agent. The reference's own rate
/// swings by about a third between runs on that host, so the ratio does
/// too. The floor sits below every measurement with margin for CI-runner
/// noise.
const MIN_SERIAL_SPEEDUP: f64 = 2.5;
/// With the persistent pool amortizing spawn/join, 4 workers on 4 real
/// cores keep ≥ 2× of the ideal 4× after the serial reduction and the
/// barrier wait are paid.
const MIN_PARALLEL_SPEEDUP: f64 = 2.0;
/// A multi-core run may not lose more than this fraction of the parallel
/// speedup the previous multi-core run recorded.
const REGRESSION_TOLERANCE: f64 = 0.9;
/// The fewest cores on which the parallel gates are enforced.
const GATE_CORES: usize = 4;
/// Size and job counts of the rows that compare E-B's and E-T's gain from
/// a second job.
const DECIDE_AGENTS: usize = 200_000;
const DECIDE_EPOCHS: usize = 200;
const DECIDE_JOBS: [usize; 2] = [1, 2];
/// The size the speedup gates are evaluated at (the ISSUE's contract
/// point); the scaling table extends beyond it.
const GATE_AGENTS: usize = 100_000;
const SEED: u64 = 7;
/// Job counts of the population-build rows.
const SPAWN_JOBS: [usize; 2] = [1, 2];
/// Population size of the spawn allocation check: at least two 2¹⁴-agent
/// spans, so N and 2N run the arrival walk on the same number of threads.
const SPAWN_ALLOC_AGENTS: usize = 40_000;
/// The product path's memory budget: arrivals (an 8-B key and an 8-B
/// phase per agent) plus the engine's own lanes, which borrow the keys,
/// come to 42 B per agent; a run that copied the keys would hold 50.
const MAX_PRODUCT_BYTES_PER_AGENT: f64 = 52.0;
/// Population sizes, horizon and thread budget of the memory rows.
const MEMORY_AGENTS: [usize; 2] = [100_000, 1_000_000];
const MEMORY_EPOCHS: usize = 20;
const MEMORY_JOBS: usize = 2;

fn game_for(n: usize) -> GameConfig {
    GameConfig::builder()
        .n_agents(n as u32)
        .n_min(n as f64 * 0.25)
        .n_max(n as f64 * 0.75)
        .build()
        .unwrap()
}

fn population(n: usize) -> Population {
    Population::homogeneous(Benchmark::DecisionTree, n).unwrap()
}

/// The bench population's arrivals, as every product builds them.
fn arrivals(n: usize) -> Arrivals {
    population(n).arrivals(SEED, 1).unwrap()
}

fn policy_for(n: usize) -> ThresholdPolicy {
    ThresholdPolicy::uniform("E-T", ThresholdStrategy::new(5.0).unwrap(), n).unwrap()
}

/// One of the engine's kernel paths: which policy decides, under which
/// fault plan.
#[derive(Clone, Copy)]
enum KernelPath {
    /// E-T with no faults: the fused kernel's fault-free instance.
    FaultFree,
    /// E-T under every fault class: the fused kernel with crash churn and
    /// stuck gates.
    Composite,
    /// The E-B policy: its waits count down in the fused pass.
    Backoff,
    /// E-T with its snapshot hidden: the serial decide loop between an
    /// advance pass and a settle pass, which the other stateful policies
    /// and decision-traced runs take.
    SerialDecide,
}

impl KernelPath {
    const ALL: [KernelPath; 4] = [
        KernelPath::FaultFree,
        KernelPath::Composite,
        KernelPath::Backoff,
        KernelPath::SerialDecide,
    ];

    fn name(self) -> &'static str {
        match self {
            KernelPath::FaultFree => "E-T",
            KernelPath::Composite => "E-T composite",
            KernelPath::Backoff => "E-B",
            KernelPath::SerialDecide => "E-T serial decide",
        }
    }

    fn config(self, n: usize, epochs: usize, chunk: usize) -> SimConfig {
        let faults = match self {
            KernelPath::Composite => FaultPlan::composite(SEED),
            KernelPath::FaultFree | KernelPath::Backoff | KernelPath::SerialDecide => {
                FaultPlan::none()
            }
        };
        SimConfig::new(game_for(n), epochs, SEED)
            .unwrap()
            .with_chunk_agents(chunk)
            .with_faults(faults)
    }

    fn policy(self, n: usize) -> Box<dyn SprintPolicy> {
        match self {
            KernelPath::FaultFree | KernelPath::Composite => Box::new(policy_for(n)),
            KernelPath::Backoff => Box::new(ExponentialBackoff::new(n, SEED)),
            KernelPath::SerialDecide => Box::new(SerialThreshold(policy_for(n))),
        }
    }
}

/// A threshold policy that decides only through `wants_sprint`: with no
/// snapshot to hand the kernel, every epoch takes the serial decide loop,
/// and it allocates nothing per epoch (unlike the adaptive policy's
/// Bellman refresh or a kit that records decision events).
struct SerialThreshold(ThresholdPolicy);

impl SprintPolicy for SerialThreshold {
    fn name(&self) -> &'static str {
        "E-T serial decide"
    }

    fn wants_sprint(&mut self, agent: usize, utility: f64) -> bool {
        self.0.wants_sprint(agent, utility)
    }
}

/// One agent's utility stream laid out as the pre-SoA engine walked it:
/// 80 bytes that box the agent's own speedup distribution (about 220 B
/// more on the heap), resampled through a sequential generator. Library
/// streams now share one distribution per cohort in 56 bytes, which by
/// itself makes the reference loop about twice as fast at N=10⁵, so the
/// reference keeps the layout the kernel replaced.
struct LegacyStream {
    dist: Box<dyn ContinuousDistribution>,
    _table: Arc<DiscreteDensity>,
    persistence_epochs: f64,
    current: f64,
    _seed: u64,
    rng: StdRng,
}

impl LegacyStream {
    fn next_utility(&mut self) -> f64 {
        let out = self.current;
        if self.rng.gen::<f64>() < 1.0 / self.persistence_epochs {
            self.current = self.dist.sample(&mut self.rng);
        }
        out
    }
}

/// The reference loop's population: the agents, seeds and arrival walks
/// of [`arrivals`], one boxed distribution per agent.
fn legacy_spawn(n: usize) -> Vec<LegacyStream> {
    let table = Arc::new(
        Benchmark::DecisionTree
            .utility_density(PHASE_SAMPLE_BINS)
            .unwrap(),
    );
    let mut seeds = SeedSequence::new(SEED);
    (0..n)
        .map(|_| {
            let seed = seeds.next_seed();
            let dist = Benchmark::DecisionTree.speedup_distribution();
            let mut rng = seeded_rng(seed);
            let current = dist.sample(&mut rng);
            let mut stream = LegacyStream {
                dist,
                _table: Arc::clone(&table),
                persistence_epochs: DEFAULT_PERSISTENCE_EPOCHS,
                current,
                _seed: seed,
                rng,
            };
            for _ in 0..(seed >> 32) % 64 {
                stream.next_utility();
            }
            stream
        })
        .collect()
}

/// The pre-SoA engine's epoch loop, reproduced pass-for-pass from the
/// shipped version (commit history: "Resilient coordinator control
/// plane"): a fresh `Vec<f64>` of stream utilities per epoch, then three
/// separate full-population passes — decide, throughput/occupancy, state
/// transitions — each re-checking the fault overlays, with sequential
/// `StdRng` draws for cooling exits and recovery wake-up stagger.
fn reference_run(game: &GameConfig, streams: &mut [LegacyStream], epochs: usize) -> f64 {
    let n = streams.len();
    let curve = TripCurve::from_config(game);
    let p_cool_exit = 1.0 - game.p_cooling();
    let p_recover_exit = 1.0 - game.p_recovery();
    let mut policy: Box<dyn SprintPolicy> = Box::new(policy_for(n));
    let mut rng = seeded_rng(SEED ^ 0x51B_EAC0);
    let mut states = vec![AgentState::Active; n];
    let mut blocked = vec![0usize; n];
    let mut sprinted = vec![false; n];
    let mut crashed = vec![false; n];
    let mut stuck = vec![false; n];
    let mut recovering = false;
    let mut total_tasks = 0.0f64;
    let mut occ_sprinting = 0u64;
    let mut occ_cooling = 0u64;
    let mut occ_idle = 0u64;
    for epoch in 0..epochs {
        // Phases advance in wall-clock time regardless of power state.
        let utilities: Vec<f64> = streams.iter_mut().map(LegacyStream::next_utility).collect();
        if recovering {
            if rng.gen::<f64>() < p_recover_exit {
                recovering = false;
                for (i, state) in states.iter_mut().enumerate() {
                    *state = AgentState::Active;
                    blocked[i] = epoch + 1 + rng.gen_range(0..2usize);
                }
            }
            continue;
        }
        // Pass 1: decisions.
        let mut n_sprinters = 0u32;
        let mut n_stuck = 0u32;
        for i in 0..n {
            sprinted[i] = false;
            if crashed[i] {
                continue;
            }
            match states[i] {
                AgentState::Active => {
                    if epoch >= blocked[i] && policy.wants_sprint(i, utilities[i]) {
                        sprinted[i] = true;
                        n_sprinters += 1;
                    }
                }
                AgentState::Cooling => {
                    if stuck[i] {
                        n_stuck += 1;
                    }
                }
                AgentState::Recovery => {
                    states[i] = AgentState::Active;
                }
            }
        }
        let p_trip = curve.p_trip(f64::from(n_sprinters + n_stuck));
        let tripped = p_trip > 0.0 && rng.gen::<f64>() < p_trip;
        // Pass 2: throughput and occupancy.
        for i in 0..n {
            if crashed[i] {
                continue;
            }
            if sprinted[i] {
                total_tasks += utilities[i];
                occ_sprinting += 1;
            } else {
                total_tasks += 1.0;
                match states[i] {
                    AgentState::Cooling => occ_cooling += 1,
                    _ => occ_idle += 1,
                }
            }
        }
        // Pass 3: state transitions.
        if tripped {
            recovering = true;
            states.fill(AgentState::Recovery);
        } else {
            for i in 0..n {
                if crashed[i] {
                    continue;
                }
                states[i] = match states[i] {
                    AgentState::Active if sprinted[i] => AgentState::Cooling,
                    AgentState::Cooling => {
                        if stuck[i] {
                            AgentState::Cooling
                        } else if rng.gen::<f64>() < p_cool_exit {
                            AgentState::Active
                        } else {
                            AgentState::Cooling
                        }
                    }
                    s => s,
                };
            }
        }
        policy.epoch_end(tripped);
    }
    std::hint::black_box((
        occ_sprinting,
        occ_cooling,
        occ_idle,
        &mut crashed,
        &mut stuck,
    ));
    total_tasks
}

/// Everything a report serializes from, bit-exact: if two runs agree on
/// this, their JSON reports are byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    total_tasks: u64,
    trips: u32,
    mean_sprinters: u64,
    occupancy: [u64; 4],
}

fn engine_rate(
    path: KernelPath,
    n: usize,
    epochs: usize,
    jobs: usize,
    chunk: usize,
) -> (f64, Fingerprint) {
    let cfg = path.config(n, epochs, chunk);
    let arrivals = arrivals(n);
    let mut policy = path.policy(n);
    let started = Instant::now();
    let result = run_arrivals(
        &cfg,
        &arrivals,
        policy.as_mut(),
        &RunGuard::default(),
        jobs,
        &mut Telemetry::noop(),
    )
    .unwrap();
    let secs = started.elapsed().as_secs_f64();
    assert!(result.total_tasks() > 0.0);
    let occ = result.occupancy().fractions();
    let fingerprint = Fingerprint {
        total_tasks: result.total_tasks().to_bits(),
        trips: result.trips(),
        mean_sprinters: result.mean_sprinters().to_bits(),
        occupancy: [
            occ[0].to_bits(),
            occ[1].to_bits(),
            occ[2].to_bits(),
            occ[3].to_bits(),
        ],
    };
    ((n * epochs) as f64 / secs, fingerprint)
}

fn reference_rate(n: usize, epochs: usize) -> f64 {
    let game = game_for(n);
    let mut streams = legacy_spawn(n);
    let started = Instant::now();
    let tasks = reference_run(&game, &mut streams, epochs);
    let secs = started.elapsed().as_secs_f64();
    assert!(tasks > 0.0);
    (n * epochs) as f64 / secs
}

/// Allocation count of one engine run (setup included) on a kernel path
/// at a job count. With `jobs > 1` the persistent pool is live: its spawn
/// cost is per-run setup, so short and long horizons must still count
/// the same.
fn allocs_for(path: KernelPath, n: usize, epochs: usize, jobs: usize) -> u64 {
    let cfg = path.config(n, epochs, DEFAULT_CHUNK);
    let arrivals = arrivals(n);
    let mut policy = path.policy(n);
    let before = ALLOCS.load(Ordering::Relaxed);
    run_arrivals(
        &cfg,
        &arrivals,
        policy.as_mut(),
        &RunGuard::default(),
        jobs,
        &mut Telemetry::noop(),
    )
    .unwrap();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Agents per second of one population build at a job count (freeing
/// the arrivals is not timed).
fn spawn_rate(n: usize, jobs: usize) -> f64 {
    let population = population(n);
    let started = Instant::now();
    let arrivals = population.arrivals(SEED, jobs).unwrap();
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(std::hint::black_box(arrivals).len(), n);
    n as f64 / secs
}

/// Allocation count of one population build at a job count.
fn spawn_allocs(n: usize, jobs: usize) -> u64 {
    let population = population(n);
    let before = ALLOCS.load(Ordering::Relaxed);
    let arrivals = population.arrivals(SEED, jobs).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(arrivals.len(), n);
    allocs
}

/// Peak live heap bytes per agent of one population build plus one
/// fault-free E-T run: on the product path (flat arrivals, run read
/// only) or, with `streams`, on the stream path (streams, which the
/// engine's adapter converts and writes back). The population's own
/// assignments (one byte per agent) exist before the window opens, as
/// they do in the scenario a job runs.
fn bytes_per_agent(n: usize, streams: bool) -> f64 {
    let population = population(n);
    let cfg = KernelPath::FaultFree.config(n, MEMORY_EPOCHS, DEFAULT_CHUNK);
    let mut policy = policy_for(n);
    let (guard, mut telemetry) = (RunGuard::default(), Telemetry::noop());
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = if streams {
        let mut streams = population.spawn_streams(SEED).unwrap();
        run_guarded(
            &cfg,
            &mut streams,
            &mut policy,
            &guard,
            MEMORY_JOBS,
            &mut telemetry,
        )
    } else {
        let arrivals = population.arrivals(SEED, MEMORY_JOBS).unwrap();
        run_arrivals(
            &cfg,
            &arrivals,
            &mut policy,
            &guard,
            MEMORY_JOBS,
            &mut telemetry,
        )
    };
    assert!(result.unwrap().total_tasks() > 0.0);
    (PEAK.load(Ordering::Relaxed) - base) as f64 / n as f64
}

/// The previous snapshot's multi-core parallel baseline, if it has one:
/// `(cores, parallel_speedup)` read from the file this run overwrites.
fn prior_baseline(path: &std::path::Path) -> Option<(u64, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let value = serde_json::from_str_value(&text).ok()?;
    let obj = value.as_object()?;
    let field = |name: &str| obj.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let cores = field("cores")?.as_f64()? as u64;
    let speedup = field("parallel_speedup")
        .or_else(|| field("parallel_speedup_at_max_n"))?
        .as_f64()?;
    Some((cores, speedup))
}

/// Nanoseconds per draw of `draw` over `words`, and the sum of the
/// draws (so both routes can be checked against each other).
fn ns_per_draw(words: &[u64], draw: impl Fn(u64) -> u64) -> (f64, u64) {
    let t0 = Instant::now();
    let sum = words.iter().fold(0u64, |acc, &w| {
        acc.wrapping_add(draw(std::hint::black_box(w)))
    });
    (t0.elapsed().as_secs_f64() * 1e9 / words.len() as f64, sum)
}

/// One `gap_draw` row: the best-of-`reps` ns per draw through the table
/// and through the logarithm, legs interleaved, plus microseconds per
/// table build.
fn gap_draw_row(name: &str, scale: f64, words: &[u64], reps: usize) -> String {
    let table = GapTable::new(scale);
    let unit = 1.0 / (1u64 << 53) as f64;
    let (mut table_ns, mut ln_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let (ns, by_table) = ns_per_draw(words, |w| table.gap(w));
        table_ns = table_ns.min(ns);
        let (ns, by_ln) = ns_per_draw(words, |w| geometric_gap((w >> 11) as f64 * unit, scale));
        ln_ns = ln_ns.min(ns);
        assert_eq!(by_table, by_ln, "{name}: the table and ln disagree");
    }
    let builds = 1000;
    let t0 = Instant::now();
    for _ in 0..builds {
        std::hint::black_box(GapTable::new(std::hint::black_box(scale)));
    }
    let build_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(builds);
    let entries = table.bounds().len();
    println!(
        "  gap draw  {name}: table {table_ns:.2} ns, ln {ln_ns:.2} ns \
         ({entries} entries, build {build_us:.1} us)"
    );
    format!(
        "    {{\"scale\": \"{name}\", \"gap_scale\": {scale:.6}, \"entries\": {entries}, \
         \"draws\": {}, \"table_ns_per_draw\": {table_ns:.3}, \"ln_ns_per_draw\": {ln_ns:.3}, \
         \"build_us\": {build_us:.2}}}",
        words.len()
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // The gate size stays in every mode: both speedup gates are evaluated
    // at N=100k, where the SoA advantage is structural (the reference
    // loop's stream array no longer fits in cache). Full mode extends the
    // scaling table to the N=10⁶ demonstration run.
    let sizes: &[usize] = if quick {
        &[10_000, GATE_AGENTS]
    } else {
        &[10_000, GATE_AGENTS, 1_000_000]
    };
    // Constant total agent-epochs per size so every row does comparable
    // work and the timings stay comparable.
    let work = if quick { 2_000_000 } else { 20_000_000 };
    let reps = if quick { 2 } else { 3 };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The parallel rows run one job per core: more would measure
    // oversubscription, not the pool.
    let parallel_jobs = cores;
    let enforce_parallel = cores >= GATE_CORES;
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_engine.json");
    let baseline = prior_baseline(&out);

    println!("engine hot-path smoke ({cores} cores, {reps} interleaved reps)");
    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "agents",
        "epochs",
        "ref ae/s",
        "serial ae/s",
        format!("jobs{parallel_jobs} ae/s"),
        "vs ref",
        "vs ser"
    );
    let mut rows = String::new();
    let mut serial_speedup = 0.0;
    let mut parallel_speedup = 0.0;
    for &n in sizes {
        let epochs = (work / n).max(10);
        // Interleave the three legs round-robin across reps (the PR-8
        // de-flake pattern): frequency scaling and noisy neighbours hit
        // all legs alike, and each leg keeps its best rep.
        let mut reference = 0.0f64;
        let mut serial = 0.0f64;
        let mut parallel = 0.0f64;
        let mut serial_print = None;
        let mut parallel_print = None;
        for _ in 0..reps {
            reference = reference.max(reference_rate(n, epochs));
            let (rate, print) = engine_rate(KernelPath::FaultFree, n, epochs, 1, DEFAULT_CHUNK);
            serial = serial.max(rate);
            assert!(
                serial_print.get_or_insert(print) == &print,
                "serial reps must be deterministic at N={n}"
            );
            let (rate, print) = engine_rate(
                KernelPath::FaultFree,
                n,
                epochs,
                parallel_jobs,
                DEFAULT_CHUNK,
            );
            parallel = parallel.max(rate);
            assert!(
                parallel_print.get_or_insert(print) == &print,
                "parallel reps must be deterministic at N={n}"
            );
        }
        // The acceptance contract: reports are a function of the spec
        // alone, at N=10⁶ like everywhere else.
        assert_eq!(
            serial_print, parallel_print,
            "jobs=1 and jobs={parallel_jobs} must be byte-identical at N={n}"
        );
        let vs_ref = serial / reference;
        let vs_serial = parallel / serial;
        if n == GATE_AGENTS {
            serial_speedup = vs_ref;
            parallel_speedup = vs_serial;
        }
        println!(
            "{n:>8} {epochs:>8} {reference:>14.0} {serial:>14.0} {parallel:>14.0} \
             {vs_ref:>7.2}x {vs_serial:>7.2}x"
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"agents\": {n}, \"epochs\": {epochs}, \
             \"reference_agent_epochs_per_sec\": {reference:.0}, \
             \"serial_agent_epochs_per_sec\": {serial:.0}, \
             \"parallel_agent_epochs_per_sec\": {parallel:.0}, \
             \"serial_vs_reference\": {vs_ref:.4}, \
             \"parallel_vs_serial\": {vs_serial:.4}}}"
        ));
    }

    // Chunk-size sweep at the gate size: how the `chunk_agents` tile
    // interacts with L2 residency, serial so the tiling effect is not
    // confounded with barrier costs. Recorded, not gated — the default
    // chunk is part of the report spec, so it cannot chase the fastest
    // tile without breaking byte-compatibility.
    let sweep_epochs = ((work / 10) / GATE_AGENTS).max(10);
    let mut chunk_rows = String::new();
    print!("  chunks   ");
    for &chunk in &[512usize, 1024, 2048, 4096] {
        let (rate, _) = engine_rate(KernelPath::FaultFree, GATE_AGENTS, sweep_epochs, 1, chunk);
        print!(" {chunk}:{:.1}M", rate / 1e6);
        if !chunk_rows.is_empty() {
            chunk_rows.push_str(",\n");
        }
        chunk_rows.push_str(&format!(
            "    {{\"chunk_agents\": {chunk}, \"agent_epochs_per_sec\": {rate:.0}}}"
        ));
    }
    println!(" (ae/s at N={GATE_AGENTS}, serial)");

    // The other kernel paths at the gate size, serial, legs interleaved
    // across reps like the scaling rows. The fault-free E-T row is the
    // N=100k row above.
    let path_epochs = (work / GATE_AGENTS).max(10);
    let other_paths = [
        KernelPath::Composite,
        KernelPath::Backoff,
        KernelPath::SerialDecide,
    ];
    let mut path_rates = [0.0f64; 3];
    for _ in 0..reps {
        for (rate, &path) in path_rates.iter_mut().zip(&other_paths) {
            let (r, _) = engine_rate(path, GATE_AGENTS, path_epochs, 1, DEFAULT_CHUNK);
            *rate = rate.max(r);
        }
    }
    let mut path_rows = String::new();
    print!("  paths    ");
    for (rate, path) in path_rates.iter().zip(other_paths) {
        print!(" {}:{:.1}M", path.name(), rate / 1e6);
        if !path_rows.is_empty() {
            path_rows.push_str(",\n");
        }
        path_rows.push_str(&format!(
            "    {{\"path\": \"{}\", \"agents\": {GATE_AGENTS}, \"epochs\": {path_epochs}, \
             \"serial_agent_epochs_per_sec\": {rate:.0}}}",
            path.name()
        ));
    }
    println!(" (ae/s at N={GATE_AGENTS}, serial)");

    // E-B against E-T at jobs 1 and 2: how much each gains from a second
    // job. Every leg interleaved across reps.
    let decide_paths = [KernelPath::Backoff, KernelPath::FaultFree];
    let mut decide_rates = [[0.0f64; DECIDE_JOBS.len()]; 2];
    for _ in 0..reps {
        for (rates, &path) in decide_rates.iter_mut().zip(&decide_paths) {
            for (rate, &jobs) in rates.iter_mut().zip(&DECIDE_JOBS) {
                let (r, _) = engine_rate(path, DECIDE_AGENTS, DECIDE_EPOCHS, jobs, DEFAULT_CHUNK);
                *rate = rate.max(r);
            }
        }
    }
    let mut decide_rows = String::new();
    for (rates, path) in decide_rates.iter().zip(decide_paths) {
        let gain = rates[1] / rates[0];
        println!(
            "  decide    {} N={DECIDE_AGENTS}x{DECIDE_EPOCHS}: jobs 1 {:.1}M, jobs 2 {:.1}M ae/s \
             ({gain:.2}x)",
            path.name(),
            rates[0] / 1e6,
            rates[1] / 1e6
        );
        for (rate, jobs) in rates.iter().zip(DECIDE_JOBS) {
            if !decide_rows.is_empty() {
                decide_rows.push_str(",\n");
            }
            decide_rows.push_str(&format!(
                "    {{\"path\": \"{}\", \"agents\": {DECIDE_AGENTS}, \"epochs\": {DECIDE_EPOCHS}, \
                 \"jobs\": {jobs}, \"agent_epochs_per_sec\": {rate:.0}}}",
                path.name()
            ));
        }
    }

    // No-alloc contract: doubling the horizon must not add a single
    // allocation — everything the epoch loop needs exists before it runs.
    // Checked on every kernel path, serial and with the pool live: worker
    // spawn is per-run setup, the barrier steady state allocates nothing.
    let (alloc_n, alloc_epochs) = if quick { (5_000, 200) } else { (20_000, 400) };
    let pool_jobs = parallel_jobs.max(2);
    let mut path_allocs = Vec::new();
    for path in KernelPath::ALL {
        let counts = [
            allocs_for(path, alloc_n, alloc_epochs, 1),
            allocs_for(path, alloc_n, alloc_epochs * 2, 1),
            allocs_for(path, alloc_n, alloc_epochs, pool_jobs),
            allocs_for(path, alloc_n, alloc_epochs * 2, pool_jobs),
        ];
        println!(
            "  allocs    {}: serial {}/{}, pool {}/{} at {alloc_epochs}/{} epochs",
            path.name(),
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            alloc_epochs * 2
        );
        path_allocs.push((path, counts));
    }
    let [short, long, pool_short, pool_long] = path_allocs[0].1;
    let path_alloc_rows = path_allocs[1..]
        .iter()
        .map(|(path, c)| {
            format!(
                "    {{\"path\": \"{}\", \"allocs_short_run\": {}, \"allocs_long_run\": {}, \
                 \"allocs_pool_short_run\": {}, \"allocs_pool_long_run\": {}}}",
                path.name(),
                c[0],
                c[1],
                c[2],
                c[3]
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    // Population build: agents/sec per job count, legs interleaved
    // across reps like the engine rows; then the allocation contract at
    // a size where both N and 2N split into the same number of spans.
    let mut spawn_rows = String::new();
    for &n in &[100_000usize, 1_000_000] {
        let mut rates = [0.0f64; SPAWN_JOBS.len()];
        for _ in 0..reps {
            for (rate, &jobs) in rates.iter_mut().zip(&SPAWN_JOBS) {
                *rate = rate.max(spawn_rate(n, jobs));
            }
        }
        for (rate, jobs) in rates.iter().zip(SPAWN_JOBS) {
            println!("  spawn     N={n} jobs={jobs}: {:.2}M agents/s", rate / 1e6);
            if !spawn_rows.is_empty() {
                spawn_rows.push_str(",\n");
            }
            spawn_rows.push_str(&format!(
                "    {{\"agents\": {n}, \"jobs\": {jobs}, \"spawn_agents_per_sec\": {rate:.0}}}"
            ));
        }
    }
    let mut spawn_alloc_rows = String::new();
    let mut spawn_allocs_flat = true;
    for jobs in SPAWN_JOBS {
        let single = spawn_allocs(SPAWN_ALLOC_AGENTS, jobs);
        let double = spawn_allocs(2 * SPAWN_ALLOC_AGENTS, jobs);
        println!(
            "  spawn     allocs at jobs={jobs}: {single} for N={SPAWN_ALLOC_AGENTS}, \
             {double} for N={}",
            2 * SPAWN_ALLOC_AGENTS
        );
        spawn_allocs_flat &= single == double;
        if !spawn_alloc_rows.is_empty() {
            spawn_alloc_rows.push_str(",\n");
        }
        spawn_alloc_rows.push_str(&format!(
            "    {{\"jobs\": {jobs}, \"allocs_n\": {single}, \"allocs_2n\": {double}}}"
        ));
    }

    // Memory: the peak live heap of a build plus a run, per agent, on the
    // product path and, for reference, on the stream path.
    let mut memory_rows = String::new();
    let mut product_peak = 0.0f64;
    for n in MEMORY_AGENTS {
        let product = bytes_per_agent(n, false);
        let stream = bytes_per_agent(n, true);
        product_peak = product_peak.max(product);
        println!(
            "  memory    N={n}: product path {product:.1} B/agent, stream path \
             {stream:.1} B/agent (peak live heap, build + {MEMORY_EPOCHS}-epoch run)"
        );
        if !memory_rows.is_empty() {
            memory_rows.push_str(",\n");
        }
        memory_rows.push_str(&format!(
            "    {{\"agents\": {n}, \"epochs\": {MEMORY_EPOCHS}, \"jobs\": {MEMORY_JOBS}, \
             \"product_bytes_per_agent\": {product:.2}, \"stream_bytes_per_agent\": {stream:.2}}}"
        ));
    }

    // Geometric draws: the svm phase scale and the paper's cooling scale
    // over one set of counter words.
    let rng = CounterRng::new(SEED, 0);
    let words: Vec<u64> = (0..1_000_000).map(|i| rng.word(i, 0, 0)).collect();
    let gap_rows = [
        (
            "svm phase",
            (1.0 - 1.0 / DEFAULT_PERSISTENCE_EPOCHS).ln().recip(),
        ),
        (
            "paper cooling",
            GameConfig::paper_defaults().p_cooling().ln().recip(),
        ),
    ]
    .map(|(name, scale)| gap_draw_row(name, scale, &words, reps))
    .join(",\n");

    let baseline_json = match baseline {
        Some((prior_cores, prior_speedup)) => {
            format!("{{\"cores\": {prior_cores}, \"parallel_speedup\": {prior_speedup:.4}}}")
        }
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"cores\": {cores},\n  \"jobs\": {parallel_jobs},\n  \
         \"chunk_agents\": {DEFAULT_CHUNK},\n  \"reps\": {reps},\n  \
         \"gate_agents\": {GATE_AGENTS},\n  \
         \"rows\": [\n{rows}\n  ],\n  \
         \"chunk_sweep\": [\n{chunk_rows}\n  ],\n  \
         \"path_rows\": [\n{path_rows}\n  ],\n  \
         \"decide_rows\": [\n{decide_rows}\n  ],\n  \
         \"spawn\": [\n{spawn_rows}\n  ],\n  \
         \"spawn_alloc_agents\": {SPAWN_ALLOC_AGENTS},\n  \
         \"spawn_allocs\": [\n{spawn_alloc_rows}\n  ],\n  \
         \"memory\": [\n{memory_rows}\n  ],\n  \
         \"max_product_bytes_per_agent\": {MAX_PRODUCT_BYTES_PER_AGENT},\n  \
         \"gap_draw\": [\n{gap_rows}\n  ],\n  \
         \"byte_identical_across_jobs\": true,\n  \
         \"serial_speedup\": {serial_speedup:.4},\n  \
         \"min_serial_speedup\": {MIN_SERIAL_SPEEDUP},\n  \
         \"parallel_speedup\": {parallel_speedup:.4},\n  \
         \"min_parallel_speedup\": {MIN_PARALLEL_SPEEDUP},\n  \
         \"parallel_enforced\": {enforce_parallel},\n  \
         \"speedup_enforced\": {enforce_parallel},\n  \
         \"prior_baseline\": {baseline_json},\n  \
         \"allocs_short_run\": {short},\n  \"allocs_long_run\": {long},\n  \
         \"allocs_pool_short_run\": {pool_short},\n  \
         \"allocs_pool_long_run\": {pool_long},\n  \
         \"path_allocs\": [\n{path_alloc_rows}\n  ]\n}}\n"
    );
    std::fs::write(&out, json).expect("write BENCH_engine.json");
    println!("  snapshot {}", out.display());

    let mut failed = false;
    for (path, [short, long, pool_short, pool_long]) in &path_allocs {
        if long != short {
            eprintln!(
                "FAIL: {} serial epoch loop allocated ({short} allocs at {alloc_epochs} \
                 epochs, {long} at {} epochs)",
                path.name(),
                alloc_epochs * 2
            );
            failed = true;
        }
        if pool_long != pool_short {
            eprintln!(
                "FAIL: {} pooled epoch loop allocated ({pool_short} allocs at \
                 {alloc_epochs} epochs, {pool_long} at {} epochs)",
                path.name(),
                alloc_epochs * 2
            );
            failed = true;
        }
    }
    if !spawn_allocs_flat {
        eprintln!(
            "FAIL: building {} agents allocated more often than building \
             {SPAWN_ALLOC_AGENTS}",
            2 * SPAWN_ALLOC_AGENTS
        );
        failed = true;
    }
    if product_peak > MAX_PRODUCT_BYTES_PER_AGENT {
        eprintln!(
            "FAIL: a build plus a run held {product_peak:.1} B per agent at its peak, \
             above the {MAX_PRODUCT_BYTES_PER_AGENT} B budget"
        );
        failed = true;
    }
    if serial_speedup < MIN_SERIAL_SPEEDUP {
        eprintln!(
            "FAIL: serial kernel {serial_speedup:.2}x over the reference loop, \
             below the {MIN_SERIAL_SPEEDUP:.1}x floor"
        );
        failed = true;
    }
    if enforce_parallel && parallel_speedup < MIN_PARALLEL_SPEEDUP {
        eprintln!(
            "FAIL: {parallel_jobs} jobs {parallel_speedup:.2}x over serial, \
             below the {MIN_PARALLEL_SPEEDUP:.1}x floor"
        );
        failed = true;
    }
    if let Some((prior_cores, prior_speedup)) = baseline {
        // The PR-over-PR trend gate: both snapshots must come from
        // multi-core hosts for the comparison to mean anything.
        if enforce_parallel
            && prior_cores >= GATE_CORES as u64
            && parallel_speedup < prior_speedup * REGRESSION_TOLERANCE
        {
            eprintln!(
                "FAIL: parallel speedup {parallel_speedup:.2}x regressed below \
                 {REGRESSION_TOLERANCE}x the recorded baseline {prior_speedup:.2}x"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    if enforce_parallel {
        println!("PASS: no-alloc, spawn-alloc, memory, serial, and parallel budgets all met");
    } else {
        println!(
            "PASS: no-alloc, spawn-alloc, memory, and serial budgets met \
             (parallel not enforced on {cores} core(s))"
        );
    }
}

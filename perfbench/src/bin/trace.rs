//! The traced run: per-layer metrics for one workload.
//!
//! `perfbench-trace --workload NAME --seed N --seconds S --trace 1 --sprint PATH --work DIR`
//!
//! 1. Daemon phase (half the seconds): set up once and drive the workload
//!    through `sprint serve` untraced, for the daemon's `job_p50_s`. This
//!    daemon runs with `--journal` and `--spool`, so the journal layer is
//!    exercised on every workload and its appends can be counted. Then
//!    paper-scale runs go alternately through the daemon and in-process
//!    traced; their paired difference is `serve.unattributed_s` (HTTP,
//!    queue waits, thread handoffs). Last, `http::client::request` is
//!    timed on `/v1/version`, a report and `/v1/metrics`, and the
//!    equilibrium-cache counters are read.
//! 2. In-process phase (the other half): the workload's job, through the
//!    same public functions the daemon calls, in the same order. Each job
//!    runs once traced and once untraced, in alternating order; traced
//!    jobs record a span around every layer call. Their difference is the
//!    tracing overhead.
//! 3. Probes: `journal::replay` + `journal::recover` on the daemon's
//!    journal and (sweep-grid) one trial of every population x plan x
//!    policy replayed serially, so the layers the sweep hides inside its
//!    worker pool get their own numbers.
//!
//! Spans stay in memory and are written once, at exit, to
//! `DIR/NAME/spans.jsonl`. Every report produced here is checked against
//! the CLI path like the end-to-end run's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use perfbench::check::Observed;
use perfbench::output::{self, Metric};
use perfbench::stats::{median, quantile};
use perfbench::workload::{derive, run_job, Kind, Workload};
use perfbench::{args, drive, provenance, setup, Tally};
use sprint_game::EquilibriumCache;
use sprint_serve::http::client;
use sprint_serve::jobs::{
    self, ExecOptions, JobKind, JobOutcome, JobReport, JobSpec, RunSpec, RunSummary, SCHEMA_VERSION,
};
use sprint_serve::journal::{self, Journal, Transition};
use sprint_sim::engine::{self, RunGuard, SimConfig};
use sprint_sim::policy::{PolicyKind, SprintPolicy};
use sprint_sim::scenario::{Scenario, SolveSummary};
use sprint_sim::sweep::{run_sweep_shared, Supervision, SweepSpec};
use sprint_telemetry::{EventRing, RingConfig, Severity, SpanProfile, Telemetry};
use sprint_workloads::generator::Population;
use sprint_workloads::Benchmark;

/// Heap bytes live right now and the most live since the last reset,
/// counted by the allocator below: the heap's share of RSS growth,
/// without the allocator's caching in the way.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to the system allocator with the
// caller's layout unchanged; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Job number of spans that belong to no job (journal replay).
const UNMEASURED: u64 = u64::MAX;
/// Job numbers of sweep-grid's replayed trials start here.
const PROBE_BASE: u64 = 1 << 40;

/// Paper-scale runs timed through the daemon and in-process, in pairs.
/// Pairs differ by about a millisecond either way, so resolving a gap
/// of a few tenths of one takes a few hundred.
const PAIRED_JOBS: u64 = 256;
/// Pairs run first and not timed: one per policy x benchmark, which
/// fills both equilibrium caches.
const PAIRED_WARM: u64 = 16;
/// The benchmarks paired runs cycle through, crossed with every policy.
const PAIRED_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Svm,
    Benchmark::PageRank,
    Benchmark::Kmeans,
    Benchmark::DecisionTree,
];

/// One recorded span.
struct Span {
    name: &'static str,
    job: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of this run, in memory until exit.
struct Tracer {
    origin: Instant,
    run: String,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    fn new(run: String, origin: Instant) -> Self {
        Tracer {
            origin,
            run,
            spans: Vec::new(),
            open: Vec::new(),
            job: UNMEASURED,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Close every span opened above `depth` (after an error).
    fn unwind(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("open span above depth");
            self.close(id);
        }
    }

    fn seconds(span: &Span) -> f64 {
        span.end_ns.saturating_sub(span.start_ns) as f64 / 1e9
    }

    /// Durations (s) of every span called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::seconds)
            .collect()
    }

    /// Per span: its duration minus the part of it its children cover.
    fn self_seconds(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns.saturating_sub(s.start_ns) - covered) as f64 / 1e9
            })
            .collect()
    }

    /// Every span as one JSON line.
    fn jsonl(&self) -> String {
        let selfs = self.self_seconds();
        let mut text = String::new();
        for (id, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let job = if s.job == UNMEASURED {
                "null".to_string()
            } else {
                s.job.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"run\":\"{}\",\"id\":{id},\"parent\":{parent},\"job\":{job},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_s\":{own:?}}}\n",
                self.run, s.name, s.start_ns, s.end_ns
            ));
        }
        text
    }
}

/// A telemetry kit like a daemon worker's: a ring producer with the
/// daemon's severity floor, drained after every job the way the daemon's
/// aggregator drains it.
fn worker_kit() -> (EventRing, Telemetry) {
    let config = RingConfig::default().with_min_severity(Severity::Info);
    let (ring, mut producers) = EventRing::with_config(1, &config);
    let producer = producers.pop().expect("one producer requested");
    (
        ring,
        Telemetry::new(Box::new(producer), SpanProfile::monotonic()),
    )
}

/// Layer facts gathered alongside the spans.
#[derive(Default)]
struct Facts {
    spawn_bytes_per_agent: Vec<f64>,
    engine_ns_per_agent_epoch: Vec<f64>,
    engine_bytes_per_agent: Vec<f64>,
    barrier_share: Vec<f64>,
    sweep_utilization: Vec<f64>,
    sweep_quarantined: Vec<f64>,
    solve_iterations: Vec<f64>,
    report_bytes: Vec<f64>,
    plain_job_s: Vec<f64>,
    covered_s: Vec<f64>,
}

/// Build a run's policy; E-T and C-T solve, so they get a span.
fn solve(
    tr: &mut Tracer,
    facts: &mut Facts,
    cache: &EquilibriumCache,
    scenario: &Scenario,
    kind: PolicyKind,
    seed: u64,
) -> perfbench::Result<(Box<dyn SprintPolicy>, Option<SolveSummary>)> {
    let s = matches!(
        kind,
        PolicyKind::EquilibriumThreshold | PolicyKind::CooperativeThreshold
    )
    .then(|| tr.open("game.solve"));
    let out: (Box<dyn SprintPolicy>, Option<SolveSummary>) = match kind {
        PolicyKind::EquilibriumThreshold => {
            let (policy, summary) = scenario
                .equilibrium_policy_cached_cold(cache)
                .map_err(perfbench::ctx("E-T solve"))?;
            facts.solve_iterations.push(summary.iterations as f64);
            (Box::new(policy), Some(summary))
        }
        PolicyKind::CooperativeThreshold => (
            Box::new(
                scenario
                    .cooperative_policy()
                    .map_err(perfbench::ctx("C-T search"))?,
            ),
            None,
        ),
        other => (
            scenario
                .policy(other, seed, &mut Telemetry::disabled())
                .map_err(perfbench::ctx("policy"))?,
            None,
        ),
    };
    if let Some(s) = s {
        tr.close(s);
    }
    Ok(out)
}

/// Population build, engine run and population release, with their
/// spans and memory facts.
#[allow(clippy::too_many_arguments)]
fn simulate(
    tr: &mut Tracer,
    facts: &mut Facts,
    scenario: &Scenario,
    config: &SimConfig,
    policy: &mut dyn SprintPolicy,
    seed: u64,
    jobs: usize,
    kit: &mut Telemetry,
) -> perfbench::Result<sprint_sim::SimResult> {
    let agents = scenario.population().len() as f64;
    let s = tr.open("workloads.spawn");
    let before = LIVE.load(Ordering::Relaxed);
    let mut streams = scenario
        .population()
        .spawn_streams(seed)
        .map_err(perfbench::ctx("spawn_streams"))?;
    let spawned = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    tr.close(s);
    facts.spawn_bytes_per_agent.push(spawned as f64 / agents);

    let barrier = |kit: &Telemetry| {
        kit.spans
            .stats("engine.epoch_barrier")
            .map_or(0, |st| st.total_nanos)
    };
    let barrier_before = barrier(kit);
    let s = tr.open("sim.engine");
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let started = Instant::now();
    let result = engine::run_guarded(
        config,
        &mut streams,
        policy,
        &RunGuard::default(),
        jobs,
        kit,
    )
    .map_err(perfbench::ctx("run_guarded"))?;
    let secs = started.elapsed().as_secs_f64();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    tr.close(s);
    facts
        .engine_ns_per_agent_epoch
        .push(secs * 1e9 / (agents * config.epochs() as f64));
    facts.engine_bytes_per_agent.push(peak as f64 / agents);
    let waited = barrier(kit) - barrier_before;
    facts
        .barrier_share
        .push(waited as f64 / 1e9 / secs.max(1e-12));
    // Freeing a 10^6-agent population is not free either.
    let s = tr.open("workloads.release");
    drop(streams);
    tr.close(s);
    Ok(result)
}

/// What the traced run's daemon does with a job, minus HTTP and its
/// queue: one worker's cache, telemetry kit, journal and spool.
struct Pipeline {
    cache: EquilibriumCache,
    ring: EventRing,
    kit: Telemetry,
    journal: Journal,
    spool: std::path::PathBuf,
    /// `ExecOptions` of this workload's daemon (`--jobs`, `--jobs-cap`).
    opts: ExecOptions,
    next_id: u64,
}

impl Pipeline {
    fn new(w: &Workload, dir: &Path) -> perfbench::Result<Pipeline> {
        let (ring, kit) = worker_kit();
        let (jobs, jobs_cap) = match w.kind {
            Kind::Rack1m => (1, 2),
            Kind::SweepGrid => (2, 0),
        };
        let spool = dir.join("spool");
        std::fs::create_dir_all(&spool).map_err(perfbench::ctx("in-process spool"))?;
        Ok(Pipeline {
            cache: EquilibriumCache::default(),
            ring,
            kit,
            journal: Journal::open_append(&dir.join("journal.jsonl"))
                .map_err(perfbench::ctx("journal"))?,
            spool,
            opts: ExecOptions {
                jobs,
                jobs_cap,
                ..ExecOptions::default()
            },
            next_id: 0,
        })
    }

    /// Engine threads a run gets on this daemon (`jobs::execute`'s rule:
    /// a spec's request is capped by `--jobs-cap`, 0 meaning all cores).
    fn run_jobs(&self, run: &RunSpec) -> usize {
        let cores = provenance::nproc();
        let cap = if self.opts.jobs_cap == 0 {
            cores
        } else {
            self.opts.jobs_cap
        };
        match run.jobs {
            Some(0) => cores.min(cap),
            Some(j) => usize::try_from(j).unwrap_or(cap).min(cap),
            None => self.opts.jobs,
        }
    }

    fn append(&mut self, tr: Option<&mut Tracer>, t: &Transition) -> perfbench::Result<()> {
        let s = tr.map(|tr| (tr.open("serve.journal_append"), tr));
        self.journal
            .append(t)
            .map_err(perfbench::ctx("journal append"))?;
        if let Some((s, tr)) = s {
            tr.close(s);
        }
        Ok(())
    }

    fn submitted(&mut self, spec: &JobSpec) -> Transition {
        self.next_id += 1;
        Transition::Submitted {
            id: self.next_id,
            client: "perfbench".to_string(),
            spec: Box::new(spec.clone()),
        }
    }

    fn execute_run(
        &mut self,
        tr: &mut Tracer,
        facts: &mut Facts,
        run: &RunSpec,
    ) -> perfbench::Result<RunSummary> {
        let scenario = run.scenario().map_err(perfbench::ctx("scenario"))?;
        let (mut policy, solve) = solve(tr, facts, &self.cache, &scenario, run.policy, run.seed)?;
        let config = SimConfig::new(*scenario.game(), scenario.epochs(), run.seed)
            .map_err(perfbench::ctx("sim config"))?
            .with_options(*scenario.options());
        let jobs = self.run_jobs(run);
        let result = simulate(
            tr,
            facts,
            &scenario,
            &config,
            policy.as_mut(),
            run.seed,
            jobs,
            &mut self.kit,
        )?;
        Ok(RunSummary {
            benchmark: run.benchmark.clone(),
            policy: run.policy,
            agents: run.agents,
            epochs: run.epochs,
            seed: run.seed,
            tasks_per_agent_epoch: result.tasks_per_agent_epoch(),
            total_tasks: result.total_tasks(),
            trips: result.trips(),
            mean_sprinters: result.mean_sprinters(),
            occupancy: result.occupancy().fractions(),
            solve,
        })
    }

    /// One job with a span around every layer call; returns its report.
    fn traced(
        &mut self,
        tr: &mut Tracer,
        facts: &mut Facts,
        body: &str,
    ) -> perfbench::Result<String> {
        let root = tr.open("serve.job");
        let s = tr.open("serve.spec_parse");
        let spec = JobSpec::parse_json(body).map_err(perfbench::ctx("parse_json"))?;
        tr.close(s);
        let submitted = self.submitted(&spec);
        let id = submitted.id();
        self.append(Some(tr), &submitted)?;
        self.append(Some(tr), &Transition::Started { id })?;
        let s = tr.open("serve.execute");
        let outcome = match &spec.job {
            JobKind::Run { spec: run } => JobOutcome::Run {
                report: self.execute_run(tr, facts, run)?,
            },
            JobKind::Sweep { spec: sweep } => {
                let t = tr.open("sim.sweep");
                let report = run_sweep_shared(
                    sweep,
                    self.opts.jobs,
                    Supervision::default(),
                    &self.cache,
                    &mut self.kit,
                )
                .map_err(perfbench::ctx("run_sweep_shared"))?;
                tr.close(t);
                let busy: Vec<f64> = report.workers.iter().map(|w| w.utilization).collect();
                facts
                    .sweep_utilization
                    .push(busy.iter().sum::<f64>() / busy.len().max(1) as f64);
                facts
                    .sweep_quarantined
                    .push(report.quarantined.len() as f64);
                JobOutcome::Sweep { report }
            }
            JobKind::Chaos { .. } => return Err("no workload submits chaos jobs".to_string()),
        };
        tr.close(s);
        let report = JobReport {
            schema_version: SCHEMA_VERSION,
            spec,
            outcome,
        };
        let s = tr.open("serve.report_json");
        let bytes = jobs::report_json(&report).map_err(perfbench::ctx("report_json"))?;
        tr.close(s);
        facts.report_bytes.push(bytes.len() as f64);
        let s = tr.open("serve.spool_write");
        std::fs::write(self.spool.join(format!("job-{id}.json")), &bytes)
            .map_err(perfbench::ctx("spool write"))?;
        tr.close(s);
        self.append(Some(tr), &Transition::Done { id })?;
        tr.close(root);
        self.ring.drain();
        let covered: u64 = tr
            .spans
            .iter()
            .filter(|sp| sp.parent == Some(root))
            .map(|sp| sp.end_ns - sp.start_ns)
            .sum();
        facts.covered_s.push(covered as f64 / 1e9);
        Ok(bytes)
    }

    /// The same job untraced, through `jobs::execute`; returns its report
    /// and wall time.
    fn plain(&mut self, body: &str) -> perfbench::Result<(String, f64)> {
        let started = Instant::now();
        let spec = JobSpec::parse_json(body).map_err(perfbench::ctx("parse_json"))?;
        let submitted = self.submitted(&spec);
        let id = submitted.id();
        self.append(None, &submitted)?;
        self.append(None, &Transition::Started { id })?;
        let report = jobs::execute(&spec, &self.cache, &self.opts, &mut self.kit)
            .map_err(perfbench::ctx("execute"))?;
        let bytes = jobs::report_json(&report).map_err(perfbench::ctx("report_json"))?;
        std::fs::write(self.spool.join(format!("job-{id}.json")), &bytes)
            .map_err(perfbench::ctx("spool write"))?;
        self.append(None, &Transition::Done { id })?;
        let secs = started.elapsed().as_secs_f64();
        self.ring.drain();
        Ok((bytes, secs))
    }
}

/// sweep-grid's hidden layers: one trial of every population x plan x
/// policy (first game variant, first seed), replayed serially through
/// the public calls a sweep trial makes, on a fresh cache.
fn sweep_probe(w: &Workload, tr: &mut Tracer, facts: &mut Facts) -> perfbench::Result<()> {
    let spec: SweepSpec = w.sweep_spec(perfbench::workload::SWEEP_EPOCHS);
    let variant = &spec.games[0];
    let seed = spec.seeds[0];
    let cache = EquilibriumCache::default();
    let mut trial = PROBE_BASE;
    for pop in &spec.populations {
        let benchmarks: Vec<Benchmark> = pop
            .benchmarks
            .iter()
            .filter_map(|n| Benchmark::from_name(n))
            .collect();
        let population = match benchmarks.as_slice() {
            [one] => Population::homogeneous(*one, pop.agents as usize),
            many => Population::heterogeneous(many, pop.agents as usize),
        }
        .map_err(perfbench::ctx("population"))?;
        let game = variant
            .build(pop.agents)
            .map_err(perfbench::ctx("game variant"))?;
        for plan in &spec.plans {
            let mut options = spec.options;
            options.faults = plan.plan;
            let scenario = Scenario::with_game(population.clone(), game, spec.epochs)
                .map_err(perfbench::ctx("scenario"))?
                .with_options(options);
            for &kind in &spec.policies {
                tr.job = trial;
                trial += 1;
                let depth = tr.open.len();
                let mut one = || -> perfbench::Result<()> {
                    let (mut policy, _) = solve(tr, facts, &cache, &scenario, kind, seed)?;
                    let config = SimConfig::new(game, spec.epochs, seed)
                        .map_err(perfbench::ctx("sim config"))?
                        .with_options(*scenario.options());
                    // Sweep trials run the engine on one thread, unobserved.
                    simulate(
                        tr,
                        facts,
                        &scenario,
                        &config,
                        policy.as_mut(),
                        seed,
                        1,
                        &mut Telemetry::disabled(),
                    )
                    .map(|_| ())
                };
                // A trial the sweep would quarantine fails here too; its
                // open spans are closed and the replay moves on.
                if let Err(e) = one() {
                    tr.unwind(depth);
                    println!(
                        "replayed trial {}/{}/{:?} fails as in the sweep: {e}",
                        pop.name, plan.name, kind
                    );
                }
            }
        }
    }
    tr.job = UNMEASURED;
    Ok(())
}

/// Three timed rounds of `journal::replay` + `journal::recover` on `path`.
fn replay_probe(tr: &mut Tracer, path: &Path) -> perfbench::Result<()> {
    for _ in 0..3 {
        let s = tr.open("serve.journal_replay");
        let (transitions, torn) = journal::replay(path).map_err(perfbench::ctx("replay"))?;
        let recovered = journal::recover(&transitions, torn);
        tr.close(s);
        std::hint::black_box(recovered);
    }
    Ok(())
}

/// Median seconds of `n` calls of `http::client::request`.
fn http_seconds(addr: &str, path: &str, n: usize, tally: &mut Tally) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let started = Instant::now();
            let ok = client::request(addr, "GET", path, None).is_ok_and(|(s, _)| s == 200);
            tally.record(ok);
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// A Prometheus counter value from `/v1/metrics` text.
fn counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Paper-scale run `i` of the paired probe: 1000 agents, 100 epochs,
/// cycling through the same 16 specs, one per policy x benchmark.
fn paired_job(w: &Workload, i: u64) -> JobSpec {
    let pair = i % 16;
    run_job(
        PAIRED_BENCHMARKS[pair as usize / 4],
        PolicyKind::ALL[pair as usize % 4],
        1_000,
        100,
        derive(w.seed, &[7, pair]),
        None,
    )
}

/// What the paired probe measured, per timed pair.
#[derive(Default)]
struct Paired {
    /// Submit to last report byte through the daemon, seconds.
    daemon_s: Vec<f64>,
    /// What the in-process spans of the same job cover, seconds.
    covered_s: Vec<f64>,
    /// Daemon time minus covered time, per pair.
    gap_s: Vec<f64>,
}

/// Paper-scale runs, each submitted to the daemon at `addr` and run
/// in-process traced, alternating which goes first. A multi-second
/// workload job cannot resolve the few milliseconds the daemon adds to
/// it; these jobs last milliseconds, and pairing them cancels the host's
/// drift.
fn paired_probe(
    w: &Workload,
    addr: &str,
    pipeline: &mut Pipeline,
    tr: &mut Tracer,
    tally: &mut Tally,
    observed: &mut Observed,
) -> perfbench::Result<Paired> {
    // Layer facts of these small jobs would dilute the workload's.
    let mut facts = Facts::default();
    let mut out = Paired::default();
    for i in 0..PAIRED_WARM + PAIRED_JOBS {
        let spec = paired_job(w, i);
        let body = serde_json::to_string(&spec).expect("job specs serialize");
        let mut daemon_s = f64::NAN;
        for through_daemon in [i % 2 == 0, i % 2 == 1] {
            let report = if through_daemon {
                let started = Instant::now();
                let r = perfbench::http::request(addr, "POST", "/v1/jobs?wait=true", &body);
                match r {
                    Ok(r) if r.ok() => {
                        daemon_s = started.elapsed().as_secs_f64();
                        r.body
                    }
                    _ => {
                        tally.record(false);
                        continue;
                    }
                }
            } else {
                tr.job = i;
                let report = pipeline.traced(tr, &mut facts, &body)?;
                tr.job = UNMEASURED;
                report
            };
            tally.record(perfbench::check::completed(&report));
            observed.add(&spec, report);
        }
        let covered = facts.covered_s.last().copied().unwrap_or(f64::NAN);
        if i >= PAIRED_WARM && daemon_s.is_finite() {
            out.daemon_s.push(daemon_s);
            out.covered_s.push(covered);
            out.gap_s.push(daemon_s - covered);
        }
    }
    Ok(out)
}

/// What the daemon phase measured.
struct DaemonPhase {
    /// The workload's job latencies through the daemon, seconds.
    job_s: Vec<f64>,
    paired: Paired,
    appends_per_job: f64,
    jobs: u64,
    http_roundtrip_s: f64,
    report_read_s: f64,
    metrics_scrape_s: f64,
    cache_hit_ratio: f64,
}

#[allow(clippy::too_many_arguments)]
fn daemon_phase(
    w: &Workload,
    args: &args::Args,
    dir: &Path,
    seconds: f64,
    pipeline: &mut Pipeline,
    tr: &mut Tracer,
    tally: &mut Tally,
    observed: &mut Observed,
) -> perfbench::Result<DaemonPhase> {
    let journal = dir.join("journal.jsonl");
    let mut flags = w.daemon_args();
    flags.extend([
        "--journal".to_string(),
        journal.display().to_string(),
        "--spool".to_string(),
        dir.join("spool").display().to_string(),
    ]);
    let ready = setup::run(w, &args.sprint, &flags, 1)?;
    tally.add(ready.tally);
    let measured = drive::measure(w, &ready.daemon.addr, seconds);
    tally.add(measured.tally);
    let addr = ready.daemon.addr.clone();
    // The workload's own cache use, before the paired runs add theirs.
    let text = client::request(&addr, "GET", "/v1/metrics", None)
        .map(|(_, body)| body)
        .unwrap_or_default();
    let hits = counter(&text, "cache_equilibrium_hits_total");
    let misses = counter(&text, "cache_equilibrium_misses_total");
    let paired = paired_probe(w, &addr, pipeline, tr, tally, observed)?;
    // The last measured job's report (job 1 is the warm-up).
    let report_id = 1 + measured.iterations;
    const PROBES: usize = 30;
    let http_roundtrip_s = http_seconds(&addr, "/v1/version", PROBES, tally);
    let report_read_s = http_seconds(
        &addr,
        &format!("/v1/jobs/{report_id}/report"),
        PROBES,
        tally,
    );
    let metrics_scrape_s = http_seconds(&addr, "/v1/metrics", PROBES, tally);
    ready.daemon.stop()?;
    // Every job the daemon ran: the warm-up, the measured jobs and the
    // paired runs. Boot found no journal, so every line is an append.
    let jobs = 1 + measured.iterations + PAIRED_WARM + PAIRED_JOBS;
    let appends = std::fs::read_to_string(&journal)
        .map_err(perfbench::ctx("reading the daemon's journal"))?
        .lines()
        .count();
    observed.merge(ready.observed);
    observed.merge(measured.observed);
    Ok(DaemonPhase {
        job_s: measured.latencies,
        paired,
        appends_per_job: appends as f64 / jobs as f64,
        jobs,
        http_roundtrip_s,
        report_read_s,
        metrics_scrape_s,
        cache_hit_ratio: hits / (hits + misses).max(1.0),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::from(2)
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run() -> perfbench::Result<bool> {
    let args = args::parse()?;
    let w = Workload::new(&args.workload, args.seed)?;
    let wall = Instant::now();
    let steal = provenance::steal_ticks();
    provenance::print(&w, args.seconds, true);
    let dir = args.work.join(w.name());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(perfbench::ctx("creating work directory"))?;

    let mut tally = Tally::default();
    let mut observed = Observed::default();
    let mut pipeline = Pipeline::new(&w, &dir.join("inproc"))?;
    let run_id = format!("{}-{}-{}", w.name(), w.seed, std::process::id());
    let origin = Instant::now();
    let mut tr = Tracer::new(run_id.clone(), origin);
    let mut paired_tr = Tracer::new(format!("{run_id}-paired"), origin);
    let daemon = daemon_phase(
        &w,
        &args,
        &dir,
        args.seconds / 2.0,
        &mut pipeline,
        &mut paired_tr,
        &mut tally,
        &mut observed,
    )?;

    // In-process phase.
    let mut facts = Facts::default();
    let warmup = w.warmup();
    let body = serde_json::to_string(&warmup).expect("job specs serialize");
    let report = pipeline.traced(&mut tr, &mut facts, &body)?;
    observed.add(&warmup, report);
    // The warm-up is set-up: keep none of its spans or facts.
    tr.spans.clear();
    facts = Facts::default();
    let until = Instant::now() + std::time::Duration::from_secs_f64(args.seconds / 2.0);
    let spec = w.job();
    let body = serde_json::to_string(&spec).expect("job specs serialize");
    let mut k = 0u64;
    // Every job runs twice, traced and untraced, in alternating order, so
    // neither side always goes first.
    while k < 1 || Instant::now() < until {
        for traced in [k.is_multiple_of(2), !k.is_multiple_of(2)] {
            let report = if traced {
                tr.job = k;
                let report = pipeline.traced(&mut tr, &mut facts, &body)?;
                tr.job = UNMEASURED;
                report
            } else {
                let (report, secs) = pipeline.plain(&body)?;
                facts.plain_job_s.push(secs);
                report
            };
            tally.record(perfbench::check::completed(&report));
            observed.add(&spec, report);
        }
        k += 1;
    }
    drop(pipeline);

    // Probes outside the job timeline.
    replay_probe(&mut tr, &dir.join("journal.jsonl"))?;
    if w.kind == Kind::SweepGrid {
        sweep_probe(&w, &mut tr, &mut facts)?;
    }

    let checked = observed.verify(w.name())?;
    tally.add(checked);
    let spans_path = dir.join("spans.jsonl");
    std::fs::write(&spans_path, tr.jsonl() + &paired_tr.jsonl())
        .map_err(perfbench::ctx("writing spans"))?;
    println!(
        "spans {} written to {}",
        tr.spans.len() + paired_tr.spans.len(),
        spans_path.display()
    );

    let traced_jobs = tr.durations("serve.job");
    let traced_p50 = median(&traced_jobs);
    let plain_p50 = median(&facts.plain_job_s);
    let covered_p50 = median(&facts.covered_s);
    let daemon_p50 = median(&daemon.job_s);
    let d = |name: &str| median(&tr.durations(name));
    let n = |name: &str| tr.durations(name).len();
    let m = |v: &Vec<f64>| median(v);
    // Self time of each layer, summed per measured job, for the breakdown.
    let selfs = tr.self_seconds();
    let mut self_by_name: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for (s, own) in tr.spans.iter().zip(&selfs) {
        if s.job < PROBE_BASE {
            *self_by_name.entry(s.name).or_default() += own / traced_jobs.len().max(1) as f64;
        }
    }
    for (name, secs) in &self_by_name {
        println!("self time per traced job: {name:<22} {secs:.6} s");
    }
    println!(
        "daemon job_p50_s {daemon_p50:.6} s; traced in-process p50 {traced_p50:.6} s; \
         untraced in-process p50 {plain_p50:.6} s; spans cover {covered_p50:.6} s"
    );
    // A median of a few multi-second jobs moves by about their spread
    // from run to run, so the workload's coverage resolves only to that.
    let spread = |v: &[f64]| (quantile(v, 0.75) - quantile(v, 0.25)) / median(v);
    println!(
        "serve.span_coverage {:.4}, noise floor +-{:.4}: daemon job times spread {:.4} \
         (IQR/median, n={}), covered spread {:.4} (n={})",
        covered_p50 / daemon_p50,
        spread(&daemon.job_s).max(spread(&facts.covered_s)),
        spread(&daemon.job_s),
        daemon.job_s.len(),
        spread(&facts.covered_s),
        facts.covered_s.len()
    );
    let p = &daemon.paired;
    let gap_p50 = median(&p.gap_s);
    let (q1, q3) = (quantile(&p.gap_s, 0.25), quantile(&p.gap_s, 0.75));
    // The median of n pair gaps is uncertain by about IQR / sqrt(n).
    println!(
        "paired paper-scale runs: daemon p50 {:.6} s, spans cover {:.6} s (share {:.4}); \
         serve.unattributed_s {gap_p50:.6} s, noise floor +-{:.6} s (per-pair quartiles \
         [{q1:.6}, {q3:.6}] s, n={})",
        median(&p.daemon_s),
        median(&p.covered_s),
        median(&p.covered_s) / median(&p.daemon_s),
        (q3 - q1) / (p.gap_s.len() as f64).sqrt(),
        p.gap_s.len()
    );
    println!(
        "daemon journal: {:.3} appends per job over {} jobs",
        daemon.appends_per_job, daemon.jobs
    );

    let metrics = [
        Metric::new(
            "workloads.spawn_s",
            d("workloads.spawn"),
            "s",
            n("workloads.spawn"),
        ),
        Metric::new(
            "workloads.bytes_per_agent",
            m(&facts.spawn_bytes_per_agent),
            "B",
            facts.spawn_bytes_per_agent.len(),
        ),
        Metric::new(
            "sim.engine_ns_per_agent_epoch",
            m(&facts.engine_ns_per_agent_epoch),
            "ns",
            facts.engine_ns_per_agent_epoch.len(),
        ),
        Metric::new(
            "sim.engine_bytes_per_agent",
            m(&facts.engine_bytes_per_agent),
            "B",
            facts.engine_bytes_per_agent.len(),
        ),
        Metric::new(
            "sim.engine_barrier_wait_share",
            m(&facts.barrier_share),
            "ratio",
            facts.barrier_share.len(),
        ),
        Metric::new(
            "sim.sweep_worker_utilization",
            zero_if_nan(m(&facts.sweep_utilization)),
            "ratio",
            facts.sweep_utilization.len(),
        ),
        Metric::new(
            "sim.sweep_quarantined",
            zero_if_nan(m(&facts.sweep_quarantined)),
            "count",
            facts.sweep_quarantined.len(),
        ),
        Metric::new("game.solve_s", d("game.solve"), "s", n("game.solve")),
        Metric::new(
            "game.solve_iterations",
            zero_if_nan(m(&facts.solve_iterations)),
            "count",
            facts.solve_iterations.len(),
        ),
        Metric::new("game.cache_hit_ratio", daemon.cache_hit_ratio, "ratio", 1),
        Metric::new(
            "serve.spec_parse_s",
            d("serve.spec_parse"),
            "s",
            n("serve.spec_parse"),
        ),
        Metric::new(
            "serve.report_json_s",
            d("serve.report_json"),
            "s",
            n("serve.report_json"),
        ),
        Metric::new(
            "serve.report_bytes",
            m(&facts.report_bytes),
            "B",
            facts.report_bytes.len(),
        ),
        Metric::new(
            "serve.journal_append_s",
            d("serve.journal_append"),
            "s",
            n("serve.journal_append"),
        ),
        Metric::new(
            "serve.journal_appends_per_job",
            daemon.appends_per_job,
            "count",
            daemon.jobs as usize,
        ),
        Metric::new(
            "serve.spool_write_s",
            d("serve.spool_write"),
            "s",
            n("serve.spool_write"),
        ),
        Metric::new(
            "serve.journal_replay_s",
            d("serve.journal_replay"),
            "s",
            n("serve.journal_replay"),
        ),
        Metric::new("serve.http_roundtrip_s", daemon.http_roundtrip_s, "s", 30),
        Metric::new("serve.report_read_s", daemon.report_read_s, "s", 30),
        Metric::new("serve.metrics_scrape_s", daemon.metrics_scrape_s, "s", 30),
        Metric::new(
            "serve.daemon_job_p50_s",
            daemon_p50,
            "s",
            daemon.job_s.len(),
        ),
        Metric::new("serve.unattributed_s", gap_p50, "s", p.gap_s.len()),
        Metric::new(
            "serve.span_coverage",
            covered_p50 / daemon_p50,
            "ratio",
            facts.covered_s.len(),
        ),
        Metric::new(
            "trace.overhead_s",
            traced_p50 - plain_p50,
            "s",
            traced_jobs.len() + facts.plain_job_s.len(),
        ),
    ];
    provenance::print_steal(steal, wall.elapsed().as_secs_f64());
    let ok = checked.failed == 0;
    output::finish(ok, tally, &metrics);
    Ok(ok)
}

/// A metric of a layer this workload does not exercise reads 0.
fn zero_if_nan(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

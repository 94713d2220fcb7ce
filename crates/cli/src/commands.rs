//! The `sprint` subcommands.

use serde::Serialize;

use sprint_game::cooperative::CooperativeSearch;
use sprint_game::{EquilibriumCache, GameConfig, MeanFieldSolver};
use sprint_power::rack::RackConfig;
use sprint_serve::harness::{self, ServeChild};
use sprint_serve::http::client as serve_client;
use sprint_serve::jobs::{
    execute as execute_job, report_json, ChaosMode, ChaosOutcome, ChaosSpec, ExecOptions, JobKind,
    JobOutcome, JobSpec, RunSpec,
};
use sprint_serve::{AdmissionConfig, Daemon, ServeConfig};
use sprint_sim::policy::PolicyKind;
use sprint_sim::scenario::Scenario;
use sprint_sim::sweep::{GameVariant, PopulationSpec, Supervision, SweepSpec};
use sprint_sim::telemetry::{
    collapsed_stacks, prometheus_text, Event, EventKind, EventRing, HealthAggregator, JsonlWriter,
    MetricsSnapshot, Noop, RingConfig, Severity, SpanProfile, SpanReport, Telemetry,
};
use sprint_sim::RunOptions;
use sprint_workloads::Benchmark;

use crate::args::{ArgError, ParsedArgs};

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// Library error while executing a command.
    Run(Box<dyn std::error::Error>),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

fn run_err<E: std::error::Error + 'static>(e: E) -> CliError {
    CliError::Run(Box::new(e))
}

/// Usage text for `sprint help`.
pub const USAGE: &str = "\
sprint — the computational sprinting game (ASPLOS 2016 reproduction)

USAGE:
  sprint solve         --benchmark <name> [--n-agents N] [--n-min X] [--n-max X]
                       [--p-cooling P] [--p-recovery P] [--discount D] [--json true]
  sprint simulate      --benchmark <name> --policy <g|e-b|e-t|c-t>
                       [--agents N] [--epochs E] [--seed S] [--jobs J]
                       [--json true] [--telemetry true]
  sprint trace         --benchmark <name> [--policy P] [--agents N] [--epochs E]
                       [--seed S] [--jobs J] [--decisions true] [--out FILE.jsonl]
  sprint report        --benchmark <name> [--policy P] [--agents N] [--epochs E]
                       [--seed S] [--jobs J] [--json true]
                       [--prometheus FILE.prom] [--flamegraph FILE.folded]
  sprint monitor       --trace FILE.jsonl [--follow true] [--every N] [--json true]
  sprint monitor       --benchmark <name> [--policy P] [--agents N] [--epochs E]
                       [--seed S] [--jobs J] [--every N] [--decisions true]
                       [--json true] [--prometheus FILE.prom]
                       [--flamegraph FILE.folded]
  sprint compare       --benchmark <name> [--agents N] [--epochs E] [--seeds K]
                       [--jobs J]
  sprint sweep         [--spec FILE.json] [--benchmark <name>] [--agents N]
                       [--epochs E] [--seeds K] [--jobs J] [--json true]
                       [--records FILE.jsonl] [--telemetry true]
                       [--print-spec true] [--trial-deadline MS]
  sprint chaos         --benchmark <name> [--agents N] [--epochs E] [--seeds K]
                       [--jobs J] [--fault-seed S] [--json true] [--telemetry true]
                       [--partition true] [--partition-start E]
                       [--partition-epochs D] [--report FILE.json]
                       [--adversaries FRAC] [--adversary-kind K]
                       [--cheat-probability P] [--clique-period N]
                       [--ceasefire E]
  sprint chaos         --serve-restart true [--restart-jobs N] [--workers W]
                       [--json true]
  sprint cluster       --benchmark <name> [--racks K] [--agents-per-rack N]
                       [--epochs E] [--facility-n-min X] [--facility-n-max X]
                       [--seed S] [--json true]
  sprint serve         [--addr HOST:PORT] [--workers N] [--jobs J]
                       [--jobs-cap N] [--spool DIR] [--event-log FILE.jsonl]
                       [--snapshot-ms MS] [--journal FILE.jsonl]
                       [--max-queue N] [--rate-limit PER_S]
                       [--client-jobs N]
  sprint derive-params [--servers N] [--json true]
  sprint benchmarks
  sprint help

Benchmarks: naive decision gradient svm linear kmeans als correlation
            pagerank cc triangle
Adversary kinds: greedy_defector stochastic_cheater collusive_clique
                 fictitious_play

--jobs J: compare, sweep and chaos run their trials on one bounded pool
of at most J threads (default 0: all cores); simulate, trace, report and
monitor fan one run out over J threads (default 1). Output is the same at
every J.

`sprint serve` runs the rack-as-a-service daemon: POST a JobSpec (run,
sweep, or chaos) to /v1/jobs and read the same canonical JobReport the
CLI prints with --json true. Sweep spec files may be either a versioned
JobSpec document or a legacy bare sweep spec.";

fn parse_benchmark(args: &ParsedArgs) -> Result<Benchmark, CliError> {
    let name = args
        .get("benchmark")
        .ok_or_else(|| ArgError("--benchmark is required".into()))?;
    Benchmark::from_name(name).ok_or_else(|| {
        ArgError(format!(
            "unknown benchmark `{name}`; see `sprint benchmarks`"
        ))
        .into()
    })
}

fn parse_policy(raw: &str) -> Result<PolicyKind, CliError> {
    match raw.to_ascii_lowercase().as_str() {
        "g" | "greedy" => Ok(PolicyKind::Greedy),
        "e-b" | "eb" | "backoff" => Ok(PolicyKind::ExponentialBackoff),
        "e-t" | "et" | "equilibrium" => Ok(PolicyKind::EquilibriumThreshold),
        "c-t" | "ct" | "cooperative" => Ok(PolicyKind::CooperativeThreshold),
        other => Err(ArgError(format!("unknown policy `{other}`; use g, e-b, e-t, or c-t")).into()),
    }
}

/// Parse `--jobs` for run-style commands: default 1 (serial); 0 sizes
/// the engine's agent-kernel worker pool to the available cores. Results
/// are byte-identical at every job count. `compare`, `chaos` and `sweep`
/// read `--jobs` themselves, as a total thread budget with default 0
/// (the available cores).
fn parse_jobs(args: &ParsedArgs) -> Result<usize, CliError> {
    let jobs: usize = args.get_parsed("jobs", 1)?;
    Ok(if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    })
}

fn parse_config(args: &ParsedArgs) -> Result<GameConfig, CliError> {
    let defaults = GameConfig::paper_defaults();
    GameConfig::builder()
        .n_agents(args.get_parsed("n-agents", defaults.n_agents())?)
        .n_min(args.get_parsed("n-min", defaults.n_min())?)
        .n_max(args.get_parsed("n-max", defaults.n_max())?)
        .p_cooling(args.get_parsed("p-cooling", defaults.p_cooling())?)
        .p_recovery(args.get_parsed("p-recovery", defaults.p_recovery())?)
        .discount(args.get_parsed("discount", defaults.discount())?)
        .build()
        .map_err(run_err)
}

fn emit<T: Serialize>(json: bool, value: &T, text: impl FnOnce()) -> Result<(), CliError> {
    if json {
        let s = serde_json::to_string_pretty(value).map_err(run_err)?;
        println!("{s}");
    } else {
        text();
    }
    Ok(())
}

#[derive(Serialize)]
struct SolveReport {
    benchmark: &'static str,
    config: GameConfig,
    threshold: f64,
    sprint_probability: f64,
    expected_sprinters: f64,
    trip_probability: f64,
    cooperative_threshold: f64,
    efficiency_vs_cooperative: f64,
}

/// `sprint solve`: equilibrium + cooperative bound for one benchmark.
pub fn solve(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&[
        "benchmark",
        "n-agents",
        "n-min",
        "n-max",
        "p-cooling",
        "p-recovery",
        "discount",
        "json",
    ])?;
    let benchmark = parse_benchmark(args)?;
    let config = parse_config(args)?;
    let json = args.get_bool("json", false)?;

    let density = benchmark.utility_density(512).map_err(run_err)?;
    let eq = MeanFieldSolver::new(config)
        .run(&density, &mut Telemetry::noop())
        .map_err(run_err)?;
    let ct = CooperativeSearch::default_resolution()
        .solve(&config, &density)
        .map_err(run_err)?;
    let et = sprint_game::cooperative::analytic_throughput(&config, &density, eq.threshold())
        .map_err(run_err)?;
    let report = SolveReport {
        benchmark: benchmark.name(),
        config,
        threshold: eq.threshold(),
        sprint_probability: eq.sprint_probability(),
        expected_sprinters: eq.expected_sprinters(),
        trip_probability: eq.trip_probability(),
        cooperative_threshold: ct.threshold,
        efficiency_vs_cooperative: et.tasks_per_epoch / ct.throughput.tasks_per_epoch,
    };
    emit(json, &report, || {
        println!("benchmark           {}", report.benchmark);
        println!("threshold u_T       {:.4}", report.threshold);
        println!("P(sprint | active)  {:.4}", report.sprint_probability);
        println!("expected sprinters  {:.1}", report.expected_sprinters);
        println!("P(trip)             {:.4}", report.trip_probability);
        println!("cooperative u_T     {:.4}", report.cooperative_threshold);
        println!(
            "efficiency vs C-T   {:.3}",
            report.efficiency_vs_cooperative
        );
    })
}

#[derive(Serialize)]
struct TelemetrySection {
    events: usize,
    metrics: MetricsSnapshot,
    spans: SpanReport,
}

fn print_telemetry_section(section: &TelemetrySection) {
    println!("telemetry           {} events recorded", section.events);
    for (name, value) in &section.metrics.counters {
        println!("  counter {name:<28} {value}");
    }
    for (name, value) in &section.metrics.gauges {
        println!("  gauge   {name:<28} {value:.4}");
    }
    print_span_table(&section.spans);
}

fn print_span_table(spans: &SpanReport) {
    if spans.spans.is_empty() {
        return;
    }
    println!(
        "  {:<22} {:>8} {:>12} {:>12}",
        "span", "count", "mean µs", "max µs"
    );
    for (name, stats) in &spans.spans {
        println!(
            "  {:<22} {:>8} {:>12.1} {:>12.1}",
            name,
            stats.count,
            stats.mean_nanos() / 1_000.0,
            stats.max_nanos as f64 / 1_000.0
        );
    }
}

/// Parse the shared run-shaped flags into the canonical [`RunSpec`].
///
/// Every run-style subcommand (simulate/trace/report/monitor) builds
/// this same typed spec — the flag→config plumbing lives here once, and
/// the spec is exactly what `sprint serve` accepts over HTTP.
fn parse_run_spec(args: &ParsedArgs) -> Result<RunSpec, CliError> {
    let benchmark = parse_benchmark(args)?;
    Ok(RunSpec {
        benchmark: benchmark.name().to_string(),
        policy: parse_policy(&args.get_or("policy", "e-t"))?,
        agents: args.get_parsed("agents", 1000)?,
        epochs: args.get_parsed("epochs", 600)?,
        seed: args.get_parsed("seed", 1)?,
        // Local runs thread `--jobs` through ExecOptions directly; the
        // in-spec knob exists for HTTP submissions, where the daemon
        // applies its own cap.
        jobs: None,
    })
}

/// `sprint simulate`: one policy, one seed, executed as a canonical run
/// job. `--json true` prints the same `JobReport` bytes the daemon
/// returns for this spec over HTTP.
pub fn simulate(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&[
        "benchmark",
        "policy",
        "agents",
        "epochs",
        "seed",
        "jobs",
        "json",
        "telemetry",
    ])?;
    let run = parse_run_spec(args)?;
    let jobs = parse_jobs(args)?;
    let json = args.get_bool("json", false)?;
    let with_telemetry = args.get_bool("telemetry", false)?;

    let spec = JobSpec::new(JobKind::Run { spec: run });
    let opts = ExecOptions {
        jobs,
        ..ExecOptions::default()
    };
    let cache = EquilibriumCache::process();
    let (report, section) = if with_telemetry {
        let mut kit = Telemetry::in_memory();
        let report = execute_job(&spec, cache, &opts, &mut kit).map_err(run_err)?;
        let section = TelemetrySection {
            events: kit.events().map_or(0, <[Event]>::len),
            metrics: kit.registry.snapshot(),
            spans: kit.spans.report(),
        };
        (report, Some(section))
    } else {
        (
            execute_job(&spec, cache, &opts, &mut Telemetry::noop()).map_err(run_err)?,
            None,
        )
    };
    let JobOutcome::Run { report: summary } = &report.outcome else {
        return Err(CliError::Run("run job produced a non-run outcome".into()));
    };
    if json {
        println!("{}", report_json(&report).map_err(run_err)?);
        if let Some(section) = &section {
            // Telemetry carries wall-clock facts; keep stdout canonical.
            eprintln!("telemetry           {} events recorded", section.events);
        }
        return Ok(());
    }
    println!(
        "{} on {} x {} for {} epochs (seed {})",
        summary.policy, summary.agents, summary.benchmark, summary.epochs, summary.seed
    );
    println!("tasks/agent-epoch   {:.4}", summary.tasks_per_agent_epoch);
    println!("power emergencies   {}", summary.trips);
    println!("mean sprinters      {:.1}", summary.mean_sprinters);
    let o = summary.occupancy;
    println!(
        "occupancy           active {:.1}%  cooling {:.1}%  recovery {:.1}%  sprint {:.1}%",
        o[0] * 100.0,
        o[1] * 100.0,
        o[2] * 100.0,
        o[3] * 100.0
    );
    if let Some(section) = &section {
        print_telemetry_section(section);
    }
    Ok(())
}

/// `sprint trace`: stream one run's structured events as JSON Lines.
///
/// Events carry simulation-time data only, so two traces of the same
/// scenario and seed are byte-identical. The per-agent decision firehose
/// (`SprintDecision`, one event per agent per epoch) is excluded unless
/// `--decisions true`.
pub fn trace(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&[
        "benchmark",
        "policy",
        "agents",
        "epochs",
        "seed",
        "jobs",
        "decisions",
        "out",
    ])?;
    let run = parse_run_spec(args)?;
    let jobs = parse_jobs(args)?;
    let decisions = args.get_bool("decisions", false)?;
    let out = args.get("out");

    let writer: Box<dyn std::io::Write + Send> = match out {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(run_err)?,
        )),
        None => Box::new(std::io::stdout()),
    };
    let mut jsonl = JsonlWriter::new(writer);
    if !decisions {
        jsonl = jsonl.without(EventKind::SprintDecision);
    }
    // Deterministic clock: span timings stay out of the byte-reproducible
    // event stream either way, but the trace itself must not depend on
    // wall time. The run stays on the scenario path (not the cached job
    // path) so solver events land in the trace.
    let mut telemetry = Telemetry::new(Box::new(jsonl), SpanProfile::deterministic());
    let scenario = run.scenario().map_err(run_err)?;
    scenario
        .execute(run.policy, run.seed, jobs, &mut telemetry)
        .map_err(run_err)?;
    if let Some(path) = out {
        let epochs_seen = telemetry
            .registry
            .counter_value("engine.epochs")
            .unwrap_or(0);
        println!("trace of {epochs_seen} epochs written to {path}");
    }
    Ok(())
}

#[derive(Serialize)]
struct RunReport {
    benchmark: String,
    policy: String,
    agents: u32,
    epochs: usize,
    seed: u64,
    tasks_per_agent_epoch: f64,
    trips: u32,
    /// Algorithm 1's residual per iteration (empty for policies that do
    /// not run the mean-field solve).
    solver_residuals: Vec<f64>,
    metrics: MetricsSnapshot,
    spans: SpanReport,
}

/// `sprint report`: one traced run distilled into an observability
/// report — solver convergence, per-epoch series, fault counters, and
/// span timings — as text or JSON.
pub fn report(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&[
        "benchmark",
        "policy",
        "agents",
        "epochs",
        "seed",
        "jobs",
        "json",
        "prometheus",
        "flamegraph",
    ])?;
    let run = parse_run_spec(args)?;
    let jobs = parse_jobs(args)?;
    let json = args.get_bool("json", false)?;

    // The scenario path (not the cached job path): solver iteration
    // events must land in the in-memory recorder for the residual curve.
    let scenario = run.scenario().map_err(run_err)?;
    let mut telemetry = Telemetry::in_memory();
    let result = scenario
        .execute(run.policy, run.seed, jobs, &mut telemetry)
        .map_err(run_err)?;
    let solver_residuals: Vec<f64> = telemetry
        .events()
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| match e {
            Event::SolverIteration { residual, .. } => Some(*residual),
            _ => None,
        })
        .collect();
    let run_report = RunReport {
        benchmark: run.benchmark.clone(),
        policy: run.policy.to_string(),
        agents: run.agents,
        epochs: run.epochs,
        seed: run.seed,
        tasks_per_agent_epoch: result.tasks_per_agent_epoch(),
        trips: result.trips(),
        solver_residuals,
        metrics: telemetry.registry.snapshot(),
        spans: telemetry.spans.report(),
    };
    emit(json, &run_report, || {
        println!(
            "{} on {} x {} for {} epochs (seed {})",
            run_report.policy,
            run_report.agents,
            run_report.benchmark,
            run_report.epochs,
            run_report.seed
        );
        println!(
            "tasks/agent-epoch   {:.4}",
            run_report.tasks_per_agent_epoch
        );
        println!("power emergencies   {}", run_report.trips);
        if run_report.solver_residuals.is_empty() {
            println!("solver              (no offline mean-field solve for this policy)");
        } else {
            let last = run_report.solver_residuals.last().copied().unwrap_or(0.0);
            println!(
                "solver              {} iterations, final residual {last:.3e}",
                run_report.solver_residuals.len()
            );
            let curve: Vec<String> = run_report
                .solver_residuals
                .iter()
                .take(8)
                .map(|r| format!("{r:.2e}"))
                .collect();
            println!("residual curve      {}{}", curve.join(" "), {
                if run_report.solver_residuals.len() > 8 {
                    " ..."
                } else {
                    ""
                }
            });
        }
        for name in ["engine.sprinters", "engine.tasks", "engine.tripped"] {
            if let Some(series) = run_report.metrics.series.get(name) {
                let mean = series.iter().sum::<f64>() / series.len().max(1) as f64;
                let max = series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                println!(
                    "series {name:<19} {} samples, mean {mean:.3}, max {max:.3}",
                    series.len()
                );
            }
        }
        let fault_counters: Vec<(&String, &u64)> = run_report
            .metrics
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("faults."))
            .collect();
        for (name, value) in fault_counters {
            println!("fault counter       {name:<22} {value}");
        }
        print_span_table(&run_report.spans);
    })?;
    write_exports(args, &run_report.metrics, &run_report.spans)
}

/// Write the optional `--prometheus` / `--flamegraph` export files from
/// frozen telemetry state, announcing each path written.
fn write_exports(
    args: &ParsedArgs,
    metrics: &MetricsSnapshot,
    spans: &SpanReport,
) -> Result<(), CliError> {
    if let Some(path) = args.get("prometheus") {
        std::fs::write(path, prometheus_text(metrics)).map_err(run_err)?;
        println!("prometheus exposition written to {path}");
    }
    if let Some(path) = args.get("flamegraph") {
        std::fs::write(path, collapsed_stacks(spans)).map_err(run_err)?;
        println!("collapsed stacks written to {path}");
    }
    Ok(())
}

/// `sprint compare`: the paper's four policies, averaged over seeds.
pub fn compare(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&["benchmark", "agents", "epochs", "seeds", "jobs"])?;
    let benchmark = parse_benchmark(args)?;
    let agents: u32 = args.get_parsed("agents", 1000)?;
    let epochs: usize = args.get_parsed("epochs", 600)?;
    let n_seeds: u64 = args.get_parsed("seeds", 3)?;
    let jobs: usize = args.get_parsed("jobs", 0)?;
    if n_seeds == 0 {
        return Err(ArgError("--seeds must be at least 1".into()).into());
    }

    let scenario = Scenario::homogeneous(benchmark, agents, epochs).map_err(run_err)?;
    let seeds: Vec<u64> = (1..=n_seeds).collect();
    let cmp = sprint_sim::runner::compare(
        &scenario,
        &PolicyKind::ALL,
        &seeds,
        jobs,
        &mut Telemetry::noop(),
    )
    .map_err(run_err)?;
    println!(
        "{:<24} {:>11} {:>8} {:>9} {:>7}",
        "policy", "tasks/ep", "vs G", "±95% CI", "trips"
    );
    for outcome in cmp.outcomes() {
        let norm = cmp
            .normalized_to_greedy(outcome.policy)
            .expect("greedy included");
        let ci = outcome
            .tasks_ci
            .map_or_else(|| "-".to_string(), |c| format!("{:.3}", c.half_width));
        println!(
            "{:<24} {:>11.4} {:>8.2} {:>9} {:>7.1}",
            outcome.policy.to_string(),
            outcome.tasks_per_agent_epoch,
            norm,
            ci,
            outcome.trips
        );
    }
    Ok(())
}

/// Build a sweep spec from the command line: a spec file wins; otherwise
/// inline flags shape a single-game spec over all four policies.
///
/// Spec files go through [`JobSpec::parse_json`], so both versioned
/// `JobSpec` documents and legacy bare sweep specs keep working.
fn sweep_spec(args: &ParsedArgs) -> Result<SweepSpec, CliError> {
    if let Some(path) = args.get("spec") {
        for inline in ["benchmark", "agents", "epochs", "seeds"] {
            if args.get(inline).is_some() {
                return Err(
                    ArgError(format!("--spec and --{inline} are mutually exclusive")).into(),
                );
            }
        }
        let text = std::fs::read_to_string(path).map_err(run_err)?;
        let spec = JobSpec::parse_json(&text)
            .map_err(|e| ArgError(format!("invalid sweep spec `{path}`: {e}")))?;
        return match spec.job {
            JobKind::Sweep { spec } => Ok(spec),
            other => Err(ArgError(format!(
                "`{path}` is a {} job, not a sweep",
                match other {
                    JobKind::Run { .. } => "run",
                    JobKind::Chaos { .. } => "chaos",
                    JobKind::Sweep { .. } => unreachable!("matched above"),
                }
            ))
            .into()),
        };
    }
    let benchmark = parse_benchmark(args)?;
    let agents: u32 = args.get_parsed("agents", 1000)?;
    let epochs: usize = args.get_parsed("epochs", 600)?;
    let n_seeds: u64 = args.get_parsed("seeds", 4)?;
    if n_seeds == 0 {
        return Err(ArgError("--seeds must be at least 1".into()).into());
    }
    Ok(SweepSpec {
        games: vec![GameVariant::paper("paper")],
        populations: vec![PopulationSpec::homogeneous(benchmark, agents)],
        plans: Vec::new(),
        adversaries: Vec::new(),
        policies: PolicyKind::ALL.to_vec(),
        seeds: (1..=n_seeds).collect(),
        epochs,
        options: RunOptions::default(),
    })
}

/// `sprint sweep`: expand a declarative spec into trials and run them on
/// a worker pool, with equilibrium solves memoized across trials.
pub fn sweep(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&[
        "spec",
        "benchmark",
        "agents",
        "epochs",
        "seeds",
        "jobs",
        "json",
        "records",
        "telemetry",
        "print-spec",
        "trial-deadline",
    ])?;
    if args.get_bool("print-spec", false)? {
        let s = serde_json::to_string_pretty(&SweepSpec::example()).map_err(run_err)?;
        println!("{s}");
        return Ok(());
    }
    let spec = sweep_spec(args)?;
    let jobs: usize = args.get_parsed("jobs", 0)?;
    let json = args.get_bool("json", false)?;
    let with_telemetry = args.get_bool("telemetry", false)?;
    let records_out = args.get("records");
    let mut supervision = Supervision::default();
    if let Some(raw) = args.get("trial-deadline") {
        let ms: u64 = raw
            .parse()
            .map_err(|_| ArgError(format!("invalid --trial-deadline `{raw}`")))?;
        supervision = supervision.with_deadline_ms(ms);
    }

    let mut kit = if with_telemetry {
        Telemetry::new(Box::new(Noop), SpanProfile::monotonic())
    } else {
        Telemetry::noop()
    };
    let job = JobSpec::new(JobKind::Sweep { spec: spec.clone() });
    let opts = ExecOptions {
        jobs,
        supervision,
        ..ExecOptions::default()
    };
    let job_report =
        execute_job(&job, EquilibriumCache::process(), &opts, &mut kit).map_err(run_err)?;
    let JobOutcome::Sweep { report } = &job_report.outcome else {
        return Err(CliError::Run(
            "sweep job produced a non-sweep outcome".into(),
        ));
    };

    if let Some(path) = records_out {
        use std::io::Write;
        let mut file = std::io::BufWriter::new(std::fs::File::create(path).map_err(run_err)?);
        for record in &report.records {
            let line = serde_json::to_string(record).map_err(run_err)?;
            writeln!(file, "{line}").map_err(run_err)?;
        }
        file.flush().map_err(run_err)?;
        eprintln!("{} records written to {path}", report.records.len());
    }

    if json {
        // Canonical JobReport bytes: identical to the daemon's HTTP
        // response for the same spec.
        println!("{}", report_json(&job_report).map_err(run_err)?);
    } else {
        println!(
            "sweep: {} trials ({} games x {} populations x {} plans x {} policies x {} seeds)",
            report.trials,
            spec.games.len(),
            spec.populations.len(),
            spec.plans.len().max(1),
            spec.policies.len(),
            spec.seeds.len()
        );
        if !report.quarantined.is_empty() {
            println!(
                "quarantined {} trial(s) after retries:",
                report.quarantined.len()
            );
            for q in &report.quarantined {
                println!(
                    "  trial {} ({}/{}/{}/{} seed {}), {} attempt(s): {}",
                    q.trial, q.game, q.population, q.plan, q.policy, q.seed, q.attempts, q.error
                );
            }
        }
        println!(
            "{:<14} {:<12} {:<12} {:<24} {:>10} {:>7} {:>7}",
            "game", "population", "plan", "policy", "tasks/ep", "vs G", "trips"
        );
        for cell in &report.cells {
            let norm = cell
                .normalized_to_greedy
                .map_or_else(|| "-".to_string(), |n| format!("{n:.3}"));
            println!(
                "{:<14} {:<12} {:<12} {:<24} {:>10.4} {:>7} {:>7.1}",
                cell.game,
                cell.population,
                cell.plan,
                cell.policy.to_string(),
                cell.tasks_per_agent_epoch,
                norm,
                cell.trips
            );
        }
    }
    if with_telemetry {
        let snapshot = kit.registry.snapshot();
        for (name, value) in &snapshot.counters {
            println!("counter {name:<28} {value}");
        }
        for (name, value) in &snapshot.gauges {
            println!("gauge   {name:<28} {value:.4}");
        }
        print_span_table(&kit.spans.report());
    }
    Ok(())
}

/// Parse the adversary-mix flags, enforcing that kind-specific knobs
/// name the matching kind.
fn parse_adversary_mix(
    args: &ParsedArgs,
    fault_seed: u64,
) -> Result<sprint_sim::AdversaryMix, CliError> {
    use sprint_sim::{AdversaryKind, AdversaryMix};

    let fraction: f64 = args.get_parsed("adversaries", 0.1)?;
    let kind_name = args.get("adversary-kind").unwrap_or("greedy_defector");
    let mut kind = AdversaryKind::from_name(kind_name).ok_or_else(|| {
        ArgError(format!(
            "unknown adversary kind `{kind_name}`; see `sprint help`"
        ))
    })?;
    if let Some(p) = args.get("cheat-probability") {
        let cheat_probability: f64 = p
            .parse()
            .map_err(|_| ArgError(format!("--cheat-probability: invalid number `{p}`")))?;
        if !matches!(kind, AdversaryKind::StochasticCheater { .. }) {
            return Err(ArgError(
                "--cheat-probability requires --adversary-kind stochastic_cheater".into(),
            )
            .into());
        }
        kind = AdversaryKind::StochasticCheater { cheat_probability };
    }
    if let Some(p) = args.get("clique-period") {
        let period: u32 = p
            .parse()
            .map_err(|_| ArgError(format!("--clique-period: invalid integer `{p}`")))?;
        if !matches!(kind, AdversaryKind::CollusiveClique { .. }) {
            return Err(ArgError(
                "--clique-period requires --adversary-kind collusive_clique".into(),
            )
            .into());
        }
        kind = AdversaryKind::CollusiveClique { period };
    }
    let ceasefire_epoch: Option<usize> = match args.get("ceasefire") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| ArgError(format!("--ceasefire: invalid epoch `{raw}`")))?,
        ),
        None => None,
    };
    Ok(AdversaryMix {
        kind,
        fraction,
        seed: fault_seed,
        ceasefire_epoch,
    })
}

/// `sprint chaos`: the policy × fault-plan resilience matrix, or (with
/// `--partition true`) the control-plane partition-resilience suite, or
/// (with `--adversaries`) the adversary-defense suite — all expressed as
/// one canonical chaos job, so `--json true` prints the same `JobReport`
/// bytes the daemon returns for this spec.
pub fn chaos(args: &ParsedArgs) -> Result<(), CliError> {
    if args.get_bool("serve-restart", false)? {
        return chaos_serve_restart(args);
    }
    args.expect_only(&[
        "benchmark",
        "agents",
        "epochs",
        "seeds",
        "jobs",
        "fault-seed",
        "json",
        "telemetry",
        "partition",
        "partition-start",
        "partition-epochs",
        "report",
        "adversaries",
        "adversary-kind",
        "cheat-probability",
        "clique-period",
        "ceasefire",
    ])?;
    let benchmark = parse_benchmark(args)?;
    let agents: u32 = args.get_parsed("agents", 1000)?;
    let epochs: usize = args.get_parsed("epochs", 600)?;
    let n_seeds: u64 = args.get_parsed("seeds", 2)?;
    let jobs: usize = args.get_parsed("jobs", 0)?;
    let fault_seed: u64 = args.get_parsed("fault-seed", 17)?;
    let json = args.get_bool("json", false)?;
    let with_telemetry = args.get_bool("telemetry", false)?;
    if n_seeds == 0 {
        return Err(ArgError("--seeds must be at least 1".into()).into());
    }

    let with_partition = args.get_bool("partition", false)?;
    let with_adversaries = args.get("adversaries").is_some();
    if with_partition && with_adversaries {
        return Err(ArgError("--partition and --adversaries are mutually exclusive".into()).into());
    }
    if !with_partition {
        for flag in ["partition-start", "partition-epochs"] {
            if args.get(flag).is_some() {
                return Err(ArgError(format!("--{flag} requires --partition true")).into());
            }
        }
    }
    if !with_adversaries {
        for flag in [
            "adversary-kind",
            "cheat-probability",
            "clique-period",
            "ceasefire",
        ] {
            if args.get(flag).is_some() {
                return Err(ArgError(format!("--{flag} requires --adversaries")).into());
            }
        }
    }
    if args.get("report").is_some() && !with_partition && !with_adversaries {
        return Err(ArgError("--report requires --partition true or --adversaries".into()).into());
    }

    let mode = if with_adversaries {
        ChaosMode::Adversaries {
            mix: parse_adversary_mix(args, fault_seed)?,
        }
    } else if with_partition {
        let start = match args.get("partition-start") {
            Some(_) => Some(args.get_parsed("partition-start", 0)?),
            None => None,
        };
        ChaosMode::Partition {
            start,
            duration: args.get_parsed("partition-epochs", 3)?,
        }
    } else {
        ChaosMode::Matrix
    };
    let job = JobSpec::new(JobKind::Chaos {
        spec: ChaosSpec {
            benchmark: benchmark.name().to_string(),
            agents,
            epochs,
            seeds: n_seeds,
            fault_seed,
            mode,
        },
    });
    let opts = ExecOptions {
        jobs,
        ..ExecOptions::default()
    };
    let mut kit = if with_telemetry {
        Telemetry::new(Box::new(Noop), SpanProfile::monotonic())
    } else {
        Telemetry::noop()
    };
    let job_report =
        execute_job(&job, EquilibriumCache::process(), &opts, &mut kit).map_err(run_err)?;
    let JobOutcome::Chaos { report: outcome } = &job_report.outcome else {
        return Err(CliError::Run(
            "chaos job produced a non-chaos outcome".into(),
        ));
    };

    if let Some(path) = args.get("report") {
        // CI archives the inner suite report, not the JobReport envelope.
        let (inner, what) = match outcome {
            ChaosOutcome::Matrix { report } => (
                serde_json::to_string_pretty(report).map_err(run_err)?,
                "chaos",
            ),
            ChaosOutcome::Partition { report } => (
                serde_json::to_string_pretty(report).map_err(run_err)?,
                "resilience",
            ),
            ChaosOutcome::Adversaries { report } => (
                serde_json::to_string_pretty(report).map_err(run_err)?,
                "adversary",
            ),
        };
        std::fs::write(path, inner).map_err(run_err)?;
        eprintln!("{what} report written to {path}");
    }
    if json {
        println!("{}", report_json(&job_report).map_err(run_err)?);
    } else {
        match outcome {
            ChaosOutcome::Matrix { report } => {
                println!(
                    "chaos matrix: {} x {} agents, {} epochs, {} seed(s), fault seed {}",
                    benchmark.name(),
                    agents,
                    epochs,
                    n_seeds,
                    fault_seed
                );
                println!(
                    "{:<24} {:<18} {:>10} {:>10} {:>7} {:>7}",
                    "policy", "fault plan", "tasks/ep", "vs clean", "trips", "crashes"
                );
                for cell in report.cells() {
                    println!(
                        "{:<24} {:<18} {:>10.4} {:>10.3} {:>7.1} {:>7}",
                        cell.policy.to_string(),
                        cell.plan,
                        cell.tasks_per_agent_epoch,
                        cell.degradation,
                        cell.trips,
                        cell.faults.crashes
                    );
                }
            }
            ChaosOutcome::Partition { report } => {
                let start: usize = args.get_parsed("partition-start", epochs / 2)?;
                let duration: usize = args.get_parsed("partition-epochs", 3)?;
                print_partition_text(report, start, duration, fault_seed);
            }
            ChaosOutcome::Adversaries { report } => print_adversary_text(report, fault_seed),
        }
        if with_telemetry {
            print_span_table(&kit.spans.report());
        }
    }
    // The acceptance gates fail the process in every output mode.
    match outcome {
        ChaosOutcome::Partition { report } if report.invariant_violations > 0 => {
            Err(CliError::Run(
                format!(
                    "{} agent-epoch(s) without a valid threshold",
                    report.invariant_violations
                )
                .into(),
            ))
        }
        ChaosOutcome::Adversaries { report } if report.false_positive_exclusions > 0 => {
            Err(CliError::Run(
                format!(
                    "{} honest agent(s) permanently excluded",
                    report.false_positive_exclusions
                )
                .into(),
            ))
        }
        _ => Ok(()),
    }
}

/// `sprint chaos --serve-restart`: the kill-restart drill. Boot a
/// journaled `sprint serve` child, queue jobs, SIGKILL it mid-queue,
/// restart on the same journal + spool, and verify every acknowledged
/// job completes with report bytes identical to an in-process
/// reference execution. Exits non-zero if any acknowledged job is lost
/// or any recovered report drifts by a byte.
fn chaos_serve_restart(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&["serve-restart", "restart-jobs", "workers", "json"])?;
    let n_jobs: u64 = args.get_parsed("restart-jobs", 8)?;
    let workers: usize = args.get_parsed("workers", 2)?;
    let json = args.get_bool("json", false)?;
    if n_jobs == 0 {
        return Err(ArgError("--restart-jobs must be at least 1".into()).into());
    }

    let dir = std::env::temp_dir().join(format!("sprint-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(run_err)?;
    let journal = dir.join("journal.jsonl");
    let spool = dir.join("spool");
    let exe = std::env::current_exe().map_err(run_err)?;
    let workers_flag = workers.to_string();
    let serve_args: Vec<&str> = vec![
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &workers_flag,
        "--journal",
        journal.to_str().expect("utf-8 temp path"),
        "--spool",
        spool.to_str().expect("utf-8 temp path"),
    ];

    let spec_for = |seed: u64| {
        JobSpec::new(JobKind::Run {
            spec: RunSpec {
                benchmark: "decision".to_string(),
                policy: PolicyKind::EquilibriumThreshold,
                agents: 30,
                epochs: 40,
                seed,
                jobs: None,
            },
        })
    };

    // Phase 1: boot, queue every job, and pull the plug.
    let mut child = ServeChild::spawn(&exe, &serve_args, &[]).map_err(run_err)?;
    let addr = child.addr.clone();
    let mut acknowledged = Vec::new();
    for seed in 1..=n_jobs {
        let body = serde_json::to_string(&spec_for(seed)).map_err(run_err)?;
        let (status, ack) =
            serve_client::request(&addr, "POST", "/v1/jobs", Some(&body)).map_err(run_err)?;
        if status != 202 {
            return Err(CliError::Run(
                format!("submission rejected: {status} {ack}").into(),
            ));
        }
        let id: u64 = ack
            .split("\"id\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|digits| digits.trim().parse().ok())
            .ok_or_else(|| CliError::Run(format!("unparseable ack: {ack}").into()))?;
        acknowledged.push((id, seed));
    }
    child.kill();
    eprintln!(
        "serve-restart: SIGKILL after {} acknowledged jobs; restarting on the journal",
        acknowledged.len()
    );

    // Phase 2: restart on the same journal + spool and wait everything
    // out. Every acknowledged id must reach `done`.
    let child = ServeChild::spawn(&exe, &serve_args, &[]).map_err(run_err)?;
    let addr = child.addr.clone();
    let cache = EquilibriumCache::default();
    let mut mismatches = 0usize;
    for &(id, seed) in &acknowledged {
        harness::wait_for_job_state(&addr, id, "done", std::time::Duration::from_secs(60))
            .map_err(run_err)?;
        let (status, recovered) =
            serve_client::request(&addr, "GET", &format!("/v1/jobs/{id}/report"), None)
                .map_err(run_err)?;
        if status != 200 {
            return Err(CliError::Run(
                format!("report fetch failed: {status}").into(),
            ));
        }
        let reference = report_json(
            &execute_job(
                &spec_for(seed),
                &cache,
                &ExecOptions::default(),
                &mut Telemetry::noop(),
            )
            .map_err(run_err)?,
        )
        .map_err(run_err)?;
        if recovered != reference {
            mismatches += 1;
            eprintln!("serve-restart: job {id} report drifted from the reference bytes");
        }
    }
    let (_, metrics) = serve_client::request(&addr, "GET", "/v1/metrics", None).map_err(run_err)?;
    let recovered_counter = metrics
        .lines()
        .find(|l| l.starts_with("serve_jobs_recovered_total"))
        .map(str::to_string)
        .unwrap_or_default();
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);

    if json {
        println!(
            "{{\"acknowledged\":{},\"completed\":{},\"byte_identical\":{},\"lost\":0}}",
            acknowledged.len(),
            acknowledged.len(),
            acknowledged.len() - mismatches
        );
    } else {
        eprintln!(
            "serve-restart: {} acknowledged, {} completed after restart, {} byte-identical ({})",
            acknowledged.len(),
            acknowledged.len(),
            acknowledged.len() - mismatches,
            if recovered_counter.is_empty() {
                "no recovery counter".to_string()
            } else {
                recovered_counter
            }
        );
    }
    if mismatches > 0 {
        return Err(CliError::Run(
            format!("{mismatches} recovered report(s) drifted from the reference bytes").into(),
        ));
    }
    Ok(())
}

/// Text summary for `sprint chaos --partition`: invariant, message-loss,
/// tier-occupancy, and recovery acceptance lines from the resilience
/// suite report.
fn print_partition_text(
    report: &sprint_sim::runner::ResilienceReport,
    start: usize,
    duration: usize,
    fault_seed: u64,
) {
    let lost: u64 = report.trials.iter().map(|t| t.messages.lost).sum();
    let sent: u64 = report.trials.iter().map(|t| t.messages.sent).sum();
    let mut tiers = [0u64; 3];
    for t in &report.trials {
        for (acc, &e) in tiers.iter_mut().zip(&t.tier_epochs) {
            *acc += e;
        }
    }
    println!(
        "partition chaos: {} trial(s), partition @{start} for {duration} epoch(s), \
         fault seed {fault_seed}",
        report.trials.len()
    );
    println!("  invariant violations   {}", report.invariant_violations);
    println!(
        "  messages lost          {lost}/{sent} ({:.1}%)",
        if sent > 0 {
            lost as f64 / sent as f64 * 100.0
        } else {
            0.0
        }
    );
    println!(
        "  tier epochs (eq/stale/cons)  {}/{}/{}",
        tiers[0], tiers[1], tiers[2]
    );
    println!(
        "  mean recovery          {} (budget: {} epochs = 2 leases)",
        report.mean_recovery_epochs.map_or_else(
            || "n/a (never degraded)".to_string(),
            |m| format!("{m:.2} epochs")
        ),
        2 * report.control.lease_epochs
    );
    println!(
        "  utility vs conservative baseline  {:.6} vs {:.6}",
        report.mean_utility, report.conservative_utility
    );
    let ok = report.invariant_violations == 0
        && report.recovered_within(2.0)
        && report.mean_utility >= report.conservative_utility - 1e-12;
    println!(
        "  acceptance             {}",
        if ok { "PASS" } else { "FAIL" }
    );
}

/// Text summary for `sprint chaos --adversaries`: throughput recovery,
/// detections, and sanction-error acceptance lines from the
/// adversary-defense suite report.
fn print_adversary_text(report: &sprint_sim::runner::AdversaryReport, fault_seed: u64) {
    let mix = &report.mix;
    println!(
        "adversary chaos: {} trial(s), {} {} @ {:.0}% of {} agents, fault seed {fault_seed}",
        report.trials.len(),
        mix.adversary_count(report.agents as usize),
        mix.kind.name(),
        mix.fraction * 100.0,
        report.agents,
    );
    println!(
        "  throughput (honest/unchecked/enforced)  {:.4} / {:.4} / {:.4}",
        report.honest_throughput, report.unenforced_throughput, report.enforced_throughput
    );
    println!(
        "  recovery ratio         {:.4} (unchecked: {:.4})",
        report.recovery_ratio, report.unenforced_ratio
    );
    println!(
        "  detections             {} (mean latency: {})",
        report.detections,
        report
            .mean_detection_latency_epochs
            .map_or_else(|| "n/a".to_string(), |m| format!("{m:.1} epochs")),
    );
    println!(
        "  sanctions              {} exclusion(s), {} readmission(s)",
        report.exclusions, report.readmissions
    );
    println!(
        "  errors                 {} false-positive exclusion(s), {} false negative(s)",
        report.false_positive_exclusions, report.false_negatives
    );
    let ok = report.recovery_ratio >= 0.95 && report.false_positive_exclusions == 0;
    println!(
        "  acceptance             {}",
        if ok { "PASS" } else { "FAIL" }
    );
}

/// `sprint cluster`: multi-rack simulation under a facility breaker.
pub fn cluster(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&[
        "benchmark",
        "racks",
        "agents-per-rack",
        "epochs",
        "facility-n-min",
        "facility-n-max",
        "seed",
        "json",
    ])?;
    use sprint_sim::cluster::{simulate_cluster, ClusterConfig};
    use sprint_sim::policies::ThresholdPolicy;
    use sprint_sim::SprintPolicy;
    use sprint_workloads::generator::Population;

    let benchmark = parse_benchmark(args)?;
    let racks: u32 = args.get_parsed("racks", 4)?;
    let per_rack: u32 = args.get_parsed("agents-per-rack", 250)?;
    let epochs: usize = args.get_parsed("epochs", 600)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let json = args.get_bool("json", false)?;
    let rack_game = GameConfig::builder()
        .n_agents(per_rack)
        .n_min(f64::from(per_rack) * 0.25)
        .n_max(f64::from(per_rack) * 0.75)
        .build()
        .map_err(run_err)?;
    let default_min = f64::from(racks * per_rack) * 0.25;
    let facility_n_min: f64 = args.get_parsed("facility-n-min", default_min)?;
    let facility_n_max: f64 = args.get_parsed("facility-n-max", default_min * 3.0)?;
    let config = ClusterConfig::new(
        rack_game,
        racks,
        facility_n_min,
        facility_n_max,
        0.95,
        epochs,
        seed,
    )
    .map_err(run_err)?;

    // Facility-aware equilibrium thresholds per rack.
    let density = benchmark.utility_density(512).map_err(run_err)?;
    let aware_game = config.facility_aware_band().map_err(run_err)?;
    let eq = MeanFieldSolver::new(aware_game)
        .run(&density, &mut Telemetry::noop())
        .map_err(run_err)?;
    let mut streams = Population::homogeneous(benchmark, (racks * per_rack) as usize)
        .map_err(run_err)?
        .spawn_streams(seed)
        .map_err(run_err)?;
    let mut policies: Vec<Box<dyn SprintPolicy>> = (0..racks)
        .map(|_| {
            ThresholdPolicy::uniform("E-T", eq.strategy(), per_rack as usize)
                .map(|p| Box::new(p) as Box<dyn SprintPolicy>)
        })
        .collect::<Result<_, _>>()
        .map_err(run_err)?;
    let result = simulate_cluster(&config, &mut streams, &mut policies).map_err(run_err)?;
    emit(json, &result, || {
        println!(
            "{racks} racks x {per_rack} {} agents, facility band [{facility_n_min:.0}, \
             {facility_n_max:.0}], {epochs} epochs",
            benchmark.name()
        );
        println!("threshold (facility-aware) {:.3}", eq.threshold());
        println!(
            "tasks/agent-epoch          {:.4}",
            result.tasks_per_agent_epoch
        );
        println!("rack trips                 {}", result.rack_trips);
        println!("facility trips             {}", result.facility_trips);
        let cells: Vec<String> = result
            .per_rack_tasks
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect();
        println!("per-rack tasks             {}", cells.join(" "));
    })
}

/// `sprint derive-params`: physical rack → Table-2 parameters.
pub fn derive_params(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&["servers", "json"])?;
    let servers: u32 = args.get_parsed("servers", 1000)?;
    if servers == 0 {
        return Err(ArgError("--servers must be at least 1".into()).into());
    }
    let json = args.get_bool("json", false)?;
    let params = RackConfig::paper_rack(servers).derive_game_parameters();
    emit(json, &params, || {
        println!("servers             {}", params.n_agents);
        println!("N_min / N_max       {} / {}", params.n_min, params.n_max);
        println!("p_cooling           {:.3}", params.p_cooling);
        println!("p_recovery          {:.3}", params.p_recovery);
        println!("epoch               {:.1} s", params.epoch_seconds);
        println!("cooling             {:.1} s", params.cooling_seconds);
    })
}

/// `sprint benchmarks`: list the Table-1 suite.
pub fn benchmarks(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&[])?;
    println!(
        "{:<14} {:<22} {:<24} {:>9}",
        "name", "full name", "category", "mean x"
    );
    for b in Benchmark::ALL {
        println!(
            "{:<14} {:<22} {:<24} {:>9.2}",
            b.name(),
            b.full_name(),
            b.category().to_string(),
            b.mean_speedup()
        );
    }
    Ok(())
}

/// `sprint monitor`: rolling health snapshots from a live run or a
/// recorded JSONL trace.
///
/// Recorded mode (`--trace FILE.jsonl`) folds the trace through the
/// health aggregator and renders a snapshot line every `--every` epochs;
/// `--follow true` keeps tailing the file until its `RunEnd` arrives.
/// Live mode (`--benchmark ...`) runs the scenario on a worker thread
/// publishing into a lock-free ring; the monitor drains the ring
/// concurrently and renders rolling snapshots without ever blocking the
/// engine. `--json true` prints the final health snapshot as JSON
/// instead of the rolling lines.
pub fn monitor(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&[
        "trace",
        "follow",
        "every",
        "json",
        "benchmark",
        "policy",
        "agents",
        "epochs",
        "seed",
        "jobs",
        "decisions",
        "prometheus",
        "flamegraph",
    ])?;
    let every: u64 = args.get_parsed("every", 100)?;
    let every = every.max(1);
    let json = args.get_bool("json", false)?;
    if let Some(path) = args.get("trace") {
        if args.get("benchmark").is_some() {
            return Err(ArgError("--trace and --benchmark are mutually exclusive".into()).into());
        }
        let follow = args.get_bool("follow", false)?;
        monitor_recorded(path, follow, every, json)
    } else if args.get("benchmark").is_some() {
        monitor_live(args, every, json)
    } else {
        Err(ArgError("monitor needs --trace FILE.jsonl or --benchmark <name>".into()).into())
    }
}

/// Tail a recorded JSONL trace into rolling health snapshots.
///
/// Unparseable lines are never fatal: they count into the snapshot's
/// `dropped_events` so truncation is visible, not silent. Elapsed time
/// is unknown for a recording, so rate fields derived from wall time
/// (`epochs_per_sec`) read zero and the output is deterministic for a
/// given trace.
fn monitor_recorded(path: &str, follow: bool, every: u64, json: bool) -> Result<(), CliError> {
    use std::io::BufRead;

    let file = std::fs::File::open(path)
        .map_err(|e| CliError::Run(format!("cannot open trace {path}: {e}").into()))?;
    let mut reader = std::io::BufReader::new(file);
    let mut agg = HealthAggregator::default();
    let mut unparseable = 0u64;
    let mut last_printed = 0u64;
    let mut line = String::new();
    let mut pending = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(run_err)?;
        if n == 0 {
            if follow && !agg.finished() {
                std::thread::sleep(std::time::Duration::from_millis(50));
                continue;
            }
            // A trailing unterminated line still counts at end of file.
            if !pending.trim().is_empty() {
                fold_line(&mut agg, pending.trim(), &mut unparseable);
            }
            break;
        }
        pending.push_str(&line);
        if !pending.ends_with('\n') {
            // Mid-write partial line; wait for the writer to finish it.
            continue;
        }
        fold_line(&mut agg, pending.trim(), &mut unparseable);
        pending.clear();
        if !json && agg.epochs() >= last_printed + every {
            last_printed = agg.epochs();
            println!("{}", agg.snapshot(0, unparseable).render_line());
        }
        if follow && agg.finished() {
            break;
        }
    }
    let snapshot = agg.snapshot(0, unparseable);
    if json {
        let s = serde_json::to_string_pretty(&snapshot).map_err(run_err)?;
        println!("{s}");
    } else {
        println!("{}", snapshot.render_line());
    }
    Ok(())
}

fn fold_line(agg: &mut HealthAggregator, line: &str, unparseable: &mut u64) {
    match serde_json::from_str::<Event>(line) {
        Ok(event) => agg.fold(&event),
        Err(_) => *unparseable += 1,
    }
}

/// Run a scenario live on a worker thread and monitor it from this one.
///
/// The engine publishes into a single-producer ring segment; the monitor
/// thread drains it concurrently, so observation never takes a lock the
/// engine could block on. The decision firehose is filtered at the ring
/// (severity gate) unless `--decisions true`.
fn monitor_live(args: &ParsedArgs, every: u64, json: bool) -> Result<(), CliError> {
    let run = parse_run_spec(args)?;
    let policy = run.policy;
    let seed = run.seed;
    let jobs = parse_jobs(args)?;
    let decisions = args.get_bool("decisions", false)?;

    let scenario = run.scenario().map_err(run_err)?;
    let mut config = RingConfig::default();
    if !decisions {
        config = config.with_min_severity(Severity::Info);
    }
    let (mut ring, mut producers) = EventRing::with_config(1, &config);
    let producer = producers.pop().expect("one producer was requested");

    let started = std::time::Instant::now();
    let mut agg = HealthAggregator::default();
    let mut last_printed = 0u64;
    let (result, mut kit) = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let mut kit = Telemetry::new(Box::new(producer), SpanProfile::monotonic());
            let result = scenario.execute(policy, seed, jobs, &mut kit);
            (result, kit)
        });
        while !handle.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(25));
            agg.fold_all(&ring.drain());
            if !json && agg.epochs() >= last_printed + every {
                last_printed = agg.epochs();
                let snap = agg.snapshot(started.elapsed().as_nanos() as u64, ring.dropped());
                println!("{}", snap.render_line());
            }
        }
        handle.join().expect("monitored run panicked")
    });
    let result = result.map_err(run_err)?;
    agg.fold_all(&ring.drain());
    ring.export_metrics(&mut kit.registry);
    let elapsed = started.elapsed().as_nanos() as u64;
    let snapshot = agg.snapshot_with_registry(elapsed, ring.dropped(), &kit.registry);
    if json {
        let s = serde_json::to_string_pretty(&snapshot).map_err(run_err)?;
        println!("{s}");
    } else {
        println!("{}", snapshot.render_line());
        println!("tasks/agent-epoch   {:.4}", result.tasks_per_agent_epoch());
        println!("power emergencies   {}", result.trips());
    }
    write_exports(args, &kit.registry.snapshot(), &kit.spans.report())
}

/// `sprint serve`: boot the rack-as-a-service daemon and block until it
/// is drained (POST /v1/drain) and every accepted job has finished.
pub fn serve(args: &ParsedArgs) -> Result<(), CliError> {
    args.expect_only(&[
        "addr",
        "workers",
        "jobs",
        "jobs-cap",
        "spool",
        "event-log",
        "snapshot-ms",
        "journal",
        "max-queue",
        "rate-limit",
        "client-jobs",
    ])?;
    let rate_limit = args
        .get("rate-limit")
        .map(|raw| {
            raw.parse::<f64>()
                .ok()
                .filter(|r| *r > 0.0)
                .ok_or_else(|| ArgError(format!("invalid --rate-limit `{raw}`")))
        })
        .transpose()?;
    let config = ServeConfig {
        addr: args.get_or("addr", "127.0.0.1:7077"),
        workers: args.get_parsed("workers", 2)?,
        jobs: args.get_parsed("jobs", 1)?,
        jobs_cap: args.get_parsed("jobs-cap", 0)?,
        spool: args.get("spool").map(std::path::PathBuf::from),
        event_log: args.get("event-log").map(std::path::PathBuf::from),
        snapshot_every_ms: args.get_parsed("snapshot-ms", 200)?,
        journal: args.get("journal").map(std::path::PathBuf::from),
        admission: AdmissionConfig {
            max_queue: args.get_parsed("max-queue", 0)?,
            rate_limit,
            client_jobs: args.get_parsed("client-jobs", 0)?,
        },
    };
    let handle = Daemon::start(&config).map_err(run_err)?;
    // Machine-readable announcement on stdout: the kill-restart harness
    // (and scripts) scrape this line for the resolved ephemeral port.
    println!("{}", harness::addr_line(&handle.addr()));
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!("sprint serve listening on http://{}", handle.addr());
    eprintln!("  POST /v1/jobs[?wait=true]    submit a JobSpec (run | sweep | chaos)");
    eprintln!("  GET  /v1/jobs[/ID[/report]]  job table, status, canonical JobReport");
    eprintln!("  POST /v1/jobs/ID/cancel      cancel a queued or running job");
    eprintln!("  GET  /v1/events              live health snapshots (SSE)");
    eprintln!("  GET  /v1/health /v1/metrics /v1/version");
    eprintln!("  POST /v1/drain               stop accepting, finish in-flight, exit");
    handle.join().map_err(run_err)
}

/// Dispatch a parsed command line.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, bad flags, or execution
/// failures.
pub fn dispatch(args: &ParsedArgs) -> Result<(), CliError> {
    match args.command() {
        "solve" => solve(args),
        "simulate" => simulate(args),
        "trace" => trace(args),
        "report" => report(args),
        "monitor" => monitor(args),
        "compare" => compare(args),
        "sweep" => sweep(args),
        "chaos" => chaos(args),
        "cluster" => cluster(args),
        "serve" => serve(args),
        "derive-params" => derive_params(args),
        "benchmarks" => benchmarks(args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(ArgError(format!("unknown command `{other}`; try `sprint help`")).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(args.iter().copied()).unwrap()
    }

    #[test]
    fn dispatch_rejects_unknown_command() {
        assert!(dispatch(&parsed(&["frobnicate"])).is_err());
    }

    #[test]
    fn monitor_replays_a_recorded_trace() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/src/testdata/trace_greedy_40x60_seed7.jsonl"
        );
        monitor(&parsed(&["monitor", "--trace", path, "--every", "25"])).unwrap();
        monitor(&parsed(&["monitor", "--trace", path, "--json", "true"])).unwrap();
    }

    #[test]
    fn monitor_rejects_conflicting_or_missing_sources() {
        assert!(monitor(&parsed(&["monitor"])).is_err());
        assert!(monitor(&parsed(&[
            "monitor",
            "--trace",
            "x.jsonl",
            "--benchmark",
            "svm"
        ]))
        .is_err());
        assert!(monitor(&parsed(&["monitor", "--trace", "/nonexistent/x.jsonl"])).is_err());
    }

    #[test]
    fn monitor_live_exports_prometheus_and_flamegraph() {
        let stamp = format!("{}-{:?}", std::process::id(), std::thread::current().id());
        let prom = std::env::temp_dir().join(format!("sprint-mon-{stamp}.prom"));
        let folded = std::env::temp_dir().join(format!("sprint-mon-{stamp}.folded"));
        monitor(&parsed(&[
            "monitor",
            "--benchmark",
            "decision",
            "--policy",
            "g",
            "--agents",
            "40",
            "--epochs",
            "60",
            "--seed",
            "7",
            "--prometheus",
            prom.to_str().unwrap(),
            "--flamegraph",
            folded.to_str().unwrap(),
        ]))
        .unwrap();
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        let _ = std::fs::remove_file(&prom);
        assert!(
            prom_text.contains("# TYPE engine_epochs_total counter"),
            "{prom_text}"
        );
        assert!(prom_text.contains("engine_epochs_total 60"), "{prom_text}");
        assert!(
            prom_text.contains("ring_published_total"),
            "ring accounting must be scrapeable: {prom_text}"
        );
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        let _ = std::fs::remove_file(&folded);
        assert!(
            folded_text.contains("engine.epoch;engine.decide "),
            "nested engine spans must fold into stacks: {folded_text}"
        );
    }

    /// Run `sprint trace` into a temp file and return the bytes written.
    fn trace_bytes(extra: &[&str]) -> Vec<u8> {
        let path = std::env::temp_dir().join(format!(
            "sprint-trace-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut args = vec!["trace"];
        args.extend_from_slice(extra);
        args.push("--out");
        args.push(path.to_str().unwrap());
        trace(&parsed(&args)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    }

    #[test]
    fn trace_output_matches_the_golden_bytes() {
        // Regression pins for the engine's event stream: any change to
        // the RNG layout, draw coordinates, accumulation order, or event
        // ordering shows up here as a byte diff. Regenerate with
        //   sprint trace ... --out crates/cli/src/testdata/<name>.jsonl
        // only when such a change is intentional.
        let greedy = trace_bytes(&[
            "--benchmark",
            "decision",
            "--policy",
            "g",
            "--agents",
            "40",
            "--epochs",
            "60",
            "--seed",
            "7",
        ]);
        assert_eq!(
            greedy,
            include_bytes!("testdata/trace_greedy_40x60_seed7.jsonl"),
            "greedy trace diverged from the golden file"
        );
        let et = trace_bytes(&[
            "--benchmark",
            "svm",
            "--policy",
            "e-t",
            "--agents",
            "40",
            "--epochs",
            "60",
            "--seed",
            "11",
        ]);
        assert_eq!(
            et,
            include_bytes!("testdata/trace_et_40x60_seed11.jsonl"),
            "e-t trace (solver events included) diverged from the golden file"
        );
    }

    #[test]
    fn trace_bytes_are_identical_at_any_job_count() {
        let base = [
            "--benchmark",
            "kmeans",
            "--policy",
            "e-t",
            "--agents",
            "50",
            "--epochs",
            "40",
            "--seed",
            "3",
        ];
        let serial = trace_bytes(&base);
        for jobs in ["2", "4"] {
            let mut args = base.to_vec();
            args.extend_from_slice(&["--jobs", jobs]);
            assert_eq!(serial, trace_bytes(&args), "jobs = {jobs}");
        }
    }

    #[test]
    fn solve_requires_benchmark() {
        assert!(solve(&parsed(&["solve"])).is_err());
        assert!(solve(&parsed(&["solve", "--benchmark", "nosuch"])).is_err());
        assert!(solve(&parsed(&["solve", "--benchmark", "decision"])).is_ok());
    }

    #[test]
    fn solve_rejects_unknown_flags_and_bad_config() {
        assert!(solve(&parsed(&[
            "solve",
            "--benchmark",
            "decision",
            "--bogus",
            "1"
        ]))
        .is_err());
        assert!(solve(&parsed(&[
            "solve",
            "--benchmark",
            "decision",
            "--discount",
            "1.5"
        ]))
        .is_err());
    }

    #[test]
    fn simulate_runs_small() {
        let args = parsed(&[
            "simulate",
            "--benchmark",
            "svm",
            "--policy",
            "g",
            "--agents",
            "20",
            "--epochs",
            "10",
        ]);
        assert!(simulate(&args).is_ok());
    }

    #[test]
    fn simulate_json_output_runs() {
        let args = parsed(&[
            "simulate",
            "--benchmark",
            "svm",
            "--policy",
            "e-t",
            "--agents",
            "20",
            "--epochs",
            "10",
            "--json",
            "true",
        ]);
        assert!(simulate(&args).is_ok());
    }

    #[test]
    fn simulate_with_telemetry_runs() {
        let args = parsed(&[
            "simulate",
            "--benchmark",
            "svm",
            "--policy",
            "g",
            "--agents",
            "20",
            "--epochs",
            "10",
            "--telemetry",
            "true",
        ]);
        assert!(simulate(&args).is_ok());
        let json = parsed(&[
            "simulate",
            "--benchmark",
            "svm",
            "--policy",
            "g",
            "--agents",
            "20",
            "--epochs",
            "10",
            "--telemetry",
            "true",
            "--json",
            "true",
        ]);
        assert!(simulate(&json).is_ok());
    }

    #[test]
    fn trace_writes_deterministic_jsonl() {
        let dir = std::env::temp_dir();
        let path_a = dir.join("sprint-trace-test-a.jsonl");
        let path_b = dir.join("sprint-trace-test-b.jsonl");
        for path in [&path_a, &path_b] {
            let args = parsed(&[
                "trace",
                "--benchmark",
                "svm",
                "--policy",
                "e-t",
                "--agents",
                "20",
                "--epochs",
                "15",
                "--seed",
                "3",
                "--out",
                path.to_str().unwrap(),
            ]);
            assert!(trace(&args).is_ok());
        }
        let a = std::fs::read(&path_a).unwrap();
        let b = std::fs::read(&path_b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "repeated traces must be byte-identical");
        let text = String::from_utf8(a).unwrap();
        assert!(text.lines().all(|l| l.starts_with('{') || !l.contains('{')));
        assert!(text.contains("EpochTick"));
        assert!(text.contains("SolverOutcome"));
        assert!(!text.contains("SprintDecision"), "firehose is opt-in");
        let _ = std::fs::remove_file(path_a);
        let _ = std::fs::remove_file(path_b);
    }

    #[test]
    fn trace_includes_decisions_on_request() {
        let dir = std::env::temp_dir();
        let path = dir.join("sprint-trace-test-decisions.jsonl");
        let args = parsed(&[
            "trace",
            "--benchmark",
            "svm",
            "--policy",
            "g",
            "--agents",
            "5",
            "--epochs",
            "5",
            "--decisions",
            "true",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(trace(&args).is_ok());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("SprintDecision"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn report_runs_text_and_json() {
        let args = parsed(&[
            "report",
            "--benchmark",
            "svm",
            "--policy",
            "e-t",
            "--agents",
            "20",
            "--epochs",
            "15",
        ]);
        assert!(report(&args).is_ok());
        let json = parsed(&[
            "report",
            "--benchmark",
            "svm",
            "--policy",
            "g",
            "--agents",
            "20",
            "--epochs",
            "15",
            "--json",
            "true",
        ]);
        assert!(report(&json).is_ok());
        assert!(report(&parsed(&["report"])).is_err());
    }

    #[test]
    fn policy_aliases_parse() {
        assert_eq!(parse_policy("greedy").unwrap(), PolicyKind::Greedy);
        assert_eq!(
            parse_policy("E-T").unwrap(),
            PolicyKind::EquilibriumThreshold
        );
        assert_eq!(
            parse_policy("ct").unwrap(),
            PolicyKind::CooperativeThreshold
        );
        assert!(parse_policy("random").is_err());
    }

    #[test]
    fn cluster_runs_small() {
        let args = parsed(&[
            "cluster",
            "--benchmark",
            "decision",
            "--racks",
            "2",
            "--agents-per-rack",
            "20",
            "--epochs",
            "30",
        ]);
        assert!(cluster(&args).is_ok());
        // Inverted facility band is rejected.
        let bad = parsed(&[
            "cluster",
            "--benchmark",
            "decision",
            "--racks",
            "2",
            "--agents-per-rack",
            "20",
            "--epochs",
            "30",
            "--facility-n-min",
            "100",
            "--facility-n-max",
            "50",
        ]);
        assert!(cluster(&bad).is_err());
    }

    #[test]
    fn derive_params_scales() {
        assert!(derive_params(&parsed(&["derive-params", "--servers", "100"])).is_ok());
        assert!(derive_params(&parsed(&["derive-params", "--servers", "0"])).is_err());
    }

    #[test]
    fn compare_validates_seeds() {
        let args = parsed(&[
            "compare",
            "--benchmark",
            "als",
            "--agents",
            "20",
            "--epochs",
            "10",
            "--seeds",
            "0",
        ]);
        assert!(compare(&args).is_err());
    }

    #[test]
    fn sweep_runs_inline_spec() {
        let args = parsed(&[
            "sweep",
            "--benchmark",
            "svm",
            "--agents",
            "20",
            "--epochs",
            "15",
            "--seeds",
            "2",
            "--jobs",
            "2",
        ]);
        assert!(sweep(&args).is_ok());
        assert!(sweep(&parsed(&["sweep", "--benchmark", "svm", "--seeds", "0"])).is_err());
        assert!(sweep(&parsed(&["sweep", "--bogus", "1"])).is_err());
    }

    #[test]
    fn sweep_print_spec_round_trips() {
        assert!(sweep(&parsed(&["sweep", "--print-spec", "true"])).is_ok());
    }

    #[test]
    fn sweep_accepts_spec_file_and_writes_records() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sprint-sweep-test-spec.json");
        let records_path = dir.join("sprint-sweep-test-records.jsonl");
        let mut spec = SweepSpec::example();
        spec.populations[0].agents = 20;
        spec.epochs = 10;
        spec.games.truncate(1);
        spec.policies.truncate(2);
        spec.seeds.truncate(2);
        std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();
        let args = parsed(&[
            "sweep",
            "--spec",
            spec_path.to_str().unwrap(),
            "--jobs",
            "2",
            "--json",
            "true",
            "--records",
            records_path.to_str().unwrap(),
            "--telemetry",
            "true",
        ]);
        assert!(sweep(&args).is_ok());
        let records = std::fs::read_to_string(&records_path).unwrap();
        assert_eq!(records.lines().count(), 4, "2 policies x 2 seeds");
        assert!(records.lines().all(|l| l.starts_with('{')));
        // --spec excludes the inline shape flags.
        let conflicted = parsed(&[
            "sweep",
            "--spec",
            spec_path.to_str().unwrap(),
            "--benchmark",
            "svm",
        ]);
        assert!(sweep(&conflicted).is_err());
        let _ = std::fs::remove_file(spec_path);
        let _ = std::fs::remove_file(records_path);
    }

    #[test]
    fn sweep_accepts_a_versioned_jobspec_file() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sprint-sweep-test-jobspec.json");
        let mut spec = SweepSpec::example();
        spec.populations[0].agents = 20;
        spec.epochs = 10;
        spec.games.truncate(1);
        spec.policies.truncate(1);
        spec.seeds.truncate(1);
        let job = JobSpec::new(JobKind::Sweep { spec });
        std::fs::write(&spec_path, serde_json::to_string(&job).unwrap()).unwrap();
        let args = parsed(&["sweep", "--spec", spec_path.to_str().unwrap()]);
        assert!(sweep(&args).is_ok());
        // A versioned file of the wrong job kind is a flag error, not a
        // silent misparse.
        let run_job = JobSpec::new(JobKind::Run {
            spec: RunSpec {
                benchmark: "svm".to_string(),
                policy: PolicyKind::Greedy,
                agents: 20,
                epochs: 10,
                seed: 1,
                jobs: None,
            },
        });
        std::fs::write(&spec_path, serde_json::to_string(&run_job).unwrap()).unwrap();
        let err = sweep(&parsed(&["sweep", "--spec", spec_path.to_str().unwrap()]))
            .expect_err("a run job is not a sweep spec");
        assert!(err.to_string().contains("run job"), "{err}");
        let _ = std::fs::remove_file(spec_path);
    }

    #[test]
    fn chaos_runs_small_and_validates() {
        let args = parsed(&[
            "chaos",
            "--benchmark",
            "svm",
            "--agents",
            "20",
            "--epochs",
            "15",
            "--seeds",
            "1",
        ]);
        assert!(chaos(&args).is_ok());
        let json = parsed(&[
            "chaos",
            "--benchmark",
            "svm",
            "--agents",
            "20",
            "--epochs",
            "15",
            "--seeds",
            "1",
            "--json",
            "true",
        ]);
        assert!(chaos(&json).is_ok());
        let bad = parsed(&["chaos", "--benchmark", "svm", "--seeds", "0"]);
        assert!(chaos(&bad).is_err());
    }

    #[test]
    fn chaos_partition_runs_and_archives_the_report() {
        let report_path = std::env::temp_dir().join("sprint-chaos-partition-report.json");
        let args = parsed(&[
            "chaos",
            "--benchmark",
            "svm",
            "--agents",
            "20",
            "--epochs",
            "120",
            "--seeds",
            "2",
            "--partition",
            "true",
            "--partition-epochs",
            "3",
            "--report",
            report_path.to_str().unwrap(),
        ]);
        assert!(chaos(&args).is_ok());
        let text = std::fs::read_to_string(&report_path).unwrap();
        let report: sprint_sim::runner::ResilienceReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report.trials.len(), 2);
        assert_eq!(report.invariant_violations, 0);
        let _ = std::fs::remove_file(report_path);
        // The partition-only flags require --partition true.
        let orphan = parsed(&[
            "chaos",
            "--benchmark",
            "svm",
            "--agents",
            "20",
            "--epochs",
            "15",
            "--seeds",
            "1",
            "--partition-epochs",
            "3",
        ]);
        assert!(chaos(&orphan).is_err());
    }

    #[test]
    fn chaos_adversaries_runs_and_archives_the_report() {
        let report_path = std::env::temp_dir().join("sprint-chaos-adversary-report.json");
        let args = parsed(&[
            "chaos",
            "--benchmark",
            "svm",
            "--agents",
            "40",
            "--epochs",
            "300",
            "--seeds",
            "1",
            "--adversaries",
            "0.1",
            "--report",
            report_path.to_str().unwrap(),
        ]);
        assert!(chaos(&args).is_ok());
        let text = std::fs::read_to_string(&report_path).unwrap();
        let report: sprint_sim::AdversaryReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report.trials.len(), 1);
        assert_eq!(report.false_positive_exclusions, 0);
        let _ = std::fs::remove_file(report_path);
        // Kind-specific flags demand the matching kind.
        let mismatched = parsed(&[
            "chaos",
            "--benchmark",
            "svm",
            "--agents",
            "20",
            "--epochs",
            "15",
            "--adversaries",
            "0.1",
            "--clique-period",
            "4",
        ]);
        assert!(chaos(&mismatched).is_err());
        // Adversary flags without --adversaries are rejected.
        let orphan = parsed(&[
            "chaos",
            "--benchmark",
            "svm",
            "--agents",
            "20",
            "--epochs",
            "15",
            "--adversary-kind",
            "greedy_defector",
        ]);
        assert!(chaos(&orphan).is_err());
        // --partition and --adversaries are mutually exclusive.
        let both = parsed(&[
            "chaos",
            "--benchmark",
            "svm",
            "--partition",
            "true",
            "--adversaries",
            "0.1",
        ]);
        assert!(chaos(&both).is_err());
    }

    #[test]
    fn sweep_accepts_a_trial_deadline() {
        let args = parsed(&[
            "sweep",
            "--benchmark",
            "svm",
            "--agents",
            "20",
            "--epochs",
            "15",
            "--seeds",
            "1",
            "--trial-deadline",
            "60000",
        ]);
        assert!(sweep(&args).is_ok());
        let bad = parsed(&["sweep", "--benchmark", "svm", "--trial-deadline", "soon"]);
        assert!(sweep(&bad).is_err());
    }

    #[test]
    fn benchmarks_lists() {
        assert!(benchmarks(&parsed(&["benchmarks"])).is_ok());
        assert!(benchmarks(&parsed(&["benchmarks", "--x", "1"])).is_err());
    }
}

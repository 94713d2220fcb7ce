//! The unified job API: one canonical, versioned [`JobSpec`] /
//! [`JobReport`] pair that both CLI subcommands and HTTP endpoints
//! construct and consume.
//!
//! Determinism contract: a [`JobReport`] is a function of its
//! [`JobSpec`] alone. Every equilibrium solve on the shared
//! [`EquilibriumCache`] runs *cold* ([`EquilibriumCache::solve`], from
//! `P_trip = 1`), so whatever the cache already holds — from earlier
//! CLI invocations or other daemon clients — can never leak into report
//! bytes. An HTTP-submitted job therefore serializes byte-identically to
//! the same spec run locally, and [`report_json`] is the single place
//! those canonical bytes are produced.
//!
//! Runtime knobs that affect wall-clock behavior but never report bytes
//! (worker fan-out, trial supervision) live in [`ExecOptions`], outside
//! the spec.

use sprint_game::EquilibriumCache;
use sprint_sim::control::{ControlConfig, DetectorConfig};
use sprint_sim::engine::{self, CancelToken, Interrupt, RunGuard, SimConfig};
use sprint_sim::faults::FaultPlan;
use sprint_sim::policy::{PolicyKind, SprintPolicy};
use sprint_sim::runner::{self, ChaosReport, ResilienceReport};
use sprint_sim::scenario::{Scenario, SolveSummary};
use sprint_sim::sweep::{run_sweep_shared, Supervision, SweepSpec};
use sprint_sim::telemetry::Telemetry;
use sprint_sim::{AdversaryMix, AdversaryReport, SweepReport};
use sprint_workloads::Benchmark;

use crate::error::ServeError;

/// The current wire-format version of [`JobSpec`] and [`JobReport`].
///
/// Version history:
/// - **1** — the original unified spec (`schema_version` + `job`).
/// - **2** — adds the optional per-job `deadline_ms` wall-clock budget.
///
/// Specs without a `schema_version` field parse as the current version
/// (the field was optional from day one); explicit versions `1..=2` are
/// accepted and **up-converted** to the current version (`deadline_ms`
/// defaults to none), so reports always echo a current-version spec.
/// Versions above this constant are rejected so a newer client cannot
/// silently submit fields an older daemon ignores.
pub const SCHEMA_VERSION: u32 = 2;

fn job_err<E: std::error::Error>(e: E) -> ServeError {
    ServeError::Job(e.to_string())
}

/// One simulation run: a benchmark, a policy, and the knobs that shape
/// the scenario. The typed replacement for `sprint simulate`'s (and
/// trace/report/monitor's) flag plumbing.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RunSpec {
    /// Benchmark name (see `sprint benchmarks`).
    pub benchmark: String,
    /// Sprinting policy to run.
    pub policy: PolicyKind,
    /// Rack size.
    pub agents: u32,
    /// Simulated epochs.
    pub epochs: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Requested intra-run thread budget (the engine's persistent worker
    /// pool size). `None` defers to the executor's default; `Some(0)`
    /// asks for all available cores. The daemon clamps the request to
    /// its `--jobs-cap` so HTTP clients can use the pool without
    /// oversubscribing the host. Reports are byte-identical at every
    /// value, so this knob shapes wall-clock only, never results.
    ///
    /// Absent on the wire unless set: pre-pool specs keep their exact
    /// bytes (the journal replay and report byte-identity gates pin
    /// them), and echoed reports only mention the knob when the client
    /// asked for it.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub jobs: Option<u64>,
}

impl RunSpec {
    /// Resolve this spec into a [`Scenario`] — the one place run-shaped
    /// commands (simulate, trace, report, monitor) turn flags into a
    /// simulation.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an unknown benchmark,
    /// [`ServeError::Job`] for invalid scenario parameters.
    pub fn scenario(&self) -> crate::Result<Scenario> {
        let benchmark = Benchmark::from_name(&self.benchmark).ok_or_else(|| {
            ServeError::BadRequest(format!(
                "unknown benchmark `{}`; see `sprint benchmarks`",
                self.benchmark
            ))
        })?;
        Scenario::homogeneous(benchmark, self.agents, self.epochs).map_err(job_err)
    }
}

/// Which chaos suite a [`ChaosSpec`] runs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub enum ChaosMode {
    /// The policy × fault-plan resilience matrix over the standard
    /// fault suite.
    Matrix,
    /// The control-plane partition-resilience suite.
    Partition {
        /// Epoch the partition starts (default: halfway through the run).
        start: Option<usize>,
        /// Partition duration in epochs.
        duration: usize,
    },
    /// The adversary-defense suite: a misbehaving fraction of the rack
    /// against the coordinator's detector and graduated sanctions.
    Adversaries {
        /// The adversary population specification.
        mix: AdversaryMix,
    },
}

/// One chaos job: the scenario shape plus which suite to run against it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChaosSpec {
    /// Benchmark name.
    pub benchmark: String,
    /// Rack size.
    pub agents: u32,
    /// Simulated epochs per trial.
    pub epochs: usize,
    /// Number of trial seeds (trials run seeds `1..=seeds`).
    pub seeds: u64,
    /// Seed for fault-plan and adversary randomness.
    pub fault_seed: u64,
    /// Which suite to run.
    pub mode: ChaosMode,
}

/// The job payload: what kind of work to run, with its full typed spec.
///
/// One lives per job; the size skew between variants is irrelevant and
/// boxing would leak into the derived JSON shape.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub enum JobKind {
    /// One simulation run.
    Run {
        /// The run spec.
        spec: RunSpec,
    },
    /// A declarative multi-trial sweep.
    Sweep {
        /// The sweep spec.
        spec: SweepSpec,
    },
    /// A chaos suite.
    Chaos {
        /// The chaos spec.
        spec: ChaosSpec,
    },
}

/// The canonical, versioned job submission — the one type every CLI
/// subcommand builds from its flags and every HTTP client posts to
/// `/v1/jobs`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct JobSpec {
    /// Wire-format version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The work to run.
    pub job: JobKind,
    /// Wall-clock budget for the job's execution, in milliseconds
    /// (schema v2). The clock starts when a worker picks the job up,
    /// not at submission; the run is abandoned at the next cooperative
    /// epoch checkpoint past the budget with a typed
    /// [`JobOutcome::DeadlineExceeded`]. `None` means unbounded, and
    /// is absent on the wire, so v1-shaped specs keep their exact v1
    /// bytes, which the report byte-identity gates pin.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
}

// Hand-written so `schema_version` defaults for specs written before
// versioning existed, old versions up-convert, and unsupported versions
// and unknown fields fail loudly instead of parsing to something the
// executor half-understands.
impl serde::Deserialize for JobSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let Some(obj) = value.as_object() else {
            return Err(serde::DeError::type_mismatch("object", value));
        };
        let field = |name| serde::__field(obj, name);
        let schema_version: u32 = match field("schema_version") {
            Some(v) => serde::Deserialize::from_value(v)?,
            None => SCHEMA_VERSION,
        };
        if schema_version == 0 || schema_version > SCHEMA_VERSION {
            return Err(serde::DeError::custom(format!(
                "unsupported schema_version {schema_version}; this build speaks 1..={SCHEMA_VERSION}"
            )));
        }
        // For the same reason as the version check: a field this build
        // does not read, a typo included, must not pass silently.
        if let Some((key, _)) = obj
            .iter()
            .find(|(key, _)| !matches!(key.as_str(), "schema_version" | "job" | "deadline_ms"))
        {
            return Err(serde::DeError::custom(format!(
                "unknown field `{key}` in `JobSpec`"
            )));
        }
        Ok(JobSpec {
            // Accepted old versions are up-converted on entry: the rest
            // of the system (executor, reports, journal) only ever sees
            // current-version specs.
            schema_version: SCHEMA_VERSION,
            job: match field("job") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => return Err(serde::DeError::custom("missing field `job` in `JobSpec`")),
            },
            deadline_ms: match field("deadline_ms") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => None,
            },
        })
    }
}

impl JobSpec {
    /// Wrap a job payload at the current schema version.
    #[must_use]
    pub fn new(job: JobKind) -> Self {
        JobSpec {
            schema_version: SCHEMA_VERSION,
            job,
            deadline_ms: None,
        }
    }

    /// This spec with a wall-clock execution budget.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Parse a job spec from JSON text.
    ///
    /// Legacy compatibility: a bare [`SweepSpec`] document (the format
    /// `sprint sweep --spec` accepted before the unified API) still
    /// parses, wrapped as a [`JobKind::Sweep`] at version 1.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the text is neither a [`JobSpec`]
    /// nor a legacy sweep spec. It names the legacy spec's defect when
    /// the text is an object without a `job` key, which only a legacy
    /// sweep spec is, and the [`JobSpec`] one otherwise.
    pub fn parse_json(text: &str) -> crate::Result<JobSpec> {
        match serde_json::from_str::<JobSpec>(text) {
            Ok(spec) => Ok(spec),
            Err(primary) => match serde_json::from_str::<SweepSpec>(text) {
                Ok(sweep) => Ok(JobSpec::new(JobKind::Sweep { spec: sweep })),
                Err(legacy) => {
                    let is_legacy = serde_json::from_str_value(text).is_ok_and(|value| {
                        value
                            .as_object()
                            .is_some_and(|obj| serde::__field(obj, "job").is_none())
                    });
                    Err(ServeError::BadRequest(if is_legacy {
                        format!("invalid legacy sweep spec: {legacy}")
                    } else {
                        format!("invalid job spec: {primary}")
                    }))
                }
            },
        }
    }
}

/// The distilled result of one [`RunSpec`] execution: the spec echoed
/// back plus the simulation-time facts (never wall-clock ones).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunSummary {
    /// Benchmark name.
    pub benchmark: String,
    /// Policy that ran.
    pub policy: PolicyKind,
    /// Rack size.
    pub agents: u32,
    /// Simulated epochs.
    pub epochs: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Normalized throughput.
    pub tasks_per_agent_epoch: f64,
    /// Total tasks completed across the rack.
    pub total_tasks: f64,
    /// Power emergencies (breaker trips).
    pub trips: u32,
    /// Mean concurrent sprinters per epoch.
    pub mean_sprinters: f64,
    /// State occupancy fractions: active, cooling, recovery, sprinting.
    pub occupancy: [f64; 4],
    /// Offline-solve convergence facts (E-T only).
    pub solve: Option<SolveSummary>,
}

/// The chaos suite's report, tagged by mode.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ChaosOutcome {
    /// Matrix-mode report.
    Matrix {
        /// The policy × fault-plan matrix.
        report: ChaosReport,
    },
    /// Partition-mode report.
    Partition {
        /// The control-plane resilience report.
        report: ResilienceReport,
    },
    /// Adversary-mode report.
    Adversaries {
        /// The adversary-defense report.
        report: AdversaryReport,
    },
}

/// The result payload of one job, shaped like its [`JobKind`].
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum JobOutcome {
    /// A run's summary.
    Run {
        /// The distilled run result.
        report: RunSummary,
    },
    /// A sweep's full report.
    Sweep {
        /// The sweep report.
        report: SweepReport,
    },
    /// A chaos suite's report.
    Chaos {
        /// The mode-tagged chaos report.
        report: ChaosOutcome,
    },
    /// The job was cancelled (`POST /v1/jobs/{id}/cancel`) before it
    /// produced a result; execution stopped at the next cooperative
    /// epoch checkpoint.
    Cancelled,
    /// The job ran past its [`JobSpec::deadline_ms`] budget and was
    /// abandoned at the next cooperative epoch checkpoint.
    DeadlineExceeded {
        /// The budget that was exceeded, in milliseconds.
        limit_ms: u64,
    },
}

/// The canonical job result: the spec that produced it (full
/// provenance) plus the outcome, versioned like the spec.
///
/// [`report_json`] serializes this to the canonical bytes both
/// `sprint <cmd> --json` and `GET /v1/jobs/{id}/report` emit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobReport {
    /// Wire-format version (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The spec this report answers.
    pub spec: JobSpec,
    /// The result payload.
    pub outcome: JobOutcome,
}

/// Host/runtime execution knobs: these shape how fast a job runs, never
/// what its report says, so they live outside the [`JobSpec`].
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Thread budget (engine threads for runs, the trial pool's total
    /// budget for sweeps and chaos suites). `0` sizes to the available
    /// cores. Reports are byte-identical at every job count.
    pub jobs: usize,
    /// Ceiling on the per-run thread budget a [`RunSpec::jobs`] request
    /// can claim. `0` caps at the available cores. The daemon sets this
    /// from `--jobs-cap` so one HTTP client cannot oversubscribe the
    /// host underneath the other workers.
    pub jobs_cap: usize,
    /// Sweep trial supervision (deadline, retries).
    pub supervision: Supervision,
    /// Shared cancellation token for this execution, checked at the
    /// engine's epoch checkpoints. The daemon passes each job's token
    /// here so `POST /v1/jobs/{id}/cancel` can reach a run in flight;
    /// [`execute`] also arms it with the spec's `deadline_ms`.
    pub cancel: Option<CancelToken>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            jobs: 1,
            jobs_cap: 0,
            supervision: Supervision::default(),
            cancel: None,
        }
    }
}

fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    }
}

/// Resolve a run's intra-run thread budget. The cap binds only the
/// *spec's* request — that side comes from untrusted HTTP clients; the
/// executor's own `opts.jobs` is the operator's word and passes through
/// untouched. Byte-identity across job counts makes the clamp silent-safe.
fn resolve_run_jobs(requested: Option<u64>, opts: &ExecOptions) -> usize {
    match requested {
        Some(jobs) => {
            let asked = usize::try_from(jobs).unwrap_or(0);
            effective_jobs(asked).min(effective_jobs(opts.jobs_cap))
        }
        None => effective_jobs(opts.jobs),
    }
}

/// Execute a job spec against a shared equilibrium cache — the single
/// code path behind every CLI subcommand and every HTTP submission.
///
/// E-T solves go through `cache` cold (single-flight-deduped for
/// concurrent clients, bytes independent of cache history); pass
/// [`EquilibriumCache::process`] for the process-wide instance or a
/// local cache for isolation. Telemetry observes the run (events,
/// spans) and never alters the report.
///
/// # Errors
///
/// [`ServeError::BadRequest`] for specs that name unknown benchmarks or
/// empty seed sets; [`ServeError::Job`] for simulation failures.
pub fn execute(
    spec: &JobSpec,
    cache: &EquilibriumCache,
    opts: &ExecOptions,
    telemetry: &mut Telemetry,
) -> crate::Result<JobReport> {
    // One token carries both interrupt sources: the daemon's cancel
    // endpoint (a token it passed in) and the spec's own deadline_ms
    // (armed here, so the clock starts at execution, not submission).
    let token = match (&opts.cancel, spec.deadline_ms) {
        (Some(t), limit) => {
            if let Some(ms) = limit {
                t.arm_deadline_ms(ms);
            }
            Some(t.clone())
        }
        (None, Some(ms)) => {
            let t = CancelToken::new();
            t.arm_deadline_ms(ms);
            Some(t)
        }
        (None, None) => None,
    };
    let mut supervision = opts.supervision.clone();
    supervision.cancel = token.clone();
    let result = match &spec.job {
        JobKind::Run { spec: run } => execute_run(run, cache, opts, token.as_ref(), telemetry)
            .map(|report| JobOutcome::Run { report }),
        JobKind::Sweep { spec: sweep } => {
            run_sweep_shared(sweep, opts.jobs, supervision, cache, telemetry)
                .map_err(job_err)
                .map(|report| JobOutcome::Sweep { report })
        }
        JobKind::Chaos { spec: chaos } => {
            // Chaos suites run their trials on the bounded trial pool
            // within `opts.jobs`, without a guard thread-through:
            // cancellation is only effective while the job is queued or
            // between this check and the suite start.
            if let Some(t) = &token {
                t.check("chaos job").map_err(job_err)?;
            }
            execute_chaos(chaos, opts, telemetry).map(|report| JobOutcome::Chaos { report })
        }
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => match token.as_ref().and_then(CancelToken::fired) {
            // The run errored *because* the token fired: surface the
            // typed outcome instead of a stringly failure.
            Some(Interrupt::Cancelled) => JobOutcome::Cancelled,
            Some(Interrupt::DeadlineExceeded { limit_ms }) => {
                JobOutcome::DeadlineExceeded { limit_ms }
            }
            None => return Err(e),
        },
    };
    Ok(JobReport {
        schema_version: SCHEMA_VERSION,
        spec: spec.clone(),
        outcome,
    })
}

fn execute_run(
    run: &RunSpec,
    cache: &EquilibriumCache,
    opts: &ExecOptions,
    cancel: Option<&CancelToken>,
    telemetry: &mut Telemetry,
) -> crate::Result<RunSummary> {
    let scenario = run.scenario()?;
    let (mut policy, solve): (Box<dyn SprintPolicy>, Option<SolveSummary>) = match run.policy {
        PolicyKind::EquilibriumThreshold => {
            let (policy, summary) = scenario
                .equilibrium_policy_cached_cold(cache)
                .map_err(job_err)?;
            (Box::new(policy), Some(summary))
        }
        kind => (
            scenario
                .policy(kind, run.seed, &mut Telemetry::noop())
                .map_err(job_err)?,
            None,
        ),
    };
    let config = SimConfig::new(*scenario.game(), scenario.epochs(), run.seed)
        .map_err(job_err)?
        .with_options(*scenario.options());
    let jobs = resolve_run_jobs(run.jobs, opts);
    let arrivals = scenario
        .population()
        .arrivals(run.seed, jobs)
        .map_err(job_err)?;
    let guard = RunGuard {
        deadline: None,
        cancel: cancel.cloned(),
    };
    let result = engine::run_arrivals(&config, &arrivals, policy.as_mut(), &guard, jobs, telemetry)
        .map_err(job_err)?;
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

fn execute_chaos(
    chaos: &ChaosSpec,
    opts: &ExecOptions,
    telemetry: &mut Telemetry,
) -> crate::Result<ChaosOutcome> {
    if chaos.seeds == 0 {
        return Err(ServeError::BadRequest(
            "chaos spec needs at least one seed".into(),
        ));
    }
    let benchmark = Benchmark::from_name(&chaos.benchmark).ok_or_else(|| {
        ServeError::BadRequest(format!(
            "unknown benchmark `{}`; see `sprint benchmarks`",
            chaos.benchmark
        ))
    })?;
    let scenario = Scenario::homogeneous(benchmark, chaos.agents, chaos.epochs).map_err(job_err)?;
    let seeds: Vec<u64> = (1..=chaos.seeds).collect();
    Ok(match &chaos.mode {
        ChaosMode::Matrix => {
            let plans = runner::standard_fault_suite(chaos.fault_seed);
            let report = runner::chaos(
                &scenario,
                &PolicyKind::ALL,
                &plans,
                &seeds,
                opts.jobs,
                telemetry,
            )
            .map_err(job_err)?;
            ChaosOutcome::Matrix { report }
        }
        ChaosMode::Partition { start, duration } => {
            let start = start.unwrap_or(chaos.epochs / 2);
            let plan = FaultPlan::partition_chaos(chaos.fault_seed, start, *duration);
            let report = runner::resilience(
                &scenario,
                plan,
                ControlConfig::default(),
                &seeds,
                opts.jobs,
                telemetry,
            )
            .map_err(job_err)?;
            ChaosOutcome::Partition { report }
        }
        ChaosMode::Adversaries { mix } => {
            let plan = FaultPlan::adversary_chaos(chaos.fault_seed);
            let report = runner::adversary_defense(
                &scenario,
                plan,
                ControlConfig::default(),
                DetectorConfig::default(),
                *mix,
                &seeds,
                opts.jobs,
                telemetry,
            )
            .map_err(job_err)?;
            ChaosOutcome::Adversaries { report }
        }
    })
}

/// Serialize a [`JobReport`] to its canonical bytes — the one function
/// behind both `sprint <cmd> --json` output and the daemon's
/// `GET /v1/jobs/{id}/report` body, so CLI and HTTP reports are
/// byte-identical by construction.
///
/// # Errors
///
/// [`ServeError::Job`] if serialization fails (it cannot for these
/// types, but the vendored encoder is fallible by signature).
pub fn report_json(report: &JobReport) -> crate::Result<String> {
    serde_json::to_string_pretty(report).map_err(job_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run() -> JobSpec {
        JobSpec::new(JobKind::Run {
            spec: RunSpec {
                benchmark: "svm".into(),
                policy: PolicyKind::EquilibriumThreshold,
                agents: 20,
                epochs: 15,
                seed: 3,
                jobs: None,
            },
        })
    }

    #[test]
    fn job_spec_round_trips_through_json() {
        let spec = small_run();
        let text = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec, back);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn schema_version_defaults_and_validates() {
        let missing = r#"{"job":{"Run":{"spec":{"benchmark":"svm","policy":"Greedy","agents":5,"epochs":5,"seed":1}}}}"#;
        let spec = JobSpec::parse_json(missing).unwrap();
        assert_eq!(spec.schema_version, SCHEMA_VERSION);
        for bad in [0, SCHEMA_VERSION + 1] {
            let text = format!(
                r#"{{"schema_version":{bad},"job":{{"Run":{{"spec":{{"benchmark":"svm","policy":"Greedy","agents":5,"epochs":5,"seed":1}}}}}}}}"#
            );
            assert!(
                JobSpec::parse_json(&text).is_err(),
                "version {bad} must be rejected"
            );
        }
    }

    #[test]
    fn legacy_bare_sweep_spec_still_parses() {
        let legacy = serde_json::to_string(&SweepSpec::example()).unwrap();
        let spec = JobSpec::parse_json(&legacy).unwrap();
        assert_eq!(spec.schema_version, SCHEMA_VERSION);
        let JobKind::Sweep { spec: sweep } = &spec.job else {
            panic!("legacy sweep spec must wrap as JobKind::Sweep");
        };
        assert_eq!(*sweep, SweepSpec::example());
    }

    #[test]
    fn v1_specs_up_convert_to_the_current_version() {
        let v1 = r#"{"schema_version":1,"job":{"Run":{"spec":{"benchmark":"svm","policy":"Greedy","agents":5,"epochs":5,"seed":1}}}}"#;
        let spec = JobSpec::parse_json(v1).unwrap();
        assert_eq!(spec.schema_version, SCHEMA_VERSION);
        assert_eq!(spec.deadline_ms, None);
    }

    #[test]
    fn deadline_ms_round_trips_and_stays_absent_when_none() {
        let bare = serde_json::to_string(&small_run()).unwrap();
        assert!(
            !bare.contains("deadline_ms"),
            "absent deadline must not appear on the wire: {bare}"
        );
        let spec = small_run().with_deadline_ms(250);
        let text = serde_json::to_string(&spec).unwrap();
        assert!(text.contains("\"deadline_ms\":250"), "{text}");
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn pre_cancelled_token_yields_typed_cancelled_outcome() {
        let token = CancelToken::new();
        token.cancel();
        let opts = ExecOptions {
            cancel: Some(token),
            ..ExecOptions::default()
        };
        let report = execute(
            &small_run(),
            &EquilibriumCache::default(),
            &opts,
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(report.outcome, JobOutcome::Cancelled);
        // The typed outcome serializes and round-trips like any other.
        let json = report_json(&report).unwrap();
        let back: JobReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn expired_deadline_yields_typed_outcome() {
        let spec = small_run().with_deadline_ms(0);
        let report = execute(
            &spec,
            &EquilibriumCache::default(),
            &ExecOptions::default(),
            &mut Telemetry::noop(),
        )
        .unwrap();
        assert_eq!(
            report.outcome,
            JobOutcome::DeadlineExceeded { limit_ms: 0 },
            "a 0ms budget must trip the first cooperative checkpoint"
        );
    }

    #[test]
    fn garbage_reports_the_primary_parse_error() {
        let err = JobSpec::parse_json("{\"job\": 42}").unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
    }

    #[test]
    fn execute_run_matches_the_scenario_path() {
        let spec = small_run();
        let cache = EquilibriumCache::default();
        let report = execute(
            &spec,
            &cache,
            &ExecOptions::default(),
            &mut Telemetry::noop(),
        )
        .unwrap();
        let JobOutcome::Run { report: run } = &report.outcome else {
            panic!("run job must yield a run outcome");
        };
        let scenario = Scenario::homogeneous(Benchmark::Svm, 20, 15).unwrap();
        let direct = scenario
            .execute(
                PolicyKind::EquilibriumThreshold,
                3,
                1,
                &mut Telemetry::noop(),
            )
            .unwrap();
        assert_eq!(run.tasks_per_agent_epoch, direct.tasks_per_agent_epoch());
        assert_eq!(run.trips, direct.trips());
        assert_eq!(run.occupancy, direct.occupancy().fractions());
        assert!(run.solve.expect("E-T runs solve").converged);
    }

    #[test]
    fn report_bytes_ignore_cache_history_and_job_count() {
        let spec = small_run();
        let fresh = EquilibriumCache::default();
        let a = report_json(
            &execute(
                &spec,
                &fresh,
                &ExecOptions::default(),
                &mut Telemetry::noop(),
            )
            .unwrap(),
        )
        .unwrap();
        // A cache pre-warmed by a different scenario, and a different
        // worker fan-out: bytes must not move.
        let warmed = EquilibriumCache::default();
        let other = Scenario::homogeneous(Benchmark::PageRank, 40, 10).unwrap();
        other.equilibrium_policy_cached_cold(&warmed).unwrap();
        let opts = ExecOptions {
            jobs: 4,
            ..ExecOptions::default()
        };
        let b =
            report_json(&execute(&spec, &warmed, &opts, &mut Telemetry::noop()).unwrap()).unwrap();
        assert_eq!(a, b, "JobReport bytes must be a function of the spec alone");
    }

    #[test]
    fn run_spec_jobs_is_absent_on_the_wire_unless_requested() {
        // Pre-pool specs must keep their exact bytes: `jobs` only
        // appears when a client asked for it.
        let spec = small_run();
        let text = serde_json::to_string(&spec).unwrap();
        assert!(!text.contains("\"jobs\""), "{text}");
        let JobKind::Run { spec: run } = &spec.job else {
            unreachable!("small_run is a run job");
        };
        let mut with_jobs = run.clone();
        with_jobs.jobs = Some(4);
        let text = serde_json::to_string(&with_jobs).unwrap();
        assert!(text.contains("\"jobs\":4"), "{text}");
        let back: RunSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(with_jobs, back);
    }

    #[test]
    fn run_jobs_requests_are_clamped_to_the_daemon_cap() {
        let opts = ExecOptions {
            jobs_cap: 2,
            ..ExecOptions::default()
        };
        assert_eq!(resolve_run_jobs(Some(8), &opts), 2, "cap binds spec asks");
        assert_eq!(resolve_run_jobs(Some(1), &opts), 1, "small asks pass");
        // `Some(0)` asks for every core, still capped.
        assert!(resolve_run_jobs(Some(0), &opts) <= 2);
        // An uncapped daemon (`0` = cores) still bounds huge asks.
        let open = ExecOptions::default();
        assert_eq!(resolve_run_jobs(Some(u64::MAX), &open), effective_jobs(0));
        // The operator's own jobs knob is never capped: the cap guards
        // against untrusted spec requests only.
        let local = ExecOptions {
            jobs: 8,
            jobs_cap: 2,
            ..ExecOptions::default()
        };
        assert_eq!(resolve_run_jobs(None, &local), 8, "operator word passes");
    }

    #[test]
    fn per_job_thread_budget_never_moves_report_facts() {
        let mk = |jobs| {
            JobSpec::new(JobKind::Run {
                spec: RunSpec {
                    benchmark: "svm".into(),
                    policy: PolicyKind::Greedy,
                    agents: 20,
                    epochs: 15,
                    seed: 3,
                    jobs,
                },
            })
        };
        let opts = ExecOptions {
            jobs_cap: 2,
            ..ExecOptions::default()
        };
        let run = |spec: &JobSpec| {
            let report = execute(
                spec,
                &EquilibriumCache::default(),
                &opts,
                &mut Telemetry::noop(),
            )
            .unwrap();
            let JobOutcome::Run { report } = report.outcome else {
                panic!("run job must produce a run outcome");
            };
            report
        };
        assert_eq!(
            run(&mk(None)),
            run(&mk(Some(8))),
            "the thread-budget knob shapes wall-clock only, never results"
        );
    }

    #[test]
    fn execute_rejects_unknown_benchmarks() {
        let spec = JobSpec::new(JobKind::Run {
            spec: RunSpec {
                benchmark: "nosuch".into(),
                policy: PolicyKind::Greedy,
                agents: 5,
                epochs: 5,
                seed: 1,
                jobs: None,
            },
        });
        let err = execute(
            &spec,
            &EquilibriumCache::default(),
            &ExecOptions::default(),
            &mut Telemetry::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
    }

    #[test]
    fn chaos_modes_round_trip_and_validate() {
        let spec = JobSpec::new(JobKind::Chaos {
            spec: ChaosSpec {
                benchmark: "svm".into(),
                agents: 20,
                epochs: 40,
                seeds: 0,
                fault_seed: 17,
                mode: ChaosMode::Partition {
                    start: None,
                    duration: 3,
                },
            },
        });
        let text = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec, back);
        let err = execute(
            &spec,
            &EquilibriumCache::default(),
            &ExecOptions::default(),
            &mut Telemetry::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
    }
}

//! The long-lived `sprint serve` daemon: a listener, a job queue,
//! worker threads sharing one [`EquilibriumCache`], a durable job
//! journal, and a telemetry aggregator streaming live health snapshots
//! over SSE.
//!
//! # Endpoints
//!
//! | Method | Path                  | Purpose                                        |
//! |--------|-----------------------|------------------------------------------------|
//! | POST   | `/v1/jobs`            | Submit a [`JobSpec`]; `?wait=true` blocks for the report |
//! | GET    | `/v1/jobs`            | List jobs and their states                     |
//! | GET    | `/v1/jobs/{id}`       | One job's state                                |
//! | GET    | `/v1/jobs/{id}/report`| The canonical [`JobReport`] bytes; 410 once evicted with no spooled copy |
//! | POST   | `/v1/jobs/{id}/cancel`| Cancel a queued or running job                 |
//! | GET    | `/v1/health`          | Latest health snapshot (JSON)                  |
//! | GET    | `/v1/metrics`         | Prometheus exposition (cache + queue + ring)   |
//! | GET    | `/v1/events`          | SSE stream of health snapshots                 |
//! | POST   | `/v1/drain`           | Graceful shutdown: stop accepting, finish queue|
//! | GET    | `/v1/version`         | Daemon name and schema version                 |
//!
//! # Job lifecycle
//!
//! `queued → running → done | failed | cancelled | deadline_exceeded`.
//! Submissions during a drain are rejected with 503; a second drain is
//! the typed [`ServeError::AlreadyDraining`] (409). Workers exit once
//! the daemon is draining and the queue is empty; [`DaemonHandle::join`]
//! then flushes the event log and tears the listener down.
//!
//! # Durability
//!
//! With a journal configured ([`ServeConfig::journal`]), every
//! lifecycle transition is appended to a write-ahead JSONL log — the
//! `Submitted` record is fsync'd **before** the submission is
//! acknowledged, so an acked job survives a crash. On boot the journal
//! (plus the report spool) is replayed: queued jobs re-enqueue, jobs
//! that were mid-run re-execute under a bounded retry budget, and
//! completed jobs adopt their spooled report. Reports are a function of
//! the spec alone, so a re-executed job reproduces its report
//! byte-for-byte. See [`crate::journal`].
//!
//! # Retained reports
//!
//! Finished reports stay in memory up to a constant 8 MiB in total,
//! shared (not copied) with every reply. Past it the oldest are
//! evicted first, though never the newest. An evicted job keeps its
//! table entry and status; its report is read back from the spool's
//! `job-{id}.json` when one exists, and is a typed 410 Gone otherwise.
//!
//! # Admission
//!
//! Submissions pass through admission control ([`crate::admission`]):
//! per-client token-bucket rate limits and concurrent-job quotas, a
//! bounded queue, and a degradation ladder that sheds heavy jobs
//! (sweeps, chaos) while workers are saturated. Shed submissions get a
//! typed 429 with a `Retry-After` hint.
//!
//! [`JobSpec`]: crate::jobs::JobSpec
//! [`JobReport`]: crate::jobs::JobReport

use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sprint_game::{BackoffSchedule, CacheStats, EquilibriumCache, RetryPolicy};
use sprint_sim::engine::CancelToken;
use sprint_sim::sweep::Supervision;
use sprint_sim::telemetry::{
    prometheus_text, Event, EventRing, HealthAggregator, Recorder, Registry, RingConfig,
    RingProducer, RotatingJsonl, Severity, SpanProfile, Telemetry,
};

use crate::admission::{self, AdmissionConfig, RateLimiter};
use crate::error::ServeError;
use crate::http::{self, Request};
use crate::jobs::{self, ExecOptions, JobKind, JobOutcome, JobReport, JobSpec, SCHEMA_VERSION};
use crate::journal::{self, Journal, RecoveredState, Transition};

/// How the daemon binds, fans out, persists, and protects itself.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Job worker threads (minimum 1).
    pub workers: usize,
    /// Thread budget per job (`0` = available cores): engine fan-out for
    /// runs, the trial pool's budget for sweeps and chaos suites; never
    /// affects report bytes.
    pub jobs: usize,
    /// Ceiling on the per-job `jobs` a submitted [`RunSpec`] may request
    /// (`0` = available cores), so HTTP clients can size the engine's
    /// worker pool without oversubscribing the daemon's own workers.
    ///
    /// [`RunSpec`]: crate::jobs::RunSpec
    pub jobs_cap: usize,
    /// Directory to persist each `job-{id}.json` report into, if any.
    pub spool: Option<PathBuf>,
    /// Rotating JSONL event-log path, if any.
    pub event_log: Option<PathBuf>,
    /// Health-snapshot publication period in milliseconds.
    pub snapshot_every_ms: u64,
    /// Write-ahead job journal path, if any. With a journal every
    /// acknowledged submission survives a daemon crash (see
    /// [`crate::journal`]).
    pub journal: Option<PathBuf>,
    /// Admission knobs: queue bound, rate limit, client quota.
    pub admission: AdmissionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7077".to_string(),
            workers: 2,
            jobs: 1,
            jobs_cap: 0,
            spool: None,
            event_log: None,
            snapshot_every_ms: 200,
            journal: None,
            admission: AdmissionConfig::default(),
        }
    }
}

/// How many bytes of finished reports the daemon holds in memory: the
/// size it gives an event-log segment.
const REPORT_BUDGET_BYTES: usize = 8 << 20;

/// A finished job's report: held in memory, or `None` once evicted under
/// the report budget.
type Held = Option<Arc<str>>;

/// A job's position in its lifecycle.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running,
    Done { report: Held },
    Failed { error: String },
    Cancelled { report: Held },
    DeadlineExceeded { report: Held },
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Cancelled { .. } => "cancelled",
            JobState::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }

    /// The report of a finished job that has one.
    fn report_mut(&mut self) -> Option<&mut Held> {
        match self {
            JobState::Done { report }
            | JobState::Cancelled { report }
            | JobState::DeadlineExceeded { report } => Some(report),
            JobState::Queued | JobState::Running | JobState::Failed { .. } => None,
        }
    }
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    client: String,
    /// Cooperative cancel/deadline token, shared with the worker
    /// executing this job so `POST /v1/jobs/{id}/cancel` reaches a run
    /// in flight.
    cancel: CancelToken,
    /// Retry budget for crash-interrupted jobs: a fresh submission
    /// fails fast (`None`), a recovered one re-executes with backoff.
    retry: Option<BackoffSchedule>,
}

#[derive(Debug, Default)]
struct JobTable {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobEntry>,
    running: usize,
    draining: bool,
    submitted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    deadline_exceeded: u64,
    shed: u64,
    rate_limited: u64,
    quota_rejected: u64,
    recovered: u64,
    /// Jobs whose reports are held in memory, oldest first, with each
    /// report's length.
    held: VecDeque<(u64, usize)>,
    /// The bytes of every held report.
    held_bytes: usize,
}

impl JobTable {
    /// Finish job `id` in `state` and [`JobTable::hold`] its report.
    fn finish(&mut self, id: u64, state: JobState, budget: usize) {
        if let Some(entry) = self.jobs.get_mut(&id) {
            entry.state = state;
            self.hold(id, budget);
        }
    }

    /// Count finished job `id`'s report, if it holds one, as the newest
    /// in memory; then evict held reports, oldest first, until the rest
    /// fit in `budget`. The newest report always stays, so the client
    /// waiting for it reads it from memory.
    fn hold(&mut self, id: u64, budget: usize) {
        let Some(bytes) = self
            .jobs
            .get_mut(&id)
            .and_then(|entry| entry.state.report_mut())
            .and_then(|report| report.as_ref().map(|r| r.len()))
        else {
            return;
        };
        self.held.push_back((id, bytes));
        self.held_bytes += bytes;
        while self.held_bytes > budget && self.held.len() > 1 {
            let Some((old, bytes)) = self.held.pop_front() else {
                break;
            };
            self.held_bytes -= bytes;
            if let Some(report) = self
                .jobs
                .get_mut(&old)
                .and_then(|entry| entry.state.report_mut())
            {
                *report = None;
            }
        }
    }
}

#[derive(Debug, Default)]
struct HealthState {
    seq: u64,
    json: String,
    published: u64,
    dropped: u64,
}

/// How one job execution ended, classified by the worker before the
/// table/journal update.
enum Completion {
    Done { report: String },
    Failed { error: String },
    Cancelled { report: String },
    DeadlineExceeded { report: String, limit_ms: u64 },
}

/// What a worker runs for each job: [`jobs::execute`], or a stand-in
/// under test.
type Executor =
    fn(&JobSpec, &EquilibriumCache, &ExecOptions, &mut Telemetry) -> crate::Result<JobReport>;

struct Shared {
    table: Mutex<JobTable>,
    jobs_cv: Condvar,
    done_cv: Condvar,
    health: Mutex<HealthState>,
    health_cv: Condvar,
    cache: EquilibriumCache,
    stop: AtomicBool,
    opts: ExecOptions,
    spool: Option<PathBuf>,
    journal: Option<Mutex<Journal>>,
    admission: AdmissionConfig,
    limiter: Mutex<RateLimiter>,
    workers: usize,
    /// Ring producer for daemon-side events (recovery, shedding,
    /// queued-job cancellation) — workers each own their own segment.
    events: Mutex<RingProducer>,
    execute: Executor,
    /// Bytes of finished reports held in memory: [`REPORT_BUDGET_BYTES`],
    /// or a small budget under test.
    report_budget: usize,
}

impl Shared {
    fn emit(&self, event: &Event) {
        let mut producer = self.events.lock().expect("event producer poisoned");
        if producer.wants(event.kind()) {
            producer.record(event);
        }
    }

    /// Append to the journal, holding the table lock: journal order
    /// matches table order by construction.
    fn journal_append(&self, transition: &Transition) -> crate::Result<()> {
        match &self.journal {
            Some(journal) => journal.lock().expect("journal poisoned").append(transition),
            None => Ok(()),
        }
    }

    fn submit(&self, spec: JobSpec, client: &str) -> crate::Result<u64> {
        let mut table = self.table.lock().expect("job table poisoned");
        if table.draining {
            return Err(ServeError::Draining);
        }
        // Admission pipeline: rate limit, quota, queue bound, ladder —
        // every rejection is typed and carries a Retry-After where one
        // makes sense.
        if let Some(rate) = self.admission.rate_limit {
            let mut limiter = self.limiter.lock().expect("rate limiter poisoned");
            if let Err(retry_after_s) = limiter.charge(client, rate, Instant::now()) {
                table.rate_limited += 1;
                return Err(ServeError::RateLimited {
                    client: client.to_string(),
                    retry_after_s,
                });
            }
        }
        if self.admission.client_jobs > 0 {
            let active = table
                .jobs
                .values()
                .filter(|e| {
                    e.client == client && matches!(e.state, JobState::Queued | JobState::Running)
                })
                .count();
            if active >= self.admission.client_jobs {
                table.quota_rejected += 1;
                return Err(ServeError::QuotaExceeded {
                    client: client.to_string(),
                    limit: self.admission.client_jobs,
                });
            }
        }
        let queued = table.queue.len();
        if self.admission.max_queue > 0 && queued >= self.admission.max_queue {
            table.shed += 1;
            drop(table);
            self.emit(&Event::JobShed {
                queued: queued as u64,
            });
            return Err(ServeError::TooBusy {
                queued,
                retry_after_s: admission::queue_retry_after_s(queued),
            });
        }
        let rung = admission::rung(
            false,
            queued,
            table.running,
            self.workers,
            self.admission.max_queue,
        );
        if rung == admission::Rung::ShedHeavy
            && matches!(spec.job, JobKind::Sweep { .. } | JobKind::Chaos { .. })
        {
            table.shed += 1;
            drop(table);
            self.emit(&Event::JobShed {
                queued: queued as u64,
            });
            return Err(ServeError::TooBusy {
                queued,
                retry_after_s: admission::queue_retry_after_s(queued),
            });
        }
        let id = table.next_id + 1;
        // The write-ahead step: the Submitted record must be durable
        // before the client sees the ack. A failed append fails the
        // submission — no id is handed out for a job a crash would lose.
        self.journal_append(&Transition::Submitted {
            id,
            client: client.to_string(),
            spec: spec.clone().into(),
        })?;
        table.next_id = id;
        table.jobs.insert(
            id,
            JobEntry {
                spec,
                state: JobState::Queued,
                client: client.to_string(),
                cancel: CancelToken::new(),
                retry: None,
            },
        );
        table.queue.push_back(id);
        table.submitted += 1;
        drop(table);
        self.jobs_cv.notify_all();
        Ok(id)
    }

    fn drain(&self) -> crate::Result<usize> {
        let mut table = self.table.lock().expect("job table poisoned");
        if table.draining {
            return Err(ServeError::AlreadyDraining);
        }
        table.draining = true;
        let pending = table.queue.len() + table.running;
        drop(table);
        // Idle workers are parked on the queue condvar; wake them so
        // they observe the drain and exit.
        self.jobs_cv.notify_all();
        Ok(pending)
    }

    /// Cancel a job: a queued job resolves to its typed cancelled
    /// report immediately; a running one has its token fired and
    /// resolves at the worker's next cooperative epoch checkpoint.
    fn cancel(&self, id: u64) -> crate::Result<&'static str> {
        enum Action {
            Resolve(String),
            Fire(CancelToken),
        }
        let mut table = self.table.lock().expect("job table poisoned");
        let action = {
            let entry = table
                .jobs
                .get(&id)
                .ok_or_else(|| ServeError::NotFound(format!("job {id}")))?;
            match &entry.state {
                JobState::Queued => Action::Resolve(cancelled_report(&entry.spec)?),
                JobState::Running => Action::Fire(entry.cancel.clone()),
                terminal => {
                    return Err(ServeError::NotCancellable {
                        id,
                        state: terminal.name().to_string(),
                    })
                }
            }
        };
        match action {
            Action::Resolve(report) => {
                let _ = self.journal_append(&Transition::Cancelled { id });
                table.queue.retain(|&queued| queued != id);
                table.cancelled += 1;
                let report = Some(Arc::from(report));
                table.finish(id, JobState::Cancelled { report }, self.report_budget);
                drop(table);
                self.emit(&Event::JobCancelled { job: id });
                self.done_cv.notify_all();
                Ok("cancelled")
            }
            Action::Fire(token) => {
                token.cancel();
                // The worker observes the token at the next epoch
                // checkpoint and journals the terminal transition.
                Ok("cancelling")
            }
        }
    }

    fn wait_done(&self, id: u64) -> crate::Result<Arc<str>> {
        let mut table = self.table.lock().expect("job table poisoned");
        let held = loop {
            match table.jobs.get(&id) {
                None => return Err(ServeError::NotFound(format!("job {id}"))),
                Some(entry) => match &entry.state {
                    JobState::Done { report }
                    | JobState::Cancelled { report }
                    | JobState::DeadlineExceeded { report } => break report.clone(),
                    JobState::Failed { error } => return Err(ServeError::Job(error.clone())),
                    JobState::Queued | JobState::Running => {
                        table = self.done_cv.wait(table).expect("job table poisoned");
                    }
                },
            }
        };
        drop(table);
        self.report(id, held)
    }

    /// Finished job `id`'s report: the one held in memory, or, once
    /// evicted, the spooled `job-{id}.json` (read with the table
    /// unlocked), or a typed 410 when there is none.
    fn report(&self, id: u64, held: Held) -> crate::Result<Arc<str>> {
        if let Some(report) = held {
            return Ok(report);
        }
        self.spool
            .as_ref()
            .and_then(|dir| std::fs::read_to_string(dir.join(format!("job-{id}.json"))).ok())
            .map(Arc::from)
            .ok_or(ServeError::Gone { id })
    }
}

/// The canonical bytes for a job cancelled before (or instead of)
/// producing a result — same path as a worker-observed cancellation, so
/// queued and running cancels serialize identically.
fn cancelled_report(spec: &JobSpec) -> crate::Result<String> {
    jobs::report_json(&JobReport {
        schema_version: SCHEMA_VERSION,
        spec: spec.clone(),
        outcome: JobOutcome::Cancelled,
    })
}

fn claim(shared: &Shared) -> Option<(u64, JobSpec, CancelToken)> {
    let mut table = shared.table.lock().expect("job table poisoned");
    loop {
        if let Some(id) = table.queue.pop_front() {
            if let Some(entry) = table.jobs.get_mut(&id) {
                entry.state = JobState::Running;
                let spec = entry.spec.clone();
                let token = entry.cancel.clone();
                table.running += 1;
                // Best-effort: losing a Started record degrades a
                // crash-time `running` job to `queued` in the replay —
                // it re-executes either way, to identical bytes.
                let _ = shared.journal_append(&Transition::Started { id });
                return Some((id, spec, token));
            }
            continue;
        }
        if table.draining {
            return None;
        }
        table = shared.jobs_cv.wait(table).expect("job table poisoned");
    }
}

fn finish(shared: &Shared, id: u64, completion: Completion, telemetry: &mut Telemetry) {
    if matches!(completion, Completion::Failed { .. }) {
        // Crash-interrupted jobs carry a retry budget: back off and
        // requeue instead of failing what a healthy daemon would have
        // finished.
        let delay = {
            let mut table = shared.table.lock().expect("job table poisoned");
            let delay = table
                .jobs
                .get_mut(&id)
                .and_then(|entry| entry.retry.as_mut())
                .and_then(BackoffSchedule::next_delay);
            if delay.is_some() {
                table.running -= 1;
                if let Some(entry) = table.jobs.get_mut(&id) {
                    entry.state = JobState::Queued;
                }
                table.queue.push_back(id);
            }
            delay
        };
        if let Some(epochs) = delay {
            // The schedule's backoff is in abstract epochs; ~10ms per
            // epoch keeps retries prompt without hammering a fault.
            std::thread::sleep(Duration::from_millis(u64::from(epochs) * 10));
            shared.jobs_cv.notify_all();
            return;
        }
    }
    // Spool persistence is best-effort: a full disk must not lose the
    // in-memory report a waiting client is about to read. Only `done`
    // reports spool — recovery adopts spooled bytes as completed work.
    if let (Some(dir), Completion::Done { report }) = (&shared.spool, &completion) {
        let _ = std::fs::write(dir.join(format!("job-{id}.json")), report);
    }
    let mut table = shared.table.lock().expect("job table poisoned");
    table.running -= 1;
    let mut event = None;
    let state = match completion {
        Completion::Done { report } => {
            table.completed += 1;
            let _ = shared.journal_append(&Transition::Done { id });
            JobState::Done {
                report: Some(Arc::from(report)),
            }
        }
        Completion::Failed { error } => {
            table.failed += 1;
            let _ = shared.journal_append(&Transition::Failed {
                id,
                error: error.clone(),
            });
            JobState::Failed { error }
        }
        Completion::Cancelled { report } => {
            table.cancelled += 1;
            let _ = shared.journal_append(&Transition::Cancelled { id });
            event = Some(Event::JobCancelled { job: id });
            JobState::Cancelled {
                report: Some(Arc::from(report)),
            }
        }
        Completion::DeadlineExceeded { report, limit_ms } => {
            table.deadline_exceeded += 1;
            let _ = shared.journal_append(&Transition::DeadlineExceeded { id, limit_ms });
            event = Some(Event::JobDeadlineExceeded { job: id, limit_ms });
            JobState::DeadlineExceeded {
                report: Some(Arc::from(report)),
            }
        }
    };
    table.finish(id, state, shared.report_budget);
    drop(table);
    if let Some(event) = event {
        telemetry.emit(&event);
    }
    shared.done_cv.notify_all();
}

fn worker_loop(shared: &Arc<Shared>, producer: RingProducer) {
    // One telemetry bundle per worker lifetime: every job this worker
    // runs publishes into its own lock-free ring segment.
    let mut telemetry = Telemetry::new(Box::new(producer), SpanProfile::monotonic());
    while let Some((id, spec, token)) = claim(shared) {
        // A fresh registry per job: the engine appends per-epoch series
        // to an enabled kit, and nothing reads a finished job's. Spans
        // aggregate per name and stay bounded; events go to the ring.
        telemetry.registry = Registry::new();
        let opts = ExecOptions {
            jobs: shared.opts.jobs,
            jobs_cap: shared.opts.jobs_cap,
            supervision: shared.opts.supervision.clone(),
            cancel: Some(token),
        };
        // A panicking job fails alone: the worker, and the table's count
        // of running jobs, carry on.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            complete(shared, &spec, &opts, &mut telemetry)
        }));
        let completion = run.unwrap_or_else(|payload| Completion::Failed {
            error: format!("job panicked: {}", panic_message(payload.as_ref())),
        });
        finish(shared, id, completion, &mut telemetry);
    }
}

/// Execute one job and classify how it ended.
fn complete(
    shared: &Shared,
    spec: &JobSpec,
    opts: &ExecOptions,
    telemetry: &mut Telemetry,
) -> Completion {
    match (shared.execute)(spec, &shared.cache, opts, telemetry) {
        Ok(report) => match jobs::report_json(&report) {
            Err(e) => Completion::Failed { error: failure(e) },
            Ok(bytes) => match report.outcome {
                JobOutcome::Cancelled => Completion::Cancelled { report: bytes },
                JobOutcome::DeadlineExceeded { limit_ms } => Completion::DeadlineExceeded {
                    report: bytes,
                    limit_ms,
                },
                _ => Completion::Done { report: bytes },
            },
        },
        Err(e) => Completion::Failed { error: failure(e) },
    }
}

/// What a failed job keeps as its error: a job error's own message, since
/// the wait and status paths answer with it wrapped in [`ServeError::Job`]
/// again, whose `Display` adds the "job failed: " prefix once.
fn failure(e: ServeError) -> String {
    match e {
        ServeError::Job(message) => message,
        other => other.to_string(),
    }
}

/// The message a panic was raised with, when it carried one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload")
}

fn publish_snapshot(shared: &Shared, agg: &HealthAggregator, ring: &EventRing, started: Instant) {
    let snapshot = agg.snapshot(started.elapsed().as_nanos() as u64, ring.dropped());
    if let Ok(json) = serde_json::to_string(&snapshot) {
        let mut health = shared.health.lock().expect("health state poisoned");
        health.seq += 1;
        health.json = json;
        health.published = ring.published();
        health.dropped = ring.dropped();
        drop(health);
        shared.health_cv.notify_all();
    }
}

fn aggregator_loop(
    shared: &Arc<Shared>,
    mut ring: EventRing,
    mut log: Option<RotatingJsonl>,
    every: Duration,
) {
    let started = Instant::now();
    let mut agg = HealthAggregator::default();
    let mut last_published: Option<Instant> = None;
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        for event in &ring.drain() {
            agg.fold(event);
            if let Some(log) = log.as_mut() {
                log.record(event);
            }
        }
        if stopping || last_published.is_none_or(|at| at.elapsed() >= every) {
            last_published = Some(Instant::now());
            publish_snapshot(shared, &agg, &ring, started);
            if let Some(log) = log.as_mut() {
                let _ = log.flush();
            }
        }
        if stopping {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    if let Some(log) = log {
        let _ = log.finish();
    }
}

/// How long a connection may take to send its whole request before it
/// is answered with a 400 and closed, however it spreads its bytes.
/// Responses are written after the request is read, so a `?wait=true`
/// submission or an event stream is not bound by it.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn listener_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || handle_connection(&shared, stream, READ_TIMEOUT));
    }
}

#[derive(serde::Serialize)]
struct ErrorBody {
    error: String,
}

#[derive(serde::Serialize)]
struct JobStatus {
    id: u64,
    status: String,
}

fn respond_error(stream: &mut TcpStream, error: &ServeError) {
    let body = serde_json::to_string(&ErrorBody {
        error: error.to_string(),
    })
    .unwrap_or_else(|_| "{\"error\":\"unserializable error\"}".to_string());
    let extra: Vec<(&str, String)> = error
        .retry_after()
        .map(|s| ("Retry-After", s.to_string()))
        .into_iter()
        .collect();
    let _ = http::write_response_with_headers(
        stream,
        error.status(),
        "application/json",
        &extra,
        body.as_bytes(),
    );
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream, read_timeout: Duration) {
    let timed = http::ByDeadline {
        inner: &stream,
        deadline: Instant::now() + read_timeout,
        limit: |s, left| s.set_read_timeout(Some(left)),
    };
    let request = http::read_request(&mut BufReader::new(timed));
    match request {
        Err(e) => respond_error(&mut stream, &e),
        Ok(request) => {
            if let Err(e) = route(shared, &mut stream, &request) {
                respond_error(&mut stream, &e);
            }
        }
    }
}

fn route(shared: &Arc<Shared>, stream: &mut TcpStream, request: &Request) -> crate::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/jobs") => handle_submit(shared, stream, request),
        ("GET", "/v1/jobs") => handle_list(shared, stream),
        ("GET", "/v1/health") => handle_health(shared, stream),
        ("GET", "/v1/metrics") => handle_metrics(shared, stream),
        ("GET", "/v1/events") => handle_events(shared, stream),
        ("POST", "/v1/drain") => handle_drain(shared, stream),
        ("GET", "/v1/version") => write_json(
            stream,
            200,
            &format!("{{\"name\":\"sprint-serve\",\"schema_version\":{SCHEMA_VERSION}}}"),
        ),
        ("POST", path) if path.starts_with("/v1/jobs/") && path.ends_with("/cancel") => {
            handle_cancel(shared, stream, path)
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => handle_job(shared, stream, path),
        (method, path) => Err(ServeError::NotFound(format!("{method} {path}"))),
    }
}

fn write_json(stream: &mut TcpStream, status: u16, body: &str) -> crate::Result<()> {
    http::write_response(stream, status, "application/json", body.as_bytes())
        .map_err(ServeError::io("writing response"))
}

/// The submitting client's identity: the `x-api-key` header, or the
/// shared `anonymous` bucket without one.
fn client_key(request: &Request) -> &str {
    request
        .headers
        .iter()
        .find(|(name, _)| name == "x-api-key")
        .map_or("anonymous", |(_, value)| value.as_str())
}

fn handle_submit(shared: &Shared, stream: &mut TcpStream, request: &Request) -> crate::Result<()> {
    let spec = JobSpec::parse_json(request.body_text()?)?;
    let id = shared.submit(spec, client_key(request))?;
    if request.query_flag("wait") {
        let report = shared.wait_done(id)?;
        write_json(stream, 200, &report)
    } else {
        write_json(
            stream,
            202,
            &format!("{{\"id\":{id},\"status\":\"queued\"}}"),
        )
    }
}

fn handle_cancel(shared: &Shared, stream: &mut TcpStream, path: &str) -> crate::Result<()> {
    let id_text = path
        .trim_start_matches("/v1/jobs/")
        .trim_end_matches("/cancel");
    let id: u64 = id_text
        .parse()
        .map_err(|_| ServeError::BadRequest(format!("bad job id `{id_text}`")))?;
    let status = shared.cancel(id)?;
    write_json(
        stream,
        202,
        &format!("{{\"id\":{id},\"status\":\"{status}\"}}"),
    )
}

fn handle_list(shared: &Shared, stream: &mut TcpStream) -> crate::Result<()> {
    let statuses: Vec<JobStatus> = {
        let table = shared.table.lock().expect("job table poisoned");
        table
            .jobs
            .iter()
            .map(|(&id, entry)| JobStatus {
                id,
                status: entry.state.name().to_string(),
            })
            .collect()
    };
    let body = serde_json::to_string(&statuses)
        .map_err(|e| ServeError::Job(format!("serializing job list: {e}")))?;
    write_json(stream, 200, &body)
}

fn handle_job(shared: &Shared, stream: &mut TcpStream, path: &str) -> crate::Result<()> {
    let rest = path.trim_start_matches("/v1/jobs/");
    let (id_text, want_report) = match rest.strip_suffix("/report") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let id: u64 = id_text
        .parse()
        .map_err(|_| ServeError::BadRequest(format!("bad job id `{id_text}`")))?;
    let table = shared.table.lock().expect("job table poisoned");
    let entry = table
        .jobs
        .get(&id)
        .ok_or_else(|| ServeError::NotFound(format!("job {id}")))?;
    if !want_report {
        let body = serde_json::to_string(&JobStatus {
            id,
            status: entry.state.name().to_string(),
        })
        .map_err(|e| ServeError::Job(format!("serializing status: {e}")))?;
        drop(table);
        return write_json(stream, 200, &body);
    }
    match &entry.state {
        JobState::Done { report }
        | JobState::Cancelled { report }
        | JobState::DeadlineExceeded { report } => {
            let held = report.clone();
            drop(table);
            write_json(stream, 200, &shared.report(id, held)?)
        }
        JobState::Failed { error } => Err(ServeError::Job(error.clone())),
        JobState::Queued | JobState::Running => {
            drop(table);
            write_json(
                stream,
                409,
                &format!("{{\"error\":\"report pending\",\"id\":{id}}}"),
            )
        }
    }
}

fn handle_health(shared: &Shared, stream: &mut TcpStream) -> crate::Result<()> {
    let body = {
        let health = shared.health.lock().expect("health state poisoned");
        if health.json.is_empty() {
            "{}".to_string()
        } else {
            health.json.clone()
        }
    };
    write_json(stream, 200, &body)
}

fn handle_metrics(shared: &Shared, stream: &mut TcpStream) -> crate::Result<()> {
    let mut registry = Registry::new();
    shared.cache.export_metrics(&mut registry);
    {
        let table = shared.table.lock().expect("job table poisoned");
        for (name, value) in [
            ("serve.jobs.submitted", table.submitted),
            ("serve.jobs.completed", table.completed),
            ("serve.jobs.failed", table.failed),
            ("serve.jobs.cancelled", table.cancelled),
            ("serve.jobs.deadline_exceeded", table.deadline_exceeded),
            ("serve.jobs.shed", table.shed),
            ("serve.jobs.rate_limited", table.rate_limited),
            ("serve.jobs.quota_rejected", table.quota_rejected),
            ("serve.jobs.recovered", table.recovered),
        ] {
            let counter = registry.counter(name);
            registry.inc(counter, value);
        }
        let pending = registry.gauge("serve.jobs.pending");
        registry.set(pending, (table.queue.len() + table.running) as f64);
        let rung = admission::rung(
            table.draining,
            table.queue.len(),
            table.running,
            shared.workers,
            shared.admission.max_queue,
        );
        let ladder = registry.gauge("serve.admission.rung");
        registry.set(ladder, f64::from(rung.level()));
    }
    {
        let health = shared.health.lock().expect("health state poisoned");
        let published = registry.counter("serve.ring.published");
        registry.inc(published, health.published);
        let dropped = registry.counter("serve.ring.dropped");
        registry.inc(dropped, health.dropped);
    }
    let text = prometheus_text(&registry.snapshot());
    http::write_response(stream, 200, "text/plain; version=0.0.4", text.as_bytes())
        .map_err(ServeError::io("writing metrics"))
}

fn handle_events(shared: &Shared, stream: &mut TcpStream) -> crate::Result<()> {
    http::write_sse_header(stream).map_err(ServeError::io("starting SSE stream"))?;
    let mut last_seq = 0u64;
    loop {
        let frame = {
            let mut health = shared.health.lock().expect("health state poisoned");
            loop {
                if shared.stop.load(Ordering::Acquire) {
                    break None;
                }
                if health.seq > last_seq && !health.json.is_empty() {
                    last_seq = health.seq;
                    break Some(health.json.clone());
                }
                let (guard, _timeout) = shared
                    .health_cv
                    .wait_timeout(health, Duration::from_millis(250))
                    .expect("health state poisoned");
                health = guard;
            }
        };
        let Some(json) = frame else { return Ok(()) };
        if http::write_sse_frame(stream, &json).is_err() {
            // The client hung up; that ends the stream, not the daemon.
            return Ok(());
        }
    }
}

fn handle_drain(shared: &Shared, stream: &mut TcpStream) -> crate::Result<()> {
    let pending = shared.drain()?;
    write_json(
        stream,
        202,
        &format!("{{\"draining\":true,\"pending\":{pending}}}"),
    )
}

/// Reports found in the spool directory, keyed by the id embedded in
/// the `job-{id}.json` filename. Unparseable files are skipped — the
/// spool is best-effort output, never trusted blindly.
///
/// Files are read newest id first, and a report's text is kept only
/// while the kept texts fit `budget` (the newest always), so a boot over
/// a large spool holds at most about one budget of reports at once; the
/// others keep their spec and are read back from the spool on request.
fn scan_spool(dir: &Path, budget: usize) -> BTreeMap<u64, (JobSpec, Held)> {
    let mut found = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    let mut files: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let id = name
                .to_str()?
                .strip_prefix("job-")?
                .strip_suffix(".json")?
                .parse::<u64>()
                .ok()?;
            Some((id, entry.path()))
        })
        .collect();
    files.sort_unstable_by_key(|&(id, _)| std::cmp::Reverse(id));
    let mut kept = 0;
    for (id, path) in files {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let Ok(report) = serde_json::from_str::<JobReport>(&text) else {
            continue;
        };
        let held = (found.is_empty() || kept + text.len() <= budget).then(|| {
            kept += text.len();
            Arc::from(text)
        });
        found.insert(id, (report.spec, held));
    }
    found
}

/// The outcome of replaying the journal + spool into a fresh job table.
struct RecoveredTable {
    table: JobTable,
    /// Compacted journal state to rewrite before serving.
    compacted: Vec<Transition>,
    /// `(job, reexecuted)` pairs to announce on the event ring.
    announcements: Vec<(u64, bool)>,
}

/// Fold journal + spool state into the boot-time job table.
///
/// - queued jobs re-enqueue as-is;
/// - crash-time-running jobs re-enqueue with a bounded retry budget;
/// - done jobs adopt their spooled report, or re-enqueue when the spool
///   lost it (re-execution reproduces the bytes — reports are a
///   function of the spec);
/// - terminal failures/cancellations keep their state;
/// - spool-only reports (journal compacted away or disabled) are
///   adopted as done.
///
/// The recovered reports are then held as if their jobs had finished in
/// id order, so only the newest within `budget` stay in memory.
fn recover_table(
    recovery: journal::Recovery,
    mut spooled: BTreeMap<u64, (JobSpec, Held)>,
    budget: usize,
) -> RecoveredTable {
    let mut table = JobTable::default();
    let mut compacted = Vec::new();
    let mut announcements = Vec::new();
    table.next_id = recovery.max_id;
    for job in recovery.jobs {
        let spooled_report = spooled.remove(&job.id).map(|(_, report)| report);
        table.next_id = table.next_id.max(job.id);
        table.submitted += 1;
        table.recovered += 1;
        compacted.push(Transition::Submitted {
            id: job.id,
            client: job.client.clone(),
            spec: job.spec.clone().into(),
        });
        let mut entry = JobEntry {
            spec: job.spec,
            state: JobState::Queued,
            client: job.client,
            cancel: CancelToken::new(),
            retry: None,
        };
        match (job.state, spooled_report) {
            // The spool holds the completed report: trust it, skip
            // re-execution, no matter what the journal's last word was.
            (RecoveredState::Done | RecoveredState::Interrupted, Some(report)) => {
                entry.state = JobState::Done { report };
                table.completed += 1;
                compacted.push(Transition::Done { id: job.id });
                announcements.push((job.id, false));
            }
            (RecoveredState::Done, None) => {
                // The report is gone but the spec reproduces it exactly.
                table.queue.push_back(job.id);
                announcements.push((job.id, true));
            }
            (RecoveredState::Interrupted, None) => {
                entry.retry = Some(RetryPolicy::default().schedule(job.id));
                table.queue.push_back(job.id);
                compacted.push(Transition::Interrupted { id: job.id });
                announcements.push((job.id, true));
            }
            (RecoveredState::Queued, _) => {
                table.queue.push_back(job.id);
                announcements.push((job.id, true));
            }
            (RecoveredState::Failed { error }, _) => {
                table.failed += 1;
                compacted.push(Transition::Failed {
                    id: job.id,
                    error: error.clone(),
                });
                entry.state = JobState::Failed { error };
            }
            (RecoveredState::Cancelled, _) => {
                table.cancelled += 1;
                compacted.push(Transition::Cancelled { id: job.id });
                let report = cancelled_report(&entry.spec)
                    .unwrap_or_else(|_| "{\"error\":\"unserializable report\"}".into());
                entry.state = JobState::Cancelled {
                    report: Some(Arc::from(report)),
                };
            }
            (RecoveredState::DeadlineExceeded { limit_ms }, _) => {
                table.deadline_exceeded += 1;
                compacted.push(Transition::DeadlineExceeded {
                    id: job.id,
                    limit_ms,
                });
                let report = jobs::report_json(&JobReport {
                    schema_version: SCHEMA_VERSION,
                    spec: entry.spec.clone(),
                    outcome: JobOutcome::DeadlineExceeded { limit_ms },
                })
                .unwrap_or_else(|_| "{\"error\":\"unserializable report\"}".into());
                entry.state = JobState::DeadlineExceeded {
                    report: Some(Arc::from(report)),
                };
            }
        }
        table.jobs.insert(job.id, entry);
    }
    // Reports with no journal record at all: adopt them as done work.
    for (id, (spec, report)) in spooled {
        table.next_id = table.next_id.max(id);
        table.submitted += 1;
        table.completed += 1;
        table.recovered += 1;
        compacted.push(Transition::Submitted {
            id,
            client: "anonymous".to_string(),
            spec: spec.clone().into(),
        });
        compacted.push(Transition::Done { id });
        announcements.push((id, false));
        table.jobs.insert(
            id,
            JobEntry {
                spec,
                state: JobState::Done { report },
                client: "anonymous".to_string(),
                cancel: CancelToken::new(),
                retry: None,
            },
        );
    }
    let ids: Vec<u64> = table.jobs.keys().copied().collect();
    for id in ids {
        table.hold(id, budget);
    }
    RecoveredTable {
        table,
        compacted,
        announcements,
    }
}

/// The daemon constructor.
pub struct Daemon;

impl Daemon {
    /// Bind, replay the journal and spool into the job table, compact
    /// the journal, and spawn workers + aggregator + listener.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound, the spool
    /// directory cannot be created, or the journal cannot be read or
    /// rewritten; [`ServeError::Job`] when the event log cannot be
    /// opened or the journal is corrupt mid-file.
    pub fn start(config: &ServeConfig) -> crate::Result<DaemonHandle> {
        Daemon::start_with(config, jobs::execute, REPORT_BUDGET_BYTES)
    }

    /// [`Daemon::start`] with workers that run `execute` for each job,
    /// holding at most `report_budget` bytes of finished reports.
    fn start_with(
        config: &ServeConfig,
        execute: Executor,
        report_budget: usize,
    ) -> crate::Result<DaemonHandle> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(ServeError::io(format!("binding {}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(ServeError::io("resolving bound address"))?;
        if let Some(dir) = &config.spool {
            std::fs::create_dir_all(dir)
                .map_err(ServeError::io(format!("creating spool {}", dir.display())))?;
        }
        let log = config
            .event_log
            .as_ref()
            .map(|path| {
                RotatingJsonl::create(path, 8 * 1024 * 1024, 3)
                    .map_err(|e| ServeError::Job(format!("opening event log: {e}")))
            })
            .transpose()?;

        // Recovery: replay the journal, cross-check the spool, compact.
        let replayed = match &config.journal {
            Some(path) => {
                let (transitions, torn) = journal::replay(path)?;
                journal::recover(&transitions, torn)
            }
            None => journal::Recovery::default(),
        };
        let spooled = config
            .spool
            .as_deref()
            .map(|dir| scan_spool(dir, report_budget))
            .unwrap_or_default();
        let recovered = recover_table(replayed, spooled, report_budget);
        let journal_handle = config
            .journal
            .as_ref()
            .map(|path| Journal::rewrite(path, &recovered.compacted))
            .transpose()?
            .map(Mutex::new);

        let workers = config.workers.max(1);
        // Per-agent decision firehose stays out of the ring: health
        // snapshots fold epoch-level events. One extra producer segment
        // carries daemon-side events (recovery, shedding, cancels).
        let ring_config = RingConfig::default().with_min_severity(Severity::Info);
        let (ring, mut producers) = EventRing::with_config(workers + 1, &ring_config);
        let daemon_producer = producers.pop().expect("requested producer count");
        let shared = Arc::new(Shared {
            table: Mutex::new(recovered.table),
            jobs_cv: Condvar::new(),
            done_cv: Condvar::new(),
            health: Mutex::new(HealthState::default()),
            health_cv: Condvar::new(),
            cache: EquilibriumCache::default(),
            stop: AtomicBool::new(false),
            opts: ExecOptions {
                jobs: config.jobs,
                jobs_cap: config.jobs_cap,
                supervision: Supervision::default(),
                cancel: None,
            },
            spool: config.spool.clone(),
            journal: journal_handle,
            admission: config.admission,
            limiter: Mutex::new(RateLimiter::default()),
            workers,
            events: Mutex::new(daemon_producer),
            execute,
            report_budget,
        });
        for (job, reexecuted) in recovered.announcements {
            shared.emit(&Event::JobRecovered { job, reexecuted });
        }

        let worker_handles: Vec<std::thread::JoinHandle<()>> = producers
            .into_iter()
            .map(|producer| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, producer))
            })
            .collect();
        let aggregator = {
            let shared = Arc::clone(&shared);
            let every = Duration::from_millis(config.snapshot_every_ms.max(10));
            std::thread::spawn(move || aggregator_loop(&shared, ring, log, every))
        };
        let listener_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || listener_loop(&shared, &listener))
        };
        Ok(DaemonHandle {
            addr,
            shared,
            workers: worker_handles,
            aggregator: Some(aggregator),
            listener: Some(listener_handle),
        })
    }
}

/// A running daemon: the bound address plus the threads to join.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    aggregator: Option<std::thread::JoinHandle<()>>,
    listener: Option<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (with the resolved port when 0 was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiate a graceful drain: stop accepting jobs, let workers
    /// finish the queue. Returns the number of jobs still pending.
    ///
    /// # Errors
    ///
    /// [`ServeError::AlreadyDraining`] on a second call — the typed
    /// double-shutdown error.
    pub fn drain(&self) -> crate::Result<usize> {
        self.shared.drain()
    }

    /// Cancel a job by id (the programmatic face of
    /// `POST /v1/jobs/{id}/cancel`). Returns `"cancelled"` for a queued
    /// job resolved on the spot, `"cancelling"` for a running job whose
    /// token was fired.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotFound`] for unknown ids,
    /// [`ServeError::NotCancellable`] for jobs already terminal.
    pub fn cancel(&self, id: u64) -> crate::Result<&'static str> {
        self.shared.cancel(id)
    }

    /// Snapshot of the daemon-wide equilibrium cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Block until the daemon has drained (workers exit when draining
    /// with an empty queue), then tear down the aggregator (final
    /// event-log flush) and listener.
    ///
    /// Without a prior [`DaemonHandle::drain`] (or `POST /v1/drain`)
    /// this blocks for the daemon's lifetime — that is what `sprint
    /// serve` does.
    ///
    /// # Errors
    ///
    /// [`ServeError::Job`] if a worker panicked.
    pub fn join(mut self) -> crate::Result<()> {
        for worker in self.workers.drain(..) {
            worker
                .join()
                .map_err(|_| ServeError::Job("worker thread panicked".into()))?;
        }
        self.shared.stop.store(true, Ordering::Release);
        self.shared.health_cv.notify_all();
        // The accept loop is parked in `accept`; poke it awake so it
        // observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        if let Some(aggregator) = self.aggregator.take() {
            let _ = aggregator.join();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use sprint_sim::PolicyKind;

    use super::*;
    use crate::jobs::RunSpec;

    fn run_spec(seed: u64) -> JobSpec {
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
    }

    /// [`jobs::execute`], except that a run with seed 13 panics.
    fn panics_on_seed_13(
        spec: &JobSpec,
        cache: &EquilibriumCache,
        opts: &ExecOptions,
        telemetry: &mut Telemetry,
    ) -> crate::Result<JobReport> {
        if matches!(&spec.job, JobKind::Run { spec } if spec.seed == 13) {
            panic!("injected fault in seed 13");
        }
        jobs::execute(spec, cache, opts, telemetry)
    }

    /// An executor whose every job fails with a job error.
    fn fails_with_boom(
        _: &JobSpec,
        _: &EquilibriumCache,
        _: &ExecOptions,
        _: &mut Telemetry,
    ) -> crate::Result<JobReport> {
        Err(ServeError::Job("boom".to_string()))
    }

    #[test]
    fn a_failed_job_says_job_failed_once() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        };
        let handle = Daemon::start_with(&config, fails_with_boom, REPORT_BUDGET_BYTES).unwrap();
        let id = handle.shared.submit(run_spec(1), "test").unwrap();
        let error = handle.shared.wait_done(id).unwrap_err();
        assert_eq!(error.to_string(), "job failed: boom");
        handle.drain().unwrap();
        handle.join().unwrap();
    }

    /// [`jobs::execute`] on a kit that must hold no series from an
    /// earlier job, and must hold this job's once it has run.
    fn needs_a_fresh_registry(
        spec: &JobSpec,
        cache: &EquilibriumCache,
        opts: &ExecOptions,
        telemetry: &mut Telemetry,
    ) -> crate::Result<JobReport> {
        if !telemetry.registry.snapshot().series.is_empty() {
            return Err(ServeError::Job("series left from an earlier job".into()));
        }
        let report = jobs::execute(spec, cache, opts, telemetry)?;
        if telemetry
            .registry
            .series_values("engine.sprinters")
            .is_none()
        {
            return Err(ServeError::Job("the run recorded no series".into()));
        }
        Ok(report)
    }

    #[test]
    fn each_job_gets_a_worker_kit_without_earlier_series() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        };
        let handle =
            Daemon::start_with(&config, needs_a_fresh_registry, REPORT_BUDGET_BYTES).unwrap();
        for seed in [1, 2, 3] {
            let id = handle.shared.submit(run_spec(seed), "test").unwrap();
            handle.shared.wait_done(id).unwrap();
        }
        handle.drain().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn a_stalled_request_is_answered_with_a_400_and_closed() {
        use std::io::{Read, Write};

        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        };
        let handle = Daemon::start(&config).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let shared = Arc::clone(&handle.shared);
        let served = std::thread::spawn(move || {
            handle_connection(&shared, server, Duration::from_millis(100));
        });
        client
            .write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"job")
            .unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The answer comes, then the end of the stream: the daemon closed
        // the connection instead of holding its thread.
        let mut answer = String::new();
        client.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
        assert!(answer.contains("timed out"), "{answer}");
        served.join().unwrap();
        handle.drain().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn a_panicking_job_fails_and_its_worker_runs_the_next() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        };
        let handle = Daemon::start_with(&config, panics_on_seed_13, REPORT_BUDGET_BYTES).unwrap();
        let shared = &handle.shared;
        let bad = shared.submit(run_spec(13), "test").unwrap();
        match shared.wait_done(bad) {
            Err(ServeError::Job(error)) => assert!(
                error.contains("job panicked") && error.contains("injected fault in seed 13"),
                "{error}"
            ),
            other => panic!("expected a failed job, got {other:?}"),
        }
        assert_eq!(shared.table.lock().unwrap().running, 0);
        // The single worker survived the panic and completes the next job.
        let good = shared.submit(run_spec(14), "test").unwrap();
        let report = shared.wait_done(good).unwrap();
        assert!(report.contains("\"Run\""), "{report}");
        {
            let table = shared.table.lock().unwrap();
            assert_eq!((table.running, table.failed, table.completed), (0, 1, 1));
        }
        handle.drain().unwrap();
        handle.join().unwrap();
    }

    /// Whether finished job `id` still holds its report in memory.
    fn holds(table: &mut JobTable, id: u64) -> bool {
        table
            .jobs
            .get_mut(&id)
            .unwrap()
            .state
            .report_mut()
            .unwrap()
            .is_some()
    }

    #[test]
    fn held_reports_fit_the_budget_and_the_oldest_go_first() {
        let mut table = JobTable::default();
        for id in 1..=5 {
            table.jobs.insert(
                id,
                JobEntry {
                    spec: run_spec(id),
                    state: JobState::Running,
                    client: "test".to_string(),
                    cancel: CancelToken::new(),
                    retry: None,
                },
            );
        }
        let report = |bytes: usize| Some(Arc::from("x".repeat(bytes)));
        table.finish(
            1,
            JobState::Done {
                report: report(100),
            },
            250,
        );
        table.finish(
            2,
            JobState::Cancelled {
                report: report(100),
            },
            250,
        );
        table.finish(3, JobState::Failed { error: "e".into() }, 250);
        table.finish(
            4,
            JobState::DeadlineExceeded {
                report: report(100),
            },
            250,
        );
        // A failed job holds nothing; the third report evicts the first.
        assert_eq!(table.held, [(2, 100), (4, 100)]);
        assert_eq!(table.held_bytes, 200);
        assert!(!holds(&mut table, 1) && holds(&mut table, 2) && holds(&mut table, 4));
        // A report past the whole budget evicts every other, not itself.
        table.finish(
            5,
            JobState::Done {
                report: report(1000),
            },
            250,
        );
        assert_eq!(table.held, [(5, 1000)]);
        assert_eq!(table.held_bytes, 1000);
        assert!(holds(&mut table, 5) && !holds(&mut table, 2) && !holds(&mut table, 4));
        // Evicted jobs keep their entries and statuses.
        let statuses: Vec<&str> = table.jobs.values().map(|e| e.state.name()).collect();
        assert_eq!(
            statuses,
            ["done", "cancelled", "failed", "deadline_exceeded", "done"]
        );
    }

    #[test]
    fn recovery_adopts_every_spooled_report_and_holds_the_newest() {
        let spooled: BTreeMap<u64, (JobSpec, Held)> = (1..=4)
            .map(|id| {
                let report = Arc::from(format!("{{\"report\":{id}}}"));
                (id, (run_spec(id), Some(report)))
            })
            .collect();
        // Each report is 12 bytes: a 30-byte budget holds the newest two.
        let recovered = recover_table(journal::Recovery::default(), spooled, 30);
        let mut table = recovered.table;
        assert_eq!((table.completed, table.recovered), (4, 4));
        assert_eq!(table.held, [(3, 12), (4, 12)]);
        let held: Vec<bool> = (1..=4).map(|id| holds(&mut table, id)).collect();
        assert_eq!(held, [false, false, true, true]);
    }

    #[test]
    fn a_boot_reads_only_the_newest_spooled_reports_within_the_budget() {
        let spool = std::env::temp_dir().join(format!("sprint-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        std::fs::create_dir_all(&spool).unwrap();
        let reports: Vec<String> = (1..=4)
            .map(|id| cancelled_report(&run_spec(id)).unwrap())
            .collect();
        for (id, report) in (1..=4).zip(&reports) {
            std::fs::write(spool.join(format!("job-{id}.json")), report).unwrap();
        }
        std::fs::write(spool.join("job-5.json"), "not a report").unwrap();
        // The two newest fit; the older two keep only their specs.
        let budget = reports[2].len() + reports[3].len();
        let found = scan_spool(&spool, budget);
        let held: Vec<(u64, bool)> = found
            .iter()
            .map(|(&id, (_, r))| (id, r.is_some()))
            .collect();
        assert_eq!(held, [(1, false), (2, false), (3, true), (4, true)]);
        assert_eq!(found[&4].1.as_deref(), Some(reports[3].as_str()));
        assert_eq!(found[&1].0, run_spec(1));
        // Even a budget of nothing keeps the newest.
        let held: Vec<bool> = scan_spool(&spool, 0)
            .values()
            .map(|(_, r)| r.is_some())
            .collect();
        assert_eq!(held, [false, false, false, true]);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn an_evicted_report_is_read_from_the_spool_or_gone() {
        use std::io::{Read, Write};

        let spool = std::env::temp_dir().join(format!("sprint-evicted-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            spool: Some(spool.clone()),
            ..ServeConfig::default()
        };
        // A one-byte budget holds only the newest report.
        let handle = Daemon::start_with(&config, jobs::execute, 1).unwrap();
        let shared = &handle.shared;
        let first = shared.submit(run_spec(1), "test").unwrap();
        let bytes = shared.wait_done(first).unwrap();
        let second = shared.submit(run_spec(2), "test").unwrap();
        shared.wait_done(second).unwrap();
        {
            let mut table = shared.table.lock().unwrap();
            assert!(!holds(&mut table, first) && holds(&mut table, second));
        }
        // The evicted report comes back from the spool, byte for byte.
        assert_eq!(shared.wait_done(first).unwrap(), bytes);
        let get = |path: &str| {
            let mut client = TcpStream::connect(handle.addr()).unwrap();
            write!(client, "GET {path} HTTP/1.1\r\n\r\n").unwrap();
            let mut answer = String::new();
            client.read_to_string(&mut answer).unwrap();
            answer
        };
        let answer = get(&format!("/v1/jobs/{first}/report"));
        assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");
        assert!(answer.ends_with(&*bytes), "{answer}");
        // Without its spooled copy the report is gone; the job is still
        // listed as done.
        std::fs::remove_file(spool.join(format!("job-{first}.json"))).unwrap();
        assert!(matches!(shared.wait_done(first), Err(ServeError::Gone { id }) if id == first));
        let answer = get(&format!("/v1/jobs/{first}/report"));
        assert!(answer.starts_with("HTTP/1.1 410 Gone"), "{answer}");
        let answer = get(&format!("/v1/jobs/{first}"));
        assert!(answer.ends_with("\"status\":\"done\"}"), "{answer}");
        handle.drain().unwrap();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&spool);
    }
}

//! Telemetry integration tests: the observability layer must be
//! deterministic (same seed ⇒ byte-identical JSONL) and inert (any
//! recorder ⇒ bit-identical simulation results).

use std::io::Write;
use std::sync::{Arc, Mutex};

use sprint_sim::policy::PolicyKind;
use sprint_sim::scenario::Scenario;
use sprint_sim::telemetry::{Event, EventKind, JsonlWriter, SpanProfile, Telemetry};
use sprint_workloads::Benchmark;

/// A `Write` sink whose bytes outlive the recorder that owns it.
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn trace_jsonl(scenario: &Scenario, kind: PolicyKind, seed: u64) -> Vec<u8> {
    let buf = SharedBuf::default();
    let writer = JsonlWriter::new(buf.clone());
    let mut telemetry = Telemetry::new(Box::new(writer), SpanProfile::deterministic());
    scenario.execute(kind, seed, 1, &mut telemetry).unwrap();
    buf.contents()
}

#[test]
fn identical_seeds_produce_byte_identical_jsonl() {
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 60, 150).unwrap();
    for kind in PolicyKind::ALL {
        let a = trace_jsonl(&scenario, kind, 42);
        let b = trace_jsonl(&scenario, kind, 42);
        assert!(!a.is_empty(), "{kind} trace must contain events");
        assert_eq!(a, b, "{kind} traces must be byte-identical");
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let scenario = Scenario::homogeneous(Benchmark::Svm, 60, 200).unwrap();
    let a = trace_jsonl(&scenario, PolicyKind::Greedy, 1);
    let b = trace_jsonl(&scenario, PolicyKind::Greedy, 2);
    assert_ne!(a, b);
}

#[test]
fn enabled_telemetry_never_perturbs_the_simulation() {
    let scenario = Scenario::homogeneous(Benchmark::PageRank, 80, 250)
        .unwrap()
        .with_faults(sprint_sim::faults::FaultPlan::composite(7));
    for kind in PolicyKind::ALL {
        let plain = scenario
            .execute(kind, 19, 1, &mut Telemetry::noop())
            .unwrap();
        let mut telemetry = Telemetry::in_memory();
        let traced = scenario.execute(kind, 19, 1, &mut telemetry).unwrap();
        assert_eq!(plain, traced, "{kind} result must be bit-identical");
        assert!(telemetry.events().unwrap().len() > 250, "{kind}");
    }
}

#[test]
fn trace_has_expected_shape() {
    let epochs = 120;
    let scenario = Scenario::homogeneous(Benchmark::Kmeans, 50, epochs).unwrap();
    let mut telemetry = Telemetry::in_memory();
    scenario
        .execute(PolicyKind::Greedy, 5, 1, &mut telemetry)
        .unwrap();
    let events = telemetry.events().unwrap();
    assert_eq!(events.first().map(Event::kind), Some(EventKind::RunStart));
    assert_eq!(events.last().map(Event::kind), Some(EventKind::RunEnd));
    let ticks = events
        .iter()
        .filter(|e| e.kind() == EventKind::EpochTick)
        .count();
    assert_eq!(ticks, epochs, "one EpochTick per simulated epoch");

    // The registry's per-epoch series line up with the event stream.
    let sprinters = telemetry
        .registry
        .series_values("engine.sprinters")
        .expect("series registered");
    assert_eq!(sprinters.len(), epochs, "one series sample per epoch");
    assert_eq!(
        telemetry.registry.counter_value("engine.epochs"),
        Some(epochs as u64)
    );

    // Span timings cover the offline solve and the epoch loop.
    for span in ["scenario.solve", "engine.epoch", "engine.decide"] {
        let stats = telemetry.spans.stats(span).unwrap_or_else(|| {
            panic!("span {span} must be recorded");
        });
        assert!(stats.count > 0);
    }
}

#[test]
fn decision_firehose_is_opt_in_by_recorder_filter() {
    let scenario = Scenario::homogeneous(Benchmark::Svm, 40, 80).unwrap();
    let recorder = sprint_sim::telemetry::InMemory::new().without(EventKind::SprintDecision);
    let mut telemetry = Telemetry::new(Box::new(recorder), SpanProfile::deterministic());
    scenario
        .execute(PolicyKind::Greedy, 9, 1, &mut telemetry)
        .unwrap();
    let events = telemetry.events().unwrap();
    assert!(events.iter().all(|e| e.kind() != EventKind::SprintDecision));
    assert!(events.iter().any(|e| e.kind() == EventKind::EpochTick));
}

#[test]
fn ring_backed_engine_stream_is_jobs_invariant() {
    use sprint_sim::telemetry::EventRing;
    let scenario = Scenario::homogeneous(Benchmark::DecisionTree, 50, 120).unwrap();
    let drain = |jobs: usize| {
        let (mut ring, mut producers) = EventRing::new(1);
        let producer = producers.pop().unwrap();
        let mut kit = Telemetry::new(Box::new(producer), SpanProfile::deterministic());
        scenario
            .execute(PolicyKind::Greedy, 11, jobs, &mut kit)
            .unwrap();
        assert_eq!(ring.dropped(), 0, "default capacity must not drop");
        ring.drain()
    };
    let serial = drain(1);
    let parallel = drain(4);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "engine emits from one thread: the ring stream is identical at every job count"
    );
    let bytes = |events: &[Event]| {
        events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(bytes(&serial), bytes(&parallel));
}

#[test]
fn worker_local_registries_merge_across_sweep_threads() {
    use sprint_sim::telemetry::Registry;
    // The sweep pattern: each worker records into a thread-local
    // registry, the coordinator folds them in after join. Totals must
    // not depend on which worker saw which trial.
    let partials: Vec<Registry> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|w| {
                scope.spawn(move || {
                    let mut r = Registry::new();
                    let c = r.counter("sweep.trials");
                    r.inc(c, w + 1);
                    let h = r.histogram("trial.nanos", &[10.0, 100.0]);
                    r.observe(h, 5.0);
                    r.observe(h, 50.0);
                    let s = r.series("worker.tasks");
                    r.push(s, w as f64);
                    r
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut main = Registry::new();
    for partial in &partials {
        main.merge(partial);
    }
    assert_eq!(main.counter_value("sweep.trials"), Some(10));
    let snapshot = main.snapshot();
    let hist = snapshot.histograms.get("trial.nanos").unwrap();
    assert_eq!(hist.count(), 8);
    assert_eq!(hist.sum(), 220.0);
    assert_eq!(
        hist.counts(),
        &[4, 4, 0],
        "per-bucket counts (incl. overflow) fold elementwise"
    );
    let series = main.series_values("worker.tasks").unwrap();
    assert_eq!(series.len(), 4, "series samples append across workers");
    assert_eq!(series.iter().sum::<f64>(), 6.0);
}

//! Telemetry for the computational sprinting rack: structured tracing,
//! a metrics registry, and timing spans.
//!
//! Three pillars, one per module:
//!
//! - [`event`] / [`recorder`] — a typed event taxonomy ([`Event`]) behind
//!   the [`Recorder`] trait, with [`Noop`] (zero-cost disabled),
//!   [`InMemory`] (post-run analysis), and [`JsonlWriter`] (streaming
//!   JSON Lines) sinks. Events carry simulation-time data only, so a
//!   recorded stream is byte-reproducible under a fixed seed.
//! - [`registry`] — counters, gauges, fixed-bucket histograms, and
//!   epoch-resolution time series behind copy-sized handles, frozen into
//!   a serializable [`MetricsSnapshot`].
//! - [`clock`] / [`spans`] — timing spans against an injected [`Clock`]:
//!   the OS monotonic clock for real profiles, or a [`ManualClock`] when
//!   reproducibility matters more than wall time.
//!
//! [`Telemetry`] bundles one of each for threading through a run. The
//! overhead contract: with the [`Noop`] recorder, instrumented code pays
//! one branch per emission site and nothing else — no event construction,
//! no allocation, no RNG perturbation.

pub mod clock;
pub mod event;
pub mod export;
pub mod recorder;
pub mod registry;
pub mod ring;
pub mod snapshot;
pub mod spans;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use event::{ControlTier, Event, EventKind, FaultKind, SanctionLevel, Severity};
pub use export::{collapsed_stacks, flame_tree, prometheus_text, prometheus_text_with_labels};
pub use recorder::{InMemory, JsonlWriter, Noop, Recorder, RecorderError, RotatingJsonl};
pub use registry::{
    CounterId, FixedHistogram, GaugeId, HistogramId, MetricsSnapshot, Registry, SeriesId,
};
pub use ring::{EventRing, RingConfig, RingProducer, DEFAULT_RING_CAPACITY};
pub use snapshot::{HealthAggregator, HealthSnapshot, WorkerHealth};
pub use spans::{SpanProfile, SpanReport, SpanStats};

/// A run's complete telemetry kit: recorder, registry, and span profile.
pub struct Telemetry {
    recorder: Box<dyn Recorder>,
    /// The metrics registry.
    pub registry: Registry,
    /// The span profile.
    pub spans: SpanProfile,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.recorder.enabled())
            .field("registry", &self.registry)
            .field("spans", &self.spans)
            .finish()
    }
}

impl Telemetry {
    /// Fully disabled telemetry: [`Noop`] recorder, deterministic clock.
    /// This is what un-instrumented entry points thread through, and it
    /// must cost nothing measurable.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry {
            recorder: Box::new(Noop),
            registry: Registry::new(),
            spans: SpanProfile::deterministic(),
        }
    }

    /// Alias for [`Telemetry::disabled`], for call sites of the unified
    /// run API that want no observation: `engine::run_guarded(cfg,
    /// streams, policy, guard, jobs, &mut Telemetry::noop())`.
    #[must_use]
    pub fn noop() -> Self {
        Telemetry::disabled()
    }

    /// In-memory telemetry with real (monotonic) span timings — the usual
    /// kit for report generation.
    #[must_use]
    pub fn in_memory() -> Self {
        Telemetry {
            recorder: Box::new(InMemory::new()),
            registry: Registry::new(),
            spans: SpanProfile::monotonic(),
        }
    }

    /// Telemetry around an explicit recorder and span profile.
    #[must_use]
    pub fn new(recorder: Box<dyn Recorder>, spans: SpanProfile) -> Self {
        Telemetry {
            recorder,
            registry: Registry::new(),
            spans,
        }
    }

    /// Whether the recorder accepts events (gate event construction on
    /// this).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Whether the recorder wants events of `kind`.
    #[must_use]
    pub fn wants(&self, kind: EventKind) -> bool {
        self.recorder.wants(kind)
    }

    /// Record one event (no-op when the recorder is disabled).
    pub fn emit(&mut self, event: &Event) {
        if self.recorder.enabled() {
            self.recorder.record(event);
        }
    }

    /// Mutable access to the recorder, for passing down to observed
    /// sub-steps (e.g. the mean-field solver).
    pub fn recorder(&mut self) -> &mut dyn Recorder {
        self.recorder.as_mut()
    }

    /// The recorded events, when the underlying recorder retains them.
    #[must_use]
    pub fn events(&self) -> Option<&[Event]> {
        self.recorder.events()
    }

    /// Mirror the recorder's write/drop accounting into the registry as
    /// `telemetry.recorder.written` / `telemetry.recorder.dropped`.
    /// Monotone and idempotent (safe to call at every checkpoint), so
    /// drops are surfaced as counters, never silent truncation.
    pub fn export_recorder_metrics(&mut self) {
        if !self.recorder.enabled() {
            return;
        }
        let written = self.recorder.write_count();
        let dropped = self.recorder.drop_count();
        let c = self.registry.counter("telemetry.recorder.written");
        self.registry.set_counter(c, written);
        let c = self.registry.counter("telemetry.recorder.dropped");
        self.registry.set_counter(c, dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_kit_accepts_nothing() {
        let mut t = Telemetry::disabled();
        assert!(!t.enabled());
        assert!(!t.wants(EventKind::EpochTick));
        t.emit(&Event::RunEnd {
            total_tasks: 1.0,
            trips: 0,
        });
        assert!(t.events().is_none());
    }

    #[test]
    fn in_memory_kit_records_and_exposes_events() {
        let mut t = Telemetry::in_memory();
        assert!(t.enabled());
        t.emit(&Event::RunEnd {
            total_tasks: 2.0,
            trips: 1,
        });
        assert_eq!(t.events().unwrap().len(), 1);
        let s = t.spans.start();
        t.spans.end("x", s);
        assert_eq!(t.spans.report().spans.len(), 1);
    }

    #[test]
    fn recorder_accounting_mirrors_into_registry() {
        let mut t = Telemetry::in_memory();
        t.emit(&Event::SolverBisection);
        t.emit(&Event::SolverBisection);
        t.export_recorder_metrics();
        t.export_recorder_metrics();
        assert_eq!(
            t.registry.counter_value("telemetry.recorder.written"),
            Some(2)
        );
        assert_eq!(
            t.registry.counter_value("telemetry.recorder.dropped"),
            Some(0)
        );
        // Disabled kits export nothing (and register nothing).
        let mut d = Telemetry::disabled();
        d.export_recorder_metrics();
        assert_eq!(d.registry.counter_value("telemetry.recorder.written"), None);
    }

    #[test]
    fn ring_backed_kit_drains_through_the_consumer() {
        let (mut ring, mut producers) = EventRing::new(1);
        let producer = producers.pop().unwrap();
        let mut t = Telemetry::new(Box::new(producer), SpanProfile::deterministic());
        assert!(t.enabled());
        t.emit(&Event::SolverBisection);
        t.export_recorder_metrics();
        assert_eq!(
            t.registry.counter_value("telemetry.recorder.written"),
            Some(1)
        );
        let events = ring.drain();
        assert_eq!(events, vec![Event::SolverBisection]);
    }

    #[test]
    fn custom_recorder_threads_through() {
        let jsonl = JsonlWriter::new(Vec::new());
        let mut t = Telemetry::new(Box::new(jsonl), SpanProfile::deterministic());
        t.emit(&Event::SolverBisection);
        // The recorder is reachable for downstream observed calls.
        t.recorder().record(&Event::SolverBisection);
        assert!(t.enabled());
    }
}

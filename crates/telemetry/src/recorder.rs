//! Event sinks: where recorded [`Event`]s go.
//!
//! The [`Recorder`] trait is the zero-cost-when-disabled seam between the
//! instrumented hot paths and storage. Producers check
//! [`Recorder::enabled`] once and skip event construction entirely when it
//! returns `false`, so [`Noop`] recording costs one branch per emission
//! site and perturbs nothing — no RNG draws, no allocation, no I/O.

use std::io::Write;

use crate::event::{Event, EventKind};

/// A sink for structured telemetry events.
pub trait Recorder: Send {
    /// Whether this recorder accepts events at all. Producers gate event
    /// construction on this, so disabled recorders are zero-cost.
    fn enabled(&self) -> bool {
        true
    }

    /// Whether this recorder wants events of `kind`. Lets producers skip
    /// high-volume kinds (per-agent sprint decisions) at the source.
    fn wants(&self, kind: EventKind) -> bool {
        let _ = kind;
        self.enabled()
    }

    /// Record one event.
    fn record(&mut self, event: &Event);

    /// The recorded events, when this recorder retains them in memory.
    fn events(&self) -> Option<&[Event]> {
        None
    }

    /// Events this recorder accepted and stored or wrote.
    fn write_count(&self) -> u64 {
        0
    }

    /// Events this recorder lost to capacity, serialization, or I/O
    /// failures. Filtered kinds are not losses and are not counted.
    /// Sinks that can lose events must report them here so drops are
    /// surfaced as counters, never silent truncation.
    fn drop_count(&self) -> u64 {
        0
    }
}

/// The disabled recorder: accepts nothing, records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Recorder for Noop {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &Event) {}
}

/// Retains every recorded event in memory, for post-run analysis.
#[derive(Debug, Clone, Default)]
pub struct InMemory {
    events: Vec<Event>,
    excluded: Vec<EventKind>,
}

impl InMemory {
    /// An empty in-memory recorder accepting every event kind.
    #[must_use]
    pub fn new() -> Self {
        InMemory::default()
    }

    /// Exclude an event kind (e.g. the per-agent decision firehose).
    #[must_use]
    pub fn without(mut self, kind: EventKind) -> Self {
        if !self.excluded.contains(&kind) {
            self.excluded.push(kind);
        }
        self
    }

    /// Recorded events in arrival order.
    #[must_use]
    pub fn recorded(&self) -> &[Event] {
        &self.events
    }

    /// Consume the recorder, yielding its events.
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl Recorder for InMemory {
    fn wants(&self, kind: EventKind) -> bool {
        !self.excluded.contains(&kind)
    }

    fn record(&mut self, event: &Event) {
        if self.wants(event.kind()) {
            self.events.push(event.clone());
        }
    }

    fn events(&self) -> Option<&[Event]> {
        Some(&self.events)
    }

    fn write_count(&self) -> u64 {
        self.events.len() as u64
    }
}

/// Streams events as JSON Lines to any writer.
///
/// One event per line, serialized with serde_json's deterministic float
/// formatting: identical event streams produce byte-identical output.
/// Serialization or I/O failures increment [`JsonlWriter::dropped`]
/// instead of panicking — telemetry must never take the rack down.
#[derive(Debug)]
pub struct JsonlWriter<W: Write + Send> {
    writer: W,
    excluded: Vec<EventKind>,
    written: u64,
    dropped: u64,
}

impl<W: Write + Send> JsonlWriter<W> {
    /// Stream events to `writer`.
    #[must_use]
    pub fn new(writer: W) -> Self {
        JsonlWriter {
            writer,
            excluded: Vec::new(),
            written: 0,
            dropped: 0,
        }
    }

    /// Exclude an event kind from the stream.
    #[must_use]
    pub fn without(mut self, kind: EventKind) -> Self {
        if !self.excluded.contains(&kind) {
            self.excluded.push(kind);
        }
        self
    }

    /// Events successfully written.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Events lost to serialization or I/O errors.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Flush and release the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the final flush failure.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write + Send> Recorder for JsonlWriter<W> {
    fn wants(&self, kind: EventKind) -> bool {
        !self.excluded.contains(&kind)
    }

    fn record(&mut self, event: &Event) {
        if !self.wants(event.kind()) {
            return;
        }
        let Ok(mut line) = serde_json::to_string(event) else {
            self.dropped += 1;
            return;
        };
        line.push('\n');
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(_) => self.dropped += 1,
        }
    }

    fn write_count(&self) -> u64 {
        self.written
    }

    fn drop_count(&self) -> u64 {
        self.dropped
    }
}

/// Why a file-backed recorder lost an event or failed to close.
///
/// Write failures never panic and never abort the run: the event is
/// counted as dropped, the most recent error is retained for inspection,
/// and the simulation continues — telemetry must never take the rack
/// down.
#[derive(Debug)]
pub enum RecorderError {
    /// Opening the sink failed.
    Open {
        /// The file that could not be opened.
        path: std::path::PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Writing or flushing an event line failed.
    Write {
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Rotating the active file into its numbered backup failed.
    Rotate {
        /// The file being rotated.
        path: std::path::PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for RecorderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecorderError::Open { path, source } => {
                write!(f, "opening telemetry sink {}: {source}", path.display())
            }
            RecorderError::Write { source } => {
                write!(f, "writing telemetry event: {source}")
            }
            RecorderError::Rotate { path, source } => {
                write!(f, "rotating telemetry sink {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for RecorderError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecorderError::Open { source, .. }
            | RecorderError::Write { source }
            | RecorderError::Rotate { path: _, source } => Some(source),
        }
    }
}

/// A size-rotating, buffered JSON Lines file sink.
///
/// Events stream through an internal [`std::io::BufWriter`]; when the
/// active file would exceed `max_bytes` it is flushed and rotated into
/// numbered backups (`trace.jsonl.1` is the newest backup, `.2` older,
/// up to `keep`), and a fresh active file is opened. Failures are typed
/// ([`RecorderError`]), counted in [`RotatingJsonl::dropped`], and
/// surfaced — never panics, never silent truncation.
#[derive(Debug)]
pub struct RotatingJsonl {
    path: std::path::PathBuf,
    max_bytes: u64,
    keep: usize,
    writer: std::io::BufWriter<std::fs::File>,
    active_bytes: u64,
    excluded: Vec<EventKind>,
    written: u64,
    dropped: u64,
    rotations: u64,
    last_error: Option<RecorderError>,
}

impl RotatingJsonl {
    /// Open `path` for appending, rotating once the active file would
    /// grow past `max_bytes` and keeping `keep` numbered backups.
    ///
    /// # Errors
    ///
    /// [`RecorderError::Open`] when the active file cannot be created.
    pub fn create(
        path: impl Into<std::path::PathBuf>,
        max_bytes: u64,
        keep: usize,
    ) -> Result<Self, RecorderError> {
        let path = path.into();
        let file = std::fs::File::create(&path).map_err(|source| RecorderError::Open {
            path: path.clone(),
            source,
        })?;
        Ok(RotatingJsonl {
            path,
            max_bytes: max_bytes.max(1),
            keep: keep.max(1),
            writer: std::io::BufWriter::new(file),
            active_bytes: 0,
            excluded: Vec::new(),
            written: 0,
            dropped: 0,
            rotations: 0,
            last_error: None,
        })
    }

    /// Exclude an event kind from the stream.
    #[must_use]
    pub fn without(mut self, kind: EventKind) -> Self {
        if !self.excluded.contains(&kind) {
            self.excluded.push(kind);
        }
        self
    }

    /// Events successfully written.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Events lost to serialization, I/O, or rotation errors.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Completed rotations.
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// The most recent failure, when any event has been dropped.
    #[must_use]
    pub fn last_error(&self) -> Option<&RecorderError> {
        self.last_error.as_ref()
    }

    /// Shift numbered backups up and move the active file to `.1`.
    fn rotate(&mut self) -> Result<(), RecorderError> {
        self.writer
            .flush()
            .map_err(|source| RecorderError::Write { source })?;
        let backup = |n: usize| {
            let mut p = self.path.clone().into_os_string();
            p.push(format!(".{n}"));
            std::path::PathBuf::from(p)
        };
        // Oldest backup falls off the end; the rest shift up by one.
        for n in (1..self.keep).rev() {
            let from = backup(n);
            if from.exists() {
                std::fs::rename(&from, backup(n + 1)).map_err(|source| RecorderError::Rotate {
                    path: from.clone(),
                    source,
                })?;
            }
        }
        std::fs::rename(&self.path, backup(1)).map_err(|source| RecorderError::Rotate {
            path: self.path.clone(),
            source,
        })?;
        let file = std::fs::File::create(&self.path).map_err(|source| RecorderError::Open {
            path: self.path.clone(),
            source,
        })?;
        self.writer = std::io::BufWriter::new(file);
        self.active_bytes = 0;
        self.rotations += 1;
        Ok(())
    }

    /// Flush buffered lines to the active file without closing it — the
    /// drain hook for long-lived sinks (the `sprint serve` daemon's event
    /// log), where shutdown must publish every buffered line while the
    /// recorder object stays alive for accounting.
    ///
    /// # Errors
    ///
    /// The flush failure, typed ([`RecorderError::Write`]).
    pub fn flush(&mut self) -> Result<(), RecorderError> {
        self.writer
            .flush()
            .map_err(|source| RecorderError::Write { source })
    }

    /// Flush buffered lines and close the active file.
    ///
    /// # Errors
    ///
    /// The final flush failure, typed.
    pub fn finish(mut self) -> Result<(), RecorderError> {
        self.writer
            .flush()
            .map_err(|source| RecorderError::Write { source })
    }
}

impl Recorder for RotatingJsonl {
    fn wants(&self, kind: EventKind) -> bool {
        !self.excluded.contains(&kind)
    }

    fn record(&mut self, event: &Event) {
        if !self.wants(event.kind()) {
            return;
        }
        let Ok(mut line) = serde_json::to_string(event) else {
            self.dropped += 1;
            return;
        };
        line.push('\n');
        if self.active_bytes + line.len() as u64 > self.max_bytes && self.active_bytes > 0 {
            if let Err(e) = self.rotate() {
                self.dropped += 1;
                self.last_error = Some(e);
                return;
            }
        }
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => {
                self.active_bytes += line.len() as u64;
                self.written += 1;
            }
            Err(source) => {
                self.dropped += 1;
                self.last_error = Some(RecorderError::Write { source });
            }
        }
    }

    fn write_count(&self) -> u64 {
        self.written
    }

    fn drop_count(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(epoch: usize) -> Event {
        Event::EpochTick {
            epoch,
            sprinters: 1,
            stuck: 0,
            tripped: false,
            recovering: false,
            tasks: 2.0,
        }
    }

    #[test]
    fn noop_is_disabled_and_silent() {
        let mut n = Noop;
        assert!(!n.enabled());
        assert!(!n.wants(EventKind::EpochTick));
        n.record(&tick(0));
        assert!(n.events().is_none());
    }

    #[test]
    fn in_memory_retains_in_order_and_filters() {
        let mut r = InMemory::new().without(EventKind::SprintDecision);
        r.record(&tick(0));
        r.record(&Event::SprintDecision {
            epoch: 0,
            agent: 1,
            estimate: 3.0,
            sprint: true,
        });
        r.record(&tick(1));
        assert_eq!(r.recorded().len(), 2);
        assert_eq!(r.events().unwrap()[1].kind(), EventKind::EpochTick);
        assert_eq!(r.into_events().len(), 2);
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut w = JsonlWriter::new(Vec::new());
        w.record(&tick(0));
        w.record(&tick(1));
        assert_eq!(w.written(), 2);
        assert_eq!(w.dropped(), 0);
        let bytes = w.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let e: Event = serde_json::from_str(line).unwrap();
            assert_eq!(e.kind(), EventKind::EpochTick);
        }
    }

    #[test]
    fn jsonl_streams_are_byte_identical_for_identical_events() {
        let run = || {
            let mut w = JsonlWriter::new(Vec::new());
            for epoch in 0..50 {
                w.record(&tick(epoch));
                w.record(&Event::BreakerTrip {
                    epoch,
                    realized: 0.1 + epoch as f64 / 3.0,
                    measured: 0.1 + epoch as f64 / 3.0,
                    p_trip: 1.0 / (1.0 + epoch as f64),
                });
            }
            w.finish().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn jsonl_filter_drops_kind_silently() {
        let mut w = JsonlWriter::new(Vec::new()).without(EventKind::EpochTick);
        w.record(&tick(0));
        assert_eq!(w.written(), 0);
        assert_eq!(w.dropped(), 0, "filtered events are not failures");
    }

    /// A scratch directory removed on drop, so failed assertions don't
    /// leak files between test runs.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("sprint-telemetry-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn rotating_jsonl_rotates_at_the_size_limit_and_keeps_backups() {
        let scratch = Scratch::new("rotate");
        let path = scratch.0.join("trace.jsonl");
        let line_len = {
            let mut probe = serde_json::to_string(&tick(0)).unwrap();
            probe.push('\n');
            probe.len() as u64
        };
        // Room for two lines per file: every third event rotates.
        let mut w = RotatingJsonl::create(&path, 2 * line_len, 2).unwrap();
        for epoch in 0..7 {
            w.record(&tick(epoch));
        }
        assert_eq!(w.written(), 7);
        assert_eq!(w.dropped(), 0);
        assert_eq!(w.rotations(), 3);
        assert!(w.last_error().is_none());
        w.finish().unwrap();

        let read = |p: &std::path::Path| std::fs::read_to_string(p).unwrap();
        let active = read(&path);
        assert_eq!(active.lines().count(), 1, "{active}");
        // Newest backup is .1; only `keep = 2` backups survive.
        assert_eq!(read(&path.with_extension("jsonl.1")).lines().count(), 2);
        assert_eq!(read(&path.with_extension("jsonl.2")).lines().count(), 2);
        assert!(!path.with_extension("jsonl.3").exists());
        // Every surviving line is valid JSONL.
        for text in [&active] {
            for line in text.lines() {
                let e: Event = serde_json::from_str(line).unwrap();
                assert_eq!(e.kind(), EventKind::EpochTick);
            }
        }
    }

    #[test]
    fn rotating_jsonl_write_failure_is_typed_and_counted_not_a_panic() {
        let scratch = Scratch::new("rotate-fail");
        let path = scratch.0.join("trace.jsonl");
        let mut w = RotatingJsonl::create(&path, 64, 1).unwrap();
        // Make rotation impossible: replace the scratch dir's active
        // file's parent with a read-only dir? Portability is poor, so
        // instead force a rotate-rename failure by deleting the active
        // file out from under the writer.
        w.record(&tick(0));
        std::fs::remove_file(&path).unwrap();
        // Fill past the limit so the next record must rotate; the rename
        // of a missing file fails, which must surface as a typed drop.
        for epoch in 0..64 {
            w.record(&tick(epoch));
        }
        assert!(w.dropped() > 0, "failed rotation counts drops");
        assert!(
            matches!(w.last_error(), Some(RecorderError::Rotate { .. })),
            "{:?}",
            w.last_error()
        );
        assert_eq!(w.drop_count(), w.dropped());
    }

    #[test]
    fn rotating_jsonl_open_failure_is_typed() {
        let missing = std::path::Path::new("/nonexistent-sprint-dir/trace.jsonl");
        match RotatingJsonl::create(missing, 1024, 1) {
            Err(RecorderError::Open { path, .. }) => assert_eq!(path, missing),
            other => panic!("expected Open error, got {other:?}"),
        }
    }
}

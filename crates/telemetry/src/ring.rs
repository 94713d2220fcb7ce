//! A bounded, lock-free MPSC ring for live event tailing.
//!
//! The in-memory and JSONL recorders are fine for post-run analysis but
//! wrong for live observation: one grows without bound, the other blocks
//! on I/O in the emitting thread. The [`EventRing`] is the third shape —
//! a fixed set of bounded single-producer segments, one per emitting
//! thread, drained by exactly one consumer. Producers never contend with
//! each other (each owns its segment exclusively) and never block; when
//! a segment is full the event is counted in an explicit drop counter
//! instead of silently truncating or stalling the epoch loop.
//!
//! A segment's slots are committed a block of [`RING_BLOCK_SLOTS`] at a
//! time, by the producer, when it first reaches the block: a ring sized
//! for a long run costs memory only for the slots its producers have
//! used. After that a slot write allocates nothing for fixed-size
//! events.
//!
//! Each producer is a [`RingProducer`], a [`Recorder`] that can back a
//! [`Telemetry`](crate::Telemetry) kit directly. Filtering happens at
//! the source: a minimum [`Severity`] gate (so e.g. the per-agent
//! decision firehose is never constructed) and per-kind 1-of-n sampling
//! strides for high-volume kinds that should be thinned, not silenced.
//!
//! Determinism: the ring carries simulation-time events only, and the
//! engine emits from a single thread, so a drained stream from an
//! engine run is identical at every `--jobs` count. Sweep workers each
//! publish into their own segment; their merged stream interleaves by
//! worker (scheduling-dependent), which is why sweep *reports* are built
//! from the slot-per-trial table, never from ring order.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::event::{Event, EventKind, Severity};
use crate::recorder::Recorder;
use crate::registry::Registry;

/// Tuning for an [`EventRing`].
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Slots per producer segment, committed a block at a time as the
    /// producer first reaches them.
    pub capacity: usize,
    /// Minimum severity a producer accepts; quieter kinds are rejected
    /// at the `wants` gate so emitters skip event construction entirely.
    pub min_severity: Severity,
    /// Per-kind sampling strides: `(kind, n)` keeps the first of every
    /// `n` events of `kind` (per producer, deterministic by count).
    pub sample: Vec<(EventKind, u32)>,
}

/// Default segment capacity: enough for a full 100k-epoch run of
/// Info-and-louder engine events without dropping.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 17;

/// Slots per lazily committed block of a segment. A segment whose
/// capacity is not a multiple of this ends in a shorter block.
pub const RING_BLOCK_SLOTS: usize = 4096;

type Slot = UnsafeCell<Option<Event>>;

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            capacity: DEFAULT_RING_CAPACITY,
            min_severity: Severity::Debug,
            sample: Vec::new(),
        }
    }
}

impl RingConfig {
    /// Keep only events at `min` severity or louder.
    #[must_use]
    pub fn with_min_severity(mut self, min: Severity) -> Self {
        self.min_severity = min;
        self
    }

    /// Keep the first of every `n` events of `kind` (n = 0 or 1 keeps
    /// everything).
    #[must_use]
    pub fn with_sample(mut self, kind: EventKind, n: u32) -> Self {
        if n > 1 {
            self.sample.push((kind, n));
        }
        self
    }

    /// Override the per-producer segment capacity (min 2 slots).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(2);
        self
    }
}

/// One producer's SPSC segment. The producer owns `tail` and writes the
/// slot it indexes; the consumer owns `head` and reads slots in
/// `[head, tail)`. Indices are monotonically increasing (wrapping)
/// positions, reduced modulo capacity at access time, so `tail - head`
/// is the live occupancy.
struct Segment {
    /// Slots `b * RING_BLOCK_SLOTS ..` of the segment, one block per
    /// entry. The producer commits a block (allocates it, every slot
    /// empty) when it first writes into it; a block is never replaced or
    /// freed before the segment drops.
    blocks: Box<[OnceLock<Box<[Slot]>>]>,
    /// Slots in the segment.
    capacity: usize,
    /// Next write position. Written by the producer (Release), read by
    /// the consumer (Acquire).
    tail: AtomicUsize,
    /// Next read position. Written by the consumer (Release), read by
    /// the producer (Acquire).
    head: AtomicUsize,
    /// Events rejected because the segment was full.
    dropped: AtomicU64,
    /// Events successfully published.
    published: AtomicU64,
}

// SAFETY: slot `i % capacity` is written only by the unique producer
// (while `tail - head < capacity` guarantees the consumer is not reading
// it) and taken only by the unique consumer after observing the
// producer's Release store of `tail` (Acquire), which orders the slot
// write before the read. Producer uniqueness is enforced by handing out
// each `RingProducer` exactly once; consumer uniqueness by
// `EventRing::drain` taking `&mut self` on a non-clonable ring.
//
// The `blocks` field shares the same discipline. Only the producer
// commits a block (`OnceLock::get_or_init`), before it writes the
// block's first slot and so before the Release store of `tail` that
// publishes the slot. The consumer reaches a block only through
// `OnceLock::get`, and only for positions below a `tail` it loaded with
// Acquire, so every block it reads was committed, and the commit
// happens-before the read. A committed block never moves or frees while
// the segment lives, so a slot reference taken from it stays valid.
unsafe impl Sync for Segment {}

impl Segment {
    fn new(capacity: usize) -> Self {
        Segment {
            blocks: (0..capacity.div_ceil(RING_BLOCK_SLOTS))
                .map(|_| OnceLock::new())
                .collect(),
            capacity,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            published: AtomicU64::new(0),
        }
    }

    /// The block and the offset in it of position `pos`.
    fn locate(&self, pos: usize) -> (usize, usize) {
        let slot = pos % self.capacity;
        (slot / RING_BLOCK_SLOTS, slot % RING_BLOCK_SLOTS)
    }

    /// The slot of position `pos`, committing its block on first use.
    /// Only the producer calls this.
    fn slot_to_write(&self, pos: usize) -> &Slot {
        let (b, k) = self.locate(pos);
        let len = RING_BLOCK_SLOTS.min(self.capacity - b * RING_BLOCK_SLOTS);
        &self.blocks[b].get_or_init(|| (0..len).map(|_| UnsafeCell::new(None)).collect())[k]
    }

    /// The slot of position `pos`, if its block is committed.
    fn committed_slot(&self, pos: usize) -> Option<&Slot> {
        let (b, k) = self.locate(pos);
        self.blocks[b].get().map(|block| &block[k])
    }

    #[cfg(test)]
    fn committed_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.get().is_some()).count()
    }
}

struct RingShared {
    segments: Vec<Segment>,
}

/// The consumer half of a bounded lock-free event ring.
///
/// Built together with its producers by [`EventRing::new`]; drain from
/// one thread while producers publish from theirs.
pub struct EventRing {
    shared: Arc<RingShared>,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("producers", &self.shared.segments.len())
            .field("published", &self.published())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventRing {
    /// A ring with `producers` segments under the default config.
    /// Returns the consumer and one [`RingProducer`] per segment.
    #[must_use]
    pub fn new(producers: usize) -> (EventRing, Vec<RingProducer>) {
        EventRing::with_config(producers, &RingConfig::default())
    }

    /// A ring with `producers` segments under an explicit config.
    #[must_use]
    pub fn with_config(producers: usize, config: &RingConfig) -> (EventRing, Vec<RingProducer>) {
        let producers = producers.max(1);
        let capacity = config.capacity.max(2);
        let shared = Arc::new(RingShared {
            segments: (0..producers).map(|_| Segment::new(capacity)).collect(),
        });
        let handles = (0..producers)
            .map(|segment| RingProducer {
                shared: Arc::clone(&shared),
                segment,
                min_severity: config.min_severity,
                sample: config
                    .sample
                    .iter()
                    .map(|&(kind, n)| SampleState { kind, n, seen: 0 })
                    .collect(),
            })
            .collect();
        (EventRing { shared }, handles)
    }

    /// Take every published-but-unconsumed event, segment by segment in
    /// producer order (FIFO within a producer).
    pub fn drain(&mut self) -> Vec<Event> {
        let mut out = Vec::new();
        for seg in &self.shared.segments {
            let mut h = seg.head.load(Ordering::Relaxed);
            let tail = seg.tail.load(Ordering::Acquire);
            while h != tail {
                // SAFETY: `h < tail` means the producer committed this
                // slot's block and published the slot (Release/Acquire
                // on `tail`), and it cannot rewrite the slot until `head`
                // passes it.
                let event = seg
                    .committed_slot(h)
                    .and_then(|slot| unsafe { (*slot.get()).take() });
                if let Some(event) = event {
                    out.push(event);
                }
                h = h.wrapping_add(1);
            }
            seg.head.store(h, Ordering::Release);
        }
        out
    }

    /// Total events published across all producers.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.shared
            .segments
            .iter()
            .map(|s| s.published.load(Ordering::Relaxed))
            .sum()
    }

    /// Total events dropped (full segments) across all producers. Drops
    /// are always counted, never silent.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared
            .segments
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Events dropped by one producer's segment.
    #[must_use]
    pub fn producer_dropped(&self, producer: usize) -> u64 {
        self.shared
            .segments
            .get(producer)
            .map_or(0, |s| s.dropped.load(Ordering::Relaxed))
    }

    /// Number of producer segments.
    #[must_use]
    pub fn producers(&self) -> usize {
        self.shared.segments.len()
    }

    /// Blocks committed in one producer's segment.
    #[cfg(test)]
    fn committed_blocks(&self, producer: usize) -> usize {
        self.shared.segments[producer].committed_blocks()
    }

    /// Mirror the ring's accounting into a registry: `ring.published`,
    /// `ring.dropped`, and the per-producer drop counters.
    pub fn export_metrics(&self, registry: &mut Registry) {
        let c = registry.counter("ring.published");
        registry.set_counter(c, self.published());
        let c = registry.counter("ring.dropped");
        registry.set_counter(c, self.dropped());
        for (i, seg) in self.shared.segments.iter().enumerate() {
            let dropped = seg.dropped.load(Ordering::Relaxed);
            if dropped > 0 {
                let c = registry.counter(&format!("ring.producer.{i}.dropped"));
                registry.set_counter(c, dropped);
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SampleState {
    kind: EventKind,
    n: u32,
    seen: u32,
}

/// The producer half: a [`Recorder`] publishing into its own segment.
///
/// Exactly one handle exists per segment and the type is not clonable,
/// so slot writes are single-producer by construction. Publishing is
/// wait-free: a full segment increments the drop counter and returns.
pub struct RingProducer {
    shared: Arc<RingShared>,
    segment: usize,
    min_severity: Severity,
    sample: Vec<SampleState>,
}

impl std::fmt::Debug for RingProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingProducer")
            .field("segment", &self.segment)
            .field("min_severity", &self.min_severity)
            .finish_non_exhaustive()
    }
}

impl RingProducer {
    /// This producer's segment index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.segment
    }

    /// Events this producer dropped against a full segment.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.segments[self.segment]
            .dropped
            .load(Ordering::Relaxed)
    }

    /// Events this producer published.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.shared.segments[self.segment]
            .published
            .load(Ordering::Relaxed)
    }
}

impl Recorder for RingProducer {
    fn wants(&self, kind: EventKind) -> bool {
        kind.severity() >= self.min_severity
    }

    fn record(&mut self, event: &Event) {
        let kind = event.kind();
        if kind.severity() < self.min_severity {
            return;
        }
        if let Some(s) = self.sample.iter_mut().find(|s| s.kind == kind) {
            let keep = s.seen % s.n == 0;
            s.seen = s.seen.wrapping_add(1);
            if !keep {
                return;
            }
        }
        let seg = &self.shared.segments[self.segment];
        let tail = seg.tail.load(Ordering::Relaxed);
        let head = seg.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= seg.capacity {
            // Full: count the loss explicitly rather than blocking the
            // epoch loop or overwriting unconsumed telemetry.
            seg.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: this is the unique producer for the segment, and the
        // occupancy check above guarantees the consumer is not reading
        // slot `tail % capacity`; its block is committed before the
        // `tail` store below publishes it.
        let slot = seg.slot_to_write(tail);
        unsafe {
            *slot.get() = Some(event.clone());
        }
        seg.tail.store(tail.wrapping_add(1), Ordering::Release);
        seg.published.fetch_add(1, Ordering::Relaxed);
    }

    fn drop_count(&self) -> u64 {
        self.dropped()
    }

    fn write_count(&self) -> u64 {
        self.published()
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
    fn publishes_and_drains_fifo_per_producer() {
        let (mut ring, mut producers) = EventRing::new(1);
        let p = &mut producers[0];
        for epoch in 0..5 {
            p.record(&tick(epoch));
        }
        assert_eq!(ring.published(), 5);
        assert_eq!(ring.dropped(), 0);
        let events = ring.drain();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            match e {
                Event::EpochTick { epoch, .. } => assert_eq!(*epoch, i),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(ring.drain().is_empty(), "drain consumes");
    }

    #[test]
    fn full_segment_counts_drops_never_truncates_silently() {
        let config = RingConfig::default().with_capacity(4);
        let (mut ring, mut producers) = EventRing::with_config(1, &config);
        let p = &mut producers[0];
        for epoch in 0..10 {
            p.record(&tick(epoch));
        }
        assert_eq!(ring.published(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.producer_dropped(0), 6);
        assert_eq!(p.drop_count(), 6);
        // The surviving events are the oldest four, in order.
        let events = ring.drain();
        assert_eq!(events.len(), 4);
        // Space reclaimed by the drain is writable again.
        p.record(&tick(99));
        assert_eq!(ring.drain().len(), 1);
    }

    #[test]
    fn severity_floor_rejects_at_the_wants_gate() {
        let config = RingConfig::default().with_min_severity(Severity::Warn);
        let (mut ring, mut producers) = EventRing::with_config(1, &config);
        let p = &mut producers[0];
        assert!(!p.wants(EventKind::EpochTick));
        assert!(p.wants(EventKind::BreakerTrip));
        p.record(&tick(0));
        p.record(&Event::BreakerTrip {
            epoch: 0,
            realized: 1.0,
            measured: 1.0,
            p_trip: 0.5,
        });
        let events = ring.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind(), EventKind::BreakerTrip);
        assert_eq!(ring.dropped(), 0, "filtered events are not drops");
    }

    #[test]
    fn sampling_keeps_first_of_every_n_deterministically() {
        let config = RingConfig::default().with_sample(EventKind::EpochTick, 3);
        let (mut ring, mut producers) = EventRing::with_config(1, &config);
        let p = &mut producers[0];
        for epoch in 0..9 {
            p.record(&tick(epoch));
        }
        let kept: Vec<usize> = ring
            .drain()
            .iter()
            .map(|e| match e {
                Event::EpochTick { epoch, .. } => *epoch,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(kept, [0, 3, 6]);
    }

    #[test]
    fn concurrent_producers_never_lose_or_duplicate_within_capacity() {
        let per_producer = 5_000usize;
        let config = RingConfig::default().with_capacity(per_producer);
        let (mut ring, producers) = EventRing::with_config(4, &config);
        std::thread::scope(|scope| {
            for mut p in producers {
                scope.spawn(move || {
                    for epoch in 0..per_producer {
                        p.record(&tick(epoch));
                    }
                });
            }
        });
        assert_eq!(ring.published(), 4 * per_producer as u64);
        assert_eq!(ring.dropped(), 0);
        let events = ring.drain();
        assert_eq!(events.len(), 4 * per_producer);
        // Per-producer FIFO: the drained stream is 4 contiguous ordered
        // segments of `per_producer` ticks each.
        for chunk in events.chunks(per_producer) {
            for (i, e) in chunk.iter().enumerate() {
                match e {
                    Event::EpochTick { epoch, .. } => assert_eq!(*epoch, i),
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
    }

    #[test]
    fn concurrent_drain_while_publishing_sees_every_event_once() {
        let total = 20_000usize;
        let config = RingConfig::default().with_capacity(64);
        let (mut ring, mut producers) = EventRing::with_config(1, &config);
        let mut p = producers.pop().unwrap();
        let mut seen = Vec::new();
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let mut published = 0u64;
                for epoch in 0..total {
                    // Spin until the slot frees: this test wants zero
                    // drops so it can assert exactly-once delivery.
                    loop {
                        let before = p.dropped();
                        p.record(&tick(epoch));
                        if p.dropped() == before {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    published += 1;
                }
                published
            });
            while !handle.is_finished() {
                seen.extend(ring.drain());
            }
            assert_eq!(handle.join().unwrap(), total as u64);
        });
        seen.extend(ring.drain());
        assert_eq!(seen.len(), total);
        for (i, e) in seen.iter().enumerate() {
            match e {
                Event::EpochTick { epoch, .. } => assert_eq!(*epoch, i),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    /// The epochs of `events`, which must all be ticks.
    fn epochs(events: &[Event]) -> Vec<usize> {
        events
            .iter()
            .map(|e| match e {
                Event::EpochTick { epoch, .. } => *epoch,
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_block_is_committed_when_the_producer_first_reaches_it() {
        let config = RingConfig::default().with_capacity(3 * RING_BLOCK_SLOTS);
        let (mut ring, mut producers) = EventRing::with_config(1, &config);
        assert_eq!(ring.committed_blocks(0), 0, "nothing is committed at build");
        let p = &mut producers[0];
        let mut published = 0;
        for (k, blocks) in [
            (1, 1),
            (RING_BLOCK_SLOTS, 1),
            (RING_BLOCK_SLOTS + 1, 2),
            (2 * RING_BLOCK_SLOTS, 2),
            (2 * RING_BLOCK_SLOTS + 1, 3),
        ] {
            while published < k {
                p.record(&tick(published));
                published += 1;
            }
            assert_eq!(ring.committed_blocks(0), blocks, "after {k} publishes");
        }
        // Draining frees slots, not blocks: a committed block is reused.
        assert_eq!(ring.drain().len(), published);
        p.record(&tick(0));
        assert_eq!(ring.committed_blocks(0), 3);
    }

    #[test]
    fn wrap_around_crosses_blocks_in_fifo_order_with_drops_counted() {
        // Not a multiple of the block: the last block holds 5 slots.
        let capacity = RING_BLOCK_SLOTS + 5;
        let config = RingConfig::default().with_capacity(capacity);
        let (mut ring, mut producers) = EventRing::with_config(1, &config);
        let p = &mut producers[0];
        for epoch in 0..100 {
            p.record(&tick(epoch));
        }
        assert_eq!(epochs(&ring.drain()), (0..100).collect::<Vec<_>>());
        // Positions 100.. run to the end of the short block, wrap into
        // block 0 and stop at the capacity; the rest drop.
        for epoch in 100..100 + capacity + 7 {
            p.record(&tick(epoch));
        }
        assert_eq!(ring.dropped(), 7);
        assert_eq!(ring.published(), (100 + capacity) as u64);
        assert_eq!(ring.committed_blocks(0), 2);
        assert_eq!(
            epochs(&ring.drain()),
            (100..100 + capacity).collect::<Vec<_>>()
        );
        // A full lap later the segment still holds exactly its capacity.
        for epoch in 0..capacity + 1 {
            p.record(&tick(epoch));
        }
        assert_eq!(ring.dropped(), 8);
        assert_eq!(epochs(&ring.drain()), (0..capacity).collect::<Vec<_>>());
    }

    #[test]
    fn a_capacity_below_one_block_commits_only_its_own_slots() {
        let config = RingConfig::default().with_capacity(3);
        let (mut ring, mut producers) = EventRing::with_config(1, &config);
        let p = &mut producers[0];
        for epoch in 0..5 {
            p.record(&tick(epoch));
        }
        assert_eq!(ring.committed_blocks(0), 1);
        assert_eq!(ring.shared.segments[0].blocks[0].get().unwrap().len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(epochs(&ring.drain()), [0, 1, 2]);
    }

    #[test]
    fn draining_untouched_segments_commits_nothing() {
        let (mut ring, mut producers) = EventRing::new(3);
        assert!(ring.drain().is_empty());
        producers[1].record(&tick(4));
        assert_eq!(epochs(&ring.drain()), [4]);
        assert!(ring.drain().is_empty());
        let committed: Vec<usize> = (0..3).map(|i| ring.committed_blocks(i)).collect();
        assert_eq!(committed, [0, 1, 0]);
    }

    #[test]
    fn export_metrics_mirrors_accounting_idempotently() {
        let config = RingConfig::default().with_capacity(2);
        let (ring, mut producers) = EventRing::with_config(1, &config);
        let p = &mut producers[0];
        for epoch in 0..5 {
            p.record(&tick(epoch));
        }
        let mut registry = Registry::new();
        ring.export_metrics(&mut registry);
        ring.export_metrics(&mut registry);
        assert_eq!(registry.counter_value("ring.published"), Some(2));
        assert_eq!(registry.counter_value("ring.dropped"), Some(3));
        assert_eq!(registry.counter_value("ring.producer.0.dropped"), Some(3));
    }
}

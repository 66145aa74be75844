//! Structured tracing: spans and events behind the [`Recorder`] trait.
//!
//! Instrumentation sites guard every clock read and event build behind
//! [`Recorder::enabled`], which the default [`NoopRecorder`] answers
//! `false` — so an uninstrumented stack pays one predictable branch
//! per site and nothing else.  The [`RingRecorder`] keeps bounded
//! per-thread ring buffers (overwrite-oldest) so a hot path never
//! blocks on a slow consumer; [`RingRecorder::drain`] returns the
//! retained events ordered by timestamp.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process's observability clock was first read
/// (a monotonic anchor, not wall time: trace timestamps order events
/// and difference into durations, they do not date them).
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = *START.get_or_init(Instant::now);
    start.elapsed().as_nanos() as u64
}

/// Allocate a fresh nonzero span id (process-global).
pub fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// What a [`TraceEvent`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened; `span` is its id, `parent` links the enclosing
    /// span (0 = root).
    SpanStart,
    /// The span closed; `value` is its duration in nanoseconds.
    SpanEnd,
    /// A point event; `value` carries an event-specific payload.
    Event,
}

/// One structured trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// [`now_ns`] at emission.
    pub ts_ns: u64,
    /// Span/event discriminator.
    pub kind: TraceKind,
    /// Static site name (e.g. `"engine.apply"`, `"serve.stale"`).
    pub name: &'static str,
    /// Span id (0 for plain events emitted outside a span).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Payload: duration for [`TraceKind::SpanEnd`], site-specific
    /// for [`TraceKind::Event`] (an epoch, a count, …).
    pub value: u64,
}

/// Sink for [`TraceEvent`]s.
///
/// The two-method shape is what keeps disabled tracing free:
/// instrumentation does `if recorder.enabled() { … now_ns() …
/// recorder.record(…) }`, so with the default `enabled() == false`
/// nothing past the branch executes.
pub trait Recorder: Send + Sync {
    /// Whether sites should build and emit events at all.
    fn enabled(&self) -> bool {
        false
    }

    /// Accept one event.  Must be cheap and non-blocking.
    fn record(&self, _event: TraceEvent) {}
}

/// The do-nothing default sink ([`Recorder::enabled`]` == false`).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// How many ring shards a [`RingRecorder`] keeps.  Threads are
/// assigned shards round-robin at first use; with fewer than
/// `RING_SHARDS` concurrent recording threads every thread owns its
/// shard exclusively and the per-record lock is uncontended.
const RING_SHARDS: usize = 64;

struct Ring {
    events: Vec<TraceEvent>,
    /// Next write position once `events` has reached capacity.
    next: usize,
}

/// Bounded, overwrite-oldest trace sink with per-thread ring shards.
pub struct RingRecorder {
    shards: Vec<Mutex<Ring>>,
    capacity_per_shard: usize,
}

impl RingRecorder {
    /// A recorder retaining up to `capacity` events in total, spread
    /// over the per-thread shards.
    pub fn new(capacity: usize) -> Arc<RingRecorder> {
        let capacity_per_shard = (capacity / RING_SHARDS).max(16);
        Arc::new(RingRecorder {
            shards: (0..RING_SHARDS)
                .map(|_| {
                    Mutex::new(Ring {
                        events: Vec::new(),
                        next: 0,
                    })
                })
                .collect(),
            capacity_per_shard,
        })
    }

    fn shard_index(&self) -> usize {
        static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static MY_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
        }
        MY_SHARD.with(|cell| {
            let mut ix = cell.get();
            if ix == usize::MAX {
                ix = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % RING_SHARDS;
                cell.set(ix);
            }
            ix
        })
    }

    /// Remove and return every retained event, ordered by timestamp.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for shard in &self.shards {
            let mut ring = shard.lock().unwrap_or_else(|e| e.into_inner());
            // Restore arrival order: the oldest retained event sits at
            // `next` once the ring has wrapped.
            let next = ring.next;
            if ring.events.len() == self.capacity_per_shard && next != 0 {
                ring.events.rotate_left(next);
            }
            ring.next = 0;
            all.append(&mut ring.events);
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).events.len())
            .sum()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for RingRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingRecorder")
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("len", &self.len())
            .finish()
    }
}

impl Recorder for RingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        let ix = self.shard_index();
        let mut ring = self.shards[ix].lock().unwrap_or_else(|e| e.into_inner());
        if ring.events.len() < self.capacity_per_shard {
            ring.events.push(event);
        } else {
            let next = ring.next;
            ring.events[next] = event;
            ring.next = (next + 1) % self.capacity_per_shard;
        }
    }
}

/// RAII span: emits [`TraceKind::SpanStart`] on creation and
/// [`TraceKind::SpanEnd`] (with the span's duration as `value`) on
/// drop.  Returned only when the recorder is enabled, so holding an
/// `Option<SpanGuard>` costs nothing on uninstrumented stacks.
pub struct SpanGuard<'a> {
    recorder: &'a dyn Recorder,
    name: &'static str,
    span: u64,
    parent: u64,
    start_ns: u64,
}

impl<'a> SpanGuard<'a> {
    /// Open a span under `parent` (0 = root) if `recorder` is enabled.
    pub fn enter(
        recorder: &'a dyn Recorder,
        name: &'static str,
        parent: u64,
    ) -> Option<SpanGuard<'a>> {
        if !recorder.enabled() {
            return None;
        }
        let span = next_span_id();
        let start_ns = now_ns();
        recorder.record(TraceEvent {
            ts_ns: start_ns,
            kind: TraceKind::SpanStart,
            name,
            span,
            parent,
            value: 0,
        });
        Some(SpanGuard {
            recorder,
            name,
            span,
            parent,
            start_ns,
        })
    }

    /// This span's id (for parenting children).
    pub fn id(&self) -> u64 {
        self.span
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = now_ns();
        self.recorder.record(TraceEvent {
            ts_ns: end,
            kind: TraceKind::SpanEnd,
            name: self.name,
            span: self.span,
            parent: self.parent,
            value: end.saturating_sub(self.start_ns),
        });
    }
}

/// Emit a point [`TraceKind::Event`] if `recorder` is enabled.
pub fn emit_event(recorder: &dyn Recorder, name: &'static str, value: u64) {
    if recorder.enabled() {
        recorder.record(TraceEvent {
            ts_ns: now_ns(),
            kind: TraceKind::Event,
            name,
            span: 0,
            parent: 0,
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let rec = RingRecorder::new(0); // floor: 16 per shard
        for i in 0..40u64 {
            rec.record(TraceEvent {
                ts_ns: i,
                kind: TraceKind::Event,
                name: "t",
                span: 0,
                parent: 0,
                value: i,
            });
        }
        // One thread → one shard → 16 retained, the newest 16.
        let events = rec.drain();
        assert_eq!(events.len(), 16);
        assert_eq!(events.first().unwrap().value, 24);
        assert_eq!(events.last().unwrap().value, 39);
        assert!(rec.is_empty(), "drain clears the rings");
    }

    #[test]
    fn span_guard_links_parent_and_times() {
        let rec = RingRecorder::new(1024);
        {
            let outer = SpanGuard::enter(&*rec, "outer", 0).expect("enabled");
            let _inner = SpanGuard::enter(&*rec, "inner", outer.id()).expect("enabled");
        }
        let events = rec.drain();
        assert_eq!(events.len(), 4);
        let starts: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::SpanStart)
            .collect();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceKind::SpanEnd)
            .collect();
        assert_eq!(starts.len(), 2);
        assert_eq!(ends.len(), 2);
        let outer_id = starts.iter().find(|e| e.name == "outer").unwrap().span;
        let inner = starts.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(inner.parent, outer_id, "child links its parent span");
        // The inner span closes before the outer and both carry
        // durations consistent with their window.
        let outer_end = ends.iter().find(|e| e.name == "outer").unwrap();
        let inner_end = ends.iter().find(|e| e.name == "inner").unwrap();
        assert!(inner_end.ts_ns <= outer_end.ts_ns);
        assert!(inner_end.value <= outer_end.value);
    }

    #[test]
    fn noop_recorder_reports_disabled() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        assert!(SpanGuard::enter(&rec, "x", 0).is_none());
        emit_event(&rec, "x", 7); // must be a no-op, not a panic
    }

    #[test]
    fn concurrent_recording_keeps_shards_independent() {
        let rec = RingRecorder::new(RING_SHARDS * 64);
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        rec.record(TraceEvent {
                            ts_ns: now_ns(),
                            kind: TraceKind::Event,
                            name: "c",
                            span: t,
                            parent: 0,
                            value: i,
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = rec.drain();
        assert_eq!(events.len(), 8 * 50, "capacity was ample; nothing dropped");
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }
}

//! The flight recorder: a fixed-capacity, lock-striped ring buffer of
//! recent trace events.
//!
//! Events are pushed from any thread. Each thread is assigned a *lane*
//! (a small dense id, named after the pool worker when `bs-par` enters
//! the spawner's [`crate::Position`]); events route to one of
//! [`STRIPES`] independent
//! mutex-protected rings by `lane % STRIPES`, so threads on different
//! stripes never contend. A process-global sequence number gives a
//! total order for export. When a stripe fills, its oldest events are
//! overwritten and [`dropped`] counts them — the recorder keeps the
//! *most recent* history, which is what you want from a flight
//! recorder after a crash.

use crate::stage::current_context;
use crate::{epoch, lock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of independently-locked rings. Power of two; lanes route by
/// `lane % STRIPES`.
const STRIPES: usize = 8;

/// Default total event capacity across all stripes.
const DEFAULT_CAPACITY: usize = 65_536;

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Position in the process-global total order.
    pub seq: u64,
    /// Microseconds since the first recorded event (process epoch).
    pub t_us: u64,
    /// Dense id of the thread that recorded the event.
    pub lane: u64,
    /// Trace this event belongs to (0 if recorded outside any span).
    pub trace_id: u64,
    /// Span this event belongs to (0 if recorded outside any span).
    pub span_id: u64,
    /// Parent span id (0 for root spans / non-span events).
    pub parent_id: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart {
        /// Span name.
        name: &'static str,
    },
    /// A span closed.
    SpanEnd {
        /// Span name.
        name: &'static str,
        /// Wall-clock duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time counter sample.
    Counter {
        /// Counter name.
        name: String,
        /// Sampled value (delta or absolute — the producer decides).
        value: u64,
    },
    /// A log record (warn or worse, forwarded by the logger).
    Log {
        /// Severity label, e.g. `"WARN"`.
        level: String,
        /// Module or subsystem that emitted the record.
        target: String,
        /// The rendered message.
        message: String,
    },
}

struct Stripe {
    ring: Mutex<VecDeque<Event>>,
}

struct Recorder {
    stripes: Vec<Stripe>,
    seq: AtomicU64,
    dropped: AtomicU64,
    capacity_per_stripe: AtomicUsize,
    lane_names: Mutex<Vec<(u64, String)>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        stripes: (0..STRIPES).map(|_| Stripe { ring: Mutex::new(VecDeque::new()) }).collect(),
        seq: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        capacity_per_stripe: AtomicUsize::new(DEFAULT_CAPACITY / STRIPES),
        lane_names: Mutex::new(Vec::new()),
    })
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LANE: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// This thread's lane id, assigning one on first use.
pub(crate) fn lane() -> u64 {
    LANE.with(|l| match l.get() {
        Some(id) => id,
        None => {
            let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(Some(id));
            id
        }
    })
}

/// Name the current thread's lane (e.g. `"par-worker-3"`); the name
/// becomes the thread label in the Chrome trace export. Re-naming a
/// lane replaces the previous name. Inert while tracing is disabled.
pub fn name_lane(name: &str) {
    if !crate::trace::is_enabled() {
        return;
    }
    let id = lane();
    let mut names = lock(&recorder().lane_names);
    match names.iter_mut().find(|(l, _)| *l == id) {
        Some(entry) => entry.1 = name.to_string(),
        None => names.push((id, name.to_string())),
    }
}

/// All `(lane, name)` pairs registered via [`name_lane`].
pub fn lane_names() -> Vec<(u64, String)> {
    lock(&recorder().lane_names).clone()
}

/// Record an event on the current thread's lane. Callers have already
/// checked [`crate::trace::is_enabled`].
pub(crate) fn push(trace_id: u64, span_id: u64, parent_id: u64, kind: EventKind) {
    let rec = recorder();
    let lane = lane();
    let t_us = u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX);
    let seq = rec.seq.fetch_add(1, Ordering::Relaxed);
    let event = Event { seq, t_us, lane, trace_id, span_id, parent_id, kind };
    let cap = rec.capacity_per_stripe.load(Ordering::Relaxed).max(1);
    let stripe = &rec.stripes[(lane as usize) % STRIPES];
    let mut ring = lock(&stripe.ring);
    while ring.len() >= cap {
        ring.pop_front();
        rec.dropped.fetch_add(1, Ordering::Relaxed);
    }
    ring.push_back(event);
}

/// Record a counter sample attributed to the current span (if any).
/// Near-free when disabled: one relaxed atomic load, no allocation.
pub fn record_counter(name: &str, value: u64) {
    if crate::trace::is_enabled() {
        push_counter(name, value);
    }
}

/// [`record_counter`] for callers that already checked the flag word.
pub(crate) fn push_counter(name: &str, value: u64) {
    let (trace_id, span_id) = ids();
    push(trace_id, span_id, 0, EventKind::Counter { name: name.to_string(), value });
}

/// Record a log line attributed to the current span (if any).
/// The logger forwards warn-or-worse records here. Near-free when
/// disabled: one relaxed atomic load, no allocation.
pub fn record_log(level: &str, target: &str, message: &str) {
    if !crate::trace::is_enabled() {
        return;
    }
    let (trace_id, span_id) = ids();
    push(
        trace_id,
        span_id,
        0,
        EventKind::Log {
            level: level.to_string(),
            target: target.to_string(),
            message: message.to_string(),
        },
    );
}

fn ids() -> (u64, u64) {
    match current_context() {
        Some(ctx) => (ctx.trace_id, ctx.span_id),
        None => (0, 0),
    }
}

/// Set the recorder's total event capacity (split evenly across
/// stripes, minimum one event per stripe). Existing events are kept up
/// to the new per-stripe limit.
pub fn set_capacity(total: usize) {
    let rec = recorder();
    let per = (total / STRIPES).max(1);
    rec.capacity_per_stripe.store(per, Ordering::Relaxed);
    for stripe in &rec.stripes {
        let mut ring = lock(&stripe.ring);
        while ring.len() > per {
            ring.pop_front();
            rec.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Events overwritten because a stripe was full (oldest-first loss).
pub fn dropped() -> u64 {
    recorder().dropped.load(Ordering::Relaxed)
}

/// Copy out all buffered events, in global `seq` order, leaving the
/// buffer intact (for the panic hook and mid-run inspection).
pub fn events() -> Vec<Event> {
    let rec = recorder();
    let mut all: Vec<Event> = Vec::new();
    for stripe in &rec.stripes {
        all.extend(lock(&stripe.ring).iter().cloned());
    }
    all.sort_by_key(|e| e.seq);
    all
}

/// Take all buffered events, in global `seq` order, emptying the
/// buffer. The export path: record a run, `drain`, write the JSON.
pub fn drain() -> Vec<Event> {
    let rec = recorder();
    let mut all: Vec<Event> = Vec::new();
    for stripe in &rec.stripes {
        all.extend(lock(&stripe.ring).drain(..));
    }
    all.sort_by_key(|e| e.seq);
    all
}

/// Install a panic hook that dumps the flight recorder (as a span tree
/// plus the last few raw events) to stderr before the default hook
/// runs. Installs at most once per process; cheap to call repeatedly.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if crate::trace::is_enabled() {
                let evs = events();
                if !evs.is_empty() {
                    eprintln!("--- flight recorder ({} events) ---", evs.len());
                    eprintln!("{}", crate::chrome::tree_dump(&evs));
                    eprintln!("--- end flight recorder ---");
                }
            }
            default(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let _g = testutil::serial();
        crate::trace::enable();
        drain();
        // Tiny capacity: one event per stripe. All events from this
        // thread land on one stripe, so only the newest survives.
        set_capacity(STRIPES);
        let before_dropped = dropped();
        for i in 0..10 {
            record_counter("trace.test.ring", i);
        }
        let evs = drain();
        assert_eq!(evs.len(), 1, "one-slot stripe keeps exactly the newest event");
        match &evs[0].kind {
            EventKind::Counter { value, .. } => assert_eq!(*value, 9, "newest value wins"),
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(dropped() - before_dropped, 9, "nine overwrites counted");
        set_capacity(DEFAULT_CAPACITY);
        crate::trace::disable();
    }

    #[test]
    fn drain_orders_across_lanes_by_seq() {
        let _g = testutil::serial();
        crate::trace::enable();
        drain();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..8 {
                        record_counter("trace.test.multilane", t * 100 + i);
                    }
                });
            }
        });
        let evs = drain();
        assert_eq!(evs.len(), 32);
        for pair in evs.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "drain is seq-sorted");
        }
        crate::trace::disable();
    }

    #[test]
    fn lane_names_register_and_rename() {
        let _g = testutil::serial();
        crate::trace::enable();
        let my_lane = lane();
        name_lane("trace-test-lane");
        assert!(lane_names().iter().any(|(l, n)| *l == my_lane && n == "trace-test-lane"));
        name_lane("trace-test-lane-2");
        let names = lane_names();
        let mine: Vec<&(u64, String)> = names.iter().filter(|(l, _)| *l == my_lane).collect();
        assert_eq!(mine.len(), 1, "rename replaces, not appends");
        assert_eq!(mine[0].1, "trace-test-lane-2");
        crate::trace::disable();
    }
}

//! The flight recorder: one fixed-capacity ring of recent trace events.
//!
//! Events are pushed from any thread. Each thread is assigned a *lane*
//! (a small dense id, named after the pool worker when `bs-par` enters
//! the spawner's [`crate::Position`]). Every event goes into one
//! mutex-protected ring, and takes its sequence number under that lock,
//! so the ring is always in `seq` order. When the ring is full its
//! oldest event is overwritten and [`dropped`] counts it — the recorder
//! keeps the *most recent* history, whichever lanes recorded it, which
//! is what you want from a flight recorder after a crash.
//!
//! Lane names live next to the ring. Each pool worker is a fresh
//! thread, so every region names new lanes; naming one forgets the
//! names of lanes that have no event left in the ring.

use crate::stage::current_context;
use crate::{epoch, lock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Events the ring holds.
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

#[derive(Default)]
struct Recorder {
    /// Oldest → newest, at most [`DEFAULT_CAPACITY`] events.
    ring: VecDeque<Event>,
    /// The next event's `seq`.
    seq: u64,
    dropped: u64,
    lanes: HashMap<u64, Lane>,
}

/// What the recorder knows of one lane.
#[derive(Default)]
struct Lane {
    name: Option<String>,
    /// This lane's events in the ring.
    held: usize,
}

fn recorder() -> &'static Mutex<Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER.get_or_init(Mutex::default)
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
/// lane replaces the previous name. Forgets the lanes, other than this
/// one, that have no event left in the ring, so the table never
/// outgrows the ring. Inert while tracing is disabled.
pub fn name_lane(name: &str) {
    if !crate::trace::is_enabled() {
        return;
    }
    let id = lane();
    let mut rec = lock(recorder());
    rec.lanes.entry(id).or_default().name = Some(name.to_string());
    rec.lanes.retain(|&l, lane| l == id || lane.held > 0);
}

/// All `(lane, name)` pairs registered via [`name_lane`] and not yet
/// forgotten.
pub fn lane_names() -> Vec<(u64, String)> {
    let rec = lock(recorder());
    rec.lanes.iter().filter_map(|(&l, lane)| Some((l, lane.name.clone()?))).collect()
}

/// Record an event on the current thread's lane. Callers have already
/// checked [`crate::trace::is_enabled`].
pub(crate) fn push(trace_id: u64, span_id: u64, parent_id: u64, kind: EventKind) {
    let lane = lane();
    let t_us = u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut guard = lock(recorder());
    let rec = &mut *guard;
    if rec.ring.len() == DEFAULT_CAPACITY {
        let old = rec.ring.pop_front().expect("a full ring");
        if let Some(l) = rec.lanes.get_mut(&old.lane) {
            l.held -= 1;
        }
        rec.dropped += 1;
    }
    let seq = rec.seq;
    rec.seq += 1;
    rec.lanes.entry(lane).or_default().held += 1;
    rec.ring.push_back(Event { seq, t_us, lane, trace_id, span_id, parent_id, kind });
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

/// Events overwritten because the ring was full (oldest-first loss).
pub fn dropped() -> u64 {
    lock(recorder()).dropped
}

/// Copy out all buffered events, in global `seq` order, leaving the
/// buffer intact (for the panic hook and mid-run inspection).
pub fn events() -> Vec<Event> {
    lock(recorder()).ring.iter().cloned().collect()
}

/// Take all buffered events, in global `seq` order, emptying the
/// buffer. The export path: record a run, `drain`, write the JSON. Lane
/// names stay until the next [`name_lane`], so the export can label
/// what was drained.
pub fn drain() -> Vec<Event> {
    let mut rec = lock(recorder());
    rec.lanes.values_mut().for_each(|l| l.held = 0);
    rec.ring.drain(..).collect()
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
        let before_dropped = dropped();
        // Four threads overflow the ring by 1 000 events; one of them
        // records most of them.
        let per_thread = [DEFAULT_CAPACITY - 2_000, 1_000, 1_000, 1_000];
        std::thread::scope(|s| {
            for (t, &n) in per_thread.iter().enumerate() {
                s.spawn(move || {
                    for i in 0..n as u64 {
                        record_counter("trace.test.ring", t as u64 * 1_000_000 + i);
                    }
                });
            }
        });
        let evs = events();
        assert_eq!(evs.len(), DEFAULT_CAPACITY, "a full ring");
        assert_eq!(dropped() - before_dropped, 1_000, "every overwrite counted");
        for pair in evs.windows(2) {
            assert_eq!(pair[0].seq + 1, pair[1].seq, "the newest events, with no gap");
        }
        // Every thread's last event survives: the losses are the oldest.
        for (t, &n) in per_thread.iter().enumerate() {
            let last = t as u64 * 1_000_000 + n as u64 - 1;
            assert!(
                evs.iter()
                    .any(|e| matches!(e.kind, EventKind::Counter { value, .. } if value == last)),
                "thread {t} lost its newest event"
            );
        }
        drain();
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

    #[test]
    fn lane_table_holds_only_lanes_with_events() {
        let _g = testutil::serial();
        crate::trace::enable();
        drain();
        // Many traced regions, each a fresh named thread, each exported
        // before the next starts.
        for region in 0..300 {
            std::thread::spawn(move || {
                let _p = crate::Position::capture().enter(format_args!("trace-region-{region}"));
                record_counter("trace.test.lanes", region);
            })
            .join()
            .unwrap();
            let evs = drain();
            let names = lane_names();
            assert!(names.len() <= 2, "region {region}: {} names kept", names.len());
            for (lane, name) in &names {
                if name.starts_with("trace-region-") {
                    assert!(evs.iter().any(|e| e.lane == *lane), "{name} has no event");
                }
            }
        }
        crate::trace::disable();
    }
}

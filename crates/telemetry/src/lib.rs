//! `bs-telemetry` — the instrumentation plane of the dns-backscatter
//! pipeline.
//!
//! The paper's system is itself a sensor that discards most of what it
//! sees on purpose; an operational deployment lives or dies on telling
//! "dropped by design" from "lost by a bug" and "slow window" from
//! "storm". One crate, **zero external dependencies**, answers *how
//! much*, *how long*, *which window, which stage, which worker* and
//! *where did the time and memory go*:
//!
//! * **metrics** — a global [`Registry`] of named [`Counter`]s,
//!   [`Gauge`]s and log-bucketed [`Histogram`]s (p50/p90/p99/max),
//!   exported as JSON ([`snapshot_json`]) or Prometheus text
//!   ([`snapshot_prometheus`]);
//! * **one stage guard** — [`stage`] times a pipeline stage once and
//!   feeds every attached sink: the stage's latency histogram, a
//!   causally-parented span in the [`trace`] flight recorder, and a
//!   `(stage, window)` cost cell, a path cost and an allocator slot for
//!   the [`prof`] profiler;
//! * **one thread position** — the span, window, allocator slot and
//!   stage path a thread is working under; [`Position::capture`] /
//!   [`Position::enter`] carry it onto spawned threads, which `bs-par`
//!   does at every spawn site;
//! * **one `(stage, window)` table** — the conservation [`ledger`]:
//!   records in = sum of outcome buckets, with the stage's wall time
//!   beside the flow it paid for, and the same time by path for the
//!   flamegraph;
//! * a leveled structured logger ([`error!`]/[`warn!`]/[`info!`]/
//!   [`debug!`], `key=value` pairs, `BS_LOG` / `BS_LOG_FORMAT`);
//! * one [`json`] module: the escape every exporter shares and the
//!   parser that validates what they write.
//!
//! # Cost model
//!
//! Everything is compiled in everywhere and **near-free when no sink
//! is attached**. One process-global flag word holds three bits —
//! metrics ([`enable`], the CLI's `--metrics`), tracing
//! ([`trace::enable`], `--trace`) and profiling ([`prof::enable`],
//! `--profile`) — and every recording entry point ([`stage`],
//! [`counter_add`], [`ledger::record`], [`ledger::window_scope`],
//! [`Position::capture`], each allocator hook, …) starts with one
//! relaxed load of it and returns an inert value when its bits are
//! clear: no clock read, no allocation, no lock, no thread-local
//! write. The crate spawns no thread. The ledger and the thread position are live under tracing
//! *or* profiling; the flight recorder only under tracing; histograms
//! only under metrics.
//!
//! # Naming convention
//!
//! Metric and stage names are dotted lowercase paths rooted at the
//! crate that records them: `crate.stage` (for example
//! `sensor.extract`, `core.retrain`, `ml.train`). Stage histograms
//! record **nanoseconds**.
//!
//! ```
//! bs_telemetry::enable();
//! {
//!     let _guard = bs_telemetry::stage("doc.stage");
//!     bs_telemetry::counter_add("doc.items", 3);
//! }
//! let snap = bs_telemetry::snapshot();
//! assert_eq!(snap.counters["doc.items"], 3);
//! assert_eq!(snap.histograms["doc.stage"].count, 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod chrome;
mod export;
mod intern;
pub mod json;
pub mod ledger;
mod logger;
mod metrics;
pub mod prof;
mod recorder;
mod registry;
mod stage;
pub mod trace;

pub use logger::{log_emit, log_enabled, Level};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{Registry, Snapshot};
pub use stage::{stage, Entered, Position, Stage};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Flag bit: the metrics registry is recording.
pub(crate) const METRICS: u8 = 1;
/// Flag bit: the flight recorder is recording.
pub(crate) const TRACE: u8 = 2;
/// Flag bit: the profiler (cost cells, path costs, allocator slots) is
/// recording.
pub(crate) const PROF: u8 = 4;
/// The bits under which the ledger and the thread position are live.
pub(crate) const ACTIVE: u8 = TRACE | PROF;

/// The one atomic every entry point reads. Zero means fully inert.
static FLAGS: AtomicU8 = AtomicU8::new(0);

pub(crate) fn flags() -> u8 {
    FLAGS.load(Ordering::Relaxed)
}

pub(crate) fn set_flag(bit: u8, on: bool) {
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Lock `m`, surviving poison: everything guarded this way (event
/// rings, ledger cells, path costs) is valid
/// wherever a panicking thread stopped.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The first instant anything here needed a clock: flight-recorder
/// event timestamps count from it.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The process-global registry every free function records into.
pub fn registry() -> &'static Registry {
    registry::global()
}

/// Attach a metrics sink: start recording into the global registry.
pub fn enable() {
    set_flag(METRICS, true);
}

/// Detach the metrics sink: the metric entry points return
/// immediately again (tracing and profiling, if on, stay on).
pub fn disable() {
    set_flag(METRICS, false);
}

/// Whether a metrics sink is attached (one relaxed atomic load).
pub fn is_enabled() -> bool {
    flags() & METRICS != 0
}

/// Zero every metric in the global registry in place (the flag word
/// and log level are untouched). Names stay registered, so metric
/// handles cached before the reset keep recording into instances the
/// next snapshot still sees. Used between CLI runs and in tests.
pub fn reset() {
    registry().reset();
}

/// Add to a named counter, and — under tracing — record a nonzero
/// sample in the flight recorder attributed to the current span. Adding
/// 0 registers the counter, so one that never moved reads 0 rather than
/// being missing. No-op while both sinks are detached.
pub fn counter_add(name: &str, n: u64) {
    let flags = flags();
    if flags & TRACE != 0 && n != 0 {
        recorder::push_counter(name, n);
    }
    if flags & METRICS != 0 {
        registry().counter(name).add(n);
    }
}

/// Set a named gauge. No-op while disabled.
pub fn gauge_set(name: &str, value: i64) {
    if is_enabled() {
        registry().gauge(name).set(value);
    }
}

/// Record one value into a named histogram. No-op while disabled.
pub fn observe(name: &str, value: u64) {
    if is_enabled() {
        registry().histogram(name).record(value);
    }
}

/// A point-in-time copy of every metric in the global registry.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// The global registry as a JSON document (see [`Snapshot::to_json`]).
pub fn snapshot_json() -> String {
    snapshot().to_json()
}

/// The global registry in Prometheus text exposition format.
pub fn snapshot_prometheus() -> String {
    snapshot().to_prometheus()
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    /// The flag word, registry, recorder, ledger and profiler
    /// aggregates are process-global and the unit tests share one
    /// process: every test that records through them holds this lock.
    static LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_entry_points_record_nothing() {
        let _g = testutil::serial();
        disable();
        counter_add("lib.test.detached", 2);
        gauge_set("lib.test.detached", 2);
        observe("lib.test.detached", 2);
        let snap = snapshot();
        assert!(!snap.counters.contains_key("lib.test.detached"));
        assert!(!snap.gauges.contains_key("lib.test.detached"));
        assert!(!snap.histograms.contains_key("lib.test.detached"));
    }

    #[test]
    fn global_free_functions_round_trip() {
        let _g = testutil::serial();
        enable();
        counter_add("lib.test.counter", 2);
        counter_add("lib.test.counter", 1);
        gauge_set("lib.test.gauge", -4);
        observe("lib.test.hist", 1000);
        {
            let _g = stage("lib.test.span");
        }
        let snap = snapshot();
        assert_eq!(snap.counters["lib.test.counter"], 3);
        assert_eq!(snap.gauges["lib.test.gauge"], -4);
        assert_eq!(snap.histograms["lib.test.hist"].count, 1);
        assert_eq!(snap.histograms["lib.test.span"].count, 1);
    }

    #[test]
    fn a_counter_booked_with_zero_reads_zero() {
        let _g = testutil::serial();
        enable();
        trace::enable();
        trace::drain();
        counter_add("lib.test.zero", 0);
        let events = trace::drain();
        trace::disable();
        assert_eq!(snapshot().counters.get("lib.test.zero"), Some(&0), "registered at 0");
        assert!(events.is_empty(), "a zero sample is no flight-recorder event: {events:?}");
    }
}

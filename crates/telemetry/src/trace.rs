//! Causal tracing: *which window, which stage, which worker*.
//!
//! After `bs-par` fanned the pipeline out across pool threads,
//! process-wide aggregates can no longer attribute time or records to a
//! particular window. Under tracing every [`crate::stage`] is a
//! **hierarchical span** carrying a `(trace_id, span_id, parent_id)`
//! triple; the current span is part of the thread's position, which
//! `bs-par` carries into pool workers, so a stage opened inside a
//! worker task parents under the stage that spawned it at any thread
//! count. Events land in a **flight recorder** ([`drain`], [`events`]):
//! a fixed-capacity ring buffer of recent span
//! starts/ends, counter samples and warn-or-worse log records, dumpable
//! on demand or on panic ([`install_panic_hook`]).
//!
//! Exporters: [`chrome_trace_json`] writes the Chrome trace-event JSON
//! format (loadable in `chrome://tracing` / Perfetto, one lane per pool
//! worker); the panic hook prints the ring as a span tree.
//!
//! ```
//! use bs_telemetry::trace;
//! trace::enable();
//! let events = {
//!     let root = bs_telemetry::stage("doc.stage");
//!     bs_telemetry::counter_add("doc.items", 3);
//!     drop(root);
//!     trace::drain()
//! };
//! assert!(events.len() >= 3); // start, counter, end
//! let json = trace::chrome_trace_json(&events);
//! bs_telemetry::json::parse(&json).expect("valid trace JSON");
//! ```

pub use crate::chrome::chrome_trace_json;
pub use crate::recorder::{
    drain, dropped, events, install_panic_hook, lane_names, name_lane, Event, EventKind,
};
pub use crate::stage::TraceContext;

/// Start recording trace events (and ledger flows).
pub fn enable() {
    crate::set_flag(crate::TRACE, true);
}

/// Stop recording trace events (metrics and profiling, if on, stay on).
pub fn disable() {
    crate::set_flag(crate::TRACE, false);
}

/// Whether tracing is on (one relaxed atomic load).
pub fn is_enabled() -> bool {
    crate::flags() & crate::TRACE != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record_log;
    use crate::stage::current_context;
    use crate::{ledger, prof, stage, testutil, Position};

    #[test]
    fn disabled_entry_points_are_inert() {
        let _g = testutil::serial();
        crate::disable();
        disable();
        prof::disable();
        drain();
        ledger::reset();
        {
            let s = stage("trace.test.disabled");
            assert!(s.is_inert(), "disabled stage must carry no ids");
            assert!(current_context().is_none());
            crate::counter_add("trace.test.counter", 1);
            record_log("WARN", "trace.test", "dropped");
            ledger::record("trace.test.stage", 5, &[("kept", 5)]);
            let _w = ledger::window_scope(3);
            assert_eq!(ledger::current_window(), ledger::NO_WINDOW, "disabled scope is a no-op");
            let _p = Position::capture().enter(format_args!("trace-test"));
        }
        assert!(events().is_empty(), "nothing may be recorded while disabled");
        assert!(lane_names().iter().all(|(_, n)| n != "trace-test"));
        assert!(ledger::snapshot().is_empty());
    }

    #[test]
    fn profile_only_mode_keeps_ledger_live_but_recorder_silent() {
        let _g = testutil::serial();
        disable();
        prof::enable();
        drain();
        ledger::reset();
        {
            let s = stage("trace.test.profonly");
            assert!(!s.is_inert(), "profiling keeps stages live");
            assert!(current_context().is_some(), "context propagates under profiling");
            let _w = ledger::window_scope(7);
            assert_eq!(ledger::current_window(), 7);
            ledger::record("trace.test.profonly", 3, &[("kept", 3)]);
        }
        assert!(events().is_empty(), "flight recorder stays silent without the trace bit");
        let snap = ledger::snapshot();
        assert_eq!(snap[&("trace.test.profonly".to_string(), 7)].records_in, 3);
        ledger::reset();
        prof::disable();
        assert!(!ledger::is_active());
    }

    #[test]
    fn span_ids_nest_and_propagate() {
        let _g = testutil::serial();
        enable();
        drain();
        let (outer_ctx, inner_parent) = {
            let outer = stage("trace.test.outer");
            let outer_ctx = current_context().expect("outer span is current");
            assert_eq!(outer.context(), Some(outer_ctx));
            let inner = stage("trace.test.inner");
            let inner_ctx = current_context().expect("inner span is current");
            assert_eq!(outer_ctx.trace_id, inner_ctx.trace_id, "one trace");
            assert_ne!(outer_ctx.span_id, inner_ctx.span_id);
            drop(inner);
            assert_eq!(current_context(), Some(outer_ctx), "pop restores parent");
            drop(outer);
            (outer_ctx, inner_ctx)
        };
        assert!(current_context().is_none(), "stack empty after all spans end");
        let evs = drain();
        let starts: Vec<&Event> =
            evs.iter().filter(|e| matches!(e.kind, EventKind::SpanStart { .. })).collect();
        assert_eq!(starts.len(), 2);
        assert_eq!(starts[0].span_id, outer_ctx.span_id);
        assert_eq!(starts[0].parent_id, 0, "root span has no parent");
        assert_eq!(starts[1].span_id, inner_parent.span_id);
        assert_eq!(starts[1].parent_id, outer_ctx.span_id, "inner parents under outer");
        disable();
    }

    #[test]
    fn context_crosses_threads_via_position() {
        let _g = testutil::serial();
        enable();
        drain();
        let root = stage("trace.test.cross");
        let root_ctx = root.context().expect("root current");
        let here = Position::capture();
        let child_ids = std::thread::scope(|s| {
            s.spawn(|| {
                let _e = here.enter(format_args!("trace-cross-{}", 1));
                let _child = stage("trace.test.cross.child");
                current_context().expect("child current")
            })
            .join()
            .expect("worker")
        });
        assert_eq!(child_ids.trace_id, root_ctx.trace_id, "trace id crosses threads");
        drop(root);
        let evs = drain();
        let child_start = evs
            .iter()
            .find(|e| matches!(e.kind, EventKind::SpanStart { name } if name.ends_with("child")))
            .expect("child start recorded");
        assert_eq!(child_start.parent_id, root_ctx.span_id, "child parents under root");
        assert_ne!(
            child_start.lane, evs[0].lane,
            "child ran on a different lane than the root span"
        );
        assert!(
            lane_names().contains(&(child_start.lane, "trace-cross-1".to_string())),
            "entering a position labels the lane"
        );
        disable();
    }
}

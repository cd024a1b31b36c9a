//! Exporters: Chrome trace-event JSON and a human-readable span tree.

use crate::json::escape as json_escape;
use crate::recorder::{lane_names, Event, EventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render events as Chrome trace-event JSON (the "JSON Object Format":
/// a top-level object with a `traceEvents` array), loadable in
/// `chrome://tracing` and Perfetto. Each recorder lane becomes a
/// thread (`tid`); lanes named via [`crate::trace::name_lane`] get
/// `thread_name` metadata so pool workers are labelled in the UI.
/// Span begin/end map to `ph:"B"`/`ph:"E"`, counters to `ph:"C"`, and
/// log records to instant events (`ph:"i"`). Cross-thread parentage is
/// carried in each event's `args` (`trace_id`/`span_id`/`parent_id`)
/// since the viewer's own nesting is per-thread only.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&s);
    };

    emit(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"backscatter\"}}"
            .to_string(),
        &mut out,
    );
    let names = lane_names();
    let mut seen_lanes: Vec<u64> = events.iter().map(|e| e.lane).collect();
    seen_lanes.sort_unstable();
    seen_lanes.dedup();
    for lane in &seen_lanes {
        let label = names
            .iter()
            .find(|(l, _)| l == lane)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("lane-{lane}"));
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&label)
            ),
            &mut out,
        );
    }

    for e in events {
        let ids = format!(
            "\"trace_id\":{},\"span_id\":{},\"parent_id\":{}",
            e.trace_id, e.span_id, e.parent_id
        );
        let line = match &e.kind {
            EventKind::SpanStart { name } => format!(
                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{{ids}}}}}",
                e.lane,
                e.t_us,
                json_escape(name)
            ),
            EventKind::SpanEnd { name, dur_us } => format!(
                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{{ids},\"dur_us\":{dur_us}}}}}",
                e.lane,
                e.t_us,
                json_escape(name)
            ),
            EventKind::Counter { name, value } => format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\
                 \"args\":{{\"value\":{value}}}}}",
                e.lane,
                e.t_us,
                json_escape(name)
            ),
            EventKind::Log { level, target, message } => format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{} {}\",\
                 \"args\":{{{ids},\"message\":\"{}\"}}}}",
                e.lane,
                e.t_us,
                json_escape(level),
                json_escape(target),
                json_escape(message)
            ),
        };
        emit(line, &mut out);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

struct Node {
    name: &'static str,
    lane: u64,
    dur_us: Option<u64>,
    children: Vec<Item>,
}

enum Item {
    Span(u64),
    Counter { name: String, value: u64 },
    Log { level: String, target: String, message: String },
}

/// Render events as an indented span tree with durations, counters,
/// and log records attached under their owning span. Spans whose
/// parent fell out of the ring buffer render at the root.
pub fn tree_dump(events: &[Event]) -> String {
    let mut nodes: BTreeMap<u64, Node> = BTreeMap::new();
    let mut roots: Vec<Item> = Vec::new();

    // First pass: create span nodes so attachment works regardless of
    // event order within the buffer.
    for e in events {
        if let EventKind::SpanStart { name } = e.kind {
            nodes
                .insert(e.span_id, Node { name, lane: e.lane, dur_us: None, children: Vec::new() });
        }
    }
    for e in events {
        match &e.kind {
            EventKind::SpanStart { .. } => {
                let item = Item::Span(e.span_id);
                match nodes.contains_key(&e.parent_id) && e.parent_id != e.span_id {
                    true => attach(&mut nodes, e.parent_id, item),
                    false => roots.push(item),
                }
            }
            EventKind::SpanEnd { dur_us, .. } => {
                if let Some(n) = nodes.get_mut(&e.span_id) {
                    n.dur_us = Some(*dur_us);
                }
            }
            EventKind::Counter { name, value } => {
                let item = Item::Counter { name: name.clone(), value: *value };
                match nodes.contains_key(&e.span_id) {
                    true => attach(&mut nodes, e.span_id, item),
                    false => roots.push(item),
                }
            }
            EventKind::Log { level, target, message } => {
                let item = Item::Log {
                    level: level.clone(),
                    target: target.clone(),
                    message: message.clone(),
                };
                match nodes.contains_key(&e.span_id) {
                    true => attach(&mut nodes, e.span_id, item),
                    false => roots.push(item),
                }
            }
        }
    }

    let mut out = String::new();
    for item in &roots {
        render(&nodes, item, 0, &mut out);
    }
    out
}

fn attach(nodes: &mut BTreeMap<u64, Node>, parent: u64, item: Item) {
    if let Some(n) = nodes.get_mut(&parent) {
        n.children.push(item);
    }
}

fn render(nodes: &BTreeMap<u64, Node>, item: &Item, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match item {
        Item::Span(id) => {
            if let Some(n) = nodes.get(id) {
                let dur = match n.dur_us {
                    Some(us) => format!("{us} us"),
                    None => "open".to_string(),
                };
                let _ = writeln!(out, "{pad}{} ({dur}) [lane {}]", n.name, n.lane);
                for child in &n.children {
                    render(nodes, child, depth + 1, out);
                }
            }
        }
        Item::Counter { name, value } => {
            let _ = writeln!(out, "{pad}+ {name} = {value}");
        }
        Item::Log { level, target, message } => {
            let _ = writeln!(out, "{pad}! [{level} {target}] {message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn chrome_export_parses_and_carries_lanes() {
        let _g = testutil::serial();
        crate::trace::enable();
        crate::trace::drain();
        {
            let _root = crate::stage("trace.test.export");
            crate::trace::record_counter("trace.test.export.count", 7);
            crate::trace::record_log("WARN", "trace.test", "a \"quoted\"\nmessage");
            let _inner = crate::stage("trace.test.export.inner");
        }
        let evs = crate::trace::drain();
        let json = chrome_trace_json(&evs);
        let value = crate::json::parse(&json).expect("export is valid JSON");
        let top = value.as_object().expect("top-level object");
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        // Metadata (process + >=1 lane) plus 2 B, 2 E, 1 C, 1 i.
        assert!(events.len() >= 8, "got {} events", events.len());
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.as_object())
            .filter_map(|o| o.iter().find(|(k, _)| k == "ph"))
            .filter_map(|(_, v)| v.as_str())
            .collect();
        for ph in ["M", "B", "E", "C", "i"] {
            assert!(phases.contains(&ph), "missing phase {ph}");
        }
        crate::trace::disable();
    }

    #[test]
    fn tree_dump_nests_and_attaches() {
        let _g = testutil::serial();
        crate::trace::enable();
        crate::trace::drain();
        {
            let _outer = crate::stage("trace.test.tree.outer");
            crate::trace::record_counter("trace.test.tree.n", 3);
            let _inner = crate::stage("trace.test.tree.inner");
        }
        let evs = crate::trace::drain();
        let dump = tree_dump(&evs);
        let outer_at = dump.find("trace.test.tree.outer").expect("outer rendered");
        let inner_at = dump.find("  trace.test.tree.inner").expect("inner indented under outer");
        assert!(outer_at < inner_at);
        assert!(dump.contains("+ trace.test.tree.n = 3"));
        crate::trace::disable();
    }
}

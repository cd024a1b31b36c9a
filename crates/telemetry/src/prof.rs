//! The always-on profiler: *where does the time (and memory) go?*
//!
//! Both answers come from the one [`crate::stage`] guard, exactly:
//!
//! * **time**: a profiled stage files its elapsed wall time once, under
//!   its `(stage, window)` ledger cell and under the path of stages it
//!   ran inside — *total* from open to close, *self* with the stages
//!   nested on the same thread taken out. [`crate::ledger::cost_rows`]
//!   reads the cells as "ns per record per stage per window";
//!   [`folded`] reads the paths as inferno-compatible collapsed stacks
//!   weighted in nanoseconds, [`top_json`] / [`top_table`] as stages
//!   ranked by self time. Paths and call counts are the same on every
//!   run of the same work; only the nanoseconds vary;
//! * **memory**: a counting allocator ([`CountingAlloc`]), a
//!   `#[global_allocator]` wrapper attributing allocation count and
//!   bytes to the stage open on the allocating thread ([`alloc_rows`]).
//!
//! While profiling is on the hot-path cost is two interned lookups and
//! one ledger booking per stage plus two relaxed `fetch_add`s per
//! allocation. Nothing here runs on a thread of its own.

pub use crate::alloc::{alloc_json, alloc_rows, alloc_table, AllocRow, CountingAlloc};
pub use crate::ledger::PathCost;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Turn profiling on: stages file costs and paths and steer the
/// allocator, and the ledger is live.
pub fn enable() {
    crate::set_flag(crate::PROF, true);
}

/// Turn profiling off (metrics and tracing, if on, stay on). What was
/// booked stays readable.
pub fn disable() {
    crate::set_flag(crate::PROF, false);
}

/// Whether profiling is on (one relaxed atomic load).
pub fn is_enabled() -> bool {
    crate::flags() & crate::PROF != 0
}

/// Reset every profiler aggregate: the ledger's cells and paths and the
/// allocator counters, so a profiling session reports only its own run.
pub fn reset() {
    crate::ledger::reset();
    crate::alloc::reset_counts();
}

/// Every path a profiled stage has closed on — stage names outermost
/// first, joined by `;` — with what it cost, in path order. A stage
/// opened on a spawned thread extends the path its spawner was on.
pub fn path_rows() -> Vec<(String, PathCost)> {
    let mut rows: Vec<(String, PathCost)> = crate::ledger::path_costs()
        .into_iter()
        .map(|(path, cost)| (crate::intern::path_names(path).join(";"), cost))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// Inferno-compatible folded collapsed stacks: one line per path,
/// `frame;frame;frame self_ns`. Non-empty as soon as one profiled stage
/// has closed.
pub fn folded() -> String {
    path_rows().iter().fold(String::new(), |mut out, (path, cost)| {
        let _ = writeln!(out, "{path} {}", cost.self_ns);
        out
    })
}

/// Per-stage cost summed over the paths ending in the stage, largest
/// self time first.
fn stage_totals() -> Vec<(String, PathCost)> {
    let mut totals: BTreeMap<&str, PathCost> = BTreeMap::new();
    let rows = path_rows();
    for (path, cost) in &rows {
        let stage = path.rsplit(';').next().unwrap_or(path);
        let t = totals.entry(stage).or_default();
        t.self_ns += cost.self_ns;
        t.total_ns += cost.total_ns;
        t.calls += cost.calls;
    }
    let mut ranked: Vec<(String, PathCost)> =
        totals.into_iter().map(|(stage, cost)| (stage.to_string(), cost)).collect();
    ranked.sort_by(|a, b| {
        (b.1.self_ns, b.1.total_ns).cmp(&(a.1.self_ns, a.1.total_ns)).then_with(|| a.0.cmp(&b.0))
    });
    ranked
}

/// JSON for the `/profile/top` route: the ranked stage table.
pub fn top_json() -> String {
    let mut s = String::from("{\n  \"stages\": [");
    for (i, (stage, cost)) in stage_totals().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"stage\": \"{}\", \"self_ns\": {}, \"total_ns\": {}, \"calls\": {}}}",
            crate::json::escape(stage),
            cost.self_ns,
            cost.total_ns,
            cost.calls
        );
    }
    s.push_str("\n  ]\n}");
    s
}

/// Human-readable ranked-stage table for the CLI exit summary; `self%`
/// is the stage's share of all self time, summed across threads.
pub fn top_table() -> String {
    let totals = stage_totals();
    let all_self: u64 = totals.iter().map(|(_, c)| c.self_ns).sum();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<30} {:>14} {:>14} {:>8} {:>7}",
        "stage", "self ns", "total ns", "calls", "self%"
    );
    for (stage, c) in totals {
        let pct = if all_self == 0 { 0.0 } else { c.self_ns as f64 * 100.0 / all_self as f64 };
        let _ = writeln!(
            s,
            "{:<30} {:>14} {:>14} {:>8} {:>6.1}%",
            stage, c.self_ns, c.total_ns, c.calls, pct
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ledger, stage, testutil};

    #[test]
    fn stage_files_no_cost_while_profiling_is_off() {
        let _g = testutil::serial();
        disable();
        drop(stage("prof.test.inert"));
        assert!(!ledger::cost_rows().iter().any(|r| r.stage == "prof.test.inert"));
        assert!(!folded().contains("prof.test.inert"));
    }

    #[test]
    fn stage_files_cost_under_its_window() {
        let _g = testutil::serial();
        enable();
        {
            let _w = ledger::window_scope(42);
            let _s = stage("prof.test.cost");
            std::hint::black_box(vec![0u8; 64]);
        }
        disable();
        let row = ledger::cost_rows()
            .into_iter()
            .find(|r| r.stage == "prof.test.cost" && r.window == 42)
            .expect("cost row filed");
        assert_eq!(row.calls, 1);
        assert!(row.ns > 0);
        ledger::reset();
    }

    #[test]
    fn folded_and_top_project_the_booked_paths() {
        let _g = testutil::serial();
        reset();
        let (root, leaf) =
            (crate::intern::intern("prof.test.root"), crate::intern::intern("prof.test.leaf"));
        let root_path = crate::intern::intern_path(0, root);
        let leaf_path = crate::intern::intern_path(root_path, leaf);
        let bare_leaf = crate::intern::intern_path(0, leaf);
        ledger::book_cost("prof.test.root", ledger::NO_WINDOW, root_path, 10, 3);
        ledger::book_cost("prof.test.leaf", ledger::NO_WINDOW, leaf_path, 4, 4);
        ledger::book_cost("prof.test.leaf", 7, leaf_path, 3, 3);
        ledger::book_cost("prof.test.leaf", 7, bare_leaf, 5, 5);
        assert_eq!(
            folded(),
            "prof.test.leaf 5\nprof.test.root 3\nprof.test.root;prof.test.leaf 7\n"
        );
        let totals = stage_totals();
        assert_eq!(
            totals[0],
            ("prof.test.leaf".to_string(), PathCost { self_ns: 12, total_ns: 12, calls: 3 })
        );
        assert_eq!(
            totals[1],
            ("prof.test.root".to_string(), PathCost { self_ns: 3, total_ns: 10, calls: 1 })
        );
        let json = crate::json::parse(&top_json()).expect("top_json parses");
        let first = &json.get("stages").and_then(|s| s.as_array()).expect("stages")[0];
        assert_eq!(first.get("stage").and_then(|s| s.as_str()), Some("prof.test.leaf"));
        assert_eq!(first.get("calls").and_then(|c| c.as_f64()), Some(3.0));
        assert!(top_table().lines().nth(1).expect("first row").ends_with("80.0%"));
        reset();
        assert!(folded().is_empty() && ledger::cost_rows().is_empty());
    }
}

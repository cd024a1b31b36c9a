//! The one `(stage, window)` table: drop accounting and stage cost in
//! the same cell.
//!
//! **Flow.** Every pipeline stage that consumes records calls
//! [`record`] once per invocation with the number of records it *saw*
//! and a breakdown of where every one of them *went* (`kept`,
//! `deduped`, `below_threshold`, `evicted`, …). The invariant each
//! stage must uphold is
//!
//! ```text
//! records_in == sum(outcome buckets)
//! ```
//!
//! and [`verify`] reports every `(stage, window)` cell where it does
//! not hold. Crucially, `records_in` is tallied *independently* of the
//! buckets (a `seen` counter incremented before any branching), so a
//! code path that silently discards a record shows up as a positive
//! imbalance instead of vanishing — silent drops are exactly the
//! failure mode the paper's sensor cannot tolerate.
//!
//! Each [`record`] call commits atomically under one lock acquisition,
//! so a concurrent `verify` observes whole stage invocations only and
//! a balanced pipeline reports zero imbalance at any instant.
//!
//! **Cost.** Under profiling, every [`crate::stage`] guard files its
//! wall time into the cell of the window its thread was scoped to when
//! the stage opened. [`cost_rows`] projects the table into the headline
//! metric **ns per record**: both halves of a cell come from the same
//! instrumented call site, so there is nothing to join. A cost stage
//! that books no flow under its own name is the *family prefix* of
//! per-instance flow stages (`"sensor.stream.shard"` covering
//! `"sensor.stream.shard.0"`, `.1`, …) or has no record count at all;
//! an exact cell always wins, so a family never double-counts.
//!
//! The same booking, under the same lock acquisition, files the stage's
//! time under the *path* of stages it ran inside ([`PathCost`]), which
//! is what [`crate::prof`] folds into the flamegraph and the
//! ranked-stage table: per stage, the paths' totals and calls are the
//! cells' by construction.
//!
//! The window comes from the thread's position, set by
//! [`window_scope`]; stages running outside any window file under
//! [`NO_WINDOW`]. The table is live under tracing *or* profiling.

pub use crate::stage::{current_window, window_scope, NO_WINDOW};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Accumulated flow through one `(stage, window)` cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Flow {
    /// Records the stage saw (counted before any branching).
    pub records_in: u64,
    /// Where they went: outcome bucket name → count.
    pub out: BTreeMap<&'static str, u64>,
}

impl Flow {
    /// Sum of all outcome buckets.
    pub fn accounted(&self) -> u64 {
        self.out.values().sum()
    }
}

/// One conservation violation reported by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Imbalance {
    /// Stage name, e.g. `"sensor.stream"`.
    pub stage: String,
    /// Window key ([`NO_WINDOW`] when recorded outside any window).
    pub window: u64,
    /// Records the stage saw.
    pub records_in: u64,
    /// Records the outcome buckets account for.
    pub accounted: u64,
}

impl Imbalance {
    /// `records_in - accounted`: positive means records vanished,
    /// negative means a bucket double-counted.
    pub fn delta(&self) -> i64 {
        self.records_in as i64 - self.accounted as i64
    }
}

/// One `(stage, window)` cell: what flowed through, and what it cost.
#[derive(Default)]
struct Cell {
    /// `None` until the stage books a flow here.
    flow: Option<Flow>,
    /// Wall nanoseconds and invocations filed by stage guards.
    ns: u64,
    calls: u64,
}

/// Stage → window → cell. Nested so a `&str` finds its stage without
/// allocating; static stage names are never copied.
type Cells = BTreeMap<Cow<'static, str>, BTreeMap<u64, Cell>>;

/// What the profiled stages that closed on one path cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCost {
    /// Wall nanoseconds not spent in stages nested on the same thread.
    pub self_ns: u64,
    /// Wall nanoseconds from open to close.
    pub total_ns: u64,
    /// Stage invocations.
    pub calls: u64,
}

struct Table {
    cells: Cells,
    /// Interned path (see [`crate::intern`]) → cost.
    paths: BTreeMap<u32, PathCost>,
}

static TABLE: Mutex<Table> = Mutex::new(Table { cells: BTreeMap::new(), paths: BTreeMap::new() });

/// Every cell that booked a flow, in `(stage, window)` order.
fn flows(cells: &Cells) -> impl Iterator<Item = (&str, u64, &Flow)> {
    cells.iter().flat_map(|(stage, windows)| {
        windows.iter().filter_map(move |(w, c)| Some((stage.as_ref(), *w, c.flow.as_ref()?)))
    })
}

/// Whether the table is recording (tracing or profiling is on): the
/// check a stage makes before computing buckets it would only pass to
/// [`record`].
pub fn is_active() -> bool {
    crate::flags() & crate::ACTIVE != 0
}

/// Record one stage invocation: it saw `records_in` records and routed
/// them to the named outcome buckets. Files under the thread's current
/// [`window_scope`]. The whole call commits under a single lock
/// acquisition, and allocates only when a stage, window or bucket is new.
/// Near-free when disabled: one relaxed atomic load.
pub fn record(stage: &str, records_in: u64, out: &[(&'static str, u64)]) {
    if !is_active() {
        return;
    }
    let window = current_window();
    let mut table = crate::lock(&TABLE);
    let cells = &mut table.cells;
    if !cells.contains_key(stage) {
        cells.insert(Cow::Owned(stage.to_owned()), BTreeMap::new());
    }
    let cell = cells.get_mut(stage).expect("just ensured").entry(window).or_default();
    let flow = cell.flow.get_or_insert_with(Flow::default);
    flow.records_in += records_in;
    for &(bucket, n) in out {
        *flow.out.entry(bucket).or_insert(0) += n;
    }
}

/// File `ns` of wall time, `self_ns` of it outside nested stages, for
/// one invocation of `stage` on `window` at the end of `path` (a
/// profiled [`crate::Stage`] dropping).
pub(crate) fn book_cost(stage: &'static str, window: u64, path: u32, ns: u64, self_ns: u64) {
    let mut table = crate::lock(&TABLE);
    let cell = table.cells.entry(Cow::Borrowed(stage)).or_default().entry(window).or_default();
    cell.ns += ns;
    cell.calls += 1;
    let cost = table.paths.entry(path).or_default();
    cost.self_ns += self_ns;
    cost.total_ns += ns;
    cost.calls += 1;
}

/// Every path a profiled stage closed on, by interned path id.
pub(crate) fn path_costs() -> Vec<(u32, PathCost)> {
    crate::lock(&TABLE).paths.iter().map(|(&path, &cost)| (path, cost)).collect()
}

/// Every `(stage, window)` cell where `records_in != sum(buckets)`.
/// Empty means every record that entered every stage is accounted for.
pub fn verify() -> Vec<Imbalance> {
    flows(&crate::lock(&TABLE).cells)
        .filter(|(_, _, flow)| flow.records_in != flow.accounted())
        .map(|(stage, window, flow)| Imbalance {
            stage: stage.to_owned(),
            window,
            records_in: flow.records_in,
            accounted: flow.accounted(),
        })
        .collect()
}

/// A copy of every `(stage, window)` cell that booked a flow.
pub fn snapshot() -> BTreeMap<(String, u64), Flow> {
    flows(&crate::lock(&TABLE).cells)
        .map(|(stage, window, flow)| ((stage.to_owned(), window), flow.clone()))
        .collect()
}

/// Clear the table, flows and costs (tests, per-run CLI resets, the
/// start of a profiling session).
pub fn reset() {
    let mut table = crate::lock(&TABLE);
    table.cells.clear();
    table.paths.clear();
}

fn window_label(window: u64) -> String {
    if window == NO_WINDOW {
        "-".to_string()
    } else {
        window.to_string()
    }
}

/// Human-readable table of every flow, one line per `(stage, window)`,
/// with a trailing `IMBALANCE` marker on unbalanced lines.
pub fn render() -> String {
    let table = crate::lock(&TABLE);
    let mut s = String::new();
    let _ = writeln!(s, "{:<24} {:>12} {:>10}  outcomes", "stage", "window", "in");
    for (stage, window, flow) in flows(&table.cells) {
        let outs: Vec<String> = flow.out.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let balance = if flow.records_in == flow.accounted() {
            String::new()
        } else {
            format!("  IMBALANCE ({} vs {})", flow.records_in, flow.accounted())
        };
        let _ = writeln!(
            s,
            "{:<24} {:>12} {:>10}  {}{}",
            stage,
            window_label(window),
            flow.records_in,
            outs.join(" "),
            balance
        );
    }
    s
}

/// One `(stage, window)` cost cell beside the records it paid for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostRow {
    /// Stage (or family-prefix) name.
    pub stage: String,
    /// Window key ([`NO_WINDOW`] outside any window).
    pub window: u64,
    /// Total wall nanoseconds across calls.
    pub ns: u64,
    /// Stage invocations.
    pub calls: u64,
    /// Records the stage (or its family) saw in this window; `None`
    /// for a stage that books no flow.
    pub records: Option<u64>,
}

impl CostRow {
    /// `ns / records`, the headline unit cost (`None` without records).
    pub fn ns_per_record(&self) -> Option<u64> {
        self.ns.checked_div(self.records?)
    }
}

/// Every cell a profiled stage filed time into, in `(stage, window)`
/// order.
pub fn cost_rows() -> Vec<CostRow> {
    let table = crate::lock(&TABLE);
    let cells = &table.cells;
    let mut rows = Vec::new();
    for (stage, windows) in cells.iter() {
        for (&window, cell) in windows.iter().filter(|(_, c)| c.calls > 0) {
            let records = match &cell.flow {
                Some(flow) => Some(flow.records_in),
                None => family_records(cells, stage, window),
            };
            let (ns, calls) = (cell.ns, cell.calls);
            rows.push(CostRow { stage: stage.to_string(), window, ns, calls, records });
        }
    }
    rows
}

/// Records booked in `window` by the per-instance stages `<stage>.…`
/// (keys sharing a prefix are contiguous in the map).
fn family_records(cells: &Cells, stage: &str, window: u64) -> Option<u64> {
    let after = (std::ops::Bound::Excluded(stage), std::ops::Bound::Unbounded);
    cells
        .range::<str, _>(after)
        .map_while(|(name, windows)| Some((name.strip_prefix(stage)?, windows)))
        .filter(|(rest, _)| rest.starts_with('.'))
        .filter_map(|(_, windows)| Some(windows.get(&window)?.flow.as_ref()?.records_in))
        .reduce(|a, b| a + b)
}

/// Human-readable ns-per-record table, one line per `(stage, window)`;
/// `-` where a stage books no flow.
pub fn cost_table() -> String {
    let dash = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<26} {:>12} {:>8} {:>14} {:>10} {:>10}",
        "stage", "window", "calls", "ns", "records", "ns/rec"
    );
    for r in cost_rows() {
        let _ = writeln!(
            s,
            "{:<26} {:>12} {:>8} {:>14} {:>10} {:>10}",
            r.stage,
            window_label(r.window),
            r.calls,
            r.ns,
            dash(r.records),
            dash(r.ns_per_record())
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn balanced_stage_verifies_clean() {
        let _g = testutil::serial();
        crate::trace::enable();
        reset();
        record("trace.test.clean", 10, &[("kept", 7), ("deduped", 3)]);
        record("trace.test.clean", 5, &[("kept", 5)]);
        assert!(verify().is_empty(), "10+5 in, 7+3+5 out — balanced");
        let snap = snapshot();
        let flow = &snap[&("trace.test.clean".to_string(), NO_WINDOW)];
        assert_eq!(flow.records_in, 15);
        assert_eq!(flow.out["kept"], 12);
        assert_eq!(flow.out["deduped"], 3);
        reset();
        crate::trace::disable();
    }

    #[test]
    fn silent_drop_surfaces_as_imbalance() {
        let _g = testutil::serial();
        crate::trace::enable();
        reset();
        record("trace.test.leaky", 10, &[("kept", 8)]);
        let bad = verify();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].stage, "trace.test.leaky");
        assert_eq!(bad[0].delta(), 2, "two records vanished");
        assert!(render().contains("IMBALANCE"));
        reset();
        crate::trace::disable();
    }

    #[test]
    fn window_scopes_nest_and_partition_cells() {
        let _g = testutil::serial();
        crate::trace::enable();
        reset();
        {
            let _w0 = window_scope(0);
            record("trace.test.win", 4, &[("kept", 4)]);
            {
                let _w1 = window_scope(1);
                record("trace.test.win", 6, &[("kept", 6)]);
            }
            record("trace.test.win", 2, &[("kept", 2)]);
        }
        record("trace.test.win", 1, &[("kept", 1)]);
        let snap = snapshot();
        assert_eq!(snap[&("trace.test.win".to_string(), 0)].records_in, 6, "outer scope restored");
        assert_eq!(snap[&("trace.test.win".to_string(), 1)].records_in, 6);
        assert_eq!(snap[&("trace.test.win".to_string(), NO_WINDOW)].records_in, 1);
        assert!(verify().is_empty());
        reset();
        crate::trace::disable();
    }

    #[test]
    fn concurrent_records_never_show_transient_imbalance() {
        let _g = testutil::serial();
        crate::trace::enable();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        record("trace.test.conc", 3, &[("kept", 2), ("deduped", 1)]);
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..100 {
                    assert!(verify().is_empty(), "verify mid-flight sees whole invocations only");
                }
            });
        });
        let snap = snapshot();
        assert_eq!(snap[&("trace.test.conc".to_string(), NO_WINDOW)].records_in, 4 * 200 * 3);
        reset();
        crate::trace::disable();
    }

    #[test]
    fn exact_ledger_match_wins_over_prefix_sum() {
        let _g = testutil::serial();
        crate::trace::enable();
        reset();
        {
            let _w = window_scope(5);
            record("cost.test.exact", 10, &[("kept", 10)]);
            record("cost.test.exact.sub", 99, &[("kept", 99)]);
        }
        book_cost("cost.test.exact", 5, 0, 1000, 1000);
        let r = cost_rows().into_iter().find(|r| r.stage == "cost.test.exact").expect("row");
        assert_eq!(r.records, Some(10), "exact cell, not 10+99");
        assert_eq!(r.ns_per_record(), Some(100));
        reset();
        crate::trace::disable();
    }

    #[test]
    fn family_prefix_sums_per_instance_ledger_stages() {
        let _g = testutil::serial();
        crate::trace::enable();
        reset();
        {
            let _w = window_scope(3);
            record("cost.test.fam.shard.0", 4, &[("kept", 4)]);
            record("cost.test.fam.shard.1", 6, &[("kept", 6)]);
            record("cost.test.fam.shard-x", 50, &[("kept", 50)]);
            record("cost.test.fam.sharded", 70, &[("kept", 70)]);
        }
        book_cost("cost.test.fam.shard", 3, 0, 2000, 2000);
        book_cost("cost.test.fam.shard", 3, 0, 500, 500);
        book_cost("cost.test.fam.shard", 4, 0, 500, 500);
        let rows = cost_rows();
        let r =
            rows.iter().find(|r| r.stage == "cost.test.fam.shard" && r.window == 3).expect("row");
        assert_eq!((r.calls, r.ns), (2, 2500));
        assert_eq!(r.records, Some(10), "family prefix sums the dotted instances only");
        assert_eq!(r.ns_per_record(), Some(250));
        let other = rows.iter().find(|r| r.stage == "cost.test.fam.shard" && r.window == 4);
        assert_eq!(other.expect("row").records, None, "no flow in that window");
        assert!(cost_table().contains("cost.test.fam.shard"));
        assert_eq!(snapshot().len(), 4, "cost-only cells are not flows");
        reset();
        crate::trace::disable();
    }

    #[test]
    fn flowless_stage_prints_a_dash_not_a_zero() {
        let _g = testutil::serial();
        reset();
        book_cost("cost.test.flowless", NO_WINDOW, 0, 1234, 1234);
        let line =
            cost_table().lines().find(|l| l.starts_with("cost.test.flowless")).map(String::from);
        let cols: Vec<&str> = line.as_deref().expect("row rendered").split_whitespace().collect();
        assert_eq!(cols, ["cost.test.flowless", "-", "1", "1234", "-", "-"]);
        assert!(verify().is_empty() && snapshot().is_empty());
        reset();
    }
}

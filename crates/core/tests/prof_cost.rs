//! The ns-per-record cost table must reconcile with the conservation
//! ledger: for every profiled stage+window, the record count the cost
//! row reports is exactly what the ledger booked there — and what a
//! stage is charged must not depend on how wide the pool is. Runs with
//! the counting allocator installed, the way the `backscatter` binary
//! ships it.

use backscatter_core::stream::{run_live_stream, run_live_stream_extracting};
use bs_activity::ApplicationClass;
use bs_classify::pipeline::feature_map;
use bs_classify::{ClassifierPipeline, LabeledExample, LabeledSet};
use bs_dns::{Rcode, SimDuration, SimTime};
use bs_netsim::log::QueryLogRecord;
use bs_netsim::types::{AsId, CountryCode, NameOutcome};
use bs_sensor::{FeatureConfig, QuerierInfo, QuerierMetaCache, StreamConfig};
use bs_telemetry::{ledger, prof};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

/// Every test switches the process-wide profiling flag and clears the
/// process-wide ledger: one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn rec(t: u64, q: u32, o: u32) -> QueryLogRecord {
    QueryLogRecord {
        time: SimTime(t),
        querier: std::net::Ipv4Addr::from(0x0A00_0000 | q),
        originator: std::net::Ipv4Addr::from(0xCB00_0000 | o),
        rcode: Rcode::NoError,
    }
}

fn records() -> Vec<QueryLogRecord> {
    let mut out = Vec::new();
    for w in 0..4u64 {
        for i in 0..80u32 {
            out.push(rec(w * 100 + (i % 90) as u64, i % 11, i % 3));
        }
    }
    out
}

#[test]
fn cost_table_reconciles_with_ledger_per_window() {
    let _serial = serial();
    // Profiling only, no tracing.
    prof::enable();
    ledger::reset();

    let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };
    let stats = run_live_stream(&records(), cfg, 1, None, 0, |_| {});
    assert_eq!(stats.records, 320);
    assert!(stats.windows >= 4);

    prof::disable();

    let flows = ledger::snapshot();
    let rows: Vec<_> =
        ledger::cost_rows().into_iter().filter(|r| r.stage == "sensor.stream").collect();
    assert!(rows.len() >= 4, "one cost row per flushed window, got {}", rows.len());

    let mut cost_records = 0u64;
    for r in &rows {
        let flow = flows
            .get(&("sensor.stream".to_string(), r.window))
            .unwrap_or_else(|| panic!("ledger has no cell for window {}", r.window));
        assert_eq!(
            r.records,
            Some(flow.records_in),
            "window {}: cost row must carry the ledger's record count",
            r.window
        );
        assert_eq!(r.calls, 1, "each window flushes once");
        assert!(r.ns > 0, "wall time was measured");
        assert_eq!(r.ns_per_record(), r.ns.checked_div(flow.records_in), "unit cost is ns/records");
        cost_records += flow.records_in;
    }
    assert_eq!(cost_records, 320, "every streamed record appears in exactly one cost row");

    // The rendered table carries the same reconciliation.
    let table = ledger::cost_table();
    assert!(table.contains("sensor.stream"), "render names the stage:\n{table}");

    ledger::reset();
}

struct NoNames;
impl QuerierInfo for NoNames {
    fn querier_name(&self, _addr: std::net::Ipv4Addr) -> NameOutcome {
        NameOutcome::NxDomain
    }
    fn querier_as(&self, addr: std::net::Ipv4Addr) -> Option<AsId> {
        Some(AsId(addr.octets()[3] as u32 % 3))
    }
    fn querier_country(&self, _addr: std::net::Ipv4Addr) -> Option<CountryCode> {
        None
    }
}

/// Four windows wide enough that extraction fans out: 130 originators
/// (three feature chunks) and 2 100 queriers new in every window
/// (three resolution chunks, no cache hits).
fn wide_records() -> Vec<QueryLogRecord> {
    let mut out = Vec::new();
    for w in 0..4u32 {
        for i in 0..2_100u32 {
            out.push(rec(w as u64 * 100 + (i % 90) as u64, w * 2_100 + i, i % 130));
        }
    }
    out.sort_by_key(|r| r.time);
    out
}

/// Extraction and classification run on the driver's closing thread
/// and fan out to pool workers; their cost rows and ledger cells must
/// still be filed under the window they belong to, as the sensor's
/// are, at any pool width.
#[test]
fn extraction_cost_is_filed_by_window_like_the_sensors() {
    let _serial = serial();
    let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };
    let features = FeatureConfig { min_queriers: 1, top_n: None };
    // A forest over the first window's 130 originators (three row
    // blocks a window, so prediction fans out too), fitted unprofiled.
    let mut first = Vec::new();
    run_live_stream_extracting(
        &wide_records()[..2_100],
        cfg,
        0,
        None,
        0,
        &NoNames,
        &features,
        &mut QuerierMetaCache::default(),
        |_, rows| first.extend_from_slice(rows),
    );
    let labels = LabeledSet {
        examples: first
            .iter()
            .enumerate()
            .map(|(i, f)| LabeledExample {
                originator: f.originator,
                class: [ApplicationClass::Spam, ApplicationClass::Scan][i % 2],
            })
            .collect(),
    };
    let model = ClassifierPipeline {
        algorithm: bs_ml::Algorithm::RandomForest(bs_ml::ForestParams {
            n_trees: 3,
            ..Default::default()
        }),
        runs: 1,
    }
    .train(&labels, &feature_map(&first), 1)
    .expect("two classes with features");
    for threads in [1, 4] {
        prof::enable();
        ledger::reset();
        bs_par::set_threads(threads);
        let mut cache = QuerierMetaCache::default();
        let stats = run_live_stream_extracting(
            &wide_records(),
            cfg,
            0,
            None,
            0,
            &NoNames,
            &features,
            &mut cache,
            |_, rows| assert_eq!(model.classify_all(&feature_map(rows)).len(), 130),
        );
        bs_par::set_threads(0);
        prof::disable();
        assert_eq!(stats.windows, 4);

        let rows = ledger::cost_rows();
        let windows_of = |stage: &str| -> BTreeSet<u64> {
            rows.iter().filter(|r| r.stage == stage).map(|r| r.window).collect()
        };
        let sensor = windows_of("sensor.stream");
        assert_eq!(sensor, BTreeSet::from([0, 100, 200, 300]), "threads={threads}");
        for stage in [
            "sensor.extract.lookup",
            "sensor.extract.features",
            "sensor.select",
            "sensor.static.lanes",
            "ml.predict",
        ] {
            assert_eq!(
                windows_of(stage),
                sensor,
                "threads={threads}: {stage} cost rows are keyed by window"
            );
        }
        let flows = ledger::snapshot();
        for stage in ["sensor.extract.lookup", "sensor.select"] {
            let cells: BTreeSet<u64> =
                flows.keys().filter(|(s, _)| s == stage).map(|(_, w)| *w).collect();
            assert_eq!(
                cells, sensor,
                "threads={threads}: {stage} ledger cells are keyed by window"
            );
        }
        for r in rows
            .iter()
            .filter(|r| ["sensor.extract.features", "ml.predict"].contains(&r.stage.as_str()))
        {
            assert_eq!(r.calls, 3, "threads={threads}: {} once a chunk of 64 originators", r.stage);
            assert_eq!(r.records, None, "{} books no flow: no fabricated unit cost", r.stage);
        }
        for r in rows.iter().filter(|r| r.stage == "sensor.extract.lookup") {
            assert_eq!(r.calls, 1, "one table build a window");
            assert_eq!(r.records, Some(2_100), "beside the window's unique queriers");
        }
    }
    ledger::reset();
}

/// The flamegraph and the cost table are two projections of one
/// booking: for every stage, what the paths ending in it total is what
/// its cells total over windows, to the nanosecond and the call, however
/// wide the pool that ran it.
#[test]
fn path_totals_reconcile_with_cost_cells_at_every_pool_width() {
    let _serial = serial();
    let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };
    let features = FeatureConfig { min_queriers: 1, top_n: None };
    for threads in [1, 2] {
        prof::reset();
        prof::enable();
        bs_par::set_threads(threads);
        run_live_stream_extracting(
            &wide_records(),
            cfg,
            0,
            None,
            0,
            &NoNames,
            &features,
            &mut QuerierMetaCache::default(),
            |_, _| {},
        );
        bs_par::set_threads(0);
        prof::disable();

        let mut by_path = BTreeMap::new();
        for (path, cost) in prof::path_rows() {
            let stage = path.rsplit(';').next().expect("a path has a stage").to_string();
            let (ns, calls) = by_path.entry(stage).or_insert((0, 0));
            *ns += cost.total_ns;
            *calls += cost.calls;
        }
        let mut by_cell = BTreeMap::new();
        for r in ledger::cost_rows() {
            let (ns, calls) = by_cell.entry(r.stage).or_insert((0, 0));
            *ns += r.ns;
            *calls += r.calls;
        }
        assert_eq!(by_path, by_cell, "threads={threads}");
        assert_eq!(by_cell["sensor.stream"].1, 4, "threads={threads}: one close a window");
        assert_eq!(
            by_cell["sensor.extract.features"].1, 12,
            "threads={threads}: three chunks each"
        );
    }
    ledger::reset();
}

/// The path table says where a fit goes: what a forest's trees share
/// (the column-major rows and their argsort) is prepared once per
/// forest, each tree then weighs, filters and grows — both inside their
/// vote run, however wide the pool.
#[test]
fn a_forest_fit_prepares_its_rows_once_and_each_tree_is_a_path_under_its_run() {
    let _serial = serial();
    let mut data =
        bs_ml::Dataset::new(vec!["x".into(), "y".into()], vec!["a".into(), "b".into(), "c".into()]);
    for i in 0..60usize {
        let features = vec![(i % 7) as f64, (i * i % 11) as f64];
        data.push(bs_ml::Sample { features, label: i % 3 });
    }
    let forest =
        bs_ml::Algorithm::RandomForest(bs_ml::ForestParams { n_trees: 5, ..Default::default() });
    for threads in [1, 2] {
        bs_par::set_threads(threads);
        prof::reset();
        prof::enable();
        let ensemble = bs_ml::MajorityEnsemble::fit(&forest, &data, 3, 1);
        prof::disable();
        bs_par::set_threads(0);
        assert_eq!(ensemble.len(), 3);

        let rows = prof::path_rows();
        for (leaf, calls) in [("ml.fit.shared", 3), ("ml.fit.tree", 15)] {
            let on: Vec<_> =
                rows.iter().filter(|(path, _)| path.rsplit(';').next() == Some(leaf)).collect();
            let booked: u64 = on.iter().map(|(_, cost)| cost.calls).sum();
            assert_eq!(booked, calls, "threads={threads}: {leaf} calls:\n{}", prof::folded());
            for (path, _) in on {
                assert!(
                    path.starts_with("ml.train;") && path.contains(";ml.fit_run;"),
                    "threads={threads}: {leaf} is not inside a vote run: {path}"
                );
            }
        }
    }
    ledger::reset();
}

/// What a stage is charged must not depend on the pool width: threads
/// the pool spawns — region workers, the far side of a `join`, a
/// `scope` thread — inherit the opener's allocator slot and its path, so
/// every stage they open is booked, once a call, under the opener.
#[test]
fn attribution_is_the_same_at_every_pool_width() {
    let _serial = serial();
    for threads in [1, 2] {
        bs_par::set_threads(threads);
        prof::reset();
        prof::enable();
        {
            let _outer = bs_telemetry::stage("attr.outer");
            let blocks = bs_par::par_map_range(64, |i| vec![i as u8; 4096]);
            let spawned = bs_par::scope(|s| {
                let fill = || (0..64u8).map(|i| vec![i; 8192]).collect::<Vec<_>>();
                s.spawn(fill).join().expect("scoped thread")
            });
            std::hint::black_box((blocks, spawned));
            let open = |name| drop(bs_telemetry::stage(name));
            bs_par::par_map_range(2, |_| open("attr.worker"));
            bs_par::join(|| open("attr.join.a"), || open("attr.join.b"));
            bs_par::scope(|s| s.spawn(|| open("attr.spawned")).join().expect("scoped thread"));
        }
        prof::disable();
        bs_par::set_threads(0);

        let bytes = |stage: &str| {
            prof::alloc_rows().iter().find(|r| r.stage == stage).map_or(0, |r| r.bytes)
        };
        assert!(
            bytes("attr.outer") >= 64 * 4096 + 64 * 8192,
            "threads={threads}: the opener is charged what its threads allocate:\n{}",
            prof::alloc_table()
        );
        assert!(
            bytes("(unattributed)") < 64 * 1024,
            "threads={threads}: nothing leaks to (unattributed):\n{}",
            prof::alloc_table()
        );
        let rows = prof::path_rows();
        for (leaf, calls) in
            [("attr.worker", 2), ("attr.join.a", 1), ("attr.join.b", 1), ("attr.spawned", 1)]
        {
            let on: Vec<_> =
                rows.iter().filter(|(path, _)| path.rsplit(';').next() == Some(leaf)).collect();
            let booked: u64 = on.iter().map(|(_, cost)| cost.calls).sum();
            assert_eq!(booked, calls, "threads={threads}: {leaf} calls:\n{}", prof::folded());
            for (path, _) in on {
                assert!(
                    path.starts_with("attr.outer;"),
                    "threads={threads}: {leaf} is not based on the opener's path: {path}"
                );
            }
        }
    }
    ledger::reset();
}

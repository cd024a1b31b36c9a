//! End-to-end causal-tracing tests: the full dataset pipeline under
//! `--trace` semantics.
//!
//! These cover the three promises tracing makes at system level:
//! the Chrome export of a real run is valid and causally complete
//! (worker spans chain back to the root at any thread count), the
//! drop-accounting ledger balances over a whole pipeline run, and
//! enabling tracing does not perturb results (1-vs-8-thread runs stay
//! bit-identical with the recorder on).
//!
//! Tracing state is process-global, so every test serializes on one
//! mutex, and no other test binary shares this process.

use dns_backscatter::prelude::*;
use dns_backscatter::telemetry::{self, json, ledger, trace};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with the pool pinned to `n` threads, restoring the default.
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    dns_backscatter::par::set_threads(n);
    let r = f();
    dns_backscatter::par::set_threads(0);
    r
}

/// A quick smoke pipeline: every window sensed at the smoke threshold,
/// then classified by a small voted forest.
fn smoke_run(world: &World, built: &BuiltDataset) -> PipelineRun {
    let features =
        sense_dataset(built, world, &FeatureConfig { min_queriers: 10, ..Default::default() });
    let pipeline = DatasetPipeline {
        classifier: ClassifierPipeline {
            algorithm: Algorithm::RandomForest(ForestParams { n_trees: 4, ..Default::default() }),
            runs: 3,
        },
        ..Default::default()
    };
    pipeline.run(built, &features)
}

/// span_id → (name, parent_id) for every SpanStart in `evs`.
fn span_index(evs: &[trace::Event]) -> BTreeMap<u64, (&'static str, u64)> {
    evs.iter()
        .filter_map(|e| match e.kind {
            trace::EventKind::SpanStart { name } => Some((e.span_id, (name, e.parent_id))),
            _ => None,
        })
        .collect()
}

/// Whether `ancestor` appears on the parent chain starting at `id`.
fn has_ancestor(index: &BTreeMap<u64, (&'static str, u64)>, mut id: u64, ancestor: u64) -> bool {
    for _ in 0..64 {
        if id == ancestor {
            return true;
        }
        id = match index.get(&id) {
            Some((_, parent)) => *parent,
            None => return false,
        };
    }
    false
}

#[test]
fn traced_pipeline_exports_valid_causally_complete_chrome_json() {
    let _g = serial();
    trace::enable();
    trace::drain();
    ledger::reset();

    let world = World::new(WorldConfig::default());
    let (root_ctx, run, evs) = at_threads(4, || {
        let root = telemetry::stage("test.pipeline");
        let root_ctx = root.context().expect("root span carries ids");
        let built = build_dataset(&world, DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 7));
        let run = smoke_run(&world, &built);
        drop(root);
        (root_ctx, run, trace::drain())
    });
    trace::disable();

    assert!(run.windows.iter().any(|w| !w.entries.is_empty()), "pipeline classified nothing");

    // The export is valid Chrome trace JSON with worker lanes labelled.
    let json = trace::chrome_trace_json(&evs);
    let value = json::parse(&json).expect("export parses");
    let events = value.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    assert!(events.len() > 20, "only {} events", events.len());
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|v| v.as_str()))
        .collect();
    assert!(
        thread_names.iter().any(|n| n.starts_with("par-worker-")),
        "no worker lanes labelled, got {thread_names:?}"
    );

    // Causal completeness: every per-run training span chains back to
    // the root across the worker-thread hop.
    let index = span_index(&evs);
    let fit_runs: Vec<&trace::Event> = evs
        .iter()
        .filter(|e| matches!(e.kind, trace::EventKind::SpanStart { name } if name == "ml.fit_run"))
        .collect();
    assert!(!fit_runs.is_empty(), "no ml.fit_run spans recorded");
    for f in &fit_runs {
        assert_eq!(f.trace_id, root_ctx.trace_id, "one causal tree");
        assert!(
            has_ancestor(&index, f.span_id, root_ctx.span_id),
            "ml.fit_run chain reaches the root"
        );
    }
    for stage in ["datasets.build", "sensor.extract", "core.curate", "classify.train", "par.run"] {
        assert!(
            index.values().any(|(name, _)| *name == stage),
            "stage span {stage} missing from the trace"
        );
    }

    // The ledger balanced: every record that entered every stage is
    // accounted for, and the expected stages all filed flows.
    let imbalances = ledger::verify();
    assert!(imbalances.is_empty(), "ledger imbalance:\n{}", ledger::render());
    let snapshot = ledger::snapshot();
    for stage in
        ["datasets.build", "sensor.stream", "sensor.select", "classify.train", "core.window"]
    {
        assert!(
            snapshot.keys().any(|(s, _)| s == stage),
            "stage {stage} filed no ledger flows:\n{}",
            ledger::render()
        );
    }
    // The per-window stages filed under the window's start second (0
    // for JP-ditl's one window), not the ambient cell.
    assert!(
        snapshot.keys().any(|(s, w)| s == "sensor.stream" && *w == 0),
        "sensor.stream not scoped to window 0:\n{}",
        ledger::render()
    );
    ledger::reset();
}

/// On a multi-window dataset every per-window ledger row — the
/// sensor's own, the analyzability cut's, the pipeline's — is keyed by
/// the window's start second, the key the streaming driver uses too.
#[test]
fn per_window_ledger_rows_are_keyed_by_the_windows_start_second() {
    let _g = serial();
    trace::enable();
    ledger::reset();
    let world = World::new(WorldConfig::default());
    let built = build_dataset(&world, DatasetSpec::paper(DatasetId::BLong, Scale::smoke(), 7));
    smoke_run(&world, &built);
    trace::disable();
    trace::drain();

    let starts: BTreeSet<u64> = built.windows().iter().map(|w| w.0.secs()).collect();
    assert!(starts.len() > 1, "a multi-window dataset");
    let snapshot = ledger::snapshot();
    for stage in ["sensor.stream", "sensor.select", "core.window"] {
        let keys: BTreeSet<u64> =
            snapshot.keys().filter(|(s, _)| s == stage).map(|(_, w)| *w).collect();
        assert_eq!(keys, starts, "{stage} rows:\n{}", ledger::render());
    }
    ledger::reset();
}

#[test]
fn tracing_does_not_perturb_determinism_at_any_thread_count() {
    let _g = serial();
    let world = World::new(WorldConfig::default());
    let built = build_dataset(&world, DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 7));

    let baseline = at_threads(1, || smoke_run(&world, &built));

    trace::enable();
    trace::drain();
    ledger::reset();
    let seq = at_threads(1, || smoke_run(&world, &built));
    assert!(ledger::verify().is_empty(), "sequential run imbalanced");
    let par = at_threads(8, || smoke_run(&world, &built));
    assert!(ledger::verify().is_empty(), "parallel run imbalanced");
    trace::drain();
    ledger::reset();
    trace::disable();

    assert_eq!(baseline.windows, seq.windows, "tracing changed sequential results");
    assert_eq!(seq.windows, par.windows, "results differ across thread counts under tracing");
}

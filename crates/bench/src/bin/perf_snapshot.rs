//! Machine-readable pipeline performance snapshot.
//!
//! Runs the shared measurement suite ([`bench::perfsnap::measure_all`]
//! — pipeline wall times under four telemetry regimes, ingest
//! throughput fast-vs-reference, ML fast-vs-reference, every
//! equivalence contract asserted) and writes the resulting telemetry
//! registry to `BENCH_pipeline.json` at the workspace root. That file
//! is the committed baseline `perf_gate` compares fresh runs against.
//!
//! Gauge semantics (see `backscatter stats` for the full metric list):
//! `bench.pipeline.wall_ms_disabled` vs `wall_ms_enabled` bounds the
//! cost of telemetry itself; `wall_ms_sequential` vs `wall_ms_parallel`
//! records the sequential-vs-parallel trajectory (with `threads` the
//! parallel width); `wall_ms_trace_enabled` bounds the cost of
//! `--trace` (`trace_events` is the recorded event count, and the
//! ledger must verify balanced); `bench.ingest.*` and `bench.ml.*` are
//! records/second throughput pairs, fast path vs retained reference.
//!
//! ```bash
//! cargo run --release -p bench --bin perf_snapshot
//! ```

/// Counting allocator, as in the `backscatter` binary, so the
/// profiler-overhead probe measures the wrapper the shipped CLI
/// actually runs with.
#[global_allocator]
static ALLOC: bs_telemetry::prof::CountingAlloc = bs_telemetry::prof::CountingAlloc;

fn main() {
    let summary = bench::perfsnap::measure_all();

    let out = bench::perfsnap::baseline_path();
    let json = backscatter_core::telemetry::snapshot_json();
    std::fs::write(&out, &json).expect("write BENCH_pipeline.json");

    bs_telemetry::info!(
        "bench",
        "wrote {}", out.display();
        classified = summary.classified,
        wall_ms_sequential = summary.wall_ms_sequential,
        wall_ms_parallel = summary.wall_ms_parallel,
        threads = summary.threads,
    );
    print!("{json}");
}

//! Performance-regression gate.
//!
//! Re-runs the shared measurement suite
//! ([`bench::perfsnap::measure_all`]) and compares every `bench.*`
//! gauge against the committed baseline `BENCH_pipeline.json`:
//!
//! * `*_rps` throughput gauges regress when the fresh value drops
//!   below **80%** of the baseline;
//! * `*wall_ms*` latency gauges regress when the fresh value exceeds
//!   **120%** of the baseline;
//! * a baseline of `-1` means *unmeasured* — the gauge is reported but
//!   not gated (the committed file starts life as a placeholder on
//!   hosts that can't produce stable numbers, e.g. single-core CI);
//! * everything else (`records`, `rows`, `threads`, `trace_events`,
//!   `prof.overhead_pct`) is informational.
//!
//! Every row carries the signed percent change vs the baseline, so a
//! run's drift is readable at a glance even when nothing regressed.
//!
//! Exits non-zero iff at least one gauge regressed, so CI can wire it
//! in as a hard gate once a real baseline is committed:
//!
//! ```bash
//! cargo run --release -p bench --bin perf_gate
//! ```
//!
//! Refresh the baseline with `perf_snapshot` on a quiet multi-core
//! host and commit the new `BENCH_pipeline.json`.

use std::process::ExitCode;

/// Counting allocator, as in the `backscatter` binary, so the
/// profiler-overhead probe measures the wrapper the shipped CLI
/// actually runs with.
#[global_allocator]
static ALLOC: bs_telemetry::prof::CountingAlloc = bs_telemetry::prof::CountingAlloc;

/// Throughput gauges may lose at most this fraction vs the baseline.
const RPS_FLOOR: f64 = 0.8;
/// Latency gauges may gain at most this fraction vs the baseline.
const WALL_MS_CEIL: f64 = 1.2;

/// What the gate decided about one gauge.
enum Verdict {
    Pass,
    Regressed,
    Unmeasured,
    Info,
}

fn judge(name: &str, base: f64, new: f64) -> Verdict {
    if base < 0.0 {
        return Verdict::Unmeasured;
    }
    if name.ends_with("_rps") {
        if new < base * RPS_FLOOR {
            return Verdict::Regressed;
        }
        return Verdict::Pass;
    }
    if name.contains("wall_ms") {
        if new > base * WALL_MS_CEIL {
            return Verdict::Regressed;
        }
        return Verdict::Pass;
    }
    Verdict::Info
}

fn main() -> ExitCode {
    let path = bench::perfsnap::baseline_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf_gate: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let baseline = match bs_telemetry::json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perf_gate: {} is not valid JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(base_gauges) = baseline.get("gauges").and_then(|g| g.as_object()) else {
        eprintln!("perf_gate: {} has no \"gauges\" object", path.display());
        return ExitCode::FAILURE;
    };

    println!("perf_gate: measuring (baseline {})…", path.display());
    let summary = bench::perfsnap::measure_all();
    let fresh = backscatter_core::telemetry::snapshot();

    // Signed percent change vs the baseline; "-" when the baseline is
    // a placeholder or zero (a delta against -1 or 0 is meaningless).
    let delta = |base: f64, new: f64| -> String {
        if base > 0.0 {
            format!("{:+.1}%", (new - base) / base * 100.0)
        } else {
            "-".to_string()
        }
    };
    let mut regressions = 0usize;
    let mut gated = 0usize;
    let mut unmeasured = 0usize;
    println!("{:<40} {:>12} {:>12} {:>8}  verdict", "gauge", "baseline", "fresh", "delta");
    for (name, base_value) in base_gauges {
        if !name.starts_with("bench.") {
            continue;
        }
        let base = base_value.as_f64().unwrap_or(-1.0);
        let Some(new) = fresh.gauges.get(name).copied() else {
            println!("{name:<40} {base:>12.0} {:>12} {:>8}  REGRESSED (gauge vanished)", "-", "-");
            regressions += 1;
            continue;
        };
        let new = new as f64;
        let d = delta(base, new);
        match judge(name, base, new) {
            Verdict::Pass => {
                gated += 1;
                println!("{name:<40} {base:>12.0} {new:>12.0} {d:>8}  ok");
            }
            Verdict::Regressed => {
                regressions += 1;
                let bound = if name.ends_with("_rps") {
                    format!("floor {:.0}", base * RPS_FLOOR)
                } else {
                    format!("ceil {:.0}", base * WALL_MS_CEIL)
                };
                println!("{name:<40} {base:>12.0} {new:>12.0} {d:>8}  REGRESSED ({bound})");
            }
            Verdict::Unmeasured => {
                unmeasured += 1;
                println!("{name:<40} {base:>12.0} {new:>12.0} {d:>8}  recorded (no baseline)");
            }
            Verdict::Info => {
                println!("{name:<40} {base:>12.0} {new:>12.0} {d:>8}  info");
            }
        }
    }
    println!(
        "perf_gate: {gated} gated, {unmeasured} unmeasured, {regressions} regressed \
         ({} classified, {} threads)",
        summary.classified, summary.threads
    );
    if regressions > 0 {
        eprintln!(
            "perf_gate: FAIL — {regressions} gauge(s) regressed past the \
             {:.0}%/{:.0}% bounds",
            RPS_FLOOR * 100.0,
            WALL_MS_CEIL * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("perf_gate: PASS");
    ExitCode::SUCCESS
}

//! End-to-end tests of the `backscatter` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_backscatter"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bs-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Simulate once for the whole test file (smoke scale, ~seconds).
fn simulated_log() -> PathBuf {
    let path = tmp("cli-jp.tsv");
    if path.exists() {
        return path;
    }
    let out = bin()
        .args([
            "simulate",
            "--dataset",
            "JP-ditl",
            "--scale",
            "smoke",
            "--seed",
            "5",
            "--out",
            path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    path
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = bin().output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn simulate_then_features_produces_tsv() {
    let log = simulated_log();
    let out = bin()
        .args(["features", "--log", log.to_str().unwrap(), "--min-queriers", "10"])
        .output()
        .expect("run features");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let header = lines.next().expect("header row");
    assert!(header.starts_with("originator\tqueriers\tqueries\t"));
    assert_eq!(header.split('\t').count(), 3 + 22, "3 id columns + 22 features");
    let rows: Vec<&str> = lines.collect();
    assert!(!rows.is_empty(), "no analyzable originators");
    for row in rows {
        assert_eq!(row.split('\t').count(), 25, "bad row {row:?}");
    }
}

/// Without window flags `features` extracts over the log's own span, so
/// `dyn:persistence` is the share of *that* span an originator is
/// active in, not of all of time (where it rounds to zero).
#[test]
fn features_default_window_is_the_logs_span() {
    let log = simulated_log();
    let times: Vec<u64> = std::fs::read_to_string(&log)
        .unwrap()
        .lines()
        .map(|l| l.split('\t').next().unwrap().parse().expect("timestamp column"))
        .collect();
    let (first, last) = (times.iter().min().unwrap(), times.iter().max().unwrap());
    let features = |window: &[&str]| {
        let out = bin()
            .args(["features", "--log", log.to_str().unwrap()])
            .args(window)
            .output()
            .expect("run features");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let default = features(&[]);
    let (start, end) = (first.to_string(), (last + 1).to_string());
    assert_eq!(default, features(&["--window-start", &start, "--window-end", &end]));
    let mut lines = default.lines();
    let column = lines
        .next()
        .and_then(|header| header.split('\t').position(|name| name == "dyn:persistence"))
        .expect("a dyn:persistence column");
    let top: f64 = lines.next().expect("a row").split('\t').nth(column).unwrap().parse().unwrap();
    assert!(top > 0.5, "the busiest originator is active through most of the log: {top}");
}

#[test]
fn capture_round_trip_preserves_log() {
    let log = simulated_log();
    let cap = tmp("cli-jp.bscap");
    let back = tmp("cli-jp-back.tsv");
    let out = bin()
        .args(["capture", "--log", log.to_str().unwrap(), "--out", cap.to_str().unwrap()])
        .output()
        .expect("encode");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["capture", "--capture", cap.to_str().unwrap(), "--out", back.to_str().unwrap()])
        .output()
        .expect("decode");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let a = std::fs::read_to_string(&log).unwrap();
    let b = std::fs::read_to_string(&back).unwrap();
    assert_eq!(a, b, "wire round trip must be lossless");
}

#[test]
fn train_then_classify_with_model() {
    let log = simulated_log();
    let model = tmp("cli-jp.bsf");
    let out = bin()
        .args([
            "train",
            "--log",
            log.to_str().unwrap(),
            "--dataset",
            "JP-ditl",
            "--scale",
            "smoke",
            "--seed",
            "5",
            "--save",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(std::fs::read_to_string(&model).unwrap().starts_with("bs-forest v1"));

    let out = bin()
        .args(["classify", "--log", log.to_str().unwrap(), "--model", model.to_str().unwrap()])
        .output()
        .expect("classify");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("originator\tqueriers\tclass"));
    assert!(stdout.lines().count() > 5, "should classify several originators");
}

#[test]
fn report_contains_sections() {
    let log = simulated_log();
    let out = bin()
        .args([
            "report",
            "--log",
            log.to_str().unwrap(),
            "--dataset",
            "JP-ditl",
            "--scale",
            "smoke",
            "--seed",
            "5",
        ])
        .output()
        .expect("report");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for section in ["situation report", "class mix", "largest originators", "scanner teams"] {
        assert!(stdout.contains(section), "missing {section:?}:\n{stdout}");
    }
}

#[test]
fn classify_with_metrics_writes_snapshot() {
    let log = simulated_log();
    let metrics = tmp("cli-metrics.json");
    // The seed must match `simulated_log()`: the ground-truth oracle is
    // rebuilt from the scenario seed, and a mismatched seed yields an
    // originator set disjoint from the log — an untrainable window with
    // no ml counters to assert on.
    let out = bin()
        .args([
            "classify",
            "--log",
            log.to_str().unwrap(),
            "--dataset",
            "JP-ditl",
            "--scale",
            "smoke",
            "--seed",
            "5",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("classify with metrics");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&metrics).expect("metrics file written");
    // At least one counter from each instrumented layer…
    assert!(json.contains("\"netsim.log.parsed_records\""), "netsim counter missing:\n{json}");
    assert!(json.contains("\"sensor.records\""), "sensor counter missing:\n{json}");
    assert!(json.contains("\"ml.trees_built\""), "ml counter missing:\n{json}");
    // …and the per-stage latency histograms with quantiles.
    for stage in ["core.curate", "core.retrain", "core.classify"] {
        assert!(json.contains(&format!("\"{stage}\"")), "missing histogram {stage}:\n{json}");
    }
    assert!(json.contains("\"count\"") && json.contains("\"p50\"") && json.contains("\"p99\""));
}

#[test]
fn simulate_with_trace_writes_chrome_trace_json() {
    let log = tmp("cli-trace-jp.tsv");
    let trace_out = tmp("cli-trace.json");
    let out = bin()
        .args([
            "simulate",
            "--dataset",
            "JP-ditl",
            "--scale",
            "smoke",
            "--seed",
            "5",
            "--out",
            log.to_str().unwrap(),
            "--trace",
            trace_out.to_str().unwrap(),
        ])
        .output()
        .expect("simulate with trace");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("ledger imbalance"), "conservation violated:\n{stderr}");

    let text = std::fs::read_to_string(&trace_out).expect("trace file written");
    let value = dns_backscatter::telemetry::json::parse(&text).expect("valid Chrome trace JSON");
    let events =
        value.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array present");
    assert!(events.len() > 4, "only {} trace events", events.len());
    assert!(
        events.iter().any(|e| e.get("name").and_then(|v| v.as_str()) == Some("cli.simulate")),
        "root span missing from trace"
    );

    // The inspection subcommand summarizes the same file.
    let out =
        bin().args(["trace", "--file", trace_out.to_str().unwrap()]).output().expect("trace cmd");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("spans by total time"), "no span summary:\n{stdout}");
    assert!(stdout.contains("cli.simulate"), "root span not summarized:\n{stdout}");
}

#[test]
fn trace_command_rejects_non_trace_files() {
    let log = simulated_log();
    let out = bin().args(["trace", "--file", log.to_str().unwrap()]).output().expect("trace cmd");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn stats_documents_the_metric_schema() {
    let out = bin().arg("stats").output().expect("stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--metrics",
        "--trace",
        "netsim.contacts",
        "sensor.records",
        "core.stream.ingest_wait_ns",
        "core.stream.close_wait_ns",
        "BS_LOG",
        "BS_LOG_FORMAT",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?}:\n{stdout}");
    }
    let out = bin().args(["stats", "--format", "json"]).output().expect("stats json");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"counters\""));
}

#[test]
fn missing_file_errors_without_panic() {
    let out =
        bin().args(["features", "--log", "/definitely/not/a/file.tsv"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
}

/// A flag the subcommand does not read is an error that names the flag
/// and the subcommand — a typo must not silently leave a default in
/// force — and so is a flag given twice.
#[test]
fn unknown_and_repeated_flags_are_rejected_by_name() {
    let log = simulated_log();
    let log = log.to_str().unwrap();
    let cases: [(&[&str], &str, &str); 3] = [
        // Misspelt: the threshold would stay at 20 and only the header print.
        (&["features", "--log", log, "--min-querier", "1"], "--min-querier", "features"),
        // Belongs to `stream`, not to `features`.
        (&["features", "--log", log, "--window", "600"], "--window", "features"),
        (&["simulate", "--seed", "1", "--seed", "2"], "--seed", "simulate"),
    ];
    for (args, flag, command) in cases {
        let out = bin().args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not run the command");
        let err = String::from_utf8_lossy(&out.stderr);
        let first = err.lines().next().unwrap_or_default();
        assert!(first.contains(flag) && first.contains(command), "{args:?}: {first:?}");
    }
    // The every-command flags stay valid everywhere.
    let out = bin().args(["stats", "--threads", "1"]).output().expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// A well-formed model of the wrong arity is refused before any output,
/// not discovered by an assertion inside the first prediction.
#[test]
fn classify_rejects_a_model_of_the_wrong_arity() {
    let log = simulated_log();
    let model = tmp("cli-one-feature.bsf");
    let one_feature = "bs-forest v1\nclasses 2\nfeatures 1\nimportances 3ff0000000000000\n\
                       tree 0\nL 0\nend\n";
    std::fs::write(&model, one_feature).unwrap();
    let out = bin()
        .args(["classify", "--log", log.to_str().unwrap(), "--model", model.to_str().unwrap()])
        .output()
        .expect("classify");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "nothing may print before the model is checked");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("model has 1 features, the sensor extracts 22"), "{err}");
}

//! End-to-end tests of the `backscatter` CLI binary.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_backscatter"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bs-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Simulate `dataset` (smoke scale, seed 5) once per test process.
fn simulated(dataset: &str) -> PathBuf {
    static DONE: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let path = tmp(&format!("cli-{dataset}.tsv"));
    let mut done = DONE.lock().unwrap_or_else(|e| e.into_inner());
    if done.contains(dataset) {
        return path;
    }
    let out = bin()
        .args(["simulate", "--dataset", dataset, "--scale", "smoke", "--seed", "5", "--out"])
        .arg(&path)
        .output()
        .expect("run simulate");
    assert!(out.status.success(), "simulate failed: {}", String::from_utf8_lossy(&out.stderr));
    done.insert(dataset.to_string());
    path
}

/// The JP-ditl smoke log most tests here read.
fn simulated_log() -> PathBuf {
    simulated("JP-ditl")
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
    assert!(json.contains("\"sensor.stream.records\""), "sensor counter missing:\n{json}");
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
        "sensor.stream.records",
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

/// FNV-1a (64 bit): pins bytes without a dependency.
fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// `(dataset, output, lines, FNV-1a of its bytes)` of every batch
/// subcommand on the seed-5 smoke logs, recorded at the commit before
/// the batch road became the streaming sensor run for one window. JP-ditl
/// and B-post-ditl are one window each, B-long is eleven.
const PINNED: &[(&str, &str, usize, u64)] = &[
    ("JP-ditl", "features", 42, 0x5680f15f12c310f8),
    ("JP-ditl", "features-window", 44, 0x54e5db6c3af3ada7),
    ("JP-ditl", "classify", 44, 0x0597377a7abe8f70),
    ("JP-ditl", "train", 2001, 0x3fbcd5e3bb31a6dd),
    ("JP-ditl", "classify-model", 44, 0xdcd0a79bb5c791f0),
    ("JP-ditl", "report", 35, 0x40f903368fdc91ba),
    ("B-post-ditl", "features", 43, 0x4c2781a66d40835a),
    ("B-post-ditl", "features-window", 54, 0xcd16c789387a661c),
    ("B-post-ditl", "classify", 52, 0x85df972cde571d98),
    ("B-post-ditl", "train", 2547, 0xd4c4ce3395f573c1),
    ("B-post-ditl", "classify-model", 52, 0xa307347f5e4e3736),
    ("B-post-ditl", "report", 33, 0x8d2a55e53c58df71),
    ("B-long", "features", 32, 0xc50f2fa8074180f6),
    ("B-long", "features-window", 22, 0xcc8867266bbfc324),
    ("B-long", "classify", 185, 0x8ae548dba4757c50),
    ("B-long", "train", 1009, 0x04013d9ec0fe461e),
    ("B-long", "classify-model", 34, 0xdf6f8b0819dddb4e),
    ("B-long", "report", 41, 0xfb8589185b5c3850),
];

/// The batch subcommands print — and `train --save` writes — the bytes
/// pinned above, at one thread and at the default width. A refactor of
/// the road behind them is checked here, byte for byte; a change that
/// is meant to move them re-pins from the table this prints on failure.
#[test]
fn batch_subcommands_print_the_pinned_bytes() {
    let mut got: Vec<(&str, &str, usize, u64)> = Vec::new();
    for dataset in ["JP-ditl", "B-post-ditl", "B-long"] {
        let log = simulated(dataset);
        let log = log.to_str().unwrap();
        let scenario = ["--log", log, "--dataset", dataset, "--scale", "smoke", "--seed", "5"];
        let [mut one_thread, default_width] = [Some("1"), None].map(|threads| {
            let run = |args: &[&str]| {
                let mut cmd = bin();
                match threads {
                    Some(n) => cmd.env("BS_THREADS", n),
                    None => cmd.env_remove("BS_THREADS"),
                };
                let out = cmd.args(args).output().expect("run");
                assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
                out.stdout
            };
            let model = tmp(&format!("pin-{dataset}-{}.bsf", threads.unwrap_or("default")));
            let model = model.to_str().unwrap();
            run(&[&["train", "--save", model], &scenario[..]].concat());
            let window = ["--min-queriers", "5", "--window-start", "3600", "--window-end", "90000"];
            let outputs = [
                ("features", run(&["features", "--log", log])),
                ("features-window", run(&[&["features", "--log", log], &window[..]].concat())),
                ("classify", run(&[&["classify"], &scenario[..]].concat())),
                ("train", std::fs::read(model).expect("model written")),
                ("classify-model", run(&["classify", "--log", log, "--model", model])),
                ("report", run(&[&["report"], &scenario[..]].concat())),
            ];
            outputs
                .map(|(name, bytes)| {
                    (dataset, name, bytes.split(|b| *b == b'\n').count() - 1, digest(&bytes))
                })
                .to_vec()
        });
        assert_eq!(one_thread, default_width, "BS_THREADS=1 and the default width disagree");
        got.append(&mut one_thread);
    }
    let table: String =
        got.iter().map(|(d, o, n, h)| format!("    ({d:?}, {o:?}, {n}, {h:#018x}),\n")).collect();
    assert!(got == PINNED, "outputs moved; what this build prints:\n{table}");
}

/// `classify` senses each window once — one `sensor.stream` close and
/// one `sensor.extract` for JP-ditl's single window, which curation and
/// classification share — and the ledger balances on every road the
/// sensor is reached by.
#[test]
fn each_window_is_sensed_once_and_the_ledger_balances() {
    let log = simulated_log();
    let log = log.to_str().unwrap();
    let metrics = tmp("cli-once-metrics.json");
    let scenario = ["--log", log, "--dataset", "JP-ditl", "--scale", "smoke", "--seed", "5"];
    let stream = ["stream", "--log", log, "--window", "600", "--extract", "1"];
    for command in [
        &[&["classify"], &scenario[..]].concat(),
        &[&["report"], &scenario[..]].concat(),
        &stream[..],
    ] {
        let out = bin()
            .args(command)
            .args(["--metrics", metrics.to_str().unwrap()])
            .args(["--trace", tmp("cli-once-trace.json").to_str().unwrap()])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command:?}: {stderr}");
        assert!(!stderr.contains("ledger imbalance"), "{command:?}: {stderr}");
        if command[0] == "classify" {
            let json = std::fs::read_to_string(&metrics).expect("metrics file written");
            let snapshot = dns_backscatter::telemetry::json::parse(&json).expect("metrics JSON");
            for stage in ["sensor.stream", "sensor.extract"] {
                let closes = snapshot
                    .get("histograms")
                    .and_then(|h| h.get(stage))
                    .and_then(|h| h.get("count"))
                    .and_then(|c| c.as_f64());
                assert_eq!(closes, Some(1.0), "{stage} calls for one window:\n{json}");
            }
        }
    }
}

/// Window values that make no window — inverted, empty, ending at the
/// clock's limit, or taken from a log with nothing in it — print the
/// header and no rows; none reaches the sensor's assertions.
#[test]
fn hostile_window_values_print_the_header_and_no_rows() {
    let log = simulated_log();
    let log = log.to_str().unwrap();
    let empty = tmp("cli-empty.tsv");
    std::fs::write(&empty, "").unwrap();
    let empty = empty.to_str().unwrap();
    let far = u64::MAX.to_string();
    let cases: [&[&str]; 5] = [
        &["--log", log, "--window-start", "10", "--window-end", "5"],
        &["--log", log, "--window-start", "7", "--window-end", "7"],
        &["--log", log, "--window-start", &far, "--window-end", &far],
        &["--log", empty],
        &["--log", empty, "--window-end", &far],
    ];
    for args in cases {
        let out = bin().arg("features").args(args).output().expect("run features");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("originator\tqueriers\tqueries\t"), "{args:?}: {stdout}");
        assert_eq!(stdout.lines().count(), 1, "{args:?} must print no rows:\n{stdout}");
    }
    // A window that ends at the clock's limit is still a window.
    let out = bin()
        .args(["features", "--log", log, "--window-end", &far])
        .output()
        .expect("run features");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).lines().count() > 1, "rows expected");
}

/// A tracked table of zero originators is refused by name before the
/// sensor starts, not by an assertion on its thread.
#[test]
fn stream_rejects_a_zero_originator_table() {
    let log = simulated_log();
    let out = bin()
        .args(["stream", "--log", log.to_str().unwrap(), "--max-originators", "0"])
        .output()
        .expect("run stream");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("bad --max-originators 0 (at least 1)"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// A zero-second window is refused by name, not run as one-second
/// windows, and nothing reaches stdout.
#[test]
fn stream_rejects_a_zero_second_window() {
    let log = simulated_log();
    let out = bin()
        .args(["stream", "--log", log.to_str().unwrap(), "--window", "0"])
        .output()
        .expect("run stream");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("bad --window 0 (at least 1 second)"), "{err}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

/// `stream` with a five-originator table evicts in every window of the
/// JP-ditl smoke log: its stdout is pinned (lines, FNV-1a) at one
/// thread and at the default width, and the ledger balances. Pinned on
/// the time-ordered log `simulate` writes: ordering it moved only the
/// summary's late count (to 0) and the `qmeta cache:` line, since the
/// records that used to arrive late are now queried in their window.
#[test]
fn stream_under_eviction_prints_the_pinned_bytes() {
    let log = simulated_log();
    let args = ["stream", "--log", log.to_str().unwrap(), "--window", "600"];
    let args = [&args[..], &["--max-originators", "5", "--extract", "1"]].concat();
    for threads in [Some("1"), None] {
        let mut cmd = bin();
        match threads {
            Some(n) => cmd.env("BS_THREADS", n),
            None => cmd.env_remove("BS_THREADS"),
        };
        let out = cmd
            .args(&args)
            .args(["--trace", tmp("cli-evict-trace.json").to_str().unwrap()])
            .output()
            .expect("run stream");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{threads:?}: {stderr}");
        assert!(!stderr.contains("ledger imbalance"), "{threads:?}: {stderr}");
        let lines = out.stdout.split(|b| *b == b'\n').count() - 1;
        let got = (lines, digest(&out.stdout));
        assert_eq!(got, (302, 0xfc9a_b74a_002c_93a5), "{threads:?}: {got:#x?}");
    }
}

/// `simulate` writes its log in time order, and `stream` keeps arrival
/// order: on a copy with `k` records moved behind their window exactly
/// those `k` arrive late, and the summary line says they were dropped,
/// as `sensor.stream.out_of_order` does in `--metrics`.
#[test]
fn stream_reports_the_late_records_it_dropped() {
    let late_in = |log: &Path, metrics: Option<&Path>| -> u64 {
        let mut cmd = bin();
        cmd.args(["stream", "--log", log.to_str().unwrap(), "--window", "600"]);
        if let Some(metrics) = metrics {
            cmd.args(["--metrics", metrics.to_str().unwrap()]);
        }
        let out = cmd.output().expect("run stream");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let summary = stdout.lines().last().expect("a summary line");
        summary
            .strip_suffix(" late")
            .and_then(|s| s.rsplit(", ").next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no late count in {summary:?}"))
    };
    let log = simulated_log();
    assert_eq!(late_in(&log, None), 0, "the simulated log is in time order");

    // The first k records, from the log's first window, moved to its end.
    let k = 7;
    let text = std::fs::read_to_string(&log).expect("read the simulated log");
    let lines: Vec<&str> = text.lines().collect();
    let moved = [&lines[k..], &lines[..k]].concat().join("\n") + "\n";
    let shuffled = tmp("cli-late.tsv");
    std::fs::write(&shuffled, moved).expect("write the reordered log");
    let metrics = tmp("cli-late-metrics.json");
    assert_eq!(late_in(&shuffled, Some(&metrics)), k as u64);
    let json = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(json.contains(&format!("\"sensor.stream.out_of_order\": {k}")), "{json}");
}

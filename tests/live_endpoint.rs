//! End-to-end test of the bs-live scrape endpoint: a long-running
//! `backscatter stream --serve` process must answer `/metrics`,
//! `/snapshot`, and `/health` while ingesting, and the live snapshot's
//! windowed totals must agree with the post-hoc `--metrics` registry
//! snapshot the process writes at exit.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use dns_backscatter::live::{http_get, Signal, Watchdog};
use dns_backscatter::telemetry::json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_backscatter"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bs-live-endpoint-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Simulate once for the whole test file (smoke scale, ~seconds).
fn simulated_log() -> PathBuf {
    let path = tmp("live-jp.tsv");
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

/// Every line of a Prometheus text exposition is a comment or
/// `name[{labels}] value` with a conforming metric name and a numeric
/// value.
fn assert_prometheus_conformant(body: &str) {
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("no value on line {line:?}"));
        let name = name_part.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name on line {line:?}"
        );
        assert!(value.parse::<f64>().is_ok(), "non-numeric value on line {line:?}");
    }
}

#[test]
fn stream_serve_answers_scrapes_while_ingesting() {
    let log = simulated_log();
    let records = std::fs::read_to_string(&log).unwrap().lines().count() as u64;
    assert!(records > 0, "simulated log is empty");
    // Pace the replay to ~2 s of wall clock so the endpoint is
    // observably up *during* ingest, then linger long enough for the
    // post-ingest scrape below.
    let pace = (records / 2).max(500).to_string();
    let metrics_path = tmp("live-final-metrics.json");
    let _ = std::fs::remove_file(&metrics_path);

    let mut child = bin()
        .args([
            "stream",
            "--log",
            log.to_str().unwrap(),
            "--window",
            "600",
            "--pace",
            &pace,
            "--serve",
            "127.0.0.1:0",
            "--linger",
            "3",
            "--metrics",
            metrics_path.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stream --serve");

    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();

    // The binary announces the ephemeral port before ingest starts.
    let addr: SocketAddr = loop {
        let line = lines
            .next()
            .expect("stdout closed before the listening line")
            .expect("read child stdout");
        if let Some(rest) = line.strip_prefix("live: listening on ") {
            break rest.trim().parse().expect("parse bound address");
        }
    };

    // Mid-ingest: all routes answer while records are still flowing.
    let (code, health) = http_get(addr, "/health").expect("scrape /health");
    assert_eq!(code, 200, "/health during ingest: {health}");
    json::parse(&health).expect("/health is valid JSON");

    let (code, prom) = http_get(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(code, 200);
    assert_prometheus_conformant(&prom);
    assert!(prom.contains("live_ticks"), "live sampler gauges missing:\n{prom}");

    let (code, body) = http_get(addr, "/snapshot").expect("scrape /snapshot");
    assert_eq!(code, 200);
    json::parse(&body).expect("/snapshot is valid JSON (escaping holds)");

    // Drain stdout until ingest finishes (the summary line), then
    // scrape again inside the linger window: this sample is forced
    // after the final record, so its totals are the registry's finals.
    let mut summary_line = None;
    for line in lines.by_ref() {
        let line = line.expect("read child stdout");
        if line.starts_with("stream: ") {
            summary_line = Some(line);
            break;
        }
    }
    let summary_line = summary_line.expect("no stream summary line");
    assert!(
        summary_line.contains(&format!("{records} records")),
        "summary {summary_line:?} does not account for all {records} records"
    );

    let (code, body) = http_get(addr, "/snapshot").expect("scrape /snapshot post-ingest");
    assert_eq!(code, 200);
    let snap = json::parse(&body).expect("/snapshot is valid JSON");
    assert_eq!(snap.get("health").and_then(|h| h.as_str()), Some("ok"));
    let live_records = snap
        .get("rates")
        .and_then(|r| r.get("sensor.stream.records"))
        .and_then(|c| c.get("total"))
        .and_then(|t| t.as_f64())
        .expect("snapshot rates carry sensor.stream.records") as u64;
    assert_eq!(live_records, records, "live total disagrees with the record count");

    // Let the linger expire, then reconcile against the post-hoc
    // registry snapshot the process wrote on its way out.
    let status = child.wait().expect("wait for child");
    assert!(status.success(), "stream exited with {status}");
    let final_json = std::fs::read_to_string(&metrics_path).expect("read --metrics output");
    let final_snap = json::parse(&final_json).expect("--metrics output is valid JSON");
    let final_records = final_snap
        .get("counters")
        .and_then(|c| c.get("sensor.stream.records"))
        .and_then(|v| v.as_f64())
        .expect("final registry has sensor.stream.records") as u64;
    assert_eq!(
        live_records, final_records,
        "live snapshot total must match the post-hoc registry snapshot"
    );

    // Quantiles served live must be internally consistent wherever a
    // histogram got recorded.
    if let Some(hists) = snap.get("registry").and_then(|r| r.get("histograms")) {
        if let Some(pairs) = hists.as_object() {
            for (name, h) in pairs {
                let q = |k: &str| h.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
                assert!(
                    q("p50") <= q("p90") && q("p90") <= q("p99") && q("p99") <= q("max"),
                    "histogram {name} quantiles out of order: {h:?}"
                );
            }
        }
    }
}

/// Every rule `/health` lists watches series the binary publishes: a
/// rule over a series nothing sets reads 0 forever.
#[test]
fn every_watchdog_rule_watches_a_published_series() {
    // A storm: seven records moved behind their window arrive late, and
    // a table of five originators makes the sensor evict and reset
    // probation.
    let text = std::fs::read_to_string(simulated_log()).expect("read the simulated log");
    let lines: Vec<&str> = text.lines().collect();
    let log = tmp("live-late.tsv");
    std::fs::write(&log, [&lines[7..], &lines[..7]].concat().join("\n") + "\n")
        .expect("write the reordered log");
    assert_every_rule_watches_a_published_series("storm", &log, &["--max-originators", "5"]);
    // A calm run: the log in time order at the default table size, so
    // nothing is late and nothing is evicted. A watched counter that
    // never moved must read 0, not be missing.
    assert_every_rule_watches_a_published_series("calm", &simulated_log(), &[]);
}

/// Run `stream --serve` over `log` with `args`, scrape `/health` and
/// `/snapshot` once the last record is in, and check that every series
/// a default rule watches is in the registry.
fn assert_every_rule_watches_a_published_series(run: &str, log: &Path, args: &[&str]) {
    let mut child = bin()
        .args(["stream", "--log", log.to_str().unwrap(), "--window", "600"])
        .args(args)
        .args(["--serve", "127.0.0.1:0", "--linger", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stream --serve");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut addr: Option<SocketAddr> = None;
    // The listening line comes first; the summary line follows the
    // sample forced after the final record.
    for line in lines.by_ref() {
        let line = line.expect("read child stdout");
        if let Some(rest) = line.strip_prefix("live: listening on ") {
            addr = Some(rest.trim().parse().expect("parse bound address"));
        }
        if line.starts_with("stream: ") {
            break;
        }
    }
    let addr = addr.expect("no listening line");
    let (_, health) = http_get(addr, "/health").expect("scrape /health");
    let (_, snap) = http_get(addr, "/snapshot").expect("scrape /snapshot");
    assert!(child.wait().expect("wait for child").success());

    let health = json::parse(&health).expect("/health is valid JSON");
    let snap = json::parse(&snap).expect("/snapshot is valid JSON");
    let registry = snap.get("registry").expect("/snapshot embeds the registry");
    let defaults = Watchdog::default_rules();
    let listed = health.get("rules").and_then(|r| r.as_array()).expect("/health lists rules");
    assert_eq!(listed.len(), defaults.len());
    for listed in listed {
        let name = listed.get("rule").and_then(|n| n.as_str()).expect("rule name");
        let rule = defaults.iter().find(|r| r.name == name).expect("a default rule");
        let series = match &rule.signal {
            Signal::CounterRate { name, .. } => vec![("counters", name)],
            Signal::RateRatio { numerator, denominator, .. } => {
                vec![("counters", numerator), ("counters", denominator)]
            }
            Signal::GaugeValue { name } => vec![("gauges", name)],
        };
        for (kind, series) in series {
            assert!(
                registry.get(kind).and_then(|m| m.get(series)).is_some(),
                "{run}: rule {name} watches {kind} {series}, which the binary never publishes"
            );
        }
    }
}

#[test]
fn stats_watch_renders_a_live_rate_table() {
    let log = simulated_log();
    let mut child = bin()
        .args([
            "stream",
            "--log",
            log.to_str().unwrap(),
            "--window",
            "600",
            "--serve",
            "127.0.0.1:0",
            "--linger",
            "4",
            "--profile",
            tmp("live-watch.folded").to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stream --serve");

    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("stdout closed early").expect("read stdout");
        if let Some(rest) = line.strip_prefix("live: listening on ") {
            break rest.trim().to_string();
        }
    };

    let watch = bin()
        .args(["stats", "--watch", &addr, "--iterations", "2", "--interval-ms", "50"])
        .output()
        .expect("run stats --watch");
    assert!(
        watch.status.success(),
        "stats --watch failed: {}",
        String::from_utf8_lossy(&watch.stderr)
    );
    let text = String::from_utf8_lossy(&watch.stdout);
    assert!(text.contains("health="), "no health line:\n{text}");
    assert!(text.contains("counter"), "no rate table header:\n{text}");
    assert_eq!(text.matches("health=").count(), 2, "expected one header per iteration:\n{text}");

    // The profile is exact, so once ingest is over (the summary line)
    // the live routes hold every stage it closed: no tick to wait for.
    assert!(
        lines.by_ref().any(|l| l.expect("read stdout").starts_with("stream: ")),
        "no stream summary line"
    );
    let stats = |args: &[&str]| {
        let out = bin().arg("stats").args(args).output().expect("run stats");
        assert!(out.status.success(), "stats {args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let flame = stats(&["--fetch", &addr, "--path", "/profile/flame"]);
    assert!(flame.lines().any(|l| l.starts_with("cli.stream;core.stream;")), "got:\n{flame}");
    let top = stats(&["--top", &addr, "--iterations", "1"]);
    assert!(top.starts_with("profiler: ") && top.contains("sensor.stream"), "got:\n{top}");

    let _ = child.kill();
    let _ = child.wait();
}

//! `backscatter` — command-line front end for the dns-backscatter
//! system.
//!
//! ```text
//! backscatter simulate --dataset JP-ditl --scale smoke --seed 7 --out jp.tsv
//! backscatter features --log jp.tsv [--min-queriers 20]
//! backscatter classify --log jp.tsv --dataset JP-ditl --scale smoke --seed 7
//! backscatter capture  --log jp.tsv --out jp.bscap      # TSV → packet capture
//! backscatter capture  --log jp.bscap --out jp.tsv      # packet capture → TSV
//! backscatter stream   --log jp.bscap --model jp.bsf    # per-window verdicts
//! ```
//!
//! Every `--log` is read by its bytes: a BSCAP1 packet capture or a TSV
//! query log. The world is deterministic per seed, so `classify` can
//! re-derive the generating scenario (for label curation) from the same
//! dataset, scale, and seed that produced the log.

use dns_backscatter::classify::pipeline::feature_map;
use dns_backscatter::classify::TrainedClassifier;
use dns_backscatter::ml::Forest;
use dns_backscatter::netsim::capture::{self, read_capture, write_capture};
use dns_backscatter::netsim::log::QueryLog;
use dns_backscatter::prelude::*;
use dns_backscatter::sensor::ingest::MIN_QUERIERS;
use dns_backscatter::sensor::StreamConfig;
use dns_backscatter::telemetry;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Counting allocator so `--profile` attributes allocation pressure to
/// pipeline stages. One relaxed load per allocation while profiling is
/// off.
#[global_allocator]
static ALLOC: telemetry::prof::CountingAlloc = telemetry::prof::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage();
        return ExitCode::from(2);
    };
    let Some(&(_, root_span, known)) = COMMANDS.iter().find(|c| c.0 == command) else {
        eprintln!("error: unknown command {command:?}");
        usage();
        return ExitCode::from(2);
    };
    let flags = match parse_flags(command, known, rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    // --threads N works on every subcommand: size the bs-par pool
    // before any parallel region starts (0 or absent = BS_THREADS env,
    // else all available cores).
    if let Some(t) = flags.get("threads") {
        match t.parse::<usize>() {
            Ok(n) => dns_backscatter::par::set_threads(n),
            Err(_) => {
                eprintln!("error: --threads expects a number, got {t:?}");
                return ExitCode::from(2);
            }
        }
    }
    // --metrics <path> works on every subcommand: enable the registry
    // up front, snapshot to the path on success.
    let metrics_path = flags.get("metrics").cloned();
    if metrics_path.is_some() {
        telemetry::enable();
    }
    // --trace <path> works on every subcommand: start the flight
    // recorder up front, write Chrome trace JSON on success. The panic
    // hook dumps the span tree to stderr if the run dies instead.
    let trace_path = flags.get("trace").cloned();
    if trace_path.is_some() {
        telemetry::trace::enable();
        telemetry::trace::install_panic_hook();
    }
    // --profile <path> works on every subcommand: every stage files
    // its exact wall time by path and by window; the folded flamegraph
    // is written to the path and the ranked stages, per-stage
    // ns-per-record costs and allocation pressure print on exit, and a
    // --serve endpoint exposes the same numbers live at /profile/*
    // while the command runs.
    let profile_path = flags.get("profile").cloned();
    if profile_path.is_some() {
        telemetry::prof::enable();
    }
    // --serve <addr> works on every subcommand: start the bs-live
    // stack (registry sampler + HTTP scrape endpoint + health
    // watchdog) before the command runs and keep it up until exit.
    // The bound address is printed so `--serve 127.0.0.1:0` callers
    // can discover the ephemeral port.
    let live_handle = match flags.get("serve") {
        Some(addr) => match dns_backscatter::live::serve(addr) {
            Ok(h) => {
                println!("live: listening on {}", h.addr());
                telemetry::info!(
                    "cli",
                    "live endpoint up";
                    addr = h.addr(),
                    routes =
                        "/metrics /snapshot /health /trace/summary /buildinfo /profile/*",
                );
                Some(h)
            }
            Err(e) => {
                eprintln!("error: --serve {addr}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let result = {
        // Root of the causal span tree (inert without --trace); must
        // drop before the export drains the recorder.
        let _root = telemetry::stage(root_span);
        match command.as_str() {
            "simulate" => cmd_simulate(&flags),
            "features" => cmd_features(&flags),
            "classify" => cmd_classify(&flags),
            "train" => cmd_train(&flags),
            "report" => cmd_report(&flags),
            "capture" => cmd_capture(&flags),
            "stream" => cmd_stream(&flags, live_handle.as_ref()),
            "stats" => cmd_stats(&flags),
            "trace" => cmd_trace(&flags),
            "help" | "--help" | "-h" => {
                usage();
                Ok(())
            }
            other => unreachable!("{other:?} is in COMMANDS and has no handler"),
        }
    };
    let result = result.and_then(|()| {
        if let Some(path) = metrics_path {
            let json = telemetry::snapshot_json();
            std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
            telemetry::info!("cli", "wrote metrics snapshot"; path = path);
        }
        if let Some(path) = trace_path {
            use telemetry::ledger;
            let events = telemetry::trace::drain();
            let json = telemetry::trace::chrome_trace_json(&events);
            std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
            for imb in ledger::verify() {
                let win = match imb.window {
                    ledger::NO_WINDOW => "-".to_string(),
                    w => w.to_string(),
                };
                telemetry::warn!(
                    "cli",
                    "ledger imbalance at {} (window {win}): {} in, {} accounted",
                    imb.stage,
                    imb.records_in,
                    imb.accounted
                );
            }
            telemetry::info!(
                "cli",
                "wrote trace";
                path = path,
                events = events.len(),
                dropped = telemetry::trace::dropped(),
            );
        }
        Ok(())
    });
    // The profile exit summary: the folded flamegraph to its file,
    // then ranked stages by self time, the ledger's ns-per-record cost
    // table and allocation pressure by stage. Written even when the
    // command failed — what ran was still timed and often explains the
    // failure.
    let result = match profile_path {
        None => result,
        Some(path) => {
            telemetry::prof::disable();
            let written = std::fs::write(&path, telemetry::prof::folded())
                .map_err(|e| format!("write {path}: {e}"));
            println!("\n=== profile (top stages by self time) ===");
            print!("{}", telemetry::prof::top_table());
            println!("\n=== per-stage cost (ns per record) ===");
            print!("{}", telemetry::ledger::cost_table());
            println!("\n=== allocation pressure by stage ===");
            print!("{}", telemetry::prof::alloc_table());
            result.and(written)
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `backscatter trace`: inspect a Chrome trace JSON file written by
/// `--trace` — event phases, lanes, and the hottest spans.
fn cmd_trace(flags: &Flags) -> Result<(), String> {
    let path = flags.get("file").ok_or("--file is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value = telemetry::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("no traceEvents array — not a --trace output?")?;

    let mut lanes: BTreeMap<u64, String> = BTreeMap::new();
    let mut phases: BTreeMap<String, u64> = BTreeMap::new();
    // Span name → (end count, summed dur_us) from span-end events.
    let mut spans: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).unwrap_or("?");
        *phases.entry(ph.to_string()).or_insert(0) += 1;
        let tid = e.get("tid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        if ph == "M" {
            if e.get("name").and_then(|v| v.as_str()) == Some("thread_name") {
                if let Some(n) = e.get("args").and_then(|a| a.get("name")).and_then(|v| v.as_str())
                {
                    lanes.insert(tid, n.to_string());
                }
            }
            continue;
        }
        lanes.entry(tid).or_insert_with(|| format!("lane-{tid}"));
        if ph == "E" {
            if let Some(name) = e.get("name").and_then(|v| v.as_str()) {
                let dur = e
                    .get("args")
                    .and_then(|a| a.get("dur_us"))
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0) as u64;
                let s = spans.entry(name.to_string()).or_insert((0, 0));
                s.0 += 1;
                s.1 += dur;
            }
        }
    }

    println!("{path}: {} events", events.len());
    let ph_counts: Vec<String> = phases.iter().map(|(k, v)| format!("{v} {k}")).collect();
    println!("phases: {}", ph_counts.join(", "));
    println!("lanes:");
    for (tid, name) in &lanes {
        println!("  {tid:>4}  {name}");
    }
    let mut hottest: Vec<(&String, &(u64, u64))> = spans.iter().collect();
    hottest.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(b.0)));
    println!("spans by total time:");
    for (name, (count, total_us)) in hottest.iter().take(15) {
        println!("  {total_us:>10} us  {count:>6}x  {name}");
    }
    Ok(())
}

/// `backscatter stream`: replay a query log through the streaming
/// sensor as a long-running process — optionally paced to a target
/// records/second — with the bs-live observability stack attached via
/// the global `--serve` flag. With `--model` it is the road from capture
/// bytes to verdicts: every window is extracted and its analyzable
/// originators classified as the window closes.
fn cmd_stream(
    flags: &Flags,
    live: Option<&dns_backscatter::live::LiveHandle>,
) -> Result<(), String> {
    // Checked before anything prints: a model of the wrong arity would
    // otherwise fail inside the first window's prediction.
    let model = flags.get("model").map(|path| load_model(path)).transpose()?;
    let (log, _) = load_log(flags)?;
    let window_secs: u64 = match flags.get("window") {
        None => 3600,
        Some(s) => match s.parse() {
            Ok(0) => return Err("bad --window 0 (at least 1 second)".into()),
            Ok(n) => n,
            Err(_) => return Err(format!("bad --window {s:?} (seconds)")),
        },
    };
    let max_originators: usize = match flags.get("max-originators") {
        None => StreamConfig::default().max_originators,
        Some(s) => match s.parse() {
            Ok(0) => return Err("bad --max-originators 0 (at least 1)".into()),
            Ok(n) => n,
            Err(_) => return Err(format!("bad --max-originators {s:?}")),
        },
    };
    let pace_rps: u64 = match flags.get("pace") {
        None => 0,
        Some(s) => {
            s.parse().map_err(|_| format!("bad --pace {s:?} (records/sec, 0 = flat out)"))?
        }
    };
    // --extract N: run per-window feature extraction (analyzability
    // threshold N unique queriers) through the cross-window querier
    // metadata cache — the online-serving posture. A model needs the
    // features, so it extracts at the sensor's default threshold.
    let extract: Option<usize> = match flags.get("extract") {
        Some(s) => {
            Some(s.parse().map_err(|_| format!("bad --extract {s:?} (min unique queriers)"))?)
        }
        None => model.is_some().then_some(MIN_QUERIERS),
    };
    let config = StreamConfig {
        window: SimDuration::from_secs(window_secs),
        max_originators,
        ..StreamConfig::default()
    };
    // The live view is useless without a recording registry; --serve
    // already enabled it, but `stream` records even when run bare so
    // --metrics output is always populated.
    telemetry::enable();
    let stats = match extract {
        None => dns_backscatter::stream::run_live_stream(
            log.records(),
            config,
            0,
            live,
            pace_rps,
            |w| {
                println!(
                    "window [{}s, {}s): {} originators, {} evicted",
                    w.window.0.secs(),
                    w.window.1.secs(),
                    w.observations.originator_count(),
                    w.evicted,
                );
            },
        ),
        Some(min_queriers) => {
            if model.is_some() {
                println!("window\toriginator\tqueriers\tclass");
            }
            let world = World::new(WorldConfig::default());
            let feature_config = FeatureConfig { min_queriers, top_n: None };
            let mut cache = dns_backscatter::sensor::QuerierMetaCache::default();
            let stats = dns_backscatter::stream::run_live_stream_extracting(
                log.records(),
                config,
                0,
                live,
                pace_rps,
                &world,
                &feature_config,
                &mut cache,
                |w, features| {
                    println!(
                        "window [{}s, {}s): {} originators, {} evicted, {} analyzable",
                        w.window.0.secs(),
                        w.window.1.secs(),
                        w.observations.originator_count(),
                        w.evicted,
                        features.len(),
                    );
                    if let Some(model) = &model {
                        let verdicts = model.classify_all(&feature_map(features));
                        for f in features {
                            let class = verdicts[&f.originator];
                            println!(
                                "{}\t{}\t{}\t{class}",
                                w.window.0.secs(),
                                f.originator,
                                f.querier_count
                            );
                        }
                    }
                },
            );
            println!(
                "qmeta cache: {} hits, {} misses, {} expired at the keep horizon, {} entries held",
                cache.hits(),
                cache.misses(),
                cache.expired(),
                cache.len(),
            );
            stats
        }
    };
    // Records behind their window are dropped, not reordered; say how
    // many, so a log that is not in time order cannot lose them quietly.
    let late = telemetry::registry().counter("sensor.stream.out_of_order").get();
    println!(
        "stream: {} records in {} windows, {} evicted, {late} late",
        stats.records, stats.windows, stats.evicted
    );
    if let Some(linger) = flags.get("linger") {
        let secs: u64 = linger.parse().map_err(|_| format!("bad --linger {linger:?} (seconds)"))?;
        if live.is_some() {
            println!("lingering {secs}s (scrape endpoint stays up)…");
        }
        std::thread::sleep(Duration::from_secs(secs));
    }
    Ok(())
}

/// A saved `bs-forest v1` model that reads the sensor's features.
fn load_model(path: &str) -> Result<TrainedClassifier, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let forest = Forest::from_text(&text).map_err(|e| format!("parse {path}: {e}"))?;
    TrainedClassifier::try_from(forest)
}

/// `backscatter stats --watch|--top <addr>`: GET `route` from `target`
/// (the value of `--<flag>`) every `--interval-ms` (default 1000) for
/// `--iterations` rounds (0 polls forever), rendering each answer with
/// `render`, a blank line between rounds.
fn cmd_stats_poll(
    flags: &Flags,
    (flag, target): (&str, &str),
    route: &str,
    default_iterations: u64,
    render: fn(&telemetry::json::Value),
) -> Result<(), String> {
    let addr: std::net::SocketAddr =
        target.parse().map_err(|_| format!("bad --{flag} address {target:?} (ip:port)"))?;
    let iterations: u64 = match flags.get("iterations") {
        None => default_iterations,
        Some(s) => s.parse().map_err(|_| format!("bad --iterations {s:?}"))?,
    };
    let interval_ms: u64 = match flags.get("interval-ms") {
        None => 1000,
        Some(s) => s.parse().map_err(|_| format!("bad --interval-ms {s:?}"))?,
    };
    let mut done = 0u64;
    loop {
        let (code, body) = dns_backscatter::live::http_get(addr, route)
            .map_err(|e| format!("scrape {addr}: {e}"))?;
        if code != 200 {
            return Err(format!("{addr}{route} answered HTTP {code}"));
        }
        let v = telemetry::json::parse(&body)
            .map_err(|e| format!("bad {route} JSON from {addr}: {e}"))?;
        render(&v);
        done += 1;
        if iterations > 0 && done >= iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
        println!();
    }
}

/// `stats --watch`: a `/snapshot` as a rate table, busiest counter first.
fn render_rates(v: &telemetry::json::Value) {
    let health = v.get("health").and_then(|h| h.as_str()).unwrap_or("?");
    let ticks = v.get("ticks").and_then(|t| t.as_f64()).unwrap_or(0.0);
    let mut rates: Vec<(String, f64, f64, f64)> = v
        .get("rates")
        .and_then(|r| r.as_object())
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(name, rv)| {
                    Some((
                        name.clone(),
                        rv.get("r10s")?.as_f64()?,
                        rv.get("ewma")?.as_f64()?,
                        rv.get("total")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    rates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
    });
    println!("health={health} ticks={ticks:.0} counters={}", rates.len());
    println!("  {:>12}  {:>12}  {:>12}  counter", "r10s/s", "ewma/s", "total");
    for (name, r10, ewma, total) in rates.iter().take(12) {
        println!("  {r10:>12.1}  {ewma:>12.1}  {total:>12.0}  {name}");
    }
}

/// `stats --top`: a `/profile/top` as the profiler's ranked-stage view.
fn render_top(v: &telemetry::json::Value) {
    let stages = v.get("stages").and_then(|s| s.as_array()).unwrap_or(&[]);
    let num =
        |st: &telemetry::json::Value, k: &str| st.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let all_self: f64 = stages.iter().map(|st| num(st, "self_ns")).sum();
    println!("profiler: {} stages, {:.1} ms of self time", stages.len(), all_self / 1e6);
    println!("  {:>14}  {:>14}  {:>8}  {:>6}  stage", "self ns", "total ns", "calls", "self%");
    for st in stages.iter().take(15) {
        let name = st.get("stage").and_then(|n| n.as_str()).unwrap_or("?");
        let (self_ns, total_ns, calls) =
            (num(st, "self_ns"), num(st, "total_ns"), num(st, "calls"));
        let pct = if all_self > 0.0 { self_ns * 100.0 / all_self } else { 0.0 };
        println!("  {self_ns:>14.0}  {total_ns:>14.0}  {calls:>8.0}  {pct:>5.1}%  {name}");
    }
}

/// `backscatter stats --fetch <addr> [--path /route]`: one raw GET
/// against a live endpoint, body to stdout. The machine-readable
/// escape hatch CI smokes use to pull /profile/flame and friends
/// without a shell HTTP client.
fn cmd_stats_fetch(flags: &Flags, target: &str) -> Result<(), String> {
    let addr: std::net::SocketAddr =
        target.parse().map_err(|_| format!("bad --fetch address {target:?} (ip:port)"))?;
    let path = flags.get("path").map(String::as_str).unwrap_or("/snapshot");
    let (code, body) = dns_backscatter::live::http_get(addr, path)
        .map_err(|e| format!("fetch {addr}{path}: {e}"))?;
    if code != 200 {
        return Err(format!("{addr}{path} answered HTTP {code}"));
    }
    print!("{body}");
    Ok(())
}

/// `backscatter stats`: follow a `--serve` endpoint, or describe the
/// telemetry surface.
fn cmd_stats(flags: &Flags) -> Result<(), String> {
    if let Some(target) = flags.get("watch") {
        return cmd_stats_poll(flags, ("watch", target), "/snapshot", 0, render_rates);
    }
    if let Some(target) = flags.get("top") {
        return cmd_stats_poll(flags, ("top", target), "/profile/top", 1, render_top);
    }
    if let Some(target) = flags.get("fetch") {
        return cmd_stats_fetch(flags, target);
    }
    println!(
        "telemetry — every subcommand accepts --metrics <path> to write a JSON
snapshot of all counters, gauges, and latency histograms on success.

metric naming: dotted crate.stage names, e.g.
  netsim.contacts            contacts simulated
  netsim.cache.hit/.miss     leaf PTR-cache behavior
  netsim.queries.root/.national/.final   resolver fan-out
  netsim.log.parsed_records  TSV records parsed from --log
  netsim.capture.frames      BSCAP1 frames read from a --log capture;
                             .records/.filtered/.undecodable: response
                             frames recovered, dropped by the PTR
                             in-addr.arpa filter, failing wire decode
                             (booked once a capture, never per frame)
  dns.wire.decoded/.decode_errors/.encoded   messages through the RFC
                             1035 codec on behalf of a capture read or
                             write (totals a call, as above)
  sensor.stream.records      records the sensor saw, on every subcommand
                             (features, classify, train and report run
                             it for one window at a time);
                             .dedup_suppressed: dropped by the 30 s dedup
                             window; .admissions, .evictions: originator
                             table turnover
  sensor.stream.out_of_order records predating their window, dropped
  sensor.stream.probation_resets   probation-cap clears under storm load
  sensor.window_evicted      gauge: evictions in the last flushed window
  sensor.qmeta.cache_hits/.cache_misses   querier-metadata cache probes
                             served from / missing the cross-window cache
  sensor.qmeta.cache_expired entries dropped at a window boundary for
                             going unused past the keep horizon
  sensor.qmeta.cache_entries gauge: resolutions currently cached
  sensor.qmeta.names_resolved   reverse names looked up: only queriers of
                             an analyzable originator, each once a window
                             unless its name is cached
  core.stream.ingest_wait_ns ns the sensor thread spent blocked handing
                             a finished window over: closing windows
                             (extract, classify) bounds the stream
  core.stream.close_wait_ns  ns the closing thread spent waiting for a
                             window: ingest bounds the stream (both
                             booked once a window, pipelined runs only)
  ml.trees_built, ml.fits    learner effort
  ml.predict.samples         rows a member model was asked about (at
                             most rows × runs: decided rows leave the vote)
  ml.predict.tree_rows       tree descents walked for them
  classify.models_trained    windows with a trainable label set
  <stage>                    every stage guard records its wall time
                             (ns) in a histogram under its own name:
                             core.curate/.window/.retrain/.classify,
                             core.stream, datasets.build, sensor.extract
                             (.lookup, .features), sensor.select,
                             sensor.static.lanes, classify.train,
                             ml.train/.fit_run/.fit.shared/.fit.tree/
                             .predict, analysis.report
  sensor.stream              histogram: one window close (ns), under the
                             name of its ledger row
  par.tasks                  pool tasks run
  par.threads                gauge: workers in the latest region
  par.run                    latency histogram per parallel region (ns)
  log.error/.warn/.info/.debug     logger event counts
  live.ticks                 gauge: samples taken by the live sampler
  live.health.status         gauge: watchdog state (0 ok, 1 degraded,
                             2 critical; also served at /health)
  live.health.transitions    aggregate watchdog state changes
  live.ledger.imbalances     gauge: live conservation violations

histograms report count, sum, max, p50, p90, p99 in nanoseconds
(quantiles are interpolated within log-spaced buckets, ≤12.5% error).
live monitoring: add --serve <ip:port> to any command to scrape
/metrics, /snapshot, /health, /trace/summary, /buildinfo, and — with
--profile — /profile/flame (folded stacks for inferno/speedscope),
/profile/top, and /profile/alloc while it runs; follow along with
`backscatter stats --watch <ip:port>` (rates) or
`backscatter stats --top <ip:port>` (profiler's ranked stages).

profiling: add --profile <path> to any command to attribute every
stage's exact wall time (by the path of stages it ran inside, across
worker threads, and by window) and allocation pressure; the folded
flamegraph (`frame;frame ns`) is written to <path>, and a ranked-stage
table, the ns-per-record cost table (each stage's time beside the
records its ledger row counted; `-` where a stage books none), and
the allocation profile print on exit.
logging: set BS_LOG=off|error|warn|info|debug (default info) and
BS_LOG_FORMAT=text|json (default text; json emits one object per
line: ts_ms, level, target, message, kvs).

tracing — every subcommand also accepts --trace <path> to record a
causal trace (hierarchical spans with worker-thread parentage, a
flight-recorder ring buffer, and per-stage drop-accounting ledger
cells) and write Chrome trace-event JSON on success; load it in
Perfetto or chrome://tracing, or summarize it with
`backscatter trace --file <path>`. Ledger conservation
(records in == sum of outcome buckets, per stage and window) is
verified at exit; imbalances are logged as warnings.

parallelism: --threads <N> or BS_THREADS (default all cores, at most
256); results are bit-identical at any thread count."
    );
    Ok(())
}

fn usage() {
    eprintln!(
        "backscatter — DNS backscatter sensing, classification, analysis

commands:
  simulate  --dataset <name> [--scale smoke|standard] [--seed N] --out <log.tsv>
            simulate a paper-dataset replica and write its query log
  features  --log <log> [--min-queriers N] [--window-start S --window-end S]
            extract per-originator feature vectors as TSV
  classify  --log <log.tsv> --dataset <name> [--scale …] [--seed N]
            curate labels from the generating scenario, train RF, classify
  train     --log <log.tsv> --dataset <name> [--scale …] [--seed N] --save <model.bsf>
            curate, train a random forest, and save it
  report    --log <log.tsv> --dataset <name> [--scale …] [--seed N]
            classify all windows and print a situation report
  capture   --log <log> --out <file>
            write the log in the other format: a TSV log as a BSCAP1
            packet capture, a capture as a TSV log
  stream    --log <log> [--window S] [--max-originators N] [--pace RPS]
            [--linger S] [--extract M] [--model <model.bsf>]
            replay a log through the streaming sensor as a live
            process; the sensor ingests on a thread of its own while
            the previous window is closed on the main one (whenever
            --threads, BS_THREADS or the core count exceeds 1; output
            identical either way), --pace throttles to records/sec,
            --linger keeps the process (and any --serve endpoint) up
            after ingest, --extract M additionally extracts features
            per window (analyzability threshold M unique queriers)
            through the cross-window querier metadata cache, --model
            classifies each window's analyzable originators with a
            saved model (threshold M, or 20 without --extract)
  stats     describe the telemetry metrics
  stats     --watch <ip:port> [--iterations N] [--interval-ms M]
            poll a --serve endpoint's /snapshot and print live rates
  stats     --top <ip:port> [--iterations N] [--interval-ms M]
            poll a --serve endpoint's /profile/top and print the
            profiler's ranked-stage view
  stats     --fetch <ip:port> [--path /route]
            one raw GET against a --serve endpoint, body to stdout
  trace     --file <trace.json>
            inspect a --trace output: phases, lanes, hottest spans

every command accepts --serve <ip:port> to expose live observability
over HTTP while it runs (/metrics Prometheus text, /snapshot JSON
with windowed rates, /health with watchdog status, /trace/summary,
/buildinfo, /profile/flame|top|alloc; port 0 picks an ephemeral
port, printed on stdout), --profile <path> to write the folded
flamegraph of exact per-stage wall time and print ranked stages,
per-stage ns-per-record costs, and allocation pressure on exit,
--metrics <path> to write a JSON
telemetry snapshot (counters, gauges, latency histograms) on
success, --trace <path> to record a causal trace and write Chrome
trace-event JSON (open in Perfetto / chrome://tracing), and
--threads <N> to size the worker pool (default: BS_THREADS env, else
all cores, at most 256; results are bit-identical at any thread
count); set BS_LOG=off|error|warn|info|debug to control log verbosity
and BS_LOG_FORMAT=json for one JSON object per log line.

every --log is a TSV query log or a BSCAP1 packet capture, told apart
by its first bytes.

datasets: JP-ditl, B-post-ditl, B-long, B-multi-year, M-ditl, M-ditl-2015, M-sampled"
    );
}

/// Every subcommand: its name, its root span (span names are
/// `&'static str`) and the flags it reads beside [`COMMON_FLAGS`].
const COMMANDS: &[(&str, &str, &[&str])] = &[
    ("simulate", "cli.simulate", &["dataset", "scale", "seed", "out"]),
    ("features", "cli.features", &["log", "min-queriers", "window-start", "window-end"]),
    ("classify", "cli.classify", &["log", "dataset", "scale", "seed"]),
    ("train", "cli.train", &["log", "dataset", "scale", "seed", "save"]),
    ("report", "cli.report", &["log", "dataset", "scale", "seed"]),
    ("capture", "cli.capture", &["log", "out"]),
    (
        "stream",
        "cli.stream",
        &["log", "window", "max-originators", "pace", "linger", "extract", "model"],
    ),
    ("stats", "cli.stats", &["watch", "top", "fetch", "iterations", "interval-ms", "path"]),
    ("trace", "cli.trace", &["file"]),
    ("help", "cli.run", &[]),
    ("--help", "cli.run", &[]),
    ("-h", "cli.run", &[]),
];

/// The flags `main` reads for every subcommand.
const COMMON_FLAGS: &[&str] = &["metrics", "trace", "serve", "profile", "threads"];

type Flags = BTreeMap<String, String>;

/// Parse `--key value` pairs for `command`, which reads `known` and
/// [`COMMON_FLAGS`]. A flag it does not read is an error, not a no-op:
/// a misspelt `--min-querier` must not leave the threshold at its
/// default and exit 0.
fn parse_flags(command: &str, known: &[&str], args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got {a:?}"));
        };
        if !known.contains(&key) && !COMMON_FLAGS.contains(&key) {
            return Err(format!("`{command}` has no flag --{key}"));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} given twice to `{command}`"));
        }
    }
    Ok(flags)
}

fn dataset_id(flags: &Flags) -> Result<DatasetId, String> {
    let name = flags.get("dataset").ok_or("--dataset is required")?;
    DatasetId::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset {name:?}"))
}

fn scale(flags: &Flags) -> Result<Scale, String> {
    match flags.get("scale").map(String::as_str) {
        None | Some("smoke") => Ok(Scale::smoke()),
        Some("standard") => Ok(Scale::standard()),
        Some(other) => Err(format!("unknown scale {other:?} (smoke|standard)")),
    }
}

fn seed(flags: &Flags) -> Result<u64, String> {
    match flags.get("seed") {
        None => Ok(1),
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}")),
    }
}

/// Read `--log` by its bytes: one that starts with the BSCAP1 magic is
/// decoded as a packet capture (the second value is then `true`), any
/// other is parsed as a TSV query log.
fn load_log(flags: &Flags) -> Result<(QueryLog, bool), String> {
    let path = flags.get("log").ok_or("--log is required")?;
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    if bytes.starts_with(capture::MAGIC) {
        let (log, stats) = read_capture(&bytes).map_err(|e| format!("parse {path}: {e}"))?;
        telemetry::info!(
            "cli",
            "decoded capture {path}";
            frames = stats.frames,
            records = stats.records,
            undecodable = stats.undecodable,
            filtered = stats.filtered,
        );
        return Ok((log, true));
    }
    let text = std::str::from_utf8(&bytes).map_err(|e| format!("read {path}: {e}"))?;
    QueryLog::from_tsv(text).map(|log| (log, false)).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let id = dataset_id(flags)?;
    let out = flags.get("out").ok_or("--out is required")?;
    let world = World::new(WorldConfig::default());
    let spec = DatasetSpec::paper(id, scale(flags)?, seed(flags)?);
    telemetry::info!("cli", "simulating {}…", id.name());
    let built = build_dataset(&world, spec);
    telemetry::info!(
        "cli",
        "{} contacts → {} reverse queries at {}",
        built.stats.contacts,
        built.log.len(),
        built.spec.authority
    );
    std::fs::write(out, built.log.to_tsv()).map_err(|e| format!("write {out}: {e}"))?;
    telemetry::info!("cli", "wrote {out}");
    Ok(())
}

/// Extract features from `log` for `features`. Without `--window-start`
/// / `--window-end` the window is the log's own span, `[first record,
/// last record + 1)`: persistence is the share of the window's periods
/// an originator is active in, so a window wider than the log would
/// shrink it toward zero.
fn extract_over_log(flags: &Flags, log: &QueryLog) -> Result<Vec<OriginatorFeatures>, String> {
    let number = |key: &str| {
        flags
            .get(key)
            .map(|s| s.parse::<u64>().map_err(|_| format!("bad --{key} {s:?}")))
            .transpose()
    };
    let times = || log.records().iter().map(|r| r.time.0);
    let start = number("window-start")?.or_else(|| times().min()).unwrap_or(0);
    let end = number("window-end")?
        .or_else(|| times().max().map(|last| last.saturating_add(1)))
        .unwrap_or(0);
    let min_queriers = number("min-queriers")?.map_or(MIN_QUERIERS, |n| n as usize);
    Ok(extract_features(
        log,
        &World::new(WorldConfig::default()),
        SimTime(start),
        SimTime(end),
        &FeatureConfig { min_queriers, top_n: None },
    ))
}

fn cmd_features(flags: &Flags) -> Result<(), String> {
    let feats = extract_over_log(flags, &load_log(flags)?.0)?;
    // Header, then one row per originator.
    let names = dns_backscatter::sensor::FeatureVector::names();
    println!("originator\tqueriers\tqueries\t{}", names.join("\t"));
    for f in feats {
        let values: Vec<String> = f.features.to_vec().iter().map(|v| format!("{v:.5}")).collect();
        println!("{}\t{}\t{}\t{}", f.originator, f.querier_count, f.query_count, values.join("\t"));
    }
    Ok(())
}

fn curated_training_data(
    world: &World,
    built: &dns_backscatter::datasets::BuiltDataset,
) -> dns_backscatter::ml::Dataset {
    use dns_backscatter::classify::pipeline::feature_map;
    use dns_backscatter::classify::{ClassifierPipeline, LabeledSet, PER_CLASS_CAP};
    let (start, end) = built.windows()[0];
    let config = FeatureConfig { min_queriers: 10, top_n: None };
    let feats = extract_features(&built.log, world, start, end, &config);
    let truth = built.truth_for_window((start, end));
    let labeled = LabeledSet::curate(&truth, &feats, PER_CLASS_CAP);
    ClassifierPipeline::to_dataset(&labeled, &feature_map(&feats))
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    use dns_backscatter::ml::ForestParams;
    let (log, _) = load_log(flags)?;
    let id = dataset_id(flags)?;
    let save = flags.get("save").ok_or("--save is required")?;
    let world = World::new(WorldConfig::default());
    let spec = DatasetSpec::paper(id, scale(flags)?, seed(flags)?);
    let built = dns_backscatter::datasets::build::assemble_with_log(&world, spec, log);
    let data = curated_training_data(&world, &built);
    if data.is_empty() || data.present_classes().len() < 2 {
        return Err("not enough curated examples to train".into());
    }
    telemetry::info!(
        "cli",
        "training a random forest";
        examples = data.len(),
        classes = data.present_classes().len(),
    );
    let forest = Forest::fit(&data, &ForestParams::default(), seed(flags)?);
    std::fs::write(save, forest.to_text()).map_err(|e| format!("write {save}: {e}"))?;
    telemetry::info!("cli", "saved {save}"; trees = forest.n_trees());
    Ok(())
}

/// `classify` and `report`: assemble the dataset the scenario flags name
/// around `--log` and run the full pipeline over it.
fn run_pipeline(flags: &Flags) -> Result<PipelineRun, String> {
    let (log, _) = load_log(flags)?;
    let id = dataset_id(flags)?;
    let world = World::new(WorldConfig::default());
    let spec = DatasetSpec::paper(id, scale(flags)?, seed(flags)?);
    let built = dns_backscatter::datasets::build::assemble_with_log(&world, spec, log);
    let features =
        sense_dataset(&built, &world, &FeatureConfig { min_queriers: 10, ..Default::default() });
    Ok(DatasetPipeline::default().run(&built, &features))
}

fn cmd_classify(flags: &Flags) -> Result<(), String> {
    let run = run_pipeline(flags)?;
    telemetry::info!(
        "cli",
        "classification complete";
        labeled = run.labels.len(),
        windows = run.windows.len(),
    );
    println!("window\toriginator\tqueriers\tclass");
    for w in &run.windows {
        for e in &w.entries {
            println!("{}\t{}\t{}\t{}", w.window, e.originator, e.queriers, e.class);
        }
    }
    Ok(())
}

fn cmd_report(flags: &Flags) -> Result<(), String> {
    print!("{}", dns_backscatter::analysis::render_report(&run_pipeline(flags)?.windows));
    Ok(())
}

/// `backscatter capture`: write `--log` in the other format.
fn cmd_capture(flags: &Flags) -> Result<(), String> {
    let out = flags.get("out").ok_or("--out is required")?;
    let (log, from_capture) = load_log(flags)?;
    let bytes = if from_capture { log.to_tsv().into_bytes() } else { write_capture(&log) };
    std::fs::write(out, bytes).map_err(|e| format!("write {out}: {e}"))?;
    telemetry::info!("cli", "wrote {out}"; records = log.len());
    Ok(())
}

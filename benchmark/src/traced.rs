//! The traced run: per-layer metrics from spans recorded around each
//! public call, one thread, plus isolated probes for the layers that
//! sit nested inside one call.
//!
//! Order of work inside `--seconds`: one harvest pass (counts that
//! repeat exactly, and inputs for the probes); one allocation pass,
//! spans on and the allocator counting, whose timings are not used;
//! then rounds of one traced own-loop pass and one untraced pass
//! through the shipped driver at each pool width (driver parity,
//! tracing overhead, `par.*`), all with counting off; then the probes.

use crate::catalog::{self, Values};
use crate::chain::{self, Context, Engine, Harvest};
use crate::gen::encode_capture;
use crate::oracle::Oracle;
use crate::stats::{median, quantile, undisturbed_time};
use crate::trace::{Recorder, Rollup};
use crate::{alloc, Args, Done, Tally};
use backscatter_core::activity::ApplicationClass;
use backscatter_core::dns::Message;
use backscatter_core::ml::{Dataset, Forest, ForestParams, Sample};
use backscatter_core::netsim::capture::{read_capture, CaptureStats};
use backscatter_core::netsim::NameOutcome;
use backscatter_core::par;
use backscatter_core::sensor::{
    classify_querier_name, FeatureVector, QuerierMetaTable, ShardedStreamingSensor, StreamingSensor,
};
use backscatter_core::stream::resolve_shards;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Rounds of (traced pass, driver pass at one thread, driver pass at
/// the default width), at least.
const MIN_ROUNDS: usize = 5;

/// The recorder's pass that ran with the allocator counting: the only
/// one whose spans carry allocation deltas, and the only one left out
/// of every timing (counting costs four atomic updates an allocation).
const ALLOC_PASS: u32 = 1;

/// Repetitions of each probe; the median is reported.
const PROBE_REPS: usize = 3;

/// Records encoded for the capture probes on a workload without a
/// capture of its own.
const CAPTURE_SAMPLE: usize = 20_000;

/// The layers whose spans make up a pass; everything else in a pass
/// (loop glue, the oracle's checks) counts as unattributed.
const LAYERS: [(&str, &str); 7] = [
    ("chain.share.netsim.capture", "netsim.capture"),
    ("chain.share.sensor.ingest.push", "sensor.ingest.push"),
    ("chain.share.sensor.ingest.flush", "sensor.ingest.flush"),
    ("chain.share.sensor.extract", "sensor.extract"),
    ("chain.share.classify.train", "classify.train"),
    ("chain.share.classify.predict", "classify.predict"),
    ("chain.share.release", "chain.release"),
];

/// Process CPU seconds (user + system, every thread, ended ones too)
/// from `/proc/self/stat`, in the kernel's 100 Hz ticks. The per-task
/// `/proc/self/schedstat` would miss the pool's short-lived workers.
fn process_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Median over `PROBE_REPS` timings of `f`, in nanoseconds.
fn probe_ns(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

fn roll(pass: &BTreeMap<&'static str, Rollup>, name: &str) -> Rollup {
    pass.get(name).copied().unwrap_or_default()
}

/// Push the whole stream through one engine; returns (push ns, flush
/// ns) with the boundary-crossing calls timed as flushes.
fn ingest_only(
    records: &[backscatter_core::netsim::QueryLogRecord],
    window_secs: u64,
    mut engine: Engine,
) -> (f64, f64) {
    let Some(first) = records.first() else { return (0.0, 0.0) };
    let t = first.time.secs();
    let mut window_end = t - t % window_secs + window_secs;
    let (mut push, mut flush) = (0u128, 0u128);
    let mut mark = Instant::now();
    for r in records {
        let t = r.time.secs();
        if t < window_end {
            black_box(engine.push(*r));
            continue;
        }
        push += mark.elapsed().as_nanos();
        let at = Instant::now();
        black_box(engine.push(*r));
        flush += at.elapsed().as_nanos();
        window_end = t - t % window_secs + window_secs;
        mark = Instant::now();
    }
    push += mark.elapsed().as_nanos();
    let at = Instant::now();
    black_box(engine.finish());
    flush += at.elapsed().as_nanos();
    (push as f64, flush as f64)
}

/// The isolated probes, for layers nested inside one public call. Each
/// inserts its metrics under the layer's name.
fn run_probes(ctx: &Context, harvest: &Harvest, width: usize, v: &mut Values) {
    let records_per_pass = ctx.inputs.records.len() as f64;
    let windows = ctx.shape.windows as f64;
    par::set_threads(1);

    // dns.wire and netsim.capture: the workload's own capture, or on a
    // workload that bypasses the front door the first records encoded
    // the same way, so a decode change shows in these two layers on
    // every workload while only `capture-day` moves end to end.
    let encoded;
    let capture = match &ctx.inputs.capture {
        Some(own) => own,
        None => {
            let mut sample =
                ctx.inputs.records[..ctx.inputs.records.len().min(CAPTURE_SAMPLE)].to_vec();
            encoded = encode_capture(ctx.seed, &mut sample);
            &encoded
        }
    };
    let mut undecodable = 0u64;
    let decode_ns = probe_ns(|| {
        undecodable = 0;
        for (at, len) in &capture.responses {
            if black_box(Message::decode(&capture.bytes[*at..*at + *len])).is_err() {
                undecodable += 1;
            }
        }
    });
    let decoded_frames = capture.responses.len() as f64;
    let mut capture_stats = CaptureStats::default();
    let mut capture_allocs = 0u64;
    let capture_ns = probe_ns(|| {
        alloc::reset_and_enable();
        let before = alloc::counters().0;
        let read = black_box(read_capture(&capture.bytes));
        capture_allocs = alloc::counters().0 - before;
        alloc::disable();
        if let Ok((_, stats)) = read {
            capture_stats = stats;
        }
    });

    // netsim.world, sensor.static, sensor.qmeta: the harvested windows'
    // unique queriers, resolved cold.
    let queriers: Vec<Ipv4Addr> = harvest
        .samples
        .iter()
        .flat_map(|(w, _)| w.observations.all_queriers.iter().copied())
        .collect();
    let n_queriers = queriers.len().max(1) as f64;
    let resolve_ns = probe_ns(|| {
        for q in &queriers {
            black_box((ctx.world.reverse_name(*q), ctx.world.as_of(*q), ctx.world.country_of(*q)));
        }
    });
    let names: Vec<NameOutcome> = queriers.iter().map(|q| ctx.world.reverse_name(*q)).collect();
    let static_ns = probe_ns(|| {
        for n in &names {
            black_box(classify_querier_name(n));
        }
    });
    let build_ns = probe_ns(|| {
        for (w, _) in &harvest.samples {
            black_box(QuerierMetaTable::build(&w.observations, &ctx.world, None));
        }
    });

    // ml.forest: one default forest on the harvested features with
    // their ground-truth classes.
    let mut data = Dataset::new(FeatureVector::names(), ApplicationClass::all_names());
    for (_, features) in &harvest.samples {
        for f in features {
            if let Some(t) = ctx.inputs.truth.get(&f.originator) {
                data.push(Sample { features: f.features.to_vec(), label: t.class.index() });
            }
        }
    }
    let (xs, _) = data.xy();
    let params = ForestParams::default();
    let mut forest = None;
    let fit_ns = probe_ns(|| forest = Some(Forest::fit(&data, &params, ctx.seed)));
    let forest = forest.expect("the probe ran");
    let predict_ns = probe_ns(|| {
        black_box(forest.predict_all(&xs));
    });

    // sensor.stream and sensor.shard on the same records, the sharded
    // engine at the default pool width.
    let records = &ctx.inputs.records;
    let config = chain::stream_config(ctx.shape);
    let window_secs = ctx.shape.window_secs;
    let mut stream = Vec::new();
    let mut shard = Vec::new();
    par::set_threads(width);
    let lanes = resolve_shards(0);
    for _ in 0..PROBE_REPS {
        stream.push(ingest_only(
            records,
            window_secs,
            Engine::Single(Box::new(StreamingSensor::new(config))),
        ));
        shard.push(ingest_only(
            records,
            window_secs,
            Engine::Sharded(Box::new(ShardedStreamingSensor::new(config, lanes))),
        ));
    }
    par::set_threads(1);
    let pick = |v: &[(f64, f64)]| {
        (
            median(&v.iter().map(|x| x.0).collect::<Vec<_>>()),
            median(&v.iter().map(|x| x.1).collect::<Vec<_>>()),
        )
    };
    let decode_ns_per_frame = decode_ns / decoded_frames.max(1.0);
    let recovered = (capture_stats.records as f64).max(1.0);
    v.insert("dns.wire.frames", decoded_frames);
    v.insert("dns.wire.undecodable", undecodable as f64);
    v.insert("dns.wire.decode_ns_per_frame", decode_ns_per_frame);
    v.insert("netsim.capture.ns_per_record", capture_ns / recovered);
    v.insert("netsim.capture.mb_per_s", capture.bytes.len() as f64 / 1e6 / (capture_ns / 1e9));
    v.insert("netsim.capture.frames", capture_stats.frames as f64);
    v.insert("netsim.capture.filtered", capture_stats.filtered as f64);
    v.insert("netsim.capture.undecodable", capture_stats.undecodable as f64);
    v.insert("netsim.capture.records", capture_stats.records as f64);
    v.insert(
        "netsim.capture.self_share",
        ((capture_ns - decoded_frames * decode_ns_per_frame) / capture_ns).max(0.0),
    );
    v.insert("netsim.capture.allocs_per_record", capture_allocs as f64 / recovered);
    v.insert("netsim.world.resolve_ns_per_querier", resolve_ns / n_queriers);
    v.insert("sensor.static.ns_per_name", static_ns / n_queriers);
    v.insert(
        "sensor.qmeta.cold_build_ms_per_window",
        build_ns / 1e6 / harvest.samples.len().max(1) as f64,
    );
    v.insert("sensor.qmeta.ns_per_unique_querier", build_ns / n_queriers);
    v.insert("ml.forest.trees", forest.n_trees() as f64);
    v.insert("ml.forest.fit_us_per_tree", fit_ns / 1e3 / forest.n_trees() as f64);
    v.insert("ml.forest.predict_us_per_row", predict_ns / 1e3 / xs.len().max(1) as f64);
    let (stream, shard) = (pick(&stream), pick(&shard));
    v.insert("sensor.stream.push_ns_per_record", stream.0 / records_per_pass);
    v.insert("sensor.stream.flush_ms_per_window", stream.1 / 1e6 / windows);
    v.insert("sensor.shard.push_ns_per_record", shard.0 / records_per_pass);
    v.insert("sensor.shard.flush_ms_per_window", shard.1 / 1e6 / windows);
    v.insert("sensor.shard.lanes", lanes as f64);
    v.insert("sensor.shard.speedup", (stream.0 + stream.1) / (shard.0 + shard.1));
}

/// The workload-shape guards: each workload must keep stressing the
/// layer it was chosen for. Returns the failures.
fn guards(name: &str, v: &Values) -> Vec<String> {
    let get = |k: &str| v[k];
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut check = |what: &str, ok: bool| checks.push((what.to_string(), ok));
    let capture = get("chain.share.netsim.capture");
    let ingest = get("chain.share.sensor.ingest.push") + get("chain.share.sensor.ingest.flush");
    let train = get("chain.share.classify.train");
    let predict = get("chain.share.classify.predict");
    let hit = get("sensor.qmeta.cache_hit_share");
    match name {
        "capture-day" => check("chain.share.netsim.capture >= 0.35", capture >= 0.35),
        _ => check("chain.share.netsim.capture == 0", capture == 0.0),
    }
    match name {
        "retrain-daily" => check("chain.share.classify.train >= 0.50", train >= 0.50),
        _ => check("chain.share.classify.train <= 0.02", train <= 0.02),
    }
    if name == "scan-storm" {
        check("chain.share.sensor.ingest.push + .flush >= 0.45", ingest >= 0.45);
        check("chain.share.classify.* <= 0.10", train + predict <= 0.10);
        check("sensor.qmeta.cache_hit_share < 0.2", hit < 0.2);
    }
    if name == "verdict-wide" {
        check("chain.share.classify.predict >= 0.35", predict >= 0.35);
        check("sensor.qmeta.cache_hit_share >= 0.85", hit >= 0.85);
    }
    check("trace.unattributed_pct <= 10", get("trace.unattributed_pct") <= 10.0);
    // Coarse on purpose: on a shared host two sets of five to thirteen
    // passes of the same code read up to 10 % apart. This catches an
    // instrument that costs what counting allocations did (28 %).
    check("|trace.overhead_pct| <= 25", get("trace.overhead_pct").abs() <= 25.0);
    let mut failures = Vec::new();
    for (what, ok) in checks {
        println!("guard {what}: {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failures.push(what);
        }
    }
    failures
}

pub fn run(args: &Args) -> Result<Done, String> {
    let (ctx, _) = chain::set_up(args.shape, args.seed);
    let oracle = Oracle::build(&ctx.inputs);
    crate::check_shape(&ctx, &oracle)?;
    let records = oracle.records() as f64;
    let windows = oracle.windows.len() as f64;
    let width = chain::default_width();
    let mut tally = Tally::default();
    // The clock starts after set-up, as in the end-to-end run.
    let clock = Instant::now();
    let within = |share: f64| clock.elapsed().as_secs_f64() < args.seconds * share;

    // Harvest pass: own loop, spans off, one thread.
    par::set_threads(1);
    let mut harvest = Harvest::default();
    let first =
        chain::own_loop_pass(&ctx, &oracle, None, &mut crate::trace::Off, Some(&mut harvest));
    tally.add("harvest pass", &first.report);
    let reference = first.report.window_digests.clone();

    // Allocation pass: spans on, allocator counting.
    let mut recorder = Recorder::new();
    recorder.pass = ALLOC_PASS;
    alloc::reset_and_enable();
    let pass = chain::own_loop_pass(&ctx, &oracle, Some(&reference), &mut recorder, None);
    alloc::disable();
    tally.add("allocation pass", &pass.report);

    // Rounds, counting off: a traced pass beside the shipped driver on
    // the same inputs at both widths, so that the two sets of passes
    // meet the same stretches of the host's disturbance. Which of the
    // one-thread passes follows the default-width one (and finds the
    // caches as two threads left them) alternates from round to round.
    let mut wide = Vec::new();
    let mut narrow = Vec::new();
    let mut traced = Vec::new();
    let (mut cpu, mut wall) = (0.0, 0.0);
    while within(0.7) || narrow.len() < MIN_ROUNDS {
        for own_loop in [narrow.len() % 2 == 0, narrow.len() % 2 != 0] {
            if own_loop {
                recorder.pass += 1;
                let pass =
                    chain::own_loop_pass(&ctx, &oracle, Some(&reference), &mut recorder, None);
                tally.add("traced pass", &pass.report);
                traced.push(pass.secs);
            } else {
                let pass = chain::driver_pass(&ctx, &oracle, Some(&reference), None);
                tally.add("driver parity, one thread", &pass.report);
                narrow.push(pass.secs);
            }
        }
        par::set_threads(width);
        let before = process_cpu_secs();
        let pass = chain::driver_pass(&ctx, &oracle, Some(&reference), None);
        if let (Some(a), Some(b)) = (before, process_cpu_secs()) {
            cpu += b - a;
            wall += pass.secs;
        }
        tally.add("driver parity, default width", &pass.report);
        wide.push(pass.secs);
        par::set_threads(1);
    }

    // Roll the spans up per pass; timings are medians across the timed
    // passes, allocation deltas come from the allocation pass.
    let mut by_pass = recorder.by_pass();
    let counted = by_pass.remove(&ALLOC_PASS).expect("the allocation pass recorded spans");
    let per_pass = |f: &dyn Fn(&BTreeMap<&'static str, Rollup>) -> f64| -> f64 {
        median(&by_pass.values().map(f).collect::<Vec<_>>())
    };
    let pass_ns = |p: &BTreeMap<&'static str, Rollup>| roll(p, "chain.pass").ns as f64;
    let mut v = Values::new();
    run_probes(&ctx, &harvest, width, &mut v);
    for (metric, span) in LAYERS {
        v.insert(metric, per_pass(&|p| roll(p, span).ns as f64 / pass_ns(p)));
    }
    // Whole-pass times are those of the undisturbed passes, as in the
    // end-to-end run; what lies within a pass is a median over passes.
    let chain_ns = 1e9 * undisturbed_time(&traced) / records;
    v.insert("chain.ns_per_record", chain_ns);
    v.insert(
        "trace.unattributed_pct",
        per_pass(&|p| {
            let own = roll(p, "chain.pass").self_ns + roll(p, "chain.window").self_ns;
            100.0 * (own + roll(p, "oracle.check").ns) as f64 / pass_ns(p)
        }),
    );
    // What a live tap would stall for at a window boundary.
    let mut close_ms: BTreeMap<u32, f64> = BTreeMap::new();
    for s in recorder.spans.iter().filter(|s| s.pass != ALLOC_PASS) {
        if matches!(
            s.name,
            "sensor.ingest.flush" | "sensor.extract" | "classify.train" | "classify.predict"
        ) {
            *close_ms.entry(s.parent).or_default() += s.ns() as f64 / 1e6;
        }
    }
    let close_ms: Vec<f64> = close_ms.into_values().collect();
    v.insert("chain.window_close_ms_p50", quantile(&close_ms, 0.5));
    v.insert("chain.window_close_ms_p90", quantile(&close_ms, 0.9));

    let sum = |f: &dyn Fn(&chain::WindowCounts) -> u64| -> f64 {
        harvest.windows.iter().map(f).sum::<u64>() as f64
    };
    let records_in = sum(&|c| c.records_in);
    let unique = sum(&|c| c.unique_queriers);
    let pairs = sum(&|c| c.pairs);
    let rows = sum(&|c| c.originators_out);
    let extract_ns = per_pass(&|p| roll(p, "sensor.extract").ns as f64);
    let train_ns = per_pass(&|p| roll(p, "classify.train").ns as f64);
    let predict_ns = per_pass(&|p| roll(p, "classify.predict").ns as f64);
    v.insert(
        "sensor.ingest.push_ns_per_record",
        per_pass(&|p| roll(p, "sensor.ingest.push").ns as f64 / records),
    );
    v.insert(
        "sensor.ingest.flush_ms_per_window",
        per_pass(&|p| roll(p, "sensor.ingest.flush").ns as f64 / 1e6 / windows),
    );
    v.insert("sensor.ingest.records_in", records_in);
    v.insert("sensor.ingest.stored_share", sum(&|c| c.stored) / records_in.max(1.0));
    v.insert("sensor.ingest.originators_per_window", sum(&|c| c.originators) / windows);
    v.insert("sensor.ingest.evicted_per_window", sum(&|c| c.evicted) / windows);
    v.insert(
        "sensor.ingest.allocs_per_record",
        (roll(&counted, "sensor.ingest.push").allocs + roll(&counted, "sensor.ingest.flush").allocs)
            as f64
            / records,
    );
    v.insert("sensor.qmeta.unique_queriers_per_window", unique / windows);
    v.insert(
        "sensor.qmeta.cache_hit_share",
        sum(&|c| c.cache_hits) / (sum(&|c| c.cache_hits) + sum(&|c| c.cache_misses)).max(1.0),
    );
    v.insert("sensor.qmeta.useful_share", sum(&|c| c.useful_queriers) / unique.max(1.0));
    v.insert("sensor.extract.ms_per_window", extract_ns / 1e6 / windows);
    v.insert("sensor.extract.ns_per_pair", extract_ns / pairs.max(1.0));
    v.insert("sensor.extract.pairs_per_window", pairs / windows);
    v.insert("sensor.extract.originators_out_per_window", rows / windows);
    v.insert("classify.train.ms_per_window", train_ns / 1e6 / windows);
    v.insert("classify.train.samples", sum(&|c| c.train_samples) / windows);
    v.insert("classify.predict.ms_per_window", predict_ns / 1e6 / windows);
    v.insert("classify.predict.rows_per_window", rows / windows);
    v.insert("classify.predict.us_per_row", predict_ns / 1e3 / rows.max(1.0));

    let driver_ns = 1e9 * undisturbed_time(&narrow) / records;
    v.insert("core.stream.driver_ns_per_record", driver_ns);
    v.insert("par.threads", width as f64);
    v.insert("par.speedup", undisturbed_time(&narrow) / undisturbed_time(&wide));
    v.insert("par.cpu_over_wall", if wall > 0.0 { cpu / wall } else { 0.0 });
    v.insert("alloc.bytes_per_record", roll(&counted, "chain.pass").bytes as f64 / records);
    v.insert("alloc.count_per_record", roll(&counted, "chain.pass").allocs as f64 / records);
    v.insert("trace.spans", recorder.spans.len() as f64);
    v.insert("trace.overhead_pct", 100.0 * (chain_ns / driver_ns - 1.0));

    println!(
        "workload {} seed {} records/pass {records} windows/pass {windows} timed traced passes {} window samples {} measured {:.1} s",
        ctx.shape.name,
        ctx.seed,
        recorder.pass - ALLOC_PASS,
        close_ms.len(),
        clock.elapsed().as_secs_f64()
    );
    println!("verdict_digest {:016x}", first.report.digest());
    for (what, secs) in [
        ("traced own-loop passes", &traced),
        ("driver passes, one thread", &narrow),
        ("driver passes, default width", &wide),
    ] {
        println!(
            "{what}: median {:.4} s p10 {:.4} s n {}",
            median(secs),
            undisturbed_time(secs),
            secs.len()
        );
    }
    let metrics = catalog::render(&catalog::PER_LAYER, &v);
    let failures = guards(ctx.shape.name, &v);

    let path = args.out_dir.join(format!("{}.trace.json", ctx.shape.name));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, recorder.to_json(ctx.shape.name, ctx.seed)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if !failures.is_empty() {
        return Err(format!("workload-shape guards failed: {}", failures.join("; ")));
    }
    Ok(Done { tally, metrics, digest: first.report.digest(), samples: Vec::new() })
}

//! The shared performance-measurement body behind `perf_snapshot`
//! (record a baseline) and `perf_gate` (compare a fresh run against
//! the committed baseline).
//!
//! [`measure_all`] runs the smoke-scale JP-ditl pipeline end to end
//! under four telemetry regimes (disabled, sequential, traced,
//! parallel), times raw ingest throughput (fast path vs retained
//! reference, batch and streaming), and times the ML fast paths vs
//! their references — asserting the determinism/equivalence contracts
//! throughout — then publishes every number as a `bench.*` gauge in
//! the global registry. `perf_snapshot` writes that registry to
//! `BENCH_pipeline.json`; `perf_gate` diffs it against the committed
//! copy.

use backscatter_core::dns::Rcode;
use backscatter_core::netsim::log::{QueryLog, QueryLogRecord};
use backscatter_core::prelude::*;
use backscatter_core::sensor::ingest::Observations;
use backscatter_core::sensor::{ReferenceStreamingSensor, StreamConfig, StreamingSensor};
use bs_par::Rng;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::time::Instant;

/// Records in the synthetic ingest-throughput log.
const INGEST_RECORDS: usize = 200_000;
/// Time span the synthetic log covers, in seconds.
const INGEST_SPAN_SECS: u64 = 20_000;

/// Where the committed baseline lives: `BENCH_pipeline.json` at the
/// workspace root.
pub fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("bench crate lives two levels under the workspace root")
        .join("BENCH_pipeline.json")
}

/// Summary facts from one [`measure_all`] run, beyond what lands in
/// the registry gauges.
#[derive(Debug, Clone)]
pub struct MeasureSummary {
    /// Total originators classified (summed over windows).
    pub classified: usize,
    /// Sequential (1-thread) pipeline wall time, milliseconds.
    pub wall_ms_sequential: i64,
    /// Parallel (default-width) pipeline wall time, milliseconds.
    pub wall_ms_parallel: i64,
    /// Resolved worker-pool width of the parallel run.
    pub threads: usize,
}

/// Storm-shaped synthetic log (many one-shot originators, few queriers
/// each) from a fixed-seed LCG — the workload that motivated the
/// `bs-fastmap` fast path, identical on every run.
fn ingest_log() -> QueryLog {
    let mut state: u64 = 0x5EED_CAFE;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    let mut log = QueryLog::new();
    for i in 0..INGEST_RECORDS {
        let o = next() as u32 % 60_000;
        let q = next() as u32 % 4_000;
        log.push(QueryLogRecord {
            time: SimTime(i as u64 * INGEST_SPAN_SECS / INGEST_RECORDS as u64),
            querier: Ipv4Addr::from(0x0A00_0000 | q),
            originator: Ipv4Addr::from(0xC000_0000 | o),
            rcode: Rcode::NoError,
        });
    }
    log
}

/// Records/second over one timed run of `f`.
fn rps<T>(records: usize, f: impl FnOnce() -> T) -> (i64, T) {
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    ((records as f64 / secs.max(1e-9)) as i64, out)
}

fn run_pipeline(world: &World) -> Vec<usize> {
    let spec = DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 7);
    let built = build_dataset(world, spec);
    let mut pipeline = DatasetPipeline::default();
    pipeline.feature_config.min_queriers = 10;
    let run = pipeline.run(world, &built);
    run.windows.iter().map(|w| w.entries.len()).collect()
}

/// Ingest throughput, fast path vs retained reference, batch and
/// streaming (the streaming config keeps the table under pressure so
/// admission + eviction are on the measured path). Asserts the fast
/// path's output equals the reference's before recording anything.
fn ingest_throughput() -> [(&'static str, i64); 5] {
    let log = ingest_log();
    let end = SimTime(INGEST_SPAN_SECS + 1);
    let dedup = SimDuration::from_secs(30);
    let cfg = StreamConfig {
        window: SimDuration::from_secs(INGEST_SPAN_SECS + 1),
        max_originators: 20_000,
        admission_queries: 2,
        ..Default::default()
    };

    let (batch_fast_rps, fast_batch) = rps(log.len(), || {
        Observations::ingest_with_dedup(&log, SimTime::ZERO, end, dedup).originator_count()
    });
    let (batch_ref_rps, ref_batch) = rps(log.len(), || {
        Observations::ingest_with_dedup_reference(&log, SimTime::ZERO, end, dedup)
            .originator_count()
    });
    assert_eq!(fast_batch, ref_batch, "batch fast path must match the reference");

    let (stream_fast_rps, fast_stream) = rps(log.len(), || {
        let mut s = StreamingSensor::new(cfg);
        let mut n = 0usize;
        for r in log.records() {
            if let Some(w) = s.push(*r) {
                n += w.observations.originator_count();
            }
        }
        n + s.finish().map_or(0, |w| w.observations.originator_count())
    });
    let (stream_ref_rps, ref_stream) = rps(log.len(), || {
        let mut s = ReferenceStreamingSensor::new(cfg);
        let mut n = 0usize;
        for r in log.records() {
            if let Some(w) = s.push(*r) {
                n += w.observations.originator_count();
            }
        }
        n + s.finish().map_or(0, |w| w.observations.originator_count())
    });
    assert_eq!(fast_stream, ref_stream, "streaming fast path must match the reference");

    [
        ("bench.ingest.records", log.len() as i64),
        ("bench.ingest.batch_fast_rps", batch_fast_rps),
        ("bench.ingest.batch_reference_rps", batch_ref_rps),
        ("bench.ingest.stream_fast_rps", stream_fast_rps),
        ("bench.ingest.stream_reference_rps", stream_ref_rps),
    ]
}

/// Sharded streaming ingest throughput at 1/2/4/8 lanes over the same
/// storm log, with the `bs-par` pool sized to the lane count — the
/// multi-core scaling curve. Before anything is recorded, every lane
/// count's output is asserted equal to the sequential single-shard
/// reference (the shard topology makes output lane-count invariant);
/// a parallel-efficiency gauge (`rps₄ / (4 × rps₁)`, in milli)
/// summarizes the curve for the perf gate. On a 1-core host the rps
/// gauges record honestly flat numbers and efficiency sits near 250.
fn scaling_throughput() -> Vec<(String, i64)> {
    use backscatter_core::sensor::{ReferenceShardedStreamingSensor, ShardedStreamingSensor};
    let log = ingest_log();
    let cfg = StreamConfig {
        window: SimDuration::from_secs(INGEST_SPAN_SECS + 1),
        max_originators: 20_000,
        admission_queries: 2,
        ..Default::default()
    };

    let mut reference = ReferenceShardedStreamingSensor::new(cfg);
    let mut expect = Vec::new();
    for r in log.records() {
        if let Some(w) = reference.push(*r) {
            expect.push(w);
        }
    }
    expect.extend(reference.finish());

    let mut gauges = Vec::new();
    let mut curve = Vec::new();
    for lanes in [1usize, 2, 4, 8] {
        backscatter_core::par::set_threads(lanes);
        let (rate, got) = rps(log.len(), || {
            let mut s = ShardedStreamingSensor::new(cfg, lanes);
            let mut out = Vec::new();
            for r in log.records() {
                if let Some(w) = s.push(*r) {
                    out.push(w);
                }
            }
            out.extend(s.finish());
            out
        });
        assert_eq!(
            got, expect,
            "{lanes}-lane sharded output must equal the sequential sharded reference"
        );
        curve.push(rate);
        gauges.push((format!("bench.ingest.scaling.shards{lanes}_rps"), rate));
    }
    backscatter_core::par::set_threads(0);
    // 1000 = perfect linear 1→4 scaling; 250 = no scaling at all.
    let efficiency = curve[2].saturating_mul(1000) / (4 * curve[0]).max(1);
    gauges.push(("bench.ingest.scaling.parallel_efficiency_milli".to_string(), efficiency));
    gauges
}

/// Profiler overhead on the streaming-ingest hot loop, the budget
/// proof for `--profile`: min-of-3 wall time with bs-prof idle (the
/// gating branches and counting allocator compiled in but profiling
/// off) and with the sampler live at 99 Hz, both as integer-percent
/// deltas against a just-measured baseline of the identical idle
/// configuration. The *disabled* delta is an A/B re-measure of the
/// same code, so it reads the run-to-run noise floor the always-on
/// gating hides in; the design budget is <1% disabled and <5% at
/// 99 Hz, and the asserts sit far looser (15% / 40%) only because
/// this gate also runs on 1-core shared CI hosts where scheduler
/// noise dwarfs both.
fn prof_overhead() -> [(&'static str, i64); 2] {
    let log = ingest_log();
    let cfg = StreamConfig {
        window: SimDuration::from_secs(INGEST_SPAN_SECS + 1),
        max_originators: 20_000,
        admission_queries: 2,
        ..Default::default()
    };
    let run = || {
        // Inert one-branch guard while profiling is off (the cost under
        // test); keeps the whole loop on-stack for the 99 Hz sampler.
        let _probe = bs_telemetry::stage("bench.prof.probe");
        let mut s = StreamingSensor::new(cfg);
        let mut n = 0usize;
        for r in log.records() {
            if let Some(w) = s.push(*r) {
                n += w.observations.originator_count();
            }
        }
        n + s.finish().map_or(0, |w| w.observations.originator_count())
    };
    let time_min3 = |f: &dyn Fn() -> usize, expect: usize| -> i64 {
        let mut best = i64::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            let got = f();
            let ns = t0.elapsed().as_nanos() as i64;
            assert_eq!(got, expect, "profiling must not change ingest output");
            best = best.min(ns);
        }
        best
    };
    let pct = |measured: i64, base: i64| -> i64 {
        ((measured as i128 - base as i128) * 100 / base.max(1) as i128) as i64
    };

    let expect = run();
    let base_ns = time_min3(&run, expect);
    let disabled_ns = time_min3(&run, expect);

    assert!(bs_telemetry::prof::start(99), "sampler must start for the overhead probe");
    let hz99_ns = time_min3(&run, expect);
    bs_telemetry::prof::stop();
    let (busy, _, _, ticks) = bs_telemetry::prof::sample_counts();
    assert!(ticks > 0, "the 99 Hz sampler must have ticked during the probe");
    assert!(busy > 0, "the sampler must have caught the ingest stage on-stack");
    bs_telemetry::prof::reset();

    let disabled_pct = pct(disabled_ns, base_ns);
    let hz99_pct = pct(hz99_ns, base_ns);
    assert!(
        disabled_pct < 15,
        "idle profiler overhead {disabled_pct}% blows even the noise-padded gate \
         (design budget <1%)"
    );
    assert!(
        hz99_pct < 40,
        "99 Hz profiler overhead {hz99_pct}% blows even the noise-padded gate \
         (design budget <5%)"
    );
    [("bench.prof.overhead_pct.disabled", disabled_pct), ("bench.prof.overhead_pct.hz99", hz99_pct)]
}

/// ML training/prediction throughput, columnar fast paths vs retained
/// references, on a fixed-seed dataset shaped like one B-root window
/// (≈600 originators × 22 features × 12 classes). Runs single-threaded
/// (the caller pins the pool) so the ratio isolates the algorithmic
/// speedup. Asserts bit-identical models before recording anything.
fn ml_throughput() -> [(&'static str, i64); 6] {
    use backscatter_core::ml::{Dataset, Forest, ForestParams, Sample, Svm, SvmParams};

    const ROWS: usize = 2400;
    let mut rng = Rng::new(0xB007);
    let mut data = Dataset::new(
        (0..22).map(|i| format!("f{i}")).collect(),
        (0..12).map(|i| format!("c{i}")).collect(),
    );
    for _ in 0..ROWS {
        let label = rng.range(0..12);
        let features: Vec<f64> = (0..22)
            .map(|j| {
                let signal = if j % 12 == label { 1.0 } else { 0.0 };
                signal + rng.range_f64(-0.3..0.3)
            })
            .collect();
        data.push(Sample { features, label });
    }

    let fp = ForestParams { n_trees: 30, ..ForestParams::default() };
    let (forest_fast_rps, fast_forest) = rps(ROWS, || Forest::fit(&data, &fp, 7));
    let (forest_ref_rps, ref_forest) = rps(ROWS, || Forest::fit_reference(&data, &fp, 7));
    assert_eq!(
        fast_forest.to_text(),
        ref_forest.to_text(),
        "columnar forest must persist byte-identically to the reference"
    );

    let sp = SvmParams { max_iters: 30, ..SvmParams::default() };
    let (svm_fast_rps, fast_svm) = rps(ROWS, || Svm::fit(&data, &sp, 7));
    let (svm_ref_rps, ref_svm) = rps(ROWS, || Svm::fit_reference(&data, &sp, 7));
    assert_eq!(fast_svm, ref_svm, "Gram-cached SVM must equal the reference bit for bit");

    let xs: Vec<Vec<f64>> = data.samples.iter().map(|s| s.features.clone()).collect();
    let (predict_batch_rps, batch) = rps(xs.len(), || fast_forest.predict_all(&xs));
    let per_row: Vec<usize> = xs.iter().map(|x| fast_forest.predict(x)).collect();
    assert_eq!(batch, per_row, "batch prediction must equal per-row prediction");

    [
        ("bench.ml.rows", ROWS as i64),
        ("bench.ml.forest_fit_fast_rps", forest_fast_rps),
        ("bench.ml.forest_fit_reference_rps", forest_ref_rps),
        ("bench.ml.svm_fit_fast_rps", svm_fast_rps),
        ("bench.ml.svm_fit_reference_rps", svm_ref_rps),
        ("bench.ml.forest_predict_batch_rps", predict_batch_rps),
    ]
}

/// Static-feature matcher throughput on a deterministic mixed corpus of
/// reverse names (rule hits, suffix hits, near-misses, unclassified),
/// packed fast matcher vs the byte-at-a-time reference. Asserts
/// identical classifications before recording anything.
fn static_features_throughput() -> [(&'static str, i64); 2] {
    use backscatter_core::dns::DomainName;
    use backscatter_core::sensor::static_features::{
        classify_name_with_order, classify_name_with_order_reference, MatchOrder,
    };

    const NAMES: usize = 20_000;
    let heads = [
        "mail",
        "mailing",
        "ns1-cache",
        "host1-2-3-4",
        "customer-9",
        "newsletter7",
        "wallet",
        "zxqv77",
        "www",
        "ironport2",
        "a96-7-4-2",
    ];
    let tails = ["example.com", "deploy.akamai.sim", "compute.amazonaws.sim", "bigisp.net"];
    let mut state: u64 = 0xFEA7_0001;
    let names: Vec<DomainName> = (0..NAMES)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let h = heads[(state >> 16) as usize % heads.len()];
            let t = tails[(state >> 40) as usize % tails.len()];
            DomainName::parse(&format!("{h}.{t}")).expect("corpus names are valid")
        })
        .collect();

    let classify_all = |f: fn(&DomainName, MatchOrder) -> _| {
        names.iter().map(|n| f(n, MatchOrder::LeftmostFirst) as usize).collect::<Vec<_>>()
    };
    let (fast_rps, fast) = rps(NAMES, || classify_all(classify_name_with_order));
    let (ref_rps, reference) = rps(NAMES, || classify_all(classify_name_with_order_reference));
    assert_eq!(fast, reference, "packed matcher must equal the byte-at-a-time reference");

    [
        ("bench.sensor.static_features_rps", fast_rps),
        ("bench.sensor.static_features_reference_rps", ref_rps),
    ]
}

/// Deterministic querier metadata for the extraction benchmarks:
/// reverse names synthesized (and re-parsed) per call across every
/// `NameOutcome` variant and several keyword categories, AS and
/// country derived from address bits with `None` gaps. The per-call
/// allocation is the point — resolution is the expensive step the
/// qmeta plane memoizes, so the provider must cost something.
pub struct SynthQuerierInfo;

impl backscatter_core::sensor::QuerierInfo for SynthQuerierInfo {
    fn querier_name(&self, a: Ipv4Addr) -> backscatter_core::netsim::types::NameOutcome {
        use backscatter_core::dns::DomainName;
        use backscatter_core::netsim::types::NameOutcome;
        let x = u32::from(a);
        let name = |s: String| NameOutcome::Name(DomainName::parse(&s).expect("valid name"));
        match x % 7 {
            0 => NameOutcome::NxDomain,
            1 => NameOutcome::Unreachable,
            2 => name(format!("mail{}.example.com", x % 50)),
            3 => name(format!("ns{}.isp.net", x % 20)),
            4 => name(format!("host-{}-{}.bigisp.net", (x >> 8) & 0xff, x & 0xff)),
            5 => name(format!("a{}.deploy.akamai.sim", x % 97)),
            _ => name(format!("zx{}.example.org", x % 1000)),
        }
    }
    fn querier_as(&self, a: Ipv4Addr) -> Option<backscatter_core::netsim::types::AsId> {
        let x = u32::from(a);
        (x % 11 != 0).then_some(backscatter_core::netsim::types::AsId((x >> 6) % 300))
    }
    fn querier_country(&self, a: Ipv4Addr) -> Option<backscatter_core::netsim::types::CountryCode> {
        let x = u32::from(a);
        (x % 13 != 0).then(|| {
            backscatter_core::netsim::types::CountryCode([
                b'a' + ((x >> 3) % 26) as u8,
                b'a' + ((x >> 9) % 26) as u8,
            ])
        })
    }
}

/// A high-overlap extraction workload: `originators` footprints drawn
/// from a shared pool of `pool` queriers — the regime the paper
/// describes (shared resolver infrastructure) and the one the qmeta
/// plane targets. Returns the ingested window.
pub fn overlap_observations(originators: u32, footprint: usize, pool: u32) -> Observations {
    let mut state: u64 = 0xE17A_00C7;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    let mut log = QueryLog::new();
    let mut t = 0u64;
    for o in 0..originators {
        for _ in 0..footprint {
            let q = next() as u32 % pool;
            t += 1;
            log.push(QueryLogRecord {
                time: SimTime(t % 50_000),
                querier: Ipv4Addr::from(0x0A00_0000 | q),
                originator: Ipv4Addr::from(0xC000_0000 | o),
                rcode: Rcode::NoError,
            });
        }
    }
    Observations::ingest(&log, SimTime::ZERO, SimTime(50_001))
}

/// Feature-extraction throughput, qmeta-table fast path vs the
/// retained per-pair reference, plus the warm-cache path (second
/// window over the same querier population). Denominated in
/// (originator, querier) **pairs** — the Σ-footprints unit the
/// reference's work scales with — so the fast/reference ratio reads
/// directly as the O(Σ footprints) → O(unique queriers) win. Asserts
/// both fast paths' output equals the reference's before recording
/// anything. Runs single-threaded (the caller pins the pool) so the
/// ratio isolates the algorithmic speedup.
fn extract_throughput() -> [(&'static str, i64); 4] {
    use backscatter_core::sensor::qmeta::QuerierMetaCache;
    use backscatter_core::sensor::{
        extract_from_observations, extract_from_observations_reference, extract_with_meta_cache,
    };

    let obs = overlap_observations(1_500, 80, 3_000);
    let config = FeatureConfig { min_queriers: 1, top_n: None };
    let pairs: usize = obs.per_originator.values().map(|o| o.querier_count()).sum();

    let (fast_rps, fast) =
        rps(pairs, || extract_from_observations(&obs, &SynthQuerierInfo, &config));
    let (reference_rps, reference) =
        rps(pairs, || extract_from_observations_reference(&obs, &SynthQuerierInfo, &config));
    assert_eq!(fast, reference, "fast extraction must equal the per-pair reference");

    let mut cache = QuerierMetaCache::default();
    let cold = extract_with_meta_cache(&obs, &SynthQuerierInfo, &config, Some(&mut cache));
    assert_eq!(cold, reference, "cold-cache extraction must equal the reference");
    let (warm_rps, warm) =
        rps(pairs, || extract_with_meta_cache(&obs, &SynthQuerierInfo, &config, Some(&mut cache)));
    assert_eq!(warm, reference, "warm-cache extraction must be cache-invariant");
    assert!(cache.hits() > 0, "the warm run must have hit the cache");

    [
        ("bench.sensor.extract_pairs", pairs as i64),
        ("bench.sensor.extract_fast_rps", fast_rps),
        ("bench.sensor.extract_reference_rps", reference_rps),
        ("bench.sensor.extract_warm_cache_rps", warm_rps),
    ]
}

/// Run the full measurement suite and publish every number as a
/// `bench.*` gauge in the (enabled, freshly reset) global registry.
/// Panics if any fast path diverges from its reference or any run
/// classifies differently — the determinism contract gates every
/// recorded number.
pub fn measure_all() -> MeasureSummary {
    let world = backscatter_core::netsim::world::World::new(WorldConfig::default());

    // Baseline: telemetry compiled in but disabled (the default state).
    backscatter_core::telemetry::disable();

    // Ingest throughput first, while telemetry is off, so the sensor's
    // window-flush counters from the synthetic log don't leak into the
    // pipeline snapshot below.
    let ingest_gauges = ingest_throughput();

    // ML throughput, also while telemetry is off, pinned to one thread
    // so the fast/reference ratios measure the algorithms, not the
    // pool. Restore the default width afterwards.
    backscatter_core::par::set_threads(1);
    let ml_gauges = ml_throughput();
    backscatter_core::par::set_threads(0);

    // Static-feature matcher throughput (single-threaded by nature:
    // one tight loop over the name corpus).
    let static_gauges = static_features_throughput();

    // Extraction throughput, also pinned to one thread: both paths
    // parallelize over originators identically, so the single-thread
    // ratio is the pure O(Σ footprints) → O(unique) algorithmic win.
    backscatter_core::par::set_threads(1);
    let extract_gauges = extract_throughput();
    backscatter_core::par::set_threads(0);

    // Sharded-ingest scaling curve, still with telemetry off; sizes
    // the pool per lane count and restores the default width after.
    let scaling_gauges = scaling_throughput();

    // Profiler overhead probe, also with telemetry off: idle gating
    // cost and the 99 Hz sampling tax on the streaming hot loop.
    let prof_gauges = prof_overhead();

    let t0 = Instant::now();
    let classified_off = run_pipeline(&world);
    let off_ms = t0.elapsed().as_millis() as i64;

    // Sequential run: one thread, telemetry on.
    backscatter_core::telemetry::reset();
    backscatter_core::telemetry::enable();
    backscatter_core::par::set_threads(1);
    let t0 = Instant::now();
    let classified_seq = run_pipeline(&world);
    let seq_ms = t0.elapsed().as_millis() as i64;

    // Traced run: default width with the bs-trace flight recorder and
    // conservation ledger on — bounds the cost of `--trace` itself
    // (compare wall_ms_trace_enabled against wall_ms_enabled).
    backscatter_core::par::set_threads(0);
    bs_telemetry::trace::enable();
    bs_telemetry::trace::drain();
    bs_telemetry::ledger::reset();
    let t0 = Instant::now();
    let classified_traced = run_pipeline(&world);
    let traced_ms = t0.elapsed().as_millis() as i64;
    let trace_events = bs_telemetry::trace::drain().len();
    assert!(
        bs_telemetry::ledger::verify().is_empty(),
        "traced run must balance the drop-accounting ledger"
    );
    bs_telemetry::ledger::reset();
    bs_telemetry::trace::disable();

    // Parallel run: default width (BS_THREADS / all cores). This is
    // the snapshot that gets written, so its telemetry is the record.
    backscatter_core::telemetry::reset();
    let threads = backscatter_core::par::threads();
    let t0 = Instant::now();
    let classified_par = run_pipeline(&world);
    let par_ms = t0.elapsed().as_millis() as i64;

    assert_eq!(classified_par, classified_off, "telemetry must not change results");
    assert_eq!(
        classified_par, classified_seq,
        "parallel output must be bit-identical to sequential"
    );
    assert_eq!(classified_par, classified_traced, "tracing must not change results");

    backscatter_core::telemetry::gauge_set("bench.pipeline.wall_ms_disabled", off_ms);
    backscatter_core::telemetry::gauge_set("bench.pipeline.wall_ms_enabled", par_ms);
    backscatter_core::telemetry::gauge_set("bench.pipeline.wall_ms_sequential", seq_ms);
    backscatter_core::telemetry::gauge_set("bench.pipeline.wall_ms_parallel", par_ms);
    backscatter_core::telemetry::gauge_set("bench.pipeline.threads", threads as i64);
    // `--trace` overhead: same pipeline at the same width with the
    // flight recorder + ledger on vs off (wall_ms_enabled).
    backscatter_core::telemetry::gauge_set("bench.pipeline.wall_ms_trace_enabled", traced_ms);
    backscatter_core::telemetry::gauge_set("bench.pipeline.trace_events", trace_events as i64);
    // Ingest-engine throughput: records/second, `bs-fastmap` fast path
    // vs the retained BTree reference, batch and streaming.
    for (name, value) in ingest_gauges {
        backscatter_core::telemetry::gauge_set(name, value);
    }
    // ML throughput: rows/second trained (and rows/second classified),
    // `bs-mlcore` columnar fast paths vs the retained references.
    for (name, value) in ml_gauges {
        backscatter_core::telemetry::gauge_set(name, value);
    }
    // Static-feature matcher: names/second, packed matcher
    // vs the byte-at-a-time reference, equivalence-asserted.
    for (name, value) in static_gauges {
        backscatter_core::telemetry::gauge_set(name, value);
    }
    // Feature extraction: (originator, querier) pairs/second, qmeta
    // metadata plane (cold and warm cache) vs the per-pair reference,
    // equivalence-asserted.
    for (name, value) in extract_gauges {
        backscatter_core::telemetry::gauge_set(name, value);
    }
    // Sharded-ingest scaling: streaming rps at 1/2/4/8 lanes plus the
    // 1→4 parallel-efficiency summary, equivalence-asserted per count.
    for (name, value) in &scaling_gauges {
        backscatter_core::telemetry::gauge_set(name, *value);
    }
    // Profiler overhead: integer-percent wall-time deltas on the
    // streaming hot loop, idle and at 99 Hz (budget: <1% / <5%).
    for (name, value) in prof_gauges {
        backscatter_core::telemetry::gauge_set(name, value);
    }

    MeasureSummary {
        classified: classified_par.iter().sum(),
        wall_ms_sequential: seq_ms,
        wall_ms_parallel: par_ms,
        threads,
    }
}

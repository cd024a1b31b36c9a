//! The chain under test, from capture bytes (or decoded records) to
//! per-window verdict rows, through the shipped public API only.
//!
//! [`driver_pass`] is what the end-to-end metrics time: the shipped
//! `run_live_stream_extracting` driver with classification in its
//! window callback. [`own_loop_pass`] makes the same public calls one
//! by one so that a span can sit around each; the two must produce the
//! same verdict digest.

use crate::gen::{Generator, Inputs, Shape, MIN_QUERIERS, TRAIN_PER_CLASS};
use crate::oracle::{check_capture, Checker, FlipVerdict, Oracle, PassReport};
use crate::rng::hash3;
use crate::trace::{Off, Spans};
use backscatter_core::classify::pipeline::feature_map;
use backscatter_core::classify::{ClassifierPipeline, LabeledSet, TrainedClassifier};
use backscatter_core::dns::SimDuration;
use backscatter_core::netsim::capture::{read_capture, CaptureStats};
use backscatter_core::netsim::{QueryLog, QueryLogRecord, World, WorldConfig};
use backscatter_core::par;
use backscatter_core::sensor::{
    extract_with_meta_cache, FeatureConfig, OriginatorFeatures, QuerierMetaCache,
    ShardedStreamingSensor, StreamConfig, StreamingSensor, WindowSummary,
};
use backscatter_core::stream::{resolve_shards, run_live_stream_extracting};
use std::collections::BTreeSet;
use std::time::Instant;

pub const FEATURES: FeatureConfig = FeatureConfig { min_queriers: MIN_QUERIERS, top_n: None };

pub fn stream_config(shape: &Shape) -> StreamConfig {
    StreamConfig {
        window: SimDuration::from_secs(shape.window_secs),
        max_originators: shape.max_originators,
        ..StreamConfig::default()
    }
}

/// The shipped pool width: every core, capped at 4.
pub fn default_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// Everything set-up produces.
pub struct Context {
    pub shape: &'static Shape,
    pub seed: u64,
    pub world: World,
    pub inputs: Inputs,
    /// The train-once model; `None` for a retraining workload.
    pub model: Option<TrainedClassifier>,
}

/// One set-up at one thread: the world, the target pools, the records,
/// the capture encoding, and the train-once model where the workload
/// has one. Returns the context and the seconds it took.
pub fn set_up(shape: &'static Shape, seed: u64) -> (Context, f64) {
    par::set_threads(1);
    let started = Instant::now();
    let world = World::new(WorldConfig::default());
    let generator = Generator::new(shape, seed, &world);
    let inputs = generator.inputs();
    let model = (!shape.retrain).then(|| train_once(shape, seed, &world, &generator));
    let secs = started.elapsed().as_secs_f64();
    (Context { shape, seed, world, inputs, model }, secs)
}

/// Curate [`TRAIN_PER_CLASS`] examples per class from a training stream
/// of the same traffic and fit the paper's 10-vote forest on them.
fn train_once(
    shape: &'static Shape,
    seed: u64,
    world: &World,
    generator: &Generator,
) -> TrainedClassifier {
    let training = generator.training();
    let mut observed: Vec<OriginatorFeatures> = Vec::new();
    let mut cache = QuerierMetaCache::default();
    run_live_stream_extracting(
        &training.records,
        stream_config(shape),
        0,
        None,
        0,
        world,
        &FEATURES,
        &mut cache,
        |_, features| observed.extend_from_slice(features),
    );
    let labelled = LabeledSet::curate(&training.truth, &observed, TRAIN_PER_CLASS);
    ClassifierPipeline::random_forest()
        .train(&labelled, &feature_map(&observed), seed)
        .expect("the training stream holds every class")
}

/// Counts that repeat exactly from pass to pass, taken once.
#[derive(Debug, Clone, Default)]
pub struct WindowCounts {
    pub records_in: u64,
    pub stored: u64,
    pub originators: u64,
    pub evicted: u64,
    pub unique_queriers: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// (originator, querier) pairs of the analyzable originators.
    pub pairs: u64,
    pub originators_out: u64,
    /// Unique queriers that belong to an analyzable originator.
    pub useful_queriers: u64,
    pub train_samples: u64,
}

/// What the first own-loop pass keeps for the counters and the probes.
#[derive(Default)]
pub struct Harvest {
    pub windows: Vec<WindowCounts>,
    /// A few windows' summaries and features, cloned for the probes.
    pub samples: Vec<(WindowSummary, Vec<OriginatorFeatures>)>,
}

pub struct PassOutcome {
    pub secs: f64,
    pub report: PassReport,
}

/// Classify one closed window and hold it against the oracle.
fn close_window<S: Spans>(
    ctx: &Context,
    summary: &WindowSummary,
    features: &[OriginatorFeatures],
    checker: &mut Checker,
    spans: &mut S,
    counts: Option<&mut WindowCounts>,
) {
    spans.enter("classify.predict");
    let map = feature_map(features);
    spans.exit();
    // The span opens whether or not the workload retrains, so the time
    // the chain spends on training is always a measurement, never a
    // constant zero.
    spans.enter("classify.train");
    let retrained = ctx.shape.retrain.then(|| {
        let window = checker.report.attempted as u64;
        ClassifierPipeline::random_forest().train(
            &ctx.inputs.labelled,
            &map,
            hash3(ctx.seed, 0x7EA1, window),
        )
    });
    spans.exit();
    let model = match &retrained {
        Some(fitted) => fitted.as_ref(),
        None => ctx.model.as_ref(),
    };
    spans.enter("classify.predict");
    let verdicts = model.map(|m| m.classify_all(&map));
    spans.exit();
    spans.enter("oracle.check");
    checker.window(summary, features, verdicts.as_ref());
    if let Some(c) = counts {
        let obs = &summary.observations;
        c.stored = obs.per_originator.values().map(|o| o.queries.len() as u64).sum();
        c.originators = obs.per_originator.len() as u64;
        c.evicted = summary.evicted as u64;
        c.unique_queriers = obs.all_queriers.len() as u64;
        c.pairs = features.iter().map(|f| f.querier_count as u64).sum();
        c.originators_out = features.len() as u64;
        let mut useful = BTreeSet::new();
        for f in features {
            useful.extend(obs.per_originator[&f.originator].queriers.iter().copied());
        }
        c.useful_queriers = useful.len() as u64;
        c.train_samples = if ctx.shape.retrain {
            ctx.inputs.labelled.examples.iter().filter(|e| map.contains_key(&e.originator)).count()
                as u64
        } else {
            0
        };
    }
    spans.exit();
    spans.enter("chain.release");
    drop(verdicts);
    drop(map);
    spans.exit();
}

/// Decode the capture when the workload has one. The recovered log is
/// returned so the caller can check it after the clock has stopped.
fn front_door<S: Spans>(ctx: &Context, spans: &mut S) -> Option<(QueryLog, CaptureStats)> {
    let capture = ctx.inputs.capture.as_ref()?;
    spans.enter("netsim.capture");
    let read = read_capture(&capture.bytes).ok();
    spans.exit();
    read
}

/// What reaches the sensor: the generated records, or what the capture
/// reader recovered. An unreadable capture yields nothing, and every
/// window then counts as failed.
fn sensor_input<'a>(
    ctx: &'a Context,
    recovered: &'a Option<(QueryLog, CaptureStats)>,
) -> &'a [QueryLogRecord] {
    match (&ctx.inputs.capture, recovered) {
        (None, _) => &ctx.inputs.records,
        (Some(_), Some((log, _))) => log.records(),
        (Some(_), None) => &[],
    }
}

fn finish_pass(
    ctx: &Context,
    oracle: &Oracle,
    checker: Checker,
    reference: Option<&[u64]>,
    recovered: Option<(QueryLog, CaptureStats)>,
    secs: f64,
) -> PassOutcome {
    let mut report = checker.finish(reference);
    if let (Some(capture), Some((log, stats))) = (&ctx.inputs.capture, &recovered) {
        report.failed.extend(check_capture(
            oracle,
            &ctx.inputs.records,
            log.records(),
            stats,
            capture,
        ));
        report.failed.sort_unstable();
        report.failed.dedup();
    }
    PassOutcome { secs, report }
}

/// One pass through the shipped driver, tracing off. `reference` holds
/// the first pass's per-window digests, which this pass must repeat.
pub fn driver_pass(
    ctx: &Context,
    oracle: &Oracle,
    reference: Option<&[u64]>,
    flip: Option<FlipVerdict>,
) -> PassOutcome {
    let mut checker = Checker::new(oracle, flip);
    let started = Instant::now();
    let recovered = front_door(ctx, &mut Off);
    let records = sensor_input(ctx, &recovered);
    let mut cache = QuerierMetaCache::default();
    run_live_stream_extracting(
        records,
        stream_config(ctx.shape),
        0,
        None,
        0,
        &ctx.world,
        &FEATURES,
        &mut cache,
        |summary, features| close_window(ctx, summary, features, &mut checker, &mut Off, None),
    );
    let secs = started.elapsed().as_secs_f64();
    finish_pass(ctx, oracle, checker, reference, recovered, secs)
}

/// The two ingest engines, chosen as the shipped driver chooses.
pub enum Engine {
    Single(Box<StreamingSensor>),
    Sharded(Box<ShardedStreamingSensor>),
}

impl Engine {
    pub fn pick(config: StreamConfig) -> Engine {
        match resolve_shards(0) {
            1 => Engine::Single(Box::new(StreamingSensor::new(config))),
            n => Engine::Sharded(Box::new(ShardedStreamingSensor::new(config, n))),
        }
    }

    pub fn push(&mut self, r: QueryLogRecord) -> Option<WindowSummary> {
        match self {
            Engine::Single(s) => s.push(r),
            Engine::Sharded(s) => s.push(r),
        }
    }

    pub fn finish(self) -> Option<WindowSummary> {
        match self {
            Engine::Single(s) => s.finish(),
            Engine::Sharded(s) => s.finish(),
        }
    }
}

/// One pass through the benchmark's own loop over the same public
/// calls, with a span around each.
pub fn own_loop_pass<S: Spans>(
    ctx: &Context,
    oracle: &Oracle,
    reference: Option<&[u64]>,
    spans: &mut S,
    mut harvest: Option<&mut Harvest>,
) -> PassOutcome {
    let mut checker = Checker::new(oracle, None);
    let started = Instant::now();
    spans.enter("chain.pass");
    let recovered = front_door(ctx, spans);
    let records = sensor_input(ctx, &recovered);
    let window_secs = ctx.shape.window_secs;
    let mut cache = QuerierMetaCache::default();
    let mut engine = Engine::pick(stream_config(ctx.shape));
    let mut pushed = 0u64;

    let mut close = |summary: WindowSummary,
                     pushed: u64,
                     spans: &mut S,
                     checker: &mut Checker,
                     cache: &mut QuerierMetaCache| {
        let (hits, misses) = (cache.hits(), cache.misses());
        spans.enter("sensor.extract");
        let features =
            extract_with_meta_cache(&summary.observations, &ctx.world, &FEATURES, Some(cache));
        spans.exit();
        let mut counts = harvest.as_ref().map(|_| WindowCounts {
            records_in: pushed,
            cache_hits: cache.hits() - hits,
            cache_misses: cache.misses() - misses,
            ..WindowCounts::default()
        });
        close_window(ctx, &summary, &features, checker, spans, counts.as_mut());
        if let (Some(h), Some(c)) = (harvest.as_deref_mut(), counts) {
            // First, middle and last window: enough variety for the probes.
            let n = oracle.windows.len();
            if [0, n / 2, n - 1].contains(&h.windows.len()) {
                h.samples.push((summary.clone(), features.clone()));
            }
            h.windows.push(c);
        }
        spans.enter("chain.release");
        drop(features);
        drop(summary);
        spans.exit();
    };

    // The benchmark knows its own window grid: the record that crosses
    // a boundary is the call that flushes, so it is timed as the flush.
    let mut window_end = records.first().map_or(0, |r| {
        let t = r.time.secs();
        t - t % window_secs + window_secs
    });
    spans.enter("chain.window");
    spans.enter("sensor.ingest.push");
    for r in records {
        let t = r.time.secs();
        let crossing = t >= window_end;
        if crossing {
            spans.exit();
            spans.enter("sensor.ingest.flush");
        }
        let summary = engine.push(*r);
        if crossing {
            spans.exit();
        }
        if let Some(summary) = summary {
            close(summary, pushed, spans, &mut checker, &mut cache);
        }
        if crossing {
            spans.exit();
            pushed = 0;
            window_end = t - t % window_secs + window_secs;
            spans.enter("chain.window");
            spans.enter("sensor.ingest.push");
        }
        pushed += 1;
    }
    spans.exit();
    spans.enter("sensor.ingest.flush");
    let summary = engine.finish();
    spans.exit();
    if let Some(summary) = summary {
        close(summary, pushed, spans, &mut checker, &mut cache);
    }
    spans.exit();
    spans.exit();
    let secs = started.elapsed().as_secs_f64();
    finish_pass(ctx, oracle, checker, reference, recovered, secs)
}

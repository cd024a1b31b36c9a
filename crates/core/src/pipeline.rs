//! The end-to-end operational pipeline.
//!
//! This is the paper's recommended deployment (§V-F): sense every
//! window in one pass over the log ([`sense_dataset`]), curate a
//! labeled set from expert knowledge once, then, window by window,
//! retrain on the fixed labels with that window's fresh features and
//! classify every analyzable originator.

use crate::stream::run_live_stream;
use bs_analysis::{ClassifiedOriginator, WindowClassification};
use bs_classify::{pipeline::feature_map, ClassifierPipeline, LabeledSet, PER_CLASS_CAP};
use bs_datasets::BuiltDataset;
use bs_netsim::world::World;
use bs_sensor::{extract_with_meta_cache, FeatureConfig, OriginatorFeatures, StreamConfig};

/// Sense every window of `built` once, in order: one [`run_live_stream`]
/// pass over the time-ordered log with the spec's window length and an
/// unbounded table. Windows the spec does not observe (a tail, the gaps
/// of a strided spec) are not extracted, a spec window the stream never
/// emits gets an empty set, and extraction shares one metadata cache
/// across windows, each under its own ledger scope.
pub fn sense_dataset(
    built: &BuiltDataset,
    world: &World,
    config: &FeatureConfig,
) -> Vec<Vec<OriginatorFeatures>> {
    let windows = built.windows();
    let mut features = vec![Vec::new(); windows.len()];
    let Some(&(start, end)) = windows.first() else { return features };
    let window = end.since(start);
    let stream = StreamConfig { window, max_originators: usize::MAX, ..Default::default() };
    let grid = stream.resolved_window().secs();
    assert!(
        windows.iter().all(|(s, e)| e.since(*s).secs() == grid && s.secs().is_multiple_of(grid)),
        "a spec window is not a window of the sensor's {grid} s grid"
    );
    let mut cache = bs_sensor::QuerierMetaCache::default();
    run_live_stream(built.log.records(), stream, 0, None, 0, |w| {
        let Ok(i) = windows.binary_search(&w.window) else { return };
        let _window = bs_telemetry::ledger::window_scope(w.window.0.secs());
        features[i] = extract_with_meta_cache(&w.observations, world, config, Some(&mut cache));
    });
    features
}

/// Training seed; window `w` retrains on `SEED ^ w << 16`.
const SEED: u64 = 0x9_0210;

/// Configuration of the end-to-end pipeline.
pub struct DatasetPipeline {
    /// Learner configuration (defaults to the paper's RF with 10-run
    /// majority voting).
    pub classifier: ClassifierPipeline,
    /// Which windows the expert curates from. `[0]` is the single-pass
    /// default; for long feeds the paper merges several curations
    /// ("a single labeled dataset with candidates taken from three
    /// dates, each about a month apart").
    pub curation_windows: Vec<usize>,
}

impl Default for DatasetPipeline {
    fn default() -> Self {
        DatasetPipeline {
            classifier: ClassifierPipeline::random_forest(),
            curation_windows: vec![0],
        }
    }
}

/// The output of one pipeline run.
pub struct PipelineRun {
    /// Per-window classifications (ground-truth-free output).
    pub windows: Vec<WindowClassification>,
    /// The curated label set used throughout.
    pub labels: LabeledSet,
}

impl DatasetPipeline {
    /// Run over every window of a built dataset, given its sensed
    /// `features` (one set per window, from [`sense_dataset`]):
    /// curate from the curation windows' features, then retrain per
    /// window on the fixed labels and classify all analyzable
    /// originators.
    pub fn run(&self, built: &BuiltDataset, features: &[Vec<OriginatorFeatures>]) -> PipelineRun {
        let windows = built.windows();
        assert!(!windows.is_empty());
        assert_eq!(features.len(), windows.len(), "one feature set per window");

        // Expert curation, possibly merged over several dates.
        let mut labels = LabeledSet::default();
        {
            let _stage = bs_telemetry::stage("core.curate");
            for &cw in &self.curation_windows {
                let Some(feats) = features.get(cw) else { continue };
                let truth = built.truth_for_window(windows[cw]);
                labels.merge(&LabeledSet::curate(&truth, feats, PER_CLASS_CAP));
            }
        }
        bs_telemetry::info!(
            "core.pipeline",
            "curated label set";
            examples = labels.len(),
            windows = windows.len(),
        );

        // Given the fixed label set each window retrains on a
        // window-derived seed and classifies its own originators. With
        // a single window the parallelism moves down into training
        // (nested regions run sequentially inside pool workers).
        let out: Vec<WindowClassification> = bs_par::par_map(&windows, |w, window| {
            let _wscope = bs_telemetry::ledger::window_scope(window.0.secs());
            let _stage = bs_telemetry::stage("core.window");
            let feats = &features[w];
            let fmap = feature_map(feats);
            let model = {
                let _stage = bs_telemetry::stage("core.retrain");
                self.classifier.train(&labels, &fmap, SEED ^ (w as u64) << 16)
            };
            let entries = match model {
                Some(model) => {
                    let _stage = bs_telemetry::stage("core.classify");
                    let classes = model.classify_all(&fmap);
                    let entries: Vec<ClassifiedOriginator> = feats
                        .iter()
                        .map(|f| ClassifiedOriginator {
                            originator: f.originator,
                            queriers: f.querier_count,
                            class: classes[&f.originator],
                        })
                        .collect();
                    bs_telemetry::counter_add("core.originators_classified", entries.len() as u64);
                    entries
                }
                None => {
                    bs_telemetry::warn!(
                        "core.pipeline",
                        "window untrainable, emitting no classifications";
                        window = w,
                    );
                    Vec::new()
                }
            };
            bs_telemetry::counter_add("core.windows", 1);
            // Conservation per window: every analyzable originator is
            // either classified or lost to an untrainable window.
            bs_telemetry::ledger::record(
                "core.window",
                feats.len() as u64,
                &[
                    ("classified", entries.len() as u64),
                    ("untrainable", (feats.len() - entries.len()) as u64),
                ],
            );
            WindowClassification { window: w, entries }
        });
        PipelineRun { windows: out, labels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_datasets::{build_dataset, DatasetId, DatasetSpec, Scale};
    use bs_netsim::world::WorldConfig;

    #[test]
    fn pipeline_classifies_a_smoke_dataset() {
        // Sensing streams on the shared pool and books sensor counters.
        let _serial = crate::serial();
        let world = World::new(WorldConfig::default());
        let built = build_dataset(&world, DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 9));
        let features = sense_dataset(
            &built,
            &world,
            &FeatureConfig { min_queriers: 10, ..Default::default() },
        );
        let mut pipeline = DatasetPipeline::default();
        bs_telemetry::enable();
        let predicted = bs_telemetry::registry().counter("ml.predict.samples");
        let walked = bs_telemetry::registry().counter("ml.predict.tree_rows");
        let before = predicted.get();
        let walked_before = walked.get();
        // Cheap learner for the test.
        pipeline.classifier = ClassifierPipeline {
            algorithm: bs_ml::Algorithm::Cart(bs_ml::CartParams::default()),
            runs: 1,
        };
        let run = pipeline.run(&built, &features);
        bs_telemetry::disable();
        assert_eq!(run.windows.len(), 1);
        assert!(!run.labels.is_empty());
        assert!(!run.windows[0].entries.is_empty());
        // Classified classes are plausible: mostly ones with labels.
        let labeled_classes: std::collections::BTreeSet<_> =
            run.labels.examples.iter().map(|e| e.class).collect();
        let hit =
            run.windows[0].entries.iter().filter(|e| labeled_classes.contains(&e.class)).count();
        assert!(hit * 10 >= run.windows[0].entries.len() * 9);
        // Every verdict came out of the blocked descent the benchmark
        // measures (`Model::predict_block` is what counts samples).
        let rows = run.windows[0].entries.len() as u64;
        assert!(predicted.get() - before >= rows);
        // One model of one tree walks every row once: nothing to exit.
        assert_eq!(walked.get() - walked_before, predicted.get() - before);
    }

    /// The batch vote's early exit, counted: a confident forest
    /// ensemble walks fewer tree descents than trees × rows, and asks
    /// its member models about at most rows × runs rows.
    #[test]
    fn decided_rows_stop_walking_trees() {
        let _serial = crate::serial();
        let world = World::new(WorldConfig::default());
        let built = build_dataset(&world, DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 9));
        let features = sense_dataset(
            &built,
            &world,
            &FeatureConfig { min_queriers: 10, ..Default::default() },
        );
        let mut pipeline = DatasetPipeline::default();
        let (n_trees, runs) = (24, 4);
        pipeline.classifier = ClassifierPipeline {
            algorithm: bs_ml::Algorithm::RandomForest(bs_ml::ForestParams {
                n_trees,
                ..Default::default()
            }),
            runs,
        };
        bs_telemetry::enable();
        let asked = bs_telemetry::registry().counter("ml.predict.samples");
        let walked = bs_telemetry::registry().counter("ml.predict.tree_rows");
        let (asked_before, walked_before) = (asked.get(), walked.get());
        let run = pipeline.run(&built, &features);
        bs_telemetry::disable();
        let rows = run.windows[0].entries.len() as u64;
        assert!(rows > 0);
        let asked = asked.get() - asked_before;
        let walked = walked.get() - walked_before;
        assert!((rows..=rows * runs as u64).contains(&asked), "{asked} asked of {rows} rows");
        assert!(walked < rows * (n_trees * runs) as u64, "{walked} descents for {rows} rows");
    }
}

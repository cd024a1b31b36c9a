//! What every experiment runs against: one world, one `(Scale, seed)`,
//! and an in-process memo of everything more than one experiment needs
//! (built datasets, their per-window features, the classification and
//! ground-truth series), so a full run builds each of them once.

use backscatter_core::classify::pipeline::feature_map;
use backscatter_core::classify::{WindowData, PER_CLASS_CAP};
use backscatter_core::datasets::build::assemble_with_log;
use backscatter_core::ml::Dataset;
use backscatter_core::netsim::log::QueryLog;
use backscatter_core::netsim::types::ContactKind;
use backscatter_core::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// One slot per [`DatasetId`], filled on first use.
type Memo<T> = [OnceLock<T>; DatasetId::ALL.len()];

/// The six case-study roles of the paper's §IV-A (Fig. 3 / Table II).
pub(crate) const CASE_STUDIES: [&str; 6] =
    ["scan-icmp", "scan-ssh", "ad-track", "cdn", "mail", "spam"];

/// Shared state of one experiment run.
pub struct Ctx {
    /// Simulation scale of every dataset.
    pub scale: Scale,
    /// Replica seed of every dataset.
    pub seed: u64,
    /// The one simulated Internet every experiment observes.
    pub world: World,
    log_cache: Option<PathBuf>,
    datasets: Memo<BuiltDataset>,
    features: Memo<Vec<Vec<OriginatorFeatures>>>,
    series: Memo<Vec<WindowClassification>>,
    truth: Memo<Vec<WindowClassification>>,
}

impl Ctx {
    /// A fresh context. Simulated query logs are kept across processes
    /// under `log_cache` when one is given.
    pub fn new(scale: Scale, seed: u64, log_cache: Option<PathBuf>) -> Ctx {
        Ctx {
            scale,
            seed,
            world: World::new(WorldConfig::default()),
            log_cache,
            datasets: Default::default(),
            features: Default::default(),
            series: Default::default(),
            truth: Default::default(),
        }
    }

    /// Repetition count for a protocol the paper runs `standard` times:
    /// the paper's count at standard scale, a handful at smoke.
    pub(crate) fn reps(&self, standard: usize) -> usize {
        ((standard as f64 * self.scale.duration_scale).ceil() as usize).max(2)
    }

    /// The built dataset: simulated, or assembled around its query log
    /// from the cache (the TSV `bs-netsim` defines, keyed by dataset
    /// and seed; delete the directory to force a rebuild).
    pub fn dataset(&self, id: DatasetId) -> &BuiltDataset {
        self.datasets[id as usize].get_or_init(|| {
            let spec = DatasetSpec::paper(id, self.scale, self.seed);
            let key = format!("{}-s{}", id.name(), self.seed);
            let cached = self.log_cache.as_ref().map(|dir| dir.join(format!("{key}.log.tsv")));
            let read = |path: &PathBuf| QueryLog::from_tsv(&fs::read_to_string(path).ok()?).ok();
            if let Some(log) = cached.as_ref().and_then(read) {
                bs_telemetry::info!("bench", "{key}: using cached log"; records = log.len());
                return assemble_with_log(&self.world, spec, log);
            }
            let t0 = Instant::now();
            let built = build_dataset(&self.world, spec);
            let secs = format!("{:.0}", t0.elapsed().as_secs_f64());
            bs_telemetry::info!("bench", "{key}: simulated"; records = built.log.len(), secs = secs);
            if let Some(path) = &cached {
                let dir = path.parent().expect("a file inside the cache directory");
                let written = fs::create_dir_all(dir).and_then(|()| fs::write(path, built.log.to_tsv()));
                written.expect("write the log cache");
            }
            built
        })
    }

    /// Default-threshold features of every window of a dataset.
    pub fn features(&self, id: DatasetId) -> &[Vec<OriginatorFeatures>] {
        self.features[id as usize]
            .get_or_init(|| sense_dataset(self.dataset(id), &self.world, &FeatureConfig::default()))
    }

    /// Windows the expert curates from: the first for short datasets;
    /// three dates spread over the span for long feeds, like the
    /// paper's recurring M-sampled curation (§V-E).
    pub fn curation_windows(&self, id: DatasetId) -> Vec<usize> {
        match self.dataset(id).windows().len() {
            n if n > 6 => vec![0, n / 3, 2 * n / 3],
            _ => vec![0],
        }
    }

    /// Expert curation of one window: ground truth ∩ observed, capped.
    pub fn curate(&self, id: DatasetId, window: usize) -> LabeledSet {
        let built = self.dataset(id);
        let truth = built.truth_for_window(built.windows()[window]);
        LabeledSet::curate(&truth, &self.features(id)[window], PER_CLASS_CAP)
    }

    /// The curated examples of one window with that window's feature
    /// vectors, as an ML dataset.
    pub fn training_data(&self, id: DatasetId, window: usize) -> Dataset {
        ClassifierPipeline::to_dataset(
            &self.curate(id, window),
            &feature_map(&self.features(id)[window]),
        )
    }

    /// The standard per-window classification of a dataset: curation on
    /// [`Ctx::curation_windows`], daily retraining, RF with majority
    /// voting. The series behind Table V and Figs. 8–15.
    pub fn series(&self, id: DatasetId) -> &[WindowClassification] {
        self.series[id as usize].get_or_init(|| {
            let curation_windows = self.curation_windows(id);
            let pipeline = DatasetPipeline { curation_windows, ..Default::default() };
            let windows = pipeline.run(self.dataset(id), self.features(id)).windows;
            bs_telemetry::info!("bench", "{}: classified", id.name(); windows = windows.len());
            windows
        })
    }

    /// Ground-truth (oracle) series: the same windows, labeled from the
    /// scenario instead of the classifier. Used where the paper itself
    /// uses curated labels (Figs. 5–6).
    pub(crate) fn truth_series(&self, id: DatasetId) -> &[WindowClassification] {
        self.truth[id as usize].get_or_init(|| {
            let built = self.dataset(id);
            let windows = built.windows().into_iter().zip(self.features(id)).enumerate();
            windows
                .map(|(window, (span, feats))| {
                    let truth = built.truth_for_window(span);
                    let labeled = |f: &OriginatorFeatures| {
                        let class = *truth.get(&f.originator)?;
                        Some(ClassifiedOriginator {
                            originator: f.originator,
                            queriers: f.querier_count,
                            class,
                        })
                    };
                    WindowClassification {
                        window,
                        entries: feats.iter().filter_map(labeled).collect(),
                    }
                })
                .collect()
        })
    }

    /// Every window's features, truth and footprints in the shape the
    /// training-over-time replay takes.
    pub fn window_data(&self, id: DatasetId) -> Vec<WindowData> {
        let built = self.dataset(id);
        let windows = built.windows().into_iter().zip(self.features(id));
        windows
            .map(|(span, feats)| WindowData {
                features: feature_map(feats),
                truth: built.truth_for_window(span),
                querier_counts: feats.iter().map(|f| (f.originator, f.querier_count)).collect(),
            })
            .collect()
    }

    /// The paper's six case-study originators on JP-ditl: the
    /// largest-footprint representative of each role. Roles with no
    /// analyzable representative are skipped.
    pub(crate) fn case_studies(&self) -> Vec<(&'static str, &OriginatorFeatures)> {
        let by_ip: BTreeMap<_, _> =
            self.features(DatasetId::JpDitl)[0].iter().map(|f| (f.originator, f)).collect();
        let mut picks: BTreeMap<&'static str, &OriginatorFeatures> = BTreeMap::new();
        for p in self.dataset(DatasetId::JpDitl).scenario.profiles() {
            let case = match p.class {
                ApplicationClass::Scan if p.kinds.contains(&ContactKind::ProbeIcmp) => "scan-icmp",
                ApplicationClass::Scan if p.kinds == [ContactKind::ProbeTcp(22)] => "scan-ssh",
                ApplicationClass::AdTracker => "ad-track",
                ApplicationClass::Cdn => "cdn",
                ApplicationClass::Mail => "mail",
                ApplicationClass::Spam => "spam",
                _ => continue,
            };
            let Some(f) = by_ip.get(&p.originator) else { continue };
            if picks.get(case).is_none_or(|cur| f.querier_count > cur.querier_count) {
                picks.insert(case, f);
            }
        }
        CASE_STUDIES.iter().filter_map(|name| picks.get(name).map(|f| (*name, *f))).collect()
    }
}

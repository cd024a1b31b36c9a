//! Training and applying the originator classifier.

use crate::labels::LabeledSet;
use bs_activity::ApplicationClass;
use bs_ml::{Algorithm, Dataset, Forest, MajorityEnsemble, RowBlock, Sample, BLOCK_ROWS};
use bs_sensor::{FeatureVector, OriginatorFeatures};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Feature vectors keyed by originator.
pub type FeatureMap = BTreeMap<Ipv4Addr, FeatureVector>;

/// Build a feature map from extracted sensor output.
pub fn feature_map(features: &[OriginatorFeatures]) -> FeatureMap {
    features.iter().map(|f| (f.originator, f.features.clone())).collect()
}

/// Configuration of one classifier: algorithm plus the run count for
/// majority voting.
#[derive(Debug, Clone)]
pub struct ClassifierPipeline {
    /// The learning algorithm.
    pub algorithm: Algorithm,
    /// Independent fits to majority-vote over (paper:
    /// [`bs_ml::PAPER_VOTE_RUNS`] for randomized algorithms, 1 for CART).
    pub runs: usize,
}

impl ClassifierPipeline {
    /// The paper's preferred configuration: random forest,
    /// [`bs_ml::PAPER_VOTE_RUNS`] votes.
    pub fn random_forest() -> Self {
        ClassifierPipeline {
            algorithm: Algorithm::RandomForest(bs_ml::ForestParams::default()),
            runs: bs_ml::PAPER_VOTE_RUNS,
        }
    }

    /// Convert labeled examples plus current features into an ML
    /// dataset. Examples without features in the map are skipped.
    pub fn to_dataset(labeled: &LabeledSet, features: &FeatureMap) -> Dataset {
        let mut d = Dataset::new(FeatureVector::names(), ApplicationClass::all_names());
        for e in &labeled.examples {
            if let Some(fv) = features.get(&e.originator) {
                d.push(Sample { features: fv.to_vec(), label: e.class.index() });
            }
        }
        d
    }

    /// Train on the labeled set with current feature values. Returns
    /// `None` when no labeled example has features (training is
    /// impossible — the condition behind the gaps in Fig. 7).
    pub fn train(
        &self,
        labeled: &LabeledSet,
        features: &FeatureMap,
        seed: u64,
    ) -> Option<TrainedClassifier> {
        let _stage = bs_telemetry::stage("classify.train");
        let data = Self::to_dataset(labeled, features);
        // Every labeled example is either trained on or dropped by
        // `to_dataset` for lacking features this window.
        bs_telemetry::ledger::record(
            "classify.train",
            labeled.examples.len() as u64,
            &[
                ("used", data.len() as u64),
                ("missing_features", (labeled.examples.len() - data.len()) as u64),
            ],
        );
        if data.is_empty() || data.present_classes().len() < 2 {
            bs_telemetry::counter_add("classify.untrainable_windows", 1);
            return None;
        }
        let ensemble = MajorityEnsemble::fit(&self.algorithm, &data, self.runs, seed);
        bs_telemetry::counter_add("classify.models_trained", 1);
        Some(TrainedClassifier { ensemble })
    }
}

/// A trained classifier ready to label originators.
pub struct TrainedClassifier {
    ensemble: MajorityEnsemble,
}

impl TrainedClassifier {
    /// Classify one feature vector alone, as a one-row
    /// [`TrainedClassifier::classify_all`].
    #[cfg(test)]
    pub(crate) fn classify(&self, fv: &FeatureVector) -> ApplicationClass {
        let ip = Ipv4Addr::UNSPECIFIED;
        self.classify_all(&FeatureMap::from([(ip, fv.clone())]))[&ip]
    }

    /// Classify every originator in a feature map.
    ///
    /// Originators classify in parallel chunks of one [`RowBlock`]:
    /// each chunk's feature vectors are written once into a block that
    /// the voting forests then walk until each row's vote is decided
    /// (`bs_ml::MajorityEnsemble::predict_block`). A window that fits
    /// one block is classified on the calling thread — at ≈ 10 µs a row
    /// (ten 100-tree forests, `verdict-wide`) the work is smaller than
    /// waking the pool. The result map is identical at
    /// any thread count (it is keyed, and each prediction depends only
    /// on its own feature vector).
    pub fn classify_all(&self, features: &FeatureMap) -> BTreeMap<Ipv4Addr, ApplicationClass> {
        let entries: Vec<(&Ipv4Addr, &FeatureVector)> = features.iter().collect();
        bs_par::par_chunks(&entries, BLOCK_ROWS, |_, chunk| {
            let mut block = RowBlock::new(FeatureVector::LEN);
            for (_, fv) in chunk {
                fv.write_to(block.next_row());
            }
            let mut classes = [0; BLOCK_ROWS];
            self.ensemble.predict_block(&block, &mut classes);
            chunk
                .iter()
                .zip(classes)
                .map(|((ip, _), idx)| {
                    (
                        **ip,
                        ApplicationClass::from_index(idx).expect("model trained on class schema"),
                    )
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

impl TryFrom<Forest> for TrainedClassifier {
    type Error = String;

    /// A saved forest, classifying through the same blocked vote as a
    /// trained ensemble. It must read the sensor's feature vector and
    /// vote only for classes of the schema: a forest from a file is
    /// outside input, and a class past the schema has no name.
    fn try_from(forest: Forest) -> Result<Self, String> {
        let (features, sensor) = (forest.importances().len(), FeatureVector::LEN);
        if features != sensor {
            return Err(format!("model has {features} features, the sensor extracts {sensor}"));
        }
        let (classes, schema) = (forest.n_classes(), ApplicationClass::ALL.len());
        if classes > schema {
            return Err(format!("model has {classes} classes, the class schema has {schema}"));
        }
        Ok(TrainedClassifier { ensemble: forest.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabeledExample;
    use bs_ml::CartParams;
    use bs_sensor::DynamicFeatures;

    /// Synthetic features: spam has mail-fraction 0.9, scan has
    /// nxdomain 0.8 — trivially separable.
    fn fv(mail: f64, nx: f64) -> FeatureVector {
        let mut s = [0.0; 14];
        s[1] = mail; // static:mail
        s[13] = nx; // static:nxdomain
        s[11] = 1.0 - mail - nx; // other
        FeatureVector { static_fractions: s, dynamic: DynamicFeatures::default() }
    }

    fn setup() -> (LabeledSet, FeatureMap) {
        let mut features = FeatureMap::new();
        let mut examples = Vec::new();
        for i in 0..15u8 {
            let ip: Ipv4Addr = format!("10.0.0.{i}").parse().unwrap();
            features.insert(ip, fv(0.9, 0.02));
            examples.push(LabeledExample { originator: ip, class: ApplicationClass::Spam });
            let ip2: Ipv4Addr = format!("10.0.1.{i}").parse().unwrap();
            features.insert(ip2, fv(0.05, 0.8));
            examples.push(LabeledExample { originator: ip2, class: ApplicationClass::Scan });
        }
        (LabeledSet { examples }, features)
    }

    #[test]
    fn train_and_classify_round_trip() {
        let (labeled, features) = setup();
        let pipe =
            ClassifierPipeline { algorithm: Algorithm::Cart(CartParams::default()), runs: 1 };
        let model = pipe.train(&labeled, &features, 1).expect("trainable");
        assert_eq!(model.classify(&fv(0.85, 0.05)), ApplicationClass::Spam);
        assert_eq!(model.classify(&fv(0.0, 0.9)), ApplicationClass::Scan);
        let all = model.classify_all(&features);
        assert_eq!(all.len(), 30);
    }

    #[test]
    fn training_fails_gracefully_without_examples() {
        let pipe = ClassifierPipeline::random_forest();
        let empty_labels = LabeledSet::default();
        let (_, features) = setup();
        assert!(pipe.train(&empty_labels, &features, 1).is_none());
        // Labels exist but no features match → also untrainable.
        let (labeled, _) = setup();
        assert!(pipe.train(&labeled, &FeatureMap::new(), 1).is_none());
    }

    #[test]
    fn single_class_is_untrainable() {
        let (labeled, features) = setup();
        let only_spam = LabeledSet {
            examples: labeled
                .examples
                .into_iter()
                .filter(|e| e.class == ApplicationClass::Spam)
                .collect(),
        };
        let pipe = ClassifierPipeline::random_forest();
        assert!(pipe.train(&only_spam, &features, 1).is_none());
    }

    /// Batch sizes that leave the last cursor group of a block, and
    /// the last block of a batch, partly filled must classify each
    /// originator as it classifies alone — the rows that pad a group
    /// are never reported as real ones. (That the batch vote is the
    /// full per-row vote is pinned in bs-ml's `vote` suite.)
    #[test]
    fn classify_all_ragged_tails_match_per_row_classify() {
        let (labeled, mut features) = setup();
        let pipe =
            ClassifierPipeline { algorithm: Algorithm::Cart(CartParams::default()), runs: 1 };
        let model = pipe.train(&labeled, &features, 5).expect("trainable");
        // Enough originators for more than two blocks, on both sides
        // of the tree's splits.
        for i in 0..=255u8 {
            let x = f64::from(i) / 255.0;
            features.insert(Ipv4Addr::new(10, 0, 2, i), fv(x, (1.0 - x) / 2.0));
        }
        for n in [1usize, 7, 8, 9, 17, 30, 63, 64, 65, 130, features.len()] {
            let subset: FeatureMap =
                features.iter().take(n).map(|(ip, fv)| (*ip, fv.clone())).collect();
            let batch = model.classify_all(&subset);
            assert_eq!(batch.len(), n);
            for (ip, fv) in &subset {
                assert_eq!(batch[ip], model.classify(fv), "n = {n}, originator {ip}");
            }
        }
    }

    #[test]
    fn dataset_conversion_skips_missing_features() {
        let (labeled, mut features) = setup();
        features.remove(&"10.0.0.0".parse::<Ipv4Addr>().unwrap());
        let d = ClassifierPipeline::to_dataset(&labeled, &features);
        assert_eq!(d.len(), 29);
        assert_eq!(d.n_features(), 22);
        assert_eq!(d.n_classes(), 12);
    }
}

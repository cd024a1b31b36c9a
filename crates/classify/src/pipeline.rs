//! Training and applying the originator classifier.

use crate::labels::LabeledSet;
use bs_activity::ApplicationClass;
use bs_ml::{Algorithm, Dataset, MajorityEnsemble, RowBlock, Sample, BLOCK_ROWS};
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
    /// Independent fits to majority-vote over (paper: 10 for randomized
    /// algorithms, 1 for CART).
    pub runs: usize,
}

impl ClassifierPipeline {
    /// The paper's preferred configuration: random forest, 10 votes.
    pub fn random_forest() -> Self {
        ClassifierPipeline {
            algorithm: Algorithm::RandomForest(bs_ml::ForestParams::default()),
            runs: 10,
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
    /// Classify one feature vector: the per-row vote that
    /// [`TrainedClassifier::classify_all`] is tested against.
    #[cfg(test)]
    pub(crate) fn classify(&self, fv: &FeatureVector) -> ApplicationClass {
        let idx = self.ensemble.predict(&fv.to_vec());
        ApplicationClass::from_index(idx).expect("model trained on class schema")
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
    /// the last block of a batch, partly filled must classify
    /// identically to the per-row path — the rows that pad a group are
    /// never reported as real ones.
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

    /// Forest ensembles on overlapping classes, so votes split and tie
    /// at both levels: two classes, even and odd tree counts on both
    /// sides of the forest's eight-tree check, 1, 2 and 10 runs. The
    /// early-exiting batch vote must give every originator the class
    /// of the per-row full vote, in every ragged batch size.
    #[test]
    fn classify_all_matches_per_row_classify_on_split_forest_votes() {
        let mut features = FeatureMap::new();
        let mut examples = Vec::new();
        for i in 0..=255u8 {
            let x = f64::from(i) / 255.0;
            let ip = Ipv4Addr::new(10, 0, 3, i);
            features.insert(ip, fv(x, (1.0 - x) / 2.0));
            // Labels cross over twice, so bootstraps disagree near the
            // crossings.
            let spam = (i % 7 < 4) == (x < 0.5);
            let class = if spam { ApplicationClass::Spam } else { ApplicationClass::Scan };
            examples.push(LabeledExample { originator: ip, class });
        }
        let labeled = LabeledSet { examples };
        for (n_trees, runs) in [(1, 10), (2, 2), (7, 1), (8, 10), (9, 2), (16, 1), (17, 10)] {
            let pipe = ClassifierPipeline {
                algorithm: Algorithm::RandomForest(bs_ml::ForestParams {
                    n_trees,
                    ..Default::default()
                }),
                runs,
            };
            let model = pipe.train(&labeled, &features, n_trees as u64).expect("trainable");
            for n in [0usize, 1, 7, 8, 9, 63, 64, 65, features.len()] {
                let subset: FeatureMap =
                    features.iter().take(n).map(|(ip, fv)| (*ip, fv.clone())).collect();
                let batch = model.classify_all(&subset);
                assert_eq!(batch.len(), n);
                for (ip, fv) in &subset {
                    assert_eq!(batch[ip], model.classify(fv), "{n_trees} × {runs}, n = {n}, {ip}");
                }
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

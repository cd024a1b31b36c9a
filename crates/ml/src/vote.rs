//! Majority voting over independently-seeded fits.
//!
//! "For non-deterministic algorithms (both RF and SVM use
//! randomization), we run each 10 times and take the majority
//! classification" (paper §III-D).

use crate::argmax_first;
use crate::dataset::Dataset;
use crate::flat::RowBlock;
use crate::{Algorithm, Model};

/// A bag of independently trained models that predicts by majority.
#[derive(Debug, Clone)]
pub struct MajorityEnsemble {
    models: Vec<Model>,
    n_classes: usize,
    n_features: usize,
}

impl MajorityEnsemble {
    /// Train `runs` models of `algorithm` on `data` with derived seeds.
    ///
    /// The runs are independent by construction (that is the point of
    /// the vote), so they train in parallel on the [`bs_par`] pool;
    /// each run's seed depends only on `(seed, run index)`, keeping the
    /// ensemble bit-identical at every thread count.
    pub fn fit(algorithm: &Algorithm, data: &Dataset, runs: usize, seed: u64) -> Self {
        assert!(runs >= 1);
        let _stage = bs_telemetry::stage("ml.train");
        bs_telemetry::counter_add("ml.fits", runs as u64);
        let models = bs_par::par_map_range(runs, |i| {
            // One per vote run, so the Chrome export shows which
            // worker lane trained each model.
            let _stage = bs_telemetry::stage("ml.fit_run");
            algorithm.fit(data, seed.wrapping_add((i as u64).wrapping_mul(0xA076_1D64_78BD_642F)))
        });
        MajorityEnsemble { models, n_classes: data.n_classes(), n_features: data.n_features() }
    }

    /// Majority class over the member models (ties break toward the
    /// smaller class index, explicitly first-max).
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_with_confidence(x).0
    }

    /// Majority class plus its confidence: the fraction of member
    /// models voting for the winner (1.0 = unanimous, ≈ 1/k = coin
    /// flip among k classes). Low-confidence labels are the ones an
    /// operator reviews first.
    pub fn predict_with_confidence(&self, x: &[f64]) -> (usize, f64) {
        let mut votes = vec![0usize; self.n_classes];
        for m in &self.models {
            votes[m.predict(x)] += 1;
        }
        let class = argmax_first(&votes);
        (class, votes[class] as f64 / self.models.len() as f64)
    }

    /// Predict a batch, one [`RowBlock`] of rows at a time through
    /// [`MajorityEnsemble::predict_block`].
    pub fn predict_all(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        crate::predict_in_blocks(xs, self.n_features, |block| self.predict_block(block))
    }

    /// Predict every row of `block`: model-outer vote accumulation, so
    /// each member model serves the whole block through its own batch
    /// path. Vote totals and tie-breaks are identical to calling
    /// [`MajorityEnsemble::predict`] per row.
    pub fn predict_block(&self, block: &RowBlock) -> Vec<usize> {
        let mut votes = vec![0u32; block.rows() * self.n_classes];
        for m in &self.models {
            for (r, class) in m.predict_block(block).into_iter().enumerate() {
                votes[r * self.n_classes + class] += 1;
            }
        }
        votes.chunks_exact(self.n_classes.max(1)).map(argmax_first).collect()
    }

    /// Number of member models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no members exist (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use crate::forest::ForestParams;
    use crate::tree::CartParams;

    fn tiny() -> Dataset {
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]);
        for i in 0..10 {
            d.push(Sample { features: vec![i as f64], label: (i >= 5) as usize });
        }
        d
    }

    #[test]
    fn ensemble_of_carts_agrees_with_single_cart() {
        let d = tiny();
        let alg = Algorithm::Cart(CartParams::default());
        let e = MajorityEnsemble::fit(&alg, &d, 10, 1);
        assert_eq!(e.len(), 10);
        let single = alg.fit(&d, 1);
        for x in [0.0, 2.0, 7.0, 9.0] {
            assert_eq!(e.predict(&[x]), single.predict(&[x]));
        }
    }

    #[test]
    fn confidence_is_unanimous_on_separable_data() {
        let d = tiny();
        let alg = Algorithm::Cart(CartParams::default());
        let e = MajorityEnsemble::fit(&alg, &d, 10, 1);
        let (class, conf) = e.predict_with_confidence(&[0.0]);
        assert_eq!(class, 0);
        assert_eq!(conf, 1.0, "identical CARTs vote unanimously");
        let (_, conf2) = e.predict_with_confidence(&[9.0]);
        assert_eq!(conf2, 1.0);
    }

    #[test]
    fn forest_ensemble_predicts_sanely() {
        let d = tiny();
        let alg = Algorithm::RandomForest(ForestParams { n_trees: 9, ..Default::default() });
        let e = MajorityEnsemble::fit(&alg, &d, 5, 2);
        assert_eq!(e.predict(&[0.0]), 0);
        assert_eq!(e.predict(&[9.0]), 1);
    }

    #[test]
    fn predict_all_matches_predict() {
        let d = tiny();
        let alg = Algorithm::RandomForest(ForestParams { n_trees: 7, ..Default::default() });
        let e = MajorityEnsemble::fit(&alg, &d, 3, 4);
        let xs: Vec<Vec<f64>> = d.samples.iter().map(|s| s.features.clone()).collect();
        let batch = e.predict_all(&xs);
        for (x, b) in xs.iter().zip(&batch) {
            assert_eq!(e.predict(x), *b);
        }
        assert!(e.predict_all(&[]).is_empty());
    }
}

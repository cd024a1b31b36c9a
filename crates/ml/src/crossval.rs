//! The paper's evaluation protocol.
//!
//! "For each dataset we pick a random 60 % of the labeled ground-truth
//! for training, then test on the remaining 40 %. We repeat this process
//! 50 times" (§IV-C). [`repeated_holdout`] implements exactly that,
//! returning the mean and standard deviation of every metric — the
//! numbers in Table III's large and small type.

use crate::dataset::Dataset;
use crate::metrics::{ConfusionMatrix, Metrics};
use crate::vote::MajorityEnsemble;
use crate::Algorithm;
use bs_par::Rng;

/// Result of a repeated-holdout evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldoutReport {
    /// Mean metrics over the repetitions.
    pub mean: Metrics,
    /// Population standard deviation over the repetitions.
    pub std: Metrics,
    /// Number of repetitions actually run.
    pub repetitions: usize,
}

/// Run `repetitions` random stratified splits with `train_frac` in the
/// training half; train `algorithm` (with the paper's 10-run majority
/// vote when the algorithm is randomized) and evaluate on the held-out
/// part.
pub fn repeated_holdout(
    algorithm: &Algorithm,
    data: &Dataset,
    train_frac: f64,
    repetitions: usize,
    seed: u64,
) -> HoldoutReport {
    assert!(repetitions >= 1);
    assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
    let runs_per_fit = if algorithm.is_randomized() { 10 } else { 1 };
    // Repetitions are independent given their rep-derived seeds, so
    // they evaluate in parallel; results collect in repetition order,
    // keeping the mean/std reductions bit-identical to sequential.
    let per_rep: Vec<Option<Metrics>> = bs_par::par_map_range(repetitions, |rep| {
        let rep_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(rep as u64);
        let (train, test) = data.stratified_split(train_frac, rep_seed);
        if train.is_empty() || test.is_empty() {
            return None;
        }
        let ensemble = MajorityEnsemble::fit(algorithm, &train, runs_per_fit, rep_seed);
        let (xs, truth) = test.xy();
        let predicted = ensemble.predict_all(&xs);
        let cm = ConfusionMatrix::from_predictions(data.n_classes(), &truth, &predicted);
        Some(cm.metrics())
    });
    let all: Vec<Metrics> = per_rep.into_iter().flatten().collect();
    HoldoutReport { mean: Metrics::mean(&all), std: Metrics::std(&all), repetitions: all.len() }
}

/// Stratified k-fold cross-validation: each class's samples are
/// shuffled and dealt round-robin into `k` folds; each fold serves once
/// as the test set. Complements [`repeated_holdout`] (the paper's
/// protocol) with the more standard deterministic-coverage variant.
pub fn k_fold(algorithm: &Algorithm, data: &Dataset, k: usize, seed: u64) -> HoldoutReport {
    assert!(k >= 2, "k-fold needs at least two folds");
    assert!(!data.is_empty());
    let mut rng = Rng::new(seed);

    // fold assignment per sample index, stratified by class.
    let mut fold_of = vec![0usize; data.len()];
    for class in 0..data.n_classes() {
        let mut idx: Vec<usize> =
            (0..data.len()).filter(|&i| data.samples[i].label == class).collect();
        rng.shuffle(&mut idx);
        for (j, i) in idx.into_iter().enumerate() {
            fold_of[i] = j % k;
        }
    }

    let runs_per_fit = if algorithm.is_randomized() { 10 } else { 1 };
    // The fold assignment above is sequential (one shared RNG); the
    // folds themselves are independent and train in parallel, with
    // results collected in fold order.
    let per_fold: Vec<Option<Metrics>> = bs_par::par_map_range(k, |fold| {
        let mut train = Dataset::new(data.feature_names.clone(), data.class_names.clone());
        let mut test = Dataset::new(data.feature_names.clone(), data.class_names.clone());
        for (i, s) in data.samples.iter().enumerate() {
            if fold_of[i] == fold {
                test.samples.push(s.clone());
            } else {
                train.samples.push(s.clone());
            }
        }
        if train.is_empty() || test.is_empty() || train.present_classes().len() < 2 {
            return None;
        }
        let ensemble = MajorityEnsemble::fit(algorithm, &train, runs_per_fit, seed ^ fold as u64);
        let (xs, truth) = test.xy();
        let predicted = ensemble.predict_all(&xs);
        let cm = ConfusionMatrix::from_predictions(data.n_classes(), &truth, &predicted);
        Some(cm.metrics())
    });
    let all: Vec<Metrics> = per_fold.into_iter().flatten().collect();
    HoldoutReport { mean: Metrics::mean(&all), std: Metrics::std(&all), repetitions: all.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use crate::tree::CartParams;

    fn blobs(seed: u64, n: usize) -> Dataset {
        let mut rng = Rng::new(seed);
        let mut d = Dataset::new(vec!["x".into(), "y".into()], vec!["a".into(), "b".into()]);
        for label in 0..2usize {
            for _ in 0..n {
                d.push(Sample {
                    features: vec![
                        label as f64 * 2.0 + rng.range_f64(-0.5..0.5),
                        rng.range_f64(-1.0..1.0),
                    ],
                    label,
                });
            }
        }
        d
    }

    #[test]
    fn cart_holdout_on_separable_data_is_high() {
        let d = blobs(1, 40);
        let report = repeated_holdout(&Algorithm::Cart(CartParams::default()), &d, 0.6, 10, 3);
        assert_eq!(report.repetitions, 10);
        assert!(report.mean.accuracy > 0.9, "{:?}", report.mean);
        assert!(report.std.accuracy < 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = blobs(2, 30);
        let alg = Algorithm::Cart(CartParams::default());
        let r1 = repeated_holdout(&alg, &d, 0.6, 5, 7);
        let r2 = repeated_holdout(&alg, &d, 0.6, 5, 7);
        assert_eq!(r1, r2);
    }

    #[test]
    fn k_fold_covers_every_sample_once() {
        let d = blobs(4, 25);
        let report = k_fold(&Algorithm::Cart(CartParams::default()), &d, 5, 9);
        assert_eq!(report.repetitions, 5);
        assert!(report.mean.accuracy > 0.9, "{:?}", report.mean);
    }

    #[test]
    fn k_fold_is_deterministic() {
        let d = blobs(5, 20);
        let alg = Algorithm::Cart(CartParams::default());
        assert_eq!(k_fold(&alg, &d, 4, 11), k_fold(&alg, &d, 4, 11));
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn k_fold_rejects_k_one() {
        let d = blobs(6, 5);
        k_fold(&Algorithm::Cart(CartParams::default()), &d, 1, 0);
    }

    #[test]
    fn forest_holdout_runs_with_majority_voting() {
        let d = blobs(3, 25);
        let alg = Algorithm::RandomForest(crate::forest::ForestParams {
            n_trees: 15,
            ..Default::default()
        });
        let report = repeated_holdout(&alg, &d, 0.6, 3, 1);
        assert!(report.mean.accuracy > 0.85, "{:?}", report.mean);
    }
}

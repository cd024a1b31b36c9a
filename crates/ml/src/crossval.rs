//! The paper's evaluation protocol.
//!
//! "For each dataset we pick a random 60 % of the labeled ground-truth
//! for training, then test on the remaining 40 %. We repeat this process
//! 50 times" (§IV-C). [`repeated_holdout`] implements exactly that,
//! returning the mean and standard deviation of every metric — the
//! numbers in Table III's large and small type.

use crate::dataset::Dataset;
use crate::metrics::{ConfusionMatrix, Metrics};
use crate::vote::{MajorityEnsemble, PAPER_VOTE_RUNS};
use crate::Algorithm;

/// Result of a repeated-holdout evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldoutReport {
    /// Mean metrics over the repetitions.
    pub mean: Metrics,
    /// Population standard deviation over the repetitions.
    pub std: Metrics,
    /// Number of repetitions actually run.
    pub(crate) repetitions: usize,
}

/// Run `repetitions` random stratified splits with `train_frac` in the
/// training half; train `algorithm` (with the paper's
/// [`PAPER_VOTE_RUNS`]-run majority vote when the algorithm is
/// randomized) and evaluate on the held-out part.
pub fn repeated_holdout(
    algorithm: &Algorithm,
    data: &Dataset,
    train_frac: f64,
    repetitions: usize,
    seed: u64,
) -> HoldoutReport {
    assert!(repetitions >= 1);
    assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
    let runs_per_fit = if algorithm.is_randomized() { PAPER_VOTE_RUNS } else { 1 };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use crate::tree::CartParams;
    use bs_par::Rng;

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

//! Seeded property tests for the ML crate. Every case derives from its
//! loop index alone, so a failure replays from the seed in its message.

use bs_ml::dataset::{Dataset, Sample};
use bs_ml::forest::{Forest, ForestParams};
use bs_ml::metrics::ConfusionMatrix;
use bs_ml::tree::{CartParams, DecisionTree};
use bs_par::Rng;

const CASES: u64 = 32;

/// 2–4 classes, 2–5 features, 10–59 samples with finite values.
fn dataset(rng: &mut Rng) -> Dataset {
    let n_classes = rng.range(2..5);
    let n_features = rng.range(2..6);
    let mut d = Dataset::new(
        (0..n_features).map(|i| format!("f{i}")).collect(),
        (0..n_classes).map(|i| format!("c{i}")).collect(),
    );
    for _ in 0..rng.range(10..60) {
        d.push(Sample {
            features: (0..n_features).map(|_| rng.range_f64(-100.0..100.0)).collect(),
            label: rng.range(0..n_classes),
        });
    }
    d
}

/// A tree always predicts a class that exists in its training data.
#[test]
fn tree_predicts_seen_classes() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let d = dataset(&mut rng);
        let t = DecisionTree::fit(&d, &CartParams::default(), 0);
        let x: Vec<f64> = (0..d.n_features()).map(|_| rng.range_f64(-200.0..200.0)).collect();
        assert!(d.present_classes().contains(&t.predict(&x)), "seed {seed}");
    }
}

/// Training accuracy of an unconstrained tree is at least as good as
/// always guessing the majority class.
#[test]
fn tree_beats_or_ties_majority_on_training_data() {
    for seed in 0..CASES {
        let d = dataset(&mut Rng::new(seed ^ 0x7EE));
        let params = CartParams { max_depth: 30, min_samples_split: 2, ..CartParams::default() };
        let t = DecisionTree::fit(&d, &params, 0);
        let correct = d.samples.iter().filter(|s| t.predict(&s.features) == s.label).count();
        let majority = d.class_counts().into_iter().max().unwrap_or(0);
        assert!(correct >= majority, "seed {seed}: correct={correct} majority={majority}");
    }
}

/// Forest importances are a probability vector (or all zero).
#[test]
fn forest_importances_normalized() {
    for seed in 0..CASES {
        let d = dataset(&mut Rng::new(seed ^ 0xF0E));
        let f = Forest::fit(&d, &ForestParams { n_trees: 10, ..Default::default() }, 1);
        let sum: f64 = f.importances().iter().sum();
        assert!(f.importances().iter().all(|v| *v >= 0.0), "seed {seed}");
        assert!(sum.abs() < 1e-9 || (sum - 1.0).abs() < 1e-9, "seed {seed}: sum={sum}");
    }
}

/// Metrics always land in [0, 1] and accuracy matches the diagonal.
#[test]
fn metrics_bounds() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x3E7);
        let n = rng.range(1..100);
        let truth: Vec<usize> = (0..n).map(|_| rng.range(0..4)).collect();
        let pred: Vec<usize> = (0..n).map(|_| rng.range(0..4)).collect();
        let cm = ConfusionMatrix::from_predictions(4, &truth, &pred);
        let m = cm.metrics();
        for v in [m.accuracy, m.precision, m.recall, m.f1] {
            assert!((0.0..=1.0).contains(&v), "seed {seed}: {m:?}");
        }
        let diag: usize = (0..4).map(|c| cm.tp(c)).sum();
        assert!((m.accuracy - diag as f64 / n as f64).abs() < 1e-12, "seed {seed}");
    }
}

/// Stratified splits partition the dataset exactly.
#[test]
fn split_partitions() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x5B1);
        let d = dataset(&mut rng);
        let (train, test) = d.stratified_split(0.6, rng.next_u64());
        assert_eq!(train.len() + test.len(), d.len(), "seed {seed}");
        // Per-class totals preserved.
        let tc = train.class_counts();
        let sc = test.class_counts();
        let dc = d.class_counts();
        for c in 0..d.n_classes() {
            assert_eq!(tc[c] + sc[c], dc[c], "seed {seed}, class {c}");
        }
    }
}

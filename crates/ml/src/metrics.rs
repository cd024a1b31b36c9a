//! Classification metrics.
//!
//! The paper reports accuracy, precision, recall, and F1 over twelve
//! classes (Table III), computed from true/false positives and
//! negatives per class and macro-averaged over the classes that occur
//! in the test data.

/// A confusion matrix: `counts[truth][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    n_classes: usize,
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Build from parallel truth/prediction slices.
    ///
    /// # Panics
    /// If lengths differ or any label is out of range.
    pub fn from_predictions(n_classes: usize, truth: &[usize], predicted: &[usize]) -> Self {
        assert_eq!(truth.len(), predicted.len(), "length mismatch");
        let mut counts = vec![vec![0usize; n_classes]; n_classes];
        for (&t, &p) in truth.iter().zip(predicted) {
            assert!(t < n_classes && p < n_classes, "label out of range");
            counts[t][p] += 1;
        }
        ConfusionMatrix { n_classes, counts }
    }

    /// Total samples.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|r| r.iter().sum::<usize>()).sum()
    }

    /// Raw cell access: how many samples of true class `t` were
    /// predicted as `p`.
    pub fn cell(&self, t: usize, p: usize) -> usize {
        self.counts[t][p]
    }

    /// True positives for a class.
    pub fn tp(&self, c: usize) -> usize {
        self.counts[c][c]
    }

    /// False positives for a class (predicted c, truth differs).
    pub fn fp(&self, c: usize) -> usize {
        (0..self.n_classes).filter(|&t| t != c).map(|t| self.counts[t][c]).sum()
    }

    /// False negatives for a class (truth c, predicted differently).
    pub fn fn_(&self, c: usize) -> usize {
        (0..self.n_classes).filter(|&p| p != c).map(|p| self.counts[c][p]).sum()
    }

    /// Per-class precision, `None` when the class was never predicted.
    pub fn precision(&self, c: usize) -> Option<f64> {
        let denom = self.tp(c) + self.fp(c);
        (denom > 0).then(|| self.tp(c) as f64 / denom as f64)
    }

    /// Per-class recall, `None` when the class never occurs in truth.
    pub fn recall(&self, c: usize) -> Option<f64> {
        let denom = self.tp(c) + self.fn_(c);
        (denom > 0).then(|| self.tp(c) as f64 / denom as f64)
    }

    /// Per-class F1 = 2tp / (2tp + fp + fn), `None` when undefined.
    pub fn f1(&self, c: usize) -> Option<f64> {
        let denom = 2 * self.tp(c) + self.fp(c) + self.fn_(c);
        (denom > 0).then(|| 2.0 * self.tp(c) as f64 / denom as f64)
    }

    /// Summary metrics: overall accuracy plus macro-averaged
    /// precision/recall/F1 over classes present in truth or predictions.
    pub fn metrics(&self) -> Metrics {
        let total = self.total();
        let correct: usize = (0..self.n_classes).map(|c| self.tp(c)).sum();
        let mut prec = Vec::new();
        let mut rec = Vec::new();
        let mut f1 = Vec::new();
        for c in 0..self.n_classes {
            if let Some(p) = self.precision(c) {
                prec.push(p);
            }
            if let Some(r) = self.recall(c) {
                rec.push(r);
            }
            if let Some(f) = self.f1(c) {
                f1.push(f);
            }
        }
        let avg =
            |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
        Metrics {
            accuracy: if total == 0 { 0.0 } else { correct as f64 / total as f64 },
            precision: avg(&prec),
            recall: avg(&rec),
            f1: avg(&f1),
        }
    }
}

/// Per-class metrics line: the material of the paper's §IV-C discussion
/// of which classes suffer from sparse training data.
#[derive(Debug, Clone, PartialEq)]
pub struct PerClassMetrics {
    /// Class index.
    pub class: usize,
    /// Samples of this class in truth.
    pub support: usize,
    /// Precision, if the class was ever predicted.
    pub precision: Option<f64>,
    /// Recall, if the class occurs in truth.
    pub recall: Option<f64>,
    /// F1, when defined.
    pub f1: Option<f64>,
    /// The class most often confused *for* this one (off-diagonal max
    /// of the truth row), with its count.
    pub top_confusion: Option<(usize, usize)>,
}

impl ConfusionMatrix {
    /// The per-class report, one row per class with any support or
    /// predictions.
    pub fn per_class(&self) -> Vec<PerClassMetrics> {
        (0..self.n_classes)
            .filter(|&c| self.tp(c) + self.fn_(c) + self.fp(c) > 0)
            .map(|c| {
                let top_confusion = (0..self.n_classes)
                    .filter(|&p| p != c && self.counts[c][p] > 0)
                    .max_by_key(|&p| self.counts[c][p])
                    .map(|p| (p, self.counts[c][p]));
                PerClassMetrics {
                    class: c,
                    support: self.tp(c) + self.fn_(c),
                    precision: self.precision(c),
                    recall: self.recall(c),
                    f1: self.f1(c),
                    top_confusion,
                }
            })
            .collect()
    }
}

/// Macro-averaged summary metrics, all in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Metrics {
    /// Fraction of samples classified correctly.
    pub accuracy: f64,
    /// Macro-averaged precision.
    pub precision: f64,
    /// Macro-averaged recall.
    pub recall: f64,
    /// Macro-averaged F1.
    pub f1: f64,
}

impl Metrics {
    /// Elementwise mean of many metric sets.
    pub fn mean(all: &[Metrics]) -> Metrics {
        if all.is_empty() {
            return Metrics::default();
        }
        let n = all.len() as f64;
        Metrics {
            accuracy: all.iter().map(|m| m.accuracy).sum::<f64>() / n,
            precision: all.iter().map(|m| m.precision).sum::<f64>() / n,
            recall: all.iter().map(|m| m.recall).sum::<f64>() / n,
            f1: all.iter().map(|m| m.f1).sum::<f64>() / n,
        }
    }

    /// Elementwise population standard deviation.
    pub fn std(all: &[Metrics]) -> Metrics {
        if all.len() < 2 {
            return Metrics::default();
        }
        let mean = Metrics::mean(all);
        let n = all.len() as f64;
        let var = |f: fn(&Metrics) -> f64, mu: f64| {
            (all.iter().map(|m| (f(m) - mu) * (f(m) - mu)).sum::<f64>() / n).sqrt()
        };
        Metrics {
            accuracy: var(|m| m.accuracy, mean.accuracy),
            precision: var(|m| m.precision, mean.precision),
            recall: var(|m| m.recall, mean.recall),
            f1: var(|m| m.f1, mean.f1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let truth = vec![0, 1, 2, 0, 1, 2];
        let cm = ConfusionMatrix::from_predictions(3, &truth, &truth);
        let m = cm.metrics();
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn known_confusion() {
        // truth:      0 0 0 0 1 1
        // predicted:  0 0 1 1 1 0
        let cm = ConfusionMatrix::from_predictions(2, &[0, 0, 0, 0, 1, 1], &[0, 0, 1, 1, 1, 0]);
        assert_eq!(cm.tp(0), 2);
        assert_eq!(cm.fp(0), 1);
        assert_eq!(cm.fn_(0), 2);
        assert_eq!(cm.tp(1), 1);
        assert_eq!(cm.fp(1), 2);
        assert_eq!(cm.fn_(1), 1);
        let m = cm.metrics();
        assert!((m.accuracy - 0.5).abs() < 1e-12);
        // precision: (2/3 + 1/3)/2 = 0.5 ; recall: (2/4 + 1/2)/2 = 0.5
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
        // f1: class0 = 4/(4+1+2)=4/7; class1 = 2/(2+2+1)=2/5
        let expect = (4.0 / 7.0 + 2.0 / 5.0) / 2.0;
        assert!((m.f1 - expect).abs() < 1e-12);
    }

    #[test]
    fn absent_class_excluded_from_macro_average() {
        // Class 2 never appears anywhere: averages use classes 0 and 1.
        let cm = ConfusionMatrix::from_predictions(3, &[0, 1], &[0, 1]);
        let m = cm.metrics();
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
    }

    #[test]
    fn never_predicted_class_counts_in_recall_only() {
        // Class 1 occurs in truth but is never predicted.
        let cm = ConfusionMatrix::from_predictions(2, &[0, 1, 1], &[0, 0, 0]);
        assert_eq!(cm.precision(1), None);
        assert_eq!(cm.recall(1), Some(0.0));
        let m = cm.metrics();
        assert!((m.recall - 0.5).abs() < 1e-12, "mean of 1.0 and 0.0");
    }

    #[test]
    fn per_class_report_names_confusions() {
        // truth:     0 0 0 1 1 2
        // predicted: 0 1 1 1 1 1
        let cm = ConfusionMatrix::from_predictions(3, &[0, 0, 0, 1, 1, 2], &[0, 1, 1, 1, 1, 1]);
        let report = cm.per_class();
        assert_eq!(report.len(), 3);
        let c0 = &report[0];
        assert_eq!(c0.support, 3);
        assert_eq!(c0.top_confusion, Some((1, 2)), "class 0 mostly mistaken for 1");
        assert_eq!(c0.recall, Some(1.0 / 3.0));
        let c2 = &report[2];
        assert_eq!(c2.support, 1);
        assert_eq!(c2.precision, None, "class 2 never predicted");
        assert_eq!(c2.recall, Some(0.0));
        // A class absent from truth and predictions is excluded.
        let cm2 = ConfusionMatrix::from_predictions(3, &[0, 1], &[0, 1]);
        assert_eq!(cm2.per_class().len(), 2);
    }

    #[test]
    fn empty_input() {
        let cm = ConfusionMatrix::from_predictions(3, &[], &[]);
        let m = cm.metrics();
        assert_eq!(m.accuracy, 0.0);
        assert_eq!(cm.total(), 0);
    }

    #[test]
    fn mean_and_std() {
        let a = Metrics { accuracy: 0.8, precision: 0.7, recall: 0.6, f1: 0.65 };
        let b = Metrics { accuracy: 0.6, precision: 0.5, recall: 0.4, f1: 0.45 };
        let mean = Metrics::mean(&[a, b]);
        assert!((mean.accuracy - 0.7).abs() < 1e-12);
        assert!((mean.f1 - 0.55).abs() < 1e-12);
        let std = Metrics::std(&[a, b]);
        assert!((std.accuracy - 0.1).abs() < 1e-12);
        assert_eq!(Metrics::std(&[a]), Metrics::default());
        assert_eq!(Metrics::mean(&[]), Metrics::default());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        ConfusionMatrix::from_predictions(2, &[0], &[0, 1]);
    }
}

//! Labeled datasets for training and evaluation.

use crate::matrix::ColumnarView;
use bs_par::Rng;

/// One labeled example: a feature vector and a class index.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature values; length must match the dataset's feature names.
    pub features: Vec<f64>,
    /// Class index into the dataset's class names.
    pub label: usize,
}

/// A labeled dataset with named features and classes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Human-readable feature names (column headers).
    pub(crate) feature_names: Vec<String>,
    /// Human-readable class names; labels index into this.
    pub(crate) class_names: Vec<String>,
    /// The examples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Create an empty dataset with the given schema.
    pub fn new(feature_names: Vec<String>, class_names: Vec<String>) -> Self {
        Dataset { feature_names, class_names, samples: Vec::new() }
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of classes in the schema.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Append a sample, validating its shape.
    ///
    /// # Panics
    /// If the feature count or label is out of range, or any feature is
    /// not finite — catching these at insertion beats NaN surprises
    /// inside a split search.
    pub fn push(&mut self, sample: Sample) {
        assert_eq!(sample.features.len(), self.n_features(), "feature count mismatch");
        assert!(sample.label < self.n_classes(), "label out of range");
        assert!(sample.features.iter().all(|f| f.is_finite()), "non-finite feature value");
        self.samples.push(sample);
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.n_classes()];
        for s in &self.samples {
            counts[s.label] += 1;
        }
        counts
    }

    /// The classes that actually occur in the samples.
    pub fn present_classes(&self) -> Vec<usize> {
        self.class_counts().iter().enumerate().filter(|(_, c)| **c > 0).map(|(i, _)| i).collect()
    }

    /// Split into (train, test) with `train_frac` of each class in the
    /// training half (stratified, like the paper's 60/40 protocol).
    /// Classes with a single sample land in the training half.
    pub fn stratified_split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_frac));
        let mut rng = Rng::new(seed);
        let mut train = Dataset::new(self.feature_names.clone(), self.class_names.clone());
        let mut test = Dataset::new(self.feature_names.clone(), self.class_names.clone());
        for class in 0..self.n_classes() {
            let mut idx: Vec<usize> = self
                .samples
                .iter()
                .enumerate()
                .filter(|(_, s)| s.label == class)
                .map(|(i, _)| i)
                .collect();
            if idx.is_empty() {
                continue;
            }
            rng.shuffle(&mut idx);
            let n_train = ((idx.len() as f64) * train_frac).round().max(1.0) as usize;
            for (k, i) in idx.into_iter().enumerate() {
                if k < n_train {
                    train.samples.push(self.samples[i].clone());
                } else {
                    test.samples.push(self.samples[i].clone());
                }
            }
        }
        rng.shuffle(&mut train.samples);
        rng.shuffle(&mut test.samples);
        (train, test)
    }

    /// Column-major copy of every sample, in dataset order: one
    /// contiguous `Vec<f64>` per feature plus a flat label array. This
    /// is the entry point to the columnar fast paths.
    pub(crate) fn columnar(&self) -> ColumnarView {
        let mut view = ColumnarView::with_capacity(self.n_features(), self.len());
        for s in &self.samples {
            view.push_row(&s.features, s.label as u32);
        }
        view
    }

    /// Feature matrix and label vector views for evaluation helpers.
    pub fn xy(&self) -> (Vec<Vec<f64>>, Vec<usize>) {
        (
            self.samples.iter().map(|s| s.features.clone()).collect(),
            self.samples.iter().map(|s| s.label).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n_per_class: usize, n_classes: usize) -> Dataset {
        let mut d = Dataset::new(
            vec!["a".into(), "b".into()],
            (0..n_classes).map(|i| format!("c{i}")).collect(),
        );
        for c in 0..n_classes {
            for i in 0..n_per_class {
                d.push(Sample { features: vec![c as f64, i as f64], label: c });
            }
        }
        d
    }

    #[test]
    fn push_validates_shape() {
        let mut d = toy(1, 2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.push(Sample { features: vec![1.0], label: 0 })
        }));
        assert!(r.is_err(), "wrong arity must panic");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.push(Sample { features: vec![1.0, 2.0], label: 9 })
        }));
        assert!(r.is_err(), "bad label must panic");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.push(Sample { features: vec![f64::NAN, 2.0], label: 0 })
        }));
        assert!(r.is_err(), "NaN must panic");
    }

    #[test]
    fn stratified_split_keeps_proportions() {
        let d = toy(10, 3);
        let (train, test) = d.stratified_split(0.6, 7);
        assert_eq!(train.len(), 18);
        assert_eq!(test.len(), 12);
        assert_eq!(train.class_counts(), vec![6, 6, 6]);
        assert_eq!(test.class_counts(), vec![4, 4, 4]);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = toy(10, 3);
        let (a1, b1) = d.stratified_split(0.6, 42);
        let (a2, b2) = d.stratified_split(0.6, 42);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        let (a3, _) = d.stratified_split(0.6, 43);
        assert_ne!(a1, a3);
    }

    #[test]
    fn singleton_class_goes_to_train() {
        let mut d = toy(5, 2);
        d.class_names.push("rare".into());
        d.push(Sample { features: vec![9.0, 9.0], label: 2 });
        let (train, test) = d.stratified_split(0.6, 1);
        assert_eq!(train.class_counts()[2], 1);
        assert_eq!(test.class_counts()[2], 0);
    }

    #[test]
    fn present_classes_skips_empty() {
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into(), "c".into()]);
        d.push(Sample { features: vec![0.0], label: 0 });
        d.push(Sample { features: vec![1.0], label: 2 });
        assert_eq!(d.present_classes(), vec![0, 2]);
    }
}

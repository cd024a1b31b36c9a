//! From-scratch machine learning for the backscatter classifier.
//!
//! The paper classifies originators with three standard supervised
//! learners — a CART decision tree, a random forest, and a kernel
//! support-vector machine — and finds the forest most accurate
//! (Table III), using its Gini importances to rank features
//! (Table IV). No suitable pure-Rust implementations of all three exist
//! in the sanctioned dependency set, so this crate implements them:
//!
//! * [`tree`] — CART with Gini impurity, depth/leaf-size controls;
//! * [`forest`] — bagged CART ensemble with per-split feature
//!   subsampling and accumulated, normalized Gini importances;
//! * [`svm`] — soft-margin SMO with an RBF kernel, lifted to
//!   multi-class by one-vs-one voting, with internal standardization;
//! * [`metrics`] — confusion matrices and macro-averaged
//!   accuracy/precision/recall/F1, matching the paper's definitions;
//! * [`crossval`] — the paper's evaluation protocol: 50 repetitions of a
//!   stratified 60/40 split, reporting means and standard deviations;
//! * [`vote`] — majority voting over several independently-seeded fits
//!   ("for non-deterministic algorithms we run each 10 times and take
//!   the majority classification").
//!
//! Training and prediction run on a columnar data layout the crate
//! keeps to itself (DESIGN.md §11): column-major training views with
//! per-feature index arrays arg-sorted once per forest and kept
//! segment-partitioned by stable partition at every node as each tree
//! grows (`matrix`, `presort`); one flat arena per tree, a split's children
//! in adjacent slots and leaves self-looping, walked one row at a time
//! or [`BLOCK_ROWS`] rows at once through a [`RowBlock`] (`flat`,
//! DESIGN.md §14); and a flat symmetric Gram matrix under SMO (`gram`).
//! The original boxed/nested implementations are kept as executable
//! references compiled for tests only, and the `mlcore_equivalence`
//! suite proves the fast paths bit-identical to them: stable argsort
//! plus stable partition reproduce exactly the orderings the
//! reference's per-node stable sorts produce, and the Gram matrix
//! holds the reference's kernel bits because the kernel is symmetric
//! and evaluated identically.
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crossval;
pub mod dataset;
mod flat;
pub mod forest;
mod gram;
mod matrix;
pub mod metrics;
pub mod persist;
mod presort;
pub mod svm;
pub mod tree;
pub mod vote;

#[cfg(test)]
mod mlcore_equivalence;

pub use crossval::{k_fold, repeated_holdout, HoldoutReport};
pub use dataset::{Dataset, Sample};
pub use forest::{Forest, ForestParams};
pub use metrics::{ConfusionMatrix, Metrics};
pub use svm::{Svm, SvmParams};
pub use tree::{CartParams, DecisionTree};
pub use vote::MajorityEnsemble;

pub use flat::{RowBlock, BLOCK_ROWS};

/// Index of the **first** maximum of `values` (ties break to the
/// smaller index). Returns 0 for an empty slice.
///
/// `std`'s `max_by_key` keeps the *last* maximum, which silently broke
/// the documented "ties break to the smaller class index" contract in
/// every voting path; this helper is the single place the rule lives.
pub(crate) fn argmax_first<T: PartialOrd>(values: &[T]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate().skip(1) {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

/// The three algorithms the paper evaluates.
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// Classification And Regression Tree.
    Cart(CartParams),
    /// Random forest of CARTs.
    RandomForest(ForestParams),
    /// Kernel (RBF) support-vector machine, one-vs-one.
    Svm(SvmParams),
}

impl Algorithm {
    /// Short display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Cart(_) => "CART",
            Algorithm::RandomForest(_) => "RF",
            Algorithm::Svm(_) => "SVM",
        }
    }

    /// Train on `data` with the given seed.
    pub fn fit(&self, data: &Dataset, seed: u64) -> Model {
        match self {
            Algorithm::Cart(p) => Model::Cart(DecisionTree::fit(data, p, seed)),
            Algorithm::RandomForest(p) => Model::Forest(Forest::fit(data, p, seed)),
            Algorithm::Svm(p) => Model::Svm(Svm::fit(data, p, seed)),
        }
    }

    /// Whether the paper treats this algorithm as randomized (and
    /// majority-votes over ten runs).
    pub fn is_randomized(&self) -> bool {
        !matches!(self, Algorithm::Cart(_))
    }
}

/// A trained model of any of the three families.
#[derive(Debug, Clone)]
pub enum Model {
    /// Trained CART.
    Cart(DecisionTree),
    /// Trained random forest.
    Forest(Forest),
    /// Trained SVM.
    Svm(Svm),
}

impl Model {
    /// Predict the class index for one feature vector.
    pub fn predict(&self, x: &[f64]) -> usize {
        match self {
            Model::Cart(m) => m.predict(x),
            Model::Forest(m) => m.predict(x),
            Model::Svm(m) => m.predict(x),
        }
    }

    /// Predict the rows of `block` that `ids` names into `out[j]` for
    /// row `ids[j]`. `ml.predict.samples` counts rows asked about (at
    /// most rows × runs in a vote) and `ml.predict.tree_rows` the tree
    /// descents walked for them.
    pub fn predict_block(&self, block: &RowBlock, ids: &[u8], out: &mut [usize; BLOCK_ROWS]) {
        bs_telemetry::counter_add("ml.predict.batches", 1);
        bs_telemetry::counter_add("ml.predict.samples", ids.len() as u64);
        match self {
            Model::Cart(m) => {
                bs_telemetry::counter_add("ml.predict.tree_rows", ids.len() as u64);
                let mut classes = [0u16; BLOCK_ROWS];
                m.predict_rows(block, ids, &mut classes);
                out.iter_mut().zip(classes).for_each(|(o, c)| *o = c.into());
            }
            Model::Forest(m) => m.predict_block(block, ids, out),
            Model::Svm(m) => {
                out.iter_mut().zip(ids).for_each(|(o, &r)| *o = m.predict(block.row(r.into())))
            }
        }
    }
}

/// Predict `xs` by copying [`BLOCK_ROWS`] rows at a time into one
/// reused [`RowBlock`] and handing it to `predict`.
pub(crate) fn predict_in_blocks(
    xs: &[Vec<f64>],
    n_features: usize,
    predict: impl Fn(&RowBlock, &mut [usize; BLOCK_ROWS]),
) -> Vec<usize> {
    let mut block = RowBlock::new(n_features);
    let mut classes = [0; BLOCK_ROWS];
    let mut out = Vec::with_capacity(xs.len());
    for chunk in xs.chunks(BLOCK_ROWS) {
        block.fill(chunk);
        predict(&block, &mut classes);
        out.extend_from_slice(&classes[..chunk.len()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_first_takes_first_of_ties() {
        assert_eq!(argmax_first(&[1, 3, 3, 2]), 1);
        assert_eq!(argmax_first(&[5]), 0);
        assert_eq!(argmax_first(&[2, 2, 2]), 0);
        assert_eq!(argmax_first::<u32>(&[]), 0);
        assert_eq!(argmax_first(&[0.5, 0.75, 0.75]), 1);
    }

    #[test]
    fn argmax_first_disagrees_with_max_by_key_on_ties() {
        // The regression this helper exists to pin down: std's
        // max_by_key picks the *last* max.
        let votes = [4, 7, 7, 1];
        let last = votes.iter().enumerate().max_by_key(|(_, v)| **v).map(|(i, _)| i).unwrap();
        assert_eq!(last, 2);
        assert_eq!(argmax_first(&votes), 1);
    }
}

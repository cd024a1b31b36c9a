//! Random forests (Breiman, 2001).
//!
//! Bootstrap-bagged CART trees with per-split feature subsampling
//! (√d by default) and majority voting. Feature importances are the
//! size-weighted Gini decreases accumulated across all trees,
//! normalized to sum to one — the quantity behind the paper's
//! Table IV ranking ("larger Gini values indicate features with greater
//! discriminative power").

use crate::argmax_first;
use crate::dataset::Dataset;
use crate::flat::{RowBlock, BLOCK_ROWS};
use crate::presort::SortedRows;
use crate::tree::{CartParams, DecisionTree};
use crate::vote::BlockVote;
use bs_par::Rng;

/// Trees walked between two checks for decided rows.
const TREE_GROUP: usize = 8;

/// Forest hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Base-tree growth controls. `max_features: None` here means
    /// "use √d", the standard forest default.
    pub tree: CartParams,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 100,
            tree: CartParams {
                max_depth: 14,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: None,
            },
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct Forest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    importances: Vec<f64>,
}

impl Forest {
    /// Train on `data` with the given seed.
    ///
    /// Trees grow in parallel on the [`bs_par`] pool. Each tree's RNG
    /// seeds from `(seed, tree index)` alone, so the forest is
    /// bit-identical at every thread count, and importances accumulate
    /// in tree order after training so the float sum is too. The
    /// columnar copy of `data` and its per-feature argsort are built
    /// once here; each tree reads them through its bootstrap's weights.
    pub fn fit(data: &Dataset, params: &ForestParams, seed: u64) -> Self {
        bs_telemetry::counter_add("ml.fit.forest", 1);
        let tree_params = Self::tree_params(data, params);
        let shared = SortedRows::new(data);
        let trees = bs_par::par_map_range(params.n_trees, |i| {
            let (indices, tree_seed) = Self::bootstrap(data, seed, i);
            DecisionTree::fit_on_shared(&shared, &indices, &tree_params, tree_seed)
        });
        Self::from_trees(trees, data)
    }

    /// [`Forest::fit`] with every tree grown by the boxed-node
    /// [`crate::tree::ReferenceTree`] instead of the columnar fast
    /// path; compiled for tests only. Bit-identical to `fit` for the
    /// same data and seed (same bootstrap draws, same importance
    /// accumulation): the executable specification for the equivalence
    /// suite.
    #[cfg(test)]
    pub(crate) fn fit_reference(data: &Dataset, params: &ForestParams, seed: u64) -> Self {
        use crate::tree::ReferenceTree;
        let tree_params = Self::tree_params(data, params);
        let trees = bs_par::par_map_range(params.n_trees, |i| {
            let (indices, tree_seed) = Self::bootstrap(data, seed, i);
            ReferenceTree::fit_on_indices(data, &indices, &tree_params, tree_seed).flatten()
        });
        Self::from_trees(trees, data)
    }

    /// The base learners' growth controls: `params.tree` with the
    /// forest's `max_features` default (√d) resolved. Every fit starts
    /// here, so this is also where an empty dataset or a forest of no
    /// trees is refused.
    fn tree_params(data: &Dataset, params: &ForestParams) -> CartParams {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        assert!(params.n_trees >= 1);
        let d = data.n_features();
        let mtry = params
            .tree
            .max_features
            .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize)
            .clamp(1, d.max(1));
        CartParams { max_features: Some(mtry), ..params.tree.clone() }
    }

    /// Tree `i`'s bootstrap sample (with replacement, same size as the
    /// data) and growth seed, drawn from `(seed, i)` alone.
    fn bootstrap(data: &Dataset, seed: u64, i: usize) -> (Vec<usize>, u64) {
        let mut rng = Rng::new(bs_par::derive_seed(seed, i as u64));
        let indices = (0..data.len()).map(|_| rng.range(0..data.len())).collect();
        (indices, rng.next_u64())
    }

    /// Assemble the forest: importances accumulate in tree order.
    fn from_trees(trees: Vec<DecisionTree>, data: &Dataset) -> Self {
        let mut raw = vec![0.0; data.n_features()];
        for tree in &trees {
            for (acc, v) in raw.iter_mut().zip(tree.raw_importances()) {
                *acc += v;
            }
        }
        let total: f64 = raw.iter().sum();
        let importances = if total > 0.0 { raw.iter().map(|v| v / total).collect() } else { raw };
        bs_telemetry::counter_add("ml.trees_built", trees.len() as u64);
        Forest { trees, n_classes: data.n_classes(), importances }
    }

    /// Predict by majority vote over the trees (ties break toward the
    /// smaller class index, explicitly first-max).
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for t in &self.trees {
            votes[t.predict(x)] += 1;
        }
        argmax_first(&votes)
    }

    /// Predict a batch, one [`RowBlock`] of rows at a time through
    /// [`Forest::predict_block`].
    pub fn predict_all(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        let ids: [u8; BLOCK_ROWS] = std::array::from_fn(|i| i as u8);
        crate::predict_in_blocks(xs, self.trees[0].n_features(), |block, out| {
            self.predict_block(block, &ids[..block.rows()], out)
        })
    }

    /// Predict the rows of `block` that `ids` names into `out[j]` for
    /// row `ids[j]`: tree-outer, each arena walked by the rows whose
    /// winner the trees left can still change (DESIGN.md §14).
    /// Identical to [`Forest::predict`] per row.
    pub fn predict_block(&self, block: &RowBlock, ids: &[u8], out: &mut [usize; BLOCK_ROWS]) {
        let _stage = bs_telemetry::stage("ml.predict");
        let mut vote = BlockVote::new(ids.len(), self.n_classes);
        let (mut rows, mut classes, mut walked) = ([0; BLOCK_ROWS], [0; BLOCK_ROWS], 0);
        for (g, group) in self.trees.chunks(TREE_GROUP).enumerate() {
            let live = vote.live().len();
            if live == 0 {
                break;
            }
            rows.iter_mut().zip(vote.live()).for_each(|(r, &p)| *r = ids[usize::from(p)]);
            for t in group {
                t.predict_rows(block, &rows[..live], &mut classes);
                vote.add(&classes);
            }
            walked += group.len() * live;
            vote.settle(self.trees.len().saturating_sub((g + 1) * TREE_GROUP));
        }
        bs_telemetry::counter_add("ml.predict.tree_rows", walked as u64);
        vote.winners(out);
    }

    /// Normalized Gini importances (sum to 1 when any split occurred).
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Feature importances paired with names, sorted descending — the
    /// shape of the paper's Table IV.
    pub fn ranked_importances(&self, feature_names: &[String]) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> =
            feature_names.iter().cloned().zip(self.importances.iter().copied()).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite importances"));
        v
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes in the schema this forest was trained on.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The member trees (persistence support).
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Reassemble a forest from persisted parts.
    pub(crate) fn from_parts(
        trees: Vec<DecisionTree>,
        n_classes: usize,
        importances: Vec<f64>,
    ) -> Self {
        Forest { trees, n_classes, importances }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;

    /// Three Gaussian-ish blobs in 4D where only dims 0 and 1 matter.
    fn blobs(seed: u64, n: usize) -> Dataset {
        let mut rng = Rng::new(seed);
        let mut d = Dataset::new(
            vec!["f0".into(), "f1".into(), "noise0".into(), "noise1".into()],
            vec!["a".into(), "b".into(), "c".into()],
        );
        let centers = [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)];
        for (label, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n {
                d.push(Sample {
                    features: vec![
                        cx + rng.range_f64(-0.8..0.8),
                        cy + rng.range_f64(-0.8..0.8),
                        rng.range_f64(-1.0..1.0),
                        rng.range_f64(-1.0..1.0),
                    ],
                    label,
                });
            }
        }
        d
    }

    #[test]
    fn forest_beats_chance_on_blobs() {
        let train = blobs(1, 60);
        let test = blobs(2, 30);
        let f = Forest::fit(&train, &ForestParams::default(), 7);
        let correct = test.samples.iter().filter(|s| f.predict(&s.features) == s.label).count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn importances_concentrate_on_signal_features() {
        let train = blobs(3, 80);
        let f = Forest::fit(&train, &ForestParams::default(), 11);
        let imp = f.importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9, "normalized");
        assert!(imp[0] + imp[1] > 0.75, "signal features should dominate: {imp:?}");
        let ranked = f.ranked_importances(&train.feature_names);
        assert!(ranked[0].0 == "f0" || ranked[0].0 == "f1");
        assert!(ranked[0].1 >= ranked[1].1 && ranked[1].1 >= ranked[2].1);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = blobs(4, 40);
        let f1 = Forest::fit(&train, &ForestParams::default(), 99);
        let f2 = Forest::fit(&train, &ForestParams::default(), 99);
        let probe = vec![1.5, 1.5, 0.0, 0.0];
        assert_eq!(f1.predict(&probe), f2.predict(&probe));
        assert_eq!(f1.importances(), f2.importances());
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let train = blobs(5, 40);
        let f1 = Forest::fit(&train, &ForestParams::default(), 1);
        let f2 = Forest::fit(&train, &ForestParams::default(), 2);
        assert_ne!(f1.importances(), f2.importances());
    }

    #[test]
    fn single_tree_forest_works() {
        let train = blobs(6, 30);
        let p = ForestParams { n_trees: 1, ..ForestParams::default() };
        let f = Forest::fit(&train, &p, 0);
        assert_eq!(f.n_trees(), 1);
        let correct = train.samples.iter().filter(|s| f.predict(&s.features) == s.label).count();
        assert!(correct * 10 > train.len() * 7);
    }

    #[test]
    fn fast_path_matches_reference() {
        let train = blobs(7, 25);
        let p = ForestParams { n_trees: 8, ..ForestParams::default() };
        let fast = Forest::fit(&train, &p, 13);
        let reference = Forest::fit_reference(&train, &p, 13);
        assert_eq!(fast.importances(), reference.importances(), "bitwise importances");
        for s in &train.samples {
            assert_eq!(fast.predict(&s.features), reference.predict(&s.features));
        }
    }

    #[test]
    fn predict_all_matches_predict() {
        let train = blobs(8, 25);
        let p = ForestParams { n_trees: 10, ..ForestParams::default() };
        let f = Forest::fit(&train, &p, 3);
        let xs: Vec<Vec<f64>> = train.samples.iter().map(|s| s.features.clone()).collect();
        let batch = f.predict_all(&xs);
        for (x, b) in xs.iter().zip(&batch) {
            assert_eq!(f.predict(x), *b);
        }
        assert!(f.predict_all(&[]).is_empty());
    }

    #[test]
    fn constant_data_has_zero_importances() {
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]);
        for i in 0..10 {
            d.push(Sample { features: vec![1.0], label: i % 2 });
        }
        let f = Forest::fit(&d, &ForestParams { n_trees: 5, ..ForestParams::default() }, 0);
        assert_eq!(f.importances(), &[0.0]);
    }
}

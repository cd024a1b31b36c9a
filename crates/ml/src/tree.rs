//! CART decision trees (Breiman et al., 1984).
//!
//! Binary trees grown by exhaustive search for the split minimizing
//! weighted Gini impurity, with the usual stopping controls. The same
//! implementation serves stand-alone CART and the forest's base
//! learners (which add per-split feature subsampling).
//!
//! Two implementations live here (DESIGN.md §11):
//!
//! * [`DecisionTree`] — the **columnar fast path**: training reads
//!   `SortedRows` (every dataset row column-major, every feature
//!   arg-sorted, built once per forest) through a weight vector (a
//!   row's bootstrap multiplicity, 0 = out of bag) and maintains
//!   per-node index segments of the in-bag rows by stable partition at
//!   every node (`O(features · n log n)` once, `O(nodes · features ·
//!   n)` a tree, against the reference's `O(nodes · features · n log
//!   n)`); the grown tree is a `FlatTree` arena walked by the blocked
//!   batch descent.
//! * `ReferenceTree` — the boxed-node reference, compiled for tests
//!   only: per-node re-sorting, `Box` recursion. Property tests
//!   (`crates/ml/src/mlcore_equivalence.rs`) prove the fast path
//!   produces bit-identical splits, importances and predictions.
//!
//! Both share the split-quality arithmetic (`gini` in integer
//! sum-of-squares form) and the RNG discipline (one feature shuffle
//! per candidate node, pre-order), which is what makes bit-equality
//! achievable rather than merely approximate.

use crate::argmax_first;
use crate::dataset::Dataset;
use crate::flat::{FlatTree, RowBlock, Slot, BLOCK_ROWS};
use crate::matrix::ColumnarView;
use crate::persist::PersistError;
use crate::presort::{PresortedColumns, SortedRows};
use bs_par::Rng;

/// Growth controls for a CART tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CartParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples a node must hold to be split.
    pub min_samples_split: usize,
    /// Minimum samples each child must receive.
    pub min_samples_leaf: usize,
    /// Features examined per split: `None` = all (CART);
    /// `Some(k)` = a random subset of k (random-forest mode).
    pub max_features: Option<usize>,
}

impl Default for CartParams {
    fn default() -> Self {
        CartParams { max_depth: 12, min_samples_split: 4, min_samples_leaf: 1, max_features: None }
    }
}

#[cfg(test)]
#[derive(Debug, Clone)]
enum Node {
    Leaf { class: usize },
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

/// A trained CART classifier (flat-arena representation).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    flat: FlatTree,
    n_classes: usize,
    /// Total Gini-impurity decrease attributed to each feature during
    /// growth (unnormalized). The forest aggregates these into the
    /// importances of the paper's Table IV.
    importances: Vec<f64>,
}

impl DecisionTree {
    /// Grow a tree on `data` via the columnar fast path. The seed only
    /// matters when `max_features` subsampling is active.
    pub fn fit(data: &Dataset, params: &CartParams, seed: u64) -> Self {
        bs_telemetry::counter_add("ml.fit.cart", 1);
        Self::fit_on_indices(data, &(0..data.len()).collect::<Vec<_>>(), params, seed)
    }

    /// Grow on a subset of sample indices (bootstrap support for the
    /// forest; duplicate indices are distinct training rows).
    pub(crate) fn fit_on_indices(
        data: &Dataset,
        indices: &[usize],
        params: &CartParams,
        seed: u64,
    ) -> Self {
        Self::fit_on_shared(&SortedRows::new(data), indices, params, seed)
    }

    /// Grow on the rows of `shared` that `indices` selects: the one
    /// road every tree fit takes.
    pub(crate) fn fit_on_shared(
        shared: &SortedRows,
        indices: &[usize],
        params: &CartParams,
        seed: u64,
    ) -> Self {
        let _stage = bs_telemetry::stage("ml.fit.tree");
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        assert!(shared.n_classes >= 1);
        let view = &shared.view;
        let mut weights = vec![0usize; view.rows()];
        for &i in indices {
            weights[i] += 1;
        }
        let in_bag = weights.iter().filter(|&&w| w > 0).count();
        let mut grower = ColumnarGrower {
            presort: PresortedColumns::filtered(shared, &weights),
            view,
            params,
            weights: &weights,
            rng: Rng::new(seed),
            importances: vec![0.0; view.n_features()],
            flat: FlatTree::new(view.n_features()),
            counts: vec![0; shared.n_classes],
            features: Vec::with_capacity(view.n_features()),
            left_counts: vec![0; shared.n_classes],
            right_counts: vec![0; shared.n_classes],
        };
        let root = grower.flat.root();
        grower.grow(root, 0, in_bag);
        bs_telemetry::counter_add("ml.fit.nodes", grower.flat.n_nodes() as u64);
        DecisionTree {
            flat: grower.flat,
            n_classes: shared.n_classes,
            importances: grower.importances,
        }
    }

    /// Predict every row of `block` through the blocked descent
    /// (DESIGN.md §14).
    #[cfg(test)]
    pub(crate) fn predict_block(&self, block: &RowBlock) -> Vec<usize> {
        let ids: [u8; BLOCK_ROWS] = std::array::from_fn(|i| i as u8);
        let mut classes = [0u16; BLOCK_ROWS];
        self.predict_rows(block, &ids[..block.rows()], &mut classes);
        classes[..block.rows()].iter().map(|&c| c as usize).collect()
    }

    /// The blocked descent over the rows `ids` names, into a
    /// caller-owned buffer: `out[j]` is row `ids[j]`'s class.
    pub(crate) fn predict_rows(&self, block: &RowBlock, ids: &[u8], out: &mut [u16; BLOCK_ROWS]) {
        self.flat.predict_rows(block, ids, out);
    }

    /// The arena, whose one-row walk the batch is tested against.
    #[cfg(test)]
    pub(crate) fn flat(&self) -> &FlatTree {
        &self.flat
    }

    /// A tree over an arena built by hand, for suites that need trees
    /// no fit would grow.
    #[cfg(test)]
    pub(crate) fn from_flat(flat: FlatTree, n_classes: usize) -> Self {
        let importances = vec![0.0; flat.n_features()];
        DecisionTree { flat, n_classes, importances }
    }

    /// Feature arity this tree was trained on.
    pub fn n_features(&self) -> usize {
        self.flat.n_features()
    }

    /// Raw (unnormalized) per-feature impurity decreases.
    pub(crate) fn raw_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Tree depth (leaf-only tree has depth 0).
    pub fn depth(&self) -> usize {
        self.flat.depth()
    }

    /// Write the tree's nodes in pre-order (`S <feature> <threshold>` /
    /// `L <class>` lines) for the persistence format: a depth-first
    /// walk from the root, left child first, so the text does not
    /// depend on where the arena keeps its nodes.
    pub(crate) fn write_nodes(&self, out: &mut String) {
        let nodes = self.flat.nodes();
        let mut stack = vec![0u32];
        while let Some(i) = stack.pop() {
            let node = &nodes[i as usize];
            if node.left == i {
                out.push_str(&format!("L {}\n", node.class));
            } else {
                out.push_str(&format!("S {} {:x}\n", node.feature, node.threshold.to_bits()));
                stack.push(node.left + 1);
                stack.push(node.left);
            }
        }
    }

    /// Rebuild a tree from pre-order node lines (persistence format),
    /// straight into the arena. Raw importances are not persisted per
    /// tree (the forest stores the aggregate), so they reload as
    /// zeros. `n_classes` and `n_features` must not exceed
    /// `MAX_ARITY`; the depth-64 refusal bounds the steps
    /// the batch descent runs. Running out of lines is an error at
    /// line `eof`, the one after the text's last.
    pub(crate) fn read_nodes<'a>(
        lines: &mut impl Iterator<Item = (usize, &'a str)>,
        eof: usize,
        n_classes: usize,
        n_features: usize,
    ) -> Result<Self, PersistError> {
        fn rec<'a>(
            lines: &mut impl Iterator<Item = (usize, &'a str)>,
            eof: usize,
            n_classes: usize,
            flat: &mut FlatTree,
            slot: Slot,
        ) -> Result<(), PersistError> {
            let e = |line: usize, what: String| PersistError { line, what };
            let (ln, line) = lines
                .next()
                .ok_or_else(|| e(eof, "unexpected end of input in tree".to_string()))?;
            if slot.depth() > 64 {
                return Err(e(ln, "tree deeper than 64: refusing".to_string()));
            }
            let mut f = line.split_whitespace();
            match f.next() {
                Some("L") => {
                    let class: usize = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| e(ln, format!("bad leaf {line:?}")))?;
                    if class >= n_classes {
                        return Err(e(ln, format!("leaf class {class} out of range")));
                    }
                    flat.leaf(slot, class);
                    Ok(())
                }
                Some("S") => {
                    let feature: usize = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| e(ln, format!("bad split {line:?}")))?;
                    if feature >= flat.n_features() {
                        return Err(e(ln, format!("split feature {feature} out of range")));
                    }
                    let threshold = f
                        .next()
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                        .map(f64::from_bits)
                        .ok_or_else(|| e(ln, format!("bad threshold in {line:?}")))?;
                    let (left, right) = flat.split(slot, feature, threshold);
                    rec(lines, eof, n_classes, flat, left)?;
                    rec(lines, eof, n_classes, flat, right)
                }
                _ => Err(e(ln, format!("expected node line, got {line:?}"))),
            }
        }
        let mut flat = FlatTree::new(n_features);
        let root = flat.root();
        rec(lines, eof, n_classes, &mut flat, root)?;
        Ok(DecisionTree { flat, n_classes, importances: vec![0.0; n_features] })
    }
}

/// The boxed-node reference implementation, compiled for tests only:
/// per-node re-sorting during growth, `Box` recursion during
/// prediction.
///
/// This is the executable specification the columnar fast path is
/// property-tested against; [`ReferenceTree::flatten`] converts to a
/// [`DecisionTree`] for wire-format comparisons.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct ReferenceTree {
    root: Node,
    n_classes: usize,
    n_features: usize,
    importances: Vec<f64>,
}

#[cfg(test)]
impl ReferenceTree {
    /// Grow a reference tree on `data`.
    pub(crate) fn fit(data: &Dataset, params: &CartParams, seed: u64) -> Self {
        Self::fit_on_indices(data, &(0..data.len()).collect::<Vec<_>>(), params, seed)
    }

    /// Grow a reference tree on a subset of sample indices.
    pub(crate) fn fit_on_indices(
        data: &Dataset,
        indices: &[usize],
        params: &CartParams,
        seed: u64,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        assert!(data.n_classes() >= 1);
        let mut rng = Rng::new(seed);
        let mut importances = vec![0.0; data.n_features()];
        let root = grow(data, indices.to_vec(), params, 0, &mut rng, &mut importances);
        ReferenceTree {
            root,
            n_classes: data.n_classes(),
            n_features: data.n_features(),
            importances,
        }
    }

    /// Predict by recursive descent through the boxed nodes.
    pub(crate) fn predict(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.n_features, "feature arity mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class } => return *class,
                Node::Split { feature, threshold, left, right } => {
                    node = if x[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Raw (unnormalized) per-feature impurity decreases.
    pub(crate) fn raw_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Convert to the flat-arena representation, allocating slots in
    /// the order the columnar grower does (pre-order, children at the
    /// split), so equal trees have equal arenas.
    pub(crate) fn flatten(&self) -> DecisionTree {
        fn rec(n: &Node, flat: &mut FlatTree, slot: Slot) {
            match n {
                Node::Leaf { class } => flat.leaf(slot, *class),
                Node::Split { feature, threshold, left, right } => {
                    let (l, r) = flat.split(slot, *feature, *threshold);
                    rec(left, flat, l);
                    rec(right, flat, r);
                }
            }
        }
        let mut flat = FlatTree::new(self.n_features);
        let root = flat.root();
        rec(&self.root, &mut flat, root);
        DecisionTree { flat, n_classes: self.n_classes, importances: self.importances.clone() }
    }
}

/// Gini impurity of a class histogram, in integer sum-of-squares form:
/// `1 - Σc²/t²`. The numerator is exact integer arithmetic, so the
/// columnar sweep can maintain `Σc²` incrementally (`O(1)` per
/// threshold candidate instead of `O(classes)`) and still produce the
/// same bits as this function computed from scratch.
fn gini(counts: &[usize], total: usize) -> f64 {
    let sq: u64 = counts.iter().map(|&c| (c as u64) * (c as u64)).sum();
    gini_from_sq(sq, total)
}

/// Gini impurity from a precomputed `Σc²`. Shared by [`gini`] and the
/// incremental sweep so both paths round identically.
fn gini_from_sq(sq: u64, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as u64;
    1.0 - sq as f64 / ((t * t) as f64)
}

/// Majority class: ties break to the **first** (smallest) class index.
fn majority(counts: &[usize]) -> usize {
    argmax_first(counts)
}

/// The columnar fast-path grower: presorted feature segments, stable
/// partition, incremental `Σc²` sweep, flat-arena output.
///
/// Every feature array stays partitioned into per-node segments
/// ([`PresortedColumns`]), so candidate sweeps need no sorting at all;
/// accepting a split costs `O(features · m)` partition work.
struct ColumnarGrower<'a> {
    view: &'a ColumnarView,
    params: &'a CartParams,
    /// Bootstrap multiplicity of each view row (0 = out of bag).
    weights: &'a [usize],
    presort: PresortedColumns,
    rng: Rng,
    importances: Vec<f64>,
    flat: FlatTree,
    /// Per-node scratch, reused node after node: the node's weighted
    /// class histogram, its candidate features and the sweep's two
    /// running histograms. A node is done with them before it grows
    /// its children.
    counts: Vec<usize>,
    features: Vec<usize>,
    left_counts: Vec<usize>,
    right_counts: Vec<usize>,
}

impl ColumnarGrower<'_> {
    /// Grow the node owning segment `[lo, hi)` of every presorted
    /// feature array. Mirrors the reference `grow` decision for
    /// decision: same stop rule, same candidate order, same RNG
    /// consumption, same float expressions.
    fn grow(&mut self, slot: Slot, lo: usize, hi: usize) {
        if self.view.n_features() == 0 {
            // No columns to walk (and nothing to split on): count
            // straight off the label array; out-of-bag rows weigh 0.
            self.counts.fill(0);
            for (&l, &w) in self.view.labels().iter().zip(self.weights) {
                self.counts[l as usize] += w;
            }
            self.flat.leaf(slot, majority(&self.counts));
            return;
        }

        let mut counts = std::mem::take(&mut self.counts);
        counts.fill(0);
        for &p in self.presort.feature_segment(0, lo, hi) {
            counts[self.view.label(p)] += self.weights[p as usize];
        }
        // The node's weighted size — the reference's duplicate count.
        let m: usize = counts.iter().sum();
        let node_gini = gini(&counts, m);
        let stop = slot.depth() >= self.params.max_depth
            || m < self.params.min_samples_split
            || node_gini == 0.0;
        let best = if stop { None } else { self.best_split(&counts, lo, hi) };
        self.counts = counts;

        // Accept zero-improvement splits (like scikit-learn): XOR-style
        // structure yields no first-level Gini gain, yet splitting still
        // makes progress because both children are strictly smaller.
        match best {
            Some((feature, threshold, w)) if w <= node_gini + 1e-12 => {
                // Importance: impurity decrease weighted by node size.
                self.importances[feature] += (node_gini - w) * m as f64;
                let col = self.view.col(feature);
                self.presort.mark_by_threshold(feature, lo, hi, col, threshold);
                let n_left = self.presort.partition(lo, hi);
                let (l, r) = self.flat.split(slot, feature, threshold);
                self.grow(l, lo, lo + n_left);
                self.grow(r, lo + n_left, hi);
            }
            _ => {
                self.flat.leaf(slot, majority(&self.counts));
            }
        }
    }

    /// The best `(feature, threshold, weighted gini)` over the node's
    /// candidate features, given its class histogram `counts`.
    fn best_split(&mut self, counts: &[usize], lo: usize, hi: usize) -> Option<(usize, f64, f64)> {
        // Candidate features (possibly a random subset) — identical
        // shuffle, so the RNG stream matches the reference node for
        // node (pre-order).
        let mut features = std::mem::take(&mut self.features);
        features.clear();
        features.extend(0..self.view.n_features());
        if let Some(k) = self.params.max_features {
            self.rng.shuffle(&mut features);
            features.truncate(k.max(1).min(self.view.n_features()));
        }

        let mut best = None;
        let mut left_counts = std::mem::take(&mut self.left_counts);
        let mut right_counts = std::mem::take(&mut self.right_counts);
        for &f in &features {
            // Already sorted: sweep thresholds between distinct values.
            self.sweep_feature(
                self.presort.feature_segment(f, lo, hi),
                f,
                counts,
                &mut left_counts,
                &mut right_counts,
                &mut best,
            );
        }
        self.features = features;
        self.left_counts = left_counts;
        self.right_counts = right_counts;
        best
    }

    /// Sweep feature `f`'s node segment `seg` for the best threshold,
    /// maintaining `Σc²` on both sides incrementally.
    ///
    /// `seg` holds **distinct** in-bag rows in value order and `counts`
    /// the node's weighted class histogram; `weights[p]` is row `p`'s
    /// bootstrap multiplicity. Moving a row of weight `w` whose class
    /// count is `c` across the split changes `Σc²` by `(2c ± w)·w` —
    /// exact integer arithmetic, so the result is bit-identical to
    /// sweeping the duplicate-materialized rows (the duplicates are
    /// value-adjacent, and no threshold lands between equal values).
    fn sweep_feature(
        &self,
        seg: &[u32],
        f: usize,
        counts: &[usize],
        left_counts: &mut [usize],
        right_counts: &mut [usize],
        best: &mut Option<(usize, f64, f64)>,
    ) {
        let min_samples_leaf = self.params.min_samples_leaf;
        // The node's weighted size and `Σc²`.
        let total: usize = counts.iter().sum();
        let node_sq: u64 = counts.iter().map(|&c| (c as u64) * (c as u64)).sum();
        let n = total as f64;
        let col = self.view.col(f);
        left_counts.fill(0);
        right_counts.copy_from_slice(counts);
        let mut sq_left: u64 = 0;
        let mut sq_right: u64 = node_sq;
        let mut n_left = 0usize;
        for k in 0..seg.len() - 1 {
            let p = seg[k];
            let label = self.view.label(p);
            let rw = self.weights[p as usize];
            let rwu = rw as u64;
            let c = left_counts[label] as u64;
            sq_left += (2 * c + rwu) * rwu;
            left_counts[label] += rw;
            let c = right_counts[label] as u64;
            sq_right -= (2 * c - rwu) * rwu;
            right_counts[label] -= rw;
            n_left += rw;
            let v = col[p as usize];
            let v_next = col[seg[k + 1] as usize];
            if v == v_next {
                continue; // can't split between equal values
            }
            let n_right = total - n_left;
            if n_left < min_samples_leaf || n_right < min_samples_leaf {
                continue;
            }
            let w = (n_left as f64 / n) * gini_from_sq(sq_left, n_left)
                + (n_right as f64 / n) * gini_from_sq(sq_right, n_right);
            if best.map(|(_, _, bw)| w < bw).unwrap_or(true) {
                *best = Some((f, (v + v_next) / 2.0, w));
            }
        }
    }
}

/// The reference grower: re-sorts the node's indices per feature.
#[cfg(test)]
fn grow(
    data: &Dataset,
    indices: Vec<usize>,
    params: &CartParams,
    depth: usize,
    rng: &mut Rng,
    importances: &mut [f64],
) -> Node {
    let mut counts = vec![0usize; data.n_classes()];
    for &i in &indices {
        counts[data.samples[i].label] += 1;
    }
    let node_gini = gini(&counts, indices.len());
    let stop =
        depth >= params.max_depth || indices.len() < params.min_samples_split || node_gini == 0.0;
    if stop {
        return Node::Leaf { class: majority(&counts) };
    }

    // Candidate features (possibly a random subset).
    let mut features: Vec<usize> = (0..data.n_features()).collect();
    if let Some(k) = params.max_features {
        rng.shuffle(&mut features);
        features.truncate(k.max(1).min(data.n_features()));
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted gini)
    let n = indices.len() as f64;
    let mut sorted = indices.clone();
    for &f in &features {
        // Sort once per feature; sweep thresholds between distinct values.
        sorted.sort_by(|&a, &b| {
            data.samples[a].features[f]
                .partial_cmp(&data.samples[b].features[f])
                .expect("finite features")
        });
        let mut left_counts = vec![0usize; data.n_classes()];
        let mut right_counts = counts.clone();
        for k in 0..sorted.len() - 1 {
            let label = data.samples[sorted[k]].label;
            left_counts[label] += 1;
            right_counts[label] -= 1;
            let v = data.samples[sorted[k]].features[f];
            let v_next = data.samples[sorted[k + 1]].features[f];
            if v == v_next {
                continue; // can't split between equal values
            }
            let n_left = k + 1;
            let n_right = sorted.len() - n_left;
            if n_left < params.min_samples_leaf || n_right < params.min_samples_leaf {
                continue;
            }
            let w = (n_left as f64 / n) * gini(&left_counts, n_left)
                + (n_right as f64 / n) * gini(&right_counts, n_right);
            if best.map(|(_, _, bw)| w < bw).unwrap_or(true) {
                best = Some((f, (v + v_next) / 2.0, w));
            }
        }
    }

    // Accept zero-improvement splits (like scikit-learn): XOR-style
    // structure yields no first-level Gini gain, yet splitting still
    // makes progress because both children are strictly smaller.
    match best {
        Some((feature, threshold, w)) if w <= node_gini + 1e-12 => {
            // Importance: impurity decrease weighted by node size.
            importances[feature] += (node_gini - w) * n;
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                indices.into_iter().partition(|&i| data.samples[i].features[feature] <= threshold);
            let left = grow(data, left_idx, params, depth + 1, rng, importances);
            let right = grow(data, right_idx, params, depth + 1, rng, importances);
            Node::Split { feature, threshold, left: Box::new(left), right: Box::new(right) }
        }
        _ => Node::Leaf { class: majority(&counts) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;

    fn two_blob_dataset() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()], vec!["lo".into(), "hi".into()]);
        for i in 0..20 {
            d.push(Sample { features: vec![i as f64 * 0.01, 0.3], label: 0 });
            d.push(Sample { features: vec![1.0 + i as f64 * 0.01, 0.7], label: 1 });
        }
        d
    }

    #[test]
    fn separable_data_classifies_perfectly() {
        let d = two_blob_dataset();
        let t = DecisionTree::fit(&d, &CartParams::default(), 0);
        for s in &d.samples {
            assert_eq!(t.flat.predict(&s.features), s.label);
        }
        assert_eq!(t.depth(), 1, "one split suffices");
        assert_eq!(t.flat.leaves(), 2);
    }

    #[test]
    fn importances_identify_the_informative_feature() {
        let d = two_blob_dataset();
        let t = DecisionTree::fit(&d, &CartParams::default(), 0);
        let imp = t.raw_importances();
        assert!(imp[0] > 0.0, "feature x carries all signal");
        assert_eq!(imp[1], 0.0, "feature y is constant-ish and unused");
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut d = Dataset::new(vec!["x".into()], vec!["only".into()]);
        for i in 0..10 {
            d.push(Sample { features: vec![i as f64], label: 0 });
        }
        let t = DecisionTree::fit(&d, &CartParams::default(), 0);
        assert_eq!(t.flat.leaves(), 1);
        assert_eq!(t.flat.predict(&[3.0]), 0);
    }

    #[test]
    fn max_depth_zero_yields_majority_stump() {
        let mut d = two_blob_dataset();
        // Unbalance it: add extra class-1 samples.
        for i in 0..10 {
            d.push(Sample { features: vec![2.0 + i as f64, 0.5], label: 1 });
        }
        let p = CartParams { max_depth: 0, ..CartParams::default() };
        let t = DecisionTree::fit(&d, &p, 0);
        assert_eq!(t.flat.leaves(), 1);
        assert_eq!(t.flat.predict(&[0.0, 0.3]), 1, "majority class wins");
    }

    /// Regression for the documented tie-break: an exact tie in the
    /// majority count must resolve to the *smaller* class index.
    /// `max_by_key` (the old implementation) picked the larger one.
    #[test]
    fn majority_tie_breaks_to_smaller_class_index() {
        assert_eq!(majority(&[5, 5]), 0);
        assert_eq!(majority(&[0, 3, 3]), 1);
        let d = two_blob_dataset(); // exactly 20 of each class
        let p = CartParams { max_depth: 0, ..CartParams::default() };
        let t = DecisionTree::fit(&d, &p, 0);
        assert_eq!(t.flat.predict(&[9.0, 0.5]), 0, "20-20 tie goes to class 0");
        let r = ReferenceTree::fit(&d, &p, 0);
        assert_eq!(r.predict(&[9.0, 0.5]), 0);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let d = two_blob_dataset();
        let p = CartParams { min_samples_leaf: 25, ..CartParams::default() };
        let t = DecisionTree::fit(&d, &p, 0);
        // 40 samples, each child would need ≥25: impossible, so no split.
        assert_eq!(t.flat.leaves(), 1);
    }

    #[test]
    fn xor_needs_depth_two() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()], vec!["zero".into(), "one".into()]);
        for (a, b, l) in [(0.0, 0.0, 0), (0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)] {
            for _ in 0..5 {
                d.push(Sample { features: vec![a, b], label: l });
            }
        }
        let p = CartParams { min_samples_split: 2, ..CartParams::default() };
        let t = DecisionTree::fit(&d, &p, 0);
        for s in &d.samples {
            assert_eq!(t.flat.predict(&s.features), s.label);
        }
        assert!(t.depth() >= 2);
    }

    #[test]
    fn duplicate_feature_values_never_split_between_equals() {
        // All x equal: no split possible on x; tree must fall back to leaf.
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]);
        for i in 0..10 {
            d.push(Sample { features: vec![5.0], label: i % 2 });
        }
        let t = DecisionTree::fit(&d, &CartParams::default(), 0);
        assert_eq!(t.flat.leaves(), 1);
    }

    #[test]
    fn feature_subsampling_is_seed_deterministic() {
        let d = two_blob_dataset();
        let p = CartParams { max_features: Some(1), ..CartParams::default() };
        let t1 = DecisionTree::fit(&d, &p, 9);
        let t2 = DecisionTree::fit(&d, &p, 9);
        for s in &d.samples {
            assert_eq!(t1.flat.predict(&s.features), t2.flat.predict(&s.features));
        }
    }

    #[test]
    fn fast_path_matches_reference_on_blobs() {
        let d = two_blob_dataset();
        for seed in [0, 3, 9] {
            let p = CartParams { max_features: Some(1), ..CartParams::default() };
            let fast = DecisionTree::fit(&d, &p, seed);
            let reference = ReferenceTree::fit(&d, &p, seed);
            assert_eq!(fast.raw_importances(), reference.raw_importances());
            assert_eq!(fast, reference.flatten(), "identical arenas node for node");
            for s in &d.samples {
                assert_eq!(fast.flat.predict(&s.features), reference.predict(&s.features));
            }
        }
    }

    #[test]
    fn predict_block_matches_predict() {
        let d = two_blob_dataset();
        let t = DecisionTree::fit(&d, &CartParams::default(), 0);
        let xs: Vec<&[f64]> = d.samples.iter().map(|s| s.features.as_slice()).collect();
        let mut block = RowBlock::new(2);
        block.fill(&xs);
        let per_row: Vec<usize> = d.samples.iter().map(|s| t.flat.predict(&s.features)).collect();
        assert_eq!(t.predict_block(&block), per_row);
    }

    #[test]
    #[should_panic(expected = "feature arity mismatch")]
    fn predict_checks_arity() {
        let d = two_blob_dataset();
        let t = DecisionTree::fit(&d, &CartParams::default(), 0);
        t.predict_block(&RowBlock::new(1));
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(&[10, 0], 10), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[], 0), 0.0);
        let g = gini(&[3, 3, 3], 9);
        assert!((g - (1.0 - 3.0 * (1.0 / 9.0))).abs() < 1e-12);
    }

    /// The sum-of-squares form must agree with the textbook
    /// `1 - Σ(c/t)²` to floating-point-comparison accuracy on
    /// awkward histograms.
    #[test]
    fn sum_of_squares_gini_matches_textbook_form() {
        let cases: &[&[usize]] = &[&[1, 2, 3], &[7], &[13, 0, 5, 5], &[997, 3], &[1; 12]];
        for counts in cases {
            let total: usize = counts.iter().sum();
            let textbook = 1.0
                - counts
                    .iter()
                    .map(|&c| {
                        let p = c as f64 / total as f64;
                        p * p
                    })
                    .sum::<f64>();
            assert!((gini(counts, total) - textbook).abs() < 1e-12);
        }
    }
}

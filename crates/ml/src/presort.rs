//! Presorted per-feature index arrays with stable partition.
//!
//! The reference CART re-sorts the node's sample indices for every
//! feature at every node (`O(nodes · features · n log n)`). The classic
//! fix (SLIQ/SPRINT lineage) is to arg-sort each feature column once
//! and keep every feature's array partitioned into contiguous per-node
//! segments as the tree grows: a node owns `[lo, hi)` in *every*
//! feature array, each holding the same position set sorted by that
//! feature's values. The sort happens **once per forest**:
//! [`SortedRows`] is shared by its trees, each of which reads it
//! through its bootstrap's weights (0 = out of bag).
//!
//! The invariant that makes the fast path bit-identical to the
//! reference is *stability*: the argsort is stable (ties keep position
//! order), dropping the out-of-bag positions and
//! [`PresortedColumns::partition`] are stable partitions, and stable
//! sorting commutes with predicate filtering — so a tree's filtered
//! order is the stable argsort of its own distinct rows, and each child
//! segment is exactly what the reference would compute by
//! stable-sorting the child's index list from scratch.

use crate::dataset::Dataset;
use crate::matrix::ColumnarView;

/// Every row of a dataset, column-major, with each feature's stable
/// argsort: what the trees of one forest share.
#[derive(Debug)]
pub struct SortedRows {
    /// The dataset's rows; a position is a dataset index.
    pub view: ColumnarView,
    /// `order[f]`: all positions ascending by feature `f`'s value.
    order: Vec<Vec<u32>>,
    /// Classes in the dataset's schema.
    pub n_classes: usize,
}

impl SortedRows {
    /// Copy `data` column-major and arg-sort every column
    /// (`O(features · n log n)`).
    pub fn new(data: &Dataset) -> Self {
        let _stage = bs_telemetry::stage("ml.fit.shared");
        let view = data.columnar();
        let order = (0..view.n_features())
            .map(|f| {
                let col = view.col(f);
                let mut order: Vec<u32> = (0..view.rows() as u32).collect();
                // Stable: ties keep ascending position order, exactly
                // like the reference's stable sort of its index list.
                // (Sorting contiguous (value, position) pairs unstably
                // was tried and measured ~2x slower end to end — the
                // 16-byte elements double the bytes every merge moves.)
                order.sort_by(|&a, &b| {
                    col[a as usize].partial_cmp(&col[b as usize]).expect("finite features")
                });
                order
            })
            .collect();
        SortedRows { view, order, n_classes: data.n_classes() }
    }
}

/// One tree's arg-sorted position arrays, one per feature,
/// segment-partitioned in place as the tree grows.
#[derive(Debug, Clone)]
pub struct PresortedColumns {
    /// `per_feature[f]` holds the tree's in-bag positions sorted
    /// ascending by feature `f`'s value (stable: ties in position order).
    per_feature: Vec<Vec<u32>>,
    /// Partition side per position, written by
    /// [`PresortedColumns::mark_by_threshold`].
    go_left: Vec<bool>,
    /// Scratch for the right-hand side during stable partition.
    scratch: Vec<u32>,
}

impl PresortedColumns {
    /// The shared orders restricted to the positions of non-zero
    /// weight: every whole array partitioned by "in bag", left side kept.
    pub fn filtered(shared: &SortedRows, weights: &[usize]) -> Self {
        let mut ps = PresortedColumns {
            per_feature: shared.order.clone(),
            go_left: weights.iter().map(|&w| w > 0).collect(),
            scratch: vec![0; weights.len()],
        };
        let in_bag = ps.partition(0, weights.len());
        for order in &mut ps.per_feature {
            order.truncate(in_bag);
        }
        ps
    }

    /// Feature `f`'s positions for the node segment `[lo, hi)`, in
    /// ascending value order.
    pub fn feature_segment(&self, f: usize, lo: usize, hi: usize) -> &[u32] {
        &self.per_feature[f][lo..hi]
    }

    /// Mark each position in `[lo, hi)` with its split side:
    /// `col[position] <= threshold` goes left. `col` must be the value
    /// column of `f` (any feature's segment enumerates the same set;
    /// passing `f`'s keeps the walk contiguous).
    pub fn mark_by_threshold(
        &mut self,
        f: usize,
        lo: usize,
        hi: usize,
        col: &[f64],
        threshold: f64,
    ) {
        let Self { per_feature, go_left, .. } = self;
        for &p in &per_feature[f][lo..hi] {
            go_left[p as usize] = col[p as usize] <= threshold;
        }
    }

    /// Stable-partition every feature's `[lo, hi)` segment by the
    /// marks: left-marked positions compact to the front, each side
    /// keeping its value order. Returns the left child's size, so the
    /// children own `[lo, lo + n_left)` and `[lo + n_left, hi)`.
    ///
    /// Branch-free, because an `if` on the mark mispredicts on about
    /// half the elements: each is stored at both the left cursor and
    /// the scratch cursor and the mark advances one of the two. The
    /// left cursor never passes the read cursor, so the in-place store
    /// only overwrites elements already read.
    pub fn partition(&mut self, lo: usize, hi: usize) -> usize {
        let Self { per_feature, go_left, scratch } = self;
        let mut n_left = 0;
        for order in per_feature.iter_mut() {
            let seg = &mut order[lo..hi];
            let right = &mut scratch[..seg.len()];
            let (mut w, mut s) = (0, 0);
            for r in 0..seg.len() {
                let p = seg[r];
                let left = go_left[p as usize] as usize;
                seg[w] = p;
                right[s] = p;
                w += left;
                s += 1 - left;
            }
            seg[w..].copy_from_slice(&right[..s]);
            n_left = w;
        }
        n_left
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;

    fn shared(rows: &[(&[f64], usize)]) -> SortedRows {
        let names = |n: usize, p: &str| (0..n).map(|i| format!("{p}{i}")).collect();
        let mut d = Dataset::new(names(rows[0].0.len(), "f"), names(2, "c"));
        for (features, label) in rows {
            d.push(Sample { features: features.to_vec(), label: *label });
        }
        SortedRows::new(&d)
    }

    /// Every row in bag once: the plain-fit weights.
    fn all_rows(shared: &SortedRows) -> PresortedColumns {
        PresortedColumns::filtered(shared, &vec![1; shared.view.rows()])
    }

    /// 64 rows of deliberately collision-heavy values from a tiny LCG
    /// (5 and 7 distinct values), plus the row's parity as a third
    /// column so a threshold on it marks alternate positions.
    fn tie_heavy() -> SortedRows {
        let mut h: u64 = 7;
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|i| {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                vec![((h >> 16) % 5) as f64, ((h >> 32) % 7) as f64, (i % 2) as f64]
            })
            .collect();
        shared(&rows.iter().map(|r| (r.as_slice(), 0)).collect::<Vec<_>>())
    }

    /// `positions` (ascending) stably sorted by feature `f`: what the
    /// reference computes from scratch for a node's index list.
    fn stable_sorted(shared: &SortedRows, f: usize, positions: &[u32]) -> Vec<u32> {
        let col = shared.view.col(f);
        let mut out = positions.to_vec();
        out.sort_by(|&a, &b| col[a as usize].partial_cmp(&col[b as usize]).unwrap());
        out
    }

    #[test]
    fn argsort_is_stable_on_ties() {
        let v = shared(&[(&[2.0, 1.0], 0), (&[1.0, 1.0], 0), (&[2.0, 1.0], 1), (&[0.0, 1.0], 1)]);
        let ps = all_rows(&v);
        assert_eq!(ps.feature_segment(0, 0, 4), &[3, 1, 0, 2], "ties keep position order");
        assert_eq!(ps.feature_segment(1, 0, 4), &[0, 1, 2, 3], "all-equal column stays put");
    }

    /// The shared order filtered by a bootstrap's weights must equal a
    /// stable argsort of the bootstrap's distinct rows taken in
    /// ascending dataset order — what each tree used to compute on its
    /// own deduplicated copy — mapped back to dataset indices.
    #[test]
    fn filtered_shared_order_is_the_argsort_of_the_distinct_bootstrap_rows() {
        let v = tie_heavy();
        let mut h: u64 = 11;
        for case in 0..32 {
            let mut weights = vec![0usize; 64];
            // Full-size bootstraps, and sparse ones of 1 + case draws.
            for _ in 0..if case % 2 == 0 { 64 } else { 1 + case } {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                weights[(h >> 33) as usize % 64] += 1;
            }
            let distinct: Vec<u32> = (0..64u32).filter(|&p| weights[p as usize] > 0).collect();
            let ps = PresortedColumns::filtered(&v, &weights);
            for f in 0..3 {
                // The deduplicated view held `distinct` in this order, so
                // its stable argsort, mapped back, is their stable sort.
                assert_eq!(ps.per_feature[f], stable_sorted(&v, f, &distinct), "case {case}");
            }
        }
    }

    /// Partitioning the presorted array must equal filtering the
    /// positions and re-sorting stably — the reference's behaviour.
    #[test]
    fn partition_matches_filter_then_stable_sort() {
        let v = tie_heavy();
        let rows = v.view.rows();
        let mut ps = all_rows(&v);
        let threshold = 2.0;
        ps.mark_by_threshold(0, 0, rows, v.view.col(0), threshold);
        let n_left = ps.partition(0, rows);

        for f in 0..2 {
            let col = v.view.col(f);
            let mut expect_left: Vec<u32> =
                (0..rows as u32).filter(|&p| v.view.col(0)[p as usize] <= threshold).collect();
            expect_left.sort_by(|&a, &b| col[a as usize].partial_cmp(&col[b as usize]).unwrap());
            let mut expect_right: Vec<u32> =
                (0..rows as u32).filter(|&p| v.view.col(0)[p as usize] > threshold).collect();
            expect_right.sort_by(|&a, &b| col[a as usize].partial_cmp(&col[b as usize]).unwrap());
            assert_eq!(ps.feature_segment(f, 0, n_left), &expect_left[..]);
            assert_eq!(ps.feature_segment(f, n_left, rows), &expect_right[..]);
        }
    }

    /// The degenerate mark patterns of the branch-free loop — every
    /// element left, every element right, strict alternation — on both
    /// children of a first split, for a plain fit and a sparse
    /// bootstrap: still filter-then-stable-sort, and nothing outside
    /// the segment moves.
    #[test]
    fn partition_handles_one_sided_and_alternating_marks() {
        let v = tie_heavy();
        let sparse: Vec<usize> = (0..64).map(|p| (p % 3 != 1) as usize * (1 + p % 2)).collect();
        // (mark feature, threshold): all left, all right, alternating.
        for (mark_f, threshold) in [(0, 9.0), (1, -1.0), (2, 0.5)] {
            for weights in [vec![1; 64], sparse.clone()] {
                let in_bag = weights.iter().filter(|&&w| w > 0).count();
                for right_child in [false, true] {
                    let mut ps = PresortedColumns::filtered(&v, &weights);
                    ps.mark_by_threshold(0, 0, in_bag, v.view.col(0), 1.0);
                    let first = ps.partition(0, in_bag);
                    let (lo, hi) = if right_child { (first, in_bag) } else { (0, first) };
                    let before = ps.per_feature.clone();
                    let mut node = before[0][lo..hi].to_vec();
                    node.sort_unstable();
                    ps.mark_by_threshold(mark_f, lo, hi, v.view.col(mark_f), threshold);
                    let n_left = ps.partition(lo, hi);
                    let goes_left = |p: &u32| v.view.col(mark_f)[*p as usize] <= threshold;
                    let left: Vec<u32> = node.iter().copied().filter(goes_left).collect();
                    let right: Vec<u32> = node.iter().copied().filter(|p| !goes_left(p)).collect();
                    assert_eq!(n_left, left.len());
                    let mid = lo + n_left;
                    for (f, (got, before)) in ps.per_feature.iter().zip(&before).enumerate() {
                        let what = format!("mark {mark_f} <= {threshold}, [{lo}, {hi}), f {f}");
                        assert_eq!(got[lo..mid], stable_sorted(&v, f, &left), "{what}");
                        assert_eq!(got[mid..hi], stable_sorted(&v, f, &right), "{what}");
                        assert_eq!(got[..lo], before[..lo], "{what}: below the segment");
                        assert_eq!(got[hi..], before[hi..], "{what}: above the segment");
                    }
                }
            }
        }
    }

    /// A one-element segment goes wholly left or wholly right and the
    /// arrays do not change.
    #[test]
    fn partition_of_a_single_element_segment_is_the_identity() {
        let v = shared(&[(&[2.0], 0), (&[1.0], 1), (&[3.0], 0)]);
        let mut ps = all_rows(&v);
        for (threshold, n_left) in [(9.0, 1), (0.0, 0)] {
            for at in 0..3 {
                ps.mark_by_threshold(0, at, at + 1, v.view.col(0), threshold);
                assert_eq!(ps.partition(at, at + 1), n_left);
                assert_eq!(ps.feature_segment(0, 0, 3), &[1, 0, 2]);
            }
        }
    }

    #[test]
    fn nested_partitions_keep_segments_consistent() {
        let v =
            shared(&[(&[3.0], 0), (&[1.0], 1), (&[4.0], 0), (&[1.0], 1), (&[5.0], 0), (&[9.0], 1)]);
        let mut ps = all_rows(&v);
        ps.mark_by_threshold(0, 0, 6, v.view.col(0), 3.5);
        let n_left = ps.partition(0, 6);
        assert_eq!(n_left, 3);
        assert_eq!(ps.feature_segment(0, 0, 3), &[1, 3, 0]);
        // Partition only the right child; the left segment is untouched.
        // Right segment holds positions [2, 4, 5] (values 4, 5, 9):
        // only value 4 is ≤ 4.5.
        ps.mark_by_threshold(0, 3, 6, v.view.col(0), 4.5);
        let n_left2 = ps.partition(3, 6);
        assert_eq!(n_left2, 1);
        assert_eq!(ps.feature_segment(0, 0, 3), &[1, 3, 0]);
        assert_eq!(ps.feature_segment(0, 3, 4), &[2]);
        assert_eq!(ps.feature_segment(0, 4, 6), &[4, 5]);
    }
}

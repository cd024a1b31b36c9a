//! Presorted per-feature index arrays with stable partition.
//!
//! The reference CART re-sorts the node's sample indices for every
//! feature at every node (`O(nodes · features · n log n)`). The classic
//! fix (SLIQ/SPRINT lineage) is to arg-sort each feature column **once
//! per fit** and keep every feature's array partitioned into
//! contiguous per-node segments as the tree grows: a node owns
//! `[lo, hi)` in *every* feature array, each holding the same position
//! set sorted by that feature's values.
//!
//! The invariant that makes the fast path bit-identical to the
//! reference is *stability*: the initial argsort is stable (ties keep
//! position order) and [`PresortedColumns::partition`] is a stable
//! partition, so each child segment is exactly what the reference
//! would compute by stable-sorting the child's index list from
//! scratch — stable sorting commutes with predicate filtering.

use crate::matrix::ColumnarView;

/// Arg-sorted position arrays, one per feature, segment-partitioned in
/// place as a tree grows.
#[derive(Debug, Clone)]
pub struct PresortedColumns {
    /// `per_feature[f]` holds all positions sorted ascending by
    /// feature `f`'s value (stable: ties in position order).
    per_feature: Vec<Vec<u32>>,
    /// Partition side per position, written by
    /// [`PresortedColumns::mark_by_threshold`].
    go_left: Vec<bool>,
    /// Scratch for the right-hand side during stable partition.
    scratch: Vec<u32>,
}

impl PresortedColumns {
    /// Arg-sort every column of `view` once (`O(features · n log n)`).
    pub fn new(view: &ColumnarView) -> Self {
        let rows = view.rows();
        let per_feature = (0..view.n_features())
            .map(|f| {
                let col = view.col(f);
                let mut order: Vec<u32> = (0..rows as u32).collect();
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
        PresortedColumns {
            per_feature,
            go_left: vec![false; rows],
            scratch: Vec::with_capacity(rows),
        }
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
    pub fn partition(&mut self, lo: usize, hi: usize) -> usize {
        let Self { per_feature, go_left, scratch } = self;
        let mut n_left = 0;
        for order in per_feature.iter_mut() {
            scratch.clear();
            let mut w = lo;
            for r in lo..hi {
                let p = order[r];
                if go_left[p as usize] {
                    order[w] = p;
                    w += 1;
                } else {
                    scratch.push(p);
                }
            }
            order[w..hi].copy_from_slice(scratch);
            n_left = w - lo;
        }
        n_left
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(rows: &[(&[f64], u32)]) -> ColumnarView {
        let mut v = ColumnarView::with_capacity(rows[0].0.len(), rows.len());
        for (features, label) in rows {
            v.push_row(features, *label);
        }
        v
    }

    #[test]
    fn argsort_is_stable_on_ties() {
        let v = view(&[(&[2.0, 1.0], 0), (&[1.0, 1.0], 0), (&[2.0, 1.0], 1), (&[0.0, 1.0], 1)]);
        let ps = PresortedColumns::new(&v);
        assert_eq!(ps.feature_segment(0, 0, 4), &[3, 1, 0, 2], "ties keep position order");
        assert_eq!(ps.feature_segment(1, 0, 4), &[0, 1, 2, 3], "all-equal column stays put");
    }

    /// Partitioning the presorted array must equal filtering the
    /// positions and re-sorting stably — the reference's behaviour.
    #[test]
    fn partition_matches_filter_then_stable_sort() {
        // Deliberately collision-heavy values from a tiny LCG.
        let mut h: u64 = 7;
        let mut rows = Vec::new();
        for _ in 0..64 {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rows.push(vec![((h >> 16) % 5) as f64, ((h >> 32) % 7) as f64]);
        }
        let mut v = ColumnarView::with_capacity(2, rows.len());
        for r in &rows {
            v.push_row(r, 0);
        }
        let mut ps = PresortedColumns::new(&v);
        let threshold = 2.0;
        ps.mark_by_threshold(0, 0, rows.len(), v.col(0), threshold);
        let n_left = ps.partition(0, rows.len());

        for f in 0..2 {
            let col = v.col(f);
            let mut expect_left: Vec<u32> =
                (0..rows.len() as u32).filter(|&p| rows[p as usize][0] <= threshold).collect();
            expect_left.sort_by(|&a, &b| col[a as usize].partial_cmp(&col[b as usize]).unwrap());
            let mut expect_right: Vec<u32> =
                (0..rows.len() as u32).filter(|&p| rows[p as usize][0] > threshold).collect();
            expect_right.sort_by(|&a, &b| col[a as usize].partial_cmp(&col[b as usize]).unwrap());
            assert_eq!(ps.feature_segment(f, 0, n_left), &expect_left[..]);
            assert_eq!(ps.feature_segment(f, n_left, rows.len()), &expect_right[..]);
        }
    }

    #[test]
    fn nested_partitions_keep_segments_consistent() {
        let v =
            view(&[(&[3.0], 0), (&[1.0], 1), (&[4.0], 0), (&[1.0], 1), (&[5.0], 0), (&[9.0], 1)]);
        let mut ps = PresortedColumns::new(&v);
        ps.mark_by_threshold(0, 0, 6, v.col(0), 3.5);
        let n_left = ps.partition(0, 6);
        assert_eq!(n_left, 3);
        assert_eq!(ps.feature_segment(0, 0, 3), &[1, 3, 0]);
        // Partition only the right child; the left segment is untouched.
        // Right segment holds positions [2, 4, 5] (values 4, 5, 9):
        // only value 4 is ≤ 4.5.
        ps.mark_by_threshold(0, 3, 6, v.col(0), 4.5);
        let n_left2 = ps.partition(3, 6);
        assert_eq!(n_left2, 1);
        assert_eq!(ps.feature_segment(0, 0, 3), &[1, 3, 0]);
        assert_eq!(ps.feature_segment(0, 3, 4), &[2]);
        assert_eq!(ps.feature_segment(0, 4, 6), &[4, 5]);
    }
}

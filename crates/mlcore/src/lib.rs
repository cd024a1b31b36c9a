//! `bs-mlcore` — columnar training-engine primitives for the ML layer.
//!
//! The paper's sensor retrains classifiers constantly: §III-E refits
//! across time-separated windows, §IV runs CART / random forest /
//! kernel SVM under 10-run majority votes and 50-repetition
//! cross-validation, so `fit` executes hundreds of times per
//! experiment. The seed implementations pay three classic prices on
//! that path: row-major `samples[i].features[f]` double-indirection,
//! per-node per-feature re-sorting inside CART's split search, and
//! `Box`-recursive tree nodes that scatter `predict` across the heap.
//! This crate provides the shared primitives the fast paths in `bs-ml`
//! are built from — following the house pattern of a fast engine
//! whose behaviour is property-tested against a retained executable
//! reference:
//!
//! * [`ColumnarView`] — column-major training data: one contiguous
//!   `Vec<f64>` per feature plus a parallel label array, so a split
//!   sweep walks one cache-friendly column instead of hopping rows;
//! * [`PresortedColumns`] — arg-sorted per-feature index arrays,
//!   maintained across tree growth by stable in-place partition:
//!   sorting happens **once per fit** (`O(features · n log n)`) and
//!   each node costs `O(features · n)`, replacing the reference's
//!   `O(nodes · features · n log n)` re-sort;
//! * [`FlatTree`] — one `Vec<FlatNode>` arena per tree with a split's
//!   children in adjacent slots and self-looping leaves, so a step is
//!   `left + !(x[feature] <= threshold)` and a batch runs a fixed
//!   `depth` steps: the single-row [`FlatTree::predict`] and the
//!   blocked [`FlatTree::predict_block`] walk the same arena
//!   (DESIGN.md §14);
//! * [`RowBlock`] — up to [`BLOCK_ROWS`] rows in one contiguous buffer
//!   with a trailing constant-0.0 column, filled once and walked by
//!   every tree that votes on it;
//! * [`RowMatrix`] — flat row-major storage for kernel methods (one
//!   allocation, contiguous rows);
//! * [`GramCache`] — a per-machine kernel cache: full Gram matrix up
//!   to a size limit, bounded lazy row cache beyond it, so kernel
//!   entries are computed once per pair instead of once per access;
//! * [`argmax_first`] — the shared tie-break rule: the **first**
//!   maximum wins, so ties always resolve to the smaller index.
//!
//! # Determinism contract
//!
//! Every primitive here is deterministic and, used as `bs-ml` uses
//! them, *bit-identical* to the reference implementations: stable
//! argsort + stable partition reproduce exactly the orderings the
//! reference's per-node stable sorts produce, and [`GramCache`]
//! returns the same bits whether full or lazy because the kernel is
//! required to be symmetric and is evaluated identically either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flat;
mod gram;
mod matrix;
mod presort;

pub use flat::{FlatNode, FlatTree, RowBlock, Slot, BLOCK_ROWS, MAX_ARITY};
pub use gram::GramCache;
pub use matrix::{ColumnarView, RowMatrix};
pub use presort::PresortedColumns;

/// Index of the **first** maximum of `values` (ties break to the
/// smaller index). Returns 0 for an empty slice.
///
/// `std`'s `max_by_key` keeps the *last* maximum, which silently broke
/// the documented "ties break to the smaller class index" contract in
/// every voting path; this helper is the single place the rule lives.
pub fn argmax_first<T: PartialOrd>(values: &[T]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate().skip(1) {
        if *v > values[best] {
            best = i;
        }
    }
    best
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
        // The regression this crate exists to pin down: std's
        // max_by_key picks the *last* max.
        let votes = [4, 7, 7, 1];
        let last = votes.iter().enumerate().max_by_key(|(_, v)| **v).map(|(i, _)| i).unwrap();
        assert_eq!(last, 2);
        assert_eq!(argmax_first(&votes), 1);
    }
}

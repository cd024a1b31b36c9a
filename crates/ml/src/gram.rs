//! The Gram matrix of a kernel over `n` training rows.
//!
//! SMO reads kernel entries `K(i, j)` in an access pattern dominated
//! by whole rows (the decision-function sums) plus a few scalars per
//! update, so the whole symmetric matrix is precomputed flat and
//! row-major, and a decision sum walks one contiguous slice. Every
//! in-tree fit is a one-vs-one pair of curated labels, capped per class
//! (a few hundred rows), so the matrix stays a few megabytes.
//!
//! The kernel **must be symmetric bit-for-bit** (`k(i, j) == k(j, i)`
//! as f64 bits): the matrix computes each pair once and mirrors it.
//! RBF kernels satisfy this — `(x - y)²` and `(y - x)²` are the same
//! float — as does any kernel built from symmetric elementwise terms
//! summed in a fixed order.

/// The full `n × n` kernel matrix, row-major.
#[derive(Debug)]
pub(crate) struct GramCache {
    n: usize,
    full: Vec<f64>,
}

impl GramCache {
    /// Compute `kernel(i, j)` for every `i ≤ j < n` and mirror it
    /// (memory `n² × 8` bytes).
    pub(crate) fn new(n: usize, kernel: impl Fn(usize, usize) -> f64) -> Self {
        let mut full = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let v = kernel(i, j);
                full[i * n + j] = v;
                full[j * n + i] = v;
            }
        }
        GramCache { n, full }
    }

    /// Kernel row `i`: `K(i, j)` for every `j`, contiguous.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.full[i * self.n..(i + 1) * self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A symmetric toy kernel with distinguishable entries.
    fn k(i: usize, j: usize) -> f64 {
        1.0 / (1.0 + (i as f64 - j as f64).abs()) + (i + j) as f64
    }

    #[test]
    fn symmetric_mirror_matches_direct_compute() {
        let n = 9;
        let g = GramCache::new(n, k);
        for i in 0..n {
            assert_eq!(g.row(i).len(), n);
            for j in 0..n {
                assert_eq!(g.row(i)[j].to_bits(), k(i, j).to_bits());
                assert_eq!(g.row(i)[j].to_bits(), g.row(j)[i].to_bits());
            }
        }
    }
}

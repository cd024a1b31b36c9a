//! Bounded Gram-matrix kernel caches.
//!
//! SMO reads kernel entries `K(i, j)` in an access pattern dominated
//! by whole rows (the decision-function sums) plus a few scalars per
//! update. Below a size limit the whole symmetric matrix is
//! precomputed flat and row-major, so a decision sum walks one
//! contiguous slice; above it, rows are computed on demand into a
//! bounded cache whose memory never exceeds the full-matrix budget.
//!
//! The kernel **must be symmetric bit-for-bit** (`k(i, j) == k(j, i)`
//! as f64 bits): callers rely on a cached row `i` supplying `K(j, i)`
//! for any `j`. RBF kernels satisfy this — `(x - y)²` and `(y - x)²`
//! are the same float — as does any kernel built from symmetric
//! elementwise terms summed in a fixed order.

/// A kernel cache over `n` training rows.
#[derive(Debug)]
pub struct GramCache<F: Fn(usize, usize) -> f64> {
    kernel: F,
    n: usize,
    /// Full `n × n` row-major matrix when `n` is small enough.
    full: Option<Vec<f64>>,
    /// Lazy per-row cache otherwise.
    rows: Vec<Option<Box<[f64]>>>,
    cached: usize,
    cap: usize,
    /// Fallback row buffer once the cache is full.
    scratch: Vec<f64>,
}

impl<F: Fn(usize, usize) -> f64> GramCache<F> {
    /// Build a cache. `full_limit` is the largest `n` for which the
    /// whole matrix is materialized (memory `n² × 8` bytes); beyond
    /// it, at most `row_cap` rows are cached (`row_cap × n × 8`
    /// bytes), and further rows are recomputed into a scratch buffer.
    pub fn new(n: usize, full_limit: usize, row_cap: usize, kernel: F) -> Self {
        let full = if n <= full_limit {
            let mut g = vec![0.0; n * n];
            for i in 0..n {
                for j in i..n {
                    let v = kernel(i, j);
                    g[i * n + j] = v;
                    g[j * n + i] = v;
                }
            }
            Some(g)
        } else {
            None
        };
        let rows = if full.is_some() { Vec::new() } else { vec![None; n] };
        GramCache { kernel, n, full, rows, cached: 0, cap: row_cap, scratch: Vec::new() }
    }

    /// Kernel row `i`: `K(i, j)` for every `j`, contiguous.
    pub fn row(&mut self, i: usize) -> &[f64] {
        let Self { kernel, n, full, rows, cached, cap, scratch } = self;
        let n = *n;
        if let Some(g) = full {
            return &g[i * n..(i + 1) * n];
        }
        if rows[i].is_none() && *cached < *cap {
            rows[i] = Some((0..n).map(|j| kernel(i, j)).collect());
            *cached += 1;
        }
        match &rows[i] {
            Some(r) => r,
            None => {
                scratch.clear();
                scratch.extend((0..n).map(|j| kernel(i, j)));
                scratch
            }
        }
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
    fn full_and_lazy_agree_bitwise() {
        let n = 17;
        let mut full = GramCache::new(n, 64, 0, k);
        let mut lazy_cached = GramCache::new(n, 4, 8, k);
        let mut lazy_scratch = GramCache::new(n, 4, 2, k);
        assert!(full.full.is_some());
        assert!(lazy_cached.full.is_none());
        for i in 0..n {
            for j in 0..n {
                let a = full.row(i)[j];
                assert_eq!(a.to_bits(), lazy_cached.row(i)[j].to_bits());
                assert_eq!(a.to_bits(), lazy_scratch.row(i)[j].to_bits());
                assert_eq!(a.to_bits(), k(i, j).to_bits());
            }
        }
    }

    #[test]
    fn row_cap_bounds_resident_rows() {
        let n = 10;
        let mut g = GramCache::new(n, 0, 3, k);
        for i in 0..n {
            let row = g.row(i).to_vec();
            assert_eq!(row.len(), n);
        }
        assert_eq!(g.cached, 3, "only the first `cap` distinct rows stick");
        // Cached and scratch-computed rows read back identically.
        for i in 0..n {
            assert_eq!(g.row(i)[5].to_bits(), k(i, 5).to_bits());
        }
    }

    #[test]
    fn symmetric_mirror_matches_direct_compute() {
        let n = 9;
        let mut g = GramCache::new(n, 64, 0, k);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(g.row(i)[j].to_bits(), g.row(j)[i].to_bits());
            }
        }
    }
}

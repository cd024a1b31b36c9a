//! Column-major and flat row-major training matrices.

/// Column-major training data: one contiguous `Vec<f64>` per feature
/// plus a parallel label array.
///
/// A row's *position* is its dataset index: a bootstrap sample is a
/// weight per position, not a copy. Split sweeps walk
/// [`ColumnarView::col`] linearly; labels are `u32` so the label array
/// stays half the size of the `usize` original.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnarView {
    cols: Vec<Vec<f64>>,
    labels: Vec<u32>,
}

impl ColumnarView {
    /// An empty view with `n_features` columns and room for `rows`.
    pub(crate) fn with_capacity(n_features: usize, rows: usize) -> Self {
        ColumnarView {
            cols: (0..n_features).map(|_| Vec::with_capacity(rows)).collect(),
            labels: Vec::with_capacity(rows),
        }
    }

    /// Append one row. `features` must have exactly one value per
    /// column.
    pub(crate) fn push_row(&mut self, features: &[f64], label: u32) {
        assert_eq!(features.len(), self.cols.len(), "feature arity mismatch");
        for (col, v) in self.cols.iter_mut().zip(features) {
            col.push(*v);
        }
        self.labels.push(label);
    }

    /// Number of rows (positions).
    pub(crate) fn rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of feature columns.
    pub(crate) fn n_features(&self) -> usize {
        self.cols.len()
    }

    /// The contiguous value column for feature `f`, indexed by
    /// position.
    pub(crate) fn col(&self, f: usize) -> &[f64] {
        &self.cols[f]
    }

    /// Labels indexed by position.
    pub(crate) fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The label at `position` as a class index.
    pub(crate) fn label(&self, position: u32) -> usize {
        self.labels[position as usize] as usize
    }
}

/// Flat row-major storage: all rows in one allocation with a fixed
/// stride, for kernel methods that consume whole feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowMatrix {
    data: Vec<f64>,
    dim: usize,
}

impl RowMatrix {
    /// An empty matrix of `dim`-wide rows.
    pub(crate) fn new(dim: usize) -> Self {
        RowMatrix { data: Vec::new(), dim }
    }

    /// Append one row of exactly `dim` values.
    pub(crate) fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Row width.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// The contiguous row `i`.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// A new matrix holding copies of the given rows, in order
    /// (one-vs-one submatrix extraction).
    pub(crate) fn select(&self, rows: &[usize]) -> RowMatrix {
        let mut out = RowMatrix { data: Vec::with_capacity(rows.len() * self.dim), dim: self.dim };
        for &r in rows {
            out.data.extend_from_slice(self.row(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columnar_view_round_trips_rows() {
        let mut v = ColumnarView::with_capacity(2, 3);
        v.push_row(&[1.0, 10.0], 0);
        v.push_row(&[2.0, 20.0], 1);
        v.push_row(&[3.0, 30.0], 0);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.n_features(), 2);
        assert_eq!(v.col(0), &[1.0, 2.0, 3.0]);
        assert_eq!(v.col(1), &[10.0, 20.0, 30.0]);
        assert_eq!(v.labels(), &[0, 1, 0]);
        assert_eq!(v.label(1), 1);
    }

    #[test]
    #[should_panic(expected = "feature arity mismatch")]
    fn columnar_view_checks_arity() {
        let mut v = ColumnarView::with_capacity(2, 1);
        v.push_row(&[1.0], 0);
    }

    #[test]
    fn row_matrix_select_copies_in_order() {
        let mut m = RowMatrix::new(2);
        for i in 0..4 {
            m.push_row(&[i as f64, -(i as f64)]);
        }
        assert_eq!(m.rows(), 4);
        assert_eq!(m.row(2), &[2.0, -2.0]);
        let s = m.select(&[3, 1]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[3.0, -3.0]);
        assert_eq!(s.row(1), &[1.0, -1.0]);
    }

    #[test]
    fn zero_dim_row_matrix_is_empty() {
        let m = RowMatrix::new(0);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.dim(), 0);
    }
}

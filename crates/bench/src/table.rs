//! Plain-text rendering: every experiment returns its artifact as a
//! `String`, laid out like the paper's table or figure series.

/// A fixed-width table: `header` names the columns, separated by `|`;
/// column widths adapt to content.
pub(crate) fn table(header: &str, rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.split('|').map(String::from).collect();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for r in rows {
        assert_eq!(r.len(), header.len(), "row arity must match header");
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
        format!("{}\n", padded.join("  ").trim_end())
    };
    let mut out = line(&header);
    say!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    rows.iter().for_each(|r| out.push_str(&line(r)));
    out
}

/// Format a float with three decimals.
pub(crate) fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Arithmetic mean; 0 for an empty slice.
pub(crate) fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The smallest of some floats; +∞ for none.
pub(crate) fn lowest(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

/// The largest of some floats; −∞ for none.
pub(crate) fn highest(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// Coefficient of variation (population standard deviation over mean)
/// of non-negative values; 0 when they are all zero.
pub(crate) fn cv(v: &[f64]) -> f64 {
    let m = mean(v);
    let var = mean(&v.iter().map(|x| (x - m) * (x - m)).collect::<Vec<_>>());
    var.sqrt() / m.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns_under_a_rule() {
        let t = table("a|b", &[row!["1", "hello"], row![22, "x"]]);
        assert_eq!(t, "a   b\n---------\n1   hello\n22  x\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        table("a", &[row![1, 2]]);
    }

    #[test]
    fn float_formats_and_moments() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(cv(&[2.0, 2.0]), 0.0);
        assert_eq!(cv(&[]), 0.0);
        assert_eq!((lowest([2.0, 1.0]), highest([2.0, 1.0])), (1.0, 2.0));
    }
}

//! Model persistence: save and load trained random forests.
//!
//! An operational deployment trains on curated data and then classifies
//! new windows for months (paper §V-F recommends daily refits from a
//! *stored* labeled set, but the fallback — shipping a frozen model —
//! needs serialization). The workspace has no dependencies outside
//! itself, so this module defines a small, versioned, line-oriented
//! text format:
//!
//! ```text
//! bs-forest v1
//! classes <n>
//! features <n>
//! importances <f64>*
//! tree <index>
//! S <feature> <threshold>     # split; children follow in pre-order
//! L <class>                   # leaf
//! end
//! ```
//!
//! Floating-point values round-trip exactly (hex-float encoding).

use crate::flat::MAX_ARITY;
use crate::forest::Forest;
use crate::tree::DecisionTree;
use std::fmt;

/// Errors from parsing a stored model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for PersistError {}

fn err(line: usize, what: impl Into<String>) -> PersistError {
    PersistError { line, what: what.into() }
}

/// Encode an `f64` losslessly as a hex float literal.
fn f64_to_text(v: f64) -> String {
    format!("{:x}", v.to_bits())
}

fn f64_from_text(s: &str, line: usize) -> Result<f64, PersistError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| err(line, format!("bad float {s:?}")))
}

impl Forest {
    /// Serialize to the `bs-forest v1` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("bs-forest v1\n");
        out.push_str(&format!("classes {}\n", self.n_classes()));
        out.push_str(&format!("features {}\n", self.importances().len()));
        out.push_str("importances");
        for v in self.importances() {
            out.push(' ');
            out.push_str(&f64_to_text(*v));
        }
        out.push('\n');
        for (i, tree) in self.trees().iter().enumerate() {
            out.push_str(&format!("tree {i}\n"));
            tree.write_nodes(&mut out);
        }
        out.push_str("end\n");
        out
    }

    /// Parse the `bs-forest v1` text format.
    pub fn from_text(text: &str) -> Result<Forest, PersistError> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
        fn next_line<'a>(
            it: &mut impl Iterator<Item = (usize, &'a str)>,
        ) -> Result<(usize, &'a str), PersistError> {
            it.next().ok_or_else(|| err(0, "unexpected end of input"))
        }

        let (ln, header) = next_line(&mut lines)?;
        if header != "bs-forest v1" {
            return Err(err(ln, format!("bad header {header:?}")));
        }
        let (ln, classes_line) = next_line(&mut lines)?;
        let n_classes: usize = classes_line
            .strip_prefix("classes ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err(ln, "expected `classes <n>`"))?;
        if n_classes == 0 {
            return Err(err(ln, "zero classes"));
        }
        // Prediction sizes its vote histogram from this count and the
        // packed tree node stores a class in 16 bits.
        if n_classes > MAX_ARITY {
            return Err(err(ln, format!("{n_classes} classes, at most {MAX_ARITY}")));
        }
        let (ln, features_line) = next_line(&mut lines)?;
        let n_features: usize = features_line
            .strip_prefix("features ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err(ln, "expected `features <n>`"))?;
        if n_features > MAX_ARITY {
            return Err(err(ln, format!("{n_features} features, at most {MAX_ARITY}")));
        }
        let (ln, imp_line) = next_line(&mut lines)?;
        let imp_body = imp_line
            .strip_prefix("importances")
            .ok_or_else(|| err(ln, "expected `importances …`"))?;
        let importances: Vec<f64> =
            imp_body.split_whitespace().map(|s| f64_from_text(s, ln)).collect::<Result<_, _>>()?;
        if importances.len() != n_features {
            return Err(err(ln, "importances arity mismatch"));
        }

        let mut trees = Vec::new();
        let mut expected_tree = 0usize;
        loop {
            let (ln, line) = next_line(&mut lines)?;
            if line == "end" {
                break;
            }
            let idx: usize = line
                .strip_prefix("tree ")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(ln, format!("expected `tree <n>` or `end`, got {line:?}")))?;
            if idx != expected_tree {
                return Err(err(ln, format!("tree index {idx}, expected {expected_tree}")));
            }
            expected_tree += 1;
            let tree = DecisionTree::read_nodes(&mut lines, n_classes, n_features)?;
            trees.push(tree);
        }
        if trees.is_empty() {
            return Err(err(0, "forest has no trees"));
        }
        Ok(Forest::from_parts(trees, n_classes, importances))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Sample};
    use crate::forest::ForestParams;
    use bs_par::Rng;

    fn training_data(seed: u64) -> Dataset {
        let mut rng = Rng::new(seed);
        let mut d = Dataset::new(
            (0..5).map(|i| format!("f{i}")).collect(),
            (0..3).map(|i| format!("c{i}")).collect(),
        );
        for _ in 0..90 {
            let label = rng.range(0..3);
            let features: Vec<f64> = (0..5)
                .map(|j| if j == label { 1.0 } else { 0.0 } + rng.range_f64(-0.3..0.3))
                .collect();
            d.push(Sample { features, label });
        }
        d
    }

    #[test]
    fn forest_round_trips_exactly() {
        let data = training_data(1);
        let forest = Forest::fit(&data, &ForestParams { n_trees: 12, ..Default::default() }, 7);
        let text = forest.to_text();
        let loaded = Forest::from_text(&text).unwrap();
        assert_eq!(loaded.importances(), forest.importances());
        assert_eq!(loaded.n_trees(), forest.n_trees());
        // Identical predictions over a probe grid.
        let mut rng = Rng::new(9);
        for _ in 0..300 {
            let x: Vec<f64> = (0..5).map(|_| rng.range_f64(-1.0..2.0)).collect();
            assert_eq!(loaded.predict(&x), forest.predict(&x));
        }
        // Serialization is canonical.
        assert_eq!(loaded.to_text(), text);
    }

    #[test]
    fn corrupt_inputs_are_rejected_with_lines() {
        let data = training_data(2);
        let forest = Forest::fit(&data, &ForestParams { n_trees: 2, ..Default::default() }, 3);
        let text = forest.to_text();

        assert_eq!(Forest::from_text("nope").unwrap_err().line, 1);
        let missing_end = text.trim_end().trim_end_matches("end").to_string();
        assert!(Forest::from_text(&missing_end).is_err());
        let bad_float = text.replacen("importances ", "importances zz ", 1);
        assert!(Forest::from_text(&bad_float).is_err());
        // Out-of-range feature index in a split.
        let bad_split = text.replacen("S 0 ", "S 99 ", 1);
        if bad_split != text {
            assert!(Forest::from_text(&bad_split).is_err());
        }
    }

    #[test]
    fn counts_the_packed_node_cannot_address_are_rejected_with_their_line() {
        let model = |classes: &str, features: &str, importances: &str| {
            format!(
                "bs-forest v1\nclasses {classes}\nfeatures {features}\nimportances{importances}\n\
                 tree 0\nL 0\nend\n"
            )
        };
        let e = Forest::from_text(&model("18446744073709551615", "0", "")).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        let e = Forest::from_text(&model("65535", "0", "")).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        let e = Forest::from_text(&model("2", "65535", "")).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        let e = Forest::from_text(&model("2", "18446744073709551615", "")).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        // The largest counts that fit load, and predict without sizing
        // anything from `features`.
        let widest = Forest::from_text(&model("65534", "0", "")).unwrap();
        assert_eq!(widest.n_classes(), MAX_ARITY);
        assert_eq!(widest.predict_all(&[vec![]]), vec![0]);
    }

    #[test]
    fn leaf_only_tree_without_features_loads_and_predicts() {
        let text =
            "bs-forest v1\nclasses 3\nfeatures 0\nimportances\ntree 0\nL 2\ntree 1\nL 2\nend\n";
        let forest = Forest::from_text(text).unwrap();
        assert_eq!(forest.n_trees(), 2);
        assert_eq!(forest.predict(&[]), 2);
        assert_eq!(forest.predict_all(&vec![vec![]; 70]), vec![2; 70]);
        assert_eq!(forest.to_text(), text);
        // A split cannot name a feature when there are none.
        let split = text.replacen("L 2", "S 0 0\nL 1\nL 2", 1);
        assert_eq!(Forest::from_text(&split).unwrap_err().line, 6);
    }

    #[test]
    fn trees_deeper_than_64_are_refused_and_64_feeds_the_descent() {
        let chain = |depth: usize| {
            let mut text =
                "bs-forest v1\nclasses 2\nfeatures 1\nimportances 0\ntree 0\n".to_string();
            // A left spine: each split's left child is the next split.
            for level in 0..depth {
                text.push_str(&format!("S 0 {:x}\n", (level as f64).to_bits()));
            }
            text.push_str("L 1\n");
            text.push_str(&"L 0\n".repeat(depth));
            text.push_str("end\n");
            text
        };
        let e = Forest::from_text(&chain(65)).unwrap_err();
        assert!(e.what.contains("deeper than 64"), "{e}");
        let deep = Forest::from_text(&chain(64)).unwrap();
        // Only a value at or below every threshold reaches the bottom.
        let xs = vec![vec![-1.0], vec![0.5], vec![100.0], vec![f64::NAN]];
        assert_eq!(deep.predict_all(&xs), vec![1, 0, 0, 0]);
        for x in &xs {
            assert_eq!(deep.predict(x), deep.predict_all(std::slice::from_ref(x))[0]);
        }
    }

    #[test]
    fn every_line_corruption_is_total() {
        // Dropping any single line must error, never panic or silently
        // succeed with different semantics… except importances-only
        // changes which alter data but stay well-formed.
        let data = training_data(3);
        let forest = Forest::fit(&data, &ForestParams { n_trees: 3, ..Default::default() }, 5);
        let text = forest.to_text();
        let lines: Vec<&str> = text.lines().collect();
        for skip in 0..lines.len() {
            let mutated: String = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            let _ = Forest::from_text(&mutated); // must not panic
        }
    }
}

//! Seeded equivalence between the columnar fast paths and the
//! retained reference implementations (DESIGN.md §11, §14).
//!
//! The claims here are **bit-identity**, not approximate agreement:
//! the columnar presorted-index CART must choose the same splits,
//! accumulate the same importances and predict the same classes as the
//! boxed re-sorting reference; the blocked batch descent must predict
//! what the per-row walk predicts; the Gram-matrix SMO must produce
//! equal machines to the nested-`Vec` reference; and persisted models
//! must serialize to identical bytes whichever grower built them.
//!
//! Every case derives from its loop index alone, so a failure replays
//! from the seed in its message.

use crate::dataset::{Dataset, Sample};
use crate::forest::{Forest, ForestParams};
use crate::svm::{Svm, SvmParams};
use crate::tree::{CartParams, DecisionTree, ReferenceTree};
use crate::RowBlock;
use bs_par::Rng;

/// 2–4 classes, 1–5 features, 10–49 samples; values drawn from a
/// coarse grid so duplicate feature values (the stable-sort stress
/// case) are common.
fn grid_dataset(rng: &mut Rng) -> Dataset {
    let n_classes = rng.range(2..5);
    let n_features = rng.range(1..6);
    let mut d = Dataset::new(
        (0..n_features).map(|i| format!("f{i}")).collect(),
        (0..n_classes).map(|i| format!("c{i}")).collect(),
    );
    for _ in 0..rng.range(10..50) {
        d.push(Sample {
            features: (0..n_features).map(|_| (rng.range(0..16) as f64 - 8.0) * 0.5).collect(),
            label: rng.range(0..n_classes),
        });
    }
    d
}

fn cart_params(rng: &mut Rng) -> CartParams {
    // `max_features` is drawn from 0..=3 with 0 meaning "no cap".
    let cap = rng.range(0..4);
    CartParams {
        max_depth: rng.range(1..13),
        min_samples_split: rng.range(2..7),
        min_samples_leaf: rng.range(1..4),
        max_features: if cap == 0 { None } else { Some(cap) },
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Columnar CART ≡ reference CART: same arena node for node (same
/// splits, same thresholds, same slots), bitwise-equal raw
/// importances, and identical predictions on every training row and on
/// an off-grid probe.
#[test]
fn cart_fast_path_matches_reference() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed);
        let d = grid_dataset(&mut rng);
        let params = cart_params(&mut rng);
        let fit_seed: u64 = rng.next_u64();
        let fast = DecisionTree::fit(&d, &params, fit_seed);
        let reference = ReferenceTree::fit(&d, &params, fit_seed);
        assert_eq!(
            bits(fast.raw_importances()),
            bits(reference.raw_importances()),
            "importances must match bitwise, seed {seed}"
        );
        assert_eq!(fast, reference.flatten(), "identical flat arenas, seed {seed}");
        let (mut rows, _) = d.xy();
        rows.push((0..d.n_features()).map(|f| f as f64 * 0.25 - 1.0).collect());
        let mut block = RowBlock::new(d.n_features());
        block.fill(&rows);
        let per_row: Vec<usize> = rows.iter().map(|x| reference.predict(x)).collect();
        assert_eq!(fast.predict_block(&block), per_row, "seed {seed}");
    }
}

/// Rows on the 0.25 grid. Training values live on the 0.5 grid, so
/// every CART threshold `(v + v_next) / 2` is on this one and probes
/// land exactly on split boundaries — the `x == threshold` case, which
/// must go left in every implementation.
fn boundary_probes(rng: &mut Rng, n: usize, n_features: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..n_features).map(|_| (rng.range(0..32) as f64 - 16.0) * 0.25).collect())
        .collect()
}

/// The blocked batch descent and the one-row flat walk ≡ boxed
/// recursive predict for the same tree (the reference flattened), on
/// the training rows and on boundary probes.
#[test]
fn flat_predict_matches_boxed_predict() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed ^ 0xF1A7);
        let d = grid_dataset(&mut rng);
        let params = cart_params(&mut rng);
        let boxed = ReferenceTree::fit(&d, &params, rng.next_u64());
        let flat = boxed.flatten();
        let mut rows: Vec<Vec<f64>> = d.samples.iter().map(|s| s.features.clone()).collect();
        rows.truncate(40);
        let n_probes = rng.range(0..20);
        rows.extend(boundary_probes(&mut rng, n_probes, d.n_features()));
        let mut block = RowBlock::new(d.n_features());
        block.fill(&rows);
        let batch = flat.predict_block(&block);
        assert_eq!(batch.len(), rows.len());
        for (x, b) in rows.iter().zip(&batch) {
            assert_eq!(boxed.predict(x), flat.flat().predict(x), "seed {seed}");
            assert_eq!(boxed.predict(x), *b, "batch ≡ per-row, seed {seed}");
        }
    }
}

/// Bootstrap fits (the forest's base-learner configuration, duplicate
/// indices included) agree between the two growers.
#[test]
fn cart_fast_path_matches_reference_on_bootstrap_indices() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed ^ 0xB007);
        let d = grid_dataset(&mut rng);
        let indices: Vec<usize> = (0..rng.range(10..40)).map(|_| rng.range(0..d.len())).collect();
        let params = CartParams { max_features: Some(2), ..CartParams::default() };
        let fit_seed: u64 = rng.next_u64();
        let fast = DecisionTree::fit_on_indices(&d, &indices, &params, fit_seed);
        let reference = ReferenceTree::fit_on_indices(&d, &indices, &params, fit_seed);
        assert_eq!(fast, reference.flatten(), "seed {seed}");
        assert_eq!(bits(fast.raw_importances()), bits(reference.raw_importances()), "seed {seed}");
    }
}

/// `rows` rows of the benchmark's training shape (`retrain-daily`
/// trains on 96 labelled rows × 22 features × 12 classes), which
/// [`grid_dataset`] never reaches: it has 1–5 features and under 50
/// rows, so its trees partition few arrays over few, shallow segments.
/// Every third column is ≥ 70 % exact zeros like the static name
/// fractions, the rest sit on a coarse grid, so ties are everywhere.
fn benchmark_shaped_dataset(rng: &mut Rng, rows: usize) -> Dataset {
    let mut d = Dataset::new(
        (0..22).map(|i| format!("f{i}")).collect(),
        (0..12).map(|i| format!("c{i}")).collect(),
    );
    for _ in 0..rows {
        let label = rng.range(0..12);
        let features = (0..22)
            .map(|f| {
                if f % 3 == 0 && rng.range(0..10) < 7 {
                    0.0
                } else {
                    // Loosely class-dependent, so trees have structure.
                    (rng.range(0..12) + (label + f) % 4) as f64 * 0.125
                }
            })
            .collect();
        d.push(Sample { features, label });
    }
    d
}

/// The forest's base-learner controls at 22 features: `mtry = ⌈√22⌉`,
/// so each node sweeps 5 segments and partitions all 22.
fn forest_tree_params() -> CartParams {
    CartParams { max_features: Some(5), ..ForestParams::default().tree }
}

/// Both growers on one bootstrap of a benchmark-shaped dataset: same
/// arena, same importance bits.
fn assert_bootstrap_fit_matches(d: &Dataset, indices: &[usize], fit_seed: u64, seed: u64) {
    let fast = DecisionTree::fit_on_indices(d, indices, &forest_tree_params(), fit_seed);
    let reference = ReferenceTree::fit_on_indices(d, indices, &forest_tree_params(), fit_seed);
    assert_eq!(fast, reference.flatten(), "identical flat arenas, seed {seed}");
    assert_eq!(bits(fast.raw_importances()), bits(reference.raw_importances()), "seed {seed}");
}

/// At the benchmark's shape a forest's trees partition their presorted
/// arrays at every node, all reading one shared sort: same arenas, same
/// importance bits, same persisted bytes as the per-node re-sorting
/// reference. The 1 000-row forests grow deep trees whose many small
/// segments are partitioned too.
#[test]
fn benchmark_shaped_forest_matches_reference() {
    let cases = (0..6u64).map(|seed| (seed, 96, 8)).chain((6..8).map(|seed| (seed, 1_000, 3)));
    for (seed, rows, n_trees) in cases {
        let mut rng = Rng::new(seed ^ 0x5EED);
        let d = benchmark_shaped_dataset(&mut rng, rows);
        let p = ForestParams { n_trees, ..ForestParams::default() };
        let fit_seed: u64 = rng.next_u64();
        let fast = Forest::fit(&d, &p, fit_seed);
        let reference = Forest::fit_reference(&d, &p, fit_seed);
        assert_eq!(fast.trees(), reference.trees(), "identical arenas, seed {seed}");
        assert_eq!(bits(fast.importances()), bits(reference.importances()), "seed {seed}");
        assert_eq!(fast.to_text(), reference.to_text(), "seed {seed}");
    }
}

/// Full-size bootstraps of the benchmark's shape: about 60 distinct
/// rows in bag, so the root reads the shared order filtered by weight
/// with some positions dropped.
#[test]
fn benchmark_shaped_full_size_bootstrap_matches_reference() {
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed ^ 0x610B);
        let d = benchmark_shaped_dataset(&mut rng, 96);
        let indices: Vec<usize> = (0..d.len()).map(|_| rng.range(0..d.len())).collect();
        let distinct = indices.iter().collect::<std::collections::BTreeSet<_>>().len();
        assert!((16..d.len()).contains(&distinct), "most rows in bag, some out");
        assert_bootstrap_fit_matches(&d, &indices, rng.next_u64(), seed);
    }
}

/// Bootstraps of at most 15 distinct rows: the filtered arrays drop
/// most of the 96 positions — most dataset rows weigh 0 — and the
/// root's segment is the few that are left.
#[test]
fn benchmark_shaped_bootstrap_of_few_distinct_rows_matches_reference() {
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed ^ 0x10CA);
        let d = benchmark_shaped_dataset(&mut rng, 96);
        let pool: Vec<usize> = (0..rng.range(2..16)).map(|_| rng.range(0..d.len())).collect();
        let indices: Vec<usize> = (0..d.len()).map(|_| pool[rng.range(0..pool.len())]).collect();
        assert_bootstrap_fit_matches(&d, &indices, rng.next_u64(), seed);
    }
}

/// Forests grown by the two growers serialize to byte-identical
/// `bs-forest v1` text, and the persisted text round-trips to the same
/// canonical bytes — `to_text(from_text(t)) == t`.
#[test]
fn forest_persistence_is_grower_independent() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed ^ 0x7E47);
        let d = grid_dataset(&mut rng);
        let p = ForestParams { n_trees: rng.range(1..7), ..ForestParams::default() };
        let fit_seed: u64 = rng.next_u64();
        let fast = Forest::fit(&d, &p, fit_seed);
        let reference = Forest::fit_reference(&d, &p, fit_seed);
        let text = fast.to_text();
        assert_eq!(text, reference.to_text(), "byte-identical persisted models, seed {seed}");
        let loaded = Forest::from_text(&text).expect("round-trip parses");
        assert_eq!(loaded.to_text(), text, "round-trip is byte-identical, seed {seed}");
        let (xs, _) = d.xy();
        assert_eq!(fast.predict_all(&xs), loaded.predict_all(&xs), "seed {seed}");
    }
}

/// `Forest::predict_all` ≡ per-row `Forest::predict`, on boundary
/// probes in batch sizes around the block and cursor-group boundaries.
/// (The fit is parallel; that the forest does not depend on the pool
/// width is pinned by the root `tests/parallel_determinism.rs`.)
#[test]
fn forest_predict_all_matches_per_row_predict() {
    for seed in 0..12u64 {
        let mut rng = Rng::new(seed ^ 0xBA7C);
        let d = grid_dataset(&mut rng);
        let p = ForestParams { n_trees: rng.range(1..12), ..ForestParams::default() };
        let forest = Forest::fit(&d, &p, rng.next_u64());
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
            let xs = boundary_probes(&mut rng, n, d.n_features());
            let per_row: Vec<usize> = xs.iter().map(|x| forest.predict(x)).collect();
            assert_eq!(forest.predict_all(&xs), per_row, "seed {seed}, {n} rows");
        }
    }
}

/// Gram-matrix SMO ≡ reference SMO: equal machines (support vectors,
/// coefficients, biases — `Svm` derives `PartialEq`). SMO is the
/// expensive fit, so fewer cases.
#[test]
fn svm_fast_path_matches_reference() {
    for seed in 0..12u64 {
        let mut rng = Rng::new(seed ^ 0x5A0);
        let d = grid_dataset(&mut rng);
        let fit_seed: u64 = rng.next_u64();
        let params = SvmParams { max_iters: 40, ..SvmParams::default() };
        let fast = Svm::fit(&d, &params, fit_seed);
        let reference = Svm::fit_reference(&d, &params, fit_seed);
        assert_eq!(fast, reference, "bit-identical machines, seed {seed}");
    }
}

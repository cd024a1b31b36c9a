//! Criterion benches for the ML crate: training and prediction costs
//! at the paper's dataset sizes (≈300 examples × 22 features × 12
//! classes), plus head-to-head groups pitting the bs-mlcore columnar
//! fast paths against the retained reference implementations
//! (DESIGN.md §12).

use backscatter_core::ml::{
    Algorithm, CartParams, Dataset, Forest, ForestParams, ReferenceTree, Sample, Svm, SvmParams,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn paper_sized_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dataset::new(
        (0..22).map(|i| format!("f{i}")).collect(),
        (0..12).map(|i| format!("c{i}")).collect(),
    );
    for _ in 0..300 {
        let label = rng.gen_range(0..12usize);
        let features: Vec<f64> = (0..22)
            .map(|j| {
                // Give each class a distinctive mean on a few features.
                let signal = if j % 12 == label { 1.0 } else { 0.0 };
                signal + rng.gen_range(-0.3..0.3)
            })
            .collect();
        d.push(Sample { features, label });
    }
    d
}

fn training(c: &mut Criterion) {
    let data = paper_sized_dataset(1);
    let mut g = c.benchmark_group("ml-train");
    g.sample_size(10);
    g.bench_function("cart", |b| {
        let alg = Algorithm::Cart(CartParams::default());
        b.iter(|| alg.fit(&data, 7))
    });
    g.bench_function("random_forest_100", |b| {
        let alg = Algorithm::RandomForest(ForestParams::default());
        b.iter(|| alg.fit(&data, 7))
    });
    g.bench_function("svm_rbf", |b| {
        let alg = Algorithm::Svm(SvmParams::default());
        b.iter(|| alg.fit(&data, 7))
    });
    g.finish();
}

fn prediction(c: &mut Criterion) {
    let data = paper_sized_dataset(2);
    let forest = Algorithm::RandomForest(ForestParams::default()).fit(&data, 7);
    let probe: Vec<f64> = (0..22).map(|i| i as f64 * 0.05).collect();
    c.bench_function("ml-predict/forest", |b| b.iter(|| forest.predict(&probe)));
}

/// Columnar fast paths vs the retained references, training on the
/// same B-root-window-sized dataset with the same seeds — the
/// speedup ratios behind the `bench.ml.*` gauges in perf_snapshot.
fn columnar_vs_reference_training(c: &mut Criterion) {
    let data = paper_sized_dataset(3);
    let mut g = c.benchmark_group("ml-train-vs-reference");
    g.sample_size(10);
    let fp = ForestParams { n_trees: 20, ..ForestParams::default() };
    g.bench_function("forest_columnar", |b| b.iter(|| Forest::fit(&data, &fp, 7)));
    g.bench_function("forest_reference", |b| b.iter(|| Forest::fit_reference(&data, &fp, 7)));
    let cp = CartParams::default();
    g.bench_function("cart_columnar", |b| {
        b.iter(|| backscatter_core::ml::DecisionTree::fit(&data, &cp, 7))
    });
    g.bench_function("cart_reference", |b| b.iter(|| ReferenceTree::fit(&data, &cp, 7)));
    let sp = SvmParams { max_iters: 30, ..SvmParams::default() };
    g.bench_function("svm_gram_cached", |b| b.iter(|| Svm::fit(&data, &sp, 7)));
    g.bench_function("svm_reference", |b| b.iter(|| Svm::fit_reference(&data, &sp, 7)));
    g.finish();
}

/// Blocked batch descent vs per-row calls over a full window's worth
/// of originators — the ratio behind `bench.ml.forest_predict_batch_rps`.
fn columnar_vs_reference_prediction(c: &mut Criterion) {
    let data = paper_sized_dataset(4);
    let fp = ForestParams { n_trees: 50, ..ForestParams::default() };
    let forest = Forest::fit(&data, &fp, 7);
    let xs: Vec<Vec<f64>> = data.samples.iter().map(|s| s.features.clone()).collect();
    let mut g = c.benchmark_group("ml-predict-vs-reference");
    g.sample_size(10);
    g.bench_function("forest_batch", |b| b.iter(|| forest.predict_all(&xs)));
    g.bench_function("forest_per_row", |b| {
        b.iter(|| xs.iter().map(|x| forest.predict(x)).collect::<Vec<_>>())
    });
    g.finish();
}

criterion_group!(
    benches,
    training,
    prediction,
    columnar_vs_reference_training,
    columnar_vs_reference_prediction
);
criterion_main!(benches);

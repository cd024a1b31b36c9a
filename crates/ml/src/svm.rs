//! Kernel support-vector machines.
//!
//! Soft-margin binary SVMs trained with a simplified SMO (sequential
//! minimal optimization) solver over an RBF kernel, lifted to
//! multi-class with one-vs-one voting — the construction behind the
//! paper's third algorithm (Schölkopf & Smola, 2001). Features are
//! standardized internally (zero mean, unit variance on the training
//! data) because RBF distances are scale-sensitive and the sensor's
//! features mix fractions with counts.
//!
//! Two solvers live here (DESIGN.md §11):
//!
//! * [`Svm::fit`] — the **fast path**: scaled rows in one flat
//!   `RowMatrix`, the kernel precomputed into a flat symmetric
//!   `GramCache`, and decision sums driven by a sorted support-index
//!   list so each KKT scan costs
//!   `O(|support|)` contiguous reads instead of an `O(n)` skip-scan
//!   over nested `Vec`s.
//! * `Svm::fit_reference` — the reference, compiled for tests only:
//!   per-pair `Vec<Vec<f64>>` Gram matrix and the textbook decision
//!   recompute.
//!
//! Every restructuring in the fast path is *exact*: the same kernel
//! bits, the same addition order (support indices ascend exactly like
//! the reference's skip-zero scan), the same RNG consumption. Property
//! tests (`crates/ml/src/mlcore_equivalence.rs`) assert the two fits
//! produce equal machines, not merely similar accuracy.

use crate::argmax_first;
use crate::dataset::Dataset;
use crate::gram::GramCache;
use crate::matrix::RowMatrix;
use bs_par::Rng;

/// SVM hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmParams {
    /// Soft-margin penalty.
    pub c: f64,
    /// RBF kernel width: `k(x,y) = exp(-gamma ||x-y||²)`.
    pub(crate) gamma: f64,
    /// KKT violation tolerance.
    pub(crate) tol: f64,
    /// Passes without change before the solver stops.
    pub(crate) max_passes: usize,
    /// Hard cap on optimization sweeps.
    pub(crate) max_iters: usize,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams { c: 10.0, gamma: 0.5, tol: 1e-3, max_passes: 5, max_iters: 200 }
    }
}

/// One trained binary classifier (class_a vs class_b).
#[derive(Debug, Clone, PartialEq)]
struct BinarySvm {
    class_a: usize,
    class_b: usize,
    /// Support vectors, flat row-major.
    support_x: RowMatrix,
    /// alpha_i * y_i for each support vector.
    coef: Vec<f64>,
    bias: f64,
    gamma: f64,
}

impl BinarySvm {
    fn decision(&self, x: &[f64]) -> f64 {
        let mut s = self.bias;
        for (i, c) in self.coef.iter().enumerate() {
            s += c * rbf(self.support_x.row(i), x, self.gamma);
        }
        s
    }
}

fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-gamma * d2).exp()
}

/// A trained multi-class (one-vs-one) RBF SVM.
#[derive(Debug, Clone, PartialEq)]
pub struct Svm {
    machines: Vec<BinarySvm>,
    n_classes: usize,
    n_features: usize,
    /// Standardization parameters from the training data.
    means: Vec<f64>,
    stds: Vec<f64>,
    /// Fallback when a class had no training data at all.
    default_class: usize,
}

impl Svm {
    /// Train on `data` with the given seed (SMO visits pairs randomly),
    /// via the kernel-cached fast solver.
    pub fn fit(data: &Dataset, params: &SvmParams, seed: u64) -> Self {
        bs_telemetry::counter_add("ml.fit.svm", 1);
        assert!(!data.is_empty(), "cannot fit an SVM on an empty dataset");
        let n = data.len();
        let d = data.n_features();

        // Standardize. Column-major accumulation; each column holds the
        // samples in dataset order, so every per-feature float sum adds
        // the same terms in the same order as the reference's
        // sample-major loop.
        let view = data.columnar();
        let mut means = vec![0.0; d];
        for (m, col) in means.iter_mut().zip((0..d).map(|f| view.col(f))) {
            for v in col {
                *m += v;
            }
            *m /= n as f64;
        }
        let mut stds = vec![0.0; d];
        for ((sd, col), m) in stds.iter_mut().zip((0..d).map(|f| view.col(f))).zip(&means) {
            for v in col {
                *sd += (v - m) * (v - m);
            }
            *sd = (*sd / n as f64).sqrt();
            if *sd < 1e-12 {
                *sd = 1.0; // constant feature: leave centered at zero
            }
        }
        let mut x = RowMatrix::new(d);
        let mut buf = vec![0.0; d];
        for s in &data.samples {
            for (o, ((v, m), sd)) in buf.iter_mut().zip(s.features.iter().zip(&means).zip(&stds)) {
                *o = (v - m) / sd;
            }
            x.push_row(&buf);
        }

        let present = data.present_classes();
        let default_class = *present.first().expect("non-empty data has a class");
        let mut rng = Rng::new(seed);
        let mut machines = Vec::new();
        for (i, &ca) in present.iter().enumerate() {
            for &cb in &present[i + 1..] {
                let idx: Vec<usize> = (0..n)
                    .filter(|&k| data.samples[k].label == ca || data.samples[k].label == cb)
                    .collect();
                let y: Vec<f64> = idx
                    .iter()
                    .map(|&k| if data.samples[k].label == ca { 1.0 } else { -1.0 })
                    .collect();
                let xs = x.select(&idx);
                if let Some(m) = smo_fast(&xs, &y, ca, cb, params, &mut rng) {
                    machines.push(m);
                }
            }
        }
        bs_telemetry::counter_add("ml.fit.svm_machines", machines.len() as u64);
        Svm { machines, n_classes: data.n_classes(), n_features: d, means, stds, default_class }
    }

    /// Train via the reference solver (per-pair nested-`Vec` Gram
    /// matrix, textbook decision recompute); compiled for tests only.
    /// Bit-identical to [`Svm::fit`] for the same data and seed: the
    /// executable specification the fast path is property-tested
    /// against.
    #[cfg(test)]
    pub(crate) fn fit_reference(data: &Dataset, params: &SvmParams, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot fit an SVM on an empty dataset");
        let n = data.len();
        let d = data.n_features();

        // Standardize (sample-major accumulation).
        let mut means = vec![0.0; d];
        for s in &data.samples {
            for (m, v) in means.iter_mut().zip(&s.features) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        let mut stds = vec![0.0; d];
        for s in &data.samples {
            for ((sd, m), v) in stds.iter_mut().zip(&means).zip(&s.features) {
                *sd += (v - m) * (v - m);
            }
        }
        for sd in &mut stds {
            *sd = (*sd / n as f64).sqrt();
            if *sd < 1e-12 {
                *sd = 1.0; // constant feature: leave centered at zero
            }
        }
        let scale = |f: &[f64]| -> Vec<f64> {
            f.iter().zip(&means).zip(&stds).map(|((v, m), s)| (v - m) / s).collect()
        };
        let x: Vec<Vec<f64>> = data.samples.iter().map(|s| scale(&s.features)).collect();

        let present = data.present_classes();
        let default_class = *present.first().expect("non-empty data has a class");
        let mut rng = Rng::new(seed);
        let mut machines = Vec::new();
        for (i, &ca) in present.iter().enumerate() {
            for &cb in &present[i + 1..] {
                let idx: Vec<usize> = (0..n)
                    .filter(|&k| data.samples[k].label == ca || data.samples[k].label == cb)
                    .collect();
                let y: Vec<f64> = idx
                    .iter()
                    .map(|&k| if data.samples[k].label == ca { 1.0 } else { -1.0 })
                    .collect();
                let xs: Vec<&Vec<f64>> = idx.iter().map(|&k| &x[k]).collect();
                if let Some(m) = smo_reference(&xs, &y, ca, cb, params, &mut rng) {
                    machines.push(m);
                }
            }
        }
        Svm { machines, n_classes: data.n_classes(), n_features: d, means, stds, default_class }
    }

    /// Predict by one-vs-one voting; ties break to the smaller index
    /// (explicitly first-max).
    pub fn predict(&self, xraw: &[f64]) -> usize {
        assert_eq!(xraw.len(), self.n_features, "feature arity mismatch");
        if self.machines.is_empty() {
            return self.default_class;
        }
        let x: Vec<f64> =
            xraw.iter().zip(&self.means).zip(&self.stds).map(|((v, m), s)| (v - m) / s).collect();
        let mut votes = vec![0usize; self.n_classes];
        for m in &self.machines {
            if m.decision(&x) >= 0.0 {
                votes[m.class_a] += 1;
            } else {
                votes[m.class_b] += 1;
            }
        }
        argmax_first(&votes)
    }
}

/// Update one Lagrange multiplier, keeping the coefficient array and
/// the sorted support-index list in sync. The support list mirrors the
/// reference solver's "skip exact zeros" rule (`alpha != 0.0`), so the
/// fast decision sum visits exactly the indices the reference visits,
/// ascending.
fn set_alpha(
    alpha: &mut [f64],
    coef: &mut [f64],
    support: &mut Vec<u32>,
    y: &[f64],
    i: usize,
    v: f64,
) {
    let was = alpha[i] != 0.0;
    alpha[i] = v;
    coef[i] = v * y[i];
    let is = v != 0.0;
    if is != was {
        match (is, support.binary_search(&(i as u32))) {
            (true, Err(pos)) => support.insert(pos, i as u32),
            (false, Ok(pos)) => {
                support.remove(pos);
            }
            _ => unreachable!("support list out of sync with alphas"),
        }
    }
}

/// The decision value at training row `i`: `b + Σ_j coef[j]·K(j, i)`
/// over the sorted support list. Equal to the reference's skip-zero
/// scan bit for bit: same indices, same ascending order, and
/// `K(i, j) == K(j, i)` as bits for the (symmetric) RBF kernel.
fn decision_at(k: &GramCache, support: &[u32], coef: &[f64], b: f64, i: usize) -> f64 {
    let row = k.row(i);
    let mut s = b;
    for &j in support {
        s += coef[j as usize] * row[j as usize];
    }
    s
}

/// Simplified SMO over a [`GramCache`] — the fast path. Control flow,
/// float expressions and RNG draws mirror `smo_reference` exactly.
fn smo_fast(
    xs: &RowMatrix,
    y: &[f64],
    class_a: usize,
    class_b: usize,
    p: &SvmParams,
    rng: &mut Rng,
) -> Option<BinarySvm> {
    let n = xs.rows();
    if n < 2 || y.iter().all(|&v| v == y[0]) {
        return None; // degenerate pair; voting just skips it
    }
    let k = GramCache::new(n, |i, j| rbf(xs.row(i), xs.row(j), p.gamma));

    let mut alpha = vec![0.0; n];
    let mut coef = vec![0.0; n];
    let mut support: Vec<u32> = Vec::new();
    let mut b = 0.0;

    let mut passes = 0;
    let mut iters = 0;
    while passes < p.max_passes && iters < p.max_iters {
        iters += 1;
        let mut changed = 0;
        for i in 0..n {
            let ei = decision_at(&k, &support, &coef, b, i) - y[i];
            if (y[i] * ei < -p.tol && alpha[i] < p.c) || (y[i] * ei > p.tol && alpha[i] > 0.0) {
                let mut j = rng.range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let (kii, kij, kjj) = (k.row(i)[i], k.row(i)[j], k.row(j)[j]);
                let ej = decision_at(&k, &support, &coef, b, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if y[i] != y[j] {
                    ((aj_old - ai_old).max(0.0), (p.c + aj_old - ai_old).min(p.c))
                } else {
                    ((ai_old + aj_old - p.c).max(0.0), (ai_old + aj_old).min(p.c))
                };
                if lo >= hi {
                    continue;
                }
                let eta = 2.0 * kij - kii - kjj;
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                set_alpha(&mut alpha, &mut coef, &mut support, y, i, ai);
                set_alpha(&mut alpha, &mut coef, &mut support, y, j, aj);
                let b1 = b - ei - y[i] * (ai - ai_old) * kii - y[j] * (aj - aj_old) * kij;
                let b2 = b - ej - y[i] * (ai - ai_old) * kij - y[j] * (aj - aj_old) * kjj;
                b = if 0.0 < ai && ai < p.c {
                    b1
                } else if 0.0 < aj && aj < p.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }

    let mut support_x = RowMatrix::new(xs.dim());
    let mut out_coef = Vec::new();
    for i in 0..n {
        if alpha[i] > 1e-8 {
            support_x.push_row(xs.row(i));
            out_coef.push(alpha[i] * y[i]);
        }
    }
    Some(BinarySvm { class_a, class_b, support_x, coef: out_coef, bias: b, gamma: p.gamma })
}

/// Simplified SMO (Platt, 1998; the CS229 variant): optimize pairs of
/// Lagrange multipliers until `max_passes` sweeps see no change. The
/// reference solver, compiled for tests only.
#[cfg(test)]
fn smo_reference(
    xs: &[&Vec<f64>],
    y: &[f64],
    class_a: usize,
    class_b: usize,
    p: &SvmParams,
    rng: &mut Rng,
) -> Option<BinarySvm> {
    let n = xs.len();
    if n < 2 || y.iter().all(|&v| v == y[0]) {
        return None; // degenerate pair; voting just skips it
    }
    // Precompute the kernel matrix (training sets here are small).
    let mut k = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in i..n {
            let v = rbf(xs[i], xs[j], p.gamma);
            k[i][j] = v;
            k[j][i] = v;
        }
    }
    let mut alpha = vec![0.0; n];
    let mut b = 0.0;
    let f = |alpha: &[f64], b: f64, i: usize, k: &Vec<Vec<f64>>| -> f64 {
        let mut s = b;
        for j in 0..n {
            if alpha[j] != 0.0 {
                s += alpha[j] * y[j] * k[j][i];
            }
        }
        s
    };

    let mut passes = 0;
    let mut iters = 0;
    while passes < p.max_passes && iters < p.max_iters {
        iters += 1;
        let mut changed = 0;
        for i in 0..n {
            let ei = f(&alpha, b, i, &k) - y[i];
            if (y[i] * ei < -p.tol && alpha[i] < p.c) || (y[i] * ei > p.tol && alpha[i] > 0.0) {
                let mut j = rng.range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&alpha, b, j, &k) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if y[i] != y[j] {
                    ((aj_old - ai_old).max(0.0), (p.c + aj_old - ai_old).min(p.c))
                } else {
                    ((ai_old + aj_old - p.c).max(0.0), (ai_old + aj_old).min(p.c))
                };
                if lo >= hi {
                    continue;
                }
                let eta = 2.0 * k[i][j] - k[i][i] - k[j][j];
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                let b1 = b - ei - y[i] * (ai - ai_old) * k[i][i] - y[j] * (aj - aj_old) * k[i][j];
                let b2 = b - ej - y[i] * (ai - ai_old) * k[i][j] - y[j] * (aj - aj_old) * k[j][j];
                b = if 0.0 < ai && ai < p.c {
                    b1
                } else if 0.0 < aj && aj < p.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }

    let mut support_x = RowMatrix::new(xs[0].len());
    let mut coef = Vec::new();
    for i in 0..n {
        if alpha[i] > 1e-8 {
            support_x.push_row(xs[i]);
            coef.push(alpha[i] * y[i]);
        }
    }
    Some(BinarySvm { class_a, class_b, support_x, coef, bias: b, gamma: p.gamma })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;

    fn ring_dataset(seed: u64, n: usize) -> Dataset {
        // Inner disk vs outer ring: linearly inseparable, RBF-friendly.
        let mut rng = Rng::new(seed);
        let mut d =
            Dataset::new(vec!["x".into(), "y".into()], vec!["inner".into(), "outer".into()]);
        for _ in 0..n {
            let theta: f64 = rng.range_f64(0.0..std::f64::consts::TAU);
            let r_in: f64 = rng.range_f64(0.0..0.8);
            d.push(Sample { features: vec![r_in * theta.cos(), r_in * theta.sin()], label: 0 });
            let r_out: f64 = rng.range_f64(1.6..2.4);
            d.push(Sample { features: vec![r_out * theta.cos(), r_out * theta.sin()], label: 1 });
        }
        d
    }

    #[test]
    fn rbf_svm_solves_the_ring() {
        let train = ring_dataset(1, 60);
        let test = ring_dataset(2, 40);
        let m = Svm::fit(&train, &SvmParams::default(), 5);
        let correct = test.samples.iter().filter(|s| m.predict(&s.features) == s.label).count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.93, "ring accuracy {acc}");
    }

    #[test]
    fn multiclass_one_vs_one_machine_count() {
        let mut d = ring_dataset(3, 20);
        d.class_names.push("third".into());
        for i in 0..20 {
            d.push(Sample { features: vec![5.0 + (i as f64) * 0.01, 5.0], label: 2 });
        }
        let m = Svm::fit(&d, &SvmParams::default(), 1);
        assert_eq!(m.machines.len(), 3, "3 classes → 3 pairs");
        assert_eq!(m.predict(&[5.1, 5.0]), 2);
        assert_eq!(m.predict(&[0.0, 0.0]), 0);
        assert_eq!(m.predict(&[2.0, 0.0]), 1);
    }

    #[test]
    fn standardization_makes_scales_irrelevant() {
        // Same geometry, one feature blown up 1000×: accuracy persists.
        let mut train = ring_dataset(4, 60);
        let mut test = ring_dataset(5, 40);
        for s in train.samples.iter_mut().chain(test.samples.iter_mut()) {
            s.features[0] *= 1000.0;
        }
        let m = Svm::fit(&train, &SvmParams::default(), 5);
        let correct = test.samples.iter().filter(|s| m.predict(&s.features) == s.label).count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.9, "scaled accuracy {acc}");
    }

    #[test]
    fn single_class_data_predicts_that_class() {
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]);
        for i in 0..10 {
            d.push(Sample { features: vec![i as f64], label: 1 });
        }
        let m = Svm::fit(&d, &SvmParams::default(), 0);
        assert_eq!(m.machines.len(), 0);
        assert_eq!(m.predict(&[3.0]), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = ring_dataset(6, 40);
        let m1 = Svm::fit(&train, &SvmParams::default(), 42);
        let m2 = Svm::fit(&train, &SvmParams::default(), 42);
        assert_eq!(m1, m2, "same seed, bit-identical machines");
        for s in &train.samples {
            assert_eq!(m1.predict(&s.features), m2.predict(&s.features));
        }
    }

    #[test]
    fn fast_path_matches_reference() {
        let train = ring_dataset(8, 30);
        for seed in [0, 7, 42] {
            let fast = Svm::fit(&train, &SvmParams::default(), seed);
            let reference = Svm::fit_reference(&train, &SvmParams::default(), seed);
            assert_eq!(fast, reference, "bit-identical machines at seed {seed}");
        }
    }

    #[test]
    fn constant_feature_does_not_nan() {
        let mut d = Dataset::new(vec!["x".into(), "const".into()], vec!["a".into(), "b".into()]);
        for i in 0..20 {
            d.push(Sample { features: vec![i as f64, 7.0], label: (i >= 10) as usize });
        }
        let m = Svm::fit(&d, &SvmParams::default(), 0);
        assert!(m.predict(&[0.0, 7.0]) == 0);
        assert!(m.predict(&[19.0, 7.0]) == 1);
    }

    /// Regression for the documented tie-break: with votes tied across
    /// classes, `predict` must return the smaller class index. The old
    /// `max_by_key` picked the *last* maximum.
    #[test]
    fn vote_tie_breaks_to_smaller_class_index() {
        let stump = |class_a: usize, class_b: usize, bias: f64| BinarySvm {
            class_a,
            class_b,
            support_x: RowMatrix::new(1),
            coef: Vec::new(),
            bias,
            gamma: 0.5,
        };
        let svm = Svm {
            // Machine 1 votes for class 0 (decision = +1), machine 2
            // votes for class 2 (decision = -1): votes are [1, 0, 1].
            machines: vec![stump(0, 1, 1.0), stump(1, 2, -1.0)],
            n_classes: 3,
            n_features: 1,
            means: vec![0.0],
            stds: vec![1.0],
            default_class: 0,
        };
        assert_eq!(svm.predict(&[0.0]), 0, "0-vs-2 tie must go to class 0");
    }
}

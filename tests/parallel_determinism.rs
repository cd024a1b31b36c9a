//! The `bs-par` determinism contract, end to end: every parallel hot
//! path must produce bit-identical output at any thread count.
//!
//! Thread-count overrides are process-global (`set_threads`), so every
//! test serializes on one mutex and restores the default before
//! releasing it. The interesting comparisons are 1 thread (the pure
//! sequential fallback, no pool at all) versus 2 (the smallest fan-out:
//! the caller and one spawned worker) and 8 (more threads than a small
//! host has cores, so tasks finish out of index order).

use dns_backscatter::ml::{Algorithm, Dataset, Forest, ForestParams, MajorityEnsemble, Sample};
use dns_backscatter::prelude::*;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with the pool pinned to `n` threads, restoring the default.
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    dns_backscatter::par::set_threads(n);
    let r = f();
    dns_backscatter::par::set_threads(0);
    r
}

/// `f`'s result at 1 thread, then at the wider widths 2 and 8.
fn at_1_then_2_and_8<R>(f: impl Fn() -> R) -> (R, [R; 2]) {
    (at_threads(1, &f), [at_threads(2, &f), at_threads(8, &f)])
}

/// A deterministic 300-sample, 4-feature, 2-class training set from a
/// fixed LCG — no RNG machinery, same bits every call.
fn training_set() -> Dataset {
    let mut data = Dataset::new(
        vec!["x".into(), "y".into(), "z".into(), "w".into()],
        vec!["a".into(), "b".into()],
    );
    let mut h: u64 = 0x9E37_79B9;
    for i in 0..300 {
        h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let label = i % 2;
        data.push(Sample {
            features: vec![
                label as f64 * 2.0 + (h % 100) as f64 / 100.0,
                ((h >> 8) % 100) as f64 / 50.0,
                ((h >> 16) % 100) as f64 / 50.0,
                ((h >> 24) % 100) as f64 / 50.0,
            ],
            label,
        });
    }
    data
}

/// Probe points covering both classes and the decision boundary.
fn grid() -> Vec<Vec<f64>> {
    let mut g = Vec::new();
    for i in 0..40 {
        let x = i as f64 / 13.0;
        g.push(vec![x, 2.0 - x, x / 2.0, 1.0 - x / 3.0]);
    }
    g
}

#[test]
fn forest_fit_is_identical_at_1_and_8_threads() {
    let _guard = serial();
    let data = training_set();
    let params = ForestParams { n_trees: 24, ..Default::default() };
    let (seq, wide) = at_1_then_2_and_8(|| Forest::fit(&data, &params, 42));
    for par in wide {
        // Importances are f64 sums reduced in tree order after the
        // parallel section, so even they must match bitwise.
        assert_eq!(seq.importances(), par.importances());
        assert_eq!(seq.predict_all(&grid()), par.predict_all(&grid()));
    }
}

#[test]
fn ensemble_fit_is_identical_at_1_and_8_threads() {
    let _guard = serial();
    let data = training_set();
    let alg = Algorithm::RandomForest(ForestParams { n_trees: 8, ..Default::default() });
    let (seq, wide) = at_1_then_2_and_8(|| MajorityEnsemble::fit(&alg, &data, 10, 7));
    for par in wide {
        assert_eq!(seq.len(), par.len());
        assert_eq!(seq.predict_all(&grid()), par.predict_all(&grid()));
    }
}

#[test]
fn feature_extraction_is_identical_at_1_and_8_threads() {
    let _guard = serial();
    let world = World::new(WorldConfig::default());
    let jp = dns_backscatter::netsim::types::CountryCode::new("jp").unwrap();
    let mut cfg = ScenarioConfig::small(3, SimDuration::from_hours(12));
    cfg.region = Some((jp, 0.9));
    cfg.pool_size = 1_000;
    let scenario = Scenario::new(&world, cfg);
    let authority = AuthorityId::National(jp);
    let mut sim = Simulator::new(&world, SimulatorConfig::observing([authority]));
    sim.process(scenario.contacts_window(&world, SimTime::ZERO, SimTime::from_hours(12)));
    let log = sim.into_logs().remove(&authority).expect("observed");

    let extract = || {
        extract_features(
            &log,
            &world,
            SimTime::ZERO,
            SimTime::from_hours(12),
            &FeatureConfig { min_queriers: 10, top_n: None },
        )
    };
    let (seq, wide) = at_1_then_2_and_8(extract);
    assert!(!seq.is_empty(), "nothing analyzable — test is vacuous");
    for par in wide {
        assert_eq!(seq, par);
    }
}

#[test]
fn full_dataset_pipeline_is_identical_at_1_and_8_threads() {
    let _guard = serial();
    let world = World::new(WorldConfig::default());
    let spec = DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 7);
    let built = build_dataset(&world, spec);
    // A small forest voted over a few runs keeps the test quick while
    // still nesting window → ensemble → tree parallelism three deep.
    let pipeline = DatasetPipeline {
        classifier: ClassifierPipeline {
            algorithm: Algorithm::RandomForest(ForestParams { n_trees: 8, ..Default::default() }),
            runs: 3,
        },
        ..Default::default()
    };
    let run = || {
        let features = sense_dataset(
            &built,
            &world,
            &FeatureConfig { min_queriers: 10, ..Default::default() },
        );
        pipeline.run(&built, &features)
    };

    let (seq, wide) = at_1_then_2_and_8(run);
    assert!(
        seq.windows.iter().any(|w| !w.entries.is_empty()),
        "pipeline classified nothing — test is vacuous"
    );
    for par in wide {
        assert_eq!(seq.windows, par.windows);
    }
}

/// `par_map` must return outputs in input order for any input and
/// any thread count — the keystone the seed-derivation scheme and
/// every test above rest on. Seeded: a failure replays from the seed
/// in its message.
#[test]
fn par_map_preserves_input_order() {
    let _guard = serial();
    for seed in 0..256u64 {
        let mut rng = dns_backscatter::par::Rng::new(seed);
        let xs: Vec<i64> = (0..rng.range(0..200)).map(|_| rng.next_u64() as i64).collect();
        let t = rng.range(1..9);
        let out =
            at_threads(t, || dns_backscatter::par::par_map(&xs, |i, x| (i, x.wrapping_mul(3))));
        let expect: Vec<(usize, i64)> = xs.iter().map(|x| x.wrapping_mul(3)).enumerate().collect();
        assert_eq!(out, expect, "threads={t} (seed {seed})");
    }
}

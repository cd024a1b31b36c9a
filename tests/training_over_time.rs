//! Integration: label-set mechanisms on a compressed multi-year
//! timeline. The §V shape claims (malicious labels decay faster than
//! benign, retrain-daily holds where train-once decays) are
//! `fig6_malicious_persistence`'s and `fig7_training_strategies`', run
//! by `tests/paper_shape.rs`.

use bench::Ctx;
use dns_backscatter::classify::evaluate_strategy;
use dns_backscatter::ml::{Algorithm, CartParams};
use dns_backscatter::prelude::*;
use std::sync::OnceLock;
use DatasetId::BMultiYear;

/// Smoke-scale B-multi-year at B-Root: twelve weekly one-day windows.
fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| Ctx::new(Scale::smoke(), 7, None))
}

#[test]
fn curation_refresh_keeps_label_sets_from_starving() {
    let windows = ctx().window_data(BMultiYear);
    let pipeline =
        ClassifierPipeline { algorithm: Algorithm::Cart(CartParams::default()), runs: 1 };
    let recurring = evaluate_strategy(
        TrainingStrategy::ManualRecurring { every: 2, per_class_cap: 60 },
        &windows,
        &pipeline,
        60,
        4,
    );
    let fixed = evaluate_strategy(TrainingStrategy::RetrainDaily, &windows, &pipeline, 60, 4);
    // The frozen set's stored size never shrinks but fills with dead
    // examples; re-curation keeps the set usable. The meaningful
    // invariants: recurring curation never loses trainable windows and
    // always holds a non-trivial, current label set.
    assert!(recurring.usable_windows() >= fixed.usable_windows());
    let last_recurring = recurring.scores.last().expect("scores").label_set_size;
    assert!(last_recurring >= 4, "recurring label set starved: {last_recurring}");
}

#[test]
fn labeled_set_curation_respects_caps_on_real_data() {
    let built = ctx().dataset(BMultiYear);
    let truth = built.truth_for_window(built.windows()[0]);
    let capped = LabeledSet::curate(&truth, &ctx().features(BMultiYear)[0], 3);
    assert!(!capped.is_empty());
    for (_, n) in capped.class_counts() {
        assert!(n <= 3);
    }
}

//! Ablation: the 30-second deduplication window (§III-C).
//!
//! The paper drops duplicate queries from the same querier within 30 s
//! "to avoid excessive skew of querier rate estimates". This ablation
//! turns the window off / widens it and measures the impact on the
//! queries-per-querier feature and on classification accuracy.

use backscatter_core::classify::pipeline::feature_map;
use backscatter_core::classify::{ClassifierPipeline, LabeledSet};
use backscatter_core::ml::{repeated_holdout, Algorithm, ForestParams};
use backscatter_core::prelude::*;
use backscatter_core::sensor::ingest::Observations;
use bench::table::{heading, print_table};
use bench::{load_dataset, standard_world};

fn main() {
    let world = standard_world();
    let built = load_dataset(&world, DatasetId::JpDitl);
    let (start, end) = built.windows()[0];
    let truth = built.truth_for_window((start, end));

    heading("Ablation: per-querier deduplication window", "§III-C design choice");
    let mut rows = Vec::new();
    for dedup_secs in [0u64, 30, 300, 1800] {
        let obs = Observations::ingest_with_dedup(
            &built.log,
            start,
            end,
            SimDuration::from_secs(dedup_secs),
        );
        let feats = extract_with_meta_cache(&obs, &world, &FeatureConfig::default(), None);
        let mean_qpq = feats.iter().map(|f| f.features.dynamic.queries_per_querier).sum::<f64>()
            / feats.len().max(1) as f64;
        let labeled = LabeledSet::curate(&truth, &feats, 140);
        let data = ClassifierPipeline::to_dataset(&labeled, &feature_map(&feats));
        let rep = repeated_holdout(
            &Algorithm::RandomForest(ForestParams::default()),
            &data,
            0.6,
            15,
            0xDED,
        );
        rows.push(vec![
            if dedup_secs == 0 { "off".to_string() } else { format!("{dedup_secs}s") },
            feats.len().to_string(),
            format!("{mean_qpq:.2}"),
            format!("{:.3}", rep.mean.accuracy),
            format!("{:.3}", rep.mean.f1),
        ]);
    }
    print_table(
        &["dedup window", "analyzable", "mean queries/querier", "RF accuracy", "RF F1"],
        &rows,
    );
    println!();
    println!("expected: without dedup, queries/querier inflates; accuracy is broadly");
    println!("robust but the feature scale drifts (the paper dedups for stability).");
}

//! Ablation: the keyword matcher's left-most-component preference
//! (§III-C: `mail.ns.example.com` is `mail`, not `ns`). The variant
//! scans components right to left instead, biasing toward suffixes.

use backscatter_core::classify::pipeline::feature_map;
use backscatter_core::classify::{ClassifierPipeline, LabeledSet};
use backscatter_core::ml::{repeated_holdout, Algorithm, ForestParams};
use backscatter_core::netsim::types::NameOutcome;
use backscatter_core::prelude::*;
use backscatter_core::sensor::ingest::Observations;
use backscatter_core::sensor::static_features::{
    classify_name_with_order, MatchOrder, StaticFeature,
};
use bench::table::{heading, print_table};
use bench::{load_dataset, standard_world};
use std::collections::BTreeMap;

/// Extract features, then recount each originator's static fractions
/// with a chosen match order (the dynamic features do not depend on it).
fn extract_with_order(
    world: &World,
    built: &BuiltDataset,
    order: MatchOrder,
) -> Vec<backscatter_core::sensor::OriginatorFeatures> {
    let (start, end) = built.windows()[0];
    let obs = Observations::ingest(&built.log, start, end);
    let mut feats = extract_with_meta_cache(&obs, world, &FeatureConfig::default(), None);
    for f in &mut feats {
        let queriers = &obs.per_originator[&f.originator].queriers;
        let mut counts = [0usize; 14];
        for q in queriers {
            let category = match world.reverse_name(*q) {
                NameOutcome::Name(n) => classify_name_with_order(&n, order),
                NameOutcome::NxDomain => StaticFeature::NxDomain,
                NameOutcome::Unreachable => StaticFeature::Unreach,
            };
            counts[category.index()] += 1;
        }
        let nq = queriers.len().max(1) as f64;
        f.features.static_fractions = counts.map(|c| c as f64 / nq);
    }
    feats
}

fn main() {
    let world = standard_world();
    let built = load_dataset(&world, DatasetId::JpDitl);
    let window = built.windows()[0];
    let truth = built.truth_for_window(window);

    heading(
        "Ablation: keyword match order (left-most vs right-most component)",
        "§III-C design choice",
    );
    let mut rows = Vec::new();
    let mut fractions: BTreeMap<&str, [f64; 2]> = BTreeMap::new();
    for (i, order) in
        [MatchOrder::LeftmostFirst, MatchOrder::RightmostFirst].into_iter().enumerate()
    {
        let feats = extract_with_order(&world, &built, order);
        // Aggregate static fractions over all originators.
        let mut agg = [0.0f64; 14];
        for f in &feats {
            for (a, v) in agg.iter_mut().zip(f.features.static_fractions) {
                *a += v;
            }
        }
        for f in StaticFeature::ALL {
            fractions.entry(f.name()).or_insert([0.0; 2])[i] =
                agg[f.index()] / feats.len().max(1) as f64;
        }
        let labeled = LabeledSet::curate(&truth, &feats, 140);
        let data = ClassifierPipeline::to_dataset(&labeled, &feature_map(&feats));
        let rep = repeated_holdout(
            &Algorithm::RandomForest(ForestParams::default()),
            &data,
            0.6,
            15,
            0xFEA7,
        );
        rows.push(vec![
            match order {
                MatchOrder::LeftmostFirst => "leftmost-first (paper)".to_string(),
                MatchOrder::RightmostFirst => "rightmost-first".to_string(),
            },
            feats.len().to_string(),
            format!("{:.3}", rep.mean.accuracy),
            format!("{:.3}", rep.mean.f1),
        ]);
    }
    print_table(&["match order", "analyzable", "RF accuracy", "RF F1"], &rows);

    println!();
    println!("mean static fractions that shift (Δ ≥ 0.01):");
    for (name, [l, r]) in &fractions {
        if (l - r).abs() >= 0.01 {
            println!("  {name:20} leftmost {l:.3}  rightmost {r:.3}");
        }
    }
}

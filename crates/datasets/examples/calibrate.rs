//! Calibration probe: timings, footprints, and classification accuracy
//! on standard-scale datasets. Run with `--release`.

use bs_classify::{ClassifierPipeline, LabeledSet, PER_CLASS_CAP};
use bs_datasets::{build_dataset, DatasetId, DatasetSpec, Scale};
use bs_ml::{repeated_holdout, Algorithm, CartParams, ForestParams, SvmParams};
use bs_netsim::world::{World, WorldConfig};
use bs_sensor::{extract_features, FeatureConfig};
use std::time::Instant;

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let world = World::new(WorldConfig::default());
    let ids = [DatasetId::JpDitl, DatasetId::BPostDitl, DatasetId::MDitl];
    for id in ids {
        if !which.is_empty() && !which.iter().any(|w| w == id.name()) {
            continue;
        }
        let t0 = Instant::now();
        let spec = DatasetSpec::paper(id, Scale::standard(), 1);
        let built = build_dataset(&world, spec);
        let build_t = t0.elapsed();
        let window = built.windows()[0];
        let t1 = Instant::now();
        let feats =
            extract_features(&built.log, &world, window.0, window.1, &FeatureConfig::default());
        let extract_t = t1.elapsed();
        let truth = built.truth_for_window(window);
        let stats = built.stats;
        println!(
            "{}: build {:.1}s extract {:.1}s | contacts {} lookups {} leafhits {} root_q {} natl_q {} final_q {} | log {} analyzable {}",
            id.name(), build_t.as_secs_f64(), extract_t.as_secs_f64(),
            stats.contacts, stats.lookups, stats.leaf_cache_hits,
            stats.root_queries, stats.national_queries, stats.final_queries,
            built.log.len(), feats.len()
        );
        // Footprint distribution.
        let mut qs: Vec<usize> = feats.iter().map(|f| f.querier_count).collect();
        qs.sort_unstable();
        if !qs.is_empty() {
            println!(
                "  footprints: min {} p50 {} p90 {} max {}",
                qs[0],
                qs[qs.len() / 2],
                qs[qs.len() * 9 / 10],
                qs[qs.len() - 1]
            );
        }
        // Class mix of analyzable originators.
        let mut mix = std::collections::BTreeMap::new();
        for f in &feats {
            if let Some(c) = truth.get(&f.originator) {
                *mix.entry(c.name()).or_insert(0) += 1;
            } else {
                *mix.entry("?").or_insert(0) += 1;
            }
        }
        println!("  class mix: {mix:?}");

        // Curate and evaluate the three algorithms.
        let labeled = LabeledSet::curate(&truth, &feats, PER_CLASS_CAP);
        println!(
            "  labeled: {} examples, per class {:?}",
            labeled.len(),
            labeled.class_counts().iter().map(|(c, n)| (c.name(), *n)).collect::<Vec<_>>()
        );
        let fmap = bs_classify::pipeline::feature_map(&feats);
        let data = ClassifierPipeline::to_dataset(&labeled, &fmap);
        for alg in [
            Algorithm::Cart(CartParams::default()),
            Algorithm::RandomForest(ForestParams::default()),
            Algorithm::Svm(SvmParams::default()),
        ] {
            let t2 = Instant::now();
            let rep = repeated_holdout(&alg, &data, 0.6, 10, 42);
            println!(
                "  {}: acc {:.2} prec {:.2} rec {:.2} f1 {:.2} ({:.1}s)",
                alg.name(),
                rep.mean.accuracy,
                rep.mean.precision,
                rep.mean.recall,
                rep.mean.f1,
                t2.elapsed().as_secs_f64()
            );
        }
    }
}

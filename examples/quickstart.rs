//! Quickstart: sense, curate, train, and classify in ~30 lines.
//!
//! Builds a small simulated Internet, runs two days of JP-focused
//! network-wide activity, observes the backscatter at the JP national
//! reverse-DNS authority, and classifies every analyzable originator.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use dns_backscatter::prelude::*;
use std::collections::BTreeMap;

fn main() {
    // 1. A world and two days of activity focused on JP address space.
    let world = World::new(WorldConfig::default());
    let spec = DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 42);
    println!("simulating {} …", spec.id.name());
    let built = build_dataset(&world, spec);
    println!(
        "  {} contacts → {} reverse queries observed at {}",
        built.stats.contacts,
        built.log.len(),
        built.spec.authority
    );

    // 2. The full pipeline: sense every window in one pass, curate labels,
    //    train a random forest with majority voting, classify every
    //    analyzable originator.
    let config = FeatureConfig { min_queriers: 10, ..Default::default() }; // smoke scale is small
    let features = sense_dataset(&built, &world, &config);
    let run = DatasetPipeline::default().run(&built, &features);
    let window = &run.windows[0];
    println!(
        "  curated {} labeled examples; classified {} originators",
        run.labels.len(),
        window.entries.len()
    );

    // 3. What did the sensor see?
    let mut mix: BTreeMap<ApplicationClass, usize> = BTreeMap::new();
    for e in &window.entries {
        *mix.entry(e.class).or_insert(0) += 1;
    }
    println!("\nclass mix of analyzable originators:");
    for (class, n) in &mix {
        println!("  {:12} {}", class.name(), n);
    }

    // 4. The biggest footprints — in the paper these are unsavoury, and
    //    they should be here too.
    let mut by_size = window.entries.clone();
    by_size.sort_by_key(|e| std::cmp::Reverse(e.queriers));
    println!("\ntop five originators by footprint:");
    for e in by_size.iter().take(5) {
        println!("  {:15} {:>6} queriers → {}", e.originator.to_string(), e.queriers, e.class);
    }
}

//! Hunting coordinated scanner teams from backscatter alone.
//!
//! The paper's §VI-B spots /24 blocks where several addresses scan in
//! concert — with no direct view of the scanners' traffic. This example
//! runs the same hunt: classify originators from backscatter at the JP
//! national authority, group scanners by /24, and cross-check the
//! suspicious blocks against the darknet oracle.
//!
//! ```bash
//! cargo run --release --example scanner_teams
//! ```

use dns_backscatter::analysis::teams::{busiest_scan_blocks, scan_teams};
use dns_backscatter::analysis::{ClassifiedOriginator, WindowClassification};
use dns_backscatter::prelude::*;

fn main() {
    let world = World::new(WorldConfig::default());
    let mut spec = DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 0x7EA3);
    // More scanners and bigger teams than the stock smoke recipe.
    spec.scenario.slots.insert(ApplicationClass::Scan, 24);
    spec.scenario.scan_teams = (3, 5);
    println!("simulating {} with scanner teams…", spec.id.name());
    let built = build_dataset(&world, spec);

    let features =
        sense_dataset(&built, &world, &FeatureConfig { min_queriers: 10, ..Default::default() });
    let run = DatasetPipeline::default().run(&built, &features);
    let windows: Vec<WindowClassification> = run.windows;
    let n_scan: usize = windows[0].of_class(ApplicationClass::Scan).map(|_| 1usize).sum();
    println!("  classified {n_scan} scan originators from backscatter");

    // Team statistics over the classified output.
    let summary = scan_teams(&windows, 4);
    println!("\nteam hunt (threshold: ≥4 scanners per /24):");
    println!("  scanning /24 blocks:   {}", summary.blocks);
    println!("  candidate team blocks: {}", summary.candidate_teams);
    println!("  single-class blocks:   {}", summary.single_class_teams);

    println!("\nbusiest scanning blocks, cross-checked against the darknet:");
    for (block, members) in busiest_scan_blocks(&windows, 5) {
        // Sum the darknet evidence of the block's classified scanners.
        let dark: u64 = windows[0]
            .entries
            .iter()
            .filter(|e: &&ClassifiedOriginator| {
                e.class == ApplicationClass::Scan
                    && u32::from(e.originator) & 0xFFFF_FF00 == u32::from(block)
            })
            .map(|e| built.darknet.dark_ips(e.originator))
            .sum();
        println!(
            "  {block}/24: {members} scanners, {dark} darknet addresses touched{}",
            if members >= 4 { "  ← team candidate" } else { "" }
        );
    }
    println!("\nbackscatter found these without seeing a single probe packet;");
    println!("the darknet column is the independent confirmation the paper uses.");
}

//! Seeded property test of the equivalence between the sensor's
//! one-pass [`prefix_entropies`] over a querier column and its retained
//! `BTreeMap`-histogram reference.
//!
//! The claim is **bit-identity**, not approximate agreement: the two
//! agree to the last bit of the float sum.
//!
//! (The forest's batch descent is pinned against per-row prediction in
//! `crates/ml/src/mlcore_equivalence.rs` and `bs-ml`'s unit tests.)

use crate::dynamic::{normalized_entropy_reference, prefix_entropies};
use bs_par::Rng;
use std::net::Ipv4Addr;

const CASES: u64 = 256;

/// A footprint's /24 and /8 entropies from one pass over its ascending
/// querier column return the reference's bits for both histograms.
/// The columns are drawn in clusters — a few /8s, a few /24s in each,
/// up to every host of a /24 — so runs reach hundreds of queriers in a
/// /24 and thousands in a /8, beside sparse columns of single-querier
/// runs.
#[test]
fn entropy_equals_reference_bitwise() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x24E8);
        let mut column: Vec<u32> = Vec::new();
        for _ in 0..rng.range(0..4) {
            let slash8 = rng.below(256) as u32;
            for _ in 0..rng.range(1..12) {
                let slash24 = slash8 << 16 | rng.below(1 << 16) as u32;
                let hosts = [1, 2, rng.range(1..257)][rng.range(0..3)];
                column.extend((0..hosts).map(|_| slash24 << 8 | rng.below(256) as u32));
            }
        }
        column.extend((0..rng.range(0..40)).map(|_| rng.next_u64() as u32));
        column.sort_unstable();
        column.dedup();
        let queriers: Vec<Ipv4Addr> = column.iter().map(|&a| Ipv4Addr::from(a)).collect();
        let slash24s: Vec<u32> = column.iter().map(|a| a >> 8).collect();
        let slash8s: Vec<u32> = column.iter().map(|a| a >> 24).collect();
        let (local, global) = prefix_entropies(&queriers);
        let n = queriers.len() as f64;
        assert_eq!(
            local.to_bits(),
            normalized_entropy_reference(&slash24s, n).to_bits(),
            "/24 of {} queriers (seed {seed})",
            queriers.len()
        );
        assert_eq!(
            global.to_bits(),
            normalized_entropy_reference(&slash8s, 256.0).to_bits(),
            "/8 of {} queriers (seed {seed})",
            queriers.len()
        );
    }
}

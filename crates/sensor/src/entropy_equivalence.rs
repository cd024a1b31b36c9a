//! Seeded property test of the equivalence between the sensor's
//! sorted-run entropy fast path and its retained `BTreeMap` reference.
//!
//! The claim is **bit-identity**, not approximate agreement: the two
//! agree to the last bit of the float sum.
//!
//! (The forest's batch descent is pinned against per-row prediction in
//! `crates/ml/src/mlcore_equivalence.rs` and `bs-ml`'s unit tests.)

use crate::dynamic::{normalized_entropy, normalized_entropy_reference};
use bs_par::Rng;

const CASES: u64 = 256;

/// Alphabet sizes for the entropy property: the degenerate/edge values
/// the reference special-cases, plus an arbitrary positive draw.
const ALPHABETS: [f64; 4] = [0.5, 1.0, 2.0, 256.0];

/// The sorted-run entropy fast path returns the same bits as the
/// `BTreeMap` histogram reference for every histogram shape and
/// alphabet, including the degenerate single-run case where the
/// sum is `-0.0`.
#[test]
fn entropy_equals_reference_bitwise() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0xE274);
        let values: Vec<u32> = (0..rng.range(0..200)).map(|_| rng.below(64) as u32).collect();
        let free = rng.range_f64(1.0..1e6);
        let alphabet = ALPHABETS.get(rng.range(0..ALPHABETS.len() + 1)).copied().unwrap_or(free);
        assert_eq!(
            normalized_entropy(&values, alphabet).to_bits(),
            normalized_entropy_reference(&values, alphabet).to_bits(),
            "values {values:?} alphabet {alphabet} (seed {seed})"
        );
    }
}

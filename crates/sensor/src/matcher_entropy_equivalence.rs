//! Seeded property tests of the equivalence between the sensor's two data-parallel
//! fast paths and their retained scalar references.
//!
//! The claims are **bit-identity**, not approximate agreement:
//!
//! * the packed static-feature matcher ≡ the byte-at-a-time reference
//!   on arbitrary querier names over the full DNS label charset;
//! * the sorted-run entropy accumulator ≡ the `BTreeMap` histogram
//!   reference, to the last bit of the float sum.
//!
//! (The forest's batch descent is pinned against per-row prediction in
//! `crates/ml/src/mlcore_equivalence.rs` and `bs-mlcore`'s unit
//! tests.)

use crate::dynamic::{normalized_entropy, normalized_entropy_reference};
use crate::static_features::{
    classify_name_with_order, classify_name_with_order_reference, MatchOrder,
};
use bs_dns::DomainName;
use bs_par::Rng;

const CASES: u64 = 256;

/// Keyword fragments spliced into random names so rule hits, boundary
/// cases and near-misses all occur in `static_matcher_equals_reference`.
const SPLICES: [&str; 14] = [
    "",
    "mail",
    "MAIL",
    "mailing",
    "ns",
    "pop3",
    "newsletter",
    "newsletter7",
    "chinacache",
    "amazonaws",
    "google",
    "customer-1",
    "fw",
    "wallet",
];

/// Alphabet sizes for the entropy property: the degenerate/edge values
/// the reference special-cases, plus an arbitrary positive draw.
const ALPHABETS: [f64; 4] = [0.5, 1.0, 2.0, 256.0];

/// One label over the full DNS charset: `[A-Za-z0-9_-]{1,16}`.
fn arb_label(rng: &mut Rng) -> String {
    const CHARSET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-";
    (0..rng.range(1..17)).map(|_| CHARSET[rng.range(0..CHARSET.len())] as char).collect()
}

/// The packed keyword matcher classifies every parseable name
/// identically to the byte-at-a-time reference, under both scan
/// orders. Labels draw from the full DNS charset (mixed case,
/// digits, `-`, `_`) with keyword fragments spliced in so rule
/// hits, boundary cases and near-misses all occur.
#[test]
fn static_matcher_equals_reference() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x57A7);
        let mut labels: Vec<String> = (0..rng.range(1..5)).map(|_| arb_label(&mut rng)).collect();
        let splice = SPLICES[rng.range(0..SPLICES.len())];
        let splice_at = rng.range(0..5);
        if !splice.is_empty() {
            labels.insert(splice_at.min(labels.len()), splice.to_string());
        }
        let name = labels.join(".");
        if let Ok(name) = DomainName::parse(&name) {
            for order in [MatchOrder::LeftmostFirst, MatchOrder::RightmostFirst] {
                assert_eq!(
                    classify_name_with_order(&name, order),
                    classify_name_with_order_reference(&name, order),
                    "name {name:?} under {order:?} (seed {seed})"
                );
            }
        }
    }
}

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

//! Property-tested equivalence between the sensor's two data-parallel
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
//! `crates/ml/tests/mlcore_equivalence.rs` and `bs-mlcore`'s unit
//! tests.)

use bs_dns::DomainName;
use bs_sensor::dynamic::{normalized_entropy, normalized_entropy_reference};
use bs_sensor::static_features::{
    classify_name_with_order, classify_name_with_order_reference, MatchOrder,
};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The packed keyword matcher classifies every parseable name
    /// identically to the byte-at-a-time reference, under both scan
    /// orders. Labels draw from the full DNS charset (mixed case,
    /// digits, `-`, `_`) with keyword fragments spliced in so rule
    /// hits, boundary cases and near-misses all occur.
    #[test]
    fn static_matcher_equals_reference(
        raw_labels in proptest::collection::vec("[A-Za-z0-9_-]{1,16}", 1..5),
        splice_idx in 0usize..SPLICES.len(),
        splice_at in 0usize..5,
    ) {
        let splice = SPLICES[splice_idx];
        let mut labels = raw_labels;
        if !splice.is_empty() {
            labels.insert(splice_at.min(labels.len()), splice.to_string());
        }
        let name = labels.join(".");
        if let Ok(name) = DomainName::parse(&name) {
            for order in [MatchOrder::LeftmostFirst, MatchOrder::RightmostFirst] {
                prop_assert_eq!(
                    classify_name_with_order(&name, order),
                    classify_name_with_order_reference(&name, order),
                    "name {:?} under {:?}", name, order
                );
            }
        }
    }

    /// The sorted-run entropy fast path returns the same bits as the
    /// `BTreeMap` histogram reference for every histogram shape and
    /// alphabet, including the degenerate single-run case where the
    /// sum is `-0.0`.
    #[test]
    fn entropy_equals_reference_bitwise(
        values in proptest::collection::vec(0u32..64, 0..200),
        alphabet in (0usize..=ALPHABETS.len(), 1.0f64..1e6)
            .prop_map(|(i, free)| ALPHABETS.get(i).copied().unwrap_or(free)),
    ) {
        prop_assert_eq!(
            normalized_entropy(&values, alphabet).to_bits(),
            normalized_entropy_reference(&values, alphabet).to_bits(),
            "values {:?} alphabet {}", values, alphabet
        );
    }
}

//! Integration: the system degrades gracefully on malformed, truncated,
//! and degenerate inputs.

use dns_backscatter::classify::pipeline::feature_map;
use dns_backscatter::classify::{ClassifierPipeline, LabeledSet};
use dns_backscatter::dns::message::Message;
use dns_backscatter::netsim::log::QueryLog;
use dns_backscatter::prelude::*;
use dns_backscatter::sensor::ingest::Observations;

#[test]
fn corrupted_log_lines_are_rejected_with_location() {
    let good = "0\t192.0.2.1\t203.0.113.9\tNOERROR\n";
    let bad = format!("{good}{good}not-a-record\n");
    let err = QueryLog::from_tsv(&bad).unwrap_err();
    assert_eq!(err.line, 3);

    // Round-tripping a real simulated log survives.
    let world = World::new(WorldConfig::default());
    let built = build_dataset(&world, DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 31));
    let text = built.log.to_tsv();
    let reloaded = QueryLog::from_tsv(&text).expect("own output parses");
    assert_eq!(&reloaded, &built.log);

    // …and truncating the text mid-line fails loudly instead of
    // silently dropping records.
    if text.len() > 10 {
        let cut = &text[..text.len() - 5];
        assert!(QueryLog::from_tsv(cut).is_err());
    }
}

#[test]
fn wire_decoder_survives_fuzz_like_corruption() {
    // Corrupt every byte of a valid packet one at a time; decoding must
    // never panic (errors are fine, and some corruptions still parse).
    let world = World::new(WorldConfig::default());
    let addr = world.random_public_addr(1);
    let q = Message::query(
        7,
        dns_backscatter::dns::reverse::reverse_name(addr),
        dns_backscatter::dns::QType::Ptr,
    );
    let bytes = q.encode();
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut b = bytes.clone();
            b[i] ^= flip;
            let _ = Message::decode(&b);
        }
    }
}

#[test]
fn empty_window_produces_no_features_and_no_model() {
    let world = World::new(WorldConfig::default());
    let log = QueryLog::new();
    let feats =
        extract_features(&log, &world, SimTime(0), SimTime(1000), &FeatureConfig::default());
    assert!(feats.is_empty());
    let pipeline = ClassifierPipeline::random_forest();
    assert!(pipeline.train(&LabeledSet::default(), &feature_map(&feats), 1).is_none());
}

#[test]
fn window_outside_the_log_is_empty_not_wrong() {
    let world = World::new(WorldConfig::default());
    let built = build_dataset(&world, DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 32));
    let feats = extract_features(
        &built.log,
        &world,
        SimTime::from_days(100),
        SimTime::from_days(101),
        &FeatureConfig::default(),
    );
    assert!(feats.is_empty());
}

#[test]
fn single_class_labels_cannot_train_but_do_not_panic() {
    let world = World::new(WorldConfig::default());
    let built = build_dataset(&world, DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 33));
    let window = built.windows()[0];
    let feats = extract_features(
        &built.log,
        &world,
        window.0,
        window.1,
        &FeatureConfig { min_queriers: 5, top_n: None },
    );
    let truth = built.truth_for_window(window);
    // Keep only spam labels.
    let spam_only: std::collections::BTreeMap<_, _> =
        truth.into_iter().filter(|(_, c)| *c == ApplicationClass::Spam).collect();
    let labeled = LabeledSet::curate(&spam_only, &feats, 140);
    assert!(!labeled.is_empty());
    let pipeline = ClassifierPipeline::random_forest();
    assert!(pipeline.train(&labeled, &feature_map(&feats), 1).is_none());
}

#[test]
fn observations_tolerate_out_of_order_records() {
    // Records shuffled in time: ingestion still produces a coherent
    // view (dedup keyed on last-accepted time is order-sensitive by
    // design, but nothing panics and counts stay sane).
    let world = World::new(WorldConfig::default());
    let built = build_dataset(&world, DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 34));
    let mut records: Vec<_> = built.log.records().to_vec();
    records.reverse();
    let mut shuffled = QueryLog::new();
    for r in records {
        shuffled.push(r);
    }
    let window = built.windows()[0];
    let obs = Observations::ingest(&shuffled, window.0, window.1);
    assert_eq!(
        obs.originator_count(),
        Observations::ingest(&built.log, window.0, window.1).originator_count()
    );
}

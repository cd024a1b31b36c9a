//! Seeded property tests for the sensor. Every case derives from its
//! seed alone, so a failure replays from the seed in its message.

use bs_dns::{SimDuration, SimTime};
use bs_netsim::log::QueryLog;
use bs_netsim::types::{AsId, CountryCode, NameOutcome};
use bs_par::Rng;
use bs_sensor::ingest::Observations;
use bs_sensor::static_features::{classify_name, classify_name_with_order, MatchOrder};
use bs_sensor::{extract_with_meta_cache, FeatureConfig, QuerierInfo};
use std::net::Ipv4Addr;

mod common;
use common::{sorted_records, Pools};

const CASES: u64 = 96;

/// Wider pools than the equivalence suites: every originator in the
/// /24, so most stay below any analyzability threshold.
const WIDE: Pools = Pools { horizon: 10_000, querier_mod: 251, originators: 256, max_len: 300 };

struct ToyInfo;
impl QuerierInfo for ToyInfo {
    fn querier_name(&self, addr: Ipv4Addr) -> NameOutcome {
        match addr.octets()[3] % 4 {
            0 => NameOutcome::Name(bs_dns::DomainName::parse("mail.example.com").unwrap()),
            1 => NameOutcome::Name(bs_dns::DomainName::parse("ns1.isp.net").unwrap()),
            2 => NameOutcome::NxDomain,
            _ => NameOutcome::Unreachable,
        }
    }
    fn querier_as(&self, addr: Ipv4Addr) -> Option<AsId> {
        Some(AsId(addr.octets()[1] as u32))
    }
    fn querier_country(&self, _addr: Ipv4Addr) -> Option<CountryCode> {
        CountryCode::new("us")
    }
}

/// A time-ordered log of an arbitrary stream.
fn arb_log(rng: &mut Rng) -> QueryLog {
    QueryLog::from_records(sorted_records(rng, &WIDE))
}

/// Static fractions always sum to 1 for every analyzable originator,
/// and every feature value is finite.
#[test]
fn static_fractions_sum_to_one() {
    for seed in 0..CASES {
        let log = arb_log(&mut Rng::new(seed ^ 0x57A7));
        let obs = Observations::ingest(&log, SimTime(0), SimTime(10_000));
        let config = FeatureConfig { min_queriers: 1, top_n: None };
        for f in extract_with_meta_cache(&obs, &ToyInfo, &config, None) {
            let sum: f64 = f.features.static_fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum={sum} (seed {seed})");
            for v in f.features.to_vec() {
                assert!(v.is_finite(), "seed {seed}");
            }
        }
    }
}

/// Dedup never *increases* the query count, never changes the
/// querier set, and is idempotent in its effect on uniques.
#[test]
fn dedup_only_removes_repeats() {
    for seed in 0..CASES {
        let log = arb_log(&mut Rng::new(seed ^ 0xDED0));
        let ingest = |dedup| {
            Observations::ingest_with_dedup(&log, SimTime(0), SimTime(10_000), SimDuration(dedup))
        };
        let (strict, none) = (ingest(30), ingest(0));
        assert_eq!(strict.originator_count(), none.originator_count(), "seed {seed}");
        for o in strict.originators() {
            let raw = none.originator(o.originator()).expect("both widths observe it");
            assert!(o.query_count() <= raw.query_count(), "seed {seed}");
            assert_eq!(o.queriers(), raw.queriers(), "dedup must not drop queriers (seed {seed})");
        }
    }
}

/// Ranking respects the threshold and descending footprint order.
#[test]
fn selection_is_ranked() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x4A2C);
        let log = arb_log(&mut rng);
        let min = rng.range(1..10);
        let obs = Observations::ingest(&log, SimTime(0), SimTime(10_000));
        let selected = bs_sensor::ingest::select_analyzable(&obs, min, None);
        for pair in selected.windows(2) {
            assert!(pair[0].querier_count() >= pair[1].querier_count(), "seed {seed}");
        }
        for o in &selected {
            assert!(o.querier_count() >= min, "seed {seed}");
        }
    }
}

/// The keyword matcher is total and order variants agree on
/// single-label names (`[a-z][a-z0-9-]{0,20}[a-z0-9]`).
#[test]
fn matcher_total_and_consistent() {
    const EDGE: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    const INNER: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x1ABE);
        let mut label = String::from(EDGE[rng.range(0..26)] as char);
        for _ in 0..rng.range(0..21) {
            label.push(INNER[rng.range(0..INNER.len())] as char);
        }
        label.push(EDGE[rng.range(0..EDGE.len())] as char);
        if let Ok(name) = bs_dns::DomainName::parse(&label) {
            let l = classify_name_with_order(&name, MatchOrder::LeftmostFirst);
            let r = classify_name_with_order(&name, MatchOrder::RightmostFirst);
            assert_eq!(l, r, "single-component names have one scan order ({label:?}, seed {seed})");
            assert_eq!(classify_name(&name), l, "{label:?}, seed {seed}");
        }
    }
}

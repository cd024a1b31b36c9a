//! Fast extraction ≡ per-pair reference: the qmeta-table path of
//! [`extract_with_meta_cache`] must be **bit-identical** to
//! [`extract_from_observations_reference`] on arbitrary logs —
//! queriers shared across many originators, out-of-order and
//! pre-window timestamps, metadata gaps (no AS / no country), and
//! cross-window cache reuse vs cold resolution. (Width independence
//! of extraction is pinned by the root `tests/parallel_determinism.rs`.)
//!
//! Seeded loops: every case derives from its seed alone, so a failure
//! replays from the seed in its message.

use crate::common::{arb_records, SMALL};
use crate::extract::{
    extract_from_observations_reference, extract_with_meta_cache, FeatureConfig, OriginatorFeatures,
};
use crate::ingest::{select_analyzable, Observations};
use crate::qmeta::QuerierMetaCache;
use crate::QuerierInfo;
use bs_dns::{DomainName, Rcode, SimTime};
use bs_netsim::log::{QueryLog, QueryLogRecord};
use bs_netsim::types::{AsId, CountryCode, NameOutcome};
use bs_par::Rng;
use std::net::Ipv4Addr;

const CASES: u64 = 64;

/// Deterministic synthetic metadata spanning every code path the
/// plane must memoize: all three `NameOutcome` variants, a mix of
/// keyword categories, and `None` gaps in both AS and country.
struct SynthInfo;

impl QuerierInfo for SynthInfo {
    fn querier_name(&self, a: Ipv4Addr) -> NameOutcome {
        let x = u32::from(a);
        let name = |s: String| NameOutcome::Name(DomainName::parse(&s).unwrap());
        match x % 7 {
            0 => NameOutcome::NxDomain,
            1 => NameOutcome::Unreachable,
            2 => name(format!("mail{}.example.com", x % 50)),
            3 => name(format!("ns{}.isp.net", x % 20)),
            4 => name(format!("host-{}-{}.bigisp.net", (x >> 8) & 0xff, x & 0xff)),
            5 => name(format!("a{}.deploy.akamai.sim", x % 97)),
            _ => name(format!("zx{}.example.org", x % 1000)),
        }
    }
    fn querier_as(&self, a: Ipv4Addr) -> Option<AsId> {
        let x = u32::from(a);
        (x % 11 != 0).then_some(AsId((x >> 6) % 300))
    }
    fn querier_country(&self, a: Ipv4Addr) -> Option<CountryCode> {
        let x = u32::from(a);
        (x % 13 != 0)
            .then(|| CountryCode([b'a' + ((x >> 3) % 26) as u8, b'a' + ((x >> 9) % 26) as u8]))
    }
}

/// Every feature bit-exact, not merely `==` (which would let a
/// `-0.0` / `+0.0` flip slip through).
fn bits(fs: &[OriginatorFeatures]) -> Vec<(Ipv4Addr, usize, usize, Vec<u64>)> {
    fs.iter()
        .map(|f| {
            (
                f.originator,
                f.querier_count,
                f.query_count,
                f.features.to_vec().iter().map(|x| x.to_bits()).collect(),
            )
        })
        .collect()
}

fn ingest(records: &[QueryLogRecord], start: u64, end: u64) -> Observations {
    let mut log = QueryLog::new();
    for r in records {
        log.push(*r);
    }
    Observations::ingest(&log, SimTime(start), SimTime(end))
}

/// High-overlap streams: a pool of just 48 queriers shared across up
/// to 24 originators — the workload the metadata plane exists for.
fn arb_high_overlap(rng: &mut Rng) -> Vec<QueryLogRecord> {
    (0..rng.range(0..600))
        .map(|_| {
            let time = SimTime(rng.below(5_000));
            let q = rng.below(48) as u8;
            let o = rng.below(24) as u8;
            QueryLogRecord {
                time,
                querier: Ipv4Addr::new(10, 0, q / 13, q),
                originator: Ipv4Addr::new(203, 0, 113, o),
                rcode: Rcode::NoError,
            }
        })
        .collect()
}

/// Cold fast path ≡ reference on arbitrary logs, across the
/// analyzability knobs.
#[test]
fn fast_extraction_matches_reference() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0xC01D);
        let obs = ingest(&arb_records(&mut rng, &SMALL), 0, 5_000);
        let min_queriers = rng.range(1..6);
        // 0 means "no cap".
        let top_n = Some(rng.range(0..10)).filter(|&n| n > 0);
        let config = FeatureConfig { min_queriers, top_n };
        let fast = extract_with_meta_cache(&obs, &SynthInfo, &config, None);
        let reference = extract_from_observations_reference(&obs, &SynthInfo, &config);
        assert_eq!(bits(&fast), bits(&reference), "seed {seed}");
    }
}

/// The same equivalence when queriers are shared across many
/// originators — interned ids must count distinct metadata exactly
/// as the reference's per-originator BTree unions do.
#[test]
fn fast_extraction_matches_reference_on_shared_queriers() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x54A2);
        let obs = ingest(&arb_high_overlap(&mut rng), 0, 5_000);
        let config = FeatureConfig { min_queriers: rng.range(1..4), top_n: None };
        let fast = extract_with_meta_cache(&obs, &SynthInfo, &config, None);
        let reference = extract_from_observations_reference(&obs, &SynthInfo, &config);
        assert_eq!(bits(&fast), bits(&reference), "seed {seed}");
    }
}

/// A window whose start moved after ingest — fewer periods, the
/// stored offsets unchanged — reads its persistence identically on
/// both paths.
#[test]
fn fast_extraction_matches_reference_on_a_shortened_window() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x94E0);
        let mut obs = ingest(&arb_records(&mut rng, &SMALL), 0, 5_000);
        // Move the start after ingest: the window has fewer periods
        // than its offsets span.
        obs.window_start = SimTime(1 + rng.below(1_999));
        let config = FeatureConfig { min_queriers: 1, top_n: None };
        let fast = extract_with_meta_cache(&obs, &SynthInfo, &config, None);
        let reference = extract_from_observations_reference(&obs, &SynthInfo, &config);
        assert_eq!(bits(&fast), bits(&reference), "seed {seed}");
    }
}

/// A cache warmed by earlier windows must not change a later
/// window's output: warm extraction is bit-identical to cold and
/// to the reference. Each window draws its own analyzability cut, so
/// the first window leaves placed-but-unnamed entries that the second
/// window's cut may select.
#[test]
fn warm_cache_extraction_matches_cold_and_reference() {
    let mut cut_some = 0;
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x3A43);
        let mut sorted = arb_high_overlap(&mut rng);
        let keep_windows = rng.below(4) as u32;
        sorted.sort_by_key(|r| r.time);
        let w1: Vec<_> = sorted.iter().filter(|r| r.time.0 < 2_500).copied().collect();
        let w2: Vec<_> = sorted.iter().filter(|r| r.time.0 >= 2_500).copied().collect();
        let obs1 = ingest(&w1, 0, 2_500);
        let obs2 = ingest(&w2, 2_500, 5_000);
        let config1 = FeatureConfig { min_queriers: rng.range(1..10), top_n: None };
        let config2 = FeatureConfig { min_queriers: rng.range(1..10), top_n: None };
        if select_analyzable(&obs1, config1.min_queriers, None).len() < obs1.originator_count() {
            cut_some += 1;
        }

        let mut cache = QuerierMetaCache::new(keep_windows);
        let warm1 = extract_with_meta_cache(&obs1, &SynthInfo, &config1, Some(&mut cache));
        let warm2 = extract_with_meta_cache(&obs2, &SynthInfo, &config2, Some(&mut cache));

        let cold1 = extract_from_observations_reference(&obs1, &SynthInfo, &config1);
        let cold2 = extract_from_observations_reference(&obs2, &SynthInfo, &config2);
        assert_eq!(bits(&warm1), bits(&cold1), "first window (seed {seed})");
        assert_eq!(bits(&warm2), bits(&cold2), "second window (seed {seed})");
    }
    assert!(cut_some > CASES / 4, "only {cut_some} cases cut an originator in the first window");
}

/// Deterministic cache-behaviour pin: identical windows replayed
/// through one cache hit on every querier after the first window, and
/// the warm outputs stay bit-identical to the cold reference.
#[test]
fn replayed_windows_hit_the_cache_and_stay_identical() {
    let records: Vec<QueryLogRecord> = (0..200u32)
        .map(|i| QueryLogRecord {
            time: SimTime((i as u64 * 20) % 2_400),
            querier: Ipv4Addr::new(10, 0, (i % 40 / 13) as u8, (i % 40) as u8),
            originator: Ipv4Addr::new(203, 0, 113, (i % 6) as u8),
            rcode: Rcode::NoError,
        })
        .collect();
    let obs = ingest(&records, 0, 2_500);
    let config = FeatureConfig { min_queriers: 1, top_n: None };
    let reference = extract_from_observations_reference(&obs, &SynthInfo, &config);

    let mut cache = QuerierMetaCache::default();
    let first = extract_with_meta_cache(&obs, &SynthInfo, &config, Some(&mut cache));
    assert_eq!(cache.hits(), 0, "cold cache serves nothing");
    let unique = obs.all_queriers.len() as u64;
    assert_eq!(cache.misses(), unique, "one resolution per unique querier");

    let second = extract_with_meta_cache(&obs, &SynthInfo, &config, Some(&mut cache));
    assert_eq!(cache.hits(), unique, "replay must hit on every querier");
    assert_eq!(cache.misses(), unique, "replay must not re-resolve anything");

    assert_eq!(bits(&first), bits(&reference));
    assert_eq!(bits(&second), bits(&reference));
}

/// Replays of one window whose cut leaves originators out: their
/// queriers are cached placed but unnamed, and a later replay whose cut
/// selects them names them. Every replay is bit-identical to the
/// reference at its own cut, and only the first one misses the cache.
#[test]
fn replays_across_cuts_stay_identical() {
    // Six originators of twenty queriers each; even ones share the even
    // queriers, odd ones the odd.
    let records: Vec<QueryLogRecord> = (0..240u32)
        .map(|i| QueryLogRecord {
            time: SimTime((i as u64 * 10) % 2_400),
            querier: Ipv4Addr::new(10, 0, (i % 40 / 13) as u8, (i % 40) as u8),
            originator: Ipv4Addr::new(203, 0, 113, (i % 6) as u8),
            rcode: Rcode::NoError,
        })
        .collect();
    let obs = ingest(&records, 0, 2_500);
    let mut cache = QuerierMetaCache::default();
    for (replay, top_n) in [Some(1), Some(1), None, Some(2), None].into_iter().enumerate() {
        let config = FeatureConfig { min_queriers: 1, top_n };
        let warm = extract_with_meta_cache(&obs, &SynthInfo, &config, Some(&mut cache));
        let reference = extract_from_observations_reference(&obs, &SynthInfo, &config);
        assert_eq!(bits(&warm), bits(&reference), "replay {replay} at top_n {top_n:?}");
    }
    assert_eq!(cache.misses(), obs.all_queriers.len() as u64);
}

//! End-to-end feature extraction: logs in, feature vectors out.

use crate::dynamic::DynamicFeatures;
use crate::ingest::{select_analyzable, Observations, OriginatorObservation};
use crate::qmeta::{QuerierMetaCache, QuerierMetaTable, NO_ID};
use crate::static_features::StaticFeature;
use crate::QuerierInfo;
use bs_dns::SimTime;
use bs_netsim::log::QueryLog;
use std::net::Ipv4Addr;

/// Extraction configuration (paper defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Analyzability threshold on unique queriers.
    pub min_queriers: usize,
    /// Keep only the N originators with the most queriers.
    pub top_n: Option<usize>,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig { min_queriers: crate::ingest::MIN_QUERIERS, top_n: Some(10_000) }
    }
}

/// A complete per-originator feature vector: 14 static fractions plus
/// 8 dynamic features, in a fixed order.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    /// Fraction of queriers in each static category (sums to 1).
    pub static_fractions: [f64; 14],
    /// The dynamic features.
    pub dynamic: DynamicFeatures,
}

impl FeatureVector {
    /// Feature names, aligned with [`FeatureVector::write_to`].
    pub fn names() -> Vec<String> {
        StaticFeature::ALL
            .iter()
            .map(|f| format!("static:{}", f.name()))
            .chain(DynamicFeatures::names().iter().map(|n| format!("dyn:{n}")))
            .collect()
    }

    /// Number of features.
    pub const LEN: usize = 22;

    /// Write the features, in [`FeatureVector::names`] order, into
    /// `out` — a caller-owned row of the ML crate's batch buffer.
    ///
    /// # Panics
    /// If `out.len()` is not [`FeatureVector::LEN`].
    pub fn write_to(&self, out: &mut [f64]) {
        let (fractions, dynamic) = out.split_at_mut(self.static_fractions.len());
        fractions.copy_from_slice(&self.static_fractions);
        dynamic.copy_from_slice(&self.dynamic.to_array());
    }

    /// Flatten to a 22-dimensional vector for the ML crate.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut v = vec![0.0; Self::LEN];
        self.write_to(&mut v);
        v
    }

    /// The fraction for one static category.
    pub fn static_fraction(&self, f: StaticFeature) -> f64 {
        self.static_fractions[f.index()]
    }
}

/// An originator with its observed footprint and features.
#[derive(Debug, Clone, PartialEq)]
pub struct OriginatorFeatures {
    /// The originator address.
    pub originator: Ipv4Addr,
    /// Unique queriers observed (footprint).
    pub querier_count: usize,
    /// Deduplicated query count.
    pub query_count: usize,
    /// The feature vector.
    pub features: FeatureVector,
}

/// Extract features for every analyzable originator in `[start, end)`
/// of `log`, ranked by footprint.
pub fn extract_features(
    log: &QueryLog,
    info: &(impl QuerierInfo + Sync),
    start: SimTime,
    end: SimTime,
    config: &FeatureConfig,
) -> Vec<OriginatorFeatures> {
    let obs = Observations::ingest(log, start, end);
    extract_with_meta_cache(&obs, info, config, None)
}

/// Extraction over an already-ingested window.
///
/// The analyzability cut runs first; a [`QuerierMetaTable`] then places
/// (AS, country) each unique querier of the window exactly once and
/// names (reverse name → category) only the queriers of the selected
/// footprints — the only names a feature reads. Every originator then
/// reduces to table lookups plus dense-id bitmap counting —
/// O(unique queriers) metadata work instead of the per-pair
/// reference's O(Σ footprints). Bit-identical to that reference, which
/// is test-only (pinned by the seeded suite in `qmeta_equivalence.rs`).
///
/// With `cache`, a cross-window [`QuerierMetaCache`]: the streaming
/// path passes the same cache every window, so queriers that persist
/// between windows skip the metadata provider entirely. `None`
/// resolves everything cold. Output is cache-invariant (the cache
/// memoizes resolutions, and interning happens per window either way).
///
/// Originators are independent, so their feature vectors compute in
/// parallel on the [`bs_par`] pool; the output keeps the footprint
/// ranking of [`select_analyzable`] because results collect in task
/// order.
pub fn extract_with_meta_cache(
    obs: &Observations,
    info: &(impl QuerierInfo + Sync),
    config: &FeatureConfig,
    cache: Option<&mut QuerierMetaCache>,
) -> Vec<OriginatorFeatures> {
    let _stage = bs_telemetry::stage("sensor.extract");
    let selected = {
        let _stage = bs_telemetry::stage("sensor.select");
        let selected = select_analyzable(obs, config.min_queriers, config.top_n);
        if bs_telemetry::ledger::is_active() {
            // Conservation over the analyzability cut: every observed
            // originator is selected, below threshold, or ranked out.
            let total = obs.originator_count() as u64;
            let passing =
                obs.originators().filter(|o| o.querier_count() >= config.min_queriers).count()
                    as u64;
            let kept = selected.len() as u64;
            bs_telemetry::ledger::record(
                "sensor.select",
                total,
                &[
                    ("selected", kept),
                    ("below_threshold", total - passing),
                    ("truncated", passing - kept),
                ],
            );
        }
        selected
    };
    let table = {
        let _stage = bs_telemetry::stage("sensor.extract.lookup");
        let named = selected.iter().flat_map(|&o| o.queriers());
        QuerierMetaTable::build_naming(obs, named, info, cache)
    };
    let out: Vec<OriginatorFeatures> = bs_par::par_chunks(&selected, EXTRACT_CHUNK, |_, chunk| {
        // One stage per chunk of originators, not one per originator
        // per window.
        let _stage = bs_telemetry::stage("sensor.extract.features");
        chunk.iter().map(|&o| features_from_table(o, &table, obs)).collect::<Vec<_>>()
    })
    .concat();
    bs_telemetry::counter_add("sensor.features_extracted", out.len() as u64);
    out
}

/// Originators per parallel feature task on the fast path.
const EXTRACT_CHUNK: usize = 64;

/// Distinct count over one of the window's dense interned id spaces
/// (`0..n_ids`, contiguous from zero): a bitmap sized to the space and
/// a counter, usually a cache line or two.
struct IdBitmap {
    words: Vec<u64>,
    len: usize,
}

impl IdBitmap {
    fn new(n_ids: usize) -> Self {
        IdBitmap { words: vec![0; n_ids.div_ceil(64)], len: 0 }
    }

    #[inline]
    fn insert(&mut self, id: u32) {
        let (word, bit) = ((id / 64) as usize, 1u64 << (id % 64));
        self.len += usize::from(self.words[word] & bit == 0);
        self.words[word] |= bit;
    }
}

/// One originator's features from the interned metadata table: count
/// static categories and distinct AS/country ids over the footprint
/// (bitmap sets over dense ids), then share the float arithmetic with
/// the reference via [`DynamicFeatures::from_counts`].
fn features_from_table(
    o: &OriginatorObservation,
    table: &QuerierMetaTable,
    obs: &Observations,
) -> OriginatorFeatures {
    let mut static_counts = [0usize; 14];
    let mut ases = IdBitmap::new(table.distinct_ases());
    let mut countries = IdBitmap::new(table.distinct_countries());
    for q in o.queriers() {
        let m = table.get(*q).expect("footprints are subsets of the window's querier set");
        static_counts[m.category as usize] += 1;
        if m.as_id != NO_ID {
            ases.insert(m.as_id);
        }
        if m.country_id != NO_ID {
            countries.insert(m.country_id);
        }
    }
    let nq = o.querier_count().max(1) as f64;
    let mut static_fractions = [0.0; 14];
    for (frac, count) in static_fractions.iter_mut().zip(static_counts) {
        *frac = count as f64 / nq;
    }
    let dynamic = DynamicFeatures::from_counts(
        o,
        obs.window_start,
        obs.window_end,
        ases.len,
        countries.len,
        table.distinct_ases(),
        table.distinct_countries(),
    );
    OriginatorFeatures {
        originator: o.originator(),
        querier_count: o.querier_count(),
        query_count: o.query_count(),
        features: FeatureVector { static_fractions, dynamic },
    }
}

/// The per-pair reference, compiled for tests only: re-resolves
/// querier metadata for every (originator, querier) pair, exactly as
/// the seed did — the executable specification
/// [`extract_with_meta_cache`] is property-tested bit-identical to.
/// Telemetry-free, like the other references.
#[cfg(test)]
pub(crate) fn extract_from_observations_reference(
    obs: &Observations,
    info: &(impl QuerierInfo + Sync),
    config: &FeatureConfig,
) -> Vec<OriginatorFeatures> {
    use crate::static_features::classify_querier_name;
    let total_ases = obs.total_ases(info);
    let total_countries = obs.total_countries(info);
    let selected = select_analyzable(obs, config.min_queriers, config.top_n);
    bs_par::par_map(&selected, |_, &o| {
        let mut static_counts = [0usize; 14];
        for q in o.queriers() {
            let f = classify_querier_name(&info.querier_name(*q));
            static_counts[f.index()] += 1;
        }
        let nq = o.querier_count().max(1) as f64;
        let mut static_fractions = [0.0; 14];
        for (frac, count) in static_fractions.iter_mut().zip(static_counts) {
            *frac = count as f64 / nq;
        }
        let dynamic = DynamicFeatures::compute(
            o,
            info,
            obs.window_start,
            obs.window_end,
            total_ases,
            total_countries,
        );
        OriginatorFeatures {
            originator: o.originator(),
            querier_count: o.querier_count(),
            query_count: o.query_count(),
            features: FeatureVector { static_fractions, dynamic },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dns::Rcode;
    use bs_netsim::log::QueryLogRecord;
    use bs_netsim::types::{AsId, CountryCode, NameOutcome};

    struct ToyInfo;
    impl QuerierInfo for ToyInfo {
        fn querier_name(&self, addr: Ipv4Addr) -> NameOutcome {
            // Even last octet: mail server; odd: no reverse name.
            if addr.octets()[3].is_multiple_of(2) {
                NameOutcome::Name(bs_dns::DomainName::parse("mail.example.com").unwrap())
            } else {
                NameOutcome::NxDomain
            }
        }
        fn querier_as(&self, addr: Ipv4Addr) -> Option<AsId> {
            Some(AsId(addr.octets()[1] as u32))
        }
        fn querier_country(&self, _addr: Ipv4Addr) -> Option<CountryCode> {
            Some(CountryCode::new("us").unwrap())
        }
    }

    fn make_log(n_queriers: u8) -> QueryLog {
        let mut log = QueryLog::new();
        for i in 0..n_queriers {
            log.push(QueryLogRecord {
                time: SimTime(i as u64 * 60),
                querier: Ipv4Addr::new(10, i % 4, 0, i),
                originator: "203.0.113.9".parse().unwrap(),
                rcode: Rcode::NoError,
            });
        }
        log
    }

    #[test]
    fn fast_path_matches_reference_bit_for_bit() {
        let log = make_log(40);
        let obs = Observations::ingest(&log, SimTime(0), SimTime(7200));
        let config = FeatureConfig { min_queriers: 5, top_n: None };
        let fast = extract_with_meta_cache(&obs, &ToyInfo, &config, None);
        let reference = extract_from_observations_reference(&obs, &ToyInfo, &config);
        assert_eq!(fast, reference);
        let mut cache = crate::qmeta::QuerierMetaCache::default();
        let cold = extract_with_meta_cache(&obs, &ToyInfo, &config, Some(&mut cache));
        let warm = extract_with_meta_cache(&obs, &ToyInfo, &config, Some(&mut cache));
        assert_eq!(cold, reference);
        assert_eq!(warm, reference);
        assert!(cache.hits() > 0, "second window over the same queriers must hit the cache");
    }

    #[test]
    fn static_fractions_sum_to_one() {
        let log = make_log(30);
        let config = FeatureConfig { min_queriers: 20, top_n: None };
        let out = extract_features(&log, &ToyInfo, SimTime(0), SimTime(7200), &config);
        assert_eq!(out.len(), 1);
        let f = &out[0].features;
        let sum: f64 = f.static_fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Half mail, half nxdomain.
        assert!((f.static_fraction(StaticFeature::Mail) - 0.5).abs() < 1e-12);
        assert!((f.static_fraction(StaticFeature::NxDomain) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn threshold_filters_small_originators() {
        let log = make_log(10);
        let config = FeatureConfig { min_queriers: 20, top_n: None };
        let out = extract_features(&log, &ToyInfo, SimTime(0), SimTime(7200), &config);
        assert!(out.is_empty());
        let lenient = FeatureConfig { min_queriers: 5, top_n: None };
        let out = extract_features(&log, &ToyInfo, SimTime(0), SimTime(7200), &lenient);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].querier_count, 10);
    }

    #[test]
    fn vector_has_22_dimensions_and_matching_names() {
        let log = make_log(25);
        let config = FeatureConfig { min_queriers: 20, top_n: None };
        let out = extract_features(&log, &ToyInfo, SimTime(0), SimTime(7200), &config);
        let v = out[0].features.to_vec();
        assert_eq!(v.len(), 22);
        assert_eq!(FeatureVector::names().len(), 22);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}

//! Dynamic features: temporal and spatial structure of the queriers
//! (paper §III-C).
//!
//! * **queries per querier** — mean deduplicated queries per unique
//!   querier, a caching-blurred proxy for originator rate;
//! * **persistence** — fraction of the window's 10-minute periods in
//!   which the originator appears (the paper counts raw periods; we
//!   normalize by window length so feature values are comparable across
//!   the 36-hour, 50-hour and 7-day windows — documented deviation);
//! * **local entropy** — Shannon entropy of querier /24 prefixes,
//!   normalized to `[0, 1]`;
//! * **global entropy** — Shannon entropy of querier /8 prefixes over
//!   the 256-way /8 alphabet (geographically meaningful because /8s are
//!   assigned by region);
//! * **AS/country ratios** — unique querier ASes (countries) divided by
//!   all ASes (countries) seen in the whole window;
//! * **countries (ASes) per querier** — geographic spread normalized by
//!   footprint.

use crate::ingest::OriginatorObservation;
#[cfg(test)]
use crate::QuerierInfo;
use bs_dns::SimTime;
#[cfg(test)]
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Length of a persistence period in seconds (paper: 10 minutes).
pub const PERSISTENCE_PERIOD: u64 = 600;

/// The eight dynamic features of one originator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DynamicFeatures {
    /// Mean deduplicated queries per unique querier (≥ 1).
    pub queries_per_querier: f64,
    /// Fraction of 10-minute periods containing the originator.
    pub persistence: f64,
    /// Normalized entropy of querier /24 prefixes.
    pub local_entropy: f64,
    /// Normalized entropy of querier /8 prefixes.
    pub global_entropy: f64,
    /// Unique querier ASes / total window ASes.
    pub as_ratio: f64,
    /// Unique querier countries / total window countries.
    pub country_ratio: f64,
    /// Unique countries per unique querier.
    pub countries_per_querier: f64,
    /// Unique ASes per unique querier.
    pub ases_per_querier: f64,
}

impl DynamicFeatures {
    /// Feature names in vector order.
    pub fn names() -> [&'static str; 8] {
        [
            "queries-per-querier",
            "persistence",
            "local-entropy",
            "global-entropy",
            "as-ratio",
            "country-ratio",
            "countries-per-querier",
            "ases-per-querier",
        ]
    }

    /// As a fixed-order array.
    pub fn to_array(self) -> [f64; 8] {
        [
            self.queries_per_querier,
            self.persistence,
            self.local_entropy,
            self.global_entropy,
            self.as_ratio,
            self.country_ratio,
            self.countries_per_querier,
            self.ases_per_querier,
        ]
    }

    /// As a fixed-order vector.
    pub fn to_vec(self) -> Vec<f64> {
        self.to_array().to_vec()
    }

    /// Compute the features for one originator by consulting `info`
    /// per querier — the per-pair reference's body, compiled for tests
    /// only.
    ///
    /// `total_ases` / `total_countries` are window-global totals.
    /// Extraction obtains the same AS/country cardinalities from the
    /// interned [`crate::qmeta::QuerierMetaTable`] and funnels them
    /// through [`DynamicFeatures::from_counts`], the shared arithmetic
    /// both paths use — which is what makes them bit-identical.
    #[cfg(test)]
    pub(crate) fn compute(
        obs: &OriginatorObservation,
        info: &(impl QuerierInfo + Sync),
        window_start: SimTime,
        window_end: SimTime,
        total_ases: usize,
        total_countries: usize,
    ) -> Self {
        if obs.querier_count() == 0 {
            return DynamicFeatures::default();
        }
        // The per-querier AS/country lookups are the expensive part for
        // large footprints (they consult external metadata). Chunked
        // parallel lookup is deterministic because the chunk results
        // merge into sets — order cannot matter.
        let ases = unique_by(&obs.queriers, |q| info.querier_as(q));
        let countries = unique_by(&obs.queriers, |q| info.querier_country(q));
        Self::from_counts(
            obs,
            window_start,
            window_end,
            ases.len(),
            countries.len(),
            total_ases,
            total_countries,
        )
    }

    /// Compute the features for one originator given already-counted
    /// distinct-AS/country cardinalities for its footprint.
    ///
    /// This is the arithmetic core shared by the qmeta-table extraction
    /// (which counts via dense-id bitmaps) and the test-only per-pair
    /// reference (which counts via per-querier `info` lookups); all
    /// float operations live here exactly once, so the two cannot
    /// drift.
    ///
    /// Two preconditions, which every observation the sensor builds
    /// meets: `obs.queriers` is ascending and unique (the entropies
    /// count its prefix runs in place; debug builds assert it), and
    /// `obs.queries` holds offsets in seconds from this `window_start`
    /// (persistence divides them into periods as they are). An
    /// observation built otherwise gives wrong features, not an error.
    pub fn from_counts(
        obs: &OriginatorObservation,
        window_start: SimTime,
        window_end: SimTime,
        footprint_ases: usize,
        footprint_countries: usize,
        total_ases: usize,
        total_countries: usize,
    ) -> Self {
        let nq = obs.querier_count();
        if nq == 0 {
            return DynamicFeatures::default();
        }

        // Temporal: a query's period is its offset from the window
        // start over the period length.
        let queries_per_querier = obs.query_count() as f64 / nq as f64;
        let total_periods = ((window_end.secs().saturating_sub(window_start.secs()))
            .div_ceil(PERSISTENCE_PERIOD))
        .max(1);
        let persistence = active_periods(&obs.queries) as f64 / total_periods as f64;

        // Spatial.
        let (local_entropy, global_entropy) = prefix_entropies(&obs.queriers);

        let ratio = |num: usize, den: usize| if den == 0 { 0.0 } else { num as f64 / den as f64 };

        DynamicFeatures {
            queries_per_querier,
            persistence,
            local_entropy,
            global_entropy,
            as_ratio: ratio(footprint_ases, total_ases),
            country_ratio: ratio(footprint_countries, total_countries),
            countries_per_querier: footprint_countries as f64 / nq as f64,
            ases_per_querier: footprint_ases as f64 / nq as f64,
        }
    }
}

/// Queriers per parallel metadata-lookup task of the per-pair
/// reference; below one chunk the lookup runs sequentially.
#[cfg(test)]
const LOOKUP_CHUNK: usize = 4096;

/// The distinct non-`None` values of `f` over `queriers`, computed in
/// [`LOOKUP_CHUNK`]-sized parallel tasks and merged as a set union.
#[cfg(test)]
pub(crate) fn unique_by<V: Ord + Send>(
    queriers: &[std::net::Ipv4Addr],
    f: impl Fn(std::net::Ipv4Addr) -> Option<V> + Sync,
) -> BTreeSet<V> {
    let chunks = bs_par::par_chunks(queriers, LOOKUP_CHUNK, |_, c| {
        c.iter().filter_map(|q| f(*q)).collect::<BTreeSet<V>>()
    });
    let mut all = BTreeSet::new();
    for s in chunks {
        all.extend(s);
    }
    all
}

/// The number of distinct persistence periods among `queries`' offsets,
/// in any order.
fn active_periods(queries: &[(u32, Ipv4Addr)]) -> usize {
    let mut periods: Vec<u64> =
        queries.iter().map(|&(offset, _)| u64::from(offset) / PERSISTENCE_PERIOD).collect();
    periods.sort_unstable();
    periods.dedup();
    periods.len()
}

/// The local (/24, alphabet = footprint size) and global (/8, alphabet
/// 256) entropies of an ascending, unique querier column, normalized by
/// `ln(alphabet)` so both land in `[0, 1]`.
///
/// One pass and no allocation: an ascending column has ascending
/// prefixes, so each prefix's runs are counted as they pass and the run
/// lengths emerge in **ascending prefix order** — exactly the iteration
/// order of the test-only `BTreeMap`-histogram reference — so the
/// `-p·ln p` accumulation visits identical terms in the identical order
/// and both sums are bit-identical to it.
pub(crate) fn prefix_entropies(queriers: &[Ipv4Addr]) -> (f64, f64) {
    debug_assert!(
        queriers.windows(2).all(|w| w[0] < w[1]),
        "the querier column must be ascending and unique"
    );
    if queriers.len() <= 1 {
        return (0.0, 0.0);
    }
    let n = queriers.len() as f64;
    let term = |run: usize| {
        let p = run as f64 / n;
        -p * p.ln()
    };
    // -0.0 is `Sum`'s float identity: a pure-run histogram contributes
    // only -1·ln 1 = -0.0 terms, and the reference's `.sum()` keeps
    // that sign where a +0.0 seed would flush it.
    let (mut h24, mut h8) = (-0.0f64, -0.0f64);
    let (mut run24, mut run8) = (1usize, 1usize);
    for pair in queriers.windows(2) {
        let (a, b) = (u32::from(pair[0]), u32::from(pair[1]));
        if a >> 8 == b >> 8 {
            run24 += 1;
        } else {
            h24 += term(run24);
            run24 = 1;
        }
        if a >> 24 == b >> 24 {
            run8 += 1;
        } else {
            h8 += term(run8);
            run8 = 1;
        }
    }
    h24 += term(run24);
    h8 += term(run8);
    let normalize = |h: f64, alphabet: f64| (h / alphabet.ln()).clamp(0.0, 1.0);
    (normalize(h24, n), normalize(h8, 256.0))
}

/// Shannon entropy of the value histogram, normalized by `ln(alphabet)`,
/// through a `BTreeMap` histogram — compiled for tests only, the
/// executable specification [`prefix_entropies`] is property-tested
/// bit-identical to (`entropy_equivalence.rs`).
#[cfg(test)]
pub(crate) fn normalized_entropy_reference(values: &[u32], alphabet: f64) -> f64 {
    if values.len() <= 1 || alphabet <= 1.0 {
        return 0.0;
    }
    use std::collections::BTreeMap;
    let mut hist: BTreeMap<u32, usize> = BTreeMap::new();
    for v in values {
        *hist.entry(*v).or_default() += 1;
    }
    let n = values.len() as f64;
    let h: f64 = hist
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum();
    (h / alphabet.ln()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_netsim::types::{AsId, CountryCode, NameOutcome};
    use std::net::Ipv4Addr;

    /// Toy metadata: AS = second octet, country = first octet parity.
    struct ToyInfo;
    impl QuerierInfo for ToyInfo {
        fn querier_name(&self, _addr: Ipv4Addr) -> NameOutcome {
            NameOutcome::NxDomain
        }
        fn querier_as(&self, addr: Ipv4Addr) -> Option<AsId> {
            Some(AsId(addr.octets()[1] as u32))
        }
        fn querier_country(&self, addr: Ipv4Addr) -> Option<CountryCode> {
            Some(if addr.octets()[0].is_multiple_of(2) {
                CountryCode::new("us").unwrap()
            } else {
                CountryCode::new("jp").unwrap()
            })
        }
    }

    /// An observation of `(offset, querier)` queries.
    fn obs(queries: &[(u32, &str)]) -> OriginatorObservation {
        let mut o = OriginatorObservation {
            originator: "203.0.113.9".parse().unwrap(),
            ..Default::default()
        };
        for (t, q) in queries {
            let qa: Ipv4Addr = q.parse().unwrap();
            o.queries.push((*t, qa));
            o.insert_querier(qa);
        }
        o
    }

    #[test]
    fn queries_per_querier_counts_repeats() {
        let o = obs(&[(0, "10.0.0.1"), (100, "10.0.0.1"), (200, "10.0.0.1"), (0, "10.0.0.2")]);
        let f = DynamicFeatures::compute(&o, &ToyInfo, SimTime(0), SimTime(3600), 10, 5);
        assert!((f.queries_per_querier - 2.0).abs() < 1e-12);
    }

    #[test]
    fn persistence_counts_ten_minute_periods() {
        // Window of 1 hour = 6 periods; queries in periods 0, 0, 3.
        let o = obs(&[(10, "10.0.0.1"), (50, "10.0.0.2"), (1900, "10.0.0.3")]);
        let f = DynamicFeatures::compute(&o, &ToyInfo, SimTime(0), SimTime(3600), 10, 5);
        assert!((f.persistence - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn local_entropy_zero_when_one_block_full_when_spread() {
        // All queriers in one /24.
        let same = obs(&[(0, "10.0.0.1"), (40, "10.0.0.2"), (80, "10.0.0.3")]);
        let f = DynamicFeatures::compute(&same, &ToyInfo, SimTime(0), SimTime(3600), 10, 5);
        assert_eq!(f.local_entropy, 0.0);
        // Each querier in its own /24: entropy ln(3)/ln(3) = 1.
        let spread = obs(&[(0, "10.0.0.1"), (40, "10.1.0.1"), (80, "10.2.0.1")]);
        let f = DynamicFeatures::compute(&spread, &ToyInfo, SimTime(0), SimTime(3600), 10, 5);
        assert!((f.local_entropy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn global_entropy_uses_slash8_alphabet() {
        // Two /8s, evenly: H = ln 2; normalized by ln 256.
        let o = obs(&[(0, "10.0.0.1"), (40, "11.0.0.1")]);
        let f = DynamicFeatures::compute(&o, &ToyInfo, SimTime(0), SimTime(3600), 10, 5);
        let expect = (2.0f64).ln() / (256.0f64).ln();
        assert!((f.global_entropy - expect).abs() < 1e-12);
    }

    #[test]
    fn geographic_ratios() {
        // Queriers: /8s 10 (even → us) and 11 (odd → jp); ASes 0 and 1.
        let o = obs(&[(0, "10.0.0.1"), (40, "10.1.0.1"), (80, "11.0.0.1")]);
        let f = DynamicFeatures::compute(&o, &ToyInfo, SimTime(0), SimTime(3600), 4, 2);
        assert!((f.as_ratio - 2.0 / 4.0).abs() < 1e-12);
        assert!((f.country_ratio - 1.0).abs() < 1e-12);
        assert!((f.countries_per_querier - 2.0 / 3.0).abs() < 1e-12);
        assert!((f.ases_per_querier - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn persistence_counts_distinct_periods_in_any_order() {
        // Offsets count from the window start, whatever it is: offsets
        // 50 and 700 of a window at 100 s are periods 0 and 1 of 6.
        let o = obs(&[(50, "10.0.0.1"), (700, "10.0.0.2")]);
        let f = DynamicFeatures::compute(&o, &ToyInfo, SimTime(100), SimTime(3700), 10, 5);
        assert!((f.persistence - 2.0 / 6.0).abs() < 1e-12);
        // A query behind its predecessor (a log out of time order) is
        // counted once per period all the same: periods 3, 0 and 1.
        let o = obs(&[(1900, "10.0.0.1"), (10, "10.0.0.2"), (50, "10.0.0.3"), (1910, "10.0.0.1")]);
        let f = DynamicFeatures::compute(&o, &ToyInfo, SimTime(0), SimTime(3600), 10, 5);
        assert!((f.persistence - 2.0 / 6.0).abs() < 1e-12);
        let o = obs(&[(1900, "10.0.0.1"), (10, "10.0.0.2"), (700, "10.0.0.3")]);
        let f = DynamicFeatures::compute(&o, &ToyInfo, SimTime(0), SimTime(3600), 10, 5);
        assert!((f.persistence - 3.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_observation_is_all_zero() {
        let o = OriginatorObservation {
            originator: "203.0.113.9".parse().unwrap(),
            ..Default::default()
        };
        let f = DynamicFeatures::compute(&o, &ToyInfo, SimTime(0), SimTime(3600), 4, 2);
        assert_eq!(f, DynamicFeatures::default());
    }

    #[test]
    fn entropy_fast_path_is_bit_identical_to_reference() {
        // Each case lists prefix values; the k-th occurrence of `v`
        // becomes host k of prefix `v`, at /24 and at /8 width, so the
        // column's prefix histogram is the case's value histogram.
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![5],
            vec![1, 1, 1],
            vec![3, 1, 2, 1, 3, 3, 7],
            (0..100).map(|i| i * i % 17).collect(),
            (0..600).map(|i| i % 3).collect(),
        ];
        for values in &cases {
            for shift in [8, 24] {
                let mut column: Vec<u32> = values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        v << shift | values[..i].iter().filter(|&&w| w == v).count() as u32
                    })
                    .collect();
                column.sort_unstable();
                let queriers: Vec<Ipv4Addr> = column.iter().map(|&a| Ipv4Addr::from(a)).collect();
                let slash24s: Vec<u32> = column.iter().map(|a| a >> 8).collect();
                let slash8s: Vec<u32> = column.iter().map(|a| a >> 24).collect();
                let (local, global) = prefix_entropies(&queriers);
                let n = queriers.len() as f64;
                assert_eq!(
                    local.to_bits(),
                    normalized_entropy_reference(&slash24s, n).to_bits(),
                    "/24 of {values:?} at shift {shift}"
                );
                assert_eq!(
                    global.to_bits(),
                    normalized_entropy_reference(&slash8s, 256.0).to_bits(),
                    "/8 of {values:?} at shift {shift}"
                );
            }
        }
    }

    #[test]
    fn vector_order_matches_names() {
        let f = DynamicFeatures {
            queries_per_querier: 1.0,
            persistence: 2.0,
            local_entropy: 3.0,
            global_entropy: 4.0,
            as_ratio: 5.0,
            country_ratio: 6.0,
            countries_per_querier: 7.0,
            ases_per_querier: 8.0,
        };
        assert_eq!(f.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(DynamicFeatures::names().len(), 8);
    }
}

//! The querier metadata plane: resolve each *unique* querier at most
//! once per window, then let extraction work over small interned ids.
//!
//! The paper's central observation is that backscatter queriers are
//! shared infrastructure — recursive resolvers, crawlers — that recur
//! across many originators and across weekly windows. The reference
//! extraction path ignores that: it re-resolves the reverse name,
//! keyword category, AS and country per **(originator, querier)**
//! pair, making feature extraction O(Σ footprints) when the real
//! resolution work is O(unique queriers).
//!
//! This module fixes the asymmetry in two layers:
//!
//! * [`QuerierMetaTable`] — one per-window table keyed by the
//!   packed-u32 address, filled in two passes. The *place* pass visits
//!   every unique querier of `Observations::all_queriers` once and
//!   resolves its AS and country, *interned* into dense id spaces
//!   `0..n` in ascending-querier order (deterministic regardless of
//!   thread count), so window totals fall out of the interner sizes and
//!   the per-originator distinct-AS/country unions become bitmap counts
//!   over the id space instead of `BTreeSet<AsId>` insertions per
//!   querier per originator. The *name* pass resolves the reverse name
//!   and keyword category (chunked across the `bs-par` pool) only for
//!   queriers a feature reads: those of the selected (analyzable)
//!   footprints. Static fractions are read over selected footprints
//!   only, so naming the rest — most of a scan storm's queriers —
//!   would feed nothing; in deployment each name is a PTR lookup.
//! * [`QuerierMetaCache`] — an optional cross-window memo of
//!   *resolved* (not interned — ids are per-window) metadata with
//!   generation-based invalidation, so the live streaming path reuses
//!   resolutions for queriers that persist between windows while
//!   still re-resolving entries older than `keep_windows` generations
//!   (blacklist-style metadata churns slowly but does churn). Each
//!   window boundary drops the entries past that horizon, so the cache
//!   is bounded by the queriers of the last `keep_windows + 1` windows
//!   — what it can still serve — not by stream history. An entry
//!   may be placed but not yet named; a later window names it the first
//!   time a selected footprint holds it. Hit / miss / expiry counts
//!   flush to `sensor.qmeta.*` telemetry, with the names resolved, so
//!   live scrapes and the watchdog see cache health.
//!
//! Dense ids are `u32`, not `u16`: the id space is bounded by the
//! number of distinct values actually observed, which at a busy
//! authority can exceed 65 535 ASes per window. [`NO_ID`] marks a
//! querier with no AS (or country) mapping.

use crate::hash::IntHash;
use crate::ingest::Observations;
use crate::static_features::{classify_querier_name, StaticFeature};
use crate::QuerierInfo;
use bs_netsim::types::{AsId, CountryCode};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Sentinel dense id for "no AS / no country known for this querier".
pub const NO_ID: u32 = u32::MAX;

/// Sentinel category for a querier the table did not name: no selected
/// footprint holds it, so no feature reads its reverse name. Only
/// [`QuerierMetaTable::build_naming`] leaves one; `build` names all.
pub(crate) const UNNAMED: u8 = u8::MAX;

/// A category slot claimed by the name pass's to-do list.
const QUEUED: u8 = UNNAMED - 1;

/// Queriers per parallel naming task. Naming consults external
/// metadata (a reverse-name lookup, then the keyword matcher), so tasks
/// are coarse enough to amortize pool dispatch but fine enough to
/// spread a window's named queriers across cores.
const RESOLVE_CHUNK: usize = 1024;

/// One querier's metadata after per-window interning: the static
/// keyword category (dense index into [`crate::StaticFeature::ALL`])
/// and dense AS/country ids ([`NO_ID`] when unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerierMeta {
    /// `StaticFeature::index()` of the classified reverse name.
    pub category: u8,
    /// Dense per-window AS id, or [`NO_ID`].
    pub as_id: u32,
    /// Dense per-window country id, or [`NO_ID`].
    pub country_id: u32,
}

/// One querier's *resolved* metadata before interning — what the
/// cross-window [`QuerierMetaCache`] stores (dense ids cannot be
/// cached: the id spaces restart every window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawQuerierMeta {
    /// The classified reverse name; `None` until a window whose selected
    /// footprints hold the querier names it.
    pub category: Option<StaticFeature>,
    /// The querier's AS, if known.
    pub asn: Option<AsId>,
    /// The querier's country, if known.
    pub country: Option<CountryCode>,
}

/// Name queriers in [`RESOLVE_CHUNK`]-sized tasks on the `bs-par` pool:
/// reverse name → keyword category. This is the expensive call the
/// metadata plane makes at most once per named querier per window (and,
/// with a warm cache, once per `keep_windows` generations). Output
/// order matches input order (`par_chunks` is order-preserving).
fn name_chunked(todo: &[(Ipv4Addr, u32)], info: &(impl QuerierInfo + Sync)) -> Vec<StaticFeature> {
    bs_par::par_chunks(todo, RESOLVE_CHUNK, |_, chunk| {
        // One stage per chunk, not per originator (let alone per
        // querier): the static keyword matcher runs exactly here, once
        // per named querier.
        let _stage = bs_telemetry::stage("sensor.static.lanes");
        chunk.iter().map(|(a, _)| classify_querier_name(&info.querier_name(*a))).collect::<Vec<_>>()
    })
    .concat()
}

/// The per-window metadata table: every unique querier of the window,
/// placed (AS, country) once and interned into dense id spaces, and
/// named where a feature reads the name.
#[derive(Debug, Clone)]
pub struct QuerierMetaTable {
    /// Packed querier address → index into `meta`.
    index: HashMap<u32, u32, IntHash>,
    /// Interned metadata, in ascending querier-address order.
    meta: Vec<QuerierMeta>,
    /// Size of the interned AS id space (== the window's total
    /// distinct ASes, as the per-pair reference counts them).
    n_ases: usize,
    /// Size of the interned country id space.
    n_countries: usize,
}

impl QuerierMetaTable {
    /// Build the table for one window, naming every querier. With
    /// `cache`, previously resolved queriers skip the metadata provider
    /// entirely; only misses (including queriers last seen more than
    /// the cache's `keep_windows` generations ago) hit `info`.
    ///
    /// Interning runs sequentially over the ascending
    /// `all_queriers` order, so dense ids — and everything computed
    /// from them — are independent of thread count and cache state.
    pub fn build(
        obs: &Observations,
        info: &(impl QuerierInfo + Sync),
        cache: Option<&mut QuerierMetaCache>,
    ) -> Self {
        Self::build_naming(obs, &obs.all_queriers, info, cache)
    }

    /// [`QuerierMetaTable::build`], naming only the queriers `named`
    /// yields (repeats allowed); every other querier is placed but
    /// keeps [`UNNAMED`] unless the cache already holds its name.
    pub(crate) fn build_naming<'a>(
        obs: &Observations,
        named: impl IntoIterator<Item = &'a Ipv4Addr>,
        info: &(impl QuerierInfo + Sync),
        mut cache: Option<&mut QuerierMetaCache>,
    ) -> Self {
        if let Some(cache) = cache.as_deref_mut() {
            cache.begin_window();
        }
        // Place pass: probe the cache for every querier, resolve AS and
        // country on a miss, intern in ascending-querier order. The
        // index is built after the loop, so a cache resize inside it
        // never coexists with the index.
        let n = obs.all_queriers.len();
        let mut as_ids: HashMap<u32, u32, IntHash> = HashMap::default();
        let mut country_ids: HashMap<u32, u32, IntHash> = HashMap::default();
        let mut meta = Vec::with_capacity(n);
        let (mut resolved, mut unnamed) = (0u64, 0usize);
        for a in &obs.all_queriers {
            let key = u32::from(*a);
            let r = match cache.as_deref_mut().and_then(|c| c.get(key)) {
                Some(r) => r,
                None => {
                    resolved += 1;
                    let r = RawQuerierMeta {
                        category: None,
                        asn: info.querier_as(*a),
                        country: info.querier_country(*a),
                    };
                    if let Some(cache) = cache.as_deref_mut() {
                        cache.insert(key, r);
                    }
                    r
                }
            };
            let as_id = match r.asn {
                Some(AsId(n)) => {
                    let next = as_ids.len() as u32;
                    *as_ids.entry(n).or_insert(next)
                }
                None => NO_ID,
            };
            let country_id = match r.country {
                Some(CountryCode(b)) => {
                    let next = country_ids.len() as u32;
                    *country_ids.entry(u16::from_be_bytes(b) as u32).or_insert(next)
                }
                None => NO_ID,
            };
            unnamed += usize::from(r.category.is_none());
            let category = r.category.map_or(UNNAMED, |f| f.index() as u8);
            meta.push(QuerierMeta { category, as_id, country_id });
        }
        let index: HashMap<u32, u32, IntHash> =
            obs.all_queriers.iter().zip(0..).map(|(a, i)| (u32::from(*a), i)).collect();
        if bs_telemetry::ledger::is_active() {
            // Conservation over the place pass: every unique querier
            // either reused a cached resolution or cost one metadata
            // lookup.
            bs_telemetry::ledger::record(
                "sensor.extract.lookup",
                n as u64,
                &[("resolved", resolved), ("cache_reused", n as u64 - resolved)],
            );
        }

        // Name pass: queue each `named` querier still unnamed, name the
        // queue in parallel chunks, and write each name into the table
        // and the cache entry.
        let mut todo: Vec<(Ipv4Addr, u32)> = Vec::new();
        for a in named {
            if todo.len() == unnamed {
                break;
            }
            let i = index[&u32::from(*a)];
            let slot = &mut meta[i as usize].category;
            if *slot == UNNAMED {
                *slot = QUEUED;
                todo.push((*a, i));
            }
        }
        for (&(a, i), category) in todo.iter().zip(name_chunked(&todo, info)) {
            meta[i as usize].category = category.index() as u8;
            if let Some(cache) = cache.as_deref_mut() {
                cache.name(u32::from(a), category);
            }
        }
        bs_telemetry::counter_add("sensor.qmeta.names_resolved", todo.len() as u64);
        if let Some(cache) = cache {
            cache.publish_telemetry();
        }
        QuerierMetaTable { index, meta, n_ases: as_ids.len(), n_countries: country_ids.len() }
    }

    /// The interned metadata for `addr`, if it was a querier of this
    /// window.
    #[inline]
    pub fn get(&self, addr: Ipv4Addr) -> Option<QuerierMeta> {
        self.index.get(&u32::from(addr)).map(|&i| self.meta[i as usize])
    }

    /// Unique queriers in the table.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Distinct ASes across the window — what the per-pair reference
    /// counts one lookup at a time, by construction (the interner
    /// admits exactly the distinct `Some(AsId)` values).
    pub fn distinct_ases(&self) -> usize {
        self.n_ases
    }

    /// Distinct countries across the window, likewise.
    pub fn distinct_countries(&self) -> usize {
        self.n_countries
    }
}

/// Cross-window memo of resolved querier metadata with
/// generation-based invalidation.
///
/// Each [`QuerierMetaTable::build`] with a cache opens a new
/// *generation*. A cached entry is served while it is at most
/// `keep_windows` generations old (metadata churns — slowly — so
/// resolutions must not live forever). Every window boundary drops the
/// entries past that horizon, so the cache holds at most the queriers
/// of the last `keep_windows + 1` windows, however long the stream.
#[derive(Debug)]
pub struct QuerierMetaCache {
    entries: HashMap<u32, CacheEntry, IntHash>,
    generation: u32,
    keep_windows: u32,
    hits: u64,
    misses: u64,
    expired: u64,
    /// Counter values already pushed to telemetry (hits, misses,
    /// expired), so each publish adds only the delta.
    published: [u64; 3],
}

/// [`RawQuerierMeta`] packed beside its generation: with the key, a
/// 16-byte bucket.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    asn: u32,
    country: [u8; 2],
    /// `StaticFeature::index()`, or [`UNNAMED`].
    category: u8,
    /// [`HAS_ASN`] | [`HAS_COUNTRY`]: which of `asn`, `country` is known.
    present: u8,
    last_used: u32,
}

const HAS_ASN: u8 = 1;
const HAS_COUNTRY: u8 = 2;

impl CacheEntry {
    fn pack(meta: RawQuerierMeta, last_used: u32) -> Self {
        CacheEntry {
            asn: meta.asn.map_or(0, |AsId(n)| n),
            country: meta.country.map_or([0; 2], |CountryCode(b)| b),
            category: meta.category.map_or(UNNAMED, |f| f.index() as u8),
            present: if meta.asn.is_some() { HAS_ASN } else { 0 }
                | if meta.country.is_some() { HAS_COUNTRY } else { 0 },
            last_used,
        }
    }

    fn unpack(&self) -> RawQuerierMeta {
        RawQuerierMeta {
            category: StaticFeature::ALL.get(self.category as usize).copied(),
            asn: (self.present & HAS_ASN != 0).then_some(AsId(self.asn)),
            country: (self.present & HAS_COUNTRY != 0).then_some(CountryCode(self.country)),
        }
    }
}

impl Default for QuerierMetaCache {
    /// Defaults sized for the live stream: resolutions kept for 8
    /// windows since last use.
    fn default() -> Self {
        QuerierMetaCache::new(8)
    }
}

impl QuerierMetaCache {
    /// A cache whose resolutions stay valid for `keep_windows`
    /// generations since last use.
    pub fn new(keep_windows: u32) -> Self {
        QuerierMetaCache {
            entries: HashMap::default(),
            generation: 0,
            keep_windows,
            hits: 0,
            misses: 0,
            expired: 0,
            published: [0; 3],
        }
    }

    /// Open a new generation, dropping every entry now past the keep
    /// horizon.
    pub fn begin_window(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        let (gen, keep) = (self.generation, self.keep_windows);
        let before = self.entries.len();
        self.entries.retain(|_, e| gen.wrapping_sub(e.last_used) <= keep);
        self.expired += (before - self.entries.len()) as u64;
    }

    /// Look up a cached resolution for the packed querier address. A
    /// hit resets the entry's age; a miss must be resolved and recorded
    /// via [`QuerierMetaCache::insert`].
    pub fn get(&mut self, addr: u32) -> Option<RawQuerierMeta> {
        match self.entries.get_mut(&addr) {
            Some(e) => {
                e.last_used = self.generation;
                self.hits += 1;
                Some(e.unpack())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Record a fresh resolution for the packed querier address.
    pub fn insert(&mut self, addr: u32, meta: RawQuerierMeta) {
        self.entries.insert(addr, CacheEntry::pack(meta, self.generation));
    }

    /// Record the name pass's category for a querier probed this window.
    fn name(&mut self, addr: u32, category: StaticFeature) {
        if let Some(e) = self.entries.get_mut(&addr) {
            e.category = category.index() as u8;
        }
    }

    /// Cached resolutions currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime entries dropped at the keep horizon.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Flush counter deltas since the last publish into the telemetry
    /// registry (plus the current size as a gauge), so live scrapes
    /// and the watchdog see cache health per window.
    pub fn publish_telemetry(&mut self) {
        let now = [self.hits, self.misses, self.expired];
        let names =
            ["sensor.qmeta.cache_hits", "sensor.qmeta.cache_misses", "sensor.qmeta.cache_expired"];
        for ((name, total), published) in names.iter().zip(now).zip(self.published) {
            bs_telemetry::counter_add(name, total - published);
        }
        self.published = now;
        bs_telemetry::gauge_set("sensor.qmeta.cache_entries", self.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Observations;
    use bs_dns::{Rcode, SimTime};
    use bs_netsim::log::{QueryLog, QueryLogRecord};
    use bs_netsim::types::NameOutcome;

    /// Toy metadata: category from last-octet parity, AS from the
    /// second octet (octet 9 → unknown), country from first-octet
    /// parity (octet 13 → unknown).
    struct ToyInfo;
    impl QuerierInfo for ToyInfo {
        fn querier_name(&self, addr: Ipv4Addr) -> NameOutcome {
            if addr.octets()[3].is_multiple_of(2) {
                NameOutcome::Name(bs_dns::DomainName::parse("mail.example.com").unwrap())
            } else {
                NameOutcome::NxDomain
            }
        }
        fn querier_as(&self, addr: Ipv4Addr) -> Option<AsId> {
            let o = addr.octets()[1];
            (o != 9).then_some(AsId(o as u32))
        }
        fn querier_country(&self, addr: Ipv4Addr) -> Option<CountryCode> {
            match addr.octets()[0] {
                13 => None,
                n if n.is_multiple_of(2) => Some(CountryCode::new("us").unwrap()),
                _ => Some(CountryCode::new("jp").unwrap()),
            }
        }
    }

    fn observations(queriers: &[[u8; 4]]) -> Observations {
        let mut log = QueryLog::new();
        for (i, q) in queriers.iter().enumerate() {
            log.push(QueryLogRecord {
                time: SimTime(i as u64 * 60),
                querier: Ipv4Addr::new(q[0], q[1], q[2], q[3]),
                originator: "203.0.113.9".parse().unwrap(),
                rcode: Rcode::NoError,
            });
        }
        Observations::ingest(&log, SimTime(0), SimTime(1_000_000))
    }

    #[test]
    fn table_interns_matching_window_totals() {
        let obs = observations(&[
            [10, 1, 0, 1],
            [10, 1, 0, 2],
            [10, 2, 0, 3],
            [11, 2, 0, 4],
            [13, 9, 0, 5], // no AS, no country
        ]);
        let table = QuerierMetaTable::build(&obs, &ToyInfo, None);
        assert_eq!(table.len(), 5);
        assert_eq!(table.distinct_ases(), obs.total_ases(&ToyInfo));
        assert_eq!(table.distinct_countries(), obs.total_countries(&ToyInfo));
        let unknown = table.get(Ipv4Addr::new(13, 9, 0, 5)).unwrap();
        assert_eq!(unknown.as_id, NO_ID);
        assert_eq!(unknown.country_id, NO_ID);
        assert!(table.get(Ipv4Addr::new(99, 99, 99, 99)).is_none());
    }

    #[test]
    fn table_categories_match_direct_classification() {
        let obs = observations(&[[10, 1, 0, 1], [10, 1, 0, 2]]);
        let table = QuerierMetaTable::build(&obs, &ToyInfo, None);
        for q in &obs.all_queriers {
            let direct = classify_querier_name(&ToyInfo.querier_name(*q)).index() as u8;
            assert_eq!(table.get(*q).unwrap().category, direct);
        }
    }

    #[test]
    fn dense_ids_are_deterministic_in_querier_order() {
        let obs = observations(&[[10, 1, 0, 1], [10, 2, 0, 2], [11, 3, 0, 3]]);
        let a = QuerierMetaTable::build(&obs, &ToyInfo, None);
        let b = QuerierMetaTable::build(&obs, &ToyInfo, None);
        for q in &obs.all_queriers {
            assert_eq!(a.get(*q), b.get(*q));
        }
        // First querier in ascending order interns id 0.
        let first = obs.all_queriers[0];
        assert_eq!(a.get(first).unwrap().as_id, 0);
    }

    #[test]
    fn cache_serves_hits_within_keep_horizon() {
        let obs = observations(&[[10, 1, 0, 1], [10, 2, 0, 2]]);
        let mut cache = QuerierMetaCache::new(2);
        let cold = QuerierMetaTable::build(&obs, &ToyInfo, Some(&mut cache));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        let warm = QuerierMetaTable::build(&obs, &ToyInfo, Some(&mut cache));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
        for q in &obs.all_queriers {
            assert_eq!(cold.get(*q), warm.get(*q), "cache must not change interning");
        }
    }

    #[test]
    fn cache_expires_entries_past_keep_windows() {
        let obs = observations(&[[10, 1, 0, 1]]);
        let mut cache = QuerierMetaCache::new(0);
        QuerierMetaTable::build(&obs, &ToyInfo, Some(&mut cache));
        // keep_windows = 0: the next generation already re-resolves.
        QuerierMetaTable::build(&obs, &ToyInfo, Some(&mut cache));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.expired(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cache_sweep_evicts_only_stale_entries() {
        let mut cache = QuerierMetaCache::new(1);
        let meta = RawQuerierMeta { category: Some(StaticFeature::Home), asn: None, country: None };
        cache.begin_window();
        cache.insert(1, meta);
        cache.insert(2, meta);
        cache.insert(3, meta);
        // One generation old: all three are still within the horizon.
        cache.begin_window();
        assert_eq!(cache.len(), 3);
        assert!(cache.get(3).is_some());
        // Entries 1 and 2 age past the horizon; 3 was used last window.
        cache.begin_window();
        assert_eq!(cache.expired(), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(3), Some(meta));
        assert_eq!(cache.get(1), None);
    }

    #[test]
    fn a_storm_of_fresh_queriers_holds_only_the_last_keep_windows() {
        const KEEP: u32 = 4;
        const PER_WINDOW: usize = 5;
        let mut cache = QuerierMetaCache::new(KEEP);
        for w in 0..3 * KEEP as usize {
            let fresh: Vec<[u8; 4]> = (0..PER_WINDOW).map(|i| [10, w as u8, 0, i as u8]).collect();
            QuerierMetaTable::build(&observations(&fresh), &ToyInfo, Some(&mut cache));
            let live_windows = (w + 1).min(KEEP as usize + 1);
            assert!(cache.len() <= live_windows * PER_WINDOW, "window {w}: {}", cache.len());
            assert_eq!(cache.len() + cache.expired() as usize, (w + 1) * PER_WINDOW);
        }
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn recurring_queriers_hit_exactly_within_the_horizon() {
        // 12 windows: one querier in every window, another in windows
        // 0, 1, 3, 6 and 10 (gaps of 1, 2, 3 and 4 generations). A
        // probe hits when the gap since the last probe is at most keep.
        let gapped = [0, 1, 3, 6, 10];
        for (keep, hits, misses) in [(0, 0, 12 + 5), (1, 11 + 1, 1 + 4), (8, 11 + 4, 1 + 1)] {
            let mut cache = QuerierMetaCache::new(keep);
            for w in 0..12 {
                let mut queriers = vec![[10, 1, 0, 1]];
                if gapped.contains(&w) {
                    queriers.push([10, 2, 0, 2]);
                }
                QuerierMetaTable::build(&observations(&queriers), &ToyInfo, Some(&mut cache));
            }
            assert_eq!((cache.hits(), cache.misses()), (hits, misses), "keep {keep}");
        }
    }

    #[test]
    fn an_unnamed_category_costs_no_cache_bytes() {
        // A scan storm's cache holds every querier of the last windows:
        // a wider bucket is a wider peak heap.
        assert_eq!(std::mem::size_of::<(u32, CacheEntry)>(), 16);
        let us = CountryCode::new("us").unwrap();
        for category in [None, Some(StaticFeature::Home), Some(StaticFeature::NxDomain)] {
            for asn in [None, Some(AsId(0)), Some(AsId(u32::MAX))] {
                for country in [None, Some(us)] {
                    let meta = RawQuerierMeta { category, asn, country };
                    assert_eq!(CacheEntry::pack(meta, 7).unpack(), meta);
                }
            }
        }
    }

    /// [`ToyInfo`] that counts reverse-name lookups.
    #[derive(Default)]
    struct CountingInfo(std::sync::atomic::AtomicUsize);
    impl CountingInfo {
        fn take(&self) -> usize {
            self.0.swap(0, std::sync::atomic::Ordering::Relaxed)
        }
    }
    impl QuerierInfo for CountingInfo {
        fn querier_name(&self, addr: Ipv4Addr) -> NameOutcome {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            ToyInfo.querier_name(addr)
        }
        fn querier_as(&self, addr: Ipv4Addr) -> Option<AsId> {
            ToyInfo.querier_as(addr)
        }
        fn querier_country(&self, addr: Ipv4Addr) -> Option<CountryCode> {
            ToyInfo.querier_country(addr)
        }
    }

    /// One window of `(originator last octet, querier)` pairs.
    fn footprints(pairs: &[(u8, [u8; 4])]) -> Observations {
        let mut log = QueryLog::new();
        for (i, (o, q)) in pairs.iter().enumerate() {
            log.push(QueryLogRecord {
                time: SimTime(i as u64 * 60),
                querier: Ipv4Addr::from(*q),
                originator: Ipv4Addr::new(203, 0, 113, *o),
                rcode: Rcode::NoError,
            });
        }
        Observations::ingest(&log, SimTime(0), SimTime(1_000_000))
    }

    const CUT: crate::FeatureConfig = crate::FeatureConfig { min_queriers: 3, top_n: None };

    /// Originator 1 is analyzable (three queriers); originator 2 is not,
    /// and its two queriers belong to no selected footprint.
    fn cut_window() -> Observations {
        footprints(&[
            (1, [10, 1, 0, 1]),
            (1, [10, 1, 0, 2]),
            (1, [10, 2, 0, 3]),
            (2, [11, 2, 0, 4]),
            (2, [13, 9, 0, 5]),
        ])
    }

    #[test]
    fn extraction_names_only_the_selected_footprints() {
        use crate::extract::{extract_from_observations_reference, extract_with_meta_cache};
        let obs = cut_window();
        let info = CountingInfo::default();
        let cold = extract_with_meta_cache(&obs, &info, &CUT, None);
        assert_eq!(obs.all_queriers.len(), 5);
        assert_eq!(info.take(), 3, "one name per querier of the selected footprint");
        assert_eq!(cold, extract_from_observations_reference(&obs, &ToyInfo, &CUT));
        QuerierMetaTable::build(&obs, &info, None);
        assert_eq!(info.take(), 5, "build names every querier");
    }

    #[test]
    fn warm_replay_names_nothing() {
        use crate::extract::extract_with_meta_cache;
        let obs = cut_window();
        let info = CountingInfo::default();
        let mut cache = QuerierMetaCache::default();
        let cold = extract_with_meta_cache(&obs, &info, &CUT, Some(&mut cache));
        assert_eq!(info.take(), 3);
        let warm = extract_with_meta_cache(&obs, &info, &CUT, Some(&mut cache));
        assert_eq!(info.take(), 0, "every selected querier's name is cached");
        assert_eq!(cold, warm);
        assert_eq!(cache.hits(), 5, "the place pass probes every querier");
    }

    #[test]
    fn a_querier_cached_unnamed_is_named_when_a_selected_footprint_holds_it() {
        use crate::extract::{extract_from_observations_reference, extract_with_meta_cache};
        let info = CountingInfo::default();
        let mut cache = QuerierMetaCache::default();
        extract_with_meta_cache(&cut_window(), &info, &CUT, Some(&mut cache));
        assert_eq!(info.take(), 3);
        // Originator 3 holds originator 2's two unnamed queriers and one
        // new querier, and is analyzable.
        let later = footprints(&[(3, [11, 2, 0, 4]), (3, [13, 9, 0, 5]), (3, [12, 3, 0, 6])]);
        let features = extract_with_meta_cache(&later, &info, &CUT, Some(&mut cache));
        assert_eq!(info.take(), 3, "two cached unnamed entries and one new querier");
        assert_eq!(cache.hits(), 2);
        assert_eq!(features, extract_from_observations_reference(&later, &ToyInfo, &CUT));
        extract_with_meta_cache(&later, &info, &CUT, Some(&mut cache));
        assert_eq!(info.take(), 0, "the names were written back into the cache");
    }
}

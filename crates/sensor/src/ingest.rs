//! Query-log ingestion and originator selection (paper §III-A, §III-B).
//!
//! The crate has one per-record loop — the dedup probe and the
//! per-originator accumulation of [`StreamingSensor`] — and a window
//! of a log in memory is that sensor run for one window:
//! [`Observations::ingest_with_dedup`] anchors it at the window's
//! start, makes the window as long as `[start, end)` and the
//! originator table unbounded, pushes the records inside the bounds
//! and takes the one flush. In-window disorder is tolerated (the dedup
//! probe compares against the last *accepted* time, and a record
//! behind it is simply a fast repeat), so the log need not be sorted.
//! Each call filters the whole log: a dataset's windows stream instead.
//! The address-ordered [`Observations`] every downstream stage
//! (extraction, classification, serialization) consumes is built at
//! that flush, each footprint a sorted querier column; a test-only
//! BTree reference (`ingest_with_dedup_reference`) defines the
//! semantics, and a property test holds the two equal on arbitrary
//! record streams.

use crate::stream::{window_end, StreamConfig, StreamingSensor, MAX_WINDOW};
use bs_dns::{SimDuration, SimTime};
use bs_netsim::log::QueryLog;
use std::collections::BTreeMap;
#[cfg(test)]
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// The deduplication window: duplicate queries from the same querier
/// for the same originator within this span are dropped.
pub const DEDUP_WINDOW: SimDuration = SimDuration(30);

/// The analyzability threshold: originators need at least this many
/// unique queriers to be classified.
pub const MIN_QUERIERS: usize = 20;

/// One originator's deduplicated query stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginatorObservation {
    /// The originator address.
    pub originator: Ipv4Addr,
    /// Deduplicated queries as `(offset, querier)` pairs, in arrival
    /// order (time order when the input is). The offset is the query's
    /// time in seconds after [`Observations::window_start`]: a sensor
    /// keeps no record behind its window, and no window is longer than
    /// [`MAX_WINDOW`], so every query's time is `window_start + offset`
    /// exactly.
    pub queries: Vec<(u32, Ipv4Addr)>,
    /// Unique querier addresses — the footprint as a column, ascending
    /// and without repeats.
    pub queriers: Vec<Ipv4Addr>,
}

impl Default for OriginatorObservation {
    fn default() -> Self {
        OriginatorObservation {
            originator: Ipv4Addr::UNSPECIFIED,
            queries: Vec::new(),
            queriers: Vec::new(),
        }
    }
}

impl OriginatorObservation {
    /// Total deduplicated queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Unique querier count — the originator's observed footprint.
    pub fn querier_count(&self) -> usize {
        self.queriers.len()
    }

    /// Add `querier` to the footprint, keeping the column ascending and
    /// unique: the references' set insert, for tests only.
    #[cfg(test)]
    pub(crate) fn insert_querier(&mut self, querier: Ipv4Addr) {
        if let Err(i) = self.queriers.binary_search(&querier) {
            self.queriers.insert(i, querier);
        }
    }
}

/// All originators observed in a window, with window-global context the
/// dynamic features need (total ASes and countries seen).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observations {
    /// Window start (inclusive).
    pub window_start: SimTime,
    /// Window end (exclusive).
    pub window_end: SimTime,
    /// Per-originator deduplicated streams.
    pub per_originator: BTreeMap<Ipv4Addr, OriginatorObservation>,
    /// All querier addresses seen in the window (across originators),
    /// ascending and without repeats.
    pub all_queriers: Vec<Ipv4Addr>,
}

/// The time of every stored query of a window, per originator, in the
/// order of its stored queries: what the test-only references record
/// beside the offsets they store.
#[cfg(test)]
pub(crate) type QueryTimes = BTreeMap<Ipv4Addr, Vec<SimTime>>;

/// Check that every stored query of `obs` sits at `window_start +
/// offset` = the time the reference recorded for it.
#[cfg(test)]
pub(crate) fn assert_offsets_are_times(obs: &Observations, times: &QueryTimes) {
    assert_eq!(
        obs.per_originator.keys().collect::<Vec<_>>(),
        times.keys().collect::<Vec<_>>(),
        "originators with stored queries"
    );
    for (originator, o) in &obs.per_originator {
        let at: Vec<SimTime> = o
            .queries
            .iter()
            .map(|&(offset, _)| obs.window_start + SimDuration(offset.into()))
            .collect();
        assert_eq!(at, times[originator], "{originator}: window_start + offset");
    }
}

impl Observations {
    /// Ingest a query log restricted to `[start, end)`, applying the
    /// per-(originator, querier) deduplication: the streaming sensor
    /// anchored at `start` and run for the one window. An empty or
    /// inverted window observes nothing; a window longer than
    /// [`MAX_WINDOW`] observes its first `MAX_WINDOW` and reports that
    /// end, as the sensor cuts its own window
    /// ([`StreamConfig::resolved_window`]).
    ///
    /// `dedup` is exposed for the ablation bench; the paper's pipeline
    /// always passes [`DEDUP_WINDOW`].
    pub fn ingest_with_dedup(
        log: &QueryLog,
        start: SimTime,
        end: SimTime,
        dedup: SimDuration,
    ) -> Self {
        let end = end.min(window_end(start, MAX_WINDOW));
        let nothing = Observations { window_start: start, window_end: end, ..Default::default() };
        if end <= start {
            return nothing;
        }
        let mut sensor = StreamingSensor::new(StreamConfig {
            window: end.since(start),
            max_originators: usize::MAX,
            dedup,
            ..StreamConfig::default()
        });
        sensor.flush_to(start);
        for r in log.records().iter().filter(|r| start <= r.time && r.time < end) {
            let rotated = sensor.push(*r);
            debug_assert!(rotated.is_none(), "a record inside the window cannot close it");
        }
        sensor.finish().map_or(nothing, |w| w.observations)
    }

    /// The reference implementation of
    /// [`Observations::ingest_with_dedup`], compiled for tests only:
    /// the original BTree-based ingestion, kept as the executable
    /// specification the fast path is property-tested against, with the
    /// time of every query it stores. No telemetry — it exists to
    /// define behavior, not to run in production.
    #[cfg(test)]
    pub(crate) fn ingest_with_dedup_reference(
        log: &QueryLog,
        start: SimTime,
        end: SimTime,
        dedup: SimDuration,
    ) -> (Self, QueryTimes) {
        use std::collections::btree_map::Entry;
        let end = end.min(window_end(start, MAX_WINDOW));
        let mut per_originator: BTreeMap<Ipv4Addr, OriginatorObservation> = BTreeMap::new();
        let mut times = QueryTimes::new();
        let mut all_queriers = BTreeSet::new();
        // Last accepted time per (originator, querier).
        let mut last_seen: BTreeMap<(Ipv4Addr, Ipv4Addr), SimTime> = BTreeMap::new();
        for r in log.records() {
            if r.time < start || r.time >= end {
                continue;
            }
            let key = (r.originator, r.querier);
            match last_seen.entry(key) {
                Entry::Occupied(mut e) => {
                    if r.time.since(*e.get()) < dedup {
                        continue; // suppressed duplicate
                    }
                    e.insert(r.time);
                }
                Entry::Vacant(e) => {
                    e.insert(r.time);
                }
            }
            all_queriers.insert(r.querier);
            let obs = per_originator.entry(r.originator).or_insert_with(|| OriginatorObservation {
                originator: r.originator,
                ..Default::default()
            });
            obs.queries.push((r.time.since(start).secs() as u32, r.querier));
            obs.insert_querier(r.querier);
            times.entry(r.originator).or_default().push(r.time);
        }
        let all_queriers = all_queriers.into_iter().collect();
        (Observations { window_start: start, window_end: end, per_originator, all_queriers }, times)
    }

    /// Standard ingestion with the paper's 30-second window.
    pub fn ingest(log: &QueryLog, start: SimTime, end: SimTime) -> Self {
        Self::ingest_with_dedup(log, start, end, DEDUP_WINDOW)
    }

    /// Unique ASes among all queriers in the window, given a resolver
    /// — the per-pair reference's count; extraction reads it off the
    /// interned [`crate::qmeta::QuerierMetaTable`].
    #[cfg(test)]
    pub(crate) fn total_ases(&self, info: &(impl crate::QuerierInfo + Sync)) -> usize {
        crate::dynamic::unique_by(&self.all_queriers, |q| info.querier_as(q)).len()
    }

    /// Unique countries among all queriers in the window (reference).
    #[cfg(test)]
    pub(crate) fn total_countries(&self, info: &(impl crate::QuerierInfo + Sync)) -> usize {
        crate::dynamic::unique_by(&self.all_queriers, |q| info.querier_country(q)).len()
    }

    /// Number of originators observed at all.
    pub fn originator_count(&self) -> usize {
        self.per_originator.len()
    }
}

/// Keep analyzable originators (≥ `min_queriers` unique queriers),
/// ranked by unique-querier count descending, truncated to `top_n` if
/// given. This is the paper's §III-B selection.
pub fn select_analyzable(
    obs: &Observations,
    min_queriers: usize,
    top_n: Option<usize>,
) -> Vec<&OriginatorObservation> {
    let mut v: Vec<&OriginatorObservation> =
        obs.per_originator.values().filter(|o| o.querier_count() >= min_queriers).collect();
    v.sort_by(|a, b| {
        b.querier_count().cmp(&a.querier_count()).then_with(|| a.originator.cmp(&b.originator))
    });
    if let Some(n) = top_n {
        v.truncate(n);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dns::Rcode;
    use bs_netsim::log::QueryLogRecord;

    fn rec(t: u64, q: &str, o: &str) -> QueryLogRecord {
        QueryLogRecord {
            time: SimTime(t),
            querier: q.parse().unwrap(),
            originator: o.parse().unwrap(),
            rcode: Rcode::NoError,
        }
    }

    #[test]
    fn dedup_drops_only_fast_repeats() {
        let mut log = QueryLog::new();
        log.push(rec(0, "192.0.2.1", "203.0.113.9"));
        log.push(rec(10, "192.0.2.1", "203.0.113.9")); // within 30s: dropped
        log.push(rec(29, "192.0.2.1", "203.0.113.9")); // still within 30s of t=0
        log.push(rec(31, "192.0.2.1", "203.0.113.9")); // 31s after t=0: kept
        log.push(rec(40, "192.0.2.2", "203.0.113.9")); // different querier: kept
        let obs = Observations::ingest(&log, SimTime(0), SimTime(1000));
        let o = &obs.per_originator[&"203.0.113.9".parse::<Ipv4Addr>().unwrap()];
        assert_eq!(o.query_count(), 3);
        assert_eq!(o.querier_count(), 2);
    }

    #[test]
    fn dedup_window_restarts_after_acceptance() {
        let mut log = QueryLog::new();
        log.push(rec(0, "192.0.2.1", "203.0.113.9"));
        log.push(rec(31, "192.0.2.1", "203.0.113.9")); // accepted
        log.push(rec(60, "192.0.2.1", "203.0.113.9")); // 29s after t=31: dropped
        log.push(rec(62, "192.0.2.1", "203.0.113.9")); // 31s after t=31: accepted
        let obs = Observations::ingest(&log, SimTime(0), SimTime(1000));
        let o = &obs.per_originator[&"203.0.113.9".parse::<Ipv4Addr>().unwrap()];
        assert_eq!(o.query_count(), 3);
    }

    #[test]
    fn dedup_is_per_originator() {
        let mut log = QueryLog::new();
        log.push(rec(0, "192.0.2.1", "203.0.113.9"));
        log.push(rec(5, "192.0.2.1", "203.0.113.10")); // same querier, other originator
        let obs = Observations::ingest(&log, SimTime(0), SimTime(1000));
        assert_eq!(obs.originator_count(), 2);
        assert_eq!(obs.all_queriers.len(), 1);
    }

    #[test]
    fn window_bounds_are_half_open() {
        let mut log = QueryLog::new();
        log.push(rec(99, "192.0.2.1", "203.0.113.9"));
        log.push(rec(100, "192.0.2.2", "203.0.113.9"));
        log.push(rec(199, "192.0.2.3", "203.0.113.9"));
        log.push(rec(200, "192.0.2.4", "203.0.113.9"));
        let obs = Observations::ingest(&log, SimTime(100), SimTime(200));
        let o = &obs.per_originator[&"203.0.113.9".parse::<Ipv4Addr>().unwrap()];
        assert_eq!(o.query_count(), 2);
    }

    #[test]
    fn selection_threshold_and_ranking() {
        let mut log = QueryLog::new();
        // Originator A: 25 queriers; B: 20; C: 5.
        for i in 0..25u8 {
            log.push(rec(i as u64 * 40, &format!("192.0.2.{i}"), "203.0.113.1"));
        }
        for i in 0..20u8 {
            log.push(rec(i as u64 * 40, &format!("198.51.100.{i}"), "203.0.113.2"));
        }
        for i in 0..5u8 {
            log.push(rec(i as u64 * 40, &format!("192.0.3.{i}"), "203.0.113.3"));
        }
        let obs = Observations::ingest(&log, SimTime(0), SimTime(10_000));
        let selected = select_analyzable(&obs, MIN_QUERIERS, None);
        assert_eq!(selected.len(), 2);
        assert_eq!(selected[0].originator, "203.0.113.1".parse::<Ipv4Addr>().unwrap());
        assert_eq!(selected[1].originator, "203.0.113.2".parse::<Ipv4Addr>().unwrap());
        let top1 = select_analyzable(&obs, MIN_QUERIERS, Some(1));
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].querier_count(), 25);
    }

    #[test]
    fn empty_log_is_empty_observation() {
        let obs = Observations::ingest(&QueryLog::new(), SimTime(0), SimTime(100));
        assert_eq!(obs.originator_count(), 0);
        assert!(select_analyzable(&obs, 1, None).is_empty());
    }
}

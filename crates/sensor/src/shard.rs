//! Sharded streaming ingestion: linear multi-core scaling for the
//! sensor hot path.
//!
//! [`crate::stream::StreamingSensor`] is one instance behind one
//! window, so everything the packed-key engine won single-core is capped
//! at one core on live traffic. [`ShardedStreamingSensor`] hash-shards
//! the *originator* space across N per-core `StreamingSensor` lanes —
//! each with its own arena, probation table, and eviction heap — and
//! merges the lane flushes into one BTree-ordered
//! [`Observations`] at window close, so everything downstream of the
//! sensor (extraction, classification, the stream-equals-batch
//! guarantee) is byte-for-byte untouched.
//!
//! # Shard topology: fixed slices, variable lanes
//!
//! The originator space is partitioned into [`SHARD_SLICES`] fixed
//! hash **slices** (the top bits of the address multiplied by
//! 2⁶⁴/φ), and every admission-control resource —
//! tracked-table capacity, probation capacity — is divided evenly
//! across the slices ([`slice_config`]). A run with N lanes assigns
//! slice `j` to lane `j % N`; each lane drives one `StreamingSensor`
//! per owned slice.
//!
//! The point of the two-level scheme is determinism: admission,
//! eviction, and probation-reset decisions are all *slice-local*, and
//! the per-slice record subsequence is the arrival order regardless of
//! how slices are grouped into lanes. Output is therefore **invariant
//! across shard counts and thread counts** — sharded output is
//! bit-identical to a sequential single-lane reference (test-only) by
//! construction, which the seeded suite in `shard_equivalence.rs`
//! pins down. (A global sensor couples all
//! originators through one tracked-count/eviction-minimum/probation
//! table, so its under-pressure decisions are inherently serial; the
//! slice partition is what makes pressure semantics parallelizable at
//! all. Above the memory caps the slice partition is unobservable and
//! sharded output equals the plain global sensor exactly — also
//! property-tested.)
//!
//! # Ingest path
//!
//! The reader thread owns the window clock (first record anchors the
//! window grid; late records are counted per-lane and dropped, exactly
//! like the single sensor) and routes records into per-lane bounded
//! queues. When any queue reaches [`SHARD_QUEUE_CAP`] the driver runs
//! a drain barrier: a `bs-par` parallel region in which every lane
//! ingests its queued records in arrival order. At a window boundary
//! the driver drains, flushes every lane in parallel, and merges the
//! per-lane partial windows (disjoint by construction) into one
//! summary.
//!
//! # Accounting
//!
//! Each lane's slices file conservation-ledger rows under their own
//! stage (`sensor.stream.shard.<i>`), so `records_in == Σ buckets`
//! verifies per shard *and* summed across shards; a wholesale
//! probation clear on one shard rebooks held→dropped only in that
//! shard's stage. Per-shard counters
//! (`sensor.shard.<i>.{ingested,evictions,probation_resets}`) ride
//! next to the unchanged `sensor.stream.*` rollups, and each window
//! flush publishes merged gauges plus shard-skew gauges
//! (`sensor.shard.load.{max,mean}`, `sensor.shard.skew_milli`).

use crate::ingest::{Observations, OriginatorObservation};
#[cfg(test)]
use crate::stream::ReferenceStreamingSensor;
use crate::stream::{past_window, window_end, StreamConfig, StreamingSensor, WindowSummary};
use bs_dns::SimTime;
use bs_netsim::log::QueryLogRecord;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::AtomicU8;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Fixed number of hash slices the originator space is partitioned
/// into, independent of how many lanes a run uses. 64 = the widest
/// lane count worth having before merge overhead dominates, and small
/// enough that per-slice capacity splits stay meaningful.
pub const SHARD_SLICES: usize = 64;

/// Records a lane queue may hold before the driver runs a drain
/// barrier. Batches per-record work into cache-friendly runs and
/// bounds driver-side memory at `lanes × SHARD_QUEUE_CAP` records.
pub const SHARD_QUEUE_CAP: usize = 4096;

/// The slice an originator address belongs to: the top 6 bits of the
/// address times 2⁶⁴/φ (a bare multiply keeps its entropy in the high
/// bits).
#[inline]
pub fn slice_of(originator: Ipv4Addr) -> usize {
    (u64::from(u32::from(originator)).wrapping_mul(crate::hash::PHI64) >> 58) as usize
}

/// The lane that owns `originator` when running `lanes` lanes.
#[inline]
pub fn shard_of(originator: Ipv4Addr, lanes: usize) -> usize {
    slice_of(originator) % lanes.clamp(1, SHARD_SLICES)
}

/// The per-slice configuration: tracked-table and probation capacity
/// divided evenly (rounding up) across the [`SHARD_SLICES`] slices.
/// Totals may exceed the configured caps by at most `SHARD_SLICES - 1`
/// entries — the price of slice-local (and therefore parallelizable)
/// admission control.
pub fn slice_config(config: &StreamConfig) -> StreamConfig {
    StreamConfig {
        max_originators: config.max_originators.div_ceil(SHARD_SLICES),
        probation_cap: config.resolved_probation_cap().div_ceil(SHARD_SLICES),
        ..*config
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One lane: the slices it owns, its ingest queue, and its share of
/// the driver-side tallies.
struct Lane {
    /// Lane index — the `<i>` in `sensor.stream.shard.<i>`.
    id: usize,
    /// Total lane count; slice `j` lives at local index `j / stride`.
    stride: usize,
    slices: Vec<StreamingSensor>,
    queue: Vec<QueryLogRecord>,
    /// In-window records routed here since the last flush.
    routed: u64,
    /// Late records that hashed here since the last flush; they never
    /// reach a slice, so the driver books them at flush.
    ooo: u64,
}

impl Lane {
    fn new(id: usize, stride: usize, slice_cfg: StreamConfig) -> Self {
        let slices = (id..SHARD_SLICES)
            .step_by(stride)
            .map(|_| {
                let mut s = StreamingSensor::new(slice_cfg);
                s.set_shard_index(id as u32);
                s
            })
            .collect();
        Lane { id, stride, slices, queue: Vec::with_capacity(SHARD_QUEUE_CAP), routed: 0, ooo: 0 }
    }

    /// Ingest every queued record, in arrival order. The driver only
    /// queues in-window records, so these pushes can never rotate.
    fn drain_queue(&mut self) {
        let mut q = std::mem::take(&mut self.queue);
        for r in q.drain(..) {
            debug_assert_eq!(slice_of(r.originator) % self.stride, self.id);
            let emitted = self.slices[slice_of(r.originator) / self.stride].push(r);
            debug_assert!(emitted.is_none(), "queued records are in-window by construction");
        }
        self.queue = q; // keep the allocation
    }

    /// Flush every owned slice's window and merge into one partial.
    fn flush_to(&mut self, next_start: SimTime) -> LanePartial {
        let mut part = LanePartial::default();
        for s in &mut self.slices {
            if let Some(w) = s.flush_to(next_start) {
                part.evicted += w.evicted;
                let mut obs = w.observations;
                part.per_originator.append(&mut obs.per_originator);
                part.all_queriers.extend(obs.all_queriers);
            }
        }
        part
    }
}

/// One lane's contribution to a window: per-originator maps are
/// disjoint across lanes (each originator hashes to exactly one
/// slice), querier columns may overlap (a resolver can query for
/// originators on different shards) and merge by union: concatenated,
/// then sorted and deduplicated.
#[derive(Default)]
struct LanePartial {
    per_originator: BTreeMap<Ipv4Addr, OriginatorObservation>,
    all_queriers: Vec<Ipv4Addr>,
    evicted: usize,
}

/// The sharded streaming sensor (fast path): N parallel
/// [`StreamingSensor`] lanes behind one window clock. See the module
/// docs for topology and guarantees; semantics are defined by the
/// test-only sequential reference and pinned by `shard_equivalence.rs`.
pub struct ShardedStreamingSensor {
    config: StreamConfig,
    window_start: SimTime,
    started: bool,
    lanes: Vec<Lane>,
}

impl ShardedStreamingSensor {
    /// Create a sharded sensor with `lanes` lanes (clamped to
    /// `1..=SHARD_SLICES`); the first record anchors the first window.
    pub fn new(config: StreamConfig, lanes: usize) -> Self {
        assert!(config.window.secs() > 0);
        assert!(config.max_originators > 0);
        let lanes = lanes.clamp(1, SHARD_SLICES);
        let config = StreamConfig { window: config.resolved_window(), ..config };
        let slice_cfg = slice_config(&config);
        ShardedStreamingSensor {
            config,
            window_start: SimTime::ZERO,
            started: false,
            lanes: (0..lanes).map(|id| Lane::new(id, lanes, slice_cfg)).collect(),
        }
    }

    /// Number of lanes actually running.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Attach a shared pressure cell (the bs-live watchdog's health
    /// state). Broadcast to every slice on every lane, so graceful
    /// degradation tightens probation decay across the whole shard
    /// set, not just one lucky lane.
    pub fn set_pressure_hook(&mut self, hook: Arc<AtomicU8>) {
        for lane in &mut self.lanes {
            for s in &mut lane.slices {
                s.set_pressure_hook(Arc::clone(&hook));
            }
        }
    }

    /// Originators currently tracked across all slices. Records still
    /// sitting in lane queues are not reflected until the next drain.
    pub fn tracked_originators(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.slices.iter().map(|s| s.tracked_originators()).sum::<usize>())
            .sum()
    }

    /// Records currently queued and not yet ingested, across lanes.
    pub fn queued_records(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// Probation resets accumulated in the current window, across all
    /// slices — a diagnostic for the pressure-broadcast path.
    #[doc(hidden)]
    pub fn pending_probation_resets(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.slices.iter().map(|s| s.pending_probation_resets()).sum::<u64>())
            .sum()
    }

    /// Feed one record (records must arrive in time order). Returns
    /// the completed merged window when `r` crosses a window boundary;
    /// late records are counted per lane and dropped, exactly like
    /// [`StreamingSensor::push`].
    pub fn push(&mut self, r: QueryLogRecord) -> Option<WindowSummary> {
        if !self.started {
            self.window_start = SimTime(r.time.secs() - r.time.secs() % self.config.window.secs());
            self.started = true;
        }
        let lane_count = self.lanes.len();
        if r.time < self.window_start {
            self.lanes[slice_of(r.originator) % lane_count].ooo += 1;
            return None;
        }
        let mut emitted = None;
        if past_window(self.window_start, self.config.window, r.time) {
            emitted = Some(self.rotate_to(r.time));
        }
        let lane = &mut self.lanes[slice_of(r.originator) % lane_count];
        lane.routed += 1;
        lane.queue.push(r);
        if lane.queue.len() >= SHARD_QUEUE_CAP {
            self.drain_all();
        }
        emitted
    }

    /// Flush the current (partial) window at end of stream. `None`
    /// when no records were ever routed or nothing survived to the
    /// tracked tables — the same condition as the single sensor.
    pub fn finish(mut self) -> Option<WindowSummary> {
        if !self.started {
            return None;
        }
        self.drain_all();
        if self.tracked_originators() == 0 {
            return None;
        }
        let end = window_end(self.window_start, self.config.window);
        Some(self.flush_window(end))
    }

    /// Drain barrier: every lane ingests its queue, in parallel when a
    /// `bs-par` pool is available (each task locks only its own lane,
    /// so there is no contention — the mutex exists to hand `&mut`
    /// across the scoped-parallel boundary safely).
    fn drain_all(&mut self) {
        if self.queued_records() == 0 {
            return;
        }
        let lanes: Vec<Mutex<&mut Lane>> = self.lanes.iter_mut().map(Mutex::new).collect();
        bs_par::par_map_range(lanes.len(), |i| lock(&lanes[i]).drain_queue());
    }

    fn rotate_to(&mut self, now: SimTime) -> WindowSummary {
        let w = self.config.window.secs();
        let next = SimTime(now.secs() - now.secs() % w);
        let summary = self.flush_window(next);
        self.window_start = next;
        summary
    }

    /// Flush every lane's window (re-anchoring the slices at
    /// `next_start`) and merge the partials into one summary.
    fn flush_window(&mut self, next_start: SimTime) -> WindowSummary {
        self.drain_all();
        let ws = self.window_start;
        let _window = bs_telemetry::ledger::window_scope(ws.secs());
        let _stage = bs_telemetry::stage("sensor.shard.merge");
        let end = window_end(ws, self.config.window);
        let parts: Vec<(LanePartial, u64, u64)> = {
            let lanes: Vec<Mutex<&mut Lane>> = self.lanes.iter_mut().map(Mutex::new).collect();
            bs_par::par_map_range(lanes.len(), |i| {
                let mut lane = lock(&lanes[i]);
                let part = lane.flush_to(next_start);
                (part, std::mem::take(&mut lane.routed), std::mem::take(&mut lane.ooo))
            })
        };
        let mut per_originator = BTreeMap::new();
        let mut all_queriers = Vec::new();
        let mut evicted = 0usize;
        let mut ooo_total = 0u64;
        let (mut max_load, mut total_load) = (0u64, 0u64);
        for (i, (mut part, routed, ooo)) in parts.into_iter().enumerate() {
            per_originator.append(&mut part.per_originator);
            all_queriers.extend(part.all_queriers);
            evicted += part.evicted;
            ooo_total += ooo;
            let load = routed + ooo;
            max_load = max_load.max(load);
            total_load += load;
            if ooo > 0 {
                // Late records never reach a slice, so the slices'
                // ledger rows don't cover them; book them into this
                // lane's stage so per-shard conservation still closes.
                if bs_telemetry::ledger::is_active() {
                    bs_telemetry::ledger::record(
                        &format!("sensor.stream.shard.{i}"),
                        ooo,
                        &[("out_of_order", ooo)],
                    );
                }
                if bs_telemetry::is_enabled() || bs_telemetry::trace::is_enabled() {
                    bs_telemetry::counter_add(&format!("sensor.shard.{i}.ingested"), ooo);
                }
            }
        }
        // Driver-held tallies join the unchanged global rollups (the
        // slices already rolled up everything they ingested).
        bs_telemetry::counter_add("sensor.stream.records", ooo_total);
        bs_telemetry::counter_add("sensor.stream.out_of_order", ooo_total);
        // Merged gauges — the single-sensor gauges, computed over the
        // union (individual slices skip them to avoid last-writer
        // races under the parallel flush), plus the skew view.
        bs_telemetry::gauge_set("sensor.window_evicted", evicted as i64);
        bs_telemetry::gauge_set("sensor.tracked_originators", per_originator.len() as i64);
        let mean_load = total_load / self.lanes.len() as u64;
        bs_telemetry::gauge_set("sensor.shard.load.max", max_load as i64);
        bs_telemetry::gauge_set("sensor.shard.load.mean", mean_load as i64);
        let skew_milli = if total_load > 0 {
            (max_load as i128 * 1000 * self.lanes.len() as i128 / total_load as i128) as i64
        } else {
            0
        };
        bs_telemetry::gauge_set("sensor.shard.skew_milli", skew_milli);
        all_queriers.sort_unstable();
        all_queriers.dedup();
        let observations =
            Observations { window_start: ws, window_end: end, per_originator, all_queriers };
        WindowSummary { window: (ws, end), observations, evicted }
    }
}

/// The sequential reference for [`ShardedStreamingSensor`], compiled
/// for tests only: the same fixed-slice partition and window clock
/// driven one record at a time over per-slice
/// [`ReferenceStreamingSensor`]s — no lanes, no queues, no
/// parallelism, no telemetry. Because the fast path's output is
/// lane-count-invariant by construction, this single sequential
/// implementation is the executable specification for *every* shard
/// count; `shard_equivalence.rs` holds them equal.
#[cfg(test)]
pub(crate) struct ReferenceShardedStreamingSensor {
    config: StreamConfig,
    window_start: SimTime,
    started: bool,
    slices: Vec<ReferenceStreamingSensor>,
}

#[cfg(test)]
impl ReferenceShardedStreamingSensor {
    /// Create a reference sharded sensor; the first record anchors the
    /// first window.
    pub(crate) fn new(config: StreamConfig) -> Self {
        assert!(config.window.secs() > 0);
        assert!(config.max_originators > 0);
        let config = StreamConfig { window: config.resolved_window(), ..config };
        let slice_cfg = slice_config(&config);
        ReferenceShardedStreamingSensor {
            config,
            window_start: SimTime::ZERO,
            started: false,
            slices: (0..SHARD_SLICES).map(|_| ReferenceStreamingSensor::new(slice_cfg)).collect(),
        }
    }

    /// Feed one record; semantics identical to
    /// [`ShardedStreamingSensor::push`].
    pub(crate) fn push(&mut self, r: QueryLogRecord) -> Option<WindowSummary> {
        if !self.started {
            self.window_start = SimTime(r.time.secs() - r.time.secs() % self.config.window.secs());
            self.started = true;
        }
        if r.time < self.window_start {
            return None; // out of order: dropped
        }
        let mut emitted = None;
        if past_window(self.window_start, self.config.window, r.time) {
            let w = self.config.window.secs();
            let next = SimTime(r.time.secs() - r.time.secs() % w);
            emitted = Some(self.flush_window(next));
            self.window_start = next;
        }
        let pushed = self.slices[slice_of(r.originator)].push(r);
        debug_assert!(pushed.is_none(), "slice windows rotate only via the driver clock");
        emitted
    }

    /// Flush the current (partial) window at end of stream.
    pub(crate) fn finish(mut self) -> Option<WindowSummary> {
        if !self.started {
            return None;
        }
        let end = window_end(self.window_start, self.config.window);
        let summary = self.flush_window(end);
        if summary.observations.per_originator.is_empty() {
            return None;
        }
        Some(summary)
    }

    fn flush_window(&mut self, next_start: SimTime) -> WindowSummary {
        let ws = self.window_start;
        let end = window_end(ws, self.config.window);
        let mut per_originator = BTreeMap::new();
        let mut all_queriers = Vec::new();
        let mut evicted = 0usize;
        for s in &mut self.slices {
            if let Some(w) = s.flush_to(next_start) {
                evicted += w.evicted;
                let mut obs = w.observations;
                per_originator.append(&mut obs.per_originator);
                all_queriers.extend(obs.all_queriers);
            }
        }
        all_queriers.sort_unstable();
        all_queriers.dedup();
        let observations =
            Observations { window_start: ws, window_end: end, per_originator, all_queriers };
        WindowSummary { window: (ws, end), observations, evicted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dns::{Rcode, SimDuration};
    use std::sync::atomic::Ordering;

    fn rec(t: u64, q: u32, o: u32) -> QueryLogRecord {
        QueryLogRecord {
            time: SimTime(t),
            querier: Ipv4Addr::from(0x0A00_0000 | q),
            originator: Ipv4Addr::from(0xCB00_0000 | o),
            rcode: Rcode::NoError,
        }
    }

    /// `n` distinct originator addresses that all hash to the same
    /// slice as `rec(_, _, 0)`'s originator.
    fn same_slice_originators(n: usize) -> Vec<u32> {
        let target = slice_of(Ipv4Addr::from(0xCB00_0000));
        (0u32..).filter(|o| slice_of(Ipv4Addr::from(0xCB00_0000 | o)) == target).take(n).collect()
    }

    #[test]
    fn slice_partition_is_complete_and_stable() {
        let mut seen = [false; SHARD_SLICES];
        for o in 0..100_000u32 {
            let s = slice_of(Ipv4Addr::from(o.wrapping_mul(2_654_435_761)));
            assert!(s < SHARD_SLICES);
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "100k addresses must cover all 64 slices");
        let a = Ipv4Addr::new(203, 0, 113, 7);
        assert_eq!(slice_of(a), slice_of(a), "hash is a pure function");
        assert_eq!(shard_of(a, 4), slice_of(a) % 4);
    }

    #[test]
    fn slice_config_splits_caps() {
        let cfg = StreamConfig { max_originators: 100_000, probation_cap: 0, ..Default::default() };
        let sc = slice_config(&cfg);
        assert_eq!(sc.max_originators, 1_563); // ceil(100_000 / 64)
        assert_eq!(sc.probation_cap, 6_250); // ceil(400_000 / 64)
                                             // Tiny configs still leave every slice at least one slot.
        let tiny = slice_config(&StreamConfig { max_originators: 3, ..Default::default() });
        assert_eq!(tiny.max_originators, 1);
    }

    #[test]
    fn sharded_matches_reference_on_a_small_stream() {
        let cfg = StreamConfig { window: SimDuration::from_secs(500), ..Default::default() };
        let records: Vec<QueryLogRecord> =
            (0..800u32).map(|i| rec((i as u64 * 7) % 2_000, i % 23, i % 61)).collect();
        let mut sorted = records;
        sorted.sort_by_key(|r| r.time);
        for lanes in [1, 3, 8] {
            let mut fast = ShardedStreamingSensor::new(cfg, lanes);
            let mut reference = ReferenceShardedStreamingSensor::new(cfg);
            for r in &sorted {
                assert_eq!(fast.push(*r), reference.push(*r), "lanes={lanes}");
            }
            assert_eq!(fast.finish(), reference.finish(), "lanes={lanes}");
        }
    }

    #[test]
    fn matches_plain_sensor_when_unbounded() {
        // Above the memory caps the slice partition is unobservable:
        // sharded output equals the plain single sensor exactly.
        let cfg = StreamConfig { window: SimDuration::from_secs(300), ..Default::default() };
        let records: Vec<QueryLogRecord> =
            (0..1_000u32).map(|i| rec((i as u64 * 3) % 1_200, i % 31, i % 47)).collect();
        let mut sorted = records;
        sorted.sort_by_key(|r| r.time);
        let mut plain = StreamingSensor::new(cfg);
        let mut sharded = ShardedStreamingSensor::new(cfg, 4);
        for r in &sorted {
            assert_eq!(sharded.push(*r), plain.push(*r));
        }
        assert_eq!(sharded.finish(), plain.finish());
    }

    #[test]
    fn queriers_shared_across_shards_merge_by_union() {
        // One querier asking about originators on different slices
        // must appear once in the merged all_queriers set.
        let o = same_slice_originators(1)[0];
        let other = (0u32..)
            .find(|c| {
                slice_of(Ipv4Addr::from(0xCB00_0000 | c)) != slice_of(rec(0, 0, o).originator)
            })
            .unwrap();
        let mut s = ShardedStreamingSensor::new(
            StreamConfig { window: SimDuration::from_secs(100), ..Default::default() },
            4,
        );
        s.push(rec(0, 7, o));
        s.push(rec(1, 7, other));
        let w = s.finish().expect("window");
        assert_eq!(w.observations.per_originator.len(), 2);
        assert_eq!(w.observations.all_queriers.len(), 1, "same querier counted once");
    }

    #[test]
    fn out_of_order_records_drop_without_rotating() {
        let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };
        let mut s = ShardedStreamingSensor::new(cfg, 4);
        s.push(rec(150, 1, 1)); // anchors [100, 200)
        assert!(s.push(rec(50, 2, 2)).is_none(), "late record must not rotate");
        let w = s.push(rec(250, 3, 3)).expect("rotation");
        assert_eq!(w.window, (SimTime(100), SimTime(200)));
        assert_eq!(w.observations.per_originator.len(), 1, "late record never credited");
    }

    #[test]
    fn windows_rotate_across_empty_gaps() {
        let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };
        let mut s = ShardedStreamingSensor::new(cfg, 2);
        assert!(s.push(rec(10, 1, 1)).is_none());
        let w1 = s.push(rec(777, 2, 2)).expect("skip empty windows");
        assert_eq!(w1.window, (SimTime(0), SimTime(100)));
        let w2 = s.finish().expect("final flush lands in now's window");
        assert_eq!(w2.window, (SimTime(700), SimTime(800)));
    }

    #[test]
    fn a_window_at_the_clock_limit_holds_its_late_records() {
        // `start + window` does not fit in a u64 for these timestamps:
        // a wrapped end closes one window per record (and the add
        // panics in a debug build).
        let cfg = StreamConfig { window: SimDuration::from_secs(600), ..Default::default() };
        for late in [u64::MAX, u64::MAX - 1] {
            let records = [rec(100, 1, 1), rec(late, 2, 2), rec(late, 3, 2)];
            macro_rules! windows {
                ($sensor:expr) => {{
                    let mut sensor = $sensor;
                    let mut out: Vec<WindowSummary> = Vec::new();
                    for r in records {
                        out.extend(sensor.push(r));
                    }
                    out.extend(sensor.finish());
                    out
                }};
            }
            let fast = windows!(StreamingSensor::new(cfg));
            assert_eq!(fast.len(), 2, "t={late}");
            assert_eq!(fast[0].window, (SimTime(0), SimTime(600)));
            assert_eq!(fast[1].window, (SimTime(late - late % 600), SimTime(u64::MAX)));
            let held = &fast[1].observations.per_originator[&rec(0, 0, 2).originator];
            assert_eq!(held.query_count(), 2, "t={late}: both late records in one window");
            assert_eq!(windows!(ReferenceStreamingSensor::new(cfg)), fast, "t={late}");
            assert_eq!(windows!(ShardedStreamingSensor::new(cfg, 2)), fast, "t={late}");
            assert_eq!(windows!(ReferenceShardedStreamingSensor::new(cfg)), fast, "t={late}");
        }
    }

    #[test]
    fn queue_drains_at_capacity() {
        let cfg = StreamConfig { window: SimDuration::from_days(1), ..Default::default() };
        let mut s = ShardedStreamingSensor::new(cfg, 2);
        // All records hit one slice → one lane's queue fills alone.
        let o = same_slice_originators(1)[0];
        for i in 0..SHARD_QUEUE_CAP as u32 {
            s.push(rec(i as u64, i, o));
        }
        assert_eq!(s.queued_records(), 0, "cap-th record must trigger a drain barrier");
        s.push(rec(50_000, 1, o)); // still inside the day-long window
        assert_eq!(s.queued_records(), 1, "then queueing resumes");
        assert_eq!(s.tracked_originators(), 1);
    }

    #[test]
    fn empty_stream_finishes_empty() {
        let cfg = StreamConfig::default();
        assert!(ShardedStreamingSensor::new(cfg, 4).finish().is_none());
        assert!(ReferenceShardedStreamingSensor::new(cfg).finish().is_none());
    }

    #[test]
    fn pressure_broadcast_reaches_every_lane() {
        // Per-slice probation cap = 4096/64 = 64; critical pressure
        // shrinks it to max(64/16, 16) = 16, so a 40-wide one-shot
        // storm into a single slice resets only when the hook is hot.
        let cfg = StreamConfig {
            window: SimDuration::from_days(1),
            max_originators: SHARD_SLICES, // one tracked slot per slice
            admission_queries: 100,        // nothing admits: pure probation load
            probation_cap: 4_096,
            ..Default::default()
        };
        let originators = same_slice_originators(41);
        let run = |pressure: u8| {
            let hook = Arc::new(AtomicU8::new(0));
            let mut s = ShardedStreamingSensor::new(cfg, 4);
            s.set_pressure_hook(Arc::clone(&hook));
            hook.store(pressure, Ordering::Relaxed);
            for (i, o) in originators.iter().enumerate() {
                s.push(rec(i as u64 * 40, i as u32, *o));
            }
            s.drain_all();
            s.pending_probation_resets()
        };
        assert_eq!(run(0), 0, "healthy: 40 probation entries fit under the slice cap of 64");
        assert!(run(2) > 0, "critical: the tightened cap (16) forces wholesale decay");
    }
}

//! The ingest engine: the sensor as a long-running process.
//!
//! [`StreamingSensor`] consumes one record at a time, keeps
//! per-originator state with a hard memory bound, and emits completed
//! windows as the stream crosses window boundaries — the shape a
//! production tap at a busy authority needs, and how a dataset's
//! time-ordered log is sensed. It is also the crate's only per-record
//! loop: a window of a log in memory ([`Observations::ingest_with_dedup`])
//! is this sensor anchored at the window's start and run for that window.
//!
//! # Memory bound
//!
//! Per-originator state is capped at [`StreamConfig::max_originators`].
//! When full, a new originator evicts the current *smallest* tracked
//! originator, but only when the newcomer has already been seen
//! [`StreamConfig::admission_queries`] times in a probation side-table
//! — an admission filter that stops one-off originators from thrashing
//! the table while keeping the heavy hitters exact. Analyzable
//! originators (the paper's ≥ 20 queriers) are far above the admission
//! bar, so eviction only ever touches originators the pipeline would
//! discard anyway — unless the table is sized below the number of
//! simultaneously-large originators, which [`WindowSummary::evicted`]
//! makes visible. The probation table itself is capped at
//! [`StreamConfig::probation_cap`] entries (default 4 ×
//! `max_originators`); a storm of one-shot originators that fills it
//! triggers a wholesale clear (`sensor.stream.probation_resets`), so
//! probation memory is bounded no matter how wide the storm.
//!
//! # The fast path
//!
//! Per-record work runs entirely on std `HashMap` / `HashSet` tables
//! over packed integer keys, behind the crate's one-multiply hasher.
//! The dedup table maps an `(originator, querier)` `PairKey` (two
//! `u32`s) to its last accepted offset from the window start (31 bits,
//! hence [`MAX_WINDOW`]) plus a footprint bit, a 12-byte entry.
//! Per-originator state lives in a dense arena addressed by `u32` slot
//! indices (evicted slots recycle through a free list): stored queries,
//! 8 bytes each — the seconds after the window start and the querier —
//! and a querier `count`, bumped by a store that sets its pair's bit,
//! the bits cleared at eviction — no per-originator set. Victims come
//! from a **lazy min-heap** of `count << 32 | originator` words —
//! entries go stale as footprints grow and are refreshed on pop, so an
//! admission costs O(log n) amortized instead of the O(n) full-table
//! scan the seed performed.
//! Each footprint becomes a sorted querier column once, at flush, in the
//! address-ordered [`Observations`]; a test-only BTree-based reference
//! sensor defines the semantics and a property test holds the two equal
//! on arbitrary record streams.
//!
//! # Out-of-order records
//!
//! Records must arrive in time order. A record behind the current
//! window's start would otherwise be silently credited to the wrong
//! window, so it is counted (`sensor.stream.out_of_order`, plus an
//! `out_of_order` conservation-ledger bucket) and dropped. Dataset logs
//! are time-ordered (`QueryLog::sort_by_time`): sensing one drops none.

use crate::hash::IntHash;
#[cfg(test)]
use crate::ingest::QueryTimes;
use crate::ingest::{Observations, OriginatorObservation, DEDUP_WINDOW};
use bs_dns::{SimDuration, SimTime};
use bs_netsim::log::QueryLogRecord;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// The smallest probation table graceful degradation may shrink to:
/// enough to keep admitting genuinely heavy hitters even under a
/// critical-pressure storm.
const MIN_PRESSURE_PROBATION_CAP: usize = 16;

/// The longest window a sensor keeps (2³¹ s, 68 years): a dedup entry
/// and a stored query hold a record's offset from its window's start in
/// 31 bits. A longer configured window is cut to this one
/// ([`StreamConfig::resolved_window`]).
pub const MAX_WINDOW: SimDuration = SimDuration(1 << 31);

/// The dedup entry's footprint bit, above the 31-bit offset: set while
/// the pair is stored under its originator's current admission.
const IN_FOOTPRINT: u32 = 1 << 31;

/// The paper's dedup key, one `(originator, querier)` address pair, as
/// two words: 4-aligned, so a dedup entry is 12 bytes, not 16. It
/// hashes as the packed `originator << 32 | querier`, so the table's
/// bucket and tag bits are those of a `u64` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PairKey([u32; 2]);

impl PairKey {
    #[inline]
    fn new(originator: u32, querier: Ipv4Addr) -> Self {
        PairKey([originator, u32::from(querier)])
    }
}

impl Hash for PairKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [originator, querier] = self.0;
        state.write_u64(u64::from(originator) << 32 | u64::from(querier));
    }
}

/// A record's offset from its window's start: below 2³¹ for every
/// record a sensor keeps, since it drops records behind its window and
/// the window is at most [`MAX_WINDOW`] long. Checked in every build:
/// bit 31 is the footprint bit, so a longer offset would corrupt the
/// dedup entry it is stored in.
#[inline]
fn offset_in(window_start: SimTime, t: SimTime) -> u32 {
    let offset = t.since(window_start).secs();
    assert!(offset < MAX_WINDOW.secs(), "{t:?} is past its window at {window_start:?}");
    offset as u32
}

/// Drain packed addresses into a querier column: ascending, unique.
fn sorted_column(scratch: &mut Vec<u32>) -> Vec<Ipv4Addr> {
    scratch.sort_unstable();
    scratch.dedup();
    let column = scratch.iter().map(|&a| Ipv4Addr::from(a)).collect();
    scratch.clear();
    column
}

/// Streaming-sensor configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Window length; past [`MAX_WINDOW`] it is cut to that.
    pub window: SimDuration,
    /// Hard cap on tracked originators per window.
    pub max_originators: usize,
    /// Queries an unknown originator must accumulate (in the probation
    /// table) before it may evict a tracked one.
    pub admission_queries: usize,
    /// Per-querier dedup window (the paper's 30 s).
    pub dedup: SimDuration,
    /// Hard cap on probation entries; `0` means 4 × `max_originators`.
    /// Reaching it clears the probation table (cheap decay: counts
    /// restart, memory stays bounded through one-shot storms).
    pub probation_cap: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: SimDuration::from_days(1),
            max_originators: 100_000,
            admission_queries: 3,
            dedup: DEDUP_WINDOW,
            probation_cap: 0,
        }
    }
}

impl StreamConfig {
    /// The probation cap with the `0 = 4 × max_originators` default
    /// resolved.
    pub fn resolved_probation_cap(&self) -> usize {
        if self.probation_cap == 0 {
            self.max_originators.saturating_mul(4)
        } else {
            self.probation_cap
        }
    }

    /// The window with a length past [`MAX_WINDOW`] cut to it, as every
    /// sensor runs it: such windows start on multiples of 2³¹ s, and
    /// [`Observations::ingest_with_dedup`] observes the first
    /// `MAX_WINDOW` of a longer span.
    pub fn resolved_window(&self) -> SimDuration {
        SimDuration(self.window.secs().min(MAX_WINDOW.secs()))
    }
}

/// A completed window emitted by the streaming sensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSummary {
    /// The window bounds.
    pub window: (SimTime, SimTime),
    /// Per-originator observations of the window.
    pub observations: Observations,
    /// Originators evicted during the window (their counts are lower
    /// bounds; anything that mattered was far above the analyzability
    /// bar before eviction could touch it).
    pub evicted: usize,
}

/// The window clock every sensor in this crate asks, so that they
/// cannot disagree: is `t` at or past the end of the window starting
/// at `start`? Decided by distance from the start — `start + window`
/// overflows for a timestamp near `u64::MAX` (one hostile log line),
/// and a wrapped end would close a window on every record after it.
#[inline]
pub(crate) fn past_window(start: SimTime, window: SimDuration, t: SimTime) -> bool {
    t.since(start) >= window
}

/// The end a window reports, saturated at the clock's limit for the
/// same reason [`past_window`] never computes it.
pub(crate) fn window_end(start: SimTime, window: SimDuration) -> SimTime {
    SimTime(start.secs().saturating_add(window.secs()))
}

/// One arena slot: an originator's stored queries (offset from the
/// window start, querier) and footprint size (the dedup entries whose
/// [`IN_FOOTPRINT`] bit it set), plus the occupancy flag the free list
/// needs.
#[derive(Debug, Default)]
struct Slot {
    originator: u32,
    queries: Vec<(u32, Ipv4Addr)>,
    count: u32,
    occupied: bool,
}

/// Window-local tallies, flushed to the global registry (and the
/// conservation ledger) at window boundaries so the per-record hot
/// path stays atomics-free.
#[derive(Debug, Default)]
struct Tallies {
    records: u64,
    deduped: u64,
    admitted: u64,
    // Conservation-ledger buckets: records held back by the admission
    // filter (split into still-credited and dropped-by-reset), stored
    // queries lost to evicted originators, and late records.
    probation_held: u64,
    probation_dropped: u64,
    evicted_queries: u64,
    out_of_order: u64,
    probation_resets: u64,
}

/// The streaming sensor (fast path).
pub struct StreamingSensor {
    config: StreamConfig,
    probation_cap: usize,
    window_start: SimTime,
    /// Originator (packed IPv4) → arena slot index.
    slot_of: HashMap<u32, u32, IntHash>,
    /// Dense per-originator state; evicted slots recycle via `free`.
    arena: Vec<Slot>,
    free: Vec<u32>,
    /// Lazy eviction heap: `count at push << 32 | originator`
    /// min-entries. Stale entries (count grew, or originator already
    /// evicted) are detected and refreshed/discarded on pop.
    evict_heap: BinaryHeap<Reverse<u64>>,
    /// Admission filter: originator → queries seen while untracked.
    probation: HashMap<u32, u32, IntHash>,
    /// (originator, querier) pair → the last accepted record's offset
    /// from the window start, with the [`IN_FOOTPRINT`] bit.
    last_seen: HashMap<PairKey, u32, IntHash>,
    all_queriers: HashSet<u32, IntHash>,
    /// Flush's sort buffer for querier columns, kept across windows.
    scratch: Vec<u32>,
    evicted: usize,
    started: bool,
    tally: Tallies,
    /// Lifetime count of lazy-heap pops — the eviction-cost
    /// diagnostic the storm regression test bounds.
    heap_pops: u64,
    /// Lifetime dedup-entry probes clearing victims' footprint bits.
    footprint_probes: u64,
    /// Backpressure cell shared with the bs-live watchdog (`0` ok,
    /// `1` degraded, `2` critical). `None` = no watchdog attached.
    pressure: Option<Arc<AtomicU8>>,
    /// When running as one slice of a [`crate::shard`] lane: the lane
    /// index. Flushes then file ledger rows under the per-shard stage
    /// `sensor.stream.shard.<i>`, emit `sensor.shard.<i>.*` counters,
    /// and leave the merged gauges to the sharded driver.
    shard_index: Option<u32>,
}

impl StreamingSensor {
    /// Create a sensor; the first record anchors the first window.
    pub fn new(config: StreamConfig) -> Self {
        assert!(config.window.secs() > 0);
        assert!(config.max_originators > 0);
        StreamingSensor {
            probation_cap: config.resolved_probation_cap(),
            config: StreamConfig { window: config.resolved_window(), ..config },
            window_start: SimTime::ZERO,
            slot_of: HashMap::default(),
            arena: Vec::new(),
            free: Vec::new(),
            evict_heap: BinaryHeap::new(),
            probation: HashMap::default(),
            last_seen: HashMap::default(),
            all_queriers: HashSet::default(),
            scratch: Vec::new(),
            evicted: 0,
            started: false,
            tally: Tallies::default(),
            heap_pops: 0,
            footprint_probes: 0,
            pressure: None,
            shard_index: None,
        }
    }

    /// Mark this sensor as one slice of shard lane `i` — see the
    /// [`shard_index`](Self::shard_index) field. Set once, before the
    /// first record.
    pub(crate) fn set_shard_index(&mut self, i: u32) {
        self.shard_index = Some(i);
    }

    /// Probation resets accumulated in the current (unflushed) window
    /// — a diagnostic for the sharded pressure-broadcast path.
    pub(crate) fn pending_probation_resets(&self) -> u64 {
        self.tally.probation_resets
    }

    /// Attach a shared pressure cell (typically the bs-live watchdog's
    /// `HealthState`). Under pressure the sensor tightens its probation
    /// decay — the admission side-table shrinks to 1/4 of its cap when
    /// degraded (`1`) and 1/16 when critical (`2`), so wholesale
    /// probation clears fire sooner and storm memory drains faster,
    /// while already-tracked heavy hitters stay exact.
    pub fn set_pressure_hook(&mut self, hook: Arc<AtomicU8>) {
        self.pressure = Some(hook);
    }

    /// The probation cap currently in force, after graceful
    /// degradation. One relaxed atomic load on the (already slow)
    /// table-full path; free when no hook is attached.
    fn effective_probation_cap(&self) -> usize {
        let level = match &self.pressure {
            Some(cell) => cell.load(Ordering::Relaxed),
            None => 0,
        };
        let cap = match level {
            0 => self.probation_cap,
            1 => self.probation_cap / 4,
            _ => self.probation_cap / 16,
        };
        cap.max(MIN_PRESSURE_PROBATION_CAP.min(self.probation_cap))
    }

    /// Feed one record (records must arrive in time order). Returns the
    /// completed window when `r` crosses a window boundary. A record
    /// *behind* the current window start is counted and dropped — it
    /// belongs to a window that has already been emitted.
    pub fn push(&mut self, r: QueryLogRecord) -> Option<WindowSummary> {
        if !self.started {
            // Anchor windows at the first record's window boundary.
            self.window_start = SimTime(r.time.secs() - r.time.secs() % self.config.window.secs());
            self.started = true;
        }
        if r.time < self.window_start {
            self.tally.records += 1;
            self.tally.out_of_order += 1;
            return None;
        }
        let mut emitted = None;
        if past_window(self.window_start, self.config.window, r.time) {
            emitted = Some(self.rotate(r.time));
        }
        self.ingest(r);
        emitted
    }

    /// Flush the current (partial) window at end of stream.
    pub fn finish(mut self) -> Option<WindowSummary> {
        if !self.started || self.tracked_originators() == 0 {
            return None;
        }
        Some(self.take_window())
    }

    /// Originators currently tracked (arena occupancy).
    pub fn tracked_originators(&self) -> usize {
        self.slot_of.len()
    }

    /// True when `originator` currently holds an arena slot.
    pub fn is_tracked(&self, originator: Ipv4Addr) -> bool {
        self.slot_of.contains_key(&u32::from(originator))
    }

    /// Lifetime lazy-heap pops performed while picking eviction
    /// victims — a cost diagnostic: with the heap, total pops stay
    /// proportional to admissions, where the seed's full-table scan
    /// paid `max_originators` comparisons *per* admission.
    pub fn eviction_heap_pops(&self) -> u64 {
        self.heap_pops
    }

    fn rotate(&mut self, now: SimTime) -> WindowSummary {
        let summary = self.take_window();
        // Advance to the window containing `now` (possibly skipping
        // empty windows).
        let w = self.config.window.secs();
        self.window_start = SimTime(now.secs() - now.secs() % w);
        summary
    }

    /// Flush the current window — if it holds anything — and re-anchor
    /// at `next_start`. This is the [`crate::shard`] driver's rotation
    /// primitive: the *caller* owns the window clock, which lets every
    /// slice flush the same window even when some slices saw no
    /// records in it (a slice that pushes nothing never rotates on its
    /// own). After the call the sensor is anchored: records in
    /// `[next_start, next_start + window)` accumulate without
    /// re-deriving the grid from their timestamps.
    pub fn flush_to(&mut self, next_start: SimTime) -> Option<WindowSummary> {
        // An anchored slice with an empty arena has nothing to emit:
        // it only ever receives in-window records from the driver, so
        // zero tracked originators means zero tallies too.
        let summary = if self.started && self.tracked_originators() > 0 {
            Some(self.take_window())
        } else {
            None
        };
        self.window_start = next_start;
        self.started = true;
        summary
    }

    fn take_window(&mut self) -> WindowSummary {
        let end = window_end(self.window_start, self.config.window);
        // The sensor knows its window better than the thread does.
        // Single sensors file under the exact ledger stage, sharded
        // slices under the family prefix (the cost table sums the
        // per-shard ledger stages).
        let _window = bs_telemetry::ledger::window_scope(self.window_start.secs());
        let _stage = bs_telemetry::stage(if self.shard_index.is_some() {
            "sensor.stream.shard"
        } else {
            "sensor.stream"
        });
        // Convert the arena into the address-ordered representation the
        // rest of the pipeline consumes — the only ordered work in the
        // streaming sensor, and it happens once per window: each
        // footprint is its stored queriers, sorted and deduplicated.
        let scratch = &mut self.scratch;
        let per_originator: BTreeMap<Ipv4Addr, OriginatorObservation> = self
            .arena
            .drain(..)
            .filter(|slot| slot.occupied)
            .map(|slot| {
                let originator = Ipv4Addr::from(slot.originator);
                scratch.extend(slot.queries.iter().map(|&(_, q)| u32::from(q)));
                let queriers = sorted_column(scratch);
                debug_assert_eq!(queriers.len(), slot.count as usize, "{originator}");
                (originator, OriginatorObservation { originator, queries: slot.queries, queriers })
            })
            .collect();
        scratch.extend(self.all_queriers.drain());
        let observations = Observations {
            window_start: self.window_start,
            window_end: end,
            per_originator,
            all_queriers: sorted_column(scratch),
        };
        self.slot_of.clear();
        self.free.clear();
        self.evict_heap.clear();
        self.probation.clear();
        self.last_seen.clear();
        let evicted = std::mem::take(&mut self.evicted);
        let t = std::mem::take(&mut self.tally);
        bs_telemetry::counter_add("sensor.stream.records", t.records);
        bs_telemetry::counter_add("sensor.stream.dedup_suppressed", t.deduped);
        bs_telemetry::counter_add("sensor.stream.admissions", t.admitted);
        bs_telemetry::counter_add("sensor.stream.evictions", evicted as u64);
        bs_telemetry::counter_add("sensor.stream.out_of_order", t.out_of_order);
        bs_telemetry::counter_add("sensor.stream.probation_resets", t.probation_resets);
        // Counter samples go to the registry and to the flight recorder.
        let counted = bs_telemetry::is_enabled() || bs_telemetry::trace::is_enabled();
        if let (Some(i), true) = (self.shard_index, counted) {
            // Per-shard counters next to the global rollups above,
            // so shard skew is observable without losing the merged
            // totals. The names are only built when a sink takes them.
            bs_telemetry::counter_add(&format!("sensor.shard.{i}.ingested"), t.records);
            bs_telemetry::counter_add(&format!("sensor.shard.{i}.evictions"), evicted as u64);
            bs_telemetry::counter_add(
                &format!("sensor.shard.{i}.probation_resets"),
                t.probation_resets,
            );
        }
        if bs_telemetry::ledger::is_active() {
            // Window conservation: every record this window was stored
            // (and survives in the emitted observations), deduped, held
            // in probation (still credited or dropped by a cap reset),
            // stored-then-lost to an eviction, or dropped as late.
            // Sharded slices book under their lane's own stage: a
            // wholesale probation clear on one shard rebooks
            // held→dropped only there, and conservation verifies both
            // per shard and summed across shards.
            let kept: u64 =
                observations.per_originator.values().map(|o| o.queries.len() as u64).sum();
            let stage: std::borrow::Cow<'static, str> = match self.shard_index {
                Some(i) => format!("sensor.stream.shard.{i}").into(),
                None => "sensor.stream".into(),
            };
            bs_telemetry::ledger::record(
                &stage,
                t.records,
                &[
                    ("kept", kept),
                    ("deduped", t.deduped),
                    ("probation_held", t.probation_held),
                    ("probation_dropped", t.probation_dropped),
                    ("evicted_queries", t.evicted_queries),
                    ("out_of_order", t.out_of_order),
                ],
            );
        }
        if self.shard_index.is_none() {
            // The sharded driver publishes these gauges merged across
            // lanes; individual slices flushing in parallel would race
            // to a meaningless last-writer value.
            bs_telemetry::gauge_set("sensor.window_evicted", evicted as i64);
            bs_telemetry::gauge_set(
                "sensor.tracked_originators",
                observations.per_originator.len() as i64,
            );
        }
        WindowSummary { window: (self.window_start, end), observations, evicted }
    }

    fn ingest(&mut self, r: QueryLogRecord) {
        self.tally.records += 1;
        // Dedup identical querier/originator pairs inside the window.
        let originator = u32::from(r.originator);
        let key = PairKey::new(originator, r.querier);
        let offset = offset_in(self.window_start, r.time);
        let seen = match self.last_seen.entry(key) {
            Entry::Occupied(last)
                if u64::from(offset.saturating_sub(*last.get() & !IN_FOOTPRINT))
                    < self.config.dedup.secs() =>
            {
                self.tally.deduped += 1;
                return;
            }
            Entry::Occupied(last) => {
                let seen = last.into_mut();
                *seen = offset | (*seen & IN_FOOTPRINT);
                seen
            }
            Entry::Vacant(first) => first.insert(offset),
        };
        self.all_queriers.insert(u32::from(r.querier));

        if let Some(&slot) = self.slot_of.get(&originator) {
            let s = &mut self.arena[slot as usize];
            s.queries.push((offset, r.querier));
            // The pair's first store since the originator's admission.
            s.count += u32::from(*seen & IN_FOOTPRINT == 0);
            *seen |= IN_FOOTPRINT;
            return;
        }
        if self.slot_of.len() >= self.config.max_originators {
            // Admission control: count in probation first. The
            // probation table is itself capped — a storm of one-shot
            // originators otherwise grows it without bound inside a
            // window — and clears wholesale when full (counts already
            // credited to `probation_held` move to `probation_dropped`
            // so the conservation ledger still balances).
            if self.probation.len() >= self.effective_probation_cap()
                && !self.probation.contains_key(&originator)
            {
                let dropped: u64 = self.probation.values().map(|&c| c as u64).sum();
                self.tally.probation_held -= dropped;
                self.tally.probation_dropped += dropped;
                self.tally.probation_resets += 1;
                self.probation.clear();
            }
            let hits = self.probation.entry(originator).or_insert(0);
            *hits += 1;
            if (*hits as usize) < self.config.admission_queries {
                self.tally.probation_held += 1;
                return;
            }
            self.evict_smallest();
            self.probation.remove(&originator);
            self.tally.admitted += 1;
        }
        // Admit: recycle a freed slot (keeping its allocations) or
        // grow the arena.
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.arena.push(Slot::default());
                (self.arena.len() - 1) as u32
            }
        };
        let s = &mut self.arena[slot as usize];
        s.occupied = true;
        s.originator = originator;
        s.queries.push((offset, r.querier));
        s.count = 1;
        self.slot_of.insert(originator, slot);
        self.evict_heap.push(Reverse((1 << 32) | u64::from(originator)));
        if let Some(seen) = self.last_seen.get_mut(&key) {
            *seen |= IN_FOOTPRINT;
        }
    }

    /// Evict the tracked originator with the smallest
    /// `(querier count, address)` — the same victim the reference's
    /// full-table scan picks — via the lazy heap: pop candidates,
    /// discard entries for already-evicted originators, refresh
    /// entries whose footprint has grown since they were pushed, and
    /// evict the first entry whose recorded count is current. Since
    /// footprints only grow, a refreshed entry can only move *later*
    /// in the order, so the first current entry is the true minimum.
    /// The victim's stored queries leave its footprint: one probe each
    /// clears their dedup entries' bits.
    fn evict_smallest(&mut self) {
        while let Some(Reverse(entry)) = self.evict_heap.pop() {
            self.heap_pops += 1;
            let (count, originator) = ((entry >> 32) as u32, entry as u32);
            let Some(&slot) = self.slot_of.get(&originator) else {
                continue; // stale: originator already evicted
            };
            let s = &mut self.arena[slot as usize];
            if s.count != count {
                self.evict_heap.push(Reverse((u64::from(s.count) << 32) | u64::from(originator)));
                continue; // stale: footprint grew since the push
            }
            self.slot_of.remove(&originator);
            for &(_, q) in &s.queries {
                self.footprint_probes += 1;
                if let Some(seen) = self.last_seen.get_mut(&PairKey::new(originator, q)) {
                    *seen &= !IN_FOOTPRINT;
                }
            }
            self.tally.evicted_queries += s.queries.len() as u64;
            s.queries.clear();
            s.count = 0;
            s.occupied = false;
            self.free.push(slot);
            self.evicted += 1;
            return;
        }
        // Unreachable while the table is full (every tracked
        // originator keeps at least one heap entry), but harmless: an
        // empty heap just means there is nothing to evict.
    }
}

/// The reference implementation of [`StreamingSensor`], compiled for
/// tests only: the original BTree/std-container sensor, kept as the
/// executable specification the fast path is property-tested against
/// (same per-originator streams, querier sets, dedup decisions,
/// probation accounting, and evictions — the eviction victim here is
/// picked by the seed's O(n) `min_by_key` scan). Beside each stored
/// query's offset it records the query's time, one [`QueryTimes`] per
/// window taken ([`recorded`](Self::recorded)), for the suites to check
/// the offsets against. No telemetry — it defines behavior, it does not
/// run in production.
#[cfg(test)]
pub(crate) struct ReferenceStreamingSensor {
    config: StreamConfig,
    probation_cap: usize,
    window_start: SimTime,
    per_originator: std::collections::BTreeMap<Ipv4Addr, OriginatorObservation>,
    times: QueryTimes,
    recorded: Vec<QueryTimes>,
    probation: std::collections::HashMap<Ipv4Addr, usize>,
    last_seen: std::collections::HashMap<(Ipv4Addr, Ipv4Addr), SimTime>,
    all_queriers: std::collections::BTreeSet<Ipv4Addr>,
    evicted: usize,
    started: bool,
}

#[cfg(test)]
impl ReferenceStreamingSensor {
    /// Create a reference sensor; the first record anchors the window.
    pub(crate) fn new(config: StreamConfig) -> Self {
        assert!(config.window.secs() > 0);
        assert!(config.max_originators > 0);
        ReferenceStreamingSensor {
            probation_cap: config.resolved_probation_cap(),
            config: StreamConfig { window: config.resolved_window(), ..config },
            window_start: SimTime::ZERO,
            per_originator: std::collections::BTreeMap::new(),
            times: QueryTimes::new(),
            recorded: Vec::new(),
            probation: std::collections::HashMap::new(),
            last_seen: std::collections::HashMap::new(),
            all_queriers: std::collections::BTreeSet::new(),
            evicted: 0,
            started: false,
        }
    }

    /// Feed one record; semantics identical to
    /// [`StreamingSensor::push`].
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
            emitted = Some(self.rotate(r.time));
        }
        self.ingest(r);
        emitted
    }

    /// Flush the current (partial) window at end of stream.
    pub(crate) fn finish(&mut self) -> Option<WindowSummary> {
        if !self.started || self.per_originator.is_empty() {
            return None;
        }
        Some(self.take_window())
    }

    /// The times of the stored queries of every window taken so far, in
    /// order, each originator's in the order of its stored queries.
    pub(crate) fn recorded(&self) -> &[QueryTimes] {
        &self.recorded
    }

    fn rotate(&mut self, now: SimTime) -> WindowSummary {
        let summary = self.take_window();
        let w = self.config.window.secs();
        self.window_start = SimTime(now.secs() - now.secs() % w);
        summary
    }

    /// Flush the current window (if non-empty) and re-anchor at
    /// `next_start`; semantics identical to
    /// [`StreamingSensor::flush_to`].
    pub(crate) fn flush_to(&mut self, next_start: SimTime) -> Option<WindowSummary> {
        let summary = if self.started && !self.per_originator.is_empty() {
            Some(self.take_window())
        } else {
            None
        };
        self.window_start = next_start;
        self.started = true;
        summary
    }

    fn take_window(&mut self) -> WindowSummary {
        let end = window_end(self.window_start, self.config.window);
        let observations = Observations {
            window_start: self.window_start,
            window_end: end,
            per_originator: std::mem::take(&mut self.per_originator),
            all_queriers: std::mem::take(&mut self.all_queriers).into_iter().collect(),
        };
        self.recorded.push(std::mem::take(&mut self.times));
        self.probation.clear();
        self.last_seen.clear();
        let evicted = std::mem::take(&mut self.evicted);
        WindowSummary { window: (self.window_start, end), observations, evicted }
    }

    fn ingest(&mut self, r: QueryLogRecord) {
        use std::collections::btree_map::Entry;
        let key = (r.originator, r.querier);
        match self.last_seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if r.time.since(*e.get()) < self.config.dedup {
                    return; // deduped
                }
                e.insert(r.time);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(r.time);
            }
        }
        self.all_queriers.insert(r.querier);

        let offset = r.time.since(self.window_start).secs() as u32;
        match self.per_originator.entry(r.originator) {
            Entry::Occupied(mut e) => {
                let o = e.get_mut();
                o.queries.push((offset, r.querier));
                o.insert_querier(r.querier);
                self.times.entry(r.originator).or_default().push(r.time);
            }
            Entry::Vacant(_) => {
                if self.per_originator.len() >= self.config.max_originators {
                    // Probation cap: clear wholesale when full and a
                    // new entry is needed.
                    if self.probation.len() >= self.probation_cap
                        && !self.probation.contains_key(&r.originator)
                    {
                        self.probation.clear();
                    }
                    // Admission control: count in probation first.
                    let hits = self.probation.entry(r.originator).or_insert(0);
                    *hits += 1;
                    if *hits < self.config.admission_queries {
                        return; // held
                    }
                    // Evict the smallest tracked originator (full scan).
                    if let Some(victim) = self
                        .per_originator
                        .iter()
                        .min_by_key(|(ip, o)| (o.querier_count(), **ip))
                        .map(|(ip, _)| *ip)
                    {
                        self.per_originator.remove(&victim);
                        self.times.remove(&victim);
                        self.evicted += 1;
                    }
                    self.probation.remove(&r.originator);
                }
                let mut o =
                    OriginatorObservation { originator: r.originator, ..Default::default() };
                o.queries.push((offset, r.querier));
                o.insert_querier(r.querier);
                self.per_originator.insert(r.originator, o);
                self.times.insert(r.originator, vec![r.time]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dns::Rcode;

    fn rec(t: u64, q: u32, o: u32) -> QueryLogRecord {
        QueryLogRecord {
            time: SimTime(t),
            querier: Ipv4Addr::from(0x0A00_0000 | q),
            originator: Ipv4Addr::from(0xCB00_0000 | o),
            rcode: Rcode::NoError,
        }
    }

    #[test]
    fn matches_batch_ingestion_when_unbounded() {
        // Stream vs the BTree batch reference over the same records
        // must agree exactly.
        let records: Vec<QueryLogRecord> =
            (0..500u32).map(|i| rec((i as u64 * 37) % 86_000, i % 40, i % 7)).collect();
        let mut sorted = records.clone();
        sorted.sort_by_key(|r| r.time);

        let mut log = bs_netsim::log::QueryLog::new();
        for r in &sorted {
            log.push(*r);
        }
        let (batch, times) = Observations::ingest_with_dedup_reference(
            &log,
            SimTime(0),
            SimTime(86_400),
            DEDUP_WINDOW,
        );

        let mut sensor = StreamingSensor::new(StreamConfig::default());
        for r in &sorted {
            assert!(sensor.push(*r).is_none(), "all inside one window");
        }
        let window = sensor.finish().expect("one window");
        assert_eq!(window.observations.per_originator, batch.per_originator);
        assert_eq!(window.observations.all_queriers, batch.all_queriers);
        crate::ingest::assert_offsets_are_times(&window.observations, &times);
        assert_eq!(window.evicted, 0);
    }

    #[test]
    fn windows_rotate_on_boundaries() {
        let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };
        let mut sensor = StreamingSensor::new(cfg);
        assert!(sensor.push(rec(10, 1, 1)).is_none());
        assert!(sensor.push(rec(99, 2, 1)).is_none());
        let w1 = sensor.push(rec(100, 3, 1)).expect("boundary crossed");
        assert_eq!(w1.window, (SimTime(0), SimTime(100)));
        assert_eq!(w1.observations.per_originator.len(), 1);
        assert_eq!(w1.observations.per_originator.values().next().unwrap().querier_count(), 2);
        // Jumping several windows ahead lands in the right window.
        let w2 = sensor.push(rec(555, 4, 2)).expect("second window emitted");
        assert_eq!(w2.window.0, SimTime(100));
        let w3 = sensor.finish().expect("final flush");
        assert_eq!(w3.window.0, SimTime(500));
    }

    #[test]
    fn memory_bound_preserves_heavy_hitters() {
        let cfg = StreamConfig {
            window: SimDuration::from_days(1),
            max_originators: 10,
            admission_queries: 3,
            ..Default::default()
        };
        let mut sensor = StreamingSensor::new(cfg);
        let mut t = 0u64;
        // One heavy originator with 50 queriers…
        for q in 0..50u32 {
            sensor.push(rec(t, q, 999));
            t += 40;
        }
        // …then a storm of 200 one-shot originators.
        for o in 0..200u32 {
            sensor.push(rec(t, o + 100, o));
            t += 1;
        }
        let w = sensor.finish().expect("window");
        let heavy = Ipv4Addr::from(0xCB00_0000 | 999);
        let obs =
            w.observations.per_originator.get(&heavy).expect("heavy hitter survives the storm");
        assert_eq!(obs.querier_count(), 50);
        assert!(w.observations.per_originator.len() <= 10);
    }

    #[test]
    fn admission_filter_requires_repeat_visits() {
        let cfg = StreamConfig {
            window: SimDuration::from_days(1),
            max_originators: 2,
            admission_queries: 3,
            ..Default::default()
        };
        let mut sensor = StreamingSensor::new(cfg);
        sensor.push(rec(0, 1, 1));
        sensor.push(rec(31, 2, 1));
        sensor.push(rec(62, 3, 2));
        // A single-shot stranger must not evict anyone…
        sensor.push(rec(93, 4, 3));
        assert_eq!(sensor.tracked_originators(), 2);
        assert!(!sensor.is_tracked(Ipv4Addr::from(0xCB00_0000 | 3)));
        // …but a persistent one (3 distinct queriers, spaced) gets in.
        sensor.push(rec(200, 5, 3));
        sensor.push(rec(300, 6, 3));
        assert!(sensor.is_tracked(Ipv4Addr::from(0xCB00_0000 | 3)));
    }

    #[test]
    fn eviction_accounting_matches_summary_and_counter() {
        // Regression: WindowSummary::evicted must count exactly the
        // admission-filter evictions, and the global eviction counter
        // must advance by at least as much (other tests share the
        // process-wide registry, so the counter delta is a lower bound).
        bs_telemetry::enable();
        let counter_before = bs_telemetry::registry().counter("sensor.stream.evictions").get();

        let cfg = StreamConfig {
            window: SimDuration::from_days(1),
            max_originators: 3,
            admission_queries: 2,
            ..Default::default()
        };
        let mut sensor = StreamingSensor::new(cfg);
        // Fill the table with three originators.
        for o in 1..=3u32 {
            sensor.push(rec(o as u64, o, o));
        }
        assert_eq!(sensor.tracked_originators(), 3);
        // Newcomer 10: first visit lands in probation, second evicts.
        sensor.push(rec(100, 10, 10));
        assert_eq!(sensor.evicted, 0, "probation must not evict");
        sensor.push(rec(200, 11, 10));
        assert_eq!(sensor.evicted, 1, "admission must evict exactly one");
        // Newcomer 20 repeats the dance for a second eviction.
        sensor.push(rec(300, 20, 20));
        sensor.push(rec(400, 21, 20));
        assert_eq!(sensor.evicted, 2);

        let w = sensor.finish().expect("window");
        assert_eq!(w.evicted, 2, "summary must report both evictions");
        assert!(w.observations.per_originator.len() <= 3);

        let counter_after = bs_telemetry::registry().counter("sensor.stream.evictions").get();
        assert!(
            counter_after - counter_before >= 2,
            "eviction counter must advance by at least the window's evictions \
             (before={counter_before}, after={counter_after})"
        );
        // The gauge publishes the most recent window flush; some other
        // test may flush concurrently, so only check it is non-negative.
        assert!(bs_telemetry::registry().gauge("sensor.window_evicted").get() >= 0);
    }

    #[test]
    fn dedup_applies_in_stream() {
        let mut sensor = StreamingSensor::new(StreamConfig::default());
        sensor.push(rec(0, 1, 1));
        sensor.push(rec(10, 1, 1)); // dropped
        sensor.push(rec(31, 1, 1)); // kept
        let w = sensor.finish().unwrap();
        let o = w.observations.per_originator.values().next().unwrap();
        assert_eq!(o.query_count(), 2);
    }

    #[test]
    fn empty_stream_finishes_empty() {
        let sensor = StreamingSensor::new(StreamConfig::default());
        assert!(sensor.finish().is_none());
    }

    #[test]
    fn out_of_order_records_are_counted_and_dropped() {
        bs_telemetry::enable();
        let before = bs_telemetry::registry().counter("sensor.stream.out_of_order").get();
        let cfg = StreamConfig { window: SimDuration::from_secs(100), ..Default::default() };
        let mut sensor = StreamingSensor::new(cfg);
        sensor.push(rec(150, 1, 1)); // anchors window [100, 200)
        assert!(sensor.push(rec(99, 2, 2)).is_none(), "late record must not rotate");
        assert!(!sensor.is_tracked(Ipv4Addr::from(0xCB00_0000 | 2)), "late record dropped");
        // A late record must also never be credited to a *new* window
        // after rotation.
        let w = sensor.push(rec(250, 3, 3)).expect("rotation");
        assert_eq!(w.observations.per_originator.len(), 1);
        sensor.push(rec(201, 4, 4)); // in-window, fine
        assert!(sensor.push(rec(150, 5, 5)).is_none());
        assert!(!sensor.is_tracked(Ipv4Addr::from(0xCB00_0000 | 5)));
        let w = sensor.finish().expect("final window");
        assert_eq!(w.observations.per_originator.len(), 2);
        let after = bs_telemetry::registry().counter("sensor.stream.out_of_order").get();
        assert!(after - before >= 2, "both late records counted (before={before}, after={after})");
    }

    #[test]
    fn probation_table_is_capped() {
        bs_telemetry::enable();
        let before = bs_telemetry::registry().counter("sensor.stream.probation_resets").get();
        let cfg = StreamConfig {
            window: SimDuration::from_days(1),
            max_originators: 4,
            admission_queries: 100, // nothing ever admits: pure probation pressure
            probation_cap: 16,
            ..Default::default()
        };
        let mut sensor = StreamingSensor::new(cfg);
        // Fill the tracked table.
        for o in 0..4u32 {
            sensor.push(rec(o as u64, o, o));
        }
        // A storm of 10 000 distinct one-shot originators: without the
        // cap the probation table would hold all of them.
        for o in 0..10_000u32 {
            sensor.push(rec(100 + o as u64, o % 200, 1000 + o));
        }
        assert!(
            sensor.probation.len() <= 16,
            "probation table exceeded its cap: {}",
            sensor.probation.len()
        );
        let w = sensor.finish().expect("window");
        assert_eq!(w.observations.per_originator.len(), 4, "tracked set unaffected by the storm");
        let after = bs_telemetry::registry().counter("sensor.stream.probation_resets").get();
        assert!(after > before, "cap resets must be counted");
    }

    #[test]
    fn pressure_hook_tightens_probation_decay() {
        let cfg = StreamConfig {
            window: SimDuration::from_days(1),
            max_originators: 4,
            admission_queries: 100, // nothing admits: pure probation load
            probation_cap: 4_096,
            ..Default::default()
        };
        let hook = Arc::new(AtomicU8::new(0));
        let mut sensor = StreamingSensor::new(cfg);
        sensor.set_pressure_hook(Arc::clone(&hook));
        for o in 0..4u32 {
            sensor.push(rec(o as u64, o, o));
        }
        // Healthy: the full probation cap is in force.
        for o in 0..2_000u32 {
            sensor.push(rec(100 + o as u64, o % 100, 1_000 + o));
        }
        assert_eq!(sensor.tally.probation_resets, 0, "2000 < 4096: no reset while healthy");
        assert_eq!(sensor.probation.len(), 2_000);

        // The watchdog flips to degraded: cap shrinks to 1024, so the
        // next newcomer finds the table over-full and clears it.
        hook.store(1, Ordering::Relaxed);
        sensor.push(rec(10_000, 1, 50_000));
        assert_eq!(sensor.tally.probation_resets, 1, "degraded cap forces the decay");
        assert!(sensor.probation.len() <= 1_024);

        // Critical shrinks it to 256.
        hook.store(2, Ordering::Relaxed);
        for o in 0..400u32 {
            sensor.push(rec(20_000 + o as u64, o % 100, 60_000 + o));
        }
        assert!(sensor.probation.len() <= 256, "critical cap: {}", sensor.probation.len());
        assert!(sensor.tally.probation_resets >= 2);

        // Recovery restores the configured cap; tracked set unharmed.
        hook.store(0, Ordering::Relaxed);
        assert_eq!(sensor.effective_probation_cap(), 4_096);
        let w = sensor.finish().expect("window");
        assert_eq!(w.observations.per_originator.len(), 4, "tracked heavy hitters survive");
    }

    #[test]
    fn pressure_floor_keeps_a_minimum_probation_table() {
        // Even critical pressure must not shrink probation below the
        // floor (or below a deliberately tiny configured cap).
        let cfg = StreamConfig {
            window: SimDuration::from_days(1),
            max_originators: 4,
            admission_queries: 100,
            probation_cap: 64,
            ..Default::default()
        };
        let hook = Arc::new(AtomicU8::new(2));
        let mut sensor = StreamingSensor::new(cfg);
        sensor.set_pressure_hook(Arc::clone(&hook));
        assert_eq!(sensor.effective_probation_cap(), 16, "64/16=4 clamps up to the floor");

        let tiny = StreamConfig { probation_cap: 8, ..cfg };
        let mut sensor = StreamingSensor::new(tiny);
        sensor.set_pressure_hook(hook);
        assert_eq!(sensor.effective_probation_cap(), 8, "caps below the floor are kept as-is");
    }

    #[test]
    fn eviction_work_is_sublinear_on_storms() {
        // Regression for the seed's O(n) full-table eviction scan: a
        // storm driving thousands of admissions through a large table
        // must do work proportional to the admissions, not to
        // admissions × table size. With the lazy heap, each admission
        // costs a couple of pops (the victim, plus the occasional
        // stale refresh); the scan it replaced cost `max_originators`
        // comparisons every time.
        let max = 2_000usize;
        let cfg = StreamConfig {
            window: SimDuration::from_days(1),
            max_originators: max,
            admission_queries: 2,
            ..Default::default()
        };
        let mut sensor = StreamingSensor::new(cfg);
        // Fill the table, two queriers per originator so the fill
        // cohort outranks the storm's singletons. All (originator,
        // querier) pairs are distinct, so the dedup window never
        // triggers and the whole run stays inside one day-long window.
        for o in 0..max as u32 {
            sensor.push(rec(o as u64, 2 * o, o));
            sensor.push(rec(o as u64 + 1, 2 * o + 1, o));
        }
        // Storm: 4 000 newcomers, each admitted on its second visit.
        let storm = 4_000u32;
        for o in 0..storm {
            let t = 10_000 + o as u64;
            sensor.push(rec(t, o, 100_000 + o));
            sensor.push(rec(t + 1, o + 1, 100_000 + o));
        }
        let pops = sensor.eviction_heap_pops();
        let w = sensor.finish().expect("window");
        assert_eq!(w.evicted, storm as usize, "every storm admission evicts exactly once");
        // Generous bound: a handful of pops per eviction, independent
        // of table size. The replaced scan would score 4 000 × 2 000 =
        // 8 000 000 on this workload's equivalent metric.
        assert!(
            pops <= 8 * storm as u64 + max as u64,
            "lazy heap did too much work: {pops} pops for {storm} evictions"
        );
    }

    #[test]
    fn clearing_footprint_bits_costs_at_most_the_stored_records() {
        // Victims with one querier asked many times, 31 s apart: each
        // repeat is a stored record, and eviction probes one dedup
        // entry per stored record, never more.
        let (max, repeats, storm) = (100u32, 10u64, 1_000u32);
        let cfg = StreamConfig {
            window: SimDuration::from_days(30),
            max_originators: max as usize,
            admission_queries: 2,
            ..Default::default()
        };
        let mut sensor = StreamingSensor::new(cfg);
        for k in 0..repeats {
            for o in 0..max {
                sensor.push(rec(k * 31, o, o));
            }
        }
        // Each newcomer's first visit is held; its second admits it,
        // evicting a single-querier originator, and the rest are stored.
        let mut t = repeats * 31;
        for o in 0..storm {
            for _ in 0..=repeats {
                sensor.push(rec(t, o, 10_000 + o));
                t += 31;
            }
        }
        let stored = u64::from(max + storm) * repeats;
        let probes = sensor.footprint_probes;
        assert_eq!(probes, sensor.tally.evicted_queries, "one probe per evicted stored query");
        assert!(probes <= stored, "{probes} probes for {stored} stored records");
        let w = sensor.finish().expect("window");
        assert_eq!(w.evicted, storm as usize);
    }

    /// Feed `records` to the sensor and to the reference, which must
    /// agree on every window, the last one's offsets giving the times
    /// the reference recorded; returns the sensor's footprint count for
    /// originator `o` before the final flush, and that flush.
    fn against_reference(
        cfg: StreamConfig,
        records: &[QueryLogRecord],
        o: u32,
    ) -> (Option<u32>, WindowSummary) {
        let mut fast = StreamingSensor::new(cfg);
        let mut reference = ReferenceStreamingSensor::new(cfg);
        for r in records {
            assert_eq!(fast.push(*r), reference.push(*r), "{r:?}");
        }
        let slot = fast.slot_of.get(&u32::from(rec(0, 0, o).originator));
        let count = slot.map(|&s| fast.arena[s as usize].count);
        let last = fast.finish().expect("a window");
        assert_eq!(Some(&last), reference.finish().as_ref());
        let times = reference.recorded().last().expect("the reference took the window");
        crate::ingest::assert_offsets_are_times(&last.observations, times);
        (count, last)
    }

    #[test]
    fn a_pair_held_in_probation_counts_once_after_admission() {
        let cfg = StreamConfig { max_originators: 1, admission_queries: 2, ..Default::default() };
        let records = [
            rec(0, 1, 1),   // originator 1 fills the table
            rec(100, 7, 2), // held: (2, 7) must not join a footprint
            rec(200, 8, 2), // admitted through querier 8
            rec(300, 7, 2), // querier 7's first store: counts
            rec(400, 7, 2), // stored again: does not
        ];
        let (count, w) = against_reference(cfg, &records, 2);
        assert_eq!(count, Some(2));
        let o = &w.observations.per_originator[&rec(0, 0, 2).originator];
        assert_eq!((o.querier_count(), o.query_count()), (2, 3));
    }

    #[test]
    fn a_readmitted_originator_counts_its_old_queriers_again() {
        let cfg = StreamConfig { max_originators: 1, admission_queries: 1, ..Default::default() };
        let records = [
            rec(0, 1, 1),
            rec(1, 2, 1),  // originator 1: queriers 1 and 2
            rec(10, 5, 2), // originator 2 evicts it
            rec(50, 3, 1), // re-admitted through querier 3, evicting 2
            rec(60, 1, 1), // querier 1 is new to this admission
        ];
        let (count, w) = against_reference(cfg, &records, 1);
        assert_eq!(count, Some(2));
        let o = &w.observations.per_originator[&rec(0, 0, 1).originator];
        assert_eq!(o.queriers, [rec(0, 1, 0).querier, rec(0, 3, 0).querier]);
        assert_eq!(w.evicted, 2);
    }

    #[test]
    fn repeats_past_the_dedup_window_never_double_count() {
        let records = [
            rec(0, 1, 1),
            rec(30, 1, 1),
            rec(45, 2, 1),
            rec(60, 1, 1),
            rec(90, 1, 1),
            rec(100, 1, 1),
        ];
        let (count, w) = against_reference(StreamConfig::default(), &records, 1);
        assert_eq!(count, Some(2));
        let o = &w.observations.per_originator[&rec(0, 0, 1).originator];
        assert_eq!((o.querier_count(), o.query_count()), (2, 5), "the repeat at 100 s is deduped");
    }

    #[test]
    fn a_repeat_at_the_window_limit_dedups_as_the_reference_does() {
        // A window of 2³¹ s starting at 2³¹: every timestamp has bit 31
        // set, the offsets 2³¹ − 31, 2³¹ − 2 and 2³¹ − 1 do not.
        let cfg = StreamConfig { window: MAX_WINDOW, ..Default::default() };
        let start = 1u64 << 31;
        let records = [
            rec(start + (start - 31), 1, 1),
            rec(start + (start - 2), 1, 1), // 29 s later: deduped
            rec(start + (start - 1), 1, 1), // 30 s after the first: kept
        ];
        let (count, w) = against_reference(cfg, &records, 1);
        assert_eq!(count, Some(1));
        assert_eq!(w.window, (SimTime(start), SimTime(2 * start)));
        let o = &w.observations.per_originator[&rec(0, 0, 1).originator];
        assert_eq!(
            o.queries.iter().map(|q| q.0).collect::<Vec<_>>(),
            [(1 << 31) - 31, u32::MAX >> 1]
        );
    }

    #[test]
    fn windows_past_the_bound_are_cut_to_it() {
        let long = StreamConfig { window: SimDuration(u64::MAX), ..Default::default() };
        assert_eq!(long.resolved_window(), MAX_WINDOW);
        let records = [rec(5, 1, 1), rec(1 << 31, 2, 2)];
        let mut sensor = StreamingSensor::new(long);
        assert!(sensor.push(records[0]).is_none());
        let first = sensor.push(records[1]).expect("2³¹ s opens the next window");
        assert_eq!(first.window, (SimTime(0), SimTime(1 << 31)));
        let second = sensor.finish().expect("window");
        assert_eq!(second.window, (SimTime(1 << 31), SimTime(1 << 32)));
        // A batch window observes its first 2³¹ s and says so.
        let log = bs_netsim::log::QueryLog::from_records(records.to_vec());
        let obs = Observations::ingest(&log, SimTime(0), SimTime(u64::MAX));
        assert_eq!(obs.window_end, SimTime(1 << 31));
        assert_eq!(obs.per_originator, first.observations.per_originator);
    }

    #[test]
    fn a_dedup_entry_is_12_bytes_and_a_stored_query_8() {
        fn entry_size<K, V, S>(_: &HashMap<K, V, S>) -> usize {
            std::mem::size_of::<(K, V)>()
        }
        fn element_size<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let sensor = StreamingSensor::new(StreamConfig::default());
        assert_eq!(entry_size(&sensor.last_seen), 12);
        assert_eq!(element_size(&Slot::default().queries), 8);
        assert_eq!(element_size(&OriginatorObservation::default().queries), 8);
    }

    #[test]
    fn arena_slots_are_recycled_after_eviction() {
        let cfg = StreamConfig {
            window: SimDuration::from_days(1),
            max_originators: 8,
            admission_queries: 1, // every newcomer admits immediately
            ..Default::default()
        };
        let mut sensor = StreamingSensor::new(cfg);
        for o in 0..1_000u32 {
            sensor.push(rec(o as u64 * 40, o % 50, o));
        }
        assert!(
            sensor.arena.len() <= 9,
            "arena must recycle evicted slots, not grow per admission (len={})",
            sensor.arena.len()
        );
        let w = sensor.finish().expect("window");
        assert!(w.observations.per_originator.len() <= 8);
    }
}

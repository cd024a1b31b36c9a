//! The benchmark's own oracle.
//!
//! [`Oracle::build`] recounts the expected log with `BTreeMap`s and the
//! 30 s rule, knowing nothing of the sensor's tables, the library's
//! reference twins or the generator's random stream. [`Checker`] then
//! holds every window a pass emits against that recount:
//!
//! * the analyzable set equals the recount's heavy set, and each
//!   emitted originator's unique-querier and deduplicated query counts
//!   equal the recount's;
//! * conservation: records in = stored + deduplicated + late + losses,
//!   where losses touch only light originators, never exceed what the
//!   recount kept for them, are zero while the tracked table has room,
//!   and are otherwise bounded by `WindowSummary.evicted`;
//! * an FNV-64 digest over the verdict rows, per window, which every
//!   pass of every mode must reproduce.

use crate::gen::{Inputs, Truth, MIN_QUERIERS};
use backscatter_core::activity::ApplicationClass;
use backscatter_core::netsim::capture::CaptureStats;
use backscatter_core::netsim::QueryLogRecord;
use backscatter_core::sensor::{OriginatorFeatures, WindowSummary};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// The sensor's dedup window (the paper's 30 s).
const DEDUP_SECS: u64 = 30;

/// One originator of one window, as the naive recount sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub originator: Ipv4Addr,
    pub queriers: u32,
    /// Queries surviving the 30 s rule.
    pub kept: u32,
    /// Ground truth, present for every originator generated as heavy.
    pub truth: Option<Truth>,
}

#[derive(Debug, Clone, Default)]
pub struct WindowTruth {
    pub start: u64,
    /// Index of the window's first record in the expected log.
    pub first_record: usize,
    /// Records arriving while the window is open, late ones included.
    pub records: u64,
    pub late: u64,
    pub deduped: u64,
    /// Sorted by address, so a pass can merge-join against it.
    pub originators: Vec<Expected>,
    pub heavy: usize,
    /// Largest kept-query count of any light originator.
    pub light_kept_max: u64,
}

impl WindowTruth {
    fn find(&self, originator: Ipv4Addr) -> Option<&Expected> {
        self.originators
            .binary_search_by_key(&originator, |e| e.originator)
            .ok()
            .map(|i| &self.originators[i])
    }
}

pub struct Oracle {
    pub windows: Vec<WindowTruth>,
    pub max_originators: usize,
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Digest of a pass: FNV over its per-window digests.
pub fn pass_digest(window_digests: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for d in window_digests {
        h.write(&d.to_be_bytes());
    }
    h.0
}

impl Oracle {
    /// Recount `inputs.records` window by window. A record is late when
    /// it is stamped before the start of the newest window seen so far.
    pub fn build(inputs: &Inputs) -> Oracle {
        let window_secs = inputs.shape.window_secs;
        let mut windows: Vec<WindowTruth> = Vec::new();
        // originator → querier → (last kept time, kept count)
        let mut open: BTreeMap<Ipv4Addr, BTreeMap<Ipv4Addr, (u64, u32)>> = BTreeMap::new();
        let mut current = WindowTruth::default();
        let mut started = false;

        let mut close =
            |w: &mut WindowTruth, open: &mut BTreeMap<Ipv4Addr, BTreeMap<Ipv4Addr, (u64, u32)>>| {
                for (originator, queriers) in std::mem::take(open) {
                    let kept: u32 = queriers.values().map(|(_, k)| *k).sum();
                    let e = Expected {
                        originator,
                        queriers: queriers.len() as u32,
                        kept,
                        truth: inputs.truth.get(&originator).copied(),
                    };
                    if e.queriers as usize >= MIN_QUERIERS {
                        w.heavy += 1;
                    } else {
                        w.light_kept_max = w.light_kept_max.max(u64::from(kept));
                    }
                    w.originators.push(e);
                }
                windows.push(std::mem::take(w));
            };

        for (i, r) in inputs.records.iter().enumerate() {
            let t = r.time.secs();
            let start = t - t % window_secs;
            if !started {
                current.start = start;
                started = true;
            }
            if t < current.start {
                current.records += 1;
                current.late += 1;
                continue;
            }
            if t >= current.start + window_secs {
                close(&mut current, &mut open);
                current.start = start;
                current.first_record = i;
            }
            current.records += 1;
            let slot = open.entry(r.originator).or_default().entry(r.querier).or_insert((t, 0));
            if slot.1 > 0 && t - slot.0 < DEDUP_SECS {
                current.deduped += 1;
            } else {
                *slot = (t, slot.1 + 1);
            }
        }
        if started {
            close(&mut current, &mut open);
        }
        Oracle { windows, max_originators: inputs.shape.max_originators }
    }

    pub fn records(&self) -> u64 {
        self.windows.iter().map(|w| w.records).sum()
    }
}

/// A fault the self-check plants in a pass's verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipVerdict {
    pub window: usize,
}

/// What a pass did, judged against the oracle.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// Windows closed.
    pub attempted: usize,
    /// Indices of windows that failed a check.
    pub failed: Vec<usize>,
    pub window_digests: Vec<u64>,
    /// Verdict rows outside the labelled set.
    pub rows: u64,
    /// Of those, rows equal to the ground-truth class.
    pub rows_correct: u64,
    pub evicted: u64,
    /// First few failures, for the report.
    pub reasons: Vec<String>,
}

impl PassReport {
    pub fn digest(&self) -> u64 {
        pass_digest(&self.window_digests)
    }

    pub fn accuracy(&self) -> f64 {
        self.rows_correct as f64 / self.rows.max(1) as f64
    }

    fn fail(&mut self, window: usize, reason: String) {
        if self.failed.last() != Some(&window) {
            self.failed.push(window);
        }
        if self.reasons.len() < 8 {
            self.reasons.push(format!("window {window}: {reason}"));
        }
    }
}

/// Checks the windows of one pass as they close.
pub struct Checker<'a> {
    oracle: &'a Oracle,
    flip: Option<FlipVerdict>,
    pub report: PassReport,
}

impl<'a> Checker<'a> {
    pub fn new(oracle: &'a Oracle, flip: Option<FlipVerdict>) -> Self {
        Checker { oracle, flip, report: PassReport::default() }
    }

    /// Judge one closed window: the sensor's summary, the extracted
    /// features, and the verdicts (`None` when training was impossible).
    pub fn window(
        &mut self,
        summary: &WindowSummary,
        features: &[OriginatorFeatures],
        verdicts: Option<&BTreeMap<Ipv4Addr, ApplicationClass>>,
    ) {
        let index = self.report.attempted;
        self.report.attempted += 1;
        self.report.evicted += summary.evicted as u64;
        let Some(truth) = self.oracle.windows.get(index) else {
            self.report.fail(index, "more windows emitted than generated".into());
            self.report.window_digests.push(0);
            return;
        };
        if summary.window.0.secs() != truth.start {
            let got = summary.window.0.secs();
            self.report.fail(index, format!("starts at {got}, expected {}", truth.start));
        }

        // Conservation, by merge-join over the two address-sorted lists.
        let mut stored = 0u64;
        let mut expected = truth.originators.iter().peekable();
        for (addr, obs) in &summary.observations.per_originator {
            while expected.next_if(|e| e.originator < *addr).is_some() {}
            let Some(e) = expected.next_if(|e| e.originator == *addr) else {
                self.report.fail(index, format!("{addr} emitted but never queried"));
                continue;
            };
            let (queriers, kept) = (obs.queriers.len() as u32, obs.queries.len() as u32);
            stored += u64::from(kept);
            let heavy = e.queriers as usize >= MIN_QUERIERS;
            if heavy && (queriers, kept) != (e.queriers, e.kept) {
                self.report.fail(
                    index,
                    format!(
                        "{addr} tracked with {queriers} queriers / {kept} queries, recount {} / {}",
                        e.queriers, e.kept
                    ),
                );
            } else if queriers > e.queriers || kept > e.kept {
                self.report.fail(index, format!("{addr} holds more than was sent"));
            }
        }
        let emitted = summary.observations.per_originator.len();
        let missing = truth.originators.len().saturating_sub(emitted) as u64;
        let kept_by_recount = truth.records - truth.late - truth.deduped;
        let lost = kept_by_recount.saturating_sub(stored);
        if stored > kept_by_recount {
            self.report.fail(index, format!("stored {stored} of {kept_by_recount} kept queries"));
        }
        // With half the table free no slice of a sharded sensor (each
        // holds 1/64 of the cap) is near full either.
        let has_room = truth.originators.len() * 2 <= self.oracle.max_originators;
        if has_room && (lost > 0 || summary.evicted > 0) {
            let evicted = summary.evicted;
            self.report
                .fail(index, format!("{lost} queries lost, {evicted} evicted, table not full"));
        }
        let bound = (summary.evicted as u64 + missing) * truth.light_kept_max;
        if lost > bound {
            self.report
                .fail(index, format!("{lost} queries lost, eviction explains at most {bound}"));
        }

        // The analyzable set and its counts.
        if features.len() != truth.heavy {
            let got = features.len();
            self.report
                .fail(index, format!("{got} analyzable originators, recount {}", truth.heavy));
        }
        for f in features {
            match truth.find(f.originator) {
                Some(e)
                    if (f.querier_count, f.query_count)
                        == (e.queriers as usize, e.kept as usize) => {}
                Some(e) => self.report.fail(
                    index,
                    format!(
                        "{} extracted with {} queriers / {} queries, recount {} / {}",
                        f.originator, f.querier_count, f.query_count, e.queriers, e.kept
                    ),
                ),
                None => {
                    self.report.fail(index, format!("{} extracted, never queried", f.originator))
                }
            }
        }

        // Verdict rows: digest and accuracy.
        let mut digest = Fnv::new();
        match verdicts {
            None => self.report.fail(index, "window was untrainable".into()),
            Some(verdicts) => {
                if verdicts.len() != features.len() {
                    self.report.fail(index, format!("{} verdicts", verdicts.len()));
                }
                let flip = self.flip.is_some_and(|f| f.window == index);
                for (i, (addr, class)) in verdicts.iter().enumerate() {
                    let mut class = *class;
                    if flip && i == 0 {
                        class = ApplicationClass::ALL[(class.index() + 1) % 12];
                    }
                    digest.write(&(index as u32).to_be_bytes());
                    digest.write(&addr.octets());
                    digest.write(&[class.index() as u8]);
                    match truth.find(*addr).and_then(|e| e.truth) {
                        Some(t) if t.labelled => {}
                        Some(t) => {
                            self.report.rows += 1;
                            self.report.rows_correct += u64::from(t.class == class);
                        }
                        None => self.report.fail(index, format!("{addr} has no ground truth")),
                    }
                }
            }
        }
        self.report.window_digests.push(digest.0);
    }

    /// After the stream ends: every generated window must have closed,
    /// and each window's digest must equal the reference pass's.
    pub fn finish(mut self, reference: Option<&[u64]>) -> PassReport {
        let expected = self.oracle.windows.len();
        if self.report.attempted < expected {
            for w in self.report.attempted..expected {
                self.report.fail(w, "never closed".into());
            }
            self.report.attempted = expected;
        }
        if let Some(reference) = reference {
            let digests = self.report.window_digests.clone();
            for (w, d) in digests.iter().enumerate() {
                if reference.get(w) != Some(d) {
                    self.report.fail(w, "verdict digest differs from the first pass".into());
                }
            }
        }
        self.report.failed.sort_unstable();
        self.report.failed.dedup();
        self.report
    }
}

/// Capture check: the recovered log equals the expected log window by
/// window, and the reader's counts equal what the generator injected.
/// Returns the windows at fault (a count mismatch that no window's
/// records explain is charged to window 0).
pub fn check_capture(
    oracle: &Oracle,
    expected: &[QueryLogRecord],
    recovered: &[QueryLogRecord],
    stats: &CaptureStats,
    injected: &crate::gen::Capture,
) -> Vec<usize> {
    let mut failed = Vec::new();
    // Cut the recovered log where each next window starts. Stragglers
    // stamped before a boundary arrive after the record that crossed
    // it, so they stay in the slice of the window that dropped them,
    // and a lost or added record disturbs only its own window's slice.
    let mut at = 0usize;
    for (i, w) in oracle.windows.iter().enumerate() {
        let next = oracle.windows.get(i + 1);
        let want = &expected[w.first_record..next.map_or(expected.len(), |n| n.first_record)];
        let stop = match next {
            Some(n) => at + recovered[at..].iter().take_while(|r| r.time.secs() < n.start).count(),
            None => recovered.len(),
        };
        if &recovered[at..stop] != want {
            failed.push(i);
        }
        at = stop;
    }
    let counts_ok = stats.frames == injected.frames
        && stats.filtered == injected.filtered
        && stats.undecodable == injected.undecodable
        && stats.records == expected.len() as u64;
    if !counts_ok && failed.is_empty() {
        failed.push(0);
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{miniature, Generator};
    use backscatter_core::dns::{Rcode, SimTime};
    use backscatter_core::netsim::{World, WorldConfig};

    #[test]
    fn fnv_matches_published_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv::new();
            h.write(s.as_bytes());
            h.0
        };
        assert_eq!(digest(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest("a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(digest("foobar"), 0x8594_4171_F739_67E8);
        assert_ne!(pass_digest(&[1, 2]), pass_digest(&[2, 1]));
    }

    #[test]
    fn recount_applies_the_thirty_second_rule_and_drops_late_records() {
        let world = World::new(WorldConfig::default());
        let mut inputs = Generator::new(miniature("verdict-wide"), 1, &world).inputs();
        let w = inputs.shape.window_secs;
        let rec = |t: u64, q: u8| QueryLogRecord {
            time: SimTime(t),
            querier: Ipv4Addr::new(192, 0, 2, q),
            originator: Ipv4Addr::new(203, 0, 113, 9),
            rcode: Rcode::NoError,
        };
        // 0 kept, +10 suppressed, +29 suppressed (still within 30 s of
        // the last kept one), +30 kept, other querier kept; then a
        // second window, then a straggler from the first.
        inputs.records = vec![
            rec(5, 1),
            rec(15, 1),
            rec(34, 1),
            rec(35, 1),
            rec(36, 2),
            rec(w + 1, 1),
            rec(w - 1, 3),
        ];
        let oracle = Oracle::build(&inputs);
        assert_eq!(oracle.windows.len(), 2);
        let first = &oracle.windows[0];
        assert_eq!((first.records, first.deduped, first.late), (5, 2, 0));
        assert_eq!((first.originators[0].queriers, first.originators[0].kept), (2, 3));
        let second = &oracle.windows[1];
        assert_eq!((second.first_record, second.records, second.late), (5, 2, 1));
        assert_eq!(oracle.records(), 7);
    }
}

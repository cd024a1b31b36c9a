//! Workload generation: `--seed` in, a time-ordered reverse-query log
//! (and for `capture-day` its BSCAP1 bytes) out.
//!
//! Querier addresses come from `bs_activity` target pools sampled over
//! the real `World` (or, for one-shot sources, from its public address
//! space), so names, AS and country resolve through the real provider.
//! The program under test sees only the generated inputs; the ground
//! truth stays here and in the oracle.

use crate::rng::{hash3, Rng};
use backscatter_core::activity::{ApplicationClass, PoolKind, TargetPool};
use backscatter_core::classify::{LabeledExample, LabeledSet};
use backscatter_core::dns::{
    reverse_name, DomainName, Message, QType, Rcode, RecordData, ResourceRecord, SimTime,
};
use backscatter_core::netsim::{QueryLogRecord, World};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// The paper's analyzability threshold, as the chain's `FeatureConfig`
/// sets it. Heavy originators are generated above it, light ones below.
pub const MIN_QUERIERS: usize = 20;

/// Length of a persistence period (paper: 10 minutes).
const PERIOD: u64 = 600;

/// What distinguishes one workload from another. Every field is a
/// traffic dimension that decides which layer dominates.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    /// Enter through BSCAP1 bytes (`netsim.capture`, `dns.wire`).
    pub capture: bool,
    /// Retrain the forest on fresh features in every window (§V-F).
    pub retrain: bool,
    pub windows: usize,
    pub window_secs: u64,
    /// Analyzable originators per window.
    pub heavy: usize,
    /// Of those, how many recur in every window; the rest are replaced.
    /// Few recur: a recurring originator repeats its verdict in every
    /// window, while fresh ones are independent rows, which is what
    /// keeps `verdict_accuracy` steady from seed to seed.
    pub core: usize,
    /// Labelled examples curated in every window among its new heavy
    /// originators (retraining workloads).
    pub labelled: usize,
    /// How many of the twelve application classes the heavy originators
    /// rotate through (the first so many).
    pub classes: usize,
    /// Unique queriers of a heavy originator, `lo..=hi`, skewed low.
    pub footprint: (u64, u64),
    /// Out of 100 heavy originators, how many are scanners; the rest
    /// rotate through the first `classes` classes.
    pub scan_pct: u32,
    /// Unanalyzable originators per window, each with `1..=light_queriers`.
    pub light: usize,
    pub light_queriers: u64,
    /// Recurring querier population per pool kind.
    pub stable_slots: u64,
    /// Share of querier draws taken from the recurring population; it
    /// sets how warm the cross-window metadata cache runs.
    pub recur: f64,
    /// When non-zero, light originators are queried for from the public
    /// address space, and non-recurring public draws come from this
    /// many addresses chosen anew for every window: shared by the
    /// window's originators, never seen before it.
    pub fresh_slots: u64,
    /// Share of queries repeated inside the 30 s dedup window.
    pub repeat: f64,
    /// The sensor's tracked-originator cap.
    pub max_originators: usize,
    /// Addresses sampled per pool kind.
    pub pool_size: usize,
}

pub const WORKLOADS: [Shape; 4] = [
    // The only workload that enters through `netsim.capture` and
    // `dns.wire`, which then do over 40 % of the work; the other three
    // bypass the front door, so a decode change must leave them flat.
    Shape {
        name: "capture-day",
        capture: true,
        retrain: false,
        windows: 24,
        window_secs: 3600,
        heavy: 100,
        core: 10,
        labelled: 0,
        classes: 12,
        footprint: (26, 70),
        scan_pct: 0,
        light: 1000,
        light_queriers: 3,
        stable_slots: 2000,
        recur: 0.7,
        fresh_slots: 0,
        repeat: 0.08,
        max_originators: 100_000,
        pool_size: 10_000,
    },
    // A flood of one-shot originators against a small tracked table,
    // queried for by public addresses new in every window: admission,
    // probation, eviction, flush and cold metadata resolution dominate,
    // classification is small. Uses the sensor and the metadata cache
    // the opposite way from `verdict-wide`.
    Shape {
        name: "scan-storm",
        capture: false,
        retrain: false,
        windows: 24,
        window_secs: 3600,
        heavy: 16,
        core: 8,
        labelled: 0,
        classes: 12,
        footprint: (24, 70),
        scan_pct: 100,
        light: 16_000,
        light_queriers: 3,
        stable_slots: 2000,
        recur: 0.01,
        fresh_slots: 3000,
        repeat: 0.03,
        max_originators: 3500,
        pool_size: 6000,
    },
    // The paper's §V-F operation: fit the 10-vote forest on fresh
    // features in every window. `classify.train` / `ml.forest` fit do
    // most of the work here and none (after set-up) anywhere else.
    // A day's 96 labels make a weak model, so the day's curators cover
    // six classes, sixteen examples each, footprints are wide, and every
    // window has labelled originators of its own: with eight examples a
    // class, narrow footprints or one labelled set for all windows, a
    // few rows in a hundred are coin tosses shared by every window, and
    // accuracy swings by more than its bound from seed to seed.
    Shape {
        name: "retrain-daily",
        capture: false,
        retrain: true,
        windows: 5,
        window_secs: 86_400,
        heavy: 440,
        core: 40,
        labelled: 96,
        classes: 6,
        footprint: (60, 160),
        scan_pct: 0,
        light: 800,
        light_queriers: 4,
        stable_slots: 2000,
        recur: 0.6,
        fresh_slots: 0,
        repeat: 0.05,
        max_originators: 100_000,
        pool_size: 10_000,
    },
    // Many analyzable originators sharing one recurring resolver
    // population (the high-overlap regime of amplification traffic):
    // forest prediction and warm-cache extraction dominate.
    Shape {
        name: "verdict-wide",
        capture: false,
        retrain: false,
        windows: 12,
        window_secs: 86_400,
        heavy: 480,
        core: 40,
        labelled: 0,
        classes: 12,
        footprint: (30, 60),
        scan_pct: 0,
        light: 400,
        light_queriers: 4,
        stable_slots: 1000,
        recur: 1.0,
        fresh_slots: 0,
        repeat: 0.04,
        max_originators: 100_000,
        pool_size: 6000,
    },
];

pub fn workload(name: &str) -> Option<&'static Shape> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// A workload shrunk to a few windows, for the self-check and the
/// tests; leaked, since shapes are `'static`.
pub fn miniature(name: &str) -> &'static Shape {
    let full = workload(name).expect("a known workload");
    Box::leak(Box::new(Shape {
        windows: 4,
        heavy: 36,
        core: 12,
        labelled: full.labelled.min(24),
        light: 120,
        // Keep a storm a storm: its table stays smaller than its flood.
        max_originators: if full.max_originators < full.light { 60 } else { full.max_originators },
        pool_size: 1200,
        stable_slots: 400,
        fresh_slots: full.fresh_slots.min(300),
        ..*full
    }))
}

/// Where a class's queriers sit: weights over the six pool kinds and
/// the public address space, mean queries per querier, and the share
/// of the window's 10-minute periods in which the originator is
/// active. Neighbouring rows overlap on purpose (ad-tracker/push/cdn,
/// mail/spam, cloud/update/p2p), so the forest lands in the paper's
/// Table III accuracy range instead of at 1.0; only scanners reach
/// into the public address space.
struct Profile {
    mix: [f64; 7],
    queries_per_querier: f64,
    active: f64,
}

const PUBLIC: usize = 6;
const KINDS: [PoolKind; 6] = PoolKind::ALL;

// Pool order: mail, eyeballs, web, name servers, ntp, any live, public.
const PROFILES: [Profile; 12] = [
    // ad-tracker
    Profile { mix: [0.0, 0.62, 0.08, 0.0, 0.0, 0.30, 0.0], queries_per_querier: 2.0, active: 0.95 },
    // cdn
    Profile { mix: [0.0, 0.85, 0.0, 0.05, 0.0, 0.10, 0.0], queries_per_querier: 2.8, active: 1.0 },
    // cloud
    Profile { mix: [0.05, 0.20, 0.25, 0.0, 0.0, 0.50, 0.0], queries_per_querier: 1.5, active: 0.8 },
    // crawler
    Profile { mix: [0.0, 0.0, 0.80, 0.15, 0.0, 0.05, 0.0], queries_per_querier: 1.2, active: 0.9 },
    // dns
    Profile { mix: [0.0, 0.05, 0.0, 0.75, 0.0, 0.20, 0.0], queries_per_querier: 2.4, active: 1.0 },
    // mail
    Profile { mix: [0.62, 0.28, 0.0, 0.0, 0.0, 0.10, 0.0], queries_per_querier: 1.3, active: 0.6 },
    // ntp
    Profile { mix: [0.0, 0.10, 0.0, 0.10, 0.50, 0.30, 0.0], queries_per_querier: 1.1, active: 1.0 },
    // p2p
    Profile { mix: [0.0, 0.65, 0.0, 0.0, 0.0, 0.35, 0.0], queries_per_querier: 1.4, active: 0.8 },
    // push
    Profile { mix: [0.0, 0.92, 0.0, 0.0, 0.0, 0.08, 0.0], queries_per_querier: 1.5, active: 1.0 },
    // scan
    Profile {
        mix: [0.02, 0.10, 0.03, 0.0, 0.0, 0.35, 0.50],
        queries_per_querier: 1.0,
        active: 0.3,
    },
    // spam
    Profile { mix: [0.85, 0.05, 0.0, 0.0, 0.0, 0.10, 0.0], queries_per_querier: 1.6, active: 0.4 },
    // update
    Profile { mix: [0.0, 0.45, 0.20, 0.0, 0.0, 0.35, 0.0], queries_per_querier: 1.2, active: 0.7 },
];

/// Per-originator spread around its class profile (log-normal sigma).
/// Small, so that most of the error rate is the structural part below
/// and `verdict_accuracy` repeats from seed to seed within its bound;
/// the rows a model can still get wrong are those the overlapping
/// profiles and a footprint's sampling noise leave in doubt.
const JITTER: f64 = 0.05;

/// One heavy originator in eleven behaves like another class while
/// its ground truth stays (a mail host that also scans, a mislisted
/// address): the structural part of the error rate. Eleven is coprime
/// to the twelve classes, so every class gets its share.
const IMPOSTOR_EVERY: u32 = 11;

/// Labelled examples per class a train-once model is fitted on. With
/// half as many, two seeds' models disagree on enough rows to move
/// `verdict_accuracy` by its whole bound.
pub const TRAIN_PER_CLASS: usize = 72;

// Originator id spaces (ids map one-to-one onto addresses).
const TRAIN_BASE: u32 = 1 << 20;
const LIGHT_BASE: u32 = 1 << 22;

/// Ground truth of one analyzable originator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truth {
    pub class: ApplicationClass,
    /// In the labelled set the chain trains on; left out of
    /// `verdict_accuracy`.
    pub labelled: bool,
}

/// Everything a run needs that depends on the seed.
pub struct Inputs {
    pub shape: &'static Shape,
    /// The log the sensor must see (capture corruption already removed).
    pub records: Vec<QueryLogRecord>,
    pub capture: Option<Capture>,
    /// Ground truth of every originator generated as heavy.
    pub truth: BTreeMap<Ipv4Addr, Truth>,
    /// The labelled set of a retraining workload.
    pub labelled: LabeledSet,
}

/// BSCAP1 bytes plus what the generator injected into them.
pub struct Capture {
    pub bytes: Vec<u8>,
    /// `(offset, length)` of every response frame's DNS message.
    pub responses: Vec<(usize, usize)>,
    pub frames: u64,
    /// Non-PTR responses injected (the collection filter drops them).
    pub filtered: u64,
    /// Response frames corrupted (their records are lost).
    pub undecodable: u64,
}

/// The training stream of a train-once workload.
pub struct Training {
    pub records: Vec<QueryLogRecord>,
    pub truth: BTreeMap<Ipv4Addr, ApplicationClass>,
}

struct Rec {
    time: u64,
    originator: u32,
    querier: u32,
}

pub struct Generator<'w> {
    shape: &'static Shape,
    seed: u64,
    world: &'w World,
    pools: Vec<TargetPool>,
    addr_key: u32,
}

/// A bijection on 31-bit values (odd multiplies and xor-shifts), so
/// distinct originator ids can never collide on an address.
fn permute31(x: u32, key: u32) -> u32 {
    const MASK: u32 = (1 << 31) - 1;
    let mut x = (x ^ key) & MASK;
    x = x.wrapping_mul(0x9E37_79B1) & MASK;
    x ^= x >> 15;
    x = x.wrapping_mul(0x85EB_CA6B) & MASK;
    x ^= x >> 13;
    x
}

impl<'w> Generator<'w> {
    /// Samples the target pools: part of set-up time.
    pub fn new(shape: &'static Shape, seed: u64, world: &'w World) -> Self {
        let pools = KINDS
            .iter()
            .enumerate()
            .map(|(i, k)| {
                TargetPool::build(world, *k, shape.pool_size, hash3(seed, 0x9001, i as u64))
            })
            .collect();
        Generator { shape, seed, world, pools, addr_key: hash3(seed, 0xADD2, 0) as u32 }
    }

    /// Originator id → address in 64.0.0.0–191.255.255.255.
    fn originator_addr(&self, id: u32) -> u32 {
        0x4000_0000 + permute31(id, self.addr_key)
    }

    /// Training streams are balanced over the classes whatever the
    /// measured traffic looks like: labels are curated, not sampled.
    fn truth_class(&self, id: u32) -> ApplicationClass {
        if id < TRAIN_BASE && id % 100 < self.shape.scan_pct {
            ApplicationClass::Scan
        } else {
            ApplicationClass::ALL[id as usize % self.shape.classes]
        }
    }

    fn is_impostor(id: u32) -> bool {
        id % IMPOSTOR_EVERY == 3
    }

    /// The class whose profile the originator follows.
    fn behaviour_class(&self, id: u32, train: bool) -> ApplicationClass {
        let truth = self.truth_class(id);
        if train || !Self::is_impostor(id) {
            return truth;
        }
        let shift = 1 + (hash3(self.seed, 0x1390, u64::from(id)) % 11) as usize;
        ApplicationClass::ALL[(truth.index() + shift) % 12]
    }

    fn public_addr(&self, h: u64) -> u32 {
        u32::from(self.world.random_public_addr(h))
    }

    /// One querier of pool `kind` (or of the public address space) for
    /// an originator of `window`.
    fn querier(&self, kind: usize, window: usize, rng: &mut Rng) -> u32 {
        let shape = self.shape;
        let slot = if rng.chance(shape.recur) {
            rng.below(shape.stable_slots)
        } else if kind == PUBLIC && shape.fresh_slots > 0 {
            let slot = rng.below(shape.fresh_slots);
            return self.public_addr(hash3(self.seed, 0xF4E5 + window as u64, slot));
        } else {
            shape.stable_slots + (rng.next_u64() >> 16)
        };
        let h = hash3(self.seed, kind as u64, slot);
        match self.pools.get(kind).and_then(|p| p.pick(h, None)) {
            Some(a) => u32::from(a),
            // The public kind, or a pool the world could not fill.
            None => self.public_addr(h),
        }
    }

    fn push_query(&self, out: &mut Vec<Rec>, rng: &mut Rng, w_start: u64, t: u64, o: u32, q: u32) {
        out.push(Rec { time: t, originator: o, querier: q });
        if rng.chance(self.shape.repeat) {
            // A resolver ignoring DNS timeouts: the 30 s rule drops it.
            let end = w_start + self.shape.window_secs - 1;
            out.push(Rec { time: (t + rng.between(1, 25)).min(end), originator: o, querier: q });
        }
    }

    fn heavy_records(&self, id: u32, train: bool, window: usize, w_start: u64, out: &mut Vec<Rec>) {
        let shape = self.shape;
        let profile = &PROFILES[self.behaviour_class(id, train).index()];
        // Traits that stay with the originator across windows.
        let mut traits = Rng::new(hash3(self.seed, 0x7A17, u64::from(id)));
        let mut mix = profile.mix;
        for m in &mut mix {
            *m *= (JITTER * traits.normal()).exp();
        }
        let total: f64 = mix.iter().sum();
        let per_querier =
            1.0 + (profile.queries_per_querier - 1.0) * (JITTER * traits.normal()).exp();
        let active = (profile.active * (0.5 * JITTER * traits.normal()).exp()).clamp(0.05, 1.0);

        let mut rng = Rng::new(hash3(self.seed, 0x4EA7 + window as u64, u64::from(id)));
        let (lo, hi) = shape.footprint;
        let n = (lo + ((hi - lo + 1) as f64 * rng.unit().powi(3)) as u64).min(hi) as usize;
        let mut seen = BTreeSet::new();
        let mut queriers = Vec::with_capacity(n);
        let mut tries = 0;
        while queriers.len() < n {
            tries += 1;
            // A recurring population smaller than the footprint cannot
            // yield n distinct queriers; top up from public space.
            let kind = if tries > 20 * n {
                PUBLIC
            } else {
                let mut u = rng.unit() * total;
                let mut kind = PUBLIC;
                for (i, m) in mix.iter().enumerate() {
                    if u < *m {
                        kind = i;
                        break;
                    }
                    u -= m;
                }
                kind
            };
            let q = self.querier(kind, window, &mut rng);
            if seen.insert(q) {
                queriers.push(q);
            }
        }

        let periods = (shape.window_secs / PERIOD).max(1);
        let active_periods = ((active * periods as f64).round() as u64).clamp(1, periods);
        let first_period = rng.below(periods);
        let o = self.originator_addr(id);
        for (i, &q) in queriers.iter().enumerate() {
            if shape.max_originators < shape.light && i < 6 {
                // The tracked table will fill: show a footprint above any
                // one-shot source's before the flood starts, so eviction
                // (smallest footprint first) never picks this originator.
                out.push(Rec { time: w_start + rng.below(4), originator: o, querier: q });
            }
            let mut queries = 1;
            while queries < 8 && rng.chance(1.0 - 1.0 / per_querier) {
                queries += 1;
            }
            for _ in 0..queries {
                let period = (first_period + rng.below(active_periods)) % periods;
                let t = w_start + period * PERIOD + rng.below(PERIOD.min(shape.window_secs));
                self.push_query(out, &mut rng, w_start, t, o, q);
            }
        }
    }

    fn light_records(&self, id: u32, window: usize, w_start: u64, out: &mut Vec<Rec>) {
        let shape = self.shape;
        let mut rng = Rng::new(hash3(self.seed, 0x1167 + window as u64, u64::from(id)));
        let o = self.originator_addr(id);
        for _ in 0..rng.between(1, shape.light_queriers) {
            // Residential and any-live pools, or under `fresh_slots` the
            // window's own public population.
            let kind = match (shape.fresh_slots > 0, rng.chance(0.5)) {
                (true, _) => PUBLIC,
                (false, true) => 1,
                (false, false) => 5,
            };
            let q = self.querier(kind, window, &mut rng);
            // Second 5 onwards: after the heavy originators' opening burst.
            let t = w_start + rng.between(5, shape.window_secs - 1);
            self.push_query(out, &mut rng, w_start, t, o, q);
        }
    }

    /// Heavy originator ids of one window: the core recurs, the rest
    /// are new in every window. A training stream has no core, so every
    /// labelled example is another originator.
    fn heavy_ids(&self, window: usize, train: bool) -> impl Iterator<Item = u32> {
        let heavy = self.shape.heavy as u32;
        let (base, core) = if train { (TRAIN_BASE, 0) } else { (0, self.shape.core as u32) };
        (0..heavy).map(move |j| base + if j < core { j } else { core + window as u32 * heavy + j })
    }

    fn window_records(&self, window: usize, train: bool, out: &mut Vec<QueryLogRecord>) {
        let shape = self.shape;
        let w_start = window as u64 * shape.window_secs;
        let mut recs = Vec::new();
        for id in self.heavy_ids(window, train) {
            self.heavy_records(id, train, window, w_start, &mut recs);
        }
        // Labels are curated at a quiet vantage point: a training
        // stream carries no one-shot sources.
        let light_base =
            LIGHT_BASE + if train { TRAIN_BASE } else { 0 } + (window * shape.light) as u32;
        for j in 0..if train { 0 } else { shape.light as u32 } {
            self.light_records(light_base + j, window, w_start, &mut recs);
        }
        // Stable: equal timestamps keep generation order, so the stream
        // is a function of the seed.
        recs.sort_by_key(|r| r.time);
        let first = out.len();
        out.extend(recs.iter().map(|r| QueryLogRecord {
            time: SimTime(r.time),
            querier: Ipv4Addr::from(r.querier),
            originator: Ipv4Addr::from(r.originator),
            rcode: if hash3(u64::from(r.originator), u64::from(r.querier), r.time).is_multiple_of(4)
            {
                Rcode::NxDomain
            } else {
                Rcode::NoError
            },
        }));
        if window > 0 && out.len() > first + 2 {
            // Three stragglers stamped before the boundary but arriving
            // after it: the sensor must count and drop them.
            let mut rng = Rng::new(hash3(self.seed, 0x1A7E, window as u64));
            for k in 0..3 {
                let late = QueryLogRecord {
                    time: SimTime(w_start - rng.between(1, 20)),
                    querier: Ipv4Addr::from(self.public_addr(rng.next_u64())),
                    originator: Ipv4Addr::from(self.originator_addr(light_base + k)),
                    rcode: Rcode::NoError,
                };
                out.insert(first + 1 + k as usize, late);
            }
        }
    }

    /// The measured stream with its ground truth.
    pub fn inputs(&self) -> Inputs {
        let shape = self.shape;
        let mut records = Vec::new();
        let mut truth = BTreeMap::new();
        // Curated labels are accurate: impostors are never labelled.
        let labelled_ids: BTreeSet<u32> = (0..shape.windows)
            .flat_map(|w| {
                self.heavy_ids(w, false)
                    .skip(shape.core)
                    .filter(|id| shape.retrain && !Self::is_impostor(*id))
                    .take(shape.labelled)
            })
            .collect();
        for w in 0..shape.windows {
            self.window_records(w, false, &mut records);
            for id in self.heavy_ids(w, false) {
                let addr = Ipv4Addr::from(self.originator_addr(id));
                let labelled = labelled_ids.contains(&id);
                truth.insert(addr, Truth { class: self.truth_class(id), labelled });
            }
        }
        let labelled = labelled_ids
            .iter()
            .map(|id| LabeledExample {
                originator: Ipv4Addr::from(self.originator_addr(*id)),
                class: self.truth_class(*id),
            })
            .collect();
        let capture = shape.capture.then(|| encode_capture(self.seed, &mut records));
        Inputs { shape, records, capture, truth, labelled: LabeledSet { examples: labelled } }
    }

    /// Enough windows of the same heavy traffic, with other originators,
    /// no impostors and no one-shot sources, to curate
    /// [`TRAIN_PER_CLASS`] examples per class.
    pub fn training(&self) -> Training {
        let shape = self.shape;
        let windows = (12 * TRAIN_PER_CLASS).div_ceil(shape.heavy);
        let mut records = Vec::new();
        let mut truth = BTreeMap::new();
        for w in 0..windows {
            self.window_records(w, true, &mut records);
            for id in self.heavy_ids(w, true) {
                truth.insert(Ipv4Addr::from(self.originator_addr(id)), self.truth_class(id));
            }
        }
        Training { records, truth }
    }
}

/// Encode the log as a BSCAP1 capture (one query/response exchange
/// per record), interleave non-PTR exchanges, corrupt a few response
/// frames, and remove the records those frames carried from
/// `records`, which thereby becomes the log the reader must recover.
pub fn encode_capture(seed: u64, records: &mut Vec<QueryLogRecord>) -> Capture {
    let mut cap = Capture {
        bytes: Vec::with_capacity(16 + records.len() * 170),
        responses: Vec::with_capacity(records.len() + records.len() / 10),
        frames: 0,
        filtered: 0,
        undecodable: 0,
    };
    cap.bytes.extend_from_slice(b"BSCAP1\n");
    let forward = DomainName::parse("www.example.com").expect("static name");
    let answer = DomainName::parse("host.invalid").expect("static name");
    let mut kept = Vec::with_capacity(records.len());
    for (seq, r) in records.iter().enumerate() {
        let h = hash3(seed, 0xCA97, seq as u64);
        let id = (h >> 48) as u16;
        if h.is_multiple_of(12) {
            // ≈ 8 %: forward lookups the authority also answered.
            let query = Message::query(id ^ 0x5555, forward.clone(), QType::A);
            let mut response = Message::response(&query, Rcode::NoError, Vec::new());
            response.answers.push(ResourceRecord {
                name: forward.clone(),
                ttl: 300,
                data: RecordData::A(r.querier),
            });
            put_frame(&mut cap, 0, r, &query);
            put_frame(&mut cap, 1, r, &response);
            cap.filtered += 1;
        }
        let query = Message::query(id, reverse_name(r.originator), QType::Ptr);
        let mut response = Message::response(&query, r.rcode, Vec::new());
        if r.rcode == Rcode::NoError {
            response.answers.push(ResourceRecord {
                name: query.questions[0].qname.clone(),
                ttl: 3600,
                data: RecordData::Ptr(answer.clone()),
            });
        }
        put_frame(&mut cap, 0, r, &query);
        let body = put_frame(&mut cap, 1, r, &response);
        if (h >> 8).is_multiple_of(500) {
            // ≈ 0.2 %: packet damage. 0x80 is a reserved label type,
            // so the question name cannot decode.
            corrupt_response(&mut cap.bytes, body);
            cap.undecodable += 1;
        } else {
            kept.push(*r);
        }
    }
    *records = kept;
    cap
}

/// Damage the first byte of the question name (it follows the 12-byte
/// DNS header) of the response whose message starts at `body`.
pub fn corrupt_response(bytes: &mut [u8], body: usize) {
    bytes[body + 12] = 0x80;
}

/// Append one frame (direction, peer, time, length, message); returns
/// the offset of the message.
fn put_frame(cap: &mut Capture, direction: u8, r: &QueryLogRecord, msg: &Message) -> usize {
    let body = msg.encode();
    cap.bytes.push(direction);
    cap.bytes.extend_from_slice(&u32::from(r.querier).to_be_bytes());
    cap.bytes.extend_from_slice(&r.time.secs().to_be_bytes());
    cap.bytes.extend_from_slice(&(body.len() as u16).to_be_bytes());
    let at = cap.bytes.len();
    cap.bytes.extend_from_slice(&body);
    cap.frames += 1;
    if direction == 1 {
        cap.responses.push((at, body.len()));
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_core::netsim::WorldConfig;

    #[test]
    fn permutation_is_injective() {
        let mut seen = BTreeSet::new();
        for id in (0..200_000u32).chain(LIGHT_BASE..LIGHT_BASE + 200_000) {
            assert!(seen.insert(permute31(id, 0xDEAD_BEEF)));
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let world = World::new(WorldConfig::default());
        let shape = miniature("capture-day");
        let a = Generator::new(shape, 1, &world).inputs();
        let b = Generator::new(shape, 1, &world).inputs();
        let c = Generator::new(shape, 2, &world).inputs();
        assert_eq!(a.records, b.records);
        assert_eq!(a.capture.as_ref().unwrap().bytes, b.capture.as_ref().unwrap().bytes);
        assert_eq!(a.truth, b.truth);
        assert_ne!(a.records, c.records);
        assert_ne!(a.capture.as_ref().unwrap().bytes, c.capture.as_ref().unwrap().bytes);
    }

    #[test]
    fn records_arrive_in_window_order_with_three_stragglers_per_boundary() {
        let world = World::new(WorldConfig::default());
        let shape = miniature("retrain-daily");
        let inputs = Generator::new(shape, 5, &world).inputs();
        let mut newest = 0;
        let mut late = 0;
        for r in &inputs.records {
            let w = r.time.secs() / shape.window_secs;
            if w < newest {
                late += 1;
            }
            newest = newest.max(w);
        }
        assert_eq!(late, 3 * (shape.windows - 1));
        assert!(!inputs.labelled.examples.is_empty());
        assert!(inputs.labelled.examples.iter().all(|e| inputs.truth[&e.originator].labelled));
    }
}

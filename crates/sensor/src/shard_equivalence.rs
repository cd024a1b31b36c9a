//! Sharded ≡ single-shard reference: the hash-sharded streaming core
//! must be observationally identical to the sequential
//! [`ReferenceShardedStreamingSensor`] at every shard count — same
//! window summaries, in the same order, under storm bursts,
//! out-of-order records, and probation-cap pressure — and, above the
//! memory caps, identical to the plain global sensor and to batch
//! ingestion.
//!
//! Seeded loops: every case derives from its seed alone, so a failure
//! replays from the seed in its message.

use crate::common::{arb_records, sorted_records, SMALL};
use crate::ingest::{assert_offsets_are_times, Observations, DEDUP_WINDOW};
use crate::shard::{slice_of, ReferenceShardedStreamingSensor, ShardedStreamingSensor};
use crate::stream::{StreamConfig, StreamingSensor, WindowSummary};
use bs_dns::{Rcode, SimDuration, SimTime};
use bs_netsim::log::{QueryLog, QueryLogRecord};
use bs_par::Rng;
use std::net::Ipv4Addr;

const CASES: u64 = 64;

const LANE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Storm-burst specs: at time `t0`, a wave of one-shot originators
/// from a distinct `198.18.<wave>.*` pool floods the probation tables.
fn arb_bursts(rng: &mut Rng) -> Vec<(u64, u8)> {
    (0..rng.range(0..4)).map(|_| (rng.below(4_000), rng.below(8) as u8)).collect()
}

/// Materialize background records plus storm bursts (80 one-shot
/// originators per wave, one querier each), sorted by time.
fn storm_records(background: &[QueryLogRecord], bursts: &[(u64, u8)]) -> Vec<QueryLogRecord> {
    let mut records = background.to_vec();
    for &(t0, wave) in bursts {
        for i in 0..80u8 {
            records.push(QueryLogRecord {
                time: SimTime(t0 + i as u64 / 16),
                querier: Ipv4Addr::new(10, 99, wave, i % 13),
                originator: Ipv4Addr::new(198, 18, wave, i),
                rcode: Rcode::NoError,
            });
        }
    }
    records.sort_by_key(|r| r.time);
    records
}

fn run_sharded(records: &[QueryLogRecord], cfg: StreamConfig, lanes: usize) -> Vec<WindowSummary> {
    let mut s = ShardedStreamingSensor::new(cfg, lanes);
    let mut out = Vec::new();
    for r in records {
        out.extend(s.push(*r));
    }
    out.extend(s.finish());
    out
}

fn run_reference(records: &[QueryLogRecord], cfg: StreamConfig) -> Vec<WindowSummary> {
    let mut s = ReferenceShardedStreamingSensor::new(cfg);
    let mut out = Vec::new();
    for r in records {
        out.extend(s.push(*r));
    }
    out.extend(s.finish());
    out
}

/// Every lane count must produce exactly `expect`.
fn assert_lanes_match(
    records: &[QueryLogRecord],
    cfg: StreamConfig,
    expect: &[WindowSummary],
    seed: u64,
) {
    for lanes in LANE_COUNTS {
        assert_eq!(
            run_sharded(records, cfg, lanes),
            expect,
            "lanes={lanes} must be invariant (seed {seed})"
        );
    }
}

/// Under memory pressure (tiny per-slice tracked tables and
/// probation caps, so admission, eviction, and wholesale probation
/// resets all fire), every lane count produces exactly the
/// reference's window summaries.
#[test]
fn sharded_matches_reference_under_pressure() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x5A4D);
        let records = sorted_records(&mut rng, &SMALL);
        let cfg = StreamConfig {
            window: SimDuration::from_secs(1_000),
            max_originators: rng.range(1..200),
            admission_queries: rng.range(1..4),
            probation_cap: rng.range(64..256),
            ..Default::default()
        };
        assert_lanes_match(&records, cfg, &run_reference(&records, cfg), seed);
    }
}

/// The same invariance on *unsorted* streams: the driver's
/// out-of-order drop path is part of the spec being held equal.
#[test]
fn sharded_matches_reference_with_out_of_order_records() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x000D);
        let records = arb_records(&mut rng, &SMALL);
        let cfg = StreamConfig {
            window: SimDuration::from_secs(500),
            max_originators: rng.range(1..100),
            admission_queries: 2,
            ..Default::default()
        };
        assert_lanes_match(&records, cfg, &run_reference(&records, cfg), seed);
    }
}

/// Storm bursts of one-shot originators against tight probation
/// caps — the wholesale-reset path — still leave every lane count
/// identical to the reference.
#[test]
fn sharded_matches_reference_through_probation_storms() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x5708);
        let background = arb_records(&mut rng, &SMALL);
        let records = storm_records(&background, &arb_bursts(&mut rng));
        let cfg = StreamConfig {
            window: SimDuration::from_secs(1_000),
            max_originators: 64, // one tracked slot per slice
            admission_queries: 3,
            probation_cap: rng.range(64..192),
            ..Default::default()
        };
        assert_lanes_match(&records, cfg, &run_reference(&records, cfg), seed);
    }
}

/// Above the memory caps the slice partition is unobservable:
/// sharded output equals the plain global sensor at every lane
/// count, and the single emitted window equals batch ingestion —
/// stream-equals-batch across shard counts.
#[test]
fn sharded_stream_equals_plain_sensor_and_batch() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0xBA7C);
        let background = arb_records(&mut rng, &SMALL);
        let records = storm_records(&background, &arb_bursts(&mut rng));
        let cfg = StreamConfig { window: SimDuration::from_secs(5_000), ..Default::default() };
        let mut plain = StreamingSensor::new(cfg);
        let mut expect: Vec<WindowSummary> = Vec::new();
        for r in &records {
            expect.extend(plain.push(*r));
        }
        expect.extend(plain.finish());
        assert_lanes_match(&records, cfg, &expect, seed);

        let mut log = QueryLog::new();
        for r in &records {
            log.push(*r);
        }
        let (batch, times) = Observations::ingest_with_dedup_reference(
            &log,
            SimTime(0),
            SimTime(5_000),
            DEDUP_WINDOW,
        );
        assert!(expect.len() <= 1, "one window configured (seed {seed})");
        if let Some(w) = expect.first() {
            assert_eq!(w.observations, batch, "seed {seed}");
            assert_offsets_are_times(&w.observations, &times);
            assert_eq!(w.evicted, 0, "seed {seed}");
        } else {
            assert_eq!(batch.originator_count(), 0, "seed {seed}");
        }
    }
}

/// Satellite regression: a wholesale probation clear on one shard
/// rebooks held→dropped only in *that* shard's ledger stage, and the
/// merged ledger still balances mid-storm (per shard and summed).
#[test]
fn probation_reset_rebooks_only_its_own_shard_stage() {
    bs_telemetry::trace::enable();
    let lanes = 4usize;
    // Time base far outside every other test's windows: ledger cells
    // are keyed (stage, window), and the ledger is process-global.
    let base = 9_000_000u64;
    let cfg = StreamConfig {
        window: SimDuration::from_secs(1_000),
        max_originators: 64,    // one tracked slot per slice
        admission_queries: 100, // nothing admits: pure probation load
        probation_cap: 512,     // 8 per slice: a 40-wide storm forces resets
        ..Default::default()
    };
    // 40 distinct originators all hashing to one slice (= one lane).
    let originators: Vec<Ipv4Addr> = {
        let first = Ipv4Addr::new(198, 51, 100, 1);
        (0u32..).map(Ipv4Addr::from).filter(|a| slice_of(*a) == slice_of(first)).take(40).collect()
    };
    let storm_lane = slice_of(originators[0]) % lanes;

    let mut s = ShardedStreamingSensor::new(cfg, lanes);
    for (i, o) in originators.iter().enumerate() {
        let r = QueryLogRecord {
            time: SimTime(base + i as u64),
            querier: Ipv4Addr::new(10, 0, 0, (i % 200) as u8),
            originator: *o,
            rcode: Rcode::NoError,
        };
        assert!(s.push(r).is_none(), "storm stays inside the first window");
    }
    // Cross the boundary mid-storm: the first window flushes while the
    // stream keeps running.
    let w = s
        .push(QueryLogRecord {
            time: SimTime(base + 1_500),
            querier: Ipv4Addr::new(10, 0, 0, 1),
            originator: originators[0],
            rcode: Rcode::NoError,
        })
        .expect("boundary crossing flushes the stormed window");
    assert_eq!(w.window, (SimTime(base), SimTime(base + 1_000)));

    assert!(bs_telemetry::ledger::verify().is_empty(), "merged ledger balances mid-storm");
    let cells = bs_telemetry::ledger::snapshot();
    let dropped_in = |lane: usize| {
        cells
            .get(&(format!("sensor.stream.shard.{lane}"), base))
            .map(|f| f.out.get("probation_dropped").copied().unwrap_or(0))
            .unwrap_or(0)
    };
    assert!(
        dropped_in(storm_lane) > 0,
        "the stormed shard's stage must show the reset's dropped records"
    );
    for lane in (0..lanes).filter(|&l| l != storm_lane) {
        assert_eq!(dropped_in(lane), 0, "shard {lane} saw no storm: nothing to rebook");
    }
    // Per-shard conservation, and conservation of the merged sum: each
    // shard stage balances on its own, so the sum balances too.
    let (mut records_in, mut accounted) = (0u64, 0u64);
    for ((stage, window), flow) in &cells {
        if *window == base && stage.starts_with("sensor.stream.shard.") {
            let out: u64 = flow.out.values().sum();
            assert_eq!(flow.records_in, out, "stage {stage} must balance");
            records_in += flow.records_in;
            accounted += out;
        }
    }
    assert_eq!(records_in, accounted, "summed shard stages must balance");
    assert_eq!(records_in, 40, "every storm record accounted to some shard stage");
}

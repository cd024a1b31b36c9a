//! Fast-path ≡ reference: the packed-key ingest engine — streaming,
//! and run for one window as the batch form — must be
//! observationally identical to the retained BTree implementations on
//! arbitrary record streams — same per-originator query streams, same
//! querier sets, same dedup decisions, same admissions and evictions —
//! and every stored query's `window_start + offset` must be the time
//! the reference recorded for it.
//!
//! Seeded loops: every case derives from its seed alone, so a failure
//! replays from the seed in its message.

use crate::common::{arb_records, sorted_records, Pools, AMPLIFIED, SMALL};
use crate::ingest::{assert_offsets_are_times, Observations, DEDUP_WINDOW};
use crate::stream::{ReferenceStreamingSensor, StreamConfig, StreamingSensor, WindowSummary};
use bs_dns::{SimDuration, SimTime};
use bs_netsim::log::{QueryLog, QueryLogRecord};
use bs_par::Rng;

const CASES: u64 = 96;

/// The inputs of the two fast-path suites as `(pools, cases, stream
/// window)`: many small streams over five windows, and a few seeds of
/// the shape that grows the tables, in one day-long window so the
/// footprints accumulate.
const INPUTS: [(&Pools, u64, u64); 2] =
    [(&SMALL, CASES, 1_000), (&AMPLIFIED, 4, AMPLIFIED.horizon)];

fn log_of(records: &[QueryLogRecord]) -> QueryLog {
    let mut log = QueryLog::new();
    for r in records {
        log.push(*r);
    }
    log
}

/// Push `records` through both sensors; every emitted window and the
/// final flush must agree, and each window's offsets must give the
/// times the reference recorded.
fn assert_streams_agree(records: &[QueryLogRecord], cfg: StreamConfig, seed: u64) {
    let mut fast = StreamingSensor::new(cfg);
    let mut reference = ReferenceStreamingSensor::new(cfg);
    let mut windows: Vec<WindowSummary> = Vec::new();
    for r in records {
        let emitted = fast.push(*r);
        assert_eq!(emitted, reference.push(*r), "windows must agree per record (seed {seed})");
        windows.extend(emitted);
    }
    let last = fast.finish();
    assert_eq!(last, reference.finish(), "final flush must agree (seed {seed})");
    windows.extend(last);
    assert_eq!(windows.len(), reference.recorded().len(), "seed {seed}");
    for (w, times) in windows.iter().zip(reference.recorded()) {
        assert_offsets_are_times(&w.observations, times);
    }
}

/// Batch: the sensor run for one window equals the BTree reference —
/// identical `Observations` (per-originator streams in arrival
/// order, querier sets, window-global querier set) — on what the batch
/// callers feed it: logs sorted and not, windows that start off zero
/// and are no multiple of their own length, records on both sides of
/// the bounds, an inverted window, and the ablation's dedup widths
/// beside an arbitrary one.
#[test]
fn batch_fast_path_matches_reference() {
    for (pools, cases, _) in INPUTS {
        for seed in 0..cases {
            let mut rng = Rng::new(seed ^ 0xBA7C);
            let unsorted = arb_records(&mut rng, pools);
            let mut sorted = unsorted.clone();
            sorted.sort_by_key(|r| r.time);
            let h = pools.horizon;
            for log in [log_of(&sorted), log_of(&unsorted)] {
                for (start, end) in [(0, h), (100, 237), (h / 3, h - 7), (237, 100)] {
                    for dedup in [rng.below(60), 0, 30, 300] {
                        let (start, end, dedup) =
                            (SimTime(start), SimTime(end), SimDuration(dedup));
                        let fast = Observations::ingest_with_dedup(&log, start, end, dedup);
                        let (reference, times) =
                            Observations::ingest_with_dedup_reference(&log, start, end, dedup);
                        assert_eq!(
                            fast, reference,
                            "seed {seed}, window [{start:?}, {end:?}), dedup {dedup:?}"
                        );
                        assert_offsets_are_times(&fast, &times);
                    }
                }
            }
        }
    }
}

/// Streaming: the arena/lazy-heap sensor equals the BTree/scan
/// reference window for window — including under memory pressure,
/// where both must hold the same probation counts, admit the same
/// newcomers, and evict the same victims in the same order.
#[test]
fn stream_fast_path_matches_reference() {
    for (pools, cases, window) in INPUTS {
        for seed in 0..cases {
            let mut rng = Rng::new(seed ^ 0x57E4);
            let records = sorted_records(&mut rng, pools);
            let cfg = StreamConfig {
                window: SimDuration::from_secs(window),
                max_originators: rng.range(1..12),
                admission_queries: rng.range(1..4),
                probation_cap: rng.range(4..24),
                ..Default::default()
            };
            assert_streams_agree(&records, cfg, seed);
        }
    }
}

/// The same equivalence on *unsorted* streams: late records take
/// the out-of-order drop path in both implementations, so the
/// guard itself is part of the spec being held equal.
#[test]
fn stream_equivalence_with_out_of_order_records() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x000D);
        let records = arb_records(&mut rng, &SMALL);
        let cfg = StreamConfig {
            window: SimDuration::from_secs(500),
            max_originators: rng.range(1..12),
            admission_queries: 2,
            ..Default::default()
        };
        assert_streams_agree(&records, cfg, seed);
    }
}

/// Streaming with an unbounded table also equals the BTree *batch*
/// reference over the same window — the stream-equals-batch
/// determinism guarantee the pipeline's replay tests rely on, extended
/// to arbitrary streams. (The shipping batch form is this sensor, so
/// the comparison is against the reference, not against itself.)
#[test]
fn unbounded_stream_matches_batch() {
    for seed in 0..CASES {
        let records = sorted_records(&mut Rng::new(seed ^ 0x0B0D), &SMALL);
        let (batch, times) = Observations::ingest_with_dedup_reference(
            &log_of(&records),
            SimTime(0),
            SimTime(5_000),
            DEDUP_WINDOW,
        );
        let mut sensor = StreamingSensor::new(StreamConfig {
            window: SimDuration::from_secs(5_000),
            ..Default::default()
        });
        let mut emitted: Vec<WindowSummary> = Vec::new();
        for r in &records {
            emitted.extend(sensor.push(*r));
        }
        emitted.extend(sensor.finish());
        assert!(emitted.len() <= 1, "one window configured (seed {seed})");
        if let Some(w) = emitted.first() {
            assert_eq!(w.observations.per_originator, batch.per_originator, "seed {seed}");
            assert_eq!(w.observations.all_queriers, batch.all_queriers, "seed {seed}");
            assert_offsets_are_times(&w.observations, &times);
            assert_eq!(w.evicted, 0, "seed {seed}");
        } else {
            assert!(batch.per_originator.is_empty(), "seed {seed}");
        }
    }
}

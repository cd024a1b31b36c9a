//! The live streaming driver: a long-running sensor process with the
//! bs-live observability stack attached.
//!
//! [`run_live_stream`] feeds a query log through a streaming sensor
//! one record at a time — optionally *paced* to a target
//! records-per-second so a replayed log exercises the system the way a
//! real tap would — while a [`bs_live::LiveHandle`] (when attached)
//! samples the registry, serves scrapes, and runs the health watchdog.
//! The watchdog's shared [`bs_live::HealthState`] is wired into the
//! sensor as its pressure hook, closing the graceful-degradation loop:
//! an eviction storm trips the watchdog, the sensor tightens its
//! probation decay, the storm's memory footprint drains, and the
//! watchdog clears. With more than one shard the hook broadcasts to
//! every lane.
//!
//! # Two stages
//!
//! Ingesting window *d + 1* needs nothing from the extraction and
//! verdicts of window *d*, and a tap cannot pause while a window
//! closes. So whenever the `bs-par` pool is wider than one thread the
//! driver is a two-stage pipeline: the **sensor loop** (pace → `push`
//! → `finish`) runs on a scoped thread of its own and hands every
//! completed [`WindowSummary`] by value through a bounded hand-off of
//! depth one to the **calling thread**, which closes it — forces the
//! live sample, runs the caller's `on_window` (feature extraction
//! first, in [`run_live_stream_extracting`]'s case) — and drops it
//! there, off the ingest path. The callback never leaves the calling
//! thread, so it needs no `Send` bound and may borrow anything the
//! caller can. Windows come from one sensor in order, so output is the
//! same at every pool width by construction. A closer that falls
//! behind stalls ingest within the hand-off depth: at most one window
//! being ingested, one queued and one being closed are alive at once.
//! At one thread the same loop runs on the calling thread and hands
//! each window straight to the closer.
//!
//! The `shards` parameter picks the engine: `0` and `1` are the plain
//! [`StreamingSensor`], at every pool width; `N ≥ 2` asks for the
//! hash-sharded [`ShardedStreamingSensor`] on `N` lanes. Output is
//! identical either way — the shard topology guarantees it, and the
//! seeded equivalence suites in `bs-sensor` pin it down — but the
//! sharded engine measures slower than the single sensor on every
//! benchmark workload (DESIGN §13), so nothing picks it unasked.

use bs_netsim::log::QueryLogRecord;
use bs_sensor::qmeta::QuerierMetaCache;
use bs_sensor::{
    extract_with_meta_cache, FeatureConfig, OriginatorFeatures, QuerierInfo,
    ShardedStreamingSensor, StreamConfig, StreamingSensor, WindowSummary,
};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// What one [`run_live_stream`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRunStats {
    /// Records fed to the sensor.
    pub records: u64,
    /// Completed windows emitted (including the final partial one).
    pub windows: usize,
    /// Originators evicted across all windows.
    pub evicted: usize,
}

/// Between pacing sleeps, feed this many records. Sleeping per record
/// would turn pacing into a syscall benchmark; batches keep the duty
/// cycle honest at any realistic rate.
const PACE_BATCH: u64 = 64;

/// Completed windows that may wait between the sensor thread and the
/// closing thread. One lets the sensor start the next window while
/// the last is still being closed; any more only holds more windows
/// in memory behind a closer that is already the bottleneck.
const HANDOFF_DEPTH: usize = 1;

/// Resolve a requested shard count: `0` (auto) and `1` are the single
/// sensor; anything else is clamped to `2..=SHARD_SLICES` lanes of the
/// sharded one. Auto does not look at the pool width, so the same
/// command evicts the same originators on any host.
pub fn resolve_shards(requested: usize) -> usize {
    requested.clamp(1, bs_sensor::SHARD_SLICES)
}

/// The two ingest engines behind one driver loop.
enum Engine {
    Single(Box<StreamingSensor>),
    Sharded(Box<ShardedStreamingSensor>),
}

impl Engine {
    fn new(config: StreamConfig, shards: usize, pressure: Option<bs_live::HealthState>) -> Engine {
        match resolve_shards(shards) {
            1 => {
                let mut sensor = StreamingSensor::new(config);
                if let Some(hook) = pressure {
                    sensor.set_pressure_hook(hook);
                }
                Engine::Single(Box::new(sensor))
            }
            n => {
                let mut sensor = ShardedStreamingSensor::new(config, n);
                if let Some(hook) = pressure {
                    sensor.set_pressure_hook(hook);
                }
                Engine::Sharded(Box::new(sensor))
            }
        }
    }

    fn push(&mut self, r: QueryLogRecord) -> Option<WindowSummary> {
        match self {
            Engine::Single(s) => s.push(r),
            Engine::Sharded(s) => s.push(r),
        }
    }

    fn finish(self) -> Option<WindowSummary> {
        match self {
            Engine::Single(s) => s.finish(),
            Engine::Sharded(s) => s.finish(),
        }
    }
}

/// Sleep off `lead`. On the sensor's own thread `closer` is given and
/// disconnects when the closing side is gone, which cuts the sleep
/// short; the answer is whether anyone still wants windows.
fn pace(closer: Option<&mpsc::Receiver<()>>, lead: Duration) -> bool {
    match closer {
        None => {
            std::thread::sleep(lead);
            true
        }
        Some(closer) => closer.recv_timeout(lead) == Err(RecvTimeoutError::Timeout),
    }
}

/// The sensor loop: pace, push, finish. Every completed window goes to
/// `sink`, which answers whether anyone still wants windows.
fn ingest(
    records: &[QueryLogRecord],
    mut engine: Engine,
    pace_rps: u64,
    started: Instant,
    closer: Option<&mpsc::Receiver<()>>,
    mut sink: impl FnMut(WindowSummary) -> bool,
) -> StreamRunStats {
    let mut stats = StreamRunStats { records: 0, windows: 0, evicted: 0 };
    for r in records {
        if pace_rps > 0 && stats.records.is_multiple_of(PACE_BATCH) {
            // Sleep off any lead over the pace schedule.
            let due = Duration::from_nanos(stats.records.saturating_mul(1_000_000_000) / pace_rps);
            let elapsed = started.elapsed();
            if due > elapsed && !pace(closer, due - elapsed) {
                return stats;
            }
        }
        stats.records += 1;
        if let Some(w) = engine.push(*r) {
            stats.windows += 1;
            stats.evicted += w.evicted;
            if !sink(w) {
                return stats;
            }
        }
    }
    if let Some(w) = engine.finish() {
        stats.windows += 1;
        stats.evicted += w.evicted;
        sink(w);
    }
    stats
}

/// Stream `records` through a sensor configured by `config`, invoking
/// `on_window` on the calling thread for every completed window (and
/// the final partial one), in order. With a pool wider than one thread
/// the sensor runs ahead on a thread of its own — see the module docs.
///
/// * `shards`: `0` or `1` is the plain single sensor, `N ≥ 2` the
///   sharded one on `N` lanes — see [`resolve_shards`].
/// * `live`: when given, its health state becomes the sensor's
///   pressure hook and a sample is forced as every window is closed so
///   scrapes see fresh window counters immediately.
/// * `pace_rps`: target ingest rate in records/second; `0` replays as
///   fast as possible.
///
/// Records must be in time order (the streaming sensor's contract;
/// late records are counted and dropped, never reordered).
///
/// # Panics
/// A panic in `on_window` or in the sensor unwinds out of this call
/// with its own payload, after the other stage has stopped.
pub fn run_live_stream<F>(
    records: &[QueryLogRecord],
    config: StreamConfig,
    shards: usize,
    live: Option<&bs_live::LiveHandle>,
    pace_rps: u64,
    mut on_window: F,
) -> StreamRunStats
where
    F: FnMut(&WindowSummary),
{
    let _stage = bs_telemetry::stage("core.stream");
    let pressure = live.map(|handle| handle.health_state());
    let started = Instant::now();
    let sample = || {
        if let Some(handle) = live {
            handle.sample_now(started.elapsed().as_millis() as u64);
        }
    };
    let mut close = |w: WindowSummary| {
        sample();
        on_window(&w);
    };

    let stats = if bs_par::threads() > 1 {
        bs_par::scope(|s| {
            let (tx, rx) = mpsc::sync_channel::<WindowSummary>(HANDOFF_DEPTH);
            // Held by the closing side for as long as it wants windows.
            let (_closing, closer) = mpsc::channel::<()>();
            let sensor = s.spawn(move || {
                bs_telemetry::trace::name_lane("stream-ingest");
                let engine = Engine::new(config, shards, pressure);
                ingest(records, engine, pace_rps, started, Some(&closer), |w| {
                    let blocked = Instant::now();
                    let taken = tx.send(w).is_ok();
                    bs_telemetry::counter_add(
                        "core.stream.ingest_wait_ns",
                        blocked.elapsed().as_nanos() as u64,
                    );
                    taken
                })
            });
            // Unwinding out of `close` drops `rx` and `_closing`: the
            // sensor's next send (or pacing sleep) fails, it returns,
            // and the scope lets the panic through.
            loop {
                let idle = Instant::now();
                let Ok(w) = rx.recv() else { break };
                bs_telemetry::counter_add(
                    "core.stream.close_wait_ns",
                    idle.elapsed().as_nanos() as u64,
                );
                close(w);
            }
            // The channel is closed: the sensor finished or panicked.
            sensor.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    } else {
        let engine = Engine::new(config, shards, pressure);
        ingest(records, engine, pace_rps, started, None, |w| {
            close(w);
            true
        })
    };
    sample();
    stats
}

/// [`run_live_stream`] plus per-window feature extraction through the
/// querier metadata plane: every completed window runs
/// [`extract_with_meta_cache`] against `info`, with one
/// [`QuerierMetaCache`] persisting across windows so queriers that
/// recur between windows skip re-resolution (the ROADMAP item-3
/// online-serving posture: resolve metadata once, serve features per
/// window). The caller owns the cache, so successive calls — or a
/// restart-with-state — keep their warmth; `on_window` receives each
/// window summary together with its extracted features. Extraction and
/// `on_window` run on the calling thread inside the window's
/// [`bs_telemetry::ledger::window_scope`], so their ledger rows and stage
/// costs are filed under the same window key as the sensor's.
///
/// Extraction output is cache-invariant and bit-identical to a cold
/// extraction (and therefore to `bs-sensor`'s test-only per-pair
/// reference); the seeded equivalence suites in `bs-sensor` pin this
/// down.
#[allow(clippy::too_many_arguments)]
pub fn run_live_stream_extracting<F>(
    records: &[QueryLogRecord],
    config: StreamConfig,
    shards: usize,
    live: Option<&bs_live::LiveHandle>,
    pace_rps: u64,
    info: &(impl QuerierInfo + Sync),
    feature_config: &FeatureConfig,
    cache: &mut QuerierMetaCache,
    mut on_window: F,
) -> StreamRunStats
where
    F: FnMut(&WindowSummary, &[OriginatorFeatures]),
{
    run_live_stream(records, config, shards, live, pace_rps, |w| {
        let _window = bs_telemetry::ledger::window_scope(w.window.0.secs());
        let features = extract_with_meta_cache(&w.observations, info, feature_config, Some(cache));
        on_window(w, &features);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use bs_dns::{SimDuration, SimTime};
    use bs_netsim::log::QueryLogRecord;
    use bs_netsim::types::{AsId, CountryCode, NameOutcome};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Run `f` at pool width `n`; the override is cleared on the way
    /// out, also when `f` panics.
    fn at_width<R>(n: usize, f: impl FnOnce() -> R) -> R {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                bs_par::set_threads(0);
            }
        }
        let _reset = Reset;
        bs_par::set_threads(n);
        f()
    }

    /// A hung driver must fail its test, not the whole run: `f` runs
    /// on a thread of its own and has this long to come back.
    const DEADLINE: Duration = Duration::from_secs(20);

    fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(DEADLINE).expect("the driver did not return within the deadline")
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(other) => {
                other.downcast::<&'static str>().map(|s| s.to_string()).unwrap_or_default()
            }
        }
    }

    fn rec(t: u64, q: u32, o: u32) -> QueryLogRecord {
        QueryLogRecord {
            time: SimTime(t),
            querier: std::net::Ipv4Addr::from(0x0A00_0000 | q),
            originator: std::net::Ipv4Addr::from(0xCB00_0000 | o),
            rcode: bs_dns::Rcode::NoError,
        }
    }

    /// `windows` windows of 100 s, 50 records each: two originators,
    /// several queriers.
    fn even_records(windows: u64) -> Vec<QueryLogRecord> {
        let mut out = Vec::new();
        for w in 0..windows {
            for i in 0..50u32 {
                out.push(rec(w * 100 + (i % 90) as u64, i % 7, i % 2));
            }
        }
        out
    }

    fn sample_records() -> Vec<QueryLogRecord> {
        even_records(3)
    }

    fn hundred_second_windows() -> StreamConfig {
        StreamConfig { window: SimDuration::from_secs(100), ..Default::default() }
    }

    /// A seeded stream over 100 s windows that is hard on a driver:
    /// forty originators against a table of eight (evictions and
    /// probation), records that arrive late — some a whole window late
    /// — gaps of several empty windows, and a partial last window.
    fn hostile_records(seed: u64) -> Vec<QueryLogRecord> {
        let mut draws = 0;
        let mut next = |n: u64| {
            draws += 1;
            bs_par::derive_seed(seed, draws) % n
        };
        let mut t = 1_000 + next(100);
        let mut out = Vec::new();
        for _ in 0..1_500 + next(500) {
            t += next(3);
            if next(120) == 0 {
                t += 250 + next(200);
            }
            let at = if next(25) == 0 { t - next(150) } else { t };
            out.push(rec(at, next(64) as u32, next(40) as u32));
        }
        out
    }

    struct ToyInfo;
    impl QuerierInfo for ToyInfo {
        fn querier_name(&self, addr: std::net::Ipv4Addr) -> NameOutcome {
            if addr.octets()[3].is_multiple_of(2) {
                NameOutcome::Name(bs_dns::DomainName::parse("mail.example.com").unwrap())
            } else {
                NameOutcome::NxDomain
            }
        }
        fn querier_as(&self, addr: std::net::Ipv4Addr) -> Option<AsId> {
            Some(AsId(addr.octets()[3] as u32 % 3))
        }
        fn querier_country(&self, _addr: std::net::Ipv4Addr) -> Option<CountryCode> {
            Some(CountryCode::new("jp").unwrap())
        }
    }

    #[test]
    fn driver_matches_reference_sensor_windows() {
        let _serial = serial();
        let records = sample_records();
        let cfg = hundred_second_windows();

        let mut driven = Vec::new();
        let stats = run_live_stream(&records, cfg, 1, None, 0, |w| driven.push(w.clone()));
        assert_eq!(stats.records, records.len() as u64);
        assert_eq!(stats.windows, driven.len());

        // The same engine, pushed directly.
        let mut sensor = StreamingSensor::new(cfg);
        let mut expect = Vec::new();
        for r in &records {
            expect.extend(sensor.push(*r));
        }
        expect.extend(sensor.finish());
        assert_eq!(driven, expect, "driver must not change sensor semantics");
    }

    #[test]
    fn sharded_driver_matches_sharded_reference() {
        let _serial = serial();
        let records = sample_records();
        let cfg = hundred_second_windows();

        // The sharded engine pushed directly, on one lane: its output
        // is lane-count invariant (bs-sensor's `shard_equivalence`).
        let mut sensor = ShardedStreamingSensor::new(cfg, 1);
        let mut expect = Vec::new();
        for r in &records {
            expect.extend(sensor.push(*r));
        }
        expect.extend(sensor.finish());

        for shards in [2, 4, 8] {
            let mut driven = Vec::new();
            let stats = run_live_stream(&records, cfg, shards, None, 0, |w| driven.push(w.clone()));
            assert_eq!(stats.records, records.len() as u64);
            assert_eq!(driven, expect, "shards={shards}: output must be shard-count invariant");
        }
    }

    #[test]
    fn extracting_driver_matches_reference_extraction_per_window() {
        let _serial = serial();
        let records = sample_records();
        let cfg = hundred_second_windows();
        let fc = FeatureConfig { min_queriers: 1, top_n: None };

        let mut cache = QuerierMetaCache::default();
        let mut windows = Vec::new();
        let stats = run_live_stream_extracting(
            &records,
            cfg,
            1,
            None,
            0,
            &ToyInfo,
            &fc,
            &mut cache,
            |w, f| {
                windows.push((w.clone(), f.to_vec()));
            },
        );
        assert_eq!(stats.windows, windows.len());
        assert!(!windows.is_empty());
        assert!(
            cache.hits() > 0,
            "queriers recur across the sample windows: the cache must serve hits"
        );

        for (w, features) in &windows {
            let expect = extract_with_meta_cache(&w.observations, &ToyInfo, &fc, None);
            assert_eq!(
                features, &expect,
                "the driver's warm-cache extraction must equal a cold one"
            );
        }
    }

    #[test]
    fn shard_resolution_clamps_and_auto_is_the_single_sensor() {
        let _serial = serial();
        assert_eq!(resolve_shards(1), 1);
        assert_eq!(resolve_shards(4), 4);
        assert_eq!(resolve_shards(10_000), bs_sensor::SHARD_SLICES);
        for width in [1, 2, 8] {
            assert_eq!(
                at_width(width, || resolve_shards(0)),
                1,
                "auto is the single sensor at pool width {width}"
            );
        }
    }

    #[test]
    fn pacing_slows_replay_to_the_target_rate() {
        let _serial = serial();
        let records = sample_records();
        for width in [1, 2] {
            let started = Instant::now();
            // 150 records at 1000 rps ≥ 150 ms of wall clock.
            let stats = at_width(width, || {
                run_live_stream(&records, hundred_second_windows(), 1, None, 1_000, |_| {})
            });
            assert_eq!(stats.records, 150);
            let elapsed = started.elapsed();
            assert!(
                elapsed >= Duration::from_millis(80),
                "width {width}: pacing had no effect: {elapsed:?} for 150 records at 1000 rps"
            );
        }
    }

    /// Everything a run of the extracting driver produces.
    type Run = (Vec<WindowSummary>, Vec<Vec<OriginatorFeatures>>, StreamRunStats, u64);

    fn extracting_run(records: &[QueryLogRecord], width: usize, pace_rps: u64) -> Run {
        let cfg = StreamConfig { max_originators: 8, ..hundred_second_windows() };
        let fc = FeatureConfig { min_queriers: 3, top_n: None };
        let mut cache = QuerierMetaCache::default();
        let (mut summaries, mut rows) = (Vec::new(), Vec::new());
        let stats = at_width(width, || {
            run_live_stream_extracting(
                records,
                cfg,
                0,
                None,
                pace_rps,
                &ToyInfo,
                &fc,
                &mut cache,
                |w, f| {
                    summaries.push(w.clone());
                    rows.push(f.to_vec());
                },
            )
        });
        (summaries, rows, stats, cache.hits())
    }

    #[test]
    fn pipelined_driver_equals_the_inline_one() {
        let _serial = serial();
        let (mut evicted, mut late, mut gaps) = (0, 0, 0);
        for seed in 0..6u64 {
            let records = hostile_records(seed);
            let inline = extracting_run(&records, 1, 0);
            let (summaries, rows, stats, hits) = &inline;
            assert_eq!(stats.records, records.len() as u64, "seed {seed}");
            assert_eq!(stats.windows, summaries.len(), "seed {seed}");
            assert!(*hits > 0, "seed {seed}: queriers recur, the cache must be warm");
            assert!(rows.iter().any(|r| !r.is_empty()), "seed {seed}: nothing analyzable");
            // The stream's newest record lies inside the last window:
            // no later record closed it, `finish` did.
            let last = summaries.last().expect("windows were emitted");
            let newest = records.iter().map(|r| r.time).max().expect("records");
            assert!(
                last.window.0 <= newest && newest < last.window.1,
                "seed {seed}: the last window must be the partial one `finish` emits"
            );
            evicted += stats.evicted;
            late += records.windows(2).filter(|p| p[1].time < p[0].time).count();
            gaps += summaries.windows(2).filter(|p| p[1].window.0 > p[0].window.1).count();

            for width in [1, 2, 8] {
                // 200 k records/s: fast, yet every 64-record batch
                // sleeps off most of its 320 µs.
                for pace_rps in [0, 200_000] {
                    let run = extracting_run(&records, width, pace_rps);
                    assert!(
                        run == inline,
                        "seed {seed}, width {width}, pace {pace_rps}: the driver's output moved"
                    );
                }
            }
        }
        assert!(evicted > 0 && late > 0 && gaps > 0, "{evicted} evicted, {late} late, {gaps} gaps");
    }

    #[test]
    fn a_panic_in_either_stage_unwinds_out_of_the_driver() {
        let _serial = serial();
        for width in [2, 8] {
            // The closing side: the third window's callback panics
            // while the sensor is windows ahead.
            let message = within_deadline(move || {
                let records = even_records(12);
                let mut seen = 0;
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    at_width(width, || {
                        run_live_stream(&records, hundred_second_windows(), 0, None, 0, |_| {
                            seen += 1;
                            if seen == 3 {
                                panic!("closer boom");
                            }
                        })
                    })
                }));
                panic_message(caught.expect_err("the callback's panic must come out"))
            });
            assert_eq!(message, "closer boom", "width {width}");

            // The sensor side: a zero-length window fails the sensor's
            // own assertion, on the sensor's thread.
            let message = within_deadline(move || {
                let records = even_records(3);
                let cfg = StreamConfig { window: SimDuration::from_secs(0), ..Default::default() };
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    at_width(width, || run_live_stream(&records, cfg, 0, None, 0, |_| {}))
                }));
                panic_message(caught.expect_err("the sensor's panic must come out"))
            });
            assert!(message.contains("config.window.secs() > 0"), "width {width}: {message:?}");
        }
    }

    #[test]
    fn a_panicking_closer_cuts_a_paced_sensor_short() {
        let _serial = serial();
        // One short window, then a window that takes the paced sensor
        // a minute: the callback's panic must not wait for its end.
        let mut records = even_records(1);
        records.extend((0..60_000u32).map(|i| rec(100 + (i % 90) as u64, i % 7, i % 2)));
        let started = Instant::now();
        let message = within_deadline(move || {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                at_width(2, || {
                    run_live_stream(&records, hundred_second_windows(), 0, None, 1_000, |_| {
                        panic!("closer boom")
                    })
                })
            }));
            panic_message(caught.expect_err("the callback's panic must come out"))
        });
        assert_eq!(message, "closer boom");
        assert!(started.elapsed() < DEADLINE / 2, "took {:?}", started.elapsed());
    }

    #[test]
    fn a_stalled_closer_stalls_ingest_within_the_hand_off_depth() {
        let _serial = serial();
        bs_telemetry::enable();
        let flushed = bs_telemetry::registry().counter("sensor.stream.records");
        let records = even_records(10);
        let before = flushed.get();
        // While window k is being closed the sensor may fill the
        // hand-off and finish one window more, and then must block.
        let k = 2;
        let ahead = 50 * (k + 1 + HANDOFF_DEPTH as u64 + 1);
        let mut closed = 0;
        let stats = at_width(2, || {
            run_live_stream(&records, hundred_second_windows(), 0, None, 0, |_| {
                if closed == k {
                    let waiting = Instant::now();
                    while flushed.get() - before < ahead {
                        assert!(waiting.elapsed() < DEADLINE, "the sensor never ran ahead");
                        std::thread::yield_now();
                    }
                    // Nothing can show that a thread will not move;
                    // an unbounded sensor would finish the remaining
                    // five windows in microseconds.
                    std::thread::sleep(Duration::from_millis(50));
                    assert_eq!(
                        flushed.get() - before,
                        ahead,
                        "the sensor flushed past window k + 1 + depth"
                    );
                }
                closed += 1;
            })
        });
        bs_telemetry::disable();
        assert_eq!(stats.windows, 10);
        assert_eq!(flushed.get() - before, 500);
    }
}

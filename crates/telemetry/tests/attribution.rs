//! Regression tests for sampler attribution and allocator accounting,
//! run with the counting allocator actually installed as the global
//! allocator (the way the `backscatter` binary ships it).

use bs_telemetry::prof;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

/// Both tests toggle the process-global profiling flag; serialize.
static SERIAL: Mutex<()> = Mutex::new(());

/// The sampler must attribute ≥95% of a synthetic busy-loop span's
/// wall time to the correct stage: every busy (non-idle) sample taken
/// while the only active span is `attr.test.busy` must land on it.
/// Torn seqlock reads are skipped, never misattributed, so they don't
/// dilute the ratio.
#[test]
fn sampler_attributes_busy_loop_to_its_stage() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(prof::start(250), "sampler starts");
    {
        let _stage = bs_telemetry::stage("attr.test.busy");
        let t0 = Instant::now();
        // Long enough for dozens of ticks even on a loaded 1-core host.
        while t0.elapsed() < Duration::from_millis(400) {
            std::hint::black_box(t0.elapsed());
        }
    }
    prof::stop();

    let (busy, idle, torn, ticks) = prof::sample_counts();
    assert!(ticks >= 10, "sampler barely ran: {ticks} ticks");
    assert!(busy >= 5, "too few busy samples to judge attribution: {busy} (idle={idle})");

    let mut on_stage = 0u64;
    let mut total = 0u64;
    for line in prof::folded().lines() {
        let (path, count) = line.rsplit_once(' ').expect("folded line has a trailing count");
        let count: u64 = count.parse().expect("folded count parses");
        total += count;
        if path.split(';').any(|f| f == "attr.test.busy") {
            on_stage += count;
        }
    }
    assert_eq!(total, busy, "folded output accounts for every busy sample");
    assert!(
        on_stage * 100 >= total * 95,
        "attribution below 95%: {on_stage}/{total} busy samples on attr.test.busy (torn={torn})"
    );
}

/// Allocations made inside a stage scope are charged to that stage by
/// the installed global allocator.
#[test]
fn allocator_charges_stage_scoped_allocations() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    prof::enable();
    let grown = {
        let _stage = bs_telemetry::stage("attr.test.alloc");
        let mut v: Vec<Box<u64>> = Vec::new();
        for i in 0..256u64 {
            v.push(Box::new(i));
        }
        std::hint::black_box(v.len())
    };
    prof::disable();
    assert_eq!(grown, 256);
    let row = prof::alloc_rows()
        .into_iter()
        .find(|r| r.stage == "attr.test.alloc")
        .expect("stage has an allocation row");
    assert!(row.count >= 256, "boxed values charged to the stage: {}", row.count);
    assert!(row.bytes >= 256 * 8, "bytes charged: {}", row.bytes);
    assert!(prof::alloc_json().contains("attr.test.alloc"));
}

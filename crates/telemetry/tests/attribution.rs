//! Regression tests for time attribution and allocator accounting,
//! run with the counting allocator actually installed as the global
//! allocator (the way the `backscatter` binary ships it).

use bs_telemetry::prof;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

/// Both tests toggle the process-global profiling flag; serialize.
static SERIAL: Mutex<()> = Mutex::new(());

/// A stage's wall time lands on the path it ran on, all of it and
/// nowhere else: the moment the guard drops the folded output has the
/// stage's line, call counts are exact, and a parent's self time is its
/// total less its same-thread children's to the nanosecond.
#[test]
fn stage_time_is_attributed_to_its_path_exactly() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    prof::reset();
    prof::enable();
    {
        let _stage = bs_telemetry::stage("attr.test.busy");
        for _ in 0..3 {
            let _inner = bs_telemetry::stage("attr.test.inner");
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(1) {
                std::hint::black_box(t0.elapsed());
            }
        }
        assert_eq!(
            prof::path_rows().len(),
            1,
            "closed stages are visible at once, open ones not yet"
        );
    }
    prof::disable();

    let rows = prof::path_rows();
    let paths: Vec<&str> = rows.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(paths, ["attr.test.busy", "attr.test.busy;attr.test.inner"]);
    let (busy, inner) = (rows[0].1, rows[1].1);
    assert_eq!((busy.calls, inner.calls), (1, 3));
    assert!(inner.total_ns >= 3_000_000, "three 1 ms loops: {}", inner.total_ns);
    assert_eq!(inner.self_ns, inner.total_ns);
    assert_eq!(busy.self_ns, busy.total_ns - inner.total_ns);
    assert_eq!(
        prof::folded(),
        format!(
            "attr.test.busy {}\nattr.test.busy;attr.test.inner {}\n",
            busy.self_ns, inner.self_ns
        )
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

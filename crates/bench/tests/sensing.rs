//! The registry senses every window of a dataset once: the features
//! [`Ctx::features`] memoizes are the ones [`Ctx::series`] classifies.
//!
//! The metrics registry is process-global, so every test in this binary
//! serializes on one mutex.

use backscatter_core::prelude::{DatasetId, Scale};
use bench::Ctx;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `sensor.extract` stage calls so far.
fn extracts() -> u64 {
    bs_telemetry::registry().histogram("sensor.extract").count()
}

#[test]
fn the_registry_senses_each_window_once() {
    let _g = serial();
    let ctx = Ctx::new(Scale::smoke(), 5, None);
    bs_telemetry::enable();
    for id in [DatasetId::JpDitl, DatasetId::BPostDitl, DatasetId::MDitl, DatasetId::MSampled] {
        let windows = ctx.dataset(id).windows().len() as u64;
        let before = extracts();
        ctx.features(id);
        let sensed = extracts();
        assert_eq!(sensed - before, windows, "{}: features senses each window", id.name());
        ctx.series(id);
        assert_eq!(extracts(), sensed, "{}: series senses nothing again", id.name());
    }
    bs_telemetry::disable();
}

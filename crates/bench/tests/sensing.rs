//! The registry senses every window of a dataset once, in one pass over
//! its log: the features [`Ctx::features`] memoizes are the ones
//! [`Ctx::series`] classifies, and each equals that window's anchored
//! extraction.
//!
//! The metrics registry is process-global, so every test in this binary
//! serializes on one mutex.

use backscatter_core::prelude::{extract_features, DatasetId, FeatureConfig, Scale};
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
    let ids = [
        DatasetId::JpDitl,
        DatasetId::BPostDitl,
        DatasetId::MDitl,
        DatasetId::MSampled,
        DatasetId::BMultiYear,
    ];
    for id in ids {
        let windows = ctx.dataset(id).windows().len() as u64;
        let before = extracts();
        ctx.features(id);
        let sensed = extracts();
        assert_eq!(sensed - before, windows, "{}: features senses each window", id.name());
        ctx.series(id);
        assert_eq!(extracts(), sensed, "{}: series senses nothing again", id.name());
    }
    bs_telemetry::disable();

    // Both long feeds log records outside their spec windows (B-multi-
    // year between its weekly days, M-sampled after its last full
    // week), so the one pass closes windows it does not extract; what
    // it does extract is the anchored single-window extraction.
    for id in [DatasetId::BMultiYear, DatasetId::MSampled] {
        let built = ctx.dataset(id);
        let spec_windows = built.windows();
        let outside = built
            .log
            .records()
            .iter()
            .filter(|r| !spec_windows.iter().any(|(start, end)| (*start..*end).contains(&r.time)))
            .count();
        assert!(outside > 0, "{}: every record lies in a spec window", id.name());
        for (w, (start, end)) in spec_windows.into_iter().enumerate() {
            let anchored =
                extract_features(&built.log, &ctx.world, start, end, &FeatureConfig::default());
            assert_eq!(ctx.features(id)[w], anchored, "{}: window {w}", id.name());
        }
    }
}

//! The name-indexed metric registry and its process-global instance.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A set of named metrics. One process-global instance backs the crate's
/// free functions (gated by the crate's flag word; the registry itself
/// always records); tests may create private ones.
///
/// Lookups take a read lock on a `BTreeMap` (uncontended in practice:
/// writers only appear the first time a name is seen). Hot paths that
/// cannot afford even that should hold the returned [`Arc`] handle.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

static GLOBAL: Registry = Registry::new();

/// The process-global registry.
pub(crate) fn global() -> &'static Registry {
    &GLOBAL
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Zero every metric **in place**.
    /// Names stay registered and existing `Arc` handles stay connected:
    /// a caller that cached `registry.counter("x")` before the reset
    /// keeps recording into the same instance the next snapshot reads.
    /// (Dropping the map entries instead would silently detach cached
    /// handles — they would keep counting into an orphan the snapshot
    /// never sees again.)
    pub fn reset(&self) {
        for c in self.counters.read().expect("registry lock").values() {
            c.reset();
        }
        for g in self.gauges.read().expect("registry lock").values() {
            g.reset();
        }
        for h in self.histograms.read().expect("registry lock").values() {
            h.reset();
        }
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().expect("registry lock").get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().expect("registry lock");
    Arc::clone(w.entry(name.to_string()).or_default())
}

/// A frozen copy of a registry, ready for export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_metric() {
        let r = Registry::new();
        r.counter("a").add(1);
        r.counter("a").add(2);
        r.counter("b").add(10);
        assert_eq!(r.counter("a").get(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.counters["a"], 3);
        assert_eq!(snap.counters["b"], 10);
    }

    #[test]
    fn reset_zeroes_all_kinds_in_place() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(5);
        r.histogram("h").record(9);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 0, "names survive reset with zeroed values");
        assert_eq!(snap.gauges["g"], 0);
        assert_eq!(snap.histograms["h"].count, 0);
        assert_eq!(snap.histograms["h"].sum, 0);
        assert_eq!(snap.histograms["h"].max, 0);
    }

    #[test]
    fn cached_handles_survive_reset() {
        // Regression: reset used to drop the map entries, so a handle
        // cached before the reset kept recording into an orphaned
        // metric that no later snapshot could see.
        let r = Registry::new();
        let c = r.counter("cached.counter");
        let g = r.gauge("cached.gauge");
        let h = r.histogram("cached.hist");
        c.add(7);
        g.set(7);
        h.record(7);
        r.reset();
        c.add(3);
        g.add(3);
        h.record(3);
        let snap = r.snapshot();
        assert_eq!(snap.counters["cached.counter"], 3, "post-reset adds are visible");
        assert_eq!(snap.gauges["cached.gauge"], 3);
        assert_eq!(snap.histograms["cached.hist"].count, 1);
        assert_eq!(snap.histograms["cached.hist"].sum, 3);
        assert!(
            Arc::ptr_eq(&c, &r.counter("cached.counter")),
            "the registry still hands out the same instance"
        );
    }

    #[test]
    fn concurrent_interning_and_increments() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        // Contend on a shared name and a private one.
                        r.counter("shared").inc();
                        r.counter(&format!("private.{t}")).inc();
                        r.histogram("lat").record(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("shared").get(), 40_000);
        for t in 0..8 {
            assert_eq!(r.counter(&format!("private.{t}")).get(), 5_000);
        }
        assert_eq!(r.histogram("lat").count(), 40_000);
    }
}

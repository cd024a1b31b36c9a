//! `bs-live` — runtime observability for a long-running sensor.
//!
//! The paper's system is a network observer that must stay up (and
//! stay trustworthy) through scanning storms, eviction pressure, and
//! diurnal load swings. `bs-telemetry` answers "what happened over the
//! whole run"; this crate answers "what is happening *right now*":
//!
//! * [`Sampler`] — a bounded history of registry snapshots
//!   taken once a second, exposing windowed per-second rates
//!   (1 s / 10 s / 60 s), EWMA smoothing, and histogram quantiles;
//! * [`spawn_server`] — a std-only HTTP/1.1 scrape endpoint (`/metrics`,
//!   `/snapshot`, `/health`, `/trace/summary`);
//! * [`Watchdog`] — declarative threshold rules over the
//!   derived series that flip a tri-state [`Health`] and publish it
//!   through a shared [`HealthState`] atomic, which the streaming
//!   sensor polls to tighten probation admission under storm pressure.
//!
//! The composition is [`LiveLoop`]: one sampler plus one watchdog,
//! ticked either manually with explicit timestamps (deterministic
//! tests, simulations) or by [`serve`], which drives it from a
//! wall-clock thread next to the HTTP server.
//!
//! ```
//! use bs_live::LiveLoop;
//!
//! let mut live = LiveLoop::new();
//! let reg = bs_telemetry::Registry::new();
//! reg.counter("demo.records").add(0);
//! live.tick(0, reg.snapshot());
//! reg.counter("demo.records").add(150);
//! live.tick(1_000, reg.snapshot());
//! assert_eq!(live.sampler().rate("demo.records", 1_000), Some(150.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod series;
mod server;
mod watchdog;

pub use series::{Sample, Sampler};
pub use server::{http_get, spawn as spawn_server, ServerHandle};
pub use watchdog::{health_state, Health, HealthState, Rule, Severity, Signal, Watchdog};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Process start anchor for the `/buildinfo` uptime field, pinned the
/// first time anyone asks (LiveLoop creation touches it, so in
/// practice it anchors when the live stack comes up).
fn process_origin() -> Instant {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// The `/buildinfo` body: build provenance (git hash, rustc version,
/// cargo profile — baked in by `build.rs`, each `"unknown"` when not
/// determinable at compile time) plus process uptime.
pub(crate) fn buildinfo_json() -> String {
    format!(
        "{{\n  \"git_hash\": \"{}\",\n  \"rustc\": \"{}\",\n  \"profile\": \"{}\",\n  \"uptime_secs\": {}\n}}",
        bs_telemetry::json::escape(env!("BS_GIT_HASH")),
        bs_telemetry::json::escape(env!("BS_RUSTC_VERSION")),
        bs_telemetry::json::escape(env!("BS_BUILD_PROFILE")),
        process_origin().elapsed().as_secs()
    )
}

/// One sampler plus one watchdog: the state behind every scrape route.
#[derive(Debug)]
pub struct LiveLoop {
    sampler: Sampler,
    watchdog: Watchdog,
}

impl LiveLoop {
    /// A live loop with no history, health `Ok`, watching
    /// [`Watchdog::default_rules`]. Enables the global telemetry
    /// registry — a live view of a disabled registry is all zeros,
    /// which is never what an operator asked for (and why this is no
    /// `Default`).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        bs_telemetry::enable();
        process_origin();
        LiveLoop {
            sampler: Sampler::new(),
            watchdog: Watchdog::new(Watchdog::default_rules(), health_state()),
        }
    }

    /// Record one sample at `at_ms` and run the watchdog over the
    /// updated history. Publishes `live.ticks` and
    /// `live.health.status` gauges into the global registry so
    /// `/metrics` exposes them alongside everything else.
    pub fn tick(&mut self, at_ms: u64, snapshot: bs_telemetry::Snapshot) -> Health {
        self.sampler.tick(at_ms, snapshot);
        let health = self.watchdog.evaluate(&self.sampler);
        bs_telemetry::gauge_set("live.ticks", self.sampler.ticks() as i64);
        bs_telemetry::gauge_set("live.health.status", health.as_u8() as i64);
        health
    }

    /// Sample the global registry at `at_ms`, refreshing the
    /// `live.ledger.imbalances` gauge first so the conservation rule
    /// sees the current ledger state in the same sample.
    pub(crate) fn tick_global(&mut self, at_ms: u64) -> Health {
        let imbalances = bs_telemetry::ledger::verify().len();
        bs_telemetry::gauge_set("live.ledger.imbalances", imbalances as i64);
        self.tick(at_ms, bs_telemetry::snapshot())
    }

    /// Current aggregate health.
    pub fn health(&self) -> Health {
        self.watchdog.health()
    }

    /// The shared health cell (`0` ok / `1` degraded / `2` critical)
    /// for graceful-degradation consumers like the streaming sensor.
    pub fn health_state(&self) -> HealthState {
        self.watchdog.state()
    }

    /// The time-series engine.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// The watchdog.
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// The `/snapshot` body: timestamp, health, build provenance,
    /// derived per-counter rates, and the full registry snapshot
    /// (counters, gauges, histograms with p50/p90/p99).
    pub fn snapshot_json(&self) -> String {
        let (at_ms, registry_json) = match self.sampler.latest() {
            Some(s) => (s.at_ms as i64, s.snapshot.to_json()),
            None => (-1, "{}".to_string()),
        };
        // Indent the embedded registry document two spaces so the
        // composite stays readable under `curl | less`.
        let registry_json = registry_json.replace('\n', "\n  ");
        let buildinfo = buildinfo_json().replace('\n', "\n  ");
        format!(
            "{{\n  \"at_ms\": {},\n  \"health\": \"{}\",\n  \"ticks\": {},\n  \"buildinfo\": {},\n  \"rates\": {},\n  \"registry\": {}\n}}",
            at_ms,
            self.health().as_str(),
            self.sampler.ticks(),
            buildinfo,
            self.sampler.rates_json(),
            registry_json
        )
    }
}

/// A running live stack: HTTP server plus wall-clock sampling thread.
/// Dropping the handle stops both.
#[derive(Debug)]
pub struct LiveHandle {
    server: ServerHandle,
    live: Arc<Mutex<LiveLoop>>,
    stop: Arc<AtomicBool>,
    sampler_thread: Option<std::thread::JoinHandle<()>>,
}

impl LiveHandle {
    /// The bound scrape address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The shared health cell for degradation consumers.
    pub fn health_state(&self) -> HealthState {
        lock(&self.live).health_state()
    }

    /// Force one sample right now (between wall-clock ticks) so
    /// scrapes immediately after a burst of work see it.
    pub fn sample_now(&self, at_ms: u64) {
        lock(&self.live).tick_global(at_ms);
    }

    /// The shared live loop (scrape routes lock it per request).
    pub fn live(&self) -> Arc<Mutex<LiveLoop>> {
        Arc::clone(&self.live)
    }
}

impl Drop for LiveHandle {
    /// Stop sampling and join the sampler; the server field drops
    /// next, which stops the HTTP server and joins its thread.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.sampler_thread.take() {
            let _ = t.join();
        }
    }
}

fn lock(live: &Arc<Mutex<LiveLoop>>) -> std::sync::MutexGuard<'_, LiveLoop> {
    live.lock().unwrap_or_else(|p| p.into_inner())
}

/// Start the full live stack: bind `addr`, spawn the scrape server,
/// and tick the live loop (ledger check, then a registry sample) from
/// a wall-clock thread once a second.
pub fn serve(addr: &str) -> std::io::Result<LiveHandle> {
    let tick = Duration::from_millis(series::TICK_MS);
    let live = Arc::new(Mutex::new(LiveLoop::new()));

    // Take the first sample immediately: rates need two points, so the
    // sooner the origin exists the sooner scrapes mean something.
    let origin = Instant::now();
    lock(&live).tick_global(0);

    let server = server::spawn(addr, Arc::clone(&live))?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let sampler_live = Arc::clone(&live);
    let sampler_thread =
        std::thread::Builder::new().name("bs-live-sampler".into()).spawn(move || {
            // Sleep in short slices so shutdown latency stays well
            // under one tick.
            let slice = Duration::from_millis(50);
            let mut next = origin + tick;
            while !stop_flag.load(Ordering::Relaxed) {
                if Instant::now() >= next {
                    let at_ms = origin.elapsed().as_millis() as u64;
                    lock(&sampler_live).tick_global(at_ms);
                    next += tick;
                }
                std::thread::sleep(slice);
            }
        })?;

    Ok(LiveHandle { server, live, stop, sampler_thread: Some(sampler_thread) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_embeds_registry_rates_and_health() {
        let mut live = LiveLoop::new();
        let mk = |records: u64| {
            let r = bs_telemetry::Registry::new();
            r.counter("t.records").add(records);
            r.histogram("t.lat").record(100);
            r.snapshot()
        };
        live.tick(0, mk(0));
        live.tick(1_000, mk(250));
        let json = live.snapshot_json();
        let v = bs_telemetry::json::parse(&json).expect("snapshot JSON parses");
        assert_eq!(v.get("health").and_then(|h| h.as_str()), Some("ok"));
        assert_eq!(v.get("at_ms").and_then(|t| t.as_f64()), Some(1_000.0));
        let bi = v.get("buildinfo").expect("buildinfo embedded in /snapshot");
        assert!(bi.get("git_hash").and_then(|g| g.as_str()).is_some());
        assert!(bi.get("uptime_secs").and_then(|u| u.as_f64()).is_some());
        let rate = v
            .get("rates")
            .and_then(|r| r.get("t.records"))
            .and_then(|r| r.get("r1s"))
            .and_then(|r| r.as_f64())
            .expect("derived rate present");
        assert!((rate - 250.0).abs() < 1e-6, "rate {rate}");
        let p50 = v
            .get("registry")
            .and_then(|r| r.get("histograms"))
            .and_then(|h| h.get("t.lat"))
            .and_then(|h| h.get("p50"))
            .expect("histogram quantiles in registry snapshot");
        assert!(p50.as_f64().is_some());
    }

    #[test]
    fn buildinfo_json_is_valid_and_complete() {
        let v = bs_telemetry::json::parse(&buildinfo_json()).expect("buildinfo parses");
        for key in ["git_hash", "rustc", "profile"] {
            let s = v.get(key).and_then(|x| x.as_str()).unwrap_or_else(|| panic!("{key} present"));
            assert!(!s.is_empty(), "{key} is never empty (falls back to \"unknown\")");
        }
        let up = v.get("uptime_secs").and_then(|u| u.as_f64()).expect("uptime_secs");
        assert!(up >= 0.0);
    }

    #[test]
    fn empty_loop_snapshot_is_still_valid_json() {
        let live = LiveLoop::new();
        let v = bs_telemetry::json::parse(&live.snapshot_json()).expect("parses");
        assert_eq!(v.get("at_ms").and_then(|t| t.as_f64()), Some(-1.0));
        assert_eq!(v.get("ticks").and_then(|t| t.as_f64()), Some(0.0));
        let keys: Vec<&str> =
            v.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["at_ms", "health", "ticks", "buildinfo", "rates", "registry"]);
    }

    #[test]
    fn serve_binds_samples_and_shuts_down() {
        bs_telemetry::enable();
        bs_telemetry::counter_add("live.test.work", 10);
        let handle = serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = handle.addr();
        let scrape = || {
            let (code, body) = http_get(addr, "/snapshot").expect("scrape");
            assert_eq!(code, 200);
            bs_telemetry::json::parse(&body).expect("valid JSON")
        };
        // `serve` samples once at startup; the wall-clock sampler's
        // first tick follows a second later.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let ticks = scrape().get("ticks").and_then(|t| t.as_f64()).expect("ticks present");
            if ticks >= 2.0 {
                break;
            }
            assert!(Instant::now() < deadline, "sampler thread never ticked: {ticks}");
            std::thread::sleep(Duration::from_millis(50));
        }
        bs_telemetry::counter_add("live.test.work", 90);
        handle.sample_now(10_000);
        let total = scrape()
            .get("rates")
            .and_then(|r| r.get("live.test.work"))
            .and_then(|r| r.get("total"))
            .and_then(|t| t.as_f64())
            .expect("counter visible");
        assert!(total >= 100.0, "live total {total}");
        drop(handle);
        assert!(std::net::TcpListener::bind(addr).is_ok(), "port released after the drop");
    }
}

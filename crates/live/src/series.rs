//! The time-series engine: windowed rates, EWMA smoothing, and
//! quantile extraction over a bounded history of registry snapshots.
//!
//! [`Sampler::tick`] appends one timestamped [`Snapshot`] of the
//! metrics registry to a bounded history that drops its oldest sample
//! once it holds `CAPACITY` (120).
//! Derived series are computed *on read*, from the raw history:
//!
//! * **windowed rates** — for a counter `c` and window `w`,
//!   `(c(now) - c(now - w)) / elapsed`: the average per-second rate over
//!   the most recent `w` of history (1 s / 10 s / 60 s by convention);
//! * **EWMA** — an exponentially weighted moving average of the
//!   per-tick rate, updated at sample time (weight 0.3 on the newest),
//!   the smoothed signal the watchdog prefers for noisy counters;
//! * **quantiles** — p50/p90/p99 straight from the log-bucketed
//!   histogram snapshots ([`bs_telemetry::Histogram::quantile`]).
//!
//! Ticks are driven either by a wall-clock thread (the live server) or
//! manually with explicit timestamps (tests, simulation) — the engine
//! itself never reads a clock, which is what makes the windowed-rate
//! math deterministic under test.

use bs_telemetry::Snapshot;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Nominal tick interval of the wall-clock driver, in milliseconds
/// (manual ticks may use any spacing).
pub(crate) const TICK_MS: u64 = 1_000;

/// Samples retained: 120 samples at 1 s cover the 60 s window twice
/// over.
const CAPACITY: usize = 120;

/// EWMA smoothing factor in `(0, 1]`: the weight of the newest per-tick
/// rate.
const EWMA_ALPHA: f64 = 0.3;

/// One timestamped registry snapshot.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Sample time in milliseconds (monotonic, caller-defined origin).
    pub(crate) at_ms: u64,
    /// The registry at that instant.
    pub snapshot: Snapshot,
}

/// The windowed view of one counter, as exposed on `/snapshot`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CounterRates {
    /// Cumulative value at the latest sample.
    pub total: u64,
    /// Average per-second rate over the last ~1 s of history.
    pub r1s: f64,
    /// Average per-second rate over the last ~10 s of history.
    pub r10s: f64,
    /// Average per-second rate over the last ~60 s of history.
    pub r60s: f64,
    /// EWMA-smoothed per-tick rate (per second).
    pub ewma: f64,
}

/// The time-series engine over the metrics registry.
#[derive(Debug, Default)]
pub struct Sampler {
    /// Oldest → newest, at most `CAPACITY` samples.
    history: VecDeque<Sample>,
    /// Counter name → EWMA of the per-tick rate (per second).
    ewma: BTreeMap<String, f64>,
    ticks: u64,
}

impl Sampler {
    /// A sampler with no history yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ticks recorded so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Append one sample at `at_ms` (must be ≥ the previous tick's
    /// time; equal timestamps replace nothing and are simply stored).
    /// Updates every counter's EWMA from the per-tick delta.
    pub fn tick(&mut self, at_ms: u64, snapshot: Snapshot) {
        if let Some(prev) = self.history.back() {
            let dt_s = (at_ms.saturating_sub(prev.at_ms)) as f64 / 1_000.0;
            if dt_s > 0.0 {
                for (name, &now) in &snapshot.counters {
                    let before = prev.snapshot.counters.get(name).copied().unwrap_or(0);
                    // A counter that went backwards was reset; treat the
                    // current value as the whole delta.
                    let delta = if now >= before { now - before } else { now };
                    let rate = delta as f64 / dt_s;
                    let e = self.ewma.entry(name.clone()).or_insert(rate);
                    *e = EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * *e;
                }
            }
        }
        if self.history.len() == CAPACITY {
            self.history.pop_front();
        }
        self.history.push_back(Sample { at_ms, snapshot });
        self.ticks += 1;
    }

    /// The newest sample, if any tick has happened.
    pub fn latest(&self) -> Option<&Sample> {
        self.history.back()
    }

    /// Average per-second rate of counter `name` over the trailing
    /// `window_ms` of history. Returns `None` until two samples span
    /// any time, `Some(0.0)` for unknown counters.
    pub fn rate(&self, name: &str, window_ms: u64) -> Option<f64> {
        let newest = self.history.back()?;
        let cutoff = newest.at_ms.saturating_sub(window_ms);
        // Oldest retained sample at or after the cutoff; fall back to
        // the oldest we have (the window is clamped to history).
        let base = self
            .history
            .iter()
            .find(|s| s.at_ms >= cutoff)
            .or_else(|| self.history.front())
            .filter(|s| s.at_ms < newest.at_ms)?;
        let dt_s = (newest.at_ms - base.at_ms) as f64 / 1_000.0;
        let now = newest.snapshot.counters.get(name).copied().unwrap_or(0);
        let before = base.snapshot.counters.get(name).copied().unwrap_or(0);
        let delta = if now >= before { now - before } else { now };
        Some(delta as f64 / dt_s)
    }

    /// EWMA-smoothed per-second rate of counter `name` (`None` before
    /// the second sample).
    pub(crate) fn ewma_rate(&self, name: &str) -> Option<f64> {
        self.ewma.get(name).copied()
    }

    /// The ratio `rate(numerator) / rate(denominator)` over
    /// `window_ms`; 0 when the denominator rate is 0.
    pub(crate) fn rate_ratio(
        &self,
        numerator: &str,
        denominator: &str,
        window_ms: u64,
    ) -> Option<f64> {
        let num = self.rate(numerator, window_ms)?;
        let den = self.rate(denominator, window_ms)?;
        Some(if den > 0.0 { num / den } else { 0.0 })
    }

    /// The latest value of gauge `name` (0 when unknown).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        let newest = self.history.back()?;
        Some(newest.snapshot.gauges.get(name).copied().unwrap_or(0))
    }

    /// The full windowed view of every counter at the newest sample.
    pub(crate) fn counter_rates(&self) -> BTreeMap<String, CounterRates> {
        let Some(newest) = self.history.back() else {
            return BTreeMap::new();
        };
        newest
            .snapshot
            .counters
            .iter()
            .map(|(name, &total)| {
                let r = CounterRates {
                    total,
                    r1s: self.rate(name, 1_000).unwrap_or(0.0),
                    r10s: self.rate(name, 10_000).unwrap_or(0.0),
                    r60s: self.rate(name, 60_000).unwrap_or(0.0),
                    ewma: self.ewma_rate(name).unwrap_or(0.0),
                };
                (name.clone(), r)
            })
            .collect()
    }

    /// The derived-rates object for `/snapshot`:
    ///
    /// ```json
    /// { "sensor.stream.records": { "total": 9000, "r1s": 120.0,
    ///     "r10s": 118.5, "r60s": 97.2, "ewma": 119.1 }, … }
    /// ```
    pub(crate) fn rates_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, r) in self.counter_rates() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{ \"total\": {}, \"r1s\": {:.3}, \"r10s\": {:.3}, \"r60s\": {:.3}, \"ewma\": {:.3} }}",
                bs_telemetry::json::escape(name.as_str()),
                r.total,
                r.r1s,
                r.r10s,
                r.r60s,
                r.ewma
            );
        }
        out.push_str(if first { "}" } else { "\n  }" });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_telemetry::Registry;

    fn snap_with(counter: &str, v: u64) -> Snapshot {
        let r = Registry::new();
        r.counter(counter).add(v);
        r.snapshot()
    }

    #[test]
    fn windowed_rates_recover_counter_deltas_exactly() {
        let mut s = Sampler::new();
        // 100 records/s for 70 seconds of manual ticks.
        for t in 0..=70u64 {
            s.tick(t * 1_000, snap_with("x.records", t * 100));
        }
        assert_eq!(s.ticks(), 71);
        assert!((s.rate("x.records", 1_000).unwrap() - 100.0).abs() < 1e-9);
        assert!((s.rate("x.records", 10_000).unwrap() - 100.0).abs() < 1e-9);
        assert!((s.rate("x.records", 60_000).unwrap() - 100.0).abs() < 1e-9);
        // Constant rate: the EWMA converges to it.
        assert!((s.ewma_rate("x.records").unwrap() - 100.0).abs() < 1e-6);
        // The latest cumulative value is the post-hoc truth.
        assert_eq!(s.latest().unwrap().snapshot.counters["x.records"], 7_000);
    }

    #[test]
    fn short_window_sees_a_burst_long_window_averages_it() {
        let mut s = Sampler::new();
        // 60 s idle, then a 1000-records burst in the last second.
        for t in 0..=59u64 {
            s.tick(t * 1_000, snap_with("x.records", 0));
        }
        s.tick(60_000, snap_with("x.records", 1_000));
        let r1 = s.rate("x.records", 1_000).unwrap();
        let r60 = s.rate("x.records", 60_000).unwrap();
        assert!((r1 - 1_000.0).abs() < 1e-9, "1 s window sees the burst: {r1}");
        assert!((r60 - 1_000.0 / 60.0).abs() < 1e-6, "60 s window averages it: {r60}");
        assert!(s.ewma_rate("x.records").unwrap() > r60, "EWMA reacts faster than the mean");
    }

    #[test]
    fn window_clamps_to_available_history() {
        let mut s = Sampler::new();
        // 201 ticks, flat until the first retained one, then 10/s.
        let first = 201 - CAPACITY as u64;
        for t in 0..=200u64 {
            s.tick(t * 1_000, snap_with("c", t.saturating_sub(first) * 10));
        }
        // Only CAPACITY samples retained (t = 81..=200): the "600 s" rate
        // is really the 119 s rate, 10/s. Had t = 0..=80 been kept it
        // would read 1190/200.
        assert!((s.rate("c", 600_000).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn counter_reset_does_not_produce_negative_rates() {
        let mut s = Sampler::new();
        s.tick(0, snap_with("c", 1_000));
        s.tick(1_000, snap_with("c", 5));
        let r = s.rate("c", 1_000).unwrap();
        assert!(r >= 0.0, "reset must not go negative: {r}");
        assert!((r - 5.0).abs() < 1e-9, "post-reset value is the delta");
    }

    #[test]
    fn no_rate_before_two_samples() {
        let mut s = Sampler::new();
        assert!(s.rate("c", 1_000).is_none());
        s.tick(0, snap_with("c", 1));
        assert!(s.rate("c", 1_000).is_none(), "one sample spans no time");
        assert!(s.ewma_rate("c").is_none());
    }

    #[test]
    fn rate_ratio_handles_zero_denominator() {
        let mut s = Sampler::new();
        let mk = |bad: u64, total: u64| {
            let r = Registry::new();
            r.counter("bad").add(bad);
            r.counter("total").add(total);
            r.snapshot()
        };
        s.tick(0, mk(0, 0));
        s.tick(1_000, mk(5, 100));
        assert!((s.rate_ratio("bad", "total", 10_000).unwrap() - 0.05).abs() < 1e-9);
        s.tick(2_000, mk(5, 100));
        // Quiet second: denominator rate 0 over the last 1 s.
        assert_eq!(s.rate_ratio("bad", "total", 1_000), Some(0.0));
    }

    #[test]
    fn rates_json_is_parseable() {
        let mut s = Sampler::new();
        s.tick(0, snap_with("a\"weird\\name", 0));
        s.tick(1_000, snap_with("a\"weird\\name", 42));
        let json = s.rates_json();
        let v = bs_telemetry::json::parse(&json).expect("rates JSON parses");
        let r = v.get("a\"weird\\name").expect("escaped counter present");
        assert_eq!(r.get("total").and_then(|t| t.as_f64()), Some(42.0));
    }
}

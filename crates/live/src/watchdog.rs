//! The health watchdog: declarative threshold rules over derived
//! series that flip a tri-state health status and drive graceful
//! degradation in the streaming sensor.
//!
//! Each [`Rule`] watches one [`Signal`] — a windowed counter rate, a
//! ratio of two counter rates, or a raw gauge value — and trips at a
//! [`Severity`] after the threshold holds for `trip_ticks` consecutive
//! evaluations (hysteresis on the way in) and clears after
//! `clear_ticks` quiet evaluations (hysteresis on the way out), so a
//! single noisy sample neither flips nor restores health.
//!
//! The aggregate [`Health`] is the worst severity among tripped rules.
//! Transitions emit structured `BS_LOG` events and bump the
//! `live.health.transitions` counter; the current status is published
//! through a shared [`HealthState`] — a plain `Arc<AtomicU8>` — that
//! the streaming sensor polls to tighten its probation admission
//! filter under storm pressure without depending on this crate.

use crate::series::Sampler;
use bs_telemetry::{counter_add, log_emit, Level};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Aggregate health, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// All rules quiet.
    Ok,
    /// At least one `Degraded` rule tripped.
    Degraded,
    /// At least one `Critical` rule tripped.
    Critical,
}

impl Health {
    /// Stable lowercase name (`ok` / `degraded` / `critical`).
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Degraded => "degraded",
            Health::Critical => "critical",
        }
    }

    /// The wire encoding stored in a [`HealthState`].
    pub fn as_u8(self) -> u8 {
        match self {
            Health::Ok => 0,
            Health::Degraded => 1,
            Health::Critical => 2,
        }
    }

    /// Decode a [`HealthState`] value (unknown codes clamp to
    /// `Critical`: fail safe).
    pub fn from_u8(v: u8) -> Health {
        match v {
            0 => Health::Ok,
            1 => Health::Degraded,
            _ => Health::Critical,
        }
    }
}

/// The shared health cell consumers poll: `0` ok, `1` degraded,
/// `2` critical. A plain atomic so downstream crates (the streaming
/// sensor) need no dependency on bs-live.
pub type HealthState = Arc<AtomicU8>;

/// A fresh [`HealthState`] starting at `Ok`.
pub fn health_state() -> HealthState {
    Arc::new(AtomicU8::new(Health::Ok.as_u8()))
}

/// Severity a tripped rule contributes to the aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Load is abnormal; shed gracefully.
    Degraded,
    /// The process is in trouble; scrape endpoints report 503.
    Critical,
}

impl Severity {
    fn health(self) -> Health {
        match self {
            Severity::Degraded => Health::Degraded,
            Severity::Critical => Health::Critical,
        }
    }
}

/// The derived series a rule thresholds on.
#[derive(Debug, Clone)]
pub enum Signal {
    /// Per-second rate of a counter over `window_ms`.
    CounterRate {
        /// Counter name in the registry.
        name: String,
        /// Trailing window in milliseconds.
        window_ms: u64,
    },
    /// `rate(numerator) / rate(denominator)` over `window_ms`.
    RateRatio {
        /// Numerator counter name.
        numerator: String,
        /// Denominator counter name.
        denominator: String,
        /// Trailing window in milliseconds.
        window_ms: u64,
    },
    /// Latest value of a gauge.
    GaugeValue {
        /// Gauge name in the registry.
        name: String,
    },
}

impl Signal {
    /// Evaluate the signal against the sampler's history (`None`
    /// before enough samples exist).
    fn value(&self, sampler: &Sampler) -> Option<f64> {
        match self {
            Signal::CounterRate { name, window_ms } => sampler.rate(name, *window_ms),
            Signal::RateRatio { numerator, denominator, window_ms } => {
                sampler.rate_ratio(numerator, denominator, *window_ms)
            }
            Signal::GaugeValue { name } => sampler.gauge(name).map(|g| g as f64),
        }
    }
}

/// One declarative threshold rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Stable identifier, used in log events and `/health` output.
    pub name: String,
    /// The series this rule watches.
    pub signal: Signal,
    /// Trips when the signal exceeds this value.
    pub threshold: f64,
    /// Severity contributed while tripped.
    pub severity: Severity,
    /// Consecutive over-threshold evaluations required to trip.
    pub trip_ticks: u32,
    /// Consecutive under-threshold evaluations required to clear.
    pub clear_ticks: u32,
}

impl Rule {
    /// A rule tripping after 3 hot ticks and clearing after 5 quiet
    /// ones — deliberate defaults: slow to alarm, slower to stand down.
    pub fn new(
        name: impl Into<String>,
        signal: Signal,
        threshold: f64,
        severity: Severity,
    ) -> Self {
        Rule { name: name.into(), signal, threshold, severity, trip_ticks: 3, clear_ticks: 5 }
    }

    /// Override the trip/clear hysteresis.
    pub fn with_hysteresis(mut self, trip_ticks: u32, clear_ticks: u32) -> Self {
        self.trip_ticks = trip_ticks.max(1);
        self.clear_ticks = clear_ticks.max(1);
        self
    }
}

/// Live trip-state for one rule.
#[derive(Debug, Clone)]
pub struct RuleStatus {
    /// The rule definition.
    pub rule: Rule,
    /// Whether the rule is currently tripped.
    pub tripped: bool,
    /// Last evaluated signal value (`None` before enough history).
    pub last_value: Option<f64>,
    hot_streak: u32,
    quiet_streak: u32,
}

/// The watchdog: evaluates every rule once per tick and folds the
/// results into an aggregate [`Health`].
#[derive(Debug)]
pub struct Watchdog {
    rules: Vec<RuleStatus>,
    health: Health,
    state: HealthState,
    transitions: u64,
}

impl Watchdog {
    /// A watchdog over `rules`, publishing into `state`.
    pub fn new(rules: Vec<Rule>, state: HealthState) -> Self {
        let rules = rules
            .into_iter()
            .map(|rule| RuleStatus {
                rule,
                tripped: false,
                last_value: None,
                hot_streak: 0,
                quiet_streak: 0,
            })
            .collect();
        state.store(Health::Ok.as_u8(), Ordering::Relaxed);
        Watchdog { rules, health: Health::Ok, state, transitions: 0 }
    }

    /// The sensor-facing rules for the streaming pipeline, with storm
    /// thresholds for the default single-process sensor. They are
    /// deliberately loose — they mark *storms*, not busy periods:
    ///
    /// * eviction rate (10 s) above 2000/s → degraded: the working set
    ///   no longer fits;
    /// * probation resets (10 s) above 100/s → degraded: the same;
    /// * out-of-order fraction (10 s) above 20% → degraded;
    /// * any ledger conservation imbalance → critical.
    ///
    /// Every series they watch is one the streaming sensor or the live
    /// loop itself publishes.
    pub fn default_rules() -> Vec<Rule> {
        vec![
            Rule::new(
                "eviction_storm",
                Signal::CounterRate { name: "sensor.stream.evictions".into(), window_ms: 10_000 },
                2_000.0,
                Severity::Degraded,
            ),
            Rule::new(
                "probation_thrash",
                Signal::CounterRate {
                    name: "sensor.stream.probation_resets".into(),
                    window_ms: 10_000,
                },
                100.0,
                Severity::Degraded,
            ),
            Rule::new(
                "out_of_order",
                Signal::RateRatio {
                    numerator: "sensor.stream.out_of_order".into(),
                    denominator: "sensor.stream.records".into(),
                    window_ms: 10_000,
                },
                0.2,
                Severity::Degraded,
            ),
            Rule::new(
                "ledger_imbalance",
                Signal::GaugeValue { name: "live.ledger.imbalances".into() },
                0.0,
                Severity::Critical,
            )
            .with_hysteresis(1, 1),
        ]
    }

    /// Current aggregate health.
    pub fn health(&self) -> Health {
        self.health
    }

    /// The shared state cell consumers poll.
    pub fn state(&self) -> HealthState {
        Arc::clone(&self.state)
    }

    /// Health transitions observed so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Per-rule status, for `/health`.
    pub fn rules(&self) -> &[RuleStatus] {
        &self.rules
    }

    /// Evaluate every rule against the sampler's current history,
    /// update the aggregate, publish it, and log transitions.
    pub fn evaluate(&mut self, sampler: &Sampler) -> Health {
        for rs in &mut self.rules {
            let value = rs.rule.signal.value(sampler);
            rs.last_value = value;
            let Some(v) = value else { continue };
            if v > rs.rule.threshold {
                rs.hot_streak += 1;
                rs.quiet_streak = 0;
                if !rs.tripped && rs.hot_streak >= rs.rule.trip_ticks {
                    rs.tripped = true;
                    log_emit(
                        Level::Warn,
                        "live.watchdog",
                        "rule tripped",
                        &[
                            ("rule", rs.rule.name.clone()),
                            ("value", format!("{v:.3}")),
                            ("threshold", format!("{:.3}", rs.rule.threshold)),
                        ],
                    );
                }
            } else {
                rs.quiet_streak += 1;
                rs.hot_streak = 0;
                if rs.tripped && rs.quiet_streak >= rs.rule.clear_ticks {
                    rs.tripped = false;
                    log_emit(
                        Level::Info,
                        "live.watchdog",
                        "rule cleared",
                        &[("rule", rs.rule.name.clone()), ("value", format!("{v:.3}"))],
                    );
                }
            }
        }

        let next = self
            .rules
            .iter()
            .filter(|rs| rs.tripped)
            .map(|rs| rs.rule.severity.health())
            .max()
            .unwrap_or(Health::Ok);
        if next != self.health {
            self.transitions += 1;
            counter_add("live.health.transitions", 1);
            let level = if next == Health::Ok { Level::Info } else { Level::Warn };
            log_emit(
                level,
                "live.watchdog",
                "health transition",
                &[("from", self.health.as_str().to_string()), ("to", next.as_str().to_string())],
            );
            self.health = next;
            self.state.store(next.as_u8(), Ordering::Relaxed);
        }
        self.health
    }

    /// The `/health` JSON body: aggregate status plus per-rule detail.
    pub fn health_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"status\": \"{}\",\n  \"transitions\": {},\n  \"rules\": [",
            self.health.as_str(),
            self.transitions
        );
        for (i, rs) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = match rs.last_value {
                Some(v) => format!("{v:.3}"),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "\n    {{ \"rule\": \"{}\", \"tripped\": {}, \"value\": {}, \"threshold\": {:.3}, \"severity\": \"{}\" }}",
                bs_telemetry::json::escape(&rs.rule.name),
                rs.tripped,
                value,
                rs.rule.threshold,
                match rs.rule.severity {
                    Severity::Degraded => "degraded",
                    Severity::Critical => "critical",
                }
            );
        }
        out.push_str(if self.rules.is_empty() { "]\n}" } else { "\n  ]\n}" });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_telemetry::Registry;

    fn sampler() -> Sampler {
        Sampler::new()
    }

    fn snap(evictions: u64, records: u64) -> bs_telemetry::Snapshot {
        let r = Registry::new();
        r.counter("sensor.stream.evictions").add(evictions);
        r.counter("sensor.stream.records").add(records);
        r.snapshot()
    }

    fn storm_rule() -> Rule {
        Rule::new(
            "eviction_storm",
            Signal::CounterRate { name: "sensor.stream.evictions".into(), window_ms: 10_000 },
            100.0,
            Severity::Degraded,
        )
    }

    #[test]
    fn watchdog_trips_under_storm_and_recovers() {
        let state = health_state();
        let mut wd = Watchdog::new(vec![storm_rule()], Arc::clone(&state));
        let mut s = sampler();

        // Quiet baseline: 10/s evictions for 5 ticks.
        for t in 0..5u64 {
            s.tick(t * 1_000, snap(t * 10, t * 1_000));
            assert_eq!(wd.evaluate(&s), Health::Ok);
        }
        // Storm: 500/s. Hysteresis holds Ok for trip_ticks-1 hot ticks.
        let (base_e, base_r) = (40, 4_000);
        for k in 1..=2u64 {
            s.tick((4 + k) * 1_000, snap(base_e + k * 500, base_r + k * 1_000));
            assert_eq!(wd.evaluate(&s), Health::Ok, "not yet: {k} hot ticks");
        }
        s.tick(7_000, snap(base_e + 1_500, base_r + 3_000));
        assert_eq!(wd.evaluate(&s), Health::Degraded, "trips on the 3rd hot tick");
        assert_eq!(state.load(Ordering::Relaxed), 1, "shared state published");
        assert_eq!(wd.transitions(), 1);

        // Storm subsides; the 10 s window still sees it for a while,
        // then clear_ticks quiet evaluations restore health.
        let peak = base_e + 1_500;
        let mut t = 8_000u64;
        let mut cleared_at = None;
        for k in 0..30u64 {
            s.tick(t, snap(peak + k, base_r + 3_000 + k * 1_000));
            if wd.evaluate(&s) == Health::Ok {
                cleared_at = Some(t);
                break;
            }
            t += 1_000;
        }
        assert!(cleared_at.is_some(), "watchdog never recovered");
        assert_eq!(state.load(Ordering::Relaxed), 0);
        assert_eq!(wd.transitions(), 2, "one trip, one recovery");
    }

    #[test]
    fn single_spike_does_not_flip_health() {
        let mut wd = Watchdog::new(vec![storm_rule()], health_state());
        let mut s = sampler();
        s.tick(0, snap(0, 0));
        // One 1 s spike of 250 evictions: 250/s instantaneous, well
        // over the 100/s threshold…
        s.tick(1_000, snap(250, 1_000));
        assert_eq!(wd.evaluate(&s), Health::Ok);
        // …but the widening window dilutes it below threshold after
        // two hot ticks, one short of trip_ticks.
        for t in 2..20u64 {
            s.tick(t * 1_000, snap(250 + t, t * 1_000));
            wd.evaluate(&s);
        }
        assert_eq!(wd.health(), Health::Ok, "one spike must not trip");
        assert_eq!(wd.transitions(), 0);
    }

    #[test]
    fn critical_rule_dominates_degraded() {
        let critical = Rule::new(
            "ledger_imbalance",
            Signal::GaugeValue { name: "live.ledger.imbalances".into() },
            0.0,
            Severity::Critical,
        )
        .with_hysteresis(1, 1);
        let state = health_state();
        let mut wd = Watchdog::new(vec![storm_rule(), critical], Arc::clone(&state));
        let mut s = sampler();
        let mk = |imbalances: i64| {
            let r = Registry::new();
            r.gauge("live.ledger.imbalances").set(imbalances);
            r.snapshot()
        };
        s.tick(0, mk(0));
        assert_eq!(wd.evaluate(&s), Health::Ok);
        s.tick(1_000, mk(2));
        assert_eq!(wd.evaluate(&s), Health::Critical, "imbalance trips immediately");
        assert_eq!(state.load(Ordering::Relaxed), 2);
        assert_eq!(Health::from_u8(2), Health::Critical);
        s.tick(2_000, mk(0));
        assert_eq!(wd.evaluate(&s), Health::Ok, "clears as soon as the books balance");
    }

    #[test]
    fn health_json_is_parseable_and_complete() {
        let mut wd = Watchdog::new(Watchdog::default_rules(), health_state());
        let mut s = sampler();
        s.tick(0, snap(0, 0));
        s.tick(1_000, snap(10, 1_000));
        wd.evaluate(&s);
        let json = wd.health_json();
        let v = bs_telemetry::json::parse(&json).expect("health JSON parses");
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
        let rules = v.get("rules").and_then(|r| r.as_array()).expect("rules array");
        let names: Vec<&str> =
            rules.iter().filter_map(|r| r.get("rule").and_then(|n| n.as_str())).collect();
        assert_eq!(
            names,
            ["eviction_storm", "probation_thrash", "out_of_order", "ledger_imbalance"]
        );
    }
}

//! Property tests for the watchdog's trip/clear hysteresis at exact
//! threshold boundaries. The contract under test, pinned against a
//! hand-rolled reference state machine:
//!
//! * a tick is *hot* only when `value > threshold` — equality is
//!   quiet, so a signal parked exactly on the line never alarms;
//! * a rule trips on the `trip_ticks`-th *consecutive* hot tick and
//!   not one tick earlier;
//! * a tripped rule clears on the `clear_ticks`-th consecutive quiet
//!   tick (`value <= threshold`) and not one earlier;
//! * inside the hysteresis band (hot and quiet ticks alternating)
//!   the state never flaps: streaks reset and no transition fires.

use bs_live::{health_state, Health, Rule, Sampler, Severity, Signal, Watchdog};
use bs_telemetry::Registry;

const GAUGE: &str = "test.watchdog.signal";
const THRESHOLD: f64 = 10.0;

fn rule(trip_ticks: u32, clear_ticks: u32) -> Rule {
    Rule::new(
        "boundary_probe",
        Signal::GaugeValue { name: GAUGE.into() },
        THRESHOLD,
        Severity::Degraded,
    )
    .with_hysteresis(trip_ticks, clear_ticks)
}

/// Feed one gauge value into a fresh snapshot and evaluate.
fn step(wd: &mut Watchdog, s: &mut Sampler, t_ms: &mut u64, value: i64) -> Health {
    let r = Registry::new();
    r.gauge(GAUGE).set(value);
    s.tick(*t_ms, r.snapshot());
    *t_ms += 1_000;
    wd.evaluate(s)
}

fn harness(trip_ticks: u32, clear_ticks: u32) -> (Watchdog, Sampler, u64) {
    let wd = Watchdog::new(vec![rule(trip_ticks, clear_ticks)], health_state());
    (wd, Sampler::new(), 0)
}

/// Reference implementation of the hysteresis contract, evolved in
/// lockstep with the real watchdog by the randomized test below.
struct Model {
    trip_ticks: u32,
    clear_ticks: u32,
    tripped: bool,
    hot: u32,
    quiet: u32,
}

impl Model {
    fn new(trip_ticks: u32, clear_ticks: u32) -> Self {
        Model { trip_ticks, clear_ticks, tripped: false, hot: 0, quiet: 0 }
    }

    fn step(&mut self, value: f64) -> bool {
        if value > THRESHOLD {
            self.hot += 1;
            self.quiet = 0;
            if !self.tripped && self.hot >= self.trip_ticks {
                self.tripped = true;
            }
        } else {
            self.quiet += 1;
            self.hot = 0;
            if self.tripped && self.quiet >= self.clear_ticks {
                self.tripped = false;
            }
        }
        self.tripped
    }
}

/// Tiny deterministic LCG so the property test needs no external
/// crates and every failure is reproducible from the printed seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[test]
fn value_exactly_at_threshold_never_counts_hot() {
    let (mut wd, mut s, mut t) = harness(1, 1);
    // Even with the most trigger-happy hysteresis (1/1), a signal
    // sitting exactly on the threshold is quiet: > is strict.
    for _ in 0..50 {
        assert_eq!(step(&mut wd, &mut s, &mut t, THRESHOLD as i64), Health::Ok);
    }
    assert_eq!(wd.transitions(), 0, "equality must never alarm");

    // One unit over the line trips immediately at 1/1…
    assert_eq!(step(&mut wd, &mut s, &mut t, THRESHOLD as i64 + 1), Health::Degraded);
    // …and falling back exactly onto the line counts quiet and clears.
    assert_eq!(step(&mut wd, &mut s, &mut t, THRESHOLD as i64), Health::Ok);
}

#[test]
fn trips_on_exactly_the_nth_consecutive_hot_tick() {
    for trip_ticks in 1..=6u32 {
        let (mut wd, mut s, mut t) = harness(trip_ticks, 1);
        for k in 1..trip_ticks {
            assert_eq!(
                step(&mut wd, &mut s, &mut t, THRESHOLD as i64 + 5),
                Health::Ok,
                "trip_ticks={trip_ticks}: still ok after {k} hot ticks"
            );
        }
        assert_eq!(
            step(&mut wd, &mut s, &mut t, THRESHOLD as i64 + 5),
            Health::Degraded,
            "trip_ticks={trip_ticks}: trips on hot tick #{trip_ticks}"
        );
        assert_eq!(wd.transitions(), 1);
    }
}

#[test]
fn clears_on_exactly_the_nth_consecutive_quiet_tick() {
    for clear_ticks in 1..=6u32 {
        let (mut wd, mut s, mut t) = harness(1, clear_ticks);
        assert_eq!(step(&mut wd, &mut s, &mut t, THRESHOLD as i64 + 5), Health::Degraded);
        for k in 1..clear_ticks {
            assert_eq!(
                step(&mut wd, &mut s, &mut t, THRESHOLD as i64 - 5),
                Health::Degraded,
                "clear_ticks={clear_ticks}: still tripped after {k} quiet ticks"
            );
        }
        assert_eq!(
            step(&mut wd, &mut s, &mut t, THRESHOLD as i64 - 5),
            Health::Ok,
            "clear_ticks={clear_ticks}: clears on quiet tick #{clear_ticks}"
        );
        assert_eq!(wd.transitions(), 2, "exactly one trip and one clear");
    }
}

#[test]
fn alternating_band_never_flaps() {
    // Untripped + alternation: hot streaks never reach trip_ticks=2.
    let (mut wd, mut s, mut t) = harness(2, 2);
    for _ in 0..40 {
        assert_eq!(step(&mut wd, &mut s, &mut t, THRESHOLD as i64 + 3), Health::Ok);
        assert_eq!(step(&mut wd, &mut s, &mut t, THRESHOLD as i64 - 3), Health::Ok);
    }
    assert_eq!(wd.transitions(), 0, "alternation below trip_ticks must not trip");

    // Tripped + alternation: quiet streaks never reach clear_ticks=2,
    // so the rule holds its alarm instead of flapping.
    let (mut wd, mut s, mut t) = harness(1, 2);
    assert_eq!(step(&mut wd, &mut s, &mut t, THRESHOLD as i64 + 3), Health::Degraded);
    for _ in 0..40 {
        assert_eq!(step(&mut wd, &mut s, &mut t, THRESHOLD as i64 - 3), Health::Degraded);
        assert_eq!(step(&mut wd, &mut s, &mut t, THRESHOLD as i64 + 3), Health::Degraded);
    }
    assert_eq!(wd.transitions(), 1, "alternation inside the band must not clear");
}

#[test]
fn randomized_sequences_match_the_reference_model() {
    // 64 seeded cases: random hysteresis in 1..=5, 300 ticks drawn
    // from {threshold-1, threshold, threshold+1} — the three values
    // that straddle the boundary — checked tick-by-tick against the
    // reference state machine.
    for case in 0..64u64 {
        let mut rng = Lcg(0x9E37_79B9_7F4A_7C15 ^ case.wrapping_mul(0x1234_5678_9ABC_DEF1));
        let trip_ticks = rng.pick(5) as u32 + 1;
        let clear_ticks = rng.pick(5) as u32 + 1;
        let (mut wd, mut s, mut t) = harness(trip_ticks, clear_ticks);
        let mut model = Model::new(trip_ticks, clear_ticks);
        let mut model_transitions = 0u64;
        let mut was = false;

        for tick in 0..300u32 {
            let v = THRESHOLD as i64 - 1 + rng.pick(3) as i64;
            let got = step(&mut wd, &mut s, &mut t, v);
            let want = model.step(v as f64);
            if want != was {
                model_transitions += 1;
                was = want;
            }
            assert_eq!(
                got == Health::Degraded,
                want,
                "case {case} (trip={trip_ticks} clear={clear_ticks}) tick {tick}: \
                 watchdog diverged from the reference model at value {v}"
            );
        }
        assert_eq!(
            wd.transitions(),
            model_transitions,
            "case {case}: transition count must match the model"
        );
    }
}

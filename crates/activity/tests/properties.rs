//! Seeded property tests for activity generation. Every case derives
//! from its seed alone, so a failure replays from the seed in its
//! message.

use bs_activity::behavior::{lifetime_days, make_profile};
use bs_activity::{ApplicationClass, Scenario, ScenarioConfig, TargetPools};
use bs_dns::{SimDuration, SimTime};
use bs_netsim::world::{World, WorldConfig};
use bs_par::Rng;

const CASES: u64 = 48;

fn world() -> World {
    World::new(WorldConfig::default())
}

fn arb_class(rng: &mut Rng) -> ApplicationClass {
    ApplicationClass::from_index(rng.range(0..12)).expect("twelve classes")
}

/// Every generated contact stays inside the requested window, names
/// the profile's originator, and uses one of its contact kinds.
#[test]
fn contacts_respect_profile_invariants() {
    let w = world();
    let pools = TargetPools::build_all(&w, 200, 1);
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0xC0A7);
        let class = arb_class(&mut rng);
        let slot = rng.below(50);
        let p = make_profile(
            &w,
            99,
            class,
            slot,
            0,
            SimTime::ZERO,
            SimTime::from_days(6),
            0.05, // tiny rate for test speed
            None,
            None,
        );
        let from_day = rng.below(3);
        let from = SimTime::from_days(from_day);
        let until = SimTime::from_days(from_day + 1 + rng.below(2));
        let mut out = Vec::new();
        p.contacts_into(&w, &pools, from, until, &mut out);
        for c in &out {
            assert!(c.time >= from && c.time < until, "seed {seed}");
            assert_eq!(c.originator, p.originator, "seed {seed}");
            assert!(p.kinds.contains(&c.kind), "{:?} not in {:?} (seed {seed})", c.kind, p.kinds);
        }
    }
}

/// Lifetimes are positive, bounded, and deterministic.
#[test]
fn lifetimes_bounded() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x11FE);
        let class = arb_class(&mut rng);
        let h = rng.next_u64();
        let l = lifetime_days(class, h);
        assert!((2.0..=3000.0).contains(&l), "lifetime {l} (seed {seed})");
        assert_eq!(l, lifetime_days(class, h), "seed {seed}");
    }
}

/// Scenario ground truth covers exactly the profiles overlapping
/// the window.
#[test]
fn ground_truth_matches_overlap() {
    let w = world();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed ^ 0x0E41);
        let mut cfg = ScenarioConfig::small(rng.next_u64(), SimDuration::from_days(5));
        cfg.pool_size = 100;
        let s = Scenario::new(&w, cfg);
        let day = rng.below(4);
        let from = SimTime::from_days(day);
        let until = SimTime::from_days(day + 1);
        let active = s.active_originators(from, until);
        let expected = s.profiles().iter().filter(|p| p.overlaps(from, until)).count();
        assert_eq!(active.len(), expected, "seed {seed}");
    }
}

//! Seeded property tests for the world model and simulator. Every case
//! derives from its seed alone, so a failure replays from the seed in
//! its message.

use bs_dns::SimTime;
use bs_netsim::det::{bounded, hash1, mix64};
use bs_netsim::hierarchy::AuthorityId;
use bs_netsim::types::{Contact, ContactKind};
use bs_netsim::world::{World, WorldConfig};
use bs_netsim::{Simulator, SimulatorConfig};
use std::net::Ipv4Addr;

const CASES: u64 = 64;

fn world() -> World {
    World::new(WorldConfig::default())
}

/// `lo..hi` words drawn from the case's seed.
fn words(seed: u64, lo: u64, hi: u64) -> Vec<u64> {
    (0..lo + bounded(hash1(seed, 0), hi - lo)).map(|i| hash1(seed, 1 + i)).collect()
}

/// Every world fact is self-consistent at any address: roles imply
/// existence, shared resolvers live in usable space, AS implies
/// country.
#[test]
fn world_facts_are_consistent() {
    let w = world();
    for seed in 0..4 * CASES {
        let addr = Ipv4Addr::from(mix64(seed) as u32);
        if w.host_role(addr).is_some() {
            assert!(w.host_exists(addr), "seed {seed}");
        }
        if w.as_of(addr).is_some() {
            assert!(w.country_of(addr).is_some(), "seed {seed}");
        }
        if w.country_of(addr).is_some() {
            let r = w.shared_resolver_for(addr);
            assert!(w.country_of(r.0).is_some(), "seed {seed}: resolver in unusable space: {r}");
            let o = r.0.octets();
            assert_eq!(o[2], 0, "seed {seed}");
            assert!((10..14).contains(&o[3]), "seed {seed}");
        }
    }
}

/// Reactions are deterministic and independent of contact time.
#[test]
fn reactions_deterministic() {
    let w = world();
    for seed in 0..CASES {
        let mk = |time| Contact {
            time: SimTime(time),
            originator: Ipv4Addr::from(hash1(seed, 0) as u32),
            target: Ipv4Addr::from(hash1(seed, 1) as u32),
            kind: ContactKind::ProbeTcp(22),
        };
        let t = bounded(hash1(seed, 2), 1_000_000);
        assert_eq!(w.reactions(&mk(t)), w.reactions(&mk(0)), "seed {seed}");
    }
}

/// The simulator never logs at unobserved authorities, and observed
/// logs stay within the contact time range.
#[test]
fn simulator_logs_are_scoped() {
    let w = world();
    let jp = bs_netsim::types::CountryCode::new("jp").unwrap();
    let observed = AuthorityId::National(jp);
    for seed in 0..CASES {
        let mut sim = Simulator::new(&w, SimulatorConfig::observing([observed]));
        let mut max_t = 0;
        for (i, s) in words(seed, 1, 60).into_iter().enumerate() {
            let t = (i as u64) * 60;
            max_t = t;
            sim.contact(Contact {
                time: SimTime(t),
                originator: w.random_public_addr(s),
                target: w.random_public_addr(mix64(s)),
                kind: ContactKind::Smtp,
            });
        }
        let logs = sim.into_logs();
        assert_eq!(logs.len(), 1, "seed {seed}");
        for r in logs[&observed].records() {
            assert!(r.time.secs() <= max_t, "seed {seed}");
            // National(jp) only ever sees JP-space originators.
            assert_eq!(w.country_of(r.originator), Some(jp), "seed {seed}");
        }
    }
}

/// Processing the same contacts twice through fresh simulators
/// yields identical logs (full determinism).
#[test]
fn simulation_is_reproducible() {
    let w = world();
    let observed = AuthorityId::final_for(Ipv4Addr::new(203, 0, 113, 9));
    for seed in 0..CASES {
        let contacts: Vec<Contact> = words(seed, 1, 40)
            .into_iter()
            .enumerate()
            .map(|(i, s)| Contact {
                time: SimTime(i as u64),
                originator: Ipv4Addr::new(203, 0, 113, 9),
                target: w.random_public_addr(s),
                kind: ContactKind::ProbeIcmp,
            })
            .collect();
        let run = |contacts: &[Contact]| {
            let mut sim = Simulator::new(&w, SimulatorConfig::observing([observed]));
            sim.process(contacts.iter().copied());
            sim.into_logs()
        };
        assert_eq!(run(&contacts), run(&contacts), "seed {seed}");
    }
}

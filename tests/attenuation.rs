//! Integration: the simulator mechanisms behind Fig. 4's controlled
//! scans. The figure's shape claims (monotone sub-linear growth, root
//! attenuation) are `fig4_attenuation`'s, run by `tests/paper_shape.rs`.

use dns_backscatter::netsim::experiment::{run_controlled_scan, ControlledScan};
use dns_backscatter::netsim::hierarchy::Delegation;
use dns_backscatter::netsim::types::ContactKind;
use dns_backscatter::prelude::*;
use std::net::Ipv4Addr;

fn world() -> World {
    World::new(WorldConfig::default())
}

fn delegated_prober(w: &World) -> Ipv4Addr {
    (0..10_000u64)
        .map(|i| w.random_public_addr(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xAA))
        .find(|a| matches!(w.delegation(*a), Delegation::Delegated { .. }))
        .expect("delegated space exists")
}

#[test]
fn detection_threshold_crossed_by_small_scans_at_final_authority() {
    let w = world();
    let prober = delegated_prober(&w);
    // The paper: the final authority detects everything at 0.001 % of
    // the Internet or more. Our smallest Fig. 4 size easily crosses 20.
    let o = run_controlled_scan(
        &w,
        &ControlledScan {
            prober,
            targets: 4_000,
            kind: ContactKind::ProbeIcmp,
            duration: SimDuration::from_hours(1),
            trial_seed: 9,
        },
    );
    assert!(
        o.queriers_at_final >= 20,
        "4k-target scan only reached {} queriers",
        o.queriers_at_final
    );
}

#[test]
fn ttl_zero_override_defeats_caching_repeats() {
    // Two identical scans back to back: with TTL 0 the second run's
    // repeated queriers still reach the final authority.
    let w = world();
    let prober = delegated_prober(&w);
    let authority = AuthorityId::final_for(prober);
    let mut sim = Simulator::new(&w, SimulatorConfig::observing([authority]));
    sim.override_ptr_policy(
        prober,
        dns_backscatter::netsim::hierarchy::PtrPolicy::Exists { ttl: 0 },
    );
    let mk = |t: u64, i: u64| dns_backscatter::netsim::types::Contact {
        time: SimTime(t),
        originator: prober,
        target: w.random_public_addr(i ^ 0x77AA),
        kind: ContactKind::ProbeIcmp,
    };
    for i in 0..50_000u64 {
        sim.contact(mk(i / 100, i));
    }
    let first = sim.logs()[&authority].len();
    for i in 0..50_000u64 {
        sim.contact(mk(3_600 + i / 100, i)); // same targets, one hour later
    }
    let second = sim.logs()[&authority].len() - first;
    assert!(first > 500);
    // With caching the repeat would nearly vanish; with TTL 0 it is a
    // comparable batch of arrivals.
    assert!(second * 2 > first, "repeat pass saw {second} vs first {first}");
}

//! Case generation shared by the sensor's seeded property suites:
//! `tests/properties.rs` and, through a `#[path]` module in `lib.rs`,
//! the `*_equivalence` unit-test modules in `src/`. Every case derives
//! from its seed alone, so a failure replays from the seed in its
//! message.

// Each user compiles its own copy and uses a different subset.
#![allow(dead_code)]

use bs_dns::{Rcode, SimTime};
use bs_netsim::log::QueryLogRecord;
use bs_par::Rng;
use std::net::Ipv4Addr;

/// The address pools and length bound an arbitrary stream draws from.
pub struct Pools {
    /// Record times are uniform in `0..horizon`.
    pub horizon: u64,
    /// The querier's last octet is its 16-bit id modulo this.
    pub querier_mod: u16,
    /// Originators are `203.0.113.0..originators`.
    pub originators: u16,
    /// Streams hold `0..max_len` records.
    pub max_len: usize,
}

/// Deliberately small pools, so dedup hits, repeat visits, queriers
/// shared across originators and admission-filter pressure all occur.
pub const SMALL: Pools = Pools { horizon: 5_000, querier_mod: 61, originators: 37, max_len: 400 };

/// The amplification-reflector shape (Fachkha et al.): three
/// originators and a day's horizon, so dedup rarely fires and each
/// footprint reaches ~10⁴ queriers, heavily overlapping the other two
/// — every table grows several times, which `SMALL` (a few dozen
/// entries a set) never makes one do.
pub const AMPLIFIED: Pools =
    Pools { horizon: 86_400, querier_mod: 251, originators: 3, max_len: 30_000 };

/// An arbitrary (unsorted) record stream over `pools`.
pub fn arb_records(rng: &mut Rng, pools: &Pools) -> Vec<QueryLogRecord> {
    (0..rng.range(0..pools.max_len))
        .map(|_| {
            let time = SimTime(rng.below(pools.horizon));
            let q = rng.next_u64() as u16;
            let o = rng.below(pools.originators.into()) as u8;
            QueryLogRecord {
                time,
                querier: Ipv4Addr::new(10, (q >> 8) as u8, q as u8, (q % pools.querier_mod) as u8),
                originator: Ipv4Addr::new(203, 0, 113, o),
                rcode: Rcode::NoError,
            }
        })
        .collect()
}

/// The same stream in time order (stable, as the suites always sorted).
pub fn sorted_records(rng: &mut Rng, pools: &Pools) -> Vec<QueryLogRecord> {
    let mut records = arb_records(rng, pools);
    records.sort_by_key(|r| r.time);
    records
}

//! Target pools: pre-sampled sets of addresses each activity aims at.
//!
//! Scanners walk the raw address space, but most classes touch
//! *populations*: spam goes to mail servers, CDN traffic to residential
//! eyeballs, crawlers to web servers. Pools are sampled once per
//! scenario from the (procedural) world and reused by every originator,
//! with a per-country index so regionally-focused originators (a
//! Japanese mailing list, a CDN edge serving Asia) can draw most of
//! their targets from home.

use bs_netsim::det::{bounded, hash2, hash3, mix64};
use bs_netsim::types::{CountryCode, HostRole};
use bs_netsim::world::{BlockProfile, World};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The kinds of pools activities draw targets from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Live mail servers and anti-spam appliances (spam, mailing lists).
    MailServers,
    /// Live residential hosts (CDN, ad trackers, push, update, P2P).
    Eyeballs,
    /// Live web servers (crawlers).
    WebServers,
    /// Live name servers (DNS service traffic).
    NameServers,
    /// Live NTP servers.
    NtpServers,
    /// Any live host (cloud applications and general service traffic).
    AnyLive,
}

impl PoolKind {
    /// All pool kinds.
    pub const ALL: [PoolKind; 6] = [
        PoolKind::MailServers,
        PoolKind::Eyeballs,
        PoolKind::WebServers,
        PoolKind::NameServers,
        PoolKind::NtpServers,
        PoolKind::AnyLive,
    ];

    fn accepts(self, world: &World, addr: Ipv4Addr) -> bool {
        let Some(role) = world.host_role(addr) else {
            return false;
        };
        match self {
            PoolKind::MailServers => {
                matches!(role, HostRole::MailServer | HostRole::AntiSpam)
            }
            PoolKind::Eyeballs => role == HostRole::Home,
            PoolKind::WebServers => role == HostRole::WebServer,
            PoolKind::NameServers => role == HostRole::NameServer,
            PoolKind::NtpServers => role == HostRole::NtpServer,
            PoolKind::AnyLive => true,
        }
    }

    /// Block profiles worth scanning for this pool (skips blocks that
    /// cannot contain matching hosts, which makes building fast).
    fn promising(self, profile: BlockProfile) -> bool {
        use BlockProfile::*;
        match self {
            PoolKind::MailServers => {
                matches!(profile, Hosting | Enterprise | Academic | IspInfra)
            }
            PoolKind::Eyeballs => profile == Residential,
            PoolKind::WebServers => matches!(profile, Hosting | Enterprise | Academic),
            PoolKind::NameServers => {
                matches!(profile, Hosting | Enterprise | Academic | IspInfra)
            }
            PoolKind::NtpServers => matches!(profile, Academic | IspInfra),
            PoolKind::AnyLive => profile != Unused,
        }
    }
}

/// A sampled pool of target addresses with a per-country index.
#[derive(Debug, Clone)]
pub struct TargetPool {
    kind: PoolKind,
    addrs: Vec<Ipv4Addr>,
    by_country: HashMap<CountryCode, Vec<u32>>,
}

impl TargetPool {
    /// Sample a pool of roughly `target_size` matching hosts.
    ///
    /// Sampling walks random /24 blocks, skips unpromising profiles, and
    /// sweeps the rest — orders of magnitude faster than rejection
    /// sampling individual addresses for sparse roles.
    pub fn build(world: &World, kind: PoolKind, target_size: usize, seed: u64) -> Self {
        let mut addrs = Vec::with_capacity(target_size);
        let mut by_country: HashMap<CountryCode, Vec<u32>> = HashMap::new();
        let mut block_i = 0u64;
        // Bound the walk so degenerate configs terminate.
        let max_blocks = (target_size as u64).saturating_mul(400).max(100_000);
        while addrs.len() < target_size && block_i < max_blocks {
            let h = hash3(seed ^ 0x9001_0001, kind_tag(kind), block_i, 3);
            block_i += 1;
            let base = world.random_public_addr(h);
            let block = u32::from(base) & 0xFFFF_FF00;
            if !kind.promising(world.block_profile(base)) {
                continue;
            }
            for low in 0..=255u32 {
                let addr = Ipv4Addr::from(block | low);
                if kind.accepts(world, addr) {
                    if let Some(cc) = world.country_of(addr) {
                        by_country.entry(cc).or_default().push(addrs.len() as u32);
                    }
                    addrs.push(addr);
                    if addrs.len() >= target_size {
                        break;
                    }
                }
            }
        }
        TargetPool { kind, addrs, by_country }
    }

    /// The pool's kind.
    pub fn kind(&self) -> PoolKind {
        self.kind
    }

    /// Number of addresses in the pool.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when sampling found nothing.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Countries with at least one pooled address.
    pub fn countries(&self) -> impl Iterator<Item = CountryCode> + '_ {
        self.by_country.keys().copied()
    }

    /// Pick a target by hash; with `focus = Some((country, share))`, the
    /// pick comes from that country with probability `share` (falling
    /// back to the global pool when the country has no addresses).
    pub fn pick(&self, h: u64, focus: Option<(CountryCode, f64)>) -> Option<Ipv4Addr> {
        if self.addrs.is_empty() {
            return None;
        }
        if let Some((cc, share)) = focus {
            if bs_netsim::det::unit_f64(h) < share {
                if let Some(local) = self.by_country.get(&cc) {
                    if !local.is_empty() {
                        let idx = local[bounded(mix64(h ^ 0x10CA1), local.len() as u64) as usize];
                        return Some(self.addrs[idx as usize]);
                    }
                }
            }
        }
        Some(self.addrs[bounded(mix64(h ^ 0x6710B41), self.addrs.len() as u64) as usize])
    }
}

fn kind_tag(kind: PoolKind) -> u64 {
    PoolKind::ALL.iter().position(|k| *k == kind).expect("kind in ALL") as u64
}

/// All pools for one scenario, built lazily per kind.
#[derive(Debug, Clone, Default)]
pub struct TargetPools {
    pools: HashMap<PoolKind, TargetPool>,
}

impl TargetPools {
    /// Build every pool kind up front.
    pub fn build_all(world: &World, size_per_pool: usize, seed: u64) -> Self {
        let pools = PoolKind::ALL
            .iter()
            .map(|k| {
                (*k, TargetPool::build(world, *k, size_per_pool, hash2(seed, kind_tag(*k), 1)))
            })
            .collect();
        TargetPools { pools }
    }

    /// Access one pool.
    pub fn get(&self, kind: PoolKind) -> &TargetPool {
        self.pools.get(&kind).expect("pools built for all kinds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_netsim::world::WorldConfig;

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    #[test]
    fn mail_pool_contains_only_mail_infrastructure() {
        let w = world();
        let p = TargetPool::build(&w, PoolKind::MailServers, 300, 1);
        assert!(p.len() >= 200, "pool size {}", p.len());
        for i in 0..p.len().min(100) {
            let addr = p.addrs[i];
            let role = w.host_role(addr).expect("pooled hosts exist");
            assert!(
                matches!(role, HostRole::MailServer | HostRole::AntiSpam),
                "{addr} has role {role:?}"
            );
        }
    }

    #[test]
    fn eyeball_pool_is_homes() {
        let w = world();
        let p = TargetPool::build(&w, PoolKind::Eyeballs, 300, 2);
        assert!(p.len() >= 200);
        for addr in p.addrs.iter().take(100) {
            assert_eq!(w.host_role(*addr), Some(HostRole::Home));
        }
    }

    #[test]
    fn pools_are_deterministic() {
        let w = world();
        let a = TargetPool::build(&w, PoolKind::WebServers, 100, 7);
        let b = TargetPool::build(&w, PoolKind::WebServers, 100, 7);
        assert_eq!(a.addrs, b.addrs);
        let c = TargetPool::build(&w, PoolKind::WebServers, 100, 8);
        assert_ne!(a.addrs, c.addrs);
    }

    #[test]
    fn regional_focus_biases_picks() {
        let w = world();
        let p = TargetPool::build(&w, PoolKind::Eyeballs, 2000, 3);
        let jp = CountryCode::new("jp").unwrap();
        if !p.by_country.contains_key(&jp) {
            // World layout guarantees JP space; the pool should find it.
            panic!("eyeball pool found no JP homes");
        }
        let mut jp_hits = 0;
        let n = 2000;
        for i in 0..n {
            let addr = p.pick(mix64(i), Some((jp, 0.9))).unwrap();
            if w.country_of(addr) == Some(jp) {
                jp_hits += 1;
            }
        }
        let frac = jp_hits as f64 / n as f64;
        assert!(frac > 0.75, "jp fraction {frac}");
        // Unfocused picks hit JP far less.
        let mut base_hits = 0;
        for i in 0..n {
            let addr = p.pick(mix64(i + 10_000), None).unwrap();
            if w.country_of(addr) == Some(jp) {
                base_hits += 1;
            }
        }
        assert!(base_hits * 2 < jp_hits, "base={base_hits} focused={jp_hits}");
    }

    #[test]
    fn empty_pool_pick_is_none() {
        let p = TargetPool {
            kind: PoolKind::NtpServers,
            addrs: Vec::new(),
            by_country: HashMap::new(),
        };
        assert_eq!(p.pick(1, None), None);
        assert!(p.is_empty());
    }

    #[test]
    fn build_all_covers_every_kind() {
        let w = world();
        let pools = TargetPools::build_all(&w, 50, 9);
        for k in PoolKind::ALL {
            assert!(!pools.get(k).is_empty(), "{k:?} pool empty");
        }
    }
}

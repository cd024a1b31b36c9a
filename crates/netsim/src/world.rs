//! The simulated Internet.
//!
//! A [`World`] answers every *static* question about the network —
//! geography, topology, host population, naming, resolver wiring, PTR
//! zone contents — as a pure function of the world seed and the address
//! being asked about. Nothing is stored per-host, so worlds scale to
//! full-Internet scans; only the country table and AS bookkeeping are
//! materialized (a few KiB).
//!
//! The layout mirrors how the real registries carve up IPv4:
//!
//! * each usable **/8** belongs to a country (contiguous runs, so the /8
//!   prefix of an address is geographically meaningful — the basis of
//!   the sensor's *global entropy* feature);
//! * each **/16** belongs to an autonomous system of some
//!   [`AsType`] (ISP, hosting, enterprise, …);
//! * each **/24** gets a [`BlockProfile`] conditioned on its AS type
//!   (residential pool, server room, CDN PoP, …) that drives host
//!   density, host roles, reverse naming, and middlebox behaviour.

use crate::det::{bernoulli, bounded, hash1, hash2, hash3, mix64, unit_f64, weighted_pick};
use crate::hierarchy::{Delegation, PtrPolicy, Region};
use crate::naming;
use crate::types::{AsId, Contact, ContactKind, CountryCode, HostRole, NameOutcome, ResolverId};
use bs_dns::DomainName;
use std::net::Ipv4Addr;

/// One country in the world specification.
#[derive(Debug, Clone)]
pub struct CountrySpec {
    /// Two-letter code.
    pub code: CountryCode,
    /// Relative share of the usable /8 space.
    pub weight: f64,
    /// Coarse region, for root-server affinity.
    pub region: Region,
    /// Whether a national registry serves this country's reverse zones
    /// (sits between root and final authorities, like JPNIC).
    pub national_authority: bool,
}

fn spec(code: &str, weight: f64, region: Region, national: bool) -> CountrySpec {
    CountrySpec {
        code: CountryCode::new(code).expect("valid code"),
        weight,
        region,
        national_authority: national,
    }
}

/// The broad business of an autonomous system, which conditions what its
/// blocks look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsType {
    /// Access ISP: mostly residential pools plus some infrastructure.
    Isp,
    /// Hosting / datacenter provider: servers, scanners-for-hire, VPSes.
    Hosting,
    /// Enterprise network: offices behind firewalls, mail gateways.
    Enterprise,
    /// University or research network.
    Academic,
    /// Content-delivery operator.
    CdnProvider,
    /// Public cloud operator.
    CloudProvider,
}

impl AsType {
    /// All variants.
    pub const ALL: [AsType; 6] = [
        AsType::Isp,
        AsType::Hosting,
        AsType::Enterprise,
        AsType::Academic,
        AsType::CdnProvider,
        AsType::CloudProvider,
    ];
}

/// What a /24 is used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockProfile {
    /// Residential access pool (dense, home names).
    Residential,
    /// Datacenter floor (servers of all kinds).
    Hosting,
    /// Enterprise office block (firewalled, mail/fw/generic hosts).
    Enterprise,
    /// Campus network.
    Academic,
    /// ISP infrastructure block (resolvers, mail relays, ntp).
    IspInfra,
    /// CDN point of presence.
    CdnPop,
    /// Cloud datacenter block.
    CloudDc,
    /// Dark / unassigned space.
    Unused,
}

/// Tunable world parameters. Defaults are calibrated so the paper's
/// shapes hold (occupancy, reaction rates, attenuation); see DESIGN.md.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every fact derives from it.
    pub seed: u64,
    /// Country table. The default has 24 countries with JP, KR and BR
    /// operating national reverse registries.
    pub countries: Vec<CountrySpec>,
    /// Probability that a /16 of hosting space is undelegated (reverse
    /// walks die with NXDOMAIN at the parent).
    pub undelegated_hosting: f64,
    /// Undelegated probability for all other space.
    pub undelegated_other: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0x5EED_0001,
            countries: vec![
                spec("us", 30.0, Region::Americas, false),
                spec("cn", 12.0, Region::Apac, false),
                spec("jp", 9.0, Region::Apac, true),
                spec("de", 6.0, Region::Emea, false),
                spec("gb", 5.0, Region::Emea, false),
                spec("kr", 4.0, Region::Apac, true),
                spec("fr", 4.0, Region::Emea, false),
                spec("br", 4.0, Region::Americas, true),
                spec("ca", 3.0, Region::Americas, false),
                spec("it", 3.0, Region::Emea, false),
                spec("au", 2.5, Region::Apac, false),
                spec("ru", 2.5, Region::Emea, false),
                spec("nl", 2.0, Region::Emea, false),
                spec("in", 2.0, Region::Apac, false),
                spec("es", 2.0, Region::Emea, false),
                spec("se", 1.5, Region::Emea, false),
                spec("pl", 1.5, Region::Emea, false),
                spec("tw", 1.5, Region::Apac, false),
                spec("mx", 1.0, Region::Americas, false),
                spec("id", 1.0, Region::Apac, false),
                spec("tr", 1.0, Region::Emea, false),
                spec("th", 1.0, Region::Apac, false),
                spec("za", 0.5, Region::Emea, false),
                spec("ar", 0.5, Region::Americas, false),
            ],
            undelegated_hosting: 0.15,
            undelegated_other: 0.03,
        }
    }
}

/// Reaction of target-side infrastructure to a contact: who performs the
/// reverse lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reaction {
    /// The querier as seen (and logged) by authorities.
    pub querier: ResolverId,
    /// True when the reacting host resolves for itself rather than
    /// through a shared recursive resolver. Direct queriers expose their
    /// own (role-revealing) reverse names; shared ones look like `ns.*`.
    pub direct: bool,
}

/// The simulated Internet. Cheap to clone conceptually but normally
/// shared by reference; all methods take `&self`.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    /// `/8` index → country table index (None = reserved space).
    slash8_country: [Option<u16>; 256],
    /// ASes allocated per country, proportional to weight.
    as_counts: Vec<u32>,
    /// Per-country /8 lists (inverse of `slash8_country`).
    country_slash8s: Vec<Vec<u8>>,
}

/// /8s we never allocate: current/private/loopback/multicast/reserved.
fn reserved_slash8(a: u8) -> bool {
    matches!(a, 0 | 10 | 127) || a >= 224
}

impl World {
    /// Build a world from a configuration.
    pub fn new(config: WorldConfig) -> Self {
        assert!(!config.countries.is_empty(), "need at least one country");
        let total_weight: f64 = config.countries.iter().map(|c| c.weight).sum();
        assert!(total_weight > 0.0, "country weights must be positive");

        // Contiguous /8 runs per country, proportional to weight.
        let usable: Vec<u8> = (0u8..=255).filter(|a| !reserved_slash8(*a)).collect();
        let mut slash8_country = [None; 256];
        let n = usable.len() as f64;
        let mut cursor = 0usize;
        let mut acc = 0.0;
        for (ci, c) in config.countries.iter().enumerate() {
            acc += c.weight;
            let end = ((acc / total_weight) * n).round() as usize;
            for &a in &usable[cursor..end.min(usable.len())] {
                slash8_country[a as usize] = Some(ci as u16);
            }
            cursor = end;
        }
        // Rounding may leave a tail; give it to the last country.
        for &a in &usable[cursor..] {
            slash8_country[a as usize] = Some((config.countries.len() - 1) as u16);
        }

        let as_counts = config
            .countries
            .iter()
            .map(|c| ((c.weight / total_weight) * 2000.0).ceil().max(8.0) as u32)
            .collect();

        let mut country_slash8s = vec![Vec::new(); config.countries.len()];
        for (a, ci) in slash8_country.iter().enumerate() {
            if let Some(ci) = ci {
                country_slash8s[*ci as usize].push(a as u8);
            }
        }

        World { config, slash8_country, as_counts, country_slash8s }
    }

    /// The active configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The world seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    // -- Geography ---------------------------------------------------------

    /// The country owning `addr`'s /8, if the space is usable.
    pub fn country_of(&self, addr: Ipv4Addr) -> Option<CountryCode> {
        self.slash8_country[addr.octets()[0] as usize]
            .map(|ci| self.config.countries[ci as usize].code)
    }

    /// Country spec lookup by code.
    pub fn country_spec(&self, code: CountryCode) -> Option<&CountrySpec> {
        self.config.countries.iter().find(|c| c.code == code)
    }

    /// The region of `addr`, if usable.
    pub fn region_of(&self, addr: Ipv4Addr) -> Option<Region> {
        self.slash8_country[addr.octets()[0] as usize]
            .map(|ci| self.config.countries[ci as usize].region)
    }

    /// The /8s belonging to `code`, for dataset generators that place
    /// originators inside one country.
    pub fn slash8s_of(&self, code: CountryCode) -> Vec<u8> {
        (0u8..=255)
            .filter(|a| {
                self.slash8_country[*a as usize]
                    .map(|ci| self.config.countries[ci as usize].code == code)
                    .unwrap_or(false)
            })
            .collect()
    }

    // -- Topology ----------------------------------------------------------

    /// The AS owning `addr`'s /16, if the space is usable.
    pub fn as_of(&self, addr: Ipv4Addr) -> Option<AsId> {
        let ci = self.slash8_country[addr.octets()[0] as usize]? as usize;
        let slash16 = (u32::from(addr) >> 16) as u64;
        let idx =
            bounded(hash2(self.config.seed ^ 0xA5_0001, slash16, 11), self.as_counts[ci] as u64);
        Some(AsId(ci as u32 * 10_000 + idx as u32))
    }

    /// The business type of an AS.
    pub fn as_type(&self, as_id: AsId) -> AsType {
        let h = hash1(self.config.seed ^ 0xA5_0002, as_id.0 as u64);
        // ISP-heavy mix with a meaningful hosting sector.
        const W: [f64; 6] = [0.42, 0.18, 0.20, 0.06, 0.06, 0.08];
        AsType::ALL[weighted_pick(h, &W)]
    }

    /// The profile of `addr`'s /24, conditioned on its AS type.
    pub fn block_profile(&self, addr: Ipv4Addr) -> BlockProfile {
        let Some(as_id) = self.as_of(addr) else {
            return BlockProfile::Unused;
        };
        let slash24 = (u32::from(addr) >> 8) as u64;
        let h = hash2(self.config.seed ^ 0xA5_0003, slash24, as_id.0 as u64);
        use BlockProfile::*;
        let (profiles, weights): (&[BlockProfile], &[f64]) = match self.as_type(as_id) {
            AsType::Isp => {
                (&[Residential, IspInfra, Enterprise, Unused], &[0.62, 0.06, 0.12, 0.20])
            }
            AsType::Hosting => (&[Hosting, IspInfra, Unused], &[0.70, 0.05, 0.25]),
            AsType::Enterprise => (&[Enterprise, Unused], &[0.55, 0.45]),
            AsType::Academic => (&[Academic, Enterprise, Unused], &[0.50, 0.15, 0.35]),
            AsType::CdnProvider => (&[CdnPop, Unused], &[0.55, 0.45]),
            AsType::CloudProvider => (&[CloudDc, Unused], &[0.70, 0.30]),
        };
        profiles[weighted_pick(h, weights)]
    }

    // -- Host population ----------------------------------------------------

    /// Host density of a block profile: fraction of the /24's addresses
    /// with a live host. Tuned so that overall occupancy lands in the
    /// 6–8 % band the paper cites for probe responses.
    fn host_density(profile: BlockProfile) -> f64 {
        match profile {
            BlockProfile::Residential => 0.12,
            BlockProfile::Hosting => 0.18,
            BlockProfile::Enterprise => 0.10,
            BlockProfile::Academic => 0.12,
            BlockProfile::IspInfra => 0.10,
            BlockProfile::CdnPop => 0.30,
            BlockProfile::CloudDc => 0.28,
            BlockProfile::Unused => 0.0,
        }
    }

    /// Is there a live host at `addr`?
    pub fn host_exists(&self, addr: Ipv4Addr) -> bool {
        let profile = self.block_profile(addr);
        let d = Self::host_density(profile);
        if d == 0.0 {
            return false;
        }
        bernoulli(hash1(self.config.seed ^ 0xA5_0004, u32::from(addr) as u64), d)
    }

    /// The role of the host at `addr`, if one exists.
    pub fn host_role(&self, addr: Ipv4Addr) -> Option<HostRole> {
        if !self.host_exists(addr) {
            return None;
        }
        if self.is_shared_resolver_addr(addr) {
            return Some(HostRole::NameServer);
        }
        let profile = self.block_profile(addr);
        let h = hash1(self.config.seed ^ 0xA5_0005, u32::from(addr) as u64);
        use HostRole::*;
        let (roles, weights): (&[HostRole], &[f64]) = match profile {
            BlockProfile::Residential => (&[Home], &[1.0]),
            BlockProfile::Hosting => (
                &[WebServer, MailServer, NameServer, Generic, CloudNode],
                &[0.30, 0.14, 0.08, 0.44, 0.04],
            ),
            BlockProfile::Enterprise => (
                &[Generic, MailServer, Firewall, AntiSpam, WebServer, NameServer],
                &[0.48, 0.14, 0.14, 0.05, 0.11, 0.08],
            ),
            BlockProfile::Academic => (
                &[Generic, WebServer, MailServer, NameServer, NtpServer, Firewall],
                &[0.42, 0.16, 0.12, 0.10, 0.08, 0.12],
            ),
            BlockProfile::IspInfra => (
                &[NameServer, MailServer, NtpServer, Generic, Firewall],
                &[0.34, 0.22, 0.08, 0.28, 0.08],
            ),
            BlockProfile::CdnPop => (&[CdnNode, Generic], &[0.85, 0.15]),
            BlockProfile::CloudDc => (&[CloudNode, Generic], &[0.88, 0.12]),
            BlockProfile::Unused => unreachable!("no hosts in unused space"),
        };
        Some(roles[weighted_pick(h, weights)])
    }

    // -- Naming --------------------------------------------------------------

    /// The organization domain for `addr`'s network. ISP pools share one
    /// domain per AS (real access pools look like `*.bigisp.net`); other
    /// blocks get per-/24 org domains.
    pub fn org_domain(&self, addr: Ipv4Addr) -> DomainName {
        let country =
            self.country_of(addr).unwrap_or_else(|| CountryCode::new("us").expect("static code"));
        let profile = self.block_profile(addr);
        let key = match profile {
            BlockProfile::Residential | BlockProfile::IspInfra => {
                // Per-AS domain.
                self.as_of(addr).map(|a| a.0 as u64).unwrap_or(0) | 0x8000_0000_0000
            }
            _ => (u32::from(addr) >> 8) as u64,
        };
        naming::org_domain(self.config.seed, key, country)
    }

    /// Reverse-resolve `addr`: what a PTR lookup for it would return.
    ///
    /// This is used for *querier* classification by the sensor. Coverage
    /// gaps are realistic: the paper sees 14–19 % of queriers without
    /// reverse names, plus some behind unreachable authorities.
    pub fn reverse_name(&self, addr: Ipv4Addr) -> NameOutcome {
        let profile = self.block_profile(addr);
        let h = hash1(self.config.seed ^ 0xA5_0006, u32::from(addr) as u64);
        // Infrastructure special cases first: shared-resolver slots are
        // name servers (almost always with PTR records), and middlebox
        // gateways are firewalls — regardless of whether the host
        // density roll placed an ordinary host there.
        if self.is_shared_resolver_addr(addr) {
            let u = unit_f64(h);
            if u < 0.01 {
                return NameOutcome::Unreachable;
            }
            if u < 0.06 {
                return NameOutcome::NxDomain;
            }
            let org = self.org_domain(addr);
            return NameOutcome::Name(naming::host_name(
                self.config.seed,
                addr,
                HostRole::NameServer,
                &org,
            ));
        }
        if self.is_middlebox_gateway(addr) {
            let u = unit_f64(h);
            if u < 0.02 {
                return NameOutcome::Unreachable;
            }
            if u < 0.12 {
                return NameOutcome::NxDomain;
            }
            let org = self.org_domain(addr);
            return NameOutcome::Name(naming::host_name(
                self.config.seed,
                addr,
                HostRole::Firewall,
                &org,
            ));
        }
        let (p_nx, p_unreach) = match profile {
            BlockProfile::Residential => (0.06, 0.02),
            BlockProfile::Hosting => (0.28, 0.06),
            BlockProfile::Enterprise => (0.16, 0.04),
            BlockProfile::Academic => (0.08, 0.02),
            BlockProfile::IspInfra => (0.04, 0.01),
            BlockProfile::CdnPop => (0.10, 0.02),
            BlockProfile::CloudDc => (0.12, 0.02),
            BlockProfile::Unused => (0.75, 0.25),
        };
        let u = unit_f64(h);
        if u < p_unreach {
            return NameOutcome::Unreachable;
        }
        if u < p_unreach + p_nx {
            return NameOutcome::NxDomain;
        }
        // Role for naming: a live host uses its role; empty pool slots
        // still have pre-populated PTR records (home-style in pools,
        // generic elsewhere).
        let role = self.host_role(addr).unwrap_or(match profile {
            BlockProfile::Residential => HostRole::Home,
            BlockProfile::CdnPop => HostRole::CdnNode,
            BlockProfile::CloudDc => HostRole::CloudNode,
            _ => HostRole::Generic,
        });
        let org = match role {
            HostRole::CdnNode | HostRole::CloudNode => {
                naming::provider_domain(self.config.seed, addr, role)
            }
            _ => self.org_domain(addr),
        };
        NameOutcome::Name(naming::host_name(self.config.seed, addr, role, &org))
    }

    // -- Resolver wiring -------------------------------------------------------

    /// Is `addr` one of its AS's shared-resolver slots? We place up to
    /// four shared resolvers per AS at `x.y.0.10`–`x.y.0.13` of each of
    /// its /16s.
    fn is_shared_resolver_addr(&self, addr: Ipv4Addr) -> bool {
        let o = addr.octets();
        o[2] == 0 && (10..14).contains(&o[3]) && self.as_of(addr).is_some()
    }

    /// The shared recursive resolver serving `addr`.
    ///
    /// Resolver populations are concentrated, like the real Internet's:
    /// access ISPs funnel most customers through a couple of *central*
    /// resolvers for the whole AS, while enterprise and hosting blocks
    /// more often run a *local* resolver in their own /16. This
    /// concentration is what makes querier counts grow sub-linearly
    /// with scan size (paper Fig. 4): bigger scans keep re-hitting the
    /// same big resolvers.
    pub fn shared_resolver_for(&self, addr: Ipv4Addr) -> ResolverId {
        let slash24 = (u32::from(addr) >> 8) as u64;
        let h = hash1(self.config.seed ^ 0xA5_0007, slash24);
        if let Some(as_id) = self.as_of(addr) {
            let p_central = match self.as_type(as_id) {
                AsType::Isp => 0.75,
                AsType::Hosting => 0.30,
                AsType::Enterprise => 0.20,
                AsType::Academic => 0.25,
                AsType::CdnProvider | AsType::CloudProvider => 0.50,
            };
            if bernoulli(mix64(h ^ 0xCE), p_central) {
                let slot = bounded(mix64(h ^ 0xCF), 2) as u8;
                return self.central_resolver(as_id, slot);
            }
        }
        let o = addr.octets();
        let slot = bounded(h, 4) as u8;
        ResolverId(Ipv4Addr::new(o[0], o[1], 0, 10 + slot))
    }

    /// One of an AS's central resolvers: a stable address inside the
    /// AS's country, shaped like a resolver slot (`x.y.0.10+slot`) so
    /// it reverse-resolves as a name server.
    fn central_resolver(&self, as_id: AsId, slot: u8) -> ResolverId {
        let ci = (as_id.0 / 10_000) as usize;
        let h = hash1(self.config.seed ^ 0xA5_000C, as_id.0 as u64);
        // Pick a /8 of the AS's country and a stable second octet.
        let list = &self.country_slash8s[ci.min(self.country_slash8s.len() - 1)];
        let a = if list.is_empty() { 1 } else { list[bounded(h, list.len() as u64) as usize] };
        let b = (mix64(h ^ 0xB0) & 0xFF) as u8;
        ResolverId(Ipv4Addr::new(a, b, 0, 10 + (slot % 4)))
    }

    /// Probability that a host of `role` resolves reverse names for
    /// itself rather than through the shared resolver. Mail
    /// infrastructure mostly runs its own resolution; most other gear
    /// leans on the ISP or enterprise shared resolver — which is why
    /// scanners see so many `ns.*` queriers (paper Fig. 3).
    fn direct_resolution_prob(role: HostRole) -> f64 {
        match role {
            HostRole::MailServer => 0.80,
            HostRole::AntiSpam => 0.85,
            HostRole::Firewall => 0.30,
            HostRole::NameServer => 1.00,
            HostRole::WebServer => 0.35,
            HostRole::NtpServer => 0.40,
            HostRole::Home => 0.35,
            HostRole::CdnNode | HostRole::CloudNode => 0.50,
            HostRole::Generic => 0.20,
        }
    }

    /// Probability that a /24 of this profile has a logging middlebox.
    fn middlebox_presence_prob(profile: BlockProfile) -> f64 {
        match profile {
            BlockProfile::Enterprise => 0.55,
            BlockProfile::Academic => 0.45,
            BlockProfile::Hosting => 0.25,
            BlockProfile::IspInfra => 0.35,
            BlockProfile::Residential => 0.05,
            _ => 0.0,
        }
    }

    /// Does the /24 containing `addr` run a logging middlebox?
    pub fn middlebox_at(&self, addr: Ipv4Addr) -> bool {
        let p = Self::middlebox_presence_prob(self.block_profile(addr));
        if p == 0.0 {
            return false;
        }
        let slash24 = (u32::from(addr) >> 8) as u64;
        bernoulli(hash1(self.config.seed ^ 0xA5_0008 ^ 0x02, slash24), p)
    }

    /// Is `addr` the gateway address (`x.y.z.1`) of a block with a
    /// middlebox? Such addresses reverse-resolve as firewalls.
    fn is_middlebox_gateway(&self, addr: Ipv4Addr) -> bool {
        addr.octets()[3] == 1 && self.middlebox_at(addr)
    }

    /// How target-side infrastructure reacts to a contact: which
    /// queriers (if any) perform a reverse lookup of the originator.
    ///
    /// The decision is stable per `(originator, target, kind)`: the same
    /// pair always reacts the same way, so repeated contacts translate
    /// into repeated queries — the raw material of the sensor's
    /// queries-per-querier feature.
    pub fn reactions(&self, c: &Contact) -> Vec<Reaction> {
        let mut out = Vec::new();
        let seed = self.config.seed ^ 0xA5_0008;
        let key = hash3(
            seed,
            u32::from(c.originator) as u64,
            u32::from(c.target) as u64,
            contact_tag(c.kind),
        );

        // (a) The target host itself (or its CPE) logging / authenticating.
        if let Some(role) = self.host_role(c.target) {
            let p = host_reaction_prob(role, c.kind);
            if p > 0.0 && bernoulli(key, p) {
                let direct = bernoulli(mix64(key ^ 0x01), Self::direct_resolution_prob(role));
                let querier =
                    if direct { ResolverId(c.target) } else { self.shared_resolver_for(c.target) };
                out.push(Reaction { querier, direct });
            }
        }

        // (b) A block-level middlebox (firewall / IDS) guarding the /24,
        // present on enterprise-ish space. It reacts to probes even when
        // the probed address is empty — this is how scans of dark
        // corporate space still generate backscatter. Middleboxes mostly
        // resolve through the shared resolver, so scans show up as
        // `ns.*` queriers far more often than as `fw.*` ones.
        if is_probe(c.kind) && self.middlebox_at(c.target) {
            // The middlebox rate-limits lookups: it reacts to a given
            // originator with moderate probability per probed address.
            if bernoulli(mix64(key ^ 0x03), 0.35) {
                let slash24 = (u32::from(c.target) >> 8) as u64;
                let fw_addr = Ipv4Addr::from((slash24 << 8) as u32 | 1);
                let direct = bernoulli(mix64(key ^ 0x04), 0.25);
                let querier =
                    if direct { ResolverId(fw_addr) } else { self.shared_resolver_for(c.target) };
                out.push(Reaction { querier, direct });
            }
        }

        out
    }

    // -- Reverse-zone contents ---------------------------------------------------

    /// The delegation status of the /24 containing `addr`.
    pub fn delegation(&self, addr: Ipv4Addr) -> Delegation {
        let Some(country) = self.country_of(addr) else {
            return Delegation::Undelegated { at_national: false };
        };
        let via_national =
            self.country_spec(country).map(|c| c.national_authority).unwrap_or(false);
        let slash24 = (u32::from(addr) >> 8) as u64;
        let p_undelegated = match self.as_of(addr).map(|a| self.as_type(a)) {
            Some(AsType::Hosting) => self.config.undelegated_hosting,
            _ => self.config.undelegated_other,
        };
        if bernoulli(hash1(self.config.seed ^ 0xA5_0009, slash24), p_undelegated) {
            Delegation::Undelegated { at_national: via_national }
        } else {
            Delegation::Delegated { via_national }
        }
    }

    /// The leaf PTR policy for an originator: what its final authority
    /// serves, and with what TTL. Dataset generators may override this
    /// per-originator in the simulator (e.g. TTL 0 for controlled scans).
    pub fn ptr_policy(&self, originator: Ipv4Addr) -> PtrPolicy {
        match self.reverse_name(originator) {
            NameOutcome::Unreachable => PtrPolicy::Unreachable,
            NameOutcome::NxDomain => {
                // Negative TTLs drawn from common SOA MINIMUM values.
                let h = hash1(self.config.seed ^ 0xA5_000A, u32::from(originator) as u64);
                const NEG: [u32; 5] = [600, 900, 1200, 3600, 86_400];
                PtrPolicy::NxDomain { neg_ttl: NEG[bounded(h, NEG.len() as u64) as usize] }
            }
            NameOutcome::Name(_) => {
                let h = hash1(self.config.seed ^ 0xA5_000B, u32::from(originator) as u64);
                // TTL mix from the paper's Tables VII/VIII: minutes for
                // ad/CDN-style names up to a day for stable hosts.
                const TTLS: [u32; 7] = [300, 600, 1800, 3600, 28_800, 43_200, 86_400];
                const W: [f64; 7] = [0.08, 0.07, 0.08, 0.22, 0.15, 0.10, 0.30];
                PtrPolicy::Exists { ttl: TTLS[weighted_pick(h, &W)] }
            }
        }
    }

    /// Draw a usable public address uniformly from a hash (for target
    /// selection and scan drivers).
    pub fn random_public_addr(&self, h: u64) -> Ipv4Addr {
        // Rejection-free: map into usable /8 list, then random low bits.
        let usable: u64 = 256 - 35; // 3 low reserved + 32 high reserved
        let mut a = bounded(h, usable) as u8;
        // Skip reserved /8s in order (0, 10, 127, then 224..).
        for r in [0u8, 10, 127] {
            if a >= r {
                a += 1;
            }
        }
        let low = (mix64(h ^ 0xF00D) & 0x00FF_FFFF) as u32;
        Ipv4Addr::from(((a as u32) << 24) | low)
    }
}

/// Which contact kinds count as probes for middlebox logging.
fn is_probe(kind: ContactKind) -> bool {
    matches!(kind, ContactKind::ProbeTcp(_) | ContactKind::ProbeUdp(_) | ContactKind::ProbeIcmp)
}

fn contact_tag(kind: ContactKind) -> u64 {
    match kind {
        ContactKind::Smtp => 1,
        ContactKind::SmtpSpam => 13,
        ContactKind::ProbeTcp(p) => 0x1_0000 | p as u64,
        ContactKind::ProbeUdp(p) => 0x2_0000 | p as u64,
        ContactKind::ProbeIcmp => 3,
        ContactKind::HttpFetch => 4,
        ContactKind::WebBug => 5,
        ContactKind::CdnDelivery => 6,
        ContactKind::CloudApp => 7,
        ContactKind::UpdatePoll => 8,
        ContactKind::DnsService => 9,
        ContactKind::NtpService => 10,
        ContactKind::PushKeepalive => 11,
        ContactKind::P2p => 12,
    }
}

/// Probability that a host of `role` performs a reverse lookup when it
/// receives traffic of `kind`. These encode the paper's description of
/// who reacts: mail servers and anti-spam boxes on SMTP, firewalls on
/// probes, web servers on crawler fetches, CPE middleboxes on
/// target-initiated services.
fn host_reaction_prob(role: HostRole, kind: ContactKind) -> f64 {
    use ContactKind::*;
    use HostRole::*;
    match (role, kind) {
        (MailServer, Smtp) => 0.85,
        (MailServer, SmtpSpam) => 0.92,
        (AntiSpam, Smtp) => 0.55,
        (AntiSpam, SmtpSpam) => 0.95,
        (Generic, Smtp | SmtpSpam) => 0.05,
        (Home, Smtp | SmtpSpam) => 0.01,

        (Firewall, ProbeTcp(_) | ProbeUdp(_) | ProbeIcmp) => 0.85,
        (MailServer | WebServer | NameServer | NtpServer, ProbeTcp(_)) => 0.10,
        (Generic, ProbeTcp(_) | ProbeUdp(_)) => 0.06,
        (Generic, ProbeIcmp) => 0.04,
        (Home, ProbeTcp(_) | ProbeUdp(_) | ProbeIcmp) => 0.05,

        (WebServer, HttpFetch) => 0.50,
        (Generic, HttpFetch) => 0.08,

        // Target-initiated traffic: the CPE / local middlebox logs the
        // far end. Homes dominate CDN and update delivery.
        (Home, CdnDelivery) => 0.22,
        (Home, WebBug) => 0.18,
        (Home, CloudApp) => 0.15,
        (Home, UpdatePoll) => 0.15,
        (Home, PushKeepalive) => 0.12,
        (Generic, CdnDelivery | CloudApp | UpdatePoll) => 0.10,
        (Generic, WebBug) => 0.08,
        (Firewall, WebBug | CloudApp | CdnDelivery) => 0.30,

        (NameServer, DnsService) => 0.25,
        (Generic, DnsService) => 0.06,
        (NtpServer, NtpService) => 0.30,
        (Generic, NtpService) => 0.05,

        (Home, P2p) => 0.05,
        (Generic, P2p) => 0.04,

        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dns::SimTime;

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    #[test]
    fn reserved_space_has_no_country() {
        let w = world();
        for a in [0u8, 10, 127, 224, 240, 255] {
            assert_eq!(w.country_of(Ipv4Addr::new(a, 1, 2, 3)), None, "/8 {a}");
        }
        assert!(w.country_of("8.8.8.8".parse().unwrap()).is_some());
    }

    #[test]
    fn countries_are_contiguous_per_slash8() {
        let w = world();
        // Every address in a /8 shares a country.
        let c1 = w.country_of("50.1.2.3".parse().unwrap());
        let c2 = w.country_of("50.200.9.9".parse().unwrap());
        assert_eq!(c1, c2);
    }

    #[test]
    fn big_countries_get_more_slash8s() {
        let w = world();
        let us = w.slash8s_of(CountryCode::new("us").unwrap()).len();
        let jp = w.slash8s_of(CountryCode::new("jp").unwrap()).len();
        let ar = w.slash8s_of(CountryCode::new("ar").unwrap()).len();
        assert!(us > jp, "us={us} jp={jp}");
        assert!(jp > ar, "jp={jp} ar={ar}");
        assert!(jp >= 10, "jp national space should be several /8s, got {jp}");
    }

    #[test]
    fn every_usable_slash8_is_assigned() {
        let w = world();
        for a in 0u8..=255 {
            let assigned = w.country_of(Ipv4Addr::new(a, 0, 0, 1)).is_some();
            assert_eq!(assigned, !reserved_slash8(a), "/8 {a}");
        }
    }

    #[test]
    fn as_assignment_is_per_slash16() {
        let w = world();
        let a = w.as_of("98.7.1.1".parse().unwrap());
        let b = w.as_of("98.7.200.200".parse().unwrap());
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn facts_are_deterministic() {
        let w1 = world();
        let w2 = world();
        for i in 0..200u32 {
            let addr = w1.random_public_addr(crate::det::mix64(i as u64));
            assert_eq!(w1.host_role(addr), w2.host_role(addr));
            assert_eq!(w1.reverse_name(addr), w2.reverse_name(addr));
            assert_eq!(w1.block_profile(addr), w2.block_profile(addr));
        }
    }

    #[test]
    fn occupancy_is_single_digit_percent() {
        let w = world();
        let n = 40_000u64;
        let occupied = (0..n)
            .filter(|i| w.host_exists(w.random_public_addr(crate::det::hash1(42, *i))))
            .count();
        let frac = occupied as f64 / n as f64;
        assert!((0.04..=0.12).contains(&frac), "occupancy {frac} outside the target band");
    }

    #[test]
    fn residential_blocks_hold_homes() {
        let w = world();
        let mut found = 0;
        let mut homes = 0;
        for i in 0..200_000u64 {
            let addr = w.random_public_addr(crate::det::hash1(7, i));
            if w.block_profile(addr) == BlockProfile::Residential {
                if let Some(role) = w.host_role(addr) {
                    found += 1;
                    if role == HostRole::Home {
                        homes += 1;
                    }
                }
            }
            if found >= 200 {
                break;
            }
        }
        assert!(found >= 100, "found only {found} residential hosts");
        assert_eq!(homes, found, "all residential hosts are homes");
    }

    #[test]
    fn reverse_names_have_realistic_gap_rate() {
        let w = world();
        let mut named = 0;
        let mut nx = 0;
        let mut unreach = 0;
        let mut n = 0;
        for i in 0..30_000u64 {
            let addr = w.random_public_addr(crate::det::hash1(13, i));
            if w.block_profile(addr) == BlockProfile::Unused {
                continue;
            }
            n += 1;
            match w.reverse_name(addr) {
                NameOutcome::Name(_) => named += 1,
                NameOutcome::NxDomain => nx += 1,
                NameOutcome::Unreachable => unreach += 1,
            }
        }
        let nx_frac = nx as f64 / n as f64;
        assert!(named > nx && nx > unreach, "named={named} nx={nx} unreach={unreach}");
        assert!((0.05..0.30).contains(&nx_frac), "nxdomain fraction {nx_frac}");
    }

    #[test]
    fn shared_resolver_is_stable_and_slot_shaped() {
        let w = world();
        let addr: Ipv4Addr = "98.7.60.9".parse().unwrap();
        let r1 = w.shared_resolver_for(addr);
        let r2 = w.shared_resolver_for(addr);
        assert_eq!(r1, r2);
        let ro = r1.0.octets();
        assert_eq!(ro[2], 0);
        assert!((10..14).contains(&ro[3]));
        // Central or local, the resolver stays inside the same country.
        assert_eq!(w.country_of(r1.0), w.country_of(addr));
    }

    #[test]
    fn isp_space_concentrates_on_central_resolvers() {
        let w = world();
        use std::collections::HashSet;
        // Inside a single ISP /16, the 256 /24s should funnel into a
        // handful of resolvers: the AS's two central slots plus at most
        // four local slots.
        let mut checked = 0;
        for i in 0..40_000u64 {
            let addr = w.random_public_addr(crate::det::hash1(0x77, i));
            let Some(as_id) = w.as_of(addr) else { continue };
            if w.as_type(as_id) != AsType::Isp {
                continue;
            }
            let base = u32::from(addr) & 0xFFFF_0000;
            let mut resolvers: HashSet<ResolverId> = HashSet::new();
            for third in 0..=255u32 {
                let a = Ipv4Addr::from(base | (third << 8) | 9);
                resolvers.insert(w.shared_resolver_for(a));
            }
            assert!(
                resolvers.len() <= 6,
                "ISP /16 {base:#x} spreads over {} resolvers",
                resolvers.len()
            );
            checked += 1;
            if checked >= 10 {
                break;
            }
        }
        assert!(checked >= 5, "checked only {checked} ISP /16s");
    }

    #[test]
    fn resolver_slots_reverse_resolve_as_nameservers() {
        let w = world();
        // Find a shared resolver address whose PTR lookup yields a name;
        // the name must look like a nameserver.
        let mut checked = 0;
        for i in 0..3000u64 {
            let base = w.random_public_addr(crate::det::hash1(23, i));
            let r = w.shared_resolver_for(base);
            if let NameOutcome::Name(n) = w.reverse_name(r.0) {
                if w.host_exists(r.0) {
                    let left = n.leftmost().unwrap().to_lowercase();
                    let nsish = ["ns", "dns", "cns", "cache", "resolv", "name"]
                        .iter()
                        .any(|kw| left.starts_with(kw));
                    assert!(nsish, "resolver name {n} should be ns-like");
                    checked += 1;
                }
            }
            if checked >= 20 {
                break;
            }
        }
        assert!(checked >= 5, "too few resolver names checked: {checked}");
    }

    #[test]
    fn mail_servers_react_to_smtp() {
        let w = world();
        // Find mail servers, check reaction statistics to SMTP.
        let mut mail_hosts = Vec::new();
        for i in 0..2_000_000u64 {
            let addr = w.random_public_addr(crate::det::hash1(31, i));
            if w.host_role(addr) == Some(HostRole::MailServer) {
                mail_hosts.push(addr);
                if mail_hosts.len() >= 300 {
                    break;
                }
            }
        }
        assert!(mail_hosts.len() >= 100, "found {} mail servers", mail_hosts.len());
        let orig: Ipv4Addr = "203.0.113.7".parse().unwrap();
        let reacting = mail_hosts
            .iter()
            .filter(|t| {
                let c = Contact {
                    time: SimTime(0),
                    originator: orig,
                    target: **t,
                    kind: ContactKind::Smtp,
                };
                !w.reactions(&c).is_empty()
            })
            .count();
        let rate = reacting as f64 / mail_hosts.len() as f64;
        assert!(rate > 0.75, "mail reaction rate {rate}");
    }

    #[test]
    fn reactions_are_stable_per_pair() {
        let w = world();
        let c = Contact {
            time: SimTime(100),
            originator: "203.0.113.7".parse().unwrap(),
            target: "98.7.60.9".parse().unwrap(),
            kind: ContactKind::ProbeTcp(22),
        };
        let c_later = Contact { time: SimTime(9999), ..c };
        assert_eq!(w.reactions(&c), w.reactions(&c_later));
    }

    #[test]
    fn probes_of_empty_enterprise_space_can_trigger_middleboxes() {
        let w = world();
        let orig: Ipv4Addr = "203.0.113.7".parse().unwrap();
        let mut hits = 0;
        let mut probed = 0;
        for i in 0..400_000u64 {
            let addr = w.random_public_addr(crate::det::hash1(37, i));
            if w.block_profile(addr) == BlockProfile::Enterprise && !w.host_exists(addr) {
                probed += 1;
                let c = Contact {
                    time: SimTime(0),
                    originator: orig,
                    target: addr,
                    kind: ContactKind::ProbeTcp(22),
                };
                if !w.reactions(&c).is_empty() {
                    hits += 1;
                }
            }
            if probed >= 3000 {
                break;
            }
        }
        assert!(probed >= 1000, "probed {probed}");
        let rate = hits as f64 / probed as f64;
        assert!(rate > 0.03 && rate < 0.5, "middlebox rate on empty space: {rate}");
    }

    #[test]
    fn delegation_mostly_delegated_and_jp_via_national() {
        let w = world();
        let jp8s = w.slash8s_of(CountryCode::new("jp").unwrap());
        let a = Ipv4Addr::new(jp8s[0], 5, 0, 1);
        match w.delegation(a) {
            Delegation::Delegated { via_national } => assert!(via_national),
            Delegation::Undelegated { at_national } => assert!(at_national),
        }
        // Globally, most /16s are delegated.
        let mut undelegated = 0;
        for i in 0..2000u64 {
            let addr = w.random_public_addr(crate::det::hash1(41, i));
            if matches!(w.delegation(addr), Delegation::Undelegated { .. }) {
                undelegated += 1;
            }
        }
        let frac = undelegated as f64 / 2000.0;
        assert!(frac < 0.15, "undelegated fraction {frac}");
    }

    #[test]
    fn ptr_policy_matches_reverse_name() {
        let w = world();
        for i in 0..500u64 {
            let addr = w.random_public_addr(crate::det::hash1(43, i));
            let policy = w.ptr_policy(addr);
            match w.reverse_name(addr) {
                NameOutcome::Name(_) => assert!(matches!(policy, PtrPolicy::Exists { .. })),
                NameOutcome::NxDomain => assert!(matches!(policy, PtrPolicy::NxDomain { .. })),
                NameOutcome::Unreachable => assert_eq!(policy, PtrPolicy::Unreachable),
            }
        }
    }

    #[test]
    fn random_public_addr_avoids_reserved_space() {
        let w = world();
        for i in 0..20_000u64 {
            let a = w.random_public_addr(crate::det::mix64(i));
            assert!(!reserved_slash8(a.octets()[0]), "reserved {a}");
        }
    }
}

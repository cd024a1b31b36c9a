//! External oracles: blacklists and darknets (paper §IV-B, Appendix A).
//!
//! The paper validates labels against DNS blacklists from nine
//! organizations and two darknets (a /17 and a /18 in Japan). These are
//! replicated as *models over the scenario's ground truth* rather than
//! packet-level simulations:
//!
//! * The [`Blacklist`] lists spam originators with realistic coverage
//!   (not every spammer is caught), listing lag, and a per-IP count of
//!   listing organizations — the BLS/BLO columns of Tables VII/VIII.
//!   A small false-listing rate keeps the oracle honest.
//! * The [`Darknet`] computes each prober's *expected* distinct dark
//!   addresses analytically from its unscaled probe rate. (Simulated
//!   contact streams are rate-scaled for tractability; counting actual
//!   darknet contacts would undercount by exactly that scale factor, so
//!   the oracle inverts it — documented substitution.)

use bs_activity::{ApplicationClass, Scenario, Targeting};
use bs_netsim::det::{bernoulli, bounded, hash2, mix64};
use bs_netsim::types::ContactKind;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One blacklist record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlacklistEntry {
    /// Spam-list count (of 9 organizations).
    pub bls: u8,
    /// Other-malice list count (scanning, ssh brute force, phishing).
    pub blo: u8,
    /// When the first listing appeared.
    pub listed_from: bs_dns::SimTime,
}

/// A modeled aggregate of nine DNS blacklists.
#[derive(Debug, Clone, Default)]
pub struct Blacklist {
    entries: BTreeMap<Ipv4Addr, BlacklistEntry>,
}

impl Blacklist {
    /// Model listings for every originator in the scenario.
    pub fn build(scenario: &Scenario, seed: u64) -> Self {
        let mut entries = BTreeMap::new();
        for p in scenario.profiles() {
            let h = hash2(seed ^ 0xB1AC, u32::from(p.originator) as u64, p.class.index() as u64);
            let (bls, blo) = match p.class {
                ApplicationClass::Spam => {
                    // ~85 % coverage; 1–4 spam lists, sometimes others.
                    if bernoulli(h, 0.85) {
                        let bls = 1 + bounded(mix64(h ^ 1), 4) as u8;
                        let blo = bounded(mix64(h ^ 2), 4) as u8;
                        (bls, blo)
                    } else {
                        (0, 0)
                    }
                }
                ApplicationClass::Scan => {
                    // Scanners land on "other" lists about 40 % of the
                    // time; a handful also hit spam lists.
                    let blo =
                        if bernoulli(h, 0.40) { 1 + bounded(mix64(h ^ 3), 3) as u8 } else { 0 };
                    let bls = u8::from(bernoulli(mix64(h ^ 4), 0.05));
                    (bls, blo)
                }
                // Rare false listings of benign infrastructure.
                _ => {
                    if bernoulli(h, 0.02) {
                        (u8::from(bernoulli(mix64(h ^ 5), 0.5)), 1)
                    } else {
                        (0, 0)
                    }
                }
            };
            if bls > 0 || blo > 0 {
                // Listings appear a few days after activity starts.
                let lag_days = 1 + bounded(mix64(h ^ 6), 5);
                let listed_from = p.active_from + bs_dns::SimDuration::from_days(lag_days);
                entries.entry(p.originator).or_insert(BlacklistEntry { bls, blo, listed_from });
            }
        }
        Blacklist { entries }
    }

    /// Spam-list count (the BLS column).
    pub fn bls(&self, ip: Ipv4Addr) -> u8 {
        self.entries.get(&ip).map(|e| e.bls).unwrap_or(0)
    }

    /// Other-malice list count (the BLO column).
    pub fn blo(&self, ip: Ipv4Addr) -> u8 {
        self.entries.get(&ip).map(|e| e.blo).unwrap_or(0)
    }

    /// Is `ip` on any list at `time`?
    pub fn is_listed(&self, ip: Ipv4Addr, time: bs_dns::SimTime) -> bool {
        self.entries.get(&ip).map(|e| time >= e.listed_from).unwrap_or(false)
    }

    /// Addresses with at least one *spam* listing — the spam-portion
    /// oracle used for curation.
    pub fn spam_listed(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.entries.iter().filter(|(_, e)| e.bls > 0).map(|(ip, _)| *ip)
    }

    /// Number of listed addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A modeled pair of darknets (a /17 plus a /18: 98 304 addresses).
#[derive(Debug, Clone)]
pub struct Darknet {
    /// Total dark addresses monitored.
    pub size: u64,
    expected: BTreeMap<Ipv4Addr, u64>,
}

/// Usable unicast space after reserved /8s (221 /8s).
const USABLE_SPACE: f64 = 221.0 * 16_777_216.0;

impl Darknet {
    /// Model expected darknet observations for every prober in the
    /// scenario. `rate_scale` must match the scenario's, so expected
    /// counts reflect *unscaled* (paper-scale) probe rates.
    pub fn build(scenario: &Scenario, seed: u64) -> Self {
        let size = 98_304u64; // /17 + /18
        let rate_scale = scenario.config().rate_scale.max(1e-9);
        let mut expected = BTreeMap::new();
        for p in scenario.profiles() {
            let active_days =
                (p.active_until.secs().saturating_sub(p.active_from.secs())) as f64 / 86_400.0;
            let h = hash2(seed ^ 0xDA4C, u32::from(p.originator) as u64, p.class.index() as u64);
            let hits = match (p.targeting, p.class) {
                (Targeting::UniformRandom, _) => {
                    // Expected distinct dark addresses for a uniform
                    // prober: size · (1 − exp(−probes / usable)).
                    let probes = (p.targets_per_day / rate_scale) * active_days;
                    let frac = 1.0 - (-probes / USABLE_SPACE).exp();
                    (size as f64 * frac).round() as u64
                }
                // Mis-behaving P2P clients spray a few stray probes.
                (_, ApplicationClass::P2p)
                    if p.kinds.iter().any(|k| matches!(k, ContactKind::ProbeTcp(_))) =>
                {
                    1 + bounded(h, (active_days.max(1.0) as u64) * 3 + 1)
                }
                _ => 0,
            };
            if hits > 0 {
                let e = expected.entry(p.originator).or_insert(0);
                *e = (*e).max(hits);
            }
        }
        Darknet { size, expected }
    }

    /// Expected distinct dark addresses touched by `ip` (the DarkIP
    /// column of Tables VII/VIII).
    pub fn dark_ips(&self, ip: Ipv4Addr) -> u64 {
        self.expected.get(&ip).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_activity::ScenarioConfig;
    use bs_dns::{SimDuration, SimTime};
    use bs_netsim::world::{World, WorldConfig};

    fn scenario() -> (World, Scenario) {
        let world = World::new(WorldConfig::default());
        let mut cfg = ScenarioConfig::small(11, SimDuration::from_days(14));
        cfg.pool_size = 300;
        let s = Scenario::new(&world, cfg);
        (world, s)
    }

    #[test]
    fn blacklist_covers_most_spam_and_little_benign() {
        let (_, s) = scenario();
        let bl = Blacklist::build(&s, 1);
        let mut spam_total = 0;
        let mut spam_listed = 0;
        let mut benign_listed = 0;
        let mut benign_total = 0;
        for p in s.profiles() {
            match p.class {
                ApplicationClass::Spam => {
                    spam_total += 1;
                    if bl.bls(p.originator) > 0 {
                        spam_listed += 1;
                    }
                }
                ApplicationClass::Scan => {}
                _ => {
                    benign_total += 1;
                    if bl.bls(p.originator) > 0 || bl.blo(p.originator) > 0 {
                        benign_listed += 1;
                    }
                }
            }
        }
        assert!(spam_total >= 10);
        let coverage = spam_listed as f64 / spam_total as f64;
        assert!(coverage > 0.6, "spam coverage {coverage}");
        let fp = benign_listed as f64 / benign_total.max(1) as f64;
        assert!(fp < 0.10, "benign false-listing rate {fp}");
    }

    #[test]
    fn listings_lag_activity_start() {
        let (_, s) = scenario();
        let bl = Blacklist::build(&s, 1);
        for p in s.profiles() {
            if p.class == ApplicationClass::Spam && bl.bls(p.originator) > 0 {
                assert!(!bl.is_listed(p.originator, p.active_from));
                assert!(bl.is_listed(p.originator, p.active_from + SimDuration::from_days(7)));
            }
        }
    }

    #[test]
    fn darknet_sees_scanners_proportionally() {
        let (_, s) = scenario();
        let dn = Darknet::build(&s, 1);
        let mut scan_seen = 0;
        let mut scan_total = 0;
        for p in s.profiles() {
            if p.class == ApplicationClass::Scan {
                scan_total += 1;
                let hits = dn.dark_ips(p.originator);
                if hits > 0 {
                    scan_seen += 1;
                }
                assert!(hits <= dn.size);
            } else if p.class == ApplicationClass::Mail {
                assert_eq!(dn.dark_ips(p.originator), 0, "mail never probes the darknet");
            }
        }
        assert!(scan_total >= 10);
        // Small or short-lived scanners can evade a /17+/18 darknet;
        // most, but not all, are confirmed.
        assert!(scan_seen * 10 >= scan_total * 6, "{scan_seen}/{scan_total}");
    }

    #[test]
    fn darknet_hits_scale_with_rate() {
        let (_, s) = scenario();
        let dn = Darknet::build(&s, 1);
        // Bigger scanners touch more dark addresses.
        let mut pairs: Vec<(f64, u64)> = s
            .profiles()
            .iter()
            .filter(|p| p.class == ApplicationClass::Scan)
            .map(|p| (p.targets_per_day, dn.dark_ips(p.originator)))
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let small = pairs.first().unwrap();
        let large = pairs.last().unwrap();
        assert!(large.1 >= small.1, "larger scanner should touch ≥ dark addresses: {pairs:?}");
    }

    #[test]
    fn oracles_are_deterministic() {
        let (_, s) = scenario();
        let a = Blacklist::build(&s, 5);
        let b = Blacklist::build(&s, 5);
        for p in s.profiles() {
            assert_eq!(a.bls(p.originator), b.bls(p.originator));
        }
        let d1 = Darknet::build(&s, 5);
        let d2 = Darknet::build(&s, 5);
        for p in s.profiles() {
            assert_eq!(d1.dark_ips(p.originator), d2.dark_ips(p.originator));
        }
        let _ = SimTime::ZERO; // keep import used in all cfg combinations
    }
}

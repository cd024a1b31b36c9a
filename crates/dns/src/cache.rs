//! Resolver cache with positive and negative entries.
//!
//! Caching is the force that *attenuates* DNS backscatter: a recursive
//! resolver shared by many targets asks the authority only once per TTL,
//! so authorities high in the hierarchy see a sampled, shrunken view of
//! an originator's footprint (paper §II, §IV-D). Getting TTL semantics
//! right is therefore load-bearing for the whole reproduction:
//!
//! * positive answers cache for their record TTL;
//! * negative answers (NXDOMAIN) cache for the SOA `MINIMUM` (RFC 2308);
//! * TTL 0 means "do not cache", except that resolvers may enforce a
//!   configurable minimum (the paper notes "some resolvers force a short
//!   minimum caching period");
//! * expired entries are never served.

use crate::message::QType;
use crate::name::DomainName;
use crate::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// What a cache lookup produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A cached positive answer (the PTR target name).
    Positive(DomainName),
    /// A cached negative answer (name does not exist).
    Negative,
    /// Nothing cached (or entry expired): the resolver must recurse.
    Miss,
}

/// Tuning knobs for a resolver cache.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Floor applied to *positive* TTLs, in seconds. Zero honours TTL 0
    /// exactly; some real resolvers clamp to a few seconds.
    pub min_positive_ttl: u32,
    /// Ceiling applied to positive TTLs (resolvers commonly cap at 1–7
    /// days to bound staleness).
    pub max_positive_ttl: u32,
    /// Floor applied to negative TTLs.
    pub min_negative_ttl: u32,
    /// Ceiling applied to negative TTLs (RFC 2308 suggests ≤ 3 hours).
    pub max_negative_ttl: u32,
    /// Entry-count bound; oldest-expiring entries are evicted beyond it.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            min_positive_ttl: 0,
            max_positive_ttl: 86_400,
            min_negative_ttl: 0,
            max_negative_ttl: 10_800,
            capacity: 1_000_000,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    expires: SimTime,
    value: CachedValue,
}

#[derive(Debug, Clone)]
enum CachedValue {
    Positive(DomainName),
    Negative,
}

/// Running hit/miss counters, exposed so experiments can report
/// attenuation factors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from cache (positive or negative).
    pub hits: u64,
    /// Lookups that had to recurse.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A TTL cache keyed by `(name, qtype)`.
///
/// The cache is passive about time: callers pass `now` explicitly, so the
/// same code serves both the discrete-event simulator and tests.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    entries: HashMap<(String, QType), Entry>,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        Cache { config, entries: HashMap::new(), stats: CacheStats::default() }
    }

    /// Look up `(name, qtype)` at time `now`.
    pub fn lookup(&mut self, name: &DomainName, qtype: QType, now: SimTime) -> CacheOutcome {
        let key = (name.to_lowercase_string(), qtype);
        match self.entries.get(&key) {
            Some(e) if e.expires > now => {
                self.stats.hits += 1;
                match &e.value {
                    CachedValue::Positive(target) => CacheOutcome::Positive(target.clone()),
                    CachedValue::Negative => CacheOutcome::Negative,
                }
            }
            Some(_) => {
                // Expired: drop it and miss.
                self.entries.remove(&key);
                self.stats.misses += 1;
                CacheOutcome::Miss
            }
            None => {
                self.stats.misses += 1;
                CacheOutcome::Miss
            }
        }
    }

    /// Insert a positive answer with the authority-provided TTL.
    ///
    /// A TTL of zero (after the configured floor) is not cached at all.
    pub fn insert_positive(
        &mut self,
        name: &DomainName,
        qtype: QType,
        target: DomainName,
        ttl: u32,
        now: SimTime,
    ) {
        let ttl = ttl.max(self.config.min_positive_ttl).min(self.config.max_positive_ttl);
        if ttl == 0 {
            return;
        }
        self.insert(
            (name.to_lowercase_string(), qtype),
            Entry {
                expires: now + SimDuration::from_secs(ttl as u64),
                value: CachedValue::Positive(target),
            },
        );
    }

    /// Insert a negative answer; `soa_minimum` is the negative TTL from
    /// the zone's SOA record.
    pub fn insert_negative(
        &mut self,
        name: &DomainName,
        qtype: QType,
        soa_minimum: u32,
        now: SimTime,
    ) {
        let ttl = soa_minimum.max(self.config.min_negative_ttl).min(self.config.max_negative_ttl);
        if ttl == 0 {
            return;
        }
        self.insert(
            (name.to_lowercase_string(), qtype),
            Entry {
                expires: now + SimDuration::from_secs(ttl as u64),
                value: CachedValue::Negative,
            },
        );
    }

    fn insert(&mut self, key: (String, QType), entry: Entry) {
        if self.entries.len() >= self.config.capacity && !self.entries.contains_key(&key) {
            // Evict the entry expiring soonest; O(n) but eviction is rare
            // at the capacities we configure.
            if let Some(victim) =
                self.entries.iter().min_by_key(|(_, e)| e.expires).map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(key, entry);
        self.stats.inserts += 1;
    }

    /// Number of live entries (including not-yet-collected expired ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all entries (counters survive).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drop entries that expired at or before `now`; returns how many.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.expires > now);
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reverse::reverse_name;

    fn name(i: u8) -> DomainName {
        reverse_name(std::net::Ipv4Addr::new(192, 0, 2, i))
    }

    fn target() -> DomainName {
        DomainName::parse("host.example.com").unwrap()
    }

    #[test]
    fn miss_then_hit_then_expiry() {
        let mut c = Cache::new(CacheConfig::default());
        let n = name(1);
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(0)), CacheOutcome::Miss);
        c.insert_positive(&n, QType::Ptr, target(), 60, SimTime(0));
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(59)), CacheOutcome::Positive(target()));
        // At exactly TTL seconds the entry is dead (expires > now fails).
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(60)), CacheOutcome::Miss);
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(61)), CacheOutcome::Miss);
    }

    #[test]
    fn ttl_zero_is_not_cached() {
        let mut c = Cache::new(CacheConfig::default());
        let n = name(2);
        c.insert_positive(&n, QType::Ptr, target(), 0, SimTime(0));
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(0)), CacheOutcome::Miss);
        assert!(c.is_empty());
    }

    #[test]
    fn min_positive_ttl_overrides_zero() {
        // "some resolvers force a short minimum caching period" (§IV-D)
        let mut c = Cache::new(CacheConfig { min_positive_ttl: 5, ..CacheConfig::default() });
        let n = name(3);
        c.insert_positive(&n, QType::Ptr, target(), 0, SimTime(0));
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(4)), CacheOutcome::Positive(target()));
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(5)), CacheOutcome::Miss);
    }

    #[test]
    fn max_positive_ttl_caps() {
        let mut c = Cache::new(CacheConfig { max_positive_ttl: 100, ..CacheConfig::default() });
        let n = name(4);
        c.insert_positive(&n, QType::Ptr, target(), 1_000_000, SimTime(0));
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(99)), CacheOutcome::Positive(target()));
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(100)), CacheOutcome::Miss);
    }

    #[test]
    fn negative_caching_uses_soa_minimum() {
        let mut c = Cache::new(CacheConfig::default());
        let n = name(5);
        c.insert_negative(&n, QType::Ptr, 900, SimTime(0));
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(899)), CacheOutcome::Negative);
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(900)), CacheOutcome::Miss);
    }

    #[test]
    fn negative_ttl_capped() {
        let mut c = Cache::new(CacheConfig { max_negative_ttl: 50, ..CacheConfig::default() });
        let n = name(6);
        c.insert_negative(&n, QType::Ptr, 100_000, SimTime(0));
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(49)), CacheOutcome::Negative);
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(50)), CacheOutcome::Miss);
    }

    #[test]
    fn qtype_distinguishes_entries() {
        let mut c = Cache::new(CacheConfig::default());
        let n = name(7);
        c.insert_positive(&n, QType::Ptr, target(), 60, SimTime(0));
        assert_eq!(c.lookup(&n, QType::A, SimTime(1)), CacheOutcome::Miss);
        assert_eq!(c.lookup(&n, QType::Ptr, SimTime(1)), CacheOutcome::Positive(target()));
    }

    #[test]
    fn case_insensitive_keying() {
        let mut c = Cache::new(CacheConfig::default());
        let lower = DomainName::parse("77.2.0.192.in-addr.arpa").unwrap();
        let upper = DomainName::parse("77.2.0.192.IN-ADDR.ARPA").unwrap();
        c.insert_positive(&lower, QType::Ptr, target(), 60, SimTime(0));
        assert_eq!(c.lookup(&upper, QType::Ptr, SimTime(1)), CacheOutcome::Positive(target()));
    }

    #[test]
    fn capacity_eviction_picks_soonest_expiry() {
        let mut c = Cache::new(CacheConfig { capacity: 2, ..CacheConfig::default() });
        c.insert_positive(&name(1), QType::Ptr, target(), 10, SimTime(0));
        c.insert_positive(&name(2), QType::Ptr, target(), 100, SimTime(0));
        c.insert_positive(&name(3), QType::Ptr, target(), 50, SimTime(0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        // name(1) (expiring soonest) was the victim.
        assert_eq!(c.lookup(&name(1), QType::Ptr, SimTime(1)), CacheOutcome::Miss);
        assert_eq!(c.lookup(&name(2), QType::Ptr, SimTime(1)), CacheOutcome::Positive(target()));
        assert_eq!(c.lookup(&name(3), QType::Ptr, SimTime(1)), CacheOutcome::Positive(target()));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = Cache::new(CacheConfig::default());
        let n = name(8);
        c.lookup(&n, QType::Ptr, SimTime(0));
        c.insert_positive(&n, QType::Ptr, target(), 60, SimTime(0));
        c.lookup(&n, QType::Ptr, SimTime(1));
        c.lookup(&n, QType::Ptr, SimTime(2));
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.inserts, 1);
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn expire_sweeps_dead_entries() {
        let mut c = Cache::new(CacheConfig::default());
        c.insert_positive(&name(1), QType::Ptr, target(), 10, SimTime(0));
        c.insert_positive(&name(2), QType::Ptr, target(), 100, SimTime(0));
        assert_eq!(c.expire(SimTime(10)), 1);
        assert_eq!(c.len(), 1);
    }
}

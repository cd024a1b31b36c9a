//! Per-resolver cache state and the referral-warmth model.
//!
//! Two caching effects shape what each authority sees:
//!
//! 1. **Leaf PTR caching.** Once a resolver has resolved (or negatively
//!    resolved) an originator's reverse name, it answers from cache for
//!    the record TTL. This is modeled *exactly*, with one
//!    `AddrPtrCache` per resolver, because it controls per-querier
//!    query counts at the final authority.
//!
//! 2. **Delegation caching.** Walking down from the root requires NS
//!    referrals for `⟨a⟩.in-addr.arpa` (served by the root) and
//!    `⟨b⟩.⟨a⟩.in-addr.arpa` (served by the national registry where one
//!    exists). These referrals have long TTLs and are refreshed by *all*
//!    of a resolver's reverse traffic — including the background traffic
//!    our simulation does not generate. A busy ISP resolver essentially
//!    never shows up at the root; an idle CPE stub does every TTL. We
//!    model this with a stochastic renewal approximation (below) instead
//!    of simulating the whole Internet's background load.
//!
//! # The warmth model
//!
//! Each resolver has a background reverse-lookup rate `λ` (log-normally
//! distributed across resolvers, heavier for shared resolvers). For a
//! referral with TTL `T`:
//!
//! * On first touch, the referral is already warm with the stationary
//!   probability `λT / (1 + λT)` (fraction of time a renewal process
//!   with exponential idle gaps spends inside a TTL window).
//! * When a stored expiry has passed and `Δ` seconds have elapsed since
//!   it, background traffic has re-fetched the referral — making it warm
//!   without us seeing a query — with probability `1 − exp(−λΔ)`.
//! * Otherwise our query is the one that walks up, and the observing
//!   authority logs it.
//!
//! The approximation is crude but mechanistic, and it reproduces the
//! paper's root-level attenuation of roughly three orders of magnitude
//! (Fig. 4) from first principles rather than by curve fitting.

use crate::det::{bernoulli, hash2, log_normal, mix64, unit_f64};
use crate::types::ResolverId;
use bs_dns::{SimDuration, SimTime};
use std::collections::HashMap;

/// A compact leaf PTR cache keyed by originator address.
///
/// A TTL cache specialized to the one lookup the engine performs per
/// reaction: positive and negative entries suppress upstream queries
/// identically (the response code is decided by the authority's
/// policy, not the cache), so only the expiry needs storing. Keying by
/// `u32` instead of a lowercased QNAME string keeps the hot path
/// allocation-free.
#[derive(Debug, Default)]
pub(crate) struct AddrPtrCache {
    map: HashMap<u32, SimTime>,
}

impl AddrPtrCache {
    /// Is a (positive or negative) answer for `addr` still cached?
    #[inline]
    pub(crate) fn is_cached(&mut self, addr: u32, now: SimTime) -> bool {
        match self.map.get(&addr) {
            Some(expiry) if *expiry > now => true,
            Some(_) => {
                self.map.remove(&addr);
                false
            }
            None => false,
        }
    }

    /// Cache an answer for `addr` with the given TTL (0 = uncached).
    #[inline]
    pub(crate) fn insert(&mut self, addr: u32, ttl: u32, now: SimTime) {
        if ttl > 0 {
            self.map.insert(addr, now + SimDuration::from_secs(ttl as u64));
        }
    }

    /// Drop expired entries; true when empty afterwards.
    pub(crate) fn expire(&mut self, now: SimTime) -> bool {
        self.map.retain(|_, e| *e > now);
        self.map.is_empty()
    }

    /// True when no entries are held.
    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Referral levels a resolver may need to refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ReferralLevel {
    /// `⟨a⟩.in-addr.arpa` NS sets — served by the root, keyed per /8.
    /// Background traffic across the whole /8 keeps these warm.
    Root,
    /// `⟨c⟩.⟨b⟩.⟨a⟩.in-addr.arpa` NS sets — served by the national
    /// registry's /16 zone, keyed per **/24 of the originator**. Almost
    /// no background traffic touches any specific /24, so nearly every
    /// distinct resolver surfaces at the national registry once per TTL
    /// — which is why JP-DNS sees tens of thousands of queriers for a
    /// single busy spammer while the roots see a handful.
    National,
}

/// Outcome of consulting the referral cache for one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReferralCheck {
    /// Cached (ours or background-refreshed): no upward query.
    Warm,
    /// Our query walks up; the parent authority sees it.
    Cold,
}

/// Mutable state of one recursive resolver.
#[derive(Debug)]
pub(crate) struct ResolverState {
    /// Exact leaf PTR cache (positive + negative entries).
    pub(crate) ptr_cache: AddrPtrCache,
    /// Background reverse-lookup rate in queries/second.
    background_rate: f64,
    /// Stored referral expiries keyed by (level, zone key).
    referrals: HashMap<(ReferralLevel, u32), SimTime>,
    /// Per-resolver deterministic decision counter (so repeated rolls
    /// within one resolver differ).
    rolls: u64,
    seed: u64,
}

/// Parameters of the referral model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReferralConfig {
    /// TTL of /8 referrals served by the root (seconds). Real root-zone
    /// delegations use 2 days.
    pub(crate) root_ttl: u64,
    /// TTL of /24 delegations served by national /16 zones (seconds).
    pub(crate) national_ttl: u64,
    /// Fraction of a resolver's background reverse traffic that warms
    /// any one /8 referral (≈ 1 / number of popular /8s).
    pub(crate) root_bg_share: f64,
    /// Fraction of background traffic warming one specific /24
    /// delegation (≈ 1 in ten million; effectively zero).
    pub(crate) national_bg_share: f64,
    /// How long a SERVFAIL (unreachable final authority) is remembered.
    pub(crate) servfail_ttl: u32,
    /// Negative TTL applied when a root-served /8 zone answers NXDOMAIN
    /// for undelegated space (the 2-day daggers of the paper's
    /// Table VIII).
    pub(crate) root_neg_ttl: u32,
    /// Negative TTL when a national registry answers NXDOMAIN for
    /// undelegated space.
    pub(crate) national_neg_ttl: u32,
}

impl Default for ReferralConfig {
    fn default() -> Self {
        ReferralConfig {
            root_ttl: 2 * 86_400,
            national_ttl: 86_400,
            root_bg_share: 0.01,
            national_bg_share: 1.0e-7,
            servfail_ttl: 300,
            root_neg_ttl: 2 * 86_400,
            national_neg_ttl: 900,
        }
    }
}

impl ResolverState {
    /// Create state for `id`. `shared` resolvers (ISP caches) get
    /// heavier background rates than dedicated hosts doing their own
    /// lookups.
    pub(crate) fn new(seed: u64, id: ResolverId, shared: bool) -> Self {
        let h = hash2(seed ^ 0x5E50_1BE4, u32::from(id.0) as u64, shared as u64);
        // Median ≈ 3 q/s for shared resolvers, ≈ 0.002 q/s for hosts
        // resolving for themselves; both spread over orders of magnitude.
        let (mu, sigma) = if shared { (1.1, 1.6) } else { (-6.2, 2.0) };
        ResolverState {
            ptr_cache: AddrPtrCache::default(),
            background_rate: log_normal(h, mu, sigma),
            referrals: HashMap::new(),
            rolls: 0,
            seed: mix64(seed ^ u32::from(id.0) as u64),
        }
    }

    /// Drop expired cache and referral entries; returns true when the
    /// resolver holds no state at all afterwards (so the simulator can
    /// forget it — state is recreated deterministically on next use).
    pub(crate) fn sweep(&mut self, now: SimTime) -> bool {
        self.ptr_cache.expire(now);
        self.referrals.retain(|_, expiry| *expiry > now);
        self.ptr_cache.is_empty() && self.referrals.is_empty()
    }

    fn next_roll(&mut self) -> u64 {
        self.rolls += 1;
        hash2(self.seed, self.rolls, 0x5EAF)
    }

    /// Consult (and update) the referral cache for `level` over `zone`
    /// (the /8 or /24 key) at time `now` with referral TTL `ttl`.
    ///
    /// `bg_share` scales the resolver's background rate down to the
    /// fraction that touches this particular zone.
    pub(crate) fn check_referral(
        &mut self,
        level: ReferralLevel,
        zone: u32,
        now: SimTime,
        ttl: u64,
        bg_share: f64,
    ) -> ReferralCheck {
        let lambda = self.background_rate * bg_share;
        let key = (level, zone);
        match self.referrals.get(&key).copied() {
            Some(expiry) if now < expiry => ReferralCheck::Warm,
            Some(expiry) => {
                // Expired Δ seconds ago; background refreshed it with
                // probability 1 − exp(−λΔ).
                let delta = now.since(expiry).secs() as f64;
                let roll = self.next_roll();
                if bernoulli(roll, 1.0 - (-lambda * delta).exp()) {
                    // Refreshed at an unknown instant; give the entry a
                    // uniform residual lifetime (inspection paradox).
                    let residual = (ttl as f64 * unit_f64(mix64(roll))) as u64;
                    self.referrals.insert(key, now + SimDuration::from_secs(residual.max(1)));
                    ReferralCheck::Warm
                } else {
                    self.referrals.insert(key, now + SimDuration::from_secs(ttl));
                    ReferralCheck::Cold
                }
            }
            None => {
                // First touch: stationary warm probability λT/(1+λT).
                let lt = lambda * ttl as f64;
                let roll = self.next_roll();
                if bernoulli(roll, lt / (1.0 + lt)) {
                    let residual = (ttl as f64 * unit_f64(mix64(roll))) as u64;
                    self.referrals.insert(key, now + SimDuration::from_secs(residual.max(1)));
                    ReferralCheck::Warm
                } else {
                    self.referrals.insert(key, now + SimDuration::from_secs(ttl));
                    ReferralCheck::Cold
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn resolver(shared: bool, ip: u8) -> ResolverState {
        ResolverState::new(1, ResolverId(Ipv4Addr::new(198, 51, 100, ip)), shared)
    }

    #[test]
    fn shared_resolvers_are_busier() {
        // Compare medians over many resolver identities.
        let shared: Vec<f64> = (0..200u8).map(|i| resolver(true, i).background_rate).collect();
        let dedicated: Vec<f64> = (0..200u8).map(|i| resolver(false, i).background_rate).collect();
        let med = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        assert!(med(shared) > 100.0 * med(dedicated));
    }

    #[test]
    fn warm_referral_never_queries_up_before_expiry() {
        let mut r = resolver(false, 1);
        // Force a cold fetch to install a definite expiry.
        let mut attempts = 0;
        let install_time = loop {
            let t = SimTime(attempts * 10);
            if r.check_referral(ReferralLevel::Root, 7, t, 1000, 0.01) == ReferralCheck::Cold {
                break t;
            }
            attempts += 1;
            assert!(attempts < 10_000, "never went cold");
        };
        // Within TTL it is always warm.
        for dt in [1u64, 10, 500, 999] {
            assert_eq!(
                r.check_referral(
                    ReferralLevel::Root,
                    7,
                    install_time + SimDuration(dt),
                    1000,
                    0.01
                ),
                ReferralCheck::Warm
            );
        }
    }

    #[test]
    fn national_referrals_are_effectively_never_background_warmed() {
        // Even a busy shared resolver almost never has the /24
        // delegation of a random originator warm on first touch.
        let mut cold = 0;
        for i in 0..200u8 {
            let mut r = resolver(true, i);
            if r.check_referral(ReferralLevel::National, 12345, SimTime(0), 86_400, 1.0e-7)
                == ReferralCheck::Cold
            {
                cold += 1;
            }
        }
        assert!(cold >= 160, "national referrals should start cold: {cold}/200");
    }

    #[test]
    fn idle_resolver_goes_cold_after_expiry() {
        let mut r = resolver(false, 2);
        // Idle resolvers have tiny λ: once expired, the next touch is
        // almost surely cold. Find an installation, jump far ahead.
        let mut t = SimTime(0);
        loop {
            if r.check_referral(ReferralLevel::National, 9, t, 100, 1.0e-6) == ReferralCheck::Cold {
                break;
            }
            t += SimDuration(1000);
        }
        let mut cold = 0;
        let mut total = 0;
        for i in 0..50u64 {
            let probe = t + SimDuration(200 + i * 1000);
            if r.check_referral(ReferralLevel::National, 9, probe, 100, 1.0e-6)
                == ReferralCheck::Cold
            {
                cold += 1;
            }
            total += 1;
        }
        assert!(cold * 2 > total, "idle resolver should usually be cold: {cold}/{total}");
    }

    #[test]
    fn busy_resolver_rarely_cold_at_root() {
        let mut cold = 0;
        let mut total = 0;
        for i in 0..200u8 {
            let mut r = resolver(true, i);
            // λT for shared resolvers over a 2-day TTL is large even at
            // a 1 % background share.
            if r.check_referral(ReferralLevel::Root, 3, SimTime(0), 2 * 86_400, 0.01)
                == ReferralCheck::Cold
            {
                cold += 1;
            }
            total += 1;
        }
        assert!(
            (cold as f64 / total as f64) < 0.15,
            "busy resolvers cold too often: {cold}/{total}"
        );
    }

    #[test]
    fn zones_are_independent() {
        let mut r = resolver(false, 3);
        // Going cold on one /8 does not warm another.
        let mut t = SimTime(0);
        loop {
            if r.check_referral(ReferralLevel::Root, 1, t, 10_000, 0.01) == ReferralCheck::Cold {
                break;
            }
            t += SimDuration(100);
        }
        // Other zones are fresh: their first-touch outcome is
        // independent (for an idle resolver, almost surely cold).
        let mut any_cold = false;
        for z in 2..40u32 {
            if r.check_referral(ReferralLevel::Root, z, t, 10_000, 0.01) == ReferralCheck::Cold {
                any_cold = true;
            }
        }
        assert!(any_cold);
    }
}

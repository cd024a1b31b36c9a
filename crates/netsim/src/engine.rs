//! The backscatter simulator: contacts in, authority query logs out.
//!
//! For every [`Contact`] the simulator asks the world which target-side
//! queriers react, then drives each reaction through that querier's
//! resolver state:
//!
//! 1. **Leaf PTR cache** — a hit (positive or negative) ends the story;
//!    no authority sees anything.
//! 2. **Delegation walk** — on a miss, the resolver may need to refresh
//!    referrals. Cold referrals surface as logged queries at the root
//!    (always instrumentable) and, for countries that run one, at the
//!    national registry.
//! 3. **Leaf query** — delegated space sends the query to the final
//!    authority, whose [`PtrPolicy`] decides the answer and what gets
//!    cached. *Undelegated* space terminates with NXDOMAIN at the parent
//!    (root or national) — which is why scanners operating from
//!    unregistered hosting space light up the roots in the paper's data.
//!
//! Observation is explicit: only authorities listed in
//! [`SimulatorConfig::observed`] accumulate logs, optionally with the
//! deterministic 1-in-N sampling used for the paper's M-sampled dataset.

use crate::det::{bernoulli, hash1};
use crate::hierarchy::{AuthorityId, Delegation, PtrPolicy, Region, RootServer};
use crate::log::{AuthorityLogs, QueryLog, QueryLogRecord};
use crate::resolver::{ReferralCheck, ReferralConfig, ReferralLevel, ResolverState};
use crate::types::{Contact, ResolverId};
use crate::world::World;
use bs_dns::{Rcode, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulatorConfig {
    /// Authorities that keep query logs.
    pub observed: BTreeSet<AuthorityId>,
    /// Per-authority deterministic sampling: keep 1 of every N queries.
    /// Authorities not listed keep everything.
    pub sampling: BTreeMap<AuthorityId, u32>,
    /// Referral-warmth parameters.
    pub referral: ReferralConfig,
    /// Fraction of *broken* resolvers that ignore DNS timeout rules:
    /// they never cache leaf answers and re-send each query several
    /// times within seconds. These are the queriers the paper's
    /// 30-second deduplication exists for ("to avoid excessive skew of
    /// querier rate estimates due to queriers that do not follow DNS
    /// timeout rules"). Real traces put them at a few percent.
    pub broken_resolver_fraction: f64,
    /// Fraction of resolvers using QNAME minimization (RFC 7816).
    /// Minimizing resolvers send only the label needed at each level,
    /// so upper authorities learn the /8 or /24 being walked but never
    /// the originator address — their backscatter signal vanishes
    /// (paper §VII: "use of query minimization at the queriers will
    /// constrain the signal to only the local authority"). Default 0,
    /// matching the paper's 2014–2015 measurement era.
    pub qname_minimization: f64,
}

impl SimulatorConfig {
    /// Observe the given authorities with no sampling.
    pub fn observing(authorities: impl IntoIterator<Item = AuthorityId>) -> Self {
        SimulatorConfig {
            observed: authorities.into_iter().collect(),
            sampling: BTreeMap::new(),
            referral: ReferralConfig::default(),
            broken_resolver_fraction: 0.02,
            qname_minimization: 0.0,
        }
    }

    /// Set the QNAME-minimization adoption fraction.
    pub fn with_qname_minimization(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.qname_minimization = fraction;
        self
    }

    /// Set 1-in-N sampling for one authority.
    pub fn with_sampling(mut self, authority: AuthorityId, n: u32) -> Self {
        assert!(n >= 1, "sampling rate must be at least 1");
        self.sampling.insert(authority, n);
        self
    }
}

/// Aggregate counters for a run (pre-sampling, pre-observation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Contacts processed.
    pub contacts: u64,
    /// Contacts that triggered at least one reverse lookup.
    pub reacting_contacts: u64,
    /// Individual reverse lookups attempted (reactions).
    pub lookups: u64,
    /// Lookups answered from a resolver's leaf cache.
    pub leaf_cache_hits: u64,
    /// Queries that reached a root server.
    pub root_queries: u64,
    /// Queries that reached a national registry.
    pub national_queries: u64,
    /// Queries that reached (or were sent toward) a final authority.
    pub final_queries: u64,
    /// Records actually appended to an observed authority's log
    /// (post-observation, post-sampling).
    pub logged_records: u64,
}

/// The event-driven backscatter simulator.
///
/// Borrow a [`World`], feed it contacts in time order, then take the
/// logs. Feeding out-of-order contacts is allowed but degrades cache
/// realism; dataset generators sort their event streams.
pub struct Simulator<'w> {
    world: &'w World,
    config: SimulatorConfig,
    resolvers: HashMap<ResolverId, ResolverState>,
    logs: AuthorityLogs,
    arrival_counters: BTreeMap<AuthorityId, u64>,
    ptr_overrides: HashMap<Ipv4Addr, PtrPolicy>,
    stats: SimStats,
    /// Stats already flushed to the telemetry registry (delta tracking).
    published: SimStats,
}

impl<'w> Simulator<'w> {
    /// Create a simulator over `world`.
    pub fn new(world: &'w World, config: SimulatorConfig) -> Self {
        let logs = config.observed.iter().map(|a| (*a, QueryLog::new())).collect();
        Simulator {
            world,
            config,
            resolvers: HashMap::new(),
            logs,
            arrival_counters: BTreeMap::new(),
            ptr_overrides: HashMap::new(),
            stats: SimStats::default(),
            published: SimStats::default(),
        }
    }

    /// Override the PTR policy for one originator (e.g. TTL 0 for the
    /// controlled-scan experiment, or a fast-flux style tiny TTL).
    pub fn override_ptr_policy(&mut self, originator: Ipv4Addr, policy: PtrPolicy) {
        self.ptr_overrides.insert(originator, policy);
    }

    /// Process a single contact.
    pub fn contact(&mut self, c: Contact) {
        self.stats.contacts += 1;
        let reactions = self.world.reactions(&c);
        if reactions.is_empty() {
            return;
        }
        self.stats.reacting_contacts += 1;
        for r in reactions {
            self.stats.lookups += 1;
            self.lookup(r.querier, !r.direct, c.originator, c.time);
        }
    }

    /// Process a batch of contacts.
    pub fn process(&mut self, contacts: impl IntoIterator<Item = Contact>) {
        for c in contacts {
            self.contact(c);
        }
        self.publish_metrics();
    }

    /// Flush counter deltas accumulated since the last publication into
    /// the global telemetry registry (`netsim.*`). Called automatically
    /// at the end of every [`Simulator::process`] batch and on
    /// [`Simulator::into_logs`]; near-free while telemetry is disabled.
    pub fn publish_metrics(&mut self) {
        if !bs_telemetry::is_enabled() {
            return;
        }
        let s = self.stats;
        let p = self.published;
        bs_telemetry::counter_add("netsim.contacts", s.contacts - p.contacts);
        bs_telemetry::counter_add("netsim.lookups", s.lookups - p.lookups);
        bs_telemetry::counter_add("netsim.cache.hit", s.leaf_cache_hits - p.leaf_cache_hits);
        bs_telemetry::counter_add(
            "netsim.cache.miss",
            (s.lookups - s.leaf_cache_hits) - (p.lookups - p.leaf_cache_hits),
        );
        bs_telemetry::counter_add("netsim.queries.root", s.root_queries - p.root_queries);
        bs_telemetry::counter_add(
            "netsim.queries.national",
            s.national_queries - p.national_queries,
        );
        bs_telemetry::counter_add("netsim.queries.final", s.final_queries - p.final_queries);
        bs_telemetry::counter_add("netsim.records.logged", s.logged_records - p.logged_records);
        bs_telemetry::gauge_set("netsim.resolvers.live", self.resolvers.len() as i64);
        self.published = s;
    }

    /// Drive one reverse lookup from `querier`'s resolver.
    fn lookup(&mut self, querier: ResolverId, shared: bool, originator: Ipv4Addr, now: SimTime) {
        let orig_key = u32::from(originator);
        let seed = self.world.seed();
        // A small population of broken resolvers ignores TTLs entirely
        // and stutters duplicates — the noise the sensor's 30-second
        // dedup was designed to absorb.
        let broken = self.config.broken_resolver_fraction > 0.0
            && bernoulli(
                hash1(seed ^ 0xB40_CE2, u32::from(querier.0) as u64),
                self.config.broken_resolver_fraction,
            );
        let resolver = self
            .resolvers
            .entry(querier)
            .or_insert_with(|| ResolverState::new(seed, querier, shared));

        // 1. Leaf cache (positive and negative answers suppress alike).
        if !broken && resolver.ptr_cache.is_cached(orig_key, now) {
            self.stats.leaf_cache_hits += 1;
            return;
        }

        // 2. Delegation walk. The root serves `in-addr.arpa` and the /8
        // zones; the national registry (where one exists) serves the /16
        // zone and is asked for /24 delegations; otherwise an
        // uninstrumented RIR server plays that part.
        //
        // Resolvers using QNAME minimization still walk the tree, but
        // their upper-level queries carry only the zone being fetched,
        // not the full reverse name — the authority cannot recover the
        // originator, so nothing useful is logged above the final
        // authority.
        let minimizing = self.config.qname_minimization > 0.0
            && bernoulli(
                hash1(self.world.seed() ^ 0x9A17_u64, u32::from(querier.0) as u64),
                self.config.qname_minimization,
            );
        let delegation = self.world.delegation(originator);
        let root = self.root_for(querier);
        let slash8 = u32::from(originator) >> 24;
        let slash24 = u32::from(originator) >> 8;
        let ref_cfg = self.config.referral;

        // /8 referral from the root, warmed by ~1 % of background traffic.
        // Broken resolvers ignore referral TTLs too: every lookup walks.
        let resolver = self.resolvers.get_mut(&querier).expect("just inserted");
        if broken
            || resolver.check_referral(
                ReferralLevel::Root,
                slash8,
                now,
                ref_cfg.root_ttl,
                ref_cfg.root_bg_share,
            ) == ReferralCheck::Cold
        {
            self.stats.root_queries += 1;
            if !minimizing {
                self.record(AuthorityId::Root(root), now, querier, originator, Rcode::NoError);
                if broken {
                    self.record_stutter(
                        AuthorityId::Root(root),
                        now,
                        querier,
                        originator,
                        Rcode::NoError,
                    );
                }
            }
        }

        let country = self.world.country_of(originator);
        match delegation {
            Delegation::Undelegated { at_national } => {
                // The chain dies below the observable parent, which
                // answers NXDOMAIN for the leaf name itself. Every
                // leaf-cache miss pays this cost — undelegated space is
                // loud at its parent.
                let (auth, neg_ttl) = if at_national {
                    match country.map(AuthorityId::National) {
                        Some(a) => {
                            self.stats.national_queries += 1;
                            (Some(a), ref_cfg.national_neg_ttl)
                        }
                        None => (None, ref_cfg.national_neg_ttl),
                    }
                } else {
                    self.stats.root_queries += 1;
                    (Some(AuthorityId::Root(root)), ref_cfg.root_neg_ttl)
                };
                if let Some(auth) = auth {
                    if !minimizing {
                        self.record(auth, now, querier, originator, Rcode::NxDomain);
                        if broken {
                            self.record_stutter(auth, now, querier, originator, Rcode::NxDomain);
                        }
                    }
                }
                let resolver = self.resolvers.get_mut(&querier).expect("present");
                resolver.ptr_cache.insert(orig_key, neg_ttl, now);
                return;
            }
            Delegation::Delegated { via_national } => {
                // /24 delegation fetch. Only national registries are
                // instrumentable; the per-/24 key means background
                // traffic almost never keeps it warm, so nearly every
                // distinct resolver surfaces here once per TTL.
                let resolver = self.resolvers.get_mut(&querier).expect("present");
                if (broken
                    || resolver.check_referral(
                        ReferralLevel::National,
                        slash24,
                        now,
                        ref_cfg.national_ttl,
                        ref_cfg.national_bg_share,
                    ) == ReferralCheck::Cold)
                    && via_national
                {
                    if let Some(auth) = country.map(AuthorityId::National) {
                        self.stats.national_queries += 1;
                        if !minimizing {
                            self.record(auth, now, querier, originator, Rcode::NoError);
                            if broken {
                                self.record_stutter(auth, now, querier, originator, Rcode::NoError);
                            }
                        }
                    }
                }
            }
        }

        // 3. Leaf query at the final authority.
        self.stats.final_queries += 1;
        let policy = self
            .ptr_overrides
            .get(&originator)
            .cloned()
            .unwrap_or_else(|| self.world.ptr_policy(originator));
        let final_auth = AuthorityId::final_for(originator);
        match policy {
            PtrPolicy::Exists { ttl } => {
                self.record(final_auth, now, querier, originator, Rcode::NoError);
                if broken {
                    self.record_stutter(final_auth, now, querier, originator, Rcode::NoError);
                }
                let resolver = self.resolvers.get_mut(&querier).expect("present");
                resolver.ptr_cache.insert(orig_key, ttl, now);
            }
            PtrPolicy::NxDomain { neg_ttl } => {
                self.record(final_auth, now, querier, originator, Rcode::NxDomain);
                if broken {
                    self.record_stutter(final_auth, now, querier, originator, Rcode::NxDomain);
                }
                let resolver = self.resolvers.get_mut(&querier).expect("present");
                resolver.ptr_cache.insert(orig_key, neg_ttl, now);
            }
            PtrPolicy::Unreachable => {
                // The server is dead: it cannot log, and the resolver
                // remembers the failure only briefly.
                let servfail_ttl = ref_cfg.servfail_ttl;
                let resolver = self.resolvers.get_mut(&querier).expect("present");
                resolver.ptr_cache.insert(orig_key, servfail_ttl, now);
            }
        }
    }

    /// Which root this resolver walks to, stable per resolver, biased by
    /// the resolver's region (paper §VI-B: M-Root's Asian provisioning
    /// gives it a different view than B-Root's US-only site).
    fn root_for(&self, querier: ResolverId) -> RootServer {
        let region = self.world.region_of(querier.0).unwrap_or(Region::Americas);
        let h = hash1(self.world.seed() ^ 0xB00_7007, u32::from(querier.0) as u64);
        if bernoulli(h, region.m_root_preference()) {
            RootServer::M
        } else {
            RootServer::B
        }
    }

    /// A broken resolver's duplicate burst: 2-5 repeats of the same
    /// query within ten seconds of the original.
    fn record_stutter(
        &mut self,
        authority: AuthorityId,
        now: SimTime,
        querier: ResolverId,
        originator: Ipv4Addr,
        rcode: Rcode,
    ) {
        let h = hash1(
            self.world.seed() ^ 0x57u64,
            (u32::from(querier.0) as u64) ^ ((u32::from(originator) as u64) << 32) ^ now.secs(),
        );
        let repeats = 2 + (h % 4);
        for k in 0..repeats {
            let dt = 1 + (crate::det::mix64(h ^ k) % 9);
            self.record(
                authority,
                now + bs_dns::SimDuration::from_secs(dt),
                querier,
                originator,
                rcode,
            );
        }
    }

    /// Record a query arrival at `authority`, honouring observation and
    /// sampling configuration.
    fn record(
        &mut self,
        authority: AuthorityId,
        time: SimTime,
        querier: ResolverId,
        originator: Ipv4Addr,
        rcode: Rcode,
    ) {
        if !self.config.observed.contains(&authority) {
            return;
        }
        let count = self.arrival_counters.entry(authority).or_insert(0);
        let seq = *count;
        *count += 1;
        if let Some(&n) = self.config.sampling.get(&authority) {
            if !seq.is_multiple_of(n as u64) {
                return;
            }
        }
        self.stats.logged_records += 1;
        self.logs
            .get_mut(&authority)
            .expect("observed authorities have logs")
            .push(QueryLogRecord { time, querier: querier.0, originator, rcode });
    }

    /// Logs accumulated so far.
    pub fn logs(&self) -> &AuthorityLogs {
        &self.logs
    }

    /// Consume the simulator, returning the logs.
    pub fn into_logs(mut self) -> AuthorityLogs {
        self.publish_metrics();
        self.logs
    }

    /// Counters for the run.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Number of distinct resolvers that have been exercised.
    pub fn resolver_count(&self) -> usize {
        self.resolvers.len()
    }

    /// Drop expired cache entries everywhere and forget resolvers with
    /// no remaining state. Long-running dataset builds call this
    /// between days to keep memory proportional to the *live* cache
    /// footprint rather than the whole history. Forgotten resolvers are
    /// recreated deterministically on their next lookup (only their
    /// private roll counters restart — a stochastic detail, not an
    /// observable bias).
    pub fn sweep(&mut self, now: SimTime) {
        self.resolvers.retain(|_, r| !r.sweep(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ContactKind;
    use crate::world::WorldConfig;
    use bs_dns::SimDuration;

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    /// Find an address whose host reacts to SMTP by direct resolution,
    /// inside delegated space, so tests get a deterministic signal.
    fn find_direct_mail_target(w: &World, orig: Ipv4Addr) -> Contact {
        for i in 0..3_000_000u64 {
            let t = w.random_public_addr(crate::det::hash1(0xF1, i));
            let c =
                Contact { time: SimTime(0), originator: orig, target: t, kind: ContactKind::Smtp };
            let rs = w.reactions(&c);
            if rs.len() == 1 && rs[0].direct && rs[0].querier.0 == t {
                return c;
            }
        }
        panic!("no direct mail target found");
    }

    fn delegated_named_originator(w: &World) -> Ipv4Addr {
        for i in 0..100_000u64 {
            let o = w.random_public_addr(crate::det::hash1(0xF2, i));
            if matches!(w.delegation(o), Delegation::Delegated { .. })
                && matches!(w.ptr_policy(o), PtrPolicy::Exists { .. })
            {
                return o;
            }
        }
        panic!("no delegated named originator");
    }

    #[test]
    fn final_authority_sees_first_lookup_and_caches_repeat() {
        let w = world();
        let orig = delegated_named_originator(&w);
        let c = find_direct_mail_target(&w, orig);
        let final_auth = AuthorityId::final_for(orig);
        let mut sim = Simulator::new(&w, SimulatorConfig::observing([final_auth]));
        sim.contact(c);
        assert_eq!(sim.logs()[&final_auth].len(), 1, "first lookup reaches final authority");
        // Immediate repeat: leaf cache absorbs it.
        let mut c2 = c;
        c2.time = SimTime(10);
        sim.contact(c2);
        assert_eq!(sim.logs()[&final_auth].len(), 1, "cached repeat adds nothing");
        assert_eq!(sim.stats().leaf_cache_hits, 1);
        // After the PTR TTL the record expires and the authority is asked again.
        let ttl = match w.ptr_policy(orig) {
            PtrPolicy::Exists { ttl } => ttl,
            other => panic!("expected Exists, got {other:?}"),
        };
        let mut c3 = c;
        c3.time = SimTime(0) + SimDuration::from_secs(ttl as u64 + 1);
        sim.contact(c3);
        assert_eq!(sim.logs()[&final_auth].len(), 2, "expired record re-queried");
    }

    #[test]
    fn unobserved_authorities_keep_no_logs() {
        let w = world();
        let orig = delegated_named_originator(&w);
        let c = find_direct_mail_target(&w, orig);
        let mut sim = Simulator::new(&w, SimulatorConfig::observing([]));
        sim.contact(c);
        assert!(sim.logs().is_empty());
        assert!(sim.stats().final_queries >= 1, "queries still happen unobserved");
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let w = world();
        let orig = delegated_named_originator(&w);
        let final_auth = AuthorityId::final_for(orig);
        let config = SimulatorConfig::observing([final_auth]).with_sampling(final_auth, 10);
        let mut sim = Simulator::new(&w, config);
        // Generate many distinct queriers by touching many targets.
        let mut sent = 0u64;
        for i in 0..3_000_000u64 {
            if sent >= 400 {
                break;
            }
            let t = w.random_public_addr(crate::det::hash1(0xF3, i));
            let c = Contact {
                time: SimTime(sent),
                originator: orig,
                target: t,
                kind: ContactKind::Smtp,
            };
            if !w.reactions(&c).is_empty() {
                sent += 1;
            }
            sim.contact(c);
        }
        let arrived = sim.arrival_counters[&final_auth];
        let kept = sim.logs()[&final_auth].len() as u64;
        assert!(arrived >= 100, "arrived={arrived}");
        // Deterministic 1-in-10: ceil(arrived / 10).
        assert_eq!(kept, arrived.div_ceil(10), "arrived={arrived} kept={kept}");
    }

    #[test]
    fn undelegated_space_hits_parent_with_nxdomain() {
        let w = world();
        // Find an undelegated originator in non-national space.
        let mut orig = None;
        for i in 0..300_000u64 {
            let o = w.random_public_addr(crate::det::hash1(0xF4, i));
            if matches!(w.delegation(o), Delegation::Undelegated { at_national: false }) {
                orig = Some(o);
                break;
            }
        }
        let orig = orig.expect("undelegated space exists");
        let both_roots = [AuthorityId::Root(RootServer::B), AuthorityId::Root(RootServer::M)];
        let mut sim = Simulator::new(&w, SimulatorConfig::observing(both_roots));
        let c = find_direct_mail_target(&w, orig);
        sim.contact(c);
        let root_records: usize = both_roots.iter().map(|a| sim.logs()[a].len()).sum();
        assert!(root_records >= 1, "undelegated lookup must reach a root");
        let nx = both_roots
            .iter()
            .flat_map(|a| sim.logs()[a].records())
            .any(|r| r.rcode == Rcode::NxDomain);
        assert!(nx, "undelegated answer is NXDOMAIN");
        assert_eq!(sim.stats().final_queries, 0, "nothing reaches a final authority");
    }

    #[test]
    fn ptr_override_with_zero_ttl_disables_caching() {
        let w = world();
        let orig = delegated_named_originator(&w);
        let final_auth = AuthorityId::final_for(orig);
        let mut sim = Simulator::new(&w, SimulatorConfig::observing([final_auth]));
        sim.override_ptr_policy(orig, PtrPolicy::Exists { ttl: 0 });
        let c = find_direct_mail_target(&w, orig);
        for k in 0..5u64 {
            let mut ck = c;
            ck.time = SimTime(k * 60);
            sim.contact(ck);
        }
        assert_eq!(sim.logs()[&final_auth].len(), 5, "TTL 0 means every lookup arrives");
    }

    #[test]
    fn roots_see_far_less_than_final_authority() {
        let w = world();
        let orig = delegated_named_originator(&w);
        let final_auth = AuthorityId::final_for(orig);
        let observed =
            [final_auth, AuthorityId::Root(RootServer::B), AuthorityId::Root(RootServer::M)];
        let mut sim = Simulator::new(&w, SimulatorConfig::observing(observed));
        sim.override_ptr_policy(orig, PtrPolicy::Exists { ttl: 0 });
        // A large scan: many targets, one contact each.
        let mut t = 0u64;
        for i in 0..400_000u64 {
            let target = w.random_public_addr(crate::det::hash1(0xF5, i));
            t += 1;
            sim.contact(Contact {
                time: SimTime(t / 100),
                originator: orig,
                target,
                kind: ContactKind::ProbeTcp(22),
            });
        }
        let finals = sim.logs()[&final_auth].len();
        let roots = sim.logs()[&observed[1]].len() + sim.logs()[&observed[2]].len();
        assert!(finals > 100, "final saw {finals}");
        assert!(
            (roots as f64) < (finals as f64) * 0.25,
            "roots ({roots}) should be heavily attenuated vs final ({finals})"
        );
    }

    #[test]
    fn sweep_forgets_stateless_resolvers_without_changing_observations() {
        let w = world();
        let orig = delegated_named_originator(&w);
        let final_auth = AuthorityId::final_for(orig);
        let mut sim = Simulator::new(&w, SimulatorConfig::observing([final_auth]));
        let c = find_direct_mail_target(&w, orig);
        sim.contact(c);
        assert!(sim.resolver_count() >= 1);
        // Far in the future everything has expired.
        sim.sweep(SimTime::from_days(30));
        assert_eq!(sim.resolver_count(), 0, "all state expired");
        // A repeat contact re-creates the resolver and queries again.
        let mut c2 = c;
        c2.time = SimTime::from_days(31);
        sim.contact(c2);
        assert_eq!(sim.logs()[&final_auth].len(), 2);
    }

    #[test]
    fn broken_resolvers_stutter_and_ignore_caches() {
        let w = world();
        let orig = delegated_named_originator(&w);
        let final_auth = AuthorityId::final_for(orig);
        let c = find_direct_mail_target(&w, orig);
        let run = |broken: f64| {
            let mut cfg = SimulatorConfig::observing([final_auth]);
            cfg.broken_resolver_fraction = broken;
            let mut sim = Simulator::new(&w, cfg);
            sim.contact(c);
            let mut c2 = c;
            c2.time = SimTime(40); // within any sane PTR TTL
            sim.contact(c2);
            sim.into_logs()[&final_auth].len()
        };
        let clean = run(0.0);
        let broken = run(1.0);
        assert_eq!(clean, 1, "well-behaved resolver queries once");
        // Broken: 1 + 2..=5 stutters per lookup, two uncached lookups.
        assert!(broken >= 6, "broken resolver should hammer: {broken} records");
        // The stutter burst stays within the sensor's dedup window.
        let mut cfg = SimulatorConfig::observing([final_auth]);
        cfg.broken_resolver_fraction = 1.0;
        let mut sim = Simulator::new(&w, cfg);
        sim.contact(c);
        let log = &sim.logs()[&final_auth];
        let mut times: Vec<SimTime> = log.records().iter().map(|r| r.time).collect();
        times.sort();
        assert!(
            times.last().unwrap().secs() - times.first().unwrap().secs() <= 10,
            "stutter burst stays within ten seconds"
        );
    }

    #[test]
    fn full_qname_minimization_blinds_upper_levels_not_final() {
        let w = world();
        let orig = delegated_named_originator(&w);
        let final_auth = AuthorityId::final_for(orig);
        let observed =
            [final_auth, AuthorityId::Root(RootServer::B), AuthorityId::Root(RootServer::M)];
        let run = |qmin: f64| {
            let cfg = SimulatorConfig::observing(observed).with_qname_minimization(qmin);
            let mut sim = Simulator::new(&w, cfg);
            sim.override_ptr_policy(orig, PtrPolicy::Exists { ttl: 0 });
            for i in 0..120_000u64 {
                let target = w.random_public_addr(crate::det::hash1(0xF9, i));
                sim.contact(Contact {
                    time: SimTime(i / 50),
                    originator: orig,
                    target,
                    kind: ContactKind::ProbeTcp(22),
                });
            }
            let logs = sim.into_logs();
            let roots = logs[&observed[1]].len() + logs[&observed[2]].len();
            (logs[&final_auth].len(), roots)
        };
        let (final_plain, roots_plain) = run(0.0);
        let (final_qmin, roots_qmin) = run(1.0);
        assert_eq!(roots_qmin, 0, "full adoption blinds the roots");
        assert!(roots_plain > 0, "baseline roots see something");
        // The final authority is unaffected (identical walk below).
        assert_eq!(final_plain, final_qmin);
    }

    #[test]
    fn resolver_choice_of_root_is_sticky() {
        let w = world();
        let sim = Simulator::new(&w, SimulatorConfig::observing([]));
        let q = ResolverId("98.7.0.10".parse().unwrap());
        let first = sim.root_for(q);
        for _ in 0..10 {
            assert_eq!(sim.root_for(q), first);
        }
    }
}

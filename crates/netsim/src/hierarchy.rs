//! The reverse-DNS authority hierarchy.
//!
//! Three levels of authority see backscatter, each with a different view
//! (paper §II): the **root** potentially sees all originators but is
//! heavily attenuated by caching of the top of the tree; a **national**
//! registry sees only originators inside address space delegated to its
//! country but with less attenuation; the **final** authority for an
//! originator's prefix sees every querier.
//!
//! We model two instrumented root identities, `B` and `M`, mirroring the
//! paper's B-Root (single North-American site) and M-Root (anycast sites
//! concentrated in Asia and Europe). Which root a resolver walks to is a
//! preference derived from the resolver's region, reproducing the
//! paper's observation that M-Root sees Chinese CDN activity B-Root
//! misses.

use crate::types::CountryCode;
use bs_dns::ReverseZone;
use std::fmt;
use std::net::Ipv4Addr;

/// The two instrumented root-server identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RootServer {
    /// Single site on the US west coast.
    B,
    /// Seven anycast sites in Asia, North America, and Europe.
    M,
}

/// Coarse geography used for root-server affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// North and South America.
    Americas,
    /// Europe, Middle East, Africa.
    Emea,
    /// Asia and Oceania.
    Apac,
}

impl Region {
    /// Probability that a resolver in this region sends its root queries
    /// to M-Root rather than B-Root. M is well provisioned in Asia and
    /// Europe; B only in North America.
    pub fn m_root_preference(self) -> f64 {
        match self {
            Region::Americas => 0.25,
            Region::Emea => 0.70,
            Region::Apac => 0.85,
        }
    }
}

/// An authority whose query stream can be instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AuthorityId {
    /// One of the two modeled root servers.
    Root(RootServer),
    /// The national registry's reverse server for one country.
    National(CountryCode),
    /// The final authority for a /24 of originator space (the paper's
    /// `3.2.1.in-addr.arpa` level: "typically the originator's company
    /// or ISP").
    Final(Ipv4Addr),
}

impl AuthorityId {
    /// Final authority for the /24 containing `addr`.
    pub fn final_for(addr: Ipv4Addr) -> AuthorityId {
        let z = ReverseZone::new(addr, 24).expect("24 is a valid plen");
        AuthorityId::Final(z.prefix())
    }

    /// The level of this authority in the hierarchy.
    pub fn level(&self) -> AuthorityLevel {
        match self {
            AuthorityId::Root(_) => AuthorityLevel::Root,
            AuthorityId::National(_) => AuthorityLevel::National,
            AuthorityId::Final(_) => AuthorityLevel::Final,
        }
    }
}

impl fmt::Display for AuthorityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthorityId::Root(RootServer::B) => write!(f, "b-root"),
            AuthorityId::Root(RootServer::M) => write!(f, "m-root"),
            AuthorityId::National(cc) => write!(f, "{cc}-national"),
            AuthorityId::Final(p) => write!(f, "final-{p}/24"),
        }
    }
}

/// Position in the delegation chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AuthorityLevel {
    /// Serves `in-addr.arpa` and /8 delegations.
    Root,
    /// Serves a country's /8s, delegating /16s.
    National,
    /// Serves the leaf PTR records for a /16.
    Final,
}

/// How the leaf PTR lookup for an originator resolves, as configured in
/// its final authority's zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PtrPolicy {
    /// A PTR record exists with this TTL.
    Exists {
        /// Record TTL in seconds (0 disables caching, as in the paper's
        /// controlled experiment).
        ttl: u32,
    },
    /// The name does not exist; negative answers carry this SOA MINIMUM.
    NxDomain {
        /// Negative-cache TTL from the zone SOA.
        neg_ttl: u32,
    },
    /// The final authority does not respond (dark or misconfigured
    /// space); resolvers cache the failure only briefly.
    Unreachable,
}

/// Delegation status of the /24 containing an originator: whether the
/// walk down the tree even reaches a final authority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delegation {
    /// Normal: parent zones delegate down to a final /24 authority.
    Delegated {
        /// True when a national registry serves the /16 (and is asked
        /// for the /24 delegation); false means an uninstrumented RIR
        /// server does.
        via_national: bool,
    },
    /// No delegation exists below the observable parent: it answers
    /// NXDOMAIN for the leaf name itself, so *every* uncached leaf query
    /// lands on the parent. This is why scanners from unregistered
    /// hosting space light up the roots and national registries.
    Undelegated {
        /// True when the NXDOMAIN comes from a national registry rather
        /// than the root-served /8 zone.
        at_national: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_for_truncates_to_24() {
        let a = AuthorityId::final_for("203.45.67.89".parse().unwrap());
        assert_eq!(a, AuthorityId::Final("203.45.67.0".parse().unwrap()));
        assert_eq!(a.level(), AuthorityLevel::Final);
    }

    #[test]
    fn same_slash24_shares_final_authority() {
        let a = AuthorityId::final_for("203.45.67.2".parse().unwrap());
        let b = AuthorityId::final_for("203.45.67.250".parse().unwrap());
        let c = AuthorityId::final_for("203.45.68.2".parse().unwrap());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(AuthorityId::Root(RootServer::B).to_string(), "b-root");
        assert_eq!(AuthorityId::Root(RootServer::M).to_string(), "m-root");
        let jp = CountryCode::new("jp").unwrap();
        assert_eq!(AuthorityId::National(jp).to_string(), "jp-national");
    }

    #[test]
    fn root_affinity_orders_by_region() {
        assert!(Region::Apac.m_root_preference() > Region::Emea.m_root_preference());
        assert!(Region::Emea.m_root_preference() > Region::Americas.m_root_preference());
    }

    #[test]
    fn levels_order_root_first() {
        assert!(AuthorityLevel::Root < AuthorityLevel::National);
        assert!(AuthorityLevel::National < AuthorityLevel::Final);
    }
}

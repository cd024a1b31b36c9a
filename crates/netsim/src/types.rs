//! Shared identifier and event types for the simulated Internet.

use bs_dns::SimTime;
use std::fmt;
use std::net::Ipv4Addr;

/// A two-letter country code. The world assigns one to every /8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode(pub [u8; 2]);

impl CountryCode {
    /// Construct from a two-ASCII-letter string such as `"jp"`.
    pub fn new(s: &str) -> Option<Self> {
        let b = s.as_bytes();
        if b.len() == 2 && b.iter().all(|c| c.is_ascii_lowercase()) {
            Some(CountryCode([b[0], b[1]]))
        } else {
            None
        }
    }

    /// The code as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("constructed from ASCII")
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An autonomous-system number. The world assigns one per /16-aligned
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// A recursive resolver, identified by the IPv4 address it queries from.
/// This address is what authorities log as the *querier*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResolverId(pub Ipv4Addr);

impl fmt::Display for ResolverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The role a host plays in its network, which determines both its
/// reverse name (paper §III-C's keyword classes) and how it reacts to
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostRole {
    /// Residential CPE / home machine with an auto-generated name like
    /// `home1-2-3-4.example.com`.
    Home,
    /// A mail server (`mail.example.com`, `mx2.example.jp`, …).
    MailServer,
    /// A shared recursive name server (`ns.isp.net`, `cache1.example.com`).
    NameServer,
    /// A firewall that logs probes (`fw.example.com`).
    Firewall,
    /// A dedicated anti-spam appliance (`ironport1.example.com`).
    AntiSpam,
    /// A web server (`www.example.com`).
    WebServer,
    /// An NTP server (`ntp1.example.org`).
    NtpServer,
    /// CDN edge infrastructure (Akamai-style names).
    CdnNode,
    /// Cloud infrastructure named under a hosting provider
    /// (`ec2-…​.amazonaws.sim`).
    CloudNode,
    /// A generic enterprise host with an unrevealing name.
    Generic,
}

impl HostRole {
    /// All roles, for exhaustive iteration in tests and tables.
    pub const ALL: [HostRole; 10] = [
        HostRole::Home,
        HostRole::MailServer,
        HostRole::NameServer,
        HostRole::Firewall,
        HostRole::AntiSpam,
        HostRole::WebServer,
        HostRole::NtpServer,
        HostRole::CdnNode,
        HostRole::CloudNode,
        HostRole::Generic,
    ];
}

/// The outcome of reverse-resolving a querier's own address, which feeds
/// the sensor's static features: a name, a provable non-existence
/// (`nxdomain`), or an unreachable authority (`unreach`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameOutcome {
    /// The reverse lookup returned this name.
    Name(bs_dns::DomainName),
    /// The reverse zone exists but the address has no PTR record.
    NxDomain,
    /// The authority for the reverse zone did not answer.
    Unreachable,
}

/// The kind of traffic an originator sends a target. Application classes
/// in `bs-activity` map to these network-level kinds; the target-side
/// reaction model keys off them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContactKind {
    /// SMTP delivery (mailing lists, legitimate bulk mail).
    Smtp,
    /// SMTP delivery that content filters score as spam. Targets cannot
    /// see intent, but anti-spam appliances inspect suspicious mail more
    /// aggressively — including extra reverse lookups — which is what
    /// gives spammers their heavier `antispam` querier fraction.
    SmtpSpam,
    /// A TCP SYN probe to the given port.
    ProbeTcp(u16),
    /// A UDP probe to the given port.
    ProbeUdp(u16),
    /// An ICMP echo probe.
    ProbeIcmp,
    /// An HTTP fetch initiated by the originator (crawlers).
    HttpFetch,
    /// Target-initiated web object fetch that exposes the originator to
    /// the target's middleboxes (ad trackers, web bugs).
    WebBug,
    /// Target-initiated content delivery from a CDN edge.
    CdnDelivery,
    /// Target-initiated cloud application traffic.
    CloudApp,
    /// Target-initiated software-update poll.
    UpdatePoll,
    /// DNS service traffic (large open resolvers and roots as originators).
    DnsService,
    /// NTP service traffic.
    NtpService,
    /// Mobile push-notification keep-alive (TCP 5223).
    PushKeepalive,
    /// Peer-to-peer protocol chatter.
    P2p,
}

/// One originator→target interaction at a point in simulated time.
///
/// This is the unit of work the simulator consumes; activity models
/// produce streams of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contact {
    /// When the traffic arrives at the target.
    pub time: SimTime,
    /// The source of the network-wide activity.
    pub originator: Ipv4Addr,
    /// The host being touched.
    pub target: Ipv4Addr,
    /// What the traffic looks like on the wire.
    pub kind: ContactKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn country_code_validation() {
        assert_eq!(CountryCode::new("jp").unwrap().as_str(), "jp");
        assert!(CountryCode::new("JP").is_none());
        assert!(CountryCode::new("jpn").is_none());
        assert!(CountryCode::new("j").is_none());
        assert!(CountryCode::new("j1").is_none());
    }

    #[test]
    fn display_impls() {
        assert_eq!(CountryCode::new("us").unwrap().to_string(), "us");
        assert_eq!(AsId(64500).to_string(), "AS64500");
        assert_eq!(ResolverId("192.0.2.53".parse().unwrap()).to_string(), "192.0.2.53");
    }

    #[test]
    fn host_role_all_is_exhaustive_and_unique() {
        use std::collections::HashSet;
        let set: HashSet<_> = HostRole::ALL.iter().collect();
        assert_eq!(set.len(), HostRole::ALL.len());
    }
}

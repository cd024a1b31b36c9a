//! The twelve application classes of paper §III-D.

use std::fmt;
use std::str::FromStr;

/// An originator's application class: what kind of network-wide activity
/// it carries out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ApplicationClass {
    /// Web-bug/advertising trackers.
    AdTracker,
    /// Content-delivery network edges.
    Cdn,
    /// Cloud-service front ends.
    Cloud,
    /// Web crawlers.
    Crawler,
    /// Large DNS servers.
    Dns,
    /// Legitimate bulk mail (mailing lists, webmail).
    Mail,
    /// Large NTP servers.
    Ntp,
    /// Peer-to-peer file-sharing participants.
    P2p,
    /// Mobile push-notification services.
    Push,
    /// Internet scanners (ICMP/TCP/UDP).
    Scan,
    /// Spam sources.
    Spam,
    /// Software-update distribution servers.
    Update,
}

impl ApplicationClass {
    /// All twelve classes, in the paper's alphabetical table order.
    pub const ALL: [ApplicationClass; 12] = [
        ApplicationClass::AdTracker,
        ApplicationClass::Cdn,
        ApplicationClass::Cloud,
        ApplicationClass::Crawler,
        ApplicationClass::Dns,
        ApplicationClass::Mail,
        ApplicationClass::Ntp,
        ApplicationClass::P2p,
        ApplicationClass::Push,
        ApplicationClass::Scan,
        ApplicationClass::Spam,
        ApplicationClass::Update,
    ];

    /// Stable index in `0..12`, used as the ML label.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|c| *c == self).expect("class in ALL")
    }

    /// Inverse of [`ApplicationClass::index`].
    pub fn from_index(i: usize) -> Option<Self> {
        Self::ALL.get(i).copied()
    }

    /// Short lowercase name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ApplicationClass::AdTracker => "ad-tracker",
            ApplicationClass::Cdn => "cdn",
            ApplicationClass::Cloud => "cloud",
            ApplicationClass::Crawler => "crawler",
            ApplicationClass::Dns => "dns",
            ApplicationClass::Mail => "mail",
            ApplicationClass::Ntp => "ntp",
            ApplicationClass::P2p => "p2p",
            ApplicationClass::Push => "push",
            ApplicationClass::Scan => "scan",
            ApplicationClass::Spam => "spam",
            ApplicationClass::Update => "update",
        }
    }

    /// The paper's malicious classes, whose populations churn an order
    /// of magnitude faster than the benign ones (§V-A).
    pub fn is_malicious(self) -> bool {
        matches!(self, ApplicationClass::Scan | ApplicationClass::Spam)
    }

    /// All class names, for ML dataset schemas.
    pub fn all_names() -> Vec<String> {
        Self::ALL.iter().map(|c| c.name().to_string()).collect()
    }
}

impl fmt::Display for ApplicationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ApplicationClass {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .iter()
            .find(|c| c.name() == s)
            .copied()
            .ok_or_else(|| format!("unknown application class {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for (i, c) in ApplicationClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(ApplicationClass::from_index(i), Some(*c));
        }
        assert_eq!(ApplicationClass::from_index(12), None);
    }

    #[test]
    fn names_round_trip() {
        for c in ApplicationClass::ALL {
            assert_eq!(c.name().parse::<ApplicationClass>().unwrap(), c);
        }
        assert!("banana".parse::<ApplicationClass>().is_err());
    }

    #[test]
    fn exactly_two_malicious_classes() {
        let n = ApplicationClass::ALL.iter().filter(|c| c.is_malicious()).count();
        assert_eq!(n, 2);
        assert!(ApplicationClass::Scan.is_malicious());
        assert!(ApplicationClass::Spam.is_malicious());
        assert!(!ApplicationClass::Mail.is_malicious());
    }

    #[test]
    fn twelve_distinct_names() {
        use std::collections::HashSet;
        let names: HashSet<_> = ApplicationClass::all_names().into_iter().collect();
        assert_eq!(names.len(), 12);
    }
}

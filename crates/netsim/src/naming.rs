//! Reverse-name generation.
//!
//! The sensor's static features come entirely from querier domain names
//! (paper §III-C): `home1-2-3-4.example.com`, `mail.example.jp`,
//! `ns.isp.net`, and so on. This module generates those names for the
//! simulated world, following real Internet naming conventions, so that
//! an *independently implemented* keyword matcher in `bs-sensor` can
//! recover the role mix the way the paper's matcher does on real data.
//!
//! Names are deterministic functions of `(seed, address, role)`.

use crate::det::{bounded, hash2, hash3, mix64};
use crate::types::{CountryCode, HostRole};
use bs_dns::name::{DomainName, Label};
use std::net::Ipv4Addr;

/// Hostname keywords for residential/dynamic pools (paper's `home` list).
const HOME_KEYWORDS: &[&str] = &[
    "ap", "cable", "cpe", "customer", "dsl", "dynamic", "fiber", "flets", "home", "host", "ip",
    "net", "pool", "pop", "retail", "user",
];

/// Keywords for mail infrastructure (paper's `mail` list).
const MAIL_KEYWORDS: &[&str] = &[
    "mail",
    "mx",
    "smtp",
    "post",
    "correo",
    "poczta",
    "sendmail",
    "lists",
    "newsletter",
    "zimbra",
    "mta",
    "imap",
];

/// Keywords for name servers (paper's `ns` list).
const NS_KEYWORDS: &[&str] = &["cns", "dns", "ns", "cache", "resolv", "name"];

/// Keywords for firewalls (paper's `fw` list).
const FW_KEYWORDS: &[&str] = &["firewall", "wall", "fw"];

/// Keywords for anti-spam appliances (paper's `antispam` list).
const ANTISPAM_KEYWORDS: &[&str] = &["ironport", "spam"];

/// Suffixes used by simulated CDN operators (the paper matches Akamai,
/// Edgecast, CDNetworks, LLNW; ours are fictional lookalikes).
pub const CDN_SUFFIXES: &[&str] =
    &["akamai.sim", "edgecast.sim", "cdnetworks.sim", "llnw.sim", "chinacache.sim"];

/// Suffix used by the simulated AWS.
pub const AWS_SUFFIX: &str = "amazonaws.sim";

/// Suffix used by the simulated Azure.
pub const MS_SUFFIX: &str = "azure.sim";

/// Suffix used by the simulated Google.
pub const GOOGLE_SUFFIX: &str = "google.sim";

/// Generic TLD pool for organization domains.
const GTLDS: &[&str] = &["com", "net", "org"];

/// Syllables for synthetic organization names.
const SYLLABLES: &[&str] = &[
    "ka", "ne", "to", "ri", "mo", "sa", "lu", "ven", "dor", "bel", "tan", "gra", "pix", "nor",
    "ser", "vi", "tel", "da", "zu", "mi",
];

/// Build a pronounceable organization label from a hash.
fn org_label(h: u64, syllable_count: usize) -> String {
    let mut s = String::new();
    let mut x = h;
    for _ in 0..syllable_count {
        s.push_str(SYLLABLES[bounded(x, SYLLABLES.len() as u64) as usize]);
        x = mix64(x);
    }
    // A numeric suffix on roughly a third of orgs, like real ISP branding.
    if x.is_multiple_of(3) {
        s.push_str(&format!("{}", x % 90 + 10));
    }
    s
}

/// The domain an organization hangs its hosts under, e.g.
/// `kanet23.jp` or `venlu.net`. Deterministic per `(seed, org_key)`.
///
/// `org_key` is typically the /24 or /16 the organization owns;
/// `country` steers the TLD (country TLD two-thirds of the time).
pub fn org_domain(seed: u64, org_key: u64, country: CountryCode) -> DomainName {
    let h = hash2(seed ^ 0x0126_5732_81AC_0001, org_key, 1);
    let label = org_label(h, 2 + (h % 2) as usize);
    let tld_h = mix64(h ^ 0x77);
    let tld = if !tld_h.is_multiple_of(3) {
        country.as_str()
    } else {
        GTLDS[bounded(tld_h, GTLDS.len() as u64) as usize]
    };
    DomainName::parse(&format!("{label}.{tld}")).expect("generated org domain is valid")
}

fn pick<'a>(h: u64, table: &'a [&'a str]) -> &'a str {
    table[bounded(h, table.len() as u64) as usize]
}

/// Generate the reverse name for a host, given its role and the domain
/// of the organization that owns its block.
///
/// The left-most label carries the role keyword (possibly with a numeric
/// suffix or embedded address octets), because the sensor's matcher
/// favours left-most labels exactly as the paper's does.
pub fn host_name(seed: u64, addr: Ipv4Addr, role: HostRole, org: &DomainName) -> DomainName {
    let o = addr.octets();
    let h = hash3(seed ^ 0x4057_B3D0_31C5_0002, u32::from(addr) as u64, role_tag(role), 7);
    let leftmost: String = match role {
        HostRole::Home => {
            let kw = pick(h, HOME_KEYWORDS);
            // Two real-world shapes: kw1-2-3-4 and kw-1-2-3-4.
            if mix64(h).is_multiple_of(2) {
                format!("{kw}{}-{}-{}-{}", o[0], o[1], o[2], o[3])
            } else {
                format!("{kw}-{}-{}-{}-{}", o[0], o[1], o[2], o[3])
            }
        }
        HostRole::MailServer => numbered(h, pick(h, MAIL_KEYWORDS)),
        HostRole::NameServer => numbered(h, pick(h, NS_KEYWORDS)),
        HostRole::Firewall => numbered(h, pick(h, FW_KEYWORDS)),
        HostRole::AntiSpam => numbered(h, pick(h, ANTISPAM_KEYWORDS)),
        HostRole::WebServer => numbered(h, "www"),
        HostRole::NtpServer => numbered(h, "ntp"),
        HostRole::CdnNode | HostRole::CloudNode => {
            // Provider-style machine label: a1-2-3-4.deploy.<provider>.
            format!("a{}-{}-{}-{}", o[0], o[1], o[2], o[3])
        }
        HostRole::Generic => {
            // Unrevealing label that matches none of the keyword tables.
            format!("{}{}", org_label(mix64(h ^ 0x99), 2), h % 100)
        }
    };
    let l = Label::new(&leftmost).expect("generated label is valid");
    org.child(l).expect("generated host name fits")
}

/// Occasionally append a digit: `mail` / `mail2` / `mx01`.
fn numbered(h: u64, kw: &str) -> String {
    match mix64(h ^ 0x1234) % 4 {
        0 => format!("{kw}{}", h % 9 + 1),
        1 => format!("{kw}0{}", h % 9 + 1),
        _ => kw.to_string(),
    }
}

/// The deployment domain for a CDN or cloud node: `deploy.akamai.sim`,
/// `compute.amazonaws.sim`, …
pub fn provider_domain(seed: u64, addr: Ipv4Addr, role: HostRole) -> DomainName {
    let h = hash2(seed ^ 0x6E5A_1B00_77F0_0003, u32::from(addr) as u64 >> 8, role_tag(role));
    let suffix = match role {
        HostRole::CdnNode => pick(h, CDN_SUFFIXES),
        HostRole::CloudNode => {
            // Weighted toward AWS like the real cloud market.
            match mix64(h) % 5 {
                0 | 1 => AWS_SUFFIX,
                2 => MS_SUFFIX,
                3 => GOOGLE_SUFFIX,
                _ => AWS_SUFFIX,
            }
        }
        _ => unreachable!("provider_domain only applies to CDN/cloud roles"),
    };
    let zone = match mix64(h ^ 0x5150) % 3 {
        0 => "deploy",
        1 => "compute",
        _ => "edge",
    };
    DomainName::parse(&format!("{zone}.{suffix}")).expect("provider domain is valid")
}

fn role_tag(role: HostRole) -> u64 {
    HostRole::ALL.iter().position(|r| *r == role).expect("role in ALL") as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(s: &str) -> CountryCode {
        CountryCode::new(s).unwrap()
    }

    #[test]
    fn org_domains_are_deterministic_and_vary() {
        let a = org_domain(1, 100, cc("jp"));
        let b = org_domain(1, 100, cc("jp"));
        let c = org_domain(1, 101, cc("jp"));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn home_names_embed_octets() {
        let org = org_domain(1, 5, cc("us"));
        let addr: Ipv4Addr = "203.5.7.9".parse().unwrap();
        let n = host_name(1, addr, HostRole::Home, &org);
        let left = n.leftmost().unwrap().to_lowercase();
        assert!(
            left.contains("203") && left.contains('5') && left.contains('7') && left.contains('9'),
            "home name should embed octets: {n}"
        );
        assert!(n.is_subdomain_of(&org));
    }

    #[test]
    fn role_keywords_appear_in_leftmost_label() {
        let org = org_domain(2, 9, cc("de"));
        let addr: Ipv4Addr = "198.51.100.25".parse().unwrap();
        let cases: &[(HostRole, &[&str])] = &[
            (HostRole::MailServer, MAIL_KEYWORDS),
            (HostRole::NameServer, NS_KEYWORDS),
            (HostRole::Firewall, FW_KEYWORDS),
            (HostRole::AntiSpam, ANTISPAM_KEYWORDS),
            (HostRole::WebServer, &["www"]),
            (HostRole::NtpServer, &["ntp"]),
        ];
        for (role, table) in cases {
            let n = host_name(2, addr, *role, &org);
            let left = n.leftmost().unwrap().to_lowercase();
            assert!(
                table.iter().any(|kw| left.starts_with(kw)),
                "{role:?} name {n} should start with one of {table:?}"
            );
        }
    }

    #[test]
    fn generic_names_match_no_keyword_table() {
        let org = org_domain(3, 77, cc("fr"));
        for i in 0..50u8 {
            let addr = Ipv4Addr::new(198, 51, i, 1);
            let n = host_name(3, addr, HostRole::Generic, &org);
            let left = n.leftmost().unwrap().to_lowercase();
            for table in [HOME_KEYWORDS, MAIL_KEYWORDS, NS_KEYWORDS, FW_KEYWORDS, ANTISPAM_KEYWORDS]
            {
                for kw in table {
                    assert!(
                        !left.starts_with(kw),
                        "generic name {left} collides with keyword {kw}"
                    );
                }
            }
        }
    }

    #[test]
    fn provider_domains_use_known_suffixes() {
        for i in 0..20u8 {
            let addr = Ipv4Addr::new(23, i, 0, 1);
            let cdn = provider_domain(4, addr, HostRole::CdnNode);
            assert!(CDN_SUFFIXES.iter().any(|s| cdn.to_string().ends_with(s)), "cdn domain {cdn}");
            let cloud = provider_domain(4, addr, HostRole::CloudNode);
            let cs = cloud.to_string();
            assert!(
                cs.ends_with(AWS_SUFFIX) || cs.ends_with(MS_SUFFIX) || cs.ends_with(GOOGLE_SUFFIX),
                "cloud domain {cs}"
            );
        }
    }

    #[test]
    fn names_are_stable_across_calls() {
        let org = org_domain(5, 1, cc("jp"));
        let addr: Ipv4Addr = "192.0.2.10".parse().unwrap();
        let a = host_name(5, addr, HostRole::MailServer, &org);
        let b = host_name(5, addr, HostRole::MailServer, &org);
        assert_eq!(a, b);
    }
}

//! The reverse (`in-addr.arpa`) namespace.
//!
//! Reverse DNS maps an IPv4 address back to a domain name: the address
//! `1.2.3.4` is looked up as a `PTR` query for `4.3.2.1.in-addr.arpa`.
//! The backscatter sensor identifies the *originator* of network-wide
//! activity from exactly this QNAME, and the simulated DNS hierarchy
//! delegates portions of the reverse tree ([`ReverseZone`]) to the
//! authorities that the paper instruments (root, national, final).

use crate::name::DomainName;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// `in-addr.arpa` in wire form.
const IN_ADDR_ARPA: &[u8] = b"\x07in-addr\x04arpa";

/// The name under `in-addr.arpa` whose labels are `octets` in decimal,
/// host-most first, written straight into the name's wire form.
fn in_addr_name(octets: impl Iterator<Item = u8>) -> DomainName {
    // At most four labels of a length octet and three digits.
    let mut wire = [0u8; 16 + IN_ADDR_ARPA.len()];
    let mut used = 0;
    for o in octets {
        let digits = [b'0' + o / 100, b'0' + o / 10 % 10, b'0' + o % 10];
        let skip = (o < 100) as usize + (o < 10) as usize;
        wire[used] = (3 - skip) as u8;
        wire[used + 1..used + 4 - skip].copy_from_slice(&digits[skip..]);
        used += 4 - skip;
    }
    wire[used..used + IN_ADDR_ARPA.len()].copy_from_slice(IN_ADDR_ARPA);
    DomainName::from_wire(&wire[..used + IN_ADDR_ARPA.len()]).expect("reverse name fits")
}

/// Build the reverse name for an IPv4 address:
/// `192.0.2.77` → `77.2.0.192.in-addr.arpa`.
pub fn reverse_name(addr: Ipv4Addr) -> DomainName {
    in_addr_name(addr.octets().into_iter().rev())
}

/// Parse a (possibly partial) reverse name back to the IPv4 address it
/// refers to. Returns `None` unless the name is exactly a full 4-octet
/// reverse name under `in-addr.arpa`: four labels of one to three ASCII
/// digits with no leading zero ("01" never names a canonical address,
/// though real resolvers send such names now and then) and a value of
/// at most 255, then `in-addr.arpa` in any case.
///
/// Reads the name's wire form, the inverse of [`reverse_name`]: the
/// digits are folded as they pass, the suffix is one comparison.
pub fn parse_reverse_v4(name: &DomainName) -> Option<Ipv4Addr> {
    let mut rest = name.wire();
    let mut octets = [0u8; 4];
    for i in 0..4 {
        let (&len, tail) = rest.split_first()?;
        let digits = tail.get(..len as usize).filter(|d| (1..=3).contains(&d.len()))?;
        if digits.len() > 1 && digits[0] == b'0' {
            return None;
        }
        let mut v = 0u16;
        for &d in digits {
            if !d.is_ascii_digit() {
                return None;
            }
            v = v * 10 + u16::from(d - b'0');
        }
        // QNAME is reversed: first label is the last octet.
        octets[3 - i] = u8::try_from(v).ok()?;
        rest = &tail[digits.len()..];
    }
    rest.eq_ignore_ascii_case(IN_ADDR_ARPA).then(|| Ipv4Addr::from(octets))
}

/// [`parse_reverse_v4`] over the labels as `&str`, compiled for tests
/// only: the oracle of the wire-form parser.
#[cfg(test)]
fn parse_reverse_v4_reference(name: &DomainName) -> Option<Ipv4Addr> {
    let mut labels = name.labels();
    if labels.len() != 6 {
        return None;
    }
    let mut octets = [0u8; 4];
    for i in 0..4 {
        let s = labels.next()?;
        // Reject leading zeros ("01") and non-numeric labels outright;
        // real resolvers send them occasionally, but they never name a
        // canonical address.
        if s.len() > 1 && s.starts_with('0') {
            return None;
        }
        let v: u32 = s.parse().ok()?;
        if v > 255 {
            return None;
        }
        // QNAME is reversed: first label is the last octet.
        octets[3 - i] = v as u8;
    }
    let (tree, tld) = (labels.next()?, labels.next()?);
    if !tree.eq_ignore_ascii_case("in-addr") || !tld.eq_ignore_ascii_case("arpa") {
        return None;
    }
    Some(Ipv4Addr::from(octets))
}

/// A delegated slice of the reverse tree: all reverse names for addresses
/// inside an IPv4 prefix with length 0, 8, 16, or 24.
///
/// These are the only prefix lengths that map onto whole-label boundaries
/// in `in-addr.arpa`, and the only delegations the simulated hierarchy
/// uses: the root effectively serves `/0` (i.e. `in-addr.arpa` itself), a
/// national registry a set of `/8`s or `/16`s, and a final authority the
/// `/24` (or `/16`) enclosing the originator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReverseZone {
    prefix: Ipv4Addr,
    plen: u8,
}

impl ReverseZone {
    /// Create a zone for `prefix/plen`. `plen` must be 0, 8, 16, or 24;
    /// host bits of `prefix` below the prefix length are cleared.
    pub fn new(prefix: Ipv4Addr, plen: u8) -> Option<Self> {
        if !matches!(plen, 0 | 8 | 16 | 24) {
            return None;
        }
        let raw = u32::from(prefix);
        let mask = if plen == 0 { 0 } else { u32::MAX << (32 - plen) };
        Some(ReverseZone { prefix: Ipv4Addr::from(raw & mask), plen })
    }

    /// The whole reverse tree (`in-addr.arpa`), which the root serves.
    pub fn whole_tree() -> Self {
        ReverseZone { prefix: Ipv4Addr::UNSPECIFIED, plen: 0 }
    }

    /// The covering prefix address.
    pub fn prefix(&self) -> Ipv4Addr {
        self.prefix
    }

    /// The prefix length (0, 8, 16, or 24).
    pub fn plen(&self) -> u8 {
        self.plen
    }

    /// Does this zone cover `addr`?
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        if self.plen == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - self.plen as u32);
        (u32::from(addr) & mask) == u32::from(self.prefix)
    }

    /// Is `other` a (non-strict) sub-zone of `self`?
    pub fn covers_zone(&self, other: &ReverseZone) -> bool {
        self.plen <= other.plen && self.contains(other.prefix)
    }

    /// The zone apex as a domain name, e.g. `2.0.192.in-addr.arpa` for
    /// `192.0.2.0/24`, or `in-addr.arpa` for `/0`.
    pub fn zone_name(&self) -> DomainName {
        let significant = (self.plen / 8) as usize;
        in_addr_name(self.prefix.octets()[..significant].iter().rev().copied())
    }
}

impl fmt::Display for ReverseZone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.prefix, self.plen)
    }
}

impl FromStr for ReverseZone {
    type Err = String;
    /// Parse `"192.0.2.0/24"` notation.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (p, l) = s.split_once('/').ok_or_else(|| format!("missing '/' in {s:?}"))?;
        let prefix: Ipv4Addr = p.parse().map_err(|e| format!("bad prefix: {e}"))?;
        let plen: u8 = l.parse().map_err(|e| format!("bad plen: {e}"))?;
        ReverseZone::new(prefix, plen).ok_or_else(|| format!("plen {plen} not in {{0,8,16,24}}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_name_matches_paper_example() {
        // Figure 1 of the paper: originator 1.2.3.4 → PTR? 4.3.2.1.in-addr.arpa
        let n = reverse_name(Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(n.to_string(), "4.3.2.1.in-addr.arpa");
    }

    #[test]
    fn reverse_round_trip() {
        for addr in [
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(255, 255, 255, 255),
            Ipv4Addr::new(192, 0, 2, 77),
            Ipv4Addr::new(10, 20, 30, 40),
        ] {
            assert_eq!(parse_reverse_v4(&reverse_name(addr)), Some(addr));
        }
    }

    #[test]
    fn parse_rejects_non_reverse_names() {
        for s in [
            "mail.example.com",
            "4.3.2.1.in-addr.arpa.extra", // too deep — parses as 7 labels
            "3.2.1.in-addr.arpa",         // partial (zone apex, not a host)
            "256.3.2.1.in-addr.arpa",     // octet out of range
            "04.3.2.1.in-addr.arpa",      // leading zero
            "x.3.2.1.in-addr.arpa",       // non-numeric
            "4.3.2.1.ip6.arpa",           // wrong tree
        ] {
            let n = DomainName::parse(s).unwrap();
            assert_eq!(parse_reverse_v4(&n), None, "should reject {s}");
        }
    }

    /// The wire-form parser answers as the label-based oracle on the
    /// reverse names of seeded addresses and on their mutants: leading
    /// zeros, `256`, four-digit labels, upper case, five and seven
    /// labels, a letter among the digits, the root and bare
    /// `in-addr.arpa`.
    #[test]
    fn parse_matches_the_label_reference_on_seeded_names() {
        let mut state = 0x4E7_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut accepted = 0;
        let mut names = vec![String::new(), "in-addr.arpa".to_string(), "IN-ADDR.ARPA".to_string()];
        for _ in 0..512 {
            let r = next();
            let [a, b, c, d] = (r as u32).to_be_bytes();
            let host = (r >> 32) % 1000;
            names.extend([
                format!("{d}.{c}.{b}.{a}.in-addr.arpa"),
                format!("{d}.{c}.{b}.{a}.IN-ADDR.ARPA"),
                format!("{d}.{c}.{b}.{a}.In-Addr.Arpa"),
                format!("0{d}.{c}.{b}.{a}.in-addr.arpa"),
                format!("{d}.{c}.00{b}.{a}.in-addr.arpa"),
                format!("{host}.{c}.{b}.{a}.in-addr.arpa"),
                format!("256.{c}.{b}.{a}.in-addr.arpa"),
                format!("{d}.{c}.{b}.1{a:03}.in-addr.arpa"),
                format!("{c}.{b}.{a}.in-addr.arpa"),
                format!("{host}.{d}.{c}.{b}.{a}.in-addr.arpa"),
                format!("{d}.{c}.{b}.{a}.in-addr.arpa.{host}"),
                format!("{d}.{c}x.{b}.{a}.in-addr.arpa"),
                format!("{d}.{c}.{b}.a{a}.in-addr.arpa"),
                format!("{d}.{c}.{b}.{a}.ip6.arpa"),
                format!("{d}.{c}.{b}.{a}.in-addr.arpb"),
                format!("{d}.{c}.{b}.{a}"),
            ]);
        }
        for s in &names {
            let name = DomainName::parse(s).unwrap();
            let parsed = parse_reverse_v4(&name);
            assert_eq!(parsed, parse_reverse_v4_reference(&name), "{s:?}");
            accepted += usize::from(parsed.is_some());
        }
        // Each address's three spellings parse: a run that accepts
        // nothing would prove nothing.
        assert!(accepted >= 3 * 512, "{accepted} of {} names accepted", names.len());
    }

    #[test]
    fn zone_apex_names() {
        let z24 = ReverseZone::new(Ipv4Addr::new(192, 0, 2, 9), 24).unwrap();
        assert_eq!(z24.zone_name().to_string(), "2.0.192.in-addr.arpa");
        assert_eq!(z24.prefix(), Ipv4Addr::new(192, 0, 2, 0));
        let z8 = ReverseZone::new(Ipv4Addr::new(10, 1, 2, 3), 8).unwrap();
        assert_eq!(z8.zone_name().to_string(), "10.in-addr.arpa");
        assert_eq!(ReverseZone::whole_tree().zone_name().to_string(), "in-addr.arpa");
    }

    #[test]
    fn zone_containment() {
        let z16 = ReverseZone::new(Ipv4Addr::new(172, 16, 0, 0), 16).unwrap();
        assert!(z16.contains(Ipv4Addr::new(172, 16, 200, 1)));
        assert!(!z16.contains(Ipv4Addr::new(172, 17, 0, 1)));
        let z24 = ReverseZone::new(Ipv4Addr::new(172, 16, 5, 0), 24).unwrap();
        assert!(z16.covers_zone(&z24));
        assert!(!z24.covers_zone(&z16));
        assert!(ReverseZone::whole_tree().covers_zone(&z16));
    }

    #[test]
    fn invalid_plens_rejected() {
        for plen in [1, 7, 9, 23, 25, 32, 33] {
            assert!(ReverseZone::new(Ipv4Addr::new(1, 2, 3, 4), plen).is_none(), "plen {plen}");
        }
    }

    #[test]
    fn zone_parse_display_round_trip() {
        let z: ReverseZone = "192.0.2.0/24".parse().unwrap();
        assert_eq!(z.to_string(), "192.0.2.0/24");
        assert!("192.0.2.0/20".parse::<ReverseZone>().is_err());
        assert!("banana/24".parse::<ReverseZone>().is_err());
    }
}

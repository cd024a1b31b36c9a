//! Seeded property tests for the DNS substrate. Every case derives
//! from its seed alone, so a failure replays from the seed in its
//! message.

use bs_dns::message::{Message, QType, Rcode, RecordData, ResourceRecord};
use bs_dns::name::{DomainName, Label};
use bs_dns::reverse::{parse_reverse_v4, reverse_name, ReverseZone};
use std::net::Ipv4Addr;

const CASES: u64 = 256;

/// SplitMix64: the case generator, one stream per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    fn addr(&mut self) -> Ipv4Addr {
        Ipv4Addr::from(self.next() as u32)
    }

    fn pick(&mut self, set: &[u8]) -> char {
        set[self.below(set.len() as u64) as usize] as char
    }

    /// `[a-z0-9]([a-z0-9_-]{0,20}[a-z0-9])?`
    fn label(&mut self) -> Label {
        const EDGE: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        const INNER: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
        let mut s = String::from(self.pick(EDGE));
        if self.below(4) > 0 {
            for _ in 0..self.below(21) {
                s.push(self.pick(INNER));
            }
            s.push(self.pick(EDGE));
        }
        Label::new(&s).expect("a valid label")
    }

    /// Zero to five labels.
    fn name(&mut self) -> DomainName {
        let labels = (0..self.below(6)).map(|_| self.label()).collect();
        DomainName::from_labels(labels).expect("at most 5 × 23 bytes")
    }
}

/// reverse_name is a left inverse of parse_reverse_v4 for every address.
#[test]
fn reverse_name_round_trips() {
    for seed in 0..CASES {
        let addr = Rng(seed).addr();
        assert_eq!(parse_reverse_v4(&reverse_name(addr)), Some(addr), "seed {seed}");
    }
}

/// IPv6 reverse names round-trip for every address.
#[test]
fn reverse_v6_round_trips() {
    for seed in 0..CASES {
        let mut rng = Rng(seed ^ 0x6666);
        let addr = std::net::Ipv6Addr::from((rng.next() as u128) << 64 | rng.next() as u128);
        assert_eq!(
            bs_dns::reverse::parse_reverse_v6(&bs_dns::reverse::reverse_name_v6(addr)),
            Some(addr),
            "seed {seed}"
        );
    }
}

/// Name parse/display round-trips for arbitrary valid names.
#[test]
fn name_display_parse_round_trips() {
    for seed in 0..CASES {
        let name = Rng(seed ^ 0xD15).name();
        assert_eq!(DomainName::parse(&name.to_string()).unwrap(), name, "seed {seed}");
    }
}

/// Every name is a subdomain of each of its ancestors.
#[test]
fn ancestors_contain_name() {
    for seed in 0..CASES {
        let name = Rng(seed ^ 0xA2C).name();
        let mut anc = Some(name.clone());
        while let Some(a) = anc {
            assert!(name.is_subdomain_of(&a), "seed {seed}");
            anc = a.parent();
        }
    }
}

/// Wire round-trip for arbitrary PTR queries.
#[test]
fn query_wire_round_trips() {
    for seed in 0..CASES {
        let mut rng = Rng(seed ^ 0x9E7);
        let q = Message::query(rng.next() as u16, reverse_name(rng.addr()), QType::Ptr);
        assert_eq!(Message::decode(&q.encode()).unwrap(), q, "seed {seed}");
    }
}

/// A response carrying a PTR answer with an arbitrary target and TTL,
/// or a bare NXDOMAIN.
fn response(rng: &mut Rng) -> Message {
    let q = Message::query(7, reverse_name(rng.addr()), QType::Ptr);
    if rng.below(2) == 0 {
        return Message::response(&q, Rcode::NxDomain, vec![]);
    }
    let answer = ResourceRecord {
        name: q.questions[0].qname.clone(),
        ttl: rng.next() as u32,
        data: RecordData::Ptr(rng.name()),
    };
    Message::response(&q, Rcode::NoError, vec![answer])
}

/// Wire round-trip for responses.
#[test]
fn response_wire_round_trips() {
    for seed in 0..CASES {
        let r = response(&mut Rng(seed ^ 0x4E5));
        assert_eq!(Message::decode(&r.encode()).unwrap(), r, "seed {seed}");
    }
}

/// The decoder never panics on arbitrary byte soup.
#[test]
fn decoder_is_total() {
    for seed in 0..CASES {
        let mut rng = Rng(seed ^ 0x50B);
        let bytes: Vec<u8> = (0..rng.below(256)).map(|_| rng.next() as u8).collect();
        let _ = Message::decode(&bytes);
    }
}

/// Damage a message the way a hostile sender would. `rdlength_at` is
/// where its first answer's RDLENGTH would sit.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, rdlength_at: usize) {
    // Header, root QNAME, QTYPE and QCLASS: anything shorter only grows.
    if bytes.len() < 17 {
        bytes.push(rng.next() as u8);
        return;
    }
    let at = rng.below(bytes.len() as u64 - 1) as usize;
    match rng.below(6) {
        0 => bytes[at] ^= 1 << rng.below(8),
        1 => bytes.truncate(at),
        // A compression pointer where a label or a field was: to
        // itself, forward, to the pointer just before it, to the QNAME.
        2 => {
            let target = [at, at + 2, at.saturating_sub(2), 12][rng.below(4) as usize];
            bytes[at] = 0xC0 | (target >> 8) as u8;
            bytes[at + 1] = target as u8;
        }
        // QDCOUNT … ARCOUNT promise sections that are not there.
        3 => bytes[4 + rng.below(8) as usize] = rng.next() as u8,
        // RDLENGTH and a label's length byte lie about what follows.
        4 if rdlength_at + 1 < bytes.len() => bytes[rdlength_at + 1] = rng.next() as u8,
        _ => bytes[12] = rng.next() as u8,
    }
}

/// The decoder never panics on damaged messages — flipped bits, cuts,
/// pointer loops, length and count lies, alone and piled up — and
/// whatever it still accepts re-encodes to a message that decodes to
/// the same value.
#[test]
fn decoder_survives_mutated_messages() {
    let mut rejected = 0;
    for seed in 0..8 * CASES {
        let mut rng = Rng(seed ^ 0x3A7);
        let msg = response(&mut rng);
        let mut bytes = msg.encode();
        // Header, question, then the answer's owner (a pointer to the
        // QNAME), TYPE, CLASS and TTL.
        let rdlength_at = 12 + msg.questions[0].qname.wire_len() + 4 + 10;
        for _ in 0..1 + rng.below(3) {
            mutate(&mut rng, &mut bytes, rdlength_at);
        }
        match Message::decode(&bytes) {
            Ok(msg) => {
                assert_eq!(Message::decode(&msg.encode()).as_ref(), Ok(&msg), "seed {seed}")
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(rejected > 4 * CASES, "the mutations bite: {rejected} of {} rejected", 8 * CASES);
}

/// Zone containment is consistent: an address is in a /24 zone iff it
/// shares the top three octets, and any covering zone also contains it.
#[test]
fn zone_containment_consistent() {
    for seed in 0..CASES {
        let addr = Rng(seed ^ 0x20E).addr();
        let z24 = ReverseZone::new(addr, 24).unwrap();
        let z16 = ReverseZone::new(addr, 16).unwrap();
        let z8 = ReverseZone::new(addr, 8).unwrap();
        assert!(z24.contains(addr), "seed {seed}");
        assert!(z16.contains(addr), "seed {seed}");
        assert!(z8.contains(addr), "seed {seed}");
        assert!(z8.covers_zone(&z16), "seed {seed}");
        assert!(z16.covers_zone(&z24), "seed {seed}");
        assert!(ReverseZone::whole_tree().covers_zone(&z8), "seed {seed}");
        let o = addr.octets();
        let sibling = Ipv4Addr::new(o[0], o[1], o[2].wrapping_add(1), o[3]);
        assert!(!z24.contains(sibling), "seed {seed}");
    }
}

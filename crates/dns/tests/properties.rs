//! Seeded property tests for the DNS substrate. Every case derives
//! from its seed alone, so a failure replays from the seed in its
//! message.

use bs_dns::message::{Message, QType, Rcode, RecordData, ResourceRecord};
use bs_dns::name::{DomainName, Label, NameError};
use bs_dns::reverse::{parse_reverse_v4, reverse_name, ReverseZone};
use bs_dns::wire::WireError;
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

/// What `DomainName::parse` should make of `s`, spelled out over a
/// `Vec<String>`: every label is checked in order (empty, too long, then
/// its first bad character), and only then the whole name's length.
fn model_parse(s: &str) -> Result<Vec<String>, NameError> {
    let s = s.strip_suffix('.').unwrap_or(s);
    if s.is_empty() {
        return Ok(Vec::new());
    }
    let mut labels = Vec::new();
    for l in s.split('.') {
        if l.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if l.len() > 63 {
            return Err(NameError::LabelTooLong(l.len()));
        }
        if let Some(c) = l.chars().find(|c| !(c.is_ascii_alphanumeric() || "-_".contains(*c))) {
            return Err(NameError::BadCharacter(c));
        }
        labels.push(l.to_string());
    }
    let wire = model_wire_len(&labels);
    if wire > 255 {
        return Err(NameError::NameTooLong(wire));
    }
    Ok(labels)
}

fn model_wire_len(labels: &[String]) -> usize {
    labels.iter().map(|l| 1 + l.len()).sum::<usize>() + 1
}

/// A dotted string that is usually a name and sometimes not: mixed
/// case, empty and over-long labels, characters no label may hold, and
/// names past 255 wire bytes.
fn name_text(rng: &mut Rng) -> String {
    const CHARS: &[u8] = b"abcXYZ019-_";
    // One string in six is built of long labels, near or past the limit.
    let long = rng.below(6) == 0;
    let labels: Vec<String> = (0..rng.below(if long { 7 } else { 9 }))
        .map(|_| {
            let len = match rng.below(10) {
                _ if long => 50 + rng.below(15),
                0 => 40 + rng.below(30),
                1 => 0,
                _ => 1 + rng.below(8),
            };
            let mut l: String = (0..len).map(|_| rng.pick(CHARS)).collect();
            if rng.below(12) == 0 && !l.is_empty() {
                let bad = [" ", "é", "*", "\u{7f}", "ü"][rng.below(5) as usize];
                l.insert_str(rng.below(l.len() as u64) as usize, bad);
            }
            l
        })
        .collect();
    let mut s = labels.join(".");
    if rng.below(5) == 0 {
        s.push('.');
    }
    s
}

/// `parse` agrees with the model on every string: the same labels, or
/// the same error — a bad label before a name that is too long.
#[test]
fn parse_matches_a_vec_of_strings() {
    let (mut names, mut errors) = (0, std::collections::HashSet::new());
    for seed in 0..16 * CASES {
        let text = name_text(&mut Rng(seed ^ 0x5EED));
        match (DomainName::parse(&text), model_parse(&text)) {
            (Ok(n), Ok(model)) => {
                names += 1;
                assert_eq!(n.labels().collect::<Vec<_>>(), model, "seed {seed}: {text:?}");
                let dotted = if model.is_empty() { ".".to_string() } else { model.join(".") };
                assert_eq!(n.to_string(), dotted, "seed {seed}");
                assert_eq!(DomainName::parse(&n.to_string()).as_ref(), Ok(&n), "seed {seed}");
            }
            (Err(e), Err(model)) => {
                assert_eq!(e, model, "seed {seed}: {text:?}");
                errors.insert(std::mem::discriminant(&e));
            }
            (got, model) => panic!("seed {seed}: {text:?} parses as {got:?}, model {model:?}"),
        }
    }
    assert!(names > 4 * CASES && errors.len() == 4, "{names} names, {} error kinds", errors.len());
}

/// Every accessor agrees with the model on valid names: labels both
/// ways and from both ends at once, counts and lengths, parent, child,
/// the subdomain relation; case variants are equal and hash equally,
/// and `Debug` prints the dotted name.
#[test]
fn accessors_match_a_vec_of_strings() {
    use std::hash::{BuildHasher, RandomState};
    let hasher = RandomState::new();
    for seed in 0..16 * CASES {
        let mut rng = Rng(seed ^ 0xACCE);
        let Ok(model) = model_parse(&name_text(&mut rng)) else { continue };
        let n = DomainName::parse(&model.join(".")).unwrap();
        let ctx = format!("seed {seed}: {model:?}");
        let rev: Vec<&str> = model.iter().rev().map(String::as_str).collect();
        assert_eq!(n.labels().rev().collect::<Vec<_>>(), rev, "{ctx}");
        assert_eq!(n.labels().len(), model.len(), "{ctx}");
        // From both ends at once: front, back, front, …
        let mut both = n.labels();
        let (mut front, mut back) = (Vec::new(), Vec::new());
        loop {
            let from_front = front.len() <= back.len();
            let Some(l) = (if from_front { both.next() } else { both.next_back() }) else { break };
            if from_front {
                front.push(l)
            } else {
                back.push(l)
            }
            assert_eq!(both.len(), model.len() - front.len() - back.len(), "{ctx}");
        }
        front.extend(back.iter().rev());
        assert_eq!(front, model, "{ctx}");
        assert_eq!(n.label_count(), model.len(), "{ctx}");
        assert_eq!(n.wire_len(), model_wire_len(&model), "{ctx}");
        assert_eq!(n.leftmost(), model.first().map(String::as_str), "{ctx}");
        assert_eq!(n.is_root(), model.is_empty(), "{ctx}");
        let dotted = if model.is_empty() { ".".to_string() } else { model.join(".") };
        assert_eq!(format!("{n:?}"), dotted, "{ctx}");

        let parent = n.parent().map(|p| p.labels().map(str::to_string).collect::<Vec<_>>());
        assert_eq!(parent, (!model.is_empty()).then(|| model[1..].to_vec()), "{ctx}");
        let label = "Child-1";
        let mut grown = vec![label.to_string()];
        grown.extend(model.iter().cloned());
        match n.child(Label::new(label).unwrap()) {
            Ok(c) => assert_eq!(c.labels().collect::<Vec<_>>(), grown, "{ctx}"),
            Err(e) => assert_eq!(e, NameError::NameTooLong(model_wire_len(&grown)), "{ctx}"),
        }

        let loud = DomainName::parse(&shout(&mut rng, &model.join("."))).unwrap();
        assert_eq!(loud, n, "{ctx}");
        assert_eq!(hasher.hash_one(&loud), hasher.hash_one(&n), "{ctx}");
        // A suffix of the model in other case, or an unrelated name.
        let keep = rng.below(model.len() as u64 + 2) as usize;
        let other = if keep <= model.len() {
            model[model.len() - keep..].join(".")
        } else {
            name_text(&mut rng)
        };
        if let (Ok(o), Ok(om)) = (DomainName::parse(&shout(&mut rng, &other)), model_parse(&other))
        {
            let sub = om.len() <= model.len()
                && model[model.len() - om.len()..]
                    .iter()
                    .zip(&om)
                    .all(|(a, b)| a.eq_ignore_ascii_case(b));
            assert_eq!(n.is_subdomain_of(&o), sub, "{ctx} under {om:?}");
            assert_eq!(n == o, sub && om.len() == model.len(), "{ctx} vs {om:?}");
        }
    }
}

/// FNV-1a, 64-bit: the codec digests below fold into one of these.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// `s` with each ASCII letter upper-cased on a coin flip.
fn shout(rng: &mut Rng, s: &str) -> String {
    s.chars().map(|c| if rng.below(2) == 0 { c.to_ascii_uppercase() } else { c }).collect()
}

/// A dotted name of exactly `wire` bytes on the wire (root octet
/// included) in mixed-case letters and digits.
fn sized_name(rng: &mut Rng, wire: usize) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let mut left = wire - 1;
    let mut labels = Vec::new();
    while left > 0 {
        let mut len = 63.min(left - 1);
        if left - (len + 1) == 1 {
            len -= 1;
        }
        labels.push((0..len).map(|_| rng.pick(CHARS)).collect::<String>());
        left -= len + 1;
    }
    labels.join(".")
}

/// A message whose names share suffixes in differing case, so the
/// encoder compresses mixed-case names against each other, with the
/// odd name at 254 or 255 wire bytes.
fn codec_message(rng: &mut Rng) -> Message {
    // The root prints as "."; spell it as no labels here.
    let dotted = |rng: &mut Rng| Some(rng.name()).filter(|n| !n.is_root()).map(|n| n.to_string());
    let base = dotted(rng);
    let mut pool = vec![reverse_name(rng.addr())];
    for _ in 0..2 + rng.below(4) {
        let host = [dotted(rng), base.clone()].into_iter().flatten().collect::<Vec<_>>();
        pool.push(DomainName::parse(&shout(rng, &host.join("."))).unwrap());
    }
    if rng.below(4) == 0 {
        let wire = [254, 255][rng.below(2) as usize];
        pool.push(DomainName::parse(&sized_name(rng, wire)).unwrap());
    }
    let pick = |rng: &mut Rng| pool[rng.below(pool.len() as u64) as usize].clone();
    let qtype = [QType::Ptr, QType::A, QType::Ns][rng.below(3) as usize];
    let q = Message::query(rng.next() as u16, pick(rng), qtype);
    let rcode = [Rcode::NoError, Rcode::NxDomain, Rcode::ServFail][rng.below(3) as usize];
    let mut m = Message::response(&q, rcode, vec![]);
    for _ in 0..rng.below(6) {
        let data = match rng.below(5) {
            0 => RecordData::A(rng.addr()),
            1 => RecordData::Ns(pick(rng)),
            2 => RecordData::Cname(pick(rng)),
            3 => RecordData::Ptr(pick(rng)),
            _ => RecordData::Soa {
                mname: pick(rng),
                rname: pick(rng),
                serial: rng.next() as u32,
                minimum: rng.next() as u32,
            },
        };
        let rr = ResourceRecord { name: pick(rng), ttl: rng.next() as u32, data };
        [&mut m.answers, &mut m.authority, &mut m.additional][rng.below(3) as usize].push(rr);
    }
    m
}

/// A one-question message whose QNAME is `prefix` then `rest`, raw.
fn raw_query(prefix: &[u8], rest: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0x12, 0x34, 0x81, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00];
    bytes.extend_from_slice(prefix);
    bytes.extend_from_slice(rest);
    bytes.extend_from_slice(&[0x00, 0x0C, 0x00, 0x01]);
    bytes
}

/// A name of `wire` bytes in wire form: labels of `x`, then the root.
fn raw_name(wire: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut left = wire - 1;
    while left > 0 {
        let mut len = 63.min(left - 1);
        if left - (len + 1) == 1 {
            len -= 1;
        }
        out.push(len as u8);
        out.extend(std::iter::repeat_n(b'x', len));
        left -= len + 1;
    }
    out.push(0);
    out
}

/// Names from 250 to 260 wire bytes around the 255-byte limit, spelled
/// out, spelled out with a bad byte in the last label (the one that
/// crosses the limit, so the limit must be checked first), and assembled
/// through a pointer: the first name of the answer is one label in front
/// of a pointer to the 200-byte QNAME.
fn limit_messages() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for wire in 250..=260 {
        out.push(raw_query(&raw_name(wire), &[]));
        let mut bad = raw_name(wire);
        bad[wire - 2] = b'*';
        out.push(raw_query(&bad, &[]));
        let mut m = raw_query(&raw_name(200), &[]);
        m[7] = 1; // ANCOUNT
        let label = wire - 200 - 1;
        m.push(label as u8);
        m.extend(std::iter::repeat_n(b'y', label));
        m.extend_from_slice(&[0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01, 0, 0, 0, 60, 0, 4, 10, 0, 0, 1]);
        out.push(m);
    }
    out
}

/// Damage aimed at the name decoder: bit flips and cuts, reserved and
/// pointer label types, pointers forward, at themselves and back into
/// the middle of a label, and label bytes outside `[A-Za-z0-9_-]`,
/// non-ASCII and invalid UTF-8 among them.
fn damage(rng: &mut Rng, bytes: &mut Vec<u8>) {
    if bytes.len() < 14 {
        bytes.push(rng.next() as u8);
        return;
    }
    let at = 12 + rng.below(bytes.len() as u64 - 13) as usize;
    let target = match rng.below(8) {
        0 => {
            bytes[at] ^= 1 << rng.below(8);
            return;
        }
        1 => return bytes.truncate(at),
        2 => {
            bytes[at] = [0x40, 0x80, 0xC0][rng.below(3) as usize] | rng.below(0x40) as u8;
            return;
        }
        3 => at + 1 + rng.below(16) as usize,
        4 => at,
        5 => 12 + rng.below(at as u64 - 11) as usize,
        6 => {
            bytes[at] = b" .*\0\x7F\x80\xC3\xFF"[rng.below(8) as usize];
            return;
        }
        _ => {
            let pair: &[u8] = [&b"\xC3\xA9"[..], b"\xC3\x28", b"\xE2\x82"][rng.below(3) as usize];
            return bytes[at..at + 2].copy_from_slice(pair);
        }
    };
    bytes[at] = 0xC0 | (target >> 8 & 0x3F) as u8;
    bytes[at + 1] = target as u8;
}

/// Fold one decode outcome: an accepted message's names as printed,
/// its rcode and section counts; a rejection's error.
fn fold_outcome(h: &mut Fnv, outcome: &Result<Message, WireError>) {
    let m = match outcome {
        Ok(m) => m,
        Err(e) => {
            h.eat(format!("err {e:?}\n").as_bytes());
            return;
        }
    };
    let counts = [m.questions.len(), m.answers.len(), m.authority.len(), m.additional.len()];
    h.eat(format!("ok {:?} {counts:?}\n", m.rcode).as_bytes());
    let mut name = |n: &DomainName| h.eat(format!("{n}\n").as_bytes());
    for q in &m.questions {
        name(&q.qname);
    }
    for rr in m.answers.iter().chain(&m.authority).chain(&m.additional) {
        name(&rr.name);
        match &rr.data {
            RecordData::A(_) => {}
            RecordData::Ns(n) | RecordData::Cname(n) | RecordData::Ptr(n) => name(n),
            RecordData::Soa { mname, rname, .. } => {
                name(mname);
                name(rname);
            }
        }
    }
}

/// The decoder's verdict on every byte of a hostile corpus — what it
/// accepts, as what names, and which error it raises on the rest — is
/// pinned to one digest.
#[test]
fn decode_outcomes_are_pinned() {
    let mut h = Fnv::new();
    let mut accepted = 0;
    let mut errors = std::collections::BTreeMap::new();
    let mut corpus = limit_messages();
    for seed in 0..4 * CASES {
        let mut rng = Rng(seed ^ 0xDEC0);
        let mut bytes = codec_message(&mut rng).encode();
        for _ in 0..rng.below(4) {
            damage(&mut rng, &mut bytes);
        }
        corpus.push(bytes);
    }
    for bytes in &corpus {
        let outcome = Message::decode(bytes);
        match &outcome {
            Ok(_) => accepted += 1,
            Err(e) => {
                let kind = format!("{e:?}").split('(').next().unwrap_or_default().to_string();
                *errors.entry(kind).or_insert(0) += 1;
            }
        }
        fold_outcome(&mut h, &outcome);
    }
    assert!(accepted > CASES / 2, "{accepted} accepted, rejected: {errors:?}");
    for kind in ["Truncated", "BadPointer", "BadLabelType", "NameTooLong", "BadLabel"] {
        assert!(errors.get(kind) > Some(&8), "{kind} is rare or missing: {errors:?}");
    }
    assert_eq!(h.0, 0xd6c8_563d_0452_dc73, "decode digest {:#018x}", h.0);
}

/// The encoder's bytes — compression across case variants, names at
/// the length limit — are pinned to one digest.
#[test]
fn encode_bytes_are_pinned() {
    let mut h = Fnv::new();
    for seed in 0..4 * CASES {
        let m = codec_message(&mut Rng(seed ^ 0xE2C0));
        let bytes = m.encode();
        assert_eq!(Message::decode(&bytes).as_ref(), Ok(&m), "seed {seed}");
        h.eat(&bytes);
    }
    assert_eq!(h.0, 0x2435_456d_2beb_7880, "encode digest {:#018x}", h.0);
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

//! RFC 1035 wire codec.
//!
//! Encodes and decodes [`Message`]s to the standard binary format,
//! including name compression (§4.1.4) on both paths. The decoder is
//! defensive: truncated buffers, unknown type codes, compression-pointer
//! loops, and over-long names all produce a typed [`WireError`] instead
//! of a panic, because the sensor must survive malformed packets.
//!
//! A [`DomainName`] is its labels in wire form, so the decoder writes a
//! name into one buffer as it validates it, and the encoder compresses by
//! comparing label-aligned suffixes. [`Message::decode`] is the one
//! decoder: the capture reader and every test go through it.

use crate::message::{Message, QClass, QType, Question, Rcode, RecordData, ResourceRecord};
use crate::name::{is_label_byte, DomainName, MAX_NAME_LEN};
use std::fmt;
use std::net::Ipv4Addr;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure did.
    Truncated,
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// A label length byte used the reserved `0b10`/`0b01` prefixes.
    BadLabelType(u8),
    /// A decoded name exceeded the 255-byte limit.
    NameTooLong,
    /// A label contained invalid characters.
    BadLabel,
    /// Unknown TYPE code in a question or record.
    UnknownType(u16),
    /// Unknown CLASS code.
    UnknownClass(u16),
    /// Unknown RCODE.
    UnknownRcode(u8),
    /// RDLENGTH disagreed with the actual RDATA size.
    BadRdLength,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::BadLabelType(b) => write!(f, "reserved label type byte {b:#04x}"),
            WireError::NameTooLong => write!(f, "decoded name exceeds 255 bytes"),
            WireError::BadLabel => write!(f, "label contains invalid bytes"),
            WireError::UnknownType(t) => write!(f, "unknown TYPE {t}"),
            WireError::UnknownClass(c) => write!(f, "unknown CLASS {c}"),
            WireError::UnknownRcode(r) => write!(f, "unknown RCODE {r}"),
            WireError::BadRdLength => write!(f, "RDLENGTH mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Incremental encoder with name compression, writing big-endian
/// fields into a plain byte vector.
struct Encoder<'a> {
    buf: Vec<u8>,
    /// Label-aligned suffixes written so far (wire form) at their first
    /// offsets; a message has few names, so a scan beats hashing keys.
    seen: Vec<(&'a [u8], u16)>,
}

impl<'a> Encoder<'a> {
    fn new() -> Self {
        Encoder { buf: Vec::with_capacity(512), seen: Vec::new() }
    }

    fn put_u8(&mut self, n: u8) {
        self.buf.push(n);
    }

    fn put_u16(&mut self, n: u16) {
        self.buf.extend_from_slice(&n.to_be_bytes());
    }

    fn put_u32(&mut self, n: u32) {
        self.buf.extend_from_slice(&n.to_be_bytes());
    }

    fn put_name(&mut self, name: &'a DomainName) {
        // Emit labels until we hit a suffix we've already encoded, then a
        // pointer; record offsets of each new suffix for later reuse.
        for suffix in name.suffixes() {
            let Some(&len) = suffix.first() else {
                self.put_u8(0);
                return;
            };
            if let Some(&(_, off)) = self.seen.iter().find(|(s, _)| s.eq_ignore_ascii_case(suffix))
            {
                self.put_u16(0xC000 | off);
                return;
            }
            let off = self.buf.len();
            // Pointers only address the first 16 KiB - offsets beyond
            // 0x3FFF are not recorded (messages we build never get there,
            // but stay correct if they do).
            if off <= 0x3FFF {
                self.seen.push((suffix, off as u16));
            }
            self.buf.extend_from_slice(&suffix[..1 + len as usize]);
        }
    }

    fn put_question(&mut self, q: &'a Question) {
        self.put_name(&q.qname);
        self.put_u16(q.qtype.code());
        self.put_u16(q.qclass.code());
    }

    fn put_record(&mut self, rr: &'a ResourceRecord) {
        self.put_name(&rr.name);
        self.put_u16(rr.data.qtype().code());
        self.put_u16(QClass::In.code());
        self.put_u32(rr.ttl);
        // Reserve RDLENGTH, encode RDATA, then backfill.
        let len_pos = self.buf.len();
        self.put_u16(0);
        let start = self.buf.len();
        match &rr.data {
            RecordData::A(a) => self.buf.extend_from_slice(&a.octets()),
            RecordData::Ns(n) | RecordData::Cname(n) | RecordData::Ptr(n) => self.put_name(n),
            RecordData::Soa { mname, rname, serial, minimum } => {
                self.put_name(mname);
                self.put_name(rname);
                self.put_u32(*serial);
                self.put_u32(0); // refresh
                self.put_u32(0); // retry
                self.put_u32(0); // expire
                self.put_u32(*minimum);
            }
        }
        let rdlen = (self.buf.len() - start) as u16;
        self.buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
    }
}

impl Message {
    /// Encode to wire format with name compression.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u16(self.id);
        let mut flags: u16 = 0;
        if self.is_response {
            flags |= 0x8000;
        }
        // OPCODE 0 (standard query) always.
        if self.authoritative {
            flags |= 0x0400;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        if self.recursion_available {
            flags |= 0x0080;
        }
        flags |= self.rcode.code() as u16;
        e.put_u16(flags);
        e.put_u16(self.questions.len() as u16);
        e.put_u16(self.answers.len() as u16);
        e.put_u16(self.authority.len() as u16);
        e.put_u16(self.additional.len() as u16);
        for q in &self.questions {
            e.put_question(q);
        }
        for rr in &self.answers {
            e.put_record(rr);
        }
        for rr in &self.authority {
            e.put_record(rr);
        }
        for rr in &self.additional {
            e.put_record(rr);
        }
        e.buf
    }

    /// Decode from wire format.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Decoder { full: bytes, cur: bytes }.message()
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A cursor over the message: `cur` is always a suffix of `full`, and
/// every read checks the remaining length first.
struct Decoder<'a> {
    full: &'a [u8],
    cur: &'a [u8],
}

/// Split `n` bytes off the front of `view`, or fail as truncated.
fn take<'a>(view: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if view.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = view.split_at(n);
    *view = rest;
    Ok(head)
}

impl<'a> Decoder<'a> {
    fn pos(&self) -> usize {
        self.full.len() - self.cur.len()
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = take(&mut self.cur, 2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = take(&mut self.cur, 4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Decode a (possibly compressed) name starting at the cursor,
    /// writing each label into the name's buffer once it is validated.
    fn name(&mut self) -> Result<DomainName, WireError> {
        let mut wire = [0u8; MAX_NAME_LEN];
        // Bytes of `wire` in use; `used + 1` with the root octet.
        let mut used = 0usize;
        // Pointers must target strictly before here.
        let mut limit_pos = self.pos();
        // Follow the label chain in `view`; the cursor keeps in step
        // until the first pointer, after which `view` reads from `full`
        // at decreasing offsets only, bounding the walk.
        let mut jumped = false;
        let mut view: &[u8] = self.cur;
        loop {
            let len = take(&mut view, 1)?[0];
            if !jumped {
                self.cur = view;
            }
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        break;
                    }
                    let raw = take(&mut view, len as usize)?;
                    if !jumped {
                        self.cur = view;
                    }
                    let end = used + 1 + raw.len();
                    if end + 1 > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    if !raw.iter().all(|&b| is_label_byte(b)) {
                        return Err(WireError::BadLabel);
                    }
                    wire[used] = len;
                    wire[used + 1..end].copy_from_slice(raw);
                    used = end;
                }
                0xC0 => {
                    let lo = take(&mut view, 1)?[0];
                    if !jumped {
                        self.cur = view;
                    }
                    let target = ((len as usize & 0x3F) << 8) | lo as usize;
                    // Pointers must point strictly backwards; this both
                    // matches RFC practice and rules out loops.
                    if target >= limit_pos {
                        return Err(WireError::BadPointer);
                    }
                    limit_pos = target;
                    view = &self.full[target..];
                    jumped = true;
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }
        DomainName::from_wire(&wire[..used]).map_err(|_| WireError::NameTooLong)
    }

    fn question(&mut self) -> Result<Question, WireError> {
        let qname = self.name()?;
        let t = self.u16()?;
        let c = self.u16()?;
        Ok(Question {
            qname,
            qtype: QType::from_code(t).ok_or(WireError::UnknownType(t))?,
            qclass: QClass::from_code(c).ok_or(WireError::UnknownClass(c))?,
        })
    }

    fn record(&mut self) -> Result<ResourceRecord, WireError> {
        let name = self.name()?;
        let t = self.u16()?;
        let _class = self.u16()?;
        let ttl = self.u32()?;
        let rdlen = self.u16()? as usize;
        if self.cur.len() < rdlen {
            return Err(WireError::Truncated);
        }
        let rd_end = self.pos() + rdlen;
        let qtype = QType::from_code(t).ok_or(WireError::UnknownType(t))?;
        let data = match qtype {
            QType::A => {
                if rdlen != 4 {
                    return Err(WireError::BadRdLength);
                }
                let o = take(&mut self.cur, 4)?;
                RecordData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            QType::Ns => RecordData::Ns(self.name()?),
            QType::Cname => RecordData::Cname(self.name()?),
            QType::Ptr => RecordData::Ptr(self.name()?),
            QType::Soa => {
                let mname = self.name()?;
                let rname = self.name()?;
                let serial = self.u32()?;
                let _refresh = self.u32()?;
                let _retry = self.u32()?;
                let _expire = self.u32()?;
                let minimum = self.u32()?;
                RecordData::Soa { mname, rname, serial, minimum }
            }
            other => return Err(WireError::UnknownType(other.code())),
        };
        if self.pos() != rd_end {
            return Err(WireError::BadRdLength);
        }
        Ok(ResourceRecord { name, ttl, data })
    }

    fn message(&mut self) -> Result<Message, WireError> {
        let id = self.u16()?;
        let flags = self.u16()?;
        let rcode_raw = (flags & 0x000F) as u8;
        let qd = self.u16()? as usize;
        let an = self.u16()? as usize;
        let ns = self.u16()? as usize;
        let ar = self.u16()? as usize;
        let mut questions = Vec::with_capacity(qd.min(16));
        for _ in 0..qd {
            questions.push(self.question()?);
        }
        let section = |n: usize, d: &mut Self| -> Result<Vec<ResourceRecord>, WireError> {
            let mut v = Vec::with_capacity(n.min(32));
            for _ in 0..n {
                v.push(d.record()?);
            }
            Ok(v)
        };
        let answers = section(an, self)?;
        let authority = section(ns, self)?;
        let additional = section(ar, self)?;
        Ok(Message {
            id,
            is_response: flags & 0x8000 != 0,
            authoritative: flags & 0x0400 != 0,
            recursion_desired: flags & 0x0100 != 0,
            recursion_available: flags & 0x0080 != 0,
            rcode: Rcode::from_code(rcode_raw).ok_or(WireError::UnknownRcode(rcode_raw))?,
            questions,
            answers,
            authority,
            additional,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reverse::reverse_name;

    fn sample_response() -> Message {
        let q = Message::query(0xBEEF, reverse_name("192.0.2.77".parse().unwrap()), QType::Ptr);
        let mut r = Message::response(
            &q,
            Rcode::NoError,
            vec![ResourceRecord {
                name: q.questions[0].qname.clone(),
                ttl: 3600,
                data: RecordData::Ptr(DomainName::parse("fw1.example.com").unwrap()),
            }],
        );
        r.authority.push(ResourceRecord {
            name: DomainName::parse("2.0.192.in-addr.arpa").unwrap(),
            ttl: 900,
            data: RecordData::Ns(DomainName::parse("ns.example.com").unwrap()),
        });
        r.additional.push(ResourceRecord {
            name: DomainName::parse("ns.example.com").unwrap(),
            ttl: 900,
            data: RecordData::A("192.0.2.53".parse().unwrap()),
        });
        r
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(1, reverse_name("10.9.8.7".parse().unwrap()), QType::Ptr);
        let bytes = q.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), q);
    }

    #[test]
    fn full_response_round_trip() {
        let r = sample_response();
        let bytes = r.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn soa_negative_answer_round_trip() {
        let q = Message::query(9, reverse_name("198.51.100.1".parse().unwrap()), QType::Ptr);
        let mut r = Message::response(&q, Rcode::NxDomain, vec![]);
        r.authority.push(ResourceRecord {
            name: DomainName::parse("100.51.198.in-addr.arpa").unwrap(),
            ttl: 600,
            data: RecordData::Soa {
                mname: DomainName::parse("ns.example.net").unwrap(),
                rname: DomainName::parse("hostmaster.example.net").unwrap(),
                serial: 2014041500,
                minimum: 900,
            },
        });
        let bytes = r.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let r = sample_response();
        let bytes = r.encode();
        // Sum of raw name bytes exceeds the compressed message body; a
        // crude but effective check: the QNAME appears once only.
        let needle = b"\x07in-addr\x04arpa"[..].to_vec();
        let count = bytes.windows(needle.len()).filter(|w| *w == &needle[..]).count();
        assert_eq!(count, 1, "in-addr.arpa should be encoded once and pointed to");
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let bytes = sample_response().encode();
        for cut in 0..bytes.len() {
            // Every strict prefix must fail (some suffix structures are
            // optional only when counts say so, which they don't here).
            assert!(
                Message::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes should not decode"
            );
        }
    }

    #[test]
    fn decode_rejects_pointer_loops() {
        // Header with one question, then a name that points at itself.
        let mut bytes =
            vec![0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00];
        bytes.extend_from_slice(&[0xC0, 0x0C]); // pointer to offset 12 = itself
        bytes.extend_from_slice(&[0x00, 0x0C, 0x00, 0x01]);
        assert_eq!(Message::decode(&bytes), Err(WireError::BadPointer));
    }

    #[test]
    fn decode_rejects_forward_pointers() {
        let mut bytes =
            vec![0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00];
        bytes.extend_from_slice(&[0xC0, 0x20]); // points past itself
        bytes.extend_from_slice(&[0x00, 0x0C, 0x00, 0x01]);
        bytes.resize(64, 0);
        assert_eq!(Message::decode(&bytes), Err(WireError::BadPointer));
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        let mut bytes =
            vec![0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00];
        bytes.push(0x80); // reserved 0b10 prefix
        bytes.extend_from_slice(&[0x00, 0x0C, 0x00, 0x01]);
        assert!(matches!(Message::decode(&bytes), Err(WireError::BadLabelType(_))));
    }

    #[test]
    fn flags_round_trip() {
        let mut m = Message::query(0xABCD, DomainName::parse("example.com").unwrap(), QType::A);
        m.is_response = true;
        m.authoritative = true;
        m.recursion_available = true;
        m.rcode = Rcode::Refused;
        let d = Message::decode(&m.encode()).unwrap();
        assert!(d.is_response && d.authoritative && d.recursion_available && d.recursion_desired);
        assert_eq!(d.rcode, Rcode::Refused);
        assert_eq!(d.id, 0xABCD);
    }
}

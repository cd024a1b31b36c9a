//! DNS messages.
//!
//! A subset of RFC 1035 sufficient for reverse-DNS traffic: queries and
//! responses with a 12-byte header, question section, and resource
//! records carrying `A`, `PTR`, `NS`, `CNAME`, or `SOA` data. The paper's
//! sensor only ever inspects `PTR` questions, but authorities also emit
//! referrals (`NS`) and negative answers (`SOA` in the authority section),
//! so the simulator needs the rest.

use crate::name::DomainName;
use std::fmt;
use std::net::Ipv4Addr;

/// Query type (a subset of RR types plus `ANY`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer — the reverse-DNS record type this whole
    /// system revolves around.
    Ptr,
    /// Mail exchanger.
    Mx,
    /// Text record.
    Txt,
    /// IPv6 host address.
    Aaaa,
    /// Any type (`*`).
    Any,
}

impl QType {
    /// Wire value (RFC 1035 §3.2.2 / §3.2.3).
    pub fn code(self) -> u16 {
        match self {
            QType::A => 1,
            QType::Ns => 2,
            QType::Cname => 5,
            QType::Soa => 6,
            QType::Ptr => 12,
            QType::Mx => 15,
            QType::Txt => 16,
            QType::Aaaa => 28,
            QType::Any => 255,
        }
    }

    /// Decode a wire value.
    pub fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            1 => QType::A,
            2 => QType::Ns,
            5 => QType::Cname,
            6 => QType::Soa,
            12 => QType::Ptr,
            15 => QType::Mx,
            16 => QType::Txt,
            28 => QType::Aaaa,
            255 => QType::Any,
            _ => return None,
        })
    }
}

impl fmt::Display for QType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QType::A => "A",
            QType::Ns => "NS",
            QType::Cname => "CNAME",
            QType::Soa => "SOA",
            QType::Ptr => "PTR",
            QType::Mx => "MX",
            QType::Txt => "TXT",
            QType::Aaaa => "AAAA",
            QType::Any => "ANY",
        };
        f.write_str(s)
    }
}

/// Query class. Only `IN` occurs in practice; we keep the field to stay
/// honest to the wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QClass {
    /// The Internet.
    In,
    /// CHAOS (seen in `version.bind` probes).
    Ch,
}

impl QClass {
    /// Wire value.
    pub fn code(self) -> u16 {
        match self {
            QClass::In => 1,
            QClass::Ch => 3,
        }
    }

    /// Decode a wire value.
    pub fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            1 => QClass::In,
            3 => QClass::Ch,
            _ => return None,
        })
    }
}

/// Response code (RCODE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure. The paper's querier feature `unreach` corresponds
    /// to authorities answering `SERVFAIL` or not at all.
    ServFail,
    /// Name does not exist. Drives the `nxdomain` static feature.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused.
    Refused,
}

impl Rcode {
    /// Wire value (low 4 bits of the header flags).
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
        }
    }

    /// Decode a wire value.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            _ => return None,
        })
    }
}

/// A question: name, type, class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// The name being asked about (for backscatter: a reverse name).
    pub qname: DomainName,
    /// The record type requested.
    pub qtype: QType,
    /// The class (`IN` everywhere that matters).
    pub qclass: QClass,
}

/// Typed record data for the RR types the simulator produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Name-server referral target.
    Ns(DomainName),
    /// Alias target.
    Cname(DomainName),
    /// Reverse-pointer target: the originator's domain name.
    Ptr(DomainName),
    /// Start of authority; carried on negative answers. `minimum` caps
    /// negative-cache TTLs (RFC 2308).
    Soa {
        /// Primary name server.
        mname: DomainName,
        /// Responsible mailbox, encoded as a name.
        rname: DomainName,
        /// Zone serial.
        serial: u32,
        /// Negative-caching TTL (the `MINIMUM` field).
        minimum: u32,
    },
}

impl RecordData {
    /// The RR type of this data.
    pub fn qtype(&self) -> QType {
        match self {
            RecordData::A(_) => QType::A,
            RecordData::Ns(_) => QType::Ns,
            RecordData::Cname(_) => QType::Cname,
            RecordData::Ptr(_) => QType::Ptr,
            RecordData::Soa { .. } => QType::Soa,
        }
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: DomainName,
    /// Time to live in seconds. Authorities for fast-flux or ad-tracker
    /// names deliberately use tiny TTLs; the controlled-scan experiment
    /// uses zero to defeat caching.
    pub ttl: u32,
    /// The typed record data.
    pub data: RecordData,
}

/// A DNS message: header fields plus the four record sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction ID.
    pub id: u16,
    /// True for responses (header QR bit).
    pub is_response: bool,
    /// Authoritative-answer bit.
    pub authoritative: bool,
    /// Recursion-desired bit (set by stub resolvers and queriers).
    pub recursion_desired: bool,
    /// Recursion-available bit (set by recursive resolvers).
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Questions (exactly one in all traffic we model).
    pub questions: Vec<Question>,
    /// Answer records.
    pub answers: Vec<ResourceRecord>,
    /// Authority records (referrals, SOAs on negative answers).
    pub authority: Vec<ResourceRecord>,
    /// Additional records (glue).
    pub additional: Vec<ResourceRecord>,
}

impl Message {
    /// Build a standard recursive query for `qname`/`qtype` in class `IN`.
    pub fn query(id: u16, qname: DomainName, qtype: QType) -> Self {
        Message {
            id,
            is_response: false,
            authoritative: false,
            recursion_desired: true,
            recursion_available: false,
            rcode: Rcode::NoError,
            questions: vec![Question { qname, qtype, qclass: QClass::In }],
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Build a response to `query` with the given rcode and answers.
    pub fn response(query: &Message, rcode: Rcode, answers: Vec<ResourceRecord>) -> Self {
        Message {
            id: query.id,
            is_response: true,
            authoritative: true,
            recursion_desired: query.recursion_desired,
            recursion_available: false,
            rcode,
            questions: query.questions.clone(),
            answers,
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// The sole question, if the message has exactly one.
    pub fn question(&self) -> Option<&Question> {
        if self.questions.len() == 1 {
            self.questions.first()
        } else {
            None
        }
    }

    /// Is this a reverse (PTR-over-`in-addr.arpa`) query? This is the
    /// exact filter the paper applies at data collection (§III-A).
    pub fn is_reverse_query(&self) -> bool {
        !self.is_response
            && self.question().is_some_and(|q| {
                q.qtype == QType::Ptr && crate::reverse::parse_reverse_v4(&q.qname).is_some()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reverse::reverse_name;

    #[test]
    fn qtype_codes_round_trip() {
        for qt in [
            QType::A,
            QType::Ns,
            QType::Cname,
            QType::Soa,
            QType::Ptr,
            QType::Mx,
            QType::Txt,
            QType::Aaaa,
            QType::Any,
        ] {
            assert_eq!(QType::from_code(qt.code()), Some(qt));
        }
        assert_eq!(QType::from_code(999), None);
        assert_eq!(QType::Ptr.code(), 12);
    }

    #[test]
    fn rcode_round_trip() {
        for rc in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::NotImp,
            Rcode::Refused,
        ] {
            assert_eq!(Rcode::from_code(rc.code()), Some(rc));
        }
        assert_eq!(Rcode::from_code(15), None);
    }

    #[test]
    fn reverse_query_detection() {
        let q = Message::query(1, reverse_name("1.2.3.4".parse().unwrap()), QType::Ptr);
        assert!(q.is_reverse_query());

        // Forward PTR-looking name is not a reverse query.
        let fwd = Message::query(2, DomainName::parse("mail.example.com").unwrap(), QType::Ptr);
        assert!(!fwd.is_reverse_query());

        // A query for an address (A record) is not reverse.
        let a = Message::query(3, DomainName::parse("mail.example.com").unwrap(), QType::A);
        assert!(!a.is_reverse_query());

        // Responses never count.
        let resp = Message::response(&q, Rcode::NoError, vec![]);
        assert!(!resp.is_reverse_query());
    }

    #[test]
    fn response_copies_question_and_id() {
        let q = Message::query(77, reverse_name("9.8.7.6".parse().unwrap()), QType::Ptr);
        let r = Message::response(&q, Rcode::NxDomain, vec![]);
        assert_eq!(r.id, 77);
        assert!(r.is_response);
        assert_eq!(r.questions, q.questions);
        assert_eq!(r.rcode, Rcode::NxDomain);
    }

    #[test]
    fn record_data_type_mapping() {
        assert_eq!(RecordData::A(Ipv4Addr::LOCALHOST).qtype(), QType::A);
        let n = DomainName::parse("ns.example.com").unwrap();
        assert_eq!(RecordData::Ns(n.clone()).qtype(), QType::Ns);
        assert_eq!(RecordData::Cname(n.clone()).qtype(), QType::Cname);
        assert_eq!(RecordData::Ptr(n.clone()).qtype(), QType::Ptr);
        assert_eq!(
            RecordData::Soa { mname: n.clone(), rname: n, serial: 1, minimum: 900 }.qtype(),
            QType::Soa
        );
    }
}

//! The DNS substrate on its own: wire-format reverse queries and the
//! sensor's collection filter.
//!
//! Everything upstream of the classifier speaks real DNS. This example
//! builds the exact packets of the paper's Figure 1 — a mail target's
//! resolver asking `PTR? 4.3.2.1.in-addr.arpa` about a spammer at
//! 1.2.3.4 — runs them through the wire codec, and shows how an
//! authority's capture loop filters reverse queries and why a resolver
//! cache suppresses repeats.
//!
//! ```bash
//! cargo run --release --example wire_capture
//! ```

use dns_backscatter::dns::message::{Message, QType, Rcode, RecordData, ResourceRecord};
use dns_backscatter::dns::name::DomainName;
use dns_backscatter::dns::reverse::{parse_reverse_v4, reverse_name};
use std::net::Ipv4Addr;

fn main() {
    // Figure 1 of the paper: spam.bad.jp (1.2.3.4) spams targets, whose
    // resolver rdns.example.com looks up the reverse name.
    let originator = Ipv4Addr::new(1, 2, 3, 4);
    let qname = reverse_name(originator);
    println!("originator {originator} → QNAME {qname}");

    // The querier's packet, on the wire.
    let query = Message::query(0x4242, qname.clone(), QType::Ptr);
    let bytes = query.encode();
    println!("query encodes to {} bytes: {:02x?}…", bytes.len(), &bytes[..16]);

    // The authority's capture loop: decode, keep reverse queries only.
    let decoded = Message::decode(&bytes).expect("well-formed packet");
    assert!(decoded.is_reverse_query());
    let seen = parse_reverse_v4(&decoded.question().unwrap().qname).unwrap();
    println!("authority log line: querier asked about originator {seen}");

    // A forward query does NOT pass the filter.
    let forward = Message::query(7, DomainName::parse("www.example.com").unwrap(), QType::A);
    assert!(!forward.is_reverse_query());
    println!("forward query filtered out (not backscatter)");

    // The authority answers; the resolver caches for the record TTL.
    let answer = Message::response(
        &decoded,
        Rcode::NoError,
        vec![ResourceRecord {
            name: qname.clone(),
            ttl: 3600,
            data: RecordData::Ptr(DomainName::parse("spam.bad.jp").unwrap()),
        }],
    );
    let answer_bytes = answer.encode();
    println!("response encodes to {} bytes (with name compression)", answer_bytes.len());
    assert_eq!(Message::decode(&answer_bytes).expect("well-formed packet"), answer);

    println!("for the next hour the resolver answers repeats from its cache");
    println!("→ the authority never sees them: that cache is why backscatter");
    println!("  is attenuated as it climbs the DNS hierarchy.");
    println!("after the TTL the next lookup reaches the authority again.");
}

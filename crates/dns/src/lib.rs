//! DNS substrate for the `dns-backscatter` system.
//!
//! This crate implements the slice of the DNS that the backscatter sensor
//! depends on: domain names and their syntax rules, the reverse
//! (`in-addr.arpa`) namespace, and query/response messages with an
//! RFC 1035 wire codec (including name compression).
//!
//! The backscatter paper observes *reverse DNS queries* (`QTYPE = PTR`
//! against `in-addr.arpa`) arriving at authoritative servers. Everything
//! in this crate exists so the simulator in `bs-netsim` can move those
//! queries through a realistic resolver hierarchy, and so the sensor in
//! `bs-sensor` can parse what arrives.
//!
//! # Design notes
//!
//! * **Simulated time.** All TTL arithmetic runs on [`SimTime`], an
//!   integer count of seconds since the start of a simulation. Nothing in
//!   this crate reads a wall clock, which keeps every experiment
//!   deterministic and replayable.
//! * **No I/O.** The wire codec encodes to and decodes from byte buffers
//!   only. Transport is the simulator's job.
//! * **Strictness.** Name length limits (63-byte labels, 255-byte names)
//!   are enforced at construction so invalid names are unrepresentable.
//!
//! # Example
//!
//! ```
//! use bs_dns::{reverse::reverse_name, name::DomainName, message::{Message, QType}};
//!
//! // The PTR query a firewall sends when it logs a probe from 192.0.2.77:
//! let qname = reverse_name("192.0.2.77".parse().unwrap());
//! assert_eq!(qname.to_string(), "77.2.0.192.in-addr.arpa");
//!
//! let query = Message::query(0x1234, qname, QType::Ptr);
//! let bytes = query.encode();
//! let decoded = Message::decode(&bytes).unwrap();
//! assert_eq!(decoded, query);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod message;
pub mod name;
pub mod reverse;
mod time;
pub mod wire;

pub use message::{Message, QClass, QType, Rcode, RecordData, ResourceRecord};
pub use name::{DomainName, Label, LabelBytes, NameError};
pub use reverse::{parse_reverse_v4, reverse_name, ReverseZone};
pub use time::{SimDuration, SimTime};

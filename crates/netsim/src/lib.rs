//! A procedurally-generated Internet and the DNS plumbing that turns
//! network-wide activity into backscatter.
//!
//! The backscatter paper observes reverse-DNS queries at three kinds of
//! authoritative servers. Reproducing its experiments needs an Internet
//! to point the sensor at: address space with geographic and
//! organizational structure, hosts with roles and reverse names, the
//! recursive resolvers those hosts use, and the authority hierarchy that
//! serves `in-addr.arpa`. This crate provides all of that.
//!
//! # The world is a function
//!
//! Instead of materializing billions of host records, the [`World`]
//! computes every static fact about the Internet *deterministically from
//! the world seed and the address*: which country a /8 belongs to, which
//! AS owns a /16, what kind of network a /24 is, whether a host exists at
//! an address, what its role and reverse name are, and which recursive
//! resolver it uses. Two queries about the same address always agree, any
//! address can be queried in O(1), and full-Internet scans are cheap.
//! Only *caches* — the source of backscatter attenuation — are stateful,
//! and they live in the [`engine::Simulator`].
//!
//! # From contact to backscatter
//!
//! Activity models (crate `bs-activity`) emit [`Contact`]s: "originator
//! *o* touched target *t* with traffic of kind *k* at time *s*". The
//! simulator decides whether the target's infrastructure reacts with a
//! reverse lookup, routes the lookup through the resolver's PTR cache and
//! the delegation hierarchy, and appends a [`QueryLogRecord`] at every
//! instrumented authority that gets asked. The logs are what the sensor
//! in `bs-sensor` consumes — exactly the `(originator, querier,
//! authority)` tuples of paper §III-A.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod det;
pub mod engine;
pub mod experiment;
pub mod hierarchy;
pub mod log;
mod naming;
mod resolver;
pub mod types;
pub mod world;

pub use engine::{Simulator, SimulatorConfig};
pub use hierarchy::{AuthorityId, AuthorityLevel};
pub use log::{QueryLog, QueryLogRecord};
pub use types::{AsId, Contact, ContactKind, CountryCode, HostRole, NameOutcome, ResolverId};
pub use world::{World, WorldConfig};

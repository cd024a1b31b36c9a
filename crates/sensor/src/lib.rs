//! The DNS backscatter sensor (paper §III).
//!
//! This crate turns an authority's reverse-query log into per-originator
//! feature vectors ready for classification:
//!
//! 1. [`ingest`] groups `(originator, querier, time)` tuples per
//!    originator, discarding duplicate queries from the same querier
//!    inside a 30-second window ("to avoid excessive skew of querier
//!    rate estimates due to queriers that do not follow DNS timeout
//!    rules").
//! 2. [`ingest::select_analyzable`] keeps originators with at least 20
//!    unique queriers — the paper's analyzability threshold — and ranks
//!    them by unique-querier count.
//! 3. [`static_features`] classifies each querier's *own* reverse name
//!    into one of fourteen keyword categories (home, mail, ns, fw,
//!    antispam, www, ntp, cdn, aws, ms, google, other-unclassified,
//!    unreach, nxdomain), matching by dot-component from the left and
//!    taking the first matching rule.
//! 4. [`dynamic`] computes the temporal and spatial features: queries
//!    per querier, persistence, local (/24) and global (/8) entropy,
//!    AS and country spreads.
//!
//! The sensor reads querier metadata (reverse name, AS, country) through
//! the [`QuerierInfo`] trait, so it works identically against the
//! simulated world and any other provider. Extraction consults it
//! through the [`qmeta`] metadata plane — each unique querier's AS and
//! country resolved once per window and interned into dense ids, its
//! reverse name only when an analyzable originator's footprint holds
//! it (both reused across windows via [`qmeta::QuerierMetaCache`]) —
//! so providers must answer deterministically for a given
//! address within a window; a per-pair reference, compiled for tests
//! only, defines the semantics. The keyword matcher (one rule, tested
//! keyword at a time and byte at a time) is an independent
//! implementation of the paper's tables — deliberately
//! *not* shared with the name generator in `bs-netsim`, so matching
//! here is a real test of the generator's realism rather than a
//! tautology.
//!
//! Ingestion is one loop, [`stream::StreamingSensor`]'s — a window of
//! a log in memory ([`Observations::ingest`]) is that sensor run for
//! the one window. It runs on std `HashMap` / `HashSet` tables behind
//! one private one-multiply hasher (packed integer keys, arena-indexed
//! per-originator state, `u32` querier sets, lazy eviction heap) and
//! converts to the BTree-ordered [`Observations`]
//! representation only at window flush; BTree reference
//! implementations, compiled for tests only, define the semantics and
//! are property-tested equal on arbitrary record streams (the
//! `*_equivalence` modules of this crate). For live traffic,
//! [`shard::ShardedStreamingSensor`] hash-shards the originator space
//! across N such sensors for multi-core scaling, with output invariant
//! across shard counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod extract;
mod hash;
pub mod ingest;
pub mod qmeta;
pub mod shard;
pub mod static_features;
pub mod stream;

// The fast-path ≡ reference suites. The references are `#[cfg(test)]`
// items of this crate, so the suites are unit-test modules; the case
// generator is the one `tests/properties.rs` uses.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
#[cfg(test)]
mod entropy_equivalence;
#[cfg(test)]
mod fastpath_equivalence;
#[cfg(test)]
mod qmeta_equivalence;
#[cfg(test)]
mod shard_equivalence;

pub use dynamic::DynamicFeatures;
pub use extract::{
    extract_features, extract_with_meta_cache, FeatureConfig, FeatureVector, OriginatorFeatures,
};
pub use ingest::{select_analyzable, Observations, OriginatorObservation};
pub use qmeta::{QuerierMetaCache, QuerierMetaTable};
pub use shard::{ShardedStreamingSensor, SHARD_SLICES};
pub use static_features::{classify_querier_name, StaticFeature};
pub use stream::{StreamConfig, StreamingSensor, WindowSummary};

use bs_netsim::types::{AsId, CountryCode, NameOutcome};
use std::net::Ipv4Addr;

/// Everything the sensor needs to know about a querier address.
///
/// In deployment these come from PTR lookups and whois/geo databases;
/// in this reproduction the simulated [`bs_netsim::World`] provides
/// them.
pub trait QuerierInfo {
    /// Reverse-resolve the querier's own address.
    fn querier_name(&self, addr: Ipv4Addr) -> NameOutcome;
    /// The querier's autonomous system, if known.
    fn querier_as(&self, addr: Ipv4Addr) -> Option<AsId>;
    /// The querier's country, if known.
    fn querier_country(&self, addr: Ipv4Addr) -> Option<CountryCode>;
}

impl QuerierInfo for bs_netsim::World {
    fn querier_name(&self, addr: Ipv4Addr) -> NameOutcome {
        self.reverse_name(addr)
    }
    fn querier_as(&self, addr: Ipv4Addr) -> Option<AsId> {
        self.as_of(addr)
    }
    fn querier_country(&self, addr: Ipv4Addr) -> Option<CountryCode> {
        self.country_of(addr)
    }
}

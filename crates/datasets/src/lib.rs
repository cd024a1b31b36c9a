//! Synthetic replicas of the paper's datasets (Table I).
//!
//! The paper's data — JP-DNS ccTLD captures, B-Root and M-Root DITL
//! collections, a 9-month sampled M-Root feed, and a multi-year B-Root
//! archive — is proprietary. This crate rebuilds each dataset's *shape*
//! on top of the simulated world: the same observation point, duration,
//! sampling policy, feature-window length, and a population whose class
//! mix produces the structures the paper reports.
//!
//! | replica | authority | span | sampling | window |
//! |---|---|---|---|---|
//! | JP-ditl | jp national | 50 h | none | whole |
//! | B-post-ditl | B-Root | 36 h | none | whole |
//! | M-ditl | M-Root | 50 h | none | whole |
//! | M-ditl-2015 | M-Root | 50 h | none | whole |
//! | M-sampled | M-Root | 36 weeks | 1:10 | 7 days |
//! | B-long | B-Root | 8 weeks | none | 1 day |
//! | B-multi-year | B-Root | 60 weeks | none | 1 day (weekly stride) |
//!
//! Long spans are compressed relative to the paper (9 months kept, 4.16
//! years → 60 weeks) to fit a single-core budget; EXPERIMENTS.md
//! records every such substitution.
//!
//! [`Blacklist`] and [`Darknet`] supply the oracles the paper validates against:
//! DNS blacklists with realistic coverage and lag, and a darknet that
//! tallies probes into two unused prefixes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
mod external;
mod spec;

pub use build::{build_dataset, BuiltDataset};
pub use external::{Blacklist, Darknet};
pub use spec::{DatasetId, DatasetSpec, Scale};

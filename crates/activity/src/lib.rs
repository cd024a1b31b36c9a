//! Generative models of network-wide activity.
//!
//! The paper classifies originators into twelve application classes
//! (§III-D) — spammers, scanners, CDNs, mailing lists, crawlers, and so
//! on. To evaluate a classifier without the proprietary traces, this
//! crate plays the other side: it *generates* originators of each class
//! with the behaviours the paper describes, and turns them into a
//! time-ordered stream of [`bs_netsim::Contact`]s for the simulator.
//!
//! What varies by class (see [`behavior`]):
//!
//! * **what they send** — SMTP, TCP/UDP/ICMP probes, fetches, or
//!   target-initiated service traffic;
//! * **whom they touch** — uniform address-space walks for scanners,
//!   mail-server pools for spam, residential eyeballs for CDNs and ad
//!   trackers, with per-originator geographic concentration;
//! * **how hard** — heavy-tailed daily footprints (bounded Pareto),
//!   giving the Fig. 9 distributions;
//! * **when** — diurnal modulation for human-driven classes, flat
//!   automation for ssh scanning and spam (Fig. 16);
//! * **for how long** — class-dependent lifetimes and replacement
//!   (churn), fast for malicious classes and slow for benign ones
//!   (Figs. 5, 6, 15).
//!
//! Everything derives deterministically from a scenario seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
mod class;
mod pools;
mod profile;
mod scenario;

pub use class::ApplicationClass;
pub use pools::{PoolKind, TargetPool, TargetPools};
pub use profile::{DiurnalPattern, OriginatorProfile, Targeting};
pub use scenario::{Scenario, ScenarioConfig, ScenarioEvent};

//! `backscatter-core` — the public face of the dns-backscatter system.
//!
//! DNS backscatter is the stream of reverse (`PTR`) queries that
//! firewalls, mail servers, and middleboxes near the *targets* of
//! network-wide activity send while looking up the activity's source.
//! Observed at an authoritative DNS server, that stream identifies and
//! classifies the *originators* — spammers, scanners, CDNs, crawlers —
//! without any cooperation from them (Fukuda & Heidemann, IMC 2015 /
//! IEEE-ToN 2017).
//!
//! This crate re-exports the whole system and adds the high-level
//! [`DatasetPipeline`](prelude::DatasetPipeline) that runs the paper's recommended
//! operation end to end over a dataset's windows, sensed in one pass
//! ([`sense_dataset`](prelude::sense_dataset)): curate labels once, retrain daily on
//! fresh features, classify every analyzable originator per window.
//!
//! # Crate map
//!
//! | module | crate | what it holds |
//! |---|---|---|
//! | [`dns`] | `bs-dns` | names, `in-addr.arpa`, wire codec, TTL caches |
//! | [`netsim`] | `bs-netsim` | the procedural Internet + backscatter simulator |
//! | [`activity`] | `bs-activity` | generative models of the 12 activity classes |
//! | [`sensor`] | `bs-sensor` | log ingestion + static/dynamic features |
//! | [`ml`] | `bs-ml` | CART, random forest, kernel SVM, metrics |
//! | [`classify`] | `bs-classify` | labels, training strategies, consistency |
//! | [`datasets`] | `bs-datasets` | the seven paper datasets + oracles |
//! | [`analysis`] | `bs-analysis` | footprints, trends, churn, teams |
//! | [`telemetry`] | `bs-telemetry` | one stage guard → metrics, causal trace, ledger, profiler; logging |
//! | [`live`] | `bs-live` | windowed rates, scrape endpoint, health watchdog |
//! | [`par`] | `bs-par` | deterministic scoped parallelism (`BS_THREADS`) |
//!
//! # Quickstart
//!
//! ```
//! use backscatter_core::prelude::*;
//!
//! // A small world and a two-day JP-style observation.
//! let world = World::new(WorldConfig::default());
//! let spec = DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 7);
//! let built = build_dataset(&world, spec);
//!
//! // Sense every window in one pass, then curate, train, classify.
//! let features = sense_dataset(&built, &world, &FeatureConfig::default());
//! let run = DatasetPipeline::default().run(&built, &features);
//! assert!(!run.windows.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bs_activity as activity;
pub use bs_analysis as analysis;
pub use bs_classify as classify;
pub use bs_datasets as datasets;
pub use bs_dns as dns;
pub use bs_live as live;
pub use bs_ml as ml;
pub use bs_netsim as netsim;
pub use bs_par as par;
pub use bs_sensor as sensor;
pub use bs_telemetry as telemetry;

mod pipeline;
pub mod stream;

/// The pool width, the telemetry flag word and the registry's counters
/// are process-wide and the unit tests share one process: every test
/// that sets or reads one holds this lock.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use crate::pipeline::{sense_dataset, DatasetPipeline, PipelineRun};
    pub use bs_activity::{ApplicationClass, Scenario, ScenarioConfig, ScenarioEvent};
    pub use bs_analysis::{ClassifiedOriginator, WindowClassification};
    pub use bs_classify::{ClassifierPipeline, LabeledSet, TrainingStrategy};
    pub use bs_datasets::{build_dataset, BuiltDataset, DatasetId, DatasetSpec, Scale};
    pub use bs_dns::{SimDuration, SimTime};
    pub use bs_ml::{Algorithm, CartParams, ForestParams, SvmParams};
    pub use bs_netsim::hierarchy::{AuthorityId, RootServer};
    pub use bs_netsim::world::{World, WorldConfig};
    pub use bs_netsim::{Simulator, SimulatorConfig};
    pub use bs_sensor::{
        extract_features, extract_with_meta_cache, FeatureConfig, OriginatorFeatures,
        QuerierMetaCache,
    };
}

//! Analyses of classified backscatter (paper §V-A, §VI).
//!
//! Everything here consumes per-window classification results — the
//! `(originator, footprint, class)` triples the pipeline emits — and
//! produces the series behind the paper's results figures: footprint
//! distributions (Fig. 9), top-N class mixes (Fig. 10, Table V),
//! activity trends with event bursts (Fig. 11–13), scanner teams per
//! /24 (Fig. 14, §VI-B), week-over-week churn (Fig. 15), and labeled-
//! example persistence (Figs. 5–6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bursts;
pub mod cases;
pub mod churn;
pub mod footprint;
pub mod geo;
pub mod report;
pub mod teams;
pub mod topn;
pub mod trends;

pub use bursts::{detect_bursts, Burst, BurstConfig};
pub use churn::{churn_series, persistence_series, ChurnWeek};
pub use footprint::{ccdf, counts_with_at_least};
pub use report::render_report;
pub use teams::{block_series, scan_teams, TeamSummary};
pub use topn::class_mix_top_n;
pub use trends::{class_counts_per_window, footprint_boxes, BoxStats};

use bs_activity::ApplicationClass;
use std::net::Ipv4Addr;

/// One classified originator in one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifiedOriginator {
    /// The originator.
    pub originator: Ipv4Addr,
    /// Unique queriers observed in the window.
    pub queriers: usize,
    /// Assigned (or ground-truth) class.
    pub class: ApplicationClass,
}

/// All classified originators of one observation window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowClassification {
    /// Window index in the dataset's window sequence.
    pub window: usize,
    /// The classified originators.
    pub entries: Vec<ClassifiedOriginator>,
}

impl WindowClassification {
    /// Entries of one class.
    pub fn of_class(&self, class: ApplicationClass) -> impl Iterator<Item = &ClassifiedOriginator> {
        self.entries.iter().filter(move |e| e.class == class)
    }
}

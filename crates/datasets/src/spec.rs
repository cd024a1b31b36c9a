//! Dataset descriptors and scaling.

use bs_activity::{ApplicationClass, ScenarioConfig, ScenarioEvent};
use bs_dns::{SimDuration, SimTime};
use bs_netsim::hierarchy::{AuthorityId, RootServer};
use bs_netsim::types::CountryCode;
use std::collections::BTreeMap;

/// The seven datasets of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetId {
    /// 50 hours at the JP national authority, unsampled.
    JpDitl,
    /// 36 hours at B-Root shortly after DITL 2014, unsampled.
    BPostDitl,
    /// Multi-month unsampled B-Root feed (controlled experiments).
    BLong,
    /// Multi-year unsampled B-Root feed (training-over-time studies).
    BMultiYear,
    /// 50 hours at M-Root, DITL 2014.
    MDitl,
    /// 50 hours at M-Root, DITL 2015.
    MDitl2015,
    /// Nine months at M-Root, deterministically sampled 1:10.
    MSampled,
}

impl DatasetId {
    /// All datasets.
    pub const ALL: [DatasetId; 7] = [
        DatasetId::JpDitl,
        DatasetId::BPostDitl,
        DatasetId::BLong,
        DatasetId::BMultiYear,
        DatasetId::MDitl,
        DatasetId::MDitl2015,
        DatasetId::MSampled,
    ];

    /// The paper's name for the dataset.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::JpDitl => "JP-ditl",
            DatasetId::BPostDitl => "B-post-ditl",
            DatasetId::BLong => "B-long",
            DatasetId::BMultiYear => "B-multi-year",
            DatasetId::MDitl => "M-ditl",
            DatasetId::MDitl2015 => "M-ditl-2015",
            DatasetId::MSampled => "M-sampled",
        }
    }
}

/// Simulation scale: multipliers applied to the canonical configs so the
/// same specs serve fast tests and full benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier on per-class slot counts.
    pub slot_scale: f64,
    /// Multiplier on per-originator daily footprints.
    pub rate_scale: f64,
    /// Multiplier on the span (long datasets only).
    pub duration_scale: f64,
}

impl Scale {
    /// Full benchmark scale.
    pub fn standard() -> Self {
        Scale { slot_scale: 1.0, rate_scale: 1.0, duration_scale: 1.0 }
    }

    /// Test scale: small populations, short spans.
    pub fn smoke() -> Self {
        Scale { slot_scale: 0.15, rate_scale: 0.6, duration_scale: 0.2 }
    }
}

/// A fully resolved dataset recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which paper dataset this replicates.
    pub id: DatasetId,
    /// The instrumented authority.
    pub authority: AuthorityId,
    /// Deterministic 1-in-N sampling at the authority, if any.
    pub sampling: Option<u32>,
    /// Feature-window length (the paper's `d`). `None` = whole span.
    pub(crate) feature_window: Option<SimDuration>,
    /// Stride between window starts; windows tile the span when equal
    /// to `feature_window`, or subsample it when larger (B-multi-year
    /// analyses one day per week).
    pub(crate) window_stride: Option<SimDuration>,
    /// The population and span.
    pub scenario: ScenarioConfig,
}

fn slots(pairs: &[(ApplicationClass, usize)], scale: f64) -> BTreeMap<ApplicationClass, usize> {
    pairs.iter().map(|(c, n)| (*c, ((*n as f64 * scale).round() as usize).max(1))).collect()
}

use ApplicationClass::*;

/// The JP-observable population: spam-heavy, regional (Table V row 1).
const JP_MIX: &[(ApplicationClass, usize)] = &[
    (Spam, 100),
    (Scan, 35),
    (Mail, 35),
    (P2p, 30),
    (Dns, 12),
    (AdTracker, 8),
    (Cloud, 8),
    (Crawler, 8),
    (Push, 8),
    (Ntp, 6),
    (Cdn, 6),
    (Update, 5),
];

/// The globally visible population roots see: mail/cdn/spam-heavy.
const GLOBAL_MIX: &[(ApplicationClass, usize)] = &[
    (Spam, 90),
    (Mail, 70),
    (Cdn, 50),
    (Scan, 50),
    (Cloud, 20),
    (Crawler, 15),
    (P2p, 15),
    (Push, 12),
    (AdTracker, 10),
    (Dns, 12),
    (Ntp, 6),
    (Update, 4),
];

impl DatasetSpec {
    /// The canonical recipe for one dataset at the given scale.
    ///
    /// `seed` separates independent replicas of the same dataset.
    pub fn paper(id: DatasetId, scale: Scale, seed: u64) -> DatasetSpec {
        let jp = CountryCode::new("jp").expect("static code");
        let day = SimDuration::from_days(1);
        let week = SimDuration::from_days(7);
        let scaled_days = |d: u64| {
            SimDuration::from_days(((d as f64 * scale.duration_scale).round() as u64).max(2))
        };
        match id {
            DatasetId::JpDitl => DatasetSpec {
                id,
                authority: AuthorityId::National(jp),
                sampling: None,
                feature_window: None,
                window_stride: None,
                scenario: ScenarioConfig {
                    seed: seed ^ 0x10,
                    duration: SimDuration::from_hours(50),
                    slots: slots(JP_MIX, scale.slot_scale),
                    rate_scale: scale.rate_scale,
                    region: Some((jp, 0.88)),
                    scan_teams: (2, 6),
                    events: Vec::new(),
                    pool_size: 4_000,
                },
            },
            DatasetId::BPostDitl | DatasetId::MDitl | DatasetId::MDitl2015 => {
                let (root, hours, s) = match id {
                    DatasetId::BPostDitl => (RootServer::B, 36, 0x20),
                    DatasetId::MDitl => (RootServer::M, 50, 0x30),
                    _ => (RootServer::M, 50, 0x31),
                };
                DatasetSpec {
                    id,
                    authority: AuthorityId::Root(root),
                    sampling: None,
                    feature_window: None,
                    window_stride: None,
                    scenario: ScenarioConfig {
                        seed: seed ^ s,
                        duration: SimDuration::from_hours(hours),
                        slots: slots(GLOBAL_MIX, scale.slot_scale),
                        rate_scale: scale.rate_scale * 2.0,
                        region: None,
                        scan_teams: (2, 5),
                        events: Vec::new(),
                        pool_size: 4_000,
                    },
                }
            }
            DatasetId::BLong => DatasetSpec {
                id,
                authority: AuthorityId::Root(RootServer::B),
                sampling: None,
                feature_window: Some(day),
                window_stride: Some(day),
                scenario: ScenarioConfig {
                    seed: seed ^ 0x40,
                    duration: scaled_days(56),
                    slots: slots(GLOBAL_MIX, scale.slot_scale * 0.5),
                    rate_scale: scale.rate_scale,
                    region: None,
                    scan_teams: (1, 5),
                    events: Vec::new(),
                    pool_size: 3_000,
                },
            },
            DatasetId::BMultiYear => DatasetSpec {
                id,
                authority: AuthorityId::Root(RootServer::B),
                sampling: None,
                feature_window: Some(day),
                // One observed day per week: the multi-year span is
                // studied at weekly resolution.
                window_stride: Some(week),
                scenario: ScenarioConfig {
                    seed: seed ^ 0x50,
                    duration: scaled_days(420),
                    slots: slots(GLOBAL_MIX, scale.slot_scale * 0.6),
                    rate_scale: scale.rate_scale * 2.0,
                    region: None,
                    scan_teams: (2, 5),
                    events: Vec::new(),
                    pool_size: 3_000,
                },
            },
            DatasetId::MSampled => {
                let duration = scaled_days(252);
                // Heartbleed lands seven weeks in (2014-02-16 →
                // 2014-04-07); Shellshock near the end (2014-09-24).
                let hb = SimTime((duration.secs() as f64 * 0.195) as u64);
                let ss = SimTime((duration.secs() as f64 * 0.87) as u64);
                DatasetSpec {
                    id,
                    authority: AuthorityId::Root(RootServer::M),
                    sampling: Some(10),
                    feature_window: Some(week),
                    window_stride: Some(week),
                    scenario: ScenarioConfig {
                        seed: seed ^ 0x60,
                        duration,
                        slots: slots(
                            &[
                                (Scan, 60),
                                (Spam, 55),
                                (Mail, 35),
                                (Cdn, 25),
                                (Cloud, 12),
                                (P2p, 10),
                                (AdTracker, 10),
                                (Crawler, 8),
                                (Push, 8),
                                (Dns, 8),
                                (Ntp, 4),
                                (Update, 3),
                            ],
                            scale.slot_scale,
                        ),
                        // Full per-originator rates: the 1:10 sampling
                        // at M-Root eats a decade of footprint, so
                        // originators must stay big enough to clear the
                        // 20-querier threshold after sampling.
                        rate_scale: scale.rate_scale,
                        region: None,
                        scan_teams: (4, 6),
                        events: vec![
                            ScenarioEvent::ScanSurge {
                                start: hb,
                                duration: SimDuration::from_days(21),
                                extra_scanners: (26.0 * scale.slot_scale).round() as usize,
                                port: 443,
                            },
                            ScenarioEvent::ScanSurge {
                                start: ss,
                                duration: SimDuration::from_days(14),
                                extra_scanners: (14.0 * scale.slot_scale).round() as usize,
                                port: 80,
                            },
                        ],
                        pool_size: 4_000,
                    },
                }
            }
        }
    }

    /// The feature windows tiling (or striding) the span:
    /// `(start, end)` pairs.
    pub fn windows(&self) -> Vec<(SimTime, SimTime)> {
        let span = self.scenario.duration;
        let Some(window) = self.feature_window else {
            return vec![(SimTime::ZERO, SimTime::ZERO + span)];
        };
        let stride = self.window_stride.unwrap_or(window);
        assert!(stride.secs() >= window.secs(), "stride must cover the window");
        let mut out = Vec::new();
        let mut start = SimTime::ZERO;
        while start.secs() + window.secs() <= span.secs() {
            out.push((start, start + window));
            start += stride;
        }
        out
    }

    /// Days of the span that need simulating at all: with a sparse
    /// window stride (B-multi-year), days between observed windows are
    /// skipped.
    pub(crate) fn days_to_simulate(&self) -> Vec<u64> {
        let total_days = self.scenario.duration.secs().div_ceil(86_400);
        match (self.feature_window, self.window_stride) {
            (Some(w), Some(s)) if s.secs() > w.secs() => {
                let mut days = Vec::new();
                for (from, until) in self.windows() {
                    let first = from.day();
                    let last = (until.secs() - 1) / 86_400;
                    for d in first..=last {
                        days.push(d);
                    }
                }
                days
            }
            _ => (0..total_days).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_instantiate() {
        for id in DatasetId::ALL {
            let spec = DatasetSpec::paper(id, Scale::smoke(), 1);
            assert_eq!(spec.id, id);
            assert!(!spec.scenario.slots.is_empty());
            assert!(!spec.windows().is_empty(), "{id:?} has no windows");
        }
    }

    #[test]
    fn ditl_specs_use_whole_span_window() {
        let spec = DatasetSpec::paper(DatasetId::JpDitl, Scale::standard(), 1);
        let w = spec.windows();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0], (SimTime::ZERO, SimTime::from_hours(50)));
        assert_eq!(spec.days_to_simulate().len(), 3, "50 h spans three calendar days");
    }

    #[test]
    fn msampled_tiles_weeks() {
        let spec = DatasetSpec::paper(DatasetId::MSampled, Scale::standard(), 1);
        let w = spec.windows();
        assert_eq!(w.len(), 36, "nine months of weekly windows");
        assert_eq!(spec.sampling, Some(10));
        // Contiguous tiling simulates every day.
        assert_eq!(spec.days_to_simulate().len(), 252);
    }

    #[test]
    fn multi_year_strides_sparsely() {
        let spec = DatasetSpec::paper(DatasetId::BMultiYear, Scale::standard(), 1);
        let w = spec.windows();
        assert_eq!(w.len(), 60, "60 weekly one-day windows");
        // Only one day per week is simulated.
        assert_eq!(spec.days_to_simulate().len(), 60);
    }

    #[test]
    fn smoke_scale_shrinks_everything() {
        let full = DatasetSpec::paper(DatasetId::MSampled, Scale::standard(), 1);
        let smoke = DatasetSpec::paper(DatasetId::MSampled, Scale::smoke(), 1);
        let sum = |s: &DatasetSpec| s.scenario.slots.values().sum::<usize>();
        assert!(sum(&smoke) * 3 < sum(&full));
        assert!(smoke.scenario.duration < full.scenario.duration);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 1);
        let b = DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 2);
        assert_ne!(a.scenario.seed, b.scenario.seed);
    }
}

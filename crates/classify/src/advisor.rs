//! The curation advisor (paper §V-F).
//!
//! "Meanwhile labeled examples re-appearance count informs about next
//! expert curation." — the paper's recommended operation watches how
//! many curated examples are still active and calls the expert back
//! when the classifier is about to starve. This module implements that
//! watch: per-window re-appearance fractions, split by class group
//! (malicious labels churn an order of magnitude faster), with a
//! recommendation when either group falls below its floor.

use crate::labels::LabeledSet;
use crate::pipeline::FeatureMap;

/// Advisor thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvisorConfig {
    /// Re-curate when the active fraction of malicious labels falls
    /// below this (the paper sees malicious halve within a month).
    pub(crate) malicious_floor: f64,
    /// Re-curate when the active fraction of benign labels falls below
    /// this.
    pub(crate) benign_floor: f64,
    /// Minimum *absolute* active examples per group regardless of
    /// fractions (the paper wants ~20 per class, ~200 total; per group
    /// we default to 15).
    pub min_active: usize,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig { malicious_floor: 0.5, benign_floor: 0.6, min_active: 15 }
    }
}

/// One window's label-health reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelHealth {
    /// Curated malicious examples still active (re-appearing).
    pub malicious_active: usize,
    /// Curated malicious examples total.
    pub malicious_total: usize,
    /// Curated benign examples still active.
    pub benign_active: usize,
    /// Curated benign examples total.
    pub benign_total: usize,
}

impl LabelHealth {
    /// Measure how much of `labels` re-appears in a window's features.
    pub fn measure(labels: &LabeledSet, features: &FeatureMap) -> LabelHealth {
        let mut h = LabelHealth {
            malicious_active: 0,
            malicious_total: 0,
            benign_active: 0,
            benign_total: 0,
        };
        for e in &labels.examples {
            let active = features.contains_key(&e.originator);
            if e.class.is_malicious() {
                h.malicious_total += 1;
                h.malicious_active += active as usize;
            } else {
                h.benign_total += 1;
                h.benign_active += active as usize;
            }
        }
        h
    }

    /// Active fraction of malicious labels (1.0 when none were curated).
    pub fn malicious_fraction(&self) -> f64 {
        if self.malicious_total == 0 {
            1.0
        } else {
            self.malicious_active as f64 / self.malicious_total as f64
        }
    }

    /// Active fraction of benign labels.
    pub fn benign_fraction(&self) -> f64 {
        if self.benign_total == 0 {
            1.0
        } else {
            self.benign_active as f64 / self.benign_total as f64
        }
    }
}

/// The advisor's verdict for one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurationAdvice {
    /// The labeled set is healthy; keep retraining daily.
    Healthy,
    /// Malicious labels have churned out: schedule an expert pass.
    RecurateMalicious,
    /// Benign labels have decayed too: full re-curation.
    RecurateAll,
}

/// Judge a window's label health.
pub fn advise(health: &LabelHealth, config: &AdvisorConfig) -> CurationAdvice {
    let benign_bad = health.benign_fraction() < config.benign_floor
        || health.benign_active < config.min_active.min(health.benign_total);
    let malicious_bad = health.malicious_fraction() < config.malicious_floor
        || health.malicious_active < config.min_active.min(health.malicious_total);
    match (malicious_bad, benign_bad) {
        (_, true) => CurationAdvice::RecurateAll,
        (true, false) => CurationAdvice::RecurateMalicious,
        (false, false) => CurationAdvice::Healthy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabeledExample;
    use bs_activity::ApplicationClass;
    use bs_sensor::{DynamicFeatures, FeatureVector};
    use std::net::Ipv4Addr;

    fn fv() -> FeatureVector {
        FeatureVector { static_fractions: [0.0; 14], dynamic: DynamicFeatures::default() }
    }

    fn labels(n_mal: u8, n_ben: u8) -> LabeledSet {
        let mut examples = Vec::new();
        for i in 0..n_mal {
            examples.push(LabeledExample {
                originator: Ipv4Addr::new(10, 0, 0, i),
                class: ApplicationClass::Spam,
            });
        }
        for i in 0..n_ben {
            examples.push(LabeledExample {
                originator: Ipv4Addr::new(10, 0, 1, i),
                class: ApplicationClass::Mail,
            });
        }
        LabeledSet { examples }
    }

    fn window(mal_active: u8, ben_active: u8) -> FeatureMap {
        let mut m = FeatureMap::new();
        for i in 0..mal_active {
            m.insert(Ipv4Addr::new(10, 0, 0, i), fv());
        }
        for i in 0..ben_active {
            m.insert(Ipv4Addr::new(10, 0, 1, i), fv());
        }
        m
    }

    #[test]
    fn health_fractions() {
        let l = labels(20, 20);
        let h = LabelHealth::measure(&l, &window(10, 18));
        assert_eq!(h.malicious_active, 10);
        assert!((h.malicious_fraction() - 0.5).abs() < 1e-12);
        assert!((h.benign_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn advice_tracks_group_decay() {
        let l = labels(20, 20);
        let cfg = AdvisorConfig::default();
        // Fresh: everything active.
        assert_eq!(
            advise(&LabelHealth::measure(&l, &window(20, 20)), &cfg),
            CurationAdvice::Healthy
        );
        // Malicious halved-minus-one: malicious-only recuration.
        assert_eq!(
            advise(&LabelHealth::measure(&l, &window(9, 19)), &cfg),
            CurationAdvice::RecurateMalicious
        );
        // Benign decayed too: full pass.
        assert_eq!(
            advise(&LabelHealth::measure(&l, &window(9, 8)), &cfg),
            CurationAdvice::RecurateAll
        );
    }

    #[test]
    fn absolute_floor_triggers_even_at_good_fractions() {
        // Tiny curated set: 4 of 5 malicious active is an 0.8 fraction
        // but only 4 absolute — below min_active.min(total)=5.
        let l = labels(5, 20);
        let cfg = AdvisorConfig { min_active: 15, ..Default::default() };
        let advice = advise(&LabelHealth::measure(&l, &window(4, 20)), &cfg);
        assert_eq!(advice, CurationAdvice::RecurateMalicious);
    }

    #[test]
    fn empty_label_set_is_trivially_healthy() {
        let l = LabeledSet::default();
        let advice = advise(&LabelHealth::measure(&l, &window(0, 0)), &AdvisorConfig::default());
        assert_eq!(advice, CurationAdvice::Healthy);
    }
}

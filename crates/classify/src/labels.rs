//! Curated labeled sets (paper §III-E, §IV-B).

use bs_activity::ApplicationClass;
use bs_sensor::OriginatorFeatures;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Per-class cap at every expert curation of the paper's operation:
/// the pipeline's, the experiment registry's and the CLI's.
pub const PER_CLASS_CAP: usize = 140;

/// One expert-labeled originator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledExample {
    /// The originator address.
    pub originator: Ipv4Addr,
    /// Its curated application class.
    pub class: ApplicationClass,
}

/// A curated set of labeled examples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabeledSet {
    /// The examples, at most one per originator.
    pub examples: Vec<LabeledExample>,
}

impl LabeledSet {
    /// Curate a labeled set the way the paper's experts do: intersect
    /// external knowledge (`truth`) with the observed top originators,
    /// then cap each class at `per_class_cap` (largest footprints
    /// first) so no class swamps training.
    ///
    /// Originators with conflicting truth entries are skipped (the
    /// paper strives "for accuracy over quantity").
    pub fn curate(
        truth: &BTreeMap<Ipv4Addr, ApplicationClass>,
        observed: &[OriginatorFeatures],
        per_class_cap: usize,
    ) -> Self {
        let set = ranked_by_footprint(
            observed.iter().filter_map(|f| {
                truth.get(&f.originator).map(|class| (*class, f.querier_count, f.originator))
            }),
            per_class_cap,
        );
        bs_telemetry::counter_add("classify.curated_examples", set.len() as u64);
        set
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// True when no examples exist.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Per-class example counts (Table VI's rows).
    pub fn class_counts(&self) -> BTreeMap<ApplicationClass, usize> {
        let mut counts = BTreeMap::new();
        for e in &self.examples {
            *counts.entry(e.class).or_insert(0) += 1;
        }
        counts
    }

    /// The examples whose originators appear in `features` — the
    /// "re-appearing labeled examples" used to validate over time.
    pub fn reappearing<'a>(
        &'a self,
        features: &BTreeMap<Ipv4Addr, bs_sensor::FeatureVector>,
    ) -> Vec<&'a LabeledExample> {
        self.examples.iter().filter(|e| features.contains_key(&e.originator)).collect()
    }

    /// Merge `other` into `self`, keeping existing labels on conflict.
    pub fn merge(&mut self, other: &LabeledSet) {
        use std::collections::BTreeSet;
        let have: BTreeSet<Ipv4Addr> = self.examples.iter().map(|e| e.originator).collect();
        for e in &other.examples {
            if !have.contains(&e.originator) {
                self.examples.push(*e);
            }
        }
    }
}

/// The curation ranking every labeled set shares: group `(class,
/// footprint, originator)` candidates by class, order each class by
/// footprint (largest first, then address) and keep its first
/// `per_class_cap`. Classes come out in class order.
pub(crate) fn ranked_by_footprint(
    candidates: impl IntoIterator<Item = (ApplicationClass, usize, Ipv4Addr)>,
    per_class_cap: usize,
) -> LabeledSet {
    let mut by_class: BTreeMap<ApplicationClass, Vec<(usize, Ipv4Addr)>> = BTreeMap::new();
    for (class, footprint, originator) in candidates {
        by_class.entry(class).or_default().push((footprint, originator));
    }
    let mut examples = Vec::new();
    for (class, mut v) in by_class {
        v.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        v.truncate(per_class_cap);
        examples.extend(v.into_iter().map(|(_, originator)| LabeledExample { originator, class }));
    }
    LabeledSet { examples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_sensor::{DynamicFeatures, FeatureVector};

    fn feat(ip: &str, queriers: usize) -> OriginatorFeatures {
        OriginatorFeatures {
            originator: ip.parse().unwrap(),
            querier_count: queriers,
            query_count: queriers * 2,
            features: FeatureVector {
                static_fractions: [0.0; 14],
                dynamic: DynamicFeatures::default(),
            },
        }
    }

    fn truth(entries: &[(&str, ApplicationClass)]) -> BTreeMap<Ipv4Addr, ApplicationClass> {
        entries.iter().map(|(ip, c)| (ip.parse().unwrap(), *c)).collect()
    }

    #[test]
    fn curation_intersects_truth_and_observation() {
        let t = truth(&[
            ("10.0.0.1", ApplicationClass::Spam),
            ("10.0.0.2", ApplicationClass::Scan),
            ("10.0.0.3", ApplicationClass::Spam), // not observed
        ]);
        let observed = vec![feat("10.0.0.1", 50), feat("10.0.0.2", 30), feat("10.0.0.9", 99)];
        let set = LabeledSet::curate(&t, &observed, 10);
        assert_eq!(set.len(), 2);
        assert_eq!(set.class_counts()[&ApplicationClass::Spam], 1);
        assert_eq!(set.class_counts()[&ApplicationClass::Scan], 1);
    }

    #[test]
    fn per_class_cap_keeps_largest_footprints() {
        let t = truth(&[
            ("10.0.0.1", ApplicationClass::Spam),
            ("10.0.0.2", ApplicationClass::Spam),
            ("10.0.0.3", ApplicationClass::Spam),
        ]);
        let observed = vec![feat("10.0.0.1", 10), feat("10.0.0.2", 99), feat("10.0.0.3", 50)];
        let set = LabeledSet::curate(&t, &observed, 2);
        assert_eq!(set.len(), 2);
        let ips: Vec<Ipv4Addr> = set.examples.iter().map(|e| e.originator).collect();
        assert!(ips.contains(&"10.0.0.2".parse().unwrap()));
        assert!(ips.contains(&"10.0.0.3".parse().unwrap()));
    }

    #[test]
    fn reappearing_filters_by_feature_presence() {
        let t =
            truth(&[("10.0.0.1", ApplicationClass::Spam), ("10.0.0.2", ApplicationClass::Scan)]);
        let observed = vec![feat("10.0.0.1", 50), feat("10.0.0.2", 30)];
        let set = LabeledSet::curate(&t, &observed, 10);
        let mut fmap = BTreeMap::new();
        fmap.insert(
            "10.0.0.1".parse().unwrap(),
            FeatureVector { static_fractions: [0.0; 14], dynamic: DynamicFeatures::default() },
        );
        let re = set.reappearing(&fmap);
        assert_eq!(re.len(), 1);
        assert_eq!(re[0].class, ApplicationClass::Spam);
    }

    #[test]
    fn merge_prefers_existing_labels() {
        let mut a = LabeledSet {
            examples: vec![LabeledExample {
                originator: "10.0.0.1".parse().unwrap(),
                class: ApplicationClass::Spam,
            }],
        };
        let b = LabeledSet {
            examples: vec![
                LabeledExample {
                    originator: "10.0.0.1".parse().unwrap(),
                    class: ApplicationClass::Mail, // conflict: ignored
                },
                LabeledExample {
                    originator: "10.0.0.2".parse().unwrap(),
                    class: ApplicationClass::Scan,
                },
            ],
        };
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.examples[0].class, ApplicationClass::Spam);
    }
}

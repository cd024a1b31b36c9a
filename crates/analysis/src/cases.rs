//! Case tables: the paper's Tables VII and VIII — top originators with
//! external-source correlation (darknet addresses, blacklist counts,
//! PTR TTL, assigned class).

use bs_activity::ApplicationClass;
use bs_datasets_types::{BlacklistView, DarknetView};
use bs_netsim::hierarchy::PtrPolicy;
use bs_netsim::world::World;
use bs_sensor::OriginatorFeatures;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Minimal views of the external oracles so this crate does not depend
/// on `bs-datasets` (which depends on nothing here; the dependency
/// would be fine but the traits keep the analysis generic).
pub mod bs_datasets_types {
    use std::net::Ipv4Addr;

    /// Read access to a blacklist oracle.
    pub trait BlacklistView {
        /// Spam-list count.
        fn bls(&self, ip: Ipv4Addr) -> u8;
        /// Other-malice list count.
        fn blo(&self, ip: Ipv4Addr) -> u8;
    }

    /// Read access to a darknet oracle.
    pub trait DarknetView {
        /// Distinct dark addresses touched.
        fn dark_ips(&self, ip: Ipv4Addr) -> u64;
    }
}

/// One row of a top-originator table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRow {
    /// Rank by unique queriers (1-based).
    pub rank: usize,
    /// The originator.
    pub originator: Ipv4Addr,
    /// Unique queriers.
    pub queriers: usize,
    /// PTR TTL description: `Some(ttl)` for existing records, negative
    /// cache TTL for NXDOMAIN, `None` for unreachable (the table's `F`).
    pub ttl: TtlColumn,
    /// Darknet addresses receiving the originator's packets.
    pub dark_ips: u64,
    /// Spam blacklist count.
    pub bls: u8,
    /// Other blacklist count.
    pub blo: u8,
    /// Class assigned by the classifier.
    pub class: Option<ApplicationClass>,
}

/// The TTL column of Tables VII/VIII.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtlColumn {
    /// A PTR record exists with this TTL.
    Positive(u32),
    /// Negative-cache TTL (the tables' dagger rows).
    Negative(u32),
    /// Authority unreachable (the tables' `F`).
    Failure,
}

/// Build the top-`n` case table for a dataset.
pub fn top_originator_table(
    world: &World,
    features: &[OriginatorFeatures],
    classified: &BTreeMap<Ipv4Addr, ApplicationClass>,
    blacklist: &impl BlacklistView,
    darknet: &impl DarknetView,
    n: usize,
) -> Vec<CaseRow> {
    // `features` is already ranked by footprint (sensor contract).
    features
        .iter()
        .take(n)
        .enumerate()
        .map(|(i, f)| {
            let ttl = match world.ptr_policy(f.originator) {
                PtrPolicy::Exists { ttl } => TtlColumn::Positive(ttl),
                PtrPolicy::NxDomain { neg_ttl } => TtlColumn::Negative(neg_ttl),
                PtrPolicy::Unreachable => TtlColumn::Failure,
            };
            CaseRow {
                rank: i + 1,
                originator: f.originator,
                queriers: f.querier_count,
                ttl,
                dark_ips: darknet.dark_ips(f.originator),
                bls: blacklist.bls(f.originator),
                blo: blacklist.blo(f.originator),
                class: classified.get(&f.originator).copied(),
            }
        })
        .collect()
}

/// How many of the top rows are "clean": no darknet evidence and no
/// blacklist listing (the paper finds 4 of JP's top 30 clean).
pub fn clean_rows(rows: &[CaseRow]) -> usize {
    rows.iter().filter(|r| r.dark_ips == 0 && r.bls == 0 && r.blo == 0).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_netsim::world::WorldConfig;
    use bs_sensor::{DynamicFeatures, FeatureVector};

    struct ToyBl;
    impl BlacklistView for ToyBl {
        fn bls(&self, ip: Ipv4Addr) -> u8 {
            u8::from(ip.octets()[3].is_multiple_of(2))
        }
        fn blo(&self, _ip: Ipv4Addr) -> u8 {
            0
        }
    }
    struct ToyDn;
    impl DarknetView for ToyDn {
        fn dark_ips(&self, ip: Ipv4Addr) -> u64 {
            if ip.octets()[3] == 1 {
                49_000
            } else {
                0
            }
        }
    }

    fn feats(ips: &[(&str, usize)]) -> Vec<OriginatorFeatures> {
        ips.iter()
            .map(|(ip, q)| OriginatorFeatures {
                originator: ip.parse().unwrap(),
                querier_count: *q,
                query_count: q * 2,
                features: FeatureVector {
                    static_fractions: [0.0; 14],
                    dynamic: DynamicFeatures::default(),
                },
            })
            .collect()
    }

    #[test]
    fn table_ranks_and_correlates() {
        let world = World::new(WorldConfig::default());
        let features = feats(&[("10.0.0.1", 500), ("10.0.0.2", 300), ("10.0.0.3", 100)]);
        let mut classified = BTreeMap::new();
        classified.insert("10.0.0.1".parse().unwrap(), ApplicationClass::Scan);
        let rows = top_originator_table(&world, &features, &classified, &ToyBl, &ToyDn, 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].rank, 1);
        assert_eq!(rows[0].queriers, 500);
        assert_eq!(rows[0].dark_ips, 49_000);
        assert_eq!(rows[0].class, Some(ApplicationClass::Scan));
        assert_eq!(rows[1].bls, 1);
        assert_eq!(rows[1].class, None);
    }

    #[test]
    fn clean_row_counting() {
        let world = World::new(WorldConfig::default());
        let features = feats(&[("10.0.0.3", 100), ("10.0.0.5", 80)]);
        let rows = top_originator_table(&world, &features, &BTreeMap::new(), &ToyBl, &ToyDn, 10);
        // .3 and .5 are odd → no bls, no darknet → both clean.
        assert_eq!(clean_rows(&rows), 2);
    }
}

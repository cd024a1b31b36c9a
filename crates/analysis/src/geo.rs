//! Geographic analysis of originators.
//!
//! The paper repeatedly reads geography off its tables: M-ditl's top
//! scanners sit in Chinese hosting space, CDN visibility follows
//! anycast placement, and JP-ditl is regional by construction. This
//! module computes per-class country distributions of classified
//! originators so those observations become queryable instead of
//! anecdotal.

use crate::WindowClassification;
use bs_activity::ApplicationClass;
use bs_netsim::types::CountryCode;
use bs_netsim::world::World;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Per-class country histogram of distinct originators.
pub(crate) type GeoBreakdown = BTreeMap<ApplicationClass, BTreeMap<CountryCode, usize>>;

/// Count distinct originators per (class, country) across windows.
/// Originators in unusable space (no country) are skipped.
pub fn geo_breakdown(world: &World, windows: &[WindowClassification]) -> GeoBreakdown {
    let mut seen: BTreeSet<(ApplicationClass, Ipv4Addr)> = BTreeSet::new();
    let mut out: GeoBreakdown = BTreeMap::new();
    for w in windows {
        for e in &w.entries {
            if !seen.insert((e.class, e.originator)) {
                continue;
            }
            if let Some(cc) = world.country_of(e.originator) {
                *out.entry(e.class).or_default().entry(cc).or_insert(0) += 1;
            }
        }
    }
    out
}

/// The top `n` countries for one class, largest first, with the
/// fraction of that class's originators they host.
pub fn top_countries(
    breakdown: &GeoBreakdown,
    class: ApplicationClass,
    n: usize,
) -> Vec<(CountryCode, usize, f64)> {
    let Some(per_country) = breakdown.get(&class) else {
        return Vec::new();
    };
    let total: usize = per_country.values().sum();
    let mut v: Vec<(CountryCode, usize)> = per_country.iter().map(|(c, k)| (*c, *k)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(n);
    v.into_iter().map(|(c, k)| (c, k, k as f64 / total.max(1) as f64)).collect()
}

/// Geographic concentration of a class: the fraction of its originators
/// hosted by its single busiest country (1.0 = fully concentrated,
/// → 1/#countries = dispersed). Scanners-for-hire cluster in hosting
/// countries; mail infrastructure spreads with population.
pub fn concentration(breakdown: &GeoBreakdown, class: ApplicationClass) -> Option<f64> {
    let per_country = breakdown.get(&class)?;
    let total: usize = per_country.values().sum();
    let max = per_country.values().copied().max()?;
    if total == 0 {
        None
    } else {
        Some(max as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassifiedOriginator;
    use bs_netsim::world::WorldConfig;

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    fn entry(ip: Ipv4Addr, class: ApplicationClass) -> ClassifiedOriginator {
        ClassifiedOriginator { originator: ip, queriers: 30, class }
    }

    #[test]
    fn breakdown_counts_distinct_originators_once() {
        let w = world();
        let a = w.random_public_addr(1);
        let windows = vec![
            WindowClassification { window: 0, entries: vec![entry(a, ApplicationClass::Scan)] },
            WindowClassification { window: 1, entries: vec![entry(a, ApplicationClass::Scan)] },
        ];
        let g = geo_breakdown(&w, &windows);
        let total: usize = g[&ApplicationClass::Scan].values().sum();
        assert_eq!(total, 1, "same originator in two windows counts once");
    }

    #[test]
    fn top_countries_are_ordered_with_fractions() {
        let w = world();
        // Gather addresses from two known countries.
        let jp = CountryCode::new("jp").unwrap();
        let us = CountryCode::new("us").unwrap();
        let jp8 = w.slash8s_of(jp)[0];
        let us8 = w.slash8s_of(us)[0];
        let mut entries = Vec::new();
        for i in 0..6u8 {
            entries.push(entry(Ipv4Addr::new(jp8, 1, 1, i), ApplicationClass::Spam));
        }
        for i in 0..2u8 {
            entries.push(entry(Ipv4Addr::new(us8, 1, 1, i), ApplicationClass::Spam));
        }
        let g = geo_breakdown(&w, &[WindowClassification { window: 0, entries }]);
        let top = top_countries(&g, ApplicationClass::Spam, 5);
        assert_eq!(top[0].0, jp);
        assert_eq!(top[0].1, 6);
        assert!((top[0].2 - 0.75).abs() < 1e-12);
        assert_eq!(top[1].0, us);
        assert_eq!(concentration(&g, ApplicationClass::Spam), Some(0.75));
    }

    #[test]
    fn absent_class_is_empty() {
        let w = world();
        let g = geo_breakdown(&w, &[]);
        assert!(top_countries(&g, ApplicationClass::Ntp, 3).is_empty());
        assert_eq!(concentration(&g, ApplicationClass::Ntp), None);
    }
}

//! Scanner teams: coordinated scanning from shared /24 blocks
//! (paper §VI-B "a new observation in our data", Fig. 14).

use crate::WindowClassification;
use bs_activity::ApplicationClass;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Aggregate team statistics over a whole dataset (the §VI-B numbers:
/// unique scan originators, /24 blocks, blocks with ≥ 4 scanners,
/// single-class blocks among them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeamSummary {
    /// Distinct scan-classified originator addresses.
    pub scan_originators: usize,
    /// Distinct /24 blocks hosting them.
    pub blocks: usize,
    /// Blocks hosting at least `team_threshold` scan originators.
    pub candidate_teams: usize,
    /// Candidate-team blocks where *all* observed originators share one
    /// class (stronger evidence of coordination).
    pub single_class_teams: usize,
    /// The threshold used.
    pub team_threshold: usize,
}

fn block_of(ip: Ipv4Addr) -> u32 {
    u32::from(ip) & 0xFFFF_FF00
}

/// Compute team statistics across all windows.
pub fn scan_teams(windows: &[WindowClassification], team_threshold: usize) -> TeamSummary {
    let mut scan_ips: BTreeSet<Ipv4Addr> = BTreeSet::new();
    // block → (scan originators, all classes seen in block)
    let mut per_block: BTreeMap<u32, (BTreeSet<Ipv4Addr>, BTreeSet<ApplicationClass>)> =
        BTreeMap::new();
    for w in windows {
        for e in &w.entries {
            let slot = per_block.entry(block_of(e.originator)).or_default();
            slot.1.insert(e.class);
            if e.class == ApplicationClass::Scan {
                scan_ips.insert(e.originator);
                slot.0.insert(e.originator);
            }
        }
    }
    let scan_blocks: Vec<&(BTreeSet<Ipv4Addr>, BTreeSet<ApplicationClass>)> =
        per_block.values().filter(|(scanners, _)| !scanners.is_empty()).collect();
    let candidates: Vec<_> =
        scan_blocks.iter().filter(|(scanners, _)| scanners.len() >= team_threshold).collect();
    let single_class = candidates.iter().filter(|(_, classes)| classes.len() == 1).count();
    TeamSummary {
        scan_originators: scan_ips.len(),
        blocks: scan_blocks.len(),
        candidate_teams: candidates.len(),
        single_class_teams: single_class,
        team_threshold,
    }
}

/// Per-window count of scanning addresses inside chosen /24 blocks
/// (Fig. 14's five example blocks): `block_prefix → [(window, count)]`.
pub fn block_series(
    windows: &[WindowClassification],
    blocks: &[Ipv4Addr],
) -> BTreeMap<Ipv4Addr, Vec<(usize, usize)>> {
    let keys: BTreeSet<u32> = blocks.iter().map(|b| block_of(*b)).collect();
    let mut out: BTreeMap<Ipv4Addr, Vec<(usize, usize)>> = BTreeMap::new();
    for w in windows {
        let mut counts: BTreeMap<u32, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for e in w.of_class(ApplicationClass::Scan) {
            let b = block_of(e.originator);
            if keys.contains(&b) {
                counts.entry(b).or_default().insert(e.originator);
            }
        }
        for (b, ips) in counts {
            out.entry(Ipv4Addr::from(b)).or_default().push((w.window, ips.len()));
        }
    }
    out
}

/// The /24 blocks with the most scan originators across all windows,
/// largest first — candidates for Fig. 14.
pub fn busiest_scan_blocks(windows: &[WindowClassification], n: usize) -> Vec<(Ipv4Addr, usize)> {
    let mut per_block: BTreeMap<u32, BTreeSet<Ipv4Addr>> = BTreeMap::new();
    for w in windows {
        for e in w.of_class(ApplicationClass::Scan) {
            per_block.entry(block_of(e.originator)).or_default().insert(e.originator);
        }
    }
    let mut v: Vec<(Ipv4Addr, usize)> =
        per_block.into_iter().map(|(b, ips)| (Ipv4Addr::from(b), ips.len())).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(n);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::ClassifiedOriginator;

    fn entry(ip: &str, class: ApplicationClass) -> ClassifiedOriginator {
        ClassifiedOriginator { originator: ip.parse().unwrap(), queriers: 30, class }
    }

    fn team_window() -> WindowClassification {
        WindowClassification {
            window: 0,
            entries: vec![
                // A 4-scanner team in 10.0.0.0/24.
                entry("10.0.0.1", ApplicationClass::Scan),
                entry("10.0.0.2", ApplicationClass::Scan),
                entry("10.0.0.3", ApplicationClass::Scan),
                entry("10.0.0.4", ApplicationClass::Scan),
                // A mixed block: scanners + spam.
                entry("10.0.1.1", ApplicationClass::Scan),
                entry("10.0.1.2", ApplicationClass::Scan),
                entry("10.0.1.3", ApplicationClass::Scan),
                entry("10.0.1.4", ApplicationClass::Scan),
                entry("10.0.1.5", ApplicationClass::Spam),
                // A lone scanner.
                entry("10.0.2.1", ApplicationClass::Scan),
            ],
        }
    }

    #[test]
    fn team_summary_counts() {
        let s = scan_teams(&[team_window()], 4);
        assert_eq!(s.scan_originators, 9);
        assert_eq!(s.blocks, 3);
        assert_eq!(s.candidate_teams, 2);
        assert_eq!(s.single_class_teams, 1, "only the pure block counts");
    }

    #[test]
    fn block_series_tracks_membership_over_time() {
        let w0 = team_window();
        let mut w1 = team_window();
        w1.window = 1;
        w1.entries.retain(|e| e.originator != "10.0.0.4".parse::<Ipv4Addr>().unwrap());
        let series = block_series(&[w0, w1], &["10.0.0.0".parse().unwrap()]);
        let s = &series[&"10.0.0.0".parse::<Ipv4Addr>().unwrap()];
        assert_eq!(s, &vec![(0, 4), (1, 3)]);
    }

    #[test]
    fn busiest_blocks_ranked() {
        let blocks = busiest_scan_blocks(&[team_window()], 2);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].1, 4);
        assert_eq!(blocks[1].1, 4);
    }
}

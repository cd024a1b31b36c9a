//! Classification consistency over time (paper §V-E, Fig. 8).
//!
//! Classifying the same originator week after week, the paper measures
//! *r*: the fraction of weeks in which the originator's most common
//! class was assigned. High *r* means stable, trustworthy votes; *r*
//! ≤ 0.5 suggests an originator doing two things or a weak classifier.

use bs_activity::ApplicationClass;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One week's classification of one originator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeeklyVote {
    /// The originator.
    pub originator: Ipv4Addr,
    /// Week index.
    pub week: usize,
    /// Assigned class.
    pub class: ApplicationClass,
    /// Footprint that week (unique queriers), for the q threshold.
    pub queriers: usize,
}

/// Compute `r` per originator over all votes, keeping originators with
/// at least `min_weeks` votes whose *every* counted vote has ≥ `q`
/// queriers.
///
/// Returns `(originator, r, majority_class, weeks)` tuples.
pub fn consistency_ratios(
    votes: &[WeeklyVote],
    q: usize,
    min_weeks: usize,
) -> Vec<(Ipv4Addr, f64, ApplicationClass, usize)> {
    let mut per_orig: BTreeMap<Ipv4Addr, Vec<ApplicationClass>> = BTreeMap::new();
    for v in votes {
        if v.queriers >= q {
            per_orig.entry(v.originator).or_default().push(v.class);
        }
    }
    per_orig
        .into_iter()
        .filter(|(_, classes)| classes.len() >= min_weeks)
        .map(|(ip, classes)| {
            let mut counts: BTreeMap<ApplicationClass, usize> = BTreeMap::new();
            for c in &classes {
                *counts.entry(*c).or_insert(0) += 1;
            }
            let (majority, n) =
                counts.into_iter().max_by_key(|(_, n)| *n).expect("non-empty votes");
            (ip, n as f64 / classes.len() as f64, majority, classes.len())
        })
        .collect()
}

/// Normalized Shannon entropy of one originator's class votes, in
/// `[0, 1]` (0 = one class only, 1 = uniform over observed classes).
///
/// §V-E uses this to check the plurality cases: "we find that usually
/// there is a single dominant class and multiple others, not two nearly
/// equally common classes" — i.e. low entropy even when r ≤ 0.5.
pub fn vote_entropy(votes: &[WeeklyVote], originator: Ipv4Addr, q: usize) -> Option<f64> {
    let classes: Vec<ApplicationClass> = votes
        .iter()
        .filter(|v| v.originator == originator && v.queriers >= q)
        .map(|v| v.class)
        .collect();
    if classes.len() < 2 {
        return None;
    }
    let mut counts: BTreeMap<ApplicationClass, usize> = BTreeMap::new();
    for c in &classes {
        *counts.entry(*c).or_insert(0) += 1;
    }
    if counts.len() < 2 {
        return Some(0.0);
    }
    let n = classes.len() as f64;
    let h: f64 = counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum();
    Some(h / (counts.len() as f64).ln())
}

/// The cumulative distribution of `r` values: sorted `(r, cdf)` points.
pub fn consistency_cdf(ratios: &[f64]) -> Vec<(f64, f64)> {
    if ratios.is_empty() {
        return Vec::new();
    }
    let mut sorted = ratios.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let n = sorted.len() as f64;
    sorted.iter().enumerate().map(|(i, r)| (*r, (i + 1) as f64 / n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vote(ip: &str, week: usize, class: ApplicationClass, q: usize) -> WeeklyVote {
        WeeklyVote { originator: ip.parse().unwrap(), week, class, queriers: q }
    }

    #[test]
    fn perfectly_consistent_originator_has_r_one() {
        let votes: Vec<WeeklyVote> =
            (0..8).map(|w| vote("10.0.0.1", w, ApplicationClass::Scan, 30)).collect();
        let r = consistency_ratios(&votes, 20, 4);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1, 1.0);
        assert_eq!(r[0].2, ApplicationClass::Scan);
        assert_eq!(r[0].3, 8);
    }

    #[test]
    fn split_votes_give_fractional_r() {
        let mut votes = Vec::new();
        for w in 0..6 {
            let class = if w < 4 { ApplicationClass::Spam } else { ApplicationClass::Mail };
            votes.push(vote("10.0.0.2", w, class, 25));
        }
        let r = consistency_ratios(&votes, 20, 4);
        assert_eq!(r.len(), 1);
        assert!((r[0].1 - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(r[0].2, ApplicationClass::Spam);
    }

    #[test]
    fn q_threshold_filters_low_footprint_weeks() {
        let mut votes = Vec::new();
        for w in 0..6 {
            votes.push(vote("10.0.0.3", w, ApplicationClass::Scan, if w < 3 { 100 } else { 10 }));
        }
        // With q=50 only 3 weeks count — below min_weeks=4.
        assert!(consistency_ratios(&votes, 50, 4).is_empty());
        // With q=5 all 6 weeks count.
        assert_eq!(consistency_ratios(&votes, 5, 4).len(), 1);
    }

    #[test]
    fn min_weeks_excludes_sparse_originators() {
        let votes = vec![
            vote("10.0.0.4", 0, ApplicationClass::Cdn, 30),
            vote("10.0.0.4", 1, ApplicationClass::Cdn, 30),
        ];
        assert!(consistency_ratios(&votes, 20, 4).is_empty());
        assert_eq!(consistency_ratios(&votes, 20, 2).len(), 1);
    }

    #[test]
    fn vote_entropy_reflects_dominance() {
        // 6 scan, 1 spam, 1 mail: dominant class, low entropy.
        let mut votes = Vec::new();
        for w in 0..6 {
            votes.push(vote("10.0.0.5", w, ApplicationClass::Scan, 30));
        }
        votes.push(vote("10.0.0.5", 6, ApplicationClass::Spam, 30));
        votes.push(vote("10.0.0.5", 7, ApplicationClass::Mail, 30));
        let dominant = vote_entropy(&votes, "10.0.0.5".parse().unwrap(), 20).unwrap();

        // 4 scan, 4 spam: two equal classes, maximal entropy.
        let mut even = Vec::new();
        for w in 0..4 {
            even.push(vote("10.0.0.6", w, ApplicationClass::Scan, 30));
            even.push(vote("10.0.0.6", w + 4, ApplicationClass::Spam, 30));
        }
        let balanced = vote_entropy(&even, "10.0.0.6".parse().unwrap(), 20).unwrap();
        assert!(dominant < balanced, "dominant {dominant} vs balanced {balanced}");
        assert!((balanced - 1.0).abs() < 1e-12, "two equal classes → entropy 1");

        // Single-vote or unknown originators: undefined.
        assert!(vote_entropy(&votes, "10.0.0.99".parse().unwrap(), 20).is_none());
        // All same class → zero.
        let same: Vec<WeeklyVote> =
            (0..5).map(|w| vote("10.0.0.7", w, ApplicationClass::Cdn, 30)).collect();
        assert_eq!(vote_entropy(&same, "10.0.0.7".parse().unwrap(), 20), Some(0.0));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let ratios = [0.5, 1.0, 0.75, 0.5, 1.0];
        let cdf = consistency_cdf(&ratios);
        assert_eq!(cdf.len(), 5);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!(consistency_cdf(&[]).is_empty());
    }
}

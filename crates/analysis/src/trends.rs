//! Longitudinal trends (Figs. 11–13).

use crate::WindowClassification;
use bs_activity::ApplicationClass;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Per-window class counts plus the total — Fig. 11's lines.
pub fn class_counts_per_window(
    windows: &[WindowClassification],
) -> Vec<(usize, BTreeMap<ApplicationClass, usize>, usize)> {
    windows
        .iter()
        .map(|w| {
            let mut counts = BTreeMap::new();
            for e in &w.entries {
                *counts.entry(e.class).or_insert(0) += 1;
            }
            (w.window, counts, w.entries.len())
        })
        .collect()
}

/// Five-number-plus-whiskers summary of a footprint distribution
/// (Fig. 12's box plot rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Smallest footprint.
    pub min: usize,
    /// 10th percentile (lower whisker).
    pub p10: usize,
    /// Lower quartile.
    pub q1: usize,
    /// Median.
    pub median: usize,
    /// Upper quartile.
    pub q3: usize,
    /// 90th percentile (upper whisker).
    pub p90: usize,
    /// Largest footprint.
    pub max: usize,
    /// Sample count.
    pub n: usize,
}

fn percentile(sorted: &[usize], p: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

impl BoxStats {
    /// Summarize a set of footprints; `None` when empty.
    pub(crate) fn from_footprints(mut footprints: Vec<usize>) -> Option<BoxStats> {
        if footprints.is_empty() {
            return None;
        }
        footprints.sort_unstable();
        Some(BoxStats {
            min: footprints[0],
            p10: percentile(&footprints, 0.10),
            q1: percentile(&footprints, 0.25),
            median: percentile(&footprints, 0.50),
            q3: percentile(&footprints, 0.75),
            p90: percentile(&footprints, 0.90),
            max: *footprints.last().expect("non-empty"),
            n: footprints.len(),
        })
    }
}

/// Per-window footprint box stats for one class (Fig. 12: class `scan`).
pub fn footprint_boxes(
    windows: &[WindowClassification],
    class: ApplicationClass,
) -> Vec<(usize, Option<BoxStats>)> {
    windows
        .iter()
        .map(|w| {
            let fp: Vec<usize> = w.of_class(class).map(|e| e.queriers).collect();
            (w.window, BoxStats::from_footprints(fp))
        })
        .collect()
}

/// The footprint trace of chosen originators across windows (Fig. 13's
/// example scanners): `originator → [(window, queriers)]`.
pub fn originator_traces(
    windows: &[WindowClassification],
    originators: &[Ipv4Addr],
) -> BTreeMap<Ipv4Addr, Vec<(usize, usize)>> {
    let mut traces: BTreeMap<Ipv4Addr, Vec<(usize, usize)>> = BTreeMap::new();
    for w in windows {
        for e in &w.entries {
            if originators.contains(&e.originator) {
                traces.entry(e.originator).or_default().push((w.window, e.queriers));
            }
        }
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassifiedOriginator;

    fn win(idx: usize, entries: Vec<(u8, usize, ApplicationClass)>) -> WindowClassification {
        WindowClassification {
            window: idx,
            entries: entries
                .into_iter()
                .map(|(i, q, class)| ClassifiedOriginator {
                    originator: Ipv4Addr::new(10, 0, 0, i),
                    queriers: q,
                    class,
                })
                .collect(),
        }
    }

    #[test]
    fn class_counts_add_up() {
        let windows = vec![
            win(0, vec![(1, 30, ApplicationClass::Scan), (2, 40, ApplicationClass::Spam)]),
            win(1, vec![(1, 35, ApplicationClass::Scan)]),
        ];
        let counts = class_counts_per_window(&windows);
        assert_eq!(counts[0].1[&ApplicationClass::Scan], 1);
        assert_eq!(counts[0].2, 2);
        assert_eq!(counts[1].2, 1);
    }

    #[test]
    fn box_stats_on_known_data() {
        let b =
            BoxStats::from_footprints(vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110]).unwrap();
        assert_eq!(b.min, 10);
        assert_eq!(b.median, 60);
        assert_eq!(b.max, 110);
        assert_eq!(b.p10, 20);
        assert_eq!(b.p90, 100);
        assert_eq!(b.n, 11);
        assert!(BoxStats::from_footprints(vec![]).is_none());
    }

    #[test]
    fn footprint_boxes_filter_by_class() {
        let windows = vec![win(
            0,
            vec![
                (1, 30, ApplicationClass::Scan),
                (2, 50, ApplicationClass::Scan),
                (3, 900, ApplicationClass::Spam),
            ],
        )];
        let boxes = footprint_boxes(&windows, ApplicationClass::Scan);
        let b = boxes[0].1.unwrap();
        assert_eq!(b.n, 2);
        assert_eq!(b.max, 50, "spam footprint excluded");
    }

    #[test]
    fn traces_follow_selected_originators() {
        let windows = vec![
            win(0, vec![(1, 30, ApplicationClass::Scan), (2, 40, ApplicationClass::Scan)]),
            win(1, vec![(1, 35, ApplicationClass::Scan)]),
            win(2, vec![(1, 32, ApplicationClass::Scan), (2, 45, ApplicationClass::Scan)]),
        ];
        let traces = originator_traces(&windows, &[Ipv4Addr::new(10, 0, 0, 2)]);
        assert_eq!(traces.len(), 1);
        let t = &traces[&Ipv4Addr::new(10, 0, 0, 2)];
        assert_eq!(t, &vec![(0, 40), (2, 45)]);
    }
}

//! Burst detection on activity trends.
//!
//! The paper reads the Heartbleed surge off Fig. 11 by eye; this module
//! turns that into a detector: windows whose class count exceeds a
//! trailing-baseline prediction by a deviation threshold are flagged as
//! bursts, with contiguous flagged windows merged into episodes.
//! This is the "support detection and response" use the paper's
//! introduction motivates.

use crate::WindowClassification;
use bs_activity::ApplicationClass;

/// Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstConfig {
    /// Trailing windows forming the baseline.
    pub baseline_windows: usize,
    /// Flag when `count > mean + threshold_sigmas · std` of the
    /// baseline (std floored at `min_std` to survive quiet baselines).
    pub(crate) threshold_sigmas: f64,
    /// Floor on the baseline standard deviation.
    pub(crate) min_std: f64,
    /// Also require a relative excess of at least this fraction over
    /// the baseline mean (guards against flagging +1 on a count of 3).
    pub(crate) min_relative_excess: f64,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            baseline_windows: 6,
            threshold_sigmas: 2.0,
            min_std: 1.0,
            min_relative_excess: 0.2,
        }
    }
}

/// A detected burst episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// First flagged window.
    pub start: usize,
    /// Last flagged window (inclusive).
    pub end: usize,
    /// Peak count inside the episode.
    pub peak: usize,
    /// Baseline mean at the episode start.
    pub baseline: f64,
}

impl Burst {
    /// Peak excess over baseline, as a fraction.
    pub fn relative_excess(&self) -> f64 {
        if self.baseline <= 0.0 {
            f64::INFINITY
        } else {
            self.peak as f64 / self.baseline - 1.0
        }
    }
}

/// Detect bursts of `class` activity across windows.
///
/// The first `baseline_windows` windows can never be flagged (no
/// baseline exists yet). Flagged windows do not contaminate the
/// baseline of later windows (the baseline skips them), so long bursts
/// do not mask themselves.
pub fn detect_bursts(
    windows: &[WindowClassification],
    class: ApplicationClass,
    config: &BurstConfig,
) -> Vec<Burst> {
    let counts: Vec<usize> = windows.iter().map(|w| w.of_class(class).count()).collect();
    let mut flagged = vec![false; counts.len()];
    for i in 0..counts.len() {
        // Baseline: the most recent `baseline_windows` unflagged
        // windows before i.
        let base: Vec<f64> = (0..i)
            .rev()
            .filter(|&j| !flagged[j])
            .take(config.baseline_windows)
            .map(|j| counts[j] as f64)
            .collect();
        if base.len() < config.baseline_windows {
            continue;
        }
        let mean = base.iter().sum::<f64>() / base.len() as f64;
        let var = base.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / base.len() as f64;
        let std = var.sqrt().max(config.min_std);
        let c = counts[i] as f64;
        if c > mean + config.threshold_sigmas * std && c > mean * (1.0 + config.min_relative_excess)
        {
            flagged[i] = true;
        }
    }

    // Merge contiguous flagged windows into episodes.
    let mut bursts = Vec::new();
    let mut i = 0;
    while i < flagged.len() {
        if flagged[i] {
            let start = i;
            let mut end = i;
            while end + 1 < flagged.len() && flagged[end + 1] {
                end += 1;
            }
            let baseline: Vec<f64> = (0..start)
                .rev()
                .filter(|&j| !flagged[j])
                .take(config.baseline_windows)
                .map(|j| counts[j] as f64)
                .collect();
            let baseline = baseline.iter().sum::<f64>() / baseline.len().max(1) as f64;
            bursts.push(Burst {
                start: windows[start].window,
                end: windows[end].window,
                peak: (start..=end).map(|j| counts[j]).max().expect("non-empty"),
                baseline,
            });
            i = end + 1;
        } else {
            i += 1;
        }
    }
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassifiedOriginator;
    use std::net::Ipv4Addr;

    fn series(counts: &[usize]) -> Vec<WindowClassification> {
        counts
            .iter()
            .enumerate()
            .map(|(w, &n)| WindowClassification {
                window: w,
                entries: (0..n)
                    .map(|i| ClassifiedOriginator {
                        originator: Ipv4Addr::new(10, (w / 200) as u8, (w % 200) as u8, i as u8),
                        queriers: 30,
                        class: ApplicationClass::Scan,
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn flat_series_has_no_bursts() {
        let windows = series(&[10; 20]);
        assert!(detect_bursts(&windows, ApplicationClass::Scan, &BurstConfig::default()).is_empty());
    }

    #[test]
    fn single_spike_is_one_episode() {
        let mut counts = vec![10usize; 20];
        counts[12] = 25;
        counts[13] = 22;
        let windows = series(&counts);
        let bursts = detect_bursts(&windows, ApplicationClass::Scan, &BurstConfig::default());
        assert_eq!(bursts.len(), 1, "{bursts:?}");
        assert_eq!(bursts[0].start, 12);
        assert_eq!(bursts[0].end, 13);
        assert_eq!(bursts[0].peak, 25);
        assert!((bursts[0].baseline - 10.0).abs() < 1e-9);
        assert!((bursts[0].relative_excess() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn long_burst_does_not_mask_itself() {
        // A sustained doubling: flagged windows must not enter the
        // baseline, so the whole plateau is one episode.
        let mut counts = vec![10usize; 10];
        counts.extend([22; 6]);
        counts.extend([10; 4]);
        let windows = series(&counts);
        let bursts = detect_bursts(&windows, ApplicationClass::Scan, &BurstConfig::default());
        assert_eq!(bursts.len(), 1, "{bursts:?}");
        assert_eq!(bursts[0].start, 10);
        assert_eq!(bursts[0].end, 15);
    }

    #[test]
    fn early_windows_never_flagged() {
        let mut counts = vec![50usize]; // huge first window
        counts.extend([10; 10]);
        let windows = series(&counts);
        let bursts = detect_bursts(&windows, ApplicationClass::Scan, &BurstConfig::default());
        assert!(bursts.is_empty(), "no baseline → no flags: {bursts:?}");
    }

    #[test]
    fn small_absolute_wobble_is_ignored() {
        // 3 → 4 is within min_std; must not flag.
        let mut counts = vec![3usize; 10];
        counts.push(4);
        let windows = series(&counts);
        let bursts = detect_bursts(&windows, ApplicationClass::Scan, &BurstConfig::default());
        assert!(bursts.is_empty(), "{bursts:?}");
    }

    #[test]
    fn other_classes_do_not_trigger() {
        let mut windows = series(&[10; 12]);
        // A spam flood in window 11 must not flag scan bursts.
        for i in 0..40u8 {
            windows[11].entries.push(ClassifiedOriginator {
                originator: Ipv4Addr::new(11, 0, 0, i),
                queriers: 30,
                class: ApplicationClass::Spam,
            });
        }
        let bursts = detect_bursts(&windows, ApplicationClass::Scan, &BurstConfig::default());
        assert!(bursts.is_empty());
        let spam = detect_bursts(&windows, ApplicationClass::Spam, &BurstConfig::default());
        assert_eq!(spam.len(), 1);
    }
}

//! Whole-dataset situation reports.
//!
//! Turns per-window classifications into the narrative summary an
//! operator actually reads: what kinds of activity are out there, who
//! the biggest originators are, which /24s look coordinated, and
//! whether anything is bursting — the operational use the paper's
//! introduction motivates ("knowledge of malicious activity may help
//! anticipate attacks").

use crate::bursts::{detect_bursts, BurstConfig};
use crate::teams::scan_teams;
use crate::topn::class_mix_top_n;
use crate::trends::class_counts_per_window;
use crate::WindowClassification;
use bs_activity::ApplicationClass;
use std::fmt::Write as _;

/// Render a plain-text report over a classification series.
pub fn render_report(windows: &[WindowClassification]) -> String {
    let _stage = bs_telemetry::stage("analysis.report");
    let mut out = String::new();
    let _ = writeln!(out, "# backscatter situation report");
    let _ = writeln!(out, "windows analyzed: {}", windows.len());
    if windows.is_empty() {
        return out;
    }

    // Totals and class mix over the whole series.
    let total_detections: usize = windows.iter().map(|w| w.entries.len()).sum();
    let _ = writeln!(out, "originator-window detections: {total_detections}");
    let all_entries: Vec<_> = windows.iter().flat_map(|w| w.entries.iter().copied()).collect();
    let mix = class_mix_top_n(&all_entries, usize::MAX);
    let _ = writeln!(out, "\n## class mix (all windows)");
    let mut mix_rows: Vec<_> = mix.iter().collect();
    mix_rows.sort_by(|a, b| b.1.cmp(a.1));
    for (class, n) in mix_rows {
        let malicious = if class.is_malicious() { "  [malicious]" } else { "" };
        let _ = writeln!(out, "  {:12} {:>6}{malicious}", class.name(), n);
    }

    // Biggest footprints in the most recent window.
    let last = windows.last().expect("non-empty");
    let mut recent = last.entries.clone();
    recent.sort_by(|a, b| b.queriers.cmp(&a.queriers).then(a.originator.cmp(&b.originator)));
    let _ = writeln!(out, "\n## largest originators (latest window)");
    for e in recent.iter().take(10) {
        let _ = writeln!(
            out,
            "  {:15} {:>7} queriers  {}",
            e.originator.to_string(),
            e.queriers,
            e.class
        );
    }

    // Scanner teams.
    let teams = scan_teams(windows, 4);
    let _ = writeln!(out, "\n## scanner teams");
    let _ = writeln!(
        out,
        "  {} scan originators across {} /24 blocks; {} blocks with ≥{} scanners ({} single-class)",
        teams.scan_originators,
        teams.blocks,
        teams.candidate_teams,
        teams.team_threshold,
        teams.single_class_teams
    );

    // Bursts per malicious class, when the series is long enough.
    if windows.len() > BurstConfig::default().baseline_windows + 1 {
        let _ = writeln!(out, "\n## bursts");
        let mut any = false;
        for class in [ApplicationClass::Scan, ApplicationClass::Spam] {
            for b in detect_bursts(windows, class, &BurstConfig::default()) {
                any = true;
                let _ = writeln!(
                    out,
                    "  {} burst: windows {}..={}, peak {} vs baseline {:.0} (+{:.0}%)",
                    class.name(),
                    b.start,
                    b.end,
                    b.peak,
                    b.baseline,
                    100.0 * b.relative_excess()
                );
            }
        }
        if !any {
            let _ = writeln!(out, "  none detected");
        }
    }

    // Trend line for scan (the paper's headline class).
    let _ = writeln!(out, "\n## scan trend (originators per window)");
    for (w, per_class, _) in class_counts_per_window(windows) {
        let n = per_class.get(&ApplicationClass::Scan).copied().unwrap_or(0);
        let _ = writeln!(out, "  w{w:<4} {n:>5} {}", "#".repeat(n.min(60)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassifiedOriginator;
    use std::net::Ipv4Addr;

    fn series() -> Vec<WindowClassification> {
        (0..12usize)
            .map(|w| {
                let n = if w == 10 { 30 } else { 10 };
                WindowClassification {
                    window: w,
                    entries: (0..n)
                        .map(|i| ClassifiedOriginator {
                            originator: Ipv4Addr::new(10, w as u8, 0, i as u8),
                            queriers: 20 + i,
                            class: if i % 3 == 0 {
                                ApplicationClass::Spam
                            } else {
                                ApplicationClass::Scan
                            },
                        })
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn report_contains_all_sections() {
        let r = render_report(&series());
        for needle in [
            "situation report",
            "class mix",
            "largest originators",
            "scanner teams",
            "bursts",
            "scan trend",
        ] {
            assert!(r.contains(needle), "missing section {needle:?} in:\n{r}");
        }
        assert!(r.contains("[malicious]"));
        // The window-10 spike is detected as a burst.
        assert!(r.contains("burst: windows 10..=10"), "{r}");
    }

    #[test]
    fn empty_series_is_fine() {
        let r = render_report(&[]);
        assert!(r.contains("windows analyzed: 0"));
    }
}

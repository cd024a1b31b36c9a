//! Week-over-week churn and labeled-example persistence
//! (Figs. 5, 6, 15; §V-A, §VI-C).

use crate::WindowClassification;
use bs_activity::ApplicationClass;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// One window's churn relative to the previous window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnWeek {
    /// Window index.
    pub window: usize,
    /// Originators present now but not in the previous window.
    pub new: usize,
    /// Originators present in both.
    pub continuing: usize,
    /// Originators present before but gone now.
    pub departing: usize,
}

/// Week-by-week churn of one class's originator population (Fig. 15).
/// The first window reports everything as `new`.
pub fn churn_series(windows: &[WindowClassification], class: ApplicationClass) -> Vec<ChurnWeek> {
    let mut prev: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let mut out = Vec::with_capacity(windows.len());
    for w in windows {
        let cur: BTreeSet<Ipv4Addr> = w.of_class(class).map(|e| e.originator).collect();
        let continuing = cur.intersection(&prev).count();
        out.push(ChurnWeek {
            window: w.window,
            new: cur.len() - continuing,
            continuing,
            departing: prev.len() - continuing,
        });
        prev = cur;
    }
    out
}

/// Count, per window, how many of the `labeled` originators re-appear
/// with the expected class group — the "re-appearing labeled example
/// count" behind Figs. 5 and 6. `labeled` pairs originators with their
/// curation-time class; `malicious` selects which group to count.
pub fn persistence_series(
    windows: &[WindowClassification],
    labeled: &[(Ipv4Addr, ApplicationClass)],
    malicious: bool,
) -> Vec<(usize, usize)> {
    let wanted: BTreeSet<Ipv4Addr> =
        labeled.iter().filter(|(_, c)| c.is_malicious() == malicious).map(|(ip, _)| *ip).collect();
    windows
        .iter()
        .map(|w| {
            let present = w.entries.iter().filter(|e| wanted.contains(&e.originator)).count();
            (w.window, present)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassifiedOriginator;

    fn win(idx: usize, ips: &[u8], class: ApplicationClass) -> WindowClassification {
        WindowClassification {
            window: idx,
            entries: ips
                .iter()
                .map(|i| ClassifiedOriginator {
                    originator: Ipv4Addr::new(10, 0, 0, *i),
                    queriers: 30,
                    class,
                })
                .collect(),
        }
    }

    #[test]
    fn churn_counts_follow_set_algebra() {
        let windows = vec![
            win(0, &[1, 2, 3], ApplicationClass::Scan),
            win(1, &[2, 3, 4, 5], ApplicationClass::Scan),
            win(2, &[5], ApplicationClass::Scan),
        ];
        let churn = churn_series(&windows, ApplicationClass::Scan);
        assert_eq!(churn[0], ChurnWeek { window: 0, new: 3, continuing: 0, departing: 0 });
        assert_eq!(churn[1], ChurnWeek { window: 1, new: 2, continuing: 2, departing: 1 });
        assert_eq!(churn[2], ChurnWeek { window: 2, new: 0, continuing: 1, departing: 3 });
    }

    #[test]
    fn churn_ignores_other_classes() {
        let mut w0 = win(0, &[1], ApplicationClass::Scan);
        w0.entries.push(ClassifiedOriginator {
            originator: Ipv4Addr::new(10, 0, 0, 99),
            queriers: 30,
            class: ApplicationClass::Spam,
        });
        let churn = churn_series(&[w0], ApplicationClass::Scan);
        assert_eq!(churn[0].new, 1);
    }

    #[test]
    fn persistence_splits_by_malice() {
        let labeled = vec![
            (Ipv4Addr::new(10, 0, 0, 1), ApplicationClass::Spam),
            (Ipv4Addr::new(10, 0, 0, 2), ApplicationClass::Mail),
            (Ipv4Addr::new(10, 0, 0, 3), ApplicationClass::Scan),
        ];
        let windows =
            vec![win(0, &[1, 2, 3], ApplicationClass::Scan), win(1, &[2], ApplicationClass::Scan)];
        let mal = persistence_series(&windows, &labeled, true);
        assert_eq!(mal, vec![(0, 2), (1, 0)]);
        let ben = persistence_series(&windows, &labeled, false);
        assert_eq!(ben, vec![(0, 1), (1, 1)]);
    }
}

//! Controlled-scan experiments (paper §IV-D, Fig. 4).
//!
//! The paper probes a known fraction of IPv4 from a host whose reverse
//! zone it controls, with the PTR TTL set to zero so caching cannot hide
//! queriers, and counts the queriers arriving at the final authority and
//! at the roots. This module reproduces that experiment inside the
//! simulator: same TTL-0 trick, same observation points, any scan size.

use crate::det::hash2;
use crate::engine::{Simulator, SimulatorConfig};
use crate::hierarchy::{AuthorityId, PtrPolicy, RootServer};
use crate::types::{Contact, ContactKind};
use crate::world::World;
use bs_dns::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Parameters of one controlled scan.
#[derive(Debug, Clone)]
pub struct ControlledScan {
    /// The probing host. Its /16's final authority is instrumented.
    pub prober: Ipv4Addr,
    /// How many distinct targets to probe.
    pub targets: u64,
    /// Probe traffic kind (the paper runs ICMP, TCP 22/23/80, UDP 53/123).
    pub kind: ContactKind,
    /// Wall-clock duration of the scan; probes spread uniformly over it.
    pub duration: SimDuration,
    /// Seed for target selection (varies across trials).
    pub trial_seed: u64,
}

/// Queriers observed at each vantage point during a controlled scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanObservation {
    /// Number of probes actually sent.
    pub(crate) targets_probed: u64,
    /// Unique querier addresses at the prober's final authority.
    pub queriers_at_final: usize,
    /// Unique querier addresses at each root.
    pub queriers_at_root: BTreeMap<RootServer, usize>,
    /// Raw query counts at the final authority (pre-uniquing).
    pub(crate) queries_at_final: usize,
}

/// Run one controlled scan and report what each authority saw.
pub fn run_controlled_scan(world: &World, scan: &ControlledScan) -> ScanObservation {
    let final_auth = AuthorityId::final_for(scan.prober);
    let observed = [final_auth, AuthorityId::Root(RootServer::B), AuthorityId::Root(RootServer::M)];
    let mut sim = Simulator::new(world, SimulatorConfig::observing(observed));
    // The experiment's defining trick: TTL 0 on the prober's PTR record.
    sim.override_ptr_policy(scan.prober, PtrPolicy::Exists { ttl: 0 });

    let dur = scan.duration.secs().max(1);
    for i in 0..scan.targets {
        let h = hash2(world.seed() ^ 0xC0_57AB, scan.trial_seed, i);
        let target = world.random_public_addr(h);
        let time = SimTime(i * dur / scan.targets.max(1));
        sim.contact(Contact { time, originator: scan.prober, target, kind: scan.kind });
    }

    let logs = sim.into_logs();
    let uniq = |auth: AuthorityId| -> usize {
        logs[&auth].records().iter().map(|r| r.querier).collect::<HashSet<_>>().len()
    };
    let mut queriers_at_root = BTreeMap::new();
    queriers_at_root.insert(RootServer::B, uniq(AuthorityId::Root(RootServer::B)));
    queriers_at_root.insert(RootServer::M, uniq(AuthorityId::Root(RootServer::M)));
    ScanObservation {
        targets_probed: scan.targets,
        queriers_at_final: uniq(final_auth),
        queriers_at_root,
        queries_at_final: logs[&final_auth].len(),
    }
}

/// Fit `y = c · xᵖ` through observations by least squares in log space,
/// returning `(c, p)`. This is how the paper summarizes Fig. 4 ("roughly
/// 1 querier per 1000 targets … a power-law fit with power of 0.71").
pub fn power_law_fit(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let p = (n * sxy - sx * sy) / denom;
    let lnc = (sy - p * sx) / n;
    Some((lnc.exp(), p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    fn prober(w: &World) -> Ipv4Addr {
        // Any delegated address works; the override supplies the PTR.
        for i in 0..10_000u64 {
            let a = w.random_public_addr(crate::det::hash1(0xAB, i));
            if matches!(w.delegation(a), crate::hierarchy::Delegation::Delegated { .. }) {
                return a;
            }
        }
        panic!("no delegated prober");
    }

    #[test]
    fn bigger_scans_find_more_queriers() {
        let w = world();
        let p = prober(&w);
        let small = run_controlled_scan(
            &w,
            &ControlledScan {
                prober: p,
                targets: 4_000,
                kind: ContactKind::ProbeIcmp,
                duration: SimDuration::from_hours(1),
                trial_seed: 1,
            },
        );
        let large = run_controlled_scan(
            &w,
            &ControlledScan {
                prober: p,
                targets: 200_000,
                kind: ContactKind::ProbeIcmp,
                duration: SimDuration::from_hours(13),
                trial_seed: 1,
            },
        );
        assert!(large.queriers_at_final > small.queriers_at_final);
        assert!(large.queriers_at_final >= 20, "large scan crosses detection threshold");
    }

    #[test]
    fn roots_see_tiny_fraction() {
        let w = world();
        let p = prober(&w);
        let obs = run_controlled_scan(
            &w,
            &ControlledScan {
                prober: p,
                targets: 150_000,
                kind: ContactKind::ProbeTcp(22),
                duration: SimDuration::from_hours(10),
                trial_seed: 2,
            },
        );
        let root_total: usize = obs.queriers_at_root.values().sum();
        assert!(obs.queriers_at_final > 50);
        assert!(
            root_total < obs.queriers_at_final / 4,
            "roots {root_total} vs final {}",
            obs.queriers_at_final
        );
    }

    #[test]
    fn power_law_fit_recovers_known_law() {
        let pts: Vec<(f64, f64)> = (1..=20)
            .map(|i| {
                let x = (i * 1000) as f64;
                (x, 0.003 * x.powf(0.71))
            })
            .collect();
        let (c, p) = power_law_fit(&pts).unwrap();
        assert!((p - 0.71).abs() < 1e-9, "p={p}");
        assert!((c - 0.003).abs() < 1e-9, "c={c}");
    }

    #[test]
    fn power_law_fit_rejects_degenerate_input() {
        assert_eq!(power_law_fit(&[]), None);
        assert_eq!(power_law_fit(&[(10.0, 5.0)]), None);
        assert_eq!(power_law_fit(&[(10.0, 5.0), (10.0, 7.0)]), None);
        assert_eq!(power_law_fit(&[(0.0, 5.0), (-3.0, 7.0)]), None);
    }
}

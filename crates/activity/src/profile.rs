//! Originator profiles: everything one originator does, and the
//! machinery that turns a profile into contacts.

use crate::class::ApplicationClass;
use crate::pools::{PoolKind, TargetPools};
use bs_dns::{SimDuration, SimTime};
use bs_netsim::det::{bounded, hash3, mix64, unit_f64};
use bs_netsim::types::{Contact, ContactKind, CountryCode};
use std::net::Ipv4Addr;

/// How an originator selects targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Targeting {
    /// Uniform random walk over public address space (scanners).
    UniformRandom,
    /// Draw from a pool, optionally concentrated in one country.
    Pool {
        /// Which pool.
        kind: PoolKind,
        /// `Some((country, share))` sends `share` of contacts there.
        focus: Option<(CountryCode, f64)>,
    },
}

/// Time-of-day modulation of activity (paper Fig. 16: CDN, ad and mail
/// traffic is strongly diurnal; ssh scanning and spam are flat).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalPattern {
    /// Amplitude in `[0, 1]`: 0 = flat, 1 = full swing.
    pub(crate) amplitude: f64,
    /// Hour of peak activity in `[0, 24)`.
    pub(crate) peak_hour: f64,
}

impl DiurnalPattern {
    /// A flat (fully automated) pattern.
    pub fn flat() -> Self {
        DiurnalPattern { amplitude: 0.0, peak_hour: 12.0 }
    }

    /// Relative intensity at a time of day, mean 1.0 over a day.
    pub(crate) fn intensity(&self, t: SimTime) -> f64 {
        let hour = t.second_of_day() as f64 / 3600.0;
        let phase = (hour - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        (1.0 + self.amplitude * phase.cos()).max(0.0)
    }
}

/// One originator's complete behaviour description.
#[derive(Debug, Clone, PartialEq)]
pub struct OriginatorProfile {
    /// The single source address (paper: "an originator is a single IP
    /// address that touches many targets").
    pub originator: Ipv4Addr,
    /// Ground-truth application class.
    pub class: ApplicationClass,
    /// Distinct targets touched per active day.
    pub targets_per_day: f64,
    /// Mean contacts per chosen target (spam retries, repeated CDN
    /// deliveries); drives the queries-per-querier feature.
    pub(crate) repeat_mean: f64,
    /// Traffic kind(s); contacts cycle through this list.
    pub kinds: Vec<ContactKind>,
    /// Target-selection strategy.
    pub targeting: Targeting,
    /// Time-of-day modulation.
    pub diurnal: DiurnalPattern,
    /// First instant of activity.
    pub active_from: SimTime,
    /// End of activity (exclusive).
    pub active_until: SimTime,
    /// Per-originator randomness root.
    pub seed: u64,
}

impl OriginatorProfile {
    /// Is the originator active at any point inside `[from, until)`?
    pub fn overlaps(&self, from: SimTime, until: SimTime) -> bool {
        self.active_from < until && from < self.active_until
    }

    /// Generate this originator's contacts inside `[from, until)`,
    /// appending to `out` (unsorted; callers sort the merged stream).
    ///
    /// Target choice is stable per (originator, target-slot): slot `j`
    /// of day `d` maps to a deterministic address, and each chosen
    /// target receives `~repeat_mean` contacts spread over the day.
    /// Scanners draw fresh random addresses per slot instead — a scan
    /// does not revisit.
    pub fn contacts_into(
        &self,
        world: &bs_netsim::world::World,
        pools: &TargetPools,
        from: SimTime,
        until: SimTime,
        out: &mut Vec<Contact>,
    ) {
        if !self.overlaps(from, until) || self.targets_per_day <= 0.0 {
            return;
        }
        let start = self.active_from.max(from);
        let end = self.active_until.min(until);
        let first_day = start.day();
        let last_day = if end.secs() == 0 { 0 } else { (end.secs() - 1) / 86_400 };
        for day in first_day..=last_day {
            let day_start = SimTime::from_days(day);
            let day_seed = hash3(self.seed, day, 0xDA7, 1);
            // Integer target count with stochastic rounding.
            let n_f = self.targets_per_day;
            let mut n = n_f.floor() as u64;
            if unit_f64(day_seed) < n_f.fract() {
                n += 1;
            }
            for j in 0..n {
                let slot = hash3(self.seed, day, j, 5);
                let Some(target) = self.pick_target(world, pools, slot) else {
                    continue;
                };
                // Repeats: geometric-ish around repeat_mean.
                let mut repeats = 1u64;
                if self.repeat_mean > 1.0 {
                    let extra = self.repeat_mean - 1.0;
                    let mut h = mix64(slot ^ 0x4EF);
                    while unit_f64(h) < extra / (1.0 + extra) && repeats < 12 {
                        repeats += 1;
                        h = mix64(h);
                    }
                }
                let kind = self.kinds[(j % self.kinds.len() as u64) as usize];
                for r in 0..repeats {
                    let t = day_start + SimDuration(self.diurnal_second(slot, r));
                    if t >= start && t < end {
                        out.push(Contact { time: t, originator: self.originator, target, kind });
                    }
                }
            }
        }
    }

    fn pick_target(
        &self,
        world: &bs_netsim::world::World,
        pools: &TargetPools,
        slot: u64,
    ) -> Option<Ipv4Addr> {
        match self.targeting {
            Targeting::UniformRandom => Some(world.random_public_addr(slot)),
            Targeting::Pool { kind, focus } => pools.get(kind).pick(slot, focus),
        }
    }

    /// Pick a second-of-day for contact `r` of a slot, biased by the
    /// diurnal pattern via rejection sampling (bounded attempts).
    fn diurnal_second(&self, slot: u64, r: u64) -> u64 {
        let mut h = hash3(self.seed ^ 0x71AE, slot, r, 9);
        if self.diurnal.amplitude <= 0.0 {
            return bounded(h, 86_400);
        }
        let peak = 1.0 + self.diurnal.amplitude;
        for _ in 0..16 {
            let sec = bounded(h, 86_400);
            let accept = self.diurnal.intensity(SimTime(sec)) / peak;
            if unit_f64(mix64(h ^ 0xACC)) < accept {
                return sec;
            }
            h = mix64(h);
        }
        bounded(h, 86_400)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_netsim::world::{World, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    fn scanner(world: &World) -> OriginatorProfile {
        OriginatorProfile {
            originator: world.random_public_addr(42),
            class: ApplicationClass::Scan,
            targets_per_day: 500.0,
            repeat_mean: 1.0,
            kinds: vec![ContactKind::ProbeTcp(22)],
            targeting: Targeting::UniformRandom,
            diurnal: DiurnalPattern::flat(),
            active_from: SimTime::ZERO,
            active_until: SimTime::from_days(10),
            seed: 7,
        }
    }

    #[test]
    fn diurnal_intensity_means_one_and_peaks_right() {
        let p = DiurnalPattern { amplitude: 0.8, peak_hour: 9.0 };
        let mut sum = 0.0;
        for m in 0..1440 {
            sum += p.intensity(SimTime(m * 60));
        }
        assert!((sum / 1440.0 - 1.0).abs() < 1e-3, "mean {}", sum / 1440.0);
        let at_peak = p.intensity(SimTime::from_hours(9));
        let off_peak = p.intensity(SimTime::from_hours(21));
        assert!(at_peak > 1.7 && off_peak < 0.3, "peak {at_peak} trough {off_peak}");
        assert_eq!(DiurnalPattern::flat().intensity(SimTime(0)), 1.0);
    }

    #[test]
    fn contact_volume_tracks_rate() {
        let w = world();
        let pools = TargetPools::build_all(&w, 10, 1);
        let p = scanner(&w);
        let mut out = Vec::new();
        p.contacts_into(&w, &pools, SimTime::ZERO, SimTime::from_days(4), &mut out);
        // 4 days × 500 targets ± stochastic rounding.
        assert!((1900..=2100).contains(&out.len()), "expected ≈2000 contacts, got {}", out.len());
        for c in &out {
            assert_eq!(c.originator, p.originator);
            assert!(c.time < SimTime::from_days(4));
        }
    }

    #[test]
    fn window_clipping_is_exact() {
        let w = world();
        let pools = TargetPools::build_all(&w, 10, 1);
        let mut p = scanner(&w);
        p.active_from = SimTime::from_days(2);
        p.active_until = SimTime::from_days(3);
        let mut out = Vec::new();
        p.contacts_into(&w, &pools, SimTime::ZERO, SimTime::from_days(10), &mut out);
        assert!(!out.is_empty());
        for c in &out {
            assert!(c.time >= p.active_from && c.time < p.active_until, "{:?}", c.time);
        }
        // Querying a disjoint window yields nothing.
        let mut none = Vec::new();
        p.contacts_into(&w, &pools, SimTime::from_days(5), SimTime::from_days(6), &mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn generation_is_deterministic_and_window_decomposable() {
        let w = world();
        let pools = TargetPools::build_all(&w, 10, 1);
        let p = scanner(&w);
        let mut whole = Vec::new();
        p.contacts_into(&w, &pools, SimTime::ZERO, SimTime::from_days(2), &mut whole);
        let mut parts = Vec::new();
        p.contacts_into(&w, &pools, SimTime::ZERO, SimTime::from_days(1), &mut parts);
        p.contacts_into(&w, &pools, SimTime::from_days(1), SimTime::from_days(2), &mut parts);
        let key = |c: &Contact| (c.time, c.target, c.originator);
        let mut a: Vec<_> = whole.iter().map(key).collect();
        let mut b: Vec<_> = parts.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "day-by-day generation must equal whole-window generation");
    }

    #[test]
    fn repeats_raise_contact_count_per_target() {
        let w = world();
        let pools = TargetPools::build_all(&w, 500, 1);
        let mut p = scanner(&w);
        p.class = ApplicationClass::Spam;
        p.targeting = Targeting::Pool { kind: PoolKind::MailServers, focus: None };
        p.repeat_mean = 3.0;
        p.targets_per_day = 300.0;
        let mut out = Vec::new();
        p.contacts_into(&w, &pools, SimTime::ZERO, SimTime::from_days(1), &mut out);
        let per_target = out.len() as f64 / 300.0;
        assert!(per_target > 2.0, "mean contacts per target {per_target}");
    }

    #[test]
    fn diurnal_contacts_cluster_near_peak() {
        let w = world();
        let pools = TargetPools::build_all(&w, 500, 1);
        let mut p = scanner(&w);
        p.diurnal = DiurnalPattern { amplitude: 0.9, peak_hour: 12.0 };
        p.targets_per_day = 2000.0;
        let mut out = Vec::new();
        p.contacts_into(&w, &pools, SimTime::ZERO, SimTime::from_days(1), &mut out);
        let near_peak = out.iter().filter(|c| (9..15).contains(&c.time.hour_of_day())).count();
        let frac = near_peak as f64 / out.len() as f64;
        // A flat pattern would put 25% in this 6-hour window.
        assert!(frac > 0.33, "peak-window fraction {frac}");
    }
}

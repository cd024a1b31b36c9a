//! Running a dataset recipe: scenario → simulator → logs.

use crate::external::{Blacklist, Darknet};
use crate::spec::DatasetSpec;
use bs_activity::{ApplicationClass, Scenario};
use bs_dns::{SimDuration, SimTime};
use bs_netsim::engine::SimStats;
use bs_netsim::log::QueryLog;
use bs_netsim::world::World;
use bs_netsim::{Simulator, SimulatorConfig};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A fully simulated dataset: the observed query log plus everything
/// needed to label and analyze it.
pub struct BuiltDataset {
    /// The recipe.
    pub spec: DatasetSpec,
    /// The query log at the observed authority (post-sampling, time-ordered).
    pub log: QueryLog,
    /// The generating scenario (ground truth source).
    pub scenario: Scenario,
    /// Modeled blacklist oracle.
    pub blacklist: Blacklist,
    /// Modeled darknet oracle.
    pub darknet: Darknet,
    /// Simulator counters.
    pub stats: SimStats,
}

/// Assemble a [`BuiltDataset`] around an already-simulated log (e.g.
/// one loaded from a cache file), time-ordered. The scenario and oracles
/// are recomputed deterministically from the spec — only the simulation
/// itself is skipped.
pub fn assemble_with_log(world: &World, spec: DatasetSpec, mut log: QueryLog) -> BuiltDataset {
    log.sort_by_time();
    let scenario = Scenario::new(world, spec.scenario.clone());
    let (blacklist, darknet) = build_oracles(&scenario, spec.scenario.seed);
    BuiltDataset { spec, log, scenario, blacklist, darknet, stats: SimStats::default() }
}

/// The two external oracles derive independently from the scenario
/// (with disjoint seed tweaks), so they build concurrently.
fn build_oracles(scenario: &Scenario, seed: u64) -> (Blacklist, Darknet) {
    bs_par::join(
        || Blacklist::build(scenario, seed ^ 0xB1),
        || Darknet::build(scenario, seed ^ 0xD4),
    )
}

/// Simulate a dataset end to end. Long recipes run day by day with
/// cache sweeps so memory stays proportional to the live cache state.
/// Broken resolvers' stutter is logged late, so the log is put in time
/// order, the order an authority's captures are read in (§III-A).
pub fn build_dataset(world: &World, spec: DatasetSpec) -> BuiltDataset {
    let _stage = bs_telemetry::stage("datasets.build");
    let scenario = Scenario::new(world, spec.scenario.clone());
    let mut sim_cfg = SimulatorConfig::observing([spec.authority]);
    if let Some(n) = spec.sampling {
        sim_cfg = sim_cfg.with_sampling(spec.authority, n);
    }
    let mut sim = Simulator::new(world, sim_cfg);
    let span = spec.scenario.duration;
    for day in spec.days_to_simulate() {
        let from = SimTime::from_days(day);
        let until = (from + SimDuration::from_days(1)).min(SimTime::ZERO + span);
        sim.process(scenario.contacts_window(world, from, until));
        // Sweep entries that were already dead at the day's start.
        sim.sweep(from);
    }
    let stats = sim.stats();
    let mut logs = sim.into_logs();
    let mut log = logs.remove(&spec.authority).expect("observed authority");
    log.sort_by_time();
    let (blacklist, darknet) = build_oracles(&scenario, spec.scenario.seed);
    bs_telemetry::counter_add("datasets.built", 1);
    // Simulation-side conservation: every contact either produced at
    // least one reverse lookup or stayed silent.
    bs_telemetry::ledger::record(
        "datasets.build",
        stats.contacts,
        &[
            ("reacting", stats.reacting_contacts),
            ("silent", stats.contacts - stats.reacting_contacts),
        ],
    );
    bs_telemetry::debug!(
        "datasets.build",
        "dataset simulated";
        records = log.len(),
        contacts = stats.contacts,
    );
    BuiltDataset { spec, log, scenario, blacklist, darknet, stats }
}

impl BuiltDataset {
    /// Ground truth for originators active during a window. When the
    /// same address hosted two different activities in the window (IP
    /// reuse), it is dropped — experts "strive for accuracy over
    /// quantity".
    pub fn truth_for_window(
        &self,
        window: (SimTime, SimTime),
    ) -> BTreeMap<Ipv4Addr, ApplicationClass> {
        let mut truth: BTreeMap<Ipv4Addr, Option<ApplicationClass>> = BTreeMap::new();
        for (ip, class) in self.scenario.active_originators(window.0, window.1) {
            truth
                .entry(ip)
                .and_modify(|e| {
                    if *e != Some(class) {
                        *e = None;
                    }
                })
                .or_insert(Some(class));
        }
        truth.into_iter().filter_map(|(ip, c)| c.map(|c| (ip, c))).collect()
    }

    /// The dataset's windows (delegates to the spec).
    pub fn windows(&self) -> Vec<(SimTime, SimTime)> {
        self.spec.windows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DatasetId, Scale};
    use bs_netsim::world::WorldConfig;
    use bs_sensor::{extract_features, FeatureConfig};

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    #[test]
    fn jp_smoke_dataset_builds_and_extracts() {
        let w = world();
        let spec = DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 1);
        let built = build_dataset(&w, spec);
        assert!(built.log.len() > 200, "log has {} records", built.log.len());
        let windows = built.windows();
        assert_eq!(windows.len(), 1);
        let (start, end) = windows[0];
        let feats = &extract_features(
            &built.log,
            &w,
            start,
            end,
            &FeatureConfig { min_queriers: 10, top_n: None },
        );
        assert!(!feats.is_empty(), "no analyzable originators");
        let truth = built.truth_for_window(windows[0]);
        // Most analyzable originators have ground truth.
        let known = feats.iter().filter(|f| truth.contains_key(&f.originator)).count();
        assert!(known * 10 >= feats.len() * 6, "{known}/{}", feats.len());
    }

    #[test]
    fn truth_drops_conflicting_reuse() {
        let w = world();
        let spec = DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 2);
        let built = build_dataset(&w, spec);
        let window = built.windows()[0];
        let truth = built.truth_for_window(window);
        // No address appears twice (map), and every label is a real class.
        assert!(!truth.is_empty());
    }

    #[test]
    fn build_is_deterministic() {
        let w = world();
        let a = build_dataset(&w, DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 3));
        let b = build_dataset(&w, DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 3));
        assert_eq!(a.log, b.log);
        assert_eq!(a.stats, b.stats);
        // The simulator logs stutter late; the built log is time-ordered.
        assert!(a.log.records().windows(2).all(|p| p[0].time <= p[1].time));
        // A log read back in any order is assembled time-ordered too,
        // with the same records.
        let mut reversed = a.log.records().to_vec();
        reversed.reverse();
        let spec = DatasetSpec::paper(DatasetId::JpDitl, Scale::smoke(), 3);
        let c = assemble_with_log(&w, spec, QueryLog::from_records(reversed));
        assert!(c.log.records().windows(2).all(|p| p[0].time <= p[1].time));
        let key =
            |r: &bs_netsim::log::QueryLogRecord| (r.time, r.querier, r.originator, r.rcode as u8);
        let (mut got, mut want) = (c.log.records().to_vec(), a.log.records().to_vec());
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
    }
}

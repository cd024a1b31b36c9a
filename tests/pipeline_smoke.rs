//! End-to-end smoke test: world → activity → simulator → sensor.
//!
//! This is the load-bearing integration check of the reproduction: the
//! generated classes must leave *distinguishable* fingerprints in the
//! backscatter a national authority sees, the way the paper's Fig. 3 /
//! Table II case studies do.

use bs_activity::{ApplicationClass, Scenario, ScenarioConfig};
use bs_dns::{SimDuration, SimTime};
use bs_netsim::hierarchy::AuthorityId;
use bs_netsim::types::CountryCode;
use bs_netsim::world::{World, WorldConfig};
use bs_netsim::{Simulator, SimulatorConfig};
use bs_sensor::{extract_features, FeatureConfig, StaticFeature};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Build a two-day JP-focused scenario, run it, and extract features at
/// the JP national authority.
fn run_jp_pipeline() -> (Vec<bs_sensor::OriginatorFeatures>, BTreeMap<Ipv4Addr, ApplicationClass>) {
    let world = World::new(WorldConfig::default());
    let jp = CountryCode::new("jp").unwrap();
    let mut cfg = ScenarioConfig::small(0xBEEF, SimDuration::from_days(2));
    cfg.region = Some((jp, 0.9));
    cfg.pool_size = 3_000;
    let scenario = Scenario::new(&world, cfg);

    let authority = AuthorityId::National(jp);
    let mut sim = Simulator::new(&world, SimulatorConfig::observing([authority]));
    let contacts = scenario.contacts_window(&world, SimTime::ZERO, SimTime::from_days(2));
    assert!(contacts.len() > 10_000, "scenario too quiet: {} contacts", contacts.len());
    sim.process(contacts);

    let logs = sim.into_logs();
    let log = &logs[&authority];
    assert!(log.len() > 2_000, "authority too quiet: {} records", log.len());

    let features = extract_features(
        log,
        &world,
        SimTime::ZERO,
        SimTime::from_days(2),
        &FeatureConfig { min_queriers: 20, top_n: None },
    );
    let truth: BTreeMap<Ipv4Addr, ApplicationClass> =
        scenario.active_originators(SimTime::ZERO, SimTime::from_days(2)).into_iter().collect();
    (features, truth)
}

#[test]
fn classes_leave_distinct_static_fingerprints() {
    let (features, truth) = run_jp_pipeline();
    assert!(features.len() >= 15, "too few analyzable originators: {}", features.len());

    // Mean static fraction per class.
    let mut sums: BTreeMap<ApplicationClass, ([f64; 14], usize)> = BTreeMap::new();
    for f in &features {
        let Some(class) = truth.get(&f.originator) else {
            continue;
        };
        let e = sums.entry(*class).or_insert(([0.0; 14], 0));
        for (a, b) in e.0.iter_mut().zip(f.features.static_fractions) {
            *a += b;
        }
        e.1 += 1;
    }
    let mean = |c: ApplicationClass, f: StaticFeature| -> Option<f64> {
        sums.get(&c).map(|(s, n)| s[f.index()] / *n as f64)
    };

    // Spam/mail queriers are mail-heavy; scan queriers are not.
    if let (Some(spam_mail), Some(scan_mail)) = (
        mean(ApplicationClass::Spam, StaticFeature::Mail),
        mean(ApplicationClass::Scan, StaticFeature::Mail),
    ) {
        assert!(spam_mail > 0.35, "spam should be mail-dominated, got {spam_mail}");
        assert!(spam_mail > scan_mail + 0.2, "spam mail fraction {spam_mail} vs scan {scan_mail}");
    } else {
        panic!("spam or scan missing from analyzable set: {:?}", sums.keys().collect::<Vec<_>>());
    }

    // CDN queriers are home-heavy relative to scanners (Fig. 3).
    if let (Some(cdn_home), Some(scan_home)) = (
        mean(ApplicationClass::Cdn, StaticFeature::Home),
        mean(ApplicationClass::Scan, StaticFeature::Home),
    ) {
        assert!(cdn_home > scan_home, "cdn home fraction {cdn_home} vs scan {scan_home}");
    }
}

#[test]
fn sensor_stages_conserve_every_record() {
    // With the ledger recording, the ingest and analyzability stages
    // must account for everything they saw (records in == kept +
    // deduped; originators in == selected + below-threshold +
    // truncated). Other tests in this binary may record concurrently;
    // that is safe because each ledger record call is internally
    // balanced.
    bs_telemetry::trace::enable();
    bs_telemetry::ledger::reset();
    let (features, _truth) = run_jp_pipeline();
    assert!(!features.is_empty(), "nothing analyzable — test is vacuous");
    let imbalances = bs_telemetry::ledger::verify();
    assert!(imbalances.is_empty(), "ledger imbalance:\n{}", bs_telemetry::ledger::render());
    let snap = bs_telemetry::ledger::snapshot();
    for stage in ["sensor.stream", "sensor.select"] {
        assert!(snap.keys().any(|(s, _)| s == stage), "{stage} filed no ledger flows");
    }
    bs_telemetry::trace::disable();
}

#[test]
fn scanners_show_wide_footprints_and_many_blocks() {
    let (features, truth) = run_jp_pipeline();
    // Scanners probe uniformly: their querier /24 diversity (local
    // entropy) should be high.
    let mut scan_entropy = Vec::new();
    let mut other_entropy = Vec::new();
    for f in &features {
        match truth.get(&f.originator) {
            Some(ApplicationClass::Scan) => scan_entropy.push(f.features.dynamic.local_entropy),
            Some(_) => other_entropy.push(f.features.dynamic.local_entropy),
            None => {}
        }
    }
    assert!(!scan_entropy.is_empty(), "no scanners analyzable");
    let scan_mean: f64 = scan_entropy.iter().sum::<f64>() / scan_entropy.len() as f64;
    assert!(scan_mean > 0.8, "scanner local entropy {scan_mean}");
}

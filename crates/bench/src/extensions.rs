//! Extensions beyond the paper's evaluation: the §VII QNAME-minimization
//! prediction, §IV-C's per-class accuracy, and originator geography.

use crate::table::{highest, lowest, table};
use crate::{Ctx, Experiment, Run, Verdict};
use backscatter_core::analysis::geo::{concentration, geo_breakdown, top_countries};
use backscatter_core::ml::{ConfusionMatrix, ForestParams, MajorityEnsemble, PAPER_VOTE_RUNS};
use backscatter_core::netsim::hierarchy::Delegation;
use backscatter_core::netsim::types::CountryCode;
use backscatter_core::prelude::*;
use std::collections::BTreeMap;
use ApplicationClass::{AdTracker, Cdn, Mail, Scan, Spam, Update};

pub(crate) const QNAME_MINIMIZATION: Experiment = Experiment {
    name: "ext_qname_minimization",
    title: "Extension: QNAME minimization vs backscatter visibility",
    paper_ref: "§VII prediction, quantified",
    claims: &[
        "a final authority's log is identical at every adoption level (it receives the full QNAME regardless)",
        "the national authority's log shrinks linearly with adoption: within 5 % of baseline of (1 - adoption) x baseline",
        "at 100 % adoption the national authority and the roots log nothing",
    ],
    body: qname_minimization,
};

fn qname_minimization(ctx: &Ctx) -> Run {
    let world = &ctx.world;
    let jp = CountryCode::new("jp").expect("static code");
    let end = SimTime::from_days(2);
    let mut cfg = ScenarioConfig::small(0x91, SimDuration::from_days(2));
    cfg.region = Some((jp, 0.85));
    cfg.slots.insert(Spam, 25);
    cfg.slots.insert(Scan, 20);
    cfg.pool_size = 3_000;
    let contacts = Scenario::new(world, cfg).contacts_window(world, SimTime::ZERO, end);
    // The final authority of the busiest delegated originator stands
    // for "the local authority" of the paper's prediction.
    let mut per_originator = BTreeMap::new();
    for c in &contacts {
        *per_originator.entry(c.originator).or_insert(0usize) += 1;
    }
    let delegated =
        |ip: &std::net::Ipv4Addr| matches!(world.delegation(*ip), Delegation::Delegated { .. });
    let busiest = per_originator.iter().filter(|(ip, _)| delegated(ip)).max_by_key(|(_, n)| **n);
    let busiest = *busiest.expect("a delegated originator").0;
    let (local, national) = (AuthorityId::final_for(busiest), AuthorityId::National(jp));
    let roots = [AuthorityId::Root(RootServer::B), AuthorityId::Root(RootServer::M)];
    let n = contacts.len();
    let mut out =
        format!("({n} contacts, JP-focused two-day scenario; final authority of {busiest})\n");

    let mut rows = Vec::new();
    // Per adoption level: log records at [final, national, roots].
    let mut sweep: Vec<(f64, [usize; 3])> = Vec::new();
    for adoption in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let config = SimulatorConfig::observing([local, national, roots[0], roots[1]])
            .with_qname_minimization(adoption);
        let mut sim = Simulator::new(world, config);
        sim.process(contacts.iter().copied());
        let logs = sim.into_logs();
        let analyzable = |a: &AuthorityId| {
            let config = FeatureConfig { min_queriers: 20, top_n: None };
            extract_features(&logs[a], world, SimTime::ZERO, end, &config).len()
        };
        let n = |a: &AuthorityId| logs[a].len();
        let records = [n(&local), n(&national), n(&roots[0]) + n(&roots[1])];
        let seen = [analyzable(&national), analyzable(&roots[0]) + analyzable(&roots[1])];
        let percent = format!("{:.0}%", adoption * 100.0);
        rows.push(
            std::iter::once(percent)
                .chain(records.iter().chain(&seen).map(usize::to_string))
                .collect(),
        );
        sweep.push((adoption, records));
    }
    out += &table(
        "qmin adoption|final log records|national log records|root log records|analyzable @ national|analyzable @ roots",
        &rows,
    );
    let baseline = sweep[0].1[1];
    let at_final: Vec<usize> = sweep.iter().map(|(_, records)| records[0]).collect();
    let off_linear = |(adoption, r): &(f64, [usize; 3])| {
        (r[1] as f64 - (1.0 - adoption) * baseline as f64).abs() / baseline as f64
    };
    let blind = sweep[sweep.len() - 1].1;
    let unchanged = at_final[0] > 0 && at_final.iter().all(|n| *n == at_final[0]);
    let verdicts = vec![
        Verdict::of(unchanged, format!("{at_final:?}")),
        judge!(highest(sweep.iter().map(off_linear)), <=, 0.05),
        judge!(blind[1] + blind[2], ==, 0),
    ];
    (out, verdicts)
}

pub(crate) const PER_CLASS: Experiment = Experiment {
    name: "ext_per_class",
    title: "Extension: per-class accuracy on JP-ditl (aggregated holdouts)",
    paper_ref: "§IV-C discussion",
    claims: &[
        "the well-represented classes are strong: spam, scan and mail each score F1 >= 0.85",
        "the sparse classes the paper names (update, cdn, ad-tracker) all score below the weakest of spam, scan and mail",
    ],
    body: per_class,
};

fn per_class(ctx: &Ctx) -> Run {
    let data = ctx.training_data(DatasetId::JpDitl, 0);
    // Aggregate a confusion matrix over repeated holdouts so small
    // classes accumulate enough test examples to be judged.
    let (mut truth, mut predicted) = (Vec::new(), Vec::new());
    for rep in 0..ctx.reps(25) as u64 {
        let (train, test) = data.stratified_split(0.6, 0xC1A55 + rep);
        if train.present_classes().len() < 2 || test.is_empty() {
            continue;
        }
        let forest = Algorithm::RandomForest(ForestParams::default());
        let ensemble = MajorityEnsemble::fit(&forest, &train, PAPER_VOTE_RUNS, 0x11 + rep);
        let (xs, labels) = test.xy();
        truth.extend(labels);
        predicted.extend(ensemble.predict_all(&xs));
    }
    let report = ConfusionMatrix::from_predictions(12, &truth, &predicted).per_class();
    let name = |class| ApplicationClass::from_index(class).map_or("?", |c| c.name());
    let score = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.2}"));
    let rows: Vec<Vec<String>> = report
        .iter()
        .map(|r| {
            let confused =
                r.top_confusion.map_or("-".into(), |(p, n)| format!("{} ({n})", name(p)));
            let (precision, recall, f1) = (score(r.precision), score(r.recall), score(r.f1));
            row![name(r.class), r.support, precision, recall, f1, confused]
        })
        .collect();
    let out = table("class|test support|precision|recall|F1|most confused with", &rows);

    let of = |class: &ApplicationClass| report.iter().find(|r| r.class == class.index());
    let f1 = |class| of(&class).and_then(|r| r.f1).unwrap_or(0.0);
    let supported = |classes: &[ApplicationClass]| {
        classes.iter().all(|c| of(c).is_some_and(|r| r.support >= 10))
    };
    let (big, sparse) = ([Spam, Scan, Mail], [Update, Cdn, AdTracker]);
    let verdicts = vec![
        judge!(lowest(big.map(f1)), >=, 0.85)
            .given(supported(&big), "needs test support of 10 for spam, scan and mail"),
        judge!(highest(sparse.map(f1)), <, lowest(big.map(f1)))
            .given(supported(&sparse), "needs test support of 10 for update, cdn and ad-tracker"),
    ];
    (out, verdicts)
}

pub(crate) const GEOGRAPHY: Experiment = Experiment {
    name: "ext_geography",
    title: "Extension: originator geography by class (M-ditl)",
    paper_ref: "Tables VII/VIII annotations",
    claims: &[
        "scanners spread across countries: no single country hosts more than half of them",
        "cn is among the top three cdn countries (the paper's Chinese CDN observation at M-Root)",
        "big countries lead by address-space share: the us hosts more originators than any other country",
    ],
    body: geography,
};

fn geography(ctx: &Ctx) -> Run {
    let breakdown = geo_breakdown(&ctx.world, ctx.series(DatasetId::MDitl));
    let rows: Vec<Vec<String>> = ApplicationClass::ALL
        .into_iter()
        .filter_map(|class| {
            let top: Vec<String> = top_countries(&breakdown, class, 3)
                .iter()
                .map(|(cc, n, f)| format!("{cc} {n} ({:.0}%)", f * 100.0))
                .collect();
            let share = format!("{:.2}", concentration(&breakdown, class)?);
            Some(row![class.name(), share, top.join(", ")])
        })
        .collect();
    let mut out = table("class|concentration|top countries", &rows);
    say!(out, "\nconcentration = share of the class's originators in its busiest country.");
    let total = |class| breakdown.get(&class).map_or(0, |per| per.values().sum::<usize>());
    let cdn: Vec<String> =
        top_countries(&breakdown, Cdn, 3).iter().map(|(cc, ..)| cc.to_string()).collect();
    let mut per_country: BTreeMap<String, usize> = BTreeMap::new();
    for (cc, n) in breakdown.values().flatten() {
        *per_country.entry(cc.to_string()).or_default() += n;
    }
    let leader = per_country.iter().max_by_key(|(_, n)| **n).map(|(cc, _)| cc.as_str());
    let verdicts = vec![
        judge!(concentration(&breakdown, Scan).unwrap_or(1.0), <=, 0.5)
            .given(total(Scan) >= 20, "needs 20 scan originators"),
        Verdict::of(cdn.iter().any(|cc| cc == "cn"), format!("top cdn countries {cdn:?}"))
            .given(total(Cdn) >= 20, "needs 20 cdn originators"),
        judge!(leader, ==, Some("us")),
    ];
    (out, verdicts)
}

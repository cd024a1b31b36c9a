//! Tables I–VIII.

use crate::table::{f3, highest, lowest, table};
use crate::{Ctx, Experiment, Run, Verdict};
use backscatter_core::analysis::cases::bs_datasets_types::{BlacklistView, DarknetView};
use backscatter_core::analysis::cases::{clean_rows, top_originator_table, TtlColumn};
use backscatter_core::classify::pipeline::feature_map;
use backscatter_core::datasets::{Blacklist, Darknet};
use backscatter_core::ml::{repeated_holdout, Dataset, Forest, ForestParams};
use backscatter_core::prelude::*;
use backscatter_core::sensor::FeatureVector;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use ApplicationClass::{Cdn, Mail, Ntp, Scan, Spam, Update};
use DatasetId::{BPostDitl, JpDitl, MDitl, MDitl2015, MSampled};

/// The four datasets the paper classifies (Tables III, V, VI; Fig. 9).
pub(crate) const CLASSIFIED: [DatasetId; 4] = [JpDitl, BPostDitl, MDitl, MSampled];

/// A header of `first` then one column per application class.
pub(crate) fn class_header(first: &str) -> String {
    ApplicationClass::ALL.iter().fold(first.to_string(), |h, c| h + "|" + c.name())
}

/// A row of `name` then one per-class count (`-` for none).
fn class_row(name: &str, counts: &BTreeMap<ApplicationClass, usize>) -> Vec<String> {
    let cell = |c| counts.get(c).map_or("-".to_string(), usize::to_string);
    std::iter::once(name.to_string()).chain(ApplicationClass::ALL.iter().map(cell)).collect()
}

/// Whether every listed dataset has 100 analyzable originators: below
/// that a capture's volume and its "top 30" say more about a few heavy
/// hitters than about the vantage point.
fn populous(ctx: &Ctx, ids: &[DatasetId]) -> bool {
    ids.iter().all(|id| ctx.features(*id)[0].len() >= 100)
}

pub(crate) const TABLE1: Experiment = Experiment {
    name: "table1_datasets",
    title: "Table I: DNS datasets",
    paper_ref: "Table I",
    claims: &[
        "the JP national authority sees a higher reverse-query rate than any single root's DITL capture",
        "1:10 sampling thins M-sampled's query rate below unsampled M-ditl's",
    ],
    body: table1,
};

fn table1(ctx: &Ctx) -> Run {
    let mut qps = BTreeMap::new();
    let rows: Vec<Vec<String>> = DatasetId::ALL
        .iter()
        .map(|&id| {
            let built = ctx.dataset(id);
            let span_h = built.spec.scenario.duration.secs() as f64 / 3600.0;
            let span = match span_h < 100.0 {
                true => format!("{span_h:.0} hours"),
                false => format!("{:.0} days", span_h / 24.0),
            };
            let sampling = built.spec.sampling.map_or("no".to_string(), |n| format!("1:{n}"));
            qps.insert(id, built.log.len() as f64 / (span_h * 3600.0));
            let rate = format!("{:.2}", qps[&id]);
            row![id.name(), built.spec.authority, span, sampling, built.log.len(), rate]
        })
        .collect();
    let out = table("dataset|authority|duration|sampling|reverse queries|reverse qps", &rows);
    let busiest_root = highest([BPostDitl, MDitl, MDitl2015].map(|id| qps[&id]));
    let verdicts = vec![
        judge!(qps[&JpDitl], >, busiest_root).given(
            populous(ctx, &[JpDitl, BPostDitl, MDitl, MDitl2015]),
            "needs 100 analyzable originators in every DITL capture",
        ),
        judge!(qps[&MSampled], <, qps[&MDitl]),
    ];
    (out, verdicts)
}

pub(crate) const TABLE2: Experiment = Experiment {
    name: "table2_dynamic_features",
    title: "Table II: dynamic features for case studies (JP-ditl)",
    paper_ref: "Table II",
    claims: &[
        "spam draws more queries per querier than mail",
        "cdn and mail have lower global entropy than either scanner",
        "the two scanners have the highest local entropy of the six",
    ],
    body: table2,
};

fn table2(ctx: &Ctx) -> Run {
    let cases = ctx.case_studies();
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|(name, f)| {
            let d = &f.features.dynamic;
            let cells = [d.global_entropy, d.local_entropy, d.countries_per_querier, d.persistence];
            let rate = format!("{:.1}", d.queries_per_querier);
            [name.to_string(), rate].into_iter().chain(cells.map(f3)).collect()
        })
        .collect();
    let header = "case|queries/querier|global entropy|local entropy|countries/querier|persistence";
    let out = table(header, &rows);
    if let Some(thin) = crate::figures::missing_case(&cases) {
        return (out, vec![thin; 3]);
    }
    let d: BTreeMap<_, _> = cases.iter().map(|(n, f)| (*n, &f.features.dynamic)).collect();
    let scanners = [d["scan-icmp"], d["scan-ssh"]];
    let others = ["ad-track", "cdn", "mail", "spam"].map(|c| d[c].local_entropy);
    let verdicts = vec![
        judge!(d["spam"].queries_per_querier, >, d["mail"].queries_per_querier),
        judge!(
            d["cdn"].global_entropy.max(d["mail"].global_entropy),
            <,
            lowest(scanners.map(|s| s.global_entropy))
        )
        .given(
            cases.iter().all(|(_, f)| f.querier_count >= 300),
            "needs 300 queriers per case to estimate entropy over /8s",
        ),
        judge!(lowest(scanners.map(|s| s.local_entropy)), >, highest(others)),
    ];
    (out, verdicts)
}

pub(crate) const TABLE3: Experiment = Experiment {
    name: "table3_accuracy",
    title: "Table III: validating classification against labeled ground truth",
    paper_ref: "Table III",
    claims: &[
        "random forest is at least as accurate as CART on every dataset",
        "CART beats chance (the largest class's share) on every dataset",
        "the SVM is the least accurate of the three at the roots",
        "no root dataset classifies more accurately than the JP national authority (RF)",
    ],
    body: table3,
};

/// The paper's protocol: 50 stratified 60/40 splits, majority voting
/// over 10 runs for the randomized learners.
fn table3(ctx: &Ctx) -> Run {
    let algorithms = [
        Algorithm::Cart(CartParams::default()),
        Algorithm::RandomForest(ForestParams::default()),
        Algorithm::Svm(SvmParams::default()),
    ];
    let mut rows = Vec::new();
    // Per dataset: accuracy of [CART, RF, SVM], chance, labeled examples.
    let (mut acc, mut chance, mut fewest) = (BTreeMap::new(), BTreeMap::new(), usize::MAX);
    for id in CLASSIFIED {
        // Long feeds merge the curation dates, each contributing its
        // new examples with that date's feature vectors.
        let mut data = Dataset::new(FeatureVector::names(), ApplicationClass::all_names());
        let mut seen = BTreeSet::new();
        for w in ctx.curation_windows(id) {
            let mut fresh = ctx.curate(id, w);
            fresh.examples.retain(|e| seen.insert(e.originator));
            let part = ClassifierPipeline::to_dataset(&fresh, &feature_map(&ctx.features(id)[w]));
            part.samples.into_iter().for_each(|s| data.push(s));
        }
        let largest = data.class_counts().into_iter().max().unwrap_or(0);
        chance.insert(id, largest as f64 / data.len() as f64);
        fewest = fewest.min(data.len());
        for alg in &algorithms {
            let rep = repeated_holdout(alg, &data, 0.6, ctx.reps(50), 0xACC);
            acc.entry(id).or_insert_with(Vec::new).push(rep.mean.accuracy);
            let cell = |mean: f64, std: f64| format!("{mean:.2} ({std:.2})");
            rows.push(row![
                id.name(),
                alg.name(),
                cell(rep.mean.accuracy, rep.std.accuracy),
                cell(rep.mean.precision, rep.std.precision),
                cell(rep.mean.recall, rep.std.recall),
                cell(rep.mean.f1, rep.std.f1),
            ]);
        }
    }
    let mut out = table("dataset|algorithm|accuracy|precision|recall|F1-score", &rows);
    say!(out, "\n{} holdouts per cell; chance = {chance:.2?}", ctx.reps(50));
    let seen = format!("accuracy [CART, RF, SVM] = {acc:.3?}, chance = {chance:.3?}");
    let ranked = |ok: bool| {
        Verdict::of(ok, &seen)
            .given(fewest >= 100, "needs 100 labeled examples per dataset to rank learners")
    };
    let roots = [BPostDitl, MDitl, MSampled];
    let verdicts = vec![
        ranked(acc.values().all(|a| a[1] >= a[0])),
        Verdict::of(acc.iter().all(|(id, a)| a[0] > chance[id]), &seen),
        ranked(roots.iter().all(|id| acc[id][2] < acc[id][0].min(acc[id][1]))),
        ranked(roots[..2].iter().all(|id| acc[id][1] <= acc[&JpDitl][1])),
    ];
    (out, verdicts)
}

pub(crate) const TABLE4: Experiment = Experiment {
    name: "table4_gini",
    title: "Table IV: top discriminative features (RF Gini importance)",
    paper_ref: "Table IV",
    claims: &[
        "at least two of the mail/home/ns/antispam static fractions rank in the Gini top six on JP-ditl and on M-ditl",
        "a dynamic feature ranks in the top six on both datasets",
    ],
    body: table4,
};

fn table4(ctx: &Ctx) -> Run {
    let top = [JpDitl, MDitl].map(|id| {
        let forest = Forest::fit(&ctx.training_data(id, 0), &ForestParams::default(), 0x6111);
        let mut ranked = forest.ranked_importances(&FeatureVector::names());
        ranked.truncate(6);
        ranked
    });
    // Gini shown ×100 like the paper's table.
    let cell = |(name, gini): &(String, f64)| format!("{name} ({:.1})", gini * 100.0);
    let rows: Vec<_> = (0..6).map(|r| row![r + 1, cell(&top[0][r]), cell(&top[1][r])]).collect();
    let names = top.each_ref().map(|t| t.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>());
    let mail_like = ["static:mail", "static:home", "static:ns", "static:antispam"];
    let seen = format!("top six: {names:?}");
    let verdicts = vec![
        Verdict::of(
            names.iter().all(|t| t.iter().filter(|n| mail_like.contains(n)).count() >= 2),
            &seen,
        ),
        Verdict::of(names.iter().all(|t| t.iter().any(|n| n.starts_with("dyn:"))), &seen),
    ];
    (table("rank|JP-ditl|M-ditl", &rows), verdicts)
}

pub(crate) const TABLE5: Experiment = Experiment {
    name: "table5_class_counts",
    title: "Table V: number of originators in each class",
    paper_ref: "Table V",
    claims: &[
        "spam is the most common class at the JP national authority",
        "M-Root sees at least as many cdn originators as B-Root",
        "scan and spam are the two largest classes of the long M-sampled feed",
    ],
    body: table5,
};

fn table5(ctx: &Ctx) -> Run {
    // Short datasets have one window; M-sampled counts
    // originator-window detections over the whole span.
    let counts = CLASSIFIED.map(|id| {
        let mut counts = BTreeMap::new();
        for e in ctx.series(id).iter().flat_map(|w| &w.entries) {
            *counts.entry(e.class).or_insert(0) += 1;
        }
        counts
    });
    let rows: Vec<_> =
        CLASSIFIED.iter().zip(&counts).map(|(id, c)| class_row(id.name(), c)).collect();
    let [jp, b, m, sampled] = &counts;
    let n = |counts: &BTreeMap<_, usize>, class| counts.get(&class).copied().unwrap_or(0);
    let third = sampled.iter().filter(|(c, _)| !matches!(c, Scan | Spam)).map(|(_, n)| *n).max();
    let verdicts = vec![
        judge!(n(jp, Spam), >=, jp.values().copied().max().unwrap_or(0)),
        judge!(n(m, Cdn), >=, n(b, Cdn)),
        judge!(n(sampled, Scan).min(n(sampled, Spam)), >, third.unwrap_or(0)),
    ];
    (table(&class_header("data"), &rows), verdicts)
}

pub(crate) const TABLE6: Experiment = Experiment {
    name: "table6_groundtruth",
    title: "Table VI: labeled ground-truth examples per class",
    paper_ref: "Table VI",
    claims: &[
        "on every dataset, curation yields more spam, scan and mail examples than ntp or update examples",
        "merging three curation dates grows M-sampled's labeled set beyond its first date's: new originators keep arriving",
    ],
    body: table6,
};

fn table6(ctx: &Ctx) -> Run {
    let mut rows = Vec::new();
    let (mut sparse_exceeds_big, mut totals) = (Vec::new(), Vec::new());
    for id in CLASSIFIED {
        let mut labeled = LabeledSet::default();
        for w in ctx.curation_windows(id) {
            labeled.merge(&ctx.curate(id, w));
        }
        let counts = labeled.class_counts();
        let n = |class| counts.get(&class).copied().unwrap_or(0);
        if n(Spam).min(n(Scan)).min(n(Mail)) <= n(Ntp).max(n(Update)) {
            sparse_exceeds_big.push(format!("{}: {counts:?}", id.name()));
        }
        let mut row = class_row(id.name(), &counts);
        row.push(labeled.len().to_string());
        rows.push(row);
        totals.push(labeled.len());
    }
    let verdicts = vec![
        Verdict::of(sparse_exceeds_big.is_empty(), sparse_exceeds_big.join("; "))
            .given(totals.iter().all(|n| *n >= 100), "needs 100 labeled examples per dataset"),
        judge!(totals[3], >, ctx.curate(MSampled, 0).len()),
    ];
    (table(&(class_header("dataset") + "|total"), &rows), verdicts)
}

struct Bl<'a>(&'a Blacklist);
impl BlacklistView for Bl<'_> {
    fn bls(&self, ip: Ipv4Addr) -> u8 {
        self.0.bls(ip)
    }
    fn blo(&self, ip: Ipv4Addr) -> u8 {
        self.0.blo(ip)
    }
}
struct Dn<'a>(&'a Darknet);
impl DarknetView for Dn<'_> {
    fn dark_ips(&self, ip: Ipv4Addr) -> u64 {
        self.0.dark_ips(ip)
    }
}

pub(crate) const TABLE7_8: Experiment = Experiment {
    name: "table7_8_top_originators",
    title: "Tables VII & VIII: top originators in JP-ditl and M-ditl",
    paper_ref: "Tables VII/VIII",
    claims: &[
        "at most a third of either table's rows are clean (no darknet or blacklist evidence)",
        "spammers and scanners are the majority of JP's top originators",
        "M-Root's top originators include a cdn",
    ],
    body: table7_8,
};

fn table7_8(ctx: &Ctx) -> Run {
    let mut out = String::new();
    let tables = [JpDitl, MDitl].map(|id| {
        let built = ctx.dataset(id);
        let classified: BTreeMap<_, _> =
            ctx.series(id)[0].entries.iter().map(|e| (e.originator, e.class)).collect();
        let (bl, dn) = (Bl(&built.blacklist), Dn(&built.darknet));
        let rows =
            top_originator_table(&ctx.world, &ctx.features(id)[0], &classified, &bl, &dn, 30);
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let ttl = match r.ttl {
                    TtlColumn::Positive(ttl) => format!("{ttl}s"),
                    TtlColumn::Negative(ttl) => format!("†{ttl}s"),
                    TtlColumn::Failure => "F".to_string(),
                };
                let class = r.class.map_or("?", |c| c.name());
                row![r.rank, r.originator, r.queriers, ttl, r.dark_ips, r.bls, r.blo, class]
            })
            .collect();
        say!(out, "\n{}:", id.name());
        out += &table("rank|originator|queriers|TTL|DarkIP|BLS|BLO|class", &cells);
        say!(out, "clean rows (no external evidence): {} of {}", clean_rows(&rows), rows.len());
        rows
    });
    let [jp, m] = &tables;
    let unsavoury = jp.iter().filter(|r| matches!(r.class, Some(Spam | Scan))).count();
    let top = |v: Verdict| {
        let needs = "needs 100 analyzable originators for 30 to be the top";
        v.given(populous(ctx, &[JpDitl, MDitl]), needs)
    };
    let verdicts = vec![
        top(judge!(clean_rows(jp).max(clean_rows(m)) * 3, <=, jp.len().min(m.len()))),
        judge!(unsavoury * 2, >, jp.len()),
        top(judge!(m.iter().filter(|r| r.class == Some(Cdn)).count(), >=, 1)),
    ];
    (out, verdicts)
}

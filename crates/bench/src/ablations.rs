//! The five design-choice ablations of DESIGN.md §6, all on JP-ditl.

use crate::table::{f3, highest, lowest, mean, table};
use crate::{Ctx, Experiment, Run, Verdict};
use backscatter_core::classify::pipeline::feature_map;
use backscatter_core::classify::PER_CLASS_CAP;
use backscatter_core::ml::{
    repeated_holdout, ConfusionMatrix, ForestParams, MajorityEnsemble, Metrics, PAPER_VOTE_RUNS,
};
use backscatter_core::netsim::types::NameOutcome;
use backscatter_core::prelude::*;
use backscatter_core::sensor::ingest::Observations;
use backscatter_core::sensor::static_features::{
    classify_name_with_order, MatchOrder, StaticFeature,
};
use std::collections::BTreeMap;
use DatasetId::JpDitl;

fn forest() -> Algorithm {
    Algorithm::RandomForest(ForestParams::default())
}

/// Curate `feats` against JP-ditl's ground truth and validate the RF on
/// the result: `(labeled examples, mean holdout metrics)`.
fn rf_holdout(ctx: &Ctx, feats: &[OriginatorFeatures], seed: u64) -> (usize, Metrics) {
    let built = ctx.dataset(JpDitl);
    let truth = built.truth_for_window(built.windows()[0]);
    let labeled = LabeledSet::curate(&truth, feats, PER_CLASS_CAP);
    let data = ClassifierPipeline::to_dataset(&labeled, &feature_map(feats));
    (labeled.len(), repeated_holdout(&forest(), &data, 0.6, ctx.reps(15), seed).mean)
}

/// "All settings score within `tolerance`" — judged only when there
/// are enough labeled examples for a holdout to resolve that margin.
fn flat(scores: &[f64], tolerance: f64, labeled: usize) -> Verdict {
    judge!(highest(scores.iter().copied()) - lowest(scores.iter().copied()), <=, tolerance)
        .given(labeled >= 100, "needs 100 labeled examples to resolve a few points of accuracy")
}

pub(crate) const DEDUP: Experiment = Experiment {
    name: "ablation_dedup",
    title: "Ablation: per-querier deduplication window",
    paper_ref: "§III-C design choice",
    claims: &[
        "without deduplication mean queries/querier is inflated, and it falls as the window widens",
        "RF accuracy is robust to the window: all four settings within 0.03",
    ],
    body: dedup,
};

fn dedup(ctx: &Ctx) -> Run {
    let built = ctx.dataset(JpDitl);
    let (start, end) = built.windows()[0];
    let mut rows = Vec::new();
    let (mut rates, mut accuracies, mut labeled) = (Vec::new(), Vec::new(), 0);
    for dedup_secs in [0u64, 30, 300, 1800] {
        let window = SimDuration::from_secs(dedup_secs);
        let obs = Observations::ingest_with_dedup(&built.log, start, end, window);
        let feats = extract_with_meta_cache(&obs, &ctx.world, &FeatureConfig::default(), None);
        let (n, m) = rf_holdout(ctx, &feats, 0xDED);
        let per_querier: Vec<f64> =
            feats.iter().map(|f| f.features.dynamic.queries_per_querier).collect();
        let setting = if dedup_secs == 0 { "off".to_string() } else { format!("{dedup_secs}s") };
        let rate = format!("{:.2}", mean(&per_querier));
        rows.push(row![setting, feats.len(), rate, f3(m.accuracy), f3(m.f1)]);
        rates.push(mean(&per_querier));
        accuracies.push(m.accuracy);
        labeled = n;
    }
    let verdicts = vec![
        Verdict::of(rates.windows(2).all(|w| w[1] < w[0]), format!("queries/querier {rates:.2?}")),
        flat(&accuracies, 0.03, labeled),
    ];
    (table("dedup window|analyzable|mean queries/querier|RF accuracy|RF F1", &rows), verdicts)
}

pub(crate) const THRESHOLD: Experiment = Experiment {
    name: "ablation_threshold",
    title: "Ablation: analyzability threshold (minimum unique queriers)",
    paper_ref: "§III-B design choice",
    claims: &[
        "raising the threshold from 5 to 100 queriers only ever shrinks coverage",
        "RF accuracy is flat across thresholds: all five settings within 0.05",
    ],
    body: threshold,
};

fn threshold(ctx: &Ctx) -> Run {
    let built = ctx.dataset(JpDitl);
    let mut rows = Vec::new();
    let (mut coverage, mut accuracies, mut fewest) = (Vec::new(), Vec::new(), usize::MAX);
    for min_queriers in [5usize, 10, 20, 50, 100] {
        let config = FeatureConfig { min_queriers, top_n: None };
        let (start, end) = built.windows()[0];
        let feats = extract_features(&built.log, &ctx.world, start, end, &config);
        let (labeled, m) = rf_holdout(ctx, &feats, 0x7823);
        rows.push(row![min_queriers, feats.len(), labeled, f3(m.accuracy), f3(m.f1)]);
        coverage.push(feats.len());
        accuracies.push(m.accuracy);
        fewest = fewest.min(labeled);
    }
    let shrinks = coverage.windows(2).all(|w| w[1] <= w[0]) && coverage[4] < coverage[0];
    let verdicts = vec![
        Verdict::of(shrinks, format!("coverage {coverage:?}")),
        flat(&accuracies, 0.05, fewest),
    ];
    (table("min queriers|analyzable originators|labeled|RF accuracy|RF F1", &rows), verdicts)
}

pub(crate) const FOREST_SIZE: Experiment = Experiment {
    name: "ablation_forest_size",
    title: "Ablation: forest size × majority-vote runs",
    paper_ref: "§III-D design choice",
    claims: &[
        "10-run majority voting does not hurt the small 10-tree forest (F1 no lower than a single run's)",
        "from 50 trees up voting moves F1 by less than 0.03: the paper's 100-tree, 10-vote choice sits on the plateau",
    ],
    body: forest_size,
};

fn forest_size(ctx: &Ctx) -> Run {
    let data = ctx.training_data(JpDitl, 0);
    let mut rows = Vec::new();
    // Per forest size: how much 10-run voting adds to a single run's F1.
    let mut vote_gain = Vec::new();
    for n_trees in [10usize, 50, 100, 200] {
        let alg = Algorithm::RandomForest(ForestParams { n_trees, ..Default::default() });
        let f1 = [1, PAPER_VOTE_RUNS].map(|runs| {
            // Repeated holdout with the ensemble size under test.
            let holdout = |rep| {
                let (train, test) = data.stratified_split(0.6, 0xF0 + rep);
                let ensemble = MajorityEnsemble::fit(&alg, &train, runs, 0x51 + rep);
                let (xs, truth) = test.xy();
                let predicted = ensemble.predict_all(&xs);
                ConfusionMatrix::from_predictions(12, &truth, &predicted).metrics()
            };
            let m = Metrics::mean(&(0..ctx.reps(10) as u64).map(holdout).collect::<Vec<_>>());
            rows.push(row![n_trees, runs, f3(m.accuracy), f3(m.f1)]);
            m.f1
        });
        vote_gain.push(f1[1] - f1[0]);
    }
    let verdicts = vec![
        judge!(vote_gain[0], >=, 0.0),
        judge!(highest(vote_gain[1..].iter().map(|g| g.abs())), <, 0.03)
            .given(data.len() >= 100, "needs 100 labeled examples to resolve a few points of F1"),
    ];
    (table("trees|vote runs|accuracy|F1", &rows), verdicts)
}

pub(crate) const FEATURE_MATCHING: Experiment = Experiment {
    name: "ablation_feature_matching",
    title: "Ablation: keyword match order (left-most vs right-most component)",
    paper_ref: "§III-C design choice",
    claims: &[
        "match order changes interpretability, not accuracy: RF accuracy moves by at most 0.03",
        "right-most matching moves feature mass onto suffix keywords: the mean home fraction rises",
    ],
    body: feature_matching,
};

fn feature_matching(ctx: &Ctx) -> Run {
    let built = ctx.dataset(JpDitl);
    let (start, end) = built.windows()[0];
    let obs = Observations::ingest(&built.log, start, end);
    let mut rows = Vec::new();
    let (mut accuracies, mut labeled) = (Vec::new(), 0);
    let mut fractions: BTreeMap<&str, [f64; 2]> = BTreeMap::new();
    let orders = [
        ("leftmost-first (paper)", MatchOrder::LeftmostFirst),
        ("rightmost-first", MatchOrder::RightmostFirst),
    ];
    for (i, (name, order)) in orders.into_iter().enumerate() {
        // Recount each originator's static fractions with the chosen
        // match order (the dynamic features do not depend on it).
        let mut feats = ctx.features(JpDitl)[0].clone();
        for f in &mut feats {
            let queriers = obs.originator(f.originator).expect("a sensed originator").queriers();
            let mut counts = [0usize; 14];
            for q in queriers {
                let category = match ctx.world.reverse_name(*q) {
                    NameOutcome::Name(n) => classify_name_with_order(&n, order),
                    NameOutcome::NxDomain => StaticFeature::NxDomain,
                    NameOutcome::Unreachable => StaticFeature::Unreach,
                };
                counts[category.index()] += 1;
            }
            f.features.static_fractions = counts.map(|c| c as f64 / queriers.len().max(1) as f64);
        }
        for s in StaticFeature::ALL {
            let mass: Vec<f64> =
                feats.iter().map(|f| f.features.static_fractions[s.index()]).collect();
            fractions.entry(s.name()).or_insert([0.0; 2])[i] = mean(&mass);
        }
        let (n, m) = rf_holdout(ctx, &feats, 0xFEA7);
        rows.push(row![name, feats.len(), f3(m.accuracy), f3(m.f1)]);
        accuracies.push(m.accuracy);
        labeled = n;
    }
    let mut out = table("match order|analyzable|RF accuracy|RF F1", &rows);
    say!(out, "\nmean static fractions that shift (Δ ≥ 0.01):");
    for (name, [l, r]) in fractions.iter().filter(|(_, [l, r])| (l - r).abs() >= 0.01) {
        say!(out, "  {name:20} leftmost {l:.3}  rightmost {r:.3}");
    }
    let [leftmost_home, rightmost_home] = fractions[StaticFeature::Home.name()];
    (out, vec![flat(&accuracies, 0.03, labeled), judge!(rightmost_home, >, leftmost_home)])
}

pub(crate) const FRACTIONS: Experiment = Experiment {
    name: "ablation_fractions",
    title: "Ablation: fraction-based vs count-based static features",
    paper_ref: "§III-C design choice",
    claims: &[
        "fraction-based static features classify at least as accurately as raw counts, which entangle class with footprint size",
    ],
    body: fractions,
};

fn fractions(ctx: &Ctx) -> Run {
    let fractions = ctx.training_data(JpDitl, 0);
    // Count-based variant: scale the 14 static dimensions by footprint.
    // `training_data` keeps the curated examples' order.
    let footprints: BTreeMap<_, _> =
        ctx.features(JpDitl)[0].iter().map(|f| (f.originator, f.querier_count as f64)).collect();
    let mut counts = fractions.clone();
    for (sample, e) in counts.samples.iter_mut().zip(&ctx.curate(JpDitl, 0).examples) {
        sample.features.iter_mut().take(14).for_each(|v| *v *= footprints[&e.originator]);
    }
    let mut accuracies = Vec::new();
    let rows: Vec<Vec<String>> = [("fractions (paper)", &fractions), ("raw counts", &counts)]
        .into_iter()
        .map(|(name, data)| {
            let m = repeated_holdout(&forest(), data, 0.6, ctx.reps(15), 0xFAC).mean;
            accuracies.push(m.accuracy);
            row![name, f3(m.accuracy), f3(m.precision), f3(m.f1)]
        })
        .collect();
    let out = table("static encoding|RF accuracy|RF precision|RF F1", &rows);
    (out, vec![judge!(accuracies[0], >=, accuracies[1])])
}

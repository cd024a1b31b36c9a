//! Figs. 8–15: what the classified originators look like, per dataset
//! and week by week over the nine-month M-sampled feed.

use crate::table::{cv, lowest, mean, table};
use crate::tables::{class_header, CLASSIFIED};
use crate::{Ctx, Experiment, Run, Verdict};
use backscatter_core::analysis::churn::{churn_series, ChurnWeek};
use backscatter_core::analysis::footprint::{ccdf, counts_with_at_least};
use backscatter_core::analysis::teams::{block_series, busiest_scan_blocks, scan_teams};
use backscatter_core::analysis::topn::class_mix_top_n;
use backscatter_core::analysis::trends::{
    class_counts_per_window, footprint_boxes, originator_traces,
};
use backscatter_core::analysis::{detect_bursts, BurstConfig};
use backscatter_core::classify::{consistency_cdf, consistency_ratios, vote_entropy, WeeklyVote};
use backscatter_core::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use ApplicationClass::{Cdn, Mail, Scan, Spam};
use DatasetId::{BPostDitl, JpDitl, MDitl, MSampled};

/// First week of the injected Heartbleed-style surge (19.5 % into the
/// span, `DatasetSpec::paper`), which lasts three weeks.
fn surge_start(weeks: usize) -> usize {
    (weeks as f64 * 0.195) as usize
}

/// A long series of rendered lines decimated to about `keep`.
fn decimated(lines: Vec<String>, keep: usize) -> String {
    let step = (lines.len() / keep).max(1);
    let kept = lines.iter().enumerate().filter(|(i, _)| i % step == 0 || i + 1 == lines.len());
    kept.map(|(_, line)| line.as_str()).collect()
}

pub(crate) const FIG8: Experiment = Experiment {
    name: "fig8_consistency",
    title: "Fig. 8: CDF of r (fraction of weeks with the majority class)",
    paper_ref: "Figure 8 / §V-E",
    claims: &[
        "at every querier threshold q in 20/50/75/100 with at least 10 qualifying originators, at least 85 % of them have a strict-majority class (paper: 85-90 %)",
        "over those thresholds the fully consistent share does not fall as q rises",
        "plurality cases (r <= 0.5) split between two classes, mean vote entropy >= 0.9 (known deviation: IP-reuse collisions, not the paper's one dominant class)",
    ],
    body: fig8,
};

fn fig8(ctx: &Ctx) -> Run {
    let vote = |w: &WindowClassification, e: &ClassifiedOriginator| WeeklyVote {
        originator: e.originator,
        week: w.window,
        class: e.class,
        queriers: e.queriers,
    };
    let votes: Vec<WeeklyVote> = ctx
        .series(MSampled)
        .iter()
        .flat_map(|w| w.entries.iter().map(move |e| vote(w, e)))
        .collect();
    let mut out = String::new();
    let (mut strict, mut full, mut entropies) = (Vec::new(), Vec::new(), Vec::new());
    for q in [20usize, 50, 75, 100] {
        let ratios = consistency_ratios(&votes, q, 4);
        let rs: Vec<f64> = ratios.iter().map(|r| r.1).collect();
        say!(out, "\n# q = {q} ({} originators with ≥4 qualifying weeks)", rs.len());
        let cdf = consistency_cdf(&rs);
        out += &decimated(cdf.iter().map(|(r, f)| format!("{r:.3}\t{f:.3}\n")).collect(), 20);
        let share = |pred: fn(&&f64) -> bool| {
            rs.iter().filter(pred).count() as f64 / rs.len().max(1) as f64
        };
        let (majority, consistent) = (share(|r| **r > 0.5), share(|r| **r >= 0.999));
        say!(out, "# strict majority: {majority:.2}, fully consistent: {consistent:.2}");
        if rs.len() >= 10 {
            strict.push(majority);
            full.push(consistent);
        }
        // §V-E: among plurality-only originators, is there a single
        // dominant class (low vote entropy) or two equally common ones?
        let plurality: Vec<f64> = ratios
            .iter()
            .filter(|(_, r, _, _)| *r <= 0.5)
            .filter_map(|(ip, _, _, _)| vote_entropy(&votes, *ip, q))
            .collect();
        let (n, entropy) = (plurality.len(), mean(&plurality));
        say!(out, "# plurality cases (r ≤ 0.5): {n}, mean vote entropy {entropy:.2} (1 = two equal classes)");
        entropies.extend(plurality);
    }
    let verdicts = vec![
        judge!(lowest(strict.iter().copied()), >=, 0.85)
            .given(!strict.is_empty(), "needs a threshold with 10 qualifying originators"),
        Verdict::of(full.windows(2).all(|w| w[1] >= w[0]), format!("shares {full:.2?}"))
            .given(full.len() >= 2, "needs two thresholds with 10 qualifying originators"),
        judge!(mean(&entropies), >=, 0.9).given(entropies.len() >= 5, "needs 5 plurality cases"),
    ];
    (out, verdicts)
}

pub(crate) const FIG9: Experiment = Experiment {
    name: "fig9_footprint",
    title: "Fig. 9: distribution of originator footprint size",
    paper_ref: "Figure 9",
    claims: &[
        "footprints are right-skewed on every dataset: the mean exceeds the median",
        "and heavy-tailed: the largest originator has at least ten times the median footprint",
    ],
    body: fig9,
};

fn fig9(ctx: &Ctx) -> Run {
    let mut out = String::new();
    let (mut skews, mut tails, mut fewest) = (Vec::new(), Vec::new(), usize::MAX);
    for id in CLASSIFIED {
        // For multi-window datasets, use the first window (the paper
        // plots one feature-window per dataset: d = 50 h / 36 h / 7 d).
        let entries = &ctx.series(id)[0].entries;
        say!(out, "\n# {} (window 0, {} analyzable originators)", id.name(), entries.len());
        say!(out, "# footprint\tfraction-with-at-least");
        let dist = ccdf(entries);
        out += &decimated(dist.iter().map(|(n, f)| format!("{n}\t{f:.5}\n")).collect(), 30);
        let at_least = [20, 100, 1000].map(|n| counts_with_at_least(entries, n));
        let mut sizes: Vec<f64> = entries.iter().map(|e| e.queriers as f64).collect();
        sizes.sort_by(f64::total_cmp);
        let (median, max) = (sizes[sizes.len() / 2], sizes[sizes.len() - 1]);
        say!(out, "# ≥20/≥100/≥1000 queriers: {at_least:?}, median: {median}, max: {max}");
        skews.push(mean(&sizes) / median);
        tails.push(max / median);
        fewest = fewest.min(sizes.len());
    }
    let verdicts = vec![
        judge!(lowest(skews), >, 1.0),
        // The largest of a sample grows with the sample.
        judge!(lowest(tails), >=, 10.0)
            .given(fewest >= 100, "needs 100 analyzable originators per dataset"),
    ];
    (out, verdicts)
}

pub(crate) const FIG10: Experiment = Experiment {
    name: "fig10_topn_classes",
    title: "Fig. 10: fraction of originator classes among top-N originators",
    paper_ref: "Figure 10",
    claims: &[
        "the biggest footprints are unsavoury: spam and scan are the majority of every dataset's top-100",
        "the other classes hold a larger share of the top-1000 than of the top-100",
    ],
    body: fig10,
};

fn fig10(ctx: &Ctx) -> Run {
    let mut out = String::new();
    // The paper's top-100 / 1000 / 10000, shrunk with the population.
    let tops = [100.0, 1000.0, 10_000.0].map(|n: f64| (n * ctx.scale.slot_scale).round() as usize);
    // Per dataset: spam + scan share of the top-100 and of the top-1000.
    let (mut unsavoury, mut fewest) = (Vec::new(), usize::MAX);
    for id in [JpDitl, BPostDitl, MDitl] {
        let entries = &ctx.series(id)[0].entries;
        fewest = fewest.min(entries.len());
        say!(out, "\n{} ({} analyzable originators)", id.name(), entries.len());
        let mut shares = Vec::new();
        let rows: Vec<Vec<String>> = tops
            .iter()
            .map(|&n| {
                let mix = class_mix_top_n(entries, n);
                let total = mix.values().sum::<usize>().max(1) as f64;
                let share = |class| mix.get(&class).copied().unwrap_or(0) as f64 / total;
                shares.push(share(Spam) + share(Scan));
                let cells = ApplicationClass::ALL.iter().map(|c| match share(*c) {
                    0.0 => "-".to_string(),
                    f => format!("{f:.2}"),
                });
                std::iter::once(format!("top-{n}")).chain(cells).collect()
            })
            .collect();
        out += &table(&class_header("subset"), &rows);
        unsavoury.push((shares[0], shares[1]));
    }
    let needs = format!("needs more than {} analyzable originators per dataset", tops[0]);
    let verdicts = vec![
        judge!(lowest(unsavoury.iter().map(|u| u.0)), >, 0.5).given(fewest > tops[0], &needs),
        Verdict::of(unsavoury.iter().all(|u| u.1 < u.0), format!("shares {unsavoury:.2?}"))
            .given(fewest > tops[0], &needs),
    ];
    (out, verdicts)
}

pub(crate) const FIG11: Experiment = Experiment {
    name: "fig11_trends",
    title: "Fig. 11: number of originators over time (M-sampled)",
    paper_ref: "Figure 11 / §VI-C",
    claims: &[
        "scanning is a continuous background: every week has scan originators",
        "the three surge weeks after the Heartbleed-style disclosure run more than 25 % above the pre-surge scan baseline",
        "the burst detector flags a scan burst overlapping the injected surge weeks",
    ],
    body: fig11,
};

fn fig11(ctx: &Ctx) -> Run {
    let series = ctx.series(MSampled);
    let counts = class_counts_per_window(series);
    let shown = [Scan, Spam, Mail, Cdn];
    let rows: Vec<Vec<String>> = counts
        .iter()
        .map(|(w, per_class, total)| {
            let cells = shown.iter().map(|c| per_class.get(c).copied().unwrap_or(0));
            [*w, *total].into_iter().chain(cells).map(|n| n.to_string()).collect()
        })
        .collect();
    let header = shown.iter().fold("week|total".to_string(), |h, c| h + "|" + c.name());
    let mut out = table(&header, &rows);

    let weekly = |class| counts.iter().map(move |(_, per_class, _)| per_class.get(&class).copied());
    let scan: Vec<f64> = weekly(Scan).map(|n| n.unwrap_or(0) as f64).collect();
    let start = surge_start(scan.len());
    let surge = start..(start + 3).min(scan.len());
    let (baseline, surging) = (mean(&scan[..start.max(1)]), mean(&scan[surge.clone()]));
    let excess = surging / baseline.max(1.0) - 1.0;
    say!(out, "\n# scan baseline (pre-surge): {baseline:.0}/week, surge weeks: {surging:.0}/week ({:+.0}%)", 100.0 * excess);

    // Automatic burst detection (the "detection and response" use the
    // paper's introduction motivates).
    let config = BurstConfig::default();
    let bursts = detect_bursts(series, Scan, &config);
    for b in &bursts {
        let (excess, baseline) = (100.0 * b.relative_excess(), b.baseline);
        say!(out, "# detected scan burst: weeks {}..={} (peak {} vs baseline {baseline:.0}, +{excess:.0}%)", b.start, b.end, b.peak);
    }
    if bursts.is_empty() {
        say!(out, "# no scan bursts detected");
    }
    let baselined = start >= config.baseline_windows;
    let needs = format!("needs {} pre-surge weeks of baseline", config.baseline_windows);
    let flagged = bursts.iter().filter(|b| b.start < surge.end && b.end >= surge.start).count();
    let verdicts = vec![
        judge!(lowest(scan), >, 0.0),
        judge!(excess, >, 0.25).given(baselined, &needs),
        judge!(flagged, >=, 1).given(baselined, &needs),
    ];
    (out, verdicts)
}

pub(crate) const FIG12: Experiment = Experiment {
    name: "fig12_footprint_boxes",
    title: "Fig. 12: scanner footprint box plot per week (M-sampled)",
    paper_ref: "Figure 12",
    claims: &[
        "the weekly median scanner footprint is steadier than the weekly 90th percentile (lower coefficient of variation)",
    ],
    body: fig12,
};

fn fig12(ctx: &Ctx) -> Run {
    let boxes = footprint_boxes(ctx.series(MSampled), Scan);
    let boxes: Vec<_> = boxes.into_iter().filter_map(|(week, b)| Some((week, b?))).collect();
    let rows: Vec<Vec<String>> = boxes
        .iter()
        .map(|(w, b)| row![w, b.n, b.p10, b.q1, b.median, b.q3, b.p90, b.max])
        .collect();
    let mut out = table("week|n|p10|q1|median|q3|p90|max", &rows);
    let median_cv = cv(&boxes.iter().map(|(_, b)| b.median as f64).collect::<Vec<_>>());
    let p90_cv = cv(&boxes.iter().map(|(_, b)| b.p90 as f64).collect::<Vec<_>>());
    say!(out, "\n# weekly variation: median CV {median_cv:.2}, p90 CV {p90_cv:.2} (paper: median stable, p90 volatile)");
    let sampled = boxes.iter().filter(|(_, b)| b.n >= 5).count() >= 4;
    (out, vec![judge!(median_cv, <, p90_cv).given(sampled, "needs 4 weeks with 5 scanners each")])
}

pub(crate) const FIG13: Experiment = Experiment {
    name: "fig13_example_scanners",
    title: "Fig. 13: example scanners over time (weekly footprints)",
    paper_ref: "Figure 13",
    claims: &[
        "a long-lived scanner misses at most one week in ten (rounded up)",
        "short-lived scanners (at most 4 weeks) appear inside the surge window",
    ],
    body: fig13,
};

fn fig13(ctx: &Ctx) -> Run {
    let series = ctx.series(MSampled);
    let profiles = ctx.dataset(MSampled).scenario.profiles();
    // Weeks in which each originator was classified scan.
    let mut presence: BTreeMap<Ipv4Addr, Vec<usize>> = BTreeMap::new();
    for w in series {
        for e in w.of_class(Scan) {
            presence.entry(e.originator).or_default().push(w.window);
        }
    }
    // Ground-truth probe kinds from the scenario.
    let probes_of = |ip: &Ipv4Addr| {
        profiles.iter().find(|p| p.originator == *ip).map_or(Vec::new(), |p| p.kinds.clone())
    };
    let n_weeks = series.len();
    let surge = surge_start(n_weeks)..surge_start(n_weeks) + 4;
    // Choose the two longest-lived scanners, a medium-lived one, and
    // two burst scanners overlapping the surge.
    let mut by_longevity: Vec<(&Ipv4Addr, &Vec<usize>)> = presence.iter().collect();
    by_longevity.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
    let medium = by_longevity.iter().find(|(_, weeks)| (4..=n_weeks / 3).contains(&weeks.len()));
    let short = |weeks: &[usize]| weeks.len() <= 4 && weeks.iter().any(|w| surge.contains(w));
    let bursts: Vec<_> = by_longevity.iter().rev().filter(|(_, w)| short(w)).take(2).collect();
    let picks = by_longevity.iter().take(2).chain(medium).chain(bursts.iter().copied());
    let chosen: Vec<Ipv4Addr> = picks.map(|c| *c.0).collect();

    let mut out = String::new();
    let traces = originator_traces(series, &chosen);
    for (ip, trace) in chosen.iter().filter_map(|ip| Some((ip, traces.get(ip)?))) {
        say!(out, "\n# {ip} {:?} — present {} of {n_weeks} weeks", probes_of(ip), trace.len());
        trace.iter().for_each(|(w, q)| say!(out, "{w}\t{q}"));
    }
    let longest = by_longevity.first().map_or(0, |(_, weeks)| weeks.len());
    let verdicts = vec![
        judge!(longest + n_weeks.div_ceil(10), >=, n_weeks),
        judge!(bursts.len(), >=, 1)
            .given(n_weeks >= 12, "needs a 12-week span for 4 weeks to be short"),
    ];
    (out, verdicts)
}

pub(crate) const FIG14: Experiment = Experiment {
    name: "fig14_scan_blocks",
    title: "Fig. 14: scanning addresses per /24 block over time",
    paper_ref: "Figure 14 / §VI-B",
    claims: &[
        "scanners outnumber their /24 blocks, which outnumber the candidate team blocks (>= 4 scanners), and a team exists (paper: 5606 > 2227 > 167)",
    ],
    body: fig14,
};

fn fig14(ctx: &Ctx) -> Run {
    let series = ctx.series(MSampled);
    let top = busiest_scan_blocks(series, 5);
    let per_block = block_series(series, &top.iter().map(|(b, _)| *b).collect::<Vec<_>>());
    let mut out = String::new();
    for (block, n_total) in &top {
        say!(out, "\n# block {block}/24 ({n_total} distinct scanning addresses overall)");
        per_block[block].iter().for_each(|(w, n)| say!(out, "{w}\t{n}"));
    }
    let s = scan_teams(series, 4);
    say!(out, "\n== §VI-B team statistics ==");
    say!(out, "unique scan originators:          {}", s.scan_originators);
    say!(out, "unique originating /24 blocks:    {}", s.blocks);
    say!(out, "blocks with ≥4 scanners (teams):  {}", s.candidate_teams);
    say!(out, "…of which single-class:           {}", s.single_class_teams);
    say!(out, "(paper: 5606 scanners, 2227 blocks, 167 teams, 39 single-class)");
    let sizes = [s.scan_originators, s.blocks, s.candidate_teams, 0];
    let ordered = Verdict::of(sizes.windows(2).all(|w| w[0] > w[1]), format!("{sizes:?}"));
    (out, vec![ordered.given(s.scan_originators >= 10, "needs 10 scan originators")])
}

pub(crate) const FIG15: Experiment = Experiment {
    name: "fig15_churn",
    title: "Fig. 15: week-by-week churn for scan originators (M-sampled)",
    paper_ref: "Figure 15",
    claims: &[
        "mean weekly turnover of scanners is 10-35 % new (paper: ~20 %)",
        "a stable core: continuing scanners outnumber new ones in most weeks",
    ],
    body: fig15,
};

fn fig15(ctx: &Ctx) -> Run {
    let churn = churn_series(ctx.series(MSampled), Scan);
    let rows: Vec<_> =
        churn.iter().map(|c| row![c.window, c.new, c.continuing, c.departing]).collect();
    let mut out = table("week|new|continuing|departing", &rows);
    // Turnover over the steady part (the first week is all new).
    let steady: Vec<_> = churn[1..].iter().filter(|c| c.new + c.continuing > 0).collect();
    let new_share = |c: &&ChurnWeek| c.new as f64 / (c.new + c.continuing) as f64;
    let turnover = mean(&steady.iter().map(new_share).collect::<Vec<_>>());
    say!(
        out,
        "\n# mean weekly turnover: {:.0}% new (paper: ~20% with a stable continuing core)",
        turnover * 100.0
    );
    let core_weeks = steady.iter().filter(|c| c.continuing > c.new).count();
    let scanner_weeks: usize = steady.iter().map(|c| c.new + c.continuing).sum();
    let verdicts = vec![
        Verdict::of((0.10..=0.35).contains(&turnover), format!("{:.0}% new", turnover * 100.0))
            .given(scanner_weeks >= 100, "needs 100 scanner-weeks after the first week"),
        judge!(core_weeks * 2, >, steady.len())
            .given(scanner_weeks >= 30, "needs 30 scanner-weeks after the first week"),
    ];
    (out, verdicts)
}

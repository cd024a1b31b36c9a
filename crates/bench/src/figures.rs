//! Figs. 3, 4 and 16: the case studies and the controlled scans.

use crate::ctx::CASE_STUDIES;
use crate::table::{cv, f3, lowest, mean, table};
use crate::{Ctx, Experiment, Run, Verdict};
use backscatter_core::netsim::experiment::{power_law_fit, run_controlled_scan, ControlledScan};
use backscatter_core::netsim::hierarchy::Delegation;
use backscatter_core::netsim::types::ContactKind;
use backscatter_core::prelude::*;
use backscatter_core::sensor::ingest::Observations;
use backscatter_core::sensor::StaticFeature;
use std::collections::{BTreeMap, BTreeSet};

/// `Thin` when smoke-scale JP-ditl lacks an analyzable representative
/// of one of the six case-study roles.
pub(crate) fn missing_case(cases: &[(&str, &OriginatorFeatures)]) -> Option<Verdict> {
    let missing = CASE_STUDIES.iter().find(|c| cases.iter().all(|(name, _)| name != *c))?;
    Some(Verdict::Thin(format!("needs an analyzable {missing} originator on JP-ditl")))
}

/// `first` then one column per case study.
fn case_header(first: &str, cases: &[(&str, &OriginatorFeatures)]) -> String {
    cases.iter().fold(first.to_string(), |h, (name, _)| h + "|" + name)
}

pub(crate) const FIG3: Experiment = Experiment {
    name: "fig3_static_features",
    title: "Fig. 3: static features for case studies (JP-ditl)",
    paper_ref: "Figure 3",
    claims: &[
        "mail is the largest static fraction of the mail and spam cases",
        "home is the largest static fraction of the ad-tracker and cdn cases",
        "spam's antispam fraction exceeds mail's",
    ],
    body: fig3,
};

fn fig3(ctx: &Ctx) -> Run {
    let cases = ctx.case_studies();
    // Rows per feature, columns per case, like the paper's stacked bars.
    let rows: Vec<Vec<String>> = StaticFeature::ALL
        .iter()
        .map(|feature| {
            let cells = cases.iter().map(|(_, f)| f3(f.features.static_fraction(*feature)));
            std::iter::once(feature.name().to_string()).chain(cells).collect()
        })
        .collect();
    let mut out = table(&case_header("static feature", &cases), &rows);
    say!(out, "\nfootprints (unique queriers):");
    for (name, f) in &cases {
        say!(out, "  {name:10} {} ({})", f.querier_count, f.originator);
    }
    if let Some(thin) = missing_case(&cases) {
        return (out, vec![thin; 3]);
    }
    let by_name: BTreeMap<_, _> = cases.iter().map(|(n, f)| (*n, &f.features)).collect();
    let largest = |case: &str| {
        let fractions = &by_name[case].static_fractions;
        let by_fraction = |a: &&StaticFeature, b: &&StaticFeature| {
            fractions[a.index()].total_cmp(&fractions[b.index()])
        };
        StaticFeature::ALL.iter().max_by(by_fraction).expect("fourteen static features").name()
    };
    let antispam = |case: &str| by_name[case].static_fraction(StaticFeature::AntiSpam);
    let verdicts = vec![
        judge!([largest("mail"), largest("spam")], ==, ["mail"; 2]),
        judge!([largest("ad-track"), largest("cdn")], ==, ["home"; 2]),
        judge!(antispam("spam"), >, antispam("mail")),
    ];
    (out, verdicts)
}

pub(crate) const FIG4: Experiment = Experiment {
    name: "fig4_attenuation",
    title: "Fig. 4: querier footprint of controlled random scans",
    paper_ref: "Figure 4 / §IV-D",
    claims: &[
        "the footprint at the final authority grows monotonically with scan size",
        "the fitted power-law exponent lies in [0.5, 0.97]: sub-linear, though nearer linear than the paper's 0.71 (milder resolver concentration)",
        "every scan's root footprint is at most a fifth of its final-authority footprint (paper: ~1000x; inflated reaction rates compress it)",
        "every scan, down to 4 000 targets, crosses the 20-querier threshold at the final authority",
    ],
    body: fig4,
};

fn fig4(ctx: &Ctx) -> Run {
    // A delegated prober whose final authority we instrument.
    let prober = (0..10_000u64)
        .map(|i| ctx.world.random_public_addr(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF164))
        .find(|a| matches!(ctx.world.delegation(*a), Delegation::Delegated { .. }))
        .expect("delegated prober exists");
    let mut out = String::new();
    say!(out, "prober {prober}, PTR TTL forced to 0 (caching disabled), ICMP+TCP trials");

    // The largest scans shrink with the population scale.
    let sizes = [4_000u64, 13_000, 40_000, 130_000, 400_000, 1_300_000, 4_000_000];
    let sizes = sizes.iter().filter(|t| **t as f64 <= 4e6 * ctx.scale.slot_scale);
    let kinds = [ContactKind::ProbeIcmp, ContactKind::ProbeTcp(22), ContactKind::ProbeTcp(80)];
    let mut rows = Vec::new();
    // Per size: every trial's queriers at (final authority, roots).
    let mut trials: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for (t, &targets) in sizes.enumerate() {
        // Keep the biggest sizes to a single trial for time.
        for (k, kind) in kinds.iter().enumerate().take(if targets >= 1_000_000 { 1 } else { 3 }) {
            let scan = ControlledScan {
                prober,
                targets,
                kind: *kind,
                duration: SimDuration::from_hours(13.min(1 + targets / 400_000)),
                trial_seed: (t * 10 + k) as u64,
            };
            let obs = run_controlled_scan(&ctx.world, &scan);
            let roots: usize = obs.queriers_at_root.values().sum();
            trials.entry(targets).or_default().push((obs.queriers_at_final as f64, roots as f64));
            rows.push(row![targets, format!("{kind:?}"), obs.queriers_at_final, roots]);
        }
    }
    out += &table("targets|probe|queriers @ final|queriers @ roots", &rows);

    let at_final = |(size, runs): (&u64, &Vec<(f64, f64)>)| {
        runs.iter().map(|(at_final, _)| (*size as f64, *at_final)).collect::<Vec<_>>()
    };
    let points: Vec<(f64, f64)> = trials.iter().flat_map(at_final).collect();
    let (c, exponent) = power_law_fit(&points).expect("several scan sizes");
    say!(out, "\npower-law fit at final authority: queriers ≈ {c:.4} · targets^{exponent:.2}");
    say!(out, "(paper: sub-linear, exponent ≈ 0.71; ≈ 1 querier per 1000 targets)");
    let at_4m = c * 4e6f64.powf(exponent);
    say!(out, "fitted queriers at 4M targets: {at_4m:.0} (≈ 1 per {:.0} targets)", 4e6 / at_4m);

    let means: Vec<f64> =
        trials.values().map(|runs| mean(&runs.iter().map(|r| r.0).collect::<Vec<_>>())).collect();
    let verdicts = vec![
        Verdict::of(means.windows(2).all(|w| w[1] > w[0]), format!("mean footprints {means:.0?}")),
        Verdict::of((0.5..=0.97).contains(&exponent), format!("exponent {exponent:.3}")),
        judge!(lowest(trials.values().flatten().map(|(at_final, roots)| at_final / roots)), >=, 5.0),
        judge!(lowest(points.iter().map(|(_, at_final)| *at_final)), >=, 20.0),
    ];
    (out, verdicts)
}

pub(crate) const FIG16: Experiment = Experiment {
    name: "fig16_diurnal",
    title: "Fig. 16: queriers per hour for case studies (JP-ditl)",
    paper_ref: "Figure 16 / Appendix C",
    claims: &[
        "while active, ad-tracker, cdn and mail each vary more from hour to hour (coefficient of variation) than the automated ssh scanner",
    ],
    body: fig16,
};

fn fig16(ctx: &Ctx) -> Run {
    let cases = ctx.case_studies();
    let built = ctx.dataset(DatasetId::JpDitl);
    let (start, end) = built.windows()[0];
    let obs = Observations::ingest(&built.log, start, end);
    let hours = (end.secs() - start.secs()).div_ceil(3600);

    // Per-case hourly unique-querier counts.
    let hourly: Vec<Vec<f64>> = cases
        .iter()
        .map(|(_, f)| {
            let mut per_hour: BTreeMap<u64, BTreeSet<_>> = BTreeMap::new();
            for (offset, q) in obs.originator(f.originator).iter().flat_map(|o| o.queries()) {
                let t = obs.window_start.secs() + u64::from(*offset);
                per_hour.entry(t / 3600).or_default().insert(*q);
            }
            (0..hours).map(|h| per_hour.get(&h).map_or(0, |s| s.len()) as f64).collect()
        })
        .collect();
    let rows: Vec<Vec<String>> = (0..hours as usize)
        .map(|h| {
            std::iter::once(h.to_string()).chain(hourly.iter().map(|c| c[h].to_string())).collect()
        })
        .collect();
    let mut out = table(&case_header("hour", &cases), &rows);

    // Over each case's active span (first to last hour with a querier):
    // an originator that starts mid-capture is not thereby diurnal.
    say!(out, "\nhourly coefficient of variation while active (higher = more diurnal):");
    let active = |c: &Vec<f64>| {
        let busy = |n: &f64| *n > 0.0;
        cv(&c[c.iter().position(busy).unwrap_or(0)..=c.iter().rposition(busy).unwrap_or(0)])
    };
    let cvs: BTreeMap<&str, f64> =
        cases.iter().zip(&hourly).map(|((n, _), c)| (*n, active(c))).collect();
    for (name, _) in &cases {
        say!(out, "  {name:10} {:.2}", cvs[name]);
    }
    let verdict = missing_case(&cases).unwrap_or_else(
        || judge!(lowest(["ad-track", "cdn", "mail"].map(|c| cvs[c])), >, cvs["scan-ssh"]),
    );
    (out, vec![verdict])
}

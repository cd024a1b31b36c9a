//! The paper's shape claims as a contract: every entry of the
//! experiment registry runs at smoke scale on a fixed seed, no claim may
//! fail, and every experiment must have at least one claim the smoke
//! data is rich enough to judge. `seed_sweep` (ignored; `scripts/ci.sh`
//! runs it) counts every claim's verdicts over seeds 1–8.

use bench::{Ctx, Verdict, REGISTRY};
use dns_backscatter::prelude::{DatasetId, Scale};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// One context per process: datasets and series are built once.
fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| Ctx::new(Scale::smoke(), 5, None))
}

#[test]
fn every_experiment_holds_at_smoke_scale() {
    // The simulator is single-threaded and M-sampled is over half of
    // all simulation: build it alongside everything else.
    let prefetch = std::thread::spawn(|| ctx().dataset(DatasetId::MSampled).log.len());
    let mut problems = Vec::new();
    for e in &REGISTRY {
        let outcome = e.run(ctx());
        for c in &outcome.claims {
            if let Verdict::Fails(observed) = &c.verdict {
                problems.push(format!("{}: FAILS \"{}\": {observed}", e.name, c.what));
            }
        }
        if !outcome.claims.iter().any(|c| c.verdict == Verdict::Holds) {
            problems.push(format!("{}: no claim could be judged: {:?}", e.name, outcome.claims));
        }
    }
    prefetch.join().expect("M-sampled builds");
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn registry_names_are_unique_and_match_the_results_directory() {
    let names: BTreeSet<String> = REGISTRY.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(names.len(), REGISTRY.len(), "duplicate experiment name");
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let stems: BTreeSet<String> = std::fs::read_dir(results)
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| path.file_stem().expect("a stem").to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, stems, "registry entries and results/*.txt differ");
}

/// Every claim's verdicts at smoke scale on seeds 1–8: a HOLDS / FAILS /
/// THIN total per seed, then a count per claim with the seeds it fails
/// on. Prints the two Markdown tables EXPERIMENTS.md commits under
/// "Claims across seeds"; `scripts/ci.sh` fails when they differ. A
/// failing claim is reported here, never fixed by choosing a seed.
#[test]
#[ignore = "eight registry passes; scripts/ci.sh runs it"]
fn seed_sweep() {
    const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;
    // Per claim in registry order: (entry, claim, verdict per seed).
    let mut claims: Vec<(&str, &str, Vec<Verdict>)> = REGISTRY
        .iter()
        .flat_map(|e| e.claims.iter().map(|&what| (e.name, what, Vec::new())))
        .collect();
    let mut unjudged = Vec::new();
    for seed in SEEDS {
        let ctx = Ctx::new(Scale::smoke(), seed, None);
        let mut slots = claims.iter_mut();
        let mut none = 0;
        for e in &REGISTRY {
            let outcome = e.run(&ctx);
            none += usize::from(!outcome.claims.iter().any(|c| c.verdict == Verdict::Holds));
            for (c, slot) in outcome.claims.into_iter().zip(slots.by_ref()) {
                slot.2.push(c.verdict);
            }
        }
        unjudged.push(none);
    }
    let is_holds = |v: &Verdict| *v == Verdict::Holds;
    let is_fails = |v: &Verdict| matches!(v, Verdict::Fails(_));
    let is_thin = |v: &Verdict| matches!(v, Verdict::Thin(_));
    let per_seed = |pick: &dyn Fn(&Verdict) -> bool| -> Vec<usize> {
        (0..SEEDS.count()).map(|i| claims.iter().filter(|c| pick(&c.2[i])).count()).collect()
    };
    let cells =
        |counts: Vec<usize>| counts.iter().fold(String::new(), |s, n| s + &format!(" {n} |"));
    let seeds: String = SEEDS.map(|s| format!(" {s} |")).collect();
    println!("| seed |{seeds}");
    println!("|---|{}", "---|".repeat(SEEDS.count()));
    println!("| HOLDS |{}", cells(per_seed(&is_holds)));
    println!("| FAILS |{}", cells(per_seed(&is_fails)));
    println!("| THIN |{}", cells(per_seed(&is_thin)));
    println!("| entries with no judgeable claim |{}", cells(unjudged));
    println!();
    println!("| entry | claim | HOLDS | FAILS | THIN | fails on seeds |");
    println!("|---|---|---|---|---|---|");
    for (entry, what, verdicts) in &claims {
        let count = |pick: &dyn Fn(&Verdict) -> bool| verdicts.iter().filter(|v| pick(v)).count();
        let failing: Vec<String> =
            SEEDS.zip(verdicts).filter(|(_, v)| is_fails(v)).map(|(s, _)| s.to_string()).collect();
        let failing = if failing.is_empty() { "-".to_string() } else { failing.join(", ") };
        println!(
            "| `{entry}` | {} | {} | {} | {} | {failing} |",
            what.replace('|', "\\|"),
            count(&is_holds),
            count(&is_fails),
            count(&is_thin),
        );
    }
}

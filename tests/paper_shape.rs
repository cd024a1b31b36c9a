//! The paper's shape claims as a contract: every entry of the
//! experiment registry runs at smoke scale on a fixed seed, no claim may
//! fail, and every experiment must have at least one claim the smoke
//! data is rich enough to judge.

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

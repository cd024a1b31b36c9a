//! `experiments [NAME…] [--out DIR]` runs the named registry entries
//! (all of them when none is named) at standard scale, seed 1, writing
//! `DIR/<name>.txt` each (stdout without `--out`); progress goes to
//! stderr. `experiments --list` prints every entry's name, paper
//! reference and claims. Exits 1 if any claim fails.

use backscatter_core::datasets::Scale;
use bench::{Ctx, Verdict, REGISTRY};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        for e in &REGISTRY {
            println!("{}  ({})", e.name, e.paper_ref);
            e.claims.iter().for_each(|claim| println!("    - {claim}"));
        }
        return ExitCode::SUCCESS;
    }
    let (names, out_dir) = match args.iter().position(|a| a == "--out") {
        Some(i) if i + 2 == args.len() => (&args[..i], Some(PathBuf::from(&args[i + 1]))),
        Some(_) => return usage("--out DIR goes last"),
        None => (&args[..], None),
    };
    if let Some(unknown) = names.iter().find(|n| REGISTRY.iter().all(|e| e.name != n.as_str())) {
        return usage(&format!("no experiment named {unknown} (see --list)"));
    }

    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ctx = Ctx::new(Scale::standard(), 1, Some(workspace.join("bench-cache")));
    let started = Instant::now();
    let mut failed = 0;
    for e in REGISTRY.iter().filter(|e| names.is_empty() || names.iter().any(|n| n == e.name)) {
        let t0 = Instant::now();
        let outcome = e.run(&ctx);
        for c in outcome.claims.iter().filter(|c| c.verdict != Verdict::Holds) {
            failed += matches!(c.verdict, Verdict::Fails(_)) as u8;
            eprintln!("{}: [{}] {}", e.name, c.verdict, c.what);
        }
        eprintln!("=== {} done in {:.0}s", e.name, t0.elapsed().as_secs_f64());
        let Some(dir) = &out_dir else {
            print!("{}", outcome.text);
            continue;
        };
        let path = dir.join(format!("{}.txt", e.name));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, outcome.text));
        if let Err(err) = written {
            return usage(&format!("cannot write {}: {err}", path.display()));
        }
    }
    eprintln!("=== all done in {:.0}s, {failed} failed claims", started.elapsed().as_secs_f64());
    ExitCode::from(failed.min(1))
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\nusage: experiments [NAME…] [--out DIR] | experiments --list");
    ExitCode::from(2)
}

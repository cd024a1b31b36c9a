//! Capture-to-verdict benchmark for dns-backscatter.
//!
//! `bs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the workload from the seed, replays it closed-loop through
//! the shipped public API, checks every window against the benchmark's
//! own oracle, prints every metric by name with its unit, and ends
//! with one JSON line. `--trace 0` reports the end-to-end metrics with
//! tracing off; `--trace 1` reports the per-layer metrics from spans
//! recorded around each public call. See `benchmark/README.md`.

mod alloc;
mod catalog;
mod chain;
mod gen;
mod oracle;
mod rng;
mod selfcheck;
mod stats;
mod trace;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Timed passes per pool width, at least.
const MIN_PASSES: usize = 10;

pub struct Args {
    pub shape: &'static gen::Shape,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = gen::WORKLOADS.iter().map(|s| s.name).collect();
    format!(
        "usage: bs-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       bs-benchmark --selfcheck",
        names.join("|")
    )
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut shape = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut selfcheck = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                shape =
                    Some(gen::workload(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "--selfcheck" => selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if selfcheck {
        return Ok(None);
    }
    let shape = shape.ok_or("--workload is required")?;
    Ok(Some(Args { shape, seed, seconds, trace, out_dir }))
}

/// The generator must have produced what the shape says, or the
/// workload no longer stresses what its name promises.
fn check_shape(ctx: &chain::Context, oracle: &oracle::Oracle) -> Result<(), String> {
    if oracle.windows.len() != ctx.shape.windows {
        return Err(format!(
            "{} windows generated, shape says {}",
            oracle.windows.len(),
            ctx.shape.windows
        ));
    }
    for (i, w) in oracle.windows.iter().enumerate() {
        let meant = w.originators.iter().filter(|e| e.truth.is_some()).count();
        if w.heavy != ctx.shape.heavy || meant != w.heavy {
            return Err(format!(
                "window {i}: {} analyzable by recount, {meant} generated as heavy, shape says {}",
                w.heavy, ctx.shape.heavy
            ));
        }
    }
    Ok(())
}

/// Totals over every pass a run makes.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub reasons: Vec<String>,
}

/// What a finished run hands to `main`.
pub struct Done {
    pub tally: Tally,
    /// The `"metrics"` object of the result line.
    pub metrics: String,
    /// The verdict digest every pass of the run reproduced.
    pub digest: u64,
    /// Per-pass samples behind the reported quantiles, for the out file.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Tally {
    pub fn add(&mut self, what: &str, report: &oracle::PassReport) {
        self.attempted += report.attempted;
        self.failed += report.failed.len();
        for r in &report.reasons {
            if self.reasons.len() < 12 {
                self.reasons.push(format!("{what}: {r}"));
            }
        }
    }
}

fn end_to_end(args: &Args) -> Result<Done, String> {
    // Set-up, several times at one thread; the last context is kept.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (ctx, secs) = chain::set_up(args.shape, args.seed);
        setups.push(secs);
        last = Some(ctx);
    }
    let ctx = last.expect("at least one set-up");
    let oracle = oracle::Oracle::build(&ctx.inputs);
    check_shape(&ctx, &oracle)?;
    let records = oracle.records() as f64;
    let width = chain::default_width();
    let mut tally = Tally::default();

    // Warm-up at one thread; its per-window digests are the reference
    // every later pass must repeat.
    backscatter_core::par::set_threads(1);
    let warm = chain::driver_pass(&ctx, &oracle, None, None).report;
    tally.add("warm-up", &warm);
    let reference = warm.window_digests.as_slice();

    alloc::reset_and_enable();
    let heap = chain::driver_pass(&ctx, &oracle, Some(reference), None);
    let peak = alloc::disable();
    tally.add("heap pass", &heap.report);

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut wide, mut narrow) = (Vec::new(), Vec::new());
    while Instant::now() < deadline || narrow.len() < MIN_PASSES {
        for (threads, rates, what) in
            [(width, &mut wide, "default width"), (1, &mut narrow, "one thread")]
        {
            backscatter_core::par::set_threads(threads);
            let pass = chain::driver_pass(&ctx, &oracle, Some(reference), None);
            tally.add(what, &pass.report);
            rates.push(records / pass.secs);
        }
    }

    let mut values = catalog::Values::new();
    values.insert("records_per_s", stats::undisturbed_rate(&wide));
    values.insert("records_per_s_1t", stats::undisturbed_rate(&narrow));
    values.insert("peak_heap_mb", peak as f64 / 1e6);
    values.insert("verdict_accuracy", warm.accuracy());
    values.insert("setup_s", stats::median(&setups));

    println!(
        "workload {} seed {} records/pass {records} windows/pass {}",
        ctx.shape.name,
        ctx.seed,
        oracle.windows.len()
    );
    println!("par.threads {width}");
    println!("verdict_digest {:016x}", warm.digest());
    println!("verdict_rows {} evicted/pass {}", warm.rows, warm.evicted);
    for (name, sample) in
        [("records_per_s", &wide), ("records_per_s_1t", &narrow), ("setup_s", &setups)]
    {
        let at = |q| stats::quantile(sample, q);
        println!(
            "{name}: median {:.4} q1 {:.4} q3 {:.4} p10 {:.4} p90 {:.4} n {}",
            at(0.5),
            at(0.25),
            at(0.75),
            at(0.1),
            at(0.9),
            sample.len()
        );
    }
    let metrics = catalog::render(&catalog::END_TO_END, &values);
    let samples = vec![("records_per_s", wide), ("records_per_s_1t", narrow), ("setup_s", setups)];
    Ok(Done { tally, metrics, digest: warm.digest(), samples })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return selfcheck::run(),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("BS_THREADS").is_some() {
        eprintln!("BS_THREADS is set: the benchmark sets pool width itself; unset it");
        return ExitCode::from(2);
    }
    let run = if args.trace { traced::run(&args) } else { end_to_end(&args) };
    let done = match run {
        Ok(done) => done,
        Err(e) => {
            eprintln!("benchmark broken: {e}");
            return ExitCode::from(3);
        }
    };
    for r in &done.tally.reasons {
        println!("FAILED {r}");
    }
    let line = catalog::result_line(done.tally.attempted, done.tally.failed, &done.metrics);
    let suffix = if args.trace { ".layers.json" } else { ".json" };
    let path = args.out_dir.join(format!("{}{suffix}", args.shape.name));
    // The reported throughputs are upper deciles; the medians over the
    // same passes go into the file beside them, for claims made in
    // medians.
    let per_sample = |render: &dyn Fn(&[f64]) -> String| -> String {
        let fields: Vec<String> =
            done.samples.iter().map(|(name, v)| format!("\"{name}\": {}", render(v))).collect();
        fields.join(", ")
    };
    let medians = per_sample(&|v| format!("{}", stats::median(v)));
    let samples = per_sample(&|v| {
        let values: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
        format!("[{}]", values.join(", "))
    });
    let file = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"verdict_digest\": \"{:016x}\", \"medians\": {{{medians}}}, \"samples\": {{{samples}}}, \"result\": {line}}}\n",
        args.shape.name, args.seed, done.digest
    );
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, file))
    {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(3);
    }
    println!("{line}");
    if done.tally.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

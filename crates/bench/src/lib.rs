//! The experiment registry: every table and figure of the paper's
//! evaluation (plus four extensions and five ablations) is one entry of
//! [`REGISTRY`] — a function from the shared [`Ctx`] to the rendered
//! artifact and a verdict for each of the entry's shape claims, judged
//! from the very numbers just rendered.
//!
//! `cargo run --release -p bench --bin experiments -- --list` prints
//! every entry with its claims; `scripts/run_experiments.sh` regenerates
//! `results/`; `tests/paper_shape.rs` runs every entry at smoke scale
//! and fails on any claim that does not hold.
//!
//! Performance is measured elsewhere, by the repository's one bench
//! mechanism: `bash benchmark/run.sh` (see `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Append one formatted line to a `String`.
macro_rules! say {
    ($out:expr) => { $out.push('\n') };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// A table row: every cell through `to_string`.
macro_rules! row {
    ($($cell:expr),+ $(,)?) => { vec![$($cell.to_string()),+] };
}

/// The comparison `lhs OP rhs` as a [`Verdict`] which, failing, reports
/// both sides by expression and value.
macro_rules! judge {
    ($lhs:expr, $op:tt, $rhs:expr) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::Verdict::of(
            lhs $op rhs,
            format!("{} = {lhs:.3?}, {} = {rhs:.3?}", stringify!($lhs), stringify!($rhs)),
        )
    }};
}

mod ctx;
mod table;

mod ablations;
mod extensions;
mod figures;
mod longitudinal;
mod tables;
mod training;

pub use ctx::Ctx;
use std::fmt;

/// How one shape claim fared on the numbers an experiment rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The claim holds.
    Holds,
    /// The claim is false; what was observed instead.
    Fails(String),
    /// Too few samples to judge (smoke scale only); the unmet
    /// sample-count precondition.
    Thin(String),
}

impl Verdict {
    /// `Holds` when `ok`, else `Fails` carrying what was observed.
    pub fn of(ok: bool, observed: impl ToString) -> Verdict {
        match ok {
            true => Verdict::Holds,
            false => Verdict::Fails(observed.to_string()),
        }
    }

    /// Downgrade to `Thin` unless the sample-count precondition is met.
    pub fn given(self, enough: bool, precondition: impl ToString) -> Verdict {
        match enough {
            true => self,
            false => Verdict::Thin(precondition.to_string()),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => write!(f, "HOLDS"),
            Verdict::Fails(observed) => write!(f, "FAILS: {observed}"),
            Verdict::Thin(needs) => write!(f, "THIN: {needs}"),
        }
    }
}

/// One shape claim and its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// The claim, as `--list` prints it.
    pub what: &'static str,
    /// How it fared.
    pub verdict: Verdict,
}

/// What running an experiment yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The content of `results/<name>.txt`: heading, rendered artifact,
    /// then every claim with its verdict.
    pub text: String,
    /// One entry per claim of the experiment, in declaration order.
    pub claims: Vec<Claim>,
}

/// What an experiment's body returns: the artifact below the heading
/// and one verdict per declared claim.
type Run = (String, Vec<Verdict>);

/// One registry entry.
pub struct Experiment {
    /// Registry key and stem of the results file.
    pub name: &'static str,
    /// Heading of the rendered artifact.
    pub(crate) title: &'static str,
    /// The paper artifact reproduced.
    pub paper_ref: &'static str,
    /// The shape claims the experiment judges.
    pub claims: &'static [&'static str],
    body: fn(&Ctx) -> Run,
}

impl Experiment {
    /// Run against `ctx` and pair each declared claim with its verdict.
    pub fn run(&self, ctx: &Ctx) -> Outcome {
        let (body, verdicts) = (self.body)(ctx);
        assert_eq!(verdicts.len(), self.claims.len(), "{}: one verdict per claim", self.name);
        let mut text = format!(
            "\n== {} ==\n   (reproduces {}; shapes comparable, absolute numbers are simulator-scale)\n{body}\nshape claims:\n",
            self.title, self.paper_ref
        );
        let claims = self.claims.iter().zip(verdicts);
        let claims: Vec<Claim> = claims.map(|(what, verdict)| Claim { what, verdict }).collect();
        claims.iter().for_each(|c| say!(text, "  [{}] {}", c.verdict, c.what));
        Outcome { text, claims }
    }
}

/// Every experiment, in the order a full run executes them.
pub static REGISTRY: [Experiment; 30] = [
    tables::TABLE1,
    figures::FIG3,
    tables::TABLE2,
    tables::TABLE3,
    tables::TABLE4,
    figures::FIG4,
    tables::TABLE5,
    tables::TABLE6,
    training::FIG5,
    training::FIG6,
    training::FIG7,
    longitudinal::FIG8,
    longitudinal::FIG9,
    longitudinal::FIG10,
    longitudinal::FIG11,
    longitudinal::FIG12,
    longitudinal::FIG13,
    longitudinal::FIG14,
    longitudinal::FIG15,
    figures::FIG16,
    tables::TABLE7_8,
    extensions::QNAME_MINIMIZATION,
    extensions::PER_CLASS,
    training::CURATION_ADVISOR,
    extensions::GEOGRAPHY,
    ablations::DEDUP,
    ablations::THRESHOLD,
    ablations::FOREST_SIZE,
    ablations::FEATURE_MATCHING,
    ablations::FRACTIONS,
];

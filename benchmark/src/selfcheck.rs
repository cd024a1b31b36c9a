//! `--selfcheck`: proof that the oracle can fail. Three faults are
//! planted into miniature workloads — one flipped verdict, one dropped
//! record, one extra corrupted frame — and each must turn exactly the
//! window it touches into a failed one, while the clean pass fails none.

use crate::chain::{self, Context};
use crate::gen::{self, corrupt_response};
use crate::oracle::{FlipVerdict, Oracle};
use backscatter_core::dns::{Message, QType};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The window every fault is planted in.
const TARGET: usize = 2;

pub struct Outcome {
    pub fault: &'static str,
    pub failed: Vec<usize>,
    pub expected: Vec<usize>,
}

fn set_up(workload: &str, seed: u64) -> (Context, Oracle, Vec<u64>) {
    let (ctx, _) = chain::set_up(gen::miniature(workload), seed);
    let oracle = Oracle::build(&ctx.inputs);
    let clean = chain::driver_pass(&ctx, &oracle, None, None);
    (ctx, oracle, clean.report.window_digests)
}

/// Index of a record in window [`TARGET`] that is the only query of its
/// (originator, querier) pair and belongs to an analyzable originator:
/// dropping it must change that originator's counts.
fn sole_query_of_a_heavy_pair(ctx: &Context, oracle: &Oracle) -> usize {
    let from = oracle.windows[TARGET].first_record;
    let to = oracle.windows[TARGET + 1].first_record;
    let mut pairs: BTreeMap<_, Vec<usize>> = BTreeMap::new();
    for (i, r) in ctx.inputs.records[from..to].iter().enumerate() {
        pairs.entry((r.originator, r.querier)).or_default().push(from + i);
    }
    pairs
        .iter()
        .find(|((o, _), at)| at.len() == 1 && ctx.inputs.truth.contains_key(o))
        .map(|(_, at)| at[0])
        .expect("a heavy originator has a querier that asked once")
}

/// Message offset of a PTR response stamped inside window [`TARGET`],
/// past its first few frames and not yet corrupted.
fn intact_ptr_response(ctx: &Context, oracle: &Oracle) -> usize {
    let capture = ctx.inputs.capture.as_ref().expect("a capture workload");
    let (start, end) = (oracle.windows[TARGET].start, oracle.windows[TARGET + 1].start);
    capture
        .responses
        .iter()
        .filter(|(at, _)| {
            // The frame header's time field ends two bytes before the message.
            let stamp =
                u64::from_be_bytes(capture.bytes[at - 10..at - 2].try_into().expect("8 bytes"));
            (start + 60..end).contains(&stamp)
        })
        .find(|(at, len)| {
            Message::decode(&capture.bytes[*at..*at + *len])
                .is_ok_and(|m| m.question().is_some_and(|q| q.qtype == QType::Ptr))
        })
        .map(|(at, _)| *at)
        .expect("window holds an intact PTR response")
}

pub fn faults(seed: u64) -> Vec<Outcome> {
    let mut out = Vec::new();

    let (mut ctx, oracle, reference) = set_up("capture-day", seed);
    let clean = chain::driver_pass(&ctx, &oracle, Some(&reference), None);
    out.push(Outcome {
        fault: "none (capture-day)",
        failed: clean.report.failed,
        expected: vec![],
    });
    let flip = Some(FlipVerdict { window: TARGET });
    let flipped = chain::driver_pass(&ctx, &oracle, Some(&reference), flip);
    out.push(Outcome {
        fault: "one verdict flipped",
        failed: flipped.report.failed,
        expected: vec![TARGET],
    });
    let at = intact_ptr_response(&ctx, &oracle);
    corrupt_response(&mut ctx.inputs.capture.as_mut().expect("a capture workload").bytes, at);
    let corrupted = chain::driver_pass(&ctx, &oracle, Some(&reference), None);
    out.push(Outcome {
        fault: "one extra frame corrupted",
        failed: corrupted.report.failed,
        expected: vec![TARGET],
    });

    let (mut ctx, oracle, reference) = set_up("retrain-daily", seed);
    let clean = chain::driver_pass(&ctx, &oracle, Some(&reference), None);
    out.push(Outcome {
        fault: "none (retrain-daily)",
        failed: clean.report.failed,
        expected: vec![],
    });
    let at = sole_query_of_a_heavy_pair(&ctx, &oracle);
    ctx.inputs.records.remove(at);
    let dropped = chain::driver_pass(&ctx, &oracle, Some(&reference), None);
    out.push(Outcome {
        fault: "one record dropped",
        failed: dropped.report.failed,
        expected: vec![TARGET],
    });

    let (ctx, oracle, reference) = set_up("scan-storm", seed);
    let clean = chain::driver_pass(&ctx, &oracle, Some(&reference), None);
    out.push(Outcome {
        fault: "none (scan-storm, table full)",
        failed: clean.report.failed,
        expected: vec![],
    });
    out
}

pub fn run() -> ExitCode {
    let mut ok = true;
    for o in faults(1) {
        let caught = o.failed == o.expected;
        ok &= caught;
        println!(
            "selfcheck {:<32} failed windows {:?}, expected {:?}: {}",
            o.fault,
            o.failed,
            o.expected,
            if caught { "ok" } else { "WRONG" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_planted_fault_fails_exactly_its_window() {
        for o in super::faults(7) {
            assert_eq!(o.failed, o.expected, "fault: {}", o.fault);
        }
    }
}

//! The always-on profiler: *where does the time (and memory) go?*
//!
//! Three coupled answers, all fed by the one [`crate::stage`] guard:
//!
//! * a **wall-clock sampler** ([`start`] / [`stop`]): a background
//!   thread that snapshots every live thread's stage stack at a
//!   configurable Hz and aggregates the paths into collapsed stacks,
//!   exported as inferno-compatible folded text ([`folded`]) and JSON
//!   ([`top_json`]);
//! * **exact per-stage cost**: each stage files its wall time into its
//!   `(stage, window)` ledger cell, read back as "ns per record per
//!   stage per window" by [`crate::ledger::cost_rows`];
//! * a **counting allocator** ([`CountingAlloc`]): a
//!   `#[global_allocator]` wrapper attributing allocation count and
//!   bytes to the stage open on the allocating thread
//!   ([`alloc_rows`]).
//!
//! With the sampler running the hot-path cost is two relaxed stores
//! per stage plus two relaxed `fetch_add`s per allocation; the sampler
//! itself wakes `hz` times a second regardless of workload.

pub use crate::alloc::{alloc_json, alloc_rows, alloc_table, AllocRow, CountingAlloc};
pub use crate::sampler::{folded, is_running, sample_counts, start, stop, top_json, top_table};

/// Turn profiling on without the sampler thread: stages maintain the
/// frame stacks, file costs and steer the allocator, and the ledger is
/// live. [`start`] calls this; tests use it for exact bookkeeping
/// without sampling.
pub fn enable() {
    crate::set_flag(crate::PROF, true);
}

/// Turn profiling off (metrics and tracing, if on, stay on).
pub fn disable() {
    crate::set_flag(crate::PROF, false);
}

/// Whether profiling is on (one relaxed atomic load).
pub fn is_enabled() -> bool {
    crate::flags() & crate::PROF != 0
}

/// Reset every profiler aggregate: sampler stacks, the ledger's cells
/// and the allocator counters. [`start`] calls this so each profiling
/// session reports only its own run.
pub fn reset() {
    crate::sampler::reset_aggregates();
    crate::ledger::reset();
    crate::alloc::reset_counts();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ledger, stage, testutil};

    #[test]
    fn stage_files_no_cost_while_profiling_is_off() {
        let _g = testutil::serial();
        disable();
        drop(stage("prof.test.inert"));
        assert!(!ledger::cost_rows().iter().any(|r| r.stage == "prof.test.inert"));
    }

    #[test]
    fn stage_files_cost_under_its_window() {
        let _g = testutil::serial();
        enable();
        {
            let _w = ledger::window_scope(42);
            let _s = stage("prof.test.cost");
            std::hint::black_box(vec![0u8; 64]);
        }
        disable();
        let row = ledger::cost_rows()
            .into_iter()
            .find(|r| r.stage == "prof.test.cost" && r.window == 42)
            .expect("cost row filed");
        assert_eq!(row.calls, 1);
        assert!(row.ns > 0);
        ledger::reset();
    }
}

//! `bs-par` — deterministic scoped parallelism for the
//! dns-backscatter pipeline.
//!
//! The paper's workload is embarrassingly parallel at three levels:
//! random-forest trees are independent given per-tree seeds, the 10-run
//! majority vote (§IV) is independent per run, and feature extraction
//! is independent per originator. This crate provides the one shared
//! substrate all of those use, with **zero external dependencies**
//! (`std::thread::scope` plus `std::sync` primitives):
//!
//! * [`par_map`] / [`par_map_range`] — map a function over a slice (or
//!   index range), preserving input order in the output;
//! * [`par_chunks`] — the same over fixed-size chunks, for fine-grained
//!   items where per-element task overhead would dominate;
//! * [`join`] — run two independent closures concurrently;
//! * [`scope`] — escape hatch: [`std::thread::scope`] semantics for
//!   irregular task shapes, with trace-context propagation;
//! * [`derive_seed`] — the splitmix64 seed-derivation scheme that makes
//!   parallel runs bit-identical to sequential ones;
//! * [`Rng`] — the workspace's one seeded generator (xoshiro256++),
//!   one per task, seeded from `derive_seed`.
//!
//! # Determinism contract
//!
//! Every primitive here returns results **in task-index order**,
//! regardless of which worker executed which task and in what order.
//! Callers must derive any per-task randomness from
//! `derive_seed(master, task_index)` — never from a shared sequential
//! RNG — and must do any floating-point reduction *after* the parallel
//! section, iterating results in index order. Under those two rules,
//! output is bit-identical at every thread count; the workspace's
//! determinism tests assert exactly that at 1 thread vs 2 and 8.
//!
//! # Sizing
//!
//! The pool size resolves, in priority order: [`set_threads`] (the
//! CLI's `--threads` flag) → the `BS_THREADS` environment variable →
//! [`std::thread::available_parallelism`], capped at 256. A region of
//! width `t` runs on the calling thread and `t − 1` scoped threads it
//! spawns — there is no persistent pool to keep alive or shut down, so
//! borrows of stack data just work, and a panicking task reaches the
//! caller with its own payload at every width.
//!
//! # Scheduling
//!
//! A region of `n` tasks runs on `t = min(threads(), n)` threads: the
//! caller spawns `t − 1` workers and is the first worker itself. Each
//! thread claims the next task index from one shared atomic counter
//! until the indices run out, so a thread that draws short tasks simply
//! claims more of them. Every region is a flat index range and nothing
//! inside a task adds tasks: nested parallel regions run sequentially
//! on a thread that is running a region's tasks — a spawned worker, or
//! the caller during its share — so the thread count stays bounded by
//! the pool size at any nesting depth. When the core pipeline parallelizes over
//! windows, the forests inside each window train sequentially, and
//! when there is only one window, the forest level parallelizes
//! instead.
//!
//! # Telemetry
//!
//! Parallel regions publish through `bs-telemetry`: `par.tasks`
//! (counter: tasks executed), `par.threads` (gauge: the threads that
//! ran the latest region, the caller included) and `par.run`
//! (histogram: nanoseconds per parallel region).
//!
//! # Position propagation
//!
//! Every spawn site — [`scope`]'s `spawn`, [`join`], the pool workers —
//! makes the same single call: capture the caller's
//! [`bs_telemetry::Position`] before spawning, enter it on the spawned
//! thread. The position carries the span context (so stages opened
//! inside worker tasks parent under the stage that started the region,
//! at any thread count), the ledger window (so a ledger row or stage
//! cost booked from inside a task files under the window the spawner
//! was working on, not under `NO_WINDOW`), the allocator slot and the
//! stage path (so allocations and stage time on workers are charged
//! under the stage that fanned out). Entering also names the
//! thread's flight-recorder lane (`par-worker-N`, `par-join`,
//! `par-scope`), which becomes the thread label in the Chrome trace
//! export. A region's caller captures the position after opening
//! `par.run`, so its own share of the tasks already runs there: it
//! enters nothing and keeps its lane, and the spawned lanes are
//! `par-worker-1` … `par-worker-{t−1}`. With tracing and profiling off,
//! all of this costs one relaxed atomic load per region and one per
//! spawned thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod seed;

pub use pool::{join, par_chunks, par_map, par_map_range, scope, set_threads, threads, Scope};
pub use seed::{derive_seed, splitmix64, Rng};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Serializes tests that mutate the global thread override.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_override<R>(n: usize, f: impl FnOnce() -> R) -> R {
        /// Clears the override when dropped, also when `f` panics.
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                set_threads(0);
            }
        }
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(n);
        let _reset = Reset;
        f()
    }

    /// Makes every task of a region wait until both the calling thread
    /// and a spawned worker have started one (or until five seconds
    /// after [`BothSides::new`]), so a test sees both sides take part
    /// whatever the scheduler does. Of a region of `n ≥ t` tasks, the
    /// threads that wait hold at most `t − 1` indices, so both sides
    /// claim one.
    struct BothSides {
        caller: std::thread::ThreadId,
        caller_started: std::sync::atomic::AtomicBool,
        worker_started: std::sync::atomic::AtomicBool,
        give_up: std::time::Instant,
    }

    impl BothSides {
        fn new() -> BothSides {
            BothSides {
                caller: std::thread::current().id(),
                caller_started: Default::default(),
                worker_started: Default::default(),
                give_up: std::time::Instant::now() + std::time::Duration::from_secs(5),
            }
        }

        /// Mark this thread's side started, then wait for the other.
        /// Returns whether this is the caller's thread.
        fn meet(&self) -> bool {
            let on_caller = std::thread::current().id() == self.caller;
            let side = if on_caller { &self.caller_started } else { &self.worker_started };
            side.store(true, Ordering::SeqCst);
            while !(self.caller_started.load(Ordering::SeqCst)
                && self.worker_started.load(Ordering::SeqCst))
                && std::time::Instant::now() < self.give_up
            {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            on_caller
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for t in [1, 2, 4, 8] {
            let got = with_override(t, || par_map(&items, |_, x| x * 3 + 1));
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn par_map_range_matches_sequential() {
        let seq: Vec<u64> = (0..257).map(|i| derive_seed(42, i)).collect();
        let par = with_override(8, || par_map_range(257, |i| derive_seed(42, i as u64)));
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(&empty, |_, x| *x).is_empty());
        assert_eq!(par_map(&[7], |i, x| (i, *x)), vec![(0, 7)]);
    }

    #[test]
    fn par_chunks_covers_every_element_once() {
        let items: Vec<usize> = (0..1013).collect();
        let sums = with_override(4, || par_chunks(&items, 64, |_, c| c.iter().sum::<usize>()));
        assert_eq!(sums.len(), 1013usize.div_ceil(64));
        assert_eq!(sums.iter().sum::<usize>(), 1013 * 1012 / 2);
        // Chunk indices map to the right slices.
        let firsts = with_override(4, || par_chunks(&items, 64, |ci, c| (ci, c[0])));
        for (ci, first) in firsts {
            assert_eq!(first, ci * 64);
        }
    }

    #[test]
    fn join_runs_both_sides() {
        let (a, b) = with_override(2, || join(|| 2 + 2, || "ok".to_string()));
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
        // Sequential path too.
        let (a, b) = with_override(1, || join(|| 1, || 2));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn nested_par_map_stays_bounded_and_correct() {
        // Outer 4-wide map, each task runs an inner map; inner maps
        // must fall back to sequential inside workers, and the result
        // must still be correct and ordered.
        let got = with_override(4, || {
            par_map_range(4, |outer| par_map_range(100, move |inner| outer * 100 + inner))
        });
        for (outer, inner_vec) in got.iter().enumerate() {
            assert_eq!(inner_vec.len(), 100);
            for (inner, v) in inner_vec.iter().enumerate() {
                assert_eq!(*v, outer * 100 + inner);
            }
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        // Sizes around the width leave workers whose first claim is
        // already past `n`; none of them may run or skip a task.
        for t in [2, 8] {
            for n in [0, 1, t - 1, t, t + 1, 500] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let got = with_override(t, || {
                    par_map_range(n, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        i
                    })
                });
                assert_eq!(got, (0..n).collect::<Vec<_>>(), "t={t} n={n}");
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "t={t} n={n}");
            }
        }
    }

    #[test]
    fn uneven_task_durations_still_order_results() {
        // Early indices sleep so later ones finish first; output order
        // must not depend on completion order.
        let got = with_override(4, || {
            par_map_range(16, |i| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i * i
            })
        });
        assert_eq!(got, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn threads_is_at_least_one() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(0);
        assert!(threads() >= 1);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(usize::MAX);
        assert_eq!(threads(), pool::MAX_THREADS);
        set_threads(0);
    }

    #[test]
    fn derive_seed_spreads_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000u64 {
            seen.insert(derive_seed(0xDEAD_BEEF, i));
        }
        assert_eq!(seen.len(), 10_000, "derived seeds must not collide trivially");
        // Different masters diverge on the same index.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    /// span_id → (name, parent_id) for every SpanStart in `evs`.
    fn span_index(
        evs: &[bs_telemetry::trace::Event],
    ) -> std::collections::BTreeMap<u64, (&'static str, u64)> {
        evs.iter()
            .filter_map(|e| match e.kind {
                bs_telemetry::trace::EventKind::SpanStart { name } => {
                    Some((e.span_id, (name, e.parent_id)))
                }
                _ => None,
            })
            .collect()
    }

    /// Whether `ancestor` appears on the parent chain starting at `id`.
    fn has_ancestor(
        index: &std::collections::BTreeMap<u64, (&'static str, u64)>,
        mut id: u64,
        ancestor: u64,
    ) -> bool {
        for _ in 0..64 {
            if id == ancestor {
                return true;
            }
            id = match index.get(&id) {
                Some((_, parent)) => *parent,
                None => return false,
            };
        }
        false
    }

    #[test]
    fn worker_spans_parent_under_the_spawning_stage() {
        let (root_ctx, root_lane, evs) = with_override(4, || {
            bs_telemetry::trace::enable();
            bs_telemetry::trace::drain();
            let root = bs_telemetry::stage("par.test.stage");
            let root_ctx = root.context().expect("root context");
            let both = BothSides::new();
            par_map_range(16, |i| {
                let _s = bs_telemetry::stage("par.test.task");
                both.meet();
                i
            });
            drop(root);
            let evs = bs_telemetry::trace::drain();
            bs_telemetry::trace::disable();
            let root_start = evs
                .iter()
                .find(|e| {
                    matches!(e.kind, bs_telemetry::trace::EventKind::SpanStart { name } if name == "par.test.stage")
                })
                .expect("root span recorded");
            (root_ctx, root_start.lane, evs)
        });
        let index = span_index(&evs);
        let tasks: Vec<&bs_telemetry::trace::Event> = evs
            .iter()
            .filter(|e| {
                matches!(e.kind, bs_telemetry::trace::EventKind::SpanStart { name } if name == "par.test.task")
            })
            .collect();
        assert_eq!(tasks.len(), 16, "every task recorded its span");
        for t in &tasks {
            assert_eq!(t.trace_id, root_ctx.trace_id, "one causal tree");
            let (parent_name, _) = index[&t.parent_id];
            assert_eq!(parent_name, "par.run", "tasks nest under the parallel region span");
            assert!(
                has_ancestor(&index, t.parent_id, root_ctx.span_id),
                "worker span chain reaches the spawning stage"
            );
        }
        // The caller is one of the region's threads: its lane runs
        // tasks beside the workers', and no more than the width ran.
        let lanes: std::collections::BTreeSet<_> = tasks.iter().map(|t| t.lane).collect();
        assert!(lanes.len() <= 4, "a width-4 region ran tasks on {} lanes", lanes.len());
        assert!(lanes.contains(&root_lane), "the caller ran none of the region's tasks");
        let names = bs_telemetry::trace::lane_names();
        assert!(
            names.iter().any(|(_, n)| n.starts_with("par-worker-")),
            "workers name their lanes, got {names:?}"
        );
    }

    #[test]
    fn join_and_scope_propagate_context() {
        let evs = with_override(2, || {
            bs_telemetry::trace::enable();
            bs_telemetry::trace::drain();
            {
                let _root = bs_telemetry::stage("par.test.jsroot");
                join(
                    || {
                        let _a = bs_telemetry::stage("par.test.join.a");
                    },
                    || {
                        let _b = bs_telemetry::stage("par.test.join.b");
                    },
                );
                scope(|s| {
                    s.spawn(|| {
                        let _c = bs_telemetry::stage("par.test.scope.child");
                    });
                });
            }
            let evs = bs_telemetry::trace::drain();
            bs_telemetry::trace::disable();
            evs
        });
        let index = span_index(&evs);
        let root_id = *index
            .iter()
            .find(|(_, (name, _))| *name == "par.test.jsroot")
            .map(|(id, _)| id)
            .expect("root recorded");
        for child in ["par.test.join.a", "par.test.join.b", "par.test.scope.child"] {
            let (&id, _) = index
                .iter()
                .find(|(_, (name, _))| *name == child)
                .unwrap_or_else(|| panic!("{child} recorded"));
            assert!(has_ancestor(&index, id, root_id), "{child} parents under the root");
        }
    }

    #[test]
    fn spawned_threads_inherit_the_ledger_window() {
        let seen = with_override(4, || {
            bs_telemetry::prof::enable();
            let _w = bs_telemetry::ledger::window_scope(42);
            let window = bs_telemetry::ledger::current_window;
            let tasks = par_map_range(16, |_| window());
            let (a, b) = join(window, window);
            let spawned = scope(|s| s.spawn(window).join().expect("scoped thread"));
            bs_telemetry::prof::disable();
            (tasks, a, b, spawned)
        });
        assert_eq!(seen, (vec![42; 16], 42, 42, 42));
        assert_eq!(bs_telemetry::ledger::current_window(), bs_telemetry::ledger::NO_WINDOW);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = with_override(2, || {
            std::panic::catch_unwind(|| {
                par_map_range(8, |i| if i == 5 { panic!("task boom") } else { i });
            })
        });
        assert!(r.is_err(), "a panicking task must fail the parallel region");
    }

    #[test]
    #[should_panic(expected = "task 5 failed")]
    fn a_panicking_task_keeps_its_payload_at_width_1() {
        with_override(1, || {
            par_map_range(8, |i| if i == 5 { panic!("task {i} failed") } else { i })
        });
    }

    #[test]
    #[should_panic(expected = "a task failed on a spawned worker")]
    fn a_panicking_task_on_a_worker_keeps_its_payload_at_width_4() {
        with_override(4, || {
            let both = BothSides::new();
            par_map_range(16, |i| {
                if !both.meet() {
                    panic!("a task failed on a spawned worker");
                }
                i
            })
        });
    }

    #[test]
    #[should_panic(expected = "a task failed on the caller")]
    fn a_panicking_task_on_the_caller_keeps_its_payload_at_width_4() {
        with_override(4, || {
            let both = BothSides::new();
            par_map_range(16, |i| {
                if both.meet() {
                    panic!("a task failed on the caller");
                }
                i
            })
        });
    }

    #[test]
    #[should_panic(expected = "the spawned side failed")]
    fn a_panic_in_join_keeps_its_payload() {
        with_override(2, || join(|| 1, || -> i32 { panic!("the spawned side failed") }));
    }

    /// The distinct threads that ran the tasks of a width-`t` region
    /// of `n ≥ t` tasks, and the caller's id.
    fn region_threads(t: usize, n: usize) -> (HashSet<ThreadId>, ThreadId) {
        with_override(t, || {
            let both = BothSides::new();
            let ran = par_map_range(n, |_| {
                both.meet();
                std::thread::current().id()
            });
            (ran.into_iter().collect(), std::thread::current().id())
        })
    }

    #[test]
    fn a_region_runs_on_at_most_its_width_of_threads_the_caller_included() {
        for t in [2, 4] {
            let (ran, caller) = region_threads(t, 32);
            assert!(ran.len() <= t, "width {t} ran on {} threads", ran.len());
            assert!(ran.len() >= 2, "width {t} ran on one thread");
            assert!(ran.contains(&caller), "width {t}: the caller ran no task");
        }
    }

    #[test]
    fn a_region_nested_in_the_callers_task_adds_no_thread() {
        let (outer, nested, caller) = with_override(4, || {
            let both = BothSides::new();
            let ran = par_map_range(8, |_| {
                let on_caller = both.meet();
                let here = std::thread::current().id();
                let inner: Vec<ThreadId> = par_map_range(16, |_| std::thread::current().id());
                (here, on_caller.then_some(inner))
            });
            let outer: HashSet<ThreadId> = ran.iter().map(|(id, _)| *id).collect();
            let nested: Vec<Vec<ThreadId>> = ran.into_iter().filter_map(|(_, n)| n).collect();
            (outer, nested, std::thread::current().id())
        });
        assert!(!nested.is_empty(), "the caller ran no task");
        for inner in &nested {
            assert!(
                inner.iter().all(|&id| id == caller),
                "a nested region left the caller's thread"
            );
        }
        assert!(outer.len() <= 4, "a width-4 region ran on {} threads", outer.len());
    }

    #[test]
    fn the_worker_flag_is_restored_after_a_region_and_after_a_panic() {
        // Each following region from the same thread fans out again.
        for _ in 0..2 {
            let (ran, _) = region_threads(4, 16);
            assert!(ran.len() >= 2, "a region after a region ran on one thread");
        }
        let r = with_override(4, || {
            std::panic::catch_unwind(|| {
                let both = BothSides::new();
                par_map_range(16, |i| if both.meet() { panic!("caller task {i}") } else { i })
            })
        });
        assert!(r.is_err(), "the caller's panic reached the region's caller");
        let (ran, caller) = region_threads(4, 16);
        assert!(ran.len() >= 2 && ran.contains(&caller), "a region after a panic did not fan out");
    }
}

//! The scoped pool: one shared task counter per parallel region.
//!
//! There are no persistent worker threads: each parallel region spawns
//! its workers inside [`std::thread::scope`], so closures may borrow
//! stack data freely and a panicking task unwinds into the caller.
//! What *is* global is the sizing policy ([`threads`]) and the
//! nested-region guard (a thread-local flag marking pool workers, under
//! which nested regions degrade to sequential execution).

use bs_telemetry::Position;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Explicit override (0 = none). Set by [`set_threads`] / `--threads`.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Lazily resolved default: `BS_THREADS` env, else available cores.
static DEFAULT: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// True on threads spawned as pool workers; nested parallel
    /// regions on such threads run sequentially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The widest pool [`threads`] resolves to: a region spawns one thread
/// per task up to the width, so an unbounded width is one per task.
pub(crate) const MAX_THREADS: usize = 256;

/// The resolved pool size: [`set_threads`] override → `BS_THREADS`
/// environment variable → [`std::thread::available_parallelism`].
/// Always at least 1 and at most 256.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o.min(MAX_THREADS);
    }
    *DEFAULT.get_or_init(|| {
        std::env::var("BS_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
            })
            .min(MAX_THREADS)
    })
}

/// Override the pool size for the whole process (the CLI's `--threads`
/// flag). `0` clears the override, returning to `BS_THREADS` / core
/// count. Takes effect for parallel regions started after the call.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Whether the current thread is a pool worker (nested regions run
/// sequentially there).
fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Like [`std::thread::scope`], for irregular task shapes the
/// structured primitives don't fit, with one addition: the caller's
/// telemetry position is captured at entry and every
/// [`Scope::spawn`]ed thread runs inside it, so stages opened in
/// spawned closures parent under the span that was current when the
/// scope began. Spawned threads are *not* counted against the pool
/// size; prefer [`par_map`] / [`join`] where possible.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    let inherited = Position::capture();
    std::thread::scope(|inner| f(&Scope { inner, inherited }))
}

/// The handle passed to [`scope`]'s closure; a thin wrapper over
/// [`std::thread::Scope`] whose [`spawn`](Scope::spawn) enters the
/// scope-entry telemetry position on the new thread.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    inherited: Position,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a scoped thread running `f` under the telemetry position
    /// that was current when the enclosing [`scope`] was entered.
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inherited = self.inherited;
        self.inner.spawn(move || {
            let _inherited = inherited.enter(format_args!("par-scope"));
            f()
        })
    }
}

/// Map `f` over `items` in parallel; `f` receives `(index, &item)` and
/// the output preserves input order exactly.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_range(items.len(), |i| f(i, &items[i]))
}

/// Map `f` over the index range `0..n` in parallel, preserving index
/// order in the output. The deterministic core of every other
/// primitive: `f` must depend only on its index argument (derive
/// per-task RNG seeds via [`crate::derive_seed`]).
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let t = if n <= 1 || in_worker() { 1 } else { threads().min(n) };
    if t <= 1 {
        bs_telemetry::counter_add("par.tasks", n as u64);
        return (0..n).map(f).collect();
    }
    run_shared(n, t, &f)
}

/// Map `f` over `chunk_size`-sized chunks of `items` in parallel; `f`
/// receives `(chunk_index, chunk)` and outputs stay in chunk order.
/// Use for fine-grained items where one task per element would drown
/// in scheduling overhead.
pub fn par_chunks<T, U, F>(items: &[T], chunk_size: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    assert!(chunk_size >= 1, "chunk_size must be at least 1");
    let chunks = items.len().div_ceil(chunk_size);
    par_map_range(chunks, |ci| {
        let lo = ci * chunk_size;
        let hi = (lo + chunk_size).min(items.len());
        f(ci, &items[lo..hi])
    })
}

/// Run two independent closures, concurrently when a core is free.
/// `b` runs on a spawned scoped thread, `a` on the caller's.
pub fn join<RA, RB>(a: impl FnOnce() -> RA, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RB: Send,
{
    if threads() <= 1 || in_worker() {
        return (a(), b());
    }
    let inherited = Position::capture();
    std::thread::scope(|s| {
        let hb = s.spawn(move || {
            let _inherited = inherited.enter(format_args!("par-join"));
            b()
        });
        let ra = a();
        (ra, hb.join().expect("join: spawned side panicked"))
    })
}

/// Run `n` tasks on `t` workers that claim indices from one shared
/// counter: each `fetch_add` hands out the next unclaimed index, so no
/// task runs twice and a worker retires at the first index past `n`.
/// Every region is a flat index range and a nested region runs inline,
/// so no task ever creates a task and there is nothing to rebalance.
fn run_shared<U, F>(n: usize, t: usize, f: &F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // Capturing the position *after* opening the stage means worker
    // child spans parent under `par.run` → enclosing stage → root;
    // allocations stay charged to the enclosing stage, as at width 1.
    let _stage = bs_telemetry::stage("par.run").charging_parent();
    let inherited = Position::capture();
    bs_telemetry::gauge_set("par.threads", t as i64);
    // Region depth for the live watchdog's backlog rule: tasks still
    // queued or running across all concurrent regions. Net zero after
    // every region, so a scrape seeing it high means work in flight.
    bs_telemetry::gauge_add("par.inflight", n as i64);
    // Relaxed is enough: the counter publishes no data, and results
    // reach this thread through the workers' joins.
    let next = &AtomicUsize::new(0);

    let parts: Vec<Vec<(usize, U)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..t)
            .map(|w| {
                s.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    let _inherited = inherited.enter(format_args!("par-worker-{w}"));
                    let mut done = Vec::with_capacity(n / t + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
    });

    bs_telemetry::counter_add("par.tasks", n as u64);
    bs_telemetry::gauge_add("par.inflight", -(n as i64));

    // Reassemble in task-index order, independent of execution order.
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for part in parts {
        for (i, u) in part {
            debug_assert!(out[i].is_none(), "task {i} executed twice");
            out[i] = Some(u);
        }
    }
    out.into_iter().map(|u| u.expect("every task index executed")).collect()
}

//! The scoped pool: one shared task counter per parallel region.
//!
//! There are no persistent worker threads: a region of width `t` runs
//! on the calling thread and `t − 1` workers it spawns inside
//! [`std::thread::scope`], so closures may borrow stack data freely and
//! a panicking task unwinds into the caller with its own payload. What
//! *is* global is the sizing policy ([`threads`]) and the nested-region
//! guard (a thread-local flag marking the threads that run a region's
//! tasks, the caller during its share included, under which nested
//! regions degrade to sequential execution).

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
    /// True on a thread while it runs a region's tasks: a spawned
    /// worker, or the caller during its own share. Nested parallel
    /// regions on such a thread run sequentially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The widest pool [`threads`] resolves to: a region runs on one thread
/// per task up to the width (the caller and `width − 1` spawned), so an
/// unbounded width is one thread per task.
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

/// Whether the current thread is running a region's tasks (nested
/// regions run sequentially there).
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
/// `b` runs on a spawned scoped thread, `a` on the caller's. A panic on
/// either side reaches the caller with its own payload.
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
        (ra, hb.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    })
}

/// Run `n` tasks on `t` threads, the caller and `t − 1` spawned
/// workers, that claim indices from one shared counter: each
/// `fetch_add` hands out the next unclaimed index, so no task runs
/// twice and a thread retires at the first index past `n`. Every region
/// is a flat index range and a nested region runs inline, so no task
/// ever creates a task and there is nothing to rebalance.
fn run_shared<U, F>(n: usize, t: usize, f: &F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // Capturing the position *after* opening the stage means worker
    // child spans parent under `par.run` → enclosing stage → root;
    // allocations stay charged to the enclosing stage, as at width 1.
    // The caller is already at that position, so its share runs there
    // without entering it and its lane keeps its name.
    let _stage = bs_telemetry::stage("par.run").charging_parent();
    let inherited = Position::capture();
    bs_telemetry::gauge_set("par.threads", t as i64);
    // Relaxed is enough: the counter publishes no data, and results
    // reach this thread through the workers' joins.
    let next = &AtomicUsize::new(0);

    let parts: Vec<Vec<(usize, U)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..t)
            .map(|w| {
                s.spawn(move || {
                    let _inherited = inherited.enter(format_args!("par-worker-{w}"));
                    claim_until_done(next, n, t, f)
                })
            })
            .collect();
        let mine = claim_until_done(next, n, t, f);
        let theirs = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        std::iter::once(mine).chain(theirs).collect()
    });

    bs_telemetry::counter_add("par.tasks", n as u64);

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

/// One thread's claim loop, the caller's or a spawned worker's: run
/// the next unclaimed task until the indices run out.
fn claim_until_done<U, F>(next: &AtomicUsize, n: usize, t: usize, f: &F) -> Vec<(usize, U)>
where
    F: Fn(usize) -> U,
{
    let _claiming = Claiming::new(next, n);
    let mut done = Vec::with_capacity(n / t + 1);
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return done;
        }
        done.push((i, f(i)));
    }
}

/// Held while a thread runs a region's claim loop. It sets the worker
/// flag, so a region opened inside a task runs inline, and restores the
/// thread's previous value when dropped, also on unwind: the caller's
/// next region fans out again. A task that panics pushes the counter
/// past `n` on its way out, so the other threads retire at their next
/// claim instead of finishing a region whose result is lost.
struct Claiming<'a> {
    next: &'a AtomicUsize,
    n: usize,
    was_worker: bool,
}

impl<'a> Claiming<'a> {
    fn new(next: &'a AtomicUsize, n: usize) -> Claiming<'a> {
        Claiming { next, n, was_worker: IN_WORKER.with(|flag| flag.replace(true)) }
    }
}

impl Drop for Claiming<'_> {
    fn drop(&mut self) {
        IN_WORKER.with(|flag| flag.set(self.was_worker));
        if std::thread::panicking() {
            self.next.fetch_max(self.n, Ordering::Relaxed);
        }
    }
}

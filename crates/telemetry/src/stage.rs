//! The one stage guard and the thread position it reads.
//!
//! A thread's *position* is the span new stages parent under, the
//! window its ledger rows and stage costs file under, the allocator
//! slot its allocations are charged to and the path of stages it is
//! inside. It lives in one thread-local; every guard here remembers the
//! position it replaced and restores it on drop, so guards must drop in
//! LIFO order on a given thread (which scoped usage guarantees).
//!
//! Crossing threads is explicit: [`Position::capture`] on the spawning
//! thread, [`Position::enter`] on the spawned one. `bs-par` does both
//! at each of its spawn sites.

use crate::recorder::{self, EventKind};
use crate::{intern, ACTIVE, METRICS, PROF, TRACE};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Window key of a thread outside any [`window_scope`].
pub const NO_WINDOW: u64 = u64::MAX;

/// Process-global id source. Starts at 1 so 0 can mean "no parent".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A position in the span tree: which trace, and which span within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The root identity shared by every span of one causal tree.
    pub trace_id: u64,
    /// The span to parent new child spans under.
    pub span_id: u64,
}

#[derive(Debug, Clone, Copy)]
struct Here {
    ctx: Option<TraceContext>,
    window: u64,
    slot: u16,
    /// The interned path of profiled stages open around the thread.
    path: u32,
}

const ROOT: Here = Here { ctx: None, window: NO_WINDOW, slot: 0, path: 0 };

thread_local! {
    /// Const-initialised and destructor-free, so the allocator hook can
    /// read it at any point in a thread's life.
    static HERE: Cell<Here> = const { Cell::new(ROOT) };

    /// Wall time of the profiled stages that have closed on this thread
    /// inside the innermost one still open: what that stage subtracts
    /// from its elapsed time to get its self time.
    static CHILDREN_NS: Cell<u64> = const { Cell::new(0) };
}

/// Move the thread to `f(current position)`, returning where it was.
fn move_to(f: impl FnOnce(Here) -> Here) -> Here {
    HERE.with(|h| h.replace(f(h.get())))
}

/// The allocator slot the current thread's allocations charge to.
pub(crate) fn alloc_slot() -> usize {
    HERE.try_with(|h| h.get().slot).unwrap_or(0) as usize
}

/// The current thread's span context. `None` while tracing and
/// profiling are both off, or outside any stage.
pub fn current_context() -> Option<TraceContext> {
    if crate::flags() & ACTIVE == 0 {
        return None;
    }
    HERE.with(|h| h.get().ctx)
}

/// The window the current thread is scoped to ([`NO_WINDOW`] outside
/// any scope).
pub fn current_window() -> u64 {
    HERE.with(|h| h.get().window)
}

/// Scope the current thread to window `w` until the guard drops
/// (restoring the previous window — scopes nest). Inert while tracing
/// and profiling are both off.
pub fn window_scope(w: u64) -> Entered {
    if crate::flags() & ACTIVE == 0 {
        return Entered { prev: None };
    }
    let prev = move_to(|here| Here { window: w, ..here });
    Entered { prev: Some(prev) }
}

/// Restores the thread position that was current when it was created
/// (see [`window_scope`], [`Position::enter`]).
#[must_use = "dropping the guard immediately restores the previous position"]
#[derive(Debug)]
pub struct Entered {
    prev: Option<Here>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            HERE.with(|h| h.set(prev));
        }
    }
}

/// Everything a spawned thread inherits from its spawner: span context,
/// ledger window, allocator slot and stage path, so what a worker does
/// nests under the stage that fanned out. `Copy`, so one capture serves
/// every thread a region spawns.
#[derive(Debug, Clone, Copy)]
pub struct Position {
    here: Here,
}

impl Position {
    /// The calling thread's position. One relaxed load and nothing else
    /// while tracing and profiling are both off.
    pub fn capture() -> Position {
        let active = crate::flags() & ACTIVE != 0;
        Position { here: if active { HERE.with(|h| h.get()) } else { ROOT } }
    }

    /// Make this the current thread's position until the guard drops,
    /// and label the thread's lane in the trace export. The label is
    /// only formatted under tracing. Inert while tracing and profiling
    /// are both off.
    pub fn enter(&self, label: std::fmt::Arguments<'_>) -> Entered {
        let flags = crate::flags();
        if flags & ACTIVE == 0 {
            return Entered { prev: None };
        }
        let prev = move_to(|_| self.here);
        if flags & TRACE != 0 {
            recorder::name_lane(&label.to_string());
        }
        Entered { prev: Some(prev) }
    }
}

/// Open a pipeline stage. One relaxed load; while no sink is attached
/// the guard is inert and the clock is never read. Otherwise the stage
/// nests under the thread's current span, files under the thread's
/// current window (read now, not at drop), and when the guard drops one
/// elapsed time serves every attached sink: the histogram named `name`
/// (metrics, nanoseconds), the span's end event (tracing), and the
/// `(name, window)` cost cell and the cost of the path it extends
/// (profiling). Under profiling the stage is also the slot the thread's
/// allocations charge to.
pub fn stage(name: &'static str) -> Stage {
    let flags = crate::flags();
    if flags == 0 {
        return Stage { name, live: None };
    }
    let opened = (flags & ACTIVE != 0).then(|| {
        let prev = HERE.with(|h| h.get());
        let (trace_id, parent_id) = match prev.ctx {
            Some(parent) => (parent.trace_id, parent.span_id),
            None => (next_id(), 0),
        };
        let ctx = TraceContext { trace_id, span_id: next_id() };
        let mut here = Here { ctx: Some(ctx), ..prev };
        if flags & TRACE != 0 {
            recorder::push(trace_id, ctx.span_id, parent_id, EventKind::SpanStart { name });
        }
        let mut siblings_ns = 0;
        if flags & PROF != 0 {
            let id = intern::intern(name);
            here.slot = crate::alloc::slot_of(id);
            here.path = intern::intern_path(prev.path, id);
            siblings_ns = CHILDREN_NS.with(|c| c.replace(0));
        }
        HERE.with(|h| h.set(here));
        Opened {
            ctx,
            parent_id,
            window: prev.window,
            path: here.path,
            siblings_ns,
            restore: Entered { prev: Some(prev) },
        }
    });
    Stage { name, live: Some(Live { flags, opened, start: Instant::now() }) }
}

#[derive(Debug)]
struct Live {
    /// The sinks attached at creation; the drop feeds exactly these.
    flags: u8,
    opened: Option<Opened>,
    start: Instant,
}

/// The position half of a live stage (tracing or profiling on).
#[derive(Debug)]
struct Opened {
    ctx: TraceContext,
    parent_id: u64,
    /// The window the stage files under: the thread's when it opened.
    window: u64,
    /// The path ending in this stage (profiling only).
    path: u32,
    /// What the enclosing stage's children had spent on this thread
    /// before this one opened (profiling only).
    siblings_ns: u64,
    /// Puts the thread back where it was.
    restore: Entered,
}

/// An open stage; ends when dropped. Created by [`stage`].
#[must_use = "a stage ends on drop; binding it to `_` ends it immediately"]
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    live: Option<Live>,
}

impl Stage {
    /// The stage's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// This stage's span context (`None` unless tracing or profiling
    /// was on at creation).
    pub fn context(&self) -> Option<TraceContext> {
        self.live.as_ref()?.opened.as_ref().map(|o| o.ctx)
    }

    /// Whether the guard was created with no sink attached (it records
    /// nothing and never read the clock).
    pub fn is_inert(&self) -> bool {
        self.live.is_none()
    }

    /// Hand the allocator slot back to the enclosing stage. For a
    /// stage whose own thread only waits for threads it spawns
    /// (`par.run`): they nest under it, but their allocations are
    /// charged exactly as the same work run inline would be, so the
    /// allocation profile does not depend on whether a region fanned
    /// out.
    pub fn charging_parent(self) -> Stage {
        let opened = self.live.as_ref().and_then(|l| l.opened.as_ref());
        if let Some(Here { slot, .. }) = opened.and_then(|o| o.restore.prev) {
            move_to(|here| Here { slot, ..here });
        }
        self
    }
}

impl Drop for Stage {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let ns = u64::try_from(live.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(o) = live.opened {
            drop(o.restore);
            if live.flags & TRACE != 0 {
                let end = EventKind::SpanEnd { name: self.name, dur_us: ns / 1_000 };
                recorder::push(o.ctx.trace_id, o.ctx.span_id, o.parent_id, end);
            }
            if live.flags & PROF != 0 {
                let children = CHILDREN_NS.with(|c| c.replace(o.siblings_ns.saturating_add(ns)));
                let self_ns = ns.saturating_sub(children);
                crate::ledger::book_cost(self.name, o.window, o.path, ns, self_ns);
            }
        }
        if live.flags & METRICS != 0 {
            crate::registry().histogram(self.name).record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn stage_records_into_named_histogram() {
        let _g = testutil::serial();
        crate::enable();
        {
            let g = stage("stage.test.hist");
            assert_eq!(g.name(), "stage.test.hist");
            assert!(g.context().is_none(), "metrics alone opens no span");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let h = crate::registry().histogram("stage.test.hist");
        assert!(h.count() >= 1);
        assert!(h.max() >= 1_000_000, "at least 1ms recorded, got {}ns", h.max());
    }

    #[test]
    fn detached_stage_is_inert() {
        let _g = testutil::serial();
        crate::disable();
        let s = stage("stage.test.inert");
        assert!(s.is_inert() && s.context().is_none());
        drop(s);
        crate::enable();
        assert_eq!(crate::registry().histogram("stage.test.inert").count(), 0);
    }

    #[test]
    fn one_guard_feeds_every_attached_sink() {
        let _g = testutil::serial();
        crate::enable();
        crate::trace::enable();
        crate::prof::enable();
        crate::trace::drain();
        crate::ledger::reset();
        {
            let _w = window_scope(9);
            let _s = stage("stage.test.all");
        }
        crate::prof::disable();
        crate::trace::disable();
        assert_eq!(crate::registry().histogram("stage.test.all").count(), 1);
        let evs = crate::trace::drain();
        assert!(evs.iter().any(
            |e| matches!(e.kind, EventKind::SpanEnd { name, .. } if name == "stage.test.all")
        ));
        let row = crate::ledger::cost_rows()
            .into_iter()
            .find(|r| r.stage == "stage.test.all")
            .expect("cost cell booked");
        assert_eq!((row.window, row.calls, row.records), (9, 1, None));
        crate::ledger::reset();
    }

    #[test]
    fn position_carries_span_window_slot_and_path() {
        let _g = testutil::serial();
        crate::prof::enable();
        crate::ledger::reset();
        let (pos, outer_ctx) = {
            let _w = window_scope(5);
            let outer = stage("stage.test.pos.outer");
            let pos = Position::capture();
            let seen = std::thread::scope(|s| {
                s.spawn(|| {
                    let _p = pos.enter(format_args!("stage-test"));
                    let _inner = stage("stage.test.pos.inner");
                    (current_window(), intern::path_names(HERE.with(|h| h.get().path)))
                })
                .join()
                .expect("spawned")
            });
            assert_eq!(seen.0, 5, "window inherited");
            assert_eq!(seen.1, ["stage.test.pos.outer", "stage.test.pos.inner"]);
            (pos, outer.context())
        };
        assert_eq!(pos.here.ctx, outer_ctx, "span context captured");
        assert_eq!(pos.here.slot, crate::alloc::slot_of(intern::intern("stage.test.pos.outer")));
        assert_eq!(current_window(), NO_WINDOW, "guards restored the root position");
        assert_eq!((alloc_slot(), HERE.with(|h| h.get().path)), (0, 0));
        crate::prof::disable();
        let rows = crate::prof::path_rows();
        let cost = |path: &str| rows.iter().find(|r| r.0 == path).expect(path).1;
        let outer = cost("stage.test.pos.outer");
        assert_eq!(cost("stage.test.pos.outer;stage.test.pos.inner").calls, 1);
        assert_eq!(outer.self_ns, outer.total_ns, "another thread's stage is not taken out");
        crate::ledger::reset();
    }
}

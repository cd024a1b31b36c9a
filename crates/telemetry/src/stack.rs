//! Shared per-thread frame stacks for the sampling profiler, and the
//! crate's one stage-name intern table.
//!
//! Every thread that opens a stage while profiling is on maintains a
//! small fixed-depth stack of interned stage ids in shared memory. The
//! sampler thread walks the registry at its tick rate and snapshots
//! each stack *without stopping the writer*: the stack is published
//! through a seqlock — the writer bumps a version counter to an odd
//! value before mutating and back to even after, and the reader retries
//! whenever it observes an odd or changed version. All of it is safe
//! code (atomics only); a torn read costs a retry, never undefined
//! behaviour.
//!
//! Stage names are `&'static str`s interned to small ids, so a frame
//! push is two relaxed atomic stores and the same id picks the
//! allocator slot. [`resolve`] maps ids back to names at export time.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

/// Maximum tracked stack depth per thread. Deeper frames are counted
/// (so pops stay balanced) but not recorded — pipeline stacks are 3–6
/// frames deep in practice.
pub(crate) const MAX_DEPTH: usize = 32;

/// One thread's shared frame stack. Writers are the owning thread
/// only; readers are the sampler.
struct ThreadStack {
    /// Seqlock version: odd while the owning thread is mid-update.
    version: AtomicU64,
    /// Current depth (may exceed `MAX_DEPTH`; frames beyond it are
    /// counted but not stored).
    depth: AtomicU32,
    /// Interned stage ids, bottom (outermost) first.
    frames: [AtomicU32; MAX_DEPTH],
}

impl ThreadStack {
    /// Copy the stored frames into `out`, returning how many.
    fn load(&self, out: &mut [u32; MAX_DEPTH]) -> usize {
        let stored = (self.depth.load(Ordering::Relaxed) as usize).min(MAX_DEPTH);
        for (slot, frame) in out.iter_mut().zip(&self.frames[..stored]) {
            *slot = frame.load(Ordering::Relaxed);
        }
        stored
    }
}

/// Every thread that ever opened a profiled stage, until it exits.
static REGISTRY: Mutex<Vec<Weak<ThreadStack>>> = Mutex::new(Vec::new());

/// Id `i` names `NAMES[i - 1]`; id 0 is "no stage".
static NAMES: RwLock<Vec<&'static str>> = RwLock::new(Vec::new());

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<ThreadStack>> = const { std::cell::OnceCell::new() };
}

/// Intern a stage name to its id (nonzero, stable for the process
/// lifetime). Known names take the read lock only; the scan compares
/// addresses before bytes, and stage names number in the dozens.
pub(crate) fn intern(name: &'static str) -> u32 {
    let find = |table: &[&'static str]| {
        table.iter().position(|n| std::ptr::eq(*n, name) || *n == name).map(|i| i as u32 + 1)
    };
    if let Some(id) = find(&NAMES.read().unwrap_or_else(|e| e.into_inner())) {
        return id;
    }
    let mut table = NAMES.write().unwrap_or_else(|e| e.into_inner());
    find(&table).unwrap_or_else(|| {
        table.push(name);
        table.len() as u32
    })
}

/// Resolve an interned id back to its name (export-time only).
pub(crate) fn resolve(id: u32) -> &'static str {
    let table = NAMES.read().unwrap_or_else(|e| e.into_inner());
    (id as usize).checked_sub(1).and_then(|i| table.get(i).copied()).unwrap_or("(unknown)")
}

fn with_local<R>(f: impl FnOnce(&ThreadStack) -> R) -> Option<R> {
    LOCAL
        .try_with(|cell| {
            let stack = cell.get_or_init(|| {
                let arc = Arc::new(ThreadStack {
                    version: AtomicU64::new(0),
                    depth: AtomicU32::new(0),
                    frames: [const { AtomicU32::new(0) }; MAX_DEPTH],
                });
                crate::lock(&REGISTRY).push(Arc::downgrade(&arc));
                arc
            });
            f(stack)
        })
        .ok()
}

/// Push one frame onto the current thread's stack. Returns `false` if
/// the thread-local was unavailable (TLS teardown) — the caller must
/// then skip the matching [`pop_frame`].
pub(crate) fn push_frame(id: u32) -> bool {
    with_local(|s| {
        let depth = s.depth.load(Ordering::Relaxed) as usize;
        s.version.fetch_add(1, Ordering::Release);
        if depth < MAX_DEPTH {
            s.frames[depth].store(id, Ordering::Relaxed);
        }
        s.depth.store(depth as u32 + 1, Ordering::Relaxed);
        s.version.fetch_add(1, Ordering::Release);
    })
    .is_some()
}

/// Pop the top frame pushed by [`push_frame`].
pub(crate) fn pop_frame() {
    with_local(|s| {
        let depth = s.depth.load(Ordering::Relaxed);
        s.version.fetch_add(1, Ordering::Release);
        s.depth.store(depth.saturating_sub(1), Ordering::Relaxed);
        s.version.fetch_add(1, Ordering::Release);
    });
}

/// Copy the current thread's own frames into `out`, returning how many
/// (no seqlock needed — we are the writer). The base stack a
/// [`crate::Position`] carries onto spawned threads.
pub(crate) fn copy_current(out: &mut [u32; MAX_DEPTH]) -> usize {
    with_local(|s| s.load(out)).unwrap_or(0)
}

/// Show `visit` a snapshot of every live thread's stack: interned
/// stage ids, outermost first, empty for an idle thread (alive, no
/// open stage). Returns the number of torn reads that exhausted the
/// retry budget (counted, skipped — never blocking). Allocates
/// nothing, so the sampler does not show up in its own profile.
pub(crate) fn sample_all(mut visit: impl FnMut(&[u32])) -> u64 {
    let mut torn = 0u64;
    let mut reg = crate::lock(&REGISTRY);
    reg.retain(|w| w.strong_count() > 0);
    for stack in reg.iter().filter_map(Weak::upgrade) {
        let mut frames = [0; MAX_DEPTH];
        match read_consistent(&stack, &mut frames) {
            Some(depth) => visit(&frames[..depth]),
            None => torn += 1,
        }
    }
    torn
}

/// Seqlock read with a bounded retry budget: the stored depth, with
/// that many frames copied into `out`.
fn read_consistent(stack: &ThreadStack, out: &mut [u32; MAX_DEPTH]) -> Option<usize> {
    for _ in 0..8 {
        let v1 = stack.version.load(Ordering::Acquire);
        if !v1.is_multiple_of(2) {
            std::hint::spin_loop();
            continue;
        }
        let stored = stack.load(out);
        if stack.version.load(Ordering::Acquire) == v1 {
            return Some(stored);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current() -> Vec<&'static str> {
        let mut frames = [0; MAX_DEPTH];
        let depth = copy_current(&mut frames);
        frames[..depth].iter().map(|&id| resolve(id)).collect()
    }

    #[test]
    fn interning_is_stable_and_resolvable() {
        let a = intern("stack.test.alpha");
        let b = intern("stack.test.beta");
        assert!(a != 0 && b != 0 && a != b);
        assert_eq!(intern("stack.test.alpha"), a);
        assert_eq!(resolve(a), "stack.test.alpha");
        assert_eq!(resolve(b), "stack.test.beta");
        assert_eq!(resolve(0), "(unknown)");
    }

    #[test]
    fn push_pop_round_trips_through_sample_all() {
        let (outer, inner) = (intern("stack.test.outer"), intern("stack.test.inner"));
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done2 = done.clone();
        let t = std::thread::spawn(move || {
            assert!(push_frame(outer));
            assert!(push_frame(inner));
            while !done2.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            pop_frame();
            pop_frame();
        });
        // Wait until the worker's two frames are visible.
        let mut seen = false;
        for _ in 0..500 {
            sample_all(|frames| seen |= frames == [outer, inner]);
            if seen {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        done.store(true, Ordering::Relaxed);
        t.join().expect("worker");
        assert!(seen, "sampler saw the worker stack");
    }

    #[test]
    fn base_frames_nest_workers_under_parent() {
        let (mut base, depth) = std::thread::spawn(|| {
            assert!(push_frame(intern("stack.test.parent")));
            let mut base = [0; MAX_DEPTH];
            let depth = copy_current(&mut base);
            pop_frame();
            (base, depth)
        })
        .join()
        .expect("parent");
        assert_eq!(depth, 1);
        base[depth] = intern("stack.test.child");

        let frames = std::thread::spawn(move || {
            for &id in &base[..depth + 1] {
                push_frame(id);
            }
            current()
        })
        .join()
        .expect("worker");
        assert_eq!(frames, ["stack.test.parent", "stack.test.child"]);
    }

    #[test]
    fn deep_stacks_truncate_but_count() {
        std::thread::spawn(|| {
            let deep = intern("stack.test.deep");
            for _ in 0..(MAX_DEPTH + 3) {
                push_frame(deep);
            }
            let mut capped = false;
            sample_all(|frames| capped |= frames == [deep; MAX_DEPTH]);
            assert!(capped, "stored up to the cap");
            for _ in 0..(MAX_DEPTH + 2) {
                pop_frame();
            }
            assert_eq!(current(), ["stack.test.deep"], "pops past the cap stay balanced");
            pop_frame();
            assert!(current().is_empty());
        })
        .join()
        .expect("deep");
    }
}

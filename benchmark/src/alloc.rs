//! The benchmark binary's counting allocator.
//!
//! Counting is off during every timed pass (one relaxed load per call)
//! and on during the end-to-end run's heap pass and the traced run's
//! allocation pass, where the counters are read at span boundaries. Peak live heap is relative to the last
//! [`reset`], so a pass that frees what it allocated reads as the
//! high-water mark above the post-set-up baseline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// The counters are statistics: they publish no other data, so every
// access is Relaxed.
fn grew(by: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(by as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(by as i64, Ordering::Relaxed) + by as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on
        // `System`, as the caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are passed through as
        // received; `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events and bytes requested since the process started
/// counting; read at span boundaries and differenced.
pub fn counters() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Start counting with live and peak heap at zero.
pub fn reset_and_enable() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop counting; returns the peak live bytes since the reset.
pub fn disable() -> u64 {
    ENABLED.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

//! The counting global allocator: attributes allocation count and
//! bytes to the pipeline stage active on the allocating thread.
//!
//! [`CountingAlloc`] wraps [`System`]. While profiling is off every
//! hook pays exactly one relaxed atomic load before forwarding. While
//! on, it adds two relaxed `fetch_add`s against the slot in the
//! thread's position — the interned id of the innermost open
//! [`crate::stage`], inherited by spawned threads like the rest of the
//! position.
//!
//! Caveats (also in DESIGN): attribution is by *allocating thread's
//! current stage*, so allocations made by a stage but freed elsewhere
//! still count where they were made (deallocations are not tracked at
//! all — this is an allocation-pressure profile, not a live heap
//! profile), and anything allocated outside any stage files under
//! `(unattributed)`.
//!
//! This module is the only place in the crate (and the workspace)
//! allowed to use `unsafe`: the [`GlobalAlloc`] trait is unsafe to
//! implement, and every method body only forwards to [`System`].

#![allow(unsafe_code)]

use crate::json::escape;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Attribution slots: slot 0 is `(unattributed)`, slot `i` belongs to
/// the stage interned as id `i`. Stages interned past the table charge
/// slot 0 rather than failing.
const MAX_STAGES: usize = 64;

static COUNTS: [AtomicU64; MAX_STAGES] = [const { AtomicU64::new(0) }; MAX_STAGES];
static BYTES: [AtomicU64; MAX_STAGES] = [const { AtomicU64::new(0) }; MAX_STAGES];

/// The slot allocations under the stage interned as `id` charge to.
pub(crate) fn slot_of(id: u32) -> u16 {
    if (id as usize) < MAX_STAGES {
        id as u16
    } else {
        0
    }
}

#[inline]
fn charge(size: usize) {
    if crate::flags() & crate::PROF != 0 {
        let slot = crate::stage::alloc_slot();
        COUNTS[slot].fetch_add(1, Ordering::Relaxed);
        BYTES[slot].fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// A `#[global_allocator]` wrapper over [`System`] that attributes
/// allocation count/bytes to the active stage. Install it in the
/// binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: bs_telemetry::prof::CountingAlloc = bs_telemetry::prof::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: every method forwards the exact layout it was given to
// `System`, which upholds the GlobalAlloc contract; the counting
// side-effect touches only atomics and a const-initialized,
// destructor-free thread-local (no allocation, no re-entrancy).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One stage's allocation totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocRow {
    /// Stage name (`(unattributed)` for slot 0).
    pub stage: &'static str,
    /// Allocations charged (alloc + alloc_zeroed + realloc calls).
    pub count: u64,
    /// Bytes requested across those calls.
    pub bytes: u64,
}

/// Every slot with nonzero counts, largest byte total first.
pub fn alloc_rows() -> Vec<AllocRow> {
    let mut rows = Vec::new();
    for slot in 0..MAX_STAGES {
        let count = COUNTS[slot].load(Ordering::Relaxed);
        let bytes = BYTES[slot].load(Ordering::Relaxed);
        if count == 0 {
            continue;
        }
        let stage = if slot == 0 { "(unattributed)" } else { crate::intern::resolve(slot as u32) };
        rows.push(AllocRow { stage, count, bytes });
    }
    rows.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.stage.cmp(b.stage)));
    rows
}

/// Zero every slot (start of a profiling session).
pub(crate) fn reset_counts() {
    for slot in 0..MAX_STAGES {
        COUNTS[slot].store(0, Ordering::Relaxed);
        BYTES[slot].store(0, Ordering::Relaxed);
    }
}

/// JSON export for the `/profile/alloc` route:
/// `{"stages":[{"stage":...,"count":...,"bytes":...},...]}`.
pub fn alloc_json() -> String {
    let mut s = String::from("{\n  \"stages\": [");
    for (i, r) in alloc_rows().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"stage\": \"{}\", \"count\": {}, \"bytes\": {}}}",
            escape(r.stage),
            r.count,
            r.bytes
        ));
    }
    s.push_str("\n  ]\n}");
    s
}

/// Human-readable allocation table for the CLI exit summary.
pub fn alloc_table() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{:<28} {:>12} {:>14}", "stage", "allocs", "bytes");
    for r in alloc_rows() {
        let _ = writeln!(s, "{:<28} {:>12} {:>14}", r.stage, r.count, r.bytes);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_follow_interned_ids_and_overflow_to_unattributed() {
        let id = crate::intern::intern("alloc.test.a");
        assert_eq!(slot_of(id), id as u16);
        assert_eq!(slot_of(MAX_STAGES as u32 - 1), MAX_STAGES as u16 - 1);
        assert_eq!(slot_of(MAX_STAGES as u32), 0, "past the table: (unattributed)");
    }

    #[test]
    fn charges_file_under_the_open_stage() {
        let _g = crate::testutil::serial();
        crate::prof::enable();
        let slot = {
            let _s = crate::stage("alloc.test.charge");
            let slot = crate::stage::alloc_slot();
            let before = COUNTS[slot].load(Ordering::Relaxed);
            charge(128);
            charge(64);
            assert_eq!(COUNTS[slot].load(Ordering::Relaxed) - before, 2);
            slot
        };
        crate::prof::disable();
        assert_ne!(slot, 0);
        assert_eq!(crate::stage::alloc_slot(), 0, "the stage restored the slot");
        let rows = alloc_rows();
        let row = rows.iter().find(|r| r.stage == "alloc.test.charge").expect("row");
        assert!(row.bytes >= 192);
        crate::ledger::reset();
    }

    #[test]
    fn disabled_charge_is_a_noop() {
        let _g = crate::testutil::serial();
        crate::prof::disable();
        let before = COUNTS[0].load(Ordering::Relaxed);
        charge(1024);
        assert_eq!(COUNTS[0].load(Ordering::Relaxed), before);
    }
}

//! The wall-clock sampler: a background thread snapshotting every
//! live thread's shared frame stack at a fixed rate.
//!
//! Sampling is cooperative-free: workers never stop, never take a
//! lock the sampler holds — the seqlock in [`crate::stack`] means a
//! concurrent update costs the sampler a retry (counted as *torn* and
//! skipped past the retry budget, never misattributed). Aggregates
//! are collapsed stacks — `path → sample count` — which is exactly
//! the folded format flamegraph tooling (inferno, speedscope,
//! flamegraph.pl) eats directly.
//!
//! The tick loop is drift-corrected: each deadline is `previous +
//! period`, not `now + period`, so the effective rate stays at the
//! requested Hz even when individual ticks jitter; a stall longer
//! than a second resets the schedule instead of bursting to catch up.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

#[derive(Default)]
struct Aggregates {
    /// Collapsed stacks: interned frame path → samples observed there.
    stacks: HashMap<Vec<u32>, u64>,
    /// Samples where a thread was alive but inside no span.
    idle: u64,
    /// Seqlock reads that exhausted the retry budget (skipped).
    torn: u64,
    /// Total sampler ticks taken.
    ticks: u64,
    /// Threads seen on the most recent tick.
    threads: u64,
    /// The rate the sampler is (or was last) running at.
    hz: u32,
}

fn agg() -> MutexGuard<'static, Aggregates> {
    static AGG: OnceLock<Mutex<Aggregates>> = OnceLock::new();
    crate::lock(AGG.get_or_init(Default::default))
}

struct Running {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

static STATE: Mutex<Option<Running>> = Mutex::new(None);

/// Start the sampler at `hz` samples/second (clamped to `1..=1000`).
/// Turns profiling on, resets every profiler aggregate (sampler
/// stacks, ledger cells, allocator counters), and spawns the
/// `bs-prof-sampler` thread. Returns `false` if already running.
pub fn start(hz: u32) -> bool {
    let mut st = crate::lock(&STATE);
    if st.is_some() {
        return false;
    }
    crate::prof::reset();
    let hz = hz.clamp(1, 1000);
    agg().hz = hz;
    crate::prof::enable();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::Builder::new()
        .name("bs-prof-sampler".into())
        .spawn(move || run_loop(hz, &stop2))
        .expect("spawn bs-prof-sampler");
    *st = Some(Running { stop, thread });
    true
}

/// Stop the sampler (waits for the thread) and turn profiling mode
/// off. Aggregates remain readable after stopping. No-op when not
/// running.
pub fn stop() {
    let running = crate::lock(&STATE).take();
    if let Some(r) = running {
        r.stop.store(true, Ordering::Relaxed);
        let _ = r.thread.join();
    }
    crate::prof::disable();
}

/// Whether the sampler thread is live.
pub fn is_running() -> bool {
    crate::lock(&STATE).is_some()
}

fn run_loop(hz: u32, stop: &AtomicBool) {
    crate::stage::charge_thread_to("prof.sampler");
    let period = Duration::from_nanos(1_000_000_000 / hz as u64);
    let mut next = Instant::now() + period;
    while !stop.load(Ordering::Relaxed) {
        // Sleep toward the deadline in short slices so stop() never
        // waits more than ~20 ms.
        loop {
            let now = Instant::now();
            if now >= next || stop.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep((next - now).min(Duration::from_millis(20)));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        tick();
        next += period;
        let now = Instant::now();
        if now > next + Duration::from_secs(1) {
            next = now + period;
        }
    }
}

fn tick() {
    let mut a = agg();
    let mut threads = 0;
    let torn = crate::stack::sample_all(|frames| {
        threads += 1;
        if frames.is_empty() {
            a.idle += 1;
        } else if let Some(n) = a.stacks.get_mut(frames) {
            *n += 1;
        } else {
            a.stacks.insert(frames.to_vec(), 1);
        }
    });
    a.ticks += 1;
    a.torn += torn;
    a.threads = threads;
    let (ticks, threads, torn_total, busy) =
        (a.ticks, a.threads, a.torn, a.stacks.values().sum::<u64>());
    drop(a);
    crate::gauge_set("prof.ticks", ticks as i64);
    crate::gauge_set("prof.threads", threads as i64);
    crate::gauge_set("prof.torn", torn_total as i64);
    crate::gauge_set("prof.samples.busy", busy as i64);
}

/// Clear the collapsed-stack aggregates (called by [`crate::prof::reset`]).
pub(crate) fn reset_aggregates() {
    let mut a = agg();
    let hz = a.hz;
    *a = Aggregates::default();
    a.hz = hz;
}

/// `(busy_samples, idle_samples, torn_reads, ticks)` so far.
pub fn sample_counts() -> (u64, u64, u64, u64) {
    let a = agg();
    (a.stacks.values().sum(), a.idle, a.torn, a.ticks)
}

/// Inferno-compatible folded collapsed stacks: one line per observed
/// path, `frame;frame;frame count`, deterministically sorted. Idle
/// samples are excluded (they have no frames to fold).
pub fn folded() -> String {
    let paths: Vec<(Vec<u32>, u64)> = {
        let a = agg();
        a.stacks.iter().map(|(k, v)| (k.clone(), *v)).collect()
    };
    let mut lines: Vec<String> = paths
        .into_iter()
        .map(|(path, count)| {
            let names: Vec<&str> = path.iter().map(|&id| crate::stack::resolve(id)).collect();
            format!("{} {}", names.join(";"), count)
        })
        .collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Per-stage self/total sample counts, busiest first. *Total* counts
/// samples where the stage appears anywhere on the path (once per
/// sample); *self* counts samples where it is the leaf.
fn stage_totals() -> Vec<(String, u64, u64)> {
    let a = agg();
    let mut totals: HashMap<u32, (u64, u64)> = HashMap::new();
    for (path, count) in a.stacks.iter() {
        if let Some(&leaf) = path.last() {
            totals.entry(leaf).or_default().0 += count;
        }
        let mut seen: Vec<u32> = Vec::with_capacity(path.len());
        for &id in path {
            if !seen.contains(&id) {
                seen.push(id);
                totals.entry(id).or_default().1 += count;
            }
        }
    }
    drop(a);
    let mut rows: Vec<(String, u64, u64)> = totals
        .into_iter()
        .map(|(id, (selfc, total))| (crate::stack::resolve(id).to_string(), selfc, total))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
    rows
}

/// JSON for the `/profile/top` route: sampler meta plus the ranked
/// stage table.
pub fn top_json() -> String {
    let (busy, idle, torn, ticks) = sample_counts();
    let hz = agg().hz;
    let mut s = format!(
        "{{\n  \"hz\": {hz},\n  \"ticks\": {ticks},\n  \"busy\": {busy},\n  \"idle\": {idle},\n  \"torn\": {torn},\n  \"stages\": ["
    );
    for (i, (name, selfc, total)) in stage_totals().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"stage\": \"{}\", \"self\": {selfc}, \"total\": {total}}}",
            crate::json::escape(name)
        ));
    }
    s.push_str("\n  ]\n}");
    s
}

/// Human-readable ranked-stage table for `stats --top` and the CLI
/// exit summary.
pub fn top_table() -> String {
    use std::fmt::Write as _;
    let (busy, idle, torn, ticks) = sample_counts();
    let mut s = String::new();
    let _ = writeln!(s, "samples: busy={busy} idle={idle} torn={torn} ticks={ticks}");
    let _ = writeln!(s, "{:<30} {:>8} {:>8} {:>7}", "stage", "self", "total", "self%");
    for (name, selfc, total) in stage_totals() {
        let pct = if busy == 0 { 0.0 } else { selfc as f64 * 100.0 / busy as f64 };
        let _ = writeln!(s, "{:<30} {:>8} {:>8} {:>6.1}%", name, selfc, total, pct);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_and_top_render_aggregates() {
        let _g = crate::testutil::serial();
        reset_aggregates();
        let a_id = crate::stack::intern("sampler.test.root");
        let b_id = crate::stack::intern("sampler.test.leaf");
        {
            let mut a = agg();
            a.stacks.insert(vec![a_id, b_id], 7);
            a.stacks.insert(vec![a_id], 3);
            a.idle = 2;
            a.ticks = 12;
        }
        let folded = folded();
        assert!(folded.contains("sampler.test.root;sampler.test.leaf 7"));
        assert!(folded.contains("sampler.test.root 3"));
        let totals = stage_totals();
        let root = totals.iter().find(|(n, _, _)| n == "sampler.test.root").expect("root");
        assert_eq!(root.1, 3, "self = leaf samples only");
        assert_eq!(root.2, 10, "total = on-path samples");
        let (busy, idle, _, _) = sample_counts();
        assert_eq!((busy, idle), (10, 2));
        assert!(top_json().contains("\"stage\": \"sampler.test.leaf\""));
        assert!(top_table().contains("sampler.test.root"));
        reset_aggregates();
    }

    #[test]
    fn start_stop_samples_a_live_span() {
        let _g = crate::testutil::serial();
        assert!(start(200), "sampler starts");
        assert!(!start(200), "second start refused");
        assert!(is_running());
        {
            let _s = crate::stage("sampler.test.busy");
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(120) {
                std::hint::black_box(0u64);
            }
        }
        stop();
        assert!(!is_running());
        assert!(!crate::prof::is_enabled(), "stop turns profiling off");
        let (busy, _, _, ticks) = sample_counts();
        assert!(ticks > 0, "sampler ticked");
        assert!(busy > 0, "busy-loop span was sampled");
        assert!(folded().contains("sampler.test.busy"));
    }
}

//! The three metric kinds: counters, gauges, and log-bucketed
//! histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zero the counter in place. Handles already held keep recording
    /// into this same instance (see `Registry::reset`).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zero the gauge in place. Handles already held keep recording
    /// into this same instance (see `Registry::reset`).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Log-linear bucketing: values below `2^SUB_BITS` get exact buckets;
/// above that, each power-of-two octave is split into `2^SUB_BITS`
/// sub-buckets, bounding the relative quantile error at
/// `2^-SUB_BITS` (12.5%). This is the same scheme HDR-style histograms
/// use, sized here at 496 buckets (≈ 4 KiB) covering all of `u64`.
const SUB_BITS: u32 = 3;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize) * (SUB_BUCKETS as usize) + SUB_BUCKETS as usize;

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let top = 63 - v.leading_zeros();
        let sub = (v >> (top - SUB_BITS)) & (SUB_BUCKETS - 1);
        ((top - SUB_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize
    }
}

/// Smallest value mapping into bucket `i` (inverse of [`bucket_index`]).
fn bucket_floor(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        i
    } else {
        let top = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
        let sub = i & (SUB_BUCKETS - 1);
        (1u64 << top) | (sub << (top - SUB_BITS))
    }
}

/// Largest value mapping into bucket `i`.
fn bucket_ceil(i: usize) -> u64 {
    if i + 1 < NUM_BUCKETS {
        bucket_floor(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// A fixed-memory log-bucketed histogram of `u64` values. Span timers
/// record nanoseconds; any other unit works as long as the name says so.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), linearly interpolated inside
    /// the log bucket holding the rank-`ceil(q·count)` value: the
    /// bucket's occupants are assumed evenly spread over
    /// `[bucket_floor, bucket_ceil]`, so the estimate moves smoothly
    /// from the lower edge to the upper edge as the rank crosses the
    /// bucket (instead of jumping to the upper edge the moment the
    /// bucket is entered). The result always stays inside the bucket
    /// and never exceeds the recorded maximum, so the worst-case
    /// relative error keeps the bucket-width bound (≤ 12.5%); on
    /// distributions that actually fill their buckets the estimate is
    /// near-exact. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            cum += n;
            if cum >= rank {
                let floor = bucket_floor(i);
                // The global max tightens the top bucket's upper edge:
                // no occupant of this bucket can exceed it. (The max
                // register is updated after the bucket in `record`, so
                // under a concurrent record it may still lag below this
                // bucket — keep the edge at least at the floor.)
                let ceil = bucket_ceil(i).min(self.max()).max(floor);
                let rank_in_bucket = rank - (cum - n); // 1 ..= n
                let width = ceil.saturating_sub(floor) as f64;
                let est = floor as f64 + width * rank_in_bucket as f64 / n as f64;
                return (est.round() as u64).clamp(floor, ceil);
            }
        }
        self.max()
    }

    /// Zero the histogram in place. Not atomic with respect to
    /// concurrent `record` calls (a racing record may partially
    /// survive), which is fine for its use between runs. Handles
    /// already held keep recording into this same instance (see
    /// `Registry::reset`).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time summary (count, sum, max, p50/p90/p99).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// A frozen summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_semantics() {
        let c = Counter::new();
        c.add(1);
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(10);
        g.add(-25);
        assert_eq!(g.get(), -15);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn bucket_round_trip_brackets_every_value() {
        let probes: Vec<u64> = (0..2000)
            .chain((0..63).map(|s| 1u64 << s))
            .chain((0..63).map(|s| (1u64 << s) + 1))
            .chain((1..63).map(|s| (1u64 << s) - 1))
            .chain([u64::MAX, u64::MAX - 1, 123_456_789, 987_654_321_012])
            .collect();
        for v in probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            assert!(bucket_floor(i) <= v, "floor({i})={} > {v}", bucket_floor(i));
            assert!(v <= bucket_ceil(i), "ceil({i})={} < {v}", bucket_ceil(i));
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index regressed at {v}");
            prev = i;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 13);
        assert_eq!(h.max(), 7);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // 12.5% relative error bound, one-sided (upper bucket bound).
        assert!((450..=570).contains(&s.p50), "p50={}", s.p50);
        assert!((850..=1000).contains(&s.p90), "p90={}", s.p90);
        assert!((950..=1000).contains(&s.p99), "p99={}", s.p99);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn interpolated_quantiles_pin_known_distributions() {
        // Uniform 1..=1000: every bucket it touches is fully occupied,
        // so interpolation recovers the true order statistics almost
        // exactly — far inside the 12.5% bucket-width bound.
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!((495..=505).contains(&h.quantile(0.50)), "p50={}", h.quantile(0.50));
        assert!((895..=905).contains(&h.quantile(0.90)), "p90={}", h.quantile(0.90));
        assert!((985..=995).contains(&h.quantile(0.99)), "p99={}", h.quantile(0.99));
        assert_eq!(h.quantile(1.0), 1000);

        // Constant distribution: estimates stay inside the constant's
        // bucket, and the top quantile hits the constant exactly (the
        // recorded max tightens the bucket's upper edge).
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(777);
        }
        let (floor, ceil) = (768, 777); // 777's bucket, max-tightened
        for q in [0.5, 0.9, 0.99] {
            let v = h.quantile(q);
            assert!((floor..=ceil).contains(&v), "q={q}: {v} outside bucket");
        }
        assert_eq!(h.quantile(1.0), 777);

        // Bimodal 10%/90%: p50 and p90 sit in the heavy mode near
        // 1000, p0.05 in the light mode near 10.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(10);
        }
        for _ in 0..900 {
            h.record(1000);
        }
        assert_eq!(h.quantile(0.05), 10, "light mode is exact (sub-octave bucket)");
        let p50 = h.quantile(0.50);
        assert!((960..=1000).contains(&p50), "p50 lands in the heavy mode's bucket: {p50}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_interpolation_is_monotone_in_q() {
        let h = Histogram::new();
        // A skewed distribution spanning several octaves.
        for v in 1..=200u64 {
            h.record(v * v);
        }
        let mut prev = 0u64;
        for step in 0..=100u64 {
            let q = step as f64 / 100.0;
            let v = h.quantile(q);
            assert!(v >= prev, "quantile regressed at q={q}: {v} < {prev}");
            prev = v;
        }
        assert_eq!(prev, 200 * 200);
    }

    #[test]
    fn quantile_clamps_to_max() {
        let h = Histogram::new();
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.p50, 1_000_000);
        assert_eq!(s.p99, 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot { count: 0, sum: 0, max: 0, p50: 0, p90: 0, p99: 0 });
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                        c.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 80_000);
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.max(), 7 * 10_000 + 9_999);
    }
}

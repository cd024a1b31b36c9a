//! Deterministic hashing utilities.
//!
//! The world model derives every static fact from `(seed, key)` pairs via
//! a strong 64-bit mixer, so facts are reproducible, order-independent,
//! and need no storage. The simulator also uses these for per-event
//! randomness: a decision about event `e` depends only on the seed and
//! `e`'s identity, never on how many events preceded it — which keeps
//! simulations stable under re-sharding and makes failures replayable.

/// The workspace's one SplitMix64 step (add the increment, finalize),
/// under the name the world model and the activity generators use.
pub use bs_par::splitmix64 as mix64;

/// Combine a seed with up to three keys into one well-mixed word.
#[inline]
pub fn hash3(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    // Feed each word through the mixer with distinct round constants so
    // that (a, b) and (b, a) land far apart.
    let mut h = mix64(seed ^ 0x243F_6A88_85A3_08D3);
    h = mix64(h ^ a.wrapping_mul(0x1319_8A2E_0370_7344));
    h = mix64(h ^ b.wrapping_mul(0xA409_3822_299F_31D0));
    h = mix64(h ^ c.wrapping_mul(0x082E_FA98_EC4E_6C89));
    h
}

/// Two-key convenience wrapper over [`hash3`].
#[inline]
pub fn hash2(seed: u64, a: u64, b: u64) -> u64 {
    hash3(seed, a, b, 0x4528_21E6_38D0_1377)
}

/// One-key convenience wrapper over [`hash3`].
#[inline]
pub fn hash1(seed: u64, a: u64) -> u64 {
    hash2(seed, a, 0xBE54_66CF_34E9_0C6C)
}

/// Map a hash to a uniform float in `[0, 1)` using the top 53 bits.
#[inline]
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic Bernoulli trial: true with probability `p`.
#[inline]
pub fn bernoulli(h: u64, p: f64) -> bool {
    unit_f64(h) < p
}

/// Map a hash to `0..n` without modulo bias (Lemire's multiply-shift).
#[inline]
pub fn bounded(h: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((h as u128 * n as u128) >> 64) as u64
}

/// Pick an index from a weight table proportionally to the weights.
///
/// Weights must be non-negative and not all zero.
pub fn weighted_pick(h: u64, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weights must not all be zero");
    let mut x = unit_f64(h) * total;
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// Sample a log-normal value with the given parameters of the underlying
/// normal (a Box–Muller pair built from two derived hashes).
pub fn log_normal(h: u64, mu: f64, sigma: f64) -> f64 {
    let u1 = unit_f64(mix64(h ^ 0x5555_5555_5555_5555)).max(f64::MIN_POSITIVE);
    let u2 = unit_f64(mix64(h ^ 0xAAAA_AAAA_AAAA_AAAA));
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

/// Sample from a bounded Pareto distribution on `[lo, hi]` with shape
/// `alpha`. Heavy-tailed footprints (paper Fig. 9) come from here.
pub fn bounded_pareto(h: u64, alpha: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
    let u = unit_f64(h).clamp(0.0, 1.0 - 1e-12);
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    (-(u * (ha - la) - ha) / (ha * la)).powf(-1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_injective_on_small_inputs() {
        use std::collections::HashSet;
        let outs: HashSet<u64> = (0u64..10_000).map(mix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn hash_argument_order_matters() {
        assert_ne!(hash2(1, 2, 3), hash2(1, 3, 2));
        assert_ne!(hash3(1, 2, 3, 4), hash3(1, 4, 3, 2));
        assert_ne!(hash1(1, 2), hash1(2, 1));
    }

    #[test]
    fn unit_f64_in_range_and_spread() {
        let mut lo = 0;
        let mut hi = 0;
        for i in 0..10_000u64 {
            let x = unit_f64(mix64(i));
            assert!((0.0..1.0).contains(&x));
            if x < 0.5 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        // Roughly balanced halves.
        assert!((lo as i64 - hi as i64).abs() < 500, "lo={lo} hi={hi}");
    }

    #[test]
    fn bernoulli_matches_probability() {
        let p = 0.137;
        let hits = (0..100_000u64).filter(|&i| bernoulli(hash1(9, i), p)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - p).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn bounded_is_uniform_enough() {
        let n = 7u64;
        let mut counts = [0u32; 7];
        for i in 0..70_000u64 {
            counts[bounded(mix64(i), n) as usize] += 1;
        }
        for c in counts {
            assert!((c as i64 - 10_000).abs() < 600, "counts={counts:?}");
        }
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let w = [1.0, 3.0, 6.0];
        let mut counts = [0u32; 3];
        for i in 0..100_000u64 {
            counts[weighted_pick(mix64(i), &w)] += 1;
        }
        assert!((counts[0] as f64 / 100_000.0 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / 100_000.0 - 0.3).abs() < 0.01);
        assert!((counts[2] as f64 / 100_000.0 - 0.6).abs() < 0.01);
    }

    #[test]
    fn bounded_pareto_stays_in_bounds_and_skews_low() {
        let mut below_double_lo = 0;
        for i in 0..10_000u64 {
            let x = bounded_pareto(mix64(i), 1.2, 20.0, 10_000.0);
            assert!((20.0..=10_000.0).contains(&x), "x={x}");
            if x < 40.0 {
                below_double_lo += 1;
            }
        }
        // A heavy-tailed sample concentrates near the lower bound.
        assert!(below_double_lo > 5_000, "below={below_double_lo}");
    }

    #[test]
    fn log_normal_is_positive() {
        for i in 0..1_000u64 {
            assert!(log_normal(mix64(i), 0.0, 1.5) > 0.0);
        }
    }
}

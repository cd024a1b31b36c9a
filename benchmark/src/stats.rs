//! Order statistics for pass timings.

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks; `NaN` on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The share of passes at least as fast as a reported speed. Every
/// pass replays the same inputs through the same code, so passes differ
/// only by what the host did to them, and on a shared host that only
/// ever slows a one-thread pass: the fastest decile (the undisturbed
/// passes) repeats from run to run more closely than the median does,
/// and its worst cases stay under the largest spread the driver
/// accepts where the median's do not (benchmark/README.md, Baseline).
/// Medians are printed beside every value reported this way.
const FASTEST: f64 = 0.1;

/// The rate of the undisturbed passes: the upper decile of pass rates.
pub fn undisturbed_rate(rates: &[f64]) -> f64 {
    quantile(rates, 1.0 - FASTEST)
}

/// The duration of the undisturbed passes: the lower decile of pass times.
pub fn undisturbed_time(times: &[f64]) -> f64 {
    quantile(times, FASTEST)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_of_known_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(median(&[]).is_nan());
        let rates: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(undisturbed_rate(&rates), 10.0);
        assert_eq!(undisturbed_time(&rates), 2.0);
    }
}

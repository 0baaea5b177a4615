//! Bootstrap confidence intervals for series statistics.
//!
//! The paper reports point averages ("the average values of Shannon
//! entropy measured with one-day sliding windows are about 3.810"). A
//! percentile bootstrap puts honest uncertainty bands on such numbers —
//! useful both for comparing our reproduction against the paper's values
//! and for deciding whether two chains' means genuinely differ.
//!
//! Resampling is deterministic per seed ([`splitmix64`], no external
//! dependency), so reported intervals are reproducible artifacts.

use blockdec_chain::hash::splitmix64;
use serde::{Deserialize, Serialize};

/// A percentile-bootstrap confidence interval for a mean.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BootstrapCi {
    /// The sample mean itself.
    pub mean: f64,
    /// Lower bound of the interval.
    pub lo: f64,
    /// Upper bound of the interval.
    pub hi: f64,
    /// Confidence level used (e.g. 0.95).
    pub confidence: f64,
    /// Number of bootstrap resamples.
    pub resamples: usize,
}

impl BootstrapCi {
    /// True when a point value lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (self.lo..=self.hi).contains(&value)
    }
}

/// Percentile bootstrap CI for the mean of `values`.
///
/// Returns `None` for an empty input, `confidence` outside (0, 1), or
/// `resamples == 0`. With a single value the interval collapses to it.
pub fn bootstrap_mean_ci(
    values: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> Option<BootstrapCi> {
    if values.is_empty() || resamples == 0 || !(0.0..1.0).contains(&confidence) || confidence <= 0.0
    {
        return None;
    }
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let mut state = seed ^ 0xb007_57a9;
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut sum = 0.0;
        for _ in 0..n {
            let idx = (splitmix64(state) % n as u64) as usize;
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            sum += values[idx];
        }
        means.push(sum / n as f64);
    }
    means.sort_by(f64::total_cmp);
    let alpha = (1.0 - confidence) / 2.0;
    let pick = |q: f64| {
        let pos = (q * (resamples - 1) as f64).round() as usize;
        means[pos.min(resamples - 1)]
    };
    Some(BootstrapCi {
        mean,
        lo: pick(alpha),
        hi: pick(1.0 - alpha),
        confidence,
        resamples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiggly(n: usize, base: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| base + amp * ((i % 7) as f64 - 3.0))
            .collect()
    }

    #[test]
    fn interval_brackets_the_mean() {
        let values = wiggly(200, 3.8, 0.1);
        let ci = bootstrap_mean_ci(&values, 0.95, 2_000, 42).unwrap();
        assert!(ci.lo <= ci.mean && ci.mean <= ci.hi);
        assert!(ci.contains(ci.mean));
        // Tight data → tight interval.
        assert!(ci.hi - ci.lo < 0.1, "{ci:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let values = wiggly(50, 1.0, 0.5);
        let a = bootstrap_mean_ci(&values, 0.9, 500, 7).unwrap();
        let b = bootstrap_mean_ci(&values, 0.9, 500, 7).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_mean_ci(&values, 0.9, 500, 8).unwrap();
        assert!(a.lo != c.lo || a.hi != c.hi);
    }

    #[test]
    fn wider_confidence_wider_interval() {
        let values = wiggly(100, 0.0, 1.0);
        let c90 = bootstrap_mean_ci(&values, 0.90, 2_000, 1).unwrap();
        let c99 = bootstrap_mean_ci(&values, 0.99, 2_000, 1).unwrap();
        assert!(c99.hi - c99.lo >= c90.hi - c90.lo);
    }

    #[test]
    fn single_value_collapses() {
        let ci = bootstrap_mean_ci(&[5.0], 0.95, 100, 1).unwrap();
        assert_eq!((ci.lo, ci.mean, ci.hi), (5.0, 5.0, 5.0));
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(bootstrap_mean_ci(&[], 0.95, 100, 1).is_none());
        assert!(bootstrap_mean_ci(&[1.0], 0.0, 100, 1).is_none());
        assert!(bootstrap_mean_ci(&[1.0], 1.0, 100, 1).is_none());
        assert!(bootstrap_mean_ci(&[1.0], 0.95, 0, 1).is_none());
    }

    #[test]
    fn coverage_is_roughly_nominal() {
        // Resample many synthetic datasets from a known population and
        // count how often the CI covers the true mean. Deterministic
        // generation; the bound is loose (bootstrap is approximate).
        let mut state = 99u64;
        let mut covered = 0;
        let trials = 60;
        for t in 0..trials {
            let data: Vec<f64> = (0..80)
                .map(|_| {
                    // Uniform(0,1) via splitmix.
                    let z = splitmix64(state);
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    (z >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect();
            let ci = bootstrap_mean_ci(&data, 0.95, 800, t).unwrap();
            if ci.contains(0.5) {
                covered += 1;
            }
        }
        assert!(
            covered >= trials * 8 / 10,
            "coverage {covered}/{trials} too low"
        );
    }
}

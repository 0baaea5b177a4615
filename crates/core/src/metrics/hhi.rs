//! Herfindahl–Hirschman index (extension metric).
//!
//! `HHI = Σ_i p_i²` over producer shares — the standard market-
//! concentration measure. Ranges from `1/n` (n equal producers) to 1
//! (monopoly). Lower is more decentralized. Related follow-up work on
//! blockchain decentralization reports it alongside the paper's three
//! metrics.

use super::{debug_check_sorted, sorted_positive};

/// Herfindahl–Hirschman index of the normalized weights. Empty input
/// yields 0.0.
pub fn hhi(weights: &[f64]) -> f64 {
    hhi_sorted(&sorted_positive(weights))
}

/// [`hhi`] kernel over a slice already in sorted-scratch-contract form
/// (finite, strictly positive, ascending by `total_cmp`).
pub fn hhi_sorted(sorted: &[f64]) -> f64 {
    debug_check_sorted(sorted);
    if sorted.is_empty() {
        return 0.0;
    }
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let sum_sq: f64 = sorted.iter().map(|&x| x * x).sum();
    (sum_sq / (total * total)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn monopoly_is_one() {
        assert_close(hhi(&[5.0]), 1.0);
    }

    #[test]
    fn uniform_is_one_over_n() {
        assert_close(hhi(&[2.0; 4]), 0.25);
        assert_close(hhi(&[1.0; 10]), 0.1);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(hhi(&[]), 0.0);
        assert_eq!(hhi(&[0.0]), 0.0);
    }

    #[test]
    fn known_case() {
        // Shares (0.5, 0.3, 0.2): HHI = 0.25 + 0.09 + 0.04 = 0.38.
        assert_close(hhi(&[5.0, 3.0, 2.0]), 0.38);
    }

    #[test]
    fn scale_invariant() {
        let w = [1.0, 2.0, 3.0];
        let scaled: Vec<f64> = w.iter().map(|x| x * 3.7).collect();
        assert_close(hhi(&w), hhi(&scaled));
    }

    #[test]
    fn concentration_raises_hhi() {
        assert!(hhi(&[97.0, 1.0, 1.0, 1.0]) > hhi(&[25.0; 4]));
    }
}

//! Top-k producer share (extension metric).
//!
//! The fraction of all blocks in a window produced by the `k` largest
//! producers — the quantity behind the paper's Fig. 7 pie charts and the
//! most direct "who controls the chain" number.

use super::{debug_check_sorted, sorted_positive};

/// Combined share of the `k` heaviest producers, in 0..=1. Returns 0.0
/// for an empty distribution or `k == 0`; returns 1.0 when `k` covers all
/// producers.
pub fn top_k_share(weights: &[f64], k: usize) -> f64 {
    top_k_share_sorted(&sorted_positive(weights), k)
}

/// [`top_k_share`] kernel over a slice already in sorted-scratch-contract
/// form (ascending): the `k` heaviest producers are the slice's tail.
pub fn top_k_share_sorted(sorted: &[f64], k: usize) -> f64 {
    debug_check_sorted(sorted);
    if k == 0 || sorted.is_empty() {
        return 0.0;
    }
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    if k >= sorted.len() {
        return 1.0;
    }
    // Largest-first summation, matching the historical descending walk.
    let top: f64 = sorted[sorted.len() - k..].iter().rev().sum();
    (top / total).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn basic_shares() {
        let w = [50.0, 30.0, 15.0, 5.0];
        assert_close(top_k_share(&w, 1), 0.5);
        assert_close(top_k_share(&w, 2), 0.8);
        assert_close(top_k_share(&w, 4), 1.0);
        assert_close(top_k_share(&w, 10), 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(top_k_share(&[], 3), 0.0);
        assert_eq!(top_k_share(&[1.0, 2.0], 0), 0.0);
        assert_eq!(top_k_share(&[0.0, 0.0], 1), 0.0);
    }

    #[test]
    fn order_does_not_matter() {
        assert_close(
            top_k_share(&[5.0, 30.0, 50.0, 15.0], 2),
            top_k_share(&[50.0, 30.0, 15.0, 5.0], 2),
        );
    }

    #[test]
    fn monotone_in_k() {
        let w = [9.0, 7.0, 5.0, 3.0, 1.0];
        let mut prev = 0.0;
        for k in 1..=5 {
            let s = top_k_share(&w, k);
            assert!(s >= prev);
            prev = s;
        }
        assert_close(prev, 1.0);
    }

    #[test]
    fn ties_do_not_break_selection() {
        let w = [2.0, 2.0, 2.0, 2.0];
        assert_close(top_k_share(&w, 2), 0.5);
    }
}

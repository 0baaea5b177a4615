//! Property-based tests for metric and window invariants.

use blockdec_chain::{AttributedBlock, Credit, ProducerId, Timestamp};
use blockdec_core::metrics::gini::gini_pairwise_reference;
use blockdec_core::metrics::{
    gini, hhi, nakamoto, nakamoto_with_threshold, nakamoto_with_threshold_sorted,
    normalized_shannon_entropy, shannon_entropy, theil, top_k_share, NAKAMOTO_THRESHOLD,
    SELFISH_MINING_THRESHOLD,
};
use blockdec_core::windows::sliding::SlidingWindowSpec;
use blockdec_core::ProducerDistribution;
use proptest::prelude::*;

/// Positive weight vectors with 2..=60 entries in (0, 1000].
fn weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..1000.0, 2..60)
}

proptest! {
    #[test]
    fn gini_in_unit_interval(w in weights()) {
        let g = gini(&w);
        prop_assert!((0.0..=1.0).contains(&g));
    }

    #[test]
    fn gini_matches_pairwise_reference(w in weights()) {
        let fast = gini(&w);
        let slow = gini_pairwise_reference(&w);
        prop_assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
    }

    #[test]
    fn gini_scale_invariant(w in weights(), scale in 0.01f64..10000.0) {
        let scaled: Vec<f64> = w.iter().map(|x| x * scale).collect();
        prop_assert!((gini(&w) - gini(&scaled)).abs() < 1e-9);
    }

    #[test]
    fn gini_permutation_invariant(mut w in weights(), seed in 0u64..1000) {
        let original = gini(&w);
        // Deterministic shuffle driven by the seed.
        let n = w.len();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            w.swap(i, j);
        }
        prop_assert!((gini(&w) - original).abs() < 1e-9);
    }

    #[test]
    fn entropy_bounded_by_log2_n(w in weights()) {
        let e = shannon_entropy(&w);
        prop_assert!(e >= 0.0);
        prop_assert!(e <= (w.len() as f64).log2() + 1e-9);
    }

    #[test]
    fn normalized_entropy_in_unit_interval(w in weights()) {
        let e = normalized_shannon_entropy(&w);
        prop_assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn entropy_scale_invariant(w in weights(), scale in 0.01f64..10000.0) {
        let scaled: Vec<f64> = w.iter().map(|x| x * scale).collect();
        prop_assert!((shannon_entropy(&w) - shannon_entropy(&scaled)).abs() < 1e-8);
    }

    #[test]
    fn nakamoto_in_range(w in weights()) {
        let n = nakamoto(&w);
        prop_assert!(n >= 1);
        prop_assert!(n <= w.len());
    }

    #[test]
    fn nakamoto_monotone_in_threshold(w in weights(), t1 in 0.1f64..0.9, t2 in 0.1f64..0.9) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(nakamoto_with_threshold(&w, lo) <= nakamoto_with_threshold(&w, hi));
    }

    /// EXT3's claim: the 33% selfish-mining bound never needs more
    /// colluders than the 51% one.
    #[test]
    fn selfish_bound_never_needs_more_colluders(mut w in weights()) {
        w.sort_by(f64::total_cmp);
        prop_assert!(
            nakamoto_with_threshold_sorted(&w, SELFISH_MINING_THRESHOLD)
                <= nakamoto_with_threshold_sorted(&w, NAKAMOTO_THRESHOLD)
        );
    }

    #[test]
    fn nakamoto_never_exceeds_majority_of_equal_split(n in 2usize..200) {
        // n equal producers: exactly ceil(0.51 n) are needed.
        let w = vec![1.0; n];
        let expected = (0.51 * n as f64).ceil() as usize;
        let got = nakamoto(&w);
        prop_assert!(got == expected || got == expected.saturating_sub(0),
            "n={n}: got {got}, expected {expected}");
    }

    #[test]
    fn hhi_bounds(w in weights()) {
        let h = hhi(&w);
        prop_assert!(h >= 1.0 / w.len() as f64 - 1e-9);
        prop_assert!(h <= 1.0);
    }

    #[test]
    fn theil_bounds(w in weights()) {
        let t = theil(&w);
        prop_assert!(t >= 0.0);
        prop_assert!(t <= (w.len() as f64).ln() + 1e-9);
    }

    #[test]
    fn topk_monotone_and_bounded(w in weights(), k in 1usize..10) {
        let s_k = top_k_share(&w, k);
        let s_k1 = top_k_share(&w, k + 1);
        prop_assert!((0.0..=1.0).contains(&s_k));
        prop_assert!(s_k1 + 1e-12 >= s_k);
    }

    #[test]
    fn gini_and_hhi_agree_on_direction(w in weights()) {
        // Transferring weight from the poorest to the richest producer
        // must not decrease either concentration measure.
        let mut w2 = w.clone();
        let (mut rich, mut poor) = (0usize, 0usize);
        for (i, &x) in w2.iter().enumerate() {
            if x > w2[rich] { rich = i; }
            if x < w2[poor] { poor = i; }
        }
        prop_assume!(rich != poor);
        let delta = w2[poor] * 0.5;
        w2[poor] -= delta;
        w2[rich] += delta;
        prop_assert!(gini(&w2) + 1e-9 >= gini(&w));
        prop_assert!(hhi(&w2) + 1e-9 >= hhi(&w));
    }

    #[test]
    fn eq5_window_count_is_exact(s in 0usize..5000, n in 1usize..500, m in 1usize..500) {
        let spec = SlidingWindowSpec::new(n, m);
        // Count by brute force.
        let mut brute = 0usize;
        let mut start = 0usize;
        while start + n <= s {
            brute += 1;
            start += m;
        }
        prop_assert_eq!(spec.window_count(s), brute);
        prop_assert_eq!(spec.iter(s).count(), brute);
    }

    #[test]
    fn sliding_windows_cover_expected_ranges(s in 1usize..2000, n in 1usize..100, m in 1usize..100) {
        let spec = SlidingWindowSpec::new(n, m);
        for (i, r) in spec.iter(s).enumerate() {
            prop_assert_eq!(r.start, i * m);
            prop_assert_eq!(r.end - r.start, n);
            prop_assert!(r.end <= s);
        }
    }

    #[test]
    fn distribution_add_remove_roundtrip(pairs in prop::collection::vec((0u32..20, 0.01f64..10.0), 1..50)) {
        let mut d = ProducerDistribution::new();
        for &(p, w) in &pairs {
            d.add(ProducerId(p), w);
        }
        let total_before = d.total_weight();
        let expected: f64 = pairs.iter().map(|&(_, w)| w).sum();
        prop_assert!((total_before - expected).abs() < 1e-6);
        for &(p, w) in &pairs {
            d.remove(ProducerId(p), w);
        }
        prop_assert!(d.is_empty() || d.total_weight().abs() < 1e-6);
    }
}

// Sliding-window engine ≡ independent batch computation per window,
// under multi-credit blocks and arbitrary producer patterns.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sliding_engine_matches_batch(
        pattern in prop::collection::vec(0u32..12, 1..20),
        total in 30usize..300,
        size in 2usize..40,
        step_ratio in 1usize..4,
    ) {
        use blockdec_core::engine::MeasurementEngine;
        use blockdec_core::metrics::MetricKind;

        let step = (size / step_ratio).max(1);
        let origin = Timestamp::year_2019_start().secs();
        let blocks: Vec<AttributedBlock> = (0..total)
            .map(|i| AttributedBlock {
                height: i as u64,
                timestamp: Timestamp(origin + i as i64 * 600),
                credits: vec![Credit {
                    producer: ProducerId(pattern[i % pattern.len()]),
                    weight: 1.0,
                }],
            })
            .collect();

        for metric in [MetricKind::Gini, MetricKind::ShannonEntropy, MetricKind::Nakamoto] {
            let series = MeasurementEngine::new(metric).sliding(size, step).run(&blocks);
            let spec = SlidingWindowSpec::new(size, step);
            prop_assert_eq!(series.points.len(), spec.window_count(total));
            for (i, range) in spec.iter(total).enumerate() {
                let d = ProducerDistribution::from_blocks(&blocks[range]);
                let expected = metric.compute(&d.weight_vector());
                prop_assert!(
                    (series.points[i].value - expected).abs() < 1e-9,
                    "metric {metric} window {i}"
                );
            }
        }
    }
}

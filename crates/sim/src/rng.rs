//! Deterministic randomness and the distributions the simulator needs.
//!
//! Everything derives from a single seeded xoshiro256++ generator,
//! implemented inline so the simulator has no external RNG dependency;
//! the distributions (exponential, standard normal, Pareto weights) are
//! implemented by inversion / Box–Muller.

use blockdec_chain::hash::splitmix64;

/// Simulator RNG: a seeded xoshiro256++ core plus distribution helpers.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Seeded construction; the same seed yields the same stream. The
    /// xoshiro state is the first four values of the splitmix64 stream
    /// from `seed`.
    pub fn new(seed: u64) -> SimRng {
        let step = |k: u64| splitmix64(seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        SimRng {
            state: [step(0), step(1), step(2), step(3)],
        }
    }

    /// Next raw 64-bit draw (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n = [s0, s1, s2, s3];
        n[2] ^= n[0];
        n[3] ^= n[1];
        n[1] ^= n[2];
        n[0] ^= n[3];
        n[2] ^= t;
        n[3] = n[3].rotate_left(45);
        self.state = n;
        result
    }

    /// Derive an independent child RNG for a named sub-stream, so adding
    /// draws in one component does not perturb another.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base: u64 = self.next_u64();
        SimRng::new(base ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Widening-multiply range reduction (Lemire); bias is < 2^-64
        // and irrelevant for simulation, so no rejection loop.
        (((u128::from(self.next_u64())) * u128::from(n)) >> 64) as u64
    }

    /// Exponential with the given mean (inversion method).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - unit() is in (0, 1], so ln is finite.
        -mean * (1.0 - self.unit()).ln()
    }

    /// Standard normal via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Sample an index from cumulative weights (ascending, last = total).
    /// Returns `cum.len() - 1` on boundary rounding.
    pub fn pick_cumulative(&mut self, cum: &[f64]) -> usize {
        assert!(!cum.is_empty(), "empty cumulative weights");
        let total = cum[cum.len() - 1];
        debug_assert!(total > 0.0, "zero total weight");
        let x = self.unit() * total;
        match cum.binary_search_by(|c| c.total_cmp(&x)) {
            Ok(i) => (i + 1).min(cum.len() - 1),
            Err(i) => i.min(cum.len() - 1),
        }
    }
}

/// Pareto-shaped rank weights: `w_i ∝ (i + 1)^(-alpha)` for `i` in `0..n`.
/// Used for the solo-miner long tail — a few persistent small miners, many
/// one-off ones.
pub fn pareto_rank_weights(n: usize, alpha: f64) -> Vec<f64> {
    (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect()
}

/// Turn weights into a cumulative vector for [`SimRng::pick_cumulative`].
pub fn cumulative(weights: &[f64]) -> Vec<f64> {
    let mut cum = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for &w in weights {
        debug_assert!(w >= 0.0 && w.is_finite());
        acc += w;
        cum.push(acc);
    }
    cum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
        let mut c = SimRng::new(43);
        assert_ne!(a.unit().to_bits(), c.unit().to_bits());
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut root1 = SimRng::new(7);
        let mut root2 = SimRng::new(7);
        let mut f1 = root1.fork(1);
        let mut f2 = root2.fork(1);
        assert_eq!(f1.unit().to_bits(), f2.unit().to_bits());
        let mut g1 = root1.fork(2);
        assert_ne!(f1.unit().to_bits(), g1.unit().to_bits());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(1);
        let n = 50_000;
        let mean = 600.0;
        let total: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - mean).abs() < mean * 0.02,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn exponential_is_positive() {
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            assert!(rng.exponential(10.0) > 0.0);
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn pick_cumulative_respects_weights() {
        let mut rng = SimRng::new(4);
        let cum = cumulative(&[1.0, 3.0, 6.0]); // shares 10% / 30% / 60%
        let mut counts = [0u32; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.pick_cumulative(&cum)] += 1;
        }
        let share = |i: usize| counts[i] as f64 / n as f64;
        assert!((share(0) - 0.1).abs() < 0.01);
        assert!((share(1) - 0.3).abs() < 0.01);
        assert!((share(2) - 0.6).abs() < 0.01);
    }

    #[test]
    fn pick_cumulative_single_bucket() {
        let mut rng = SimRng::new(5);
        let cum = cumulative(&[2.5]);
        for _ in 0..100 {
            assert_eq!(rng.pick_cumulative(&cum), 0);
        }
    }

    #[test]
    fn pareto_weights_decay() {
        let w = pareto_rank_weights(100, 0.8);
        assert_eq!(w.len(), 100);
        assert!(w.windows(2).all(|p| p[0] > p[1]));
        assert!((w[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_is_monotone() {
        let c = cumulative(&[0.5, 0.0, 2.0]);
        assert_eq!(c, vec![0.5, 0.5, 2.5]);
    }

    #[test]
    fn below_bounds() {
        let mut rng = SimRng::new(6);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(8);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.1)));
    }
}

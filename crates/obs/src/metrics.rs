//! In-process metrics: named counters and histograms.
//!
//! There is no external backend — a process-wide registry maps dotted
//! names (`store.backend.hit`, `stage.measure`) to atomics, and the run
//! summary reads them at exit. [`counter`]/[`histogram`] intern the name
//! on first use and return a shared handle; hot paths should look the
//! handle up once and reuse it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite the value. For gauge-style readings (configured
    /// capacity, resident bytes) where the latest observation, not a
    /// running total, is what the summary should show.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// Number of log2 buckets. Bucket `i` covers seconds in
/// `[2^(i-32), 2^(i-31))`, spanning ~0.2ns to ~4.2e9s.
const BUCKETS: usize = 64;

#[derive(Debug)]
struct HistInner {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
}

/// Histogram of non-negative observations (by convention, seconds).
///
/// Exact count/sum/min/max plus log2 buckets for approximate quantiles —
/// enough for "p95 segment read" without storing every sample.
#[derive(Debug)]
pub struct Histogram {
    inner: Mutex<HistInner>,
}

fn bucket_index(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    (v.log2().floor() as i64 + 32).clamp(0, BUCKETS as i64 - 1) as usize
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            inner: Mutex::new(HistInner {
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                buckets: [0; BUCKETS],
            }),
        }
    }
}

impl Histogram {
    /// Record one observation. Negative or non-finite values are ignored.
    pub fn record(&self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        let mut h = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        h.count += 1;
        h.sum += v;
        h.min = h.min.min(v);
        h.max = h.max.max(v);
        h.buckets[bucket_index(v)] += 1;
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0.0 } else { h.min },
            max: if h.count == 0 { 0.0 } else { h.max },
            buckets: h.buckets,
        }
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the log2 buckets: the
    /// geometric midpoint of the bucket holding the q-th observation,
    /// clamped to the observed min/max. Accurate to ~2x, which is enough
    /// for latency triage.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = 2f64.powi(i as i32 - 32);
                let mid = lo * std::f64::consts::SQRT_2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

/// Look up (or create) the counter named `name`.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = registry()
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    match map.get(name) {
        Some(c) => Arc::clone(c),
        None => {
            let c = Arc::new(Counter::default());
            map.insert(name.to_string(), Arc::clone(&c));
            c
        }
    }
}

/// Look up (or create) the histogram named `name`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = registry()
        .histograms
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    match map.get(name) {
        Some(h) => Arc::clone(h),
        None => {
            let h = Arc::new(Histogram::default());
            map.insert(name.to_string(), Arc::clone(&h));
            h
        }
    }
}

/// Name → value for every registered counter.
pub fn counter_values() -> BTreeMap<String, u64> {
    registry()
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect()
}

/// Name → snapshot for every registered histogram.
pub fn histogram_snapshots() -> BTreeMap<String, HistogramSnapshot> {
    registry()
        .histograms
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), v.snapshot()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_math() {
        let c = counter("test.metrics.counter_math");
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Same name → same handle.
        assert_eq!(counter("test.metrics.counter_math").get(), 42);
    }

    #[test]
    fn histogram_exact_stats() {
        let h = Histogram::default();
        for v in [0.5, 1.5, 2.0, 4.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum - 8.0).abs() < 1e-12);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 4.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_ignores_junk() {
        let h = Histogram::default();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(h.snapshot().quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let h = Histogram::default();
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.record(0.001);
        }
        for _ in 0..10 {
            h.record(1.0);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        // log2 buckets are accurate to ~2x.
        assert!((0.0005..=0.002).contains(&p50), "p50 {p50}");
        assert!((0.5..=2.0).contains(&p99), "p99 {p99}");
        assert!(s.quantile(0.0) >= s.min);
        assert!(s.quantile(1.0) <= s.max);
    }

    #[test]
    fn bucket_index_monotone_and_clamped() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::MIN_POSITIVE), 0);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
        let mut prev = 0;
        for exp in -30..30 {
            let i = bucket_index(2f64.powi(exp));
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let c = counter("test.metrics.concurrent");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}

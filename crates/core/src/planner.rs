//! The shared-window matrix planner.
//!
//! The paper's headline artifact is a *matrix* — 3 metrics × 3
//! granularities × 2 window families per chain — and every configuration
//! in a column of that matrix re-derives the same intermediate state: the
//! window boundaries, the per-window producer distribution, and the
//! sorted weight vector the metric kernels consume. [`MatrixPlan`]
//! deduplicates all of it:
//!
//! 1. **Group by window spec.** Configurations are grouped by their
//!    [`WindowSpec`] (`Eq + Hash`), and duplicate `(metric, window)`
//!    pairs collapse to one evaluation. Each unique spec is formed once —
//!    the fixed-calendar bucketing, the sliding ranges, and the sort and
//!    gather of input out of evaluation order happen once per *spec*,
//!    not once per *config*.
//! 2. **One sorted scratch buffer per window.** The windowed-evaluation
//!    core sorts each window's weights into a reusable scratch once and
//!    evaluates every requested metric with
//!    [`MetricKind::compute_sorted`], however many metrics read it.
//! 3. **Chunked data parallelism.** Parallelism lives *within* a window
//!    spec, not across configs: window indices are partitioned into
//!    contiguous chunks across `std::thread::scope` workers, each
//!    rebuilding its chunk's leading distribution and then sliding. A
//!    single-config ETH-scale sliding run saturates every core.
//!
//! # Exactness
//!
//! The planner and [`MeasurementEngine::run`] share one evaluation core;
//! they differ only where a chunk starts, which the planner rebuilds and
//! the single-worker engine slides into. For the paper's unit-credit
//! attribution both are exact (small-integer f64 arithmetic), so planner
//! output is bit-identical to per-config engine output. Under
//! *fractional* credit weights a chunk-leading rebuild may differ from a
//! continuous slide by f64 residue on the order of 1e-12 — the
//! distribution's own `ZERO_EPS` guard band — so fractional-attribution
//! comparisons should use an epsilon.

use crate::engine::{MeasurementEngine, WindowSpec};
use crate::metrics::MetricKind;
use crate::series::{MeasurementPoint, MeasurementSeries};
use crate::window::Windows;
use blockdec_chain::{AttributedBlock, BlockColumns, ColumnsSlice};
use std::collections::HashMap;
use std::ops::Range;

/// Below this many windows per worker, extra threads cost more in spawn
/// and leading-rebuild overhead than they recover.
const MIN_CHUNK_WINDOWS: usize = 16;

/// One unique window spec and every metric requested over it, in
/// first-appearance order.
struct SpecGroup {
    window: WindowSpec,
    metrics: Vec<MetricKind>,
}

/// An executable measurement plan: the deduplicated form of a config
/// matrix. Build with [`MatrixPlan::new`], execute with
/// [`MatrixPlan::run`]. [`crate::engine::run_matrix`] is the one-call
/// convenience wrapper.
pub struct MatrixPlan {
    groups: Vec<SpecGroup>,
    /// For each input config: (group index, metric slot in that group).
    slots: Vec<(usize, usize)>,
}

impl MatrixPlan {
    /// Plan a config matrix: group configurations by window spec and
    /// collapse duplicate `(metric, window)` pairs.
    pub fn new(configs: &[MeasurementEngine]) -> MatrixPlan {
        let mut groups: Vec<SpecGroup> = Vec::new();
        let mut by_spec: HashMap<WindowSpec, usize> = HashMap::new();
        let mut slots = Vec::with_capacity(configs.len());
        for cfg in configs {
            let gi = *by_spec.entry(cfg.window()).or_insert_with(|| {
                groups.push(SpecGroup {
                    window: cfg.window(),
                    metrics: Vec::new(),
                });
                groups.len() - 1
            });
            let metrics = &mut groups[gi].metrics;
            let slot = metrics
                .iter()
                .position(|&m| m == cfg.metric())
                .unwrap_or_else(|| {
                    metrics.push(cfg.metric());
                    metrics.len() - 1
                });
            slots.push((gi, slot));
        }
        MatrixPlan { groups, slots }
    }

    /// Number of input configurations the plan covers.
    pub fn configs(&self) -> usize {
        self.slots.len()
    }

    /// Number of unique window specs — the streams actually materialized.
    pub fn window_specs(&self) -> usize {
        self.groups.len()
    }

    /// Configurations that reuse a window stream another configuration
    /// already pays for: `configs() - window_specs()`.
    pub fn dedup_hits(&self) -> usize {
        self.slots.len() - self.groups.len()
    }

    /// Execute the plan over a height-ordered block stream.
    ///
    /// Thin compatibility wrapper: converts to [`BlockColumns`] and
    /// delegates to [`MatrixPlan::run_columns`], the canonical path.
    pub fn run(&self, blocks: &[AttributedBlock]) -> Vec<MeasurementSeries> {
        let cols = BlockColumns::from_blocks(blocks);
        self.run_columns(cols.as_slice())
    }

    /// Execute the plan over a height-ordered columnar block stream.
    /// Results come back in input-configuration order. Each window spec
    /// is evaluated in chunks on up to one worker per available core.
    pub fn run_columns(&self, cols: ColumnsSlice<'_>) -> Vec<MeasurementSeries> {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        self.run_columns_on(cols, cores)
    }

    /// [`MatrixPlan::run_columns`] on at most `workers` workers per window
    /// spec.
    pub(crate) fn run_columns_on(
        &self,
        cols: ColumnsSlice<'_>,
        workers: usize,
    ) -> Vec<MeasurementSeries> {
        let _t = blockdec_obs::span!(
            "stage.measure_matrix",
            configs = self.configs(),
            specs = self.window_specs(),
            blocks = cols.len(),
        );
        blockdec_obs::counter("planner.window_specs").add(self.window_specs() as u64);
        blockdec_obs::counter("planner.dedup_hits").add(self.dedup_hits() as u64);
        let per_group: Vec<Vec<MeasurementSeries>> = self
            .groups
            .iter()
            .map(|g| eval_group(g, cols, workers))
            .collect();
        let mut out = Vec::with_capacity(self.slots.len());
        let mut windows_emitted = 0u64;
        for &(gi, slot) in &self.slots {
            let series = per_group[gi][slot].clone();
            windows_emitted += series.points.len() as u64;
            out.push(series);
        }
        blockdec_obs::counter("engine.windows").add(windows_emitted);
        blockdec_obs::debug!(
            configs = self.configs(), specs = self.window_specs(), windows = windows_emitted;
            "matrix plan complete"
        );
        out
    }
}

/// Form one group's windows once and evaluate every metric of the group
/// over them, in chunks on at most `workers` scoped workers.
fn eval_group(group: &SpecGroup, cols: ColumnsSlice<'_>, workers: usize) -> Vec<MeasurementSeries> {
    let windows = Windows::form(cols, group.window);
    let per_metric = run_chunked(windows.len(), workers, |chunk| {
        windows.evaluate(chunk, &group.metrics)
    });
    // Each window's scratch fill served every metric past the first for free.
    blockdec_obs::counter("planner.scratch_reuse")
        .add((windows.len() * group.metrics.len().saturating_sub(1)) as u64);
    group
        .metrics
        .iter()
        .zip(per_metric)
        .map(|(&metric, points)| MeasurementSeries {
            metric,
            window: group.window.label(),
            points,
        })
        .collect()
}

/// Partition `total` window indices into contiguous chunks across at most
/// `workers` scoped workers; `eval` computes one chunk's points per
/// metric, and the chunks are concatenated in order. Single-chunk totals
/// run inline without spawning.
fn run_chunked<F>(total: usize, workers: usize, eval: F) -> Vec<Vec<MeasurementPoint>>
where
    F: Fn(Range<usize>) -> Vec<Vec<MeasurementPoint>> + Sync,
{
    if total == 0 {
        return eval(0..0);
    }
    let workers = workers.min(total.div_ceil(MIN_CHUNK_WINDOWS)).max(1);
    blockdec_obs::counter("planner.chunks").add(workers as u64);
    if workers == 1 {
        let _t = blockdec_obs::span!("planner.chunk", windows = total);
        return eval(0..total);
    }
    let per = total.div_ceil(workers);
    let bounds: Vec<Range<usize>> = (0..workers)
        .map(|w| (w * per)..((w + 1) * per).min(total))
        .filter(|r| !r.is_empty())
        .collect();
    let eval = &eval;
    let mut chunks: Vec<Vec<Vec<MeasurementPoint>>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .into_iter()
            .map(|r| {
                scope.spawn(move || {
                    let _t = blockdec_obs::span!("planner.chunk", windows = r.len());
                    eval(r)
                })
            })
            .collect();
        chunks = handles
            .into_iter()
            .map(|h| h.join().expect("planner chunk worker panicked")) // blockdec-lint: allow(panic) — join only fails by propagating a worker panic; nothing to recover
            .collect();
    });
    chunks
        .into_iter()
        .reduce(|mut all, part| {
            for (points, more) in all.iter_mut().zip(part) {
                points.extend(more);
            }
            all
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::time::SECS_PER_DAY;
    use blockdec_chain::{Credit, Granularity, ProducerId, Timestamp};

    fn stream(pattern: &[u32], n: usize, spacing: i64) -> Vec<AttributedBlock> {
        let o = Timestamp::year_2019_start().secs();
        (0..n)
            .map(|i| AttributedBlock {
                height: 1000 + i as u64,
                timestamp: Timestamp(o + i as i64 * spacing),
                credits: vec![Credit {
                    producer: ProducerId(pattern[i % pattern.len()]),
                    weight: 1.0,
                }],
            })
            .collect()
    }

    fn paper_fixed_and_sliding_configs() -> Vec<MeasurementEngine> {
        MetricKind::PAPER
            .iter()
            .flat_map(|&m| {
                vec![
                    MeasurementEngine::new(m)
                        .fixed_calendar(Granularity::Day, Timestamp::year_2019_start()),
                    MeasurementEngine::new(m).sliding(24, 12),
                    MeasurementEngine::new(m).sliding_time(SECS_PER_DAY, SECS_PER_DAY / 2),
                ]
            })
            .collect()
    }

    #[test]
    fn plan_dedups_window_specs() {
        let configs = paper_fixed_and_sliding_configs();
        let plan = MatrixPlan::new(&configs);
        assert_eq!(plan.configs(), 9);
        assert_eq!(plan.window_specs(), 3);
        assert_eq!(plan.dedup_hits(), 6);
    }

    #[test]
    fn duplicate_configs_collapse_but_both_answer() {
        let cfg = MeasurementEngine::new(MetricKind::Gini).sliding(10, 5);
        let plan = MatrixPlan::new(&[cfg, cfg]);
        assert_eq!(plan.window_specs(), 1);
        let blocks = stream(&[0, 1, 2], 40, 60);
        let out = plan.run(&blocks);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0], cfg.run(&blocks));
    }

    #[test]
    fn planner_equals_engine_on_small_matrix() {
        let blocks = stream(&[0, 0, 1, 2, 3], 300, 500);
        let configs = paper_fixed_and_sliding_configs();
        let out = MatrixPlan::new(&configs).run(&blocks);
        for (cfg, series) in configs.iter().zip(&out) {
            assert_eq!(series, &cfg.run(&blocks));
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(MatrixPlan::new(&[]).run(&stream(&[0], 5, 60)).is_empty());
        let cfg = MeasurementEngine::new(MetricKind::Gini).sliding(10, 5);
        let out = MatrixPlan::new(&[cfg]).run(&[]);
        assert_eq!(out.len(), 1);
        assert!(out[0].points.is_empty());
    }

    #[test]
    fn columnar_sub_slice_equals_aos_sub_slice() {
        // Multi-credit anomaly blocks plus a zero-credit block, evaluated
        // through a ColumnsSlice whose credit offsets do NOT start at 0 —
        // the planner must handle rebased views identically to a fresh
        // conversion of the same AoS range.
        let mut blocks = stream(&[0, 1, 2, 3], 400, 600);
        for k in 0..30usize {
            let i = 13 * (k + 1) % blocks.len();
            blocks[i].credits = (0..5 + k as u32)
                .map(|j| Credit {
                    producer: ProducerId(100 + j),
                    weight: 1.0,
                })
                .collect();
        }
        blocks[200].credits.clear();
        let cols = BlockColumns::from_blocks(&blocks);
        let configs = paper_fixed_and_sliding_configs();
        let plan = MatrixPlan::new(&configs);
        for (lo, hi) in [(0, 400), (37, 391), (150, 150)] {
            let via_cols = plan.run_columns(cols.slice(lo, hi));
            let via_aos = plan.run(&blocks[lo..hi]);
            assert_eq!(via_cols, via_aos, "range {lo}..{hi}");
        }
    }

    #[test]
    fn chunked_evaluation_covers_every_window_in_order() {
        // Enough windows to force multiple chunks on multicore hosts; on
        // any host the result must be the naive engine's, in order.
        let blocks = stream(&[0, 1, 1, 2, 3, 4, 4, 4], 2000, 60);
        let cfg = MeasurementEngine::new(MetricKind::Hhi).sliding(64, 8);
        let out = MatrixPlan::new(&[cfg]).run(&blocks);
        assert_eq!(out[0], cfg.run(&blocks));
        let indices: Vec<i64> = out[0].points.iter().map(|p| p.index).collect();
        let sorted = {
            let mut s = indices.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(indices, sorted);
    }
}

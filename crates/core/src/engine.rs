//! The measurement engine: metric × windowing → series.
//!
//! [`MeasurementEngine`] is the single entry point the examples, CLI, and
//! experiment harness use. Configure a metric and a windowing policy, then
//! [`MeasurementEngine::run`] it over a height-ordered slice of attributed
//! blocks. [`run_matrix`] evaluates many (metric, windowing) combinations
//! in one call; it is a compatibility wrapper over the matrix planner
//! ([`crate::planner`]), which deduplicates shared window specs so the
//! full paper matrix (3 metrics × 3 granularities × 2 window families × 2
//! chains) windows and accumulates each unique window stream once instead
//! of once per configuration.

use crate::metrics::MetricKind;
use crate::series::{MeasurementSeries, WindowLabel};
use crate::window::Windows;
use crate::windows::sliding::SlidingWindowSpec;
use crate::windows::sliding_time::TimeWindowSpec;
use blockdec_chain::{AttributedBlock, BlockColumns, ColumnsSlice, Granularity, Timestamp};
use serde::{Deserialize, Serialize};

/// Windowing policy for a measurement run.
///
/// `Eq + Hash` so the matrix planner can group configurations by window
/// spec and materialize each unique window stream once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WindowSpec {
    /// Calendar fixed windows (§II-C) at a granularity from an origin.
    FixedCalendar {
        /// Day / week / month.
        granularity: Granularity,
        /// Calendar origin (the paper uses 2019-01-01T00:00Z).
        origin: Timestamp,
    },
    /// Block-count sliding windows (§III).
    SlidingBlocks(SlidingWindowSpec),
    /// Time-based sliding windows (extension; see
    /// [`crate::windows::sliding_time`]).
    SlidingTime(TimeWindowSpec),
}

impl WindowSpec {
    /// The serializable label of this window spec, as carried by
    /// [`MeasurementSeries::window`].
    pub fn label(&self) -> WindowLabel {
        match self {
            WindowSpec::FixedCalendar { granularity, .. } => WindowLabel::FixedCalendar {
                granularity: granularity.label().to_string(),
            },
            WindowSpec::SlidingBlocks(s) => WindowLabel::SlidingBlocks {
                size: s.size,
                step: s.step,
            },
            WindowSpec::SlidingTime(s) => WindowLabel::SlidingTime {
                duration_secs: s.duration_secs,
                step_secs: s.step_secs,
            },
        }
    }
}

/// A configured measurement: one metric over one windowing policy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeasurementEngine {
    metric: MetricKind,
    window: WindowSpec,
}

impl MeasurementEngine {
    /// Start configuring an engine for a metric. The windowing defaults
    /// to daily fixed calendar windows from the 2019 origin.
    pub fn new(metric: MetricKind) -> MeasurementEngine {
        MeasurementEngine {
            metric,
            window: WindowSpec::FixedCalendar {
                granularity: Granularity::Day,
                origin: Timestamp::year_2019_start(),
            },
        }
    }

    /// Use calendar fixed windows at `granularity` from `origin`.
    pub fn fixed_calendar(mut self, granularity: Granularity, origin: Timestamp) -> Self {
        self.window = WindowSpec::FixedCalendar {
            granularity,
            origin,
        };
        self
    }

    /// Use sliding windows of `size` blocks advancing `step` blocks.
    pub fn sliding(mut self, size: usize, step: usize) -> Self {
        self.window = WindowSpec::SlidingBlocks(SlidingWindowSpec::new(size, step));
        self
    }

    /// Use a pre-built sliding spec.
    pub fn sliding_spec(mut self, spec: SlidingWindowSpec) -> Self {
        self.window = WindowSpec::SlidingBlocks(spec);
        self
    }

    /// Use time-based sliding windows of `duration_secs` advancing
    /// `step_secs` (extension; the dual of the paper's block-count
    /// windows).
    pub fn sliding_time(mut self, duration_secs: i64, step_secs: i64) -> Self {
        self.window = WindowSpec::SlidingTime(TimeWindowSpec::new(duration_secs, step_secs));
        self
    }

    /// Time-based sliding windows aligned to an explicit origin (e.g.
    /// midnight, so 24h/24h windows coincide with calendar days).
    pub fn sliding_time_aligned(
        mut self,
        duration_secs: i64,
        step_secs: i64,
        align: Timestamp,
    ) -> Self {
        self.window =
            WindowSpec::SlidingTime(TimeWindowSpec::new(duration_secs, step_secs).aligned(align));
        self
    }

    /// The configured metric.
    pub fn metric(&self) -> MetricKind {
        self.metric
    }

    /// The configured windowing policy.
    pub fn window(&self) -> WindowSpec {
        self.window
    }

    /// Measure a height-ordered block stream.
    ///
    /// Thin compatibility wrapper: converts to [`BlockColumns`] and
    /// delegates to [`MeasurementEngine::run_columns`], which is the
    /// canonical evaluation path.
    pub fn run(&self, blocks: &[AttributedBlock]) -> MeasurementSeries {
        let cols = BlockColumns::from_blocks(blocks);
        self.run_columns(cols.as_slice())
    }

    /// Measure a height-ordered columnar block stream. This is the
    /// canonical path: the windowed-evaluation core forms the windows
    /// over the flat columns and evaluates them in order on the calling
    /// thread.
    pub fn run_columns(&self, cols: ColumnsSlice<'_>) -> MeasurementSeries {
        let _t = blockdec_obs::span!(
            "stage.measure",
            metric = self.metric.to_string(),
            window = self.window.label().label(),
            blocks = cols.len(),
        );
        let windows = Windows::form(cols, self.window);
        let points = windows
            .evaluate(0..windows.len(), &[self.metric])
            .pop()
            .unwrap_or_default();
        blockdec_obs::counter("engine.runs").inc();
        blockdec_obs::counter("engine.blocks").add(cols.len() as u64);
        blockdec_obs::counter("engine.windows").add(points.len() as u64);
        blockdec_obs::debug!(windows = points.len(); "measurement complete");
        MeasurementSeries {
            metric: self.metric,
            window: self.window.label(),
            points,
        }
    }
}

/// Run many engine configurations over the same block stream.
///
/// Compatibility wrapper over the matrix planner
/// ([`crate::planner::MatrixPlan`]): configurations sharing a window spec
/// are grouped so each unique window stream is materialized once and
/// every metric reads one shared sorted scratch buffer per window.
/// Results come back in configuration order and are exactly equal
/// (bit-for-bit for the paper's unit-credit attribution) to running each
/// configuration separately.
pub fn run_matrix(
    blocks: &[AttributedBlock],
    configs: &[MeasurementEngine],
) -> Vec<MeasurementSeries> {
    crate::planner::MatrixPlan::new(configs).run(blocks)
}

/// [`run_matrix`] over columnar storage: the store → columns → planner
/// pipeline with zero AoS materialization.
pub fn run_matrix_columns(
    cols: ColumnsSlice<'_>,
    configs: &[MeasurementEngine],
) -> Vec<MeasurementSeries> {
    crate::planner::MatrixPlan::new(configs).run_columns(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::ProducerDistribution;
    use blockdec_chain::time::SECS_PER_DAY;
    use blockdec_chain::{Credit, ProducerId};

    /// `pattern[i]` produces block i (cycling), one block per `spacing`
    /// seconds from the 2019 origin.
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

    #[test]
    fn fixed_daily_series_shape() {
        // 6 blocks/day for 10 days, producers rotate 0,1,2.
        let blocks = stream(&[0, 1, 2], 60, SECS_PER_DAY / 6);
        let s = MeasurementEngine::new(MetricKind::Gini)
            .fixed_calendar(Granularity::Day, Timestamp::year_2019_start())
            .run(&blocks);
        assert_eq!(s.points.len(), 10);
        for p in &s.points {
            assert_eq!(p.blocks, 6);
            assert_eq!(p.producers, 3);
            // Perfect rotation → perfectly equal shares → Gini 0.
            assert!(p.value.abs() < 1e-12);
        }
        assert_eq!(s.points[0].start_height, 1000);
        assert_eq!(s.points[0].end_height, 1005);
    }

    #[test]
    fn sliding_series_matches_eq5_and_batch() {
        let blocks = stream(&[0, 0, 0, 1, 2], 100, 60);
        let spec = SlidingWindowSpec::new(20, 10);
        let s = MeasurementEngine::new(MetricKind::ShannonEntropy)
            .sliding_spec(spec)
            .run(&blocks);
        assert_eq!(s.points.len(), spec.window_count(100));
        // Cross-check every point against a fresh batch computation.
        for (i, range) in spec.iter(100).enumerate() {
            let dist = ProducerDistribution::from_blocks(&blocks[range]);
            let expected = MetricKind::ShannonEntropy.compute(&dist.weight_vector());
            assert!(
                (s.points[i].value - expected).abs() < 1e-9,
                "window {i}: {} vs {expected}",
                s.points[i].value
            );
        }
    }

    #[test]
    fn sliding_with_gap_step_rebuilds() {
        let blocks = stream(&[0, 1], 50, 60);
        // step > size → windows don't overlap, exercising the rebuild arm.
        let s = MeasurementEngine::new(MetricKind::Nakamoto)
            .sliding(4, 10)
            .run(&blocks);
        let spec = SlidingWindowSpec::new(4, 10);
        assert_eq!(s.points.len(), spec.window_count(50));
        for p in &s.points {
            assert_eq!(p.blocks, 4);
            assert_eq!(p.value, 2.0); // two equal producers → both needed
        }
    }

    #[test]
    fn multi_credit_blocks_feed_all_producers() {
        let o = Timestamp::year_2019_start().secs();
        let mut blocks = stream(&[0], 10, 60);
        // One anomaly block credited to 5 extra producers.
        blocks.push(AttributedBlock {
            height: 2000,
            timestamp: Timestamp(o + 1000),
            credits: (10..15)
                .map(|i| Credit {
                    producer: ProducerId(i),
                    weight: 1.0,
                })
                .collect(),
        });
        let s = MeasurementEngine::new(MetricKind::ShannonEntropy)
            .fixed_calendar(Granularity::Day, Timestamp::year_2019_start())
            .run(&blocks);
        assert_eq!(s.points.len(), 1);
        assert_eq!(s.points[0].blocks, 11);
        assert_eq!(s.points[0].producers, 6);
    }

    #[test]
    fn empty_stream_empty_series() {
        let s = MeasurementEngine::new(MetricKind::Gini).run(&[]);
        assert!(s.points.is_empty());
        let s = MeasurementEngine::new(MetricKind::Gini)
            .sliding(10, 5)
            .run(&[]);
        assert!(s.points.is_empty());
    }

    #[test]
    fn matrix_matches_individual_runs() {
        let blocks = stream(&[0, 0, 1, 2, 3], 200, 600);
        let configs: Vec<MeasurementEngine> = MetricKind::PAPER
            .iter()
            .flat_map(|&m| {
                vec![
                    MeasurementEngine::new(m)
                        .fixed_calendar(Granularity::Day, Timestamp::year_2019_start()),
                    MeasurementEngine::new(m).sliding(24, 12),
                ]
            })
            .collect();
        let parallel = run_matrix(&blocks, &configs);
        assert_eq!(parallel.len(), configs.len());
        for (cfg, series) in configs.iter().zip(&parallel) {
            assert_eq!(series, &cfg.run(&blocks));
        }
    }

    #[test]
    fn sliding_time_windows_measure_by_timestamp() {
        // 6 blocks/day for 6 days; one-day windows stepping half a day.
        let blocks = stream(&[0, 1, 2], 36, SECS_PER_DAY / 6);
        let s = MeasurementEngine::new(MetricKind::Gini)
            .sliding_time(SECS_PER_DAY, SECS_PER_DAY / 2)
            .run(&blocks);
        // span ≈ 6 days minus one window, half-day steps → ~11 windows.
        assert!((9..=11).contains(&s.points.len()), "{}", s.points.len());
        for p in &s.points {
            assert_eq!(p.blocks, 6);
            // Perfect rotation with window=multiple of pattern → Gini 0.
            assert!(p.value.abs() < 1e-12);
        }
        assert_eq!(
            s.window.label(),
            format!("sliding-time/{SECS_PER_DAY}/{}", SECS_PER_DAY / 2)
        );
    }

    #[test]
    fn sliding_time_handles_out_of_order_timestamps() {
        let mut blocks = stream(&[0, 1], 48, 3600);
        // Swap two timestamps so height order ≠ time order.
        let t = blocks[10].timestamp;
        blocks[10].timestamp = blocks[11].timestamp;
        blocks[11].timestamp = t;
        let s = MeasurementEngine::new(MetricKind::ShannonEntropy)
            .sliding_time(6 * 3600, 3 * 3600)
            .run(&blocks);
        assert!(!s.points.is_empty());
        for p in &s.points {
            assert!(p.start_time <= p.end_time);
        }
    }

    #[test]
    fn engine_accessors() {
        let e = MeasurementEngine::new(MetricKind::Hhi).sliding(10, 5);
        assert_eq!(e.metric(), MetricKind::Hhi);
        assert!(matches!(e.window(), WindowSpec::SlidingBlocks(_)));
    }
}

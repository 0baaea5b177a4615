//! The windowed-evaluation core: every batch and live measurement path
//! evaluates its windows here.
//!
//! It owns three things, each written once:
//!
//! * **Window formation** ([`Windows::form`]): any [`WindowSpec`] becomes
//!   an evaluation order over block positions plus one range of that
//!   order per window. Block-count sliding windows use the identity
//!   order. Time windows order blocks by `(timestamp, height)` and walk
//!   two cursors. Fixed calendar windows (§II-C) stably sort positions by
//!   bucket, so each non-empty bucket is one range in height order.
//!   Assignment is by timestamp, so an out-of-order timestamp lands in
//!   the bucket its miner declared, like a BigQuery
//!   `GROUP BY DATE(timestamp)`.
//! * **The slide step** ([`Slider`]): where the next window overlaps the
//!   one held, remove the leading blocks and add the trailing ones;
//!   otherwise clear and add. Buckets never overlap, so every bucket
//!   takes the rebuild arm.
//! * **The row builder**: one sorted scratch fill per window
//!   ([`ProducerDistribution::sorted_weights_into`]), then
//!   [`MetricKind::compute_sorted`] for each metric.
//!
//! [`crate::planner::MatrixPlan`] evaluates chunks of a formed spec on
//! scoped workers, [`crate::engine::MeasurementEngine`] evaluates one
//! metric on one worker, and [`crate::delta::MetricDeltaStream`] drives
//! the same slide step over the blocks pushed into it.

use crate::distribution::ProducerDistribution;
use crate::engine::WindowSpec;
use crate::metrics::MetricKind;
use crate::series::MeasurementPoint;
use crate::windows::sliding_time::TimeWindowSpec;
use blockdec_chain::{ColumnsSlice, ProducerId, Timestamp};
use std::ops::Range;

/// Positional read access to a block sequence: all that the slide step
/// and the row builder read.
pub(crate) trait Blocks {
    /// Height of the block at position `i`.
    fn height(&self, i: usize) -> u64;
    /// Timestamp of the block at position `i`.
    fn timestamp(&self, i: usize) -> Timestamp;
    /// Parallel producer and weight columns of the block at position `i`.
    fn credits(&self, i: usize) -> (&[ProducerId], &[f64]);
}

impl Blocks for ColumnsSlice<'_> {
    fn height(&self, i: usize) -> u64 {
        ColumnsSlice::height(self, i)
    }

    fn timestamp(&self, i: usize) -> Timestamp {
        ColumnsSlice::timestamp(self, i)
    }

    fn credits(&self, i: usize) -> (&[ProducerId], &[f64]) {
        (self.producers_of(i), self.weights_of(i))
    }
}

/// `blocks` read through an evaluation order: position `j` is block
/// `order[j]`.
struct Ordered<'a, B> {
    blocks: &'a B,
    order: &'a [u32],
}

impl<B: Blocks> Blocks for Ordered<'_, B> {
    fn height(&self, j: usize) -> u64 {
        self.blocks.height(self.order[j] as usize)
    }

    fn timestamp(&self, j: usize) -> Timestamp {
        self.blocks.timestamp(self.order[j] as usize)
    }

    fn credits(&self, j: usize) -> (&[ProducerId], &[f64]) {
        self.blocks.credits(self.order[j] as usize)
    }
}

/// A window spec formed over a block sequence.
pub(crate) struct Windows {
    /// Block positions in evaluation order. Positions are `u32`, like the
    /// credit offsets of [`blockdec_chain::BlockColumns`].
    pub(crate) order: Vec<u32>,
    /// Each window's index and its range of `order`, in emission order.
    /// Ranges are never empty and both ends never move backwards.
    pub(crate) ranges: Vec<(i64, Range<usize>)>,
}

impl Windows {
    /// Form `spec` over a height-ordered columnar block stream.
    pub(crate) fn form(cols: ColumnsSlice<'_>, spec: WindowSpec) -> Windows {
        let n = cols.len();
        match spec {
            WindowSpec::FixedCalendar {
                granularity,
                origin,
            } => {
                let buckets: Vec<i64> = (0..n)
                    .map(|i| cols.timestamp(i).bucket(granularity, origin))
                    .collect();
                Windows::by_bucket(&buckets)
            }
            WindowSpec::SlidingBlocks(spec) => Windows {
                order: (0..n as u32).collect(),
                ranges: (0..).zip(spec.iter(n)).collect(),
            },
            WindowSpec::SlidingTime(spec) => {
                // Miner clock jitter makes height order only approximately
                // time order.
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_unstable_by_key(|&i| {
                    (cols.timestamp(i as usize), cols.height(i as usize))
                });
                let ranges = time_ranges(n, |j| cols.timestamp(order[j] as usize).secs(), spec);
                Windows { order, ranges }
            }
        }
    }

    /// Fixed calendar formation: `buckets[i]` is the bucket of block `i`.
    /// Positions are stably sorted by bucket, so blocks keep their stream
    /// order inside a bucket, and every non-empty bucket becomes one
    /// window indexed by its bucket number, ascending.
    pub(crate) fn by_bucket(buckets: &[i64]) -> Windows {
        let mut order: Vec<u32> = (0..buckets.len() as u32).collect();
        order.sort_by_key(|&i| buckets[i as usize]);
        let mut ranges: Vec<(i64, Range<usize>)> = Vec::new();
        for (j, &i) in order.iter().enumerate() {
            let bucket = buckets[i as usize];
            match ranges.last_mut() {
                Some((b, range)) if *b == bucket => range.end = j + 1,
                _ => ranges.push((bucket, j..j + 1)),
            }
        }
        Windows { order, ranges }
    }

    /// Number of windows.
    pub(crate) fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Evaluate the windows `chunk` of this formation over `blocks` (the
    /// sequence it was formed over) with one [`Slider`]. Returns one
    /// point vector per metric, in `metrics` order.
    pub(crate) fn evaluate<B: Blocks>(
        &self,
        blocks: &B,
        chunk: Range<usize>,
        metrics: &[MetricKind],
    ) -> Vec<Vec<MeasurementPoint>> {
        let blocks = Ordered {
            blocks,
            order: &self.order,
        };
        let mut out: Vec<Vec<MeasurementPoint>> = metrics
            .iter()
            .map(|_| Vec::with_capacity(chunk.len()))
            .collect();
        let mut slider = Slider::default();
        for (index, range) in &self.ranges[chunk] {
            slider.window(&blocks, *index, range.clone(), metrics, |slot, point| {
                out[slot].push(point)
            });
        }
        out
    }
}

/// The two-cursor walk over `len` timestamp-ordered positions (`ts_at`
/// gives each one's timestamp in seconds): window `i` spans
/// `spec.window_span(i, origin)` and holds the positions inside it.
/// Windows holding no block are skipped.
fn time_ranges(
    len: usize,
    ts_at: impl Fn(usize) -> i64,
    spec: TimeWindowSpec,
) -> Vec<(i64, Range<usize>)> {
    if len == 0 {
        return Vec::new();
    }
    let (first, last) = (ts_at(0), ts_at(len - 1));
    // Anchor at the explicit alignment when given, snapped forward so the
    // first window is the earliest aligned one that can contain a block.
    let origin = match spec.align {
        Some(align) => {
            let delta = first - align;
            let k = if delta >= 0 {
                delta / spec.step_secs
            } else {
                0
            };
            Timestamp(align + k * spec.step_secs)
        }
        None => Timestamp(first),
    };
    let count = spec.window_count(origin, Timestamp(last + 1));
    let mut out = Vec::with_capacity(count);
    // Windows advance monotonically, so each block is visited
    // O(duration/step) times in total.
    let mut lo = 0usize;
    for i in 0..count {
        let span = spec.window_span(i, origin);
        while lo < len && ts_at(lo) < span.start {
            lo += 1;
        }
        let mut hi = lo;
        while hi < len && ts_at(hi) < span.end {
            hi += 1;
        }
        if hi > lo {
            out.push((i as i64, lo..hi));
        }
    }
    out
}

/// What a walk over one spec's windows carries from window to window:
/// the distribution of the window last evaluated, that window's range,
/// and the scratch the metrics read sorted weights from.
#[derive(Debug, Default)]
pub(crate) struct Slider {
    dist: ProducerDistribution,
    held: Option<Range<usize>>,
    scratch: Vec<f64>,
}

impl Slider {
    /// Evaluate the window over the non-empty positions `range` of
    /// `blocks`: slide to it, sort its weights into the scratch once, and
    /// `emit` one point per metric with that metric's slot.
    pub(crate) fn window<B: Blocks>(
        &mut self,
        blocks: &B,
        index: i64,
        range: Range<usize>,
        metrics: &[MetricKind],
        mut emit: impl FnMut(usize, MeasurementPoint),
    ) {
        self.slide(blocks, range.clone());
        self.dist.sorted_weights_into(&mut self.scratch);
        let (first, last) = (range.start, range.end - 1);
        for (slot, metric) in metrics.iter().enumerate() {
            emit(
                slot,
                MeasurementPoint {
                    index,
                    start_height: blocks.height(first),
                    end_height: blocks.height(last),
                    start_time: blocks.timestamp(first),
                    end_time: blocks.timestamp(last),
                    blocks: range.len() as u64,
                    producers: self.dist.producers() as u64,
                    value: metric.compute_sorted(&self.scratch),
                },
            );
        }
    }

    /// The slide step. Where `range` overlaps the held window, remove the
    /// leading blocks and add the trailing ones: O(step), not O(size).
    /// Otherwise (first window, gap, or next bucket) clear and add.
    fn slide<B: Blocks>(&mut self, blocks: &B, range: Range<usize>) {
        match self.held.take() {
            Some(prev) if prev.end > range.start => {
                for i in prev.start..range.start {
                    let (producers, weights) = blocks.credits(i);
                    self.dist.remove_credits(producers, weights);
                }
                for i in prev.end..range.end {
                    let (producers, weights) = blocks.credits(i);
                    self.dist.add_credits(producers, weights);
                }
            }
            _ => {
                self.dist.clear();
                for i in range.clone() {
                    let (producers, weights) = blocks.credits(i);
                    self.dist.add_credits(producers, weights);
                }
            }
        }
        self.held = Some(range);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::MetricDeltaStream;
    use crate::engine::MeasurementEngine;
    use crate::planner::MatrixPlan;
    use crate::windows::sliding::SlidingWindowSpec;
    use blockdec_chain::time::SECS_PER_DAY;
    use blockdec_chain::{AttributedBlock, BlockColumns, Credit, Granularity};
    use std::collections::BTreeMap;

    fn block_at(height: u64, t: i64) -> AttributedBlock {
        AttributedBlock {
            height,
            timestamp: Timestamp(t),
            credits: vec![Credit {
                producer: ProducerId(0),
                weight: 1.0,
            }],
        }
    }

    fn origin() -> Timestamp {
        Timestamp::year_2019_start()
    }

    /// Each fixed calendar window of `blocks`: its bucket and the
    /// positions of its blocks, in evaluation order.
    fn fixed(blocks: &[AttributedBlock], granularity: Granularity) -> Vec<(i64, Vec<u32>)> {
        let cols = BlockColumns::from_blocks(blocks);
        let spec = WindowSpec::FixedCalendar {
            granularity,
            origin: origin(),
        };
        let w = Windows::form(cols.as_slice(), spec);
        w.ranges
            .iter()
            .map(|(bucket, range)| (*bucket, w.order[range.clone()].to_vec()))
            .collect()
    }

    #[test]
    fn daily_partition() {
        let o = origin().secs();
        let blocks = vec![
            block_at(1, o),
            block_at(2, o + 100),
            block_at(3, o + SECS_PER_DAY),
            block_at(4, o + SECS_PER_DAY * 2 + 5),
        ];
        let w = fixed(&blocks, Granularity::Day);
        assert_eq!(w, vec![(0, vec![0, 1]), (1, vec![2]), (2, vec![3])]);
    }

    #[test]
    fn weekly_partition() {
        let o = origin().secs();
        let blocks: Vec<AttributedBlock> = (0..21)
            .map(|d| block_at(d, o + (d as i64) * SECS_PER_DAY + 1))
            .collect();
        let w = fixed(&blocks, Granularity::Week);
        assert_eq!(w.len(), 3);
        for (i, (bucket, positions)) in w.iter().enumerate() {
            assert_eq!(*bucket, i as i64);
            assert_eq!(positions.len(), 7);
        }
    }

    #[test]
    fn monthly_partition_uses_calendar_months() {
        // Jan has 31 days, Feb 28: a block on Jan 31 is month 0, on Feb 1
        // month 1, on Mar 1 month 2.
        let o = origin().secs();
        let blocks = vec![
            block_at(1, o + 30 * SECS_PER_DAY), // Jan 31
            block_at(2, o + 31 * SECS_PER_DAY), // Feb 1
            block_at(3, o + 59 * SECS_PER_DAY), // Mar 1
        ];
        let buckets: Vec<i64> = fixed(&blocks, Granularity::Month)
            .iter()
            .map(|(b, _)| *b)
            .collect();
        assert_eq!(buckets, vec![0, 1, 2]);
    }

    #[test]
    fn out_of_order_timestamp_lands_in_declared_bucket() {
        let o = origin().secs();
        let blocks = vec![
            block_at(1, o + 10),
            block_at(2, o + SECS_PER_DAY + 10),
            // Miner-declared timestamp back in day 0 even though the block
            // follows a day-1 block.
            block_at(3, o + 20),
            block_at(4, o + SECS_PER_DAY + 30),
        ];
        let w = fixed(&blocks, Granularity::Day);
        assert_eq!(w, vec![(0, vec![0, 2]), (1, vec![1, 3])]);
        // Long enough to leave the small-slice path of a sort: blocks
        // alternate between two days and keep stream order in each.
        let blocks: Vec<AttributedBlock> = (0..64)
            .map(|i| block_at(i, o + (i as i64 % 2) * SECS_PER_DAY + i as i64))
            .collect();
        let w = fixed(&blocks, Granularity::Day);
        let evens: Vec<u32> = (0..64).step_by(2).collect();
        let odds: Vec<u32> = (1..64).step_by(2).collect();
        assert_eq!(w, vec![(0, evens), (1, odds)]);
    }

    #[test]
    fn empty_input_yields_no_windows() {
        assert!(fixed(&[], Granularity::Day).is_empty());
    }

    #[test]
    fn pre_origin_blocks_get_negative_buckets() {
        let o = origin().secs();
        let blocks = vec![block_at(1, o - 10), block_at(2, o + 10)];
        let w = fixed(&blocks, Granularity::Day);
        assert_eq!(w, vec![(-1, vec![0]), (0, vec![1])]);
    }

    #[test]
    fn full_year_has_365_days_52_weeks_12_months() {
        let o = origin().secs();
        // One block every 6 hours for all of 2019.
        let blocks: Vec<AttributedBlock> = (0..365 * 4)
            .map(|i| block_at(i, o + (i as i64) * 21_600))
            .collect();
        assert_eq!(fixed(&blocks, Granularity::Day).len(), 365);
        let weeks = fixed(&blocks, Granularity::Week);
        // 365 days = 52 full weeks + 1 day spilling into week 52.
        assert_eq!(weeks.len(), 53);
        assert_eq!(weeks[52].1.len(), 4);
        let months = fixed(&blocks, Granularity::Month);
        assert_eq!(months.len(), 12);
        // January: 31 days × 4 blocks; February 2019: 28 days × 4.
        assert_eq!(months[0].1.len(), 124);
        assert_eq!(months[1].1.len(), 112);
    }

    /// Two months of 30-minute blocks with ±2000 s miner clock jitter,
    /// so timestamps often run backwards across window and bucket edges.
    /// Every 37th block credits several producers; every 101st credits
    /// none.
    fn jittered_stream() -> Vec<AttributedBlock> {
        let o = origin().secs();
        (0..3000u32)
            .map(|i| {
                let jitter = ((i as i64 * 7919) % 4001) - 2000;
                let credits = if i % 101 == 0 {
                    Vec::new()
                } else if i % 37 == 0 {
                    (0..3 + i % 4)
                        .map(|k| Credit {
                            producer: ProducerId(100 + k),
                            weight: 1.0,
                        })
                        .collect()
                } else {
                    let producer = [0, 0, 0, 1, 1, 2, 3, 4, 5, 6][(i * i % 10) as usize];
                    vec![Credit {
                        producer: ProducerId(producer),
                        weight: 1.0,
                    }]
                };
                AttributedBlock {
                    height: 7_000 + u64::from(i),
                    timestamp: Timestamp(o + i64::from(i) * 1_800 + jitter),
                    credits,
                }
            })
            .collect()
    }

    /// The windows of `spec` over `blocks`, written out here rather than
    /// taken from the core: each window's index and its blocks, in the
    /// order they are accumulated.
    fn oracle_windows(
        blocks: &[AttributedBlock],
        spec: WindowSpec,
    ) -> Vec<(i64, Vec<&AttributedBlock>)> {
        match spec {
            WindowSpec::FixedCalendar {
                granularity,
                origin,
            } => {
                let mut buckets: BTreeMap<i64, Vec<&AttributedBlock>> = BTreeMap::new();
                for b in blocks {
                    let bucket = b.timestamp.bucket(granularity, origin);
                    buckets.entry(bucket).or_default().push(b);
                }
                buckets.into_iter().collect()
            }
            WindowSpec::SlidingBlocks(s) => (0..)
                .map(|i| i * s.step)
                .take_while(|start| start + s.size <= blocks.len())
                .map(|start| {
                    let inside = blocks[start..start + s.size].iter().collect();
                    ((start / s.step) as i64, inside)
                })
                .collect(),
            WindowSpec::SlidingTime(s) => {
                let mut sorted: Vec<&AttributedBlock> = blocks.iter().collect();
                sorted.sort_by_key(|b| (b.timestamp, b.height));
                let (Some(first), Some(last)) = (sorted.first(), sorted.last()) else {
                    return Vec::new();
                };
                let end = Timestamp(last.timestamp.secs() + 1);
                (0..s.window_count(first.timestamp, end))
                    .filter_map(|i| {
                        let span = s.window_span(i, first.timestamp);
                        let inside: Vec<&AttributedBlock> = sorted
                            .iter()
                            .copied()
                            .filter(|b| span.contains(&b.timestamp.secs()))
                            .collect();
                        (!inside.is_empty()).then_some((i as i64, inside))
                    })
                    .collect()
            }
        }
    }

    /// Every window computed from scratch: a fresh distribution over its
    /// blocks and the public [`MetricKind::compute`].
    fn from_scratch(
        metric: MetricKind,
        windows: &[(i64, Vec<&AttributedBlock>)],
    ) -> Vec<MeasurementPoint> {
        windows
            .iter()
            .map(|(index, inside)| {
                let mut dist = ProducerDistribution::new();
                for c in inside.iter().flat_map(|b| &b.credits) {
                    dist.add(c.producer, c.weight);
                }
                let (first, last) = (inside[0], inside[inside.len() - 1]);
                MeasurementPoint {
                    index: *index,
                    start_height: first.height,
                    end_height: last.height,
                    start_time: first.timestamp,
                    end_time: last.timestamp,
                    blocks: inside.len() as u64,
                    producers: dist.producers() as u64,
                    value: metric.compute(&dist.weight_vector()),
                }
            })
            .collect()
    }

    type PointBits = (i64, u64, u64, Timestamp, Timestamp, u64, u64, u64);

    /// Every field of every point, the value as its bit pattern.
    fn bits(points: &[MeasurementPoint]) -> Vec<PointBits> {
        points
            .iter()
            .map(|p| {
                (
                    p.index,
                    p.start_height,
                    p.end_height,
                    p.start_time,
                    p.end_time,
                    p.blocks,
                    p.producers,
                    p.value.to_bits(),
                )
            })
            .collect()
    }

    fn engine(metric: MetricKind, spec: WindowSpec) -> MeasurementEngine {
        let engine = MeasurementEngine::new(metric);
        match spec {
            WindowSpec::FixedCalendar {
                granularity,
                origin,
            } => engine.fixed_calendar(granularity, origin),
            WindowSpec::SlidingBlocks(s) => engine.sliding_spec(s),
            WindowSpec::SlidingTime(s) => engine.sliding_time(s.duration_secs, s.step_secs),
        }
    }

    fn stream(metric: MetricKind, spec: WindowSpec) -> Option<MetricDeltaStream> {
        match spec {
            WindowSpec::FixedCalendar {
                granularity,
                origin,
            } => Some(MetricDeltaStream::fixed(metric, granularity, origin)),
            WindowSpec::SlidingBlocks(s) => Some(MetricDeltaStream::sliding(metric, s)),
            WindowSpec::SlidingTime(_) => None,
        }
    }

    #[test]
    fn every_evaluation_path_equals_a_from_scratch_oracle() {
        let blocks = jittered_stream();
        let cols = BlockColumns::from_blocks(&blocks);
        let mut specs: Vec<WindowSpec> = Granularity::ALL
            .iter()
            .map(|&granularity| WindowSpec::FixedCalendar {
                granularity,
                origin: origin(),
            })
            .collect();
        specs.extend([
            WindowSpec::SlidingBlocks(SlidingWindowSpec::new(48, 16)),
            // Step past size: every window takes the rebuild arm.
            WindowSpec::SlidingBlocks(SlidingWindowSpec::new(5, 7)),
            WindowSpec::SlidingTime(TimeWindowSpec::new(SECS_PER_DAY, SECS_PER_DAY / 4)),
        ]);
        let configs: Vec<MeasurementEngine> = specs
            .iter()
            .flat_map(|&spec| MetricKind::ALL.map(|metric| engine(metric, spec)))
            .collect();
        let plan = MatrixPlan::new(&configs);
        // The whole stream, and a sub-slice whose credit offsets do not
        // start at 0.
        for (lo, hi) in [(0, blocks.len()), (211, 2700)] {
            let view = cols.slice(lo, hi);
            let expected: Vec<Vec<PointBits>> = configs
                .iter()
                .map(|c| {
                    bits(&from_scratch(
                        c.metric(),
                        &oracle_windows(&blocks[lo..hi], c.window()),
                    ))
                })
                .collect();
            // Day buckets and the block and time windows number over 48,
            // so 4 workers split each of those specs into 4 chunks.
            let chunked = expected.iter().filter(|w| w.len() > 48).count();
            assert_eq!(chunked, 4 * MetricKind::ALL.len());
            for workers in 1..=4 {
                let planned = plan.run_columns_on(view, workers);
                for ((cfg, series), want) in configs.iter().zip(&planned).zip(&expected) {
                    assert_eq!(
                        &bits(&series.points),
                        want,
                        "planner at {workers} workers: {:?} over {:?}, blocks {lo}..{hi}",
                        cfg.metric(),
                        cfg.window()
                    );
                }
            }
            for (cfg, want) in configs.iter().zip(&expected) {
                let what = format!(
                    "{:?} over {:?}, blocks {lo}..{hi}",
                    cfg.metric(),
                    cfg.window()
                );
                assert_eq!(&bits(&cfg.run_columns(view).points), want, "engine: {what}");
                if let Some(mut s) = stream(cfg.metric(), cfg.window()) {
                    for b in &blocks[lo..hi] {
                        s.push_block(b).unwrap();
                    }
                    assert_eq!(&bits(&s.into_points()), want, "delta stream: {what}");
                }
            }
        }
    }
}

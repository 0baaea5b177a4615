//! The windowed-evaluation core: every batch and live measurement path
//! evaluates its windows here.
//!
//! It owns three things, each written once:
//!
//! * **Window formation** ([`Windows::form`]): any [`WindowSpec`] becomes
//!   the blocks in evaluation order plus one contiguous range of them per
//!   window. Block-count sliding windows take the stream as it is. Time
//!   windows evaluate blocks in `(timestamp, height)` order and find
//!   each window's edges by binary search. Fixed calendar windows
//!   (§II-C) evaluate blocks stably ordered by bucket, so each non-empty
//!   bucket is one range in height order. Assignment is by timestamp, so
//!   an out-of-order timestamp lands in the bucket its miner declared,
//!   like a BigQuery `GROUP BY DATE(timestamp)`.
//! * **The slide step** ([`Slider`]): where the next window overlaps the
//!   one held, remove the leading blocks and add the trailing ones;
//!   otherwise clear and add. Buckets never overlap, so every bucket
//!   takes the rebuild arm.
//! * **The row builder**: one sorted scratch fill per window
//!   ([`ProducerDistribution::sorted_weights_into`]), then
//!   [`MetricKind::compute_sorted`] for each metric.
//!
//! # Flat credit runs
//!
//! Every window is a contiguous range of blocks in evaluation order, so
//! each slide adds and removes whole runs of the flat credit columns
//! ([`ColumnsSlice::credits_in`]): one tight loop over two parallel
//! slices per edge, not one credit slice per block.
//!
//! A spec whose input is already in evaluation order (fixed windows whose
//! buckets never decrease, time windows whose `(timestamp, height)` never
//! decreases, and block-count windows always) is evaluated over the input
//! itself, with no position vector and no sort. Any other input is sorted
//! (stably by bucket; unstably by `(timestamp, height)`) and its blocks
//! gathered once into evaluation-order columns ([`ColumnsSlice::gather`]).
//! A stable sort leaves in-order input where it is, and so does the
//! unstable one here, as `(timestamp, height)` keys tie only between
//! blocks of one height, which the store never yields. So skipping the
//! sort changes no window's blocks or their order: every distribution
//! sees the same f64 operations in the same order, and every output is
//! bitwise the same under every attribution mode. Fixed buckets come
//! from [`calendar_buckets`], which does the calendar math once per
//! bucket instead of once per block.
//!
//! Why: over the 60-day Ethereum stream (359k blocks, one credit each)
//! on a 2-vCPU KVM guest, 359k adds take 1.2–2.4 ms as one flat run but
//! 3.3–6.4 ms through per-block credit slices, and bucketing every block
//! takes 9.5–12.5 ms for months (two civil-date conversions per block)
//! against 0.4–0.8 ms once per bucket. One Gini series per spec went
//! from 6–19 ms to 2.3–6.7 ms, and perfbench `measure` from 11.3 to 18.5
//! ops per CPU-second. PERFORMANCE.md, "Flat credit runs", has the
//! tables.
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
use blockdec_chain::{BlockColumns, ColumnsSlice, Granularity, Timestamp};
use std::ops::Range;

/// A window spec formed over a block sequence.
pub(crate) struct Windows<'a> {
    /// The sequence the spec was formed over.
    input: ColumnsSlice<'a>,
    /// The input gathered into evaluation order, when it was not in it.
    gathered: Option<BlockColumns>,
    /// Each window's index and its range of [`Windows::blocks`], in
    /// emission order. Ranges are never empty and both ends never move
    /// backwards.
    pub(crate) ranges: Vec<(i64, Range<usize>)>,
}

impl<'a> Windows<'a> {
    /// Form `spec` over a height-ordered columnar block stream.
    pub(crate) fn form(cols: ColumnsSlice<'a>, spec: WindowSpec) -> Windows<'a> {
        // `reordered` repeats the order check, but only when the span logs.
        let _t = blockdec_obs::span!(
            "window.form",
            spec = spec.label().label(),
            blocks = cols.len(),
            reordered = !in_evaluation_order(cols, spec),
        );
        match spec {
            WindowSpec::FixedCalendar {
                granularity,
                origin,
            } => Windows::by_bucket(cols, &calendar_buckets(cols, granularity, origin)),
            WindowSpec::SlidingBlocks(spec) => Windows {
                input: cols,
                gathered: None,
                ranges: (0..).zip(spec.iter(cols.len())).collect(),
            },
            WindowSpec::SlidingTime(spec) => {
                // Miner clock jitter makes height order only approximately
                // time order.
                let gathered = (!time_ordered(cols)).then(|| {
                    let mut order: Vec<u32> = (0..cols.len() as u32).collect();
                    order.sort_unstable_by_key(|&i| {
                        (cols.timestamp(i as usize), cols.height(i as usize))
                    });
                    cols.gather(&order)
                });
                let mut windows = Windows {
                    input: cols,
                    gathered,
                    ranges: Vec::new(),
                };
                windows.ranges = time_ranges(windows.blocks(), spec);
                windows
            }
        }
    }

    /// Fixed calendar formation: `buckets[i]` is the bucket of block `i`
    /// of `cols`. Blocks are evaluated stably ordered by bucket, so they
    /// keep their stream order inside a bucket, and every non-empty
    /// bucket becomes one window indexed by its bucket number, ascending.
    pub(crate) fn by_bucket(cols: ColumnsSlice<'a>, buckets: &[i64]) -> Windows<'a> {
        if buckets.is_sorted() {
            return Windows {
                input: cols,
                gathered: None,
                ranges: bucket_runs(buckets),
            };
        }
        let mut order: Vec<u32> = (0..buckets.len() as u32).collect();
        order.sort_by_key(|&i| buckets[i as usize]);
        let sorted: Vec<i64> = order.iter().map(|&i| buckets[i as usize]).collect();
        Windows {
            input: cols,
            gathered: Some(cols.gather(&order)),
            ranges: bucket_runs(&sorted),
        }
    }

    /// The blocks in evaluation order: the ranges index these.
    pub(crate) fn blocks(&self) -> ColumnsSlice<'_> {
        self.gathered
            .as_ref()
            .map_or(self.input, BlockColumns::as_slice)
    }

    /// Number of windows.
    pub(crate) fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Evaluate the windows `chunk` of this formation with one
    /// [`Slider`]. Returns one point vector per metric, in `metrics`
    /// order.
    pub(crate) fn evaluate(
        &self,
        chunk: Range<usize>,
        metrics: &[MetricKind],
    ) -> Vec<Vec<MeasurementPoint>> {
        let blocks = self.blocks();
        let mut out: Vec<Vec<MeasurementPoint>> = metrics
            .iter()
            .map(|_| Vec::with_capacity(chunk.len()))
            .collect();
        let mut slider = Slider::default();
        for (index, range) in &self.ranges[chunk] {
            slider.window(blocks, 0, *index, range.clone(), metrics, |slot, point| {
                out[slot].push(point)
            });
        }
        out
    }
}

/// The calendar bucket of every block of `cols`, in stream order. The
/// calendar math runs once per bucket run, not once per block: a block
/// whose timestamp lies in the span of the bucket computed last reuses
/// that bucket, and only the others call [`Timestamp::bucket_span`].
pub(crate) fn calendar_buckets(
    cols: ColumnsSlice<'_>,
    granularity: Granularity,
    origin: Timestamp,
) -> Vec<i64> {
    let mut last: (i64, Range<i64>) = (0, 0..0);
    (0..cols.len())
        .map(|i| {
            let t = cols.timestamp(i);
            if !last.1.contains(&t.secs()) {
                last = t.bucket_span(granularity, origin);
            }
            last.0
        })
        .collect()
}

/// Whether `cols` is already in `spec`'s evaluation order, so formation
/// neither sorts nor gathers.
fn in_evaluation_order(cols: ColumnsSlice<'_>, spec: WindowSpec) -> bool {
    match spec {
        WindowSpec::FixedCalendar {
            granularity,
            origin,
        } => calendar_buckets(cols, granularity, origin).is_sorted(),
        WindowSpec::SlidingBlocks(_) => true,
        WindowSpec::SlidingTime(_) => time_ordered(cols),
    }
}

/// Whether `(timestamp, height)` never decreases along `cols`.
fn time_ordered(cols: ColumnsSlice<'_>) -> bool {
    (1..cols.len())
        .all(|i| (cols.timestamp(i - 1), cols.height(i - 1)) <= (cols.timestamp(i), cols.height(i)))
}

/// One window per run of equal buckets in the ascending `buckets`,
/// indexed by its bucket and holding that run's positions.
fn bucket_runs(buckets: &[i64]) -> Vec<(i64, Range<usize>)> {
    let mut at = 0;
    buckets
        .chunk_by(|a, b| a == b)
        .map(|run| {
            let range = at..at + run.len();
            at = range.end;
            (run[0], range)
        })
        .collect()
}

/// Window `i` over the timestamp-ordered `blocks` spans
/// `spec.window_span(i, origin)` and holds the blocks inside it; both
/// edges are binary searches, so forming costs O(windows · log n).
/// Windows holding no block are skipped.
fn time_ranges(blocks: ColumnsSlice<'_>, spec: TimeWindowSpec) -> Vec<(i64, Range<usize>)> {
    let ts = blocks.timestamps();
    let (Some(&first), Some(&last)) = (ts.first(), ts.last()) else {
        return Vec::new();
    };
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
    // Window starts never decrease, so each search starts at the last
    // window's first block.
    let mut lo = 0usize;
    for i in 0..count {
        let span = spec.window_span(i, origin);
        lo += ts[lo..].partition_point(|&t| t < span.start);
        let hi = lo + ts[lo..].partition_point(|&t| t < span.end);
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
    /// Evaluate the window over the non-empty positions `range`, where
    /// block `0` of `blocks` is position `base` (the batch paths pass 0;
    /// a delta stream passes the stream position of its first held
    /// block): slide to it, sort its weights into the scratch once, and
    /// `emit` one point per metric with that metric's slot.
    pub(crate) fn window(
        &mut self,
        blocks: ColumnsSlice<'_>,
        base: usize,
        index: i64,
        range: Range<usize>,
        metrics: &[MetricKind],
        mut emit: impl FnMut(usize, MeasurementPoint),
    ) {
        self.slide(blocks, base, range.clone());
        self.dist.sorted_weights_into(&mut self.scratch);
        let (first, last) = (range.start - base, range.end - 1 - base);
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
    /// credits of the leading blocks, then add those of the trailing
    /// ones: O(step), not O(size). Otherwise (first window, gap, or next
    /// bucket) clear and add. Each edge is one contiguous credit run.
    fn slide(&mut self, blocks: ColumnsSlice<'_>, base: usize, range: Range<usize>) {
        let credits = |run: Range<usize>| blocks.credits_in(run.start - base..run.end - base);
        match self.held.take() {
            Some(prev) if prev.end > range.start => {
                let (producers, weights) = credits(prev.start..range.start);
                self.dist.remove_credits(producers, weights);
                let (producers, weights) = credits(prev.end..range.end);
                self.dist.add_credits(producers, weights);
            }
            _ => {
                self.dist.clear();
                let (producers, weights) = credits(range.clone());
                self.dist.add_credits(producers, weights);
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
    use blockdec_chain::{AttributedBlock, Credit, ProducerId};
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
    /// positions in `blocks` of its blocks, in evaluation order.
    fn fixed(blocks: &[AttributedBlock], granularity: Granularity) -> Vec<(i64, Vec<u32>)> {
        let cols = BlockColumns::from_blocks(blocks);
        let spec = WindowSpec::FixedCalendar {
            granularity,
            origin: origin(),
        };
        let w = Windows::form(cols.as_slice(), spec);
        let evaluated = w.blocks();
        // Heights are unique here, so each one names its input position.
        let position = |j: usize| {
            let height = evaluated.height(j);
            blocks.iter().position(|b| b.height == height).unwrap() as u32
        };
        w.ranges
            .iter()
            .map(|(bucket, range)| (*bucket, range.clone().map(position).collect()))
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

    /// Two months of 30-minute blocks, block `i` declared `jitter(i)`
    /// seconds off its slot. Every 37th block credits several producers;
    /// every 101st credits none.
    fn test_stream(jitter: impl Fn(i64) -> i64) -> Vec<AttributedBlock> {
        let o = origin().secs();
        (0..3000u32)
            .map(|i| {
                let jitter = jitter(i64::from(i));
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
        // ±2000 s of miner clock jitter. Consecutive blocks still step
        // forward, by 1800 + 3918 or 1800 − 83 s.
        let jittered = test_stream(|i| (i * 7919) % 4001 - 2000);
        // Strictly increasing timestamps on a fixed grid.
        let in_order = test_stream(|_| 0);
        // ±2 h: consecutive blocks step by 1800 + 7919 or 1800 − 6482 s,
        // so timestamps run backwards across bucket and window edges.
        let reordered = test_stream(|i| (i * 7919) % 14401 - 7200);
        for (blocks, reorders) in [(jittered, false), (in_order, false), (reordered, true)] {
            every_path_equals_the_oracle_over(&blocks, reorders);
        }
    }

    /// The oracle comparison over one input. When `reorders`, every fixed
    /// and time spec gathers its blocks into evaluation order; otherwise
    /// every spec is formed over the input in place.
    fn every_path_equals_the_oracle_over(blocks: &[AttributedBlock], reorders: bool) {
        let cols = BlockColumns::from_blocks(blocks);
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
            for &spec in &specs {
                let gathered = Windows::form(view, spec).gathered.is_some();
                let by_time = !matches!(spec, WindowSpec::SlidingBlocks(_));
                assert_eq!(gathered, reorders && by_time, "{spec:?}, blocks {lo}..{hi}");
            }
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
                        "planner at {workers} workers: {:?} over {:?}, blocks {lo}..{hi}, \
                         reorders {reorders}",
                        cfg.metric(),
                        cfg.window()
                    );
                }
            }
            for (cfg, want) in configs.iter().zip(&expected) {
                let what = format!(
                    "{:?} over {:?}, blocks {lo}..{hi}, reorders {reorders}",
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

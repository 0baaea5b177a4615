//! Incremental metric deltas for head-following ingestion.
//!
//! A [`MetricDeltaStream`] consumes attributed blocks one at a time — the
//! finalized output of a reorg-aware chain view — and emits each
//! [`MeasurementPoint`] the moment its window completes. The contract is
//! **bitwise**: the emitted point sequence is `assert_eq!`-equal to what
//! [`crate::engine::MeasurementEngine`] (and therefore
//! [`crate::planner::MatrixPlan`]) computes over the same final stream,
//! because the stream drives the same slide step of the
//! windowed-evaluation core over the same blocks in the same order.
//!
//! Pushed blocks wait in one set of flat [`BlockColumns`], and every
//! trim of them is a bulk copy ([`BlockColumns::extend_columns`]): a
//! sliding stream re-slices its held blocks past each emitted window's
//! start, and a fixed stream keeps its later buckets' blocks as one
//! suffix of the evaluation order, each bucket's blocks still in arrival
//! order, in one copy. Copying them one block and one credit at a time
//! held the incremental path back: once the batch engine it is checked
//! against got faster, the `follow` bench's delta-vs-recompute speedup
//! fell below its CI floor in some runs. Two window families stream:
//!
//! * **sliding block windows** — window `i` is emitted as soon as block
//!   `i·step + size − 1` arrives, by sliding one carried distribution; only
//!   the blocks a later window may still remove are kept;
//! * **fixed calendar windows** — bucket `B` is emitted once a block of
//!   bucket `≥ B + 2` is seen (the lag horizon, which tolerates miner
//!   timestamp jitter), rebuilt from its own blocks in arrival order; a
//!   block landing in an already-emitted bucket is a
//!   [`DeltaError::BucketRegression`].
//!
//! Time-based sliding windows sort the *whole* stream by `(timestamp,
//! height)` before windowing and are therefore not streamable — use the
//! batch engine for those.

use crate::metrics::MetricKind;
use crate::series::{MeasurementPoint, WindowLabel};
use crate::window::{Slider, Windows};
use crate::windows::sliding::SlidingWindowSpec;
use blockdec_chain::{AttributedBlock, BlockColumns, Granularity, ProducerId, Timestamp};
use std::collections::VecDeque;
use std::fmt;

/// Fixed-calendar lag horizon: buckets are held until a block two
/// buckets later is seen, which covers the simulator's ±130 s timestamp
/// jitter (and real-chain jitter) at every paper granularity.
const BUCKET_LAG: i64 = 2;

/// Errors from pushing a block into a delta stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// A block's calendar bucket is at or below one already emitted; the
    /// lag horizon was too small for this stream's timestamp jitter.
    BucketRegression {
        /// The offending block's bucket.
        bucket: i64,
        /// Highest bucket already emitted.
        emitted_through: i64,
    },
    /// A block was pushed after [`MetricDeltaStream::finish`].
    Finished,
    /// A block's producer and weight columns differ in length.
    CreditColumns {
        /// Length of the producer column.
        producers: usize,
        /// Length of the weight column.
        weights: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BucketRegression {
                bucket,
                emitted_through,
            } => write!(
                f,
                "block falls in calendar bucket {bucket} but buckets through \
                 {emitted_through} were already emitted (increase the lag horizon)"
            ),
            DeltaError::Finished => f.write_str("block pushed after the stream finished"),
            DeltaError::CreditColumns { producers, weights } => write!(
                f,
                "block has {producers} producers but {weights} weights; \
                 credit columns must be parallel"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Append one block and its credits to `cols`.
fn push_into(
    cols: &mut BlockColumns,
    height: u64,
    timestamp: Timestamp,
    credits: impl Iterator<Item = (ProducerId, f64)>,
) {
    cols.push_block(height, timestamp);
    for (producer, weight) in credits {
        cols.push_credit(producer, weight);
    }
}

#[derive(Debug)]
enum Mode {
    /// The held blocks start at stream block `base`; `slider` holds the
    /// last window emitted.
    Sliding {
        spec: SlidingWindowSpec,
        next_window: usize,
        base: usize,
        slider: Slider,
    },
    /// The held blocks are those of every bucket not yet emitted.
    Fixed {
        granularity: Granularity,
        origin: Timestamp,
        max_seen: Option<i64>,
        emitted_through: Option<i64>,
    },
}

/// A push-driven measurement stream: feed finalized blocks in canonical
/// order, iterate completed [`MeasurementPoint`]s out.
///
/// The stream is also an [`Iterator`] — each `next()` yields one
/// completed-but-unconsumed point, so a follow loop can subscribe with
/// `for point in &mut stream { ... }` after every push.
#[derive(Debug)]
pub struct MetricDeltaStream {
    metric: MetricKind,
    mode: Mode,
    /// Pushed blocks a later window may still need, in arrival order.
    held: BlockColumns,
    ready: VecDeque<MeasurementPoint>,
    finished: bool,
}

impl MetricDeltaStream {
    fn with_mode(metric: MetricKind, mode: Mode) -> MetricDeltaStream {
        MetricDeltaStream {
            metric,
            mode,
            held: BlockColumns::new(),
            ready: VecDeque::new(),
            finished: false,
        }
    }

    /// Stream a metric over sliding block windows.
    pub fn sliding(metric: MetricKind, spec: SlidingWindowSpec) -> MetricDeltaStream {
        let mode = Mode::Sliding {
            spec,
            next_window: 0,
            base: 0,
            slider: Slider::default(),
        };
        MetricDeltaStream::with_mode(metric, mode)
    }

    /// Stream a metric over fixed calendar windows. A bucket is emitted
    /// once a block two buckets later arrives, or at
    /// [`MetricDeltaStream::finish`].
    pub fn fixed(metric: MetricKind, granularity: Granularity, origin: Timestamp) -> Self {
        let mode = Mode::Fixed {
            granularity,
            origin,
            max_seen: None,
            emitted_through: None,
        };
        MetricDeltaStream::with_mode(metric, mode)
    }

    /// The metric being streamed.
    pub fn metric(&self) -> MetricKind {
        self.metric
    }

    /// The window label carried by batch series over the same spec.
    pub fn label(&self) -> WindowLabel {
        match &self.mode {
            Mode::Sliding { spec, .. } => WindowLabel::SlidingBlocks {
                size: spec.size,
                step: spec.step,
            },
            Mode::Fixed { granularity, .. } => WindowLabel::FixedCalendar {
                granularity: granularity.label().to_string(),
            },
        }
    }

    /// Push one finalized block (flat credit columns). Completed windows
    /// queue up for [`MetricDeltaStream::poll`] / iteration; the return
    /// value is how many completed on this push.
    ///
    /// Producer ids are dictionary indices: the stream's distribution
    /// keeps one slot per id up to the largest id pushed
    /// ([`crate::ProducerDistribution`]).
    pub fn push(
        &mut self,
        height: u64,
        timestamp: Timestamp,
        producers: &[ProducerId],
        weights: &[f64],
    ) -> Result<usize, DeltaError> {
        if producers.len() != weights.len() {
            return Err(DeltaError::CreditColumns {
                producers: producers.len(),
                weights: weights.len(),
            });
        }
        let credits = producers.iter().copied().zip(weights.iter().copied());
        self.accept(height, timestamp, credits)
    }

    /// [`MetricDeltaStream::push`] from an [`AttributedBlock`].
    pub fn push_block(&mut self, block: &AttributedBlock) -> Result<usize, DeltaError> {
        let credits = block.credits.iter().map(|c| (c.producer, c.weight));
        self.accept(block.height, block.timestamp, credits)
    }

    fn accept(
        &mut self,
        height: u64,
        timestamp: Timestamp,
        credits: impl Iterator<Item = (ProducerId, f64)>,
    ) -> Result<usize, DeltaError> {
        if self.finished {
            return Err(DeltaError::Finished);
        }
        let before = self.ready.len();
        match &mut self.mode {
            Mode::Sliding { .. } => {
                push_into(&mut self.held, height, timestamp, credits);
                self.drain_sliding();
            }
            Mode::Fixed {
                granularity,
                origin,
                max_seen,
                emitted_through,
            } => {
                let bucket = timestamp.bucket(*granularity, *origin);
                if let Some(done) = *emitted_through {
                    if bucket <= done {
                        return Err(DeltaError::BucketRegression {
                            bucket,
                            emitted_through: done,
                        });
                    }
                }
                push_into(&mut self.held, height, timestamp, credits);
                // Every held block lies above the last horizon, so a
                // bucket can only fall due when the horizon advances or
                // this block lands at or below it.
                let advanced = max_seen.is_none_or(|m| bucket > m);
                let seen = max_seen.map_or(bucket, |m| m.max(bucket));
                *max_seen = Some(seen);
                let horizon = seen - BUCKET_LAG;
                if advanced || bucket <= horizon {
                    self.drain_fixed(horizon);
                }
            }
        }
        Ok(self.ready.len() - before)
    }

    /// Emit every sliding window that is now complete.
    fn drain_sliding(&mut self) {
        let Mode::Sliding {
            spec,
            next_window,
            base,
            slider,
        } = &mut self.mode
        else {
            return;
        };
        while let Some(range) = spec.window_range(*next_window, *base + self.held.len()) {
            let ready = &mut self.ready;
            slider.window(
                self.held.as_slice(),
                *base,
                *next_window as i64,
                range.clone(),
                &[self.metric],
                |_, point| ready.push_back(point),
            );
            *next_window += 1;
            // The next window removes nothing below this one's start.
            let len = self.held.len();
            self.held = self.held.slice(range.start - *base, len).to_columns();
            *base = range.start;
        }
    }

    /// Emit every held bucket `≤ horizon`, ascending — the batch path's
    /// bucket order — and keep only the blocks of later buckets.
    fn drain_fixed(&mut self, horizon: i64) {
        let Mode::Fixed {
            granularity,
            origin,
            emitted_through,
            ..
        } = &mut self.mode
        else {
            return;
        };
        let windows = Windows::fixed(self.held.as_slice(), *granularity, *origin);
        let due = windows.ranges.partition_point(|(b, _)| *b <= horizon);
        if due == 0 {
            return;
        }
        *emitted_through = Some(windows.ranges[due - 1].0);
        let points = windows.evaluate(0..due, &[self.metric]);
        self.ready.extend(points.into_iter().flatten());
        // The later buckets' blocks are one suffix of the evaluation
        // order, which keeps each bucket's blocks in arrival order.
        let blocks = windows.blocks();
        let kept = blocks.slice(windows.ranges[due - 1].1.end, blocks.len());
        self.held = kept.to_columns();
    }

    /// End of stream: flush windows that were only held back by the lag
    /// horizon (fixed mode; sliding windows either completed or never
    /// will). Idempotent; later pushes return [`DeltaError::Finished`].
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.drain_fixed(i64::MAX);
    }

    /// Take the next completed point, if any.
    pub fn poll(&mut self) -> Option<MeasurementPoint> {
        self.ready.pop_front()
    }

    /// Completed points waiting to be consumed.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Finish the stream and drain everything still queued.
    pub fn into_points(mut self) -> Vec<MeasurementPoint> {
        self.finish();
        self.ready.into_iter().collect()
    }
}

impl Iterator for MetricDeltaStream {
    type Item = MeasurementPoint;

    /// The subscription side: yields completed windows as they become
    /// available, `None` when the consumer has caught up.
    fn next(&mut self) -> Option<MeasurementPoint> {
        self.poll()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MeasurementEngine;
    use blockdec_chain::Credit;

    /// `pattern[i]` produces block i (cycling), one block per `spacing`
    /// seconds from the 2019 origin, with deterministic ±jitter.
    fn stream(pattern: &[u32], n: usize, spacing: i64, jitter: i64) -> Vec<AttributedBlock> {
        let o = Timestamp::year_2019_start().secs();
        (0..n)
            .map(|i| {
                let j = if jitter == 0 {
                    0
                } else {
                    ((i as i64) * 7919 % (2 * jitter)) - jitter
                };
                AttributedBlock {
                    height: 1000 + i as u64,
                    timestamp: Timestamp(o + i as i64 * spacing + j),
                    credits: vec![Credit {
                        producer: ProducerId(pattern[i % pattern.len()]),
                        weight: 1.0,
                    }],
                }
            })
            .collect()
    }

    fn push_all(
        stream: &mut MetricDeltaStream,
        blocks: &[AttributedBlock],
    ) -> Vec<MeasurementPoint> {
        let mut out = Vec::new();
        for b in blocks {
            stream.push_block(b).unwrap();
            out.extend(&mut *stream);
        }
        stream.finish();
        out.extend(stream);
        out
    }

    #[test]
    fn sliding_deltas_are_bitwise_equal_to_the_batch_engine() {
        let blocks = stream(&[0, 0, 1, 2, 3, 3, 3, 4], 300, 600, 0);
        for metric in [
            MetricKind::Gini,
            MetricKind::ShannonEntropy,
            MetricKind::Nakamoto,
            MetricKind::Hhi,
        ] {
            let spec = SlidingWindowSpec::new(40, 15);
            let batch = MeasurementEngine::new(metric)
                .sliding_spec(spec)
                .run(&blocks);
            let mut s = MetricDeltaStream::sliding(metric, spec);
            let points = push_all(&mut s, &blocks);
            assert_eq!(points, batch.points, "{metric:?}");
        }
    }

    #[test]
    fn sliding_gap_steps_match_the_rebuild_arm() {
        let blocks = stream(&[0, 1, 2], 100, 600, 0);
        let spec = SlidingWindowSpec::new(4, 10);
        let batch = MeasurementEngine::new(MetricKind::Nakamoto)
            .sliding_spec(spec)
            .run(&blocks);
        let mut s = MetricDeltaStream::sliding(MetricKind::Nakamoto, spec);
        assert_eq!(push_all(&mut s, &blocks), batch.points);
    }

    #[test]
    fn sliding_emits_the_moment_a_window_completes() {
        let blocks = stream(&[0, 1], 30, 600, 0);
        let spec = SlidingWindowSpec::new(10, 5);
        let mut s = MetricDeltaStream::sliding(MetricKind::Gini, spec);
        for (i, b) in blocks.iter().enumerate() {
            let emitted = s.push_block(b).unwrap();
            // Window w completes exactly at block w*5 + 9.
            let expect = if i >= 9 && (i - 9) % 5 == 0 { 1 } else { 0 };
            assert_eq!(emitted, expect, "block {i}");
        }
    }

    #[test]
    fn sliding_ring_stays_bounded() {
        let blocks = stream(&[0, 1, 2, 3], 5_000, 600, 0);
        let spec = SlidingWindowSpec::new(144, 72);
        let mut s = MetricDeltaStream::sliding(MetricKind::ShannonEntropy, spec);
        for b in &blocks {
            s.push_block(b).unwrap();
            while s.poll().is_some() {}
            assert!(
                s.held.len() <= spec.size + spec.step,
                "held blocks grew to {}",
                s.held.len()
            );
        }
    }

    #[test]
    fn fixed_deltas_are_bitwise_equal_to_the_batch_engine() {
        // ±130 s jitter straddles day boundaries, exercising the lag.
        let blocks = stream(&[0, 0, 1, 2], 600, 3600, 130);
        let origin = Timestamp::year_2019_start();
        for g in [Granularity::Day, Granularity::Week, Granularity::Month] {
            let batch = MeasurementEngine::new(MetricKind::Gini)
                .fixed_calendar(g, origin)
                .run(&blocks);
            let mut s = MetricDeltaStream::fixed(MetricKind::Gini, g, origin);
            assert_eq!(push_all(&mut s, &blocks), batch.points, "{g:?}");
        }
    }

    #[test]
    fn fixed_bucket_regression_is_an_error() {
        let o = Timestamp::year_2019_start().secs();
        let day = blockdec_chain::time::SECS_PER_DAY;
        let mk = |h: u64, t: i64| AttributedBlock {
            height: h,
            timestamp: Timestamp(t),
            credits: vec![Credit {
                producer: ProducerId(0),
                weight: 1.0,
            }],
        };
        let mut s = MetricDeltaStream::fixed(
            MetricKind::Gini,
            Granularity::Day,
            Timestamp::year_2019_start(),
        );
        s.push_block(&mk(1, o)).unwrap();
        s.push_block(&mk(2, o + 3 * day)).unwrap(); // emits bucket 0
        let err = s.push_block(&mk(3, o + 10)).unwrap_err();
        assert_eq!(
            err,
            DeltaError::BucketRegression {
                bucket: 0,
                emitted_through: 0
            }
        );
        assert!(err.to_string().contains("bucket 0"));
    }

    #[test]
    fn push_after_finish_is_an_error() {
        let mut s = MetricDeltaStream::sliding(MetricKind::Gini, SlidingWindowSpec::new(2, 1));
        s.push(1, Timestamp(0), &[ProducerId(0)], &[1.0]).unwrap();
        s.finish();
        let err = s
            .push(2, Timestamp(600), &[ProducerId(1)], &[1.0])
            .unwrap_err();
        assert_eq!(err, DeltaError::Finished);
        assert_eq!(s.ready_len(), 0);
    }

    #[test]
    fn mismatched_credit_columns_are_an_error() {
        let mut s = MetricDeltaStream::sliding(MetricKind::Gini, SlidingWindowSpec::new(1, 1));
        let err = s
            .push(1, Timestamp(0), &[ProducerId(0), ProducerId(1)], &[1.0])
            .unwrap_err();
        assert_eq!(
            err,
            DeltaError::CreditColumns {
                producers: 2,
                weights: 1
            }
        );
        // The rejected block was not taken in: the next one is window 0.
        assert_eq!(s.push(2, Timestamp(600), &[ProducerId(3)], &[1.0]), Ok(1));
        let p = s.poll().unwrap();
        assert_eq!((p.index, p.start_height, p.producers), (0, 2, 1));
    }

    #[test]
    fn fractional_credits_stream_fine() {
        // Fractional attribution streams with parity to the batch engine,
        // not an approximation.
        let o = Timestamp::year_2019_start().secs();
        let blocks: Vec<AttributedBlock> = (0..60)
            .map(|i| AttributedBlock {
                height: i,
                timestamp: Timestamp(o + i as i64 * 600),
                credits: vec![
                    Credit {
                        producer: ProducerId(i as u32 % 3),
                        weight: 0.5,
                    },
                    Credit {
                        producer: ProducerId(3 + i as u32 % 2),
                        weight: 0.5,
                    },
                ],
            })
            .collect();
        let spec = SlidingWindowSpec::new(12, 6);
        let batch = MeasurementEngine::new(MetricKind::ShannonEntropy)
            .sliding_spec(spec)
            .run(&blocks);
        let mut s = MetricDeltaStream::sliding(MetricKind::ShannonEntropy, spec);
        assert_eq!(push_all(&mut s, &blocks), batch.points);
    }

    #[test]
    fn finish_is_idempotent_and_into_points_drains() {
        let blocks = stream(&[0, 1], 50, 3600, 0);
        let origin = Timestamp::year_2019_start();
        let mut s = MetricDeltaStream::fixed(MetricKind::Nakamoto, Granularity::Day, origin);
        for b in &blocks {
            s.push_block(b).unwrap();
        }
        s.finish();
        s.finish();
        let n = s.ready_len();
        let batch = MeasurementEngine::new(MetricKind::Nakamoto)
            .fixed_calendar(Granularity::Day, origin)
            .run(&blocks);
        assert_eq!(n, batch.points.len());

        let mut s2 = MetricDeltaStream::fixed(MetricKind::Nakamoto, Granularity::Day, origin);
        for b in &blocks {
            s2.push_block(b).unwrap();
        }
        assert_eq!(s2.into_points(), batch.points);
    }

    #[test]
    fn label_matches_batch_series() {
        let s = MetricDeltaStream::sliding(MetricKind::Gini, SlidingWindowSpec::new(10, 5));
        assert_eq!(s.label(), WindowLabel::SlidingBlocks { size: 10, step: 5 });
        let f = MetricDeltaStream::fixed(
            MetricKind::Gini,
            Granularity::Week,
            Timestamp::year_2019_start(),
        );
        assert!(matches!(f.label(), WindowLabel::FixedCalendar { .. }));
    }
}

//! Time-based sliding windows (methodological extension).
//!
//! The paper's sliding windows are *block-count* windows: N blocks
//! advancing M blocks (§III-A). On Bitcoin, block production varies ±30%
//! around 144/day with difficulty lag, so a 144-block window sometimes
//! spans 18 hours and sometimes 30 — the measurement granularity itself
//! wobbles. A *time-based* sliding window (duration D seconds advancing
//! S seconds) holds the calendar span fixed and lets the block count
//! vary instead, which is the natural dual and a useful robustness check
//! on any conclusion drawn from block-count windows.
//!
//! Assignment is by timestamp. Windows are emitted only when they contain
//! at least one block; `L = (total_span − D) / S + 1` full windows are
//! considered, mirroring Eq. 5 in the time domain. Windows start at the
//! first block's timestamp, or at the earliest aligned start that can
//! contain a block when [`TimeWindowSpec::align`] is set.

use blockdec_chain::Timestamp;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Duration/step parameters of a time-based sliding window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeWindowSpec {
    /// Window duration in seconds. Must be ≥ 1.
    pub duration_secs: i64,
    /// Step in seconds. Must be ≥ 1.
    pub step_secs: i64,
    /// Optional alignment instant: windows start at
    /// `align + k·step` instead of at the first block's timestamp.
    /// Aligning to midnight makes a 24h/24h spec coincide with calendar
    /// days.
    pub align: Option<i64>,
}

impl TimeWindowSpec {
    /// A window with explicit duration and step.
    ///
    /// # Panics
    /// If either parameter is non-positive.
    pub fn new(duration_secs: i64, step_secs: i64) -> TimeWindowSpec {
        assert!(duration_secs > 0, "duration must be positive");
        assert!(step_secs > 0, "step must be positive");
        TimeWindowSpec {
            duration_secs,
            step_secs,
            align: None,
        }
    }

    /// Anchor window starts at `align + k·step` (builder style).
    pub fn aligned(mut self, align: Timestamp) -> TimeWindowSpec {
        self.align = Some(align.secs());
        self
    }

    /// The paper's half-overlap convention in the time domain:
    /// step = duration/2.
    pub fn paper(duration_secs: i64) -> TimeWindowSpec {
        assert!(duration_secs >= 2, "paper windows need duration >= 2");
        TimeWindowSpec::new(duration_secs, duration_secs / 2)
    }

    /// Eq. 5 in the time domain: number of full windows inside
    /// `[start, end)`.
    pub fn window_count(&self, start: Timestamp, end: Timestamp) -> usize {
        let span = end.secs() - start.secs();
        if span < self.duration_secs {
            0
        } else {
            ((span - self.duration_secs) / self.step_secs + 1) as usize
        }
    }

    /// The half-open time range `[window_start, window_end)` of window
    /// `i` from an origin.
    pub fn window_span(&self, i: usize, origin: Timestamp) -> Range<i64> {
        let start = origin.secs() + i as i64 * self.step_secs;
        start..start + self.duration_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WindowSpec;
    use crate::window::Windows;
    use blockdec_chain::{AttributedBlock, BlockColumns, Credit, ProducerId};

    fn block(i: u64, t: i64) -> AttributedBlock {
        AttributedBlock {
            height: i,
            timestamp: Timestamp(t),
            credits: vec![Credit {
                producer: ProducerId(0),
                weight: 1.0,
            }],
        }
    }

    /// Form `spec` over `blocks` with the crate's formation entry: each
    /// window's index and its blocks, in evaluation order.
    fn time_windows(
        blocks: &[AttributedBlock],
        spec: TimeWindowSpec,
    ) -> Vec<(usize, Vec<AttributedBlock>)> {
        let cols = BlockColumns::from_blocks(blocks);
        let w = Windows::form(cols.as_slice(), WindowSpec::SlidingTime(spec));
        let evaluated = w.blocks();
        w.ranges
            .iter()
            .map(|(index, range)| {
                let inside = evaluated.slice(range.start, range.end);
                (*index as usize, inside.to_blocks())
            })
            .collect()
    }

    #[test]
    fn window_count_mirrors_eq5() {
        let spec = TimeWindowSpec::new(100, 50);
        assert_eq!(spec.window_count(Timestamp(0), Timestamp(300)), 5);
        assert_eq!(spec.window_count(Timestamp(0), Timestamp(100)), 1);
        assert_eq!(spec.window_count(Timestamp(0), Timestamp(99)), 0);
    }

    #[test]
    fn paper_convention_halves() {
        let s = TimeWindowSpec::paper(86_400);
        assert_eq!(s.duration_secs, 86_400);
        assert_eq!(s.step_secs, 43_200);
    }

    #[test]
    fn spans_advance_by_step() {
        let spec = TimeWindowSpec::new(100, 40);
        assert_eq!(spec.window_span(0, Timestamp(1000)), 1000..1100);
        assert_eq!(spec.window_span(1, Timestamp(1000)), 1040..1140);
        assert_eq!(spec.window_span(2, Timestamp(1000)), 1080..1180);
    }

    #[test]
    fn blocks_partition_into_windows() {
        // Blocks every 10s from t=0 to t=190.
        let blocks: Vec<AttributedBlock> = (0..20).map(|i| block(i, i as i64 * 10)).collect();
        let spec = TimeWindowSpec::new(50, 25);
        let windows = time_windows(&blocks, spec);
        assert!(!windows.is_empty());
        for (index, inside) in &windows {
            // Exactly the blocks inside the span, nothing just outside.
            let span = spec.window_span(*index, Timestamp(0));
            let expected: Vec<AttributedBlock> = blocks
                .iter()
                .filter(|b| span.contains(&b.timestamp.secs()))
                .cloned()
                .collect();
            assert_eq!(inside, &expected);
        }
        // Half-overlap: consecutive windows share blocks.
        assert!(
            windows[0].1.iter().any(|b| windows[1].1.contains(b)),
            "consecutive windows must overlap"
        );
    }

    #[test]
    fn empty_windows_are_skipped() {
        // A burst of blocks, a long silence, another burst.
        let mut blocks: Vec<AttributedBlock> = (0..5).map(|i| block(i, i as i64)).collect();
        blocks.extend((0..5).map(|i| block(100 + i, 1_000 + i as i64)));
        let spec = TimeWindowSpec::new(10, 5);
        let windows = time_windows(&blocks, spec);
        assert!(windows.iter().all(|(_, inside)| !inside.is_empty()));
        // Silence (t=5..1000) produces no windows.
        assert!(windows.iter().all(|(index, _)| {
            let span = spec.window_span(*index, Timestamp(0));
            span.start < 10 || span.end > 1_000
        }));
    }

    #[test]
    fn empty_input() {
        assert!(time_windows(&[], TimeWindowSpec::new(10, 5)).is_empty());
    }

    #[test]
    fn stream_shorter_than_one_window_yields_nothing() {
        // Eq. 5 semantics: spans shorter than the duration emit no full
        // window — a lone block cannot fill a 10s window.
        let blocks = vec![block(0, 500)];
        assert!(time_windows(&blocks, TimeWindowSpec::new(10, 5)).is_empty());
    }

    #[test]
    fn span_exactly_one_window() {
        let blocks: Vec<AttributedBlock> = (0..10).map(|i| block(i, i as i64)).collect();
        let windows = time_windows(&blocks, TimeWindowSpec::new(10, 5));
        assert_eq!(windows, vec![(0, blocks)]);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_panics() {
        TimeWindowSpec::new(0, 1);
    }

    #[test]
    fn out_of_order_stream_forms_like_a_sorted_copy() {
        // Jittered timestamps, deliberately out of order.
        let times = [50i64, 10, 30, 0, 40, 20, 60, 35];
        let blocks: Vec<AttributedBlock> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| block(i as u64, t))
            .collect();
        let mut sorted = blocks.clone();
        sorted.sort_by_key(|b| (b.timestamp, b.height));
        let spec = TimeWindowSpec::new(25, 10);
        assert_eq!(time_windows(&blocks, spec), time_windows(&sorted, spec));
    }

    #[test]
    fn fixed_block_count_varies_under_time_windows() {
        // Accelerating production: earlier time windows hold fewer blocks
        // than later ones — the wobble block-count windows hide.
        let mut t = 0i64;
        let blocks: Vec<AttributedBlock> = (0..100)
            .map(|i| {
                t += 100 - i / 2; // speeding up
                block(i as u64, t)
            })
            .collect();
        let windows = time_windows(&blocks, TimeWindowSpec::new(1_000, 500));
        let first = windows.first().unwrap().1.len();
        let last = windows.last().unwrap().1.len();
        assert!(
            last > first,
            "late windows must hold more blocks ({first} vs {last})"
        );
    }
}

//! Property tests for the columnar (SoA) block layout.
//!
//! The round trip `Vec<AttributedBlock>` → [`BlockColumns`] →
//! `Vec<AttributedBlock>` must be lossless for arbitrary streams —
//! including zero-credit and multi-credit blocks — and
//! [`ColumnsSlice`] windowing must agree exactly with AoS slicing.

use blockdec_chain::{AttributedBlock, BlockColumns, Credit, ProducerId, Timestamp};
use proptest::prelude::*;

/// Strategy for one block's credit list: empty (attribution anomaly),
/// the common single credit, or a multi-credit coinbase of up to 16.
fn credits_strategy() -> impl Strategy<Value = Vec<Credit>> {
    proptest::collection::vec(
        (0u32..50, 1u32..5).prop_map(|(p, w)| Credit {
            producer: ProducerId(p),
            weight: f64::from(w),
        }),
        0..16,
    )
}

/// Strategy for a height-ordered attributed stream with jittered
/// timestamps.
fn stream_strategy() -> impl Strategy<Value = Vec<AttributedBlock>> {
    proptest::collection::vec((credits_strategy(), 0i64..10_000), 0..64).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (credits, jitter))| AttributedBlock {
                height: 500_000 + i as u64,
                timestamp: Timestamp(1_546_300_800 + i as i64 * 600 + jitter),
                credits,
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn round_trip_is_lossless(blocks in stream_strategy()) {
        let cols = BlockColumns::from_blocks(&blocks);
        prop_assert!(cols.validate().is_ok());
        prop_assert_eq!(cols.len(), blocks.len());
        prop_assert_eq!(
            cols.credit_count(),
            blocks.iter().map(|b| b.credits.len()).sum::<usize>()
        );
        prop_assert_eq!(cols.to_blocks(), blocks);
    }

    #[test]
    fn push_attributed_equals_from_blocks(blocks in stream_strategy()) {
        let mut pushed = BlockColumns::new();
        for b in &blocks {
            pushed.push_attributed(b);
        }
        prop_assert_eq!(pushed, BlockColumns::from_blocks(&blocks));
    }

    #[test]
    fn slice_windowing_matches_aos_slicing(
        blocks in stream_strategy(),
        a in 0usize..65,
        b in 0usize..65,
    ) {
        let lo = a.min(b).min(blocks.len());
        let hi = a.max(b).min(blocks.len());
        let cols = BlockColumns::from_blocks(&blocks);

        // Windowing over the columns equals windowing over the Vec.
        let window = cols.slice(lo, hi);
        prop_assert_eq!(window.to_blocks(), blocks[lo..hi].to_vec());

        // Rebasing a window to owned columns loses nothing either.
        let rebased = window.to_columns();
        prop_assert!(rebased.validate().is_ok());
        prop_assert_eq!(rebased.to_blocks(), blocks[lo..hi].to_vec());

        // Per-block accessors agree with the AoS view inside the window.
        for (k, blk) in blocks[lo..hi].iter().enumerate() {
            prop_assert_eq!(window.height(k), blk.height);
            prop_assert_eq!(window.timestamp(k), blk.timestamp);
            prop_assert_eq!(window.producers_of(k).len(), blk.credits.len());
        }

        // The flat credits of a block range are its blocks' credits in
        // block order.
        let (producers, weights) = cols.as_slice().credits_in(lo..hi);
        let flat: Vec<Credit> = blocks[lo..hi].iter().flat_map(|b| b.credits.clone()).collect();
        prop_assert_eq!(producers.to_vec(), flat.iter().map(|c| c.producer).collect::<Vec<_>>());
        prop_assert_eq!(weights.to_vec(), flat.iter().map(|c| c.weight).collect::<Vec<_>>());

        // Appending the sub-slice to non-empty columns rebases its credit
        // offsets: the same as converting the concatenation.
        let head = vec![
            AttributedBlock {
                height: 1,
                timestamp: Timestamp(1_546_300_000),
                credits: vec![Credit { producer: ProducerId(7), weight: 2.0 }],
            },
            AttributedBlock {
                height: 2,
                timestamp: Timestamp(1_546_300_100),
                credits: Vec::new(),
            },
        ];
        let mut appended = BlockColumns::from_blocks(&head);
        appended.append_columns(window);
        prop_assert!(appended.validate().is_ok());
        let joined: Vec<AttributedBlock> = head.iter().chain(&blocks[lo..hi]).cloned().collect();
        prop_assert_eq!(appended, BlockColumns::from_blocks(&joined));
    }

    #[test]
    fn extend_rows_equals_a_push_row_stream(rows in row_strategy()) {
        let mut reference = BlockColumns::new();
        for r in &rows {
            push(&mut reference, r);
        }
        prop_assert!(reference.validate().is_ok());
        // Every split point: the head pushed row by row, or appended in
        // bulk onto empty columns, then the rest in bulk. A split inside
        // a same-height run appends onto a receiver whose last height is
        // the run's first height.
        for split in 0..=rows.len() {
            let (head, rest) = rows.split_at(split);
            let mut pushed = BlockColumns::new();
            for r in head {
                push(&mut pushed, r);
            }
            extend(&mut pushed, rest);
            prop_assert!(pushed.validate().is_ok());
            prop_assert_eq!(&pushed, &reference, "pushed head, split at {}", split);

            let mut bulk = BlockColumns::new();
            extend(&mut bulk, head);
            extend(&mut bulk, rest);
            prop_assert_eq!(&bulk, &reference, "bulk head, split at {}", split);
        }
    }
}

/// A scan row: `(height, timestamp, producer, weight)`.
type Row = (u64, i64, u32, f64);

/// Strategy for rows as a scan yields them: heights that repeat (a
/// multi-credit block), step by one, or jump, with a timestamp per row
/// so the first-timestamp-wins rule is visible.
fn row_strategy() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((0u64..4, 0i64..1_000, 0u32..20, 1u32..4), 0..48).prop_map(|specs| {
        let mut height = 500_000;
        specs
            .into_iter()
            .map(|(step, t, p, w)| {
                height += step.saturating_sub(1);
                (height, 1_546_300_800 + t, p, f64::from(w) / 3.0)
            })
            .collect()
    })
}

fn push(cols: &mut BlockColumns, &(h, t, p, w): &Row) {
    cols.push_row(h, Timestamp(t), ProducerId(p), w);
}

fn extend(cols: &mut BlockColumns, rows: &[Row]) {
    let heights: Vec<u64> = rows.iter().map(|r| r.0).collect();
    let timestamps: Vec<i64> = rows.iter().map(|r| r.1).collect();
    cols.extend_rows(
        &heights,
        &timestamps,
        rows.iter().map(|r| ProducerId(r.2)),
        rows.iter().map(|r| r.3),
    );
}

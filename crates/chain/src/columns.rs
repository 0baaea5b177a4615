//! Struct-of-arrays block columns: the canonical in-memory credit stream.
//!
//! [`AttributedBlock`] is convenient at the edges, but a year of Ethereum
//! is ~2.4M blocks and the AoS form costs one heap `Vec<Credit>` per block
//! — millions of 1-element allocations that every window sweep then
//! pointer-chases. [`BlockColumns`] stores the same information as five
//! flat parallel columns:
//!
//! ```text
//! heights:       [h0, h1, h2, ...]               one entry per block
//! timestamps:    [t0, t1, t2, ...]               one entry per block
//! credit_starts: [0, c0, c0+c1, ...]             len + 1 CSR offsets
//! producers:     [p00, p10, p11, p20, ...]       one entry per credit
//! weights:       [w00, w10, w11, w20, ...]       one entry per credit
//! ```
//!
//! Block `i`'s credits live at `credit_starts[i]..credit_starts[i + 1]`
//! in the credit columns (the classic CSR layout). Conversions to and
//! from `&[AttributedBlock]` are lossless, and [`ColumnsSlice`] gives a
//! cheap borrowed view of any block range without copying credits.
//!
//! Because a block range's credits are contiguous, whole ranges move as
//! flat runs: [`ColumnsSlice::credits_in`] borrows a range's credits as
//! two parallel slices (what the window core's slide adds and removes),
//! and [`BlockColumns::extend_columns`] appends a range with five bulk
//! copies and one offset rebase. That one append serves the chunked
//! scan's stitch ([`BlockColumns::append_columns`]),
//! [`ColumnsSlice::to_columns`] and the core's delta streams; none of
//! them copies a block or a credit at a time.

use crate::attribution::{AttributedBlock, Credit};
use crate::producer::ProducerId;
use crate::time::Timestamp;
use std::ops::Range;

/// Columnar (struct-of-arrays) storage for an attributed block stream.
///
/// Invariants (checked by [`BlockColumns::validate`]):
///
/// - `heights.len() == timestamps.len() == len`
/// - `credit_starts.len() == len + 1`, `credit_starts[0] == 0`,
///   entries non-decreasing, last entry `== producers.len()`
/// - `producers.len() == weights.len()`
///
/// Heights are expected (but not structurally required) to be strictly
/// increasing; the store's scan paths guarantee it, while
/// [`BlockColumns::from_blocks`] preserves whatever order the input had.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockColumns {
    heights: Vec<u64>,
    timestamps: Vec<i64>,
    credit_starts: Vec<u32>,
    producers: Vec<ProducerId>,
    weights: Vec<f64>,
}

impl Default for BlockColumns {
    fn default() -> BlockColumns {
        BlockColumns::new()
    }
}

impl BlockColumns {
    /// Empty columns.
    pub fn new() -> BlockColumns {
        BlockColumns {
            heights: Vec::new(),
            timestamps: Vec::new(),
            credit_starts: vec![0],
            producers: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Empty columns with room for `blocks` blocks and `credits` credits.
    pub fn with_capacity(blocks: usize, credits: usize) -> BlockColumns {
        let mut starts = Vec::with_capacity(blocks + 1);
        starts.push(0);
        BlockColumns {
            heights: Vec::with_capacity(blocks),
            timestamps: Vec::with_capacity(blocks),
            credit_starts: starts,
            producers: Vec::with_capacity(credits),
            weights: Vec::with_capacity(credits),
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.heights.len()
    }

    /// True when no blocks have been pushed.
    pub fn is_empty(&self) -> bool {
        self.heights.is_empty()
    }

    /// Total number of credits across all blocks.
    pub fn credit_count(&self) -> usize {
        self.producers.len()
    }

    /// Start a new block with no credits yet. Credits pushed with
    /// [`BlockColumns::push_credit`] attach to the most recent block.
    pub fn push_block(&mut self, height: u64, timestamp: Timestamp) {
        self.heights.push(height);
        self.timestamps.push(timestamp.secs());
        self.credit_starts.push(self.producers.len() as u32);
    }

    /// Append a credit to the most recently pushed block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been pushed yet.
    pub fn push_credit(&mut self, producer: ProducerId, weight: f64) {
        assert!(
            !self.heights.is_empty(),
            "push_credit before any push_block"
        );
        self.producers.push(producer);
        self.weights.push(weight);
        let end = self.credit_starts.len() - 1;
        self.credit_starts[end] = self.producers.len() as u32;
    }

    /// Append one `(height, timestamp, producer, weight)` row, regrouping
    /// rows that share a height into one block — the streaming shape the
    /// store's scans produce. The first row of a height supplies the
    /// block timestamp, as in the store's `scan_attributed` regroup.
    pub fn push_row(
        &mut self,
        height: u64,
        timestamp: Timestamp,
        producer: ProducerId,
        weight: f64,
    ) {
        if self.heights.last() != Some(&height) {
            self.push_block(height, timestamp);
        }
        self.push_credit(producer, weight);
    }

    /// Append the blocks of `other`, a view of other columns, after this
    /// set's blocks, as separate blocks. All five columns are bulk
    /// copies, `other`'s credit offsets rebased onto this set's credit
    /// columns, so the append costs O(moved bytes) with no per-block or
    /// per-credit work. Every copy of a contiguous block range goes
    /// through it: [`BlockColumns::append_columns`],
    /// [`ColumnsSlice::to_columns`] and the core's delta streams.
    pub fn extend_columns(&mut self, other: ColumnsSlice<'_>) {
        let base = self.producers.len() as u32;
        let from = other.credit_starts[0];
        self.heights.extend_from_slice(other.heights);
        self.timestamps.extend_from_slice(other.timestamps);
        self.producers.extend_from_slice(other.producers);
        self.weights.extend_from_slice(other.weights);
        self.credit_starts
            .extend(other.credit_starts[1..].iter().map(|&s| base + (s - from)));
    }

    /// Append columns built from the rows that followed this set's in
    /// scan order: the stitch step of a chunked parallel scan, where each
    /// worker builds a partial `BlockColumns` and the partials are
    /// concatenated in height order.
    ///
    /// When `other`'s first block has the same height as this set's last
    /// block (a multi-credit block straddling the chunk boundary), the
    /// two are merged into one block: `other`'s leading credits join the
    /// existing block and this set's timestamp wins, exactly as
    /// [`BlockColumns::push_row`] regroups a same-height run. The rest is
    /// one [`BlockColumns::extend_columns`].
    pub fn append_columns(&mut self, other: ColumnsSlice<'_>) {
        let mut rest = other;
        if !other.is_empty() && self.heights.last() == Some(&other.heights[0]) {
            // The boundary block absorbs other's leading credit run.
            let (producers, weights) = other.credits_in(0..1);
            self.producers.extend_from_slice(producers);
            self.weights.extend_from_slice(weights);
            let end = self.credit_starts.len() - 1;
            self.credit_starts[end] = self.producers.len() as u32;
            rest = other.slice(1, other.len());
        }
        self.extend_columns(rest);
    }

    /// Append a whole attributed block (including zero-credit blocks).
    pub fn push_attributed(&mut self, block: &AttributedBlock) {
        self.push_block(block.height, block.timestamp);
        for c in &block.credits {
            self.push_credit(c.producer, c.weight);
        }
    }

    /// Lossless conversion from the AoS representation.
    pub fn from_blocks(blocks: &[AttributedBlock]) -> BlockColumns {
        let credits = blocks.iter().map(|b| b.credits.len()).sum();
        let mut cols = BlockColumns::with_capacity(blocks.len(), credits);
        for b in blocks {
            cols.push_attributed(b);
        }
        cols
    }

    /// Lossless conversion back to the AoS representation.
    pub fn to_blocks(&self) -> Vec<AttributedBlock> {
        self.as_slice().to_blocks()
    }

    /// Borrowed view of every block.
    pub fn as_slice(&self) -> ColumnsSlice<'_> {
        ColumnsSlice {
            heights: &self.heights,
            timestamps: &self.timestamps,
            credit_starts: &self.credit_starts,
            producers: &self.producers,
            weights: &self.weights,
        }
    }

    /// Borrowed view of the block range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.len()`.
    pub fn slice(&self, lo: usize, hi: usize) -> ColumnsSlice<'_> {
        self.as_slice().slice(lo, hi)
    }

    /// Height of block `i`.
    pub fn height(&self, i: usize) -> u64 {
        self.heights[i]
    }

    /// Timestamp of block `i`.
    pub fn timestamp(&self, i: usize) -> Timestamp {
        Timestamp(self.timestamps[i])
    }

    /// Producer column for block `i`'s credits.
    pub fn producers_of(&self, i: usize) -> &[ProducerId] {
        self.as_slice().producers_of(i)
    }

    /// Weight column for block `i`'s credits.
    pub fn weights_of(&self, i: usize) -> &[f64] {
        self.as_slice().weights_of(i)
    }

    /// Approximate resident heap bytes of the five columns. Unlike the
    /// AoS form this is exact up to `Vec` over-allocation: there are no
    /// per-block heap cells to guess at.
    pub fn resident_bytes(&self) -> usize {
        self.heights.len() * std::mem::size_of::<u64>()
            + self.timestamps.len() * std::mem::size_of::<i64>()
            + self.credit_starts.len() * std::mem::size_of::<u32>()
            + self.producers.len() * std::mem::size_of::<ProducerId>()
            + self.weights.len() * std::mem::size_of::<f64>()
    }

    /// Check the structural invariants listed on the type. Returns a
    /// human-readable description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let len = self.heights.len();
        if self.timestamps.len() != len {
            return Err(format!(
                "timestamps length {} != heights length {len}",
                self.timestamps.len()
            ));
        }
        if self.credit_starts.len() != len + 1 {
            return Err(format!(
                "credit_starts length {} != blocks + 1 ({})",
                self.credit_starts.len(),
                len + 1
            ));
        }
        if self.credit_starts[0] != 0 {
            return Err(format!(
                "credit_starts[0] is {}, expected 0",
                self.credit_starts[0]
            ));
        }
        if let Some(i) = (1..self.credit_starts.len())
            .find(|&i| self.credit_starts[i] < self.credit_starts[i - 1])
        {
            return Err(format!(
                "credit_starts not non-decreasing at {i}: {} then {}",
                self.credit_starts[i - 1],
                self.credit_starts[i]
            ));
        }
        let last = self.credit_starts[self.credit_starts.len() - 1] as usize;
        if last != self.producers.len() {
            return Err(format!(
                "credit_starts end {last} != producer count {}",
                self.producers.len()
            ));
        }
        if self.producers.len() != self.weights.len() {
            return Err(format!(
                "producers length {} != weights length {}",
                self.producers.len(),
                self.weights.len()
            ));
        }
        Ok(())
    }
}

/// Borrowed block-range view over [`BlockColumns`].
///
/// `credit_starts` keeps the parent's **absolute** offsets; per-block
/// credit ranges subtract `credit_starts[0]`, so re-slicing is O(1) and
/// never copies or rewrites the credit columns.
#[derive(Clone, Copy, Debug)]
pub struct ColumnsSlice<'a> {
    heights: &'a [u64],
    timestamps: &'a [i64],
    /// `len + 1` absolute offsets into the parent's credit columns.
    credit_starts: &'a [u32],
    /// Credit columns restricted to this block range.
    producers: &'a [ProducerId],
    weights: &'a [f64],
}

impl<'a> ColumnsSlice<'a> {
    /// Number of blocks in the view.
    pub fn len(&self) -> usize {
        self.heights.len()
    }

    /// True when the view covers no blocks.
    pub fn is_empty(&self) -> bool {
        self.heights.is_empty()
    }

    /// Total number of credits in the view.
    pub fn credit_count(&self) -> usize {
        self.producers.len()
    }

    /// Height of block `i`.
    pub fn height(&self, i: usize) -> u64 {
        self.heights[i]
    }

    /// Timestamp of block `i`.
    pub fn timestamp(&self, i: usize) -> Timestamp {
        Timestamp(self.timestamps[i])
    }

    /// The timestamp column (seconds), one entry per block.
    pub fn timestamps(&self) -> &'a [i64] {
        self.timestamps
    }

    /// Range of this view's credit columns holding the credits of the
    /// block range `blocks`.
    fn credit_range(&self, blocks: Range<usize>) -> Range<usize> {
        let base = self.credit_starts[0] as usize;
        (self.credit_starts[blocks.start] as usize - base)
            ..(self.credit_starts[blocks.end] as usize - base)
    }

    /// Producer column for block `i`'s credits.
    pub fn producers_of(&self, i: usize) -> &'a [ProducerId] {
        &self.producers[self.credit_range(i..i + 1)]
    }

    /// The flat producer and weight columns of the contiguous block range
    /// `blocks`: every credit of those blocks, in block order, as two
    /// parallel slices.
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing or ends past [`ColumnsSlice::len`].
    pub fn credits_in(&self, blocks: Range<usize>) -> (&'a [ProducerId], &'a [f64]) {
        let credits = self.credit_range(blocks);
        (&self.producers[credits.clone()], &self.weights[credits])
    }

    /// Weight column for block `i`'s credits.
    pub fn weights_of(&self, i: usize) -> &'a [f64] {
        &self.weights[self.credit_range(i..i + 1)]
    }

    /// Total credit weight of block `i` (1.0 except for multi-credit
    /// anomaly blocks in per-address mode).
    pub fn total_weight(&self, i: usize) -> f64 {
        self.weights_of(i).iter().sum()
    }

    /// Sub-view of the block range `lo..hi` (relative to this view).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.len()`.
    pub fn slice(&self, lo: usize, hi: usize) -> ColumnsSlice<'a> {
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of range"
        );
        let credits = self.credit_range(lo..hi);
        ColumnsSlice {
            heights: &self.heights[lo..hi],
            timestamps: &self.timestamps[lo..hi],
            credit_starts: &self.credit_starts[lo..=hi],
            producers: &self.producers[credits.clone()],
            weights: &self.weights[credits],
        }
    }

    /// Materialize the view as owned AoS blocks.
    pub fn to_blocks(&self) -> Vec<AttributedBlock> {
        (0..self.len())
            .map(|i| AttributedBlock {
                height: self.height(i),
                timestamp: self.timestamp(i),
                credits: self
                    .producers_of(i)
                    .iter()
                    .zip(self.weights_of(i))
                    .map(|(&producer, &weight)| Credit { producer, weight })
                    .collect(),
            })
            .collect()
    }

    /// Copy the view into fresh owned columns (offsets rebased to 0).
    pub fn to_columns(&self) -> BlockColumns {
        let mut cols = BlockColumns::with_capacity(self.len(), self.credit_count());
        cols.extend_columns(*self);
        cols
    }

    /// Copy the blocks at positions `order` into fresh owned columns, in
    /// that order: block `j` of the result is block `order[j]` of this
    /// view. Each block's credits move as one slice.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range.
    pub fn gather(&self, order: &[u32]) -> BlockColumns {
        let mut cols = BlockColumns::with_capacity(order.len(), self.credit_count());
        for &i in order {
            let i = i as usize;
            let (producers, weights) = self.credits_in(i..i + 1);
            cols.heights.push(self.heights[i]);
            cols.timestamps.push(self.timestamps[i]);
            cols.producers.extend_from_slice(producers);
            cols.weights.extend_from_slice(weights);
            cols.credit_starts.push(cols.producers.len() as u32);
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(height: u64, secs: i64, credits: &[(u32, f64)]) -> AttributedBlock {
        AttributedBlock {
            height,
            timestamp: Timestamp(secs),
            credits: credits
                .iter()
                .map(|&(p, weight)| Credit {
                    producer: ProducerId(p),
                    weight,
                })
                .collect(),
        }
    }

    fn sample() -> Vec<AttributedBlock> {
        vec![
            block(10, 100, &[(0, 1.0)]),
            block(11, 160, &[(1, 1.0), (2, 1.0), (3, 1.0)]),
            block(12, 220, &[]),
            block(13, 280, &[(0, 0.5), (4, 0.5)]),
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let blocks = sample();
        let cols = BlockColumns::from_blocks(&blocks);
        cols.validate().unwrap();
        assert_eq!(cols.len(), 4);
        assert_eq!(cols.credit_count(), 6);
        assert_eq!(cols.to_blocks(), blocks);
    }

    #[test]
    fn empty_columns_are_valid() {
        let cols = BlockColumns::new();
        cols.validate().unwrap();
        assert!(cols.is_empty());
        assert_eq!(cols.to_blocks(), Vec::<AttributedBlock>::new());
        assert!(cols.as_slice().is_empty());
    }

    #[test]
    fn per_block_accessors() {
        let cols = BlockColumns::from_blocks(&sample());
        assert_eq!(cols.height(1), 11);
        assert_eq!(cols.timestamp(1), Timestamp(160));
        assert_eq!(
            cols.producers_of(1),
            &[ProducerId(1), ProducerId(2), ProducerId(3)]
        );
        assert_eq!(cols.weights_of(2), &[] as &[f64]);
        assert_eq!(cols.as_slice().total_weight(3), 1.0);
    }

    #[test]
    fn slice_matches_aos_slicing() {
        let blocks = sample();
        let cols = BlockColumns::from_blocks(&blocks);
        for lo in 0..=blocks.len() {
            for hi in lo..=blocks.len() {
                assert_eq!(cols.slice(lo, hi).to_blocks(), blocks[lo..hi].to_vec());
            }
        }
    }

    #[test]
    fn nested_slicing_keeps_offsets_straight() {
        let blocks = sample();
        let cols = BlockColumns::from_blocks(&blocks);
        let mid = cols.slice(1, 4); // blocks 11, 12, 13
        let inner = mid.slice(2, 3); // block 13
        assert_eq!(inner.len(), 1);
        assert_eq!(inner.height(0), 13);
        assert_eq!(inner.producers_of(0), &[ProducerId(0), ProducerId(4)]);
        assert_eq!(inner.to_blocks(), vec![blocks[3].clone()]);
        // Rebased copy is equal to converting the same AoS range.
        assert_eq!(inner.to_columns(), BlockColumns::from_blocks(&blocks[3..4]));
    }

    #[test]
    fn push_row_regroups_same_height_runs() {
        let mut cols = BlockColumns::new();
        cols.push_row(5, Timestamp(50), ProducerId(0), 1.0);
        cols.push_row(6, Timestamp(60), ProducerId(1), 1.0);
        // Same height: later rows join the block; first timestamp wins.
        cols.push_row(6, Timestamp(999), ProducerId(2), 1.0);
        cols.validate().unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols.timestamp(1), Timestamp(60));
        assert_eq!(cols.producers_of(1), &[ProducerId(1), ProducerId(2)]);
    }

    #[test]
    fn append_columns_matches_push_row_stream() {
        // Rows as a scan would yield them, with a multi-credit height.
        let rows: Vec<(u64, i64, u32)> = vec![
            (5, 50, 0),
            (6, 60, 1),
            (6, 60, 2), // same height: regrouped
            (7, 70, 0),
            (8, 80, 3),
        ];
        let mut reference = BlockColumns::new();
        for &(h, t, p) in &rows {
            reference.push_row(h, Timestamp(t), ProducerId(p), 1.0);
        }
        // Every split point, including one inside the height-6 run, must
        // stitch back to the reference — CSR offsets included.
        for split in 0..=rows.len() {
            let mut left = BlockColumns::new();
            for &(h, t, p) in &rows[..split] {
                left.push_row(h, Timestamp(t), ProducerId(p), 1.0);
            }
            let mut right = BlockColumns::new();
            for &(h, t, p) in &rows[split..] {
                right.push_row(h, Timestamp(t), ProducerId(p), 1.0);
            }
            left.append_columns(right.as_slice());
            left.validate().unwrap();
            assert_eq!(left, reference, "split at {split}");
        }
    }

    #[test]
    fn append_columns_keeps_first_timestamp_on_merge() {
        let mut left = BlockColumns::new();
        left.push_row(9, Timestamp(90), ProducerId(0), 1.0);
        let mut right = BlockColumns::new();
        right.push_row(9, Timestamp(999), ProducerId(1), 1.0);
        left.append_columns(right.as_slice());
        left.validate().unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left.timestamp(0), Timestamp(90), "first timestamp wins");
        assert_eq!(left.producers_of(0), &[ProducerId(0), ProducerId(1)]);
    }

    #[test]
    fn validate_reports_broken_offsets() {
        let mut cols = BlockColumns::from_blocks(&sample());
        cols.credit_starts[1] = 99;
        assert!(cols.validate().is_err());
    }

    #[test]
    fn resident_bytes_counts_flat_columns() {
        let cols = BlockColumns::from_blocks(&sample());
        // 4 blocks * (8 + 8) + 5 starts * 4 + 6 credits * (4 + 8).
        assert_eq!(cols.resident_bytes(), 4 * 16 + 5 * 4 + 6 * 12);
    }

    #[test]
    #[should_panic(expected = "push_credit before any push_block")]
    fn push_credit_without_block_panics() {
        BlockColumns::new().push_credit(ProducerId(0), 1.0);
    }
}

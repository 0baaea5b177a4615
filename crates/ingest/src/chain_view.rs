//! Reorg-aware chain tracking for head-following ingestion.
//!
//! [`ChainView`] is the seam between a live block feed (e.g.
//! `blockdec_sim::ChainFeed`) and the durable [`BlockStore`]: it splits
//! the chain into a **finalized** region that has been attributed and
//! appended to the store — and never changes again — and a **pending**
//! tail of the most recent `finality_depth` blocks held in memory, which
//! can still be rolled back by a reorg. The split mirrors apibara's
//! `chain_view`/`ingestion` design (segmented finalized data plus a
//! pending region), adapted to this repo's columnar store.
//!
//! The correctness contract is bitwise: blocks are attributed **only**
//! when they finalize, in canonical order, so the producer registry and
//! the appended rows are exactly what a one-shot batch load of the final
//! chain would produce — however many forks and rollbacks happened along
//! the way. `tests/live_follow.rs` asserts this with `assert_eq!` across
//! the full paper matrix.

use crate::error::{IngestError, Result};
use blockdec_chain::{AttributedBlock, AttributionMode, Attributor, Block, BlockHash, ChainKind};
use blockdec_store::BlockStore;
use std::collections::VecDeque;

/// What one [`ChainView::apply`] call did to the tracked chain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeadUpdate {
    /// Pending blocks dropped because the new block attached to an
    /// ancestor (0 on a plain head extension).
    pub rolled_back: usize,
    /// Blocks that crossed the finality watermark and were appended to
    /// the store.
    pub finalized: usize,
}

/// Cumulative reorg bookkeeping for a view's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorgStats {
    /// Reorgs applied (rollback events).
    pub applied: u64,
    /// Pending blocks dropped across all reorgs.
    pub blocks_dropped: u64,
    /// Deepest single rollback.
    pub deepest: usize,
}

/// The canonical chain as seen by a head-following consumer: finalized
/// blocks in the store, the pending tail in memory.
pub struct ChainView {
    store: BlockStore,
    attributor: Attributor,
    finality_depth: usize,
    pending: VecDeque<Block>,
    finalized_height: Option<u64>,
    /// Hash of the last finalized block; `None` when the view adopted an
    /// existing store (heights still guard attachment there).
    finalized_hash: Option<BlockHash>,
    accepted: u64,
    finalized: u64,
    reorgs: ReorgStats,
    /// Blocks finalized since the last [`ChainView::take_finalized`] —
    /// the subscription feed for incremental metric deltas.
    outbox: Vec<AttributedBlock>,
}

impl ChainView {
    /// Track a chain into `store`, attributing with `mode`. Blocks deeper
    /// than `finality_depth` below the head are finalized into the store;
    /// a reorg can never reach them. If the store already holds rows, its
    /// last height becomes the finalized watermark and the next applied
    /// block must sit directly above it.
    pub fn new(
        store: BlockStore,
        chain: ChainKind,
        mode: AttributionMode,
        finality_depth: usize,
    ) -> ChainView {
        let finalized_height = store.last_height();
        ChainView {
            store,
            attributor: Attributor::new(chain, mode),
            finality_depth,
            pending: VecDeque::new(),
            finalized_height,
            finalized_hash: None,
            accepted: 0,
            finalized: 0,
            reorgs: ReorgStats::default(),
            outbox: Vec::new(),
        }
    }

    /// Apply one head event: extend the tip, or roll back to the block's
    /// parent and adopt the new branch. Blocks pushed deeper than the
    /// finality depth are attributed and appended to the store.
    pub fn apply(&mut self, block: &Block) -> Result<HeadUpdate> {
        let rolled_back = self.attach(block)?;
        self.pending.push_back(block.clone());
        self.accepted += 1;
        blockdec_obs::counter("ingest.head.accepted").inc();
        let finalized = self.finalize_excess(self.finality_depth)?;
        Ok(HeadUpdate {
            rolled_back,
            finalized,
        })
    }

    /// Find where `block` attaches and drop any pending blocks above that
    /// point. Returns the rollback depth.
    fn attach(&mut self, block: &Block) -> Result<usize> {
        // Fast path: plain head extension (also the very first block of a
        // fresh view, which may start at any height).
        match self.pending.back() {
            Some(tip) if block.parent == tip.hash && block.height == tip.height + 1 => {
                return Ok(0)
            }
            None => {
                return match self.finalized_height {
                    None => Ok(0),
                    Some(h) if block.height == h + 1 => match self.finalized_hash {
                        Some(fh) if fh != block.parent => Err(IngestError::ReorgBelowFinal {
                            height: block.height,
                            finalized: h,
                        }),
                        _ => Ok(0),
                    },
                    Some(h) if block.height <= h => Err(IngestError::ReorgBelowFinal {
                        height: block.height,
                        finalized: h,
                    }),
                    Some(h) => Err(IngestError::UnknownParent {
                        height: block.height,
                        detail: format!("finalized tip is at height {h}"),
                    }),
                };
            }
            Some(_) => {}
        }
        // Reorg: walk the pending tail back to the block's parent.
        if let Some(pos) = self.pending.iter().rposition(|p| p.hash == block.parent) {
            if self.pending[pos].height + 1 != block.height {
                return Err(IngestError::UnknownParent {
                    height: block.height,
                    detail: format!(
                        "parent hash matches pending height {} (expected height {})",
                        self.pending[pos].height,
                        self.pending[pos].height + 1
                    ),
                });
            }
            return Ok(self.roll_back_to(pos + 1));
        }
        // Full-tail rollback: the branch attaches directly above the
        // finalized tip.
        if let Some(h) = self.finalized_height {
            if block.height == h + 1 && self.finalized_hash.is_none_or(|fh| fh == block.parent) {
                return Ok(self.roll_back_to(0));
            }
            let floor = self.pending.front().map_or(h + 1, |f| f.height);
            if block.height <= floor {
                return Err(IngestError::ReorgBelowFinal {
                    height: block.height,
                    finalized: h,
                });
            }
        }
        Err(IngestError::UnknownParent {
            height: block.height,
            detail: format!(
                "parent {} not found in the pending tail ({} block(s))",
                block.parent,
                self.pending.len()
            ),
        })
    }

    /// Truncate the pending tail to `keep` blocks, recording the reorg.
    fn roll_back_to(&mut self, keep: usize) -> usize {
        let dropped = self.pending.len() - keep;
        self.pending.truncate(keep);
        self.reorgs.applied += 1;
        self.reorgs.blocks_dropped += dropped as u64;
        self.reorgs.deepest = self.reorgs.deepest.max(dropped);
        blockdec_obs::counter("ingest.reorg.applied").inc();
        blockdec_obs::counter("ingest.reorg.blocks_dropped").add(dropped as u64);
        dropped
    }

    /// Finalize pending blocks beyond `keep`: attribute them in canonical
    /// order and append to the store.
    fn finalize_excess(&mut self, keep: usize) -> Result<usize> {
        if self.pending.len() <= keep {
            return Ok(0);
        }
        let n = self.pending.len() - keep;
        let drained: Vec<Block> = self.pending.drain(..n).collect();
        let attributed: Vec<AttributedBlock> = drained
            .iter()
            .map(|b| self.attributor.attribute(b))
            .collect();
        self.store
            .append_attributed(&attributed, self.attributor.registry())?;
        let last = &drained[drained.len() - 1];
        self.finalized_height = Some(last.height);
        self.finalized_hash = Some(last.hash);
        self.finalized += n as u64;
        self.outbox.extend(attributed);
        blockdec_obs::counter("ingest.head.finalized").add(n as u64);
        Ok(n)
    }

    /// Drain the blocks finalized since the last call, in canonical
    /// order — exactly the rows just appended to the store. A follow
    /// loop pushes these into its metric delta streams after each
    /// [`ChainView::apply`]; an undrained outbox simply keeps growing.
    pub fn take_finalized(&mut self) -> Vec<AttributedBlock> {
        std::mem::take(&mut self.outbox)
    }

    /// Finalize the entire pending tail (end of feed) and flush the
    /// store. Returns how many blocks were finalized.
    pub fn finalize_all(&mut self) -> Result<usize> {
        let n = self.finalize_excess(0)?;
        self.flush()?;
        Ok(n)
    }

    /// Seal buffered rows into a segment and commit.
    pub fn flush(&mut self) -> Result<()> {
        self.store.flush()?;
        Ok(())
    }

    /// Height of the current head (pending tip, falling back to the
    /// finalized tip); `None` for an empty view.
    pub fn head_height(&self) -> Option<u64> {
        self.pending
            .back()
            .map(|b| b.height)
            .or(self.finalized_height)
    }

    /// The finalized watermark: height of the last block appended to the
    /// store.
    pub fn finalized_height(&self) -> Option<u64> {
        self.finalized_height
    }

    /// Pending (rollback-able) blocks currently held in memory.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending tail in chain order, oldest first.
    pub fn pending_blocks(&self) -> impl Iterator<Item = &Block> {
        self.pending.iter()
    }

    /// Blocks accepted over the view's lifetime (including ones later
    /// rolled back).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Blocks finalized into the store over the view's lifetime.
    pub fn finalized(&self) -> u64 {
        self.finalized
    }

    /// Cumulative reorg bookkeeping.
    pub fn reorg_stats(&self) -> ReorgStats {
        self.reorgs
    }

    /// The underlying store (finalized blocks only).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Tear down the view, keeping the store.
    pub fn into_store(self) -> BlockStore {
        self.store
    }
}

/// Measuring a [`ChainView`] measures its *finalized* region: the store
/// is the single source of truth for metric values, so a follow pipeline
/// and a batch pipeline read identical bytes.
impl blockdec_query::MeasurementSource for ChainView {
    fn attributed_blocks(
        &self,
        filter: &blockdec_query::Filter,
    ) -> blockdec_store::error::Result<Vec<AttributedBlock>> {
        self.store.attributed_blocks(filter)
    }

    fn block_columns(
        &self,
        filter: &blockdec_query::Filter,
    ) -> blockdec_store::error::Result<blockdec_chain::BlockColumns> {
        self.store.block_columns(filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::Timestamp;
    use std::path::PathBuf;

    fn tmp_store(tag: &str) -> (BlockStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "blockdec-chainview-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (BlockStore::create(&dir).unwrap(), dir)
    }

    fn block(height: u64, parent: BlockHash, salt: u64) -> Block {
        let hash = BlockHash::digest(0xc0ffee ^ salt, height);
        Block::builder(ChainKind::Bitcoin, height)
            .hash(hash)
            .parent(parent)
            .timestamp(Timestamp(1_546_300_800 + height as i64 * 600))
            .difficulty(1)
            .tx_count(1)
            .size_bytes(300)
            .payouts(vec![blockdec_chain::Address::synthesize(
                ChainKind::Bitcoin,
                height % 3,
            )])
            .build()
            .unwrap()
    }

    fn chain_of(n: u64, salt: u64) -> Vec<Block> {
        let mut parent = BlockHash::ZERO;
        (0..n)
            .map(|h| {
                let b = block(h, parent, salt);
                parent = b.hash;
                b
            })
            .collect()
    }

    fn view(finality: usize, tag: &str) -> (ChainView, PathBuf) {
        let (store, dir) = tmp_store(tag);
        (
            ChainView::new(
                store,
                ChainKind::Bitcoin,
                AttributionMode::PerAddress,
                finality,
            ),
            dir,
        )
    }

    #[test]
    fn extends_and_finalizes_past_the_watermark() {
        let (mut v, dir) = view(3, "extend");
        let chain = chain_of(10, 0);
        let mut finalized = 0;
        for b in &chain {
            let u = v.apply(b).unwrap();
            assert_eq!(u.rolled_back, 0);
            finalized += u.finalized;
        }
        assert_eq!(v.pending_len(), 3);
        assert_eq!(finalized, 7);
        assert_eq!(v.finalized_height(), Some(6));
        assert_eq!(v.head_height(), Some(9));
        let drained = v.take_finalized();
        assert_eq!(
            drained.iter().map(|b| b.height).collect::<Vec<_>>(),
            (0..7).collect::<Vec<_>>()
        );
        assert_eq!(v.finalize_all().unwrap(), 3);
        assert_eq!(v.take_finalized().len(), 3);
        assert!(v.take_finalized().is_empty());
        assert_eq!(v.pending_len(), 0);
        assert_eq!(v.store().row_count(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reorg_drops_the_stale_branch() {
        let (mut v, dir) = view(5, "reorg");
        let chain = chain_of(4, 0);
        for b in &chain {
            v.apply(b).unwrap();
        }
        // A 2-block stale branch on top of height 1, then the canonical
        // blocks win back.
        let fork2 = block(2, chain[1].hash, 99);
        let fork3 = block(3, fork2.hash, 99);
        let v2 = {
            let (mut v2, dir2) = view(5, "reorg2");
            for b in &chain[..2] {
                v2.apply(b).unwrap();
            }
            v2.apply(&fork2).unwrap();
            v2.apply(&fork3).unwrap();
            assert_eq!(v2.head_height(), Some(3));
            let u = v2.apply(&chain[2]).unwrap();
            assert_eq!(u.rolled_back, 2);
            v2.apply(&chain[3]).unwrap();
            std::fs::remove_dir_all(&dir2).unwrap();
            v2
        };
        assert_eq!(v2.reorg_stats().applied, 1);
        assert_eq!(v2.reorg_stats().blocks_dropped, 2);
        let straight: Vec<u64> = v.pending_blocks().map(|b| b.height).collect();
        let reorged: Vec<u64> = v2.pending_blocks().map(|b| b.height).collect();
        assert_eq!(straight, reorged);
        let hashes_a: Vec<BlockHash> = v.pending_blocks().map(|b| b.hash).collect();
        let hashes_b: Vec<BlockHash> = v2.pending_blocks().map(|b| b.hash).collect();
        assert_eq!(hashes_a, hashes_b, "reorg must converge to canonical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reorg_below_finality_is_rejected() {
        let (mut v, dir) = view(2, "deep");
        let chain = chain_of(8, 0);
        for b in &chain {
            v.apply(b).unwrap();
        }
        assert_eq!(v.finalized_height(), Some(5));
        // A branch trying to replace finalized height 5.
        let deep = block(5, chain[4].hash, 7);
        match v.apply(&deep) {
            Err(IngestError::ReorgBelowFinal { height, finalized }) => {
                assert_eq!(height, 5);
                assert_eq!(finalized, 5);
            }
            other => panic!("expected ReorgBelowFinal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_parent_is_rejected() {
        let (mut v, dir) = view(4, "unknown");
        for b in &chain_of(4, 0) {
            v.apply(b).unwrap();
        }
        let stray = block(4, BlockHash::digest(0xdead, 4), 1);
        assert!(matches!(
            v.apply(&stray),
            Err(IngestError::UnknownParent { height: 4, .. })
        ));
        // The view is unchanged and keeps accepting good blocks.
        assert_eq!(v.head_height(), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_tail_rollback_attaches_at_the_finalized_tip() {
        let (mut v, dir) = view(2, "fulltail");
        let chain = chain_of(5, 0);
        for b in &chain {
            v.apply(b).unwrap();
        }
        // Pending is {3, 4}; a branch from finalized tip 2 replaces both.
        assert_eq!(v.finalized_height(), Some(2));
        let alt3 = block(3, chain[2].hash, 42);
        let u = v.apply(&alt3).unwrap();
        assert_eq!(u.rolled_back, 2);
        assert_eq!(v.head_height(), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adopting_an_existing_store_guards_heights() {
        let dir = {
            let (mut v, dir) = view(0, "adopt");
            for b in &chain_of(3, 0) {
                v.apply(b).unwrap();
            }
            v.finalize_all().unwrap();
            dir
        };
        let store = BlockStore::open(&dir).unwrap();
        let mut v = ChainView::new(store, ChainKind::Bitcoin, AttributionMode::PerAddress, 2);
        assert_eq!(v.finalized_height(), Some(2));
        // Wrong height: rejected. Right height: accepted (hash unknown).
        assert!(v.apply(&block(7, BlockHash::ZERO, 0)).is_err());
        let next = block(3, BlockHash::digest(0xc0ffee, 2), 0);
        v.apply(&next).unwrap();
        assert_eq!(v.head_height(), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

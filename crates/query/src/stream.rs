//! Feeding the measurement engine from different sources.
//!
//! The window engines in `blockdec-core` consume `&[AttributedBlock]`.
//! [`MeasurementSource`] abstracts where those come from: an in-memory
//! simulated stream or a [`BlockStore`] range scan. This is the seam the
//! examples and CLI use to run identical measurements over either.

use crate::expr::Filter;
use blockdec_chain::{AttributedBlock, BlockColumns};
use blockdec_store::error::Result;
use blockdec_store::{BlockStore, RowRecord};

/// Anything that can produce an attributed block stream for measurement.
pub trait MeasurementSource {
    /// Height-ordered attributed blocks matching the filter.
    fn attributed_blocks(&self, filter: &Filter) -> Result<Vec<AttributedBlock>>;

    /// Height-ordered columnar blocks matching the filter. The default
    /// converts the AoS stream; sources with a native columnar path (the
    /// store) override it to skip AoS materialization entirely.
    fn block_columns(&self, filter: &Filter) -> Result<BlockColumns> {
        Ok(BlockColumns::from_blocks(&self.attributed_blocks(filter)?))
    }
}

impl MeasurementSource for BlockStore {
    fn attributed_blocks(&self, filter: &Filter) -> Result<Vec<AttributedBlock>> {
        // One streaming columnar scan, then a single AoS materialization
        // at the edge — no intermediate Vec<RowRecord>.
        Ok(self.block_columns(filter)?.to_blocks())
    }

    fn block_columns(&self, filter: &Filter) -> Result<BlockColumns> {
        let (pred, residual) = filter.compile();
        self.scan_columnar_with(&pred, self.scan_options(), |r| residual.matches(r))
            .map(|(cols, _)| cols)
    }
}

impl MeasurementSource for Vec<AttributedBlock> {
    fn attributed_blocks(&self, filter: &Filter) -> Result<Vec<AttributedBlock>> {
        // In-memory sources filter blocks whole: a block matches when any
        // of its rows would.
        Ok(self
            .iter()
            .filter(|b| block_matches(b, filter))
            .cloned()
            .collect())
    }

    fn block_columns(&self, filter: &Filter) -> Result<BlockColumns> {
        // Push matching blocks straight into columns — no cloned credit
        // Vecs along the way.
        let mut cols = BlockColumns::new();
        for b in self.iter().filter(|b| block_matches(b, filter)) {
            cols.push_attributed(b);
        }
        Ok(cols)
    }
}

/// Whole-block filter semantics for in-memory sources: a block matches
/// when any of its credit rows would.
fn block_matches(b: &AttributedBlock, filter: &Filter) -> bool {
    b.credits.iter().any(|c| {
        filter.matches(&RowRecord {
            height: b.height,
            timestamp: b.timestamp.secs(),
            producer: c.producer.0,
            credit_millis: blockdec_store::row::weight_to_millis(c.weight),
            tx_count: 0,
            size_bytes: 0,
            difficulty: 0,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::{Credit, ProducerId, ProducerRegistry, Timestamp};

    fn ab(height: u64, producers: &[u32]) -> AttributedBlock {
        AttributedBlock {
            height,
            timestamp: Timestamp(height as i64 * 100),
            credits: producers
                .iter()
                .map(|&p| Credit {
                    producer: ProducerId(p),
                    weight: 1.0,
                })
                .collect(),
        }
    }

    #[test]
    fn vec_source_filters_by_height() {
        let blocks = vec![ab(1, &[0]), ab(2, &[1]), ab(3, &[0])];
        let got = blocks
            .attributed_blocks(&Filter::HeightBetween(2, 3))
            .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].height, 2);
    }

    #[test]
    fn store_source_matches_vec_source() {
        let dir = std::env::temp_dir().join(format!(
            "blockdec-stream-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = BlockStore::create(&dir).unwrap();

        let mut reg = ProducerRegistry::new();
        reg.intern("P0");
        reg.intern("P1");
        reg.intern("P2");
        let blocks = vec![
            ab(10, &[0]),
            ab(11, &[1, 2]), // multi-credit block
            ab(12, &[0]),
            ab(13, &[2]),
        ];
        store.append_attributed(&blocks, &reg).unwrap();
        store.flush().unwrap();

        let filter = Filter::HeightBetween(10, 12);
        let from_store = store.attributed_blocks(&filter).unwrap();
        let from_vec = blocks.attributed_blocks(&filter).unwrap();
        assert_eq!(from_store.len(), from_vec.len());
        for (a, b) in from_store.iter().zip(&from_vec) {
            assert_eq!(a.height, b.height);
            assert_eq!(a.credits.len(), b.credits.len());
        }
        // Multi-credit block regrouped.
        assert_eq!(from_store[1].credits.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columns_agree_with_attributed_blocks_for_both_sources() {
        let dir = std::env::temp_dir().join(format!(
            "blockdec-stream-cols-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = BlockStore::create(&dir).unwrap();
        let mut reg = ProducerRegistry::new();
        for p in ["P0", "P1", "P2"] {
            reg.intern(p);
        }
        let blocks = vec![ab(10, &[0]), ab(11, &[1, 2]), ab(12, &[0]), ab(13, &[2])];
        store.append_attributed(&blocks, &reg).unwrap();
        store.flush().unwrap();

        for filter in [Filter::True, Filter::HeightBetween(11, 12)] {
            let store_cols = store.block_columns(&filter).unwrap();
            store_cols.validate().unwrap();
            assert_eq!(
                store_cols.to_blocks(),
                store.attributed_blocks(&filter).unwrap()
            );
            let vec_cols = blocks.block_columns(&filter).unwrap();
            vec_cols.validate().unwrap();
            assert_eq!(
                vec_cols.to_blocks(),
                blocks.attributed_blocks(&filter).unwrap()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_filter_result() {
        let blocks = vec![ab(1, &[0])];
        assert!(blocks
            .attributed_blocks(&Filter::HeightBetween(5, 9))
            .unwrap()
            .is_empty());
    }
}

//! Feeding the measurement engine from the store.
//!
//! The window engines in `blockdec-core` consume [`BlockColumns`].
//! [`MeasurementSource`] is the seam the CLI and the benchmarks read
//! them through: one columnar [`BlockStore`] scan with the filter's
//! predicate pushed down. Readers that want `AttributedBlock`s rather
//! than columns call [`BlockStore::scan_attributed`].

use crate::expr::Filter;
use blockdec_chain::BlockColumns;
use blockdec_store::error::Result;
use blockdec_store::BlockStore;

/// Anything that can feed the measurement engine columnar blocks.
pub trait MeasurementSource {
    /// Height-ordered columnar blocks matching the filter.
    fn block_columns(&self, filter: &Filter) -> Result<BlockColumns>;
}

impl MeasurementSource for BlockStore {
    fn block_columns(&self, filter: &Filter) -> Result<BlockColumns> {
        let (pred, residual) = filter.compile();
        let opts = self.scan_options();
        // A constant `keep` lets the scan append each segment's matching
        // rows without building a row to test.
        let scanned = if residual == Filter::True {
            self.scan_columnar_with(&pred, opts, |_| true)
        } else {
            self.scan_columnar_with(&pred, opts, |r| residual.matches(r))
        };
        scanned.map(|(cols, _)| cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::{AttributedBlock, Credit, ProducerId, ProducerRegistry, Timestamp};

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
    fn store_columns_are_the_matching_blocks() {
        let dir = std::env::temp_dir().join(format!(
            "blockdec-stream-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = BlockStore::create(&dir).unwrap();
        let mut reg = ProducerRegistry::new();
        for p in ["P0", "P1", "P2"] {
            reg.intern(p);
        }
        let blocks = vec![
            ab(10, &[0]),
            ab(11, &[1, 2]), // multi-credit block, regrouped by the scan
            ab(12, &[0]),
            ab(13, &[2]),
        ];
        store.append_attributed(&blocks, &reg).unwrap();
        store.flush().unwrap();

        for (filter, want) in [
            (Filter::True, &blocks[..]),
            (Filter::HeightBetween(11, 12), &blocks[1..3]),
            (Filter::HeightBetween(5, 9), &blocks[..0]),
        ] {
            let cols = store.block_columns(&filter).unwrap();
            cols.validate().unwrap();
            assert_eq!(cols.to_blocks(), want, "{filter:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

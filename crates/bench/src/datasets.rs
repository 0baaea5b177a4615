//! Shared simulated datasets for experiments and benches.

use crate::perf::BenchDir;
use blockdec_chain::{AttributedBlock, BlockColumns, ProducerRegistry, Timestamp};
use blockdec_query::{Filter, MeasurementSource};
use blockdec_sim::Scenario;
use blockdec_store::BlockStore;

/// A generated, attributed chain-year (or prefix of one).
pub struct Dataset {
    /// Chain label ("bitcoin" / "ethereum").
    pub name: String,
    /// The scenario that produced it.
    pub scenario: Scenario,
    /// Attribution results in height order.
    pub attributed: Vec<AttributedBlock>,
    /// Producer names.
    pub registry: ProducerRegistry,
}

impl Dataset {
    /// Generate and attribute the scenario's blocks.
    pub fn from_scenario(scenario: Scenario) -> Dataset {
        let stream = scenario.generate();
        Dataset {
            name: scenario.chain.label().to_string(),
            scenario,
            attributed: stream.attributed,
            registry: stream.registry,
        }
    }

    /// The calibrated Bitcoin 2019 dataset, truncated to `days`.
    pub fn bitcoin(days: u32) -> Dataset {
        Dataset::from_scenario(Scenario::bitcoin_2019().truncated(days))
    }

    /// The calibrated Ethereum 2019 dataset, truncated to `days`.
    pub fn ethereum(days: u32) -> Dataset {
        Dataset::from_scenario(Scenario::ethereum_2019().truncated(days))
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.attributed.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.attributed.is_empty()
    }

    /// The measurement origin (2019-01-01).
    pub fn origin(&self) -> Timestamp {
        Timestamp(self.scenario.start_time)
    }
}

/// A dataset as the paper's figures read it. [`StoredDataset::load`]
/// writes the blocks in one call of [`BlockStore::append_attributed`],
/// the writer behind `blockdec load`, `ingest` and `follow`, into a
/// scratch store that is removed on drop. It then reads them back once
/// with [`MeasurementSource::block_columns`], the read behind `measure`,
/// `compare` and `analyze`.
pub struct StoredDataset {
    /// Chain label ("bitcoin" / "ethereum").
    pub name: String,
    /// The scenario that produced the blocks.
    pub scenario: Scenario,
    /// The store, for window queries.
    pub store: BlockStore,
    /// Every block in the store, in height order.
    pub columns: BlockColumns,
    _dir: BenchDir,
}

impl StoredDataset {
    /// Write `ds` to a scratch store and read it back in full.
    pub fn load(ds: &Dataset) -> StoredDataset {
        let dir = BenchDir::new("experiments", ds);
        let store = dir.store(ds, 1, false);
        let columns = store
            .block_columns(&Filter::True)
            .expect("read back the experiment store");
        StoredDataset {
            name: ds.name.clone(),
            scenario: ds.scenario.clone(),
            store,
            columns,
            _dir: dir,
        }
    }

    /// The measurement origin (2019-01-01).
    pub fn origin(&self) -> Timestamp {
        Timestamp(self.scenario.start_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The store round trip hands the figures the very columns the
    /// in-memory stream converts to, bit for bit, under the same
    /// producer ids.
    fn assert_round_trip(ds: &Dataset) {
        let stored = StoredDataset::load(ds);
        assert!(!stored.columns.is_empty());
        assert_eq!(stored.columns, BlockColumns::from_blocks(&ds.attributed));
        assert_eq!(
            stored.store.registry().to_name_list(),
            ds.registry.to_name_list()
        );
    }

    #[test]
    fn bitcoin_store_columns_equal_the_generated_stream() {
        // 70 days hold the day-13 multi-coinbase blocks and out-of-order
        // timestamps.
        let ds = Dataset::bitcoin(70);
        assert!(ds.attributed.iter().any(|b| b.credits.len() > 1));
        assert!(ds
            .attributed
            .windows(2)
            .any(|w| w[1].timestamp < w[0].timestamp));
        assert_round_trip(&ds);
    }

    #[test]
    fn ethereum_store_columns_equal_the_generated_stream() {
        assert_round_trip(&Dataset::ethereum(2));
    }
}

//! Group-by-producer aggregation — the paper's core query shape.
//!
//! Everything the measurement pipeline computes starts from "how many
//! blocks did each producer create inside this window", i.e.
//! `SELECT producer, SUM(credit) GROUP BY producer` over a height/time
//! range. [`producer_block_counts`] is exactly that; [`top_producers`]
//! adds the share ranking behind Fig. 7.

use crate::expr::Filter;
use blockdec_store::error::Result;
use blockdec_store::BlockStore;
use std::collections::BTreeMap;

/// One producer's aggregate within a query range.
#[derive(Clone, Debug, PartialEq)]
pub struct ProducerAgg {
    /// Store dictionary id.
    pub producer: u32,
    /// Display name.
    pub name: String,
    /// Credit-weighted block count.
    pub blocks: f64,
    /// Share of total credits in the range.
    pub share: f64,
}

/// Credit-weighted block counts per producer id, in id order. Rows
/// stream through the store's visitor scan, in height order, so nothing
/// but the counts is ever held.
pub fn producer_block_counts(store: &BlockStore, filter: &Filter) -> Result<Vec<(u32, f64)>> {
    let (pred, residual) = filter.compile();
    let mut counts: BTreeMap<u32, f64> = BTreeMap::new();
    store.scan_for_each(&pred, |r| {
        if residual.matches(r) {
            *counts.entry(r.producer).or_insert(0.0) += r.credit();
        }
    })?;
    Ok(counts.into_iter().collect())
}

/// Top-`k` producers by credit within the range, with names and shares.
/// `k = usize::MAX` ranks everyone.
pub fn top_producers(store: &BlockStore, filter: &Filter, k: usize) -> Result<Vec<ProducerAgg>> {
    let counts = producer_block_counts(store, filter)?;
    let total: f64 = counts.iter().map(|(_, c)| c).sum();
    let mut aggs: Vec<ProducerAgg> = counts
        .into_iter()
        .map(|(producer, blocks)| ProducerAgg {
            producer,
            name: store
                .registry()
                .name(blockdec_chain::ProducerId(producer))
                .unwrap_or("<unknown>")
                .to_string(),
            blocks,
            share: if total > 0.0 { blocks / total } else { 0.0 },
        })
        .collect();
    aggs.sort_by(|a, b| {
        b.blocks
            .total_cmp(&a.blocks)
            .then(a.producer.cmp(&b.producer))
    });
    aggs.truncate(k);
    Ok(aggs)
}

/// Total credit-weighted blocks within the range.
pub fn total_blocks(store: &BlockStore, filter: &Filter) -> Result<f64> {
    Ok(producer_block_counts(store, filter)?
        .iter()
        .map(|(_, c)| c)
        .sum())
}

/// Number of distinct producers within the range.
pub fn distinct_producers(store: &BlockStore, filter: &Filter) -> Result<usize> {
    Ok(producer_block_counts(store, filter)?.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_store::RowRecord;

    fn test_store(tag: &str) -> (BlockStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "blockdec-query-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = BlockStore::create(&dir).unwrap();
        // 100 blocks: A gets even heights, B gets odd multiples of 3... a
        // deterministic mix, plus one half-credit row for C.
        let a = store.intern_producer("A");
        let b = store.intern_producer("B");
        let c = store.intern_producer("C");
        let mut rows = Vec::new();
        for h in 0..100u64 {
            let producer = if h % 2 == 0 { a } else { b };
            rows.push(RowRecord {
                height: h,
                timestamp: 1000 + h as i64 * 10,
                producer,
                credit_millis: 1000,
                tx_count: (h % 7) as u32,
                size_bytes: 0,
                difficulty: 0,
            });
        }
        rows.push(RowRecord {
            height: 100,
            timestamp: 2000,
            producer: c,
            credit_millis: 500,
            tx_count: 0,
            size_bytes: 0,
            difficulty: 0,
        });
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        (store, dir)
    }

    #[test]
    fn counts_group_by_producer() {
        let (store, dir) = test_store("counts");
        let counts = producer_block_counts(&store, &Filter::True).unwrap();
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[0], (0, 50.0));
        assert_eq!(counts[1], (1, 50.0));
        assert!((counts[2].1 - 0.5).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filter_restricts_range() {
        let (store, dir) = test_store("range");
        let counts = producer_block_counts(&store, &Filter::HeightBetween(0, 9)).unwrap();
        assert_eq!(counts, vec![(0, 5.0), (1, 5.0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn residual_filters_apply() {
        let (store, dir) = test_store("residual");
        // Only full-credit rows.
        let total = total_blocks(&store, &Filter::CreditAtLeast(1000)).unwrap();
        assert!((total - 100.0).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn top_producers_ranked_with_shares() {
        let (store, dir) = test_store("topk");
        let top = top_producers(&store, &Filter::True, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "A");
        assert_eq!(top[1].name, "B");
        let expected_share = 50.0 / 100.5;
        assert!((top[0].share - expected_share).abs() < 1e-9);
        // Tie between A and B broken by producer id.
        assert!(top[0].producer < top[1].producer);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_and_total() {
        let (store, dir) = test_store("distinct");
        assert_eq!(distinct_producers(&store, &Filter::True).unwrap(), 3);
        let t = total_blocks(&store, &Filter::True).unwrap();
        assert!((t - 100.5).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_range() {
        let (store, dir) = test_store("empty");
        let counts = producer_block_counts(&store, &Filter::HeightBetween(500, 600)).unwrap();
        assert!(counts.is_empty());
        assert_eq!(
            total_blocks(&store, &Filter::HeightBetween(500, 600)).unwrap(),
            0.0
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

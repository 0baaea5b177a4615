//! Group-by-producer aggregation — the paper's core query shape.
//!
//! Everything the measurement pipeline computes starts from "how many
//! blocks did each producer create inside this window", i.e.
//! `SELECT producer, SUM(credit) GROUP BY producer` over a height/time
//! range. [`producer_block_counts`] is exactly that; [`top_producers`]
//! adds the share ranking behind Fig. 7.

use crate::expr::Filter;
use crate::stream::MeasurementSource;
use blockdec_store::error::Result;
use blockdec_store::BlockStore;

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

/// Credit-weighted block counts per producer id, in id order.
///
/// The range's credits come from the columnar scan
/// ([`MeasurementSource::block_columns`]) and fold, in scan order, into
/// one slot per dictionary id, in one pass over the flat credit columns.
/// Each producer's sum therefore adds the
/// same credits in the same order as a row-by-row fold would. The scan
/// fails with [`blockdec_store::StoreError::InconsistentCatalog`] on a
/// credit whose producer id lies outside the dictionary, so every id
/// that reaches the fold has a slot.
pub fn producer_block_counts(store: &BlockStore, filter: &Filter) -> Result<Vec<(u32, f64)>> {
    let cols = store.block_columns(filter)?;
    let mut counts: Vec<Option<f64>> = vec![None; store.registry().len()];
    let (producers, weights) = cols.as_slice().credits_in(0..cols.len());
    for (p, &w) in producers.iter().zip(weights) {
        *counts[p.index()].get_or_insert(0.0) += w;
    }
    Ok((0..)
        .zip(counts)
        .filter_map(|(id, c)| Some((id, c?)))
        .collect())
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

/// Total credit-weighted blocks within the range; `0` (not `-0`) when
/// the range holds no credit.
pub fn total_blocks(store: &BlockStore, filter: &Filter) -> Result<f64> {
    // `Iterator::sum` of no f64s is -0.0. Folding from +0.0 gives the
    // same bits for every non-empty sum, as no credit is -0.0.
    Ok(producer_block_counts(store, filter)?
        .iter()
        .fold(0.0, |total, (_, c)| total + c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_store::RowRecord;
    use std::collections::BTreeMap;

    fn empty_store(tag: &str) -> (BlockStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "blockdec-query-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (BlockStore::create(&dir).unwrap(), dir)
    }

    fn test_store(tag: &str) -> (BlockStore, std::path::PathBuf) {
        let (mut store, dir) = empty_store(tag);
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
        assert_eq!(counts[2], (2, 0.5));
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
        assert_eq!(total, 100.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn top_producers_ranked_with_shares() {
        let (store, dir) = test_store("topk");
        let top = top_producers(&store, &Filter::True, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "A");
        assert_eq!(top[1].name, "B");
        assert_eq!(top[0].share, 50.0 / 100.5);
        // Tie between A and B broken by producer id.
        assert!(top[0].producer < top[1].producer);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_and_total() {
        let (store, dir) = test_store("distinct");
        let counts = producer_block_counts(&store, &Filter::True).unwrap();
        assert_eq!(counts.len(), 3);
        assert_eq!(total_blocks(&store, &Filter::True).unwrap(), 100.5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_range() {
        let (store, dir) = test_store("empty");
        let counts = producer_block_counts(&store, &Filter::HeightBetween(500, 600)).unwrap();
        assert!(counts.is_empty());
        let total = total_blocks(&store, &Filter::HeightBetween(500, 600)).unwrap();
        assert_eq!(total, 0.0);
        assert!(total.is_sign_positive(), "an empty total is 0, not -0");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Three flushed segments plus a buffered tail of 1/3-, 1/2- and
    /// full-credit rows. Multi-credit heights straddle each flush, and
    /// ids are interned out of height order (the first heights go to the
    /// highest ids).
    fn fractional_store(tag: &str) -> (BlockStore, std::path::PathBuf) {
        let (mut store, dir) = empty_store(tag);
        let ids: Vec<u32> = ["D", "B", "E", "A", "C"]
            .iter()
            .map(|name| store.intern_producer(name))
            .collect();
        let mut rows = Vec::new();
        for h in 0..400u64 {
            let (credits, millis) = match h % 6 {
                0 => (3, 333),
                3 => (2, 500),
                _ => (1, 1000),
            };
            for k in 0..credits {
                rows.push(RowRecord {
                    height: h,
                    timestamp: 1_546_300_800 + h as i64 * 600,
                    producer: ids[(4 - (h as usize + k) % 5) % 5],
                    credit_millis: millis,
                    tx_count: ((h * 7 + k as u64) % 11) as u32,
                    size_bytes: 0,
                    difficulty: 0,
                });
            }
        }
        // Cut inside the credits of heights 102, 252 and 360.
        let cut_in = |h: u64| rows.iter().position(|r| r.height == h).unwrap() + 1;
        let cuts = [cut_in(102), cut_in(252), cut_in(360)];
        let mut from = 0;
        for cut in cuts {
            store.append_rows(&rows[from..cut]).unwrap();
            store.flush().unwrap();
            from = cut;
        }
        store.append_rows(&rows[from..]).unwrap();
        assert_eq!(store.segment_count(), 3);
        assert!(store.buffered_rows() > 0);
        (store, dir)
    }

    #[test]
    fn counts_equal_a_row_fold_bitwise() {
        let (mut store, dir) = fractional_store("row-fold");
        let t = |h: i64| 1_546_300_800 + h * 600;
        let filters = [
            Filter::True,
            Filter::TimeBetween(t(50), t(300)),
            Filter::CreditAtLeast(500),
            Filter::CreditAtLeast(1000),
            Filter::TimeBetween(t(90), t(370))
                .and(Filter::ProducerIs(1))
                .and(Filter::CreditAtLeast(334)),
        ];
        for threads in [1, 0] {
            store.set_scan_threads(threads);
            for filter in &filters {
                let (pred, residual) = filter.compile();
                let mut want: BTreeMap<u32, f64> = BTreeMap::new();
                for r in store.scan(&pred).unwrap() {
                    if residual.matches(&r) {
                        *want.entry(r.producer).or_insert(0.0) += r.credit();
                    }
                }
                let want: Vec<(u32, f64)> = want.into_iter().collect();
                assert!(!want.is_empty());
                let got = producer_block_counts(&store, filter).unwrap();
                assert_eq!(got, want, "{filter:?} at {threads} threads");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn producer_outside_the_dictionary_is_an_error() {
        let (store, dir) = test_store("short-dictionary");
        // Drop "C" (id 2) from the dictionary, as a damaged catalog would.
        let mut short = blockdec_chain::ProducerRegistry::new();
        short.intern("A");
        short.intern("B");
        blockdec_store::dictionary::save_dictionary(store.backend().as_ref(), &short).unwrap();
        let store = BlockStore::open(&dir).unwrap();
        let err = producer_block_counts(&store, &Filter::True).unwrap_err();
        assert_eq!(
            err.to_string(),
            "inconsistent catalog: producer id 2 outside dictionary (len 2)"
        );
        let report = store.fsck().unwrap();
        assert!(
            report.has(blockdec_store::FaultKind::UnknownProducer),
            "{:?}",
            report.faults
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! A small logical plan and executor.
//!
//! The CLI's ad-hoc queries compose into a [`Plan`]: filter → aggregate →
//! (optionally) top-k. Executing a plan against a store produces a
//! [`QueryOutput`] table that renders to CSV. This is deliberately tiny —
//! the measurement pipeline does not need joins or expressions beyond
//! conjunctive range filters — but it keeps the CLI declarative and
//! testable.

use crate::aggregate::{top_producers, total_blocks};
use crate::expr::Filter;
use blockdec_store::error::Result;
use blockdec_store::BlockStore;

/// What to compute over the filtered rows.
#[derive(Clone, Debug, PartialEq)]
pub enum Aggregation {
    /// Per-producer block counts and shares, ranked, optionally truncated.
    TopProducers {
        /// Keep this many producers (`usize::MAX` = all).
        k: usize,
    },
    /// A single total-blocks row.
    TotalBlocks,
}

/// A logical query plan.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Row filter (with pushdown on execution).
    pub filter: Filter,
    /// Aggregation to apply.
    pub aggregation: Aggregation,
}

impl Plan {
    /// Rank all producers within a filter.
    pub fn producers(filter: Filter) -> Plan {
        Plan {
            filter,
            aggregation: Aggregation::TopProducers { k: usize::MAX },
        }
    }

    /// Rank the top `k` producers within a filter.
    pub fn top_k(filter: Filter, k: usize) -> Plan {
        Plan {
            filter,
            aggregation: Aggregation::TopProducers { k },
        }
    }

    /// Count blocks within a filter.
    pub fn count(filter: Filter) -> Plan {
        Plan {
            filter,
            aggregation: Aggregation::TotalBlocks,
        }
    }

    /// Execute against a store.
    pub fn execute(&self, store: &BlockStore) -> Result<QueryOutput> {
        match &self.aggregation {
            Aggregation::TopProducers { k } => {
                let aggs = top_producers(store, &self.filter, *k)?;
                Ok(QueryOutput {
                    columns: vec!["producer".into(), "blocks".into(), "share".into()],
                    rows: aggs
                        .into_iter()
                        .map(|a| vec![a.name, format!("{}", a.blocks), format!("{:.6}", a.share)])
                        .collect(),
                })
            }
            Aggregation::TotalBlocks => {
                let total = total_blocks(store, &self.filter)?;
                Ok(QueryOutput {
                    columns: vec!["blocks".into()],
                    rows: vec![vec![format!("{total}")]],
                })
            }
        }
    }
}

/// A small result table.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutput {
    /// Column headers.
    pub columns: Vec<String>,
    /// Row values as strings.
    pub rows: Vec<Vec<String>>,
}

impl QueryOutput {
    /// Render as CSV (header + rows). Values containing commas or quotes
    /// are quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| field(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|v| field(v)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_store::RowRecord;

    fn test_store(tag: &str) -> (BlockStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "blockdec-plan-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = BlockStore::create(&dir).unwrap();
        let big = store.intern_producer("BigPool");
        let small = store.intern_producer("small,miner"); // comma: CSV quoting
        let rows: Vec<RowRecord> = (0..10u64)
            .map(|h| RowRecord {
                height: h,
                timestamp: h as i64,
                producer: if h < 7 { big } else { small },
                credit_millis: 1000,
                tx_count: 0,
                size_bytes: 0,
                difficulty: 0,
            })
            .collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        (store, dir)
    }

    #[test]
    fn top_producers_plan() {
        let (store, dir) = test_store("top");
        let out = Plan::producers(Filter::True).execute(&store).unwrap();
        assert_eq!(out.columns, vec!["producer", "blocks", "share"]);
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][0], "BigPool");
        assert_eq!(out.rows[0][1], "7");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn top_k_truncates() {
        let (store, dir) = test_store("topk");
        let out = Plan::top_k(Filter::True, 1).execute(&store).unwrap();
        assert_eq!(out.rows.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn count_plan() {
        let (store, dir) = test_store("count");
        let out = Plan::count(Filter::HeightBetween(0, 4))
            .execute(&store)
            .unwrap();
        assert_eq!(out.rows, vec![vec!["5".to_string()]]);
        // A range with no rows counts 0, not -0.
        let out = Plan::count(Filter::HeightBetween(50, 60))
            .execute(&store)
            .unwrap();
        assert_eq!(out.rows, vec![vec!["0".to_string()]]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_quotes_special_fields() {
        let (store, dir) = test_store("csv");
        let out = Plan::producers(Filter::True).execute(&store).unwrap();
        let csv = out.to_csv();
        assert!(csv.contains("\"small,miner\""), "{csv}");
        assert!(csv.starts_with("producer,blocks,share\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Filter expressions with store pushdown.
//!
//! A [`Filter`] is a small predicate AST. [`Filter::compile`] splits it
//! into the part the store can prune with zone maps ([`ScanPredicate`])
//! and a residual row-level closure for everything else. Conjunction is
//! the only combinator — the measurement workload never needs `OR`, and
//! keeping the AST conjunctive keeps pushdown exact.

use blockdec_store::{RowRecord, ScanPredicate};

/// A conjunctive filter over attribution rows.
#[derive(Clone, Debug, PartialEq)]
pub enum Filter {
    /// Accept everything.
    True,
    /// Height in `[lo, hi]`.
    HeightBetween(u64, u64),
    /// Timestamp in `[lo, hi]`.
    TimeBetween(i64, i64),
    /// Produced by the given producer id.
    ProducerIs(u32),
    /// Credit at least this many millis (e.g. 1000 = full blocks only).
    CreditAtLeast(u32),
    /// All sub-filters hold.
    And(Vec<Filter>),
}

impl Filter {
    /// Conjoin two filters.
    pub fn and(self, other: Filter) -> Filter {
        match (self, other) {
            (Filter::True, f) | (f, Filter::True) => f,
            (Filter::And(mut a), Filter::And(b)) => {
                a.extend(b);
                Filter::And(a)
            }
            (Filter::And(mut a), f) => {
                a.push(f);
                Filter::And(a)
            }
            (f, Filter::And(mut b)) => {
                b.insert(0, f);
                Filter::And(b)
            }
            (a, b) => Filter::And(vec![a, b]),
        }
    }

    /// Row-level evaluation (ignores pushdown; used for residuals and
    /// tests).
    pub fn matches(&self, row: &RowRecord) -> bool {
        match self {
            Filter::True => true,
            Filter::HeightBetween(lo, hi) => (*lo..=*hi).contains(&row.height),
            Filter::TimeBetween(lo, hi) => (*lo..=*hi).contains(&row.timestamp),
            Filter::ProducerIs(p) => row.producer == *p,
            Filter::CreditAtLeast(c) => row.credit_millis >= *c,
            Filter::And(fs) => fs.iter().all(|f| f.matches(row)),
        }
    }

    /// Split into a store pushdown predicate plus a residual filter that
    /// must still be applied row-by-row. The pushdown intersects ranges
    /// from every conjunct it understands.
    pub fn compile(&self) -> (ScanPredicate, Filter) {
        let mut pred = ScanPredicate::all();
        let mut residual = Vec::new();
        self.push_into(&mut pred, &mut residual);
        let residual = match residual.len() {
            0 => Filter::True,
            1 => residual.swap_remove(0),
            _ => Filter::And(residual),
        };
        (pred, residual)
    }

    fn push_into(&self, pred: &mut ScanPredicate, residual: &mut Vec<Filter>) {
        match self {
            Filter::True => {}
            Filter::HeightBetween(lo, hi) => {
                let (plo, phi) = pred.heights.unwrap_or((u64::MIN, u64::MAX));
                pred.heights = Some((plo.max(*lo), phi.min(*hi)));
            }
            Filter::TimeBetween(lo, hi) => {
                let (plo, phi) = pred.times.unwrap_or((i64::MIN, i64::MAX));
                pred.times = Some((plo.max(*lo), phi.min(*hi)));
            }
            Filter::ProducerIs(p) => match pred.producer {
                None => pred.producer = Some(*p),
                Some(existing) if existing == *p => {}
                // Contradictory producer constraints: keep one pushed
                // down, the other as residual (yields empty result).
                Some(_) => residual.push(self.clone()),
            },
            Filter::CreditAtLeast(_) => residual.push(self.clone()),
            Filter::And(fs) => {
                for f in fs {
                    f.push_into(pred, residual);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(height: u64, timestamp: i64, producer: u32, credit: u32, tx: u32) -> RowRecord {
        RowRecord {
            height,
            timestamp,
            producer,
            credit_millis: credit,
            tx_count: tx,
            size_bytes: 0,
            difficulty: 0,
        }
    }

    #[test]
    fn row_level_semantics() {
        let r = row(100, 5000, 3, 1000, 42);
        assert!(Filter::True.matches(&r));
        assert!(Filter::HeightBetween(100, 100).matches(&r));
        assert!(!Filter::HeightBetween(101, 200).matches(&r));
        assert!(Filter::TimeBetween(0, 5000).matches(&r));
        assert!(Filter::ProducerIs(3).matches(&r));
        assert!(!Filter::ProducerIs(4).matches(&r));
        assert!(Filter::CreditAtLeast(1000).matches(&r));
        assert!(!Filter::CreditAtLeast(1001).matches(&r));
        assert!(!Filter::ProducerIs(3).and(Filter::ProducerIs(4)).matches(&r));
    }

    #[test]
    fn and_composes() {
        let f = Filter::HeightBetween(0, 10)
            .and(Filter::ProducerIs(1))
            .and(Filter::True);
        assert!(f.matches(&row(5, 0, 1, 1000, 0)));
        assert!(!f.matches(&row(5, 0, 2, 1000, 0)));
        assert!(!f.matches(&row(11, 0, 1, 1000, 0)));
    }

    #[test]
    fn compile_pushes_ranges_down() {
        let f = Filter::HeightBetween(10, 100)
            .and(Filter::TimeBetween(0, 999))
            .and(Filter::ProducerIs(7));
        let (pred, residual) = f.compile();
        assert_eq!(pred.heights, Some((10, 100)));
        assert_eq!(pred.times, Some((0, 999)));
        assert_eq!(pred.producer, Some(7));
        assert_eq!(residual, Filter::True);
    }

    #[test]
    fn compile_intersects_overlapping_ranges() {
        let f = Filter::HeightBetween(10, 100).and(Filter::HeightBetween(50, 200));
        let (pred, _) = f.compile();
        assert_eq!(pred.heights, Some((50, 100)));
    }

    #[test]
    fn compile_leaves_residuals() {
        let f = Filter::CreditAtLeast(1000).and(Filter::HeightBetween(1, 2));
        let (pred, residual) = f.compile();
        assert_eq!(pred.heights, Some((1, 2)));
        assert_eq!(residual, Filter::CreditAtLeast(1000));
    }

    #[test]
    fn contradictory_producers_yield_empty() {
        let f = Filter::ProducerIs(1).and(Filter::ProducerIs(2));
        let (pred, residual) = f.compile();
        // One pushed down, the other residual: no row matches both.
        let r = row(0, 0, 1, 1000, 0);
        assert!(!(pred.matches(&r) && residual.matches(&r)));
        let r2 = row(0, 0, 2, 1000, 0);
        assert!(!(pred.matches(&r2) && residual.matches(&r2)));
    }

    #[test]
    fn pushdown_plus_residual_equals_direct() {
        let filters = [
            Filter::True,
            Filter::HeightBetween(20, 80).and(Filter::CreditAtLeast(500)),
            Filter::TimeBetween(100, 900)
                .and(Filter::CreditAtLeast(1000))
                .and(Filter::ProducerIs(2)),
            Filter::HeightBetween(10, 90)
                .and(Filter::ProducerIs(2))
                .and(Filter::ProducerIs(3)),
        ];
        let rows: Vec<RowRecord> = (0..100)
            .map(|i| {
                row(
                    i,
                    (i as i64) * 10,
                    (i % 4) as u32,
                    (i % 3) as u32 * 500,
                    (i % 10) as u32,
                )
            })
            .collect();
        for f in &filters {
            let (pred, residual) = f.compile();
            for r in &rows {
                let direct = f.matches(r);
                let split = pred.matches(r) && residual.matches(r);
                assert_eq!(direct, split, "filter {f:?} row {r:?}");
            }
        }
    }
}

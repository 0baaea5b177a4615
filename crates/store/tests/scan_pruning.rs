//! Generator-driven equivalence: a pruned, predicate-pushdown scan must
//! return exactly what a full scan plus an in-memory filter returns, for
//! arbitrary flush layouts (segment boundaries in arbitrary places) and
//! arbitrary height/time/producer predicates.

use blockdec_store::{BlockStore, ProducerFilter, RowRecord, ScanOptions, ScanPredicate};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "blockdec-prune-{}-{:?}-{}",
        std::process::id(),
        std::thread::current().id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

const PRODUCERS: u32 = 4;

/// Height-ordered rows (duplicates allowed: multi-credit blocks) plus a
/// list of flush points that carve them into sealed segments, leaving
/// any tail buffered in memory.
fn store_layout() -> impl Strategy<Value = (Vec<RowRecord>, Vec<usize>)> {
    (
        0u64..500,
        prop::collection::vec((0u64..3, 0i64..5000, 0u32..PRODUCERS), 1..120),
        prop::collection::vec(any::<proptest::sample::Index>(), 0..4),
    )
        .prop_map(|(start, raw, cuts)| {
            let mut height = start;
            let rows: Vec<RowRecord> = raw
                .into_iter()
                .map(|(dh, dt, producer)| {
                    height += dh;
                    RowRecord {
                        height,
                        // Time tracks height (as on a real chain) with
                        // jitter, so time predicates prune some segments
                        // and straddle others.
                        timestamp: height as i64 * 600 + dt,
                        producer,
                        credit_millis: 1000,
                        tx_count: producer * 3,
                        size_bytes: 100,
                        difficulty: 1,
                    }
                })
                .collect();
            let mut cut_points: Vec<usize> = cuts.iter().map(|ix| ix.index(rows.len())).collect();
            cut_points.sort_unstable();
            cut_points.dedup();
            (rows, cut_points)
        })
}

fn any_predicate() -> impl Strategy<Value = ScanPredicate> {
    let heights = prop::option::of((0u64..900, 0u64..900).prop_map(|(a, b)| (a.min(b), a.max(b))));
    let times =
        prop::option::of((0i64..600_000, 0i64..600_000).prop_map(|(a, b)| (a.min(b), a.max(b))));
    let producer = prop::option::of(0u32..PRODUCERS);
    (heights, times, producer).prop_map(|(heights, times, producer)| ScanPredicate {
        heights,
        times,
        producer,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pruned_scan_equals_full_scan_plus_filter(
        (rows, cuts) in store_layout(),
        pred in any_predicate(),
    ) {
        let dir = tmp_dir();
        let mut store = BlockStore::create(&dir).unwrap();
        for p in 0..PRODUCERS {
            store.intern_producer(&format!("producer-{p}"));
        }
        // Seal a segment at every cut point; the tail past the last cut
        // stays buffered in memory, so the scan must merge sealed
        // segments with unflushed rows.
        let mut prev = 0usize;
        for cut in cuts.iter().copied() {
            if cut > prev {
                store.append_rows(&rows[prev..cut]).unwrap();
                store.flush().unwrap();
                prev = cut;
            }
        }
        if prev < rows.len() {
            store.append_rows(&rows[prev..]).unwrap();
        }

        let (got, stats) = store.scan_with_options(&pred, ScanOptions::strict()).unwrap();
        let want: Vec<RowRecord> = rows.iter().filter(|r| pred.matches(r)).copied().collect();
        prop_assert_eq!(&got, &want, "pruned scan diverged from full-filter");
        prop_assert_eq!(stats.rows_returned, want.len() as u64);
        prop_assert!(stats.segments_pruned <= stats.segments_total);
        prop_assert_eq!(stats.segments_skipped, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruning_never_drops_boundary_rows(
        (rows, cuts) in store_layout(),
        lo in 0u64..900,
        span in 0u64..50,
    ) {
        // Height predicates aimed near segment boundaries: pruning must
        // keep every segment whose zone overlaps, including equality at
        // the edges.
        let dir = tmp_dir();
        let mut store = BlockStore::create(&dir).unwrap();
        for p in 0..PRODUCERS {
            store.intern_producer(&format!("producer-{p}"));
        }
        let mut prev = 0usize;
        for cut in cuts.iter().copied() {
            if cut > prev {
                store.append_rows(&rows[prev..cut]).unwrap();
                store.flush().unwrap();
                prev = cut;
            }
        }
        if prev < rows.len() {
            store.append_rows(&rows[prev..]).unwrap();
        }
        let pred = ScanPredicate::all().heights(lo, lo + span);
        let got = store.scan(&pred).unwrap();
        let want: Vec<RowRecord> = rows.iter().filter(|r| pred.matches(r)).copied().collect();
        prop_assert_eq!(got, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compacted_scan_equals_full_scan_plus_filter(
        (rows, cuts) in store_layout(),
        pred in any_predicate(),
        threads in 1usize..4,
    ) {
        // Same equivalence, but over the layout compaction produces:
        // merged v3 segments whose page-group indexes and bloom filters
        // now do the pruning. The pruned scan must stay bitwise equal to
        // full-scan-plus-filter on both paths at any thread count.
        let dir = tmp_dir();
        let mut store = BlockStore::create(&dir).unwrap();
        for p in 0..PRODUCERS {
            store.intern_producer(&format!("producer-{p}"));
        }
        let mut prev = 0usize;
        for cut in cuts.iter().copied() {
            if cut > prev {
                store.append_rows(&rows[prev..cut]).unwrap();
                store.flush().unwrap();
                prev = cut;
            }
        }
        if prev < rows.len() {
            store.append_rows(&rows[prev..]).unwrap();
        }
        store.compact().unwrap();

        let want: Vec<RowRecord> = rows.iter().filter(|r| pred.matches(r)).copied().collect();
        let (got, stats) = store.scan_with_options(&pred, ScanOptions::strict()).unwrap();
        prop_assert_eq!(&got, &want, "row scan diverged after compaction");
        prop_assert!(stats.segments_pruned <= stats.segments_total);

        // Columnar: the pruned scan (segment + page-group pruning) must
        // equal the unpruned scan with the same predicate applied as a
        // residual row filter, at every thread count.
        let opts = ScanOptions::strict().with_threads(threads);
        let (pruned, _) = store.scan_columnar_with(&pred, opts, |_| true).unwrap();
        let (full, full_stats) = store
            .scan_columnar_with(&ScanPredicate::all(), ScanOptions::strict().with_threads(1), |r| {
                pred.matches(r)
            })
            .unwrap();
        prop_assert_eq!(pruned, full, "pruned columnar scan diverged from full + filter");
        prop_assert_eq!(full_stats.pages_pruned, 0, "the all-predicate must prune nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bloom_filter_never_has_false_negatives(
        members in prop::collection::vec(0u32..50_000, 1..400),
        probes in prop::collection::vec(0u32..50_000, 0..100),
    ) {
        // False positives are allowed (and bounded by the lib's own FP
        // test); false negatives never are — a bloom skip must be proof
        // of absence.
        let filter = ProducerFilter::from_producers(&members);
        for &p in &members {
            prop_assert!(filter.contains(p), "false negative for member {p}");
        }
        // Probes that are genuinely absent may collide (false positive)
        // but the filter must answer deterministically.
        for &p in &probes {
            prop_assert_eq!(filter.contains(p), filter.contains(p));
        }
    }
}

//! Thread-count invariance for the columnar scan path: the chunked
//! multi-threaded decode in [`BlockStore::scan_columnar_with`] must be
//! bitwise identical to the sequential path — same heights, timestamps,
//! CSR credit offsets, producers, and weights — at any worker count, on
//! healthy stores, on fault-injected-then-repaired stores, and under
//! degraded (skip-corrupt) options.

use blockdec_chain::{BlockColumns, ProducerId, Timestamp};
use blockdec_store::catalog::segment_file_name;
use blockdec_store::{BlockStore, FaultInjector, RowRecord, ScanOptions, ScanPredicate};
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "blockdec-parscan-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Build a store whose credit runs straddle segment boundaries: every
/// third height pays three producers, and rows are flushed in chunks of
/// 25 so some multi-credit heights split across two segment files. Ends
/// with unflushed rows so the active-buffer tail is exercised too.
fn build_fixture(dir: &Path) -> BlockStore {
    let mut store = BlockStore::create(dir).unwrap();
    let pools: Vec<u32> = (0..4)
        .map(|i| store.intern_producer(&format!("pool-{i}")))
        .collect();
    let mut rows = Vec::new();
    for h in 0..120u64 {
        let credits = if h.is_multiple_of(3) { 3 } else { 1 };
        for c in 0..credits {
            rows.push(RowRecord {
                height: h,
                timestamp: 1_546_300_800 + h as i64 * 600,
                producer: pools[((h + c) % 4) as usize],
                credit_millis: 1000 / credits as u32,
                tx_count: 1 + h as u32,
                size_bytes: 500 + c as u32,
                difficulty: 1,
            });
        }
    }
    for chunk in rows.chunks(25) {
        store.append_rows(chunk).unwrap();
        store.flush().unwrap();
    }
    // Active-buffer tail: appended but never flushed to a segment.
    let tail: Vec<RowRecord> = (120..125u64)
        .map(|h| RowRecord {
            height: h,
            timestamp: 1_546_300_800 + h as i64 * 600,
            producer: pools[(h % 4) as usize],
            credit_millis: 1000,
            tx_count: 1,
            size_bytes: 500,
            difficulty: 1,
        })
        .collect();
    store.append_rows(&tail).unwrap();
    store
}

/// The row-scan reference: push the row scan's rows through
/// [`BlockColumns::push_row`] exactly as the sequential columnar path
/// would.
fn reference_columns(store: &BlockStore, pred: &ScanPredicate, opts: ScanOptions) -> BlockColumns {
    let mut cols = BlockColumns::new();
    for r in store.scan_with_options(pred, opts).unwrap().0 {
        cols.push_row(
            r.height,
            Timestamp(r.timestamp),
            ProducerId(r.producer),
            r.credit(),
        );
    }
    cols
}

#[test]
fn thread_counts_are_bitwise_identical() {
    let dir = tmp_dir("threads");
    let store = build_fixture(&dir);
    let pred = ScanPredicate::all();
    let reference = reference_columns(&store, &pred, ScanOptions::strict());

    for threads in [1usize, 2, 3, 8, 64] {
        let opts = ScanOptions::strict().with_threads(threads);
        let (cols, stats) = store.scan_columnar_with(&pred, opts, |_| true).unwrap();
        assert_eq!(cols, reference, "threads={threads} diverged");
        cols.validate().unwrap();
        assert_eq!(stats.rows_returned, 205, "threads={threads}");
        assert_eq!(stats.segments_skipped, 0, "threads={threads}");
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn predicates_and_filters_are_thread_invariant() {
    let dir = tmp_dir("pred");
    let store = build_fixture(&dir);
    // Height range that starts and ends mid-segment, plus a row-level
    // filter, so pruning, per-row predicate, and keep all interact.
    let pred = ScanPredicate::all().heights(13, 97);
    let keep = |r: &RowRecord| r.tx_count.is_multiple_of(2);
    let mut reference = BlockColumns::new();
    for r in store.scan(&pred).unwrap() {
        if keep(&r) {
            reference.push_row(
                r.height,
                Timestamp(r.timestamp),
                ProducerId(r.producer),
                r.credit(),
            );
        }
    }
    assert!(!reference.is_empty());

    for threads in [1usize, 2, 5] {
        let opts = ScanOptions::strict().with_threads(threads);
        let (cols, _) = store.scan_columnar_with(&pred, opts, keep).unwrap();
        assert_eq!(cols, reference, "threads={threads} diverged");
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn repaired_store_scans_identically_at_any_thread_count() {
    let dir = tmp_dir("repair");
    let store = build_fixture(&dir);
    drop(store);
    FaultInjector::new(&dir, 7)
        .flip_bit(&segment_file_name(2))
        .unwrap();

    let mut store = BlockStore::open(&dir).unwrap();
    assert!(!store.fsck().unwrap().is_clean());
    store.repair().unwrap();
    assert!(store.fsck().unwrap().is_clean());

    let pred = ScanPredicate::all();
    let reference = reference_columns(&store, &pred, ScanOptions::strict());
    for threads in [1usize, 2, 4] {
        let opts = ScanOptions::strict().with_threads(threads);
        let (cols, _) = store.scan_columnar_with(&pred, opts, |_| true).unwrap();
        assert_eq!(cols, reference, "threads={threads} diverged after repair");
        cols.validate().unwrap();
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn degraded_columnar_scan_is_thread_invariant() {
    let dir = tmp_dir("degraded");
    let store = build_fixture(&dir);
    drop(store);
    FaultInjector::new(&dir, 21)
        .flip_bit(&segment_file_name(1))
        .unwrap();

    let store = BlockStore::open(&dir).unwrap();
    let pred = ScanPredicate::all();

    // Strict columnar scans must refuse the corrupt store at every
    // thread count, not just the sequential one.
    for threads in [1usize, 3] {
        let opts = ScanOptions::strict().with_threads(threads);
        assert!(
            store.scan_columnar_with(&pred, opts, |_| true).is_err(),
            "threads={threads} accepted a corrupt segment"
        );
    }

    let reference = reference_columns(&store, &pred, ScanOptions::degraded());
    for threads in [1usize, 3] {
        let opts = ScanOptions::degraded().with_threads(threads);
        let (cols, stats) = store.scan_columnar_with(&pred, opts, |_| true).unwrap();
        assert_eq!(cols, reference, "threads={threads} diverged degraded");
        assert_eq!(stats.segments_skipped, 1, "threads={threads}");
    }

    let _ = fs::remove_dir_all(&dir);
}

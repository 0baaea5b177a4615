//! Medium-scale storage test: multiple sealed segments, pruning, a
//! measurement off the store, and compaction — the shape of a real Ethereum
//! ingest (which is 2.2M rows; here 200k keeps debug-mode runtime sane).

use blockdec::prelude::*;
use blockdec_chain::Granularity;
use blockdec_store::{RowRecord, ScanOptions};

const ROWS: u64 = 200_000;
const T0: i64 = 1_546_300_800;

fn build_store(dir: &std::path::Path) -> BlockStore {
    let mut store = BlockStore::create(dir).unwrap();
    let pools: Vec<u32> = (0..30)
        .map(|i| store.intern_producer(&format!("pool-{i:02}")))
        .collect();
    // ~14.4s blocks: ETH-like cadence; skewed producer mix.
    let rows: Vec<RowRecord> = (0..ROWS)
        .map(|h| RowRecord {
            height: 6_988_615 + h,
            timestamp: T0 + (h as i64) * 14,
            producer: pools[((h * h + h / 7) % 30) as usize],
            credit_millis: 1000,
            tx_count: (h % 300) as u32,
            size_bytes: 20_000 + (h % 10_000) as u32,
            difficulty: 2_000_000_000 + h,
        })
        .collect();
    store.append_rows(&rows).unwrap();
    store.flush().unwrap();
    store
}

#[test]
fn multi_segment_store_end_to_end() {
    let dir = std::env::temp_dir().join(format!("blockdec-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = build_store(&dir);

    // 200k rows at 64Ki per segment → 4 segments.
    assert_eq!(store.segment_count(), 4);
    assert_eq!(store.row_count(), ROWS);

    // Zone-map pruning hits on a narrow range.
    let (rows, stats) = store
        .scan_with_options(
            &ScanPredicate::all().heights(6_988_615 + 150_000, 6_988_615 + 150_999),
            ScanOptions::strict(),
        )
        .unwrap();
    assert_eq!(rows.len(), 1_000);
    assert!(
        stats.segments_pruned >= 2,
        "pruned {}",
        stats.segments_pruned
    );

    // Fixed-window measurement off the store: ~32 days of data.
    let cols = store.block_columns(&Filter::True).unwrap();
    let series = MeasurementEngine::new(MetricKind::ShannonEntropy)
        .fixed_calendar(Granularity::Day, Timestamp(T0))
        .run_columns(cols.as_slice());
    let days = (ROWS as i64 * 14) / 86_400;
    assert!((series.points.len() as i64 - days).abs() <= 1);
    for p in &series.points {
        // 30 near-balanced producers: entropy close to log2(30).
        assert!(p.value > 4.0, "day {}: {}", p.index, p.value);
        assert!(p.value <= (30f64).log2() + 1e-9);
    }

    // fsck is clean at this scale; reopening sees the same state.
    assert!(store.fsck().unwrap().is_clean());
    drop(store);
    let mut store = BlockStore::open(&dir).unwrap();
    assert_eq!(store.row_count(), ROWS);

    // Compaction is a no-op for already-full segments, then appending a
    // few short flushes and compacting merges them.
    assert!(!store.compact().unwrap());
    for extra in 0..3u64 {
        let h = 6_988_615 + ROWS + extra;
        let row = RowRecord {
            height: h,
            timestamp: T0 + (ROWS as i64 + extra as i64) * 14,
            producer: 0,
            credit_millis: 1000,
            tx_count: 0,
            size_bytes: 0,
            difficulty: 0,
        };
        store.append_rows(&[row]).unwrap();
        store.flush().unwrap();
    }
    assert_eq!(store.segment_count(), 7);
    assert!(store.compact().unwrap());
    assert_eq!(store.segment_count(), 4);
    assert_eq!(store.row_count(), ROWS + 3);
    assert!(store.fsck().unwrap().is_clean());

    std::fs::remove_dir_all(&dir).unwrap();
}

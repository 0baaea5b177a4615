//! Every timed region records exactly one histogram sample per entry,
//! and the head-following counters count every event.
//!
//! The metrics registry is process-global, so this binary holds a single
//! test: nothing else in the process records while it reads the deltas
//! of the span histograms around a flush, a whole scan and a matrix run
//! (one `window.form` sample per window spec), and of the `ingest.*`
//! counters around a forking `ChainView` follow.

use blockdec::core::planner::MatrixPlan;
use blockdec::prelude::*;
use blockdec_ingest::ChainView;
use blockdec_sim::FeedConfig;
use blockdec_store::RowRecord;

/// Sealed segments the test writes, one per flush.
const SEGMENTS: u64 = 3;
/// Rows per flush: well under a segment's capacity, so each flush seals
/// exactly one segment.
const ROWS_PER_FLUSH: u64 = 2_000;
const T0: i64 = 1_546_300_800;

fn samples(name: &str) -> u64 {
    blockdec_obs::histogram(name).snapshot().count
}

fn count(name: &str) -> u64 {
    blockdec_obs::counter(name).get()
}

#[test]
fn each_span_records_one_sample_per_entry() {
    let dir = std::env::temp_dir().join(format!("blockdec-span-samples-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = BlockStore::create(&dir).unwrap();
    let pools: Vec<u32> = (0..12)
        .map(|i| store.intern_producer(&format!("pool-{i:02}")))
        .collect();

    let (flushes, writes) = (samples("stage.store_flush"), samples("store.segment_write"));
    for k in 0..SEGMENTS {
        // Ten-minute blocks: 6,000 rows span ~42 calendar days.
        let rows: Vec<RowRecord> = (k * ROWS_PER_FLUSH..(k + 1) * ROWS_PER_FLUSH)
            .map(|h| RowRecord {
                height: 556_459 + h,
                timestamp: T0 + (h as i64) * 600,
                producer: pools[((h * h + h / 5) % 12) as usize],
                credit_millis: 1000,
                tx_count: 0,
                size_bytes: 0,
                difficulty: 0,
            })
            .collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
    }
    assert_eq!(store.segment_count() as u64, SEGMENTS);
    assert_eq!(samples("stage.store_flush") - flushes, SEGMENTS);
    assert_eq!(samples("store.segment_write") - writes, SEGMENTS);

    let (scans, reads) = (samples("stage.scan"), samples("store.segment_read"));
    let cols = store.scan_columnar(&ScanPredicate::all()).unwrap();
    assert_eq!(cols.len() as u64, SEGMENTS * ROWS_PER_FLUSH);
    assert_eq!(samples("stage.scan") - scans, 1);
    assert_eq!(samples("store.segment_read") - reads, SEGMENTS);

    let origin = Timestamp::year_2019_start();
    let configs = [
        MeasurementEngine::new(MetricKind::Gini).fixed_calendar(Granularity::Day, origin),
        MeasurementEngine::new(MetricKind::ShannonEntropy).sliding(144, 72),
        MeasurementEngine::new(MetricKind::Nakamoto).sliding(144, 72),
    ];
    let (matrices, chunks, chunk_samples, forms) = (
        samples("stage.measure_matrix"),
        count("planner.chunks"),
        samples("planner.chunk"),
        samples("window.form"),
    );
    let plan = MatrixPlan::new(&configs);
    let series = plan.run_columns(cols.as_slice());
    assert_eq!(series.len(), configs.len());
    assert_eq!(samples("stage.measure_matrix") - matrices, 1);
    // One formation per window spec: the two sliding configs share one.
    assert_eq!(plan.window_specs(), 2);
    assert_eq!(samples("window.form") - forms, plan.window_specs() as u64);
    let chunks = count("planner.chunks") - chunks;
    assert!(chunks >= 2, "one chunk per window spec at least: {chunks}");
    assert_eq!(samples("planner.chunk") - chunk_samples, chunks);

    // A short forking follow: the view's own tallies and the process
    // counters move together, event by event.
    let follow_dir = dir.with_extension("follow");
    let _ = std::fs::remove_dir_all(&follow_dir);
    let head = [
        "ingest.head.accepted",
        "ingest.head.finalized",
        "ingest.reorg.applied",
        "ingest.reorg.blocks_dropped",
    ]
    .map(count);
    let scenario = Scenario::bitcoin_2019().truncated(2);
    let store = BlockStore::create(&follow_dir).unwrap();
    let mut view = ChainView::new(store, scenario.chain, scenario.attribution, 6);
    let feed = FeedConfig {
        fork_every: 10,
        ..FeedConfig::default()
    };
    for block in scenario.stream_events(feed) {
        view.apply(&block).unwrap();
    }
    view.finalize_all().unwrap();
    let reorgs = view.reorg_stats();
    assert!(reorgs.applied > 0, "the feed forked nowhere");
    assert!(view.accepted() > view.finalized());
    assert_eq!(count("ingest.head.accepted") - head[0], view.accepted());
    assert_eq!(count("ingest.head.finalized") - head[1], view.finalized());
    assert_eq!(count("ingest.reorg.applied") - head[2], reorgs.applied);
    assert_eq!(
        count("ingest.reorg.blocks_dropped") - head[3],
        reorgs.blocks_dropped
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&follow_dir).unwrap();
}

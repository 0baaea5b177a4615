//! Performance harness behind the experiments binary's `--bench-json`
//! mode.
//!
//! Each `run_*_bench` measures one dataset for one section of the
//! committed `BENCH_*.json` and returns a [`Row`]: the dataset plus named
//! [`Field`]s in JSON order, each tagged with the precision it is written
//! at. Four functions over rows are the one report path:
//! [`write_bench_json`], [`row_summary`], [`false_flags`] and
//! [`check_baseline`] (the `ci/bench-baseline.txt` gate).
//!
//! The matrix baseline, [`naive_matrix`], is the pre-planner `run_matrix`:
//! one scoped thread per configuration, each calling
//! [`MeasurementEngine::run`] and therefore re-windowing, re-building,
//! and re-sorting the block stream independently. The planner
//! ([`blockdec_core::planner::MatrixPlan`], reached through the current
//! `run_matrix`) shares that work across every configuration with the
//! same window spec, which is where the measured speedup comes from.

use self::Field::{Flag, Int, Rate, Secs, Speedup, Text};
use crate::datasets::Dataset;
use blockdec_chain::time::SECS_PER_DAY;
use blockdec_chain::{AttributedBlock, Credit, Granularity};
use blockdec_core::engine::{run_matrix, MeasurementEngine};
use blockdec_core::metrics::MetricKind;
use blockdec_core::series::MeasurementSeries;
use blockdec_core::MatrixPlan;
use blockdec_store::{BlockStore, ScanOptions, ScanPredicate};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One value of a bench [`Row`], tagged with how the JSON writes it.
#[derive(Debug, PartialEq)]
pub enum Field {
    /// A string, written as a JSON string literal.
    Text(String),
    /// A count.
    Int(u64),
    /// Seconds or a fraction, written with 6 decimals.
    Secs(f64),
    /// A speedup ratio, written with 3 decimals.
    Speedup(f64),
    /// A rate (blocks/s, events/s, MB/s), written with 1 decimal.
    Rate(f64),
    /// A yes/no check.
    Flag(bool),
}

impl Field {
    /// The value as a number, for every variant but `Text` and `Flag`.
    fn number(&self) -> Option<f64> {
        match *self {
            Int(n) => Some(n as f64),
            Secs(x) | Speedup(x) | Rate(x) => Some(x),
            Text(_) | Flag(_) => None,
        }
    }
}

/// The value's JSON text.
impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Text(s) => f.write_str(&serde_json::to_string(s).map_err(|_| fmt::Error)?),
            Int(n) => write!(f, "{n}"),
            Secs(x) => write!(f, "{x:.6}"),
            Speedup(x) => write!(f, "{x:.3}"),
            Rate(x) => write!(f, "{x:.1}"),
            Flag(b) => write!(f, "{b}"),
        }
    }
}

/// One dataset's result in one bench section: `dataset` first, then every
/// field in the order the JSON writes it.
#[derive(Debug, PartialEq)]
pub struct Row(pub Vec<(&'static str, Field)>);

impl Row {
    fn get(&self, name: &str) -> Option<&Field> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    fn dataset(&self) -> &str {
        match self.get("dataset") {
            Some(Text(name)) => name,
            _ => panic!("bench row has no dataset: {self:?}"),
        }
    }

    /// A numeric field as `f64`. Panics when the row has no number `name`.
    pub fn num(&self, name: &str) -> f64 {
        self.get(name)
            .and_then(Field::number)
            .unwrap_or_else(|| panic!("bench row has no number {name:?}: {self:?}"))
    }

    /// A flag field. Panics when the row has no flag `name`.
    pub fn flag(&self, name: &str) -> bool {
        match self.get(name) {
            Some(Flag(b)) => *b,
            _ => panic!("bench row has no flag {name:?}: {self:?}"),
        }
    }
}

/// The pre-planner `run_matrix`: fan out one scoped thread per
/// configuration, each running the full window pipeline on its own.
pub fn naive_matrix(
    blocks: &[AttributedBlock],
    configs: &[MeasurementEngine],
) -> Vec<MeasurementSeries> {
    let mut results: Vec<Option<MeasurementSeries>> = (0..configs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(configs.len());
        for (i, cfg) in configs.iter().enumerate() {
            handles.push((i, scope.spawn(move || cfg.run(blocks))));
        }
        for (i, h) in handles {
            results[i] = Some(h.join().expect("measurement thread panicked"));
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every config produces a series"))
        .collect()
}

/// The paper's full per-chain matrix: every PAPER metric over day/week/
/// month fixed calendar windows, one block-count sliding spec, and one
/// day-long time-based sliding spec — 15 configurations, 5 unique
/// window specs.
pub fn paper_matrix(ds: &Dataset, sliding_size: usize) -> Vec<MeasurementEngine> {
    let origin = ds.origin();
    let mut configs = Vec::new();
    for &metric in &MetricKind::PAPER {
        for granularity in [Granularity::Day, Granularity::Week, Granularity::Month] {
            configs.push(MeasurementEngine::new(metric).fixed_calendar(granularity, origin));
        }
        configs.push(MeasurementEngine::new(metric).sliding(sliding_size, sliding_size / 2));
        configs.push(MeasurementEngine::new(metric).sliding_time(SECS_PER_DAY, SECS_PER_DAY / 2));
    }
    configs
}

/// A throwaway bench directory under the temp dir, removed on drop.
/// Its name carries the thread id: tests on parallel threads of one
/// process run the same bench on the same dataset.
struct BenchDir(PathBuf);

impl BenchDir {
    fn new(bench: &str, ds: &Dataset) -> BenchDir {
        let dir = std::env::temp_dir().join(format!(
            "blockdec-{bench}-{}-{}-{:?}",
            ds.name,
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        BenchDir(dir)
    }

    /// Persist `ds` into a fresh store here, sealed in `flushes` chunked
    /// flushes (so a parallel scan has segments to fan out over), then
    /// compacted into the sorted layout a chain-year store settles into
    /// when `compact` is set.
    fn store(&self, ds: &Dataset, flushes: usize, compact: bool) -> BlockStore {
        let mut store = BlockStore::create(&self.0).expect("create bench store");
        let step = ds.attributed.len().div_ceil(flushes).max(1);
        for chunk in ds.attributed.chunks(step) {
            store
                .append_attributed(chunk, &ds.registry)
                .expect("append bench dataset");
            store.flush().expect("flush bench store");
        }
        if compact {
            store.compact().expect("compact bench store");
        }
        store
    }
}

impl Drop for BenchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Best-of-3 wall seconds for `run`, with the last run's output. Each
/// output is dropped before the next run starts, so no run is timed
/// while an earlier result holds memory it could reuse.
fn best_of_3<T>(mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        drop(out.take());
        let t = Instant::now();
        let r = run();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("three runs happened"))
}

/// The ~3-day window in the middle of the dataset's time range.
fn mid_window(ds: &Dataset) -> ScanPredicate {
    let times = ds.attributed.iter().map(|b| b.timestamp.0);
    let ts_min = times.clone().min().unwrap_or(0);
    let ts_max = times.max().unwrap_or(0);
    let lo = ts_min + (ts_max - ts_min) / 2;
    ScanPredicate::all().times(lo, lo + 3 * SECS_PER_DAY)
}

/// `n / secs`, guarded against a zero-length timing.
fn per_sec(n: f64, secs: f64) -> f64 {
    n / secs.max(1e-9)
}

/// Run the naive baseline and the planner once each over the same
/// matrix, check the outputs for exact equality, and report timings.
/// `generate_secs` (the dataset's generation time) is context, not part
/// of the ratio.
pub fn run_matrix_bench(ds: &Dataset, generate_secs: f64, sliding_size: usize) -> Row {
    let configs = paper_matrix(ds, sliding_size);
    let blocks = &ds.attributed;

    let t = Instant::now();
    let naive = naive_matrix(blocks, &configs);
    let naive_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let planned = run_matrix(blocks, &configs);
    let planner_secs = t.elapsed().as_secs_f64();

    Row(vec![
        ("dataset", Text(ds.name.clone())),
        ("blocks", Int(blocks.len() as u64)),
        ("configs", Int(configs.len() as u64)),
        // Unique window specs after planner dedup.
        (
            "window_specs",
            Int(MatrixPlan::new(&configs).window_specs() as u64),
        ),
        ("generate_secs", Secs(generate_secs)),
        ("naive_secs", Secs(naive_secs)),
        ("planner_secs", Secs(planner_secs)),
        (
            "planner_blocks_per_sec",
            Rate(per_sec(blocks.len() as f64, planner_secs)),
        ),
        ("speedup", Speedup(per_sec(naive_secs, planner_secs))),
        ("exact_match", Flag(naive == planned)),
    ])
}

/// Analytic resident footprint of an AoS attributed stream: the block
/// array itself plus each block's separately heap-allocated credit
/// buffer. Deterministic, so it serves as the peak-allocation proxy in
/// committed bench artifacts.
pub fn aos_resident_bytes(blocks: &[AttributedBlock]) -> usize {
    let credits: usize = blocks.iter().map(|b| b.credits.len()).sum();
    std::mem::size_of_val(blocks) + credits * std::mem::size_of::<Credit>()
}

/// Run both end-to-end pipelines — store scan through planner — over the
/// same dataset and matrix, once over `Vec<AttributedBlock>` and once over
/// [`blockdec_chain::BlockColumns`], check outputs for bitwise equality
/// (`==` on the full series), and report timings plus resident-memory
/// footprints.
///
/// The dataset is first persisted to a throwaway store so both sides pay
/// the same I/O. `scan_attributed` is the columnar scan converted to
/// `Vec<AttributedBlock>` (one heap `Vec<Credit>` per block), so the AoS
/// side times that scan plus the conversion, while the columnar side
/// runs the planner straight off `scan_columnar`.
pub fn run_columnar_bench(ds: &Dataset, sliding_size: usize) -> Row {
    let configs = paper_matrix(ds, sliding_size);
    let plan = MatrixPlan::new(&configs);
    let dir = BenchDir::new("colbench", ds);
    let store = dir.store(ds, 1, false);
    let pred = ScanPredicate::all();

    let t = Instant::now();
    let blocks = store.scan_attributed(&pred).expect("AoS scan");
    let aos_series = plan.run(&blocks);
    let aos_secs = t.elapsed().as_secs_f64();
    let aos_bytes = aos_resident_bytes(&blocks);
    drop(blocks);

    let t = Instant::now();
    let cols = store.scan_columnar(&pred).expect("columnar scan");
    let col_series = plan.run_columns(cols.as_slice());
    let columnar_secs = t.elapsed().as_secs_f64();

    Row(vec![
        ("dataset", Text(ds.name.clone())),
        ("blocks", Int(cols.len() as u64)),
        ("credits", Int(cols.credit_count() as u64)),
        ("configs", Int(configs.len() as u64)),
        ("aos_secs", Secs(aos_secs)),
        ("columnar_secs", Secs(columnar_secs)),
        ("speedup", Speedup(per_sec(aos_secs, columnar_secs))),
        ("aos_resident_bytes", Int(aos_bytes as u64)),
        ("columnar_resident_bytes", Int(cols.resident_bytes() as u64)),
        ("exact_match", Flag(aos_series == col_series)),
    ])
}

/// Persist the dataset to a throwaway store sealed in 8 chunks, then time
/// the raw [`BlockStore::scan_columnar_with`] decode at one worker
/// (sequential) and at the auto thread count (one per CPU, clamped to
/// the segment count), best of three runs each, and compare the two
/// `BlockColumns` bitwise (every column, CSR offsets included).
pub fn run_decode_bench(ds: &Dataset) -> Row {
    let dir = BenchDir::new("decbench", ds);
    let store = dir.store(ds, 8, false);
    let segments = store.segment_count();
    let store_bytes: u64 = std::fs::read_dir(&dir.0)
        .expect("read bench store dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "bds"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let pred = ScanPredicate::all();
    let scan = |threads| {
        let opts = ScanOptions::strict().with_threads(threads);
        best_of_3(|| {
            store
                .scan_columnar_with(&pred, opts, |_| true)
                .expect("bench scan")
                .0
        })
    };
    let (sequential_secs, sequential) = scan(1);
    let (parallel_secs, parallel) = scan(0);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(segments.max(1));

    // MB here is 2^20 bytes.
    let mb = store_bytes as f64 / (1024.0 * 1024.0);
    let blocks = sequential.len() as f64;
    Row(vec![
        ("dataset", Text(ds.name.clone())),
        ("blocks", Int(sequential.len() as u64)),
        ("credits", Int(sequential.credit_count() as u64)),
        ("segments", Int(segments as u64)),
        ("store_bytes", Int(store_bytes)),
        ("threads", Int(threads as u64)),
        ("sequential_secs", Secs(sequential_secs)),
        ("parallel_secs", Secs(parallel_secs)),
        (
            "sequential_blocks_per_sec",
            Rate(per_sec(blocks, sequential_secs)),
        ),
        (
            "parallel_blocks_per_sec",
            Rate(per_sec(parallel.len() as f64, parallel_secs)),
        ),
        ("sequential_mb_per_sec", Rate(per_sec(mb, sequential_secs))),
        ("parallel_mb_per_sec", Rate(per_sec(mb, parallel_secs))),
        ("exact_match", Flag(sequential == parallel)),
    ])
}

/// Persist the dataset, compact it into large sorted v3 segments (the
/// layout a chain-year store settles into), then time a full columnar
/// decode against two pruned scans, best of three each: a ~3-day time
/// window in the middle of the range (page-group zone pruning), and the
/// producer whose rows span the fewest segments (manifest/segment bloom
/// pruning) — the worst case for a full decode, the best case for bloom
/// pruning, and exactly the per-entity query the SoK literature runs.
///
/// The `*_blocks_per_sec` rates are effective coverage, store blocks over
/// the pruned scan's seconds: how fast it sweeps the *whole* store, so
/// they exceed the full decode rate exactly when pruning skips work.
/// Both pruned outputs are checked bitwise against a full scan with the
/// same predicate applied as a residual row filter, at `--scan-threads`
/// 1 and auto.
pub fn run_pruned_bench(ds: &Dataset) -> Row {
    use blockdec_store::segment::SEGMENT_ROWS;
    use std::collections::BTreeMap;

    let dir = BenchDir::new("prunebench", ds);
    let store = dir.store(ds, 8, true);
    let segments = store.segment_count();
    let time_pred = mid_window(ds);

    // The producer whose rows land in the fewest (height-sorted,
    // SEGMENT_ROWS-aligned) segments; ties go to the fewest rows, then
    // the lowest id.
    let rows = store.scan(&ScanPredicate::all()).expect("row scan");
    let mut locality: BTreeMap<u32, (usize, usize, u64)> = BTreeMap::new();
    for (i, r) in rows.iter().enumerate() {
        let bucket = i / SEGMENT_ROWS;
        let e = locality.entry(r.producer).or_insert((bucket, bucket, 0));
        e.0 = e.0.min(bucket);
        e.1 = e.1.max(bucket);
        e.2 += 1;
    }
    let (&rare, _) = locality
        .iter()
        .min_by_key(|(id, (first, last, n))| (last - first, *n, **id))
        .expect("store is non-empty");
    let names = store.registry().to_name_list();
    let producer_name = names
        .get(rare as usize)
        .cloned()
        .unwrap_or_else(|| format!("producer-{rare}"));
    let producer_pred = ScanPredicate::all().producer(rare);
    drop(rows);

    let scan = |pred: &ScanPredicate| {
        let opts = ScanOptions::strict().with_threads(0);
        best_of_3(|| {
            store
                .scan_columnar_with(pred, opts, |_| true)
                .expect("bench scan")
        })
    };
    let (full_secs, (full_cols, _)) = scan(&ScanPredicate::all());
    let (time_secs, (_, time_stats)) = scan(&time_pred);
    let (producer_secs, (_, producer_stats)) = scan(&producer_pred);

    let mut exact_match = true;
    for pred in [&time_pred, &producer_pred] {
        let (reference, _) = store
            .scan_columnar_with(
                &ScanPredicate::all(),
                ScanOptions::strict().with_threads(1),
                |r| pred.matches(r),
            )
            .expect("reference scan");
        for threads in [1, 0] {
            let (pruned, _) = store
                .scan_columnar_with(pred, ScanOptions::strict().with_threads(threads), |_| true)
                .expect("pruned scan");
            exact_match &= pruned == reference;
        }
    }

    let blocks = full_cols.len() as f64;
    Row(vec![
        ("dataset", Text(ds.name.clone())),
        ("blocks", Int(full_cols.len() as u64)),
        ("credits", Int(full_cols.credit_count() as u64)),
        ("segments", Int(segments as u64)),
        ("full_secs", Secs(full_secs)),
        ("full_blocks_per_sec", Rate(per_sec(blocks, full_secs))),
        ("time_rows", Int(time_stats.rows_returned)),
        ("time_secs", Secs(time_secs)),
        ("time_blocks_per_sec", Rate(per_sec(blocks, time_secs))),
        (
            "time_segments_pruned",
            Int(time_stats.segments_pruned as u64),
        ),
        ("time_pages_pruned", Int(time_stats.pages_pruned)),
        ("time_speedup", Speedup(per_sec(full_secs, time_secs))),
        ("producer", Text(producer_name)),
        ("producer_rows", Int(producer_stats.rows_returned)),
        ("producer_secs", Secs(producer_secs)),
        (
            "producer_blocks_per_sec",
            Rate(per_sec(blocks, producer_secs)),
        ),
        (
            "producer_segments_pruned",
            Int(producer_stats.segments_pruned as u64),
        ),
        (
            "producer_bloom_skips",
            Int(producer_stats.bloom_skips as u64),
        ),
        ("producer_pages_pruned", Int(producer_stats.pages_pruned)),
        (
            "producer_speedup",
            Speedup(per_sec(full_secs, producer_secs)),
        ),
        ("exact_match", Flag(exact_match)),
    ])
}

/// Persist the dataset into a compacted store, then measure what the
/// `ObjectStore` layer actually reads: a cold-cache pruned 3-day window
/// scan's `store.backend.bytes_fetched` (index blocks plus matching page
/// groups only) against the total store size — the `fetch_fraction` the
/// CI ceiling gates on — plus a bitwise LocalFs-vs-SimBackend parity
/// check of every scan (full and pruned, at 1 worker and at the auto
/// thread count) under injected transient read faults.
pub fn run_backend_bench(ds: &Dataset) -> Row {
    use blockdec_store::{LocalFs, ObjectStore, SimBackend, SimProfile};
    use std::sync::Arc;

    let dir = BenchDir::new("backendbench", ds);
    let store = dir.store(ds, 8, true);
    let segments = store.segment_count();
    drop(store);

    // Total committed bytes, via the backend itself.
    let fs_backend: Arc<dyn ObjectStore> = Arc::new(LocalFs::new(&dir.0));
    let store_bytes: u64 = fs_backend
        .list()
        .expect("list store")
        .iter()
        .filter(|n| n.ends_with(".bds"))
        .map(|n| fs_backend.size(n).expect("segment size"))
        .sum();
    let time_pred = mid_window(ds);

    // Cold-cache pruned scan: a fresh handle, so the page cache starts
    // empty and every backend read shows up in the counter deltas.
    let cold = BlockStore::open_with(Arc::new(LocalFs::new(&dir.0))).expect("open bench store");
    let fetched0 = blockdec_obs::counter("store.backend.bytes_fetched").get();
    let hits0 = blockdec_obs::counter("store.backend.hit").get();
    let misses0 = blockdec_obs::counter("store.backend.miss").get();
    let (window_cols, _) = cold
        .scan_columnar_with(&time_pred, ScanOptions::strict().with_threads(0), |_| true)
        .expect("pruned window scan");
    let bytes_fetched = blockdec_obs::counter("store.backend.bytes_fetched").get() - fetched0;
    let page_cache_hits = blockdec_obs::counter("store.backend.hit").get() - hits0;
    let page_cache_misses = blockdec_obs::counter("store.backend.miss").get() - misses0;
    let window_rows = window_cols.credit_count() as u64;
    drop(cold);

    // Sim parity: the same store through seeded latency, jitter, and an
    // injected transient fault every 7th read must decode identically.
    let local = BlockStore::open_with(Arc::new(LocalFs::new(&dir.0))).expect("open local");
    let profile = SimProfile {
        seed: 42,
        latency_us: 20,
        jitter_us: 10,
        bandwidth_kbps: 0,
        fail_every: 7,
    };
    let sim_backend: Arc<dyn ObjectStore> =
        Arc::new(SimBackend::new(Arc::new(LocalFs::new(&dir.0)), profile));
    let sim = BlockStore::open_with(sim_backend).expect("open sim");
    let retries0 = blockdec_obs::counter("store.backend.retries").get();
    let mut sim_exact_match = true;
    let mut blocks = 0;
    for pred in [&ScanPredicate::all(), &time_pred] {
        let (reference, _) = local
            .scan_columnar_with(pred, ScanOptions::strict().with_threads(1), |_| true)
            .expect("local reference scan");
        if !pred.can_prune() {
            blocks = reference.len();
        }
        for threads in [1, 0] {
            let (cols, _) = sim
                .scan_columnar_with(pred, ScanOptions::strict().with_threads(threads), |_| true)
                .expect("sim scan");
            sim_exact_match &= cols == reference;
        }
    }
    let sim_retries = blockdec_obs::counter("store.backend.retries").get() - retries0;

    Row(vec![
        ("dataset", Text(ds.name.clone())),
        ("blocks", Int(blocks as u64)),
        ("segments", Int(segments as u64)),
        ("store_bytes", Int(store_bytes)),
        ("window_rows", Int(window_rows)),
        ("bytes_fetched", Int(bytes_fetched)),
        (
            "fetch_fraction",
            Secs(bytes_fetched as f64 / store_bytes.max(1) as f64),
        ),
        ("page_cache_hits", Int(page_cache_hits)),
        ("page_cache_misses", Int(page_cache_misses)),
        ("sim_retries", Int(sim_retries)),
        ("sim_exact_match", Flag(sim_exact_match)),
    ])
}

/// Checkpoints for the recomputing consumer in [`run_follow_bench`]: the
/// batch engine re-runs over the prefix finalized so far at each one,
/// which is what a consumer without delta streams would have to do to
/// stay current. Sixteen refreshes over a two-week CI stream is roughly
/// one per simulated day — a modest cadence that still favors the
/// recomputer (a consumer refreshing per window closure would be
/// quadratic).
const FOLLOW_CHECKPOINTS: usize = 16;

/// Finality watermark for the follow bench, comfortably above the seeded
/// feed's deepest fork so branch blocks never finalize.
const FOLLOW_FINALITY: usize = 6;

/// Drive the scenario's live head feed (seeded forks every 50 blocks,
/// up to 3 deep) through a [`blockdec_ingest::ChainView`] into a
/// throwaway store, then compare two consumers over the finalized chain:
/// incremental delta streams (PAPER metrics × {fixed:day, sliding}, one
/// pass) against periodic full recomputes (16 batch-engine runs over
/// growing prefixes — `FOLLOW_CHECKPOINTS`).
///
/// `blocks_per_sec` is head events (canonical plus fork-branch blocks)
/// per second of the follow loop, which attaches, reorgs, attributes and
/// appends but does no metric work. Correctness is checked bitwise both
/// ways: the follow store's scan (blocks and registry) must equal the
/// batch-generated stream, and every delta stream's points must equal
/// the batch engine's series.
pub fn run_follow_bench(ds: &Dataset, sliding_size: usize) -> Row {
    use blockdec_ingest::ChainView;
    use blockdec_sim::FeedConfig;

    let dir = BenchDir::new("followbench", ds);
    let store = BlockStore::create(&dir.0).expect("create bench store");
    let mut view = ChainView::new(
        store,
        ds.scenario.chain,
        ds.scenario.attribution,
        FOLLOW_FINALITY,
    );

    // The follow loop: pure ingestion — attach/reorg, attribute past the
    // watermark, append to the store. Metric work is timed separately.
    let mut finalized: Vec<AttributedBlock> = Vec::with_capacity(ds.len());
    let mut events = 0usize;
    let t = Instant::now();
    let mut feed = ds.scenario.stream_events(FeedConfig::default());
    for block in feed.by_ref() {
        events += 1;
        view.apply(&block).expect("apply head event");
        finalized.extend(view.take_finalized());
    }
    view.finalize_all().expect("finalize tail");
    finalized.extend(view.take_finalized());
    let follow_secs = t.elapsed().as_secs_f64();
    let reorgs = view.reorg_stats();

    // Bitwise store check: what follow persisted must equal the batch
    // stream — blocks and producer registry both.
    let scanned = view
        .store()
        .scan_attributed(&ScanPredicate::all())
        .expect("scan follow store");
    let store_exact_match = scanned == ds.attributed
        && view.store().registry().to_name_list() == ds.registry.to_name_list();
    drop(view);

    // The streamable paper matrix: every PAPER metric over fixed:day and
    // the chain's sliding spec (sliding-time sorts globally and cannot
    // follow a live head).
    let origin = ds.origin();
    let spec = blockdec_core::windows::SlidingWindowSpec::new(sliding_size, sliding_size / 2);
    let configs: Vec<MeasurementEngine> = MetricKind::PAPER
        .iter()
        .flat_map(|&m| {
            [
                MeasurementEngine::new(m).fixed_calendar(Granularity::Day, origin),
                MeasurementEngine::new(m).sliding(sliding_size, sliding_size / 2),
            ]
        })
        .collect();
    let fresh_streams = || -> Vec<blockdec_core::MetricDeltaStream> {
        MetricKind::PAPER
            .iter()
            .flat_map(|&m| {
                [
                    blockdec_core::MetricDeltaStream::fixed(m, Granularity::Day, origin),
                    blockdec_core::MetricDeltaStream::sliding(m, spec),
                ]
            })
            .collect()
    };

    // Incremental consumer: one pass, every block into every stream.
    let t = Instant::now();
    let mut streams = fresh_streams();
    for b in &finalized {
        for s in streams.iter_mut() {
            s.push_block(b).expect("delta push");
        }
    }
    for s in &mut streams {
        s.finish();
    }
    let delta_points: Vec<Vec<blockdec_core::MeasurementPoint>> =
        streams.into_iter().map(|s| s.into_points()).collect();
    let delta_secs = t.elapsed().as_secs_f64();

    // Recomputing consumer: a full batch run over the prefix finalized
    // so far, at each checkpoint. The final checkpoint covers the whole
    // chain and doubles as the bitwise reference for the delta points.
    let t = Instant::now();
    let mut batch: Vec<MeasurementSeries> = Vec::new();
    for k in 1..=FOLLOW_CHECKPOINTS {
        let prefix = &finalized[..finalized.len() * k / FOLLOW_CHECKPOINTS];
        batch = configs.iter().map(|c| c.run(prefix)).collect();
    }
    let recompute_secs = t.elapsed().as_secs_f64();

    let delta_exact_match = delta_points.len() == batch.len()
        && delta_points.iter().zip(&batch).all(|(d, s)| *d == s.points);

    Row(vec![
        ("dataset", Text(ds.name.clone())),
        ("events", Int(events as u64)),
        ("blocks", Int(finalized.len() as u64)),
        ("reorgs_applied", Int(reorgs.applied)),
        ("blocks_rolled_back", Int(reorgs.blocks_dropped)),
        // Deepest single rollback, in blocks (never exceeds finality).
        ("deepest_reorg", Int(reorgs.deepest as u64)),
        ("follow_secs", Secs(follow_secs)),
        ("blocks_per_sec", Rate(per_sec(events as f64, follow_secs))),
        ("streams", Int(configs.len() as u64)),
        (
            "windows",
            Int(delta_points.iter().map(Vec::len).sum::<usize>() as u64),
        ),
        ("delta_secs", Secs(delta_secs)),
        ("recompute_secs", Secs(recompute_secs)),
        (
            "delta_speedup",
            Speedup(per_sec(recompute_secs, delta_secs)),
        ),
        ("store_exact_match", Flag(store_exact_match)),
        ("delta_exact_match", Flag(delta_exact_match)),
    ])
}

/// Write the sections as a machine-readable JSON document so successive
/// runs can be committed (`BENCH_*.json`) and compared as a trajectory.
///
/// Version 6 carries six sections, in run order: `matrix`
/// (naive-vs-planner), `columnar` (AoS-vs-SoA end-to-end pipeline),
/// `decode` (sequential-vs-parallel store→columns decode), `pruned` (full
/// decode vs index/bloom-pruned filtered scans over the compacted
/// layout), `backend` (ObjectStore bytes fetched for a pruned window plus
/// LocalFs-vs-SimBackend parity under injected faults), and `follow`
/// (live head-following through the reorg-aware chain view plus
/// delta-stream-vs-recompute timing).
pub fn write_bench_json(path: &Path, sections: &[(&str, Vec<Row>)]) -> io::Result<()> {
    let mut out = String::from("{\n  \"bench\": \"matrix\",\n  \"version\": 6");
    for (section, rows) in sections {
        out.push_str(&format!(",\n  \"{section}\": [\n"));
        for (i, row) in rows.iter().enumerate() {
            let fields: Vec<String> = row
                .0
                .iter()
                .map(|(name, value)| format!("      \"{name}\": {value}"))
                .collect();
            let sep = if i + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!("    {{\n{}\n    }}{sep}\n", fields.join(",\n")));
        }
        out.push_str("  ]");
    }
    out.push_str("\n}\n");
    std::fs::write(path, out)
}

/// One human-readable line for a row: `section dataset: field value, …`.
pub fn row_summary(section: &str, row: &Row) -> String {
    let fields: Vec<String> = row
        .0
        .iter()
        .filter(|(name, _)| *name != "dataset")
        .map(|(name, value)| format!("{name} {value}"))
        .collect();
    format!("{section} {}: {}", row.dataset(), fields.join(", "))
}

/// Every `*exact_match` flag that came out false, named
/// `<section>.<dataset>.<field>`.
pub fn false_flags(sections: &[(&str, Vec<Row>)]) -> Vec<String> {
    let mut names = Vec::new();
    for (section, rows) in sections {
        for row in rows {
            for (name, value) in &row.0 {
                if name.ends_with("exact_match") && *value == Flag(false) {
                    names.push(format!("{section}.{}.{name}", row.dataset()));
                }
            }
        }
    }
    names
}

/// Check a baseline file's bounds against the rows; returns one message
/// per breached bound, malformed line, or unknown name (empty = pass).
///
/// Each line reads `<section>.<dataset>.<field> min|max <bound>`; blank
/// lines and `#` comments are skipped. `decode.<dataset>.blocks_per_sec`
/// is the better of the sequential and parallel decode rates — the one
/// gate value not read straight from a JSON field.
pub fn check_baseline(baseline: &str, sections: &[(&str, Vec<Row>)]) -> Vec<String> {
    let mut failures = Vec::new();
    for line in bound_lines(baseline) {
        let Some((name, kind, bound)) = parse_bound(line) else {
            failures.push(format!("bad baseline line {line:?}"));
            continue;
        };
        match gate_value(sections, name) {
            None => failures.push(format!("baseline names unknown value {name:?}")),
            Some(v) if (kind == "min" && v < bound) || (kind == "max" && v > bound) => {
                failures.push(format!("{name} = {v:.3} breaches its {kind} bound {bound}"));
            }
            Some(_) => {}
        }
    }
    failures
}

/// The bound lines of a baseline file: blank lines and `#` comments
/// skipped.
fn bound_lines(baseline: &str) -> impl Iterator<Item = &str> {
    baseline
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// `<name> min|max <bound>` as `(name, kind, bound)`; the bound must be
/// a finite number.
fn parse_bound(line: &str) -> Option<(&str, &str, f64)> {
    match line.split_whitespace().collect::<Vec<_>>()[..] {
        [name, kind @ ("min" | "max"), bound] => {
            let bound: f64 = bound.parse().ok()?;
            bound.is_finite().then_some((name, kind, bound))
        }
        _ => None,
    }
}

/// The value a gate name `<section>.<dataset>.<field>` refers to.
fn gate_value(sections: &[(&str, Vec<Row>)], name: &str) -> Option<f64> {
    let mut parts = name.splitn(3, '.');
    let (section, dataset, field) = (parts.next()?, parts.next()?, parts.next()?);
    let row = sections
        .iter()
        .filter(|(s, _)| *s == section)
        .flat_map(|(_, rows)| rows)
        .find(|row| row.dataset() == dataset)?;
    if section == "decode" && field == "blocks_per_sec" {
        let sequential = row.num("sequential_blocks_per_sec");
        return Some(sequential.max(row.num("parallel_blocks_per_sec")));
    }
    row.get(field)?.number()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(dataset: &str, mut fields: Vec<(&'static str, Field)>) -> Row {
        fields.insert(0, ("dataset", Text(dataset.into())));
        Row(fields)
    }

    #[test]
    fn best_of_3_drops_each_output_before_the_next_run() {
        struct Live<'a>(&'a std::cell::Cell<usize>);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let live = std::cell::Cell::new(0);
        let mut live_at_start = Vec::new();
        let (_, last) = best_of_3(|| {
            live_at_start.push(live.get());
            live.set(live.get() + 1);
            Live(&live)
        });
        assert_eq!(live_at_start, [0, 0, 0]);
        assert_eq!(live.get(), 1);
        drop(last);
        assert_eq!(live.get(), 0);
    }

    #[test]
    fn naive_matches_planner_and_json_is_written() {
        let ds = Dataset::bitcoin(7);
        let bench = run_matrix_bench(&ds, 0.0, 144);
        assert!(
            bench.flag("exact_match"),
            "planner diverged from naive baseline"
        );
        assert_eq!(bench.num("configs"), 15.0);
        assert_eq!(bench.num("window_specs"), 5.0);

        let col = run_columnar_bench(&ds, 144);
        assert!(
            col.flag("exact_match"),
            "columnar pipeline diverged from AoS"
        );
        assert_eq!(col.num("blocks"), ds.len() as f64);
        assert!(
            col.num("columnar_resident_bytes") < col.num("aos_resident_bytes"),
            "columns must be smaller: {col:?}"
        );

        let dec = run_decode_bench(&ds);
        assert!(
            dec.flag("exact_match"),
            "parallel decode diverged from sequential"
        );
        assert_eq!(dec.num("blocks"), ds.len() as f64);
        assert!(dec.num("segments") >= 2.0, "bench store must span segments");
        assert!(dec.num("store_bytes") > 0.0);

        let pruned = run_pruned_bench(&ds);
        assert!(
            pruned.flag("exact_match"),
            "pruned scan diverged from full scan plus filter"
        );
        assert_eq!(pruned.num("blocks"), ds.len() as f64);
        assert_eq!(
            pruned.num("segments"),
            1.0,
            "7 simulated days must compact to a single segment"
        );
        assert!(
            pruned.num("time_rows") > 0.0,
            "3-day window matched nothing"
        );
        assert!(
            pruned.num("producer_rows") > 0.0,
            "rare producer matched nothing"
        );

        let backend = run_backend_bench(&ds);
        assert!(
            backend.flag("sim_exact_match"),
            "sim backend diverged from LocalFs"
        );
        assert_eq!(backend.num("blocks"), ds.len() as f64);
        assert!(backend.num("store_bytes") > 0.0);
        assert!(
            backend.num("bytes_fetched") > 0.0,
            "window scan read nothing"
        );
        assert!(
            backend.num("window_rows") > 0.0,
            "3-day window matched nothing"
        );
        assert!(
            backend.num("fetch_fraction") <= 1.05,
            "pruned scan fetched more than the store holds: {backend:?}"
        );

        let follow = run_follow_bench(&ds, 144);
        assert!(
            follow.flag("store_exact_match"),
            "follow store diverged from the batch stream"
        );
        assert!(
            follow.flag("delta_exact_match"),
            "delta streams diverged from the batch engine"
        );
        assert_eq!(follow.num("blocks"), ds.len() as f64);
        assert!(
            follow.num("events") > follow.num("blocks"),
            "feed emitted no fork blocks"
        );
        assert!(
            follow.num("reorgs_applied") > 0.0,
            "feed exercised no reorgs"
        );
        assert!(
            follow.num("deepest_reorg") <= FOLLOW_FINALITY as f64,
            "a reorg crossed the finality watermark"
        );
        assert!(follow.num("windows") > 0.0, "delta streams emitted nothing");

        let sections = [
            ("matrix", vec![bench]),
            ("columnar", vec![col]),
            ("decode", vec![dec]),
            ("pruned", vec![pruned]),
            ("backend", vec![backend]),
            ("follow", vec![follow]),
        ];
        assert!(false_flags(&sections).is_empty());
        let path =
            std::env::temp_dir().join(format!("blockdec-bench-json-{}.json", std::process::id()));
        write_bench_json(&path, &sections).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"bench\": \"matrix\""));
        assert!(body.contains("\"version\": 6"));
        assert!(body.contains("\"dataset\": \"bitcoin\""));
        assert!(body.contains("\"columnar\": ["));
        assert!(body.contains("\"decode\": ["));
        assert!(body.contains("\"pruned\": ["));
        assert!(body.contains("\"backend\": ["));
        assert!(body.contains("\"follow\": ["));
        assert!(body.contains("\"aos_resident_bytes\""));
        assert!(body.contains("\"parallel_blocks_per_sec\""));
        assert!(body.contains("\"time_speedup\""));
        assert!(body.contains("\"producer_bloom_skips\""));
        assert!(body.contains("\"fetch_fraction\""));
        assert!(body.contains("\"sim_exact_match\": true"));
        assert!(body.contains("\"delta_speedup\""));
        assert!(body.contains("\"store_exact_match\": true"));
        assert!(body.contains("\"delta_exact_match\": true"));
        assert!(body.contains("\"exact_match\": true"));
        std::fs::remove_file(&path).unwrap();
    }

    /// The committed `BENCH_*.json` layout, byte for byte: section order,
    /// key order, and each field's decimals (the inputs carry more digits
    /// than are written, so rounding is pinned too).
    #[test]
    fn bench_json_layout_is_pinned() {
        let matrix = vec![
            row(
                "bitcoin",
                vec![
                    ("blocks", Int(54096)),
                    ("configs", Int(15)),
                    ("window_specs", Int(5)),
                    ("generate_secs", Secs(0.1234567)),
                    ("naive_secs", Secs(2.5)),
                    ("planner_secs", Secs(0.3333333)),
                    ("planner_blocks_per_sec", Rate(1234567.89)),
                    ("speedup", Speedup(2.34567)),
                    ("exact_match", Flag(true)),
                ],
            ),
            row(
                "ethereum",
                vec![
                    ("blocks", Int(2181973)),
                    ("configs", Int(15)),
                    ("window_specs", Int(5)),
                    ("generate_secs", Secs(1.75)),
                    ("naive_secs", Secs(12.0000004)),
                    ("planner_secs", Secs(2.0)),
                    ("planner_blocks_per_sec", Rate(1090986.45)),
                    ("speedup", Speedup(6.0004999)),
                    ("exact_match", Flag(false)),
                ],
            ),
        ];
        let columnar = vec![
            row(
                "bitcoin",
                vec![
                    ("blocks", Int(54096)),
                    ("credits", Int(60012)),
                    ("configs", Int(15)),
                    ("aos_secs", Secs(0.4444449)),
                    ("columnar_secs", Secs(0.2)),
                    ("speedup", Speedup(2.2222245)),
                    ("aos_resident_bytes", Int(3461888)),
                    ("columnar_resident_bytes", Int(1978432)),
                    ("exact_match", Flag(true)),
                ],
            ),
            row(
                "ethereum",
                vec![
                    ("blocks", Int(2181973)),
                    ("credits", Int(2181973)),
                    ("configs", Int(15)),
                    ("aos_secs", Secs(1.0000005)),
                    ("columnar_secs", Secs(0.8333333)),
                    ("speedup", Speedup(1.2000006)),
                    ("aos_resident_bytes", Int(139646272)),
                    ("columnar_resident_bytes", Int(78551028)),
                    ("exact_match", Flag(true)),
                ],
            ),
        ];
        let decode = vec![
            row(
                "bitcoin",
                vec![
                    ("blocks", Int(54096)),
                    ("credits", Int(60012)),
                    ("segments", Int(8)),
                    ("store_bytes", Int(1234567)),
                    ("threads", Int(2)),
                    ("sequential_secs", Secs(0.0123456789)),
                    ("parallel_secs", Secs(0.00987654321)),
                    ("sequential_blocks_per_sec", Rate(4381776.04)),
                    ("parallel_blocks_per_sec", Rate(5477220.05)),
                    ("sequential_mb_per_sec", Rate(95.36)),
                    ("parallel_mb_per_sec", Rate(119.21)),
                    ("exact_match", Flag(true)),
                ],
            ),
            row(
                "ethereum",
                vec![
                    ("blocks", Int(2181973)),
                    ("credits", Int(2181973)),
                    ("segments", Int(8)),
                    ("store_bytes", Int(16777216)),
                    ("threads", Int(2)),
                    ("sequential_secs", Secs(0.25)),
                    ("parallel_secs", Secs(0.1666666)),
                    ("sequential_blocks_per_sec", Rate(8727892.0)),
                    ("parallel_blocks_per_sec", Rate(13091843.25)),
                    ("sequential_mb_per_sec", Rate(64.04)),
                    ("parallel_mb_per_sec", Rate(96.06)),
                    ("exact_match", Flag(false)),
                ],
            ),
        ];
        let pruned = vec![
            row(
                "bitcoin",
                vec![
                    ("blocks", Int(54096)),
                    ("credits", Int(60012)),
                    ("segments", Int(1)),
                    ("full_secs", Secs(0.0054321)),
                    ("full_blocks_per_sec", Rate(9958579.55)),
                    ("time_rows", Int(497)),
                    ("time_secs", Secs(0.0004096)),
                    ("time_blocks_per_sec", Rate(132070312.46)),
                    ("time_segments_pruned", Int(0)),
                    ("time_pages_pruned", Int(52)),
                    ("time_speedup", Speedup(13.2619629)),
                    ("producer", Text("SlushPool".into())),
                    ("producer_rows", Int(4325)),
                    ("producer_secs", Secs(0.0003779)),
                    ("producer_blocks_per_sec", Rate(143149000.26)),
                    ("producer_segments_pruned", Int(0)),
                    ("producer_bloom_skips", Int(0)),
                    ("producer_pages_pruned", Int(48)),
                    ("producer_speedup", Speedup(14.3744377)),
                    ("exact_match", Flag(true)),
                ],
            ),
            row(
                "ethereum",
                vec![
                    ("blocks", Int(2181973)),
                    ("credits", Int(2181973)),
                    ("segments", Int(9)),
                    ("full_secs", Secs(0.2104)),
                    ("full_blocks_per_sec", Rate(10370594.11)),
                    ("time_rows", Int(17934)),
                    ("time_secs", Secs(0.0017149)),
                    ("time_blocks_per_sec", Rate(1272361653.74)),
                    ("time_segments_pruned", Int(8)),
                    ("time_pages_pruned", Int(3)),
                    ("time_speedup", Speedup(122.6893696)),
                    ("producer", Text("Ethermine".into())),
                    ("producer_rows", Int(511402)),
                    ("producer_secs", Secs(0.0121633)),
                    ("producer_blocks_per_sec", Rate(179389885.04)),
                    ("producer_segments_pruned", Int(5)),
                    ("producer_bloom_skips", Int(5)),
                    ("producer_pages_pruned", Int(11)),
                    ("producer_speedup", Speedup(17.2979537)),
                    ("exact_match", Flag(true)),
                ],
            ),
        ];
        let backend = vec![row(
            "bitcoin",
            vec![
                ("blocks", Int(54096)),
                ("segments", Int(1)),
                ("store_bytes", Int(2097152)),
                ("window_rows", Int(497)),
                ("bytes_fetched", Int(169869)),
                ("fetch_fraction", Secs(0.08100080490112305)),
                ("page_cache_hits", Int(3)),
                ("page_cache_misses", Int(11)),
                ("sim_retries", Int(6)),
                ("sim_exact_match", Flag(true)),
            ],
        )];
        let follow = vec![
            row(
                "bitcoin",
                vec![
                    ("events", Int(55146)),
                    ("blocks", Int(54096)),
                    ("reorgs_applied", Int(1050)),
                    ("blocks_rolled_back", Int(2100)),
                    ("deepest_reorg", Int(3)),
                    ("follow_secs", Secs(0.1544716)),
                    ("blocks_per_sec", Rate(356999.95)),
                    ("streams", Int(6)),
                    ("windows", Int(2115)),
                    ("delta_secs", Secs(0.0312345)),
                    ("recompute_secs", Secs(0.0655925)),
                    ("delta_speedup", Speedup(2.1000015)),
                    ("store_exact_match", Flag(true)),
                    ("delta_exact_match", Flag(true)),
                ],
            ),
            row(
                "ethereum",
                vec![
                    ("events", Int(2224872)),
                    ("blocks", Int(2181973)),
                    ("reorgs_applied", Int(42899)),
                    ("blocks_rolled_back", Int(85798)),
                    ("deepest_reorg", Int(3)),
                    ("follow_secs", Secs(3.9378407)),
                    ("blocks_per_sec", Rate(564999.96)),
                    ("streams", Int(6)),
                    ("windows", Int(1818)),
                    ("delta_secs", Secs(0.2500001)),
                    ("recompute_secs", Secs(0.7750004)),
                    ("delta_speedup", Speedup(3.0999998)),
                    ("store_exact_match", Flag(true)),
                    ("delta_exact_match", Flag(false)),
                ],
            ),
        ];
        let sections = [
            ("matrix", matrix),
            ("columnar", columnar),
            ("decode", decode),
            ("pruned", pruned),
            ("backend", backend),
            ("follow", follow),
        ];
        let path =
            std::env::temp_dir().join(format!("blockdec-bench-golden-{}.json", std::process::id()));
        write_bench_json(&path, &sections).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(body, GOLDEN_BENCH_JSON);
    }

    const GOLDEN_BENCH_JSON: &str = r#"{
  "bench": "matrix",
  "version": 6,
  "matrix": [
    {
      "dataset": "bitcoin",
      "blocks": 54096,
      "configs": 15,
      "window_specs": 5,
      "generate_secs": 0.123457,
      "naive_secs": 2.500000,
      "planner_secs": 0.333333,
      "planner_blocks_per_sec": 1234567.9,
      "speedup": 2.346,
      "exact_match": true
    },
    {
      "dataset": "ethereum",
      "blocks": 2181973,
      "configs": 15,
      "window_specs": 5,
      "generate_secs": 1.750000,
      "naive_secs": 12.000000,
      "planner_secs": 2.000000,
      "planner_blocks_per_sec": 1090986.4,
      "speedup": 6.000,
      "exact_match": false
    }
  ],
  "columnar": [
    {
      "dataset": "bitcoin",
      "blocks": 54096,
      "credits": 60012,
      "configs": 15,
      "aos_secs": 0.444445,
      "columnar_secs": 0.200000,
      "speedup": 2.222,
      "aos_resident_bytes": 3461888,
      "columnar_resident_bytes": 1978432,
      "exact_match": true
    },
    {
      "dataset": "ethereum",
      "blocks": 2181973,
      "credits": 2181973,
      "configs": 15,
      "aos_secs": 1.000001,
      "columnar_secs": 0.833333,
      "speedup": 1.200,
      "aos_resident_bytes": 139646272,
      "columnar_resident_bytes": 78551028,
      "exact_match": true
    }
  ],
  "decode": [
    {
      "dataset": "bitcoin",
      "blocks": 54096,
      "credits": 60012,
      "segments": 8,
      "store_bytes": 1234567,
      "threads": 2,
      "sequential_secs": 0.012346,
      "parallel_secs": 0.009877,
      "sequential_blocks_per_sec": 4381776.0,
      "parallel_blocks_per_sec": 5477220.0,
      "sequential_mb_per_sec": 95.4,
      "parallel_mb_per_sec": 119.2,
      "exact_match": true
    },
    {
      "dataset": "ethereum",
      "blocks": 2181973,
      "credits": 2181973,
      "segments": 8,
      "store_bytes": 16777216,
      "threads": 2,
      "sequential_secs": 0.250000,
      "parallel_secs": 0.166667,
      "sequential_blocks_per_sec": 8727892.0,
      "parallel_blocks_per_sec": 13091843.2,
      "sequential_mb_per_sec": 64.0,
      "parallel_mb_per_sec": 96.1,
      "exact_match": false
    }
  ],
  "pruned": [
    {
      "dataset": "bitcoin",
      "blocks": 54096,
      "credits": 60012,
      "segments": 1,
      "full_secs": 0.005432,
      "full_blocks_per_sec": 9958579.6,
      "time_rows": 497,
      "time_secs": 0.000410,
      "time_blocks_per_sec": 132070312.5,
      "time_segments_pruned": 0,
      "time_pages_pruned": 52,
      "time_speedup": 13.262,
      "producer": "SlushPool",
      "producer_rows": 4325,
      "producer_secs": 0.000378,
      "producer_blocks_per_sec": 143149000.3,
      "producer_segments_pruned": 0,
      "producer_bloom_skips": 0,
      "producer_pages_pruned": 48,
      "producer_speedup": 14.374,
      "exact_match": true
    },
    {
      "dataset": "ethereum",
      "blocks": 2181973,
      "credits": 2181973,
      "segments": 9,
      "full_secs": 0.210400,
      "full_blocks_per_sec": 10370594.1,
      "time_rows": 17934,
      "time_secs": 0.001715,
      "time_blocks_per_sec": 1272361653.7,
      "time_segments_pruned": 8,
      "time_pages_pruned": 3,
      "time_speedup": 122.689,
      "producer": "Ethermine",
      "producer_rows": 511402,
      "producer_secs": 0.012163,
      "producer_blocks_per_sec": 179389885.0,
      "producer_segments_pruned": 5,
      "producer_bloom_skips": 5,
      "producer_pages_pruned": 11,
      "producer_speedup": 17.298,
      "exact_match": true
    }
  ],
  "backend": [
    {
      "dataset": "bitcoin",
      "blocks": 54096,
      "segments": 1,
      "store_bytes": 2097152,
      "window_rows": 497,
      "bytes_fetched": 169869,
      "fetch_fraction": 0.081001,
      "page_cache_hits": 3,
      "page_cache_misses": 11,
      "sim_retries": 6,
      "sim_exact_match": true
    }
  ],
  "follow": [
    {
      "dataset": "bitcoin",
      "events": 55146,
      "blocks": 54096,
      "reorgs_applied": 1050,
      "blocks_rolled_back": 2100,
      "deepest_reorg": 3,
      "follow_secs": 0.154472,
      "blocks_per_sec": 357000.0,
      "streams": 6,
      "windows": 2115,
      "delta_secs": 0.031234,
      "recompute_secs": 0.065592,
      "delta_speedup": 2.100,
      "store_exact_match": true,
      "delta_exact_match": true
    },
    {
      "dataset": "ethereum",
      "events": 2224872,
      "blocks": 2181973,
      "reorgs_applied": 42899,
      "blocks_rolled_back": 85798,
      "deepest_reorg": 3,
      "follow_secs": 3.937841,
      "blocks_per_sec": 565000.0,
      "streams": 6,
      "windows": 1818,
      "delta_secs": 0.250000,
      "recompute_secs": 0.775000,
      "delta_speedup": 3.100,
      "store_exact_match": true,
      "delta_exact_match": false
    }
  ]
}
"#;

    fn gate_sections() -> Vec<(&'static str, Vec<Row>)> {
        vec![
            (
                "decode",
                vec![row(
                    "bitcoin",
                    vec![
                        ("sequential_blocks_per_sec", Rate(5.0)),
                        ("parallel_blocks_per_sec", Rate(7.0)),
                        ("exact_match", Flag(true)),
                    ],
                )],
            ),
            (
                "backend",
                vec![row(
                    "bitcoin",
                    vec![
                        ("fetch_fraction", Secs(0.2)),
                        ("sim_exact_match", Flag(false)),
                    ],
                )],
            ),
            (
                "follow",
                vec![
                    row("bitcoin", vec![("reorgs_applied", Int(42))]),
                    row("ethereum", vec![("reorgs_applied", Int(1636))]),
                ],
            ),
        ]
    }

    #[test]
    fn min_and_max_bounds_pass_and_breach() {
        let sections = gate_sections();
        let pass = "follow.bitcoin.reorgs_applied min 42\nbackend.bitcoin.fetch_fraction max 0.2";
        assert!(check_baseline(pass, &sections).is_empty());
        let breach = check_baseline("follow.ethereum.reorgs_applied min 1637", &sections);
        assert_eq!(breach.len(), 1);
        assert!(
            breach[0].contains("follow.ethereum.reorgs_applied"),
            "{breach:?}"
        );
        let breach = check_baseline("backend.bitcoin.fetch_fraction max 0.19", &sections);
        assert_eq!(breach.len(), 1);
        assert!(
            breach[0].contains("backend.bitcoin.fetch_fraction"),
            "{breach:?}"
        );
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        let baseline = "\n# follow.bitcoin.reorgs_applied min 1000\n   \n  # indented\n";
        assert!(check_baseline(baseline, &gate_sections()).is_empty());
    }

    #[test]
    fn bad_lines_and_unknown_names_are_reported() {
        let sections = gate_sections();
        for line in [
            "follow.bitcoin.reorgs_applied 20",
            "follow.bitcoin.reorgs_applied above 20",
            "follow.bitcoin.reorgs_applied min 20 extra",
        ] {
            let failures = check_baseline(line, &sections);
            assert_eq!(failures.len(), 1, "{line:?}: {failures:?}");
            assert!(failures[0].starts_with("bad baseline line"), "{failures:?}");
        }
        for bound in ["lots", "NaN", "inf"] {
            let line = format!("follow.bitcoin.reorgs_applied min {bound}");
            let failures = check_baseline(&line, &sections);
            assert_eq!(failures.len(), 1, "{line:?}: {failures:?}");
            assert!(failures[0].starts_with("bad baseline line"), "{failures:?}");
        }
        for name in [
            "follow.bitcoin.reorgs",
            "follow.solana.reorgs_applied",
            "pruned.bitcoin.time_blocks_per_sec",
            "backend.bitcoin.sim_exact_match",
            "backend_bitcoin_fetch_fraction",
        ] {
            let failures = check_baseline(&format!("{name} min 1"), &sections);
            assert_eq!(failures.len(), 1, "{name}: {failures:?}");
            assert!(failures[0].contains("unknown value"), "{failures:?}");
        }
    }

    #[test]
    fn false_exact_match_flags_are_named() {
        assert_eq!(
            false_flags(&gate_sections()),
            vec!["backend.bitcoin.sim_exact_match".to_string()]
        );
    }

    #[test]
    fn decode_gate_takes_the_better_rate() {
        let mut sections = gate_sections();
        let decode_min = |bound: f64| format!("decode.bitcoin.blocks_per_sec min {bound}");
        assert!(check_baseline(&decode_min(7.0), &sections).is_empty());
        assert_eq!(check_baseline(&decode_min(7.5), &sections).len(), 1);
        // The better rate counts whichever side it is on.
        sections[0].1[0] = row(
            "bitcoin",
            vec![
                ("sequential_blocks_per_sec", Rate(9.0)),
                ("parallel_blocks_per_sec", Rate(3.0)),
            ],
        );
        assert!(check_baseline(&decode_min(9.0), &sections).is_empty());
        assert_eq!(check_baseline(&decode_min(9.5), &sections).len(), 1);
    }

    /// Every bound in the committed `ci/bench-baseline.txt` parses and
    /// names a value the benches emit, on both datasets' rows.
    #[test]
    fn committed_baseline_names_emitted_values() {
        let (btc, eth) = (Dataset::bitcoin(2), Dataset::ethereum(1));
        let sections = [
            (
                "decode",
                vec![run_decode_bench(&btc), run_decode_bench(&eth)],
            ),
            (
                "pruned",
                vec![run_pruned_bench(&btc), run_pruned_bench(&eth)],
            ),
            ("backend", vec![run_backend_bench(&btc)]),
            (
                "follow",
                vec![run_follow_bench(&btc, 144), run_follow_bench(&eth, 6000)],
            ),
        ];
        let baseline = include_str!("../../../ci/bench-baseline.txt");
        let mut names = 0;
        for line in bound_lines(baseline) {
            let (name, _, _) = parse_bound(line).unwrap_or_else(|| panic!("bad line {line:?}"));
            assert!(
                gate_value(&sections, name).is_some(),
                "{name} is not emitted"
            );
            names += 1;
        }
        assert_eq!(names, 13);
    }
}

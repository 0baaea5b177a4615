//! Subcommand implementations.

use crate::args::Args;
use blockdec_analysis::anomaly::AnomalyDetector;
use blockdec_analysis::compare::ChainComparison;
use blockdec_analysis::report::{
    anomalies_csv, comparison_markdown, series_summary_line, sparkline_line,
};
use blockdec_chain::{ChainKind, Granularity, Timestamp};
use blockdec_core::delta::MetricDeltaStream;
use blockdec_core::engine::{run_matrix_columns, MeasurementEngine, WindowSpec};
use blockdec_core::metrics::MetricKind;
use blockdec_core::series::MeasurementSeries;
use blockdec_ingest::{bigquery, csv as csvio, jsonl, ChainView};
use blockdec_query::{Filter, MeasurementSource, Plan};
use blockdec_sim::{FeedConfig, Scenario};
use blockdec_store::{BlockStore, LocalFs, ObjectStore, SimBackend, SimProfile, StoreDoctor};
use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

type CmdResult = Result<(), String>;

/// `fsck` exit code: the store is clean.
pub const FSCK_CLEAN: u8 = 0;
/// `fsck` exit code: faults were detected and `--repair` was not given.
pub const FSCK_FAULTS_FOUND: u8 = 1;
/// `fsck` exit code: faults were detected, repaired, and the store now
/// checks clean.
pub const FSCK_REPAIRED: u8 = 2;
/// `fsck` exit code: repair ran but the store still checks dirty.
pub const FSCK_UNREPAIRABLE: u8 = 3;

fn parse_chain(s: &str) -> Result<ChainKind, String> {
    match s {
        "bitcoin" | "btc" => Ok(ChainKind::Bitcoin),
        "ethereum" | "eth" => Ok(ChainKind::Ethereum),
        other => Err(format!("unknown chain {other:?} (bitcoin|ethereum)")),
    }
}

fn parse_metric(s: &str) -> Result<MetricKind, String> {
    s.parse()
}

/// `fixed:day`, `fixed:week`, `fixed:month`, or `sliding:N:M`.
fn parse_window(s: &str, metric: MetricKind) -> Result<MeasurementEngine, String> {
    let engine = MeasurementEngine::new(metric);
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["fixed", g] => {
            let granularity: Granularity = g.parse()?;
            Ok(engine.fixed_calendar(granularity, Timestamp::year_2019_start()))
        }
        ["sliding", n, m] => {
            let size: usize = n.parse().map_err(|e| format!("window size: {e}"))?;
            let step: usize = m.parse().map_err(|e| format!("window step: {e}"))?;
            if size == 0 || step == 0 {
                return Err("window size and step must be positive".into());
            }
            Ok(engine.sliding(size, step))
        }
        ["sliding-time", d, s2] => {
            let duration: i64 = d.parse().map_err(|e| format!("window duration: {e}"))?;
            let step: i64 = s2.parse().map_err(|e| format!("window step: {e}"))?;
            if duration <= 0 || step <= 0 {
                return Err("window duration and step must be positive".into());
            }
            Ok(engine.sliding_time(duration, step))
        }
        _ => Err(format!(
            "bad window {s:?} (fixed:day|fixed:week|fixed:month|sliding:N:M|sliding-time:SECS:SECS)"
        )),
    }
}

fn scenario_from_args(args: &Args) -> Result<Scenario, String> {
    let chain = parse_chain(args.required("chain")?)?;
    let mut scenario = match chain {
        ChainKind::Bitcoin => Scenario::bitcoin_2019(),
        ChainKind::Ethereum => Scenario::ethereum_2019(),
    };
    if let Some(days) = args.get_parsed::<u32>("days")? {
        scenario = scenario.truncated(days);
    }
    if let Some(seed) = args.get_parsed::<u64>("seed")? {
        scenario = scenario.with_seed(seed);
    }
    if let Some(limit) = args.get_parsed::<u64>("limit")? {
        scenario.limit_blocks = Some(limit);
    }
    Ok(scenario)
}

/// `blockdec simulate` — scenario → CSV/JSONL file (or stdout).
pub fn simulate(args: &Args) -> CmdResult {
    let scenario = scenario_from_args(args)?;
    let format = args.get("format").unwrap_or("csv");
    let blocks = scenario.generate_blocks();
    if !args.has_switch("quiet") {
        eprintln!(
            "simulated {} {} blocks over {} days (seed {})",
            blocks.len(),
            scenario.chain,
            scenario.days,
            scenario.seed
        );
    }
    let mut out: Box<dyn Write> = match args.get("out") {
        Some(path) => Box::new(BufWriter::new(
            fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        )),
        None => Box::new(BufWriter::new(std::io::stdout())),
    };
    match format {
        "csv" => csvio::write_blocks_csv(&mut out, &blocks).map_err(|e| e.to_string())?,
        "jsonl" => jsonl::write_blocks_jsonl(&mut out, &blocks).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown format {other:?} (csv|jsonl)")),
    }
    out.flush().map_err(|e| e.to_string())
}

/// The storage backend selected by `--backend` (and its `--sim-*`
/// knobs), not yet rooted at a directory.
enum BackendChoice {
    Local,
    Sim(SimProfile),
}

impl BackendChoice {
    /// Root the choice at a store directory.
    fn build(&self, dir: &Path) -> Arc<dyn ObjectStore> {
        match self {
            BackendChoice::Local => Arc::new(LocalFs::new(dir)),
            BackendChoice::Sim(profile) => {
                Arc::new(SimBackend::new(Arc::new(LocalFs::new(dir)), *profile))
            }
        }
    }
}

/// Parse `--backend local|sim` plus the `--sim-latency-us`,
/// `--sim-jitter-us`, `--sim-bandwidth-kbps`, `--sim-fail-every`, and
/// `--sim-seed` knobs. The sim backend stores the same bytes as local
/// (it wraps the local filesystem) but adds seeded latency/jitter,
/// optional bandwidth throttling, and injected transient read faults
/// that exercise the store's retry path.
fn backend_choice(args: &Args) -> Result<BackendChoice, String> {
    match args.get("backend").unwrap_or("local") {
        "local" => Ok(BackendChoice::Local),
        "sim" => Ok(BackendChoice::Sim(SimProfile {
            seed: args.get_parsed::<u64>("sim-seed")?.unwrap_or(0),
            latency_us: args.get_parsed::<u64>("sim-latency-us")?.unwrap_or(0),
            jitter_us: args.get_parsed::<u64>("sim-jitter-us")?.unwrap_or(0),
            bandwidth_kbps: args.get_parsed::<u64>("sim-bandwidth-kbps")?.unwrap_or(0),
            fail_every: args.get_parsed::<u64>("sim-fail-every")?.unwrap_or(0),
        })),
        other => Err(format!("unknown backend {other:?} (local|sim)")),
    }
}

/// Build the selected backend rooted at `dir`.
fn backend_from_args(dir: &str, args: &Args) -> Result<Arc<dyn ObjectStore>, String> {
    Ok(backend_choice(args)?.build(Path::new(dir)))
}

/// Size the store's one cache, the byte-range page cache, from
/// `--page-cache-mb` (also `BLOCKDEC_PAGE_CACHE_MB`).
fn apply_page_cache_flag(store: &mut BlockStore, args: &Args) -> Result<(), String> {
    if let Some(mb) = args.get_parsed::<usize>("page-cache-mb")? {
        store.set_page_cache_bytes(mb.saturating_mul(1024 * 1024));
    }
    Ok(())
}

/// `blockdec load` — simulate straight into a store.
pub fn load(args: &Args) -> CmdResult {
    let scenario = scenario_from_args(args)?;
    let store_dir = args.required("store")?;
    let stream = scenario.generate();
    let mut store = BlockStore::open_or_create_with(backend_from_args(store_dir, args)?)
        .map_err(|e| e.to_string())?;
    apply_page_cache_flag(&mut store, args)?;
    // `--flush-every N` seals a segment every N blocks instead of one
    // big flush at the end — produces the many-small-segments layout
    // that `blockdec compact` exists to fix (used by the CI smoke).
    let flush_every = args
        .get_parsed::<usize>("flush-every")?
        .unwrap_or(stream.attributed.len().max(1));
    if flush_every == 0 {
        return Err("--flush-every needs a positive block count".into());
    }
    for chunk in stream.attributed.chunks(flush_every) {
        store
            .append_attributed(chunk, &stream.registry)
            .map_err(|e| e.to_string())?;
        store.flush().map_err(|e| e.to_string())?;
    }
    eprintln!(
        "loaded {} blocks ({} rows, {} producers) into {store_dir}",
        stream.attributed.len(),
        store.row_count(),
        store.registry().len()
    );
    Ok(())
}

/// `blockdec ingest` — file → attribute → store.
pub fn ingest(args: &Args) -> CmdResult {
    let chain = parse_chain(args.required("chain")?)?;
    let input = args.required("input")?;
    let store_dir = args.required("store")?;
    let format = args.get("format").unwrap_or("csv");

    let file = fs::File::open(input).map_err(|e| format!("open {input}: {e}"))?;
    let reader = BufReader::new(file);
    let blocks = match format {
        "csv" => csvio::read_blocks_csv(reader, chain).map_err(|e| e.to_string())?,
        "jsonl" => jsonl::read_blocks_jsonl(reader).map_err(|e| e.to_string())?,
        "bigquery" => bigquery::read_bigquery_jsonl(reader, chain).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown format {other:?} (csv|jsonl|bigquery)")),
    };

    let mut attributor =
        blockdec_chain::Attributor::new(chain, blockdec_chain::AttributionMode::PerAddress);
    let attributed = attributor.attribute_all(&blocks);
    let registry = attributor.into_registry();

    let mut store = BlockStore::open_or_create_with(backend_from_args(store_dir, args)?)
        .map_err(|e| e.to_string())?;
    apply_page_cache_flag(&mut store, args)?;
    store
        .append_attributed(&attributed, &registry)
        .map_err(|e| e.to_string())?;
    store.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "ingested {} blocks into {store_dir} ({} rows total)",
        blocks.len(),
        store.row_count()
    );
    Ok(())
}

/// Open a store for reading, honoring the global `--scan-threads` flag:
/// columnar decode worker count, `0` (default) = one per CPU, `1` =
/// sequential. See docs/PERFORMANCE.md for guidance.
fn open_store(dir: &str, args: &Args) -> Result<BlockStore, String> {
    let mut store =
        BlockStore::open_with(backend_from_args(dir, args)?).map_err(|e| e.to_string())?;
    apply_page_cache_flag(&mut store, args)?;
    if let Some(threads) = args.get_parsed::<usize>("scan-threads")? {
        store.set_scan_threads(threads);
    }
    Ok(store)
}

fn measure_series(args: &Args) -> Result<MeasurementSeries, String> {
    let mut series = measure_matrix_series(args)?;
    if series.len() > 1 {
        return Err("expected a single --metric for this command".into());
    }
    Ok(series.pop().expect("at least one metric"))
}

/// Parse `--metric` (comma-separated list allowed) plus `--window` into
/// engine configs and run them through the shared-window matrix planner,
/// so `measure --metric gini,entropy,nakamoto` windows and sorts the
/// store's blocks once instead of once per metric.
fn measure_matrix_series(args: &Args) -> Result<Vec<MeasurementSeries>, String> {
    let store_dir = args.required("store")?;
    let window = args.get("window").unwrap_or("fixed:day");
    let configs = args
        .get("metric")
        .unwrap_or("gini")
        .split(',')
        .map(|m| parse_window(window, parse_metric(m.trim())?))
        .collect::<Result<Vec<_>, _>>()?;
    let store = open_store(store_dir, args)?;
    // Store → columns → planner: no AoS block stream is materialized.
    let cols = store
        .block_columns(&Filter::True)
        .map_err(|e| e.to_string())?;
    Ok(run_matrix_columns(cols.as_slice(), &configs))
}

/// Render several series over the same window spec as one long-format
/// CSV: the usual per-point columns behind a leading `metric` column.
fn matrix_csv(all: &[MeasurementSeries]) -> String {
    let mut out = String::from(
        "metric,index,start_height,end_height,start_time,end_time,blocks,producers,value\n",
    );
    for series in all {
        let body = series.to_csv();
        for line in body.lines().skip(1) {
            out.push_str(series.metric.label());
            out.push(',');
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// `blockdec measure` — metric series to stdout/file as CSV. With a
/// comma-separated `--metric` list every metric is computed from one
/// shared window pass and the CSV gains a leading `metric` column.
pub fn measure(args: &Args) -> CmdResult {
    let all = measure_matrix_series(args)?;
    for series in &all {
        eprintln!("{}", series_summary_line("store", series));
        eprintln!("{}", sparkline_line("series", series, 60));
    }
    let csv = if all.len() == 1 {
        all[0].to_csv()
    } else {
        matrix_csv(&all)
    };
    match args.get("out") {
        Some(path) => fs::write(path, csv).map_err(|e| format!("write {path}: {e}")),
        None => {
            print!("{csv}");
            Ok(())
        }
    }
}

/// Turn a parsed engine config into a push-driven delta stream; only the
/// streamable window families qualify.
fn delta_stream_for(engine: &MeasurementEngine) -> Result<MetricDeltaStream, String> {
    match engine.window() {
        WindowSpec::SlidingBlocks(spec) => Ok(MetricDeltaStream::sliding(engine.metric(), spec)),
        WindowSpec::FixedCalendar {
            granularity,
            origin,
        } => Ok(MetricDeltaStream::fixed(
            engine.metric(),
            granularity,
            origin,
        )),
        WindowSpec::SlidingTime(_) => Err(
            "sliding-time windows sort the whole stream by timestamp and cannot \
             follow a live head; use `blockdec measure` on the finished store"
                .into(),
        ),
    }
}

/// `blockdec follow` — head-following ingestion: stream the scenario as
/// live head events (with seeded forks), track them through a reorg-aware
/// chain view that finalizes into the store, and emit incremental metric
/// deltas as windows complete. The finished store and the delta CSV are
/// byte-identical to `blockdec load` + `blockdec measure` over the same
/// scenario.
pub fn follow(args: &Args) -> CmdResult {
    let scenario = scenario_from_args(args)?;
    let store_dir = args.required("store")?;
    let finality = args.get_parsed::<usize>("finality")?.unwrap_or(6);
    let fork_every = args.get_parsed::<u64>("fork-every")?.unwrap_or(50);
    let max_fork = args
        .get_parsed::<usize>("max-fork")?
        .unwrap_or(3.min(finality));
    if max_fork > finality {
        return Err(format!(
            "--max-fork {max_fork} exceeds --finality {finality}; a reorg could \
             cross the finalized watermark"
        ));
    }
    let feed_config = FeedConfig {
        fork_every,
        max_fork_len: max_fork,
        seed: args.get_parsed::<u64>("fork-seed")?.unwrap_or(0),
    };
    let window = args.get("window").unwrap_or("fixed:day");
    let configs = args
        .get("metric")
        .unwrap_or("gini")
        .split(',')
        .map(|m| parse_window(window, parse_metric(m.trim())?))
        .collect::<Result<Vec<_>, _>>()?;
    let mut streams = configs
        .iter()
        .map(delta_stream_for)
        .collect::<Result<Vec<_>, _>>()?;

    let mut store = BlockStore::open_or_create_with(backend_from_args(store_dir, args)?)
        .map_err(|e| e.to_string())?;
    apply_page_cache_flag(&mut store, args)?;
    if let Some(threads) = args.get_parsed::<usize>("scan-threads")? {
        store.set_scan_threads(threads);
    }
    let mut view = ChainView::new(
        store,
        scenario.chain,
        blockdec_chain::AttributionMode::PerAddress,
        finality,
    );

    let stats = {
        let _t = blockdec_obs::span_timed!(
            "stage.follow",
            chain = scenario.chain.to_string(),
            finality = finality,
        );
        let mut feed = scenario.stream_events(feed_config);
        for block in feed.by_ref() {
            view.apply(&block).map_err(|e| e.to_string())?;
            for finalized in view.take_finalized() {
                for s in &mut streams {
                    s.push_block(&finalized).map_err(|e| e.to_string())?;
                }
            }
        }
        view.finalize_all().map_err(|e| e.to_string())?;
        for finalized in view.take_finalized() {
            for s in &mut streams {
                s.push_block(&finalized).map_err(|e| e.to_string())?;
            }
        }
        feed.stats()
    };
    let reorgs = view.reorg_stats();
    eprintln!(
        "followed {} events into {store_dir}: {} canonical blocks finalized, \
         {} reorg(s) applied ({} block(s) rolled back, deepest {})",
        view.accepted(),
        view.finalized(),
        reorgs.applied,
        reorgs.blocks_dropped,
        reorgs.deepest,
    );
    debug_assert_eq!(stats.forks, reorgs.applied);

    let all: Vec<MeasurementSeries> = streams
        .into_iter()
        .map(|mut s| {
            let metric = s.metric();
            let window = s.label();
            s.finish();
            MeasurementSeries {
                metric,
                window,
                points: s.into_points(),
            }
        })
        .collect();
    for series in &all {
        eprintln!("{}", series_summary_line("follow", series));
    }
    let csv = if all.len() == 1 {
        all[0].to_csv()
    } else {
        matrix_csv(&all)
    };
    match args.get("out") {
        Some(path) => fs::write(path, csv).map_err(|e| format!("write {path}: {e}")),
        None => {
            print!("{csv}");
            Ok(())
        }
    }
}

/// `blockdec report` — top producers.
pub fn report(args: &Args) -> CmdResult {
    let store_dir = args.required("store")?;
    let k = args.get_parsed::<usize>("top")?.unwrap_or(10);
    let store = open_store(store_dir, args)?;
    let out = Plan::top_k(Filter::True, k)
        .execute(&store)
        .map_err(|e| e.to_string())?;
    print!("{}", out.to_csv());
    Ok(())
}

/// `blockdec compare` — the paper's verdict over two stores.
pub fn compare(args: &Args) -> CmdResult {
    let dir_a = args.required("store-a")?;
    let dir_b = args.required("store-b")?;
    let label_a = args.get("label-a").unwrap_or("chain-a");
    let label_b = args.get("label-b").unwrap_or("chain-b");

    // One engine config per paper metric × granularity; the matrix
    // planner dedups them down to one window pass per granularity.
    let configs: Vec<MeasurementEngine> = MetricKind::PAPER
        .into_iter()
        .flat_map(|metric| {
            Granularity::ALL.iter().map(move |&g| {
                MeasurementEngine::new(metric).fixed_calendar(g, Timestamp::year_2019_start())
            })
        })
        .collect();
    let run_all = |dir: &str| -> Result<Vec<MeasurementSeries>, String> {
        let store = open_store(dir, args)?;
        let cols = store
            .block_columns(&Filter::True)
            .map_err(|e| e.to_string())?;
        Ok(run_matrix_columns(cols.as_slice(), &configs))
    };
    let series_a = run_all(dir_a)?;
    let series_b = run_all(dir_b)?;
    let cmp = ChainComparison::new(label_a, &series_a, label_b, &series_b);
    print!("{}", comparison_markdown(&cmp));
    Ok(())
}

/// `blockdec query` — run an ad-hoc query against a store:
/// `top N producers | producers | count`, with optional
/// `where height between A and B`, `time between T1 and T2`,
/// `producer = "Name"`, `credit >= X`, `tx >= N` conjunctions.
pub fn query(args: &Args) -> CmdResult {
    let store_dir = args.required("store")?;
    let q = args.required("q")?;
    let store = open_store(store_dir, args)?;
    let plan = blockdec_query::parse_query(q, store.registry())?;
    let out = plan.execute(&store).map_err(|e| e.to_string())?;
    print!("{}", out.to_csv());
    Ok(())
}

/// `blockdec analyze` — a full markdown report for one store: summary
/// statistics, sparklines, anomalies, trend, and changepoint, per paper
/// metric at daily granularity.
pub fn analyze(args: &Args) -> CmdResult {
    use blockdec_analysis::changepoint::detect_mean_shift;
    use blockdec_analysis::stats::SeriesStats;
    use blockdec_analysis::trend::{mann_kendall, sen_slope};

    let store_dir = args.required("store")?;
    let store = open_store(store_dir, args)?;
    let cols = store
        .block_columns(&Filter::True)
        .map_err(|e| e.to_string())?;
    if cols.is_empty() {
        return Err("store holds no blocks".into());
    }
    let origin = Timestamp::year_2019_start();

    println!("# decentralization report: {store_dir}\n");
    println!(
        "{} blocks, heights {}..={}, {} producers\n",
        cols.len(),
        cols.height(0),
        cols.height(cols.len() - 1),
        store.registry().len()
    );
    let top = Plan::top_k(Filter::True, 5)
        .execute(&store)
        .map_err(|e| e.to_string())?;
    println!("## top producers\n");
    for row in &top.rows {
        println!(
            "- {} — {} blocks ({:.1}%)",
            row[0],
            row[1],
            row[2].parse::<f64>().unwrap_or(0.0) * 100.0
        );
    }

    println!("\n## daily series\n");
    let detector = AnomalyDetector::default();
    for metric in MetricKind::PAPER {
        let series = MeasurementEngine::new(metric)
            .fixed_calendar(Granularity::Day, origin)
            .run_columns(cols.as_slice());
        let values = series.values();
        let Some(stats) = SeriesStats::from_values(&values) else {
            continue;
        };
        println!("### {}\n", metric.label());
        println!(
            "```\n{}\n```",
            blockdec_analysis::report::sparkline(&values, 70)
        );
        println!(
            "- mean {:.3}, std {:.3}, range [{:.3}, {:.3}], CV {}",
            stats.mean,
            stats.std,
            stats.min,
            stats.max,
            stats.cv().map_or("-".to_string(), |cv| format!("{cv:.3}"))
        );
        if let Some(mk) = mann_kendall(&values) {
            println!(
                "- trend: {:?} (Mann–Kendall z = {:.2}, Sen slope {:.5}/day)",
                mk.trend,
                mk.z,
                sen_slope(&values).unwrap_or(0.0)
            );
        }
        if let Some(cp) = detect_mean_shift(&values, 14, 0.4) {
            println!(
                "- changepoint: day {} ({:.3} → {:.3}, {:.1}σ)",
                cp.index, cp.mean_before, cp.mean_after, cp.magnitude_sigmas
            );
        }
        let anomalies = detector.detect(&series);
        if anomalies.is_empty() {
            println!("- anomalies: none");
        } else {
            let days: Vec<String> = anomalies
                .iter()
                .map(|a| format!("day {} ({:.2})", a.index, a.value))
                .collect();
            println!("- anomalies: {}", days.join(", "));
        }
        println!();
    }
    Ok(())
}

/// `blockdec scrub` — verify every on-disk artifact of a store.
pub fn scrub(args: &Args) -> CmdResult {
    let store_dir = args.required("store")?;
    let store =
        BlockStore::open_with(backend_from_args(store_dir, args)?).map_err(|e| e.to_string())?;
    let report = store.scrub().map_err(|e| e.to_string())?;
    println!(
        "checked {} segments / {} rows",
        report.segments_checked, report.rows_checked
    );
    if report.is_healthy() {
        println!("store is healthy");
        Ok(())
    } else {
        for e in &report.errors {
            eprintln!("PROBLEM: {e}");
        }
        Err(format!("{} problem(s) found", report.errors.len()))
    }
}

/// `blockdec compact` — merge under-filled segments.
pub fn compact(args: &Args) -> CmdResult {
    let store_dir = args.required("store")?;
    let mut store =
        BlockStore::open_with(backend_from_args(store_dir, args)?).map_err(|e| e.to_string())?;
    let before = store.segment_count();
    let changed = store.compact().map_err(|e| e.to_string())?;
    if changed {
        println!("compacted {before} segments into {}", store.segment_count());
    } else {
        println!("already compact ({before} segments)");
    }
    Ok(())
}

/// `blockdec fsck` — check (and with `--repair`, fix) a store's on-disk
/// state. Exit codes: [`FSCK_CLEAN`], [`FSCK_FAULTS_FOUND`],
/// [`FSCK_REPAIRED`], [`FSCK_UNREPAIRABLE`]. With `--self-test`, runs
/// the built-in fault-injection round-trip under the given directory
/// instead (used by CI).
pub fn fsck(args: &Args) -> Result<u8, String> {
    let store_dir = args.required("store")?;
    if args.has_switch("self-test") {
        let choice = backend_choice(args)?;
        let factory = |dir: &Path| choice.build(dir);
        blockdec_store::selftest::run_self_test(Path::new(store_dir), &factory, &mut |line| {
            println!("{line}")
        })?;
        println!("self-test: all fault classes detected and repaired");
        return Ok(FSCK_CLEAN);
    }
    let doctor = StoreDoctor::with_backend(backend_from_args(store_dir, args)?);
    let report = doctor.check().map_err(|e| e.to_string())?;
    println!(
        "checked {} segments / {} rows",
        report.segments_checked, report.rows_checked
    );
    for f in &report.faults {
        eprintln!("FAULT [{}] {}: {}", f.kind.label(), f.file, f.detail);
    }
    if report.is_clean() {
        println!("store is clean");
        return Ok(FSCK_CLEAN);
    }
    if !args.has_switch("repair") {
        eprintln!(
            "{} fault(s) found; re-run with --repair to fix",
            report.faults.len()
        );
        return Ok(FSCK_FAULTS_FOUND);
    }
    let outcome = doctor.repair().map_err(|e| e.to_string())?;
    println!(
        "repaired: {} segment(s) quarantined ({} rows), {} temp file(s) removed{}{}",
        outcome.quarantined.len(),
        outcome.rows_quarantined,
        outcome.removed_temps,
        if outcome.manifest_rewritten {
            ", manifest rewritten"
        } else {
            ""
        },
        if outcome.dictionary_rebuilt {
            ", dictionary rebuilt"
        } else {
            ""
        },
    );
    let post = doctor.check().map_err(|e| e.to_string())?;
    if post.is_clean() {
        println!("store is clean after repair");
        Ok(FSCK_REPAIRED)
    } else {
        for f in &post.faults {
            eprintln!("STILL FAULTY [{}] {}: {}", f.kind.label(), f.file, f.detail);
        }
        Ok(FSCK_UNREPAIRABLE)
    }
}

/// `blockdec anomalies` — robust outliers of a metric series.
pub fn anomalies(args: &Args) -> CmdResult {
    let series = measure_series(args)?;
    let threshold = args.get_parsed::<f64>("threshold")?.unwrap_or(3.5);
    let detector = AnomalyDetector::new(threshold);
    let found = detector.detect(&series);
    eprintln!(
        "{} anomalies at |robust z| > {threshold} over {} windows",
        found.len(),
        series.points.len()
    );
    print!("{}", anomalies_csv(&found));
    Ok(())
}

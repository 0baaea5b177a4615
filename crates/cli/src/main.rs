//! `blockdec` — measure blockchain decentralization the ICDE-2021 way.
//!
//! ```text
//! blockdec simulate  --chain bitcoin --days 30 --out blocks.csv [--format csv|jsonl]
//! blockdec load      --chain bitcoin --days 30 --store ./btc-store
//!                    [--flush-every N]
//! blockdec ingest    --chain bitcoin --input blocks.csv --store ./btc-store
//!                    [--format csv|jsonl|bigquery]
//! blockdec measure   --store ./btc-store --metric gini --window fixed:day
//!                    [--out series.csv]
//! blockdec report    --store ./btc-store [--top 10]
//! blockdec compare   --store-a ./btc-store --store-b ./eth-store
//!                    [--label-a bitcoin --label-b ethereum]
//! blockdec anomalies --store ./btc-store --metric entropy --window sliding:144:72
//! ```
//!
//! Paper experiments (figures/tables) are regenerated by the bench
//! crate's harness: `cargo run --release -p blockdec-bench --bin
//! experiments`.

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const HELP: &str = "\
blockdec — blockchain decentralization measurement (ICDE 2021 reproduction)

USAGE:
  blockdec <command> [--options]

GLOBAL OPTIONS:
  --log-level <filter>   Enable logging: error|warn|info|debug|trace, or an
                         env-filter string like info,blockdec_store=trace
                         (also via BLOCKDEC_LOG). info+ prints a run summary.
  --log-format <fmt>     compact (default) or json (also BLOCKDEC_LOG_FORMAT)
  --scan-threads <n>     Decode threads for columnar store scans: 0 (default)
                         = one per CPU, 1 = sequential. Row scans (report,
                         query top/count) always run on one thread. See
                         docs/PERFORMANCE.md
  --backend <kind>       Storage backend for --store commands: local (default)
                         or sim — the local filesystem behind seeded latency,
                         jitter, optional throttling, and injected transient
                         read faults (retried transparently). Sim knobs:
                         --sim-latency-us N, --sim-jitter-us N,
                         --sim-bandwidth-kbps N, --sim-fail-every N, --sim-seed N
  --page-cache-mb <n>    Capacity in MiB of the store's one cache, which holds
                         the byte ranges pruned scans fetch (default 64, or
                         BLOCKDEC_PAGE_CACHE_MB)

COMMANDS:
  simulate   Generate a calibrated 2019-like block stream to CSV/JSONL
  load       Simulate straight into a block store (--flush-every N seals
             a segment every N blocks)
  follow     Head-following ingestion: stream the scenario as live head
             events with seeded forks (--fork-every N, --max-fork N,
             --fork-seed S), track reorgs through a chain view that
             finalizes blocks --finality N below the head into the store,
             and emit incremental metric deltas (--metric, --window; fixed
             or sliding) as windows complete. Store and CSV are
             byte-identical to load + measure over the same scenario.
  ingest     Import blocks (canonical CSV, JSONL, or BigQuery export) into a store
  measure    Compute a metric series over a store (fixed or sliding windows)
  report     Top-producer table for a store
  compare    Compare two stores chain-vs-chain (the paper's verdict)
  anomalies  Robust outlier report for a metric series
  analyze    Full markdown report: stats, sparklines, trend, changepoint, anomalies
  query      Ad-hoc query, e.g. --q 'top 5 producers where height between A and B'
  scrub      Verify a store's on-disk integrity (CRCs, zone maps, dictionary)
  fsck       Classify on-disk faults; --repair quarantines + rewrites the
             manifest; --self-test runs the fault-injection round-trip.
             Exit codes: 0 clean, 1 faults found, 2 repaired, 3 unrepairable
  compact    Merge under-filled store segments
  help       This text

Run a command with missing options to see what it needs.
Paper figures: cargo run --release -p blockdec-bench --bin experiments";

/// Build the logger configuration from `--log-level` / `--log-format`,
/// with `BLOCKDEC_LOG` / `BLOCKDEC_LOG_FORMAT` as the baseline. Returns
/// `Ok(None)` when logging was not requested anywhere.
fn logging_config(args: &Args) -> Result<Option<blockdec_obs::Config>, String> {
    let env_requested = std::env::var_os("BLOCKDEC_LOG").is_some()
        || std::env::var_os("BLOCKDEC_LOG_FORMAT").is_some();
    if args.get("log-level").is_none() && args.get("log-format").is_none() && !env_requested {
        return Ok(None);
    }
    let mut cfg = blockdec_obs::Config::from_env();
    if let Some(filter) = args.get("log-level") {
        cfg = cfg.filter(filter)?;
    }
    if let Some(fmt) = args.get("log-format") {
        let parsed = blockdec_obs::LogFormat::parse(fmt)
            .ok_or_else(|| format!("bad --log-format {fmt:?} (compact|json)"))?;
        cfg = cfg.format(parsed);
    }
    Ok(Some(cfg))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match logging_config(&args) {
        Ok(Some(cfg)) => {
            blockdec_obs::log::init(cfg);
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    // Commands yield an exit code so `fsck` can distinguish clean /
    // faulty / repaired / unrepairable; everything else maps () to 0.
    let ok = |r: Result<(), String>| r.map(|()| 0u8);
    let result: Result<u8, String> = match args.command.as_str() {
        "simulate" => ok(commands::simulate(&args)),
        "load" => ok(commands::load(&args)),
        "follow" => ok(commands::follow(&args)),
        "ingest" => ok(commands::ingest(&args)),
        "measure" => ok(commands::measure(&args)),
        "report" => ok(commands::report(&args)),
        "compare" => ok(commands::compare(&args)),
        "anomalies" => ok(commands::anomalies(&args)),
        "scrub" => ok(commands::scrub(&args)),
        "fsck" => commands::fsck(&args),
        "compact" => ok(commands::compact(&args)),
        "analyze" => ok(commands::analyze(&args)),
        "query" => ok(commands::query(&args)),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}; try `blockdec help`")),
    };
    // End-of-run summary: per-stage wall time, throughput, cache hit
    // rate, windows emitted. Only when logging is on at info or finer.
    if blockdec_obs::log::enabled(blockdec_obs::Level::Info, "blockdec") {
        blockdec_obs::RunSummary::collect().emit();
    }
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Experiment harness entry point: regenerates every paper figure/table.
//!
//! ```text
//! cargo run --release -p blockdec-bench --bin experiments [-- ids...]
//!     [--out DIR]        output directory (default ./experiments-out)
//!     [--days N]         truncate to exactly N simulated days (120 covers
//!                        both scripted anomalies; default the full year)
//!     [--bench-json P]   also run the performance benches (matrix planner,
//!                        columnar pipeline, store decode, pruned scans,
//!                        backend reads, live follow) and write the
//!                        machine-readable summary to P; with no ids
//!                        listed, runs the benches alone. Fails the run
//!                        if any fast path diverges from its reference
//!     [--baseline P]     with --bench-json: check the bounds in P (lines
//!                        "<section>.<dataset>.<field> min|max <bound>",
//!                        e.g. ci/bench-baseline.txt) and fail if any is
//!                        breached. The backend bench always measures the
//!                        Bitcoin chain year, whatever --days says, so its
//!                        fetch-fraction ceiling gates the paper workload
//!                        even in short CI runs; Ethereum rides along
//!                        ungated when --days covers the full year
//!     [--list]           list the experiment ids and exit
//! ```

use blockdec_bench::perf::{
    check_baseline, false_flags, row_summary, run_backend_bench, run_columnar_bench,
    run_decode_bench, run_follow_bench, run_matrix_bench, run_pruned_bench, write_bench_json, Row,
};
use blockdec_bench::{run_experiment, Dataset, StoredDataset, ALL_EXPERIMENTS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    // Tracing honors BLOCKDEC_LOG / BLOCKDEC_LOG_FORMAT; off by default.
    blockdec_obs::log::init(blockdec_obs::Config::from_env());
    let mut ids: Vec<String> = Vec::new();
    let mut outdir = PathBuf::from("experiments-out");
    let mut days: u32 = 365;
    let mut bench_json: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(d) => outdir = PathBuf::from(d),
                None => {
                    eprintln!("--out needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--days" => match args.next().and_then(|d| d.parse().ok()) {
                Some(d) if d > 0 => days = d,
                _ => {
                    eprintln!("--days needs a positive day count");
                    return ExitCode::from(2);
                }
            },
            "--bench-json" => match args.next() {
                Some(p) => bench_json = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--bench-json needs a file path");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline needs a file path");
                    return ExitCode::from(2);
                }
            },
            "--list" => {
                for (id, title) in ALL_EXPERIMENTS {
                    println!("{id:8} {title}");
                }
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    // `--bench-json` with no explicit ids runs the benchmark alone.
    let bench_only = bench_json.is_some() && ids.is_empty();
    if ids.is_empty() && !bench_only {
        ids = ALL_EXPERIMENTS
            .iter()
            .map(|(id, _)| id.to_string())
            .collect();
    }

    eprintln!("generating calibrated datasets ({days} days)...");
    let t0 = Instant::now();
    let btc = Dataset::bitcoin(days);
    let btc_gen_secs = t0.elapsed().as_secs_f64();
    eprintln!("  bitcoin: {} blocks in {:?}", btc.len(), t0.elapsed());
    let t1 = Instant::now();
    let eth = Dataset::ethereum(days);
    let eth_gen_secs = t1.elapsed().as_secs_f64();
    eprintln!("  ethereum: {} blocks in {:?}", eth.len(), t1.elapsed());

    let mut summary = String::from("# blockdec experiment run\n\n");
    summary.push_str(&format!(
        "Datasets: bitcoin {} blocks, ethereum {} blocks ({days} simulated days).\n\n",
        btc.len(),
        eth.len()
    ));

    let mut failed = false;
    if !ids.is_empty() {
        // The experiments read each chain back from a scratch store,
        // removed when this block ends.
        let t = Instant::now();
        let (btc_stored, eth_stored) = (StoredDataset::load(&btc), StoredDataset::load(&eth));
        eprintln!("  stored and read back in {:?}", t.elapsed());
        for id in &ids {
            let t = Instant::now();
            match run_experiment(id, &btc_stored, &eth_stored, &outdir) {
                Ok(result) => {
                    println!("\n== {} — {} [{:?}]", result.id, result.title, t.elapsed());
                    for line in &result.lines {
                        println!("{line}");
                    }
                    summary.push_str(&format!("## {} — {}\n\n", result.id, result.title));
                    for line in &result.lines {
                        summary.push_str(&format!("- {}\n", line.trim_start()));
                    }
                    summary.push('\n');
                }
                Err(e) => {
                    eprintln!("experiment {id} FAILED: {e}");
                    failed = true;
                }
            }
        }
    }
    if let Some(path) = &bench_json {
        let mut sections: Vec<(&str, Vec<Row>)> = Vec::new();
        let mut record = |section, rows: Vec<Row>| {
            for row in &rows {
                println!("{}", row_summary(section, row));
            }
            sections.push((section, rows));
        };
        // The paper's sliding sizes: 1008 blocks (~1 week of BTC),
        // 6000 blocks (~21.7 hours of ETH).
        eprintln!("\nbenchmarking shared-window planner vs per-config baseline...");
        record(
            "matrix",
            vec![
                run_matrix_bench(&btc, btc_gen_secs, 1008),
                run_matrix_bench(&eth, eth_gen_secs, 6000),
            ],
        );
        eprintln!("\nbenchmarking columnar (SoA) pipeline vs AoS materialization...");
        record(
            "columnar",
            vec![
                run_columnar_bench(&btc, 1008),
                run_columnar_bench(&eth, 6000),
            ],
        );
        eprintln!("\nbenchmarking store→columns decode, sequential vs parallel...");
        record(
            "decode",
            vec![run_decode_bench(&btc), run_decode_bench(&eth)],
        );
        eprintln!("\nbenchmarking pruned (index + bloom) scans vs full decode...");
        record(
            "pruned",
            vec![run_pruned_bench(&btc), run_pruned_bench(&eth)],
        );
        eprintln!("\nbenchmarking backend bytes-fetched and LocalFs-vs-Sim parity...");
        // The fetch-fraction gate is only meaningful on the paper's
        // chain-year layout, so Bitcoin always runs at 365 days even in
        // --days smoke runs; Ethereum (an order of magnitude more rows)
        // joins only when the datasets already cover the year.
        if days >= 365 {
            record(
                "backend",
                vec![run_backend_bench(&btc), run_backend_bench(&eth)],
            );
        } else {
            eprintln!("  (re-generating bitcoin at 365 days for the fetch-fraction gate)");
            record("backend", vec![run_backend_bench(&Dataset::bitcoin(365))]);
        }
        eprintln!("\nbenchmarking live head-following ingestion and metric deltas...");
        record(
            "follow",
            vec![run_follow_bench(&btc, 1008), run_follow_bench(&eth, 6000)],
        );

        for name in false_flags(&sections) {
            eprintln!("bench FAILED: {name} is false (output diverged from its reference)");
            failed = true;
        }
        if let Some(baseline) = &baseline {
            match std::fs::read_to_string(baseline) {
                Ok(body) => {
                    for failure in check_baseline(&body, &sections) {
                        eprintln!("bench FAILED: {failure} ({})", baseline.display());
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("could not read {}: {e}", baseline.display());
                    failed = true;
                }
            }
        }
        if let Err(e) = write_bench_json(path, &sections) {
            eprintln!("could not write {}: {e}", path.display());
            failed = true;
        } else {
            println!("bench summary written to {}", path.display());
        }
    }
    if !bench_only {
        if let Err(e) = std::fs::write(outdir.join("summary.md"), &summary) {
            eprintln!("could not write summary.md: {e}");
        }
        println!("\nartifacts in {}", outdir.display());
    }
    if blockdec_obs::log::enabled(blockdec_obs::Level::Info, "experiments") {
        blockdec_obs::RunSummary::collect().emit();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

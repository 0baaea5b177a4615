//! `perfbench`: the repository's benchmark. It runs one workload against
//! the library's public API, checks every output and prints one JSON
//! result line; README.md describes the workloads and the metrics.
//!
//! ```text
//! perfbench --workload measure|window-queries|follow-head --seed N --seconds S --trace 0|1
//! ```

mod common;
mod follow_head;
mod measure;
mod stats;
mod trace;
mod window_queries;

use common::{Args, Phase, Setup, Workload, DECODE_THREADS, SETUP_REPEATS};
use stats::{median, ratio, Metric};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics, reported by `--trace 0` runs. Times are process
/// CPU time, which on a shared virtual machine does not count the time
/// the host ran other guests; README.md explains the choice.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_p90_ms", "ms"),
    ("ops_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by `--trace 1` runs on every workload; a
/// layer the workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("wall.setup_s", "s"),
    ("wall.op_p50_ms", "ms"),
    ("wall.op_p90_ms", "ms"),
    ("wall.ops_per_s", "1/s"),
    ("sim.generate_s", "s"),
    ("sim.feed_s", "s"),
    ("store.load_s", "s"),
    ("store.open_ms", "ms"),
    ("store.scan_ms", "ms"),
    ("store.decode_rows", "count"),
    ("store.bytes_fetched", "bytes"),
    ("store.window_scan_ms", "ms"),
    ("store.page_cache_hit_ratio", "ratio"),
    ("store.pages_pruned", "count"),
    ("store.segments_pruned", "count"),
    ("store.segment_cache_hit_ratio", "ratio"),
    ("store.segments_written", "count"),
    ("store.seal_ms", "ms"),
    ("query.parse_ms", "ms"),
    ("query.execute_ms", "ms"),
    ("core.matrix_ms", "ms"),
    ("core.windows", "count"),
    ("core.sorts_avoided", "count"),
    ("core.columns_resident_mb", "MiB"),
    ("core.delta_push_us", "us"),
    ("core.delta_windows", "count"),
    ("output.csv_ms", "ms"),
    ("ingest.apply_us", "us"),
    ("ingest.reorgs", "count"),
    ("ingest.blocks_dropped", "count"),
    ("ingest.finalized_ratio", "ratio"),
    ("self.store_pct", "%"),
    ("self.query_pct", "%"),
    ("self.core_pct", "%"),
    ("self.output_pct", "%"),
    ("self.ingest_pct", "%"),
    ("self.unattributed_pct", "%"),
    ("trace.untraced_ops_per_cpu_s", "1/s"),
    ("trace.traced_ops_per_cpu_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Where traced runs write their spans, in the working directory.
const TRACE_DIR: &str = ".bench_out";

const MIB: f64 = 1024.0 * 1024.0;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload measure|window-queries|follow-head \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let calibration_before = stats::calibration_ms();
    let (mut setup, mut workload) = match args.workload.as_str() {
        "measure" => measure::prepare(args.seed)?,
        "window-queries" => window_queries::prepare(args.seed)?,
        "follow-head" => follow_head::prepare(args.seed)?,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected measure, window-queries or follow-head"
            ))
        }
    };
    let mut phases = vec![workload.warm_up()];
    let metrics = if args.trace {
        let untraced = workload.phase(args.seconds / 2.0, &mut Tracer::off());
        let mut tracer = Tracer::on();
        let traced = workload.phase(args.seconds / 2.0, &mut tracer);
        write_trace(args, &tracer)?;
        set_up_again(workload.as_ref(), &mut setup)?;
        let metrics = listed(PER_LAYER, &per_layer(&setup, &untraced, &traced, &tracer));
        phases.extend([untraced, traced]);
        metrics
    } else {
        if let Err(e) = stats::reset_peak_rss() {
            eprintln!(
                "perfbench: cannot reset the peak-RSS mark ({e}); peak_rss_mb includes set-up"
            );
        }
        let timed = workload.phase(args.seconds, &mut Tracer::off());
        let peak = stats::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?;
        set_up_again(workload.as_ref(), &mut setup)?;
        let values = BTreeMap::from([
            ("setup_s", median(&setup.total_s)),
            ("op_cpu_p50_ms", timed.cpu_p50_ms),
            ("op_cpu_p90_ms", timed.cpu_p90_ms),
            ("ops_per_cpu_s", timed.ops_per_cpu_s()),
            ("peak_rss_mb", peak),
        ]);
        phases.push(timed);
        listed(END_TO_END, &values)
    };
    drop(workload);
    let attempted = phases.iter().map(|p| p.attempted).sum();
    let failed = phases.iter().map(|p| p.failed).sum();
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let calibration = [calibration_before, stats::calibration_ms()];
    println!("{}", stats::host_json(DECODE_THREADS, &calibration));
    println!(
        "{}",
        stats::result_json(correct, attempted, failed, &metrics)
    );
    Ok(())
}

/// Repeat the set-up until the run has timed [`SETUP_REPEATS`] of them.
fn set_up_again(workload: &dyn Workload, setup: &mut Setup) -> Result<(), String> {
    while setup.total_s.len() < SETUP_REPEATS {
        workload.set_up_again(setup)?;
    }
    Ok(())
}

/// `values` in the order and with the units of `list`.
fn listed(list: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    list.iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}

/// Per-layer readings of a traced run; README.md maps each to the
/// end-to-end metric it should move. Spans time in wall time; the
/// `wall.` readings come from the untraced half.
fn per_layer(
    setup: &Setup,
    untraced: &Phase,
    traced: &Phase,
    tracer: &Tracer,
) -> BTreeMap<&'static str, f64> {
    let ops = traced.attempted as f64;
    let units = traced.units as f64;
    let deltas = &traced.deltas;
    let per_op =
        |span: &str, scale: f64| ratio(tracer.totals(span).total_ns as f64 * 1e-9 * scale, ops);
    let per_span = |span: &str, scale: f64| {
        let totals = tracer.totals(span);
        ratio(totals.total_ns as f64 * 1e-9 * scale, totals.count as f64)
    };
    let per_unit = |counter: &str| ratio(deltas.counter(counter), units);
    let self_ns = tracer.layer_self_ns();
    let share = |layer: &str| {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        100.0 * ratio(ns as f64, tracer.root_ns() as f64)
    };
    let (untraced_rate, traced_rate) = (untraced.ops_per_cpu_s(), traced.ops_per_cpu_s());
    BTreeMap::from([
        ("wall.setup_s", median(&setup.wall_s)),
        ("wall.op_p50_ms", untraced.p50_ms),
        ("wall.op_p90_ms", untraced.p90_ms),
        ("wall.ops_per_s", untraced.ops_per_s()),
        ("sim.generate_s", median(&setup.generate_s)),
        ("sim.feed_s", median(&setup.feed_s)),
        ("store.load_s", median(&setup.load_s)),
        ("store.open_ms", per_op("store.open", 1e3)),
        ("store.scan_ms", per_op("store.scan", 1e3)),
        ("store.decode_rows", per_unit("store.decode.rows")),
        (
            "store.bytes_fetched",
            per_unit("store.backend.bytes_fetched"),
        ),
        ("store.window_scan_ms", per_op("store.window_scan", 1e3)),
        (
            "store.page_cache_hit_ratio",
            deltas.hit_ratio("store.backend.hit", "store.backend.miss"),
        ),
        ("store.pages_pruned", per_unit("store.scan.pages_pruned")),
        (
            "store.segments_pruned",
            per_unit("store.scan.segments_pruned"),
        ),
        (
            "store.segment_cache_hit_ratio",
            deltas.hit_ratio("store.cache.hit", "store.cache.miss"),
        ),
        ("store.segments_written", per_unit("store.segments.written")),
        (
            "store.seal_ms",
            deltas.histogram_mean("store.segment_write") * 1e3,
        ),
        ("query.parse_ms", per_op("query.parse", 1e3)),
        ("query.execute_ms", per_op("query.execute", 1e3)),
        ("core.matrix_ms", per_op("core.matrix", 1e3)),
        ("core.windows", per_unit("engine.windows")),
        ("core.sorts_avoided", per_unit("planner.scratch_reuse")),
        (
            "core.columns_resident_mb",
            ratio(traced.columns_bytes, ops) / MIB,
        ),
        ("core.delta_push_us", per_span("core.delta_push", 1e6)),
        (
            "core.delta_windows",
            ratio(traced.delta_windows as f64, units),
        ),
        ("output.csv_ms", per_op("output.csv", 1e3)),
        ("ingest.apply_us", per_span("ingest.apply", 1e6)),
        ("ingest.reorgs", per_unit("ingest.reorg.applied")),
        (
            "ingest.blocks_dropped",
            per_unit("ingest.reorg.blocks_dropped"),
        ),
        (
            "ingest.finalized_ratio",
            ratio(
                deltas.counter("ingest.head.finalized"),
                deltas.counter("ingest.head.accepted"),
            ),
        ),
        ("self.store_pct", share("store")),
        ("self.query_pct", share("query")),
        ("self.core_pct", share("core")),
        ("self.output_pct", share("output")),
        ("self.ingest_pct", share("ingest")),
        ("self.unattributed_pct", share("unattributed")),
        ("trace.untraced_ops_per_cpu_s", untraced_rate),
        ("trace.traced_ops_per_cpu_s", traced_rate),
        (
            "trace.overhead_pct",
            100.0 * ratio(untraced_rate - traced_rate, untraced_rate),
        ),
    ])
}

/// Write the kept spans as Chrome trace events and print the span table.
fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let path = Path::new(TRACE_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("spans: {}\n{}", path.display(), tracer.summary());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_traced_run_reports_exactly_the_listed_per_layer_metrics() {
        let none = Phase::default();
        let values = per_layer(&Setup::default(), &none, &none, &Tracer::on());
        let reported: Vec<&str> = values.keys().copied().collect();
        let mut listed: Vec<&str> = PER_LAYER.iter().map(|&(name, _)| name).collect();
        listed.sort_unstable();
        assert_eq!(reported, listed);
        assert!(
            values.values().all(|v| v.is_finite()),
            "a zero base must read 0, not NaN"
        );
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                text.contains(&entry),
                "{entry} is missing from BENCHMARK.json"
            );
        }
    }
}

//! End-to-end tests of the `blockdec` binary.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn blockdec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_blockdec"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("blockdec-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn help_lists_commands() {
    let out = blockdec(&["help"]);
    assert!(out.status.success());
    for cmd in [
        "simulate",
        "ingest",
        "measure",
        "report",
        "compare",
        "anomalies",
    ] {
        assert!(stdout(&out).contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = blockdec(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn missing_required_option_fails() {
    let out = blockdec(&["measure"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--store"));
}

#[test]
fn simulate_writes_csv() {
    let dir = workdir("simulate");
    let csv = dir.join("blocks.csv");
    let out = blockdec(&[
        "simulate",
        "--chain",
        "bitcoin",
        "--days",
        "2",
        "--out",
        csv.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let content = fs::read_to_string(&csv).unwrap();
    assert!(content.starts_with("height,timestamp,tag,"));
    // ~288 blocks over two days.
    let lines = content.lines().count();
    assert!((200..400).contains(&lines), "{lines} lines");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn full_pipeline_load_measure_report_anomalies() {
    let dir = workdir("pipeline");
    let store = dir.join("store");
    let out = blockdec(&[
        "load",
        "--chain",
        "bitcoin",
        "--days",
        "20",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("loaded"));

    // measure: daily gini series as CSV on stdout.
    let out = blockdec(&[
        "measure",
        "--store",
        store.to_str().unwrap(),
        "--metric",
        "gini",
        "--window",
        "fixed:day",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let csv = stdout(&out);
    assert!(csv.starts_with("index,start_height"));
    assert_eq!(csv.lines().count(), 21, "{csv}");

    // measure with sliding window to a file.
    let series = dir.join("series.csv");
    let out = blockdec(&[
        "measure",
        "--store",
        store.to_str().unwrap(),
        "--metric",
        "entropy",
        "--window",
        "sliding:144:72",
        "--out",
        series.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(fs::read_to_string(&series).unwrap().lines().count() > 30);

    // report: top producers.
    let out = blockdec(&["report", "--store", store.to_str().unwrap(), "--top", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let table = stdout(&out);
    assert!(table.starts_with("producer,blocks,share"));
    assert_eq!(table.lines().count(), 4);
    assert!(
        table.contains("BTC.com") || table.contains("AntPool"),
        "{table}"
    );

    // anomalies: day 13 must appear.
    let out = blockdec(&[
        "anomalies",
        "--store",
        store.to_str().unwrap(),
        "--metric",
        "entropy",
        "--window",
        "fixed:day",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).lines().any(|l| l.starts_with("13,")),
        "day 13 not flagged:\n{}",
        stdout(&out)
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ingest_roundtrip_and_compare() {
    let dir = workdir("ingest");
    // Simulate both chains to files, ingest into stores, compare.
    let btc_csv = dir.join("btc.csv");
    let out = blockdec(&[
        "simulate",
        "--chain",
        "bitcoin",
        "--days",
        "10",
        "--out",
        btc_csv.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let btc_store = dir.join("btc-store");
    let out = blockdec(&[
        "ingest",
        "--chain",
        "bitcoin",
        "--input",
        btc_csv.to_str().unwrap(),
        "--store",
        btc_store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let eth_store = dir.join("eth-store");
    let out = blockdec(&[
        "load",
        "--chain",
        "ethereum",
        "--days",
        "10",
        "--limit",
        "30000",
        "--store",
        eth_store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = blockdec(&[
        "compare",
        "--store-a",
        btc_store.to_str().unwrap(),
        "--store-b",
        eth_store.to_str().unwrap(),
        "--label-a",
        "bitcoin",
        "--label-b",
        "ethereum",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("## bitcoin vs ethereum"));
    assert!(report.contains("**Verdict:**"));
    assert!(
        report.contains("decentralization in bitcoin is higher"),
        "{report}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn jsonl_format_roundtrip() {
    let dir = workdir("jsonl");
    let file = dir.join("blocks.jsonl");
    let out = blockdec(&[
        "simulate",
        "--chain",
        "ethereum",
        "--days",
        "1",
        "--limit",
        "500",
        "--format",
        "jsonl",
        "--out",
        file.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let store = dir.join("store");
    let out = blockdec(&[
        "ingest",
        "--chain",
        "ethereum",
        "--format",
        "jsonl",
        "--input",
        file.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("ingested 500 blocks"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_language_end_to_end() {
    let dir = workdir("query");
    let store = dir.join("store");
    let out = blockdec(&[
        "load",
        "--chain",
        "bitcoin",
        "--days",
        "10",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // top-k.
    let out = blockdec(&[
        "query",
        "--store",
        store.to_str().unwrap(),
        "--q",
        "top 3 producers",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out).lines().count(), 4);

    // count over a calendar day.
    let out = blockdec(&[
        "query",
        "--store",
        store.to_str().unwrap(),
        "--q",
        "count where time between \"2019-01-03\" and \"2019-01-04\"",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let count: f64 = stdout(&out)
        .lines()
        .nth(1)
        .and_then(|l| l.parse().ok())
        .expect("count row");
    assert!((100.0..200.0).contains(&count), "{count} blocks in a day");

    // producer filter by name.
    let out = blockdec(&[
        "query",
        "--store",
        store.to_str().unwrap(),
        "--q",
        "count where producer = \"F2Pool\"",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Parse errors surface.
    let out = blockdec(&[
        "query",
        "--store",
        store.to_str().unwrap(),
        "--q",
        "count where producer = \"NoSuchPool\"",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown producer"),
        "{}",
        stderr(&out)
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analyze_produces_full_report() {
    let dir = workdir("analyze");
    let store = dir.join("store");
    let out = blockdec(&[
        "load",
        "--chain",
        "bitcoin",
        "--days",
        "30",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = blockdec(&["analyze", "--store", store.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let report = stdout(&out);
    for needle in [
        "# decentralization report",
        "## top producers",
        "### gini",
        "### entropy",
        "### nakamoto",
        "- trend:",
        "- anomalies:",
    ] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }
    // The day-13 anomaly shows in the entropy section.
    assert!(report.contains("day 13"), "{report}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsck_and_compact() {
    let dir = workdir("fsck-compact");
    let store = dir.join("store");
    // Two loads create two under-filled segments.
    for seed in ["1", "2"] {
        let days = "3";
        let out = blockdec(&[
            "load",
            "--chain",
            "bitcoin",
            "--days",
            days,
            "--seed",
            seed,
            "--store",
            store.to_str().unwrap(),
        ]);
        // The second load appends lower heights → expect failure there.
        if seed == "1" {
            assert!(out.status.success(), "{}", stderr(&out));
        }
    }
    let out = blockdec(&["fsck", "--store", store.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let out = blockdec(&["compact", "--store", store.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Corrupt a segment: fsck must fail loudly.
    let seg = fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".bds"))
        .expect("a segment exists")
        .path();
    let mut bytes = fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&seg, bytes).unwrap();
    let out = blockdec(&["fsck", "--store", store.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("FAULT [bit-rot]"), "{}", stderr(&out));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_window_spec_is_rejected() {
    let dir = workdir("badwin");
    let store = dir.join("store");
    blockdec(&[
        "load",
        "--chain",
        "bitcoin",
        "--days",
        "1",
        "--store",
        store.to_str().unwrap(),
    ]);
    let out = blockdec(&[
        "measure",
        "--store",
        store.to_str().unwrap(),
        "--window",
        "sliding:0:0",
    ]);
    assert!(!out.status.success());
    let out = blockdec(&[
        "measure",
        "--store",
        store.to_str().unwrap(),
        "--window",
        "fixed:decade",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("granularity"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn measure_accepts_comma_separated_metric_list() {
    let dir = workdir("multimetric");
    let store = dir.join("store");
    let out = blockdec(&[
        "load",
        "--chain",
        "bitcoin",
        "--days",
        "5",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = blockdec(&[
        "measure",
        "--store",
        store.to_str().unwrap(),
        "--metric",
        "gini,entropy,nakamoto",
        "--window",
        "fixed:day",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let csv = stdout(&out);
    assert!(csv.starts_with("metric,index,start_height"), "{csv}");
    // Header + 5 days × 3 metrics in long format.
    assert_eq!(csv.lines().count(), 16, "{csv}");
    for metric in ["gini", "entropy", "nakamoto"] {
        assert!(
            csv.lines().any(|l| l.starts_with(&format!("{metric},"))),
            "{metric} rows missing:\n{csv}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_metric_is_rejected_with_choices() {
    let dir = workdir("badmetric");
    let store = dir.join("store");
    blockdec(&[
        "load",
        "--chain",
        "bitcoin",
        "--days",
        "1",
        "--store",
        store.to_str().unwrap(),
    ]);
    let out = blockdec(&[
        "measure",
        "--store",
        store.to_str().unwrap(),
        "--metric",
        "sharpe",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("gini"), "{}", stderr(&out));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_option_is_rejected_before_the_command_runs() {
    let dir = workdir("badopt");
    let store = dir.join("store");
    let out = blockdec(&[
        "load",
        "--chain",
        "bitcoin",
        "--days",
        "1",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let series = dir.join("series.csv");
    let out = blockdec(&[
        "measure",
        "--store",
        store.to_str().unwrap(),
        "--metirc",
        "entropy",
        "--windw",
        "sliding:144:72",
        "--out",
        series.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("error: unknown option --metirc for measure"),
        "{}",
        stderr(&out)
    );
    assert!(!series.exists(), "measure ran despite the unknown option");
    fs::remove_dir_all(&dir).unwrap();
}

/// Run `measure` at `debug` with JSON logs over a three-segment store.
/// Returns the parsed log lines and the command's own result lines.
fn debug_json_measure(tag: &str) -> (Vec<serde_json::Value>, Vec<String>) {
    let dir = workdir(tag);
    let store = dir.join("store");
    let out = blockdec(&[
        "load",
        "--chain",
        "bitcoin",
        "--days",
        "20",
        "--flush-every",
        "1000",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = blockdec(&[
        "measure",
        "--store",
        store.to_str().unwrap(),
        "--metric",
        "gini,entropy",
        "--window",
        "sliding:144:72",
        "--out",
        dir.join("series.csv").to_str().unwrap(),
        "--log-level",
        "debug",
        "--log-format",
        "json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    fs::remove_dir_all(&dir).unwrap();
    let (json, text): (Vec<String>, Vec<String>) = stderr(&out)
        .lines()
        .map(str::to_string)
        .partition(|l| l.starts_with('{'));
    let json = json
        .iter()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    (json, text)
}

/// `(starts, closes)` of the spans named `name`: `<name> start` events,
/// and `close` events whose span path ends in `name`.
fn span_events(lines: &[serde_json::Value], name: &str) -> (usize, usize) {
    let start = format!("{name} start");
    let nested = format!(":{name}");
    let mut events = (0, 0);
    for v in lines {
        let message = v.get("message").and_then(|m| m.as_str());
        let span = v.get("span").and_then(|s| s.as_str());
        if message == Some(start.as_str()) {
            events.0 += 1;
        } else if message == Some("close")
            && span.is_some_and(|s| s == name || s.ends_with(&nested))
        {
            events.1 += 1;
        }
    }
    events
}

#[test]
fn debug_json_logs_parse_and_every_span_start_has_one_close() {
    let (json, text) = debug_json_measure("debugjson");
    // Besides JSON log lines, stderr holds only measure's own result
    // lines: a summary and a sparkline per series.
    assert_eq!(text.len(), 4, "{text:?}");
    assert!(
        text.iter()
            .all(|l| l.starts_with("store ") || l.starts_with("series ")),
        "{text:?}"
    );
    for name in [
        "stage.scan",
        "store.segment_read",
        "stage.measure_matrix",
        "planner.chunk",
    ] {
        let (starts, closes) = span_events(&json, name);
        assert_eq!(starts, closes, "{name}: {starts} starts, {closes} closes");
    }
    assert_eq!(span_events(&json, "stage.scan").0, 1);
    assert_eq!(span_events(&json, "stage.measure_matrix").0, 1);
}

#[test]
fn per_segment_and_per_chunk_regions_are_spans_at_debug() {
    let (json, _) = debug_json_measure("perop");
    assert_eq!(span_events(&json, "store.segment_read"), (3, 3));
    let (chunks, _) = span_events(&json, "planner.chunk");
    assert!(chunks >= 1, "no planner.chunk span opened");
}

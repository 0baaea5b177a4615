//! Smoke tests for the machine-readable output paths: JSON log lines and
//! the JSON run summary must parse with a real JSON parser.

use blockdec_obs::log::{render_line, Config, FieldValue, Level, LogFormat};
use blockdec_obs::RunSummary;
use serde_json::Value;

#[test]
fn json_log_line_parses_and_round_trips_fields() {
    let line = render_line(
        LogFormat::Json,
        "2026-08-05T00:00:00.000Z",
        Level::Debug,
        "blockdec_store::segment",
        Some("stage.scan:store.segment_read"),
        &[
            ("file", FieldValue::from("seg-00000001.bds")),
            ("rows", FieldValue::from(65_536u64)),
            ("cache_hit", FieldValue::from(false)),
            ("elapsed_ms", FieldValue::from(1.5f64)),
            ("note", FieldValue::from("quotes \" and\nnewlines")),
        ],
        "read segment",
    );
    let v: Value = serde_json::from_str(&line).expect("line is valid JSON");
    assert_eq!(v.get("level").and_then(Value::as_str), Some("debug"));
    assert_eq!(
        v.get("target").and_then(Value::as_str),
        Some("blockdec_store::segment")
    );
    assert_eq!(
        v.get("span").and_then(Value::as_str),
        Some("stage.scan:store.segment_read")
    );
    assert_eq!(
        v.get("message").and_then(Value::as_str),
        Some("read segment")
    );
    let fields = v.get("fields").expect("fields object");
    assert_eq!(fields.get("rows").and_then(Value::as_u64), Some(65_536));
    assert_eq!(fields.get("cache_hit"), Some(&Value::Bool(false)));
    assert_eq!(
        fields.get("note").and_then(Value::as_str),
        Some("quotes \" and\nnewlines")
    );
}

#[test]
fn json_log_line_handles_non_finite_floats() {
    let line = render_line(
        LogFormat::Json,
        "2026-08-05T00:00:00.000Z",
        Level::Info,
        "t",
        None,
        &[("bad", FieldValue::from(f64::NAN))],
        "m",
    );
    let v: Value = serde_json::from_str(&line).expect("valid JSON despite NaN");
    assert!(v
        .get("fields")
        .and_then(|f| f.get("bad"))
        .unwrap()
        .is_null());
    assert!(v.get("span").is_none());
}

#[test]
fn compact_line_has_expected_shape() {
    let line = render_line(
        LogFormat::Compact,
        "2026-08-05T00:00:00.000Z",
        Level::Info,
        "blockdec_core::engine",
        None,
        &[("windows", FieldValue::from(365u64))],
        "measured",
    );
    assert_eq!(
        line,
        "2026-08-05T00:00:00.000Z  INFO blockdec_core::engine{windows=365} measured"
    );
}

#[test]
fn run_summary_json_parses() {
    // Populate the registry the way an instrumented run would.
    blockdec_obs::counter("engine.windows").add(365);
    blockdec_obs::counter("engine.blocks").add(52_560);
    blockdec_obs::counter("store.backend.hit").add(9);
    blockdec_obs::counter("store.backend.miss").add(3);
    blockdec_obs::histogram("stage.measure").record(1.5);
    let summary = RunSummary::collect();
    let v: Value = serde_json::from_str(&summary.render_json()).expect("summary is valid JSON");
    let s = v.get("summary").expect("summary key");
    assert_eq!(s.get("windows").and_then(Value::as_u64), Some(365));
    let hit_rate = s
        .get("page_cache_hit_rate")
        .and_then(Value::as_f64)
        .unwrap();
    assert!((hit_rate - 0.75).abs() < 1e-9, "{hit_rate}");
    assert!(s.get("blocks_per_sec").and_then(Value::as_f64).unwrap() > 0.0);
    let stages = s.get("stages").and_then(Value::as_array).unwrap();
    assert!(stages
        .iter()
        .any(|st| st.get("name").and_then(Value::as_str) == Some("measure")));
}

#[test]
fn init_and_macros_do_not_panic_in_json_mode() {
    // Full end-to-end path: install a JSON logger and drive every macro.
    // (Output goes to this test binary's stderr; the parse checks above
    // cover content.)
    blockdec_obs::log::init(
        Config::from_filter("trace")
            .unwrap()
            .format(LogFormat::Json),
    );
    blockdec_obs::info!(blocks = 10u64; "info event");
    blockdec_obs::debug!("debug event with fmt {}", 1 + 1);
    blockdec_obs::trace!(cache_hit = true; "trace event");
    let _s = blockdec_obs::span!("outer", tag = "smoke");
    {
        let _t = blockdec_obs::span!("stage.smoke");
        blockdec_obs::warn!("nested inside two spans");
    }
    assert!(blockdec_obs::log::enabled(Level::Trace, "anything"));
    assert!(blockdec_obs::log::logger().is_some());
}

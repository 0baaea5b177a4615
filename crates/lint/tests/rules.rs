//! Fixture tests: every rule fires on its bad snippet, stays silent on
//! the fixed version, and waivers suppress exactly one finding each —
//! plus the integration check that the real workspace lints clean
//! within the `ci/lint-baseline.txt` waiver ceiling.

use blockdec_lint::source::Workspace;
use blockdec_lint::{parse_baseline, run};

/// Build an in-memory workspace from `(virtual path, contents)` pairs.
fn ws(entries: &[(&str, &str)]) -> Workspace {
    Workspace::from_memory(
        entries
            .iter()
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .collect(),
    )
}

/// Findings of one rule in a workspace (all rules run; waivers applied).
fn findings_of(workspace: &Workspace, rule: &str) -> Vec<(String, usize)> {
    run(workspace, &[])
        .findings
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.path, f.line))
        .collect()
}

#[test]
fn layering_fires_on_bad_and_not_on_good() {
    let bad = ws(&[(
        "crates/core/src/sidecar.rs",
        include_str!("fixtures/layering_bad.rs"),
    )]);
    let hits = findings_of(&bad, "layering");
    assert!(!hits.is_empty(), "expected layering findings, got none");

    let good = ws(&[(
        "crates/core/src/sidecar.rs",
        include_str!("fixtures/layering_good.rs"),
    )]);
    assert!(findings_of(&good, "layering").is_empty());
}

#[test]
fn layering_is_allowed_in_the_backend_and_in_tools() {
    for path in [
        "crates/store/src/backend/localfs.rs",
        "crates/cli/src/main.rs",
    ] {
        let w = ws(&[(path, include_str!("fixtures/layering_bad.rs"))]);
        assert!(
            findings_of(&w, "layering").is_empty(),
            "layering must not fire in {path}"
        );
    }
}

#[test]
fn wall_clock_fires_on_bad_and_not_on_good() {
    let bad = ws(&[(
        "crates/core/src/stamp.rs",
        include_str!("fixtures/time_bad.rs"),
    )]);
    assert_eq!(findings_of(&bad, "determinism-time").len(), 1);

    let good = ws(&[(
        "crates/core/src/stamp.rs",
        include_str!("fixtures/time_good.rs"),
    )]);
    assert!(findings_of(&good, "determinism-time").is_empty());

    // Timing is blockdec-obs's and the bench harness's job.
    for path in ["crates/obs/src/log.rs", "crates/bench/src/perf.rs"] {
        let w = ws(&[(path, include_str!("fixtures/time_bad.rs"))]);
        assert!(
            findings_of(&w, "determinism-time").is_empty(),
            "determinism-time must not fire in {path}"
        );
    }
}

#[test]
fn hash_order_fires_on_bad_and_not_on_btreemap() {
    let bad = ws(&[(
        "crates/core/src/sum.rs",
        include_str!("fixtures/order_bad.rs"),
    )]);
    let hits = findings_of(&bad, "determinism-order");
    assert_eq!(hits.len(), 1, "expected exactly one hash-order finding");
    assert_eq!(hits[0].1, 4, "finding should sit on the .values() line");

    let good = ws(&[(
        "crates/core/src/sum.rs",
        include_str!("fixtures/order_good.rs"),
    )]);
    assert!(findings_of(&good, "determinism-order").is_empty());
}

#[test]
fn panic_fires_on_bad_and_not_on_good_or_tests() {
    let bad = ws(&[(
        "crates/core/src/pick.rs",
        include_str!("fixtures/panic_bad.rs"),
    )]);
    let hits = findings_of(&bad, "panic");
    // The unwrap inside `#[cfg(test)] mod tests` must NOT count.
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].1, 2);

    let good = ws(&[(
        "crates/core/src/pick.rs",
        include_str!("fixtures/panic_good.rs"),
    )]);
    assert!(findings_of(&good, "panic").is_empty());

    // Tool crates may panic: a CLI's error path is the process exit.
    let tool = ws(&[(
        "crates/cli/src/pick.rs",
        include_str!("fixtures/panic_bad.rs"),
    )]);
    assert!(findings_of(&tool, "panic").is_empty());
}

#[test]
fn format_drift_fires_on_stale_doc_and_not_on_matching_doc() {
    let src = (
        "crates/store/src/segment.rs",
        include_str!("fixtures/format_src.rs"),
    );

    let bad = ws(&[
        src,
        ("docs/FORMAT.md", include_str!("fixtures/format_bad.md")),
    ]);
    let hits = findings_of(&bad, "format-drift");
    assert_eq!(hits.len(), 1, "only MAGIC drifted: {hits:?}");

    let good = ws(&[
        src,
        ("docs/FORMAT.md", include_str!("fixtures/format_good.md")),
    ]);
    assert!(findings_of(&good, "format-drift").is_empty());
}

#[test]
fn format_drift_catches_undocumented_pub_const() {
    // An anchored file grows a pub const with no anchor row: reverse
    // direction must fire.
    let src = concat!(
        include_str!("fixtures/format_src.rs"),
        "pub const SNEAKY_LEN: usize = 8;\n"
    );
    let w = ws(&[
        ("crates/store/src/segment.rs", src),
        ("docs/FORMAT.md", include_str!("fixtures/format_good.md")),
    ]);
    let hits = findings_of(&w, "format-drift");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, "crates/store/src/segment.rs");
}

#[test]
fn obs_drift_fires_both_directions_and_not_when_in_sync() {
    let src = (
        "crates/store/src/metrics.rs",
        include_str!("fixtures/obs_src.rs"),
    );

    // Doc names a renamed metric; code registers an undocumented one.
    let bad = ws(&[
        src,
        ("docs/OBSERVABILITY.md", include_str!("fixtures/obs_bad.md")),
    ]);
    let hits = findings_of(&bad, "obs-drift");
    assert_eq!(
        hits.len(),
        2,
        "one stale doc name + one undocumented: {hits:?}"
    );

    let good = ws(&[
        src,
        (
            "docs/OBSERVABILITY.md",
            include_str!("fixtures/obs_good.md"),
        ),
    ]);
    assert!(findings_of(&good, "obs-drift").is_empty());
}

#[test]
fn obs_drift_counts_a_span_site_as_a_registration() {
    let src = (
        "crates/store/src/flush.rs",
        "pub fn flush() {\n    let _t = blockdec_obs::span!(\"x.y\", rows = 3u64);\n}\n",
    );
    let doc = |names: &str| {
        format!(
            "<!-- blockdec-lint: obs-names:begin -->\n| Span | Opened by |\n|---|---|\n\
             {names}<!-- blockdec-lint: obs-names:end -->\n"
        )
    };

    let undocumented = doc("| `x.z` | another span |\n");
    let hits = findings_of(
        &ws(&[src, ("docs/OBSERVABILITY.md", &undocumented)]),
        "obs-drift",
    );
    assert!(
        hits.contains(&("crates/store/src/flush.rs".to_string(), 2)),
        "undocumented span site: {hits:?}"
    );

    let documented = doc("| `x.y` | `flush` |\n");
    let w = ws(&[src, ("docs/OBSERVABILITY.md", &documented)]);
    assert!(findings_of(&w, "obs-drift").is_empty());
}

#[test]
fn waiver_suppresses_exactly_one_finding() {
    let w = ws(&[(
        "crates/core/src/pair.rs",
        include_str!("fixtures/waiver_pair.rs"),
    )]);
    let report = run(&w, &[]);
    let panics: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "panic")
        .collect();
    assert_eq!(panics.len(), 1, "second unwrap must still be a finding");
    assert_eq!(panics[0].line, 3);
    assert_eq!(report.waived.len(), 1, "first unwrap is waived");
    // A correct waiver is not itself a finding.
    assert!(report.findings.iter().all(|f| f.rule != "waiver"));
}

#[test]
fn reasonless_and_unused_waivers_are_findings() {
    let reasonless = ws(&[(
        "crates/core/src/x.rs",
        "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap() // blockdec-lint: allow(panic)\n}\n",
    )]);
    let report = run(&reasonless, &[]);
    assert!(report.findings.iter().any(|f| f.rule == "waiver"));
    assert!(
        report.findings.iter().any(|f| f.rule == "panic"),
        "reasonless waiver must not suppress"
    );

    let unused = ws(&[(
        "crates/core/src/y.rs",
        "// blockdec-lint: allow(panic) — nothing here panics\npub fn f() -> u32 {\n    7\n}\n",
    )]);
    let report = run(&unused, &[]);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "waiver");
}

/// The real workspace must lint clean, with its used-waiver count inside
/// the `ci/lint-baseline.txt` ceiling. This is the same gate ci.sh runs;
/// failing here means a violation (or an orphaned waiver) landed.
#[test]
fn repository_lints_clean_within_baseline() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let workspace = Workspace::load(&root).expect("workspace sources readable");
    assert!(workspace.files.len() > 50, "walker found the real tree");
    let report = run(&workspace, &[]);
    let rendered = report.render_text();
    assert!(
        report.findings.is_empty(),
        "blockdec-lint found unwaived findings:\n{rendered}"
    );
    let baseline = std::fs::read_to_string(root.join("ci/lint-baseline.txt"))
        .expect("ci/lint-baseline.txt exists");
    let ceiling = parse_baseline(&baseline).expect("baseline has max_waivers");
    assert!(
        report.waived.len() <= ceiling,
        "{} used waivers exceed the ceiling of {ceiling} — fix findings instead of waiving",
        report.waived.len()
    );
}

#[test]
fn json_report_is_well_formed_enough_to_grep() {
    let w = ws(&[(
        "crates/core/src/pick.rs",
        include_str!("fixtures/panic_bad.rs"),
    )]);
    let json = run(&w, &[]).render_json();
    assert!(json.contains("\"rule\": \"panic\""));
    assert!(json.contains("\"files_scanned\": 1"));
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
}

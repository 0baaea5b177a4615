//! Rule `obs-drift`: every metric/span name registered in code must be
//! documented in `docs/OBSERVABILITY.md`, and vice versa.
//!
//! Counters (gauges included), histograms, and spans are registered by
//! string name at the call site (`blockdec_obs::counter("store.cache.hit")`),
//! so nothing ties the code to the doc — across PRs the two silently
//! diverge, and an operator grepping the doc for a counter that was
//! renamed two PRs ago measures nothing. The doc's name tables sit
//! inside `<!-- blockdec-lint: obs-names -->` anchors; this rule diffs
//! them against the literal names at every registration site.

use super::{anchored_lines, ident_boundary, is_metric_name, names_in_table_cell, Rule};
use crate::report::Finding;
use crate::source::Workspace;
use std::collections::BTreeMap;

const DOC: &str = "docs/OBSERVABILITY.md";

/// Call patterns that register a name: the next token after the open
/// paren must be a string literal for the site to count (dynamic names
/// cannot be checked statically).
const REGISTRATION_CALLS: &[&str] = &["counter(", "histogram(", "span!("];

pub struct ObsDrift;

impl Rule for ObsDrift {
    fn id(&self) -> &'static str {
        "obs-drift"
    }

    fn describe(&self) -> &'static str {
        "metric/span names diverging from docs/OBSERVABILITY.md"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let Some(doc) = ws.doc(DOC) else {
            return;
        };
        let doc_lines = anchored_lines(&doc.raw, "obs-names");
        if doc_lines.is_empty() {
            out.push(Finding {
                rule: self.id(),
                path: DOC.to_string(),
                line: 0,
                excerpt: String::new(),
                message: "no `obs-names` anchor regions — the metric name tables are \
                          not machine-checkable"
                    .to_string(),
            });
            return;
        }
        // name -> first doc line it appears on.
        let mut documented: BTreeMap<String, usize> = BTreeMap::new();
        for (line, text) in doc_lines {
            for name in names_in_table_cell(text) {
                documented.entry(name).or_insert(line);
            }
        }

        // name -> first registration site.
        let mut registered: BTreeMap<String, (String, usize)> = BTreeMap::new();
        for file in &ws.files {
            for (pos, name) in registration_sites(file) {
                let line = file.lex.line_of(pos);
                registered
                    .entry(name)
                    .or_insert_with(|| (file.path.clone(), line));
            }
        }

        for (name, (path, line)) in &registered {
            if !documented.contains_key(name) {
                let file = ws.files.iter().find(|f| &f.path == path);
                out.push(Finding {
                    rule: self.id(),
                    path: path.clone(),
                    line: *line,
                    excerpt: file.map(|f| f.excerpt(*line)).unwrap_or_default(),
                    message: format!(
                        "metric/span name `{name}` is registered here but missing \
                         from docs/OBSERVABILITY.md's obs-names tables"
                    ),
                });
            }
        }
        for (name, line) in &documented {
            if !registered.contains_key(name) {
                out.push(Finding {
                    rule: self.id(),
                    path: DOC.to_string(),
                    line: *line,
                    excerpt: format!("`{name}`"),
                    message: format!(
                        "documented metric/span name `{name}` is not registered \
                         anywhere in code — stale doc or renamed metric"
                    ),
                });
            }
        }
    }
}

/// `(offset, name)` for every static registration site in non-test code.
fn registration_sites(file: &crate::source::SourceFile) -> Vec<(usize, String)> {
    let code = &file.lex.code;
    // Skip whitespace over the RAW bytes: in scrubbed code the literal
    // (quotes included) is blanked to spaces, which a whitespace skip
    // would silently walk straight across. Offsets are 1:1 between the
    // two, and in raw text the opening quote stops the skip exactly at
    // the literal's recorded start.
    let raw = file.raw.as_bytes();
    let mut out = Vec::new();
    for pat in REGISTRATION_CALLS {
        let mut from = 0usize;
        while let Some(p) = code[from..].find(pat) {
            let pos = from + p;
            from = pos + 1;
            if !ident_boundary(code, pos) {
                continue;
            }
            if file.lex.in_test_region(pos) {
                continue;
            }
            let mut j = pos + pat.len();
            while j < raw.len() && raw[j].is_ascii_whitespace() {
                j += 1;
            }
            if let Some(lit) = file.lex.strings.iter().find(|s| s.start == j) {
                if is_metric_name(&lit.value) {
                    out.push((pos, lit.value.clone()));
                }
            }
        }
    }
    out
}

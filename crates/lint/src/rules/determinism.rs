//! Rules `determinism-time` and `determinism-order`: nothing on a
//! result path may depend on the wall clock or on std hash-table
//! iteration order.
//!
//! The repo's core guarantee is *bitwise* reproducibility — every
//! optimized pipeline is held `assert_eq!`-equal to its baseline. Two
//! things silently break that: reading the clock (`SystemTime::now`,
//! `Instant::now`) anywhere results flow, and iterating a `HashMap`/
//! `HashSet` (std's RandomState reseeds per process, so iteration
//! order — and therefore any f64 reduction or emission order built on
//! it — changes run to run). Timing belongs to `blockdec-obs` and the
//! bench harness; ordered data belongs in `BTreeMap`/`BTreeSet`, or
//! must be sorted before anything order-sensitive consumes it.

use super::{ident_boundary, scan_banned, token_boundary, Rule};
use crate::report::Finding;
use crate::source::{Role, SourceFile, Workspace};
use std::collections::BTreeSet;

pub struct WallClock;

impl Rule for WallClock {
    fn id(&self) -> &'static str {
        "determinism-time"
    }

    fn describe(&self) -> &'static str {
        "wall-clock reads outside blockdec-obs and the bench harness"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if file.role == Role::Tool || file.crate_name == "obs" {
                continue;
            }
            scan_banned(
                file,
                &["SystemTime::now", "Instant::now"],
                self.id(),
                "reads the wall clock in library code — results must not depend \
                 on time-of-day; timing lives in blockdec-obs spans",
                out,
            );
        }
    }
}

/// Methods whose visit order follows the hash function.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

pub struct HashOrder;

impl Rule for HashOrder {
    fn id(&self) -> &'static str {
        "determinism-order"
    }

    fn describe(&self) -> &'static str {
        "iteration over std hash collections on result paths"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            let names = hash_typed_names(file);
            if names.is_empty() {
                continue;
            }
            let mut seen_lines = BTreeSet::new();
            for name in &names {
                find_iterations(file, name, &mut seen_lines, out, self.id());
            }
        }
    }
}

/// Identifiers declared with a `HashMap`/`HashSet` type in this file:
/// `name: HashMap<…>` (fields, params, lets) and
/// `name = HashMap::new()/with_capacity(…)/from(…)` bindings. A
/// file-level heuristic, not type inference — shadowing a hash-typed
/// name with a non-hash type in the same file can false-positive, which
/// an inline waiver then documents.
fn hash_typed_names(file: &SourceFile) -> BTreeSet<String> {
    let code = &file.lex.code;
    let mut names = BTreeSet::new();
    for ty in ["HashMap", "HashSet"] {
        let mut from = 0usize;
        while let Some(p) = code[from..].find(ty) {
            let pos = from + p;
            from = pos + 1;
            if !token_boundary(code, pos) || file.lex.in_test_region(pos) {
                // `std::collections::HashMap` paths in type position end
                // with the bare name; qualified hits are caught there.
                continue;
            }
            if let Some(name) = declared_name(code, pos) {
                names.insert(name);
            }
        }
    }
    names
}

/// Walk backwards from a `HashMap`/`HashSet` token to the identifier it
/// is declared for, over `: & mut std::collections::` noise and the
/// `= Hash…::new()` binding form.
fn declared_name(code: &str, ty_pos: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = ty_pos;
    // Skip backwards over whitespace and type-position noise.
    loop {
        while i > 0 && (bytes[i - 1] as char).is_ascii_whitespace() {
            i -= 1;
        }
        let rest = &code[..i];
        if rest.ends_with("mut") {
            i -= 3;
        } else if rest.ends_with('&') {
            i -= 1;
        } else if rest.ends_with("::") {
            // `std::collections::HashMap` — skip the whole path back to
            // whatever precedes it.
            i -= 2;
            while i > 0 && {
                let b = bytes[i - 1];
                b.is_ascii_alphanumeric() || b == b'_' || b == b':'
            } {
                i -= 1;
            }
        } else {
            break;
        }
    }
    let rest = &code[..i];
    let anchor = rest.chars().last()?;
    if anchor != ':' && anchor != '=' {
        return None;
    }
    let mut j = i - 1;
    // `=` binding must be `name =`, not `==` or `+=`.
    while j > 0 && (bytes[j - 1] as char).is_ascii_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && {
        let b = bytes[j - 1];
        b.is_ascii_alphanumeric() || b == b'_'
    } {
        j -= 1;
    }
    if j == end {
        return None;
    }
    let name = &code[j..end];
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(name.to_string())
}

/// Flag iteration constructs over `name` (optionally `self.name`).
fn find_iterations(
    file: &SourceFile,
    name: &str,
    seen_lines: &mut BTreeSet<usize>,
    out: &mut Vec<Finding>,
    rule: &'static str,
) {
    let code = &file.lex.code;
    let bytes = code.as_bytes();
    let mut hits: Vec<usize> = Vec::new();

    // `name.iter()` with any rustfmt line-breaking between the segments.
    let mut from = 0usize;
    while let Some(p) = code[from..].find(name) {
        let pos = from + p;
        from = pos + 1;
        // `self.name` is fine (prev char '.'); a longer identifier
        // containing `name` as a prefix/suffix is not a match.
        if !ident_boundary(code, pos) {
            continue;
        }
        let end = pos + name.len();
        if bytes
            .get(end)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            continue;
        }
        let mut j = end;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) != Some(&b'.') {
            continue;
        }
        j += 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let m_start = j;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        let method = &code[m_start..j];
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) == Some(&b'(') && ITER_METHODS.contains(&method) {
            hits.push(pos);
        }
    }
    // `for x in name` / `for x in &name` / `in self.name` / `in &mut name`.
    let mut from = 0usize;
    while let Some(p) = code[from..].find(" in ") {
        let pos = from + p;
        from = pos + 1;
        let mut j = pos + 4;
        let bytes = code.as_bytes();
        while j < bytes.len() && (bytes[j] == b'&' || bytes[j] == b' ') {
            j += 1;
        }
        if code[j..].starts_with("mut ") {
            j += 4;
        }
        if code[j..].starts_with("self.") {
            j += 5;
        }
        if code[j..].starts_with(name) {
            let end = j + name.len();
            let next = bytes.get(end).copied().unwrap_or(b' ');
            if !(next.is_ascii_alphanumeric() || next == b'_' || next == b'.' || next == b'(') {
                hits.push(j);
            }
        }
    }

    for pos in hits {
        if file.lex.in_test_region(pos) {
            continue;
        }
        let line = file.lex.line_of(pos);
        if seen_lines.insert(line) {
            out.push(Finding {
                rule,
                path: file.path.clone(),
                line,
                excerpt: file.excerpt(line),
                message: format!(
                    "iterates `{name}`, a std hash collection — iteration order is \
                     nondeterministic; use BTreeMap/BTreeSet or sort before any \
                     order-sensitive consumer"
                ),
            });
        }
    }
}

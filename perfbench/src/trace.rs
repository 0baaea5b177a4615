//! In-memory spans for the traced run. The benchmark opens and closes
//! them around each call it makes into a layer; nothing inside the
//! program is instrumented. A span's layer is its name up to the first
//! `.`, and the time an `op` span spends outside all of its children is
//! the unattributed share.

use crate::stats::ratio;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span around one operation.
pub const OP: &str = "op";

/// Spans kept one by one for the trace file. Totals keep counting past
/// this, so follow-head (three spans per head event) stays bounded.
const KEPT_SPANS: usize = 50_000;

/// Every closed span with one name, added up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct Kept {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Span recorder. A disabled one records nothing and costs a branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    ops: u64,
    open: Vec<Open>,
    kept: Vec<Kept>,
    totals: BTreeMap<&'static str, SpanTotals>,
    root_ns: u64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            ops: 0,
            open: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
            root_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if self.enabled {
            let now = self.now_ns();
            self.begin_at(name, now);
        }
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if self.enabled {
            let now = self.now_ns();
            self.end_at(now);
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin_at(&mut self, name: &'static str, at_ns: u64) {
        if name == OP {
            self.ops += 1;
        }
        self.next_id += 1;
        self.open.push(Open {
            id: self.next_id,
            name,
            start_ns: at_ns,
            child_ns: 0,
        });
    }

    fn end_at(&mut self, at_ns: u64) {
        let Some(span) = self.open.pop() else {
            return;
        };
        let dur_ns = at_ns.saturating_sub(span.start_ns);
        let totals = self.totals.entry(span.name).or_default();
        totals.count += 1;
        totals.total_ns += dur_ns;
        totals.self_ns += dur_ns.saturating_sub(span.child_ns);
        let parent = match self.open.last_mut() {
            Some(parent) => {
                parent.child_ns += dur_ns;
                Some(parent.id)
            }
            None => {
                self.root_ns += dur_ns;
                None
            }
        };
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(Kept {
                id: span.id,
                parent,
                op: self.ops,
                name: span.name,
                start_ns: span.start_ns,
                dur_ns,
            });
        }
    }

    /// Totals of the spans named `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Time covered by root spans, ns: the base of the self-time shares.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Self time per layer, ns; the self time of `op` spans is filed
    /// under `unattributed`.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut layers = BTreeMap::new();
        for (&name, totals) in &self.totals {
            *layers.entry(layer_of(name)).or_default() += totals.self_ns;
        }
        layers
    }

    /// The kept spans as Chrome trace events, which Perfetto and
    /// `chrome://tracing` open. Times are in microseconds.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .kept
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \
                     \"args\": {{\"id\": {}, \"parent\": {parent}, \"op\": {}}}}}",
                    s.name,
                    layer_of(s.name),
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.id,
                    s.op
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }

    /// Count, total and self time per span name, and each name's share
    /// of root time.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{:<20} {:>10} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self"
        );
        for (name, t) in &self.totals {
            out.push_str(&format!(
                "{:<20} {:>10} {:>12.3} {:>12.3} {:>6.1}%\n",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * ratio(t.self_ns as f64, self.root_ns as f64)
            ));
        }
        out
    }
}

/// The layer a span belongs to.
pub fn layer_of(name: &'static str) -> &'static str {
    if name == OP {
        "unattributed"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_leaves_out_children_and_op_self_time_is_unattributed() {
        let mut t = Tracer::on();
        t.begin_at(OP, 0);
        t.begin_at("store.scan", 10);
        t.end_at(40);
        t.begin_at("query.execute", 40);
        t.begin_at("store.scan", 45);
        t.end_at(55);
        t.end_at(90);
        t.end_at(100);
        let totals = |count, total_ns, self_ns| SpanTotals {
            count,
            total_ns,
            self_ns,
        };
        assert_eq!(t.totals(OP), totals(1, 100, 20));
        assert_eq!(t.totals("store.scan"), totals(2, 40, 40));
        assert_eq!(t.totals("query.execute"), totals(1, 50, 40));
        assert_eq!(t.root_ns(), 100);
        let layers = t.layer_self_ns();
        assert_eq!(layers["store"], 40);
        assert_eq!(layers["query"], 40);
        assert_eq!(layers["unattributed"], 20);
        assert_eq!(layers.values().sum::<u64>(), t.root_ns());
        assert_eq!(t.kept.len(), 4);
        assert_eq!(t.kept[0].parent, Some(1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin(OP);
        t.begin("store.scan");
        t.end();
        t.end();
        assert_eq!(t.totals(OP), SpanTotals::default());
        assert_eq!(t.root_ns(), 0);
        assert!(t.kept.is_empty());
    }

    #[test]
    fn layer_is_the_name_up_to_the_first_dot() {
        assert_eq!(layer_of("store.window_scan"), "store");
        assert_eq!(layer_of("core.delta_push"), "core");
        assert_eq!(layer_of(OP), "unattributed");
    }
}

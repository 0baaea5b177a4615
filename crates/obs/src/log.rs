//! Structured logging: levels, env-filter, spans, and two line formats.
//!
//! This is a self-contained subset of the `tracing` model: events carry a
//! level, target (module path), fields, and a message; a [`Span`] is a
//! named region, entered on creation and closed on drop, that records
//! its wall time into a histogram of its name and, at `debug`, logs its
//! start and close. A process-wide [`Logger`] set by [`init`]
//! filters by level per target prefix and renders each line to stderr in
//! either `compact` or JSON form.
//!
//! Filtering is checked against one atomic before any formatting happens,
//! so disabled call sites cost a load and a compare.

use crate::metrics::{histogram, Histogram};
use crate::timefmt::now_rfc3339;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Event/span severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The pipeline cannot proceed as asked.
    Error = 1,
    /// Suspicious but survivable.
    Warn = 2,
    /// Stage-level progress (the default).
    Info = 3,
    /// Per-operation detail: segment reads, parses, window batches.
    Debug = 4,
    /// Per-item detail: cache lookups, individual rows.
    Trace = 5,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// Line rendering for emitted events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// Human-oriented single lines: timestamp, level, target, spans,
    /// fields, message.
    #[default]
    Compact,
    /// One JSON object per line with `ts`/`level`/`target`/`spans`/
    /// `fields`/`message` keys.
    Json,
}

impl LogFormat {
    /// Parse `compact` or `json` (case-insensitive).
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s.trim().to_ascii_lowercase().as_str() {
            "compact" | "text" => Some(LogFormat::Compact),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }
}

/// A typed field value attached to an event or span.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Boolean flag (e.g. `cache_hit`).
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point (non-finite renders as JSON null).
    F64(f64),
    /// Free text.
    Str(String),
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue { FieldValue::$variant(v as $cast) }
        }
    )*};
}
field_from!(
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64,
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    f32 => F64 as f64, f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl From<&String> for FieldValue {
    fn from(v: &String) -> FieldValue {
        FieldValue::Str(v.clone())
    }
}

impl FieldValue {
    fn write_compact(&self, out: &mut String) {
        match self {
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => out.push_str(&format_f64(*v)),
            FieldValue::Str(s) => {
                if s.chars().any(|c| c.is_whitespace() || c == '"') {
                    write_json_string(out, s);
                } else {
                    out.push_str(s);
                }
            }
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) if v.is_finite() => out.push_str(&format_f64(*v)),
            FieldValue::F64(_) => out.push_str("null"),
            FieldValue::Str(s) => write_json_string(out, s),
        }
    }
}

fn format_f64(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One `target-prefix=level` filter directive.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Directive {
    prefix: String,
    level: Level,
}

/// Logger configuration: a filter string plus an output format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Config {
    default_level: Level,
    directives: Vec<Directive>,
    format: LogFormat,
}

impl Default for Config {
    /// `info` everywhere, compact output.
    fn default() -> Config {
        Config {
            default_level: Level::Info,
            directives: Vec::new(),
            format: LogFormat::Compact,
        }
    }
}

impl Config {
    /// Parse an env-filter string: a comma list of bare levels and
    /// `target-prefix=level` directives, e.g.
    /// `info,blockdec_store=trace`. Unknown pieces are errors.
    pub fn from_filter(filter: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        cfg.apply_filter(filter)?;
        Ok(cfg)
    }

    /// Read `BLOCKDEC_LOG` (filter) and `BLOCKDEC_LOG_FORMAT`
    /// (`compact`/`json`), falling back to the defaults on unset or
    /// malformed values.
    pub fn from_env() -> Config {
        let mut cfg = Config::default();
        if let Ok(filter) = std::env::var("BLOCKDEC_LOG") {
            let _ = cfg.apply_filter(&filter);
        }
        if let Ok(fmt) = std::env::var("BLOCKDEC_LOG_FORMAT") {
            if let Some(f) = LogFormat::parse(&fmt) {
                cfg.format = f;
            }
        }
        cfg
    }

    fn apply_filter(&mut self, filter: &str) -> Result<(), String> {
        for part in filter.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some((target, lvl)) = part.split_once('=') {
                let level = Level::parse(lvl)
                    .ok_or_else(|| format!("bad level {lvl:?} in directive {part:?}"))?;
                self.directives.push(Directive {
                    prefix: target.trim().to_string(),
                    level,
                });
            } else {
                self.default_level = Level::parse(part)
                    .ok_or_else(|| format!("bad level {part:?} (error|warn|info|debug|trace)"))?;
            }
        }
        // Longest prefix first so the most specific directive wins.
        self.directives
            .sort_by_key(|d| std::cmp::Reverse(d.prefix.len()));
        Ok(())
    }

    /// Replace the filter (see [`Config::from_filter`]).
    pub fn filter(mut self, filter: &str) -> Result<Config, String> {
        self.default_level = Level::Info;
        self.directives.clear();
        self.apply_filter(filter)?;
        Ok(self)
    }

    /// Set the output format.
    pub fn format(mut self, format: LogFormat) -> Config {
        self.format = format;
        self
    }

    fn max_level(&self) -> Level {
        self.directives
            .iter()
            .map(|d| d.level)
            .max()
            .map_or(self.default_level, |m| m.max(self.default_level))
    }
}

/// The installed logger. Obtain with [`init`]; query with [`enabled`].
pub struct Logger {
    config: Config,
}

impl Logger {
    fn level_for(&self, target: &str) -> Level {
        for d in &self.config.directives {
            if target.starts_with(d.prefix.as_str()) {
                return d.level;
            }
        }
        self.config.default_level
    }

    /// The configured output format.
    pub fn format(&self) -> LogFormat {
        self.config.format
    }
}

static LOGGER: OnceLock<Logger> = OnceLock::new();
/// 0 = uninitialized (everything disabled). Otherwise the max enabled
/// level across all directives, used as the cheap first-pass filter.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Install the process-wide logger. The first call wins and returns
/// `true`; later calls are ignored and return `false` (handy in tests
/// where many entry points race to initialize).
pub fn init(config: Config) -> bool {
    let max = config.max_level();
    let installed = LOGGER.set(Logger { config }).is_ok();
    if installed {
        MAX_LEVEL.store(max as u8, Ordering::Release);
    }
    installed
}

/// The installed logger, if [`init`] has run.
pub fn logger() -> Option<&'static Logger> {
    if MAX_LEVEL.load(Ordering::Acquire) == 0 {
        return None;
    }
    LOGGER.get()
}

/// Fast filter check: would an event at `level` for `target` be emitted?
#[inline]
pub fn enabled(level: Level, target: &str) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    if (level as u8) > max {
        return false;
    }
    match LOGGER.get() {
        Some(l) => level <= l.level_for(target),
        None => false,
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn span_path() -> Option<String> {
    SPAN_STACK.with(|s| {
        let s = s.borrow();
        if s.is_empty() {
            None
        } else {
            Some(s.join(":"))
        }
    })
}

/// Emit one event. Call sites go through the level macros, which check
/// [`enabled`] first; this does the formatting.
pub fn emit(level: Level, target: &str, fields: &[(&'static str, FieldValue)], message: &str) {
    let Some(logger) = LOGGER.get() else { return };
    let line = render_line(
        logger.config.format,
        &now_rfc3339(),
        level,
        target,
        span_path().as_deref(),
        fields,
        message,
    );
    eprintln!("{line}");
}

/// Render one log line without emitting it (the formatting core of
/// [`emit`], separated so tests can check both formats byte-for-byte).
pub fn render_line(
    format: LogFormat,
    ts: &str,
    level: Level,
    target: &str,
    span: Option<&str>,
    fields: &[(&'static str, FieldValue)],
    message: &str,
) -> String {
    let mut line = String::with_capacity(96);
    match format {
        LogFormat::Compact => {
            line.push_str(ts);
            line.push(' ');
            line.push_str(&format!("{:>5}", level.as_str()));
            line.push(' ');
            line.push_str(target);
            if let Some(spans) = span {
                line.push(' ');
                line.push_str(spans);
            }
            if !fields.is_empty() {
                line.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        line.push(' ');
                    }
                    line.push_str(k);
                    line.push('=');
                    v.write_compact(&mut line);
                }
                line.push('}');
            }
            line.push(' ');
            line.push_str(message);
        }
        LogFormat::Json => {
            line.push_str("{\"ts\":");
            write_json_string(&mut line, ts);
            line.push_str(",\"level\":");
            write_json_string(&mut line, &level.as_str().to_ascii_lowercase());
            line.push_str(",\"target\":");
            write_json_string(&mut line, target);
            if let Some(spans) = span {
                line.push_str(",\"span\":");
                write_json_string(&mut line, spans);
            }
            line.push_str(",\"fields\":{");
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                write_json_string(&mut line, k);
                line.push(':');
                v.write_json(&mut line);
            }
            line.push_str("},\"message\":");
            write_json_string(&mut line, message);
            line.push('}');
        }
    }
    line
}

/// A timed region: one guard that records its wall seconds into the
/// histogram named after it and, when `debug` is enabled for its target,
/// logs `<name> start`, nests later events on this thread under its
/// name, and logs `close` with `elapsed_ms`. It closes when dropped or
/// [`Span::stop`]ped. Create with the [`crate::span!`] macro.
///
/// ```
/// let s = blockdec_obs::span!("stage.example", items = 3u64);
/// // ... work ...
/// let secs = s.stop(); // or just drop it
/// assert_eq!(blockdec_obs::histogram("stage.example").snapshot().sum, secs);
/// ```
pub struct Span {
    /// `None` once closed.
    hist: Option<Arc<Histogram>>,
    target: &'static str,
    logged: bool,
    start: Instant,
}

impl Span {
    /// Enter a span. `fields` is called only when `debug` is enabled for
    /// `target`; otherwise nothing is logged and no span path is pushed.
    pub fn enter(
        target: &'static str,
        name: &str,
        fields: &dyn Fn() -> Vec<(&'static str, FieldValue)>,
    ) -> Span {
        let logged = enabled(Level::Debug, target);
        if logged {
            emit(Level::Debug, target, &fields(), &format!("{name} start"));
            SPAN_STACK.with(|s| s.borrow_mut().push(name.to_string()));
        }
        Span {
            hist: Some(histogram(name)),
            target,
            logged,
            start: Instant::now(),
        }
    }

    /// Close now and return the seconds recorded.
    pub fn stop(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let Some(hist) = self.hist.take() else {
            return 0.0;
        };
        let secs = self.start.elapsed().as_secs_f64();
        hist.record(secs);
        if self.logged {
            emit(
                Level::Debug,
                self.target,
                &[("elapsed_ms", FieldValue::F64(secs * 1e3))],
                "close",
            );
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
        secs
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Emit an event at an explicit level. Fields (`key = value`, comma
/// separated) come before the message, separated by `;`:
/// `event!(Level::Info, blocks = n; "loaded")`.
#[macro_export]
macro_rules! event {
    ($lvl:expr, $($key:ident = $value:expr),+ ; $($arg:tt)+) => {
        if $crate::log::enabled($lvl, module_path!()) {
            $crate::log::emit(
                $lvl,
                module_path!(),
                &[$((stringify!($key), $crate::log::FieldValue::from($value))),+],
                &format!($($arg)+),
            );
        }
    };
    ($lvl:expr, $($arg:tt)+) => {
        if $crate::log::enabled($lvl, module_path!()) {
            $crate::log::emit($lvl, module_path!(), &[], &format!($($arg)+));
        }
    };
}

/// [`event!`] at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($t:tt)+) => { $crate::event!($crate::log::Level::Error, $($t)+) };
}

/// [`event!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($t:tt)+) => { $crate::event!($crate::log::Level::Warn, $($t)+) };
}

/// [`event!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($t:tt)+) => { $crate::event!($crate::log::Level::Info, $($t)+) };
}

/// [`event!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($t:tt)+) => { $crate::event!($crate::log::Level::Debug, $($t)+) };
}

/// [`event!`] at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($t:tt)+) => { $crate::event!($crate::log::Level::Trace, $($t)+) };
}

/// Enter a [`Span`]: `let _s = span!("stage.scan", segments = n);`.
/// Bind the guard; the span closes, and records its histogram sample,
/// when the guard drops. Field values are evaluated only when the span
/// logs.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::log::Span::enter(module_path!(), $name, &|| {
            vec![$((stringify!($key), $crate::log::FieldValue::from($value))),*]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn filter_directives_pick_most_specific() {
        let cfg =
            Config::from_filter("warn,blockdec_store=trace,blockdec_store::cache=error").unwrap();
        let logger = Logger { config: cfg };
        assert_eq!(logger.level_for("blockdec_core::engine"), Level::Warn);
        assert_eq!(logger.level_for("blockdec_store::segment"), Level::Trace);
        assert_eq!(logger.level_for("blockdec_store::cache"), Level::Error);
    }

    #[test]
    fn bad_filter_is_an_error() {
        assert!(Config::from_filter("blockdec=loud").is_err());
        assert!(Config::from_filter("shout").is_err());
    }

    #[test]
    fn format_parse() {
        assert_eq!(LogFormat::parse("json"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse("Compact"), Some(LogFormat::Compact));
        assert_eq!(LogFormat::parse("xml"), None);
    }

    #[test]
    fn field_value_compact_and_json() {
        let mut s = String::new();
        FieldValue::from(3u64).write_compact(&mut s);
        s.push(' ');
        FieldValue::from(true).write_compact(&mut s);
        s.push(' ');
        FieldValue::from("a b").write_compact(&mut s);
        assert_eq!(s, "3 true \"a b\"");

        let mut j = String::new();
        FieldValue::from(f64::NAN).write_json(&mut j);
        j.push(' ');
        FieldValue::from("x\"y\n").write_json(&mut j);
        assert_eq!(j, "null \"x\\\"y\\n\"");
    }

    #[test]
    fn uninitialized_is_disabled() {
        // This test binary never calls init(), so everything is off.
        assert!(!enabled(Level::Error, "anything"));
        assert!(logger().is_none());
    }

    #[test]
    fn stop_returns_the_seconds_it_recorded() {
        let s = crate::span!("test.span.stop");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = s.stop();
        assert!(secs >= 0.002, "{secs}");
        let snap = histogram("test.span.stop").snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, secs);
    }

    #[test]
    fn a_closed_span_records_nothing_more_when_dropped() {
        let mut s = crate::span!("test.span.closed");
        let secs = s.close();
        drop(s);
        let snap = histogram("test.span.closed").snapshot();
        assert_eq!((snap.count, snap.sum), (1, secs));
        {
            let _s = crate::span!("test.span.closed");
        }
        assert_eq!(histogram("test.span.closed").snapshot().count, 2);
    }

    #[test]
    fn with_logging_off_no_span_path_is_pushed() {
        let evaluated = std::cell::Cell::new(false);
        let _outer = crate::span!(
            "test.span.quiet",
            n = {
                evaluated.set(true);
                1u64
            }
        );
        let inner = crate::span!("test.span.quiet.inner");
        assert_eq!(span_path(), None);
        assert!(!evaluated.get(), "fields are built only for a logged span");
        inner.stop();
        assert_eq!(span_path(), None);
    }
}

//! # blockdec-obs
//!
//! Observability for the blockdec pipeline: structured logging with
//! spans, a process-wide metrics registry (counters + histograms), wall
//! time helpers, and an end-of-run summary.
//!
//! The crate is dependency-free and cheap when disabled: every log macro
//! first checks a single atomic, so uninstrumented-feeling hot paths stay
//! hot. There is no external collector — output goes to stderr in either
//! a human `compact` format or machine-parseable JSON lines, and metrics
//! live in-process until [`summary::RunSummary::collect`] reads them.
//!
//! ## One-call initialization
//!
//! ```
//! use blockdec_obs::log::{Config, Level, LogFormat};
//!
//! // Respects BLOCKDEC_LOG / BLOCKDEC_LOG_FORMAT, like an env-filter.
//! blockdec_obs::log::init(Config::from_env());
//! blockdec_obs::info!(blocks = 42u64; "pipeline ready");
//! ```
//!
//! ## Events, spans, and timers
//!
//! Fields come before the message, separated by `;`:
//!
//! ```
//! # blockdec_obs::log::init(blockdec_obs::log::Config::from_env());
//! blockdec_obs::debug!(file = "seg-00000001.bds", cache_hit = false; "cache miss");
//! let _t = blockdec_obs::span_timed!("stage.measure", metric = "gini");
//! // ... work ... the span closes (and its histogram records) on drop.
//! ```
//!
//! ## Metric names
//!
//! Stage histograms are named `stage.*` and render as the per-stage wall
//! time table in the run summary; counters use dotted paths like
//! `store.backend.hit`. The full inventory lives in `docs/OBSERVABILITY.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod summary;
mod timefmt;
pub mod timer;

pub use log::{Config, Level, LogFormat};
pub use metrics::{counter, histogram, Counter, Histogram, HistogramSnapshot};
pub use summary::RunSummary;
pub use timer::Timer;

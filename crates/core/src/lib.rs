//! # blockdec-core
//!
//! The paper's contribution: decentralization *metrics* (Gini coefficient,
//! Shannon entropy, Nakamoto coefficient, plus extension metrics) and the
//! *window engines* that apply them over a year of blocks with day/week/
//! month granularities — both fixed calendar windows (§II-C) and
//! overlapping sliding windows (§III).
//!
//! The pipeline is: attributed blocks → per-window producer distribution →
//! metric value → [`series::MeasurementSeries`].
//!
//! One windowed-evaluation core forms every window spec and slides the
//! distribution from window to window. Three entry points drive it: the
//! [`engine`] for one configuration, the matrix [`planner`] for many
//! (it deduplicates shared window specs and evaluates every metric of a
//! window from one sorted scratch buffer; [`engine::run_matrix`] is its
//! compatibility entry point), and the push-driven [`delta`] streams for
//! a live head.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod distribution;
pub mod engine;
pub mod metrics;
pub mod planner;
pub mod series;
mod window;
pub mod windows;

pub use delta::{DeltaError, MetricDeltaStream};
pub use distribution::ProducerDistribution;
pub use engine::MeasurementEngine;
pub use metrics::MetricKind;
pub use planner::MatrixPlan;
pub use series::{MeasurementPoint, MeasurementSeries};

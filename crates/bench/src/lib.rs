//! # blockdec-bench
//!
//! The experiment harness that regenerates every figure and quoted
//! statistic of the paper (see DESIGN.md's experiment index), plus the
//! performance benches behind the committed `BENCH_*.json` files.
//!
//! * `cargo run --release -p blockdec-bench --bin experiments` — run all
//!   experiments, writing per-figure CSV series and a summary markdown.
//!   Each chain-year goes through a scratch store first
//!   ([`StoredDataset`]), so the figures measure what `blockdec load`
//!   writes and `blockdec measure` reads.
//!   `--bench-json FILE` adds the [`perf`] benches: each returns one
//!   [`Row`] per dataset, written to the JSON, printed as a summary line,
//!   and checked against `--baseline ci/bench-baseline.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod perf;

pub use datasets::{Dataset, StoredDataset};
pub use experiments::{run_experiment, ExperimentResult, ALL_EXPERIMENTS};
pub use perf::{naive_matrix, run_columnar_bench, run_matrix_bench, write_bench_json, Field, Row};

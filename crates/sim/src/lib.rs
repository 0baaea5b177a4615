//! # blockdec-sim
//!
//! Calibrated proof-of-work block-stream simulator: the repository's
//! substitute for the paper's Google BigQuery data collection (§II-A).
//!
//! A [`scenario::Scenario`] describes a miner population (named pools with
//! drifting, scheduled hashrate shares plus a Pareto long tail of solo
//! miners), block arrival dynamics (exponential inter-arrival driven by a
//! difficulty/hashrate feedback loop with the chain's real retarget rule),
//! and injected events (the day-14 multi-coinbase anomaly blocks, the
//! day-60 dominant-miner burst). Generation is fully deterministic per
//! seed.
//!
//! The presets [`scenario::Scenario::bitcoin_2019`] and
//! [`scenario::Scenario::ethereum_2019`] are calibrated so that the
//! decentralization measurements downstream reproduce the *shape* of every
//! figure in the paper (see DESIGN.md and EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod difficulty;
pub mod events;
pub mod feed;
pub mod generator;
pub mod hashrate;
pub mod population;
pub mod rng;
pub mod scenario;

pub use feed::{ChainFeed, FeedConfig, FeedStats};
pub use generator::{BlockGenerator, GeneratedColumns, GeneratedStream};
pub use scenario::Scenario;

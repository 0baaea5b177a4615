//! # blockdec-chain
//!
//! Chain data model shared by every other `blockdec` crate: block and
//! producer types, chain parameters for Bitcoin and Ethereum, calendar/time
//! arithmetic for window assignment, the one timestamp parser for export,
//! CSV and query text, and miner attribution (coinbase tag matching and
//! payout-address fallback).
//!
//! The types here mirror exactly the information the ICDE 2021 paper
//! extracts from the Google BigQuery public crypto datasets: for every
//! block, its height, timestamp, and the identity (or identities) of the
//! producer credited with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod attribution;
pub mod block;
pub mod columns;
pub mod error;
pub mod hash;
pub mod params;
pub mod pooltags;
pub mod producer;
pub mod time;
pub mod validate;

pub use address::Address;
pub use attribution::{AttributedBlock, AttributionMode, Attributor, Credit};
pub use block::{Block, BlockBuilder, CoinbaseInfo};
pub use columns::{BlockColumns, ColumnsSlice};
pub use error::ChainError;
pub use hash::BlockHash;
pub use params::{ChainKind, ChainSpec};
pub use producer::{ProducerId, ProducerRegistry};
pub use time::{CivilDate, Granularity, Timestamp};

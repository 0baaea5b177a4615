//! # blockdec-ingest
//!
//! Import/export for block data, so the measurement pipeline can run on
//! *real* chain data as well as simulated streams:
//!
//! * [`csv`] — a dependency-free RFC 4180 CSV reader/writer plus the
//!   repository's canonical block CSV schema;
//! * [`jsonl`] — JSON-lines serialization of blocks;
//! * [`bigquery`] — parsers for the Google BigQuery public crypto
//!   dataset export schemas (`crypto_bitcoin.blocks`,
//!   `crypto_ethereum.blocks`), the exact source the paper collected
//!   from (§II-A), whose timestamps, like the CSV ones, go through
//!   [`blockdec_chain::time::parse_timestamp`];
//! * [`chain_view`] — reorg-aware head-following ingestion: a
//!   [`chain_view::ChainView`] tracks a live chain with a finalized
//!   region in the store and a rollback-able pending tail in memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigquery;
pub mod chain_view;
pub mod csv;
pub mod error;
pub mod jsonl;

pub use chain_view::{ChainView, HeadUpdate, ReorgStats};
pub use error::IngestError;

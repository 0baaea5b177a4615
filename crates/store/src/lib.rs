//! # blockdec-store
//!
//! Embedded append-only columnar block store — the repository's stand-in
//! for the hosted warehouse (Google BigQuery) the paper queried.
//!
//! Data model: one *attribution row* per block credit
//! ([`row::RowRecord`]): `(height, timestamp, producer, credit,
//! tx_count, size_bytes, difficulty)`. An ordinary block is a single row;
//! a day-14-style multi-coinbase block explodes into one row per payout
//! address — exactly the shape a `GROUP BY producer` wants.
//!
//! On disk a store directory holds:
//!
//! * numbered segment files (`seg-00000042.bds`) of up to 64Ki rows, each
//!   column encoded (delta/zigzag + varint) into CRC32-checksummed pages;
//! * `dictionary.json` — the producer-name dictionary (id = index);
//! * `manifest.json` — the segment catalog with per-segment zone maps
//!   (min/max height and timestamp), committed atomically via
//!   write-to-temp + rename.
//!
//! Every read — row scans ([`store::BlockStore::scan`] and its
//! visitor/attributed forms) and columnar scans
//! ([`store::BlockStore::scan_columnar`]) — runs one scan loop: segments
//! are pruned by manifest zone map and producer bloom before any byte is
//! read, and each surviving segment gets a pruned decode of only the
//! page groups that may match, fetched through one byte-range
//! [`backend::PageCache`].
//!
//! Durability: every artifact is committed via [`atomic`] (write-temp +
//! fsync + atomic rename), segment files carry a finalization footer so
//! torn writes are detectable, [`doctor::StoreDoctor`] classifies and
//! repairs on-disk faults (quarantining rather than deleting), and
//! [`fault::FaultInjector`] reproduces each fault class deterministically
//! for tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod backend;
pub mod bloom;
pub mod bufio;
pub mod catalog;
pub mod checksum;
pub mod compactor;
pub mod dictionary;
pub mod doctor;
pub mod encoding;
pub mod error;
pub mod fault;
pub(crate) mod lebytes;
pub mod page;
pub mod row;
pub mod segment;
pub mod selftest;
pub mod store;
pub mod zonemap;

pub use backend::{LocalFs, ObjectStore, PageCache, PageCacheStats, SimBackend, SimProfile};
pub use bloom::ProducerFilter;
pub use compactor::CompactionPolicy;
pub use doctor::{Fault, FaultKind, FsckReport, RepairOutcome, StoreDoctor};
pub use error::StoreError;
pub use fault::FaultInjector;
pub use row::RowRecord;
pub use segment::SegmentDecoder;
pub use store::{BlockStore, ScanOptions, ScanPredicate, ScanStats};

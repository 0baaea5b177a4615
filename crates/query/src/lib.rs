//! # blockdec-query
//!
//! Query layer over [`blockdec_store`]: predicate expressions with
//! pushdown, group-by-producer aggregation (the paper's core query —
//! "blocks per producer in a window"), top-k share summaries behind the
//! Fig. 7 pie charts, and a small logical plan / executor used by the
//! CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod expr;
pub mod parse;
pub mod plan;
pub mod stream;

pub use aggregate::{producer_block_counts, top_producers, ProducerAgg};
pub use expr::Filter;
pub use parse::parse_query;
pub use plan::{Plan, QueryOutput};
pub use stream::MeasurementSource;

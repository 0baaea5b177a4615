//! Window specs over block streams.
//!
//! * Calendar fixed windows (§II-C) are
//!   [`crate::engine::WindowSpec::FixedCalendar`]: non-overlapping
//!   buckets of a day, a week, or a month, assigned by each block's
//!   timestamp.
//! * [`sliding`] — block-count sliding windows (§III-A): windows of N
//!   blocks advancing M blocks at a time, so consecutive windows share
//!   N − M blocks and cross-interval changes stay visible.
//! * [`sliding_time`] — time-based sliding windows (extension): a fixed
//!   calendar duration advancing by a fixed step, the dual of the
//!   paper's block-count windows.
//!
//! Every spec is formed into windows, and evaluated, by the crate's one
//! windowed-evaluation core.

pub mod sliding;
pub mod sliding_time;

pub use sliding::{SlidingWindowIter, SlidingWindowSpec};
pub use sliding_time::TimeWindowSpec;

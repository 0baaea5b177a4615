//! Per-segment zone maps: min/max height and timestamp.
//!
//! Scans prune whole segments against these before opening the file —
//! the same trick analytical stores use to make time-range queries cheap
//! on append-only data.

use serde::{Deserialize, Serialize};

/// Min/max statistics of one segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZoneMap {
    /// Smallest height in the segment.
    pub min_height: u64,
    /// Largest height.
    pub max_height: u64,
    /// Smallest timestamp.
    pub min_time: i64,
    /// Largest timestamp.
    pub max_time: i64,
    /// Row count.
    pub rows: u64,
}

impl ZoneMap {
    /// Could any row fall inside `[lo, hi]` (inclusive) by height?
    pub fn overlaps_heights(&self, lo: u64, hi: u64) -> bool {
        lo <= self.max_height && hi >= self.min_height
    }

    /// Could any row fall inside `[lo, hi]` (inclusive) by timestamp?
    pub fn overlaps_times(&self, lo: i64, hi: i64) -> bool {
        lo <= self.max_time && hi >= self.min_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone(heights: (u64, u64), times: (i64, i64)) -> ZoneMap {
        ZoneMap {
            min_height: heights.0,
            max_height: heights.1,
            min_time: times.0,
            max_time: times.1,
            rows: 2,
        }
    }

    #[test]
    fn height_overlap() {
        let z = zone((100, 200), (0, 0));
        assert!(z.overlaps_heights(150, 160));
        assert!(z.overlaps_heights(0, 100));
        assert!(z.overlaps_heights(200, 500));
        assert!(!z.overlaps_heights(0, 99));
        assert!(!z.overlaps_heights(201, 500));
    }

    #[test]
    fn time_overlap() {
        let z = zone((0, 0), (-50, 50));
        assert!(z.overlaps_times(-100, -50));
        assert!(z.overlaps_times(0, 0));
        assert!(!z.overlaps_times(51, 100));
        assert!(!z.overlaps_times(i64::MIN, -51));
    }

    #[test]
    fn serde_roundtrip() {
        let z = zone((5, 5), (7, 7));
        let json = serde_json::to_string(&z).unwrap();
        assert_eq!(serde_json::from_str::<ZoneMap>(&json).unwrap(), z);
    }
}

//! The segment catalog: `manifest.json`.
//!
//! The manifest is the store's commit point. Appends first write new
//! segment files, then atomically replace the manifest; a crash before
//! the rename leaves the previous consistent state visible. Loading
//! validates that every referenced segment exists and that height ranges
//! are ordered and non-overlapping.
//!
//! All persistence goes through the
//! [`ObjectStore`] trait, so the same
//! commit discipline holds on any backend.

use crate::backend::{get_retry, ObjectStore};
use crate::bloom::ProducerFilter;
use crate::error::{Result, StoreError};
use crate::zonemap::ZoneMap;
use serde::{Deserialize, Serialize};

/// Object name of the manifest under the store root.
pub const MANIFEST_NAME: &str = "manifest.json";

/// Metadata of one sealed segment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// File name relative to the store directory.
    pub file: String,
    /// Zone map of the segment.
    pub zone: ZoneMap,
    /// Whole-file footer CRC of the segment — its content identity.
    /// Two manifest entries with the same `file` but different bytes
    /// (e.g. across a compaction that recycles nothing but could in
    /// principle reuse a name) always differ here.
    pub crc: u32,
    /// Mirror of the segment's producer bloom filter, so a
    /// producer-filtered scan can skip the segment without opening it.
    pub producers: ProducerFilter,
}

impl SegmentMeta {
    /// Page-cache key: file name **plus** content CRC, so a rewritten
    /// segment can never be served from a stale cache entry keyed by
    /// the bare file name.
    pub fn cache_key(&self) -> String {
        format!("{}@{:08x}", self.file, self.crc)
    }
}

/// The store manifest.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version.
    pub version: u16,
    /// Sealed segments in height order.
    pub segments: Vec<SegmentMeta>,
    /// Monotonic counter used to name the next segment file.
    pub next_segment_id: u64,
}

impl Manifest {
    /// A fresh, empty manifest.
    pub fn new() -> Manifest {
        Manifest {
            version: 1,
            segments: Vec::new(),
            next_segment_id: 0,
        }
    }

    /// Total rows across sealed segments.
    pub fn total_rows(&self) -> u64 {
        self.segments.iter().map(|s| s.zone.rows).sum()
    }

    /// Validate internal ordering invariants and that every segment file
    /// exists in `store`.
    pub fn validate(&self, store: &dyn ObjectStore) -> Result<()> {
        if self.version != 1 {
            return Err(StoreError::BadFormat {
                what: "manifest".into(),
                detail: format!("unsupported version {}", self.version),
            });
        }
        for pair in self.segments.windows(2) {
            if pair[1].zone.min_height < pair[0].zone.max_height {
                return Err(StoreError::InconsistentCatalog(format!(
                    "segments {} and {} overlap by height",
                    pair[0].file, pair[1].file
                )));
            }
        }
        for seg in &self.segments {
            if !store.exists(&seg.file) {
                return Err(StoreError::InconsistentCatalog(format!(
                    "segment file missing: {}",
                    seg.file
                )));
            }
        }
        Ok(())
    }

    /// Save crash-safely as `manifest.json`
    /// (for [`crate::backend::LocalFs`]: write-temp + fsync + atomic
    /// rename + directory fsync).
    pub fn save(&self, store: &dyn ObjectStore) -> Result<()> {
        let json = serde_json::to_vec_pretty(self).expect("manifest serializes"); // blockdec-lint: allow(panic) — serializing a plain data struct cannot fail
        store.put_atomic(MANIFEST_NAME, &json)
    }

    /// Load and validate `manifest.json` from `store`.
    pub fn load(store: &dyn ObjectStore) -> Result<Manifest> {
        let manifest = Manifest::load_lenient(store)?;
        manifest.validate(store)?;
        Ok(manifest)
    }

    /// Parse `manifest.json` *without* validating it against the
    /// on-disk segment files — the repair path needs to read a drifted
    /// manifest that strict [`Manifest::load`] would reject.
    pub fn load_lenient(store: &dyn ObjectStore) -> Result<Manifest> {
        let bytes = get_retry(store, MANIFEST_NAME)?;
        serde_json::from_slice(&bytes).map_err(|e| StoreError::BadFormat {
            what: store.describe(MANIFEST_NAME),
            detail: e.to_string(),
        })
    }
}

/// Conventional segment file name for an id.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08}.bds")
}

/// Parse the id out of a conventional segment file name; `None` for
/// anything that is not a `seg-NNNNNNNN.bds` name.
pub fn parse_segment_id(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".bds")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LocalFs;
    use std::fs;

    fn zone(min_h: u64, max_h: u64) -> ZoneMap {
        ZoneMap {
            min_height: min_h,
            max_height: max_h,
            min_time: 0,
            max_time: 1,
            rows: max_h - min_h + 1,
        }
    }

    fn meta(file: &str, zone: ZoneMap) -> SegmentMeta {
        SegmentMeta {
            file: file.into(),
            zone,
            crc: 0,
            producers: ProducerFilter::from_producers(&[0]),
        }
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, LocalFs) {
        let d = std::env::temp_dir().join(format!("blockdec-cat-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        let store = LocalFs::new(&d);
        (d, store)
    }

    #[test]
    fn save_load_roundtrip() {
        let (dir, store) = tmp_store("rt");
        let mut m = Manifest::new();
        fs::write(dir.join("seg-00000000.bds"), b"x").unwrap();
        m.segments.push(meta("seg-00000000.bds", zone(100, 200)));
        m.next_segment_id = 1;
        m.save(&store).unwrap();
        let back = Manifest::load(&store).unwrap();
        assert_eq!(back, m);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_file_fails_validation() {
        let (dir, store) = tmp_store("missing");
        let mut m = Manifest::new();
        m.segments.push(meta("seg-00000000.bds", zone(1, 2)));
        m.save(&store).unwrap();
        let err = Manifest::load(&store).unwrap_err();
        assert!(matches!(err, StoreError::InconsistentCatalog(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapping_segments_fail_validation() {
        let (dir, store) = tmp_store("overlap");
        fs::write(dir.join("a.bds"), b"x").unwrap();
        fs::write(dir.join("b.bds"), b"x").unwrap();
        let mut m = Manifest::new();
        m.segments.push(meta("a.bds", zone(100, 200)));
        m.segments.push(meta("b.bds", zone(150, 300)));
        assert!(matches!(
            m.validate(&store),
            Err(StoreError::InconsistentCatalog(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_boundary_height_is_allowed() {
        // A multi-credit block can straddle a segment boundary: the next
        // segment may start at the previous one's max height.
        let (dir, store) = tmp_store("boundary");
        fs::write(dir.join("a.bds"), b"x").unwrap();
        fs::write(dir.join("b.bds"), b"x").unwrap();
        let mut m = Manifest::new();
        m.segments.push(meta("a.bds", zone(100, 200)));
        m.segments.push(meta("b.bds", zone(200, 300)));
        assert!(m.validate(&store).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tmp_write_does_not_affect_recovery() {
        // A crash between writing manifest.json.tmp and the rename must
        // leave the previous committed manifest untouched.
        let (dir, store) = tmp_store("torn");
        let mut m = Manifest::new();
        fs::write(dir.join("a.bds"), b"x").unwrap();
        m.segments.push(meta("a.bds", zone(1, 10)));
        m.save(&store).unwrap();
        // Simulate the torn write of a newer manifest.
        fs::write(dir.join("manifest.json.tmp"), b"{ half written garbag").unwrap();
        let recovered = Manifest::load(&store).unwrap();
        assert_eq!(recovered, m);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_bad_format() {
        let (dir, store) = tmp_store("corrupt");
        fs::write(dir.join("manifest.json"), b"{{{").unwrap();
        assert!(matches!(
            Manifest::load(&store).unwrap_err(),
            StoreError::BadFormat { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_names_are_sortable() {
        assert_eq!(segment_file_name(0), "seg-00000000.bds");
        assert_eq!(segment_file_name(42), "seg-00000042.bds");
        assert!(segment_file_name(9) < segment_file_name(10));
    }

    #[test]
    fn file_names_parse_back() {
        for id in [0u64, 7, 42, 99_999_999] {
            assert_eq!(parse_segment_id(&segment_file_name(id)), Some(id));
        }
        for bad in [
            "seg-0000002a.bds",
            "seg-1.bds",
            "seg-000000001.bds",
            "manifest.json",
            "seg-00000001.bds.tmp",
        ] {
            assert_eq!(parse_segment_id(bad), None, "{bad}");
        }
    }

    #[test]
    fn save_crash_between_write_and_rename_is_recoverable() {
        // Regression for the crash-mid-save fault class: an injected
        // crash after the temp write must leave the previous committed
        // manifest loadable, with only a torn temp file behind.
        let (dir, store) = tmp_store("crash-save");
        let mut m = Manifest::new();
        fs::write(dir.join("a.bds"), b"x").unwrap();
        m.segments.push(meta("a.bds", zone(1, 10)));
        m.save(&store).unwrap();

        let mut newer = m.clone();
        newer.next_segment_id = 99;
        crate::backend::local::arm_crash_before_rename(1);
        let err = newer.save(&store).unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(dir.join("manifest.json.tmp").exists());
        assert_eq!(Manifest::load(&store).unwrap(), m);

        // The sweep (what BlockStore::open does) quarantines the torn
        // artifact and the next save goes through.
        assert_eq!(store.sweep_temps().unwrap(), 1);
        assert!(!dir.join("manifest.json.tmp").exists());
        newer.save(&store).unwrap();
        assert_eq!(Manifest::load(&store).unwrap().next_segment_id, 99);
        fs::remove_dir_all(&dir).unwrap();
    }
}

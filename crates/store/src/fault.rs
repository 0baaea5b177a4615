//! Seeded, deterministic fault injection for durability tests.
//!
//! [`FaultInjector`] mutates a store directory into each fault class
//! that [`crate::StoreDoctor`] knows how to classify. Every mutation is
//! driven by a splitmix64 stream seeded at construction, so a failing
//! inject → detect → repair → verify round-trip is reproducible from
//! its seed alone. The injector is test/tooling support: it lives in
//! the library (not `#[cfg(test)]`) so integration tests and the
//! `blockdec fsck --self-test` harness can share it, but nothing in the
//! read or write paths depends on it. A fixture a method cannot apply
//! to (a segment too short to hold what it corrupts, a file the
//! manifest does not list) is a [`StoreError`], never a panic.

use crate::backend::local;
use crate::catalog::Manifest;
use crate::error::{Result, StoreError};
use crate::segment::{index_bounds, refit_footer, refit_index_crc, FOOTER_LEN};
use blockdec_chain::hash::splitmix64;
use std::fs;
use std::path::{Path, PathBuf};

/// Fixed-offset byte inside the first page's header (the codec id): the
/// segment header is `MAGIC(4) | version(2) | row_count(4)`.
const FIRST_PAGE_CODEC_OFFSET: usize = 10;
/// A codec id no codec will ever claim.
const BOGUS_CODEC_ID: u8 = 0x77;

/// Deterministic store corruptor; see the module docs.
pub struct FaultInjector {
    state: u64,
    dir: PathBuf,
}

impl FaultInjector {
    /// An injector for the store at `dir`, deterministic in `seed`.
    pub fn new(dir: impl AsRef<Path>, seed: u64) -> FaultInjector {
        FaultInjector {
            // Avoid the all-zero stream for seed 0.
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
            dir: dir.as_ref().to_path_buf(),
        }
    }

    /// Next value of the splitmix64 stream.
    fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    fn seg_path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// The bytes of segment `file`, which must be longer than `min_len`.
    fn read_seg(&self, file: &str, min_len: usize) -> Result<Vec<u8>> {
        let path = self.seg_path(file);
        let bytes = fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
        longer_than(bytes, file, min_len)
    }

    fn write_seg(&self, file: &str, bytes: &[u8]) -> Result<()> {
        let path = self.seg_path(file);
        fs::write(&path, bytes).map_err(|e| StoreError::io(&path, e))
    }

    /// Flip one random bit in the segment's body (header or pages,
    /// never the footer), leaving the footer claiming the old CRC —
    /// classified as bit rot.
    pub fn flip_bit(&mut self, file: &str) -> Result<()> {
        let mut bytes = self.read_seg(file, FOOTER_LEN)?;
        let body_len = (bytes.len() - FOOTER_LEN) as u64;
        let at = self.next_below(body_len) as usize;
        let bit = self.next_below(8) as u32;
        bytes[at] ^= 1 << bit;
        self.write_seg(file, &bytes)
    }

    /// Cut the segment short at a random point — a torn write. Always
    /// keeps at least one byte and always drops at least the footer.
    pub fn truncate(&mut self, file: &str) -> Result<()> {
        let mut bytes = self.read_seg(file, FOOTER_LEN)?;
        let max_keep = (bytes.len() - FOOTER_LEN) as u64;
        let keep = 1 + self.next_below(max_keep) as usize;
        bytes.truncate(keep);
        self.write_seg(file, &bytes)
    }

    /// Overwrite the first page's codec id with a bogus value, then
    /// refit the footer so the file still looks finalized — a buggy
    /// writer rather than bit rot.
    pub fn corrupt_page_header(&mut self, file: &str) -> Result<()> {
        let mut bytes = self.read_seg(file, FIRST_PAGE_CODEC_OFFSET + FOOTER_LEN)?;
        bytes[FIRST_PAGE_CODEC_OFFSET] = BOGUS_CODEC_ID;
        refit_footer(&mut bytes);
        self.write_seg(file, &bytes)
    }

    /// Delete a segment file the manifest still references.
    pub fn delete_segment(&mut self, file: &str) -> Result<()> {
        let path = self.seg_path(file);
        fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))
    }

    /// Copy an existing segment to an unreferenced `seg-*.bds` name —
    /// an orphan, as left behind by a crash between segment write and
    /// manifest commit.
    pub fn orphan_copy(&mut self, file: &str, as_id: u64) -> Result<String> {
        let name = crate::catalog::segment_file_name(as_id);
        let to = self.seg_path(&name);
        fs::copy(self.seg_path(file), &to).map_err(|e| StoreError::io(&to, e))?;
        Ok(name)
    }

    /// Remove `manifest.json` entirely.
    pub fn drop_manifest(&mut self) -> Result<()> {
        let path = self.dir.join("manifest.json");
        fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))
    }

    /// Remove `dictionary.json` entirely.
    pub fn drop_dictionary(&mut self) -> Result<()> {
        let path = self.dir.join("dictionary.json");
        fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))
    }

    /// Flip one random bit in `dictionary.json` so its CRC (or JSON
    /// framing) no longer holds.
    pub fn corrupt_dictionary(&mut self) -> Result<()> {
        let path = self.dir.join("dictionary.json");
        let bytes = fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
        let mut bytes = longer_than(bytes, "dictionary.json", 0)?;
        let at = self.next_below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 << self.next_below(8);
        fs::write(&path, bytes).map_err(|e| StoreError::io(&path, e))
    }

    /// Flip one random bit inside the segment's index block (page-group
    /// zone maps + producer bloom filter), then refit the footer so the
    /// whole-file CRC still holds. The index's own CRC now disagrees,
    /// so any decode fails with [`StoreError::CorruptIndex`] while
    /// every page stays intact — the salvageable index-corruption
    /// class. A segment whose trailer frames no index body (one cut
    /// below its trailer, say) is a [`StoreError::CorruptIndex`].
    pub fn corrupt_index(&mut self, file: &str) -> Result<()> {
        let mut bytes = self.read_seg(file, 0)?;
        let (start, end) = index_block(&bytes, file, 1)?;
        let at = start + self.next_below((end - 4 - start) as u64) as usize;
        bytes[at] ^= 1 << self.next_below(8);
        refit_footer(&mut bytes);
        self.write_seg(file, &bytes)
    }

    /// Widen the first page group's zone entry behind a *valid* index
    /// CRC (index CRC and footer both refitted): the index parses
    /// cleanly but lies about its rows. Only the rows can expose this:
    /// every decode that reads the group cross-checks its zone, so scans
    /// over it fail and fsck reports `bad-index`. A segment whose trailer
    /// frames no zone entry is a [`StoreError::CorruptIndex`].
    pub fn drift_page_zone(&mut self, file: &str) -> Result<()> {
        let mut bytes = self.read_seg(file, 0)?;
        // Entry 0 starts after `BDIX` + group_count; max_height sits 16
        // bytes in (offset u32, rows u32, min_height u64 precede it).
        let index = index_block(&bytes, file, 8 + 16 + 8)?;
        let field = index.0 + 8 + 16;
        let mut max_h = crate::lebytes::u64_at(&bytes, field);
        max_h += 1 + self.next_below(1000);
        bytes[field..field + 8].copy_from_slice(&max_h.to_le_bytes());
        refit_index_crc(&mut bytes, index);
        refit_footer(&mut bytes);
        self.write_seg(file, &bytes)
    }

    /// Perturb one segment's zone map in the manifest so it no longer
    /// matches the rows on disk — manifest drift. A file the manifest
    /// does not list is a [`StoreError::InconsistentCatalog`].
    pub fn drift_zone(&mut self, file: &str) -> Result<()> {
        let local = crate::backend::LocalFs::new(&self.dir);
        let mut manifest = Manifest::load_lenient(&local)?;
        let Some(seg) = manifest.segments.iter_mut().find(|s| s.file == file) else {
            return Err(StoreError::InconsistentCatalog(format!(
                "{file} not in manifest"
            )));
        };
        seg.zone.max_height += 1 + self.next_below(1000);
        seg.zone.rows += 1;
        manifest.save(&local)
    }

    /// Leave a torn `manifest.json.tmp` behind, as an interrupted
    /// commit would.
    pub fn torn_tmp(&mut self) -> Result<()> {
        let path = local::temp_path(&self.dir.join("manifest.json"));
        let garbage = format!("{{ torn at {}", self.next_u64());
        fs::write(&path, garbage).map_err(|e| StoreError::io(&path, e))
    }

    /// Arm a crash at the `nth` upcoming atomic commit on this thread
    /// (see [`local::arm_crash_before_rename`]). A
    /// [`crate::BlockStore::flush`] of a sealed segment performs three
    /// commits in order — segment file, dictionary, manifest — so
    /// `nth = 3` crashes exactly at the manifest commit point.
    pub fn arm_crash_at_commit(&mut self, nth: u32) {
        local::arm_crash_before_rename(nth);
    }
}

/// The index block of segment `file`, magic through index CRC, as
/// [`index_bounds`] finds it, when the CRC-covered bytes before its
/// 4-byte CRC number at least `min_len`.
fn index_block(bytes: &[u8], file: &str, min_len: usize) -> Result<(usize, usize)> {
    match index_bounds(bytes) {
        Some((start, end)) if end - 4 >= start + min_len => Ok((start, end)),
        _ => Err(StoreError::CorruptIndex {
            what: file.to_string(),
            detail: format!("no parseable index frame of {min_len}+ bytes"),
        }),
    }
}

/// `bytes` of `what`, when there are more than `min_len` of them:
/// fewer leave nothing the injector may corrupt.
fn longer_than(bytes: Vec<u8>, what: &str, min_len: usize) -> Result<Vec<u8>> {
    if bytes.len() > min_len {
        return Ok(bytes);
    }
    Err(StoreError::Corrupt {
        what: what.to_string(),
        detail: format!("{} bytes, too short to corrupt", bytes.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_in_seed() {
        let mut a = FaultInjector::new("/tmp/x", 42);
        let mut b = FaultInjector::new("/tmp/y", 42);
        let mut c = FaultInjector::new("/tmp/x", 43);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        assert!(sa.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn unusable_fixtures_are_errors() {
        let dir = std::env::temp_dir().join(format!(
            "blockdec-fault-unusable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut store = crate::BlockStore::create(&dir).unwrap();
        let producer = store.intern_producer("P");
        let rows: Vec<crate::RowRecord> = (0..100)
            .map(|height| crate::RowRecord {
                height,
                timestamp: height as i64 * 600,
                producer,
                credit_millis: 1000,
                tx_count: 0,
                size_bytes: 0,
                difficulty: 0,
            })
            .collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        let mut inj = FaultInjector::new(&dir, 3);
        let err = inj.drift_zone("seg-99999999.bds").unwrap_err();
        assert!(matches!(err, StoreError::InconsistentCatalog(_)), "{err}");
        // A segment cut below its trailer frames no index and has no
        // body to corrupt.
        let seg = crate::catalog::segment_file_name(0);
        let bytes = inj.read_seg(&seg, 0).unwrap();
        inj.write_seg(&seg, &bytes[..FOOTER_LEN]).unwrap();
        for err in [
            inj.corrupt_index(&seg).unwrap_err(),
            inj.drift_page_zone(&seg).unwrap_err(),
        ] {
            assert!(matches!(err, StoreError::CorruptIndex { .. }), "{err}");
        }
        for err in [
            inj.flip_bit(&seg).unwrap_err(),
            inj.truncate(&seg).unwrap_err(),
            inj.corrupt_page_header(&seg).unwrap_err(),
        ] {
            assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        }
        fs::write(dir.join("dictionary.json"), b"").unwrap();
        let err = inj.corrupt_dictionary().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn next_below_stays_in_range() {
        let mut inj = FaultInjector::new("/tmp/x", 7);
        for bound in [1u64, 2, 3, 17, 1 << 40] {
            for _ in 0..64 {
                assert!(inj.next_below(bound) < bound);
            }
        }
    }
}

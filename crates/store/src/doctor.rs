//! Store fault detection and repair: [`StoreDoctor`].
//!
//! The doctor scans every artifact of a store, classifies each problem
//! into a [`FaultKind`], and — on request — repairs the store into a
//! consistent state: faulty segment files are *quarantined* (moved into
//! `quarantine/`, never deleted, so no byte of data is destroyed),
//! stale temp files are swept into quarantine too, the dictionary is
//! rebuilt or extended when damaged, and a consistent manifest covering
//! exactly the surviving segments is rewritten. After a successful
//! repair, scans over the store return exactly the rows of the surviving
//! segments — metric series over those blocks are bitwise identical to a
//! clean store holding the same subset.
//!
//! All access goes through [`ObjectStore`], so the repair semantics are
//! backend-independent: the same quarantine-never-delete discipline
//! holds on any backend that upholds the trait contract.
//!
//! Surfaced on the command line as `blockdec fsck [--repair]`.

use crate::backend::{get_retry, local, LocalFs, ObjectStore};
use crate::bloom::ProducerFilter;
use crate::catalog::{parse_segment_id, segment_file_name, Manifest, SegmentMeta, MANIFEST_NAME};
use crate::dictionary::{load_dictionary, save_dictionary, DICTIONARY_NAME};
use crate::error::{Result, StoreError};
use crate::lebytes;
use crate::row::RowRecord;
use crate::segment::{
    check_footer, decode_segment, write_segment_file, FooterCheck, SegmentDecoder, FOOTER_LEN,
};
use crate::zonemap::ZoneMap;
use blockdec_chain::ProducerRegistry;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

pub use crate::backend::local::QUARANTINE_DIR;

/// Classified store fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Stale `*.tmp` file from a commit interrupted between the temp
    /// write and the rename (crash-mid-save artifact).
    TornTemp,
    /// Segment file without a valid finalization footer: torn write or
    /// truncation.
    Truncated,
    /// Segment footer intact but the whole-file CRC disagrees: bit rot.
    BitRot,
    /// Segment finalized and CRC-clean but structurally undecodable
    /// (bad magic/version, bad page header, trailing bytes): a buggy or
    /// foreign writer.
    BadPage,
    /// Segment index block (page zone maps + producer bloom filter) is
    /// damaged or lies about the rows behind it, while the pages
    /// themselves may be intact. Repair salvages the rows by decoding
    /// pages sequentially and re-encodes them into a fresh segment —
    /// zero rows lost when every page still checks out.
    BadIndex,
    /// Segment decodes but its rows disagree with the manifest's zone
    /// map (or zone maps overlap between segments): manifest drift.
    ZoneDrift,
    /// The manifest references a segment file that does not exist.
    MissingSegment,
    /// A `seg-*.bds` file on disk that the manifest does not reference
    /// (crash between segment write and manifest commit, or a stray
    /// copy).
    OrphanSegment,
    /// `manifest.json` is missing entirely.
    MissingManifest,
    /// `manifest.json` exists but cannot be parsed.
    BadManifest,
    /// `dictionary.json` is missing.
    MissingDictionary,
    /// `dictionary.json` exists but is corrupt (bad JSON or CRC
    /// mismatch).
    BadDictionary,
    /// Rows reference producer ids beyond the dictionary's length.
    UnknownProducer,
}

impl FaultKind {
    /// Stable kebab-case label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::TornTemp => "torn-temp",
            FaultKind::Truncated => "truncated-segment",
            FaultKind::BitRot => "bit-rot",
            FaultKind::BadPage => "bad-page",
            FaultKind::BadIndex => "bad-index",
            FaultKind::ZoneDrift => "zone-drift",
            FaultKind::MissingSegment => "missing-segment",
            FaultKind::OrphanSegment => "orphan-segment",
            FaultKind::MissingManifest => "missing-manifest",
            FaultKind::BadManifest => "bad-manifest",
            FaultKind::MissingDictionary => "missing-dictionary",
            FaultKind::BadDictionary => "bad-dictionary",
            FaultKind::UnknownProducer => "unknown-producer",
        }
    }
}

/// One classified problem found by [`StoreDoctor::check`].
#[derive(Clone, Debug)]
pub struct Fault {
    /// What kind of fault this is.
    pub kind: FaultKind,
    /// The artifact involved (file name relative to the store
    /// directory).
    pub file: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Outcome of [`StoreDoctor::check`].
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Segment files examined (manifest entries plus orphans).
    pub segments_checked: usize,
    /// Rows decoded across healthy segments.
    pub rows_checked: u64,
    /// Every classified fault, in scan order.
    pub faults: Vec<Fault>,
}

impl FsckReport {
    /// True when no fault was found.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }

    /// True when at least one fault of `kind` was found.
    pub fn has(&self, kind: FaultKind) -> bool {
        self.faults.iter().any(|f| f.kind == kind)
    }

    /// The distinct fault kinds present, in a stable order.
    pub fn kinds(&self) -> Vec<FaultKind> {
        let mut seen = Vec::new();
        for f in &self.faults {
            if !seen.contains(&f.kind) {
                seen.push(f.kind);
            }
        }
        seen
    }
}

/// Outcome of [`StoreDoctor::repair`].
#[derive(Clone, Debug, Default)]
pub struct RepairOutcome {
    /// The pre-repair report the repair acted on.
    pub pre: FsckReport,
    /// Segment file names moved into `quarantine/`.
    pub quarantined: Vec<String>,
    /// Rows lost to quarantine (rows of segments that still decoded
    /// count too — an orphan's rows were never committed, so they are
    /// not counted).
    pub rows_quarantined: u64,
    /// Fresh segment files written from rows salvaged out of
    /// quarantined segments (index-corruption repair): every row of the
    /// originals survives under these names.
    pub rebuilt: Vec<String>,
    /// Stale `*.tmp` files swept out of the data path (into
    /// quarantine — like everything else, they are never deleted).
    pub removed_temps: usize,
    /// True when a new manifest was written.
    pub manifest_rewritten: bool,
    /// True when the dictionary was rebuilt or extended with
    /// `recovered-producer-N` placeholder names.
    pub dictionary_rebuilt: bool,
}

impl RepairOutcome {
    /// True when the repair had nothing to do.
    pub fn is_noop(&self) -> bool {
        self.pre.is_clean()
    }
}

/// Scans a store for faults and repairs it in place.
///
/// Unlike [`crate::BlockStore::open`], the doctor never requires the
/// store to be openable: it works from raw backend state, so it can
/// recover a store whose manifest is gone entirely.
pub struct StoreDoctor {
    store: Arc<dyn ObjectStore>,
}

/// Everything check() learns about one segment file.
enum SegmentHealth {
    /// Decoded rows and the footer CRC that checked out.
    Healthy(Vec<RowRecord>, u32),
    /// The index block is damaged but every page decoded cleanly via
    /// the sequential salvage path: repair can rebuild the segment
    /// without losing a row.
    Recoverable(FaultKind, String, Vec<RowRecord>),
    Faulty(FaultKind, String),
}

fn classify_segment_bytes(bytes: &[u8], what: &str) -> SegmentHealth {
    match check_footer(bytes) {
        FooterCheck::NotFinalized => SegmentHealth::Faulty(
            FaultKind::Truncated,
            "missing finalization footer (torn write or truncation)".into(),
        ),
        FooterCheck::LengthMismatch => SegmentHealth::Faulty(
            FaultKind::Truncated,
            "footer length disagrees with file length".into(),
        ),
        FooterCheck::CrcMismatch => {
            SegmentHealth::Faulty(FaultKind::BitRot, "whole-file crc mismatch".into())
        }
        FooterCheck::Ok => match decode_segment(bytes, what) {
            Ok(rows) => {
                SegmentHealth::Healthy(rows, lebytes::u32_at(bytes, bytes.len() - FOOTER_LEN))
            }
            Err(e) => {
                // Whatever failed, the pages may be intact behind an index
                // that lies (a group offset inside the previous group's
                // pages reads as a truncated page): when the index-free
                // salvage decodes every page, the fault is the index's.
                let mut dec = SegmentDecoder::new();
                match dec.decode_salvage(bytes, what) {
                    Ok(n) => SegmentHealth::Recoverable(
                        FaultKind::BadIndex,
                        format!("index damaged but all pages intact: {e}"),
                        (0..n).map(|i| dec.row(i)).collect(),
                    ),
                    Err(_) if matches!(e, StoreError::CorruptIndex { .. }) => {
                        SegmentHealth::Faulty(
                            FaultKind::BadIndex,
                            format!("index damaged and pages unsalvageable: {e}"),
                        )
                    }
                    Err(_) => SegmentHealth::Faulty(
                        FaultKind::BadPage,
                        format!("finalized but undecodable: {e}"),
                    ),
                }
            }
        },
    }
}

impl StoreDoctor {
    /// A doctor for the local store rooted at `dir`.
    pub fn new(dir: impl AsRef<Path>) -> StoreDoctor {
        StoreDoctor::with_backend(Arc::new(LocalFs::new(dir)))
    }

    /// A doctor over an arbitrary backend. Repair writes through the
    /// same trait it reads from, so fsck semantics hold on any backend.
    pub fn with_backend(store: Arc<dyn ObjectStore>) -> StoreDoctor {
        StoreDoctor { store }
    }

    /// List `seg-*.bds` files physically present under the store root
    /// (quarantine excluded), sorted by name.
    fn on_disk_segments(&self) -> Result<BTreeSet<String>> {
        Ok(self
            .store
            .list()?
            .into_iter()
            .filter(|name| parse_segment_id(name).is_some())
            .collect())
    }

    /// Scan every artifact and classify faults without touching
    /// anything. Errors only on environmental problems (an unreadable
    /// directory), never on store damage.
    pub fn check(&self) -> Result<FsckReport> {
        let _t = blockdec_obs::span!("stage.fsck");
        let mut report = FsckReport::default();

        // Stale temp files from interrupted commits.
        for name in self.store.list()? {
            if local::is_temp_name(&name) {
                report.faults.push(Fault {
                    kind: FaultKind::TornTemp,
                    file: name,
                    detail: "stale temp file from an interrupted commit".into(),
                });
            }
        }

        // Manifest.
        let manifest = if !self.store.exists(MANIFEST_NAME) {
            report.faults.push(Fault {
                kind: FaultKind::MissingManifest,
                file: MANIFEST_NAME.into(),
                detail: "manifest is missing; catalog must be rebuilt from segments".into(),
            });
            None
        } else {
            match Manifest::load_lenient(self.store.as_ref()) {
                Ok(m) => Some(m),
                Err(e) => {
                    report.faults.push(Fault {
                        kind: FaultKind::BadManifest,
                        file: MANIFEST_NAME.into(),
                        detail: e.to_string(),
                    });
                    None
                }
            }
        };

        // Dictionary.
        let registry = if !self.store.exists(DICTIONARY_NAME) {
            report.faults.push(Fault {
                kind: FaultKind::MissingDictionary,
                file: DICTIONARY_NAME.into(),
                detail: "producer dictionary is missing".into(),
            });
            None
        } else {
            match load_dictionary(self.store.as_ref()) {
                Ok(r) => Some(r),
                Err(e) => {
                    report.faults.push(Fault {
                        kind: FaultKind::BadDictionary,
                        file: DICTIONARY_NAME.into(),
                        detail: e.to_string(),
                    });
                    None
                }
            }
        };

        // Segments referenced by the manifest.
        let mut referenced: BTreeSet<String> = BTreeSet::new();
        if let Some(manifest) = &manifest {
            let mut prev: Option<&SegmentMeta> = None;
            for seg in &manifest.segments {
                referenced.insert(seg.file.clone());
                report.segments_checked += 1;
                if !self.store.exists(&seg.file) {
                    report.faults.push(Fault {
                        kind: FaultKind::MissingSegment,
                        file: seg.file.clone(),
                        detail: "manifest references a segment file that does not exist".into(),
                    });
                    prev = Some(seg);
                    continue;
                }
                let bytes = get_retry(self.store.as_ref(), &seg.file)?;
                match classify_segment_bytes(&bytes, &seg.file) {
                    SegmentHealth::Faulty(kind, detail)
                    | SegmentHealth::Recoverable(kind, detail, _) => {
                        report.faults.push(Fault {
                            kind,
                            file: seg.file.clone(),
                            detail,
                        });
                    }
                    SegmentHealth::Healthy(rows, _) => {
                        report.rows_checked += rows.len() as u64;
                        let zone = ZoneMap::from_rows(&rows);
                        if zone != seg.zone {
                            report.faults.push(Fault {
                                kind: FaultKind::ZoneDrift,
                                file: seg.file.clone(),
                                detail: format!(
                                    "manifest zone {:?} disagrees with rows {:?}",
                                    seg.zone, zone
                                ),
                            });
                        } else if let Some(p) = prev {
                            if seg.zone.min_height < p.zone.max_height {
                                report.faults.push(Fault {
                                    kind: FaultKind::ZoneDrift,
                                    file: seg.file.clone(),
                                    detail: format!(
                                        "height range overlaps previous segment {}",
                                        p.file
                                    ),
                                });
                            }
                        }
                        if let Some(reg) = &registry {
                            if let Some(bad) =
                                rows.iter().find(|r| r.producer as usize >= reg.len())
                            {
                                report.faults.push(Fault {
                                    kind: FaultKind::UnknownProducer,
                                    file: seg.file.clone(),
                                    detail: format!(
                                        "row producer id {} outside dictionary (len {})",
                                        bad.producer,
                                        reg.len()
                                    ),
                                });
                            }
                        }
                    }
                }
                prev = Some(seg);
            }
        }

        // Orphans: on-disk segment files the manifest does not claim.
        // With no (readable) manifest every segment file is reported
        // against the missing catalog instead, not as an orphan.
        if manifest.is_some() {
            for name in self.on_disk_segments()? {
                if !referenced.contains(&name) {
                    report.segments_checked += 1;
                    report.faults.push(Fault {
                        kind: FaultKind::OrphanSegment,
                        file: name,
                        detail: "segment file on disk is not referenced by the manifest".into(),
                    });
                }
            }
        }

        blockdec_obs::counter("store.fault.detected").add(report.faults.len() as u64);
        blockdec_obs::debug!(
            faults = report.faults.len(),
            segments = report.segments_checked,
            rows = report.rows_checked;
            "fsck check complete"
        );
        Ok(report)
    }

    /// Move `file` into `quarantine/`, creating the area on first use.
    /// A name collision in quarantine gets a numeric suffix — earlier
    /// quarantined bytes are never replaced.
    fn quarantine(&self, file: &str) -> Result<()> {
        self.store.quarantine(file)
    }

    /// Repair the store in place: sweep stale temps into quarantine,
    /// quarantine every faulty segment, rebuild or extend the
    /// dictionary when damaged, and rewrite a consistent manifest
    /// covering exactly the surviving segments. Returns what was done;
    /// call [`StoreDoctor::check`] afterwards to confirm a clean state.
    pub fn repair(&self) -> Result<RepairOutcome> {
        let _t = blockdec_obs::span!("stage.fsck_repair");
        let pre = self.check()?;
        let mut outcome = RepairOutcome {
            pre,
            ..RepairOutcome::default()
        };
        if outcome.pre.is_clean() {
            return Ok(outcome);
        }

        outcome.removed_temps = self.store.sweep_temps()?;

        // Candidate segments: the manifest's view when it is readable,
        // otherwise every segment file on disk (manifest rebuild mode).
        let manifest = Manifest::load_lenient(self.store.as_ref()).ok();
        let candidates: Vec<String> = match &manifest {
            Some(m) => m.segments.iter().map(|s| s.file.clone()).collect(),
            None => self.on_disk_segments()?.into_iter().collect(),
        };

        // Decode every candidate; quarantine what cannot be trusted.
        // Index-only damage keeps its salvaged rows for re-encoding.
        let mut kept: Vec<(String, Vec<RowRecord>, u32)> = Vec::new();
        let mut salvaged: Vec<Vec<RowRecord>> = Vec::new();
        for file in candidates {
            if !self.store.exists(&file) {
                continue; // manifest drift: nothing on disk to keep or move
            }
            let bytes = get_retry(self.store.as_ref(), &file)?;
            match classify_segment_bytes(&bytes, &file) {
                SegmentHealth::Healthy(rows, crc) => kept.push((file, rows, crc)),
                SegmentHealth::Recoverable(kind, detail, rows) => {
                    blockdec_obs::warn!(
                        file = file.clone(),
                        kind = kind.label(),
                        rows = rows.len();
                        "quarantining segment, salvaging its rows: {detail}"
                    );
                    self.quarantine(&file)?;
                    outcome.quarantined.push(file);
                    salvaged.push(rows);
                }
                SegmentHealth::Faulty(kind, detail) => {
                    blockdec_obs::warn!(
                        file = file.clone(),
                        kind = kind.label();
                        "quarantining faulty segment: {detail}"
                    );
                    self.quarantine(&file)?;
                    outcome.quarantined.push(file);
                }
            }
        }

        // Orphans (only meaningful when a manifest told us what is
        // committed): preserve the bytes, but out of the data path.
        if manifest.is_some() {
            let committed: BTreeSet<&String> = kept.iter().map(|(f, _, _)| f).collect();
            for name in self.on_disk_segments()? {
                if !committed.contains(&name) {
                    self.quarantine(&name)?;
                    outcome.quarantined.push(name);
                }
            }
        }

        // Re-encode salvaged rows into fresh-id segments. Ids start
        // beyond every name ever seen so quarantined names are never
        // reused; the final manifest id computation then clears these
        // too, because the new names land in `kept`.
        let first_salvage_id = kept
            .iter()
            .map(|(f, _, _)| f.as_str())
            .chain(outcome.quarantined.iter().map(String::as_str))
            .filter_map(parse_segment_id)
            .map(|id| id + 1)
            .max()
            .unwrap_or(0)
            .max(manifest.as_ref().map_or(0, |m| m.next_segment_id));
        let mut recovered_rows = 0u64;
        for (salvage_id, rows) in (first_salvage_id..).zip(salvaged) {
            let file = segment_file_name(salvage_id);
            let stamp = write_segment_file(self.store.as_ref(), &file, &rows)?;
            recovered_rows += rows.len() as u64;
            outcome.rebuilt.push(file.clone());
            kept.push((file, rows, stamp.crc));
        }

        // Order by height and drop (quarantine) anything that overlaps
        // its predecessor — a consistent catalog must be height-sorted.
        kept.sort_by_key(|(file, rows, _)| (ZoneMap::from_rows(rows).min_height, file.clone()));
        let mut segments: Vec<SegmentMeta> = Vec::with_capacity(kept.len());
        let mut surviving_rows: Vec<&[RowRecord]> = Vec::with_capacity(kept.len());
        for (file, rows, crc) in &kept {
            let zone = ZoneMap::from_rows(rows);
            if let Some(prevseg) = segments.last() {
                if zone.min_height < prevseg.zone.max_height {
                    self.quarantine(file)?;
                    outcome.quarantined.push(file.clone());
                    outcome.rows_quarantined += rows.len() as u64;
                    continue;
                }
            }
            let producers: Vec<u32> = rows.iter().map(|r| r.producer).collect();
            segments.push(SegmentMeta {
                file: file.clone(),
                zone,
                crc: *crc,
                producers: ProducerFilter::from_producers(&producers),
            });
            surviving_rows.push(rows);
        }
        // Rows lost from the committed state (orphan rows were never
        // committed, so only manifest-referenced quarantines count;
        // salvaged rows live on in their rebuilt segments, so they are
        // not lost either).
        if let Some(m) = &manifest {
            let survivors: BTreeSet<&str> = segments.iter().map(|s| s.file.as_str()).collect();
            outcome.rows_quarantined = m
                .segments
                .iter()
                .filter(|s| !survivors.contains(s.file.as_str()))
                .map(|s| s.zone.rows)
                .sum::<u64>()
                .saturating_sub(recovered_rows);
        }

        // Dictionary: rebuild with placeholders when missing/corrupt,
        // extend when too short. Placeholder names keep producer ids —
        // and therefore every metric series — unchanged.
        let registry = load_dictionary(self.store.as_ref()).ok();
        let max_id = surviving_rows
            .iter()
            .flat_map(|rows| rows.iter())
            .map(|r| r.producer)
            .max();
        let needed = max_id.map_or(0, |m| m as usize + 1);
        let registry = match registry {
            Some(reg) if reg.len() >= needed => reg,
            damaged => {
                let mut reg = damaged.unwrap_or_default();
                let known = reg.to_name_list();
                let mut rebuilt = ProducerRegistry::new();
                for name in &known {
                    rebuilt.intern(name);
                }
                for id in known.len()..needed {
                    rebuilt.intern(&format!("recovered-producer-{id}"));
                }
                reg = rebuilt;
                save_dictionary(self.store.as_ref(), &reg)?;
                outcome.dictionary_rebuilt = true;
                reg
            }
        };
        debug_assert!(registry.len() >= needed);

        // Rewrite the manifest: exactly the surviving segments, fresh
        // zone maps, and a next id beyond anything ever seen on disk so
        // quarantined names are never reused.
        let next_segment_id = segments
            .iter()
            .map(|s| s.file.as_str())
            .chain(outcome.quarantined.iter().map(String::as_str))
            .filter_map(parse_segment_id)
            .map(|id| id + 1)
            .max()
            .unwrap_or(0)
            .max(manifest.as_ref().map_or(0, |m| m.next_segment_id));
        let new_manifest = Manifest {
            version: 1,
            segments,
            next_segment_id,
        };
        new_manifest.save(self.store.as_ref())?;
        outcome.manifest_rewritten = true;

        blockdec_obs::counter("store.fault.quarantined").add(outcome.quarantined.len() as u64);
        blockdec_obs::counter("store.fault.repaired").inc();
        blockdec_obs::info!(
            quarantined = outcome.quarantined.len(),
            rows_lost = outcome.rows_quarantined,
            temps_removed = outcome.removed_temps,
            dictionary_rebuilt = outcome.dictionary_rebuilt;
            "store repaired"
        );
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::segment_file_name;
    use crate::store::{BlockStore, ScanPredicate};
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "blockdec-doctor-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// A store with three sealed segments of 20 rows each.
    fn build_store(dir: &Path) -> Vec<RowRecord> {
        let mut store = BlockStore::create(dir).unwrap();
        let p = store.intern_producer("P");
        let q = store.intern_producer("Q");
        let mut all = Vec::new();
        for batch in 0..3u64 {
            let rows: Vec<RowRecord> = (batch * 20..batch * 20 + 20)
                .map(|h| RowRecord {
                    height: h,
                    timestamp: 1_546_300_800 + h as i64 * 600,
                    producer: if h % 3 == 0 { q } else { p },
                    credit_millis: 1000,
                    tx_count: 1,
                    size_bytes: 2,
                    difficulty: 3,
                })
                .collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
            all.extend(rows);
        }
        assert_eq!(store.segment_count(), 3);
        all
    }

    #[test]
    fn clean_store_checks_clean() {
        let dir = tmp_dir("clean");
        build_store(&dir);
        let report = StoreDoctor::new(&dir).check().unwrap();
        assert!(report.is_clean(), "{:?}", report.faults);
        assert_eq!(report.segments_checked, 3);
        assert_eq!(report.rows_checked, 60);
        let outcome = StoreDoctor::new(&dir).repair().unwrap();
        assert!(outcome.is_noop());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_rebuilt_from_segments() {
        let dir = tmp_dir("rebuild");
        let all = build_store(&dir);
        fs::remove_file(dir.join("manifest.json")).unwrap();
        let doctor = StoreDoctor::new(&dir);
        assert!(doctor.check().unwrap().has(FaultKind::MissingManifest));
        let outcome = doctor.repair().unwrap();
        assert!(outcome.manifest_rewritten);
        assert!(outcome.quarantined.is_empty());
        assert!(doctor.check().unwrap().is_clean());
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), all);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_quarantines_overlapping_segments() {
        let dir = tmp_dir("overlap");
        build_store(&dir);
        // Forge a manifest where segment 1's zone overlaps segment 0's
        // rows by lying about the files' order.
        let local = LocalFs::new(&dir);
        let mut m = Manifest::load_lenient(&local).unwrap();
        m.segments.swap(0, 1);
        m.save(&local).unwrap();
        let doctor = StoreDoctor::new(&dir);
        assert!(doctor.check().unwrap().has(FaultKind::ZoneDrift));
        // Repair re-sorts by height, so no quarantine is needed here.
        doctor.repair().unwrap();
        assert!(doctor.check().unwrap().is_clean());
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.row_count(), 60);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_corruption_is_repaired_without_losing_rows() {
        let dir = tmp_dir("bad-index");
        let all = build_store(&dir);
        let victim = segment_file_name(1);
        crate::fault::FaultInjector::new(&dir, 7)
            .corrupt_index(&victim)
            .unwrap();
        let doctor = StoreDoctor::new(&dir);
        assert!(doctor.check().unwrap().has(FaultKind::BadIndex));
        let outcome = doctor.repair().unwrap();
        assert_eq!(outcome.quarantined, vec![victim.clone()]);
        assert_eq!(outcome.rows_quarantined, 0, "salvage must lose no rows");
        assert_eq!(outcome.rebuilt.len(), 1);
        assert!(dir.join(QUARANTINE_DIR).join(&victim).exists());
        assert!(doctor.check().unwrap().is_clean());
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), all);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn page_zone_drift_is_repaired_without_losing_rows() {
        // The index CRC is valid but a zone entry lies: only the full
        // decode's cross-check catches it, and repair re-encodes the
        // rows behind a truthful index.
        let dir = tmp_dir("zone-lie");
        let all = build_store(&dir);
        let victim = segment_file_name(2);
        crate::fault::FaultInjector::new(&dir, 11)
            .drift_page_zone(&victim)
            .unwrap();
        let doctor = StoreDoctor::new(&dir);
        assert!(doctor.check().unwrap().has(FaultKind::BadIndex));
        let outcome = doctor.repair().unwrap();
        assert_eq!(outcome.quarantined, vec![victim]);
        assert_eq!(outcome.rows_quarantined, 0);
        assert!(doctor.check().unwrap().is_clean());
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), all);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_offset_inside_the_previous_group_is_repaired_without_losing_rows() {
        // A buggy indexer moves group 1's offset one byte back, into
        // group 0's last page, behind a refitted index CRC and footer.
        // Every page is intact in the conventional layout, so the fault
        // is the index's and repair salvages all 10,000 rows.
        let dir = tmp_dir("overrun");
        let mut store = BlockStore::create(&dir).unwrap();
        let p = store.intern_producer("P");
        let q = store.intern_producer("Q");
        let all: Vec<RowRecord> = (0..10_000u64)
            .map(|h| RowRecord {
                height: h,
                timestamp: 1_546_300_800 + h as i64 * 600,
                producer: if h % 3 == 0 { q } else { p },
                credit_millis: 1000,
                tx_count: (h % 50) as u32,
                size_bytes: 2,
                difficulty: 3,
            })
            .collect();
        store.append_rows(&all).unwrap();
        store.flush().unwrap();
        let victim = segment_file_name(0);
        let mut bytes = fs::read(dir.join(&victim)).unwrap();
        let (start, _) = crate::segment::index_bounds(&bytes).unwrap();
        let at = start + 8 + crate::segment::GROUP_ENTRY_LEN;
        let moved = lebytes::u32_at(&bytes, at) - 1;
        bytes[at..at + 4].copy_from_slice(&moved.to_le_bytes());
        crate::segment::refit_index_crc(&mut bytes);
        crate::segment::refit_footer(&mut bytes);
        fs::write(dir.join(&victim), bytes).unwrap();

        let doctor = StoreDoctor::new(&dir);
        let report = doctor.check().unwrap();
        assert_eq!(
            report.kinds(),
            vec![FaultKind::BadIndex],
            "{:?}",
            report.faults
        );
        let outcome = doctor.repair().unwrap();
        assert_eq!(outcome.quarantined, vec![victim]);
        assert_eq!(outcome.rows_quarantined, 0, "salvage must lose no rows");
        assert!(doctor.check().unwrap().is_clean());
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), all);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantined_files_are_preserved_not_deleted() {
        let dir = tmp_dir("preserve");
        build_store(&dir);
        let victim = segment_file_name(1);
        let orig = fs::read(dir.join(&victim)).unwrap();
        let mut bytes = orig.clone();
        bytes.truncate(bytes.len() / 2);
        fs::write(dir.join(&victim), bytes).unwrap();
        let outcome = StoreDoctor::new(&dir).repair().unwrap();
        assert_eq!(outcome.quarantined, vec![victim.clone()]);
        assert_eq!(outcome.rows_quarantined, 20);
        assert!(!dir.join(&victim).exists());
        assert!(dir.join(QUARANTINE_DIR).join(&victim).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}

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
use crate::catalog::{parse_segment_id, segment_file_name, Manifest, SegmentMeta, MANIFEST_NAME};
use crate::dictionary::{load_dictionary, save_dictionary, DICTIONARY_NAME};
use crate::error::{Result, StoreError};
use crate::row::RowRecord;
use crate::segment::{check_footer, write_segment_file, FooterCheck, SegmentDecoder};
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

/// Everything a check learns about one segment file.
enum SegmentHealth {
    /// Every check passed: the segment's manifest entry, derived from
    /// the index its decode checked, and its largest producer id.
    Healthy(SegmentMeta, u32),
    /// The index block is damaged but every page decoded cleanly via
    /// the sequential salvage path: repair can rebuild the segment
    /// without losing a row.
    Recoverable(FaultKind, String, Vec<RowRecord>),
    Faulty(FaultKind, String),
}

/// Classify segment `file` with one full decode of its `bytes`, which
/// leaves a healthy segment's rows in `dec`. The footer is read again
/// only to name the fault of a decode that failed.
fn classify_segment_bytes(dec: &mut SegmentDecoder, bytes: &[u8], file: &str) -> SegmentHealth {
    let e = match dec.decode_full(bytes, file) {
        Ok((index, crc)) => {
            let meta = SegmentMeta::from_index(file.to_string(), index, crc);
            return SegmentHealth::Healthy(meta, dec.producers().max().unwrap_or(0));
        }
        Err(e) => e,
    };
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
        // Whatever failed, the pages may be intact behind an index that
        // lies (a group offset inside the previous group's pages reads
        // as a truncated page): when the index-free salvage decodes
        // every page, the fault is the index's.
        FooterCheck::Ok => match dec.decode_salvage(bytes, file) {
            Ok(n) => SegmentHealth::Recoverable(
                FaultKind::BadIndex,
                format!("index damaged but all pages intact: {e}"),
                (0..n).map(|i| dec.row(i)).collect(),
            ),
            Err(_) if matches!(e, StoreError::CorruptIndex { .. }) => SegmentHealth::Faulty(
                FaultKind::BadIndex,
                format!("index damaged and pages unsalvageable: {e}"),
            ),
            Err(_) => SegmentHealth::Faulty(
                FaultKind::BadPage,
                format!("finalized but undecodable: {e}"),
            ),
        },
    }
}

/// What one pass over a store finds: the check's report, and what a
/// repair acts on.
struct Findings {
    report: FsckReport,
    manifest: Option<Manifest>,
    registry: Option<ProducerRegistry>,
    /// Each segment file read, in catalog order, with its health.
    segments: Vec<(String, SegmentHealth)>,
    /// Segment files on disk that a readable manifest does not list.
    orphans: Vec<String>,
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

    /// Scan every artifact and classify faults without touching
    /// anything. Errors only on environmental problems (an unreadable
    /// directory), never on store damage.
    pub fn check(&self) -> Result<FsckReport> {
        Ok(self.examine(false)?.report)
    }

    /// The one pass behind [`StoreDoctor::check`] and
    /// [`StoreDoctor::repair`]. It fetches each segment file once and
    /// decodes it once, with one decoder for the whole pass, and holds
    /// rows only for index-damaged segments it salvaged. Without a
    /// readable manifest it reports no segment; when `repairing`, it
    /// classifies every segment file on disk for repair to rebuild the
    /// catalog from, and otherwise it reads none.
    fn examine(&self, repairing: bool) -> Result<Findings> {
        let _t = blockdec_obs::span!("stage.fsck");
        let mut report = FsckReport::default();
        let names = self.store.list()?;

        // Stale temp files from interrupted commits.
        for name in &names {
            if local::is_temp_name(name) {
                report.faults.push(Fault {
                    kind: FaultKind::TornTemp,
                    file: name.clone(),
                    detail: "stale temp file from an interrupted commit".into(),
                });
            }
        }
        // Segment files physically present (quarantine excluded).
        let on_disk: BTreeSet<String> = names
            .into_iter()
            .filter(|name| parse_segment_id(name).is_some())
            .collect();

        let manifest = self.load_or_fault(
            &mut report,
            MANIFEST_NAME,
            (FaultKind::MissingManifest, FaultKind::BadManifest),
            "manifest is missing; catalog must be rebuilt from segments",
            Manifest::load_lenient,
        );
        let registry = self.load_or_fault(
            &mut report,
            DICTIONARY_NAME,
            (FaultKind::MissingDictionary, FaultKind::BadDictionary),
            "producer dictionary is missing",
            load_dictionary,
        );

        // Segments: the manifest's entries when it is readable, every
        // segment file on disk otherwise (only a repair reads those).
        let candidates: Vec<(&str, Option<&SegmentMeta>)> = match &manifest {
            Some(m) => m
                .segments
                .iter()
                .map(|s| (s.file.as_str(), Some(s)))
                .collect(),
            None if repairing => on_disk.iter().map(|name| (name.as_str(), None)).collect(),
            None => Vec::new(),
        };
        let mut dec = SegmentDecoder::new();
        let mut segments = Vec::with_capacity(candidates.len());
        let mut prev: Option<&SegmentMeta> = None;
        for (file, listed) in candidates {
            report.segments_checked += usize::from(listed.is_some());
            if !self.store.exists(file) {
                if listed.is_some() {
                    report.faults.push(Fault {
                        kind: FaultKind::MissingSegment,
                        file: file.to_string(),
                        detail: "manifest references a segment file that does not exist".into(),
                    });
                }
                prev = listed;
                continue;
            }
            let bytes = get_retry(self.store.as_ref(), file)?;
            let health = classify_segment_bytes(&mut dec, &bytes, file);
            if let Some(seg) = listed {
                let mut fault = |kind, detail| {
                    report.faults.push(Fault {
                        kind,
                        file: file.to_string(),
                        detail,
                    })
                };
                match &health {
                    SegmentHealth::Faulty(kind, detail)
                    | SegmentHealth::Recoverable(kind, detail, _) => fault(*kind, detail.clone()),
                    SegmentHealth::Healthy(meta, _) => {
                        report.rows_checked += meta.zone.rows;
                        if meta.zone != seg.zone {
                            fault(
                                FaultKind::ZoneDrift,
                                format!(
                                    "manifest zone {:?} disagrees with rows {:?}",
                                    seg.zone, meta.zone
                                ),
                            );
                        } else if let Some(p) = prev {
                            if seg.zone.min_height < p.zone.max_height {
                                fault(
                                    FaultKind::ZoneDrift,
                                    format!("height range overlaps previous segment {}", p.file),
                                );
                            }
                        }
                        if let Some(reg) = &registry {
                            if let Some(bad) = dec.producers().find(|&p| p as usize >= reg.len()) {
                                fault(
                                    FaultKind::UnknownProducer,
                                    format!(
                                        "row producer id {bad} outside dictionary (len {})",
                                        reg.len()
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            segments.push((file.to_string(), health));
            prev = listed;
        }

        // Orphans: on-disk segment files the manifest does not claim.
        // With no (readable) manifest every segment file is reported
        // against the missing catalog instead, not as an orphan.
        let mut orphans = Vec::new();
        if let Some(manifest) = &manifest {
            let referenced: BTreeSet<&str> =
                manifest.segments.iter().map(|s| s.file.as_str()).collect();
            for name in on_disk {
                if !referenced.contains(name.as_str()) {
                    report.segments_checked += 1;
                    report.faults.push(Fault {
                        kind: FaultKind::OrphanSegment,
                        file: name.clone(),
                        detail: "segment file on disk is not referenced by the manifest".into(),
                    });
                    orphans.push(name);
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
        Ok(Findings {
            report,
            manifest,
            registry,
            segments,
            orphans,
        })
    }

    /// `load` the catalog file `name`, or report it as the first of
    /// `kinds` (with `missing`) when it does not exist and as the second
    /// (with the load error) when it does not load.
    fn load_or_fault<T>(
        &self,
        report: &mut FsckReport,
        name: &str,
        kinds: (FaultKind, FaultKind),
        missing: &str,
        load: impl FnOnce(&dyn ObjectStore) -> Result<T>,
    ) -> Option<T> {
        let (kind, detail) = if !self.store.exists(name) {
            (kinds.0, missing.to_string())
        } else {
            match load(self.store.as_ref()) {
                Ok(loaded) => return Some(loaded),
                Err(e) => (kinds.1, e.to_string()),
            }
        };
        report.faults.push(Fault {
            kind,
            file: name.into(),
            detail,
        });
        None
    }

    /// Repair the store in place: sweep stale temps into quarantine,
    /// quarantine every faulty segment, rebuild or extend the
    /// dictionary when damaged, and rewrite a consistent manifest
    /// covering exactly the surviving segments. It acts on its own
    /// check, whose report it returns as [`RepairOutcome::pre`]; call
    /// [`StoreDoctor::check`] afterwards to confirm a clean state.
    pub fn repair(&self) -> Result<RepairOutcome> {
        self.repair_with(|_| {})
    }

    /// [`StoreDoctor::repair`], handing its check's report to
    /// `on_check` before it changes anything: `blockdec fsck --repair`
    /// prints the faults there, ahead of the repair's own log lines.
    pub fn repair_with(&self, on_check: impl FnOnce(&FsckReport)) -> Result<RepairOutcome> {
        let _t = blockdec_obs::span!("stage.fsck_repair");
        let found = self.examine(true)?;
        on_check(&found.report);
        let mut outcome = RepairOutcome {
            pre: found.report,
            ..RepairOutcome::default()
        };
        if outcome.pre.is_clean() {
            return Ok(outcome);
        }
        let manifest = found.manifest;

        outcome.removed_temps = self.store.sweep_temps()?;

        // Quarantine what cannot be trusted. Index-only damage keeps its
        // salvaged rows for re-encoding; a healthy segment keeps its
        // manifest entry and largest producer id, not its rows.
        let mut kept: Vec<(SegmentMeta, u32)> = Vec::new();
        let mut salvaged: Vec<Vec<RowRecord>> = Vec::new();
        for (file, health) in found.segments {
            match health {
                SegmentHealth::Healthy(meta, max_producer) => kept.push((meta, max_producer)),
                SegmentHealth::Recoverable(kind, detail, rows) => {
                    blockdec_obs::warn!(
                        file = file.clone(),
                        kind = kind.label(),
                        rows = rows.len();
                        "quarantining segment, salvaging its rows: {detail}"
                    );
                    self.store.quarantine(&file)?;
                    outcome.quarantined.push(file);
                    salvaged.push(rows);
                }
                SegmentHealth::Faulty(kind, detail) => {
                    blockdec_obs::warn!(
                        file = file.clone(),
                        kind = kind.label();
                        "quarantining faulty segment: {detail}"
                    );
                    self.store.quarantine(&file)?;
                    outcome.quarantined.push(file);
                }
            }
        }

        // Orphans (only meaningful when a manifest told us what is
        // committed): preserve the bytes, but out of the data path.
        for name in found.orphans {
            self.store.quarantine(&name)?;
            outcome.quarantined.push(name);
        }

        // The next free segment id lies beyond every name ever seen, so
        // quarantined names are never reused. Salvaged rows are
        // re-encoded into segments from that id on, and the manifest
        // gets the id after the last of them.
        let mut next_segment_id = kept
            .iter()
            .map(|(m, _)| m.file.as_str())
            .chain(outcome.quarantined.iter().map(String::as_str))
            .filter_map(parse_segment_id)
            .map(|id| id + 1)
            .max()
            .unwrap_or(0)
            .max(manifest.as_ref().map_or(0, |m| m.next_segment_id));
        let mut recovered_rows = 0u64;
        for rows in salvaged {
            let file = segment_file_name(next_segment_id);
            next_segment_id += 1;
            let meta = write_segment_file(self.store.as_ref(), &file, &rows)?;
            recovered_rows += rows.len() as u64;
            outcome.rebuilt.push(file);
            let max_producer = rows.iter().map(|r| r.producer).max().unwrap_or(0);
            kept.push((meta, max_producer));
        }

        // Order by height and drop (quarantine) anything that overlaps
        // its predecessor — a consistent catalog must be height-sorted.
        kept.sort_by_key(|(m, _)| (m.zone.min_height, m.file.clone()));
        let mut segments: Vec<SegmentMeta> = Vec::with_capacity(kept.len());
        let mut max_id: Option<u32> = None;
        for (meta, max_producer) in kept {
            if let Some(prevseg) = segments.last() {
                if meta.zone.min_height < prevseg.zone.max_height {
                    self.store.quarantine(&meta.file)?;
                    outcome.rows_quarantined += meta.zone.rows;
                    outcome.quarantined.push(meta.file);
                    continue;
                }
            }
            max_id = max_id.max(Some(max_producer));
            segments.push(meta);
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
        let needed = max_id.map_or(0, |m| m as usize + 1);
        let registry = match found.registry {
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
        // zone maps, and the next free id.
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
        // The salvaged rows take the next free id, and the manifest the
        // one after it.
        assert_eq!(outcome.rebuilt, vec![segment_file_name(3)]);
        assert!(dir.join(QUARANTINE_DIR).join(&victim).exists());
        assert!(doctor.check().unwrap().is_clean());
        let manifest = Manifest::load(&LocalFs::new(&dir)).unwrap();
        assert_eq!(manifest.next_segment_id, 4);
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
        let index = crate::segment::index_bounds(&bytes).unwrap();
        let at = index.0 + 8 + crate::segment::GROUP_ENTRY_LEN;
        let moved = crate::lebytes::u32_at(&bytes, at) - 1;
        bytes[at..at + 4].copy_from_slice(&moved.to_le_bytes());
        crate::segment::refit_index_crc(&mut bytes, index);
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

    /// A [`LocalFs`] that counts the reads (`get` and `get_range`) of
    /// each object.
    struct CountingFs {
        inner: LocalFs,
        reads: std::sync::Mutex<std::collections::BTreeMap<String, usize>>,
    }

    impl CountingFs {
        /// The segment reads counted since the last call, by file.
        fn take_segment_reads(&self) -> Vec<(String, usize)> {
            let reads = std::mem::take(&mut *self.reads.lock().unwrap());
            reads
                .into_iter()
                .filter(|(name, _)| parse_segment_id(name).is_some())
                .collect()
        }

        fn count(&self, name: &str) {
            *self
                .reads
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default() += 1;
        }
    }

    impl ObjectStore for CountingFs {
        fn describe(&self, name: &str) -> String {
            self.inner.describe(name)
        }
        fn describe_root(&self) -> String {
            self.inner.describe_root()
        }
        fn create_root(&self) -> Result<()> {
            self.inner.create_root()
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn size(&self, name: &str) -> Result<u64> {
            self.inner.size(name)
        }
        fn get(&self, name: &str) -> Result<Vec<u8>> {
            self.count(name);
            self.inner.get(name)
        }
        fn get_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
            self.count(name);
            self.inner.get_range(name, offset, len)
        }
        fn put_atomic(&self, name: &str, bytes: &[u8]) -> Result<()> {
            self.inner.put_atomic(name, bytes)
        }
        fn list(&self) -> Result<Vec<String>> {
            self.inner.list()
        }
        fn quarantine(&self, name: &str) -> Result<()> {
            self.inner.quarantine(name)
        }
        fn remove(&self, name: &str) -> Result<()> {
            self.inner.remove(name)
        }
        fn sweep_temps(&self) -> Result<usize> {
            self.inner.sweep_temps()
        }
    }

    #[test]
    fn check_and_repair_read_each_segment_once() {
        let dir = tmp_dir("reads");
        build_store(&dir);
        let victim = segment_file_name(1);
        crate::fault::FaultInjector::new(&dir, 5)
            .flip_bit(&victim)
            .unwrap();
        let fs = Arc::new(CountingFs {
            inner: LocalFs::new(&dir),
            reads: Default::default(),
        });
        let doctor = StoreDoctor::with_backend(fs.clone());
        let once: Vec<(String, usize)> = (0..3).map(|id| (segment_file_name(id), 1)).collect();
        assert_eq!(doctor.check().unwrap().kinds(), vec![FaultKind::BitRot]);
        assert_eq!(fs.take_segment_reads(), once);
        let outcome = doctor.repair().unwrap();
        assert_eq!(outcome.quarantined, vec![victim]);
        assert_eq!(fs.take_segment_reads(), once);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifestless_check_reads_no_segment_and_repair_reads_each_once() {
        let dir = tmp_dir("no-manifest-reads");
        let all = build_store(&dir);
        fs::remove_file(dir.join("manifest.json")).unwrap();
        let fs = Arc::new(CountingFs {
            inner: LocalFs::new(&dir),
            reads: Default::default(),
        });
        let doctor = StoreDoctor::with_backend(fs.clone());
        let report = doctor.check().unwrap();
        assert_eq!(fs.take_segment_reads(), vec![]);
        assert_eq!(report.kinds(), vec![FaultKind::MissingManifest]);
        assert_eq!((report.segments_checked, report.rows_checked), (0, 0));
        let outcome = doctor.repair().unwrap();
        let once: Vec<(String, usize)> = (0..3).map(|id| (segment_file_name(id), 1)).collect();
        assert_eq!(fs.take_segment_reads(), once);
        // The repair's own pass reads the segments and reports the same.
        assert_eq!(format!("{:?}", outcome.pre), format!("{report:?}"));
        assert!(outcome.manifest_rewritten && outcome.quarantined.is_empty());
        assert!(doctor.check().unwrap().is_clean());
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), all);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_offset_word_damage_is_repaired_without_losing_rows() {
        // The index-offset word points into the pages behind a refitted
        // footer: the index cannot be found, but salvage walks the
        // pages without it.
        let dir = tmp_dir("index-word");
        let all = build_store(&dir);
        let victim = segment_file_name(1);
        let mut bytes = fs::read(dir.join(&victim)).unwrap();
        let at = bytes.len() - crate::segment::FOOTER_LEN - 4;
        bytes[at..at + 4].copy_from_slice(&20u32.to_le_bytes());
        crate::segment::refit_footer(&mut bytes);
        fs::write(dir.join(&victim), bytes).unwrap();
        let doctor = StoreDoctor::new(&dir);
        let report = doctor.check().unwrap();
        assert_eq!(report.kinds(), vec![FaultKind::BadIndex]);
        assert!(
            report.faults[0]
                .detail
                .starts_with("index damaged but all pages intact"),
            "{:?}",
            report.faults
        );
        let outcome = doctor.repair().unwrap();
        assert_eq!(outcome.rows_quarantined, 0, "salvage must lose no rows");
        assert!(doctor.check().unwrap().is_clean());
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), all);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every cut and every single-bit flip in the last 32 bytes (the
    /// trailer and the end of the index) of a valid three-group segment.
    #[test]
    fn hostile_trailers_fail_typed_or_yield_the_original_rows() {
        use crate::segment::{decode_segment, encode_segment};
        let rows: Vec<RowRecord> = (0..10_000u64)
            .map(|h| RowRecord {
                height: 7_000_000 + h,
                timestamp: 1_546_300_800 + h as i64 * 13,
                producer: (h % 37) as u32,
                credit_millis: 1000,
                tx_count: 0,
                size_bytes: 0,
                difficulty: 0,
            })
            .collect();
        let bytes = encode_segment(&rows);
        let len = bytes.len();
        let mut cases: Vec<(String, Vec<u8>, FaultKind)> = (1..=32)
            .map(|cut| {
                (
                    format!("cut {cut}"),
                    bytes[..len - cut].to_vec(),
                    FaultKind::Truncated,
                )
            })
            .collect();
        for at in len - 32..len {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                // The footer's last 8 bytes are its length and magic.
                let kind = if at >= len - 8 {
                    FaultKind::Truncated
                } else {
                    FaultKind::BitRot
                };
                cases.push((format!("flip byte {at} bit {bit}"), flipped, kind));
            }
        }
        let heights = ScanPredicate::all().heights(rows[5_000].height, rows[5_100].height);
        let mut dec = SegmentDecoder::new();
        let decoded = |dec: &SegmentDecoder, pred: &ScanPredicate| -> Vec<RowRecord> {
            (0..dec.len())
                .map(|i| dec.row(i))
                .filter(|r| pred.matches(r))
                .collect()
        };
        let (mut pruned_ok, mut salvaged) = (0, 0);
        for (case, damaged, kind) in cases {
            match decode_segment(&damaged, "t") {
                Err(
                    StoreError::Corrupt { .. }
                    | StoreError::BadFormat { .. }
                    | StoreError::CorruptIndex { .. },
                ) => {}
                other => panic!("{case}: full decode gave {other:?}"),
            }
            for pred in [ScanPredicate::all(), heights] {
                let want: Vec<RowRecord> =
                    rows.iter().filter(|r| pred.matches(r)).copied().collect();
                if dec.decode_pruned(&damaged, "t", &pred).is_ok() {
                    assert_eq!(decoded(&dec, &pred), want, "{case}: pruned {pred:?}");
                    pruned_ok += 1;
                }
                let mut fetch = |off: u64, n: usize| Ok(&damaged[off as usize..][..n]);
                let ranged = dec.decode_pruned_ranged(&mut fetch, damaged.len() as u64, "t", &pred);
                if ranged.is_ok() {
                    assert_eq!(decoded(&dec, &pred), want, "{case}: ranged {pred:?}");
                    pruned_ok += 1;
                }
            }
            if dec.decode_salvage(&damaged, "t").is_ok() {
                assert_eq!(
                    decoded(&dec, &ScanPredicate::all()),
                    rows,
                    "{case}: salvage"
                );
                salvaged += 1;
            }
            match classify_segment_bytes(&mut dec, &damaged, "t") {
                SegmentHealth::Faulty(got, _) | SegmentHealth::Recoverable(got, ..) => {
                    assert_eq!(got, kind, "{case}")
                }
                SegmentHealth::Healthy(..) => panic!("{case}: classified healthy"),
            }
        }
        // The pruned decodes skip the whole-file CRC, so they read past
        // a flip in it, as salvage reads past any flip outside the
        // footer's length and magic.
        assert_eq!(pruned_ok, 4 * 8 * 4);
        assert_eq!(salvaged, 24 * 8);
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

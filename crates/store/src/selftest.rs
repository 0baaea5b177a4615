//! The fsck self-test harness: inject → detect → repair → verify for
//! every fault class [`crate::StoreDoctor`] knows.
//!
//! The harness is parameterized by an [`ObjectStore`] factory so the
//! same fourteen scenarios prove repair semantics on any backend: the
//! CLI's `blockdec fsck --self-test` runs them over [`LocalFs`], and
//! the store's own tests run them again through a slow, flaky
//! [`crate::SimBackend`] to show that detection and repair never depend
//! on local-filesystem behavior. Faults are still *injected* with raw
//! file mutations ([`FaultInjector`] is a corruptor, not a client), but
//! every check, repair, and verification scan goes through the backend
//! under test.

use crate::backend::{LocalFs, ObjectStore};
use crate::catalog::segment_file_name;
use crate::doctor::{FaultKind, StoreDoctor};
use crate::error::StoreError;
use crate::fault::FaultInjector;
use crate::row::RowRecord;
use crate::store::{BlockStore, ScanPredicate};
use std::fs; // blockdec-lint: allow(layering) — the self-test owns a scratch dir outside any store
use std::path::Path;
use std::sync::Arc;

/// Builds the backend under test for a scenario's scratch directory.
pub type BackendFactory<'a> = dyn Fn(&Path) -> Arc<dyn ObjectStore> + 'a;

/// The default factory: a plain [`LocalFs`] rooted at the directory.
pub fn local_backend(dir: &Path) -> Arc<dyn ObjectStore> {
    Arc::new(LocalFs::new(dir))
}

/// 60 deterministic fixture rows (heights 0..60, two producers).
pub fn fixture_rows() -> Vec<RowRecord> {
    (0..60).map(fixture_row).collect()
}

/// The fixture's row at height `h`.
fn fixture_row(h: u64) -> RowRecord {
    RowRecord {
        height: h,
        timestamp: 1_546_300_800 + h as i64 * 600,
        producer: u32::from(h.is_multiple_of(3)),
        credit_millis: 1000,
        tx_count: 2,
        size_bytes: 500,
        difficulty: 7,
    }
}

/// Build a clean 3-segment fixture store at `dir` and return its rows.
fn build_fixture(dir: &Path, backend: &BackendFactory) -> Result<Vec<RowRecord>, String> {
    let _ = fs::remove_dir_all(dir); // blockdec-lint: allow(layering) — scratch-dir teardown; no store data flows through this path
    let mut store = BlockStore::create_with(backend(dir)).map_err(|e| e.to_string())?;
    store.intern_producer("self-test-major");
    store.intern_producer("self-test-minor");
    let rows = fixture_rows();
    for chunk in rows.chunks(20) {
        store.append_rows(chunk).map_err(|e| e.to_string())?;
        store.flush().map_err(|e| e.to_string())?;
    }
    Ok(rows)
}

/// One self-test round-trip: build fixture → `inject` → detect
/// `expect` → repair → verify clean, and verify a strict scan returns
/// exactly the clean rows minus `lost` (an inclusive height range).
#[allow(clippy::too_many_arguments)]
fn run_case(
    base: &Path,
    backend: &BackendFactory,
    progress: &mut dyn FnMut(&str),
    label: &str,
    expect: FaultKind,
    lost: Option<(u64, u64)>,
    inject: impl FnOnce(&mut FaultInjector) -> Result<(), StoreError>,
) -> Result<(), String> {
    let dir = base.join(format!("case-{label}"));
    let rows = build_fixture(&dir, backend)?;
    let mut inj = FaultInjector::new(&dir, 0xB10C_DEC0 + label.len() as u64);
    inject(&mut inj).map_err(|e| format!("{label}: inject: {e}"))?;
    let store = detect_and_repair(&dir, backend, label, &[expect])?;
    let expected: Vec<RowRecord> = rows
        .into_iter()
        .filter(|r| lost.is_none_or(|(lo, hi)| r.height < lo || r.height > hi))
        .collect();
    let surviving = scan_equals(&store, label, &expected)?;
    progress(&format!(
        "self-test {label}: detected {}, repaired, {surviving} rows surviving",
        expect.label()
    ));
    Ok(())
}

/// Check the store at `dir`, which must detect every kind in `expect`,
/// repair it, require a clean post-repair check, and reopen it.
fn detect_and_repair(
    dir: &Path,
    backend: &BackendFactory,
    label: &str,
    expect: &[FaultKind],
) -> Result<BlockStore, String> {
    let doctor = StoreDoctor::with_backend(backend(dir));
    let report = doctor.check().map_err(|e| format!("{label}: check: {e}"))?;
    if let Some(missed) = expect.iter().find(|&&kind| !report.has(kind)) {
        return Err(format!(
            "{label}: expected {} to be detected, got {:?}",
            missed.label(),
            report.kinds()
        ));
    }
    doctor
        .repair()
        .map_err(|e| format!("{label}: repair: {e}"))?;
    let post = doctor
        .check()
        .map_err(|e| format!("{label}: post-check: {e}"))?;
    if !post.is_clean() {
        return Err(format!(
            "{label}: still dirty after repair: {:?}",
            post.faults
        ));
    }
    BlockStore::open_with(backend(dir)).map_err(|e| format!("{label}: reopen: {e}"))
}

/// A strict scan of `store`, which must return exactly `expected`;
/// returns how many rows it did.
fn scan_equals(store: &BlockStore, label: &str, expected: &[RowRecord]) -> Result<usize, String> {
    let got = store
        .scan(&ScanPredicate::all())
        .map_err(|e| format!("{label}: post-repair scan: {e}"))?;
    if got != expected {
        return Err(format!(
            "{label}: post-repair scan returned {} rows, expected {}",
            got.len(),
            expected.len()
        ));
    }
    Ok(got.len())
}

/// Exercise every fault class end to end (inject → detect → repair →
/// verify) in scratch stores under `base`, with every doctor and store
/// operation going through backends built by `backend`. Each scenario
/// reports one human-readable line through `progress`.
pub fn run_self_test(
    base: &Path,
    backend: &BackendFactory,
    progress: &mut dyn FnMut(&str),
) -> Result<(), String> {
    let victim = segment_file_name(1); // heights 20..=39

    run_case(
        base,
        backend,
        progress,
        "truncation",
        FaultKind::Truncated,
        Some((20, 39)),
        |i| i.truncate(&victim),
    )?;
    run_case(
        base,
        backend,
        progress,
        "bit-flip",
        FaultKind::BitRot,
        Some((20, 39)),
        |i| i.flip_bit(&victim),
    )?;
    run_case(
        base,
        backend,
        progress,
        "bad-page",
        FaultKind::BadPage,
        Some((20, 39)),
        |i| i.corrupt_page_header(&victim),
    )?;
    run_case(
        base,
        backend,
        progress,
        "zone-drift",
        FaultKind::ZoneDrift,
        None,
        |i| i.drift_zone(&victim),
    )?;
    // Index corruption is recoverable: the pages behind the damaged
    // index stay intact, so repair salvages every row (lost = None).
    run_case(
        base,
        backend,
        progress,
        "bad-index",
        FaultKind::BadIndex,
        None,
        |i| i.corrupt_index(&victim),
    )?;
    run_case(
        base,
        backend,
        progress,
        "page-zone-drift",
        FaultKind::BadIndex,
        None,
        |i| i.drift_page_zone(&victim),
    )?;
    run_case(
        base,
        backend,
        progress,
        "missing-segment",
        FaultKind::MissingSegment,
        Some((20, 39)),
        |i| i.delete_segment(&victim),
    )?;
    run_case(
        base,
        backend,
        progress,
        "orphan",
        FaultKind::OrphanSegment,
        None,
        |i| i.orphan_copy(&segment_file_name(0), 77).map(|_| ()),
    )?;
    run_case(
        base,
        backend,
        progress,
        "missing-manifest",
        FaultKind::MissingManifest,
        None,
        |i| i.drop_manifest(),
    )?;
    run_case(
        base,
        backend,
        progress,
        "missing-dictionary",
        FaultKind::MissingDictionary,
        None,
        |i| i.drop_dictionary(),
    )?;
    run_case(
        base,
        backend,
        progress,
        "bad-dictionary",
        FaultKind::BadDictionary,
        None,
        |i| i.corrupt_dictionary(),
    )?;
    run_case(
        base,
        backend,
        progress,
        "torn-tmp",
        FaultKind::TornTemp,
        None,
        |i| i.torn_tmp(),
    )?;

    // Crash mid-flush: the segment file and dictionary commit, then the
    // manifest commit "crashes". The committed state must be intact and
    // the uncommitted segment must end up quarantined as an orphan.
    let crashed = [FaultKind::OrphanSegment, FaultKind::TornTemp];
    {
        let label = "crash-mid-flush";
        let dir = base.join("case-crash-mid-flush");
        let rows = build_fixture(&dir, backend)?;
        let mut store = BlockStore::open_with(backend(&dir)).map_err(|e| e.to_string())?;
        let extra: Vec<RowRecord> = (60..80).map(fixture_row).collect();
        store.append_rows(&extra).map_err(|e| e.to_string())?;
        let mut inj = FaultInjector::new(&dir, 7);
        inj.arm_crash_at_commit(3); // 1 = segment, 2 = dictionary, 3 = manifest
        if store.flush().is_ok() {
            return Err("crash-mid-flush: flush should have failed".into());
        }
        drop(store);
        let store = detect_and_repair(&dir, backend, label, &crashed)?;
        let surviving = scan_equals(&store, label, &rows)?;
        progress(&format!(
            "self-test crash-mid-flush: detected orphan-segment + torn-temp, repaired, {surviving} rows surviving"
        ));
    }

    // Crash mid-compaction: the replacement segment commits, then the
    // manifest commit "crashes". The committed pre-compaction catalog
    // must be untouched (no block lost), the half-written replacement
    // must be quarantined as an orphan, and a post-repair compaction
    // must complete with identical rows.
    {
        let label = "crash-mid-compaction";
        let dir = base.join("case-crash-mid-compaction");
        let rows = build_fixture(&dir, backend)?;
        let mut store = BlockStore::open_with(backend(&dir)).map_err(|e| e.to_string())?;
        let mut inj = FaultInjector::new(&dir, 9);
        // compact() = flush (dictionary commit, 1) + replacement
        // segment write (2) + manifest commit (3).
        inj.arm_crash_at_commit(3);
        if store.compact().is_ok() {
            return Err("crash-mid-compaction: compact should have failed".into());
        }
        drop(store);
        let mut store = detect_and_repair(&dir, backend, label, &crashed)?;
        scan_equals(&store, label, &rows)?;
        // The retry after recovery completes and changes nothing.
        if !store.compact().map_err(|e| e.to_string())? {
            return Err("crash-mid-compaction: retry compaction was a no-op".into());
        }
        let after = scan_equals(&store, label, &rows)?;
        progress(&format!(
            "self-test crash-mid-compaction: committed state intact, repaired, retry compacted {after} rows"
        ));
    }

    Ok(())
}

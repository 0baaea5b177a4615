//! Compaction: merge runs of small, height-adjacent segments into
//! full-size sorted v3 segments.
//!
//! Repeated `flush` calls seal whatever happens to be buffered, so a
//! long ingest leaves a tail of under-filled segments behind. Each one
//! costs a file open, a header/index parse, and per-page CRC work on
//! every scan that touches its height range — and tiny segments make
//! page-group pruning useless because a 40-row segment has one page
//! group no matter what. Compaction rewrites such runs into
//! [`SEGMENT_ROWS`]-sized segments whose page-group zone maps and
//! producer bloom filters actually earn their keep.
//!
//! # Planning
//!
//! A segment is *small* when it holds fewer than [`SEGMENT_ROWS`] rows.
//! The planner walks the catalog in order and collects maximal runs of
//! adjacent small segments; a run is merged only when the merge strictly
//! shrinks the segment count (`ceil(sum_rows / SEGMENT_ROWS) < run_len`),
//! which also means it has at least two members. Everything else — full
//! segments, lone stragglers, runs already at their ideal packing — is
//! left untouched, so compaction is idempotent: a second pass over
//! compacted output plans nothing.
//!
//! # Crash safety
//!
//! Execution reuses the store's atomic commit machinery and keeps the
//! manifest as the single commit point:
//!
//! 1. every replacement segment is written to a **fresh** id via
//!    [`write_segment_file`] (write-temp + fsync + rename) — no live
//!    file name is ever reused;
//! 2. one [`Manifest::save`] splices all replacements in atomically;
//! 3. only then are the superseded files removed, best-effort.
//!
//! A crash before step 2 leaves the committed catalog untouched and the
//! new files as orphans; a crash after it leaves the old files as
//! orphans. Either way [`crate::doctor::StoreDoctor`] quarantines the
//! orphans and no committed row is lost.

use crate::backend::ObjectStore;
use crate::catalog::{segment_file_name, Manifest, SegmentMeta};
use crate::error::Result;
use crate::row::RowRecord;
use crate::segment::{read_segment_file, write_segment_file, SEGMENT_ROWS};
use std::ops::Range;

/// Plan and execute one compaction pass over `manifest` through
/// `store`: merge every eligible run, commit the spliced manifest once,
/// then drop the superseded files. Returns `false` when the plan is
/// empty (nothing written, manifest untouched).
pub(crate) fn compact(store: &dyn ObjectStore, manifest: &mut Manifest) -> Result<bool> {
    let runs = plan_runs(&manifest.segments);
    if runs.is_empty() {
        return Ok(false);
    }
    let _t = blockdec_obs::span!("stage.compact", runs = runs.len());
    let (mut segments_in, mut segments_out, mut rows_moved) = (0, 0, 0u64);
    let mut replacements: Vec<(Range<usize>, Vec<SegmentMeta>)> = Vec::new();
    let mut old_files: Vec<String> = Vec::new();
    let mut next_id = manifest.next_segment_id;
    for run in runs {
        let mut rows: Vec<RowRecord> = Vec::new();
        for seg in &manifest.segments[run.clone()] {
            rows.extend(read_segment_file(store, &seg.file)?);
            old_files.push(seg.file.clone());
        }
        let mut metas = Vec::new();
        for chunk in rows.chunks(SEGMENT_ROWS) {
            let file = segment_file_name(next_id);
            next_id += 1;
            metas.push(write_segment_file(store, &file, chunk)?);
        }
        segments_in += run.len();
        segments_out += metas.len();
        rows_moved += rows.len() as u64;
        replacements.push((run, metas));
    }
    // Splice later runs first so earlier ranges stay valid, then commit
    // everything in a single atomic manifest replace.
    for (run, metas) in replacements.into_iter().rev() {
        manifest.segments.splice(run, metas);
    }
    manifest.next_segment_id = next_id;
    manifest.save(store)?;
    // The old files are garbage once the commit lands; a removal failure
    // only leaves an orphan for the doctor to quarantine.
    for file in &old_files {
        let _ = store.remove(file);
    }
    blockdec_obs::counter("store.compact.runs").inc();
    blockdec_obs::counter("store.compact.segments_in").add(segments_in as u64);
    blockdec_obs::counter("store.compact.segments_out").add(segments_out as u64);
    blockdec_obs::counter("store.compact.rows").add(rows_moved);
    blockdec_obs::info!(
        segments_in = segments_in,
        segments_out = segments_out,
        rows = rows_moved;
        "compaction pass complete"
    );
    Ok(true)
}

/// Find the maximal runs of adjacent small segments whose merge shrinks
/// the segment count.
fn plan_runs(segments: &[SegmentMeta]) -> Vec<Range<usize>> {
    let small = |s: &SegmentMeta| s.zone.rows < SEGMENT_ROWS as u64;
    let mut runs = Vec::new();
    let mut i = 0;
    while i < segments.len() {
        if !small(&segments[i]) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < segments.len() && small(&segments[j]) {
            j += 1;
        }
        let sum: u64 = segments[i..j].iter().map(|s| s.zone.rows).sum();
        let packed = (sum as usize).div_ceil(SEGMENT_ROWS).max(1);
        if packed < j - i {
            runs.push(i..j);
        }
        i = j;
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::ProducerFilter;
    use crate::zonemap::ZoneMap;

    fn meta(rows: u64) -> SegmentMeta {
        SegmentMeta {
            file: String::new(),
            zone: ZoneMap {
                min_height: 0,
                max_height: 0,
                min_time: 0,
                max_time: 0,
                rows,
            },
            crc: 0,
            producers: ProducerFilter::from_producers(&[0]),
        }
    }

    fn plan(rows: &[u64]) -> Vec<Range<usize>> {
        let segs: Vec<SegmentMeta> = rows.iter().map(|&r| meta(r)).collect();
        plan_runs(&segs)
    }

    const FULL: u64 = SEGMENT_ROWS as u64;

    #[test]
    fn full_segments_are_never_planned() {
        assert!(plan(&[FULL, FULL, FULL]).is_empty());
    }

    #[test]
    fn small_run_between_full_segments_is_planned() {
        let runs = plan(&[FULL, 10, 10, 10, FULL]);
        assert_eq!(runs, vec![1..4]);
    }

    #[test]
    fn lone_small_segment_is_left_alone() {
        assert!(plan(&[FULL, 10, FULL]).is_empty());
        assert!(plan(&[10]).is_empty());
    }

    #[test]
    fn run_that_would_not_shrink_is_skipped() {
        // Two near-full segments pack into two segments: no benefit.
        let runs = plan(&[FULL - 1, FULL - 1]);
        assert!(runs.is_empty());
        // But two half-full segments pack into one.
        let runs = plan(&[FULL / 2, FULL / 2]);
        assert_eq!(runs, vec![0..2]);
    }

    #[test]
    fn multiple_runs_are_all_planned() {
        let runs = plan(&[10, 10, FULL, 20, 20, 20]);
        assert_eq!(runs, vec![0..2, 3..6]);
    }
}

//! A long-lived handle's scans equal a fresh handle's. Pruned scans
//! reuse the decoders of the handle's earlier pruned scans, so one
//! handle here interleaves every kind of scan: pruned scans of seeded
//! time windows, a producer filter and a height range; unconstrained
//! scans; and strict scans that fail on a bit-flipped segment, each
//! followed by the same scan degraded. Every result (columns,
//! [`ScanStats`], error text) must equal the same scan on a freshly
//! opened handle, at one decode thread and at one per CPU, in sequence
//! and from four threads scanning the one handle at once.

use blockdec_chain::hash::splitmix64;
use blockdec_chain::BlockColumns;
use blockdec_store::catalog::segment_file_name;
use blockdec_store::segment::{parse_index, FOOTER_LEN, PAGE_GROUP_ROWS};
use blockdec_store::{BlockStore, RowRecord, ScanOptions, ScanPredicate, ScanStats};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

const START: i64 = 1_546_300_800;
const DAY: i64 = 86_400;
/// One block a minute for two weeks.
const BLOCKS: u64 = 14 * 1_440;
/// Rows per flushed segment: each segment holds two page groups, of
/// `PAGE_GROUP_ROWS` and 904 rows.
const FLUSH_ROWS: usize = 5_000;
/// The segment whose bytes get one bit flipped.
const CORRUPT_SEGMENT: usize = 2;
/// Where each test flips a bit in the corrupt segment's second page
/// group, as thirds of the group's extent, so that a strict scan of the
/// segment's heights fails mid-segment, after decoding the first group.
const FLIP_THIRDS: [usize; 2] = [1, 2];

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "blockdec-warm-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Flush two weeks of blocks in `FLUSH_ROWS`-row segments. Every
/// seventh height pays two producers, so some blocks straddle a segment
/// boundary. Returns the rows.
fn build_fixture(dir: &Path) -> Vec<RowRecord> {
    let mut store = BlockStore::create(dir).unwrap();
    let pools: Vec<u32> = (0..6)
        .map(|i| store.intern_producer(&format!("pool-{i}")))
        .collect();
    let mut rows = Vec::new();
    for h in 0..BLOCKS {
        let credits = if h.is_multiple_of(7) { 2 } else { 1 };
        for c in 0..credits {
            // Skewed shares: pool-0 mines about half the blocks.
            let draw = splitmix64(h * 2 + c) % 16;
            let pool = if draw < 8 { 0 } else { 1 + draw % 5 } as usize;
            rows.push(RowRecord {
                height: h,
                timestamp: START + h as i64 * 60,
                producer: pools[pool],
                credit_millis: 1000 / credits as u32,
                tx_count: (draw * 3) as u32,
                size_bytes: 0,
                difficulty: 0,
            });
        }
    }
    for chunk in rows.chunks(FLUSH_ROWS) {
        store.append_rows(chunk).unwrap();
        store.flush().unwrap();
    }
    rows
}

/// One scan: a predicate, strict or degraded options, and whether a
/// residual filter keeps only even `tx_count`s.
#[derive(Clone, Copy, Debug)]
struct Scan {
    pred: ScanPredicate,
    degraded: bool,
    residual: bool,
}

type Outcome = Result<(BlockColumns, ScanStats), String>;

impl Scan {
    fn run(&self, store: &BlockStore, threads: usize) -> Outcome {
        let opts = if self.degraded {
            ScanOptions::degraded()
        } else {
            ScanOptions::strict()
        }
        .with_threads(threads);
        let scanned = if self.residual {
            store.scan_columnar_with(&self.pred, opts, |r| r.tx_count.is_multiple_of(2))
        } else {
            store.scan_columnar_with(&self.pred, opts, |_| true)
        };
        scanned.map_err(|e| e.to_string())
    }
}

/// The rows of the corrupt segment.
fn corrupt_rows(rows: &[RowRecord]) -> &[RowRecord] {
    &rows[CORRUPT_SEGMENT * FLUSH_ROWS..(CORRUPT_SEGMENT + 1) * FLUSH_ROWS]
}

/// Build the fixture in `dir` and flip one bit of the corrupt segment's
/// second page group, `thirds` thirds of the way into its extent (from
/// its offset to the index block). Returns the rows.
fn corrupt_fixture(dir: &Path, thirds: usize) -> Vec<RowRecord> {
    let rows = build_fixture(dir);
    let path = dir.join(segment_file_name(CORRUPT_SEGMENT as u64));
    let mut bytes = fs::read(&path).unwrap();
    let index = parse_index(&bytes, "fixture").unwrap();
    assert_eq!(index.groups.len(), 2);
    let start = index.groups[1].offset as usize;
    // The index block's offset is the word before the footer.
    let index_off = bytes.len() - FOOTER_LEN - 4;
    let index_off = u32::from_le_bytes(bytes[index_off..][..4].try_into().unwrap()) as usize;
    let at = start + (index_off - start) * thirds / 3;
    bytes[at] ^= 0x10;
    fs::write(&path, &bytes).unwrap();
    let segment = corrupt_rows(&rows);
    let heights = |from: usize, to: usize| {
        ScanPredicate::all().heights(segment[from].height, segment[to - 1].height)
    };
    // The first group decodes, the second does not.
    let store = BlockStore::open(dir).unwrap();
    assert!(store.scan(&heights(0, PAGE_GROUP_ROWS)).is_ok());
    assert!(store
        .scan(&heights(PAGE_GROUP_ROWS + 1, FLUSH_ROWS))
        .is_err());
    rows
}

/// The interleaved scans, each strict one followed by the same scan
/// degraded.
fn scans(rows: &[RowRecord]) -> Vec<Scan> {
    let strict = |pred| Scan {
        pred,
        degraded: false,
        residual: false,
    };
    let mut seed = 7919;
    let mut window = |days: i64| {
        seed = splitmix64(seed);
        let lo = START + (seed % (14 - days) as u64) as i64 * DAY + (seed >> 40) as i64 % DAY;
        ScanPredicate::all().times(lo, lo + days * DAY - 1)
    };
    let corrupt = corrupt_rows(rows);
    let corrupt_heights =
        ScanPredicate::all().heights(corrupt[0].height, corrupt[corrupt.len() - 1].height);
    let mut list = vec![
        strict(window(1)),
        strict(ScanPredicate::all()),
        strict(window(3)),
        strict(ScanPredicate::all().producer(3)),
        strict(corrupt_heights),
        strict(window(7)),
        strict(ScanPredicate::all().heights(2_500, 12_345)),
        Scan {
            residual: true,
            ..strict(window(3))
        },
        strict(window(1)),
        strict(
            ScanPredicate::all()
                .producer(0)
                .times(START, START + 5 * DAY),
        ),
    ];
    let degraded: Vec<Scan> = list
        .iter()
        .map(|s| Scan {
            degraded: true,
            ..*s
        })
        .collect();
    // Interleave: strict, degraded copy of the scan before it, strict, …
    for (i, d) in degraded.into_iter().enumerate() {
        list.insert(2 * i + 1, d);
    }
    list
}

/// What a freshly opened handle returns for each scan.
fn fresh_outcomes(dir: &Path, scans: &[Scan], threads: usize) -> Vec<Outcome> {
    scans
        .iter()
        .map(|s| s.run(&BlockStore::open(dir).unwrap(), threads))
        .collect()
}

#[test]
fn a_long_lived_handle_scans_like_a_fresh_one() {
    let dir = tmp_dir("interleave");
    let rows = corrupt_fixture(&dir, FLIP_THIRDS[0]);
    let scans = scans(&rows);

    let store = BlockStore::open(&dir).unwrap();
    assert_eq!(store.segment_count(), rows.len().div_ceil(FLUSH_ROWS));
    for threads in [1, 0] {
        let want = fresh_outcomes(&dir, &scans, threads);
        // The fixture must exercise what the test is about: strict
        // scans that fail on the corrupt segment, degraded scans that
        // skip it, and pruned scans that return rows.
        let failed = want.iter().filter(|o| o.is_err()).count();
        assert!(
            failed >= 2,
            "threads={threads}: {failed} strict scans failed"
        );
        assert!(want
            .iter()
            .zip(&scans)
            .any(|(o, s)| s.degraded && o.as_ref().is_ok_and(|(_, st)| st.segments_skipped == 1)));
        assert!(want
            .iter()
            .zip(&scans)
            .any(|(o, s)| s.pred.can_prune() && o.as_ref().is_ok_and(|(c, _)| !c.is_empty())));
        // Twice over, so the second round runs on decoders every scan
        // kind has already used.
        for round in 0..2 {
            for (i, (scan, want)) in scans.iter().zip(&want).enumerate() {
                assert!(
                    scan.run(&store, threads) == *want,
                    "threads={threads} round={round} scan {i} ({scan:?}) differs from a fresh handle"
                );
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_scans_of_one_handle_equal_fresh_ones() {
    let dir = tmp_dir("concurrent");
    let rows = corrupt_fixture(&dir, FLIP_THIRDS[1]);
    let scans = scans(&rows);
    // Every decode thread count gives the same outcome, so one fresh
    // reference serves both.
    let want = fresh_outcomes(&dir, &scans, 1);

    let store = BlockStore::open(&dir).unwrap();
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let (store, scans, want, start) = (&store, &scans, &want, &start);
            scope.spawn(move || {
                // All four start together, each at its own place in the
                // list, so different kinds of scan overlap in time.
                start.wait();
                for k in 0..2 * scans.len() {
                    let i = (k + worker * 3) % scans.len();
                    let threads = k % 2;
                    assert!(
                        scans[i].run(store, threads) == want[i],
                        "worker {worker}: scan {i} ({:?}) at threads={threads} differs",
                        scans[i]
                    );
                }
            });
        }
    });
    let _ = fs::remove_dir_all(&dir);
}

//! The public store API: [`BlockStore`].

use crate::backend::{get_retry, LocalFs, ObjectStore, PageCache, PageCacheStats};
use crate::catalog::{segment_file_name, Manifest, SegmentMeta, MANIFEST_NAME};
use crate::compactor;
use crate::dictionary::{load_dictionary, save_dictionary, DICTIONARY_NAME};
use crate::error::{Result, StoreError};
use crate::row::{weight_to_millis, RowRecord};
use crate::segment::{write_segment_file, PrunedDecode, SegmentDecoder, SEGMENT_ROWS};
use crate::zonemap::ZoneMap;
use blockdec_chain::{AttributedBlock, BlockColumns, ProducerId, ProducerRegistry, Timestamp};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// Filter for [`BlockStore::scan`]. All bounds are inclusive; `None`
/// means unconstrained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanPredicate {
    /// Height range.
    pub heights: Option<(u64, u64)>,
    /// Timestamp range (seconds).
    pub times: Option<(i64, i64)>,
    /// Restrict to a single producer id.
    pub producer: Option<u32>,
}

impl ScanPredicate {
    /// Match everything.
    pub fn all() -> ScanPredicate {
        ScanPredicate::default()
    }

    /// Restrict to a height range (inclusive).
    pub fn heights(mut self, lo: u64, hi: u64) -> Self {
        self.heights = Some((lo, hi));
        self
    }

    /// Restrict to a timestamp range (inclusive).
    pub fn times(mut self, lo: i64, hi: i64) -> Self {
        self.times = Some((lo, hi));
        self
    }

    /// Restrict to one producer.
    pub fn producer(mut self, id: u32) -> Self {
        self.producer = Some(id);
        self
    }

    /// Row-level test.
    pub fn matches(&self, row: &RowRecord) -> bool {
        if let Some((lo, hi)) = self.heights {
            if row.height < lo || row.height > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.times {
            if row.timestamp < lo || row.timestamp > hi {
                return false;
            }
        }
        if let Some(p) = self.producer {
            if row.producer != p {
                return false;
            }
        }
        true
    }

    /// True when the predicate can skip page groups inside a segment —
    /// i.e. any bound is set. The unconstrained predicate decodes every
    /// row anyway, so a ranged (page-by-page) read would only add
    /// round-trips over fetching the whole object once.
    pub fn can_prune(&self) -> bool {
        self.heights.is_some() || self.times.is_some() || self.producer.is_some()
    }

    /// Segment-level test against a zone map.
    pub fn may_match(&self, zone: &ZoneMap) -> bool {
        if let Some((lo, hi)) = self.heights {
            if !zone.overlaps_heights(lo, hi) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.times {
            if !zone.overlaps_times(lo, hi) {
                return false;
            }
        }
        true
    }
}

/// Why a segment can be skipped without opening its file, if it can.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Prune {
    /// The segment may hold matching rows — it must be read.
    No,
    /// The zone map proves no row is in the predicate's height/time range.
    Zone,
    /// The producer bloom filter proves the scanned producer is absent.
    Bloom,
}

/// Decide segment-level pruning from manifest metadata alone: the zone
/// map first (cheapest), then the mirrored producer bloom filter. Both
/// are conservative — a pruned segment provably holds no matching row.
fn prune_segment(pred: &ScanPredicate, seg: &SegmentMeta) -> Prune {
    if !pred.may_match(&seg.zone) {
        return Prune::Zone;
    }
    if let Some(p) = pred.producer {
        if !seg.producers.contains(p) {
            return Prune::Bloom;
        }
    }
    Prune::No
}

/// Pruning statistics of one scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Sealed segments in the catalog.
    pub segments_total: usize,
    /// Segments skipped without being opened — by zone-map pruning or a
    /// producer bloom miss (the bloom subset is also in
    /// [`ScanStats::bloom_skips`]).
    pub segments_pruned: usize,
    /// Segments skipped because the manifest's producer bloom filter
    /// proved the scanned producer absent (never a false skip: bloom
    /// filters have no false negatives).
    pub bloom_skips: usize,
    /// CRC-framed column pages skipped *inside* decoded segments via the
    /// v3 per-group index zones and group blooms.
    pub pages_pruned: u64,
    /// Unreadable segments skipped by a degraded scan (always 0 for a
    /// strict scan, which errors instead). See [`ScanOptions`].
    pub segments_skipped: usize,
    /// Rows returned.
    pub rows_returned: u64,
}

/// Read-path behavior knobs for scans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanOptions {
    /// When true, a segment that fails to read or decode is skipped
    /// (counted in [`ScanStats::segments_skipped`] and in the
    /// `store.fault.segments_skipped` counter) instead of aborting the
    /// scan — a *degraded* scan that returns every surviving row.
    pub skip_corrupt: bool,
    /// Decode worker threads for columnar scans
    /// ([`BlockStore::scan_columnar_with`]): `0` means one per available
    /// CPU, `1` decodes inline on the calling thread. Row scans
    /// ([`BlockStore::scan_with_options`]) always run on the calling
    /// thread and ignore this.
    pub threads: usize,
}

impl ScanOptions {
    /// Strict scanning (the default): any unreadable segment is an error.
    pub fn strict() -> ScanOptions {
        ScanOptions::default()
    }

    /// Degraded scanning: skip unreadable segments, return survivors.
    pub fn degraded() -> ScanOptions {
        ScanOptions {
            skip_corrupt: true,
            ..ScanOptions::default()
        }
    }

    /// Same options with an explicit columnar decode thread count.
    pub fn with_threads(mut self, threads: usize) -> ScanOptions {
        self.threads = threads;
        self
    }
}

/// An embedded columnar block store rooted at a directory.
///
/// ```
/// use blockdec_store::{BlockStore, RowRecord, ScanPredicate};
/// let dir = std::env::temp_dir().join(format!("blockdec-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut store = BlockStore::create(&dir).unwrap();
/// let pool = store.intern_producer("F2Pool");
/// store.append_rows(&[RowRecord {
///     height: 556_459,
///     timestamp: 1_546_300_800,
///     producer: pool,
///     credit_millis: 1_000,
///     tx_count: 2_500,
///     size_bytes: 1_100_000,
///     difficulty: 5_618_595_848_853,
/// }]).unwrap();
/// store.flush().unwrap();
/// let rows = store.scan(&ScanPredicate::all().heights(556_000, 557_000)).unwrap();
/// assert_eq!(rows.len(), 1);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct BlockStore {
    store: Arc<dyn ObjectStore>,
    manifest: Manifest,
    registry: ProducerRegistry,
    pages: PageCache,
    active: Vec<RowRecord>,
    last_height: Option<u64>,
    scan_threads: usize,
    /// [`BlockStore::append_attributed`]'s source-to-store producer id
    /// map, kept across calls. An entry is trusted only while the store
    /// id still carries the source id's name.
    remap: Vec<u32>,
    /// Decoders of finished pruned scans, warm for the next ones; see
    /// [`BlockStore::read_segments`].
    decoders: Mutex<Vec<SegmentDecoder>>,
}

/// Page-cache capacity of a new handle, in bytes (64 MiB); change it
/// with [`BlockStore::set_page_cache_bytes`].
const DEFAULT_PAGE_CACHE_BYTES: usize = 64 * 1024 * 1024;

fn fresh_handle(store: Arc<dyn ObjectStore>, manifest: Manifest) -> BlockStore {
    let last_height = manifest.segments.last().map(|s| s.zone.max_height);
    BlockStore {
        store,
        manifest,
        registry: ProducerRegistry::new(),
        pages: PageCache::new(DEFAULT_PAGE_CACHE_BYTES),
        active: Vec::new(),
        last_height,
        scan_threads: 0,
        remap: Vec::new(),
        decoders: Mutex::new(Vec::new()),
    }
}

impl BlockStore {
    /// Create a new store in `dir` (created if missing; must not already
    /// contain a manifest).
    pub fn create(dir: impl AsRef<Path>) -> Result<BlockStore> {
        BlockStore::create_with(Arc::new(LocalFs::new(dir)))
    }

    /// [`BlockStore::create`] over an explicit [`ObjectStore`] backend.
    pub fn create_with(backend: Arc<dyn ObjectStore>) -> Result<BlockStore> {
        backend.create_root()?;
        if backend.exists(MANIFEST_NAME) {
            return Err(StoreError::InvalidAppend(format!(
                "store already exists at {}",
                backend.describe_root()
            )));
        }
        let store = fresh_handle(backend, Manifest::new());
        store.manifest.save(store.store.as_ref())?;
        save_dictionary(store.store.as_ref(), &store.registry)?;
        Ok(store)
    }

    /// Open an existing store.
    ///
    /// Recovers from interrupted commits first: stale `*.tmp` crash
    /// artifacts are swept into quarantine (the previous committed state
    /// is what the manifest describes), and a store whose manifest
    /// commits zero rows may be missing its dictionary (crash between
    /// `create`'s two commits) — an empty dictionary is recreated in
    /// that case.
    pub fn open(dir: impl AsRef<Path>) -> Result<BlockStore> {
        BlockStore::open_with(Arc::new(LocalFs::new(dir)))
    }

    /// [`BlockStore::open`] over an explicit [`ObjectStore`] backend.
    pub fn open_with(backend: Arc<dyn ObjectStore>) -> Result<BlockStore> {
        let swept = backend.sweep_temps()?;
        if swept > 0 {
            blockdec_obs::warn!(
                swept = swept;
                "quarantined stale temp files from an interrupted commit"
            );
        }
        let manifest = Manifest::load(backend.as_ref())?;
        if !backend.exists(DICTIONARY_NAME) && manifest.total_rows() == 0 {
            save_dictionary(backend.as_ref(), &ProducerRegistry::new())?;
        }
        let registry = load_dictionary(backend.as_ref())?;
        let mut store = fresh_handle(backend, manifest);
        store.registry = registry;
        Ok(store)
    }

    /// Set the default decode thread count for this handle's columnar
    /// scans: `0` (the initial value) means one per available CPU, `1`
    /// forces sequential decoding. [`BlockStore::scan_options`] carries
    /// it; explicit [`ScanOptions`] passed to
    /// [`BlockStore::scan_columnar_with`] take precedence.
    pub fn set_scan_threads(&mut self, threads: usize) {
        self.scan_threads = threads;
    }

    /// This handle's default scan options: strict, with the decode
    /// thread count set by [`BlockStore::set_scan_threads`]. What
    /// [`BlockStore::scan_columnar`] scans with.
    pub fn scan_options(&self) -> ScanOptions {
        ScanOptions::strict().with_threads(self.scan_threads)
    }

    /// Open the store over `backend` if it has a manifest, otherwise
    /// create one there.
    pub fn open_or_create_with(backend: Arc<dyn ObjectStore>) -> Result<BlockStore> {
        if backend.exists(MANIFEST_NAME) {
            BlockStore::open_with(backend)
        } else {
            BlockStore::create_with(backend)
        }
    }

    /// Does nothing: the store's one cache is the page cache, sized by
    /// [`BlockStore::set_page_cache_bytes`]. Kept only because
    /// `perfbench/` still calls it; delete it once that call goes.
    pub fn set_cache_segments(&mut self, _capacity: usize) {}

    /// Resize the backend page cache (bytes; `0` disables caching).
    pub fn set_page_cache_bytes(&mut self, capacity: usize) {
        self.pages.set_capacity(capacity);
    }

    /// The backend this store reads and writes through.
    pub fn backend(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    /// The store's producer dictionary.
    pub fn registry(&self) -> &ProducerRegistry {
        &self.registry
    }

    /// Intern a producer name into the store's dictionary.
    pub fn intern_producer(&mut self, name: &str) -> u32 {
        self.registry.intern(name).0
    }

    /// Total rows (sealed + buffered).
    pub fn row_count(&self) -> u64 {
        self.manifest.total_rows() + self.active.len() as u64
    }

    /// Sealed segment count.
    pub fn segment_count(&self) -> usize {
        self.manifest.segments.len()
    }

    /// Rows buffered in memory, not yet sealed.
    pub fn buffered_rows(&self) -> usize {
        self.active.len()
    }

    /// Height of the last appended row (sealed or buffered); `None` for
    /// an empty store. Head-following ingestion uses this as the
    /// finalized watermark when it adopts an existing store.
    pub fn last_height(&self) -> Option<u64> {
        self.last_height
    }

    /// The last height once `rows` follow the rows already appended, or
    /// why they cannot.
    fn check_order(&self, rows: &[RowRecord]) -> Result<Option<u64>> {
        let mut last = self.last_height;
        for r in rows {
            if let Some(prev) = last {
                if r.height < prev {
                    return Err(StoreError::InvalidAppend(format!(
                        "height {} after {prev}: appends must be height-ordered",
                        r.height
                    )));
                }
            }
            if r.producer as usize >= self.registry.len() {
                return Err(StoreError::InvalidAppend(format!(
                    "producer id {} not in dictionary (len {})",
                    r.producer,
                    self.registry.len()
                )));
            }
            last = Some(r.height);
        }
        Ok(last)
    }

    /// Append raw rows (producer ids must already be interned via
    /// [`Self::intern_producer`]). Heights must be non-decreasing across
    /// the store's lifetime.
    pub fn append_rows(&mut self, rows: &[RowRecord]) -> Result<()> {
        self.last_height = self.check_order(rows)?;
        self.active.extend_from_slice(rows);
        self.seal_full_segments()
    }

    /// Append attributed blocks whose producer ids refer to
    /// `src_registry`; each id maps to the store id of the same name,
    /// interned into the store's own dictionary on first sight. Nothing
    /// is appended if a producer is missing from `src_registry` or a
    /// row fails the order check.
    pub fn append_attributed(
        &mut self,
        blocks: &[AttributedBlock],
        src_registry: &ProducerRegistry,
    ) -> Result<()> {
        let start = self.active.len();
        let checked = self
            .buffer_remapped(blocks, src_registry)
            .and_then(|()| self.check_order(&self.active[start..]));
        match checked {
            Ok(last) => self.last_height = last,
            Err(e) => {
                self.active.truncate(start);
                return Err(e);
            }
        }
        self.seal_full_segments()
    }

    /// Push one row per credit onto `active`, mapping producer ids from
    /// `src_registry` through the checked remap.
    fn buffer_remapped(
        &mut self,
        blocks: &[AttributedBlock],
        src_registry: &ProducerRegistry,
    ) -> Result<()> {
        for b in blocks {
            for c in &b.credits {
                let name = src_registry.name(c.producer).ok_or_else(|| {
                    StoreError::InvalidAppend(format!(
                        "producer {} missing from source registry",
                        c.producer
                    ))
                })?;
                let src = c.producer.index();
                let producer = match self.remap.get(src) {
                    Some(&m) if self.registry.name(ProducerId(m)) == Some(name) => m,
                    _ => {
                        let m = self.registry.intern(name).0;
                        if src >= self.remap.len() {
                            self.remap.resize(src + 1, u32::MAX);
                        }
                        self.remap[src] = m;
                        m
                    }
                };
                self.active.push(RowRecord {
                    height: b.height,
                    timestamp: b.timestamp.secs(),
                    producer,
                    credit_millis: weight_to_millis(c.weight),
                    tx_count: 0,
                    size_bytes: 0,
                    difficulty: 0,
                });
            }
        }
        Ok(())
    }

    /// Seal full segments off the front of the buffer to bound memory.
    fn seal_full_segments(&mut self) -> Result<()> {
        if self.active.len() < SEGMENT_ROWS {
            return Ok(());
        }
        self.seal_buffered(false)
    }

    /// Seal the buffer front to back as `SEGMENT_ROWS`-row segments,
    /// and with `tail` the short rest as a last one. Each segment is
    /// written from its slice of the buffer, and the committed prefix is
    /// drained once, so one large append copies only the short tail it
    /// leaves buffered. The first failed seal stops the loop: its chunk
    /// and every row after it stay buffered, so the handle still holds
    /// every row it accepted, and a later flush seals them again.
    fn seal_buffered(&mut self, tail: bool) -> Result<()> {
        let mut active = std::mem::take(&mut self.active);
        let mut sealed = 0;
        let result = active
            .chunks(SEGMENT_ROWS)
            .take_while(|chunk| tail || chunk.len() == SEGMENT_ROWS)
            .try_for_each(|chunk| {
                self.seal(chunk)?;
                sealed += chunk.len();
                Ok(())
            });
        active.drain(..sealed);
        self.active = active;
        result
    }

    /// Write `rows` as the next segment and commit it. A failed commit
    /// takes the segment back out of the handle's manifest, so a retry
    /// writes the same file name again.
    fn seal(&mut self, rows: &[RowRecord]) -> Result<()> {
        debug_assert!(!rows.is_empty());
        let id = self.manifest.next_segment_id;
        let meta = write_segment_file(self.store.as_ref(), &segment_file_name(id), rows)?;
        self.manifest.segments.push(meta);
        self.manifest.next_segment_id = id + 1;
        // Commit: dictionary first (superset is harmless), then manifest.
        let committed = save_dictionary(self.store.as_ref(), &self.registry)
            .and_then(|()| self.manifest.save(self.store.as_ref()));
        if committed.is_err() {
            self.manifest.segments.pop();
            self.manifest.next_segment_id = id;
        }
        // No cache invalidation: the page cache is keyed by content
        // identity (file name + footer CRC), so entries for superseded
        // bytes simply stop being addressed and age out.
        committed
    }

    /// Seal the buffered rows and commit: full segments first, then the
    /// short rest. Idempotent when the buffer is empty.
    pub fn flush(&mut self) -> Result<()> {
        let _t = blockdec_obs::span!("stage.store_flush", rows = self.active.len());
        if self.active.is_empty() {
            // Still persist dictionary growth from interning.
            return save_dictionary(self.store.as_ref(), &self.registry);
        }
        self.seal_buffered(true)?;
        // A flushed handle holds no buffer memory until its next append.
        self.active.shrink_to_fit();
        Ok(())
    }

    /// Scan rows matching a predicate, in height order.
    pub fn scan(&self, pred: &ScanPredicate) -> Result<Vec<RowRecord>> {
        Ok(self.scan_with_options(pred, ScanOptions::strict())?.0)
    }

    /// Materializing row scan under explicit [`ScanOptions`], with its
    /// pruning statistics. With [`ScanOptions::degraded`], an unreadable
    /// segment is skipped and counted ([`ScanStats::segments_skipped`],
    /// plus the `store.fault.segments_skipped` counter) instead of
    /// aborting — the scan yields every row of the surviving segments.
    /// Rows are decoded on the calling thread, so
    /// [`ScanOptions::threads`] is ignored.
    pub fn scan_with_options(
        &self,
        pred: &ScanPredicate,
        opts: ScanOptions,
    ) -> Result<(Vec<RowRecord>, ScanStats)> {
        let (mut sinks, stats) = self.scan_loop(
            pred,
            |selected| {
                let mut rows = Vec::new();
                let read = self.read_segments(selected, pred, opts.skip_corrupt, &mut |dec| {
                    let before = rows.len();
                    rows.extend(
                        (0..dec.len())
                            .map(|i| dec.row(i))
                            .filter(|r| pred.matches(r)),
                    );
                    (rows.len() - before) as u64
                });
                vec![(rows, read)]
            },
            |rows, r| rows.push(*r),
        )?;
        Ok((sinks.pop().unwrap_or_default(), stats))
    }

    /// Scan into attribution view (one [`AttributedBlock`] per height):
    /// the columnar scan, converted to blocks at the edge. Returns
    /// [`StoreError::InconsistentCatalog`] if the scan ever yields rows
    /// out of height order (a corrupt manifest, not a caller error).
    pub fn scan_attributed(&self, pred: &ScanPredicate) -> Result<Vec<AttributedBlock>> {
        Ok(self.scan_columnar(pred)?.to_blocks())
    }

    /// Scan straight into columnar form — the fastest read path in the
    /// store, and the one behind [`BlockStore::scan_attributed`] and the
    /// query layer. It runs the same scan loop as the row scans
    /// (zero-copy [`crate::segment::SegmentDecoder`] decodes into
    /// reusable scratch) and appends each decoded segment's kept rows to
    /// [`BlockColumns`] as runs of consecutive rows
    /// (`SegmentDecoder::append_matching`), never materializing a
    /// `Vec<RowRecord>`. The unconstrained scan reserves its output once,
    /// for the selected segments' manifest row counts, each capped at
    /// [`SEGMENT_ROWS`]. With more than one decode thread the selected
    /// segments are split into contiguous chunks, each worker builds a
    /// partial column set, and the partials are stitched back in height
    /// order.
    ///
    /// The result is bitwise-identical to the sequential row scan
    /// regrouped through [`BlockColumns::push_row`], at any thread count.
    /// It is [`BlockStore::scan_columnar_with`] under
    /// [`BlockStore::scan_options`], keeping every row.
    pub fn scan_columnar(&self, pred: &ScanPredicate) -> Result<BlockColumns> {
        self.scan_columnar_with(pred, self.scan_options(), |_| true)
            .map(|(cols, _)| cols)
    }

    /// The fully explicit columnar scan: predicate, [`ScanOptions`]
    /// (degraded mode and decode thread count), and a residual row
    /// filter the zone-mapped predicate cannot express (the query
    /// layer's). Rows rejected by `keep` never reach the columns; the
    /// filter must be `Sync`, as decode workers apply it in parallel.
    /// Returns the columns plus [`ScanStats`].
    ///
    /// Exactness contract: for any fixed store state, predicate, filter,
    /// and `skip_corrupt` setting, every thread count yields the same
    /// `BlockColumns`, the same stats, and the same error (the first
    /// unreadable segment in catalog order under strict options; the
    /// first out-of-order height pair in scan order otherwise; then the
    /// first credit in scan order whose producer id lies outside the
    /// store's dictionary).
    ///
    /// ```
    /// use blockdec_store::{BlockStore, RowRecord, ScanOptions, ScanPredicate};
    /// let dir = std::env::temp_dir().join(format!("blockdec-doc-par-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let mut store = BlockStore::create(&dir).unwrap();
    /// let pool = store.intern_producer("Ethermine");
    /// let rows: Vec<RowRecord> = (0..100)
    ///     .map(|h| RowRecord {
    ///         height: h,
    ///         timestamp: 1_546_300_800 + h as i64 * 13,
    ///         producer: pool,
    ///         credit_millis: 1_000,
    ///         tx_count: 120,
    ///         size_bytes: 30_000,
    ///         difficulty: 1,
    ///     })
    ///     .collect();
    /// for chunk in rows.chunks(40) {
    ///     store.append_rows(chunk).unwrap();
    ///     store.flush().unwrap();
    /// }
    /// let pred = ScanPredicate::all();
    /// let (sequential, _) = store
    ///     .scan_columnar_with(&pred, ScanOptions::strict().with_threads(1), |_| true)
    ///     .unwrap();
    /// let (parallel, stats) = store
    ///     .scan_columnar_with(&pred, ScanOptions::strict().with_threads(2), |_| true)
    ///     .unwrap();
    /// assert_eq!(parallel, sequential);
    /// assert_eq!(stats.rows_returned, 100);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn scan_columnar_with(
        &self,
        pred: &ScanPredicate,
        opts: ScanOptions,
        keep: impl Fn(&RowRecord) -> bool + Sync,
    ) -> Result<(BlockColumns, ScanStats)> {
        let push = |cols: &mut BlockColumns, r: &RowRecord| {
            if keep(r) {
                cols.push_row(
                    r.height,
                    Timestamp(r.timestamp),
                    ProducerId(r.producer),
                    r.credit(),
                );
            }
        };
        // The unconstrained scan keeps at most every row of the selected
        // segments and of the active buffer, so its output is reserved
        // once. A segment's manifest row count is trusted only up to the
        // SEGMENT_ROWS that decode accepts, so a lying manifest cannot
        // ask for more.
        let reserve = |segs: &[&SegmentMeta], buffered: usize| -> usize {
            if pred.can_prune() {
                return 0;
            }
            segs.iter()
                .map(|s| s.zone.rows.min(SEGMENT_ROWS as u64) as usize)
                .sum::<usize>()
                + buffered
        };
        let (partials, stats) = self.scan_loop(
            pred,
            |selected| {
                let read = |segs: &[&SegmentMeta], rows: usize| {
                    let mut cols = BlockColumns::with_capacity(rows, rows);
                    let read = self.read_segments(segs, pred, opts.skip_corrupt, &mut |dec| {
                        dec.append_matching(&mut cols, pred, &keep)
                    });
                    (cols, read)
                };
                // The first chunk's columns are the stitch target, so they
                // are reserved for the whole selection.
                let whole = reserve(selected, self.active.len());
                let threads = effective_scan_threads(opts.threads, selected.len());
                if threads <= 1 {
                    return vec![read(selected, whole)];
                }
                let per_chunk = selected.len().div_ceil(threads);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = selected
                        .chunks(per_chunk)
                        .enumerate()
                        .map(|(c, segs)| {
                            let rows = if c == 0 { whole } else { reserve(segs, 0) };
                            scope.spawn(move || read(segs, rows))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("decode worker never panics")) // blockdec-lint: allow(panic) — join only fails by propagating a worker panic; nothing to recover
                        .collect()
                })
            },
            push,
        )?;

        // Stitch into the first partial: a one-chunk scan returns its
        // columns without a copy.
        let mut partials = partials.into_iter();
        let mut cols = partials.next().unwrap_or_default();
        for p in partials {
            cols.append_columns(p.as_slice());
        }
        // Each accepted row either joins the last block (same height) or
        // starts a new one, and stitching merges a straddling block, so
        // the first decreasing pair of blocks is the first out-of-order
        // pair of rows in scan order, at any thread count. The whole
        // column is checked first; that pair is looked for only when the
        // check fails.
        let view = cols.as_slice();
        let heights = view.heights();
        if !heights.is_sorted() {
            if let Some(i) = (1..heights.len()).find(|&i| heights[i] < heights[i - 1]) {
                return Err(StoreError::InconsistentCatalog(format!(
                    "scan yielded rows out of height order: height {} after {}",
                    heights[i],
                    heights[i - 1]
                )));
            }
        }
        // Appends reject ids outside the dictionary, so only a damaged
        // catalog yields one (fsck: `unknown-producer`). Readers size
        // dense per-id slots by these ids (the producer distributions,
        // the query fold), so an unchecked id could ask for gigabytes.
        // The largest id is checked first; the first id out of range is
        // looked for only when that one is.
        let n = self.registry.len();
        let (producers, _) = view.credits_in(0..view.len());
        if producers
            .iter()
            .map(|p| p.index())
            .max()
            .is_some_and(|max| max >= n)
        {
            if let Some(p) = producers.iter().find(|p| p.index() >= n) {
                return Err(StoreError::InconsistentCatalog(format!(
                    "producer id {} outside dictionary (len {n})",
                    p.0
                )));
            }
        }
        debug_assert!(cols.validate().is_ok(), "scan built invalid columns");
        blockdec_obs::counter("columnar.blocks").add(cols.len() as u64);
        blockdec_obs::counter("columnar.credits").add(cols.credit_count() as u64);
        blockdec_obs::counter("columnar.bytes_resident").add(cols.resident_bytes() as u64);
        Ok((cols, stats))
    }

    /// The one scan loop. Row and columnar scans both run it and differ
    /// only in their sinks, which decide what becomes of each row that
    /// matches `pred`.
    ///
    /// The loop opens the scan's one `stage.scan` span and selects
    /// segments from manifest metadata ([`prune_segment`]). `read` runs
    /// the per-segment step ([`BlockStore::read_segments`]) over the
    /// selection in contiguous chunks, each feeding its own sink, and
    /// returns the sinks in catalog order — at least one, as an empty
    /// selection is one empty chunk. The active buffer's matching rows
    /// then go to the last sink through `tail`. A strict scan fails
    /// with the first read error in catalog order.
    fn scan_loop<S>(
        &self,
        pred: &ScanPredicate,
        read: impl FnOnce(&[&SegmentMeta]) -> Vec<(S, SegmentsRead)>,
        mut tail: impl FnMut(&mut S, &RowRecord),
    ) -> Result<(Vec<S>, ScanStats)> {
        let _t = blockdec_obs::span!("stage.scan", segments = self.manifest.segments.len());
        let mut stats = ScanStats {
            segments_total: self.manifest.segments.len(),
            ..ScanStats::default()
        };
        let mut selected: Vec<&SegmentMeta> = Vec::with_capacity(self.manifest.segments.len());
        for seg in &self.manifest.segments {
            match prune_segment(pred, seg) {
                Prune::Zone => stats.segments_pruned += 1,
                Prune::Bloom => {
                    stats.segments_pruned += 1;
                    stats.bloom_skips += 1;
                }
                Prune::No => selected.push(seg),
            }
        }
        blockdec_obs::counter("store.scan.segments_pruned").add(stats.segments_pruned as u64);
        blockdec_obs::counter("store.scan.bloom_skip").add(stats.bloom_skips as u64);

        let mut sinks = Vec::new();
        for (chunk, (sink, read)) in read(&selected).into_iter().enumerate() {
            if let Some(e) = read.error {
                return Err(e);
            }
            blockdec_obs::debug!(
                chunk = chunk,
                segments = read.segments_decoded,
                rows = read.rows_decoded,
                bytes = read.bytes_decoded;
                "scan chunk done"
            );
            stats.segments_skipped += read.skipped;
            stats.pages_pruned += read.pages_pruned;
            stats.rows_returned += read.rows_matched;
            sinks.push(sink);
        }
        if let Some(sink) = sinks.last_mut() {
            for r in self.active.iter().filter(|r| pred.matches(r)) {
                tail(sink, r);
                stats.rows_returned += 1;
            }
        }
        blockdec_obs::counter("store.rows.scanned").add(stats.rows_returned);
        blockdec_obs::counter("store.scan.pages_pruned").add(stats.pages_pruned);
        blockdec_obs::debug!(
            rows = stats.rows_returned,
            pruned = stats.segments_pruned,
            skipped = stats.segments_skipped,
            chunks = sinks.len(),
            total_segments = stats.segments_total;
            "scan complete"
        );
        Ok((sinks, stats))
    }

    /// The per-segment step of [`BlockStore::scan_loop`], over one
    /// contiguous chunk of selected segments. Each segment gets the
    /// pruned decode of [`decode_one_segment`]; a degraded scan skips
    /// one that fails to read, a strict one stops there. `take` then
    /// moves the decoded rows that match `pred` into the chunk's sink and
    /// returns how many matched. One
    /// [`SegmentDecoder`] (and its scratch buffers) serves the whole
    /// chunk.
    ///
    /// Under a predicate that [can prune](ScanPredicate::can_prune), the
    /// decoder comes from the handle's pool, or is built when the pool
    /// is empty, and goes back to the pool when the chunk ends, so a
    /// long-lived handle's pruned scans decode into warm scratch. The
    /// pool's lock is held only to take and to return, never during a
    /// decode, so parallel chunk workers do not wait on each other, and
    /// the pool holds at most one decoder per chunk worker that ever ran
    /// at once, each with at most 4 MiB of scratch. Every decode clears
    /// the decoder first, so no row of one scan reaches the next, even
    /// after an error mid-segment. The unconstrained scan decodes every
    /// group of every segment once, so its decoder grows to
    /// [`SEGMENT_ROWS`] rows; it builds a fresh one and drops it before
    /// returning, so that scratch does not outlive the scan.
    ///
    /// A segment that fails to read, in a strict or a degraded scan,
    /// loses its ranges in the page cache. Until then cached ranges can
    /// mask bytes that rotted on disk; from the first failed read on,
    /// the handle's scans fetch the segment again and report it as a
    /// fresh handle does.
    fn read_segments(
        &self,
        segs: &[&SegmentMeta],
        pred: &ScanPredicate,
        skip_corrupt: bool,
        take: &mut impl FnMut(&SegmentDecoder) -> u64,
    ) -> SegmentsRead {
        let pooled = pred.can_prune();
        let mut dec = if pooled {
            self.decoder_pool().pop().unwrap_or_default()
        } else {
            SegmentDecoder::new()
        };
        let mut read = SegmentsRead::default();
        for seg in segs {
            let span = blockdec_obs::span!("store.segment_read", file = seg.file.as_str());
            let decoded = decode_one_segment(self.store.as_ref(), &self.pages, seg, pred, &mut dec);
            if decoded.is_err() {
                self.pages.remove_key(&seg.cache_key());
            }
            let (byte_len, pruned) = match decoded {
                Ok(v) => v,
                Err(e) if skip_corrupt => {
                    read.skipped += 1;
                    blockdec_obs::counter("store.fault.segments_skipped").inc();
                    blockdec_obs::warn!(
                        file = seg.file.clone();
                        "degraded scan skipping unreadable segment: {e}"
                    );
                    continue;
                }
                Err(e) => {
                    read.error = Some(e);
                    break;
                }
            };
            let elapsed_ms = span.stop() * 1e3;
            let n = pruned.rows;
            read.segments_decoded += 1;
            read.rows_decoded += n as u64;
            read.bytes_decoded += byte_len;
            read.pages_pruned += pruned.pages_skipped() as u64;
            blockdec_obs::counter("store.segments.read").inc();
            blockdec_obs::counter("store.decode.segments").inc();
            blockdec_obs::counter("store.decode.rows").add(n as u64);
            blockdec_obs::counter("store.decode.bytes").add(byte_len);
            blockdec_obs::debug!(
                file = seg.file.clone(),
                rows = n,
                groups_skipped = pruned.groups_skipped,
                bytes = byte_len,
                elapsed_ms = elapsed_ms;
                "decoded segment"
            );
            read.rows_matched += take(&dec);
        }
        if pooled {
            self.decoder_pool().push(dec);
        }
        read
    }

    /// The decoder pool of [`BlockStore::read_segments`], locked,
    /// ignoring poison: every decode clears its decoder first, so a scan
    /// that panicked cannot leave anything the next scan would see.
    fn decoder_pool(&self) -> MutexGuard<'_, Vec<SegmentDecoder>> {
        self.decoders.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Backend page-cache counters and configuration.
    pub fn page_cache_stats(&self) -> PageCacheStats {
        self.pages.stats()
    }

    /// Run a full fault check over the store's on-disk state without
    /// modifying anything. See [`crate::StoreDoctor::check`].
    pub fn fsck(&self) -> Result<crate::doctor::FsckReport> {
        crate::doctor::StoreDoctor::with_backend(self.store.clone()).check()
    }

    /// Repair the on-disk store (see [`crate::StoreDoctor::repair`])
    /// and resynchronize this handle with the repaired state: the
    /// manifest and dictionary are reloaded and the page cache is
    /// cleared so no quarantined segment is ever served from memory.
    pub fn repair(&mut self) -> Result<crate::doctor::RepairOutcome> {
        let outcome = crate::doctor::StoreDoctor::with_backend(self.store.clone()).repair()?;
        self.manifest = Manifest::load(self.store.as_ref())?;
        self.registry = load_dictionary(self.store.as_ref())?;
        self.pages.clear();
        self.last_height = self
            .active
            .last()
            .map(|r| r.height)
            .or_else(|| self.manifest.segments.last().map(|s| s.zone.max_height));
        Ok(outcome)
    }

    /// Merge runs of under-filled adjacent segments into full ones.
    /// Repeated `flush` calls create short segments; compaction rewrites
    /// them into [`SEGMENT_ROWS`]-sized v3 segments (fresh page-group
    /// indexes and producer bloom filters included), commits the new
    /// manifest atomically, then removes the superseded files. No-op
    /// (returning `false`) when no run would shrink the segment count.
    /// Buffered rows are flushed first. See [`crate::compactor`] for the
    /// planning rule and crash-safety argument. The page cache needs no
    /// invalidation: replacement segments get fresh file names and cache
    /// keys carry the content CRC, so superseded entries are never
    /// addressed again and age out of the LRU.
    pub fn compact(&mut self) -> Result<bool> {
        self.flush()?;
        compactor::compact(self.store.as_ref(), &mut self.manifest)
    }
}

/// Resolve a requested columnar decode thread count: `0` means one per
/// available CPU, and no scan uses more threads than it has segments.
fn effective_scan_threads(requested: usize, segments: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    n.clamp(1, segments.max(1))
}

/// What the per-segment step did over one chunk of segments: everything
/// [`BlockStore::scan_loop`] folds into [`ScanStats`], plus the error
/// that stopped a strict read.
#[derive(Default)]
struct SegmentsRead {
    /// Rows matching the predicate — what `ScanStats::rows_returned`
    /// counts.
    rows_matched: u64,
    /// Unreadable segments skipped (degraded mode only).
    skipped: usize,
    /// CRC-framed column pages skipped via page-group zone maps.
    pages_pruned: u64,
    segments_decoded: usize,
    rows_decoded: u64,
    bytes_decoded: u64,
    /// First read error (strict mode): aborts the whole scan.
    error: Option<StoreError>,
}

/// Decode one segment through the backend, choosing the read shape by
/// predicate: a pruning predicate goes through the page cache with
/// ranged reads (only the header, tail, index block, and surviving page
/// groups are fetched — a pruned group never crosses the wire), while
/// the unconstrained scan fetches the whole object once, uncached (it
/// decodes every byte exactly once, so caching would only double the
/// memory). Returns the segment's logical byte length plus the pruned
/// decode, leaving the decoded rows in `dec`.
fn decode_one_segment(
    backend: &dyn ObjectStore,
    pages: &PageCache,
    seg: &SegmentMeta,
    pred: &ScanPredicate,
    dec: &mut SegmentDecoder,
) -> Result<(u64, PrunedDecode)> {
    let what = backend.describe(&seg.file);
    if pred.can_prune() {
        let file_len = backend.size(&seg.file)?;
        let key = seg.cache_key();
        let mut fetch =
            |offset: u64, len: usize| pages.get_range(backend, &key, &seg.file, offset, len);
        let pruned = dec.decode_pruned_ranged(&mut fetch, file_len, &what, pred)?;
        Ok((file_len, pruned))
    } else {
        let bytes = get_retry(backend, &seg.file)?;
        let pruned = dec.decode_pruned(&bytes, &what, pred)?;
        Ok((bytes.len() as u64, pruned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::{Credit, ProducerId, Timestamp};
    use std::fs;
    use std::path::{Path, PathBuf};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "blockdec-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn row(store: &mut BlockStore, height: u64, producer: &str) -> RowRecord {
        let id = store.intern_producer(producer);
        RowRecord {
            height,
            timestamp: 1_546_300_800 + height as i64 * 600,
            producer: id,
            credit_millis: 1000,
            tx_count: 10,
            size_bytes: 100,
            difficulty: 5,
        }
    }

    #[test]
    fn create_append_scan_roundtrip() {
        let dir = tmp_dir("basic");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..100).map(|h| row(&mut store, h, "F2Pool")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        let got = store.scan(&ScanPredicate::all()).unwrap();
        assert_eq!(got, rows);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_preserves_everything() {
        let dir = tmp_dir("reopen");
        {
            let mut store = BlockStore::create(&dir).unwrap();
            let rows: Vec<RowRecord> = (0..50).map(|h| row(&mut store, h, "AntPool")).collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.row_count(), 50);
        assert_eq!(store.registry().get("AntPool"), Some(ProducerId(0)));
        let got = store.scan(&ScanPredicate::all()).unwrap();
        assert_eq!(got.len(), 50);
        assert_eq!(got[49].height, 49);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = tmp_dir("exists");
        BlockStore::create(&dir).unwrap();
        assert!(BlockStore::create(&dir).is_err());
        assert!(BlockStore::open_or_create_with(Arc::new(LocalFs::new(&dir))).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_out_of_order_heights() {
        let dir = tmp_dir("order");
        let mut store = BlockStore::create(&dir).unwrap();
        let a = row(&mut store, 10, "X1");
        let b = row(&mut store, 9, "X1");
        store.append_rows(&[a]).unwrap();
        let err = store.append_rows(&[b]).unwrap_err();
        assert!(matches!(err, StoreError::InvalidAppend(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_unknown_producer_ids() {
        let dir = tmp_dir("unknown-producer");
        let mut store = BlockStore::create(&dir).unwrap();
        let r = RowRecord {
            height: 1,
            timestamp: 0,
            producer: 7, // never interned
            credit_millis: 1000,
            tx_count: 0,
            size_bytes: 0,
            difficulty: 0,
        };
        assert!(store.append_rows(&[r]).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn producer_outside_the_dictionary_fails_the_columnar_scan() {
        let dir = tmp_dir("short-dictionary");
        let mut store = BlockStore::create(&dir).unwrap();
        // Three segments of 100 heights; "C" (id 2) takes heights 250..
        for lo in [0u64, 100, 200] {
            let rows: Vec<RowRecord> = (lo..lo + 100)
                .map(|h| {
                    let name = match h {
                        250.. => "C",
                        _ if h % 2 == 0 => "A",
                        _ => "B",
                    };
                    row(&mut store, h, name)
                })
                .collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
        // Drop "C" from the dictionary, as a damaged catalog would.
        let mut short = ProducerRegistry::new();
        short.intern("A");
        short.intern("B");
        save_dictionary(store.backend().as_ref(), &short).unwrap();
        let mut store = BlockStore::open(&dir).unwrap();
        let want = "inconsistent catalog: producer id 2 outside dictionary (len 2)";
        for threads in [1, 2] {
            store.set_scan_threads(threads);
            let all = ScanPredicate::all();
            let err = store.scan_columnar(&all).unwrap_err();
            assert_eq!(err.to_string(), want, "{threads} threads");
            let err = store.scan_attributed(&all).unwrap_err();
            assert_eq!(err.to_string(), want, "{threads} threads");
            // Only credits the scan returns are checked.
            let before_c = ScanPredicate::all().heights(0, 249);
            assert_eq!(store.scan_columnar(&before_c).unwrap().len(), 250);
        }
        let report = store.fsck().unwrap();
        assert!(
            report.has(crate::doctor::FaultKind::UnknownProducer),
            "{:?}",
            report.faults
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seals_full_segments_automatically() {
        let dir = tmp_dir("autoseal");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..(SEGMENT_ROWS as u64 + 10))
            .map(|h| row(&mut store, h, "P"))
            .collect();
        store.append_rows(&rows).unwrap();
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.buffered_rows(), 10);
        store.flush().unwrap();
        assert_eq!(store.segment_count(), 2);
        assert_eq!(store.buffered_rows(), 0);
        assert_eq!(store.row_count(), SEGMENT_ROWS as u64 + 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_large_append_writes_what_segment_sized_appends_write() {
        // 3·SEGMENT_ROWS + 17 rows. Rows SEGMENT_ROWS-1 ..= SEGMENT_ROWS+1
        // are the three credits of one block, so it straddles the first
        // segment boundary.
        let n = 3 * SEGMENT_ROWS + 17;
        let write = |tag: &str, call_rows: usize| {
            let dir = tmp_dir(tag);
            let mut store = BlockStore::create(&dir).unwrap();
            let rows: Vec<RowRecord> = (0..n)
                .map(|i| match i.checked_sub(SEGMENT_ROWS - 1) {
                    Some(k @ 0..=2) => RowRecord {
                        credit_millis: 333,
                        ..row(&mut store, (SEGMENT_ROWS - 1) as u64, ["A", "B", "C"][k])
                    },
                    Some(_) => row(&mut store, (i - 2) as u64, "P"),
                    None => row(&mut store, i as u64, "P"),
                })
                .collect();
            for chunk in rows.chunks(call_rows) {
                store.append_rows(chunk).unwrap();
            }
            store.flush().unwrap();
            assert_eq!(store.segment_count(), 4);
            let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name, fs::read(e.path()).unwrap())
                })
                .collect();
            files.sort();
            fs::remove_dir_all(&dir).unwrap();
            files
        };
        let one_call = write("seal-one-call", n);
        let sized_calls = write("seal-sized-calls", SEGMENT_ROWS);
        let names: Vec<&str> = one_call.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names.iter().filter(|n| n.ends_with(".bds")).count(), 4);
        assert!(names.contains(&crate::catalog::MANIFEST_NAME), "{names:?}");
        assert!(one_call == sized_calls, "store files differ: {names:?}");
    }

    #[test]
    fn a_failed_seal_keeps_its_rows_until_a_flush_commits_them() {
        let n = 3 * SEGMENT_ROWS + 17;
        // Commits 1–3 are the first seal's segment file, dictionary and
        // manifest; commit 4 is the second seal's segment file.
        for k in 1..=4 {
            let dir = tmp_dir(&format!("failed-seal-{k}"));
            let mut store = BlockStore::create(&dir).unwrap();
            let rows: Vec<RowRecord> = (0..n as u64).map(|h| row(&mut store, h, "P")).collect();
            crate::FaultInjector::new(&dir, 0).arm_crash_at_commit(k);
            let err = store.append_rows(&rows).unwrap_err();
            assert!(err.to_string().contains("injected crash"), "k={k}: {err}");
            assert_eq!(store.row_count(), n as u64, "k={k}");
            assert_eq!(store.last_height(), Some(n as u64 - 1), "k={k}");
            store.flush().unwrap();
            assert_eq!(store.segment_count(), 4, "k={k}");
            assert_eq!(store.buffered_rows(), 0, "k={k}");
            drop(store);
            let reopened = BlockStore::open(&dir).unwrap();
            assert_eq!(reopened.row_count(), n as u64, "k={k}");
            assert!(
                reopened.scan(&ScanPredicate::all()).unwrap() == rows,
                "k={k}: the reopened store must hold every row exactly once"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn scan_sees_unflushed_rows() {
        let dir = tmp_dir("unflushed");
        let mut store = BlockStore::create(&dir).unwrap();
        let r = row(&mut store, 5, "P");
        store.append_rows(&[r]).unwrap();
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn predicates_filter_and_prune() {
        let dir = tmp_dir("pred");
        let mut store = BlockStore::create(&dir).unwrap();
        // Two sealed segments with disjoint height ranges.
        let first: Vec<RowRecord> = (0..100).map(|h| row(&mut store, h, "A")).collect();
        store.append_rows(&first).unwrap();
        store.flush().unwrap();
        let second: Vec<RowRecord> = (100..200).map(|h| row(&mut store, h, "B")).collect();
        store.append_rows(&second).unwrap();
        store.flush().unwrap();

        let (rows, stats) = store
            .scan_with_options(
                &ScanPredicate::all().heights(150, 160),
                ScanOptions::strict(),
            )
            .unwrap();
        assert_eq!(rows.len(), 11);
        assert_eq!(stats.segments_total, 2);
        assert_eq!(stats.segments_pruned, 1);

        // Time predicate.
        let t0 = 1_546_300_800 + 50 * 600;
        let t1 = 1_546_300_800 + 59 * 600;
        let rows = store.scan(&ScanPredicate::all().times(t0, t1)).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.timestamp >= t0 && r.timestamp <= t1));

        // Producer predicate.
        let b = store.registry().get("B").unwrap().0;
        let rows = store.scan(&ScanPredicate::all().producer(b)).unwrap();
        assert_eq!(rows.len(), 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_attributed_remaps_ids() {
        let dir = tmp_dir("remap");
        let mut store = BlockStore::create(&dir).unwrap();
        // Pre-intern something so ids diverge from the source registry.
        store.intern_producer("AlreadyHere");

        let mut src = ProducerRegistry::new();
        let f2 = src.intern("F2Pool");
        let ant = src.intern("AntPool");
        let blocks = vec![
            AttributedBlock {
                height: 1,
                timestamp: Timestamp(100),
                credits: vec![Credit {
                    producer: f2,
                    weight: 1.0,
                }],
            },
            AttributedBlock {
                height: 2,
                timestamp: Timestamp(200),
                credits: vec![
                    Credit {
                        producer: ant,
                        weight: 1.0,
                    },
                    Credit {
                        producer: f2,
                        weight: 1.0,
                    },
                ],
            },
        ];
        store.append_attributed(&blocks, &src).unwrap();
        store.flush().unwrap();

        let rows = store.scan(&ScanPredicate::all()).unwrap();
        assert_eq!(rows.len(), 3);
        let f2_store = store.registry().get("F2Pool").unwrap().0;
        assert_eq!(rows[0].producer, f2_store);
        assert_ne!(f2_store, f2.0, "ids must be remapped, not copied");

        let back = store.scan_attributed(&ScanPredicate::all()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].credits.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One block per height from `lo`, crediting the `src` ids in `ids`
    /// in turn, with every third block a two-credit coinbase.
    fn blocks_over(lo: u64, ids: &[u32]) -> Vec<AttributedBlock> {
        (0..ids.len() as u64)
            .map(|i| {
                let credit = |k: u64| Credit {
                    producer: ProducerId(ids[((i + k) % ids.len() as u64) as usize]),
                    weight: if i % 3 == 0 { 0.5 } else { 1.0 },
                };
                let mut credits = vec![credit(0)];
                if i % 3 == 0 {
                    credits.push(credit(1));
                }
                AttributedBlock {
                    height: lo + i,
                    timestamp: Timestamp(1_546_300_800 + (lo + i) as i64 * 600),
                    credits,
                }
            })
            .collect()
    }

    /// The per-call remap: intern each credit's name into the store's
    /// dictionary, then append the rows as built.
    fn append_by_name(
        store: &mut BlockStore,
        blocks: &[AttributedBlock],
        src: &ProducerRegistry,
    ) -> Result<()> {
        let mut rows = Vec::new();
        for b in blocks {
            for c in &b.credits {
                let name = src.name(c.producer).unwrap();
                rows.push(RowRecord {
                    height: b.height,
                    timestamp: b.timestamp.secs(),
                    producer: store.intern_producer(name),
                    credit_millis: weight_to_millis(c.weight),
                    tx_count: 0,
                    size_bytes: 0,
                    difficulty: 0,
                });
            }
        }
        store.append_rows(&rows)
    }

    #[test]
    fn remap_follows_names_across_source_registries() {
        // The same source ids name different producers in `a` and `b`.
        let a = ProducerRegistry::from_name_list(&["A", "B", "C"]);
        let b = ProducerRegistry::from_name_list(&["C", "D", "A", "E"]);
        let (dir, want_dir) = (tmp_dir("remap-two"), tmp_dir("remap-two-want"));
        let mut store = BlockStore::create(&dir).unwrap();
        let mut want = BlockStore::create(&want_dir).unwrap();
        for (k, (src, ids)) in [(&a, &[0, 1, 2][..]), (&b, &[0, 1, 2, 3])]
            .into_iter()
            .cycle()
            .take(6)
            .enumerate()
        {
            let blocks = blocks_over(100 * k as u64, ids);
            store.append_attributed(&blocks, src).unwrap();
            append_by_name(&mut want, &blocks, src).unwrap();
        }
        let all = ScanPredicate::all();
        assert_eq!(store.scan(&all).unwrap(), want.scan(&all).unwrap());
        assert_eq!(
            store.registry().to_name_list(),
            want.registry().to_name_list()
        );
        assert_eq!(store.registry().to_name_list(), ["A", "B", "C", "D", "E"]);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&want_dir).unwrap();
    }

    #[test]
    fn remap_follows_names_after_repair_reloads_the_dictionary() {
        let dir = tmp_dir("remap-repair");
        let mut store = BlockStore::create(&dir).unwrap();
        let src = ProducerRegistry::from_name_list(&["A", "B"]);
        store
            .append_attributed(&blocks_over(0, &[0, 1]), &src)
            .unwrap();
        store.flush().unwrap();
        // A lost dictionary comes back with placeholder names, so the
        // store ids the remap holds no longer carry the source names.
        store.backend().remove(DICTIONARY_NAME).unwrap();
        assert!(store.repair().unwrap().dictionary_rebuilt);
        let placeholders = store.registry().to_name_list();
        assert_eq!(
            placeholders,
            ["recovered-producer-0", "recovered-producer-1"]
        );

        store
            .append_attributed(&blocks_over(10, &[1, 0]), &src)
            .unwrap();
        let rows = store.scan(&ScanPredicate::all().heights(10, 11)).unwrap();
        let names: Vec<&str> = rows
            .iter()
            .map(|r| store.registry().name(ProducerId(r.producer)).unwrap())
            .collect();
        assert_eq!(names, ["B", "A", "A"]);
        assert_eq!(
            store.registry().to_name_list(),
            [&placeholders[..], &["B".to_string(), "A".to_string()]].concat()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_producer_missing_from_the_source_appends_nothing() {
        let dir = tmp_dir("remap-missing");
        let mut store = BlockStore::create(&dir).unwrap();
        let src = ProducerRegistry::from_name_list(&["A", "B"]);
        store
            .append_attributed(&blocks_over(0, &[0]), &src)
            .unwrap();
        let before = store.scan(&ScanPredicate::all()).unwrap();
        // Id 2 is past the source registry, in the last block.
        let err = store
            .append_attributed(&blocks_over(1, &[1, 0, 2]), &src)
            .unwrap_err();
        assert!(matches!(err, StoreError::InvalidAppend(_)), "{err}");
        assert_eq!(
            err.to_string(),
            "invalid append: producer p2 missing from source registry"
        );
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), before);
        assert_eq!(store.buffered_rows(), before.len());
        assert_eq!(store.last_height(), Some(0));
        // The handle keeps working from where it was.
        store
            .append_attributed(&blocks_over(1, &[1]), &src)
            .unwrap();
        assert_eq!(store.row_count(), before.len() as u64 + 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_block_per_call_equals_one_batch_call() {
        let src = ProducerRegistry::from_name_list(&["A", "B", "C", "D"]);
        let ids: Vec<u32> = (0..SEGMENT_ROWS as u32 + 500)
            .map(|i| (i * 7 + i / 3) % 4)
            .collect();
        let blocks = blocks_over(0, &ids);
        let (dir, batch_dir) = (tmp_dir("remap-single"), tmp_dir("remap-batch"));
        let mut single = BlockStore::create(&dir).unwrap();
        single.intern_producer("AlreadyHere");
        for b in &blocks {
            single
                .append_attributed(std::slice::from_ref(b), &src)
                .unwrap();
        }
        let mut batch = BlockStore::create(&batch_dir).unwrap();
        batch.intern_producer("AlreadyHere");
        batch.append_attributed(&blocks, &src).unwrap();
        assert_eq!(single.segment_count(), 1);
        assert_eq!(single.buffered_rows(), batch.buffered_rows());
        let all = ScanPredicate::all();
        assert_eq!(single.scan(&all).unwrap(), batch.scan(&all).unwrap());
        assert_eq!(
            single.registry().to_name_list(),
            batch.registry().to_name_list()
        );
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&batch_dir).unwrap();
    }

    #[test]
    fn multi_credit_heights_survive_segment_boundaries() {
        let dir = tmp_dir("boundary");
        let mut store = BlockStore::create(&dir).unwrap();
        let p = store.intern_producer("P");
        // Rows sharing one height right at the segment edge.
        let mut rows = Vec::new();
        for h in 0..(SEGMENT_ROWS as u64 - 1) {
            rows.push(RowRecord {
                height: h,
                timestamp: h as i64,
                producer: p,
                credit_millis: 1000,
                tx_count: 0,
                size_bytes: 0,
                difficulty: 0,
            });
        }
        let edge = SEGMENT_ROWS as u64 - 1;
        for _ in 0..5 {
            rows.push(RowRecord {
                height: edge,
                timestamp: edge as i64,
                producer: p,
                credit_millis: 1000,
                tx_count: 0,
                size_bytes: 0,
                difficulty: 0,
            });
        }
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        assert_eq!(store.segment_count(), 2);
        let blocks = store.scan_attributed(&ScanPredicate::all()).unwrap();
        let last = blocks.last().unwrap();
        assert_eq!(last.height, edge);
        assert_eq!(
            last.credits.len(),
            5,
            "credits split across segments must regroup"
        );
        // The columnar scan must regroup the straddling block identically.
        let cols = store.scan_columnar(&ScanPredicate::all()).unwrap();
        cols.validate().unwrap();
        assert_eq!(cols.len(), blocks.len());
        assert_eq!(cols.producers_of(cols.len() - 1).len(), 5);
        assert_eq!(cols.to_blocks(), blocks);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columnar_scan_matches_attributed_scan() {
        let dir = tmp_dir("columnar");
        let mut store = BlockStore::create(&dir).unwrap();
        let p = store.intern_producer("P");
        let q = store.intern_producer("Q");
        // Mixed 1/3-credit heights spanning sealed segments plus the
        // unflushed active buffer.
        let mut rows = Vec::new();
        for h in 0..((SEGMENT_ROWS + SEGMENT_ROWS / 2) as u64) {
            let n = if h % 7 == 0 { 3 } else { 1 };
            for k in 0..n {
                rows.push(RowRecord {
                    height: h,
                    timestamp: h as i64 * 600,
                    producer: if k == 0 { p } else { q },
                    credit_millis: 1000,
                    tx_count: 0,
                    size_bytes: 0,
                    difficulty: 0,
                });
            }
        }
        let split = rows.len() - 40;
        store.append_rows(&rows[..split]).unwrap();
        store.flush().unwrap();
        store.append_rows(&rows[split..]).unwrap(); // stays buffered

        for pred in [
            ScanPredicate::all(),
            ScanPredicate::all().heights(100, 5000),
        ] {
            let blocks = store.scan_attributed(&pred).unwrap();
            let cols = store.scan_columnar(&pred).unwrap();
            cols.validate().unwrap();
            assert_eq!(cols.to_blocks(), blocks);
        }
        // Residual row filter: only producer q's rows survive.
        let (filtered, _) = store
            .scan_columnar_with(&ScanPredicate::all(), store.scan_options(), |r| {
                r.producer == q
            })
            .unwrap();
        assert!(!filtered.is_empty());
        assert!((0..filtered.len()).all(|i| filtered.producers_of(i).iter().all(|pr| pr.0 == q)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_surfaces_on_scan() {
        let dir = tmp_dir("corrupt");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..10).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        // Flip a byte in the middle of the segment file.
        let seg = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg, bytes).unwrap();

        let store = BlockStore::open(&dir).unwrap();
        let err = store.scan(&ScanPredicate::all()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_reports_clean_store() {
        let dir = tmp_dir("fsck-ok");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..100).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        let report = store.fsck().unwrap();
        assert!(report.is_clean(), "{:?}", report.faults);
        assert_eq!(report.segments_checked, 1);
        assert_eq!(report.rows_checked, 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_catches_corruption_without_aborting() {
        let dir = tmp_dir("fsck-bad");
        let mut store = BlockStore::create(&dir).unwrap();
        for batch in 0..2u64 {
            let rows: Vec<RowRecord> = (batch * 50..batch * 50 + 50)
                .map(|h| row(&mut store, h, "P"))
                .collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
        // Corrupt only the first segment.
        let seg = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg, bytes).unwrap();

        let store = BlockStore::open(&dir).unwrap();
        let report = store.fsck().unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.segments_checked, 2);
        // The healthy segment's rows were still counted.
        assert_eq!(report.rows_checked, 50);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_merges_small_segments() {
        let dir = tmp_dir("compact");
        let mut store = BlockStore::create(&dir).unwrap();
        // 40 tiny flushes → 40 segments.
        for batch in 0..40u64 {
            let rows: Vec<RowRecord> = (batch * 10..batch * 10 + 10)
                .map(|h| row(&mut store, h, "P"))
                .collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
        assert_eq!(store.segment_count(), 40);
        let before = store.scan(&ScanPredicate::all()).unwrap();

        assert!(store.compact().unwrap());
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.row_count(), 400);
        let after = store.scan(&ScanPredicate::all()).unwrap();
        assert_eq!(before, after, "compaction must not change contents");
        // Old segment files are gone; fsck is clean.
        assert!(store.fsck().unwrap().is_clean());
        assert!(!dir.join(segment_file_name(0)).exists());

        // Idempotent: second compaction is a no-op.
        assert!(!store.compact().unwrap());

        // Reopen still sees everything.
        drop(store);
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.row_count(), 400);
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), after);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_flushes_buffered_rows_first() {
        let dir = tmp_dir("compact-buf");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..10).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows[..5]).unwrap();
        store.flush().unwrap();
        store.append_rows(&rows[5..]).unwrap();
        // 1 sealed + 5 buffered: compact seals the buffer (2 segs) then
        // merges to 1.
        assert!(store.compact().unwrap());
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.buffered_rows(), 0);
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), rows);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_on_empty_store_is_noop() {
        let dir = tmp_dir("compact-empty");
        let mut store = BlockStore::create(&dir).unwrap();
        assert!(!store.compact().unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_hits_on_repeated_scans() {
        let dir = tmp_dir("cache");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..10).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        // A pruned scan reads ranges: tail, header, index, one group.
        let pred = ScanPredicate::all().heights(0, 9);
        store.scan(&pred).unwrap();
        let cold = store.page_cache_stats();
        assert_eq!((cold.hits, cold.misses), (0, 4));
        store.scan(&pred).unwrap();
        let warm = store.page_cache_stats();
        assert_eq!(warm.misses, cold.misses);
        assert_eq!(warm.hits, cold.misses);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_never_serves_stale_cache_entries() {
        // Regression: cache keys carry the content CRC, so a scan after
        // compaction must re-fetch the rewritten segment (misses, never
        // a stale hit) even though no explicit invalidation happens.
        let dir = tmp_dir("compact-cache");
        let mut store = BlockStore::create(&dir).unwrap();
        for batch in 0..4u64 {
            let rows: Vec<RowRecord> = (batch * 10..batch * 10 + 10)
                .map(|h| row(&mut store, h, "P"))
                .collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
        // Warm the cache on the pre-compaction layout.
        let pred = ScanPredicate::all().heights(0, 39);
        let before = store.scan(&pred).unwrap();
        let misses_before = store.page_cache_stats().misses;
        // Tail, header, index block and one page group per segment.
        let per_segment = 4;
        assert_eq!(misses_before, 4 * per_segment);

        assert!(store.compact().unwrap());
        let after = store.scan(&pred).unwrap();
        assert_eq!(before, after);
        let misses_after = store.page_cache_stats().misses;
        assert_eq!(
            misses_after,
            misses_before + per_segment,
            "the compacted segment must be fetched fresh, not served stale"
        );

        // And repeat scans on the new layout hit the cache normally.
        let hits_1 = store.page_cache_stats().hits;
        store.scan(&pred).unwrap();
        let warm = store.page_cache_stats();
        assert_eq!(warm.misses, misses_after);
        assert_eq!(warm.hits, hits_1 + per_segment);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_read_drops_the_segments_cached_ranges() {
        // Bit rot keeps a segment's cache key (its name and footer CRC),
        // so cached ranges mask the rot until a read of the segment
        // fails. From then on the handle reports the segment as a fresh
        // handle does, while a healthy segment keeps its ranges.
        let dir = tmp_dir("rot-cache");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..6_000)
            .map(|h| row(&mut store, h, &format!("P{}", h % 7)))
            .collect();
        store.append_rows(&rows[..5_000]).unwrap();
        store.flush().unwrap();
        store.append_rows(&rows[5_000..]).unwrap();
        store.flush().unwrap();
        let rotten = ScanPredicate::all().heights(0, 4_999);
        let healthy = ScanPredicate::all().heights(5_000, 5_999);
        let (strict, degraded) = (
            BlockStore::open(&dir).unwrap(),
            BlockStore::open(&dir).unwrap(),
        );
        for handle in [&strict, &degraded] {
            assert_eq!(handle.scan(&rotten).unwrap().len(), 5_000);
            assert_eq!(handle.scan(&healthy).unwrap().len(), 1_000);
        }
        crate::FaultInjector::new(&dir, 21)
            .flip_bit(&segment_file_name(0))
            .unwrap();

        assert_eq!(strict.scan(&rotten).unwrap().len(), 5_000, "cached");
        let fresh = BlockStore::open(&dir)
            .unwrap()
            .scan(&rotten)
            .unwrap_err()
            .to_string();
        assert!(
            fresh.ends_with("crc mismatch: stored 0x94b9bbba, computed 0x0f8b47fc"),
            "{fresh}"
        );
        let unconstrained = strict.scan(&ScanPredicate::all()).unwrap_err();
        assert_eq!(unconstrained.to_string(), fresh);
        assert_eq!(strict.scan(&rotten).unwrap_err().to_string(), fresh);
        let before = strict.page_cache_stats();
        assert_eq!(strict.scan(&healthy).unwrap().len(), 1_000);
        let after = strict.page_cache_stats();
        assert_eq!(
            after.misses, before.misses,
            "the healthy segment stays cached"
        );
        assert!(after.hits > before.hits);

        // A degraded scan that skips the segment drops its ranges too.
        let (_, stats) = degraded
            .scan_with_options(&ScanPredicate::all(), ScanOptions::degraded())
            .unwrap();
        assert_eq!(stats.segments_skipped, 1);
        assert_eq!(degraded.scan(&rotten).unwrap_err().to_string(), fresh);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bloom_filter_prunes_producer_scans() {
        let dir = tmp_dir("bloom-prune");
        let mut store = BlockStore::create(&dir).unwrap();
        // Two segments with disjoint producers over one height range
        // split: zone maps cannot separate producers, only the bloom
        // filter can.
        let rows_a: Vec<RowRecord> = (0..10).map(|h| row(&mut store, h, "OnlyA")).collect();
        store.append_rows(&rows_a).unwrap();
        store.flush().unwrap();
        let rows_b: Vec<RowRecord> = (10..20).map(|h| row(&mut store, h, "OnlyB")).collect();
        store.append_rows(&rows_b).unwrap();
        store.flush().unwrap();

        let b = store.intern_producer("OnlyB");
        let pred = ScanPredicate::all().producer(b);
        let (rows, stats) = store
            .scan_with_options(&pred, ScanOptions::strict())
            .unwrap();
        assert_eq!(rows, rows_b);
        assert_eq!(stats.bloom_skips, 1, "segment A must be bloom-pruned");
        assert_eq!(stats.segments_pruned, 1);

        // Same pruning on the columnar path.
        let (cols, cstats) = store
            .scan_columnar_with(&pred, ScanOptions::strict(), |_| true)
            .unwrap();
        assert_eq!(cols.len(), rows_b.len());
        assert_eq!(cstats.bloom_skips, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columnar_scan_reports_pruned_pages() {
        let dir = tmp_dir("page-prune");
        let mut store = BlockStore::create(&dir).unwrap();
        // One segment spanning three page groups (2.5 × 4096 rows).
        let rows: Vec<RowRecord> = (0..10_240).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        assert_eq!(store.segment_count(), 1);

        // A height slice inside the middle group: the first and last
        // groups are skipped without decoding, 7 pages each.
        let pred = ScanPredicate::all().heights(5_000, 5_100);
        let (cols, stats) = store
            .scan_columnar_with(&pred, ScanOptions::strict(), |_| true)
            .unwrap();
        assert_eq!(cols.len(), 101);
        assert_eq!(stats.pages_pruned, 14, "two of three page groups skipped");
        assert_eq!(stats.segments_pruned, 0);
        // Row scans read through the same pruned decode.
        let (rows_in_slice, row_stats) = store
            .scan_with_options(&pred, ScanOptions::strict())
            .unwrap();
        assert_eq!(rows_in_slice.len(), 101);
        assert_eq!(row_stats.pages_pruned, 14);

        // The full scan prunes nothing and says so.
        let (cols, stats) = store
            .scan_columnar_with(&ScanPredicate::all(), ScanOptions::strict(), |_| true)
            .unwrap();
        assert_eq!(cols.len(), rows.len());
        assert_eq!(stats.pages_pruned, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Two sealed segments of 5,000 rows, two page groups each.
    fn two_segments(dir: &Path) {
        let mut store = BlockStore::create(dir).unwrap();
        for seg in 0..2u64 {
            let rows: Vec<RowRecord> = (seg * 5_000..(seg + 1) * 5_000)
                .map(|h| row(&mut store, h, "P"))
                .collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
    }

    /// Every scan a damaged group 0 of segment 0 must fail: the row scan,
    /// the columnar scan at 1 and 2 threads, and a height-pruned scan
    /// that reads group 0 as ranges through the page cache.
    fn scans_over_group_zero(store: &BlockStore) -> Vec<Result<usize>> {
        let all = ScanPredicate::all();
        let columnar = |threads| {
            store
                .scan_columnar_with(&all, ScanOptions::strict().with_threads(threads), |_| true)
                .map(|(cols, _)| cols.len())
        };
        vec![
            store.scan(&all).map(|rows| rows.len()),
            columnar(1),
            columnar(2),
            store
                .scan(&ScanPredicate::all().heights(0, 5))
                .map(|rows| rows.len()),
        ]
    }

    #[test]
    fn lying_group_zone_fails_every_scan() {
        let dir = tmp_dir("lying-zone");
        two_segments(&dir);
        crate::FaultInjector::new(&dir, 5)
            .drift_page_zone(&segment_file_name(0))
            .unwrap();
        let store = BlockStore::open(&dir).unwrap();
        for got in scans_over_group_zero(&store) {
            let err = got.unwrap_err();
            assert!(matches!(err, StoreError::CorruptIndex { .. }), "{err}");
            assert!(err.to_string().contains("group 0: zone"), "{err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_row_count_must_match_the_index() {
        let dir = tmp_dir("row-count");
        two_segments(&dir);
        let seg = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        bytes[6..10].copy_from_slice(&4_999u32.to_le_bytes());
        crate::segment::refit_footer(&mut bytes);
        fs::write(&seg, bytes).unwrap();
        let store = BlockStore::open(&dir).unwrap();
        for got in scans_over_group_zero(&store) {
            let err = got.unwrap_err();
            assert!(matches!(err, StoreError::CorruptIndex { .. }), "{err}");
            assert!(
                err.to_string()
                    .contains("index declares 5000 rows, header says 4999"),
                "{err}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn row_and_columnar_scans_report_equal_stats() {
        let dir = tmp_dir("equal-stats");
        let t = |h: u64| 1_546_300_800 + h as i64 * 600;
        let rare = {
            let mut store = BlockStore::create(&dir).unwrap();
            // Three segments of 2.5 page groups each. "Rare" credits sit
            // in the middle group of the last segment only, so bloom
            // filters skip segments and groups for it.
            for seg in 0..3u64 {
                let rows: Vec<RowRecord> = (seg * 10_240..(seg + 1) * 10_240)
                    .map(|h| match h {
                        25_000..=25_009 => row(&mut store, h, "Rare"),
                        _ => row(&mut store, h, &format!("P{}", h % 5)),
                    })
                    .collect();
                store.append_rows(&rows).unwrap();
                store.flush().unwrap();
            }
            store.registry().get("Rare").unwrap().0
        };
        let preds = [
            ScanPredicate::all().heights(5_000, 5_100),
            ScanPredicate::all().heights(9_000, 12_000),
            ScanPredicate::all().times(t(15_000), t(16_000)),
            ScanPredicate::all().producer(rare),
            ScanPredicate::all().producer(0).heights(20_000, 21_000),
            ScanPredicate::all(),
        ];
        let check = |opts: ScanOptions| {
            for pred in &preds {
                let opts = opts.with_threads(2);
                let (a, b) = (
                    BlockStore::open(&dir).unwrap(),
                    BlockStore::open(&dir).unwrap(),
                );
                let cold = a.scan_with_options(pred, opts).unwrap().1;
                let cold_columnar = b.scan_columnar_with(pred, opts, |_| true).unwrap().1;
                let warm = b.scan_with_options(pred, opts).unwrap().1;
                let warm_columnar = a.scan_columnar_with(pred, opts, |_| true).unwrap().1;
                assert_eq!(cold, cold_columnar, "{pred:?} {opts:?}");
                assert_eq!(warm, cold, "{pred:?} {opts:?}");
                assert_eq!(warm_columnar, cold, "{pred:?} {opts:?}");
                // A `keep` that drops rows leaves the stats alone: they
                // count every row the predicate matches.
                for threads in [1, 2] {
                    let opts = opts.with_threads(threads);
                    let even = |r: &RowRecord| r.height.is_multiple_of(2);
                    let kept = b.scan_columnar_with(pred, opts, even).unwrap().1;
                    assert_eq!(kept, cold, "{pred:?} {opts:?} keeping even heights");
                }
                // Pruned scans read through the page cache, which keeps
                // no range of a segment that failed to read.
                let read_cleanly =
                    cold.segments_total - cold.segments_pruned - cold.segments_skipped;
                assert_eq!(
                    pred.can_prune() && read_cleanly > 0,
                    b.page_cache_stats().hits > 0
                );
            }
        };
        check(ScanOptions::strict());
        let (_, inside_one_group) = BlockStore::open(&dir)
            .unwrap()
            .scan_with_options(&preds[0], ScanOptions::strict())
            .unwrap();
        assert_eq!(inside_one_group.pages_pruned, 14);
        assert_eq!(inside_one_group.segments_pruned, 2);

        crate::FaultInjector::new(&dir, 9)
            .truncate(&segment_file_name(1))
            .unwrap();
        check(ScanOptions::degraded());
        let (_, degraded) = BlockStore::open(&dir)
            .unwrap()
            .scan_with_options(&ScanPredicate::all(), ScanOptions::degraded())
            .unwrap();
        assert_eq!(degraded.segments_skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_manifest_that_overstates_rows_scans_to_the_honest_columns() {
        let dir = tmp_dir("overstated-rows");
        two_segments(&dir);
        let mut store = BlockStore::open(&dir).unwrap();
        let all = ScanPredicate::all();
        let want = store.scan_columnar(&all).unwrap();
        // The unconstrained scan reserves its output from the manifest's
        // row counts; each is trusted only up to what decode accepts.
        store.manifest.segments[0].zone.rows = u64::MAX;
        for threads in [1, 2] {
            let opts = ScanOptions::strict().with_threads(threads);
            let (cols, stats) = store.scan_columnar_with(&all, opts, |_| true).unwrap();
            assert_eq!(cols, want, "{threads} threads");
            assert_eq!(stats.rows_returned, 10_000, "{threads} threads");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_rows_fail_every_scan_alike() {
        // Disorder a manifest could only describe after corruption:
        // inside a segment (a later page group holds lower heights) and
        // across a segment boundary. Both surface as the same error
        // from the attributed scan and the columnar scan at 1 and 2
        // threads.
        let heights = |lo: u64, n: u64| lo..lo + n;
        let cases = [
            vec![
                heights(10_000, 4_096)
                    .chain(heights(0, 4_096))
                    .collect::<Vec<_>>(),
                heights(20_000, 100).collect(),
            ],
            vec![heights(100, 100).collect(), heights(0, 100).collect()],
        ];
        for (case, segments) in cases.iter().enumerate() {
            let dir = tmp_dir(&format!("disorder-{case}"));
            let mut store = BlockStore::create(&dir).unwrap();
            for (id, hs) in segments.iter().enumerate() {
                let rows: Vec<RowRecord> = hs.iter().map(|&h| row(&mut store, h, "P")).collect();
                let file = segment_file_name(id as u64);
                let meta = write_segment_file(store.store.as_ref(), &file, &rows).unwrap();
                store.manifest.segments.push(meta);
            }
            let all = ScanPredicate::all();
            let want = store.scan_attributed(&all).unwrap_err().to_string();
            assert!(want.contains("out of height order"), "{want}");
            for threads in [1, 2] {
                let opts = ScanOptions::strict().with_threads(threads);
                let got = store.scan_columnar_with(&all, opts, |_| true).unwrap_err();
                assert_eq!(got.to_string(), want, "case {case}, {threads} threads");
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

//! Segment encoding and file I/O (format v3).
//!
//! A segment file is `MAGIC "BDSG" | version u16 | row_count u32` followed
//! by the rows split into **page groups** of up to [`PAGE_GROUP_ROWS`]
//! rows. Each group holds seven column pages (height, timestamp,
//! producer, credit, tx_count, size_bytes, difficulty), each CRC-framed
//! by [`crate::page`]; delta encodings restart at every group so any
//! group can be decoded on its own. After the last group comes the
//! **index block** — per-group zone maps, per-group producer bloom
//! filters, and a segment-level producer bloom filter, closed by its
//! own CRC — then a `u32` with the index block's offset, and finally
//! the 12-byte finalization footer `crc32 u32 | file_len u32 | "BDSF"`.
//!
//! The footer is what makes a torn write *classifiable*: a file without a
//! valid footer was never finalized (truncation / power cut mid-write),
//! while a file whose footer is present but whose whole-file CRC
//! disagrees suffered bit rot after commit. The per-page CRCs remain as a
//! second, independent layer that localizes damage to a column, and the
//! index CRC is a third that lets a pruned scan trust the index without
//! touching the pages it skips.

use crate::backend::{get_retry, ObjectStore};
use crate::bloom::ProducerFilter;
use crate::checksum::crc32;
use crate::encoding::{
    decode_column_into, decode_signed_column_into, encode_column, encode_signed_column, Codec,
};
use crate::error::{Result, StoreError};
use crate::lebytes;
use crate::page::{read_page, write_page};
use crate::row::RowRecord;
use crate::store::ScanPredicate;
use crate::zonemap::ZoneMap;
use std::sync::Arc;

/// Magic bytes of a segment file.
pub const MAGIC: [u8; 4] = *b"BDSG";
/// Current format version (3 = page groups + index block added).
pub const VERSION: u16 = 3;
/// Maximum rows per segment.
pub const SEGMENT_ROWS: usize = 65_536;
/// Maximum rows per page group: every group except possibly the last
/// holds exactly this many rows, so a full segment has 16 groups.
pub const PAGE_GROUP_ROWS: usize = 4_096;

/// Magic bytes opening the index block.
pub const INDEX_MAGIC: [u8; 4] = *b"BDIX";
/// On-disk size of one per-group index entry:
/// `offset u32 | rows u32 | min_height u64 | max_height u64 |
///  min_time i64 | max_time i64`.
pub const GROUP_ENTRY_LEN: usize = 40;

/// Trailing magic of a finalized segment.
pub const FOOTER_MAGIC: [u8; 4] = *b"BDSF";
/// Footer size: `crc32 u32 | file_len u32 | FOOTER_MAGIC`.
pub const FOOTER_LEN: usize = 12;

/// Outcome of checking a segment's finalization footer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FooterCheck {
    /// Footer is present and the whole-file CRC matches.
    Ok,
    /// No footer magic at the end: the file was never finalized — a torn
    /// write, truncation, or a pre-footer format file.
    NotFinalized,
    /// Footer magic present but the recorded length disagrees with the
    /// actual file length (truncated or extended after finalization).
    LengthMismatch,
    /// Footer intact but the whole-file CRC disagrees: bit rot.
    CrcMismatch,
}

/// Check the finalization footer of raw segment bytes.
pub fn check_footer(data: &[u8]) -> FooterCheck {
    match check_footer_frame(data, data.len()) {
        FooterCheck::Ok => {}
        damaged => return damaged,
    }
    let base = data.len() - FOOTER_LEN;
    if crc32(&data[..base]) != lebytes::u32_at(data, base) {
        return FooterCheck::CrcMismatch;
    }
    FooterCheck::Ok
}

/// Footer *frame* check only — magic and recorded length, **not** the
/// whole-file CRC — of a `file_len`-byte segment whose last bytes are
/// `tail` (the whole file, or just its end). The pruned scan path uses
/// this so it never has to checksum pages it is about to skip; the
/// index CRC and the per-page CRCs of the groups it does decode still
/// cover everything it reads.
fn check_footer_frame(tail: &[u8], file_len: usize) -> FooterCheck {
    if tail.len() < FOOTER_LEN || tail[tail.len() - 4..] != FOOTER_MAGIC {
        return FooterCheck::NotFinalized;
    }
    if lebytes::u32_at(tail, tail.len() - 8) as usize != file_len {
        return FooterCheck::LengthMismatch;
    }
    FooterCheck::Ok
}

/// A footer check's outcome as a `Result`, with `what` naming the
/// artifact.
fn footer_result(check: FooterCheck, file_len: usize, what: &str) -> Result<()> {
    let detail = match check {
        FooterCheck::Ok => return Ok(()),
        FooterCheck::NotFinalized => {
            "missing finalization footer (torn write or truncated file)".to_string()
        }
        FooterCheck::LengthMismatch => format!(
            "footer length disagrees with file length {file_len} (truncated after finalization)"
        ),
        FooterCheck::CrcMismatch => "whole-file crc mismatch (bit rot)".to_string(),
    };
    Err(StoreError::Corrupt {
        what: what.to_string(),
        detail,
    })
}

/// [`check_footer`] as a `Result`, with `what` naming the artifact.
pub fn verify_footer(data: &[u8], what: &str) -> Result<()> {
    footer_result(check_footer(data), data.len(), what)
}

/// [`check_footer_frame`] as a `Result`.
fn verify_footer_frame(tail: &[u8], file_len: usize, what: &str) -> Result<()> {
    footer_result(check_footer_frame(tail, file_len), file_len, what)
}

/// The stored whole-file CRC of a finalized segment — its content
/// identity (used to key the page cache and recorded in the manifest).
/// `None` when the footer frame is absent or inconsistent.
pub fn footer_crc(data: &[u8]) -> Option<u32> {
    match check_footer_frame(data, data.len()) {
        FooterCheck::Ok => Some(lebytes::u32_at(data, data.len() - FOOTER_LEN)),
        _ => None,
    }
}

/// Append the finalization footer to an encoded segment body.
fn push_footer(out: &mut Vec<u8>) {
    let crc = crc32(out);
    let total = out.len() + FOOTER_LEN;
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&(total as u32).to_le_bytes());
    out.extend_from_slice(&FOOTER_MAGIC);
}

/// Recompute and rewrite the footer over `data`'s current body — used by
/// the fault injector to simulate a *buggy writer* (page-level damage
/// behind a self-consistent footer) as opposed to post-commit bit rot.
pub(crate) fn refit_footer(data: &mut Vec<u8>) {
    assert!(data.len() >= FOOTER_LEN, "no footer to refit");
    data.truncate(data.len() - FOOTER_LEN);
    push_footer(data);
}

/// Recompute and rewrite the index block's CRC over its current bytes —
/// used by the fault injector to plant an index whose CRC is valid but
/// whose zone entries disagree with the rows (a buggy-indexer fault, as
/// opposed to index bit rot which leaves the CRC stale).
pub(crate) fn refit_index_crc(data: &mut [u8]) {
    let len = data.len();
    assert!(len >= FOOTER_LEN + 8, "no index to refit");
    let idx_field = len - FOOTER_LEN - 4;
    let index_off = lebytes::u32_at(data, idx_field) as usize;
    assert!(index_off + 4 <= idx_field, "index offset out of range");
    let crc = crc32(&data[index_off..idx_field - 4]);
    data[idx_field - 4..idx_field].copy_from_slice(&crc.to_le_bytes());
}

/// Byte range `[start, end)` of the index block (magic through index
/// CRC) inside a finalized segment, for targeted fault injection.
pub(crate) fn index_bounds(data: &[u8]) -> Option<(usize, usize)> {
    if data.len() < FOOTER_LEN + 8 {
        return None;
    }
    let idx_field = data.len() - FOOTER_LEN - 4;
    let index_off = u32::from_le_bytes(data[idx_field..idx_field + 4].try_into().ok()?) as usize;
    if index_off + 4 > idx_field {
        return None;
    }
    Some((index_off, idx_field))
}

/// The seven columns of a page group. Encoders and decoders match on
/// it, so a column without an arm does not compile.
#[derive(Clone, Copy)]
enum Column {
    Height,
    Timestamp,
    Producer,
    Credit,
    TxCount,
    SizeBytes,
    Difficulty,
}

/// The column layout, in file order (repeated once per page group),
/// with each column's name and the codec the writer uses.
const COLUMNS: [(Column, &str, Codec); 7] = [
    (Column::Height, "height", Codec::DeltaVarint),
    (Column::Timestamp, "timestamp", Codec::DeltaVarint),
    (Column::Producer, "producer", Codec::PlainVarint),
    (Column::Credit, "credit", Codec::PlainVarint),
    (Column::TxCount, "tx_count", Codec::PlainVarint),
    (Column::SizeBytes, "size_bytes", Codec::PlainVarint),
    (Column::Difficulty, "difficulty", Codec::DeltaVarint),
];

/// One page group's entry in the index block: where its seven pages
/// start, how many rows it holds, and its height/time zone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageGroup {
    /// Absolute file offset of the group's first page header.
    pub offset: u32,
    /// Rows in the group (`1..=PAGE_GROUP_ROWS`).
    pub rows: u32,
    /// Smallest height in the group.
    pub min_height: u64,
    /// Largest height in the group.
    pub max_height: u64,
    /// Smallest timestamp in the group.
    pub min_time: i64,
    /// Largest timestamp in the group.
    pub max_time: i64,
}

impl PageGroup {
    /// The group's zone as a [`ZoneMap`], for predicate pruning.
    pub fn zone(&self) -> ZoneMap {
        ZoneMap {
            min_height: self.min_height,
            max_height: self.max_height,
            min_time: self.min_time,
            max_time: self.max_time,
            rows: u64::from(self.rows),
        }
    }
}

/// A segment's decoded index block: per-group zones, per-group producer
/// bloom filters, plus the segment-level producer bloom filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentIndex {
    /// Page groups in file (= height) order.
    pub groups: Vec<PageGroup>,
    /// One bloom filter per page group, parallel to `groups`, over the
    /// distinct producer ids in that group. This is what lets a
    /// producer-filtered scan skip pages *inside* a segment it cannot
    /// skip outright — on a chain-year store every long-lived pool is
    /// in every segment's bloom, but only in a few groups' blooms.
    pub group_producers: Vec<ProducerFilter>,
    /// Bloom filter over the distinct producer ids in the segment.
    pub producers: ProducerFilter,
}

/// Parse and CRC-check the index block of a finalized v3 segment. The
/// caller must have verified at least the footer frame, so the trailing
/// `index_off` word is trustworthy as a length. Structural problems and
/// CRC mismatches surface as [`StoreError::CorruptIndex`].
pub fn parse_index(data: &[u8], what: &str) -> Result<SegmentIndex> {
    let bad = |detail: String| StoreError::CorruptIndex {
        what: what.to_string(),
        detail,
    };
    if data.len() < FOOTER_LEN + 8 {
        return Err(bad(format!("file too short for an index: {}", data.len())));
    }
    let idx_field = data.len() - FOOTER_LEN - 4;
    let index_off = lebytes::u32_at(data, idx_field) as usize;
    if index_off < 10 || index_off + 4 > idx_field {
        return Err(bad(format!("index offset {index_off} out of range")));
    }
    parse_index_region(&data[index_off..idx_field], index_off, what)
}

/// Parse the bytes of the index region itself, `[index_off, idx_field)`
/// of the file. The ranged pruned path fetches exactly this window plus
/// the trailing words, so the parse core cannot assume it holds the
/// whole file.
fn parse_index_region(region: &[u8], index_off: usize, what: &str) -> Result<SegmentIndex> {
    let bad = |detail: String| StoreError::CorruptIndex {
        what: what.to_string(),
        detail,
    };
    // Smallest possible index: magic + count + one entry + one minimal
    // group bloom (k, nwords, one word) + minimal segment bloom + crc.
    if region.len() < 4 + 4 + GROUP_ENTRY_LEN + 16 + 16 + 4 {
        return Err(bad(format!("index too short: {} bytes", region.len())));
    }
    let crc_at = region.len() - 4;
    let stored = lebytes::u32_at(region, crc_at);
    if crc32(&region[..crc_at]) != stored {
        return Err(bad("index crc mismatch".to_string()));
    }
    let body = &region[..crc_at];
    if body[..4] != INDEX_MAGIC {
        return Err(bad("bad index magic".to_string()));
    }
    let count = lebytes::u32_at(body, 4) as usize;
    if count == 0 || count > SEGMENT_ROWS.div_ceil(PAGE_GROUP_ROWS) {
        return Err(bad(format!("group count {count} out of range")));
    }
    let entries_end = 8 + count * GROUP_ENTRY_LEN;
    if body.len() < entries_end {
        return Err(bad("index truncated inside group entries".to_string()));
    }
    let mut groups = Vec::with_capacity(count);
    let mut prev_offset = 0u32;
    for g in 0..count {
        let at = 8 + g * GROUP_ENTRY_LEN;
        let e = &body[at..at + GROUP_ENTRY_LEN];
        let group = PageGroup {
            offset: lebytes::u32_at(e, 0),
            rows: lebytes::u32_at(e, 4),
            min_height: lebytes::u64_at(e, 8),
            max_height: lebytes::u64_at(e, 16),
            min_time: lebytes::i64_at(e, 24),
            max_time: lebytes::i64_at(e, 32),
        };
        if group.rows == 0 || group.rows as usize > PAGE_GROUP_ROWS {
            return Err(bad(format!(
                "group {g}: row count {} out of range",
                group.rows
            )));
        }
        if (group.offset as usize) < 10 || group.offset as usize >= index_off {
            return Err(bad(format!(
                "group {g}: offset {} out of range",
                group.offset
            )));
        }
        if group.offset <= prev_offset && g > 0 {
            return Err(bad(format!("group {g}: offsets not increasing")));
        }
        if group.min_height > group.max_height || group.min_time > group.max_time {
            return Err(bad(format!("group {g}: inverted zone bounds")));
        }
        prev_offset = group.offset;
        groups.push(group);
    }
    let mut at = entries_end;
    let mut group_producers = Vec::with_capacity(count);
    for g in 0..count {
        let (filter, used) = ProducerFilter::decode_from(&body[at..])
            .ok_or_else(|| bad(format!("group {g}: bloom filter truncated or malformed")))?;
        group_producers.push(filter);
        at += used;
    }
    let (producers, used) = ProducerFilter::decode_from(&body[at..])
        .ok_or_else(|| bad("segment bloom filter truncated or malformed".to_string()))?;
    if at + used != body.len() {
        return Err(bad(format!(
            "{} trailing bytes after bloom filters",
            body.len() - at - used
        )));
    }
    Ok(SegmentIndex {
        groups,
        group_producers,
        producers,
    })
}

/// Encode rows into the segment byte format.
pub fn encode_segment(rows: &[RowRecord]) -> Vec<u8> {
    assert!(!rows.is_empty(), "cannot encode an empty segment");
    assert!(rows.len() <= SEGMENT_ROWS, "segment over capacity");
    let n = rows.len();
    let mut out = Vec::with_capacity(n * 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());

    let mut payload = Vec::with_capacity(PAGE_GROUP_ROWS * 2);
    let mut groups: Vec<PageGroup> = Vec::with_capacity(n.div_ceil(PAGE_GROUP_ROWS));
    let mut group_blooms: Vec<ProducerFilter> = Vec::with_capacity(groups.capacity());
    for chunk in rows.chunks(PAGE_GROUP_ROWS) {
        let offset = out.len() as u32;
        encode_group(chunk, &mut out, &mut payload);
        let (mut min_t, mut max_t) = (i64::MAX, i64::MIN);
        for r in chunk {
            min_t = min_t.min(r.timestamp);
            max_t = max_t.max(r.timestamp);
        }
        groups.push(PageGroup {
            offset,
            rows: chunk.len() as u32,
            min_height: chunk[0].height,
            max_height: chunk[chunk.len() - 1].height,
            min_time: min_t,
            max_time: max_t,
        });
        let chunk_producers: Vec<u32> = chunk.iter().map(|r| r.producer).collect();
        group_blooms.push(ProducerFilter::from_producers(&chunk_producers));
    }

    let index_off = out.len() as u32;
    out.extend_from_slice(&INDEX_MAGIC);
    out.extend_from_slice(&(groups.len() as u32).to_le_bytes());
    for g in &groups {
        out.extend_from_slice(&g.offset.to_le_bytes());
        out.extend_from_slice(&g.rows.to_le_bytes());
        out.extend_from_slice(&g.min_height.to_le_bytes());
        out.extend_from_slice(&g.max_height.to_le_bytes());
        out.extend_from_slice(&g.min_time.to_le_bytes());
        out.extend_from_slice(&g.max_time.to_le_bytes());
    }
    for bloom in &group_blooms {
        bloom.encode_into(&mut out);
    }
    let producers: Vec<u32> = rows.iter().map(|r| r.producer).collect();
    ProducerFilter::from_producers(&producers).encode_into(&mut out);
    let index_crc = crc32(&out[index_off as usize..]);
    out.extend_from_slice(&index_crc.to_le_bytes());
    out.extend_from_slice(&index_off.to_le_bytes());
    push_footer(&mut out);
    out
}

/// Encode one page group's seven column pages.
fn encode_group(rows: &[RowRecord], out: &mut Vec<u8>, payload: &mut Vec<u8>) {
    let n = rows.len();
    for (col, _, codec) in COLUMNS {
        payload.clear();
        match col {
            Column::Height => encode_column(codec, &collect(rows, |r| r.height), payload),
            Column::Timestamp => {
                let v: Vec<i64> = rows.iter().map(|r| r.timestamp).collect();
                encode_signed_column(codec, &v, payload);
            }
            Column::Producer => {
                encode_column(codec, &collect(rows, |r| u64::from(r.producer)), payload)
            }
            Column::Credit => encode_column(
                codec,
                &collect(rows, |r| u64::from(r.credit_millis)),
                payload,
            ),
            Column::TxCount => {
                encode_column(codec, &collect(rows, |r| u64::from(r.tx_count)), payload)
            }
            Column::SizeBytes => {
                encode_column(codec, &collect(rows, |r| u64::from(r.size_bytes)), payload)
            }
            Column::Difficulty => encode_column(codec, &collect(rows, |r| r.difficulty), payload),
        }
        write_page(out, codec, n as u32, payload);
    }
}

fn collect(rows: &[RowRecord], f: impl Fn(&RowRecord) -> u64) -> Vec<u64> {
    rows.iter().map(f).collect()
}

/// What a pruned decode touched: how many page groups the index let it
/// skip without reading a byte of their pages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrunedDecode {
    /// Rows decoded (rows of the groups that survived pruning).
    pub rows: usize,
    /// Page groups in the segment.
    pub groups_total: usize,
    /// Page groups skipped via index zone maps or group bloom misses.
    pub groups_skipped: usize,
}

impl PrunedDecode {
    /// CRC-framed column pages skipped — each pruned group holds one
    /// page per column.
    pub fn pages_skipped(&self) -> usize {
        self.groups_skipped * COLUMNS.len()
    }
}

/// Reusable zero-copy segment decoder: the decode core of every scan,
/// of fsck and of the compactor.
///
/// [`SegmentDecoder::decode`] verifies the footer and header, borrows
/// each column page straight out of the input buffer (no payload copies
/// — [`crate::page::read_page`] returns slices), and batch-decodes every
/// column into scratch buffers owned by the decoder. Reusing one decoder
/// across segments makes a scan allocation-free after the first segment,
/// which is what lets scans skip the per-segment `Vec<RowRecord>`
/// materialization entirely.
///
/// Scans use the pruned variants, [`SegmentDecoder::decode_pruned`] and
/// [`SegmentDecoder::decode_pruned_ranged`], which decode only the page
/// groups whose zones may match a predicate and cross-check each of them
/// against the index: the header's row count against the index total,
/// the group's pages against its extent, and its rows against its zone.
/// The full [`SegmentDecoder::decode`] (behind [`decode_segment`], which
/// fsck, scrub and the compactor use) adds the two checks that need
/// every byte: the whole-file CRC and per-row bloom membership.
///
/// ```
/// use blockdec_store::segment::{encode_segment, SegmentDecoder};
/// use blockdec_store::RowRecord;
/// let rows = vec![RowRecord {
///     height: 7_100_000, timestamp: 1_546_300_800, producer: 3,
///     credit_millis: 1_000, tx_count: 120, size_bytes: 30_000,
///     difficulty: 2_579_862_183_216_551,
/// }];
/// let bytes = encode_segment(&rows);
/// let mut dec = SegmentDecoder::new();
/// let n = dec.decode(&bytes, "example").unwrap();
/// assert_eq!(n, 1);
/// assert_eq!(dec.row(0), rows[0]);
/// ```
#[derive(Default)]
pub struct SegmentDecoder {
    rows: usize,
    heights: Vec<u64>,
    timestamps: Vec<i64>,
    ts_scratch: Vec<u64>,
    producers: Vec<u64>,
    credits: Vec<u64>,
    tx_counts: Vec<u64>,
    size_bytes: Vec<u64>,
    difficulties: Vec<u64>,
}

impl SegmentDecoder {
    /// A decoder with empty scratch buffers.
    pub fn new() -> SegmentDecoder {
        SegmentDecoder::default()
    }

    fn clear(&mut self) {
        self.rows = 0;
        self.heights.clear();
        self.timestamps.clear();
        self.producers.clear();
        self.credits.clear();
        self.tx_counts.clear();
        self.size_bytes.clear();
        self.difficulties.clear();
    }

    /// Parse and sanity-check the 10-byte header; returns the declared
    /// row count.
    fn parse_header(body: &[u8], what: &str) -> Result<usize> {
        let bad = |detail: String| StoreError::BadFormat {
            what: what.to_string(),
            detail,
        };
        if body.len() < 10 {
            return Err(bad(format!("file too short: {} bytes", body.len())));
        }
        if body[..4] != MAGIC {
            return Err(bad("bad magic".to_string()));
        }
        let version = lebytes::u16_at(body, 4);
        if version != VERSION {
            return Err(bad(format!("unsupported version {version}")));
        }
        let n = lebytes::u32_at(body, 6) as usize;
        if n == 0 || n > SEGMENT_ROWS {
            return Err(bad(format!("row count {n} out of range")));
        }
        Ok(n)
    }

    /// Decode one page group's seven pages from `cursor`, appending to
    /// the column buffers. `n` is the group's expected row count.
    fn decode_group(&mut self, cursor: &mut &[u8], n: usize, what: &str) -> Result<()> {
        for (col, name, _) in COLUMNS {
            let (codec, rows_in_page, payload) = read_page(cursor, what)?;
            if rows_in_page as usize != n {
                return Err(StoreError::Corrupt {
                    what: what.to_string(),
                    detail: format!("column {name}: {rows_in_page} rows, expected {n}"),
                });
            }
            let out = match col {
                Column::Height => &mut self.heights,
                Column::Timestamp => {
                    decode_signed_column_into(
                        codec,
                        payload,
                        n,
                        &mut self.ts_scratch,
                        &mut self.timestamps,
                    )?;
                    continue;
                }
                Column::Producer => &mut self.producers,
                Column::Credit => &mut self.credits,
                Column::TxCount => &mut self.tx_counts,
                Column::SizeBytes => &mut self.size_bytes,
                Column::Difficulty => &mut self.difficulties,
            };
            decode_column_into(codec, payload, n, out)?;
        }
        Ok(())
    }

    /// Validate the u32-narrow columns row-major, in field order, so a
    /// segment with several oversized values reports the same first
    /// offender the row decoder always has.
    fn validate_narrow(&self, what: &str) -> Result<()> {
        let narrow = |v: u64, col: &str| -> Result<()> {
            if v > u64::from(u32::MAX) {
                return Err(StoreError::Corrupt {
                    what: what.to_string(),
                    detail: format!("column {col}: value {v} exceeds u32"),
                });
            }
            Ok(())
        };
        for i in 0..self.heights.len() {
            narrow(self.producers[i], "producer")?;
            narrow(self.credits[i], "credit")?;
            narrow(self.tx_counts[i], "tx_count")?;
            narrow(self.size_bytes[i], "size_bytes")?;
        }
        Ok(())
    }

    /// Decode a segment byte buffer into the decoder's columns, replacing
    /// any previous contents. Returns the row count on success.
    ///
    /// This is the *full* decode: whole-file CRC, every page, and a
    /// cross-check of the index block against the decoded rows. Index
    /// inconsistencies surface as [`StoreError::CorruptIndex`].
    pub fn decode(&mut self, data: &[u8], what: &str) -> Result<usize> {
        self.clear();
        verify_footer(data, what)?;
        let body = &data[..data.len() - FOOTER_LEN];
        let n = Self::parse_header(body, what)?;
        let index = parse_index(data, what)?;
        check_row_count(&index, n, what)?;
        let bad_index = |detail: String| StoreError::CorruptIndex {
            what: what.to_string(),
            detail,
        };
        let idx_field = data.len() - FOOTER_LEN - 4;
        let index_off = lebytes::u32_at(data, idx_field) as usize;
        let mut cursor = &data[10..index_off];
        for (g, group) in index.groups.iter().enumerate() {
            let pos = index_off - cursor.len();
            if group.offset as usize != pos {
                return Err(bad_index(format!(
                    "group {g}: index offset {} but pages start at {pos}",
                    group.offset
                )));
            }
            self.decode_group(&mut cursor, group.rows as usize, what)?;
        }
        if !cursor.is_empty() {
            return Err(bad_index(format!(
                "{} trailing bytes between last page and index",
                cursor.len()
            )));
        }

        // Cross-check the index's zones and blooms against the rows.
        let mut at = 0usize;
        for (g, group) in index.groups.iter().enumerate() {
            self.check_group_zone(at, g, group, what)?;
            let rows = group.rows as usize;
            for &p in &self.producers[at..at + rows] {
                if p > u64::from(u32::MAX) {
                    continue; // reported by validate_narrow below
                }
                if !index.producers.contains(p as u32) {
                    return Err(bad_index(format!(
                        "segment bloom misses producer {p} (false negatives must be impossible)"
                    )));
                }
                if !index.group_producers[g].contains(p as u32) {
                    return Err(bad_index(format!(
                        "group {g} bloom misses producer {p} (false negatives must be impossible)"
                    )));
                }
            }
            at += rows;
        }

        self.validate_narrow(what)?;
        self.rows = n;
        Ok(n)
    }

    /// Decode only the page groups that may satisfy `pred` — a group is
    /// skipped when its index zone cannot overlap the predicate's
    /// height/time range *or* its bloom filter proves the scanned
    /// producer absent — without reading a byte of the skipped pages,
    /// and skipping the whole-file CRC, whose cost is proportional to
    /// the bytes we are trying not to touch. What *is* read stays fully
    /// checked: the footer frame, the header, the CRC-covered index
    /// block and its row total, the per-page CRCs of every decoded
    /// group, and each decoded group's extent and zone against its
    /// index entry.
    ///
    /// The decoder afterwards holds the surviving groups' rows,
    /// contiguous and in height order; rows that match `pred` are a
    /// subset of them (zones are conservative), so callers filter
    /// per-row exactly as they would after a full decode.
    pub fn decode_pruned(
        &mut self,
        data: &[u8],
        what: &str,
        pred: &ScanPredicate,
    ) -> Result<PrunedDecode> {
        self.clear();
        verify_footer_frame(data, data.len(), what)?;
        let body = &data[..data.len() - FOOTER_LEN];
        let n = Self::parse_header(body, what)?;
        let index = parse_index(data, what)?;
        check_row_count(&index, n, what)?;
        let idx_field = data.len() - FOOTER_LEN - 4;
        let index_off = lebytes::u32_at(data, idx_field) as usize;
        let mut decoded = 0usize;
        for (g, start, end) in surviving_groups(&index, index_off, pred) {
            self.decode_indexed_group(&data[start..end], &index, g, what)?;
            decoded += 1;
        }
        self.finish_pruned(&index, decoded, what)
    }

    /// [`SegmentDecoder::decode_pruned`] over a backend that serves byte
    /// ranges, so pruning sheds *bytes fetched*, not just decode work.
    ///
    /// `fetch(offset, len)` returns that window of the segment object
    /// (typically via [`crate::backend::PageCache`]); `file_len` is the
    /// object's total size. The sequence fetches the 16-byte tail
    /// (footer frame + index offset word), the 10-byte header, the
    /// CRC-checked index block, and then only the page extents of the
    /// groups that survive zone/bloom pruning — a 3-day window over a
    /// chain-year segment touches a small fraction of the file.
    ///
    /// Validation matches [`SegmentDecoder::decode_pruned`] check for
    /// check (same error texts in the same order); group extents come
    /// from the CRC-covered index, every fetched page still passes its
    /// own CRC, and every decoded group must fill its extent and match
    /// its zone, so an index that lies about offsets or zones fails
    /// decoding rather than yielding bad rows.
    pub fn decode_pruned_ranged(
        &mut self,
        fetch: &mut dyn FnMut(u64, usize) -> Result<Arc<Vec<u8>>>,
        file_len: u64,
        what: &str,
        pred: &ScanPredicate,
    ) -> Result<PrunedDecode> {
        const TAIL_LEN: usize = FOOTER_LEN + 4;
        if file_len < TAIL_LEN as u64 {
            // Too small to hold even the tail: fetch it whole so the
            // degenerate cases fail exactly like the in-memory path.
            let data = fetch(0, file_len as usize)?;
            return self.decode_pruned(&data, what, pred);
        }
        self.clear();
        let tail = fetch(file_len - TAIL_LEN as u64, TAIL_LEN)?;
        verify_footer_frame(&tail, file_len as usize, what)?;
        let body_len = (file_len as usize) - FOOTER_LEN;
        if body_len < 10 {
            return Err(StoreError::BadFormat {
                what: what.to_string(),
                detail: format!("file too short: {body_len} bytes"),
            });
        }
        let header = fetch(0, 10)?;
        let n = Self::parse_header(&header, what)?;
        let idx_field = (file_len as usize) - FOOTER_LEN - 4;
        let index_off = lebytes::u32_at(&tail, 0) as usize;
        if index_off < 10 || index_off + 4 > idx_field {
            return Err(StoreError::CorruptIndex {
                what: what.to_string(),
                detail: format!("index offset {index_off} out of range"),
            });
        }
        let region = fetch(index_off as u64, idx_field - index_off)?;
        let index = parse_index_region(&region, index_off, what)?;
        check_row_count(&index, n, what)?;
        let mut decoded = 0usize;
        for (g, start, end) in surviving_groups(&index, index_off, pred) {
            let extent = fetch(start as u64, end - start)?;
            self.decode_indexed_group(&extent, &index, g, what)?;
            decoded += 1;
        }
        self.finish_pruned(&index, decoded, what)
    }

    /// Decode page group `g` of `index` from `extent` — exactly the
    /// bytes from the group's offset to the next group's, or to the
    /// index — and check it against its index entry: its pages must
    /// fill the extent, and its rows must span exactly the entry's
    /// height and time zone. Both pruned decodes read every group
    /// through here, so an index that lies about an extent or a zone
    /// fails every scan that reads the group, not only fsck.
    fn decode_indexed_group(
        &mut self,
        extent: &[u8],
        index: &SegmentIndex,
        g: usize,
        what: &str,
    ) -> Result<()> {
        let group = &index.groups[g];
        let at = self.heights.len();
        let mut cursor = extent;
        self.decode_group(&mut cursor, group.rows as usize, what)?;
        if !cursor.is_empty() {
            // The full decode's texts: it finds the same gap at the next
            // group's offset, or before the index.
            let detail = match index.groups.get(g + 1) {
                Some(next) => format!(
                    "group {}: index offset {} but pages start at {}",
                    g + 1,
                    next.offset,
                    next.offset as usize - cursor.len()
                ),
                None => format!(
                    "{} trailing bytes between last page and index",
                    cursor.len()
                ),
            };
            return Err(StoreError::CorruptIndex {
                what: what.to_string(),
                detail,
            });
        }
        self.check_group_zone(at, g, group, what)
    }

    /// Check that the rows decoded for `group` (index entry `g`),
    /// starting at row `at`, span exactly its index zone — one min/max
    /// pass over columns already decoded.
    fn check_group_zone(&self, at: usize, g: usize, group: &PageGroup, what: &str) -> Result<()> {
        let rows = at..at + group.rows as usize;
        // Sentinel bounds for an (invalid) empty group fail the zone
        // comparison below as corruption rather than panicking here.
        let (min_h, max_h) = self.heights[rows.clone()]
            .iter()
            .fold((u64::MAX, u64::MIN), |(lo, hi), &h| (lo.min(h), hi.max(h)));
        let (min_t, max_t) = self.timestamps[rows]
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        if (min_h, max_h, min_t, max_t)
            != (
                group.min_height,
                group.max_height,
                group.min_time,
                group.max_time,
            )
        {
            return Err(StoreError::CorruptIndex {
                what: what.to_string(),
                detail: format!(
                    "group {g}: zone [{}..{}]h/[{}..{}]t disagrees with rows \
                     [{min_h}..{max_h}]h/[{min_t}..{max_t}]t",
                    group.min_height, group.max_height, group.min_time, group.max_time
                ),
            });
        }
        Ok(())
    }

    /// Close a pruned decode of `decoded` groups out of `index`.
    fn finish_pruned(
        &mut self,
        index: &SegmentIndex,
        decoded: usize,
        what: &str,
    ) -> Result<PrunedDecode> {
        self.validate_narrow(what)?;
        self.rows = self.heights.len();
        Ok(PrunedDecode {
            rows: self.rows,
            groups_total: index.groups.len(),
            groups_skipped: index.groups.len() - decoded,
        })
    }

    /// Last-resort decode for repair: parse the header and decode page
    /// groups sequentially at their conventional positions, ignoring
    /// the index block entirely. Per-page CRCs still gate every byte of
    /// row data, so salvage succeeds exactly when the pages are intact
    /// behind a damaged index — which is what lets
    /// [`crate::doctor::StoreDoctor`] recover all rows of a segment
    /// whose only fault is index corruption.
    pub fn decode_salvage(&mut self, data: &[u8], what: &str) -> Result<usize> {
        self.clear();
        verify_footer_frame(data, data.len(), what)?;
        let body = &data[..data.len() - FOOTER_LEN];
        let n = Self::parse_header(body, what)?;
        let idx_field = data.len() - FOOTER_LEN - 4;
        let index_off = lebytes::u32_at(data, idx_field) as usize;
        if index_off < 10 || index_off > idx_field {
            return Err(StoreError::Corrupt {
                what: what.to_string(),
                detail: format!("index offset {index_off} out of range"),
            });
        }
        let mut cursor = &data[10..index_off];
        let mut remaining = n;
        while remaining > 0 {
            let g = remaining.min(PAGE_GROUP_ROWS);
            self.decode_group(&mut cursor, g, what)?;
            remaining -= g;
        }
        self.validate_narrow(what)?;
        self.rows = n;
        Ok(n)
    }

    /// Rows decoded by the last successful [`SegmentDecoder::decode`].
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no segment is currently decoded.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` of the decoded segment, assembled on the stack.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> RowRecord {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        RowRecord {
            height: self.heights[i],
            timestamp: self.timestamps[i],
            producer: self.producers[i] as u32,
            credit_millis: self.credits[i] as u32,
            tx_count: self.tx_counts[i] as u32,
            size_bytes: self.size_bytes[i] as u32,
            difficulty: self.difficulties[i],
        }
    }
}

/// Check that the header's row count `n` equals the index's total.
fn check_row_count(index: &SegmentIndex, n: usize, what: &str) -> Result<()> {
    let declared: usize = index.groups.iter().map(|g| g.rows as usize).sum();
    if declared != n {
        return Err(StoreError::CorruptIndex {
            what: what.to_string(),
            detail: format!("index declares {declared} rows, header says {n}"),
        });
    }
    Ok(())
}

/// The page groups of `index` a pruned decode must read — those whose
/// zone may overlap `pred` and whose bloom may hold its producer — as
/// `(group, start, end)`: the group's extent runs from its offset to
/// the next group's, or to the index at `index_off`.
fn surviving_groups<'a>(
    index: &'a SegmentIndex,
    index_off: usize,
    pred: &'a ScanPredicate,
) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
    index
        .groups
        .iter()
        .enumerate()
        .filter(move |&(g, group)| {
            pred.may_match(&group.zone())
                && pred
                    .producer
                    .is_none_or(|p| index.group_producers[g].contains(p))
        })
        .map(move |(g, group)| {
            let end = index
                .groups
                .get(g + 1)
                .map_or(index_off, |next| next.offset as usize);
            (g, group.offset as usize, end)
        })
}

/// Decode a segment byte buffer back into rows. The finalization footer
/// is verified first, so a torn write or bit flip surfaces as a typed
/// [`StoreError::Corrupt`] before any page is parsed.
///
/// This is the row-path wrapper over [`SegmentDecoder`]; both scan paths
/// share its validation and batch decoding.
pub fn decode_segment(data: &[u8], what: &str) -> Result<Vec<RowRecord>> {
    let mut dec = SegmentDecoder::new();
    let n = dec.decode(data, what)?;
    Ok((0..n).map(|i| dec.row(i)).collect())
}

/// Content identity of a freshly written segment: what the manifest
/// records so scans can prune (bloom) and cache (CRC) without opening
/// the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentStamp {
    /// The whole-file footer CRC.
    pub crc: u32,
    /// The producer bloom filter, identical to the one in the index
    /// block.
    pub producers: ProducerFilter,
}

/// Write a segment crash-safely through the backend (see
/// [`crate::backend::ObjectStore::put_atomic`]) and return its content
/// stamp for the manifest.
pub fn write_segment_file(
    store: &dyn ObjectStore,
    name: &str,
    rows: &[RowRecord],
) -> Result<SegmentStamp> {
    let timer = blockdec_obs::Timer::new("store.segment_write");
    let bytes = encode_segment(rows);
    let crc = footer_crc(&bytes).expect("freshly encoded segment has a footer"); // blockdec-lint: allow(panic) — encode_segment just wrote the footer it is hashing
    store.put_atomic(name, &bytes)?;
    let elapsed_ms = timer.stop() * 1e3;
    blockdec_obs::counter("store.segments.written").inc();
    blockdec_obs::debug!(
        file = store.describe(name),
        rows = rows.len(),
        bytes = bytes.len(),
        elapsed_ms = elapsed_ms;
        "wrote segment"
    );
    let producers: Vec<u32> = rows.iter().map(|r| r.producer).collect();
    Ok(SegmentStamp {
        crc,
        producers: ProducerFilter::from_producers(&producers),
    })
}

/// Read and decode a segment object from the backend (transient read
/// faults retried).
pub fn read_segment_file(store: &dyn ObjectStore, name: &str) -> Result<Vec<RowRecord>> {
    let timer = blockdec_obs::Timer::new("store.segment_read");
    let bytes = get_retry(store, name)?;
    let rows = decode_segment(&bytes, &store.describe(name))?;
    let elapsed_ms = timer.stop() * 1e3;
    blockdec_obs::counter("store.segments.read").inc();
    blockdec_obs::debug!(
        file = store.describe(name),
        rows = rows.len(),
        elapsed_ms = elapsed_ms;
        "read segment"
    );
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<RowRecord> {
        (0..n)
            .map(|i| RowRecord {
                height: 556_459 + (i / 2) as u64, // some multi-credit heights
                timestamp: 1_546_300_800 + (i as i64) * 300,
                producer: (i % 23) as u32,
                credit_millis: if i % 7 == 0 { 500 } else { 1000 },
                tx_count: 2_000 + (i % 100) as u32,
                size_bytes: 900_000 + (i % 1000) as u32,
                difficulty: 5_000_000_000_000 + (i as u64) * 17,
            })
            .collect()
    }

    #[test]
    fn golden_segment_matches_the_format_doc() {
        // docs/FORMAT.md's worked hexdump: three rows, one page group.
        // The footer CRC covers every byte before it, so together with
        // the length it pins the whole file layout.
        let rows: Vec<RowRecord> = (0..3u32)
            .map(|n| RowRecord {
                height: 556_459 + u64::from(n),
                timestamp: 1_546_300_800 + 600 * i64::from(n),
                producer: n % 2,
                credit_millis: 1000,
                tx_count: 2000 + n,
                size_bytes: 1100,
                difficulty: 5_000_000 + u64::from(n),
            })
            .collect();
        let bytes = encode_segment(&rows);
        assert_eq!(bytes.len(), 242);
        assert_eq!(footer_crc(&bytes), Some(0x0666_d755));
        assert_eq!(decode_segment(&bytes, "golden").unwrap(), rows);
    }

    #[test]
    fn group_blooms_prune_producer_scans_inside_a_segment() {
        // Producer 999 appears only in the first page group; a
        // producer-filtered pruned decode must skip every other group
        // even though the segment-level bloom contains 999.
        let mut r = rows(3 * PAGE_GROUP_ROWS);
        r[7].producer = 999;
        let encoded = encode_segment(&r);
        let index = parse_index(&encoded, "t").unwrap();
        assert!(index.producers.contains(999));
        assert!(index.group_producers[0].contains(999));

        let pred = ScanPredicate::all().producer(999);
        let mut dec = SegmentDecoder::new();
        let pruned = dec.decode_pruned(&encoded, "t", &pred).unwrap();
        assert_eq!(pruned.groups_total, 3);
        assert!(
            pruned.groups_skipped >= 2,
            "groups 1 and 2 hold no producer 999, got {} skipped",
            pruned.groups_skipped
        );
        // The surviving rows still contain the match.
        assert!((0..dec.len()).any(|i| dec.row(i) == r[7]));
    }

    #[test]
    fn roundtrip_small_and_large() {
        // Below, at, and well past the page-group size, including the
        // full-capacity 16-group layout.
        for n in [1usize, 2, 100, 4096, 4097, 10_000, SEGMENT_ROWS] {
            let r = rows(n);
            let encoded = encode_segment(&r);
            let decoded = decode_segment(&encoded, "test").unwrap();
            assert_eq!(decoded, r, "n={n}");
        }
    }

    #[test]
    fn index_describes_the_groups() {
        let r = rows(10_000);
        let encoded = encode_segment(&r);
        let index = parse_index(&encoded, "t").unwrap();
        assert_eq!(index.groups.len(), 3);
        assert_eq!(
            index.groups.iter().map(|g| g.rows).collect::<Vec<_>>(),
            vec![4096, 4096, 10_000 - 2 * 4096]
        );
        assert_eq!(index.groups[0].offset, 10);
        assert_eq!(index.groups[0].min_height, r[0].height);
        assert_eq!(index.groups[2].max_height, r.last().unwrap().height);
        for p in 0..23u32 {
            assert!(index.producers.contains(p), "bloom lost producer {p}");
        }
    }

    #[test]
    fn compression_is_effective() {
        let r = rows(4096);
        let encoded = encode_segment(&r);
        let raw_size = r.len() * std::mem::size_of::<RowRecord>();
        assert!(
            encoded.len() * 2 < raw_size,
            "encoded {} vs raw {raw_size}",
            encoded.len()
        );
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let r = rows(4);
        let mut encoded = encode_segment(&r);
        encoded[0] = b'X';
        assert!(decode_segment(&encoded, "t").is_err());
        let mut encoded = encode_segment(&r);
        encoded[4] = 99;
        assert!(decode_segment(&encoded, "t").is_err());
    }

    #[test]
    fn rejects_corrupted_column() {
        let r = rows(64);
        let mut encoded = encode_segment(&r);
        // Flip a byte well inside the first column page payload.
        let idx = 10 + 9 + 5;
        encoded[idx] ^= 0xFF;
        let err = decode_segment(&encoded, "t").unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let r = rows(64);
        let encoded = encode_segment(&r);
        assert!(decode_segment(&encoded[..encoded.len() - 3], "t").is_err());
        let mut padded = encoded.clone();
        padded.extend_from_slice(&[0, 1, 2]);
        assert!(decode_segment(&padded, "t").is_err());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_segment_panics() {
        encode_segment(&[]);
    }

    #[test]
    fn file_roundtrip() {
        use std::fs;
        let dir = std::env::temp_dir().join(format!("blockdec-seg-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = crate::backend::LocalFs::new(&dir);
        let name = "seg-00000000.bds";
        let r = rows(1000);
        let stamp = write_segment_file(&store, name, &r).unwrap();
        assert_eq!(read_segment_file(&store, name).unwrap(), r);
        let bytes = fs::read(dir.join(name)).unwrap();
        assert_eq!(footer_crc(&bytes), Some(stamp.crc));
        assert_eq!(parse_index(&bytes, "t").unwrap().producers, stamp.producers);
        // No temp file left behind.
        assert!(!dir.join("seg-00000000.bds.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ranged_pruned_decode_matches_in_memory_and_sheds_bytes() {
        let r = rows(10_000);
        let encoded = encode_segment(&r);
        let mid = r[5000].height;
        let pred = ScanPredicate::all().heights(mid, mid + 100);

        let mut dec = SegmentDecoder::new();
        let want = dec.decode_pruned(&encoded, "t", &pred).unwrap();
        let want_rows: Vec<RowRecord> = (0..dec.len()).map(|i| dec.row(i)).collect();

        let mut fetched = 0usize;
        let mut fetch = |off: u64, len: usize| -> Result<Arc<Vec<u8>>> {
            fetched += len;
            Ok(Arc::new(encoded[off as usize..off as usize + len].to_vec()))
        };
        let mut ranged = SegmentDecoder::new();
        let got = ranged
            .decode_pruned_ranged(&mut fetch, encoded.len() as u64, "t", &pred)
            .unwrap();
        assert_eq!(got, want);
        let got_rows: Vec<RowRecord> = (0..ranged.len()).map(|i| ranged.row(i)).collect();
        assert_eq!(got_rows, want_rows);
        assert!(
            fetched * 2 < encoded.len(),
            "ranged decode fetched {fetched} of {} bytes",
            encoded.len()
        );
    }

    #[test]
    fn ranged_pruned_decode_rejects_damage_like_in_memory() {
        let r = rows(128);
        let mut encoded = encode_segment(&r);
        let (start, end) = index_bounds(&encoded).unwrap();
        encoded[start + 9] ^= 0x10;
        assert!(start + 9 < end - 4);
        refit_footer(&mut encoded);
        let fetch_from = |bytes: &[u8]| {
            let bytes = bytes.to_vec();
            move |off: u64, len: usize| -> Result<Arc<Vec<u8>>> {
                Ok(Arc::new(bytes[off as usize..off as usize + len].to_vec()))
            }
        };
        let mut dec = SegmentDecoder::new();
        let err = dec
            .decode_pruned_ranged(
                &mut fetch_from(&encoded),
                encoded.len() as u64,
                "t",
                &ScanPredicate::all(),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::CorruptIndex { .. }), "{err}");

        // Truncation loses the footer frame.
        let truncated = &encoded[..encoded.len() - 3];
        let err = dec
            .decode_pruned_ranged(
                &mut fetch_from(truncated),
                truncated.len() as u64,
                "t",
                &ScanPredicate::all(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("finalization footer"), "{err}");
    }

    #[test]
    fn footer_classifies_damage() {
        let r = rows(64);
        let encoded = encode_segment(&r);
        assert_eq!(check_footer(&encoded), FooterCheck::Ok);
        // Truncation loses the footer entirely.
        assert_eq!(
            check_footer(&encoded[..encoded.len() - 1]),
            FooterCheck::NotFinalized
        );
        // A body bit flip is bit rot, not a torn write.
        let mut flipped = encoded.clone();
        flipped[20] ^= 0x01;
        assert_eq!(check_footer(&flipped), FooterCheck::CrcMismatch);
        // A self-consistent footer over a damaged body reads as Ok at the
        // footer layer — the page CRCs are the second line of defense.
        refit_footer(&mut flipped);
        assert_eq!(check_footer(&flipped), FooterCheck::Ok);
        assert!(decode_segment(&flipped, "t").is_err());
    }

    #[test]
    fn footer_detects_length_tampering() {
        let r = rows(8);
        let mut encoded = encode_segment(&r);
        // Splice extra bytes before the footer, keeping the magic at the
        // end: recorded length no longer matches.
        let at = encoded.len() - FOOTER_LEN;
        encoded.splice(at..at, [0u8; 4]);
        assert_eq!(check_footer(&encoded), FooterCheck::LengthMismatch);
        assert!(decode_segment(&encoded, "t").is_err());
    }

    #[test]
    fn index_bit_rot_is_corrupt_index() {
        let r = rows(128);
        let mut encoded = encode_segment(&r);
        let (start, end) = index_bounds(&encoded).unwrap();
        // Flip a bit inside the index body (not its CRC), then refit the
        // footer so the damage is *only* visible at the index layer.
        encoded[start + 9] ^= 0x10;
        assert!(start + 9 < end - 4);
        refit_footer(&mut encoded);
        let err = decode_segment(&encoded, "t").unwrap_err();
        assert!(matches!(err, StoreError::CorruptIndex { .. }), "{err}");
        let mut dec = SegmentDecoder::new();
        let err = dec
            .decode_pruned(&encoded, "t", &ScanPredicate::all())
            .unwrap_err();
        assert!(matches!(err, StoreError::CorruptIndex { .. }), "{err}");
    }

    #[test]
    fn zone_drift_behind_valid_index_crc_is_corrupt_index() {
        let r = rows(5000);
        let mut encoded = encode_segment(&r);
        let (start, _) = index_bounds(&encoded).unwrap();
        // Bump group 0's max_height (offset 16 into its 40-byte entry,
        // after the 8-byte index header) and make the index CRC and
        // footer collude: only the rows themselves can expose the lie.
        let at = start + 8 + 16;
        let drifted = u64::from_le_bytes(encoded[at..at + 8].try_into().unwrap()) + 7;
        encoded[at..at + 8].copy_from_slice(&drifted.to_le_bytes());
        refit_index_crc(&mut encoded);
        refit_footer(&mut encoded);
        assert!(parse_index(&encoded, "t").is_ok(), "index crc must pass");
        let err = decode_segment(&encoded, "t").unwrap_err();
        assert!(matches!(err, StoreError::CorruptIndex { .. }), "{err}");
    }

    #[test]
    fn group_pages_must_fill_their_extent() {
        // Move group 1's index offset one byte into its first page, with
        // the index CRC and footer refitted: group 0's pages still
        // decode, but stop one byte short of the extent the index gives.
        let r = rows(10_000);
        let mut encoded = encode_segment(&r);
        let (start, _) = index_bounds(&encoded).unwrap();
        let at = start + 8 + GROUP_ENTRY_LEN;
        let moved = lebytes::u32_at(&encoded, at) + 1;
        encoded[at..at + 4].copy_from_slice(&moved.to_le_bytes());
        refit_index_crc(&mut encoded);
        refit_footer(&mut encoded);
        let full = decode_segment(&encoded, "t").unwrap_err();
        assert!(matches!(full, StoreError::CorruptIndex { .. }), "{full}");
        assert!(full.to_string().contains("group 1: index offset"), "{full}");

        // A pruned decode of group 0 alone reports it the same way.
        let pred = ScanPredicate::all().heights(r[0].height, r[0].height);
        let mut dec = SegmentDecoder::new();
        let pruned = dec.decode_pruned(&encoded, "t", &pred).unwrap_err();
        assert_eq!(pruned.to_string(), full.to_string());
        let mut fetch = |off: u64, len: usize| -> Result<Arc<Vec<u8>>> {
            Ok(Arc::new(encoded[off as usize..off as usize + len].to_vec()))
        };
        let ranged = dec
            .decode_pruned_ranged(&mut fetch, encoded.len() as u64, "t", &pred)
            .unwrap_err();
        assert_eq!(ranged.to_string(), full.to_string());
    }

    #[test]
    fn pruned_decode_equals_full_decode_plus_filter() {
        let r = rows(10_000);
        let encoded = encode_segment(&r);
        let full: Vec<RowRecord> = decode_segment(&encoded, "t").unwrap();
        let mid = r[5000].height;
        let pred = ScanPredicate::all().heights(mid, mid + 100);
        let mut dec = SegmentDecoder::new();
        let pruned = dec.decode_pruned(&encoded, "t", &pred).unwrap();
        assert_eq!(pruned.groups_total, 3);
        assert!(pruned.groups_skipped >= 1, "narrow range must skip groups");
        let want: Vec<RowRecord> = full.iter().filter(|r| pred.matches(r)).copied().collect();
        let got: Vec<RowRecord> = (0..dec.len())
            .map(|i| dec.row(i))
            .filter(|r| pred.matches(r))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pruned_decode_with_no_matching_groups_is_empty() {
        let r = rows(8192);
        let encoded = encode_segment(&r);
        let pred = ScanPredicate::all().heights(1, 2);
        let mut dec = SegmentDecoder::new();
        let pruned = dec.decode_pruned(&encoded, "t", &pred).unwrap();
        assert_eq!(pruned.rows, 0);
        assert_eq!(pruned.groups_skipped, pruned.groups_total);
        assert!(dec.is_empty());
    }

    #[test]
    fn missing_file_is_io_error() {
        let store = crate::backend::LocalFs::new("/nonexistent");
        let err = read_segment_file(&store, "nope.bds").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
    }
}

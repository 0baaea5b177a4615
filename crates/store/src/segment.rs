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
use crate::catalog::SegmentMeta;
use crate::checksum::crc32;
use crate::encoding::{
    decode_column_into, decode_signed_column_into, encode_column, zigzag_encode, Codec,
};
use crate::error::{Result, StoreError};
use crate::lebytes;
use crate::page::{read_page, write_page};
use crate::row::{millis_to_weight, RowRecord};
use crate::store::ScanPredicate;
use crate::zonemap::ZoneMap;
use blockdec_chain::{BlockColumns, ProducerId};
use std::ops::{Deref, Range};

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

/// The stored whole-file CRC of a finalized segment — its content
/// identity (used to key the page cache and recorded in the manifest).
/// `None` when the trailer's footer frame or length does not check out.
pub fn footer_crc(data: &[u8]) -> Option<u32> {
    read_trailer(data, data.len(), "segment")
        .ok()
        .map(|t| t.crc)
}

/// Bytes of a segment's trailer: the index-offset word, then the
/// footer. A ranged decode fetches these first.
const TRAILER_LEN: usize = 4 + FOOTER_LEN;

/// What a segment's trailer says, as [`read_trailer`], the one reader
/// of its layout, finds it.
pub(crate) struct Trailer {
    /// The whole-file CRC the footer records.
    pub(crate) crc: u32,
    /// The index-offset word, unchecked.
    index_off: usize,
    /// Where the body, everything the whole-file CRC covers, ends.
    body_end: usize,
}

impl Trailer {
    /// The index block (magic through index CRC), when the index-offset
    /// word puts it past the header, before the word itself.
    fn index_range(&self, what: &str) -> Result<Range<usize>> {
        let index_end = self.body_end - 4;
        if self.index_off < 10 || self.index_off + 4 > index_end {
            return Err(StoreError::CorruptIndex {
                what: what.to_string(),
                detail: format!("index offset {} out of range", self.index_off),
            });
        }
        Ok(self.index_off..index_end)
    }
}

/// Read the trailer of a `file_len`-byte segment from `tail`, the whole
/// file or at least its last [`TRAILER_LEN`] bytes, after checking the
/// footer frame (not the whole-file CRC) and that the body holds the
/// 10-byte header.
pub(crate) fn read_trailer(tail: &[u8], file_len: usize, what: &str) -> Result<Trailer> {
    footer_result(check_footer_frame(tail, file_len), file_len, what)?;
    let body_len = file_len - FOOTER_LEN;
    if body_len < 10 {
        return Err(StoreError::BadFormat {
            what: what.to_string(),
            detail: format!("file too short: {body_len} bytes"),
        });
    }
    let footer = tail.len() - FOOTER_LEN;
    Ok(Trailer {
        crc: lebytes::u32_at(tail, footer),
        index_off: lebytes::u32_at(tail, footer - 4) as usize,
        body_end: body_len,
    })
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

/// Recompute and rewrite the CRC of the index block at `[start, end)`
/// (as [`index_bounds`] gives it) over its current bytes — used by the
/// fault injector to plant an index whose CRC is valid but whose zone
/// entries disagree with the rows (a buggy-indexer fault, as opposed to
/// index bit rot which leaves the CRC stale).
pub(crate) fn refit_index_crc(data: &mut [u8], (start, end): (usize, usize)) {
    let crc = crc32(&data[start..end - 4]);
    data[end - 4..end].copy_from_slice(&crc.to_le_bytes());
}

/// Byte range `[start, end)` of the index block (magic through index
/// CRC) inside a finalized segment, for targeted fault injection.
pub(crate) fn index_bounds(data: &[u8]) -> Option<(usize, usize)> {
    let what = "segment";
    let index = read_trailer(data, data.len(), what)
        .and_then(|t| t.index_range(what))
        .ok()?;
    Some((index.start, index.end))
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
/// with each column's name and its default codec. The writer uses the
/// default for every page except one whose two or more rows all hold
/// one value, which it writes as a width-0 [`Codec::ForBitpack`] page
/// ([`page_codec`]).
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

/// Parse and CRC-check the index block of a finalized v3 segment, found
/// through its trailer, whose footer-frame and length errors it
/// returns. Structural problems and CRC mismatches surface as
/// [`StoreError::CorruptIndex`].
pub fn parse_index(data: &[u8], what: &str) -> Result<SegmentIndex> {
    let index = read_trailer(data, data.len(), what)?.index_range(what)?;
    parse_index_region(&data[index.clone()], index.start, what)
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
    encode_indexed(rows).0
}

/// [`encode_segment`], handing back the index block it wrote.
fn encode_indexed(rows: &[RowRecord]) -> (Vec<u8>, SegmentIndex) {
    assert!(!rows.is_empty(), "cannot encode an empty segment");
    assert!(rows.len() <= SEGMENT_ROWS, "segment over capacity");
    let n = rows.len();
    let mut out = Vec::with_capacity(n * 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());

    let mut payload = Vec::with_capacity(PAGE_GROUP_ROWS * 2);
    let mut groups: Vec<PageGroup> = Vec::with_capacity(n.div_ceil(PAGE_GROUP_ROWS));
    let mut group_producers: Vec<ProducerFilter> = Vec::with_capacity(groups.capacity());
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
        group_producers.push(ProducerFilter::from_producers(&chunk_producers));
    }
    let producers: Vec<u32> = rows.iter().map(|r| r.producer).collect();
    let index = SegmentIndex {
        groups,
        group_producers,
        producers: ProducerFilter::from_producers(&producers),
    };

    let index_off = out.len() as u32;
    out.extend_from_slice(&INDEX_MAGIC);
    out.extend_from_slice(&(index.groups.len() as u32).to_le_bytes());
    for g in &index.groups {
        out.extend_from_slice(&g.offset.to_le_bytes());
        out.extend_from_slice(&g.rows.to_le_bytes());
        out.extend_from_slice(&g.min_height.to_le_bytes());
        out.extend_from_slice(&g.max_height.to_le_bytes());
        out.extend_from_slice(&g.min_time.to_le_bytes());
        out.extend_from_slice(&g.max_time.to_le_bytes());
    }
    for bloom in &index.group_producers {
        bloom.encode_into(&mut out);
    }
    index.producers.encode_into(&mut out);
    let index_crc = crc32(&out[index_off as usize..]);
    out.extend_from_slice(&index_crc.to_le_bytes());
    out.extend_from_slice(&index_off.to_le_bytes());
    push_footer(&mut out);
    (out, index)
}

/// Encode one page group's seven column pages.
fn encode_group(rows: &[RowRecord], out: &mut Vec<u8>, payload: &mut Vec<u8>) {
    let n = rows.len();
    for (col, _, default) in COLUMNS {
        let values = column_values(rows, col);
        let codec = page_codec(default, &values);
        payload.clear();
        encode_column(codec, &values, payload);
        write_page(out, codec, n as u32, payload);
    }
}

/// The values a page of `col` stores for `rows`: timestamps
/// zigzag-mapped, every other field widened to u64.
fn column_values(rows: &[RowRecord], col: Column) -> Vec<u64> {
    match col {
        Column::Height => collect(rows, |r| r.height),
        Column::Timestamp => collect(rows, |r| zigzag_encode(r.timestamp)),
        Column::Producer => collect(rows, |r| u64::from(r.producer)),
        Column::Credit => collect(rows, |r| u64::from(r.credit_millis)),
        Column::TxCount => collect(rows, |r| u64::from(r.tx_count)),
        Column::SizeBytes => collect(rows, |r| u64::from(r.size_bytes)),
        Column::Difficulty => collect(rows, |r| r.difficulty),
    }
}

fn collect(rows: &[RowRecord], f: impl Fn(&RowRecord) -> u64) -> Vec<u64> {
    rows.iter().map(f).collect()
}

/// The codec of a page that stores `values`: [`Codec::ForBitpack`],
/// whose width is then 0, when two or more values are all equal, and
/// the column's `default` otherwise. A one-row page keeps its default,
/// which is a byte shorter there.
fn page_codec(default: Codec, values: &[u64]) -> Codec {
    if values.len() >= 2 && values.iter().all(|&v| v == values[0]) {
        Codec::ForBitpack
    } else {
        default
    }
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
/// There is one decode body, [`SegmentDecoder::decode_pruned_ranged`]:
/// it fetches byte ranges, decodes only the page groups whose zones and
/// blooms may match a predicate, and cross-checks each of them against
/// the index — the header's row count against the index total, the
/// group's pages against its extent, and its rows against its zone. It
/// borrows each column page straight out of the fetched bytes (no
/// payload copies — [`crate::page::read_page`] returns slices) and
/// batch-decodes every column into scratch buffers owned by the
/// decoder, so reusing one decoder across segments makes a scan
/// allocation-free after the first segment.
///
/// A decoder may outlive the scan that grew it: a
/// [`crate::BlockStore`] handle keeps the decoders of its pruned scans
/// for the next ones, so their scratch is warm. Every decode starts by
/// clearing the columns, so nothing of one decode, a failed one
/// included, reaches the next. The scratch holds at most one segment's
/// rows, [`SEGMENT_ROWS`], in eight 64-bit columns: 4 MiB at most.
///
/// [`SegmentDecoder::decode_pruned`] is that body over an in-memory
/// buffer. The full [`SegmentDecoder::decode`] (behind
/// [`decode_segment`], which fsck, repair and the compactor use) is the
/// whole-file CRC, the body over every group, and per-row bloom
/// membership.
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

    /// Validate the u32-narrow columns. Each column is OR-folded first,
    /// which clears a healthy segment in one pass per column. Only when
    /// a column holds a value above `u32::MAX` does the row-major loop
    /// run, in field order, so a segment with several oversized values
    /// reports the same first offender the row decoder always has.
    fn validate_narrow(&self, what: &str) -> Result<()> {
        let narrow_columns = [
            &self.producers,
            &self.credits,
            &self.tx_counts,
            &self.size_bytes,
        ];
        let fits = |col: &[u64]| col.iter().fold(0, |acc, &v| acc | v) <= u64::from(u32::MAX);
        if narrow_columns.iter().all(|col| fits(col)) {
            return Ok(());
        }
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
    /// This is the *full* decode, in three steps: the whole-file CRC,
    /// [`SegmentDecoder::decode_pruned`] over every page group, and a
    /// check that the segment and group blooms hold every decoded
    /// producer. Index inconsistencies surface as
    /// [`StoreError::CorruptIndex`].
    pub fn decode(&mut self, data: &[u8], what: &str) -> Result<usize> {
        self.decode_full(data, what)?;
        Ok(self.rows)
    }

    /// [`SegmentDecoder::decode`], handing back the index it parsed once
    /// and checked against every row and the footer CRC it verified,
    /// which a manifest entry derives from ([`SegmentMeta::from_index`]).
    pub(crate) fn decode_full(&mut self, data: &[u8], what: &str) -> Result<(SegmentIndex, u32)> {
        self.clear();
        footer_result(check_footer(data), data.len(), what)?;
        let mut fetch = |off: u64, len: usize| Ok(&data[off as usize..][..len]);
        let (_, index, trailer) =
            self.decode_body(&mut fetch, data.len() as u64, what, &ScanPredicate::all())?;
        let group_of_row = index
            .groups
            .iter()
            .enumerate()
            .flat_map(|(g, group)| std::iter::repeat_n(g, group.rows as usize));
        // The decode above has checked that every producer fits u32.
        for (&p, g) in self.producers.iter().zip(group_of_row) {
            let bloom = if !index.producers.contains(p as u32) {
                "segment bloom".to_string()
            } else if !index.group_producers[g].contains(p as u32) {
                format!("group {g} bloom")
            } else {
                continue;
            };
            self.clear();
            return Err(StoreError::CorruptIndex {
                what: what.to_string(),
                detail: format!("{bloom} misses producer {p} (false negatives must be impossible)"),
            });
        }
        Ok((index, trailer.crc))
    }

    /// [`SegmentDecoder::decode_pruned_ranged`] over an in-memory segment:
    /// the fetch slices `data`, so nothing is copied.
    pub fn decode_pruned(
        &mut self,
        data: &[u8],
        what: &str,
        pred: &ScanPredicate,
    ) -> Result<PrunedDecode> {
        let mut fetch = |off: u64, len: usize| Ok(&data[off as usize..][..len]);
        self.decode_pruned_ranged(&mut fetch, data.len() as u64, what, pred)
    }

    /// The one decode body. Decodes only the page groups that may satisfy
    /// `pred` — a group is skipped when its index zone cannot overlap the
    /// predicate's height/time range *or* its bloom filter proves the
    /// scanned producer absent — without reading a byte of the skipped
    /// pages, and skipping the whole-file CRC, whose cost is proportional
    /// to the bytes we are trying not to touch.
    ///
    /// `fetch(offset, len)` returns that window of the segment object:
    /// through [`crate::backend::PageCache`] for a pruned scan, a slice of
    /// the buffer for [`SegmentDecoder::decode_pruned`]. `file_len` is the
    /// object's total size. The sequence fetches the tail (footer frame +
    /// index offset word, at most 16 bytes), the 10-byte header, the
    /// CRC-checked index block, and then only the page extents of the
    /// groups that survive pruning — a 3-day window over a chain-year
    /// segment touches a small fraction of the file.
    ///
    /// What *is* read stays fully checked: the footer frame, the header,
    /// the index block and its row total, group 0's offset, the per-page
    /// CRCs of every decoded group, and each decoded group's extent and
    /// zone against its index entry. So an index that lies about offsets
    /// or zones fails decoding rather than yielding bad rows.
    ///
    /// The decoder afterwards holds the surviving groups' rows,
    /// contiguous and in height order; rows that match `pred` are a
    /// subset of them (zones are conservative), so callers filter
    /// per-row exactly as they would after a full decode.
    pub fn decode_pruned_ranged<B>(
        &mut self,
        fetch: &mut dyn FnMut(u64, usize) -> Result<B>,
        file_len: u64,
        what: &str,
        pred: &ScanPredicate,
    ) -> Result<PrunedDecode>
    where
        B: Deref,
        B::Target: AsRef<[u8]>,
    {
        Ok(self.decode_body(fetch, file_len, what, pred)?.0)
    }

    /// [`SegmentDecoder::decode_pruned_ranged`], handing back the index
    /// and trailer it read for the full decode's bloom audit.
    fn decode_body<B>(
        &mut self,
        fetch: &mut dyn FnMut(u64, usize) -> Result<B>,
        file_len: u64,
        what: &str,
        pred: &ScanPredicate,
    ) -> Result<(PrunedDecode, SegmentIndex, Trailer)>
    where
        B: Deref,
        B::Target: AsRef<[u8]>,
    {
        self.clear();
        let tail_len = file_len.min(TRAILER_LEN as u64);
        let tail = fetch(file_len - tail_len, tail_len as usize)?;
        let trailer = read_trailer((*tail).as_ref(), file_len as usize, what)?;
        let n = Self::parse_header((*fetch(0, 10)?).as_ref(), what)?;
        let range = trailer.index_range(what)?;
        let region = fetch(range.start as u64, range.len())?;
        let index = parse_index_region((*region).as_ref(), range.start, what)?;
        check_layout(&index, n, what)?;
        let mut decoded = 0usize;
        for (g, start, end) in surviving_groups(&index, range.start, pred) {
            let extent = fetch(start as u64, end - start)?;
            self.decode_indexed_group((*extent).as_ref(), &index, g, what)?;
            decoded += 1;
        }
        self.validate_narrow(what)?;
        self.rows = self.heights.len();
        let pruned = PrunedDecode {
            rows: self.rows,
            groups_total: index.groups.len(),
            groups_skipped: index.groups.len() - decoded,
        };
        Ok((pruned, index, trailer))
    }

    /// Decode page group `g` of `index` from `extent` — exactly the
    /// bytes from the group's offset to the next group's, or to the
    /// index — and check it against its index entry: its pages must
    /// fill the extent, and its rows must span exactly the entry's
    /// height and time zone. Every decode reads every group through
    /// here, so an index that lies about an extent or a zone fails every
    /// scan that reads the group, not only fsck.
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
            // Name the gap where it ends: at the next group's offset, or
            // before the index.
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

    /// Last-resort decode for repair: parse the header and decode page
    /// groups sequentially at their conventional positions, from offset
    /// 10 on, ignoring the index block and the index-offset word
    /// entirely. Per-page CRCs still gate every byte of row data, so
    /// salvage succeeds exactly when the pages are intact behind a
    /// damaged index — which is what lets
    /// [`crate::doctor::StoreDoctor`] recover all rows of a segment
    /// whose only fault is index corruption.
    pub fn decode_salvage(&mut self, data: &[u8], what: &str) -> Result<usize> {
        self.clear();
        let trailer = read_trailer(data, data.len(), what)?;
        let n = Self::parse_header(data, what)?;
        let mut cursor = &data[10..trailer.body_end];
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

    /// Append the decoded rows that match `pred` and `keep` to `cols`,
    /// and return how many match `pred` (before `keep`: what
    /// [`crate::ScanStats::rows_returned`] counts). Rows move as maximal
    /// runs of consecutive rows, one [`BlockColumns::extend_rows`] each,
    /// so no row struct is built unless a filter has to see one. When
    /// `pred` [can prune](ScanPredicate::can_prune), its bounds are read
    /// once and each row is tested on the height, timestamp and producer
    /// columns, exactly as [`ScanPredicate::matches`] tests a row; a row
    /// struct is built only for a row that matched, and only to call
    /// `keep`, so a constant `keep` costs nothing. Under the
    /// unconstrained predicate and `|_| true` the whole segment is one
    /// run.
    pub(crate) fn append_matching(
        &self,
        cols: &mut BlockColumns,
        pred: &ScanPredicate,
        keep: impl Fn(&RowRecord) -> bool,
    ) -> u64 {
        let n = self.rows;
        let row = self.row_reader();
        let mut append = |run: Range<usize>| {
            cols.extend_rows(
                &self.heights[run.clone()],
                &self.timestamps[run.clone()],
                self.producers[run.clone()]
                    .iter()
                    .map(|&p| ProducerId(p as u32)),
                self.credits[run]
                    .iter()
                    .map(|&c| millis_to_weight(c as u32)),
            )
        };
        if !pred.can_prune() {
            for_each_run(n, |i| keep(&row(i)), &mut append);
            return n as u64;
        }
        // An absent bound admits every value of its column.
        let (h_lo, h_hi) = pred.heights.unwrap_or((u64::MIN, u64::MAX));
        let (t_lo, t_hi) = pred.times.unwrap_or((i64::MIN, i64::MAX));
        let producer = pred.producer.map(u64::from);
        let (heights, timestamps) = (&self.heights[..n], &self.timestamps[..n]);
        let producers = &self.producers[..n];
        let mut matched = 0u64;
        let ok = |i: usize| {
            let hit = (h_lo..=h_hi).contains(&heights[i])
                && (t_lo..=t_hi).contains(&timestamps[i])
                && producer.is_none_or(|p| producers[i] == p);
            matched += u64::from(hit);
            hit && keep(&row(i))
        };
        for_each_run(n, ok, &mut append);
        matched
    }

    /// The decoded rows' producer ids, in row order (checked to fit
    /// u32 by `validate_narrow`).
    pub(crate) fn producers(&self) -> impl Iterator<Item = u32> + '_ {
        self.producers[..self.rows].iter().map(|&p| p as u32)
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
        self.row_reader()(i)
    }

    /// The row accessor behind [`SegmentDecoder::row`]: it reads columns
    /// cut to the decoded row count, so a caller looping below that count
    /// pays no bounds checks, and nothing at all for fields it ignores.
    /// The u32 columns were checked to fit by `validate_narrow`.
    fn row_reader(&self) -> impl Fn(usize) -> RowRecord + '_ {
        let n = self.rows;
        let (heights, timestamps) = (&self.heights[..n], &self.timestamps[..n]);
        let (producers, credits) = (&self.producers[..n], &self.credits[..n]);
        let (tx_counts, size_bytes) = (&self.tx_counts[..n], &self.size_bytes[..n]);
        let difficulties = &self.difficulties[..n];
        // Left to itself the compiler calls this closure once per row,
        // checking all seven bounds, even for a filter that ignores the
        // row; inlined, the loads a caller does not use go away.
        #[inline(always)]
        move |i| RowRecord {
            height: heights[i],
            timestamp: timestamps[i],
            producer: producers[i] as u32,
            credit_millis: credits[i] as u32,
            tx_count: tx_counts[i] as u32,
            size_bytes: size_bytes[i] as u32,
            difficulty: difficulties[i],
        }
    }
}

/// Call `run` with each maximal range of consecutive indices in `0..n`
/// for which `ok` holds, in order. `ok` sees each index once.
fn for_each_run(n: usize, mut ok: impl FnMut(usize) -> bool, mut run: impl FnMut(Range<usize>)) {
    let mut start = None;
    for i in 0..n {
        if ok(i) {
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            run(s..i);
        }
    }
    if let Some(s) = start {
        run(s..n);
    }
}

/// Check that the header's row count `n` equals the index's total, and
/// that group 0 starts right after the header.
fn check_layout(index: &SegmentIndex, n: usize, what: &str) -> Result<()> {
    let declared: usize = index.groups.iter().map(|g| g.rows as usize).sum();
    let detail = if declared != n {
        format!("index declares {declared} rows, header says {n}")
    } else if index.groups[0].offset != 10 {
        let offset = index.groups[0].offset;
        format!("group 0: index offset {offset} but pages start at 10")
    } else {
        return Ok(());
    };
    Err(StoreError::CorruptIndex {
        what: what.to_string(),
        detail,
    })
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

/// Write a segment crash-safely through the backend (see
/// [`crate::backend::ObjectStore::put_atomic`]) and return its manifest
/// entry, derived from the index just encoded, so scans can prune
/// (zone, bloom) and cache (CRC) without opening the file.
pub fn write_segment_file(
    store: &dyn ObjectStore,
    name: &str,
    rows: &[RowRecord],
) -> Result<SegmentMeta> {
    let span = blockdec_obs::span!("store.segment_write", file = name);
    let (bytes, index) = encode_indexed(rows);
    let crc = read_trailer(&bytes, bytes.len(), name)?.crc;
    store.put_atomic(name, &bytes)?;
    let elapsed_ms = span.stop() * 1e3;
    blockdec_obs::counter("store.segments.written").inc();
    blockdec_obs::debug!(
        file = store.describe(name),
        rows = rows.len(),
        bytes = bytes.len(),
        elapsed_ms = elapsed_ms;
        "wrote segment"
    );
    Ok(SegmentMeta::from_index(name.to_string(), index, crc))
}

/// Read and decode a segment object from the backend (transient read
/// faults retried).
pub fn read_segment_file(store: &dyn ObjectStore, name: &str) -> Result<Vec<RowRecord>> {
    let span = blockdec_obs::span!("store.segment_read", file = name);
    let bytes = get_retry(store, name)?;
    let rows = decode_segment(&bytes, &store.describe(name))?;
    let elapsed_ms = span.stop() * 1e3;
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
    use std::sync::Arc;

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

    /// The three rows of docs/FORMAT.md's worked hexdump.
    fn worked_example_rows() -> Vec<RowRecord> {
        (0..3u32)
            .map(|n| RowRecord {
                height: 556_459 + u64::from(n),
                timestamp: 1_546_300_800 + 600 * i64::from(n),
                producer: n % 2,
                credit_millis: 1000,
                tx_count: 2000 + n,
                size_bytes: 1100,
                difficulty: 5_000_000 + u64::from(n),
            })
            .collect()
    }

    #[test]
    fn golden_segment_matches_the_format_doc() {
        // docs/FORMAT.md's worked hexdump: three rows, one page group,
        // whose credit and size_bytes pages hold one value each and so
        // are width-0 ForBitpack pages. The footer CRC covers every byte
        // before it, so together with the length it pins the whole file
        // layout.
        let rows = worked_example_rows();
        let bytes = encode_segment(&rows);
        assert_eq!(bytes.len(), 236);
        assert_eq!(footer_crc(&bytes), Some(0x617b_67bd));
        // The index CRC cancels the index bytes out of the footer CRC,
        // so the index block is pinned by its own CRC word at 0xd8.
        assert_eq!(lebytes::u32_at(&bytes, 0xd8), 0xd638_14fa);
        assert_eq!(decode_segment(&bytes, "golden").unwrap(), rows);
    }

    /// The worked example as the writer wrote it before it wrote
    /// constant pages as width-0 ForBitpack pages: every page in codec 0
    /// or 1, 242 bytes. Stores written then must read as they always did.
    const CODECS_0_1_EXAMPLE: &str = concat!(
        "42445347030003000000",                             // header
        "010300000005000000abfb21020268a1ce08",             // height
        "01030000000900000080b6d5c20be012e01261e19b9c",     // timestamp
        "000300000003000000000100b28bc4ca",                 // producer
        "000300000006000000e807e807e8079180dcf0",           // credit
        "000300000006000000d00fd10fd20f48fec780",           // tx_count
        "000300000006000000cc08cc08cc0803d3eaab",           // size_bytes
        "010300000006000000c096b1020202a8bf8b2a",           // difficulty
        "4244495801000000",                                 // index magic, 1 group
        "0a00000003000000ab7d080000000000ad7d080000000000", // group 0 entry
        "80ad2a5c0000000030b22a5c00000000",
        "070000000100000002220054018800b8", // group 0 bloom
        "070000000100000002220054018800b8", // segment bloom
        "fa1438d6",                         // index crc
        "8e00000055d76606f200000042445346", // index offset and footer
    );

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn segments_in_codecs_0_and_1_still_decode() {
        let bytes = from_hex(CODECS_0_1_EXAMPLE);
        assert_eq!(bytes.len(), 242);
        assert_eq!(footer_crc(&bytes), Some(0x0666_d755));
        assert_eq!(check_footer(&bytes), FooterCheck::Ok);
        let rows = worked_example_rows();
        assert_eq!(decode_segment(&bytes, "codecs 0/1").unwrap(), rows);
        let mut dec = SegmentDecoder::new();
        let pred = ScanPredicate::all().heights(rows[1].height, rows[1].height);
        assert_eq!(
            dec.decode_pruned(&bytes, "codecs 0/1", &pred).unwrap().rows,
            3
        );
        let got: Vec<RowRecord> = (0..dec.len()).map(|i| dec.row(i)).collect();
        assert_eq!(got, rows);
        // Today's writer spells the same rows six bytes shorter.
        assert_eq!(encode_segment(&rows).len(), bytes.len() - 6);
    }

    /// Every page of `bytes`, walked group by group with `read_page`:
    /// `(group, column name, default codec, codec, payload)`.
    fn pages(bytes: &[u8]) -> Vec<(usize, &'static str, Codec, Codec, Vec<u8>)> {
        let index = parse_index(bytes, "t").unwrap();
        let index_off = lebytes::u32_at(bytes, bytes.len() - FOOTER_LEN - 4) as usize;
        let mut cursor = &bytes[10..index_off];
        let mut out = Vec::new();
        for (g, group) in index.groups.iter().enumerate() {
            for (_, name, default) in COLUMNS {
                let (codec, rows, payload) = read_page(&mut cursor, "t").unwrap();
                assert_eq!(rows, group.rows, "group {g} column {name}");
                out.push((g, name, default, codec, payload.to_vec()));
            }
        }
        assert!(cursor.is_empty());
        out
    }

    #[test]
    fn only_all_equal_pages_of_two_or_more_rows_are_width_zero() {
        // Four groups: the CLI's shape (constant credit and zero tx,
        // size and difficulty), one height whose credits share a
        // timestamp and producer, no constant column, and one row.
        let n = 3 * PAGE_GROUP_ROWS + 1;
        let r: Vec<RowRecord> = (0..n)
            .map(|i| {
                let (g, j) = (i / PAGE_GROUP_ROWS, (i % PAGE_GROUP_ROWS) as u32);
                let mut row = RowRecord {
                    height: 7_000_000 + i as u64,
                    timestamp: 1_546_300_800 + 13 * i as i64,
                    producer: j % 23,
                    credit_millis: 1000,
                    tx_count: 0,
                    size_bytes: 0,
                    difficulty: 0,
                };
                if g == 1 {
                    row.height = 7_000_000 + PAGE_GROUP_ROWS as u64;
                    row.timestamp = 1_546_400_000;
                    row.producer = 5;
                }
                if g >= 1 {
                    row.credit_millis = 1 + j % 1000;
                    row.tx_count = j;
                    row.size_bytes = 900_000 + j;
                    row.difficulty = 5_000_000_000 + u64::from(j);
                }
                row
            })
            .collect();
        let bytes = encode_segment(&r);
        let pages = pages(&bytes);
        assert_eq!(pages.len(), 4 * COLUMNS.len());
        let mut width_zero = [0; 4];
        for (i, (g, name, default, codec, payload)) in pages.into_iter().enumerate() {
            let chunk = &r[g * PAGE_GROUP_ROWS..n.min((g + 1) * PAGE_GROUP_ROWS)];
            let values = column_values(chunk, COLUMNS[i % COLUMNS.len()].0);
            let one_value = values.iter().all(|&v| v == values[0]);
            if chunk.len() >= 2 && one_value {
                assert_eq!(codec, Codec::ForBitpack, "group {g} column {name}");
                let mut want = Vec::new();
                crate::encoding::put_uvarint(&mut want, values[0]);
                want.push(0);
                assert_eq!(payload, want, "group {g} column {name}");
                width_zero[g] += 1;
            } else {
                assert_eq!(codec, default, "group {g} column {name}");
            }
        }
        assert_eq!(width_zero, [4, 3, 0, 0]);
        assert_eq!(decode_segment(&bytes, "t").unwrap(), r);
    }

    /// `n` rows whose columns each hold one value per page group about
    /// half the time, drawn from `seed`. The values include 0, `1000`,
    /// `u32::MAX` in the narrow columns, `u64::MAX` in difficulty and
    /// both ends of the timestamp range; heights never decrease.
    fn constant_heavy_rows(n: usize, seed: u64) -> Vec<RowRecord> {
        const NARROW: [u32; 4] = [0, 1, 1000, u32::MAX];
        const WIDE: [u64; 4] = [0, 1, 1000, u64::MAX];
        const TIMES: [i64; 4] = [i64::MIN, -1, 1_546_300_800, i64::MAX];
        let mut state = seed;
        let mut draw = move || {
            state = blockdec_chain::hash::splitmix64(state);
            state
        };
        let mut height = draw() % 1_000_000;
        let mut rows = Vec::with_capacity(n);
        while rows.len() < n {
            // Bit c of `one` is set when column c (file order) holds a
            // single value in this group, picked by byte c of `fixed`.
            let (one, fixed) = (draw(), draw());
            let pick = |c: u32| (fixed >> (8 * c)) as usize % 4;
            let holds_one = |c: u32| one >> c & 1 == 1;
            let base_time = 1_546_300_800 + (draw() % 1_000_000) as i64;
            for i in 0..PAGE_GROUP_ROWS.min(n - rows.len()) {
                let r = draw();
                let narrow = |c: u32, varying: u32| {
                    if holds_one(c) {
                        NARROW[pick(c)]
                    } else if r % 8 == 0 {
                        NARROW[(r >> 3) as usize % 4]
                    } else {
                        varying
                    }
                };
                if !holds_one(0) {
                    height += r % 3;
                }
                rows.push(RowRecord {
                    height,
                    timestamp: if holds_one(1) {
                        TIMES[pick(1)]
                    } else {
                        base_time + 600 * i as i64 - (r >> 20) as i64 % 900
                    },
                    producer: narrow(2, (r >> 8) as u32 % 64),
                    credit_millis: narrow(3, (r >> 14) as u32 % 2000),
                    tx_count: narrow(4, (r >> 24) as u32),
                    size_bytes: narrow(5, (r >> 32) as u32),
                    difficulty: if holds_one(6) {
                        WIDE[pick(6)]
                    } else {
                        r.rotate_left(17)
                    },
                });
            }
        }
        rows
    }

    #[test]
    fn constant_heavy_segments_decode_whole_pruned_and_ranged() {
        let mut codecs = [0usize; 3];
        for n in [1, 2, 4095, 4096, 4097, 3 * 4096 + 5] {
            for seed in 0..4u64 {
                let r = constant_heavy_rows(n, seed * 7919 + n as u64);
                let encoded = encode_segment(&r);
                for (.., codec, _) in pages(&encoded) {
                    codecs[codec as usize] += 1;
                }
                let full = decode_segment(&encoded, "t").unwrap();
                assert_eq!(full, r, "n={n} seed={seed}");
                let mut state = seed;
                let mut row_at = || {
                    state = blockdec_chain::hash::splitmix64(state);
                    &r[state as usize % n]
                };
                let (a, b) = (row_at().height, row_at().height);
                let heights = ScanPredicate::all().heights(a.min(b), a.max(b));
                let (a, b) = (row_at().timestamp, row_at().timestamp);
                let times = ScanPredicate::all().times(a.min(b), a.max(b));
                let (h, t) = (heights.heights.unwrap(), times.times.unwrap());
                let both = heights.times(t.0, t.1);
                let one_height = ScanPredicate::all().heights(h.0, h.0);
                for pred in [heights, times, both, one_height, ScanPredicate::all()] {
                    let want: Vec<RowRecord> =
                        full.iter().filter(|x| pred.matches(x)).copied().collect();
                    let mut dec = SegmentDecoder::new();
                    let pruned = dec.decode_pruned(&encoded, "t", &pred).unwrap();
                    let got: Vec<RowRecord> = (0..dec.len())
                        .map(|i| dec.row(i))
                        .filter(|x| pred.matches(x))
                        .collect();
                    assert_eq!(got, want, "n={n} seed={seed} {pred:?}");
                    let mut fetch = |off: u64, len: usize| -> Result<Arc<Vec<u8>>> {
                        Ok(Arc::new(encoded[off as usize..][..len].to_vec()))
                    };
                    let mut ranged = SegmentDecoder::new();
                    let got_ranged = ranged
                        .decode_pruned_ranged(&mut fetch, encoded.len() as u64, "t", &pred)
                        .unwrap();
                    assert_eq!(got_ranged, pruned, "n={n} seed={seed} {pred:?}");
                    let got: Vec<RowRecord> = (0..ranged.len())
                        .map(|i| ranged.row(i))
                        .filter(|x| pred.matches(x))
                        .collect();
                    assert_eq!(got, want, "n={n} seed={seed} {pred:?} ranged");
                }
            }
        }
        // Every codec the writer emits shows up, width-0 pages included.
        assert!(codecs.iter().all(|&c| c > 0), "pages per codec: {codecs:?}");
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

    /// An oversized value in a u32-narrow column is named by its first
    /// offender in row order, then in field order (producer, credit,
    /// tx_count, size_bytes), whichever column it sits in.
    #[test]
    fn narrow_check_names_the_first_offender_in_row_order() {
        let too_big = u64::from(u32::MAX) + 1;
        let decoded = || {
            let mut dec = SegmentDecoder::new();
            dec.decode(&encode_segment(&rows(12)), "narrow").unwrap();
            dec
        };
        let detail = |dec: &SegmentDecoder| match dec.validate_narrow("narrow") {
            Err(StoreError::Corrupt { detail, .. }) => detail,
            other => panic!("expected a narrow-column error, got {other:?}"),
        };
        assert!(decoded().validate_narrow("narrow").is_ok());

        let mut dec = decoded();
        dec.tx_counts[5] = too_big;
        dec.producers[9] = too_big;
        assert_eq!(
            detail(&dec),
            "column tx_count: value 4294967296 exceeds u32"
        );

        let mut dec = decoded();
        dec.tx_counts[5] = too_big;
        dec.producers[5] = too_big + 1;
        assert_eq!(
            detail(&dec),
            "column producer: value 4294967297 exceeds u32"
        );
    }

    #[test]
    fn manifest_entry_is_the_index_summary() {
        // The entry derived from the index equals the rows' own zone
        // and bloom, whether the writer derives it from the index it
        // encoded or the full decode from the index it checked.
        let cases = [1, 4096, 4097, 10_000, SEGMENT_ROWS]
            .map(rows)
            .into_iter()
            .chain((0..4).map(|seed| constant_heavy_rows(3 * PAGE_GROUP_ROWS + 5, seed)));
        for r in cases {
            let (bytes, index) = encode_indexed(&r);
            let meta = SegmentMeta::from_index("f".into(), index, footer_crc(&bytes).unwrap());
            let producers: Vec<u32> = r.iter().map(|x| x.producer).collect();
            let want = ZoneMap {
                min_height: r.iter().map(|x| x.height).min().unwrap(),
                max_height: r.iter().map(|x| x.height).max().unwrap(),
                min_time: r.iter().map(|x| x.timestamp).min().unwrap(),
                max_time: r.iter().map(|x| x.timestamp).max().unwrap(),
                rows: r.len() as u64,
            };
            assert_eq!(meta.zone, want);
            assert_eq!(meta.producers, ProducerFilter::from_producers(&producers));
            let mut dec = SegmentDecoder::new();
            let (index, crc) = dec.decode_full(&bytes, "f").unwrap();
            assert_eq!(SegmentMeta::from_index("f".into(), index, crc), meta);
        }
    }

    #[test]
    fn salvage_ignores_the_index_offset_word() {
        // A CRC-clean segment whose index-offset word points before the
        // pages, into them or past the file: every full decode fails on
        // the index, and salvage, which walks the pages from offset 10,
        // recovers every row.
        let r = rows(10_000);
        for index_off in [0u32, 3, 20, 4_000, u32::MAX] {
            let mut bytes = encode_segment(&r);
            let at = bytes.len() - TRAILER_LEN;
            bytes[at..at + 4].copy_from_slice(&index_off.to_le_bytes());
            refit_footer(&mut bytes);
            let err = decode_segment(&bytes, "t").unwrap_err();
            assert!(matches!(err, StoreError::CorruptIndex { .. }), "{err}");
            let mut dec = SegmentDecoder::new();
            assert_eq!(dec.decode_salvage(&bytes, "t").unwrap(), r.len());
            let got: Vec<RowRecord> = (0..dec.len()).map(|i| dec.row(i)).collect();
            assert_eq!(got, r, "index offset {index_off}");
        }
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
        let meta = write_segment_file(&store, name, &r).unwrap();
        assert_eq!(read_segment_file(&store, name).unwrap(), r);
        let bytes = fs::read(dir.join(name)).unwrap();
        assert_eq!(footer_crc(&bytes), Some(meta.crc));
        assert_eq!(parse_index(&bytes, "t").unwrap().producers, meta.producers);
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
        let index = index_bounds(&encoded).unwrap();
        // Bump group 0's max_height (offset 16 into its 40-byte entry,
        // after the 8-byte index header) and make the index CRC and
        // footer collude: only the rows themselves can expose the lie.
        let at = index.0 + 8 + 16;
        let drifted = u64::from_le_bytes(encoded[at..at + 8].try_into().unwrap()) + 7;
        encoded[at..at + 8].copy_from_slice(&drifted.to_le_bytes());
        refit_index_crc(&mut encoded, index);
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
        let index = index_bounds(&encoded).unwrap();
        let at = index.0 + 8 + GROUP_ENTRY_LEN;
        let moved = lebytes::u32_at(&encoded, at) + 1;
        encoded[at..at + 4].copy_from_slice(&moved.to_le_bytes());
        refit_index_crc(&mut encoded, index);
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

//! Integer column encodings: varint, zigzag, delta, and
//! frame-of-reference bit-packing.
//!
//! The default column codec is delta (for sorted/slowly-changing columns)
//! or identity, composed with zigzag (for signed deltas) and LEB128
//! varint. The writer never picks the frame-of-reference bit-packed
//! codec; it stays because docs/FORMAT.md says readers accept codec 2.
//!
//! Decoding is batch-oriented: [`decode_column_into`] appends a whole
//! column into a caller-owned buffer (so scans reuse scratch across
//! segments), and the varint inner loop inspects eight input bytes at a
//! time — a lane with no continuation bits emits eight one-byte values
//! without per-value branching, falling back to the scalar decoder only
//! for multi-byte values. Delta columns are decoded as raw zigzag varints
//! first and prefix-summed in a second pass over the output buffer.
//!
//! ```
//! use blockdec_store::encoding::{decode_column_into, encode_column, Codec};
//! let heights: Vec<u64> = (556_459..556_459 + 100).collect();
//! let mut page = Vec::new();
//! encode_column(Codec::DeltaVarint, &heights, &mut page);
//! let mut out = Vec::new();
//! decode_column_into(Codec::DeltaVarint, &page, heights.len(), &mut out).unwrap();
//! assert_eq!(out, heights);
//! ```

use crate::error::{Result, StoreError};

/// Write a u64 as LEB128 varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint u64 from the front of `buf`, advancing it.
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(StoreError::Corrupt {
                what: "varint".into(),
                detail: "truncated".into(),
            });
        };
        *buf = rest;
        if shift == 63 && byte > 1 {
            return Err(StoreError::Corrupt {
                what: "varint".into(),
                detail: "overflows u64".into(),
            });
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(StoreError::Corrupt {
                what: "varint".into(),
                detail: "more than 10 bytes".into(),
            });
        }
    }
}

/// Map a signed integer to unsigned, small magnitudes staying small.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Column codecs. The id is stored in the page header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Codec {
    /// Values written directly as varints.
    PlainVarint = 0,
    /// First value varint, then zigzag varint deltas.
    DeltaVarint = 1,
    /// Frame-of-reference: min value + fixed-width bit-packed offsets.
    ForBitpack = 2,
}

impl Codec {
    /// Decode a codec id from a page header byte.
    pub fn from_id(id: u8) -> Result<Codec> {
        match id {
            0 => Ok(Codec::PlainVarint),
            1 => Ok(Codec::DeltaVarint),
            2 => Ok(Codec::ForBitpack),
            other => Err(StoreError::BadFormat {
                what: "page codec".into(),
                detail: format!("unknown codec id {other}"),
            }),
        }
    }
}

/// Encode a u64 column with the given codec.
pub fn encode_column(codec: Codec, values: &[u64], out: &mut Vec<u8>) {
    match codec {
        Codec::PlainVarint => {
            for &v in values {
                put_uvarint(out, v);
            }
        }
        Codec::DeltaVarint => {
            let mut prev = 0u64;
            for (i, &v) in values.iter().enumerate() {
                if i == 0 {
                    put_uvarint(out, v);
                } else {
                    put_uvarint(out, zigzag_encode(v.wrapping_sub(prev) as i64));
                }
                prev = v;
            }
        }
        Codec::ForBitpack => {
            let min = values.iter().copied().min().unwrap_or(0);
            let max = values.iter().copied().max().unwrap_or(0);
            let width = 64 - (max - min).leading_zeros();
            put_uvarint(out, min);
            out.push(width as u8);
            // Pack `width`-bit offsets LSB-first into a bit stream. The
            // accumulator is u128: a 64-bit offset shifted by up to 7
            // pending bits would overflow u64.
            let mut acc: u128 = 0;
            let mut bits: u32 = 0;
            for &v in values {
                let off = v - min;
                acc |= u128::from(off) << bits;
                bits += width;
                while bits >= 8 {
                    out.push((acc & 0xFF) as u8);
                    acc >>= 8;
                    bits -= 8;
                }
            }
            if bits > 0 {
                out.push((acc & 0xFF) as u8);
            }
        }
    }
}

/// Decode `count` LEB128 varints from `data`, appending into `out`.
///
/// The hot loop reads input in eight-byte lanes: a lane whose bytes all
/// have the continuation bit clear is eight complete one-byte varints and
/// is emitted without per-value branching; a mixed lane emits the
/// one-byte prefix before the first continuation bit and then decodes a
/// single multi-byte value with the scalar [`get_uvarint`] (which owns
/// all error classification, so truncated/overlong inputs fail exactly as
/// the scalar loop would).
fn get_uvarints(mut data: &[u8], count: usize, out: &mut Vec<u64>) -> Result<()> {
    const CONT: u64 = 0x8080_8080_8080_8080;
    out.reserve(count);
    let mut remaining = count;
    while remaining >= 8 && data.len() >= 8 {
        let lane = crate::lebytes::u64_at(data, 0);
        let cont = lane & CONT;
        if cont == 0 {
            for &b in &data[..8] {
                out.push(u64::from(b));
            }
            data = &data[8..];
            remaining -= 8;
            continue;
        }
        let prefix = (cont.trailing_zeros() / 8) as usize;
        for &b in &data[..prefix] {
            out.push(u64::from(b));
        }
        data = &data[prefix..];
        out.push(get_uvarint(&mut data)?);
        remaining -= prefix + 1;
    }
    for _ in 0..remaining {
        out.push(get_uvarint(&mut data)?);
    }
    Ok(())
}

/// Decode a u64 column of `count` values, appending into `out`. The
/// scan path calls this with per-thread scratch buffers so column
/// decoding never allocates per segment.
pub fn decode_column_into(
    codec: Codec,
    mut data: &[u8],
    count: usize,
    out: &mut Vec<u64>,
) -> Result<()> {
    match codec {
        Codec::PlainVarint => get_uvarints(data, count, out)?,
        Codec::DeltaVarint => {
            // Batch-decode the raw varint stream (first value absolute,
            // the rest zigzag deltas), then prefix-sum in place.
            let first = out.len();
            get_uvarints(data, count, out)?;
            if count > 0 {
                let mut prev = out[first];
                for v in out[first + 1..].iter_mut() {
                    prev = prev.wrapping_add(zigzag_decode(*v) as u64);
                    *v = prev;
                }
            }
        }
        Codec::ForBitpack => {
            if count == 0 {
                return Ok(());
            }
            let min = get_uvarint(&mut data)?;
            let Some((&width, body)) = data.split_first() else {
                return Err(StoreError::Corrupt {
                    what: "bitpack header".into(),
                    detail: "missing width".into(),
                });
            };
            let width = u32::from(width);
            if width > 64 {
                return Err(StoreError::BadFormat {
                    what: "bitpack header".into(),
                    detail: format!("width {width} > 64"),
                });
            }
            let needed = (count as u64 * u64::from(width)).div_ceil(8);
            if (body.len() as u64) < needed {
                return Err(StoreError::Corrupt {
                    what: "bitpack body".into(),
                    detail: format!("{} bytes, need {needed}", body.len()),
                });
            }
            let mut acc: u128 = 0;
            let mut bits: u32 = 0;
            let mask: u128 = if width == 64 {
                u128::from(u64::MAX)
            } else {
                (1u128 << width) - 1
            };
            out.reserve(count);
            let mut next = 0;
            for _ in 0..count {
                while bits < width {
                    acc |= u128::from(body[next]) << bits;
                    next += 1;
                    bits += 8;
                }
                let off = (acc & mask) as u64;
                acc >>= width;
                bits -= width;
                out.push(min + off);
            }
        }
    }
    Ok(())
}

/// Encode i64 values (timestamps) by zigzag-mapping into u64 space first.
pub fn encode_signed_column(codec: Codec, values: &[i64], out: &mut Vec<u8>) {
    let mapped: Vec<u64> = values.iter().map(|&v| zigzag_encode(v)).collect();
    encode_column(codec, &mapped, out);
}

/// Decode i64 values written by [`encode_signed_column`], appending into
/// `out`. `scratch` holds the intermediate zigzag-mapped u64 column (it
/// is cleared first); passing the same buffers across calls makes the
/// whole decode allocation-free after warm-up.
pub fn decode_signed_column_into(
    codec: Codec,
    data: &[u8],
    count: usize,
    scratch: &mut Vec<u64>,
    out: &mut Vec<i64>,
) -> Result<()> {
    scratch.clear();
    decode_column_into(codec, data, count, scratch)?;
    out.reserve(scratch.len());
    out.extend(scratch.iter().map(|&v| zigzag_decode(v)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(get_uvarint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_sizes() {
        for (v, len) in [(0u64, 1usize), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(buf.len(), len, "value {v}");
        }
    }

    #[test]
    fn truncated_varint_errors() {
        let buf = [0x80u8, 0x80];
        let mut slice = &buf[..];
        assert!(matches!(
            get_uvarint(&mut slice),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn overlong_varint_errors() {
        let buf = [0xFFu8; 11];
        let mut slice = &buf[..];
        assert!(get_uvarint(&mut slice).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 1_546_300_800] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    fn decode(codec: Codec, data: &[u8], count: usize) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        decode_column_into(codec, data, count, &mut out)?;
        Ok(out)
    }

    fn roundtrip(codec: Codec, values: &[u64]) {
        let mut buf = Vec::new();
        encode_column(codec, values, &mut buf);
        let decoded = decode(codec, &buf, values.len()).unwrap();
        assert_eq!(decoded, values, "{codec:?}");
    }

    #[test]
    fn all_codecs_roundtrip() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![42],
            vec![556_459, 556_460, 556_461, 556_462],
            vec![1000, 1000, 1000, 1000],
            vec![u64::MAX, 0, u64::MAX / 2],
            (0..1000).map(|i| i * i).collect(),
        ];
        for values in &cases {
            for codec in [Codec::PlainVarint, Codec::DeltaVarint, Codec::ForBitpack] {
                roundtrip(codec, values);
            }
        }
    }

    #[test]
    fn batch_varint_decode_matches_scalar() {
        // Patterns chosen to hit every lane path: full one-byte lanes,
        // mixed lanes with the continuation byte at each offset, counts
        // that are not multiples of eight, and tails shorter than a lane.
        let mut cases: Vec<Vec<u64>> = vec![
            (0..64).collect(),                        // all one-byte
            (0..64).map(|i| i * 1_000_003).collect(), // all multi-byte
            vec![1; 7],                               // shorter than a lane
            vec![u64::MAX; 9],
        ];
        for stride in 1..=9usize {
            // One multi-byte value every `stride` values: the
            // continuation bit lands at every in-lane offset.
            cases.push(
                (0..100u64)
                    .map(|i| {
                        if (i as usize).is_multiple_of(stride) {
                            300 + i
                        } else {
                            i % 100
                        }
                    })
                    .collect(),
            );
        }
        for values in &cases {
            let mut buf = Vec::new();
            for &v in values {
                put_uvarint(&mut buf, v);
            }
            let mut batched = Vec::new();
            get_uvarints(&buf, values.len(), &mut batched).unwrap();
            assert_eq!(&batched, values);
        }
    }

    #[test]
    fn batch_varint_decode_errors_match_scalar() {
        let values: Vec<u64> = (0..32).map(|i| i * 50_000).collect();
        let mut buf = Vec::new();
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        for cut in 0..buf.len() {
            let mut out = Vec::new();
            assert!(
                get_uvarints(&buf[..cut], values.len(), &mut out).is_err(),
                "cut at {cut} must truncate"
            );
        }
        // Overlong input fails through the scalar fallback.
        let mut out = Vec::new();
        assert!(get_uvarints(&[0xFF; 11], 1, &mut out).is_err());
    }

    #[test]
    fn decode_into_appends_and_reuses_buffers() {
        let a: Vec<u64> = (10..20).collect();
        let b: Vec<u64> = (500_000..500_040).collect();
        let mut page_a = Vec::new();
        encode_column(Codec::DeltaVarint, &a, &mut page_a);
        let mut page_b = Vec::new();
        encode_column(Codec::DeltaVarint, &b, &mut page_b);
        let mut out = Vec::new();
        decode_column_into(Codec::DeltaVarint, &page_a, a.len(), &mut out).unwrap();
        // Appending a second column must not disturb the first.
        decode_column_into(Codec::DeltaVarint, &page_b, b.len(), &mut out).unwrap();
        let expected: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(out, expected);

        let ts = vec![1_546_300_800i64, -5, 0, 1_546_301_400];
        let mut page = Vec::new();
        encode_signed_column(Codec::DeltaVarint, &ts, &mut page);
        let mut scratch = Vec::new();
        let mut signed = Vec::new();
        decode_signed_column_into(
            Codec::DeltaVarint,
            &page,
            ts.len(),
            &mut scratch,
            &mut signed,
        )
        .unwrap();
        decode_signed_column_into(
            Codec::DeltaVarint,
            &page,
            ts.len(),
            &mut scratch,
            &mut signed,
        )
        .unwrap();
        let twice: Vec<i64> = ts.iter().chain(ts.iter()).copied().collect();
        assert_eq!(signed, twice);
    }

    #[test]
    fn delta_shrinks_sorted_columns() {
        let heights: Vec<u64> = (556_459..556_459 + 4096).collect();
        let mut plain = Vec::new();
        encode_column(Codec::PlainVarint, &heights, &mut plain);
        let mut delta = Vec::new();
        encode_column(Codec::DeltaVarint, &heights, &mut delta);
        assert!(
            delta.len() * 2 < plain.len(),
            "delta {} vs plain {}",
            delta.len(),
            plain.len()
        );
    }

    #[test]
    fn bitpack_shrinks_small_range_columns() {
        let producers: Vec<u64> = (0..4096).map(|i| (i % 20) as u64).collect();
        let mut plain = Vec::new();
        encode_column(Codec::PlainVarint, &producers, &mut plain);
        let mut packed = Vec::new();
        encode_column(Codec::ForBitpack, &producers, &mut packed);
        assert!(packed.len() < plain.len());
        // 5 bits per value + header.
        assert!(packed.len() < 4096 * 5 / 8 + 32);
    }

    #[test]
    fn bitpack_constant_column_is_tiny() {
        let values = vec![1000u64; 4096];
        let mut out = Vec::new();
        encode_column(Codec::ForBitpack, &values, &mut out);
        // width 0: just header bytes.
        assert!(out.len() < 16, "{}", out.len());
        assert_eq!(decode(Codec::ForBitpack, &out, 4096).unwrap(), values);
    }

    #[test]
    fn bitpack_full_width() {
        let values = vec![0u64, u64::MAX, 1, u64::MAX - 1];
        roundtrip(Codec::ForBitpack, &values);
    }

    #[test]
    fn bitpack_wide_unaligned_width() {
        // Regression: widths near-but-under 64 that don't divide 8 used to
        // overflow the u64 pack accumulator once `bits` was nonzero.
        let values = vec![
            7_661_651_554_059_143_269u64,
            8_814_573_058_665_990_245,
            7_661_651_554_059_143_270,
            8_000_000_000_000_000_001,
        ];
        roundtrip(Codec::ForBitpack, &values);
    }

    #[test]
    fn signed_roundtrip() {
        let ts = vec![1_546_300_800i64, 1_546_301_400, 1_546_300_900, -5, 0];
        for codec in [Codec::PlainVarint, Codec::DeltaVarint, Codec::ForBitpack] {
            let mut buf = Vec::new();
            encode_signed_column(codec, &ts, &mut buf);
            let mut decoded = Vec::new();
            decode_signed_column_into(codec, &buf, ts.len(), &mut Vec::new(), &mut decoded)
                .unwrap();
            assert_eq!(decoded, ts);
        }
    }

    #[test]
    fn truncated_bitpack_errors() {
        let values: Vec<u64> = (0..100).collect();
        let mut buf = Vec::new();
        encode_column(Codec::ForBitpack, &values, &mut buf);
        let truncated = &buf[..buf.len() / 2];
        assert!(decode(Codec::ForBitpack, truncated, 100).is_err());
    }

    #[test]
    fn codec_ids_roundtrip() {
        for c in [Codec::PlainVarint, Codec::DeltaVarint, Codec::ForBitpack] {
            assert_eq!(Codec::from_id(c as u8).unwrap(), c);
        }
        assert!(Codec::from_id(99).is_err());
    }
}

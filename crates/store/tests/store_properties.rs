//! Property-based tests for the storage layer: encodings, page framing,
//! and full segment round trips under arbitrary (valid) inputs, plus
//! corruption-detection properties.

use blockdec_store::checksum::crc32;
use blockdec_store::encoding::{
    decode_column_into, decode_signed_column_into, encode_column, encode_signed_column,
    get_uvarint, put_uvarint, zigzag_decode, zigzag_encode, Codec,
};
use blockdec_store::page::{read_page, write_page};
use blockdec_store::segment::{decode_segment, encode_segment, SEGMENT_ROWS};
use blockdec_store::RowRecord;
use proptest::prelude::*;

fn any_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![
        Just(Codec::PlainVarint),
        Just(Codec::DeltaVarint),
        Just(Codec::ForBitpack),
    ]
}

/// Arbitrary height-ordered row batches (duplicate heights allowed:
/// multi-credit blocks).
fn row_batches() -> impl Strategy<Value = Vec<RowRecord>> {
    (
        1u64..1_000_000,
        prop::collection::vec((0u64..3, any::<i64>(), 0u32..5_000, 0u32..2_000), 1..200),
    )
        .prop_map(|(start, raw)| {
            let mut height = start;
            raw.into_iter()
                .map(|(dh, ts_seed, producer, credit)| {
                    height += dh;
                    RowRecord {
                        height,
                        timestamp: ts_seed % 10_000_000_000,
                        producer,
                        credit_millis: credit,
                        tx_count: producer.wrapping_mul(7),
                        size_bytes: credit.wrapping_mul(13),
                        difficulty: u64::from(producer) * 1_000 + 1,
                    }
                })
                .collect()
        })
}

proptest! {
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, v);
        prop_assert!(buf.len() <= 10);
        let mut slice = buf.as_slice();
        prop_assert_eq!(get_uvarint(&mut slice).unwrap(), v);
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn zigzag_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
    }

    #[test]
    fn zigzag_maps_small_to_small(v in -1000i64..1000) {
        prop_assert!(zigzag_encode(v) <= 2000);
    }

    #[test]
    fn column_roundtrip_any_codec(codec in any_codec(), values in prop::collection::vec(any::<u64>(), 0..300)) {
        let mut buf = Vec::new();
        encode_column(codec, &values, &mut buf);
        let mut decoded = Vec::new();
        decode_column_into(codec, &buf, values.len(), &mut decoded).unwrap();
        prop_assert_eq!(decoded, values);
    }

    #[test]
    fn signed_column_roundtrip(codec in any_codec(), values in prop::collection::vec(any::<i64>(), 0..300)) {
        let mut buf = Vec::new();
        encode_signed_column(codec, &values, &mut buf);
        let mut decoded = Vec::new();
        decode_signed_column_into(codec, &buf, values.len(), &mut Vec::new(), &mut decoded).unwrap();
        prop_assert_eq!(decoded, values);
    }

    #[test]
    fn page_roundtrip(codec in any_codec(), payload in prop::collection::vec(any::<u8>(), 0..500), rows in any::<u32>()) {
        let mut buf = Vec::new();
        write_page(&mut buf, codec, rows, &payload);
        let mut slice = buf.as_slice();
        let (c, r, p) = read_page(&mut slice, "prop").unwrap();
        prop_assert_eq!(c, codec);
        prop_assert_eq!(r, rows);
        prop_assert_eq!(p, payload.as_slice());
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn page_detects_any_single_bitflip(payload in prop::collection::vec(any::<u8>(), 1..100), flip in any::<proptest::sample::Index>(), bit in 0u8..8) {
        let mut buf = Vec::new();
        write_page(&mut buf, Codec::PlainVarint, payload.len() as u32, &payload);
        let pos = flip.index(buf.len());
        buf[pos] ^= 1 << bit;
        let mut slice = buf.as_slice();
        // Either an outright error, or (if the flip hit the length field
        // making the frame appear longer) a truncation error — never a
        // silent wrong payload.
        match read_page(&mut slice, "prop") {
            Err(_) => {}
            Ok((_, _, p)) => prop_assert!(
                false,
                "corruption went undetected: got {} bytes (orig {})",
                p.len(),
                payload.len()
            ),
        }
    }

    #[test]
    fn segment_roundtrip(rows in row_batches()) {
        prop_assume!(rows.len() <= SEGMENT_ROWS);
        let encoded = encode_segment(&rows);
        let decoded = decode_segment(&encoded, "prop").unwrap();
        prop_assert_eq!(decoded, rows);
    }

    #[test]
    fn segment_detects_truncation(rows in row_batches(), cut in 1usize..64) {
        let encoded = encode_segment(&rows);
        prop_assume!(cut < encoded.len());
        let truncated = &encoded[..encoded.len() - cut];
        prop_assert!(decode_segment(truncated, "prop").is_err());
    }

    #[test]
    fn segment_any_truncation_point_errors_never_panics(rows in row_batches(), keep in any::<proptest::sample::Index>()) {
        // Cut anywhere — empty file, mid-header, mid-page, mid-footer.
        // Decode must return Err (finalization footer gone or length
        // mismatch), and must never panic or return partial rows.
        let encoded = encode_segment(&rows);
        let truncated = &encoded[..keep.index(encoded.len())];
        prop_assert!(decode_segment(truncated, "prop").is_err());
    }

    #[test]
    fn segment_bitflip_never_yields_wrong_rows(rows in row_batches(), flip in any::<proptest::sample::Index>(), bit in 0u8..8) {
        // Flip any single bit anywhere in the file, footer included.
        // Decode must either reject the damage or — if the flip cancels
        // out semantically — return exactly the original rows; silently
        // wrong data is never acceptable.
        let encoded = encode_segment(&rows);
        let mut damaged = encoded.clone();
        let pos = flip.index(damaged.len());
        damaged[pos] ^= 1 << bit;
        match decode_segment(&damaged, "prop") {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(
                decoded, rows,
                "single-bit corruption at byte {} produced silently wrong rows", pos
            ),
        }
    }

    #[test]
    fn crc32_differs_on_modification(data in prop::collection::vec(any::<u8>(), 1..200), flip in any::<proptest::sample::Index>()) {
        let original = crc32(&data);
        let mut modified = data.clone();
        let pos = flip.index(modified.len());
        modified[pos] ^= 0x01;
        prop_assert_ne!(original, crc32(&modified));
    }
}

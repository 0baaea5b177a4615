//! Property-based tests for the data formats: CSV field quoting, block
//! CSV/JSONL round trips over arbitrary valid blocks, and timestamp
//! parsing over its full rendered range.

use blockdec_chain::time::parse_timestamp;
use blockdec_chain::{Address, Block, ChainKind, Timestamp};
use blockdec_ingest::csv::{parse_record, read_blocks_csv, write_blocks_csv, write_record};
use blockdec_ingest::jsonl::{read_blocks_jsonl, write_blocks_jsonl};
use proptest::prelude::*;
use std::io::BufReader;

/// Arbitrary printable field content including CSV-hostile characters.
fn field() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            prop::char::range('a', 'z'),
            Just(','),
            Just('"'),
            Just(' '),
            Just('/'),
        ],
        0..20,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Arbitrary valid blocks, height-ascending.
fn blocks() -> impl Strategy<Value = Vec<Block>> {
    (
        1u64..1_000_000,
        prop::collection::vec(
            (1u64..4, 0i64..100_000, 1u64..100, 1usize..4, any::<bool>()),
            1..40,
        ),
    )
        .prop_map(|(start, raw)| {
            let mut height = start;
            let mut time = 1_546_300_800i64;
            raw.into_iter()
                .map(|(dh, dt, diff, n_addr, tagged)| {
                    height += dh;
                    time += dt;
                    let mut b = Block::builder(ChainKind::Bitcoin, height)
                        .timestamp(Timestamp(time))
                        .difficulty(diff)
                        .tx_count((height % 4_000) as u32)
                        .size_bytes((height % 1_000_000) as u32);
                    for k in 0..n_addr {
                        b = b.payout(Address::synthesize(
                            ChainKind::Bitcoin,
                            height * 10 + k as u64,
                        ));
                    }
                    if tagged {
                        b = b.tag("/F2Pool/");
                    }
                    b.build().expect("valid")
                })
                .collect()
        })
}

/// Arbitrary JSON values (bounded depth) for parser-robustness tests.
fn arb_json() -> impl Strategy<Value = serde_json::Value> {
    let leaf = prop_oneof![
        Just(serde_json::Value::Null),
        any::<bool>().prop_map(serde_json::Value::from),
        any::<i64>().prop_map(serde_json::Value::from),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(serde_json::Value::from),
        "[a-z0-9 /:-]{0,20}".prop_map(serde_json::Value::from),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(serde_json::Value::Array),
            prop::collection::btree_map("[a-z_]{1,12}", inner, 0..6)
                .prop_map(|m| { serde_json::Value::Object(m.into_iter().collect()) }),
        ]
    })
}

proptest! {
    // The BigQuery row parsers must never panic on arbitrary JSON — they
    // return structured errors instead.
    #[test]
    fn bigquery_parsers_never_panic(row in arb_json()) {
        let _ = blockdec_ingest::bigquery::parse_bitcoin_row(1, &row);
        let _ = blockdec_ingest::bigquery::parse_ethereum_row(1, &row);
    }

    // Same for the CSV record parser on arbitrary byte-ish lines.
    #[test]
    fn csv_parser_never_panics(line in "[ -~]{0,80}") {
        let _ = parse_record(&line, 1);
    }

    // And the timestamp parser on arbitrary short strings.
    #[test]
    fn timestamp_parser_never_panics(s in "[ -~]{0,30}") {
        let _ = parse_timestamp(&s);
    }
}

proptest! {
    #[test]
    fn csv_record_roundtrip(fields in prop::collection::vec(field(), 1..8)) {
        let mut buf = Vec::new();
        let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        write_record(&mut buf, &refs).unwrap();
        let line = String::from_utf8(buf).unwrap();
        let line = line.trim_end_matches('\n');
        // The empty single field encodes to an empty line, which the
        // reader treats as a blank row — skip that degenerate case.
        prop_assume!(!line.is_empty());
        let parsed = parse_record(line, 1).unwrap().unwrap();
        prop_assert_eq!(parsed, fields);
    }

    #[test]
    fn block_csv_roundtrip_preserves_measured_fields(blocks in blocks()) {
        let mut buf = Vec::new();
        write_blocks_csv(&mut buf, &blocks).unwrap();
        let parsed = read_blocks_csv(BufReader::new(buf.as_slice()), ChainKind::Bitcoin).unwrap();
        prop_assert_eq!(parsed.len(), blocks.len());
        for (a, b) in blocks.iter().zip(&parsed) {
            prop_assert_eq!(a.height, b.height);
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(&a.coinbase.tag, &b.coinbase.tag);
            prop_assert_eq!(&a.coinbase.payout_addresses, &b.coinbase.payout_addresses);
            prop_assert_eq!(a.difficulty, b.difficulty);
            prop_assert_eq!(a.tx_count, b.tx_count);
            prop_assert_eq!(a.size_bytes, b.size_bytes);
        }
    }

    #[test]
    fn block_jsonl_roundtrip_is_lossless(blocks in blocks()) {
        let mut buf = Vec::new();
        write_blocks_jsonl(&mut buf, &blocks).unwrap();
        let parsed = read_blocks_jsonl(BufReader::new(buf.as_slice())).unwrap();
        prop_assert_eq!(parsed, blocks);
    }

    #[test]
    fn timestamp_iso_roundtrip(secs in 0i64..4_102_444_800) {
        // 1970..2100: every chain-rendered ISO timestamp parses back.
        let t = Timestamp(secs);
        prop_assert_eq!(parse_timestamp(&t.to_iso8601()), Some(t));
    }

    #[test]
    fn timestamp_integer_forms(secs in 0i64..4_102_444_800) {
        prop_assert_eq!(parse_timestamp(&secs.to_string()), Some(Timestamp(secs)));
        prop_assert_eq!(
            parse_timestamp(&(secs * 1000).to_string()),
            Some(Timestamp(if secs >= 1_000_000_000 { secs } else { secs * 1000 }))
        );
    }

    #[test]
    fn timestamp_bigquery_form(secs in 0i64..4_102_444_800) {
        let t = Timestamp(secs);
        let d = t.date();
        let s = t.seconds_of_day();
        let rendered = format!(
            "{:04}-{:02}-{:02} {:02}:{:02}:{:02} UTC",
            d.year, d.month, d.day, s / 3600, (s / 60) % 60, s % 60
        );
        prop_assert_eq!(parse_timestamp(&rendered), Some(t));
    }
}

//! Parsers for the Google BigQuery public crypto dataset export schemas.
//!
//! The paper collected its data from these exact tables (§II-A):
//!
//! * `bigquery-public-data.crypto_bitcoin.blocks` — we read `number`,
//!   `timestamp`, `coinbase_param` (hex-encoded coinbase script, decoded
//!   to recover the pool marker), `transaction_count`, `size`, `bits`.
//!   The blocks table does not carry payout addresses (those live in the
//!   transactions table), so an optional non-standard `coinbase_addresses`
//!   field (array of strings) is honoured when present — our exporter and
//!   common enriched dumps include it; plain dumps fall back to a
//!   synthesized per-tag placeholder address.
//! * `bigquery-public-data.crypto_ethereum.blocks` — we read `number`,
//!   `timestamp`, `miner`, `extra_data` (hex, decoded lossily for the
//!   pool marker), `transaction_count`, `size`, `difficulty`.
//!
//! Exports are JSONL (one row object per line), the default BigQuery
//! extraction format.

use crate::error::{IngestError, Result};
use blockdec_chain::hash::decode_hex;
use blockdec_chain::time::parse_timestamp;
use blockdec_chain::{Address, Block, ChainKind};
use serde_json::Value;
use std::io::BufRead;

/// Decode a hex field (with or without `0x`) to lossy UTF-8, filtering
/// to printable characters — how explorers render coinbase tags.
fn hex_to_tag(hex: &str) -> Option<String> {
    let bytes = decode_hex(hex).ok()?;
    let text: String = String::from_utf8_lossy(&bytes)
        .chars()
        .filter(|c| !c.is_control())
        .collect();
    let trimmed = text.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_string())
    }
}

fn get_u64(row: &Value, key: &str, line: u64) -> Result<u64> {
    let v = row
        .get(key)
        .ok_or_else(|| IngestError::parse(line, format!("missing field {key:?}")))?;
    match v {
        Value::Number(n) => n
            .as_u64()
            .ok_or_else(|| IngestError::parse(line, format!("{key}: not a u64: {n}"))),
        Value::String(s) => s
            .parse::<u64>()
            .map_err(|e| IngestError::parse(line, format!("{key}: {e}"))),
        other => Err(IngestError::parse(
            line,
            format!("{key}: unexpected type {other}"),
        )),
    }
}

fn get_str<'a>(row: &'a Value, key: &str) -> Option<&'a str> {
    row.get(key).and_then(Value::as_str)
}

fn get_timestamp(row: &Value, line: u64) -> Result<blockdec_chain::Timestamp> {
    let v = row
        .get("timestamp")
        .ok_or_else(|| IngestError::parse(line, "missing field \"timestamp\""))?;
    let parsed = match v {
        Value::String(s) => parse_timestamp(s),
        Value::Number(n) => n.as_i64().map(|secs| {
            if secs.abs() >= 1_000_000_000_000 {
                blockdec_chain::Timestamp(secs / 1000)
            } else {
                blockdec_chain::Timestamp(secs)
            }
        }),
        _ => None,
    };
    parsed.ok_or_else(|| IngestError::parse(line, format!("unparseable timestamp {v}")))
}

/// Parse one `crypto_bitcoin.blocks` row.
pub fn parse_bitcoin_row(line_no: u64, row: &Value) -> Result<Block> {
    let height = get_u64(row, "number", line_no)?;
    let timestamp = get_timestamp(row, line_no)?;
    let tag = get_str(row, "coinbase_param").and_then(hex_to_tag);

    let mut builder = Block::builder(ChainKind::Bitcoin, height)
        .timestamp(timestamp)
        .difficulty(get_u64(row, "bits", line_no).unwrap_or(1).max(1))
        .tx_count(get_u64(row, "transaction_count", line_no).unwrap_or(0) as u32)
        .size_bytes(get_u64(row, "size", line_no).unwrap_or(0) as u32);
    if let Some(t) = &tag {
        builder = builder.tag(t.clone());
    }

    // Optional enriched payout addresses.
    let mut any_address = false;
    if let Some(Value::Array(addrs)) = row.get("coinbase_addresses") {
        for a in addrs {
            if let Some(s) = a.as_str() {
                let parsed = Address::parse(ChainKind::Bitcoin, s).map_err(|source| {
                    IngestError::Invalid {
                        line: line_no,
                        source,
                    }
                })?;
                builder = builder.payout(parsed);
                any_address = true;
            }
        }
    }
    if !any_address {
        // Plain dump: synthesize a stable placeholder keyed by the tag
        // (or the height for untagged blocks) so attribution still
        // groups consistently.
        let seed = match &tag {
            Some(t) => {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in t.bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
                h
            }
            None => height,
        };
        builder = builder.payout(Address::synthesize(ChainKind::Bitcoin, seed));
    }
    builder.build().map_err(|source| IngestError::Invalid {
        line: line_no,
        source,
    })
}

/// Parse one `crypto_ethereum.blocks` row.
pub fn parse_ethereum_row(line_no: u64, row: &Value) -> Result<Block> {
    let height = get_u64(row, "number", line_no)?;
    let timestamp = get_timestamp(row, line_no)?;
    let miner = get_str(row, "miner")
        .ok_or_else(|| IngestError::parse(line_no, "missing field \"miner\""))?;
    let address =
        Address::parse(ChainKind::Ethereum, miner).map_err(|source| IngestError::Invalid {
            line: line_no,
            source,
        })?;

    let mut builder = Block::builder(ChainKind::Ethereum, height)
        .timestamp(timestamp)
        .difficulty(get_u64(row, "difficulty", line_no).unwrap_or(1).max(1))
        .tx_count(get_u64(row, "transaction_count", line_no).unwrap_or(0) as u32)
        .size_bytes(get_u64(row, "size", line_no).unwrap_or(0) as u32)
        .payout(address);
    if let Some(tag) = get_str(row, "extra_data").and_then(hex_to_tag) {
        builder = builder.tag(tag);
    }
    builder.build().map_err(|source| IngestError::Invalid {
        line: line_no,
        source,
    })
}

/// Write blocks in the BigQuery export schema (the inverse of
/// [`read_bigquery_jsonl`]): Bitcoin rows carry the hex `coinbase_param`
/// plus the enriched `coinbase_addresses` array; Ethereum rows carry
/// `miner` and hex `extra_data`. Lets simulated data stand in for a real
/// export byte-for-byte schema-wise.
pub fn write_bigquery_jsonl(
    out: &mut impl std::io::Write,
    blocks: &[Block],
) -> std::io::Result<()> {
    use blockdec_chain::hash::encode_hex;
    for b in blocks {
        let row = match b.chain {
            ChainKind::Bitcoin => {
                let addrs: Vec<Value> = b
                    .coinbase
                    .payout_addresses
                    .iter()
                    .map(|a| Value::String(a.as_str().to_string()))
                    .collect();
                serde_json::json!({
                    "number": b.height,
                    "timestamp": format_bq_timestamp(b.timestamp),
                    "coinbase_param": b
                        .coinbase
                        .tag
                        .as_deref()
                        .map(|t| encode_hex(t.as_bytes()))
                        .unwrap_or_default(),
                    "transaction_count": b.tx_count,
                    "size": b.size_bytes,
                    "bits": b.difficulty,
                    "coinbase_addresses": addrs,
                })
            }
            ChainKind::Ethereum => serde_json::json!({
                "number": b.height,
                "timestamp": format_bq_timestamp(b.timestamp),
                "miner": b.coinbase.payout_addresses[0].as_str(),
                "extra_data": b
                    .coinbase
                    .tag
                    .as_deref()
                    .map(|t| format!("0x{}", encode_hex(t.as_bytes())))
                    .unwrap_or_default(),
                "difficulty": b.difficulty,
                "transaction_count": b.tx_count,
                "size": b.size_bytes,
            }),
        };
        serde_json::to_writer(&mut *out, &row)?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// BigQuery's default TIMESTAMP rendering.
fn format_bq_timestamp(t: blockdec_chain::Timestamp) -> String {
    let d = t.date();
    let s = t.seconds_of_day();
    format!(
        "{:04}-{:02}-{:02} {:02}:{:02}:{:02} UTC",
        d.year,
        d.month,
        d.day,
        s / 3600,
        (s / 60) % 60,
        s % 60
    )
}

/// Read a BigQuery JSONL export for the given chain.
pub fn read_bigquery_jsonl(input: impl BufRead, chain: ChainKind) -> Result<Vec<Block>> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line_no = i as u64 + 1;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let row: Value =
            serde_json::from_str(&line).map_err(|e| IngestError::parse(line_no, e.to_string()))?;
        let block = match chain {
            ChainKind::Bitcoin => parse_bitcoin_row(line_no, &row)?,
            ChainKind::Ethereum => parse_ethereum_row(line_no, &row)?,
        };
        out.push(block);
    }
    out.sort_by_key(|b| b.height);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::hash::encode_hex;
    use std::io::BufReader;

    #[test]
    fn hex_tag_decoding() {
        let hex = encode_hex("/F2Pool/ mined".as_bytes());
        assert_eq!(hex_to_tag(&hex).unwrap(), "/F2Pool/ mined");
        // Control bytes are filtered.
        let mut bytes = vec![0x03, 0x01];
        bytes.extend_from_slice(b"/slush/");
        assert_eq!(hex_to_tag(&encode_hex(&bytes)).unwrap(), "/slush/");
        assert!(hex_to_tag("zz").is_none());
        assert!(hex_to_tag(&encode_hex(&[0x00, 0x01])).is_none());
    }

    #[test]
    fn parses_bitcoin_row() {
        let coinbase = encode_hex("/poolin.com/".as_bytes());
        let row = format!(
            r#"{{"number": 556459, "timestamp": "2019-01-01 00:14:35 UTC", "coinbase_param": "{coinbase}", "transaction_count": 2500, "size": 1100000, "bits": 389159077}}"#
        );
        let blocks =
            read_bigquery_jsonl(BufReader::new(row.as_bytes()), ChainKind::Bitcoin).unwrap();
        assert_eq!(blocks.len(), 1);
        let b = &blocks[0];
        assert_eq!(b.height, 556_459);
        assert_eq!(b.coinbase.tag.as_deref(), Some("/poolin.com/"));
        assert_eq!(b.tx_count, 2500);
        assert_eq!(b.coinbase.payout_addresses.len(), 1);
    }

    #[test]
    fn bitcoin_placeholder_addresses_group_by_tag() {
        let coinbase = encode_hex("/ViaBTC/".as_bytes());
        let rows = format!(
            "{{\"number\": 1, \"timestamp\": 1546300800, \"coinbase_param\": \"{coinbase}\"}}\n\
             {{\"number\": 2, \"timestamp\": 1546301400, \"coinbase_param\": \"{coinbase}\"}}\n"
        );
        let blocks =
            read_bigquery_jsonl(BufReader::new(rows.as_bytes()), ChainKind::Bitcoin).unwrap();
        assert_eq!(
            blocks[0].coinbase.payout_addresses, blocks[1].coinbase.payout_addresses,
            "same tag must synthesize the same placeholder address"
        );
    }

    #[test]
    fn enriched_bitcoin_addresses_are_used() {
        let addr = Address::synthesize(ChainKind::Bitcoin, 5);
        let row = format!(
            r#"{{"number": 3, "timestamp": 1546300800, "coinbase_addresses": ["{addr}"]}}"#
        );
        let blocks =
            read_bigquery_jsonl(BufReader::new(row.as_bytes()), ChainKind::Bitcoin).unwrap();
        assert_eq!(blocks[0].coinbase.payout_addresses[0], addr);
    }

    #[test]
    fn parses_ethereum_row() {
        let extra = encode_hex("sparkpool-eth-cn".as_bytes());
        let row = format!(
            r#"{{"number": 6988615, "timestamp": "2019-01-01 00:00:15 UTC", "miner": "0x5A0b54D5dc17e0AadC383d2db43B0a0D3E029c4c", "extra_data": "0x{extra}", "difficulty": 2500000000000000, "transaction_count": 120, "size": 30000}}"#
        );
        let blocks =
            read_bigquery_jsonl(BufReader::new(row.as_bytes()), ChainKind::Ethereum).unwrap();
        let b = &blocks[0];
        assert_eq!(b.height, 6_988_615);
        assert_eq!(
            b.coinbase.payout_addresses[0].as_str(),
            "0x5a0b54d5dc17e0aadc383d2db43b0a0d3e029c4c"
        );
        assert_eq!(b.coinbase.tag.as_deref(), Some("sparkpool-eth-cn"));
    }

    #[test]
    fn rows_are_sorted_by_height() {
        let rows = r#"{"number": 5, "timestamp": 1546300800, "miner": "0x5a0b54d5dc17e0aadc383d2db43b0a0d3e029c4c"}
{"number": 3, "timestamp": 1546300700, "miner": "0x5a0b54d5dc17e0aadc383d2db43b0a0d3e029c4c"}"#;
        let blocks =
            read_bigquery_jsonl(BufReader::new(rows.as_bytes()), ChainKind::Ethereum).unwrap();
        assert_eq!(blocks[0].height, 3);
        assert_eq!(blocks[1].height, 5);
    }

    #[test]
    fn missing_fields_error_with_line() {
        let rows = "{\"number\": 1, \"timestamp\": 1546300800, \"miner\": \"0x5a0b54d5dc17e0aadc383d2db43b0a0d3e029c4c\"}\n{\"timestamp\": 1}\n";
        let err =
            read_bigquery_jsonl(BufReader::new(rows.as_bytes()), ChainKind::Ethereum).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn export_import_roundtrip_bitcoin() {
        let blocks: Vec<Block> = (0..5u64)
            .map(|i| {
                let mut b = Block::builder(ChainKind::Bitcoin, 100 + i)
                    .timestamp(blockdec_chain::Timestamp(1_546_300_800 + i as i64 * 600))
                    .difficulty(77)
                    .tx_count(10)
                    .size_bytes(999)
                    .payout(Address::synthesize(ChainKind::Bitcoin, i));
                if i % 2 == 0 {
                    b = b.tag("/F2Pool/");
                }
                b.build().unwrap()
            })
            .collect();
        let mut buf = Vec::new();
        write_bigquery_jsonl(&mut buf, &blocks).unwrap();
        let parsed =
            read_bigquery_jsonl(BufReader::new(buf.as_slice()), ChainKind::Bitcoin).unwrap();
        assert_eq!(parsed.len(), blocks.len());
        for (a, b) in blocks.iter().zip(&parsed) {
            assert_eq!(a.height, b.height);
            assert_eq!(a.timestamp, b.timestamp);
            assert_eq!(a.coinbase.tag, b.coinbase.tag);
            assert_eq!(a.coinbase.payout_addresses, b.coinbase.payout_addresses);
            assert_eq!(a.tx_count, b.tx_count);
        }
    }

    #[test]
    fn export_import_roundtrip_ethereum() {
        let blocks: Vec<Block> = (0..5u64)
            .map(|i| {
                Block::builder(ChainKind::Ethereum, 7_000_000 + i)
                    .timestamp(blockdec_chain::Timestamp(1_546_300_800 + i as i64 * 14))
                    .difficulty(2_000_000_000_000)
                    .payout(Address::synthesize(ChainKind::Ethereum, i))
                    .tag("sparkpool-eth")
                    .build()
                    .unwrap()
            })
            .collect();
        let mut buf = Vec::new();
        write_bigquery_jsonl(&mut buf, &blocks).unwrap();
        let parsed =
            read_bigquery_jsonl(BufReader::new(buf.as_slice()), ChainKind::Ethereum).unwrap();
        for (a, b) in blocks.iter().zip(&parsed) {
            assert_eq!(a.height, b.height);
            assert_eq!(a.coinbase.payout_addresses, b.coinbase.payout_addresses);
            assert_eq!(a.coinbase.tag, b.coinbase.tag);
            assert_eq!(a.difficulty, b.difficulty);
        }
    }

    #[test]
    fn numeric_string_fields_are_accepted() {
        // BigQuery exports sometimes stringify big integers.
        let row = r#"{"number": "6988615", "timestamp": 1546300800, "miner": "0xea674fdde714fd979de3edf0f56aa9716b898ec8", "difficulty": "2500000000000000"}"#;
        let blocks =
            read_bigquery_jsonl(BufReader::new(row.as_bytes()), ChainKind::Ethereum).unwrap();
        assert_eq!(blocks[0].difficulty, 2_500_000_000_000_000);
    }
}

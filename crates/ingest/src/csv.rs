//! RFC 4180 CSV reading/writing plus the canonical block schema.
//!
//! The canonical block CSV (what `blockdec simulate --format csv` emits
//! and `blockdec ingest` reads back) has the header:
//!
//! ```text
//! height,timestamp,tag,payout_addresses,difficulty,tx_count,size_bytes
//! ```
//!
//! `payout_addresses` is `;`-separated (multi-coinbase blocks have many),
//! `tag` may be empty, and `timestamp` accepts every format in
//! [`crate::timeparse`].

use crate::error::{IngestError, Result};
use crate::timeparse::parse_timestamp;
use blockdec_chain::{Address, Block, ChainKind};
use std::io::{BufRead, Write};

/// Parse one CSV record (handles quoted fields, embedded commas/quotes).
/// Returns `None` for an empty line.
pub fn parse_record(line: &str, line_no: u64) -> Result<Option<Vec<String>>> {
    if line.is_empty() {
        return Ok(None);
    }
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    loop {
        match chars.next() {
            None => {
                if in_quotes {
                    return Err(IngestError::parse(line_no, "unterminated quoted field"));
                }
                fields.push(std::mem::take(&mut field));
                break;
            }
            Some('"') if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            Some('"') if field.is_empty() && !in_quotes => in_quotes = true,
            Some(',') if !in_quotes => fields.push(std::mem::take(&mut field)),
            Some(c) => field.push(c),
        }
    }
    Ok(Some(fields))
}

/// Write one CSV record with RFC 4180 quoting.
pub fn write_record(out: &mut impl Write, fields: &[&str]) -> std::io::Result<()> {
    let mut first = true;
    for f in fields {
        if !first {
            out.write_all(b",")?;
        }
        first = false;
        if f.contains([',', '"', '\n', '\r']) {
            write!(out, "\"{}\"", f.replace('"', "\"\""))?;
        } else {
            out.write_all(f.as_bytes())?;
        }
    }
    out.write_all(b"\n")
}

/// The canonical block CSV header.
pub const BLOCK_CSV_HEADER: &str =
    "height,timestamp,tag,payout_addresses,difficulty,tx_count,size_bytes";

/// Write blocks in the canonical schema (with header).
pub fn write_blocks_csv(out: &mut impl Write, blocks: &[Block]) -> std::io::Result<()> {
    writeln!(out, "{BLOCK_CSV_HEADER}")?;
    for b in blocks {
        let addrs = b
            .coinbase
            .payout_addresses
            .iter()
            .map(|a| a.as_str())
            .collect::<Vec<_>>()
            .join(";");
        write_record(
            out,
            &[
                &b.height.to_string(),
                &b.timestamp.secs().to_string(),
                b.coinbase.tag.as_deref().unwrap_or(""),
                &addrs,
                &b.difficulty.to_string(),
                &b.tx_count.to_string(),
                &b.size_bytes.to_string(),
            ],
        )?;
    }
    Ok(())
}

/// Read blocks in the canonical schema. The header row is required and
/// validated; rows must be height-ordered but gaps are allowed (a
/// filtered export is still measurable).
pub fn read_blocks_csv(input: impl BufRead, chain: ChainKind) -> Result<Vec<Block>> {
    let _t = blockdec_obs::span!("stage.ingest", format = "csv");
    let mut line_count: u64 = 0;
    let mut blocks = Vec::new();
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| IngestError::parse(1, "empty file"))??;
    if header.trim() != BLOCK_CSV_HEADER {
        return Err(IngestError::parse(
            1,
            format!("unexpected header {header:?}, want {BLOCK_CSV_HEADER:?}"),
        ));
    }
    for (i, line) in lines.enumerate() {
        let line_no = i as u64 + 2;
        line_count = line_no;
        let line = line?;
        let Some(fields) = parse_record(&line, line_no)? else {
            continue;
        };
        if fields.len() != 7 {
            return Err(IngestError::parse(
                line_no,
                format!("expected 7 fields, got {}", fields.len()),
            ));
        }
        let height: u64 = fields[0]
            .parse()
            .map_err(|e| IngestError::parse(line_no, format!("height: {e}")))?;
        let timestamp = parse_timestamp(&fields[1])
            .ok_or_else(|| IngestError::parse(line_no, format!("bad timestamp {:?}", fields[1])))?;
        let mut builder = Block::builder(chain, height)
            .timestamp(timestamp)
            .difficulty(
                fields[4]
                    .parse()
                    .map_err(|e| IngestError::parse(line_no, format!("difficulty: {e}")))?,
            )
            .tx_count(
                fields[5]
                    .parse()
                    .map_err(|e| IngestError::parse(line_no, format!("tx_count: {e}")))?,
            )
            .size_bytes(
                fields[6]
                    .parse()
                    .map_err(|e| IngestError::parse(line_no, format!("size_bytes: {e}")))?,
            );
        if !fields[2].is_empty() {
            builder = builder.tag(fields[2].clone());
        }
        for addr in fields[3].split(';').filter(|a| !a.is_empty()) {
            let parsed = Address::parse(chain, addr).map_err(|source| IngestError::Invalid {
                line: line_no,
                source,
            })?;
            builder = builder.payout(parsed);
        }
        let block = builder.build().map_err(|source| IngestError::Invalid {
            line: line_no,
            source,
        })?;
        if let Some(prev) = blocks.last() {
            let prev: &Block = prev;
            if block.height <= prev.height {
                return Err(IngestError::parse(
                    line_no,
                    format!("height {} not after {}", block.height, prev.height),
                ));
            }
        }
        blocks.push(block);
    }
    blockdec_obs::counter("ingest.lines").add(line_count);
    blockdec_obs::counter("ingest.blocks").add(blocks.len() as u64);
    blockdec_obs::debug!(blocks = blocks.len(), lines = line_count; "parsed CSV export");
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::Timestamp;
    use std::io::BufReader;

    #[test]
    fn record_parsing_handles_quotes() {
        assert_eq!(
            parse_record("a,b,c", 1).unwrap().unwrap(),
            vec!["a", "b", "c"]
        );
        assert_eq!(
            parse_record("\"a,b\",c", 1).unwrap().unwrap(),
            vec!["a,b", "c"]
        );
        assert_eq!(
            parse_record("\"he said \"\"hi\"\"\",x", 1)
                .unwrap()
                .unwrap(),
            vec!["he said \"hi\"", "x"]
        );
        assert_eq!(
            parse_record("a,,c", 1).unwrap().unwrap(),
            vec!["a", "", "c"]
        );
        assert!(parse_record("", 1).unwrap().is_none());
        assert!(parse_record("\"unterminated", 1).is_err());
    }

    #[test]
    fn write_record_quotes_when_needed() {
        let mut out = Vec::new();
        write_record(&mut out, &["plain", "with,comma", "with\"quote"]).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "plain,\"with,comma\",\"with\"\"quote\"\n"
        );
    }

    fn sample_blocks() -> Vec<Block> {
        let a1 = Address::synthesize(ChainKind::Bitcoin, 1);
        let a2 = Address::synthesize(ChainKind::Bitcoin, 2);
        let a3 = Address::synthesize(ChainKind::Bitcoin, 3);
        vec![
            Block::builder(ChainKind::Bitcoin, 100)
                .timestamp(Timestamp(1_546_300_800))
                .difficulty(5)
                .tx_count(10)
                .size_bytes(999)
                .tag("/F2Pool/")
                .payout(a1)
                .build()
                .unwrap(),
            Block::builder(ChainKind::Bitcoin, 101)
                .timestamp(Timestamp(1_546_301_400))
                .difficulty(5)
                .payouts(vec![a2, a3])
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn blocks_roundtrip() {
        let blocks = sample_blocks();
        let mut out = Vec::new();
        write_blocks_csv(&mut out, &blocks).unwrap();
        let parsed = read_blocks_csv(BufReader::new(out.as_slice()), ChainKind::Bitcoin).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].height, 100);
        assert_eq!(parsed[0].coinbase.tag.as_deref(), Some("/F2Pool/"));
        assert_eq!(parsed[1].coinbase.payout_addresses.len(), 2);
        assert_eq!(parsed[1].timestamp.secs(), 1_546_301_400);
        // Hashes are regenerated, so compare the measured fields.
        assert_eq!(parsed[0].tx_count, blocks[0].tx_count);
        assert_eq!(parsed[1].difficulty, blocks[1].difficulty);
    }

    #[test]
    fn rejects_bad_header() {
        let data = "wrong,header\n1,2\n";
        let err = read_blocks_csv(BufReader::new(data.as_bytes()), ChainKind::Bitcoin).unwrap_err();
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let data = format!("{BLOCK_CSV_HEADER}\n1,2,3\n");
        let err = read_blocks_csv(BufReader::new(data.as_bytes()), ChainKind::Bitcoin).unwrap_err();
        assert!(err.to_string().contains("7 fields"));
    }

    #[test]
    fn rejects_unordered_heights() {
        let mut out = Vec::new();
        let mut blocks = sample_blocks();
        blocks.swap(0, 1);
        write_blocks_csv(&mut out, &blocks).unwrap();
        let err = read_blocks_csv(BufReader::new(out.as_slice()), ChainKind::Bitcoin).unwrap_err();
        assert!(err.to_string().contains("not after"));
    }

    #[test]
    fn rejects_invalid_address() {
        let data = format!("{BLOCK_CSV_HEADER}\n1,1546300800,,notanaddress,5,0,0\n");
        let err = read_blocks_csv(BufReader::new(data.as_bytes()), ChainKind::Bitcoin).unwrap_err();
        assert!(matches!(err, IngestError::Invalid { line: 2, .. }));
    }

    #[test]
    fn line_numbers_in_errors() {
        let data = format!(
            "{BLOCK_CSV_HEADER}\n1,1546300800,,{},5,0,0\nbad\n",
            Address::synthesize(ChainKind::Bitcoin, 9)
        );
        let err = read_blocks_csv(BufReader::new(data.as_bytes()), ChainKind::Bitcoin).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }
}

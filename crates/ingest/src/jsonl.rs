//! JSON-lines serialization of blocks.
//!
//! One JSON object per line — the shape BigQuery exports use and the
//! easiest format to stream through shell tooling. Uses the chain types'
//! own serde representations.

use crate::error::{IngestError, Result};
use blockdec_chain::Block;
use std::io::{BufRead, Write};

/// Write blocks as JSONL.
pub fn write_blocks_jsonl(out: &mut impl Write, blocks: &[Block]) -> Result<()> {
    for b in blocks {
        serde_json::to_writer(&mut *out, b)
            .map_err(|e| IngestError::parse(0, format!("serialize: {e}")))?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Read blocks from JSONL (empty lines skipped).
pub fn read_blocks_jsonl(input: impl BufRead) -> Result<Vec<Block>> {
    let _t = blockdec_obs::span!("stage.ingest", format = "jsonl");
    let mut line_count: u64 = 0;
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line_no = i as u64 + 1;
        line_count = line_no;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let block: Block =
            serde_json::from_str(&line).map_err(|e| IngestError::parse(line_no, e.to_string()))?;
        block.validate().map_err(|source| IngestError::Invalid {
            line: line_no,
            source,
        })?;
        out.push(block);
    }
    blockdec_obs::counter("ingest.lines").add(line_count);
    blockdec_obs::counter("ingest.blocks").add(out.len() as u64);
    blockdec_obs::debug!(blocks = out.len(), lines = line_count; "parsed JSONL export");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::{Address, ChainKind, Timestamp};
    use std::io::BufReader;

    fn block(height: u64) -> Block {
        Block::builder(ChainKind::Ethereum, height)
            .timestamp(Timestamp(1_546_300_800))
            .payout(Address::synthesize(ChainKind::Ethereum, height))
            .tag("ethermine-eu1")
            .build()
            .unwrap()
    }

    #[test]
    fn blocks_roundtrip() {
        let blocks = vec![block(1), block(2)];
        let mut buf = Vec::new();
        write_blocks_jsonl(&mut buf, &blocks).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 2);
        let back = read_blocks_jsonl(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back, blocks);
    }

    #[test]
    fn skips_blank_lines() {
        let blocks = vec![block(1)];
        let mut buf = Vec::new();
        write_blocks_jsonl(&mut buf, &blocks).unwrap();
        buf.extend_from_slice(b"\n  \n");
        let back = read_blocks_jsonl(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn reports_bad_line_number() {
        let blocks = vec![block(1)];
        let mut buf = Vec::new();
        write_blocks_jsonl(&mut buf, &blocks).unwrap();
        buf.extend_from_slice(b"{not json}\n");
        let err = read_blocks_jsonl(BufReader::new(buf.as_slice())).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }
}

//! The real-data path, end to end.
//!
//! The paper collected its blocks from Google BigQuery's public crypto
//! datasets. This example shows exactly that workflow against a
//! schema-identical export: it writes a `crypto_bitcoin.blocks`-shaped
//! JSONL file (here produced by the simulator — drop in your own export
//! to run on real 2019 data), ingests it, attributes producers from the
//! hex `coinbase_param` pool markers, stores it, and measures it.
//!
//! ```sh
//! cargo run --release --example real_data
//! # or with your own export:
//! #   bq extract --destination_format NEWLINE_DELIMITED_JSON \
//! #     'bigquery-public-data:crypto_bitcoin.blocks' gs://...  # then:
//! #   cargo run --release --example real_data -- path/to/blocks.jsonl
//! ```

use blockdec::prelude::*;
use blockdec_chain::Granularity;
use blockdec_ingest::bigquery::{read_bigquery_jsonl, write_bigquery_jsonl};
use std::io::BufReader;

fn main() {
    let workdir = std::env::temp_dir().join(format!("blockdec-realdata-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&workdir);
    std::fs::create_dir_all(&workdir).expect("create workdir");

    // 1. Obtain a BigQuery-schema export. With no argument we fabricate
    //    one from the calibrated simulator; pass a path to use yours.
    let export_path = match std::env::args().nth(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let path = workdir.join("crypto_bitcoin_blocks.jsonl");
            let blocks = Scenario::bitcoin_2019().truncated(30).generate_blocks();
            let mut f = std::fs::File::create(&path).expect("create export");
            write_bigquery_jsonl(&mut f, &blocks).expect("write export");
            println!(
                "fabricated a {}-row BigQuery-schema export at {}",
                blocks.len(),
                path.display()
            );
            path
        }
    };

    // 2. Parse the export (hex coinbase_param → pool tag, enriched
    //    coinbase_addresses when present).
    let file = std::fs::File::open(&export_path).expect("open export");
    let blocks =
        read_bigquery_jsonl(BufReader::new(file), ChainKind::Bitcoin).expect("parse export");
    println!("parsed {} blocks from the export", blocks.len());

    // 3. Attribute with the paper's per-address semantics.
    let mut attributor = Attributor::new(ChainKind::Bitcoin, AttributionMode::PerAddress);
    let attributed = attributor.attribute_all(&blocks);
    let (tag_hits, addr_hits, fallbacks) = attributor.stats();
    println!(
        "attribution: {tag_hits} by pool tag, {addr_hits} by known address, {fallbacks} by payout address"
    );
    let registry = attributor.into_registry();

    // 4. Persist and measure.
    let mut store = BlockStore::create(workdir.join("store")).expect("create store");
    store
        .append_attributed(&attributed, &registry)
        .expect("append");
    store.flush().expect("flush");
    let from_store = store
        .scan_attributed(&ScanPredicate::all())
        .expect("store scan succeeds");

    println!("\ndaily decentralization of the ingested data:");
    for metric in MetricKind::PAPER {
        let series = MeasurementEngine::new(metric)
            .fixed_calendar(Granularity::Day, Timestamp::year_2019_start())
            .run(&from_store);
        println!(
            "  {:<9} {}",
            metric.label(),
            blockdec_analysis::report::sparkline(&series.values(), 40)
        );
        if let Some(mean) = series.mean() {
            println!(
                "  {:<9} mean {mean:.3} over {} days",
                "",
                series.points.len()
            );
        }
    }

    let _ = std::fs::remove_dir_all(&workdir);
}

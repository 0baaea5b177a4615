//! Data-format round trips: the simulated stream must measure
//! identically whether it reaches the engine directly, through CSV,
//! through JSONL, or through a BigQuery-style export.

use blockdec::prelude::*;
use blockdec_chain::hash::encode_hex;
use blockdec_chain::Granularity;
use blockdec_ingest::{csv as csvio, jsonl};
use std::io::BufReader;

fn daily_gini(blocks: &[AttributedBlock]) -> Vec<f64> {
    MeasurementEngine::new(MetricKind::Gini)
        .fixed_calendar(Granularity::Day, Timestamp::year_2019_start())
        .run(blocks)
        .values()
}

fn attribute(blocks: &[Block]) -> Vec<AttributedBlock> {
    let mut attributor = Attributor::new(ChainKind::Bitcoin, AttributionMode::PerAddress);
    attributor.attribute_all(blocks)
}

#[test]
fn csv_roundtrip_measures_identically() {
    let scenario = Scenario::bitcoin_2019().truncated(15);
    let blocks = scenario.generate_blocks();
    let direct = daily_gini(&attribute(&blocks));

    let mut buf = Vec::new();
    csvio::write_blocks_csv(&mut buf, &blocks).unwrap();
    let parsed =
        csvio::read_blocks_csv(BufReader::new(buf.as_slice()), ChainKind::Bitcoin).unwrap();
    assert_eq!(parsed.len(), blocks.len());
    let via_csv = daily_gini(&attribute(&parsed));

    assert_eq!(direct.len(), via_csv.len());
    for (a, b) in direct.iter().zip(&via_csv) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }
}

#[test]
fn jsonl_roundtrip_measures_identically() {
    let scenario = Scenario::bitcoin_2019().truncated(15);
    let blocks = scenario.generate_blocks();
    let direct = daily_gini(&attribute(&blocks));

    let mut buf = Vec::new();
    jsonl::write_blocks_jsonl(&mut buf, &blocks).unwrap();
    let parsed = jsonl::read_blocks_jsonl(BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(parsed, blocks, "jsonl is lossless");
    let via_jsonl = daily_gini(&attribute(&parsed));
    assert_eq!(direct, via_jsonl);
}

#[test]
fn bigquery_style_export_preserves_attribution() {
    // Render simulated blocks into the BigQuery bitcoin schema (hex
    // coinbase_param + enriched coinbase_addresses) and re-ingest.
    let scenario = Scenario::bitcoin_2019().truncated(15);
    let blocks = scenario.generate_blocks();

    let mut jsonl_export = String::new();
    for b in &blocks {
        let coinbase_hex = b
            .coinbase
            .tag
            .as_deref()
            .map(|t| encode_hex(t.as_bytes()))
            .unwrap_or_default();
        let addrs: Vec<String> = b
            .coinbase
            .payout_addresses
            .iter()
            .map(|a| format!("\"{}\"", a.as_str()))
            .collect();
        jsonl_export.push_str(&format!(
            "{{\"number\": {}, \"timestamp\": {}, \"coinbase_param\": \"{}\", \
             \"transaction_count\": {}, \"size\": {}, \"bits\": {}, \
             \"coinbase_addresses\": [{}]}}\n",
            b.height,
            b.timestamp.secs(),
            coinbase_hex,
            b.tx_count,
            b.size_bytes,
            b.difficulty,
            addrs.join(",")
        ));
    }

    let parsed = blockdec_ingest::bigquery::read_bigquery_jsonl(
        BufReader::new(jsonl_export.as_bytes()),
        ChainKind::Bitcoin,
    )
    .unwrap();
    assert_eq!(parsed.len(), blocks.len());

    // Attribution must be identical block-by-block: same producer names,
    // same credit counts (ids may differ).
    let mut at_direct = Attributor::new(ChainKind::Bitcoin, AttributionMode::PerAddress);
    let mut at_export = Attributor::new(ChainKind::Bitcoin, AttributionMode::PerAddress);
    for (orig, exported) in blocks.iter().zip(&parsed) {
        let a = at_direct.attribute(orig);
        let b = at_export.attribute(exported);
        assert_eq!(a.credits.len(), b.credits.len(), "height {}", orig.height);
        let names_a: Vec<&str> = a
            .credits
            .iter()
            .map(|c| at_direct.registry().name(c.producer).unwrap())
            .collect();
        // Re-resolve names after the second attributor interned them.
        for (i, c) in b.credits.iter().enumerate() {
            let name_b = at_export.registry().name(c.producer).unwrap();
            assert_eq!(names_a[i], name_b, "height {} credit {i}", orig.height);
        }
    }
    // Measured series therefore agree.
    let direct = daily_gini(&attribute(&blocks));
    let via_export = daily_gini(&attribute(&parsed));
    assert_eq!(direct.len(), via_export.len());
    for (a, b) in direct.iter().zip(&via_export) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn store_persists_across_sessions_with_growing_dictionary() {
    // Append in two sessions with different producer sets; reopen and
    // verify ids stay coherent.
    let dir = std::env::temp_dir().join(format!("blockdec-it-sessions-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first = Scenario::bitcoin_2019().truncated(5).generate();
    {
        let mut store = BlockStore::create(&dir).unwrap();
        store
            .append_attributed(&first.attributed, &first.registry)
            .unwrap();
        store.flush().unwrap();
    }

    // Session 2: different seed → overlapping but not identical
    // producers; heights continue from a later range.
    let mut scenario2 = Scenario::bitcoin_2019().truncated(5).with_seed(99);
    scenario2.start_time += 10 * 86_400;
    let second = {
        let stream = scenario2.generate();
        // Shift heights after the first batch.
        let offset = 100_000u64;
        let mut shifted = stream.attributed.clone();
        for b in &mut shifted {
            b.height += offset;
        }
        (shifted, stream.registry)
    };
    {
        let mut store = BlockStore::open(&dir).unwrap();
        store.append_attributed(&second.0, &second.1).unwrap();
        store.flush().unwrap();
    }

    let store = BlockStore::open(&dir).unwrap();
    let all = store.scan_attributed(&ScanPredicate::all()).unwrap();
    assert_eq!(all.len(), first.attributed.len() + second.0.len());
    // Pool names resolve to single ids across both sessions.
    let f2 = store.registry().get("F2Pool").expect("F2Pool present");
    let counts = producer_block_counts(&store, &Filter::True).unwrap();
    let f2_total = counts
        .iter()
        .find(|(id, _)| *id == f2.0)
        .map(|(_, c)| *c)
        .unwrap_or(0.0);
    assert!(f2_total > 0.0, "F2Pool must have blocks across sessions");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn follow_over_a_flaky_throttled_backend_matches_local() {
    // The live follow loop must be backend-agnostic: the same head feed
    // (seeded forks included) driven through a throttled SimBackend that
    // injects a transient read fault every 3rd read must leave a store
    // that scans and measures bitwise-identically to a plain LocalFs
    // follow.
    use blockdec_ingest::ChainView;
    use blockdec_sim::FeedConfig;
    use blockdec_store::{LocalFs, ObjectStore, SimBackend, SimProfile};
    use std::sync::Arc;

    let tmp = |tag: &str| {
        let d =
            std::env::temp_dir().join(format!("blockdec-followflaky-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    let scenario = Scenario::bitcoin_2019().truncated(4).with_seed(23);
    let feed = FeedConfig {
        fork_every: 15,
        max_fork_len: 3,
        seed: 5,
    };

    // Follow the identical feed, flushing periodically so the final scan
    // crosses several segments (several backend reads, several injected
    // faults for the retry layer to absorb).
    let run = |store: BlockStore| {
        let mut view = ChainView::new(store, scenario.chain, scenario.attribution, 6);
        for (i, block) in scenario.stream_events(feed).enumerate() {
            view.apply(&block).unwrap();
            if i % 300 == 299 {
                view.flush().unwrap();
            }
        }
        view.finalize_all().unwrap();
        assert!(view.reorg_stats().applied > 0, "feed exercised no reorgs");
        let store = view.into_store();
        let blocks = store.scan_attributed(&ScanPredicate::all()).unwrap();
        let gini = daily_gini(&blocks);
        (blocks, store.registry().to_name_list(), gini)
    };

    let local_dir = tmp("local");
    let local = run(BlockStore::create(&local_dir).unwrap());

    let sim_dir = tmp("sim");
    let profile = SimProfile {
        seed: 42,
        latency_us: 30,
        jitter_us: 15,
        bandwidth_kbps: 51_200,
        fail_every: 3,
    };
    let backend: Arc<dyn ObjectStore> =
        Arc::new(SimBackend::new(Arc::new(LocalFs::new(&sim_dir)), profile));
    let flaky = run(BlockStore::open_or_create_with(backend).unwrap());

    assert_eq!(local.0, flaky.0, "blocks diverged across backends");
    assert_eq!(local.1, flaky.1, "registry diverged across backends");
    assert_eq!(local.2, flaky.2, "measured series diverged across backends");
    std::fs::remove_dir_all(&local_dir).unwrap();
    std::fs::remove_dir_all(&sim_dir).unwrap();
}

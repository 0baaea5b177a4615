//! The full paper pipeline, end to end:
//!
//! simulate both chains → persist into columnar block stores → query the
//! stores back → measure with fixed and sliding windows at all three
//! granularities → compare chains and print the §II-C3 verdict.
//!
//! ```sh
//! cargo run --release --example paper_pipeline
//! ```

use blockdec::prelude::*;
use blockdec_analysis::report::comparison_markdown;
use blockdec_chain::Granularity;
use blockdec_core::series::MeasurementSeries;

fn measure_all(label: &str, store: &BlockStore) -> Vec<MeasurementSeries> {
    let blocks = store
        .scan_attributed(&ScanPredicate::all())
        .expect("store scan succeeds");
    println!(
        "{label}: {} blocks / {} rows / {} segments on disk",
        blocks.len(),
        store.row_count(),
        store.segment_count()
    );
    let origin = Timestamp::year_2019_start();
    let mut out = Vec::new();
    for metric in MetricKind::PAPER {
        for g in Granularity::ALL {
            out.push(
                MeasurementEngine::new(metric)
                    .fixed_calendar(g, origin)
                    .run(&blocks),
            );
        }
    }
    out
}

fn main() {
    let workdir = std::env::temp_dir().join(format!("blockdec-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&workdir);

    // 1. Simulate two months of each chain (full-year runs work the same
    //    way; this keeps the example snappy). Ethereum is rate-limited to
    //    keep the example under a second.
    let btc = Scenario::bitcoin_2019().truncated(60).generate();
    let mut eth_scenario = Scenario::ethereum_2019().truncated(60);
    eth_scenario.limit_blocks = Some(80_000);
    let eth = eth_scenario.generate();

    // 2. Persist into columnar stores (CRC-checked segments, zone maps,
    //    atomic manifests — see blockdec-store).
    let mut btc_store = BlockStore::create(workdir.join("btc")).expect("create btc store");
    btc_store
        .append_attributed(&btc.attributed, &btc.registry)
        .expect("append");
    btc_store.flush().expect("flush");
    let mut eth_store = BlockStore::create(workdir.join("eth")).expect("create eth store");
    eth_store
        .append_attributed(&eth.attributed, &eth.registry)
        .expect("append");
    eth_store.flush().expect("flush");

    // 3. Ad-hoc query: top producers straight from the store.
    let top = Plan::top_k(Filter::True, 5)
        .execute(&btc_store)
        .expect("plan executes");
    println!(
        "\nbitcoin top-5 producers (from the store):\n{}",
        top.to_csv()
    );

    // 4. Measure both chains at every (metric, granularity).
    let btc_series = measure_all("bitcoin", &btc_store);
    let eth_series = measure_all("ethereum", &eth_store);

    // 5. Sliding windows double the measurement count (Eq. 5).
    let sliding = MeasurementEngine::new(MetricKind::ShannonEntropy)
        .sliding(144, 72)
        .run(
            &btc_store
                .scan_attributed(&ScanPredicate::all())
                .expect("store scan succeeds"),
        );
    println!(
        "bitcoin daily entropy: {} fixed windows vs {} sliding windows (M = N/2)\n",
        btc_series
            .iter()
            .find(|s| s.metric == MetricKind::ShannonEntropy)
            .map(|s| s.points.len())
            .unwrap_or(0),
        sliding.points.len()
    );

    // 6. The paper's comparison and verdict.
    let cmp = ChainComparison::new("bitcoin", &btc_series, "ethereum", &eth_series);
    println!("{}", comparison_markdown(&cmp));

    let _ = std::fs::remove_dir_all(&workdir);
}

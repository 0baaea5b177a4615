//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * `ablation_incremental` — sliding-window metrics by rebuilding each
//!   window's distribution from scratch versus the engine's add/remove
//!   distribution path.
//! * `ablation_zonemap` — pruned versus unpruned range scans.
//! * `ablation_encoding` — delta-varint versus plain-varint versus
//!   frame-of-reference bit-packing, encode+decode round trip.

use blockdec_bench::Dataset;
use blockdec_core::distribution::ProducerDistribution;
use blockdec_core::engine::MeasurementEngine;
use blockdec_core::metrics::MetricKind;
use blockdec_core::windows::sliding::SlidingWindowSpec;
use blockdec_store::encoding::{decode_column, encode_column, Codec};
use blockdec_store::{BlockStore, RowRecord, ScanPredicate};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn ablation_incremental(c: &mut Criterion) {
    let btc = Dataset::bitcoin(60);
    let spec = SlidingWindowSpec::paper(1008);
    let blocks = &btc.attributed;

    let mut group = c.benchmark_group("ablation_incremental");
    group.sample_size(20);

    // Full recompute: rebuild the distribution for every window.
    group.bench_function("recompute_per_window", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for range in spec.iter(blocks.len()) {
                let dist = ProducerDistribution::from_blocks(&blocks[range]);
                out.push(MetricKind::ShannonEntropy.compute(&dist.weight_vector()));
            }
            black_box(out)
        })
    });

    // Engine path: distribution maintained across slides, metric
    // recomputed from a snapshot per emission.
    group.bench_function("engine_add_remove", |b| {
        let engine = MeasurementEngine::new(MetricKind::ShannonEntropy).sliding_spec(spec);
        b.iter(|| black_box(engine.run(blocks)))
    });
    group.finish();
}

fn ablation_zonemap(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("blockdec-abl-zm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = BlockStore::create(&dir).unwrap();
    let p = store.intern_producer("pool");
    let rows: Vec<RowRecord> = (0..500_000u64)
        .map(|h| RowRecord {
            height: h,
            timestamp: h as i64 * 600,
            producer: p,
            credit_millis: 1000,
            tx_count: 0,
            size_bytes: 0,
            difficulty: 0,
        })
        .collect();
    store.append_rows(&rows).unwrap();
    store.flush().unwrap();

    let mut group = c.benchmark_group("ablation_zonemap");
    group.sample_size(20);
    // Narrow range with pruning (zone maps skip ~7 of 8 segments).
    let pruned = ScanPredicate::all().heights(400_000, 405_000);
    group.bench_function("narrow_scan_with_pruning", |b| {
        b.iter(|| black_box(store.scan(&pruned).unwrap().len()))
    });
    // Same selectivity expressed only as a row filter the zone maps
    // cannot see: a time range covering everything forces full decode.
    group.bench_function("narrow_scan_without_pruning", |b| {
        b.iter(|| {
            let all = store.scan(&ScanPredicate::all()).unwrap();
            black_box(
                all.iter()
                    .filter(|r| (400_000..=405_000).contains(&r.height))
                    .count(),
            )
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).unwrap();
}

fn ablation_encoding(c: &mut Criterion) {
    // A sorted height column and a small-domain producer column — the
    // store's two characteristic shapes.
    let heights: Vec<u64> = (556_459..556_459 + 65_536).collect();
    let producers: Vec<u64> = (0..65_536u64).map(|i| i % 24).collect();

    let mut group = c.benchmark_group("ablation_encoding");
    group.sample_size(20);
    for (name, column) in [("sorted_heights", &heights), ("producer_ids", &producers)] {
        for codec in [Codec::PlainVarint, Codec::DeltaVarint, Codec::ForBitpack] {
            group.bench_function(format!("{name}_{codec:?}"), |b| {
                b.iter(|| {
                    let mut buf = Vec::new();
                    encode_column(codec, black_box(column), &mut buf);
                    let decoded = decode_column(codec, &buf, column.len()).unwrap();
                    black_box((buf.len(), decoded.len()))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_incremental,
    ablation_zonemap,
    ablation_encoding
);
criterion_main!(benches);

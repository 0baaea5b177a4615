//! End-to-end pipeline tests asserting the paper's qualitative findings
//! on calibrated simulated data: who wins on decentralization, who on
//! stability, granularity effects, and window arithmetic.

use blockdec::prelude::*;
use blockdec_chain::Granularity;
use blockdec_core::engine::run_matrix;
use blockdec_core::series::MeasurementSeries;
use blockdec_core::windows::sliding::SlidingWindowSpec;

/// Simulated days used throughout (covers both scripted anomalies and
/// the post-consolidation regime while staying fast).
const DAYS: u32 = 120;

fn btc() -> blockdec_sim::GeneratedStream {
    Scenario::bitcoin_2019().truncated(DAYS).generate()
}

fn eth() -> blockdec_sim::GeneratedStream {
    // Rate-limit Ethereum to ~20 simulated days of blocks: plenty for
    // daily-granularity assertions.
    let mut s = Scenario::ethereum_2019().truncated(DAYS);
    s.limit_blocks = Some(120_000);
    s.generate()
}

fn fixed(blocks: &[AttributedBlock], metric: MetricKind, g: Granularity) -> MeasurementSeries {
    MeasurementEngine::new(metric)
        .fixed_calendar(g, Timestamp::year_2019_start())
        .run(blocks)
}

#[test]
fn bitcoin_is_more_decentralized_ethereum_more_stable() {
    let btc = btc();
    let eth = eth();
    let origin = Timestamp::year_2019_start();

    let mk_series = |blocks: &[AttributedBlock]| -> Vec<MeasurementSeries> {
        MetricKind::PAPER
            .iter()
            .map(|&m| {
                MeasurementEngine::new(m)
                    .fixed_calendar(Granularity::Day, origin)
                    .run(blocks)
            })
            .collect()
    };
    let cmp = ChainComparison::new(
        "bitcoin",
        &mk_series(&btc.attributed),
        "ethereum",
        &mk_series(&eth.attributed),
    );
    // Every metric at daily granularity: Bitcoin more decentralized.
    let (dec_btc, dec_eth) = cmp.decentralization_score();
    assert_eq!(
        dec_btc, 3,
        "bitcoin should win all 3 metrics, lost {dec_eth}"
    );
    // Stability: Ethereum wins the majority.
    let (sta_btc, sta_eth) = cmp.stability_score();
    assert!(
        sta_eth > sta_btc,
        "ethereum stability {sta_eth} vs {sta_btc}"
    );
    assert_eq!(
        cmp.verdict(),
        "the degree of decentralization in bitcoin is higher, \
         while the degree of decentralization in ethereum is more stable"
    );
}

#[test]
fn gini_grows_with_granularity_on_both_chains() {
    // §II-C3: longer windows pull in more small miners, raising Gini;
    // entropy and Nakamoto trends stay granularity-insensitive.
    for stream in [btc(), eth()] {
        let day = fixed(&stream.attributed, MetricKind::Gini, Granularity::Day)
            .mean()
            .expect("day series");
        let week = fixed(&stream.attributed, MetricKind::Gini, Granularity::Week)
            .mean()
            .expect("week series");
        let month = fixed(&stream.attributed, MetricKind::Gini, Granularity::Month)
            .mean()
            .expect("month series");
        assert!(day < week, "gini day {day} !< week {week}");
        assert!(week < month, "gini week {week} !< month {month}");
    }
}

#[test]
fn entropy_is_granularity_insensitive() {
    let stream = btc();
    let day = fixed(
        &stream.attributed,
        MetricKind::ShannonEntropy,
        Granularity::Day,
    )
    .mean()
    .expect("series");
    let month = fixed(
        &stream.attributed,
        MetricKind::ShannonEntropy,
        Granularity::Month,
    )
    .mean()
    .expect("series");
    // Paper Fig. 2: "overall patterns quite close" — within ~15%.
    assert!((day - month).abs() / day < 0.15, "day {day} month {month}");
}

#[test]
fn ethereum_nakamoto_is_two_to_three() {
    let eth = eth();
    let series = fixed(&eth.attributed, MetricKind::Nakamoto, Granularity::Day);
    assert!(!series.points.is_empty());
    for p in &series.points {
        assert!(
            (2.0..=3.0).contains(&p.value),
            "eth daily nakamoto {} at day {}",
            p.value,
            p.index
        );
    }
}

#[test]
fn bitcoin_nakamoto_is_mostly_four_to_six_after_consolidation() {
    let btc = btc();
    let series = fixed(&btc.attributed, MetricKind::Nakamoto, Granularity::Day);
    let late: Vec<f64> = series
        .points
        .iter()
        .filter(|p| p.index >= 95) // post-consolidation, past the burst
        .map(|p| p.value)
        .collect();
    assert!(!late.is_empty());
    let in_band = late.iter().filter(|v| (4.0..=6.0).contains(*v)).count();
    assert!(
        in_band as f64 / late.len() as f64 > 0.9,
        "only {in_band}/{} late-year days in 4..=6",
        late.len()
    );
}

#[test]
fn ethereum_gini_exceeds_bitcoin_gini() {
    let btc = btc();
    let eth = eth();
    for g in [Granularity::Day, Granularity::Week] {
        let b = fixed(&btc.attributed, MetricKind::Gini, g).mean().unwrap();
        let e = fixed(&eth.attributed, MetricKind::Gini, g).mean().unwrap();
        assert!(e > b + 0.1, "{}: eth {e} vs btc {b}", g.label());
    }
}

#[test]
fn sliding_doubles_measurement_count_and_preserves_means() {
    // §III-B: with M = N/2 the number of results roughly doubles, and
    // sliding/fixed averages stay close.
    let btc = btc();
    let n = 144usize;
    let fixed_series = fixed(
        &btc.attributed,
        MetricKind::ShannonEntropy,
        Granularity::Day,
    );
    let sliding_series = MeasurementEngine::new(MetricKind::ShannonEntropy)
        .sliding_spec(SlidingWindowSpec::paper(n))
        .run(&btc.attributed);
    let expected = SlidingWindowSpec::paper(n).window_count(btc.attributed.len());
    assert_eq!(sliding_series.points.len(), expected);
    assert!(
        sliding_series.points.len() >= 2 * fixed_series.points.len() - 4,
        "sliding {} vs fixed {}",
        sliding_series.points.len(),
        fixed_series.points.len()
    );
    let fm = fixed_series.mean().unwrap();
    let sm = sliding_series.mean().unwrap();
    assert!((fm - sm).abs() / fm < 0.05, "fixed {fm} sliding {sm}");
}

#[test]
fn store_roundtrip_measures_identically() {
    // sim → store → scan → measure must equal sim → measure.
    let btc = {
        let s = Scenario::bitcoin_2019().truncated(20);
        s.generate()
    };
    let dir = std::env::temp_dir().join(format!("blockdec-it-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = BlockStore::create(&dir).unwrap();
    store
        .append_attributed(&btc.attributed, &btc.registry)
        .unwrap();
    store.flush().unwrap();

    let from_store = store.scan_attributed(&ScanPredicate::all()).unwrap();
    assert_eq!(from_store.len(), btc.attributed.len());

    for metric in MetricKind::PAPER {
        let direct = MeasurementEngine::new(metric)
            .fixed_calendar(Granularity::Day, Timestamp::year_2019_start())
            .run(&btc.attributed);
        let via_store = MeasurementEngine::new(metric)
            .fixed_calendar(Granularity::Day, Timestamp::year_2019_start())
            .run(&from_store);
        assert_eq!(direct.points.len(), via_store.points.len());
        for (a, b) in direct.points.iter().zip(&via_store.points) {
            assert!(
                (a.value - b.value).abs() < 1e-9,
                "{metric:?} day {}: {} vs {}",
                a.index,
                a.value,
                b.value
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn matrix_runner_handles_the_full_paper_grid() {
    let btc = {
        let s = Scenario::bitcoin_2019().truncated(30);
        s.generate()
    };
    let origin = Timestamp::year_2019_start();
    let mut configs = Vec::new();
    for metric in MetricKind::PAPER {
        for g in Granularity::ALL {
            configs.push(MeasurementEngine::new(metric).fixed_calendar(g, origin));
        }
        configs.push(MeasurementEngine::new(metric).sliding(144, 72));
    }
    let results = run_matrix(&btc.attributed, &configs);
    assert_eq!(results.len(), configs.len());
    for (cfg, series) in configs.iter().zip(&results) {
        assert_eq!(series.metric, cfg.metric());
        assert!(!series.points.is_empty(), "{:?} empty", cfg.metric());
    }
}

#[test]
fn time_windows_agree_with_calendar_days() {
    // A non-overlapping 24h time window starting at the calendar origin
    // is the same partition as fixed daily calendar windows — the two
    // engines must agree point for point (modulo empty-day skipping).
    let btc = {
        let s = Scenario::bitcoin_2019().truncated(30);
        s.generate()
    };
    let origin = Timestamp::year_2019_start();
    for metric in MetricKind::PAPER {
        let calendar = MeasurementEngine::new(metric)
            .fixed_calendar(Granularity::Day, origin)
            .run(&btc.attributed);
        let timed = MeasurementEngine::new(metric)
            .sliding_time_aligned(86_400, 86_400, origin)
            .run(&btc.attributed);
        // The time engine's origin is the first block's timestamp, which
        // is within day 0; compare the interior days where both engines
        // see complete windows. Day 0 and the last day may differ at the
        // edges, as may the first/last timed window.
        assert!(timed.points.len() >= calendar.points.len() - 2);
        let by_start: std::collections::HashMap<i64, f64> = timed
            .points
            .iter()
            .map(|p| (p.start_time.secs() / 86_400, p.value))
            .collect();
        let mut matched = 0;
        for p in &calendar.points[1..calendar.points.len() - 1] {
            if let Some(&tv) = by_start.get(&(p.start_time.secs() / 86_400)) {
                if (tv - p.value).abs() < 1e-9 {
                    matched += 1;
                }
            }
        }
        // Midnight-aligned 24h/24h time windows ARE calendar days:
        // every interior day must agree exactly.
        assert_eq!(
            matched,
            calendar.points.len() - 2,
            "{metric:?}: {matched}/{} interior days matched",
            calendar.points.len() - 2
        );
    }
}

#[test]
fn producer_block_counts_match_engine_totals() {
    let btc = {
        let s = Scenario::bitcoin_2019().truncated(10);
        s.generate()
    };
    let dir = std::env::temp_dir().join(format!("blockdec-it-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = BlockStore::create(&dir).unwrap();
    store
        .append_attributed(&btc.attributed, &btc.registry)
        .unwrap();
    store.flush().unwrap();

    let counts = producer_block_counts(&store, &Filter::True).unwrap();
    let total: f64 = counts.iter().map(|(_, c)| c).sum();
    let expected: f64 = btc.attributed.iter().map(|b| b.total_weight()).sum();
    assert!((total - expected).abs() < 1e-6, "{total} vs {expected}");
    std::fs::remove_dir_all(&dir).unwrap();
}

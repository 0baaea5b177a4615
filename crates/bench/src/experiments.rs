//! Regeneration of every figure and quoted statistic in the paper.
//!
//! Experiment ids mirror DESIGN.md's index: `fig1`–`fig7` (fixed-window
//! figures and the Fig. 7 share pies), `fig9`–`fig14` (sliding-window
//! figures; Fig. 8 is a schematic whose arithmetic is property-tested in
//! `blockdec-core`), and `table1`–`table3` (the §III-B quoted sliding
//! averages for both chains and the §II-C day-14 anomaly study).
//!
//! Each experiment reads a [`StoredDataset`]: the chain-year written to
//! a store and read back through the columnar scan `blockdec measure`
//! runs. Series come from the matrix planner over those columns; fig7's
//! and table3's single-day and single-month numbers come from window
//! queries on the store. Each experiment writes its series as CSV files
//! under the output directory and returns human-readable summary lines
//! that pair every measured number with the paper's reported value or
//! range.

use crate::datasets::{Dataset, StoredDataset};
use crate::perf::BenchDir;
use blockdec_analysis::anomaly::{sliding_reveals, threshold_runs, AnomalyDetector};
use blockdec_analysis::bootstrap::bootstrap_mean_ci;
use blockdec_analysis::changepoint::detect_mean_shift;
use blockdec_analysis::stats::SeriesStats;
use blockdec_analysis::trend::{mann_kendall, spearman, Trend};
use blockdec_chain::time::SECS_PER_DAY;
use blockdec_chain::{AttributionMode, BlockColumns, Granularity, Timestamp};
use blockdec_core::distribution::ProducerDistribution;
use blockdec_core::engine::{run_matrix_columns, MeasurementEngine};
use blockdec_core::metrics::MetricKind;
use blockdec_core::series::MeasurementSeries;
use blockdec_core::windows::sliding::SlidingWindowSpec;
use blockdec_query::{top_producers, Filter, MeasurementSource};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Every experiment id with a one-line description.
pub const ALL_EXPERIMENTS: &[(&str, &str)] = &[
    (
        "fig1",
        "Fig. 1 — Bitcoin Gini coefficient, fixed windows (day/week/month)",
    ),
    ("fig2", "Fig. 2 — Bitcoin Shannon entropy, fixed windows"),
    (
        "fig3",
        "Fig. 3 — Bitcoin Nakamoto coefficient, fixed windows",
    ),
    ("fig4", "Fig. 4 — Ethereum Gini coefficient, fixed windows"),
    ("fig5", "Fig. 5 — Ethereum Shannon entropy, fixed windows"),
    (
        "fig6",
        "Fig. 6 — Ethereum Nakamoto coefficient, fixed windows",
    ),
    (
        "fig7",
        "Fig. 7 — Bitcoin top-producer block shares: 2019-12-07 vs December 2019",
    ),
    (
        "fig9",
        "Fig. 9 — Bitcoin Shannon entropy, sliding windows (144/1008/4320, M=N/2)",
    ),
    (
        "fig10",
        "Fig. 10 — Ethereum Shannon entropy, sliding windows (6000/42000/180000)",
    ),
    (
        "fig11",
        "Fig. 11 — Bitcoin Gini coefficient, sliding windows",
    ),
    (
        "fig12",
        "Fig. 12 — Ethereum Gini coefficient, sliding windows",
    ),
    (
        "fig13",
        "Fig. 13 — Bitcoin Nakamoto coefficient, sliding windows (+day-60 anomaly)",
    ),
    (
        "fig14",
        "Fig. 14 — Ethereum Nakamoto coefficient, sliding windows",
    ),
    (
        "table1",
        "T1 — §III-B quoted Bitcoin sliding-window averages (entropy & Gini)",
    ),
    (
        "table2",
        "T2 — §III-B quoted Ethereum sliding-window averages (entropy & Gini)",
    ),
    (
        "table3",
        "T3 — §II-C day-14 anomaly: multi-coinbase blocks under per-address attribution",
    ),
    (
        "ext1",
        "EXT1 — structural break: the early-2019 Bitcoin consolidation as a changepoint",
    ),
    (
        "ext2",
        "EXT2 — metric concordance: the three metrics reveal the same trend (§I)",
    ),
    (
        "ext3",
        "EXT3 — attack thresholds: Nakamoto at 51% vs the 33% selfish-mining bound",
    ),
    (
        "ext4",
        "EXT4 — window-family robustness: block-count vs time-based sliding windows",
    ),
];

/// Result of one experiment run.
pub struct ExperimentResult {
    /// Experiment id (e.g. `fig9`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// CSV files written.
    pub files: Vec<PathBuf>,
    /// Summary lines pairing measured values with the paper's.
    pub lines: Vec<String>,
}

impl ExperimentResult {
    fn new(id: &str, files: Vec<PathBuf>, lines: Vec<String>) -> ExperimentResult {
        let title = ALL_EXPERIMENTS
            .iter()
            .find(|(i, _)| *i == id)
            .map_or(id, |(_, t)| t);
        ExperimentResult {
            id: id.to_string(),
            title: title.to_string(),
            files,
            lines,
        }
    }
}

fn write_csv(outdir: &Path, name: &str, series: &MeasurementSeries) -> io::Result<PathBuf> {
    let path = outdir.join(name);
    fs::write(&path, series.to_csv())?;
    Ok(path)
}

fn stat_line(label: &str, series: &MeasurementSeries, paper: &str) -> String {
    match SeriesStats::from_values(&series.values()) {
        Some(s) => format!(
            "  {label}: n={} mean={:.3} min={:.3} max={:.3} | paper: {paper}",
            s.count, s.mean, s.min, s.max
        ),
        None => format!("  {label}: empty | paper: {paper}"),
    }
}

/// Run `configs` over every block of the dataset, in config order.
fn measure(ds: &StoredDataset, configs: &[MeasurementEngine]) -> Vec<MeasurementSeries> {
    run_matrix_columns(ds.columns.as_slice(), configs)
}

/// `metric` over calendar windows of granularity `g`.
fn fixed(ds: &StoredDataset, metric: MetricKind, g: Granularity) -> MeasurementEngine {
    MeasurementEngine::new(metric).fixed_calendar(g, ds.origin())
}

/// `metric` over the paper's sliding windows sized for granularity `g`
/// (N blocks, advancing N/2).
fn sliding(ds: &StoredDataset, metric: MetricKind, g: Granularity) -> MeasurementEngine {
    MeasurementEngine::new(metric).sliding_spec(SlidingWindowSpec::paper(sliding_size(ds, g)))
}

/// The sliding window size, in blocks, the paper uses for granularity `g`.
fn sliding_size(ds: &StoredDataset, g: Granularity) -> usize {
    ds.scenario.spec().window_blocks(g) as usize
}

fn sliding_series(
    ds: &StoredDataset,
    metric: MetricKind,
) -> Vec<(Granularity, usize, MeasurementSeries)> {
    let configs = Granularity::ALL.map(|g| sliding(ds, metric, g));
    Granularity::ALL
        .into_iter()
        .zip(measure(ds, &configs))
        .map(|(g, series)| (g, sliding_size(ds, g), series))
        .collect()
}

/// The calendar window of granularity `g` that holds day `day` after
/// `origin`: its [`Timestamp::bucket`] index, and the store filter for
/// its seconds.
fn calendar_window(g: Granularity, day: i64, origin: Timestamp) -> (i64, Filter) {
    let (index, span) = Timestamp(origin.secs() + day * SECS_PER_DAY).bucket_span(g, origin);
    (index, Filter::TimeBetween(span.start, span.end - 1))
}

/// Every credit of `blocks`, grouped by producer.
fn distribution(blocks: &BlockColumns) -> ProducerDistribution {
    let mut dist = ProducerDistribution::new();
    for i in 0..blocks.len() {
        dist.add_credits(blocks.producers_of(i), blocks.weights_of(i));
    }
    dist
}

/// The window family a figure measures over.
#[derive(Clone, Copy)]
enum Windows {
    /// Calendar days, weeks and months (figs 1–6).
    Fixed,
    /// The paper's sliding windows sized per granularity (figs 9–14).
    Sliding,
}

/// A figure of one metric at the three granularities.
fn figure(
    id: &str,
    ds: &StoredDataset,
    metric: MetricKind,
    windows: Windows,
    paper_notes: [&str; 3],
    outdir: &Path,
) -> io::Result<ExperimentResult> {
    let configs = Granularity::ALL.map(|g| match windows {
        Windows::Fixed => fixed(ds, metric, g),
        Windows::Sliding => sliding(ds, metric, g),
    });
    let mut files = Vec::new();
    let mut lines = Vec::new();
    for ((g, series), paper) in Granularity::ALL
        .into_iter()
        .zip(measure(ds, &configs))
        .zip(paper_notes)
    {
        let (window, label) = match windows {
            Windows::Fixed => (
                format!("fixed_{}", g.label()),
                format!("fixed/{}", g.label()),
            ),
            Windows::Sliding => {
                let n = sliding_size(ds, g);
                let label = format!("sliding/{} (N={n}, M={})", g.label(), n / 2);
                (format!("sliding_{}_{n}", g.label()), label)
            }
        };
        let name = format!("{id}_{}_{}_{window}.csv", ds.name, metric.label());
        files.push(write_csv(outdir, &name, &series)?);
        lines.push(stat_line(
            &format!("{} {label}", metric.label()),
            &series,
            paper,
        ));
    }
    Ok(ExperimentResult::new(id, files, lines))
}

/// Fig. 7 — top-producer share pies for one day versus its month.
fn fig7(btc: &StoredDataset, outdir: &Path) -> io::Result<ExperimentResult> {
    let origin = btc.origin();
    // 2019-12-07 is day index 340, in December (month index 11). On
    // truncated datasets fall back to the last day present and its month.
    let last = btc.columns.as_slice().timestamps().last().copied();
    let day = 340.min(last.map_or(0, |t| Timestamp(t).day_index(origin)));

    let mut csv = String::from("scope,producer,blocks,share\n");
    // Companion artifact: the Lorenz curves behind the Gini difference —
    // the day curve hugs the diagonal more than the month curve.
    let mut lorenz_csv = String::from("scope,population_share,block_share\n");
    let mut lines = Vec::new();
    for g in [Granularity::Day, Granularity::Month] {
        let (idx, filter) = calendar_window(g, day, origin);
        let blocks = btc.store.block_columns(&filter).map_err(io::Error::other)?;
        let dist = distribution(&blocks);
        let total = dist.total_weight();
        // What `blockdec query "top 8 producers where time between …"`
        // prints for this window.
        let top = top_producers(&btc.store, &filter, 8).map_err(io::Error::other)?;
        let scope = format!("{}_{idx}", g.label());
        let mut top_share = 0.0;
        for p in &top {
            csv.push_str(&format!("{scope},{},{},{:.4}\n", p.name, p.blocks, p.share));
            top_share += p.share;
        }
        csv.push_str(&format!(
            "{scope},<others>,{:.1},{:.4}\n",
            total - top.iter().map(|p| p.blocks).sum::<f64>(),
            1.0 - top_share
        ));
        lines.push(format!(
            "  {scope}: blocks={} producers={} top8_share={top_share:.3}",
            blocks.len(),
            dist.producers()
        ));
        for (x, y) in blockdec_core::metrics::gini::lorenz_curve(&dist.weight_vector()) {
            lorenz_csv.push_str(&format!("{},{x:.6},{y:.6}\n", g.label()));
        }
    }
    lines.push(
        "  paper: top-producer share changes little day-vs-month; the month adds a long tail \
         of small producers (raising Gini, §II-C3)"
            .to_string(),
    );
    let path = outdir.join("fig07_btc_topshare_pies.csv");
    fs::write(&path, csv)?;
    let lorenz_path = outdir.join("fig07_btc_lorenz_curves.csv");
    fs::write(&lorenz_path, lorenz_csv)?;

    Ok(ExperimentResult::new(
        "fig7",
        vec![path, lorenz_path],
        lines,
    ))
}

/// The §III-B quoted sliding averages.
fn quoted_averages_table(
    id: &str,
    file_tag: &str,
    ds: &StoredDataset,
    entropy_paper: [f64; 3],
    gini_paper: [f64; 3],
    outdir: &Path,
) -> io::Result<ExperimentResult> {
    let mut lines = Vec::new();
    let mut csv =
        String::from("metric,window,paper_mean,measured_mean,ci95_lo,ci95_hi,abs_error\n");
    for (metric, paper_vals) in [
        (MetricKind::ShannonEntropy, entropy_paper),
        (MetricKind::Gini, gini_paper),
    ] {
        for ((g, n, series), paper) in sliding_series(ds, metric).iter().zip(paper_vals) {
            let measured = series.mean().unwrap_or(f64::NAN);
            let ci = bootstrap_mean_ci(&series.values(), 0.95, 2_000, 2019);
            let (lo, hi) = ci.map_or((f64::NAN, f64::NAN), |c| (c.lo, c.hi));
            csv.push_str(&format!(
                "{},{}({n}),{paper},{measured:.3},{lo:.3},{hi:.3},{:.3}\n",
                metric.label(),
                g.label(),
                (measured - paper).abs()
            ));
            lines.push(format!(
                "  {} sliding/{}: paper {paper:.3}, measured {measured:.3} \
                 (95% CI [{lo:.3}, {hi:.3}], Δ {:+.3})",
                metric.label(),
                g.label(),
                measured - paper
            ));
        }
    }
    let path = outdir.join(format!("{file_tag}_{}_sliding_averages.csv", ds.name));
    fs::write(&path, csv)?;
    Ok(ExperimentResult::new(id, vec![path], lines))
}

/// T3 — the day-14 anomaly under per-address attribution, with the
/// attribution-mode ablation.
fn table3(btc: &StoredDataset, outdir: &Path) -> io::Result<ExperimentResult> {
    let (_, day13) = calendar_window(Granularity::Day, 13, btc.origin());
    let blocks = btc.store.block_columns(&day13).map_err(io::Error::other)?;
    let dist = distribution(&blocks);
    let w = dist.weight_vector();
    let gini = MetricKind::Gini.compute(&w);
    let entropy = MetricKind::ShannonEntropy.compute(&w);
    let nakamoto = MetricKind::Nakamoto.compute(&w);
    let credits = (0..blocks.len()).map(|i| blocks.producers_of(i).len());
    let multi = credits.clone().filter(|&n| n > 1).count();
    let biggest = credits.max().unwrap_or(0);

    let mut lines = vec![
        format!(
            "  day 14 (index 13): blocks={} producers={} multi-coinbase blocks={multi} \
             largest={biggest} addresses",
            blocks.len(),
            dist.producers()
        ),
        format!("  daily Gini:    measured {gini:.3} | paper 0.34 (an extreme low)"),
        format!("  daily entropy: measured {entropy:.3} | paper 6.2 (an extreme high)"),
        format!(
            "  daily Nakamoto: measured {nakamoto} | paper: daily spikes >35 in the first 50 days"
        ),
    ];

    // Ablation: re-attribute the first 14 days with FirstAddress credit
    // into a store of their own, and read the same day back.
    let mut scenario = btc.scenario.clone().truncated(14);
    scenario.attribution = AttributionMode::FirstAddress;
    let first_addr = Dataset::from_scenario(scenario);
    let dir = BenchDir::new("t3-ablation", &first_addr);
    let ablation = dir.store(&first_addr, 1, false);
    let blocks_first = ablation.block_columns(&day13).map_err(io::Error::other)?;
    let gini_first = MetricKind::Gini.compute(&distribution(&blocks_first).weight_vector());
    lines.push(format!(
        "  ablation — FirstAddress attribution: daily Gini {gini_first:.3} vs {gini:.3} \
         per-address (the paper's semantics; per-address is what craters it)"
    ));

    // The daily-entropy outlier detector must flag day 13.
    let daily_entropy = fixed(btc, MetricKind::ShannonEntropy, Granularity::Day)
        .run_columns(btc.columns.as_slice());
    let flagged = AnomalyDetector::default()
        .detect(&daily_entropy)
        .iter()
        .any(|a| a.index == 13);
    lines.push(format!(
        "  day 13 flagged by the robust outlier detector: {flagged} (expected true)"
    ));

    let mut csv = String::from("quantity,paper,measured\n");
    csv.push_str(&format!("daily_gini,0.34,{gini:.4}\n"));
    csv.push_str(&format!("daily_entropy,6.2,{entropy:.4}\n"));
    csv.push_str(&format!("blocks,148,{}\n", blocks.len()));
    csv.push_str(&format!("multi_coinbase_blocks,2,{multi}\n"));
    csv.push_str(&format!("largest_coinbase_addresses,>90,{biggest}\n"));
    let path = outdir.join("t3_day14_anomaly.csv");
    fs::write(&path, csv)?;

    Ok(ExperimentResult::new("table3", vec![path], lines))
}

/// Fig. 13 with the cross-interval anomaly analysis (§III-B).
fn fig13(btc: &StoredDataset, outdir: &Path) -> io::Result<ExperimentResult> {
    let mut result = figure(
        "fig13",
        btc,
        MetricKind::Nakamoto,
        Windows::Sliding,
        [
            "mostly 4–5; extremes doubled vs fixed; day-60 burst visible",
            "4–5; cross-interval dip visible where fixed weekly only trends",
            "stable 4–5",
        ],
        outdir,
    )?;

    // The day-60 dominance burst: daily sliding windows (index ≈ 2×day)
    // must show a run of Nakamoto 1. Weekly: anomalies visible in sliding
    // but absent from fixed.
    let [day_sliding, weekly_fixed, weekly_sliding] = [
        sliding(btc, MetricKind::Nakamoto, Granularity::Day),
        fixed(btc, MetricKind::Nakamoto, Granularity::Week),
        sliding(btc, MetricKind::Nakamoto, Granularity::Week),
    ]
    .map(|config| config.run_columns(btc.columns.as_slice()));
    let runs = threshold_runs(&day_sliding, |v| v <= 1.0);
    match runs.iter().max_by_key(|r| r.len) {
        Some(run) => result.lines.push(format!(
            "  dominance burst: Nakamoto==1 for sliding windows {}..={} (≈ days {}–{}) | \
             paper: abnormal change at window index ~120 (day 60)",
            run.first_index,
            run.last_index,
            run.first_index / 2,
            run.last_index / 2 + 1
        )),
        None => result
            .lines
            .push("  dominance burst: NOT FOUND (expected around day 60)".to_string()),
    }

    let revealed = sliding_reveals(&weekly_fixed, &weekly_sliding, &AnomalyDetector::new(3.0));
    result.lines.push(format!(
        "  weekly cross-interval anomalies revealed by sliding only: {} window(s) | \
         paper: sliding discovers changes fixed windows miss",
        revealed.len()
    ));
    Ok(result)
}

/// EXT1 — locate the early-2019 consolidation as a changepoint in each
/// Bitcoin daily metric series.
fn ext1(btc: &StoredDataset, outdir: &Path) -> io::Result<ExperimentResult> {
    let mut lines = Vec::new();
    let mut csv = String::from("metric,changepoint_day,mean_before,mean_after,magnitude_sigmas\n");
    let metrics = [
        MetricKind::ShannonEntropy,
        MetricKind::Gini,
        MetricKind::Nakamoto,
    ];
    let daily = measure(btc, &metrics.map(|m| fixed(btc, m, Granularity::Day)));
    for (metric, series) in metrics.into_iter().zip(daily) {
        match detect_mean_shift(&series.values(), 20, 0.4) {
            Some(cp) => {
                csv.push_str(&format!(
                    "{},{},{:.4},{:.4},{:.2}\n",
                    metric.label(),
                    cp.index,
                    cp.mean_before,
                    cp.mean_after,
                    cp.magnitude_sigmas
                ));
                lines.push(format!(
                    "  {}: mean shift at day {} ({:.3} → {:.3}, {:.1}σ) | expected: the \
                     day 50–90 consolidation regime change",
                    metric.label(),
                    cp.index,
                    cp.mean_before,
                    cp.mean_after,
                    cp.magnitude_sigmas
                ));
            }
            None => lines.push(format!("  {}: no changepoint found", metric.label())),
        }
        // Direction of the early-year trend (first 120 days).
        let early: Vec<f64> = series
            .points
            .iter()
            .filter(|p| p.index < 120)
            .map(|p| p.value)
            .collect();
        if let Some(mk) = mann_kendall(&early) {
            let expected = if metric.higher_is_more_decentralized() {
                Trend::Decreasing
            } else {
                Trend::Increasing
            };
            lines.push(format!(
                "  {} first-120-day Mann–Kendall: {:?} (z = {:.1}) | expected {:?} \
                 (centralization over early 2019)",
                metric.label(),
                mk.trend,
                mk.z,
                expected
            ));
        }
    }
    let path = outdir.join("ext1_btc_changepoints.csv");
    fs::write(&path, csv)?;
    Ok(ExperimentResult::new("ext1", vec![path], lines))
}

/// EXT2 — Spearman concordance between the daily series of the three
/// metrics, per chain. The paper's §I claim: all metrics "reveal the
/// same trend".
fn ext2(btc: &StoredDataset, eth: &StoredDataset, outdir: &Path) -> io::Result<ExperimentResult> {
    let mut lines = Vec::new();
    let mut csv = String::from("chain,pair,spearman_rho\n");
    for ds in [btc, eth] {
        let daily = measure(
            ds,
            &MetricKind::PAPER.map(|m| fixed(ds, m, Granularity::Day)),
        );
        let series: Vec<(MetricKind, Vec<f64>)> = MetricKind::PAPER
            .into_iter()
            .zip(daily.iter().map(MeasurementSeries::values))
            .collect();
        for i in 0..series.len() {
            for j in (i + 1)..series.len() {
                let (ma, va) = &series[i];
                let (mb, vb) = &series[j];
                let rho = spearman(va, vb).unwrap_or(f64::NAN);
                // Align signs: flip when the two metrics point in
                // opposite directions, so "same trend" = positive.
                let aligned =
                    if ma.higher_is_more_decentralized() == mb.higher_is_more_decentralized() {
                        rho
                    } else {
                        -rho
                    };
                csv.push_str(&format!(
                    "{},{}~{},{rho:.3}\n",
                    ds.name,
                    ma.label(),
                    mb.label()
                ));
                lines.push(format!(
                    "  {} {}~{}: ρ = {rho:+.3} (direction-aligned {aligned:+.3}) | expected: \
                     aligned ρ > 0 — the metrics agree",
                    ds.name,
                    ma.label(),
                    mb.label()
                ));
            }
        }
    }
    let path = outdir.join("ext2_metric_concordance.csv");
    fs::write(&path, csv)?;
    Ok(ExperimentResult::new("ext2", vec![path], lines))
}

/// EXT3 — Nakamoto coefficient at the 51% threshold versus the 33%
/// selfish-mining bound from the paper's introduction.
fn ext3(btc: &StoredDataset, eth: &StoredDataset, outdir: &Path) -> io::Result<ExperimentResult> {
    let mut lines = Vec::new();
    let mut csv = String::from("chain,threshold,mean,min,max\n");
    let metrics = [MetricKind::Nakamoto, MetricKind::NakamotoSelfish];
    for ds in [btc, eth] {
        let daily = measure(ds, &metrics.map(|m| fixed(ds, m, Granularity::Day)));
        for (series, label) in daily.iter().zip(["51%", "33%"]) {
            let stats = SeriesStats::from_values(&series.values());
            if let Some(s) = stats {
                csv.push_str(&format!(
                    "{},{label},{:.3},{},{}\n",
                    ds.name, s.mean, s.min, s.max
                ));
                lines.push(format!(
                    "  {} Nakamoto@{label}: mean {:.2} (min {}, max {})",
                    ds.name, s.mean, s.min, s.max
                ));
            }
        }
    }
    lines.push(
        "  expected: the 33% bound needs strictly fewer colluders — selfish mining \
         lowers the bar exactly as the paper's introduction argues"
            .to_string(),
    );
    let path = outdir.join("ext3_attack_thresholds.csv");
    fs::write(&path, csv)?;
    Ok(ExperimentResult::new("ext3", vec![path], lines))
}

/// EXT4 — do the paper's conclusions depend on its *block-count* window
/// family? Repeat the day-granularity sliding measurements with
/// time-based windows (24h advancing 12h) and compare.
fn ext4(btc: &StoredDataset, outdir: &Path) -> io::Result<ExperimentResult> {
    let mut lines = Vec::new();
    let mut csv = String::from("metric,family,n_windows,mean,min,max\n");
    let configs: Vec<MeasurementEngine> = MetricKind::PAPER
        .iter()
        .flat_map(|&m| {
            [
                sliding(btc, m, Granularity::Day),
                MeasurementEngine::new(m).sliding_time(86_400, 43_200),
            ]
        })
        .collect();
    let series = measure(btc, &configs);
    for (metric, pair) in MetricKind::PAPER.into_iter().zip(series.chunks(2)) {
        let (by_blocks, by_time) = (&pair[0], &pair[1]);
        for (family, series) in [("blocks", by_blocks), ("time", by_time)] {
            if let Some(s) = SeriesStats::from_values(&series.values()) {
                csv.push_str(&format!(
                    "{},{family},{},{:.4},{:.4},{:.4}\n",
                    metric.label(),
                    s.count,
                    s.mean,
                    s.min,
                    s.max
                ));
            }
        }
        let (bm, tm) = (
            by_blocks.mean().unwrap_or(f64::NAN),
            by_time.mean().unwrap_or(f64::NAN),
        );
        let rel = ((bm - tm) / bm).abs();
        lines.push(format!(
            "  {}: block-count mean {bm:.3} vs time-based mean {tm:.3} \
             (relative gap {:.1}%) | expected: families agree — conclusions \
             don't hinge on the window family",
            metric.label(),
            rel * 100.0
        ));
    }
    let path = outdir.join("ext4_window_family_robustness.csv");
    fs::write(&path, csv)?;
    Ok(ExperimentResult::new("ext4", vec![path], lines))
}

/// Run one experiment by id.
pub fn run_experiment(
    id: &str,
    btc: &StoredDataset,
    eth: &StoredDataset,
    outdir: &Path,
) -> io::Result<ExperimentResult> {
    fs::create_dir_all(outdir)?;
    match id {
        "fig1" => figure(
            "fig1",
            btc,
            MetricKind::Gini,
            Windows::Fixed,
            [
                "daily mostly 0.45–0.60, extreme lows ≈0.25 in the first 3 months",
                "weekly between daily and monthly, similar trend to monthly",
                "monthly highest, peaks ≈0.90 in the first 3 months",
            ],
            outdir,
        ),
        "fig2" => figure(
            "fig2",
            btc,
            MetricKind::ShannonEntropy,
            Windows::Fixed,
            [
                "daily 3.5–4.0 with extremes >5.5; higher in the first 2 months",
                "weekly close to daily pattern",
                "monthly close to daily pattern",
            ],
            outdir,
        ),
        "fig3" => figure(
            "fig3",
            btc,
            MetricKind::Nakamoto,
            Windows::Fixed,
            [
                "stable ≈4 for days 100–260, else 4–5; daily spikes >35 in first 50 days",
                "oscillates 4–5",
                "oscillates 4–5",
            ],
            outdir,
        ),
        "fig4" => figure(
            "fig4",
            eth,
            MetricKind::Gini,
            Windows::Fixed,
            [
                "higher and more stable than Bitcoin's",
                "weekly between daily and monthly",
                "monthly highest",
            ],
            outdir,
        ),
        "fig5" => figure(
            "fig5",
            eth,
            MetricKind::ShannonEntropy,
            Windows::Fixed,
            [
                "mostly 3.3–3.5, all granularities alike",
                "mostly 3.3–3.5",
                "mostly 3.3–3.5",
            ],
            outdir,
        ),
        "fig6" => figure(
            "fig6",
            eth,
            MetricKind::Nakamoto,
            Windows::Fixed,
            ["fluctuates 2–3", "fluctuates 2–3", "fluctuates 2–3"],
            outdir,
        ),
        "fig7" => fig7(btc, outdir),
        "fig9" => figure(
            "fig9",
            btc,
            MetricKind::ShannonEntropy,
            Windows::Sliding,
            [
                "avg ≈3.810; ~700 results; more extremes (>5.0) than fixed",
                "avg ≈4.002; reveals cross-interval changes in days 20–50",
                "avg ≈4.091",
            ],
            outdir,
        ),
        "fig10" => figure(
            "fig10",
            eth,
            MetricKind::ShannonEntropy,
            Windows::Sliding,
            [
                "avg ≈3.420; stable, mostly 3.3–3.5",
                "avg ≈3.433",
                "avg ≈3.445",
            ],
            outdir,
        ),
        "fig11" => figure(
            "fig11",
            btc,
            MetricKind::Gini,
            Windows::Sliding,
            [
                "avg ≈0.523; larger windows → higher values",
                "avg ≈0.667",
                "avg ≈0.760",
            ],
            outdir,
        ),
        "fig12" => figure(
            "fig12",
            eth,
            MetricKind::Gini,
            Windows::Sliding,
            ["avg ≈0.837; very stable", "avg ≈0.878", "avg ≈0.916"],
            outdir,
        ),
        "fig13" => fig13(btc, outdir),
        "fig14" => figure(
            "fig14",
            eth,
            MetricKind::Nakamoto,
            Windows::Sliding,
            [
                "majority 2–3: a few entities control most mining power",
                "majority 2–3",
                "majority 2–3",
            ],
            outdir,
        ),
        "table1" => quoted_averages_table(
            "table1",
            "t1",
            btc,
            [3.810, 4.002, 4.091],
            [0.523, 0.667, 0.760],
            outdir,
        ),
        "table2" => quoted_averages_table(
            "table2",
            "t2",
            eth,
            [3.420, 3.433, 3.445],
            [0.837, 0.878, 0.916],
            outdir,
        ),
        "table3" => table3(btc, outdir),
        "ext1" => ext1(btc, outdir),
        "ext2" => ext2(btc, eth, outdir),
        "ext3" => ext3(btc, eth, outdir),
        "ext4" => ext4(btc, outdir),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown experiment {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("blockdec-exp-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn all_experiment_ids_run_on_small_datasets() {
        // 70 days of Bitcoin covers the day-13 and day-60 events; 2 days
        // of Ethereum keeps the test fast.
        let btc = StoredDataset::load(&Dataset::bitcoin(70));
        let mut eth_scenario = blockdec_sim::Scenario::ethereum_2019().truncated(2);
        eth_scenario.limit_blocks = Some(9_000);
        let eth = StoredDataset::load(&Dataset::from_scenario(eth_scenario));
        let dir = outdir("all");
        for (id, _) in ALL_EXPERIMENTS {
            let result = run_experiment(id, &btc, &eth, &dir)
                .unwrap_or_else(|e| panic!("experiment {id}: {e}"));
            assert_eq!(&result.id, id);
            assert!(!result.lines.is_empty(), "{id} produced no summary");
            for f in &result.files {
                assert!(f.is_file(), "{id} did not write {}", f.display());
                let content = fs::read_to_string(f).unwrap();
                // Header always present; truncated datasets may leave a
                // week/month sliding window with zero emissions.
                assert!(content.lines().count() >= 1, "{id}: {} empty", f.display());
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_id_is_an_error() {
        let btc = StoredDataset::load(&Dataset::bitcoin(1));
        let eth = StoredDataset::load(&Dataset::ethereum(0));
        assert!(run_experiment("fig99", &btc, &eth, &outdir("bad")).is_err());
    }

    #[test]
    fn table3_flags_day13() {
        let btc = StoredDataset::load(&Dataset::bitcoin(30));
        let eth = StoredDataset::load(&Dataset::ethereum(0));
        let dir = outdir("t3");
        let r = run_experiment("table3", &btc, &eth, &dir).unwrap();
        let text = r.lines.join("\n");
        assert!(
            text.contains("flagged by the robust outlier detector: true"),
            "{text}"
        );
        assert!(text.contains("largest=93"), "{text}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

//! Rendering measurement results for humans and pipelines.
//!
//! Text/markdown/CSV renderers for series summaries, chain comparisons,
//! and anomaly lists. The experiment harness uses these to produce the
//! artifacts recorded in EXPERIMENTS.md.

use crate::anomaly::Anomaly;
use crate::compare::ChainComparison;
use crate::stats::SeriesStats;
use blockdec_core::series::MeasurementSeries;
use std::fmt::Write as _;

/// One-line summary of a series: label, count, mean, spread.
pub fn series_summary_line(label: &str, series: &MeasurementSeries) -> String {
    match SeriesStats::from_values(&series.values()) {
        Some(s) => format!(
            "{label} {}/{}: n={} mean={:.4} std={:.4} min={:.4} max={:.4}",
            series.metric.label(),
            series.window.label(),
            s.count,
            s.mean,
            s.std,
            s.min,
            s.max
        ),
        None => format!(
            "{label} {}/{}: empty",
            series.metric.label(),
            series.window.label()
        ),
    }
}

/// Markdown rendering of a chain comparison, ending with the verdict.
pub fn comparison_markdown(cmp: &ChainComparison) -> String {
    let _t = blockdec_obs::span!("stage.report", comparison_rows = cmp.rows.len());
    let mut out = String::new();
    let _ = writeln!(out, "## {} vs {}\n", cmp.label_a, cmp.label_b);
    out.push_str(&format!(
        "| metric | window | mean({a}) | mean({b}) | cv({a}) | cv({b}) | more decentralized | more stable |\n",
        a = cmp.label_a,
        b = cmp.label_b,
    ));
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for r in &cmp.rows {
        let fmt_cv = |cv: Option<f64>| cv.map_or("-".to_string(), |v| format!("{v:.3}"));
        let _ = writeln!(
            out,
            "| {} | {} | {:.4} | {:.4} | {} | {} | {} | {} |",
            r.metric.label(),
            r.window,
            r.mean_a,
            r.mean_b,
            fmt_cv(r.cv_a),
            fmt_cv(r.cv_b),
            r.more_decentralized.as_deref().unwrap_or("-"),
            r.more_stable.as_deref().unwrap_or("-"),
        );
    }
    let _ = writeln!(out, "\n**Verdict:** {}.", cmp.verdict());
    out
}

/// Unicode sparkline of a value series (8-level block characters),
/// downsampled to at most `width` cells by bucket-averaging. Returns an
/// empty string for an empty series. Constant series render mid-level.
///
/// ```
/// use blockdec_analysis::report::sparkline;
/// assert_eq!(sparkline(&[0.0, 1.0, 2.0, 3.0], 4), "▁▃▆█");
/// ```
pub fn sparkline(values: &[f64], width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    // Downsample by averaging contiguous buckets.
    let cells = width.min(values.len());
    let bucketed: Vec<f64> = (0..cells)
        .map(|c| {
            let lo = c * values.len() / cells;
            let hi = ((c + 1) * values.len() / cells).max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let min = bucketed.iter().copied().fold(f64::INFINITY, f64::min);
    let max = bucketed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    bucketed
        .iter()
        .map(|&v| {
            if span <= 1e-12 {
                LEVELS[3]
            } else {
                let t = ((v - min) / span * 7.0).round() as usize;
                LEVELS[t.min(7)]
            }
        })
        .collect()
}

/// One-line sparkline summary of a series: label, sparkline, min/max.
pub fn sparkline_line(label: &str, series: &MeasurementSeries, width: usize) -> String {
    let values = series.values();
    match SeriesStats::from_values(&values) {
        Some(s) => format!(
            "{label} {} [{:.3} … {:.3}]",
            sparkline(&values, width),
            s.min,
            s.max
        ),
        None => format!("{label} (empty)"),
    }
}

/// CSV of anomalies (index, value, score, time range).
pub fn anomalies_csv(anomalies: &[Anomaly]) -> String {
    let mut out = String::from("index,value,score,start_time,end_time\n");
    for a in anomalies {
        let _ = writeln!(
            out,
            "{},{},{:.3},{},{}",
            a.index, a.value, a.score, a.start_time, a.end_time
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::Timestamp;
    use blockdec_core::metrics::MetricKind;
    use blockdec_core::series::{MeasurementPoint, WindowLabel};

    fn series(values: &[f64]) -> MeasurementSeries {
        MeasurementSeries {
            metric: MetricKind::Gini,
            window: WindowLabel::FixedCalendar {
                granularity: "day".into(),
            },
            points: values
                .iter()
                .enumerate()
                .map(|(i, &v)| MeasurementPoint {
                    index: i as i64,
                    start_height: 0,
                    end_height: 0,
                    start_time: Timestamp(0),
                    end_time: Timestamp(0),
                    blocks: 1,
                    producers: 1,
                    value: v,
                })
                .collect(),
        }
    }

    #[test]
    fn summary_line_contains_stats() {
        let s = series(&[0.4, 0.6]);
        let line = series_summary_line("bitcoin", &s);
        assert!(line.contains("bitcoin gini/fixed/day"));
        assert!(line.contains("mean=0.5000"));
        let empty = series_summary_line("x", &series(&[]));
        assert!(empty.contains("empty"));
    }

    #[test]
    fn comparison_markdown_has_verdict() {
        let a = vec![series(&[0.5, 0.55])];
        let b = vec![series(&[0.9, 0.91])];
        let cmp = ChainComparison::new("bitcoin", &a, "ethereum", &b);
        let md = comparison_markdown(&cmp);
        assert!(md.contains("## bitcoin vs ethereum"));
        assert!(md.contains("**Verdict:**"));
        assert!(md.contains("| gini |"));
    }

    #[test]
    fn sparkline_shapes() {
        // Monotone ramp: first char lowest, last highest.
        let ramp: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let s = sparkline(&ramp, 8);
        assert_eq!(s.chars().count(), 8);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));

        // Constant: mid-level everywhere.
        let flat = sparkline(&[5.0; 10], 5);
        assert!(flat.chars().all(|c| c == '▄'));

        // Width larger than data: one cell per value.
        assert_eq!(sparkline(&[1.0, 2.0], 80).chars().count(), 2);

        // Degenerate inputs.
        assert!(sparkline(&[], 10).is_empty());
        assert!(sparkline(&[1.0], 0).is_empty());
    }

    #[test]
    fn sparkline_line_contains_range() {
        let s = series(&[0.2, 0.8]);
        let line = sparkline_line("gini", &s, 10);
        assert!(line.starts_with("gini "));
        assert!(line.contains("[0.200 … 0.800]"));
        let empty = sparkline_line("x", &series(&[]), 10);
        assert!(empty.contains("empty"));
    }

    #[test]
    fn anomalies_csv_shape() {
        let csv = anomalies_csv(&[Anomaly {
            index: 13,
            value: 6.2,
            score: 7.5,
            start_time: 100,
            end_time: 200,
        }]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("13,6.2,7.500,100,200"));
    }
}

//! Bitwise output gate: pinned FNV-1a-64 digests of measured series.
//!
//! Each digest covers the [`MeasurementSeries::to_csv`] text of every
//! paper metric over one window spec, for one chain and one attribution
//! mode. The CSV writes values with `{}`, which round-trips every f64, so
//! a change in the last bit of any value, or in any window's blocks,
//! heights or times, moves a digest. The test names the first digest
//! that moved.
//!
//! Inputs:
//!
//! * seeded Bitcoin over 30 days: the day-14 multi-payout blocks,
//!   out-of-order miner timestamps, block-count sliding windows 144/72;
//! * seeded Ethereum over 7 days: block-count sliding windows 6000/3000.
//!
//! Under `PerAddress` every chain runs the 15-config paper matrix through
//! [`run_matrix_columns`]. Under `Fractional` each config runs alone
//! through [`MeasurementEngine::run_columns`], and the 6 delta streams
//! (paper metrics × fixed day and block-count sliding) replay the stream.
//! Fractional output avoids the planner because a chunk-leading rebuild
//! can differ from a continuous slide by f64 residue, so it would depend
//! on the host's core count (`crates/core/src/planner.rs`, "Exactness").
//!
//! The digests are the output of the code as it stands; an optimisation
//! must leave every one of them in place. A change that alters outputs on
//! purpose, such as a simulator recalibration (ROADMAP direction 2),
//! regenerates them: the failure message prints the whole table in the
//! form [`PINNED`] takes.

use blockdec::core::delta::MetricDeltaStream;
use blockdec::core::engine::{run_matrix_columns, WindowSpec};
use blockdec::core::series::MeasurementSeries;
use blockdec::prelude::*;
use blockdec_chain::time::SECS_PER_DAY;
use blockdec_chain::BlockColumns;

/// `(chain/mode/spec, digest)` in the order the test computes them.
const PINNED: &[(&str, u64)] = &[
    ("bitcoin/per-address/fixed/day", 0x5046f06eeeb65129),
    ("bitcoin/per-address/fixed/week", 0x9be08b75ac4ba8f2),
    ("bitcoin/per-address/fixed/month", 0x36c1a6b37a0850d6),
    ("bitcoin/per-address/sliding/144/72", 0x4582648960469039),
    (
        "bitcoin/per-address/sliding-time/86400/43200",
        0xfc974a057bbe2cd9,
    ),
    ("ethereum/per-address/fixed/day", 0xabe92d1a9646bf5d),
    ("ethereum/per-address/fixed/week", 0x91fc322781772211),
    ("ethereum/per-address/fixed/month", 0x91fc322781772211),
    ("ethereum/per-address/sliding/6000/3000", 0xf7951a9468ec491e),
    (
        "ethereum/per-address/sliding-time/86400/43200",
        0x1143e3de01d5d3ce,
    ),
    ("bitcoin/fractional/fixed/day", 0xf58ade9b4b40fcab),
    ("bitcoin/fractional/fixed/week", 0x347e0fcacf7249a8),
    ("bitcoin/fractional/fixed/month", 0xd238356c7e750290),
    ("bitcoin/fractional/sliding/144/72", 0x02956cffec20d86f),
    (
        "bitcoin/fractional/sliding-time/86400/43200",
        0xe5615ab4d510b4ab,
    ),
    ("bitcoin/fractional/delta/fixed/day", 0xf58ade9b4b40fcab),
    (
        "bitcoin/fractional/delta/sliding/144/72",
        0x02956cffec20d86f,
    ),
    ("ethereum/fractional/fixed/day", 0xabe92d1a9646bf5d),
    ("ethereum/fractional/fixed/week", 0x91fc322781772211),
    ("ethereum/fractional/fixed/month", 0x91fc322781772211),
    ("ethereum/fractional/sliding/6000/3000", 0xf7951a9468ec491e),
    (
        "ethereum/fractional/sliding-time/86400/43200",
        0x1143e3de01d5d3ce,
    ),
    ("ethereum/fractional/delta/fixed/day", 0xabe92d1a9646bf5d),
    (
        "ethereum/fractional/delta/sliding/6000/3000",
        0xf7951a9468ec491e,
    ),
];

/// FNV-1a, 64-bit.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One digest over the CSVs of `series`, in order.
fn digest<'a>(series: impl IntoIterator<Item = &'a MeasurementSeries>) -> u64 {
    series
        .into_iter()
        .fold(FNV_OFFSET, |h, s| fnv1a64(h, s.to_csv().as_bytes()))
}

/// The paper matrix for one chain: per metric, day, week and month
/// calendar windows, block-count sliding `size`/`size / 2` and day-long
/// time windows stepping half a day.
fn paper_matrix(size: usize) -> Vec<MeasurementEngine> {
    let origin = Timestamp::year_2019_start();
    MetricKind::PAPER
        .iter()
        .flat_map(|&metric| {
            let engine = MeasurementEngine::new(metric);
            [
                engine.fixed_calendar(Granularity::Day, origin),
                engine.fixed_calendar(Granularity::Week, origin),
                engine.fixed_calendar(Granularity::Month, origin),
                engine.sliding(size, size / 2),
                engine.sliding_time(SECS_PER_DAY, SECS_PER_DAY / 2),
            ]
        })
        .collect()
}

/// The configs' distinct window specs, in first-appearance order, each
/// with the indices of its configs.
fn by_spec(configs: &[MeasurementEngine]) -> Vec<(WindowSpec, Vec<usize>)> {
    let mut specs: Vec<(WindowSpec, Vec<usize>)> = Vec::new();
    for (i, cfg) in configs.iter().enumerate() {
        match specs.iter_mut().find(|(w, _)| *w == cfg.window()) {
            Some((_, members)) => members.push(i),
            None => specs.push((cfg.window(), vec![i])),
        }
    }
    specs
}

fn delta_stream(cfg: &MeasurementEngine) -> Option<MetricDeltaStream> {
    match cfg.window() {
        WindowSpec::FixedCalendar {
            granularity: Granularity::Day,
            origin,
        } => Some(MetricDeltaStream::fixed(
            cfg.metric(),
            Granularity::Day,
            origin,
        )),
        WindowSpec::SlidingBlocks(spec) => Some(MetricDeltaStream::sliding(cfg.metric(), spec)),
        _ => None,
    }
}

/// Every digest of one chain under one attribution mode.
fn chain_digests(
    chain: &str,
    scenario: Scenario,
    sliding: usize,
    mode: AttributionMode,
    out: &mut Vec<(String, u64)>,
) {
    let mut scenario = scenario.with_seed(7919);
    scenario.attribution = mode;
    let stream = scenario.generate();
    let cols = BlockColumns::from_blocks(&stream.attributed);
    let configs = paper_matrix(sliding);
    let (series, mode_label): (Vec<MeasurementSeries>, &str) = match mode {
        AttributionMode::Fractional => (
            configs
                .iter()
                .map(|cfg| cfg.run_columns(cols.as_slice()))
                .collect(),
            "fractional",
        ),
        _ => (run_matrix_columns(cols.as_slice(), &configs), "per-address"),
    };
    for (spec, members) in by_spec(&configs) {
        let key = format!("{chain}/{mode_label}/{}", spec.label().label());
        out.push((key, digest(members.iter().map(|&i| &series[i]))));
    }
    if mode != AttributionMode::Fractional {
        return;
    }
    for (spec, members) in by_spec(&configs) {
        let streamed: Option<Vec<MeasurementSeries>> = members
            .iter()
            .map(|&i| {
                let mut s = delta_stream(&configs[i])?;
                for b in &stream.attributed {
                    s.push_block(b).expect("delta push");
                }
                Some(MeasurementSeries {
                    metric: s.metric(),
                    window: s.label(),
                    points: s.into_points(),
                })
            })
            .collect();
        if let Some(streamed) = streamed {
            let key = format!("{chain}/{mode_label}/delta/{}", spec.label().label());
            out.push((key, digest(&streamed)));
        }
    }
}

#[test]
fn measured_series_match_their_pinned_digests() {
    let mut got = Vec::new();
    for mode in [AttributionMode::PerAddress, AttributionMode::Fractional] {
        chain_digests(
            "bitcoin",
            Scenario::bitcoin_2019().truncated(30),
            144,
            mode,
            &mut got,
        );
        chain_digests(
            "ethereum",
            Scenario::ethereum_2019().truncated(7),
            6000,
            mode,
            &mut got,
        );
    }
    let table: String = got
        .iter()
        .map(|(key, d)| format!("    ({key:?}, {d:#018x}),\n"))
        .collect();
    let keys: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, pinned, "digest keys changed; computed:\n{table}");
    if let Some(((key, d), (_, want))) = got.iter().zip(PINNED).find(|((_, d), (_, w))| d != w) {
        panic!("first moved digest: {key} is {d:#018x}, pinned {want:#018x}; computed:\n{table}");
    }
}

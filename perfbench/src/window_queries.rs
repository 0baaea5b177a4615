//! `window-queries`: an analyst's drill-down into the paper's window
//! tables and the Fig. 7 producer shares. Every op takes the next group
//! of a seeded pool: a 1-, a 3- and a 7-day window at random starts. For
//! each window it computes, on one long-lived store handle, the three
//! paper metrics by day through a pruned columnar scan plus the matrix
//! planner, then parses and executes `top 10 producers where time
//! between …` and `count where time between …`. The store outgrows the 8-slot
//! decoded-segment cache but fits the 64 MiB page cache, so pruning,
//! both caches and the row path do the work and the planner does little.

use crate::common::{self, closed_loop, Phase, Sampler, Setup, Stopwatch, WorkDir, Workload};
use crate::trace::{Tracer, OP};
use blockdec_chain::time::SECS_PER_DAY;
use blockdec_chain::{
    AttributedBlock, BlockColumns, Granularity, ProducerId, ProducerRegistry, Timestamp,
};
use blockdec_core::engine::run_matrix_columns;
use blockdec_core::{MeasurementEngine, MeasurementSeries, MetricKind};
use blockdec_query::{parse_query, Filter, MeasurementSource, QueryOutput};
use blockdec_sim::{GeneratedStream, Scenario};
use blockdec_store::row::weight_to_millis;
use blockdec_store::{BlockStore, RowRecord};
use std::collections::BTreeMap;

/// 120 days of Ethereum: 11 segments, ~717k blocks. At 60 days (6
/// segments) the decoded-segment cache would hold the whole store.
const DAYS: u32 = 120;

/// Window lengths in days; every op queries one window of each, so that
/// op latency has one mode, not one per length.
const WINDOW_DAYS: [i64; 3] = [1, 3, 7];

/// Distinct ops per run; the ops cycle through them. The starts of each
/// window length are spread evenly over the store, one at a random point
/// in each of this many equal strata, so that every seed straddles
/// segment boundaries about equally often.
const GROUPS: usize = 120;

/// Producers the top-k query keeps.
const TOP_K: usize = 10;

/// Untimed ops before timing, so that both caches reach their steady
/// state.
const WARM_UP_SECS: f64 = 1.0;

/// Everything one op computes, compared whole against the reference.
#[derive(PartialEq)]
struct Answer {
    metrics: Vec<MeasurementSeries>,
    top: QueryOutput,
    count: QueryOutput,
}

/// One window, its two queries and its reference answer.
struct Window {
    lo: i64,
    hi: i64,
    top_query: String,
    count_query: String,
    expected: Answer,
}

struct WindowQueries {
    work: WorkDir,
    scenario: Scenario,
    store: BlockStore,
    configs: Vec<MeasurementEngine>,
    groups: Vec<Vec<Window>>,
    next: usize,
}

pub fn prepare(seed: u64) -> Result<(Setup, Box<dyn Workload>), String> {
    let work = WorkDir::new("window-queries")?;
    let scenario = common::ethereum(DAYS, seed);
    let origin = scenario.start_time;
    let store_dir = work.join("store");
    let mut setup = Setup::default();
    let stream = common::simulate_and_load(&scenario, &store_dir, &mut setup)?;
    let mut store = BlockStore::open(&store_dir).map_err(|e| e.to_string())?;
    common::configure(&mut store);
    let configs: Vec<MeasurementEngine> = MetricKind::PAPER
        .iter()
        .map(|&m| MeasurementEngine::new(m).fixed_calendar(Granularity::Day, Timestamp(origin)))
        .collect();
    // Reference answers from the generated chain, outside set-up.
    let chain = InMemory::new(&stream, store.registry());
    let mut sampler = Sampler::new(seed);
    let starts: Vec<Vec<i64>> = WINDOW_DAYS
        .iter()
        .map(|&days| {
            let room = (i64::from(DAYS) - days) as u64 * SECS_PER_DAY as u64;
            let mut starts: Vec<i64> = (0..GROUPS as u64)
                .map(|g| origin + ((g * room + sampler.below(room)) / GROUPS as u64) as i64)
                .collect();
            sampler.shuffle(&mut starts);
            starts
        })
        .collect();
    let groups = (0..GROUPS)
        .map(|g| {
            WINDOW_DAYS
                .iter()
                .zip(&starts)
                .map(|(&days, starts)| {
                    let lo = starts[g];
                    chain.window(lo, lo + days * SECS_PER_DAY - 1, &configs)
                })
                .collect()
        })
        .collect();
    drop(chain);
    let workload = WindowQueries {
        work,
        scenario,
        store,
        configs,
        groups,
        next: 0,
    };
    Ok((setup, Box::new(workload)))
}

/// A credit weight as the store keeps it (whole thousandths) and reads
/// it back.
fn stored_credit(weight: f64) -> f64 {
    RowRecord {
        height: 0,
        timestamp: 0,
        producer: 0,
        credit_millis: weight_to_millis(weight),
        tx_count: 0,
        size_bytes: 0,
        difficulty: 0,
    }
    .credit()
}

/// The generated chain, indexed to answer a time window without the
/// store.
struct InMemory<'a> {
    blocks: &'a [AttributedBlock],
    /// Running maximum of block timestamps: every block before the first
    /// index where it reaches `lo` is earlier than `lo`.
    prefix_max: Vec<i64>,
    /// Running minimum from the end: every block from the first index
    /// where it passes `hi` on is later than `hi`.
    suffix_min: Vec<i64>,
    /// The store's dictionary id of each generated producer id.
    store_ids: Vec<u32>,
    store_names: &'a ProducerRegistry,
}

impl<'a> InMemory<'a> {
    fn new(stream: &'a GeneratedStream, store_names: &'a ProducerRegistry) -> InMemory<'a> {
        let blocks = &stream.attributed[..];
        let prefix_max = blocks
            .iter()
            .scan(i64::MIN, |max, b| {
                *max = (*max).max(b.timestamp.secs());
                Some(*max)
            })
            .collect();
        let mut suffix_min: Vec<i64> = blocks
            .iter()
            .rev()
            .scan(i64::MAX, |min, b| {
                *min = (*min).min(b.timestamp.secs());
                Some(*min)
            })
            .collect();
        suffix_min.reverse();
        let store_ids = (0..stream.registry.len())
            .map(|i| {
                stream
                    .registry
                    .name(ProducerId(i as u32))
                    .and_then(|name| store_names.get(name))
                    .map_or(u32::MAX, |id| id.0)
            })
            .collect();
        InMemory {
            blocks,
            prefix_max,
            suffix_min,
            store_ids,
            store_names,
        }
    }

    /// The store's answers for the window `[lo, hi]`, computed from
    /// memory the way the store computes them: blocks in height order,
    /// credits as stored under store ids, per-producer sums in id order.
    fn window(&self, lo: i64, hi: i64, configs: &[MeasurementEngine]) -> Window {
        let first = self.prefix_max.partition_point(|&t| t < lo);
        let end = self.suffix_min.partition_point(|&t| t <= hi).max(first);
        let mut columns = BlockColumns::new();
        let mut credit: BTreeMap<u32, f64> = BTreeMap::new();
        for b in &self.blocks[first..end] {
            if !(lo..=hi).contains(&b.timestamp.secs()) || b.credits.is_empty() {
                continue;
            }
            columns.push_block(b.height, b.timestamp);
            for c in &b.credits {
                let id = self.store_ids[c.producer.index()];
                let weight = stored_credit(c.weight);
                columns.push_credit(ProducerId(id), weight);
                *credit.entry(id).or_insert(0.0) += weight;
            }
        }
        let metrics = run_matrix_columns(columns.as_slice(), configs);
        let total: f64 = credit.values().sum();
        let mut ranked: Vec<(u32, f64)> = credit.into_iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(TOP_K);
        let top = QueryOutput {
            columns: vec!["producer".into(), "blocks".into(), "share".into()],
            rows: ranked
                .iter()
                .map(|&(id, blocks)| {
                    let share = if total > 0.0 { blocks / total } else { 0.0 };
                    vec![
                        self.store_names
                            .name(ProducerId(id))
                            .unwrap_or("<unknown>")
                            .to_string(),
                        format!("{blocks}"),
                        format!("{share:.6}"),
                    ]
                })
                .collect(),
        };
        let count = QueryOutput {
            columns: vec!["blocks".into()],
            rows: vec![vec![format!("{total}")]],
        };
        Window {
            lo,
            hi,
            top_query: format!("top {TOP_K} producers where time between {lo} and {hi}"),
            count_query: format!("count where time between {lo} and {hi}"),
            expected: Answer {
                metrics,
                top,
                count,
            },
        }
    }
}

impl WindowQueries {
    fn run_window(&self, window: &Window, tracer: &mut Tracer) -> Result<(Answer, usize), String> {
        tracer.begin("store.window_scan");
        let columns = self
            .store
            .block_columns(&Filter::TimeBetween(window.lo, window.hi));
        tracer.end();
        let columns = columns.map_err(|e| e.to_string())?;
        tracer.begin("core.matrix");
        let metrics = run_matrix_columns(columns.as_slice(), &self.configs);
        tracer.end();
        let top = self.query(&window.top_query, tracer)?;
        let count = self.query(&window.count_query, tracer)?;
        let answer = Answer {
            metrics,
            top,
            count,
        };
        Ok((answer, columns.resident_bytes()))
    }

    fn query(&self, text: &str, tracer: &mut Tracer) -> Result<QueryOutput, String> {
        tracer.begin("query.parse");
        let plan = parse_query(text, self.store.registry());
        tracer.end();
        let plan = plan?;
        tracer.begin("query.execute");
        let output = plan.execute(&self.store);
        tracer.end();
        output.map_err(|e| e.to_string())
    }
}

impl Workload for WindowQueries {
    fn warm_up(&mut self) -> Phase {
        self.phase(WARM_UP_SECS, &mut Tracer::off())
    }

    fn phase(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let mut next = self.next;
        let mut columns_bytes = 0.0;
        let this = &*self;
        let mut phase = closed_loop(seconds, tracer.enabled(), || {
            let group = &this.groups[next % this.groups.len()];
            next += 1;
            let stopwatch = Stopwatch::start();
            tracer.begin(OP);
            let answers: Vec<_> = group.iter().map(|w| this.run_window(w, tracer)).collect();
            tracer.end();
            let took = stopwatch.stop();
            let mut correct = true;
            for (window, answer) in group.iter().zip(answers) {
                correct &= match answer {
                    Ok((answer, bytes)) => {
                        columns_bytes += bytes as f64;
                        answer == window.expected
                    }
                    Err(e) => {
                        eprintln!("window-queries: op failed: {e}");
                        false
                    }
                };
            }
            (took, correct)
        });
        self.next = next;
        phase.columns_bytes = columns_bytes;
        phase
    }

    fn set_up_again(&self, setup: &mut Setup) -> Result<(), String> {
        common::simulate_and_load_again(&self.scenario, &self.work, setup)
    }
}

//! `measure`: the paper's own job, as `blockdec measure` and `compare`
//! run it. One op opens the store, decodes every column
//! (`Filter::True`), runs the 15-config paper matrix (5 window specs)
//! and renders every series as CSV. Nothing is pruned, no cache outlives
//! an op (each opens a fresh handle) and nothing is written, so the
//! planner and the full decode do the work.

use crate::common::{self, closed_loop, Phase, Setup, Stopwatch, WorkDir, Workload};
use crate::trace::{Tracer, OP};
use blockdec_chain::time::SECS_PER_DAY;
use blockdec_chain::{BlockColumns, Granularity, Timestamp};
use blockdec_core::engine::run_matrix_columns;
use blockdec_core::{MeasurementEngine, MeasurementSeries, MetricKind};
use blockdec_query::{Filter, MeasurementSource};
use blockdec_sim::Scenario;
use blockdec_store::BlockStore;
use std::path::PathBuf;

/// 60 days of Ethereum: 6 segments, ~359k blocks.
const DAYS: u32 = 60;

/// Ethereum's block-count sliding window (~21.7 hours), stepped by half.
const SLIDING_BLOCKS: usize = 6000;

struct Measure {
    work: WorkDir,
    scenario: Scenario,
    store_dir: PathBuf,
    configs: Vec<MeasurementEngine>,
    reference: Vec<MeasurementSeries>,
    reference_csv: Vec<String>,
}

/// What one op hands back for checking.
struct Output {
    series: Vec<MeasurementSeries>,
    csv: Vec<String>,
    columns_bytes: usize,
}

pub fn prepare(seed: u64) -> Result<(Setup, Box<dyn Workload>), String> {
    let work = WorkDir::new("measure")?;
    let scenario = common::ethereum(DAYS, seed);
    let store_dir = work.join("store");
    let mut setup = Setup::default();
    let stream = common::simulate_and_load(&scenario, &store_dir, &mut setup)?;
    let configs = paper_matrix(Timestamp(scenario.start_time));
    // The reference, outside set-up: the same matrix over the generated
    // in-memory columns. The generated chain is freed on return, before
    // the timed phase resets the peak-RSS mark.
    let columns = BlockColumns::from_blocks(&stream.attributed);
    let reference = run_matrix_columns(columns.as_slice(), &configs);
    let reference_csv = reference.iter().map(MeasurementSeries::to_csv).collect();
    let workload = Measure {
        work,
        scenario,
        store_dir,
        configs,
        reference,
        reference_csv,
    };
    Ok((setup, Box::new(workload)))
}

/// The paper's matrix: each paper metric over day, week and month
/// calendar windows, block-count sliding windows and day-long time
/// windows, both sliding kinds stepped by half a window.
fn paper_matrix(origin: Timestamp) -> Vec<MeasurementEngine> {
    MetricKind::PAPER
        .iter()
        .flat_map(|&metric| {
            [
                MeasurementEngine::new(metric).fixed_calendar(Granularity::Day, origin),
                MeasurementEngine::new(metric).fixed_calendar(Granularity::Week, origin),
                MeasurementEngine::new(metric).fixed_calendar(Granularity::Month, origin),
                MeasurementEngine::new(metric).sliding(SLIDING_BLOCKS, SLIDING_BLOCKS / 2),
                MeasurementEngine::new(metric).sliding_time(SECS_PER_DAY, SECS_PER_DAY / 2),
            ]
        })
        .collect()
}

impl Measure {
    fn run_op(&self, tracer: &mut Tracer) -> Result<Output, String> {
        tracer.begin("store.open");
        let store = BlockStore::open(&self.store_dir);
        tracer.end();
        let mut store = store.map_err(|e| e.to_string())?;
        common::configure(&mut store);
        tracer.begin("store.scan");
        let columns = store.block_columns(&Filter::True);
        tracer.end();
        let columns = columns.map_err(|e| e.to_string())?;
        tracer.begin("core.matrix");
        let series = run_matrix_columns(columns.as_slice(), &self.configs);
        tracer.end();
        tracer.begin("output.csv");
        let csv = series.iter().map(MeasurementSeries::to_csv).collect();
        tracer.end();
        Ok(Output {
            series,
            csv,
            columns_bytes: columns.resident_bytes(),
        })
    }
}

impl Workload for Measure {
    fn warm_up(&mut self) -> Phase {
        self.phase(0.0, &mut Tracer::off())
    }

    fn phase(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let mut columns_bytes = 0.0;
        let mut phase = closed_loop(seconds, tracer.enabled(), || {
            let stopwatch = Stopwatch::start();
            tracer.begin(OP);
            let output = self.run_op(tracer);
            tracer.end();
            let took = stopwatch.stop();
            let correct = match output {
                Ok(out) => {
                    columns_bytes += out.columns_bytes as f64;
                    out.series == self.reference && out.csv == self.reference_csv
                }
                Err(e) => {
                    eprintln!("measure: op failed: {e}");
                    false
                }
            };
            (took, correct)
        });
        phase.columns_bytes = columns_bytes;
        phase
    }

    fn set_up_again(&self, setup: &mut Setup) -> Result<(), String> {
        common::simulate_and_load_again(&self.scenario, &self.work, setup)
    }
}

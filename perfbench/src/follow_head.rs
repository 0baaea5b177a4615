//! `follow-head`: catch-up replay of a forking Ethereum head feed. Each
//! pass drives the whole feed through a `ChainView` into a fresh store,
//! with six `MetricDeltaStream`s: the paper metrics over `fixed:day` and
//! `sliding:6000:3000`. One op is a batch of consecutive head events,
//! each `apply`, then drain `take_finalized` into the streams. The store
//! is written and never read, and the incremental core stands in for
//! the planner.

use crate::common::{self, Phase, Setup, Stopwatch, Took, WorkDir, Workload};
use crate::stats::Snapshot;
use crate::trace::{Tracer, OP};
use blockdec_chain::{
    AttributedBlock, AttributionMode, Block, BlockColumns, ChainKind, Granularity, Timestamp,
};
use blockdec_core::engine::run_matrix_columns;
use blockdec_core::windows::SlidingWindowSpec;
use blockdec_core::{MeasurementEngine, MeasurementPoint, MetricDeltaStream, MetricKind};
use blockdec_ingest::ChainView;
use blockdec_sim::{FeedConfig, Scenario};
use blockdec_store::{BlockStore, ScanPredicate};
use std::path::Path;
use std::time::Instant;

/// Days of head events per pass: ~373k events, six sealed segments.
const DAYS: u32 = 60;

/// Head events per op. A single event takes a few microseconds, too
/// short to time steadily; a batch takes a few milliseconds.
const BATCH_EVENTS: usize = 1000;

/// Finality depth; the default feed's forks (at most 3 deep) stay
/// above it.
const FINALITY: usize = 6;

/// Ethereum's block-count sliding window, stepped by half a window.
const SLIDING_BLOCKS: usize = 6000;

struct FollowHead {
    work: WorkDir,
    scenario: Scenario,
    config: FeedConfig,
    feed: Vec<Block>,
    chain: ChainKind,
    attribution: AttributionMode,
    origin: Timestamp,
    /// The batch-generated chain and its producer names, which every
    /// pass's store must equal.
    reference: BlockColumns,
    reference_names: Vec<String>,
    /// The batch engine's points, in [`delta_streams`] order.
    reference_points: Vec<Vec<MeasurementPoint>>,
}

/// What a pass leaves: the view over its store, each stream's points,
/// and the windows its pushes completed.
type Replayed = (ChainView, Vec<Vec<MeasurementPoint>>, u64);

pub fn prepare(seed: u64) -> Result<(Setup, Box<dyn Workload>), String> {
    let work = WorkDir::new("follow-head")?;
    let scenario = common::ethereum(DAYS, seed);
    let config = FeedConfig {
        seed,
        ..FeedConfig::default()
    };
    let mut setup = Setup::default();
    let feed = generate_feed(&scenario, config, &mut setup);
    // The batch reference, outside set-up: the same chain generated and
    // measured in one shot, as `run_follow_bench` checks a follow.
    let origin = Timestamp(scenario.start_time);
    let batch = scenario.generate();
    let reference = BlockColumns::from_blocks(&batch.attributed);
    let reference_points = run_matrix_columns(reference.as_slice(), &batch_configs(origin))
        .into_iter()
        .map(|series| series.points)
        .collect();
    let workload = FollowHead {
        work,
        chain: scenario.chain,
        attribution: scenario.attribution,
        scenario,
        config,
        feed,
        origin,
        reference,
        reference_names: batch.registry.to_name_list(),
        reference_points,
    };
    Ok((setup, Box::new(workload)))
}

/// The head feed, with its generation time going to `setup`.
fn generate_feed(scenario: &Scenario, config: FeedConfig, setup: &mut Setup) -> Vec<Block> {
    let stopwatch = Stopwatch::start();
    let feed = scenario.stream_events(config).collect();
    let took = stopwatch.stop();
    setup.feed_s.push(took.cpu_s);
    setup.push(took);
    feed
}

/// The batch configurations the delta streams must match, in the same
/// order as [`delta_streams`].
fn batch_configs(origin: Timestamp) -> Vec<MeasurementEngine> {
    MetricKind::PAPER
        .iter()
        .flat_map(|&metric| {
            [
                MeasurementEngine::new(metric).fixed_calendar(Granularity::Day, origin),
                MeasurementEngine::new(metric).sliding(SLIDING_BLOCKS, SLIDING_BLOCKS / 2),
            ]
        })
        .collect()
}

fn delta_streams(origin: Timestamp) -> Vec<MetricDeltaStream> {
    let sliding = SlidingWindowSpec::new(SLIDING_BLOCKS, SLIDING_BLOCKS / 2);
    MetricKind::PAPER
        .iter()
        .flat_map(|&metric| {
            [
                MetricDeltaStream::fixed(metric, Granularity::Day, origin),
                MetricDeltaStream::sliding(metric, sliding),
            ]
        })
        .collect()
}

/// Push finalized blocks through every stream; returns the windows the
/// pushes completed.
fn push(streams: &mut [MetricDeltaStream], blocks: &[AttributedBlock]) -> Result<u64, String> {
    let mut completed = 0;
    for block in blocks {
        for stream in streams.iter_mut() {
            completed += stream.push_block(block).map_err(|e| e.to_string())? as u64;
        }
    }
    Ok(completed)
}

/// Apply one batch of head events and push what they finalize.
fn apply_batch(
    view: &mut ChainView,
    streams: &mut [MetricDeltaStream],
    batch: &[Block],
    tracer: &mut Tracer,
) -> Result<u64, String> {
    let mut windows = 0;
    for block in batch {
        tracer.begin("ingest.apply");
        let applied = view.apply(block);
        tracer.end();
        applied.map_err(|e| e.to_string())?;
        tracer.begin("core.delta_push");
        let pushed = push(streams, &view.take_finalized());
        tracer.end();
        windows += pushed?;
    }
    Ok(windows)
}

impl FollowHead {
    /// Replay the whole feed into a fresh store at `dir`; each batch's
    /// time goes to `took_all`.
    fn replay(
        &self,
        dir: &Path,
        tracer: &mut Tracer,
        took_all: &mut Vec<Took>,
    ) -> Result<Replayed, String> {
        tracer.begin("store.create");
        let store = BlockStore::create(dir);
        tracer.end();
        let mut store = store.map_err(|e| e.to_string())?;
        common::configure(&mut store);
        let mut view = ChainView::new(store, self.chain, self.attribution, FINALITY);
        let mut streams = delta_streams(self.origin);
        let mut windows = 0;
        for batch in self.feed.chunks(BATCH_EVENTS) {
            let stopwatch = Stopwatch::start();
            tracer.begin(OP);
            let applied = apply_batch(&mut view, &mut streams, batch, tracer);
            tracer.end();
            took_all.push(stopwatch.stop());
            windows += applied?;
        }
        tracer.begin("ingest.finalize");
        let pushed = view
            .finalize_all()
            .map_err(|e| e.to_string())
            .and_then(|_| push(&mut streams, &view.take_finalized()));
        tracer.end();
        windows += pushed?;
        tracer.begin("core.delta_finish");
        let points = streams
            .into_iter()
            .map(MetricDeltaStream::into_points)
            .collect();
        tracer.end();
        Ok((view, points, windows))
    }

    /// Whether a pass left the batch chain in its store and the batch
    /// series in its streams.
    fn check(&self, replayed: Result<Replayed, String>) -> bool {
        match replayed {
            Ok((view, points, _)) => {
                let store = view.store();
                let columns = store.scan_columnar(&ScanPredicate::all());
                matches!(&columns, Ok(c) if *c == self.reference)
                    && store.registry().to_name_list() == self.reference_names
                    && points == self.reference_points
            }
            Err(e) => {
                eprintln!("follow-head: pass failed: {e}");
                false
            }
        }
    }
}

impl Workload for FollowHead {
    fn warm_up(&mut self) -> Phase {
        self.phase(0.0, &mut Tracer::off())
    }

    fn phase(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let start = Instant::now();
        let dir = self.work.join("pass");
        let batches = self.feed.len().div_ceil(BATCH_EVENTS) as u64;
        let mut phase = Phase::default();
        let mut took_all = Vec::new();
        while phase.units == 0 || start.elapsed().as_secs_f64() < seconds {
            let _ = std::fs::remove_dir_all(&dir);
            let before = tracer.enabled().then(Snapshot::take);
            let stopwatch = Stopwatch::start();
            let replayed = self.replay(&dir, tracer, &mut took_all);
            let took = stopwatch.stop();
            phase.busy.wall_s += took.wall_s;
            phase.busy.cpu_s += took.cpu_s;
            if let Some(before) = before {
                phase.deltas.add(&before, &Snapshot::take());
            }
            if let Ok((_, _, windows)) = &replayed {
                phase.delta_windows += windows;
            }
            phase.units += 1;
            phase.attempted += batches;
            if !self.check(replayed) {
                phase.failed += batches;
            }
        }
        phase.set_latencies(&took_all);
        phase
    }

    fn set_up_again(&self, setup: &mut Setup) -> Result<(), String> {
        generate_feed(&self.scenario, self.config, setup);
        Ok(())
    }
}

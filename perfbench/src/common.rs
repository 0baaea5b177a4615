//! What the workloads share: command-line arguments, the scratch
//! directory, the seeded sampler, store settings, simulated set-up, and
//! the closed loop that times ops.

use crate::stats::{percentile, process_cpu_s, ratio, CounterDeltas, Snapshot};
use crate::trace::Tracer;
use blockdec_chain::hash::splitmix64;
use blockdec_sim::{GeneratedStream, Scenario};
use blockdec_store::BlockStore;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Columnar decode workers for every store the benchmark opens. One
/// worker keeps decode time from depending on what the host's other
/// cores are doing. The matrix planner has no such setter and keeps its
/// default, one worker per available CPU.
pub const DECODE_THREADS: usize = 1;

/// Decoded segments and page-cache bytes every store keeps: the
/// library's defaults, fixed here because the environment can change
/// the defaults.
pub const CACHE_SEGMENTS: usize = 8;
pub const PAGE_CACHE_BYTES: usize = 64 << 20;

/// Set-ups per run; `setup_s` is their median. The first prepares the
/// workload, the rest run after the timed phase so that they cannot
/// touch its memory or its caches.
pub const SETUP_REPEATS: usize = 5;

/// Parent of the per-run scratch directories, in the working directory.
const WORK_ROOT: &str = ".bench_work";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("--seed {value}: {e}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|e| format!("--seconds {value}: {e}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(20.0);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// A scratch directory for one run's stores, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails, harmlessly, while another run still uses the parent.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// The benchmark's own seeded choices, such as which windows to query.
pub struct Sampler(u64);

impl Sampler {
    pub fn new(seed: u64) -> Sampler {
        Sampler(seed)
    }

    /// A draw from `0..n`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0) % n
    }

    /// Put `items` in a random order (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The calibrated Ethereum 2019 scenario, cut to `days`, under `seed`.
pub fn ethereum(days: u32, seed: u64) -> Scenario {
    Scenario::ethereum_2019().truncated(days).with_seed(seed)
}

/// Wall and CPU time of one piece of work, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Took {
    pub wall_s: f64,
    /// CPU time of all the process's threads.
    pub cpu_s: f64,
}

/// A wall clock and a process CPU clock, started together.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu_s: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    pub fn stop(&self) -> Took {
        let wall_s = self.wall.elapsed().as_secs_f64();
        Took {
            wall_s,
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

/// Set-up timings in seconds, one entry per set-up of the run. CPU
/// time, except `wall_s`.
#[derive(Debug, Default)]
pub struct Setup {
    /// What `setup_s` reports the median of.
    pub total_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub feed_s: Vec<f64>,
}

impl Setup {
    /// Record one whole set-up.
    pub fn push(&mut self, took: Took) {
        self.total_s.push(took.cpu_s);
        self.wall_s.push(took.wall_s);
    }
}

/// Give a store the benchmark's fixed settings, so that neither the
/// host's core count nor the cache variables in the environment change
/// what a workload measures.
pub fn configure(store: &mut BlockStore) {
    store.set_scan_threads(DECODE_THREADS);
    store.set_cache_segments(CACHE_SEGMENTS);
    store.set_page_cache_bytes(PAGE_CACHE_BYTES);
}

/// Simulate the scenario and load it into a fresh store at `dir`, as
/// `blockdec load` does; the timings go to `setup`.
pub fn simulate_and_load(
    scenario: &Scenario,
    dir: &Path,
    setup: &mut Setup,
) -> Result<GeneratedStream, String> {
    let whole = Stopwatch::start();
    let stream = scenario.generate();
    let generated = whole.stop();
    let mut store = BlockStore::create(dir).map_err(|e| e.to_string())?;
    store
        .append_attributed(&stream.attributed, &stream.registry)
        .and_then(|()| store.flush())
        .map_err(|e| e.to_string())?;
    let took = whole.stop();
    setup.generate_s.push(generated.cpu_s);
    setup.load_s.push(took.cpu_s - generated.cpu_s);
    setup.push(took);
    Ok(stream)
}

/// [`simulate_and_load`] once more into a scratch store, which is then
/// removed; only the timings are kept.
pub fn simulate_and_load_again(
    scenario: &Scenario,
    work: &WorkDir,
    setup: &mut Setup,
) -> Result<(), String> {
    let dir = work.join("again");
    let _ = std::fs::remove_dir_all(&dir);
    simulate_and_load(scenario, &dir, setup)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

/// One timed phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops run; every one is checked.
    pub attempted: u64,
    /// Ops whose output differed from the reference or that failed.
    pub failed: u64,
    /// Time spent in ops (on follow-head also in each pass's store
    /// creation and finalization); checks are left out.
    pub busy: Took,
    /// Op latency percentiles, in wall time and in CPU time.
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub cpu_p50_ms: f64,
    pub cpu_p90_ms: f64,
    /// What per-op counts are divided by: ops, or passes on follow-head.
    pub units: u64,
    /// Counter increments over the ops (traced phases only).
    pub deltas: CounterDeltas,
    /// Resident bytes of the columns the ops' scans returned, summed.
    pub columns_bytes: f64,
    /// Windows the delta streams completed.
    pub delta_windows: u64,
}

impl Phase {
    /// Ops per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.attempted as f64, self.busy.wall_s)
    }

    /// Ops per second of CPU time.
    pub fn ops_per_cpu_s(&self) -> f64 {
        ratio(self.attempted as f64, self.busy.cpu_s)
    }

    /// Take the percentiles from the ops' times, in any order.
    pub fn set_latencies(&mut self, took: &[Took]) {
        let sorted_ms = |time: fn(&Took) -> f64| {
            let mut ms: Vec<f64> = took.iter().map(|t| time(t) * 1e3).collect();
            ms.sort_by(f64::total_cmp);
            let at = |q| percentile(&ms, q).unwrap_or(0.0);
            (at(0.5), at(0.9))
        };
        (self.p50_ms, self.p90_ms) = sorted_ms(|t| t.wall_s);
        (self.cpu_p50_ms, self.cpu_p90_ms) = sorted_ms(|t| t.cpu_s);
    }
}

/// Run `op` back to back until `seconds` of wall time have passed, at
/// least once. `op` returns the time of its work, its check left out,
/// and whether its output was correct. With `trace` set, counters are
/// read before and after each op.
pub fn closed_loop(seconds: f64, trace: bool, mut op: impl FnMut() -> (Took, bool)) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut took_all = Vec::new();
    while took_all.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let before = trace.then(Snapshot::take);
        let (took, correct) = op();
        if let Some(before) = before {
            phase.deltas.add(&before, &Snapshot::take());
        }
        took_all.push(took);
        phase.busy.wall_s += took.wall_s;
        phase.busy.cpu_s += took.cpu_s;
        phase.failed += u64::from(!correct);
    }
    phase.attempted = took_all.len() as u64;
    phase.units = phase.attempted;
    phase.set_latencies(&took_all);
    phase
}

/// A prepared workload.
pub trait Workload {
    /// Untimed ops that fill caches and finish lazy set-up.
    fn warm_up(&mut self) -> Phase;
    /// Ops back to back for `seconds`, with spans going to `tracer`.
    fn phase(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase;
    /// Time the set-up once more into `setup` and throw away what it
    /// builds.
    fn set_up_again(&self, setup: &mut Setup) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_permutation_fixed_by_the_seed() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            Sampler::new(seed).shuffle(&mut v);
            v
        };
        let (a, b) = (shuffled(7), shuffled(8));
        assert_eq!(a, shuffled(7));
        assert_ne!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}

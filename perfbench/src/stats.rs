//! Reporting helpers: percentile selection, counter deltas and their
//! ratios, the peak-memory reading, the host record and the result line.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a `q` share of all samples at or below it.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of `values` in any order: the middle one, or the mean of the
/// middle two for an even count; 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `part / base`, or 0 when the base is 0 (nothing was attempted).
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// The program's counters, and each histogram's count and sum, at one
/// instant.
#[derive(Debug, Default)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, f64)>,
}

impl Snapshot {
    /// Read every counter and histogram the program has registered.
    pub fn take() -> Snapshot {
        Snapshot {
            counters: blockdec_obs::metrics::counter_values(),
            histograms: blockdec_obs::metrics::histogram_snapshots()
                .into_iter()
                .map(|(name, h)| (name, (h.count, h.sum)))
                .collect(),
        }
    }
}

/// Increments summed over before/after snapshot pairs, so that work
/// between the pairs (checks, warm-up) is left out.
#[derive(Debug, Default)]
pub struct CounterDeltas {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, f64)>,
}

impl CounterDeltas {
    /// Add the increments from `before` to `after`. A name missing from
    /// `before` was registered in between and counts from 0; a gauge
    /// that went down adds nothing.
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        for (name, &now) in &after.counters {
            let then = before.counters.get(name).copied().unwrap_or(0);
            *self.counters.entry(name.clone()).or_default() += now.saturating_sub(then);
        }
        for (name, &(count, sum)) in &after.histograms {
            let (count0, sum0) = before.histograms.get(name).copied().unwrap_or((0, 0.0));
            let delta = self.histograms.entry(name.clone()).or_default();
            delta.0 += count.saturating_sub(count0);
            delta.1 += sum - sum0;
        }
    }

    /// Total increment of one counter.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// `hits / (hits + misses)`; 0 when there were neither.
    pub fn hit_ratio(&self, hits: &str, misses: &str) -> f64 {
        let h = self.counter(hits);
        ratio(h, h + self.counter(misses))
    }

    /// Mean of the observations a histogram gained; 0 when it gained none.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histograms.get(name).copied().unwrap_or((0, 0.0));
        ratio(sum, count as f64)
    }
}

/// The `VmHWM` (peak resident set) field of a `/proc/<pid>/status`
/// text, in KiB.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// Hand freed heap back to the kernel, then reset the kernel's peak-RSS
/// mark to the current RSS, so that [`peak_rss_mib`] covers only what
/// runs after this call. Without the trim, heap that set-up and warm-up
/// freed but the allocator kept would stay in the mark.
pub fn reset_peak_rss() -> std::io::Result<()> {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's malloc_trim only returns free pages of its own
    // arenas to the kernel; it takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident set since the process started or the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vmhwm_kib(&status)? as f64 / 1024.0)
}

/// CPU time the process has used, all threads together and exited ones
/// included, in seconds; NaN if the clock cannot be read. Under KVM's
/// steal-time accounting, time the host gave to other guests is not
/// counted, while wall time counts it.
pub fn process_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    /// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Rounds of the CPU calibration loop: a few tens of milliseconds.
const CALIBRATION_ROUNDS: u64 = 20_000_000;

/// Wall time of a fixed integer loop, in ms. A slow or contended host
/// shows here as well as in the workload; a slow program only there.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut z = 0u64;
    for i in 0..CALIBRATION_ROUNDS {
        z = blockdec_chain::hash::splitmix64(z ^ black_box(i));
    }
    black_box(z);
    start.elapsed().as_secs_f64() * 1e3
}

/// The 1-, 5- and 15-minute load averages as the kernel prints them.
fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

/// The host line printed before the result. The planner sizes its
/// workers from the CPU count, so that is its thread count.
pub fn host_json(decode_threads: usize, calibration_ms: &[f64]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let calibration: Vec<String> = calibration_ms.iter().map(|&v| json_number(v)).collect();
    format!(
        "{{\"host\": {{\"nproc\": {cpus}, \"decode_threads\": {decode_threads}, \
         \"planner_threads\": {cpus}, \"load_average\": \"{}\", \"calibration_ms\": [{}]}}}}",
        load_average(),
        calibration.join(", ")
    )
}

/// The result line, the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// JSON has no NaN or infinity; the caller marks such a result incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(counters: &[(&str, u64)], histograms: &[(&str, u64, f64)]) -> Snapshot {
        Snapshot {
            counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            histograms: histograms
                .iter()
                .map(|&(n, c, s)| (n.to_string(), (c, s)))
                .collect(),
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7u64], 0.9), Some(7));
        assert_eq!(percentile::<f64>(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_even_and_no_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_with_a_zero_base_read_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        let mut d = CounterDeltas::default();
        let same = snapshot(&[("hit", 5), ("miss", 5)], &[("write", 2, 0.5)]);
        d.add(&same, &same);
        assert_eq!(d.hit_ratio("hit", "miss"), 0.0);
        assert_eq!(d.hit_ratio("absent.hit", "absent.miss"), 0.0);
        assert_eq!(d.histogram_mean("write"), 0.0);
        assert_eq!(d.histogram_mean("absent"), 0.0);
    }

    #[test]
    fn deltas_sum_over_pairs_and_skip_the_gaps() {
        let mut d = CounterDeltas::default();
        d.add(
            &snapshot(&[("hit", 10), ("gauge", 5)], &[]),
            &snapshot(
                &[("hit", 13), ("miss", 1), ("gauge", 3)],
                &[("write", 1, 0.002)],
            ),
        );
        // hit 13 -> 20 happened between the pairs and is not counted.
        d.add(
            &snapshot(&[("hit", 20), ("miss", 1)], &[("write", 1, 0.002)]),
            &snapshot(&[("hit", 21), ("miss", 2)], &[("write", 3, 0.010)]),
        );
        assert_eq!(d.counter("hit"), 4.0);
        assert_eq!(d.counter("miss"), 2.0);
        assert_eq!(d.counter("gauge"), 0.0);
        assert_eq!(d.hit_ratio("hit", "miss"), 4.0 / 6.0);
        assert!((d.histogram_mean("write") - 0.010 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn process_cpu_time_counts_work_and_not_sleep() {
        let start = process_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = process_cpu_s() - start;
        let start = process_cpu_s();
        black_box(calibration_ms());
        let worked = process_cpu_s() - start;
        assert!(slept < 0.02, "sleeping used {slept} s of CPU");
        assert!(worked > 0.005, "a calibration loop used only {worked} s of CPU");
    }

    #[test]
    fn vmhwm_parses_kib_and_rejects_other_lines() {
        let status = "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t  123456 kB\n\
                      VmRSS:\t  100000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(123_456));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let metric = Metric {
            name: "op_p50_ms",
            unit: "ms",
            value: 1.25,
        };
        assert_eq!(
            result_json(true, 3, 0, &[metric]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}

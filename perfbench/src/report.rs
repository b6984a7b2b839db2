//! Percentiles, the process's memory high-water mark, and the result line.

use std::time::{Duration, Instant};

/// Nearest-rank percentile `p` (0–100) of sorted samples, with the number
/// of samples strictly beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    (sorted[rank - 1], sorted.len() - rank)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 50.0).0
}

/// The per-family statistic of the serve workloads. The machine this was
/// tuned on alternates between a fast and a slow state every few seconds;
/// the median of a run jumps to whichever state held longer, while the
/// lower quartile stays with the fast state and varies less from run to
/// run. (A mean would follow the rare multi-millisecond stalls a served
/// request can meet.)
pub fn lower_quartile(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 25.0).0
}

/// The per-family statistic of the batch workload: the mean of the middle
/// 80% of the samples. Averaging follows the share of the run the machine
/// spent in each state smoothly, where any quantile jumps once a state's
/// share crosses it; trimming drops the outliers.
pub fn trimmed_mean(values: Vec<f64>) -> f64 {
    let sorted = sorted(values);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
}

fn cpu_time(clock: i32) -> Duration {
    let mut time = [0i64; 2];
    // SAFETY: `time` is a writable `struct timespec` (seconds, nanoseconds)
    // on the 64-bit Linux targets this builds for.
    unsafe { clock_gettime(clock, &mut time) };
    Duration::new(time[0] as u64, time[1] as u32)
}

/// CPU time used so far by all threads of this process, ended ones
/// included (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_time() -> Duration {
    cpu_time(2)
}

/// CPU time used so far by the calling thread (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_time() -> Duration {
    cpu_time(3)
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// The lowest-numbered CPU this thread may run on.
pub fn first_allowed_cpu() -> usize {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
    if ok != 0 {
        return 0;
    }
    (0..1024)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .unwrap_or(0)
}

/// Restricts the calling thread, and the threads it spawns from now on,
/// to one CPU. Best effort: a refusal leaves the thread unpinned.
pub fn pin_to(cpu: usize) {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64 % 16] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints a latency percentile with its sample counts; `None` when fewer
/// than ten samples lie beyond it.
pub fn print_percentile(name: &str, sorted_us: &[f64], p: f64) -> Option<f64> {
    let (value, beyond) = percentile(sorted_us, p);
    let n = sorted_us.len();
    if beyond < 10 && p > 50.0 {
        println!("# {name}: {n} samples, only {beyond} beyond p{p}; not reported");
        return None;
    }
    println!("# {name} = {value:.1} us (p{p}, {n} samples, {beyond} beyond)");
    Some(value)
}

/// Repeats a set-up at least five times and for at least a second, passing
/// all but the last result to `discard` (untimed); returns the median
/// duration in seconds with the last result.
pub fn repeat_setup<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let started = Instant::now();
    loop {
        let start = Instant::now();
        let made = set_up()?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= 5 && started.elapsed() >= Duration::from_secs(1) {
            println!("# setup repeated {} times", times.len());
            return Ok((median(times), made));
        }
        discard(made);
    }
}

/// Metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// A latency percentile as a metric, refused unless at least ten
    /// samples lie beyond it.
    pub fn percentile(&mut self, name: &str, sorted_us: &[f64], p: f64) -> Result<(), String> {
        let value = print_percentile(name, sorted_us, p)
            .ok_or(format!("{name}: the run is too short to report it"))?;
        self.push(name, value, "us");
        Ok(())
    }

    /// The final result line.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }

    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            println!("# {name:<28} {value:>14.4} {unit}");
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

//! Result plumbing shared by every workload: sample statistics, the
//! metric list printed as the final JSON line, the host/environment
//! record, and a seeded generator for run-order and job-sequence choices.

use crisp_harness::json::Value;
use std::process::Command;
use std::time::Instant;

/// Median of a sample (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest of p99.9/p99/p95/p90/p75
/// that still has at least ten samples beyond it, else the maximum.
/// Returns `(value, label)`, e.g. `(41.2, "p95")`.
pub fn tail(samples: &[f64]) -> (f64, String) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, "none".into());
    }
    for (p, label) in [
        (99.9, "p99.9"),
        (99.0, "p99"),
        (95.0, "p95"),
        (90.0, "p90"),
        (75.0, "p75"),
    ] {
        // Nearest-rank percentile; everything after the rank is "beyond".
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n);
        if n - rank >= 10 {
            return (v[rank - 1], label.into());
        }
    }
    (v[n - 1], "max".into())
}

/// Whether another pass fits the measurement window: passes continue
/// while the next one, at the median pass time so far, would end no more
/// than half a pass past `seconds`.
pub fn another_pass(started: std::time::Instant, seconds: f64, done: &[f64]) -> bool {
    done.is_empty() || started.elapsed().as_secs_f64() + median(done) / 2.0 < seconds
}

/// Whether pass `i` of a traced run is a traced one: ABBA order
/// (untraced, traced, traced, untraced, ...) so neither kind always
/// runs first.
pub fn traced_pass(i: usize) -> bool {
    matches!(i % 4, 1 | 2)
}

/// Fastest of a sample (0 for an empty one). Interference from the rest
/// of a shared host only ever adds time to a fixed piece of work, so the
/// fastest of many repeats is the steadiest measure of its own cost.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Iterations of the clock loop, about 5 ms on the reference host.
const CLOCK_ITERS: u64 = 2_000_000;
/// The clock loop's fastest time on the reference host, ms.
const CLOCK_REF_MS: f64 = 5.0;

/// Host clock calibration. The reference VM exposes no cycle counter,
/// and its host moves the speed of its cores over seconds to minutes
/// (often by 15%, at times twofold) as neighbouring machines load it. A
/// fixed serial integer loop, timed between jobs, follows that speed:
/// over a run its fastest time moves with the jobs' fastest times (on
/// the reference VM their ratio held within ±2% while each moved 13%).
/// Scaling a run's times by [`Clock::scale`] expresses them as times on
/// the reference host, where the loop's fastest time is
/// [`CLOCK_REF_MS`]. The benchmark's own code, it is the same on every
/// commit measured.
#[derive(Default)]
pub struct Clock(Vec<f64>);

impl Clock {
    /// Times the clock loop once.
    pub fn tick(&mut self) {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..std::hint::black_box(CLOCK_ITERS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        self.0.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// The factor from this run's host times to reference-host times.
    pub fn scale(&self) -> f64 {
        CLOCK_REF_MS / best(&self.0)
    }

    /// The loop's fastest time this run, ms, and how many times it ran.
    pub fn note(&self, out: &mut Outcome) {
        out.note("clock_best_ms", Value::Num(best(&self.0)));
        out.note("clock_ticks", Value::Num(self.0.len() as f64));
    }
}

/// The end-to-end timings of an untraced run.
pub struct Timings {
    /// One pass over the workload's jobs, seconds.
    pub pipeline_s: f64,
    /// Jobs completed per second.
    pub jobs_per_s: f64,
    /// Warm job times, ms: their median and tail are reported.
    pub warm_ms: Vec<f64>,
    /// Cold job time at its best, ms.
    pub cold_best_ms: f64,
    /// How many cold runs `cold_best_ms` is the best of.
    pub cold_runs: usize,
}

/// Records `pipeline_s`, `jobs_per_s`, `rtt_warm_p50_ms`,
/// `rtt_warm_tail_ms` and `rtt_cold_best_ms`, with sample counts and
/// the tail's percentile as notes.
pub fn timings(m: &mut Metrics, out: &mut Outcome, t: &Timings) {
    let (tail_ms, label) = tail(&t.warm_ms);
    out.note("rtt_warm_tail", Value::Str(label));
    out.note("warm_samples", Value::Num(t.warm_ms.len() as f64));
    out.note("cold_runs", Value::Num(t.cold_runs as f64));
    m.put("pipeline_s", t.pipeline_s, "s");
    m.put("jobs_per_s", t.jobs_per_s, "1/s");
    m.put("rtt_warm_p50_ms", median(&t.warm_ms), "ms");
    m.put("rtt_warm_tail_ms", tail_ms, "ms");
    m.put("rtt_cold_best_ms", t.cold_best_ms, "ms");
}

/// Geometric-mean speedup (percent) over per-item speedups (percent).
pub fn geomean_pct(speedups: &[f64]) -> f64 {
    if speedups.is_empty() {
        return 0.0;
    }
    let logs: f64 = speedups.iter().map(|s| (1.0 + s / 100.0).ln()).sum();
    ((logs / speedups.len() as f64).exp() - 1.0) * 100.0
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The `wanted` metrics in that order, with the names of those this
    /// run did not measure (reported as 0: the layer did not run here).
    pub fn select(&self, wanted: &[(&str, &'static str)]) -> (Metrics, Vec<String>) {
        let mut picked = Metrics::default();
        let mut missing = Vec::new();
        for &(name, unit) in wanted {
            match self.0.iter().find(|(n, _, _)| n == name) {
                Some((_, v, u)) => {
                    debug_assert_eq!(*u, unit, "unit of {name}");
                    picked.0.push((name.to_string(), *v, *u));
                }
                None => {
                    missing.push(name.to_string());
                    picked.0.push((name.to_string(), 0.0, unit));
                }
            }
        }
        (picked, missing)
    }

    /// The metric object of the result line.
    pub fn to_value(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let v = if value.is_finite() { *value } else { 0.0 };
                    (
                        name.clone(),
                        Value::Obj(vec![
                            ("value".into(), Value::Num(v)),
                            ("unit".into(), Value::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Human-readable listing for stderr.
    pub fn describe(&self) -> String {
        self.0
            .iter()
            .map(|(name, value, unit)| format!("  {name:<42} {value:>14.4} {unit}\n"))
            .collect()
    }
}

/// Outcome counters and correctness findings of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (simulations, pipelines, HTTP jobs).
    pub attempted: u64,
    /// Operations that failed, were refused or came back degraded.
    pub failed: u64,
    /// Correctness-check failures; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Facts recorded with the result: sample counts, which percentile
    /// the tail metric is, the warm share.
    pub notes: Vec<(String, Value)>,
}

impl Outcome {
    /// Records a correctness violation (printed at the end of the run).
    pub fn violation(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("[perfbench] CHECK FAILED: {msg}");
        self.violations.push(msg);
    }

    /// Records a fact printed with the result.
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The environment every result is recorded with: source revision,
/// toolchain, core count, CPU model, build profile and the load average
/// when the run started. Host speed drifts between runs on shared
/// machines, so figures are only comparable alongside this record.
pub fn environment(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .unwrap_or_default()
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ");
    let git = std::env::var("PERFBENCH_GIT").unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Obj(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds as f64)),
        ("trace".into(), Value::Bool(trace)),
        ("git".into(), Value::Str(git)),
        ("rustc".into(), Value::Str(first_line("rustc", &["-V"]))),
        ("nproc".into(), Value::Num(nproc as f64)),
        ("cpu".into(), Value::Str(cpu)),
        ("profile".into(), Value::Str(profile.into())),
        ("loadavg".into(), Value::Str(load)),
    ])
}

/// SplitMix64: a tiny seeded generator for run order and job sequences
/// (the inputs themselves never depend on it, so simulated results are
/// seed-independent and can be pinned in the reference table).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_cafe_f00d_d00d)
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, "p90".to_string()));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, "p99".to_string()));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, "max".to_string()));
    }

    #[test]
    fn best_is_the_fastest_and_the_clock_scales_to_the_reference() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(best(&[]), 0.0);
        let clock = Clock(vec![6.0, 5.5, 10.0]);
        assert_eq!(clock.scale(), CLOCK_REF_MS / 5.5);
        let mut clock = Clock::default();
        clock.tick();
        assert!(clock.scale() > 0.0 && clock.scale().is_finite());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

//! `crisp obs summarize`: render telemetry samples as per-interval
//! tables plus an ASCII IPC-over-time sparkline. The JSONL reader that
//! turns a telemetry stream back into samples lives in `crisp-harness`
//! (`crisp_harness::telemetry`), next to the JSON parser it uses.

use crate::telemetry::TelemetrySample;
use std::fmt::Write as _;

/// Renders `values` as a one-line block-character sparkline (empty input
/// renders empty).
pub fn render_sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

/// Renders the per-interval table and IPC sparkline for one telemetry
/// stream.
pub fn summarize(samples: &[TelemetrySample]) -> String {
    if samples.is_empty() {
        return "no telemetry samples\n".to_string();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>7} {:>7} {:>6}",
        "cycle", "ipc", "rob", "rs", "mshr", "mlp", "mpki", "l1d%", "llc%", "crit%"
    );
    for s in samples {
        let _ = writeln!(
            out,
            "{:>12} {:>6.3} {:>5} {:>5} {:>5} {:>5} {:>6.1} {:>7.2} {:>7.2} {:>6.1}",
            s.cycle,
            s.ipc(),
            s.rob,
            s.rs,
            s.mshr,
            s.dram_outstanding,
            s.mpki(),
            100.0 * s.l1d_miss_ratio(),
            100.0 * s.llc_miss_ratio(),
            100.0 * s.critical_issue_share(),
        );
    }
    let total_cycles: u64 = samples.iter().map(|s| s.interval_cycles).sum();
    let total_retired: u64 = samples.iter().map(|s| s.retired).sum();
    let _ = writeln!(
        out,
        "{} samples over {} cycles, mean IPC {:.3}",
        samples.len(),
        total_cycles,
        total_retired as f64 / total_cycles.max(1) as f64
    );
    let ipcs: Vec<f64> = samples.iter().map(TelemetrySample::ipc).collect();
    let _ = writeln!(out, "IPC over time: {}", render_sparkline(&ipcs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryInputs;
    use crate::telemetry::TelemetryLog;

    #[test]
    fn summary_renders_table_and_sparkline() {
        let mut log = TelemetryLog::default();
        for i in 1..=4u64 {
            log.record(TelemetryInputs {
                cycle: i * 1000,
                retired: i * i * 300,
                ..TelemetryInputs::default()
            });
        }
        let s = summarize(log.samples());
        assert!(s.contains("cycle"), "{s}");
        assert!(s.contains("IPC over time:"), "{s}");
        assert!(s.contains("4 samples over 4000 cycles"), "{s}");
        // The sparkline rises with the rising IPC.
        let spark = s.lines().last().unwrap();
        assert!(spark.contains('█'), "{s}");
        assert_eq!(summarize(&[]), "no telemetry samples\n");
    }

    #[test]
    fn sparkline_handles_flat_and_empty_input() {
        assert_eq!(render_sparkline(&[]), "");
        assert_eq!(render_sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(render_sparkline(&[1.0, 1.0]).chars().count(), 2);
    }
}

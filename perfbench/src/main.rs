//! `perfbench` — the repository benchmark. See `README.md` next to this
//! package for the workloads, the metrics and what each should move.
//!
//! ```text
//! usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  [--serve-bin PATH] [--work DIR] [--bless]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! with every end-to-end metric when `--trace 0` and every per-layer
//! metric when `--trace 1`. Exit code 0 means the run finished (check
//! `correct`); 2 is a usage error.

mod engine;
mod gate;
mod report;
mod serve;

use crisp_harness::json::Value;
use report::{Metrics, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["sim-irregular", "fdo-pipeline", "serve-overlap"];

/// End-to-end metrics (`--trace 0`), `(name, unit)`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("jobs_per_s", "1/s"),
    ("rtt_warm_p50_ms", "ms"),
    ("rtt_warm_tail_ms", "ms"),
    ("rtt_cold_best_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), `(name, unit)`. A layer the
/// workload does not run in this process reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("kips", "kIPS"),
    ("crisp_speedup_pct", "%"),
    ("error_rate", "ratio"),
    ("workloads.build_ms", "ms"),
    ("emu.ns_per_inst", "ns"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.cycles", "count"),
    ("sim.ipc", "inst/cycle"),
    ("sim.phase.fetch_ns_per_cycle", "ns"),
    ("sim.phase.rename_ns_per_cycle", "ns"),
    ("sim.phase.dispatch_ns_per_cycle", "ns"),
    ("sim.phase.wakeup_ns_per_cycle", "ns"),
    ("sim.phase.select_ns_per_cycle", "ns"),
    ("sim.phase.execute_ns_per_cycle", "ns"),
    ("sim.phase.lsq_ns_per_cycle", "ns"),
    ("sim.phase.mshr_ns_per_cycle", "ns"),
    ("sim.phase.dram_ns_per_cycle", "ns"),
    ("sim.phase.retire_ns_per_cycle", "ns"),
    ("sim.phase.other_ns_per_cycle", "ns"),
    ("sim.rs_slots_scanned_per_cycle", "count"),
    ("sim.age_compares_per_cycle", "count"),
    ("sim.lsq_probes_per_cycle", "count"),
    ("sim.mshr_probes_per_cycle", "count"),
    ("sim.issued_critical_frac", "ratio"),
    ("sim.zero_retire_frac", "ratio"),
    ("sim.zero_retire_run_mean", "cycles"),
    ("mem.replay_ns_per_access.none", "ns"),
    ("mem.replay_ns_per_access.bop_stream", "ns"),
    ("mem.replay_ns_per_access.ghbw", "ns"),
    ("mem.replay_ns_per_access.sisb", "ns"),
    ("mem.replay_ns_per_access.spp", "ns"),
    ("mem.replay_pf_issued.none", "count"),
    ("mem.replay_pf_issued.bop_stream", "count"),
    ("mem.replay_pf_issued.ghbw", "count"),
    ("mem.replay_pf_issued.sisb", "count"),
    ("mem.replay_pf_issued.spp", "count"),
    ("mem.llc_load_mpki", "1/kinst"),
    ("mem.dram_row_hit_ratio", "ratio"),
    ("mem.pf_issued", "count"),
    ("mem.pf_accuracy", "ratio"),
    ("mem.pf_late_frac", "ratio"),
    ("profile.classify_ms", "ms"),
    ("profile.delinquent_loads", "count"),
    ("profile.hard_branches", "count"),
    ("slicer.depgraph_ms", "ms"),
    ("slicer.extract_ms", "ms"),
    ("slicer.filter_ms", "ms"),
    ("slicer.annotate_ms", "ms"),
    ("slicer.slices", "count"),
    ("slicer.mean_slice_len", "inst"),
    ("slicer.critical_insts", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.result_wait_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.queue_ms", "ms"),
    ("serve.refused", "count"),
    ("serve.http_other_ms", "ms"),
    ("harness.execute_ms", "ms"),
    ("harness.cell_warm_ms", "ms"),
    ("harness.cell_cold_ms", "ms"),
    ("store.publish_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.cells_computed", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// Parsed command line.
pub struct Opts {
    /// Which workload to run.
    pub workload: String,
    /// Seed of run order and job sequences.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `crisp-serve` binary for `serve-overlap`.
    pub serve_bin: PathBuf,
    /// Scratch directory for daemon state.
    pub work: PathBuf,
    /// Re-bless the simulated-output reference table.
    pub bless: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        serve_bin: PathBuf::from("crisp-serve"),
        work: PathBuf::from(".bench_work"),
        bless: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            o.bless = true;
            continue;
        }
        let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => o.workload = v,
            "--seed" => o.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => o.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--serve-bin" => o.serve_bin = PathBuf::from(v),
            "--work" => o.work = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            WORKLOADS.join(", "),
            o.workload
        ));
    }
    if !o.seconds.is_finite() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 [--serve-bin PATH] [--work DIR] [--bless]"
            );
            return ExitCode::from(2);
        }
    };
    let env = report::environment(&o.workload, o.seed, o.seconds as u64, o.trace);
    eprintln!("[perfbench] env {}", env.encode());
    let reference = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference.txt");
    let mut gate = match gate::Gate::load(&reference, o.bless) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let (mut out, mut m) = (Outcome::default(), Metrics::default());
    match o.workload.as_str() {
        "sim-irregular" => engine::sim_irregular(&o, &mut out, &mut gate, &mut m),
        "fdo-pipeline" => engine::fdo_pipeline(&o, &mut out, &mut gate, &mut m),
        _ => {
            let _ = std::fs::remove_dir_all(&o.work);
            serve::serve_overlap(&o, &o.serve_bin, &o.work, &mut out, &mut m);
            let _ = std::fs::remove_dir_all(&o.work);
        }
    }
    if o.trace {
        m.put("error_rate", out.error_rate(), "ratio");
    }
    if o.bless {
        if let Err(e) = gate.bless_into(&reference) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
        eprintln!("[perfbench] blessed {}", reference.display());
    }
    for f in &gate.failures {
        out.violation(format!("simulated-output gate: {f}"));
    }

    let wanted: &[(&str, &'static str)] = if o.trace { PER_LAYER } else { &END_TO_END };
    let (metrics, missing) = m.select(wanted);
    if !o.trace && !missing.is_empty() && out.violations.is_empty() {
        out.violation(format!("no measurement for {}", missing.join(", ")));
    }
    eprintln!(
        "[perfbench] {} metrics:\n{}",
        o.workload,
        metrics.describe()
    );
    let correct = out.violations.is_empty();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(out.attempted as f64)),
        ("failed".into(), Value::Num(out.failed as f64)),
        ("metrics".into(), metrics.to_value()),
    ]);
    let notes = Value::Obj(std::mem::take(&mut out.notes));
    eprintln!("[perfbench] notes {}", notes.encode());
    println!(
        "{}",
        Value::Obj(vec![("env".into(), env), ("notes".into(), notes)]).encode()
    );
    println!("{}", line.encode());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = crisp_harness::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).expect("field").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}

//! `sim-bench` — engine throughput benchmark in KIPS (`BENCH_9.json`),
//! plus a per-prefetcher KIPS dimension (`BENCH_10.json`).
//!
//! Measures how many thousand instructions per second the cycle engine
//! retires on a fixed set of workloads, the host-side companion to the
//! simulated-IPC figures: CRISP experiments are throughput-bound on the
//! engine, so a KIPS regression here is wall-clock pain everywhere.
//!
//! Per workload: build + emulate once (off the clock), then `--warmup`
//! untimed runs followed by `--trials` timed runs of the same trace on
//! a fresh `Simulator` each, reporting every trial plus min and median
//! KIPS. Timed runs keep observability off — this is the shipping
//! configuration. One extra run per workload flips
//! `SimConfig::hostprof` on and the summed self-profile is emitted as
//! the artifact's `hostprof` object (readable by `crisp obs hotspots
//! BENCH_9.json`), so the benchmark that detects a regression also
//! says which engine phase ate it.
//!
//! After the baseline pass, the same trace is re-simulated once per
//! hardware-prefetcher mechanism (`none`, the `bop+stream` default,
//! `ghbw`, `sisb`, `spp`) and the per-mechanism KIPS — the host cost of
//! each zoo member — lands in `BENCH_10.json` together with its
//! issued/useful/late effectiveness counters.
//!
//! ```text
//! usage: sim-bench [--trials N] [--warmup N] [--instrs N] [--out PATH]
//!                  [--zoo-out PATH] [--quick]
//! exit codes: 0 ok, 1 benchmark invariant broken, 2 usage error
//! ```
//!
//! Invariants gated on: every trial reproduces trial 0's simulated
//! output — an FNV-1a digest of `SimResult::snapshot_words()`: every
//! counter, per-PC map and timeline (determinism) — and the self-profile
//! attributes >= 95% of engine host time to named phases (the `other`
//! bucket stays honest).

use crisp_core::{build, Input, SimConfig};
use crisp_emu::Emulator;
use crisp_harness::json::Value;
use crisp_isa::{Program, Trace};
use crisp_obs::HostProfReport;
use crisp_sim::{SimResult, Simulator};
use crisp_store::fnv1a128;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Workloads spanning the engine's behaviour space: pointer chasing
/// (latency-bound, MLP=1), mcf (cache-hostile dependent loads), lbm
/// (streaming stores, bandwidth-bound).
const WORKLOADS: [&str; 3] = ["pointer_chase", "mcf", "lbm"];

/// Named-phase attribution floor (percent) for the self-profile.
const NAMED_FLOOR_PCT: f64 = 95.0;

/// The BENCH_10 prefetcher dimension: label -> registry spec.
const ZOO: [(&str, &str); 5] = [
    ("none", "none"),
    ("base", "bop+stream"),
    ("ghbw", "ghbw"),
    ("sisb", "sisb"),
    ("spp", "spp"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: sim-bench [--trials N] [--warmup N] [--instrs N] [--out PATH] \
         [--zoo-out PATH] [--quick]"
    );
    ExitCode::from(2)
}

/// FNV-1a (128-bit) over `res.snapshot_words()`, little-endian bytes.
fn digest(res: &SimResult) -> u128 {
    let bytes: Vec<u8> = res
        .snapshot_words()
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    fnv1a128(&bytes)
}

/// The determinism gate: trial `t` of `label` must simulate exactly what
/// trial 0 did (digest `first`).
fn check_trial(label: &str, t: usize, first: u128, res: &SimResult) -> Result<(), String> {
    let d = digest(res);
    if d == first {
        return Ok(());
    }
    Err(format!(
        "{label}: trial {t} result digest {d:032x} differs from trial 0's {first:032x} \
         ({} instrs / {} cycles) — the engine is nondeterministic",
        res.retired, res.cycles
    ))
}

/// `warmup` untimed runs, then `trials` timed ones gated on
/// [`check_trial`]; returns trial 0's result and every trial's KIPS.
fn timed_trials(
    label: &str,
    warmup: usize,
    trials: usize,
    run: impl Fn() -> Result<(f64, SimResult), String>,
) -> Result<(SimResult, Vec<f64>), String> {
    for _ in 0..warmup {
        run()?;
    }
    let kips = |secs: f64, res: &SimResult| res.retired as f64 / 1e3 / secs.max(1e-9);
    let (secs, first) = run()?;
    let digest0 = digest(&first);
    let mut all = vec![kips(secs, &first)];
    for t in 1..trials {
        let (secs, res) = run()?;
        check_trial(label, t, digest0, &res)?;
        all.push(kips(secs, &res));
    }
    Ok((first, all))
}

struct WorkloadResult {
    name: &'static str,
    retired: u64,
    cycles: u64,
    kips: Vec<f64>,
    prof: HostProfReport,
}

/// One workload's program and the trace every run of it replays.
struct Prepared {
    name: &'static str,
    program: Program,
    trace: Trace,
}

impl Prepared {
    /// Builds `name`'s train input and emulates `instrs` instructions.
    fn new(name: &'static str, instrs: usize) -> Result<Prepared, String> {
        let w = build(name, Input::Train).map_err(|e| format!("{name}: build failed: {e}"))?;
        let trace = Emulator::new(&w.program, w.memory).run(instrs as u64);
        Ok(Prepared {
            name,
            program: w.program,
            trace,
        })
    }

    /// One timed simulation of the trace under `cfg`.
    fn simulate(&self, label: &str, cfg: &SimConfig) -> Result<(f64, SimResult), String> {
        let sim = Simulator::try_new(cfg.clone()).map_err(|e| format!("{label}: config: {e}"))?;
        let started = Instant::now();
        let res = sim
            .try_run(&self.program, &self.trace, None)
            .map_err(|e| format!("{label}: simulation failed: {e}"))?;
        Ok((started.elapsed().as_secs_f64(), res))
    }
}

/// Benchmarks one workload: warmup + trials with observability off,
/// then one profiled run for phase attribution.
fn bench_workload(p: &Prepared, warmup: usize, trials: usize) -> Result<WorkloadResult, String> {
    let mut cfg = SimConfig::skylake();
    let (first, kips) = timed_trials(p.name, warmup, trials, || p.simulate(p.name, &cfg))?;
    cfg.hostprof = true;
    let (_, res) = p.simulate(p.name, &cfg)?;
    Ok(WorkloadResult {
        name: p.name,
        retired: first.retired,
        cycles: first.cycles,
        kips,
        prof: res.hostprof,
    })
}

struct ZooResult {
    mech: &'static str,
    spec: &'static str,
    retired: u64,
    cycles: u64,
    kips: Vec<f64>,
    issued: u64,
    useful: u64,
    late: u64,
}

/// Re-simulates one workload's trace under each zoo mechanism,
/// timing KIPS and capturing the effectiveness counters.
fn bench_zoo(p: &Prepared, warmup: usize, trials: usize) -> Result<Vec<ZooResult>, String> {
    let mut out = Vec::with_capacity(ZOO.len());
    for (mech, spec) in ZOO {
        let label = format!("{}/{mech}", p.name);
        let mut cfg = SimConfig::skylake();
        cfg.memory.prefetcher = spec
            .parse()
            .map_err(|e| format!("{label}: bad zoo spec `{spec}`: {e}"))?;
        let (first, kips) = timed_trials(&label, warmup, trials, || p.simulate(&label, &cfg))?;
        let pf = first.mem.prefetch_totals();
        out.push(ZooResult {
            mech,
            spec,
            retired: first.retired,
            cycles: first.cycles,
            kips,
            issued: pf.issued,
            useful: pf.useful,
            late: pf.late,
        });
    }
    Ok(out)
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The aggregate self-profile: phase times and scan counters summed
/// across every workload's profiled run.
fn sum_profiles(results: &[WorkloadResult]) -> HostProfReport {
    let mut total = HostProfReport {
        enabled: true,
        ..HostProfReport::default()
    };
    for r in results {
        for (i, ns) in r.prof.phase_ns.iter().enumerate() {
            total.phase_ns[i] += ns;
        }
        total.cycles += r.prof.cycles;
        total.retired += r.prof.retired;
        total.rs_slots_scanned += r.prof.rs_slots_scanned;
        total.age_compares += r.prof.age_compares;
        total.lsq_probes += r.prof.lsq_probes;
        total.mshr_probes += r.prof.mshr_probes;
    }
    total
}

/// Encodes a report in the JSON shape `crisp obs hotspots` reads back:
/// scalar counters plus a `phase_ns` name->ns object.
fn profile_json(p: &HostProfReport) -> Value {
    let phases = p
        .phases()
        .map(|(name, ns)| (name.to_string(), Value::Num(ns as f64)))
        .collect();
    Value::Obj(vec![
        ("enabled".into(), Value::Bool(p.enabled)),
        ("cycles".into(), Value::Num(p.cycles as f64)),
        ("retired".into(), Value::Num(p.retired as f64)),
        (
            "rs_slots_scanned".into(),
            Value::Num(p.rs_slots_scanned as f64),
        ),
        ("age_compares".into(), Value::Num(p.age_compares as f64)),
        ("lsq_probes".into(), Value::Num(p.lsq_probes as f64)),
        ("mshr_probes".into(), Value::Num(p.mshr_probes as f64)),
        ("phase_ns".into(), Value::Obj(phases)),
    ])
}

fn main() -> ExitCode {
    let mut trials = 5usize;
    let mut warmup = 1usize;
    let mut instrs = 200_000usize;
    let mut out = PathBuf::from("BENCH_9.json");
    let mut zoo_out = PathBuf::from("BENCH_10.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--zoo-out" => match args.next() {
                Some(v) => zoo_out = PathBuf::from(v),
                None => return usage(),
            },
            "--trials" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 1 => trials = v,
                _ => return usage(),
            },
            "--warmup" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => warmup = v,
                _ => return usage(),
            },
            "--instrs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 1_000 => instrs = v,
                _ => return usage(),
            },
            "--out" => match args.next() {
                Some(v) => out = PathBuf::from(v),
                None => return usage(),
            },
            // CI smoke setting: small trace, fewer trials, same shape.
            "--quick" => {
                trials = 2;
                warmup = 1;
                instrs = 30_000;
            }
            _ => return usage(),
        }
    }

    let mut prepared = Vec::new();
    let mut results = Vec::new();
    for name in WORKLOADS {
        match Prepared::new(name, instrs).and_then(|p| Ok((bench_workload(&p, warmup, trials)?, p)))
        {
            Ok((r, p)) => {
                let mut sorted = r.kips.clone();
                sorted.sort_by(f64::total_cmp);
                eprintln!(
                    "[sim-bench] {name}: {} instrs, {} cycles, KIPS min {:.0} / median {:.0} \
                     ({trials} trials)",
                    r.retired,
                    r.cycles,
                    sorted[0],
                    median(&sorted),
                );
                results.push(r);
                prepared.push(p);
            }
            Err(e) => {
                eprintln!("sim-bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let profile = sum_profiles(&results);
    let named_pct = profile.named_ns() as f64 * 100.0 / profile.total_ns().max(1) as f64;

    let workloads_json = results
        .iter()
        .map(|r| {
            let mut sorted = r.kips.clone();
            sorted.sort_by(f64::total_cmp);
            Value::Obj(vec![
                ("name".into(), Value::Str(r.name.into())),
                ("retired".into(), Value::Num(r.retired as f64)),
                ("cycles".into(), Value::Num(r.cycles as f64)),
                (
                    "kips".into(),
                    Value::Arr(r.kips.iter().map(|&k| Value::Num(k)).collect()),
                ),
                ("kips_min".into(), Value::Num(sorted[0])),
                ("kips_median".into(), Value::Num(median(&sorted))),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("sim-kips".into())),
        ("instrs".into(), Value::Num(instrs as f64)),
        ("warmup".into(), Value::Num(warmup as f64)),
        ("trials".into(), Value::Num(trials as f64)),
        ("workloads".into(), Value::Arr(workloads_json)),
        ("hostprof".into(), profile_json(&profile)),
        ("hostprof_named_pct".into(), Value::Num(named_pct)),
    ]);
    if let Err(e) = std::fs::write(&out, format!("{}\n", doc.encode())) {
        eprintln!("sim-bench: writing {} failed: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[sim-bench] self-profile: {:.1}% of host time in named phases -> {}",
        named_pct,
        out.display()
    );

    if named_pct < NAMED_FLOOR_PCT {
        eprintln!(
            "sim-bench: FAIL — only {named_pct:.1}% of engine host time lands in named \
             phases (floor {NAMED_FLOOR_PCT}%); instrument the gap before trusting hotspots"
        );
        return ExitCode::FAILURE;
    }

    // The prefetcher dimension: per-mechanism KIPS + effectiveness on
    // the same workload set, gated on the conservation invariant.
    let mut zoo_json = Vec::new();
    for p in &prepared {
        let name = p.name;
        let rows = match bench_zoo(p, warmup, trials) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sim-bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut mech_json = Vec::new();
        for zr in &rows {
            if zr.useful > zr.issued {
                eprintln!(
                    "sim-bench: FAIL — {name}/{} credits {} useful prefetches out of only \
                     {} issued",
                    zr.mech, zr.useful, zr.issued
                );
                return ExitCode::FAILURE;
            }
            let mut sorted = zr.kips.clone();
            sorted.sort_by(f64::total_cmp);
            eprintln!(
                "[sim-bench] {name}/{}: KIPS median {:.0}, issued {} useful {} late {}",
                zr.mech,
                median(&sorted),
                zr.issued,
                zr.useful,
                zr.late,
            );
            mech_json.push(Value::Obj(vec![
                ("prefetcher".into(), Value::Str(zr.mech.into())),
                ("spec".into(), Value::Str(zr.spec.into())),
                ("retired".into(), Value::Num(zr.retired as f64)),
                ("cycles".into(), Value::Num(zr.cycles as f64)),
                (
                    "kips".into(),
                    Value::Arr(zr.kips.iter().map(|&k| Value::Num(k)).collect()),
                ),
                ("kips_min".into(), Value::Num(sorted[0])),
                ("kips_median".into(), Value::Num(median(&sorted))),
                ("issued".into(), Value::Num(zr.issued as f64)),
                ("useful".into(), Value::Num(zr.useful as f64)),
                ("late".into(), Value::Num(zr.late as f64)),
            ]));
        }
        zoo_json.push(Value::Obj(vec![
            ("name".into(), Value::Str(name.into())),
            ("mechanisms".into(), Value::Arr(mech_json)),
        ]));
    }
    let zoo_doc = Value::Obj(vec![
        ("bench".into(), Value::Str("sim-kips-prefetcher".into())),
        ("instrs".into(), Value::Num(instrs as f64)),
        ("warmup".into(), Value::Num(warmup as f64)),
        ("trials".into(), Value::Num(trials as f64)),
        ("workloads".into(), Value::Arr(zoo_json)),
    ]);
    if let Err(e) = std::fs::write(&zoo_out, format!("{}\n", zoo_doc.encode())) {
        eprintln!("sim-bench: writing {} failed: {e}", zoo_out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("[sim-bench] prefetcher dimension -> {}", zoo_out.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_determinism_gate_trips_on_any_differing_result() {
        let a = SimResult {
            cycles: 1000,
            retired: 800,
            ..SimResult::default()
        };
        assert_eq!(check_trial("w", 1, digest(&a), &a), Ok(()));
        // Same instruction count and cycles, one counter apart: the old
        // `retired` comparison passed this.
        let mut b = a.clone();
        b.cond_mispredicts += 1;
        let err = check_trial("w", 1, digest(&a), &b).unwrap_err();
        assert!(err.contains("nondeterministic"), "{err}");
        let mut c = a.clone();
        c.cycles += 1;
        assert!(check_trial("w", 2, digest(&a), &c).is_err());
    }
}

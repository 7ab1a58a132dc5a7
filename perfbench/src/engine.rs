//! The in-process workloads, `sim-irregular` and `fdo-pipeline`: both
//! drive the engine and the FDO layers through their public calls
//! (`workloads::build`, `Emulator::run`, `Simulator::try_run`,
//! `classify_*`, `DepGraph::build`, `extract_slices`,
//! `critical_path_filter`, `Annotator`, `MemoryHierarchy::load/store`).

use crate::gate::Gate;
use crate::report::{
    another_pass, best, geomean_pct, median, peak_rss_mb, timings, traced_pass, Clock, Metrics,
    Outcome, Rng, Timings,
};
use crate::Opts;
use crisp_core::{PipelineConfig, SchedulerKind, SimConfig, SimResult};
use crisp_emu::Emulator;
use crisp_harness::json::Value;
use crisp_isa::{Pc, Trace};
use crisp_mem::{HierarchyConfig, MemoryHierarchy};
use crisp_obs::{HostProfReport, PHASE_COUNT, PHASE_NAMES};
use crisp_profile::{amat_map, classify_branches, classify_loads};
use crisp_sim::Simulator;
use crisp_slicer::{critical_path_filter, extract_slices, CriticalityMap, DepGraph, LatencyModel};
use crisp_workloads::{build, Input, Workload};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Train/eval instruction windows.
pub struct Windows {
    /// Profiling (train-input) window.
    pub train: u64,
    /// Evaluation (ref-input) window.
    pub eval: u64,
}

/// `sim-irregular`'s windows: the `fast` experiment scale's train
/// window, and an eighth of its eval window so that each simulation is
/// short (about 30 ms on the reference host) and repeats often enough
/// in a run for its fastest time to be steady.
pub const IRREGULAR_WINDOWS: Windows = Windows {
    train: 120_000,
    eval: 25_000,
};

/// `fdo-pipeline`'s windows: as short, so that every stage of the timed
/// pipeline repeats some 40 times in a 30-second run.
pub const FDO_WINDOWS: Windows = Windows {
    train: 40_000,
    eval: 25_000,
};

/// `sim-irregular` programs: delinquent, irregular-load kernels.
const IRREGULAR: [&str; 4] = ["gcc", "xz", "mcf", "pointer_chase"];
/// `fdo-pipeline` programs.
const FDO: [&str; 3] = ["perlbench", "bwaves", "xhpcg"];
/// How many times set-up is repeated to report its median (about 5 s
/// and 1.6 s on the reference host).
const IRREGULAR_SETUPS: usize = 5;
const FDO_SETUPS: usize = 40;

/// Scheduler of an evaluation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sched {
    /// Oldest-ready-first baseline on the untagged binary.
    Oldest,
    /// CRISP priority scheduling on the annotated binary.
    Crisp,
}

/// Hardware-prefetcher configuration of an evaluation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mech {
    /// The Table 1 default, `bop+stream`.
    BopStream,
    /// The GHB-based mechanism, the heaviest prefetch issuer of the zoo.
    Ghbw,
}

/// Every zoo mechanism replayed through the memory hierarchy, as
/// `(metric label, registry spec)`.
const ZOO: [(&str, &str); 5] = [
    ("none", "none"),
    ("bop_stream", "bop+stream"),
    ("ghbw", "ghbw"),
    ("sisb", "sisb"),
    ("spp", "spp"),
];

impl Sched {
    fn label(self) -> &'static str {
        match self {
            Sched::Oldest => "oldest",
            Sched::Crisp => "crisp",
        }
    }
}

impl Mech {
    fn label(self) -> &'static str {
        match self {
            Mech::BopStream => "bop_stream",
            Mech::Ghbw => "ghbw",
        }
    }

    fn spec(self) -> &'static str {
        match self {
            Mech::BopStream => "bop+stream",
            Mech::Ghbw => "ghbw",
        }
    }
}

/// The evaluation machine: Table 1 with per-PC statistics off, exactly
/// as the FDO pipeline configures its ref-input runs.
pub fn eval_config(sched: Sched, mech: Mech) -> SimConfig {
    let mut cfg = SimConfig::skylake();
    cfg.collect_pc_stats = false;
    cfg.memory.prefetcher = mech.spec().parse().expect("zoo spec parses");
    cfg.with_scheduler(match sched {
        Sched::Oldest => SchedulerKind::OldestReadyFirst,
        Sched::Crisp => SchedulerKind::Crisp,
    })
}

/// The profiling machine: Table 1, oldest-first, per-PC statistics on.
fn profile_config() -> SimConfig {
    let mut cfg = SimConfig::skylake();
    cfg.scheduler = SchedulerKind::OldestReadyFirst;
    cfg.collect_pc_stats = true;
    cfg
}

/// Layer timings of one run, recorded around the public calls. Off in
/// untraced runs, where only whole jobs and passes are timed.
#[derive(Default)]
pub struct Spans {
    on: bool,
    ms: BTreeMap<&'static str, f64>,
    build_ms: Vec<f64>,
    emu_ns_per_inst: Vec<f64>,
}

impl Spans {
    /// Recording spans, or not.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            ..Spans::default()
        }
    }

    /// Runs `f`, charging its wall time to `layer` when recording.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        *self.ms.entry(layer).or_default() += t.elapsed().as_secs_f64() * 1e3;
        out
    }

    fn total(&self, layer: &str) -> f64 {
        self.ms.get(layer).copied().unwrap_or(0.0)
    }
}

/// One program's inputs: both builds and both emulated traces.
pub struct Program {
    /// Workload name.
    pub name: &'static str,
    /// Train-input build (profiling and slicing).
    pub train: Workload,
    /// Ref-input build (evaluation).
    pub eval: Workload,
    /// Emulated train window.
    pub train_trace: Trace,
    /// Emulated eval window.
    pub eval_trace: Trace,
}

impl Program {
    /// Builds both inputs and emulates both windows.
    ///
    /// # Panics
    ///
    /// On an unregistered name: the workload lists above are fixed.
    pub fn prepare(name: &'static str, w: &Windows, spans: &mut Spans) -> Program {
        let on = spans.on;
        let mut built = |input| {
            let t = Instant::now();
            let wl = build(name, input).expect("benchmark programs are registered");
            if on {
                spans.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            wl
        };
        let (train, eval) = (built(Input::Train), built(Input::Ref));
        let mut emulate = |wl: &Workload, n| {
            let t = Instant::now();
            let trace = Emulator::new(&wl.program, wl.memory.clone()).run(n);
            if on {
                spans
                    .emu_ns_per_inst
                    .push(t.elapsed().as_nanos() as f64 / trace.len().max(1) as f64);
            }
            trace
        };
        let train_trace = emulate(&train, w.train);
        let eval_trace = emulate(&eval, w.eval);
        Program {
            name,
            train,
            eval,
            train_trace,
            eval_trace,
        }
    }

    /// Builds the eval input and emulates its window again, from
    /// nothing; returns the host seconds it took.
    fn rebuild_eval(&mut self, w: &Windows) -> f64 {
        let t = Instant::now();
        self.eval = build(self.name, Input::Ref).expect("benchmark programs are registered");
        self.eval_trace = Emulator::new(&self.eval.program, self.eval.memory.clone()).run(w.eval);
        t.elapsed().as_secs_f64()
    }
}

/// The profile→classify→slice→filter→annotate half of the FDO pipeline.
pub struct Annotation {
    /// The profiling run.
    pub profile: SimResult,
    /// Host seconds of the profiling run.
    pub profile_s: f64,
    /// Delinquent loads classified.
    pub delinquent: usize,
    /// Hard branches classified.
    pub hard_branches: usize,
    /// Load plus branch slices extracted.
    pub slices: usize,
    /// Mean dynamic load-slice length over slices with instances.
    pub mean_slice_len: f64,
    /// The annotation the CRISP run consumes.
    pub map: CriticalityMap,
}

/// Runs one simulation, returning the result and its host seconds.
fn simulate(
    cfg: SimConfig,
    wl: &Workload,
    trace: &Trace,
    map: Option<&CriticalityMap>,
) -> Result<(SimResult, f64), String> {
    let t = Instant::now();
    let res = Simulator::try_new(cfg)
        .map_err(|e| format!("{}: config: {e}", wl.name))?
        .try_run(&wl.program, trace, map.map(CriticalityMap::as_slice))
        .map_err(|e| format!("{}: simulation failed: {e}", wl.name))?;
    Ok((res, t.elapsed().as_secs_f64()))
}

/// Steps (1)–(5) of the CRISP pipeline on the train window, call for
/// call as `crisp_core::run_crisp_pipeline` makes them (both slice
/// families, no slow-op extension).
pub fn annotate(
    p: &Program,
    pc: &PipelineConfig,
    profile_cfg: SimConfig,
    spans: &mut Spans,
) -> Result<Annotation, String> {
    let (prog, trace) = (&p.train.program, &p.train_trace);
    let (profile, profile_s) = simulate(profile_cfg, &p.train, trace, None)?;
    let (delinquent, hard) = spans.time("classify", || {
        (
            classify_loads(&profile, &pc.classifier),
            classify_branches(&profile, &pc.classifier),
        )
    });
    let graph = spans.time("depgraph", || DepGraph::build(prog, trace));
    let load_roots: Vec<Pc> = delinquent.iter().map(|d| d.pc).collect();
    let branch_roots: Vec<Pc> = hard.iter().map(|b| b.pc).collect();
    let (load_slices, branch_slices) = spans.time("extract", || {
        (
            extract_slices(prog, trace, &graph, &load_roots, &pc.slice),
            extract_slices(prog, trace, &graph, &branch_roots, &pc.slice),
        )
    });
    let ordered: Vec<HashSet<Pc>> = spans.time("filter", || {
        let model = LatencyModel::new(
            amat_map(&profile),
            f64::from(pc.sim.memory.l1d_latency as u32),
        );
        load_slices
            .iter()
            .chain(&branch_slices)
            .map(|s| critical_path_filter(prog, s, &model, pc.critical_path_fraction))
            .collect()
    });
    let map = spans.time("annotate", || {
        let mut counts: HashMap<Pc, u64> = HashMap::new();
        for rec in trace {
            *counts.entry(rec.pc).or_insert(0) += 1;
        }
        pc.annotator.annotate(prog, &ordered, &counts)
    });
    if map.len() != p.eval.program.len() {
        return Err(format!(
            "{}: map covers {} instructions, eval binary has {}",
            p.name,
            map.len(),
            p.eval.program.len()
        ));
    }
    let with_instances: Vec<f64> = load_slices
        .iter()
        .filter(|s| s.instances > 0)
        .map(|s| s.mean_dynamic_len)
        .collect();
    Ok(Annotation {
        profile,
        profile_s,
        delinquent: delinquent.len(),
        hard_branches: hard.len(),
        slices: load_slices.len() + branch_slices.len(),
        mean_slice_len: with_instances.iter().sum::<f64>() / with_instances.len().max(1) as f64,
        map,
    })
}

/// Simulated and host-side counters summed over a set of simulations.
#[derive(Default)]
struct SimTotals {
    retired: u64,
    cycles: u64,
    host_s: f64,
    critical: u64,
    noncritical: u64,
    llc_load_misses: u64,
    dram_requests: u64,
    dram_row_hits: u64,
    pf_issued: u64,
    pf_useful: u64,
    pf_late: u64,
    prof: HostProfReport,
    upc_cycles: u64,
    zero_cycles: u64,
    zero_runs: u64,
}

impl SimTotals {
    fn add(&mut self, r: &SimResult, host_s: f64) {
        self.retired += r.retired;
        self.cycles += r.cycles;
        self.host_s += host_s;
        self.critical += r.issued_critical;
        self.noncritical += r.issued_noncritical;
        self.llc_load_misses += r.mem.load_llc_misses;
        self.dram_requests += r.mem.dram.requests;
        self.dram_row_hits += r.mem.dram.row_hits;
        let pf = r.mem.prefetch_totals();
        self.pf_issued += pf.issued;
        self.pf_useful += pf.useful;
        self.pf_late += pf.late;
        let p = &r.hostprof;
        for i in 0..PHASE_COUNT {
            self.prof.phase_ns[i] += p.phase_ns[i];
        }
        self.prof.cycles += p.cycles;
        self.prof.rs_slots_scanned += p.rs_slots_scanned;
        self.prof.age_compares += p.age_compares;
        self.prof.lsq_probes += p.lsq_probes;
        self.prof.mshr_probes += p.mshr_probes;
        // Zero-retire cycles and the mean length of their runs: the
        // stretches a skip-ahead clock could jump over.
        let upc = r.upc.as_slice();
        self.upc_cycles += upc.len() as u64;
        let mut prev_zero = false;
        for &u in upc {
            let zero = u == 0;
            self.zero_cycles += u64::from(zero);
            self.zero_runs += u64::from(zero && !prev_zero);
            prev_zero = zero;
        }
    }

    fn ratio(a: u64, b: u64) -> f64 {
        a as f64 / b.max(1) as f64
    }

    /// The `sim.*` and `mem.*` per-layer metrics. Host-time figures come
    /// from `untraced`; phase attribution, scan counters and the
    /// zero-retire profile from `self` (the traced simulations).
    fn per_layer(&self, untraced: &SimTotals, passes: usize, m: &mut Metrics) {
        let per_pass = |x: u64| x as f64 / passes.max(1) as f64;
        m.put(
            "sim.ns_per_cycle",
            untraced.host_s * 1e9 / untraced.cycles.max(1) as f64,
            "ns",
        );
        m.put("sim.cycles", per_pass(self.cycles), "count");
        m.put(
            "sim.ipc",
            Self::ratio(self.retired, self.cycles),
            "inst/cycle",
        );
        let pc = self.prof.cycles.max(1) as f64;
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            m.put(
                format!("sim.phase.{name}_ns_per_cycle"),
                self.prof.phase_ns[i] as f64 / pc,
                "ns",
            );
        }
        let p = &self.prof;
        for (name, v) in [
            ("rs_slots_scanned", p.rs_slots_scanned),
            ("age_compares", p.age_compares),
            ("lsq_probes", p.lsq_probes),
            ("mshr_probes", p.mshr_probes),
        ] {
            m.put(format!("sim.{name}_per_cycle"), v as f64 / pc, "count");
        }
        m.put(
            "sim.issued_critical_frac",
            Self::ratio(self.critical, self.critical + self.noncritical),
            "ratio",
        );
        m.put(
            "sim.zero_retire_frac",
            Self::ratio(self.zero_cycles, self.upc_cycles),
            "ratio",
        );
        m.put(
            "sim.zero_retire_run_mean",
            Self::ratio(self.zero_cycles, self.zero_runs),
            "cycles",
        );
        m.put(
            "mem.llc_load_mpki",
            self.llc_load_misses as f64 * 1e3 / self.retired.max(1) as f64,
            "1/kinst",
        );
        m.put(
            "mem.dram_row_hit_ratio",
            Self::ratio(self.dram_row_hits, self.dram_requests),
            "ratio",
        );
        m.put("mem.pf_issued", per_pass(self.pf_issued), "count");
        m.put(
            "mem.pf_accuracy",
            Self::ratio(self.pf_useful, self.pf_issued),
            "ratio",
        );
        m.put(
            "mem.pf_late_frac",
            Self::ratio(self.pf_late, self.pf_useful),
            "ratio",
        );
    }
}

/// Replays every program's eval-window loads and stores through a fresh
/// `MemoryHierarchy` (one instruction per cycle); returns host ns and
/// accesses replayed, and prefetches issued.
fn replay(progs: &[Program], spec: &str) -> (u128, u64, u64) {
    let mut cfg = HierarchyConfig::skylake_like();
    cfg.prefetcher = spec.parse().expect("zoo spec parses");
    let (mut ns, mut accesses, mut issued) = (0u128, 0u64, 0u64);
    for p in progs {
        let mut h = MemoryHierarchy::new(cfg);
        let prog = &p.eval.program;
        let t = Instant::now();
        for (now, rec) in p.eval_trace.iter().enumerate() {
            let inst = prog.inst(rec.pc);
            if inst.is_load() {
                std::hint::black_box(h.load(rec.addr, u64::from(rec.pc), now as u64));
            } else if inst.is_store() {
                std::hint::black_box(h.store(rec.addr, u64::from(rec.pc), now as u64));
            } else {
                continue;
            }
            accesses += 1;
        }
        ns += t.elapsed().as_nanos();
        issued += h.stats().prefetch_totals().issued;
    }
    (ns, accesses, issued)
}

/// Host ns per replayed access and prefetches issued, per zoo mechanism:
/// one untimed round, then rounds in alternating mechanism order,
/// reporting each mechanism's median.
fn replay_memory(progs: &[Program], m: &mut Metrics) {
    const ROUNDS: usize = 5;
    replay(progs, ZOO[0].1);
    let mut ns_per = vec![Vec::new(); ZOO.len()];
    let mut issued = vec![0; ZOO.len()];
    for round in 0..ROUNDS {
        for k in pass_order(ZOO.len(), round, &(0..ZOO.len()).collect::<Vec<_>>()) {
            let (ns, accesses, n) = replay(progs, ZOO[k].1);
            ns_per[k].push(ns as f64 / accesses.max(1) as f64);
            issued[k] = n;
        }
    }
    eprintln!("[perfbench] prefetches issued per mechanism (eval-window replay):");
    for (k, (label, spec)) in ZOO.iter().enumerate() {
        let flag = if issued[k] == 0 && *spec != "none" {
            "  <- ISSUED NOTHING"
        } else {
            ""
        };
        eprintln!("  {spec:<12} {:>9}{flag}", issued[k]);
        m.put(
            format!("mem.replay_ns_per_access.{label}"),
            median(&ns_per[k]),
            "ns",
        );
        m.put(
            format!("mem.replay_pf_issued.{label}"),
            issued[k] as f64,
            "count",
        );
    }
}

/// The profile/slicer per-layer metrics, per pass (or per set-up).
fn slicer_metrics(spans: &Spans, notes: &[&Annotation], passes: usize, m: &mut Metrics) {
    let n = passes.max(1) as f64;
    m.put("profile.classify_ms", spans.total("classify") / n, "ms");
    let sum = |f: fn(&Annotation) -> usize| notes.iter().map(|a| f(a)).sum::<usize>() as f64;
    m.put("profile.delinquent_loads", sum(|a| a.delinquent), "count");
    m.put("profile.hard_branches", sum(|a| a.hard_branches), "count");
    for layer in ["depgraph", "extract", "filter", "annotate"] {
        m.put(format!("slicer.{layer}_ms"), spans.total(layer) / n, "ms");
    }
    m.put("slicer.slices", sum(|a| a.slices), "count");
    let lens: Vec<f64> = notes.iter().map(|a| a.mean_slice_len).collect();
    m.put(
        "slicer.mean_slice_len",
        lens.iter().sum::<f64>() / lens.len().max(1) as f64,
        "inst",
    );
    m.put("slicer.critical_insts", sum(|a| a.map.count()), "count");
    m.put("workloads.build_ms", median(&spans.build_ms), "ms");
    m.put("emu.ns_per_inst", median(&spans.emu_ns_per_inst), "ns");
}

/// The paper comparison printed with every result.
fn print_against_paper(gains: &[(&str, f64)]) {
    eprintln!("[perfbench] CRISP over OOO (simulated IPC gain) against the paper:");
    for (name, gain) in gains {
        let paper = if name.starts_with("pointer_chase") {
            "paper Figure 1: >30% average-UPC gain"
        } else {
            "not validated against hardware"
        };
        eprintln!("  {name:<28} {gain:>+7.2}%   {paper}");
    }
}

/// Pass order: a seeded permutation, reversed on every other pass, so
/// no job always runs first (or last) after the warm-up.
fn pass_order(n: usize, pass: usize, rng_order: &[usize]) -> Vec<usize> {
    debug_assert_eq!(rng_order.len(), n);
    let mut order = rng_order.to_vec();
    if pass % 2 == 1 {
        order.reverse();
    }
    order
}

/// Pushes the end-to-end metrics of an in-process workload. Each job
/// runs once per untraced pass and is reported at its fastest of them
/// (warm and cold); `pipeline_s` is one pass at those times. Every time
/// is scaled by `clock` to the reference host; the raw pass time is a
/// note.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    m: &mut Metrics,
    out: &mut Outcome,
    clock: &Clock,
    setup_s: &[f64],
    passes: usize,
    pipeline_s: f64,
    warm_ms: Vec<f64>,
    cold_ms: &[f64],
) {
    let k = clock.scale();
    clock.note(out);
    out.note("host_pipeline_s", Value::Num(pipeline_s));
    out.note("timed_passes", Value::Num(passes as f64));
    m.put("setup_s", median(setup_s) * k, "s");
    timings(
        m,
        out,
        &Timings {
            pipeline_s: pipeline_s * k,
            jobs_per_s: warm_ms.len() as f64 / (pipeline_s * k).max(1e-9),
            warm_ms: warm_ms.iter().map(|w| w * k).collect(),
            cold_best_ms: median(cold_ms) * k,
            cold_runs: passes,
        },
    );
    m.put(
        "peak_rss_mb",
        peak_rss_mb(std::process::id()) * 1.048_576,
        "MB",
    );
}

/// `sim-irregular`: the engine alone. Each of gcc, xz, mcf and
/// pointer_chase runs under {oldest, crisp} × {bop+stream, ghbw}; a job
/// is one program's four simulations, set-up builds the programs,
/// emulates both windows and builds the CRISP maps. Every pass first
/// rebuilds each program's eval input from nothing, so each job is
/// timed twice: the simulations alone (warm, on prepared inputs) and
/// with the program's rebuild (cold). Each simulation and rebuild is
/// taken at its fastest over the passes.
pub fn sim_irregular(o: &Opts, out: &mut Outcome, gate: &mut Gate, m: &mut Metrics) {
    let pc = PipelineConfig {
        train_instructions: IRREGULAR_WINDOWS.train,
        eval_instructions: IRREGULAR_WINDOWS.eval,
        ..PipelineConfig::paper()
    };
    let mut spans = Spans::new(o.trace);
    let mut setup_s = Vec::new();
    let mut prepared: Option<(Vec<Program>, Vec<Annotation>)> = None;
    for rep in 0..if o.trace { 1 } else { IRREGULAR_SETUPS } {
        let t = Instant::now();
        let progs: Vec<Program> = IRREGULAR
            .iter()
            .map(|n| Program::prepare(n, &IRREGULAR_WINDOWS, &mut spans))
            .collect();
        let mut notes = Vec::new();
        for p in &progs {
            out.attempted += 1;
            match annotate(p, &pc, profile_config(), &mut spans) {
                Ok(a) => {
                    gate.check(
                        &format!("sim-irregular/{}/profile", p.name),
                        &a.profile,
                        p.train_trace.len(),
                    );
                    notes.push(a);
                }
                Err(e) => {
                    out.failed += 1;
                    out.violation(e);
                    return;
                }
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, prev)) = &prepared {
            for (a, b) in prev.iter().zip(&notes) {
                if a.map.as_slice() != b.map.as_slice() {
                    out.violation(format!("set-up {rep} built a different CRISP map"));
                }
            }
        }
        prepared = Some((progs, notes));
    }
    let (mut progs, notes) = prepared.expect("at least one set-up");

    let jobs: Vec<(usize, Sched, Mech)> = (0..progs.len())
        .flat_map(|p| {
            [Sched::Oldest, Sched::Crisp]
                .into_iter()
                .flat_map(move |s| [Mech::BopStream, Mech::Ghbw].map(|m| (p, s, m)))
        })
        .collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    Rng::new(o.seed).shuffle(&mut order);

    // Host times of the untraced passes, ms: each simulation's, and each
    // program's eval-input rebuild.
    let mut sim_ms: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut rebuild_ms: Vec<Vec<f64>> = vec![Vec::new(); progs.len()];
    let mut clock = Clock::default();
    let mut ipc: BTreeMap<(usize, Sched, Mech), f64> = BTreeMap::new();
    let mut run_pass = |pass: usize,
                        traced: bool,
                        totals: &mut SimTotals,
                        timed: bool,
                        out: &mut Outcome,
                        gate: &mut Gate|
     -> f64 {
        let t = Instant::now();
        for (p, prog) in progs.iter_mut().enumerate() {
            let ms = prog.rebuild_eval(&IRREGULAR_WINDOWS) * 1e3;
            if timed {
                rebuild_ms[p].push(ms);
            }
        }
        for j in pass_order(jobs.len(), pass, &order) {
            let (p, sched, mech) = jobs[j];
            let prog = &progs[p];
            let mut cfg = eval_config(sched, mech);
            cfg.hostprof = traced;
            cfg.record_upc_timeline = traced;
            let map = (sched == Sched::Crisp).then_some(&notes[p].map);
            let key = format!(
                "sim-irregular/{}/{}/{}",
                prog.name,
                sched.label(),
                mech.label()
            );
            out.attempted += 1;
            match simulate(cfg, &prog.eval, &prog.eval_trace, map) {
                Ok((res, secs)) => {
                    if traced {
                        gate.check_traced(&key, &res, prog.eval_trace.len());
                    } else {
                        gate.check(&key, &res, prog.eval_trace.len());
                        if timed {
                            sim_ms[j].push(secs * 1e3);
                        }
                        ipc.insert(jobs[j], res.ipc());
                    }
                    totals.add(&res, secs);
                }
                Err(e) => {
                    out.failed += 1;
                    out.violation(e);
                }
            }
            // Traced passes run the clock too, so that they do the same
            // work as untraced ones apart from the tracing.
            if timed || traced {
                clock.tick();
            }
        }
        t.elapsed().as_secs_f64()
    };

    run_pass(0, false, &mut SimTotals::default(), false, out, gate);

    let (mut untraced, mut traced) = (SimTotals::default(), SimTotals::default());
    let (mut pass_s, mut traced_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut i = 0;
    let mut all_s = Vec::new();
    while another_pass(started, o.seconds, &all_s)
        || pass_s.is_empty()
        || traced_s.len() < usize::from(o.trace)
    {
        if o.trace && traced_pass(i) {
            traced_s.push(run_pass(i + 1, true, &mut traced, false, out, gate));
            all_s.extend(traced_s.last());
        } else {
            pass_s.push(run_pass(i + 1, false, &mut untraced, true, out, gate));
            all_s.extend(pass_s.last());
        }
        i += 1;
    }

    let gains: Vec<(String, f64)> = jobs
        .iter()
        .filter(|j| j.1 == Sched::Crisp)
        .map(|&(p, _, mech)| {
            let base = ipc[&(p, Sched::Oldest, mech)];
            let crisp = ipc[&(p, Sched::Crisp, mech)];
            (
                format!("{}/{}", progs[p].name, mech.spec()),
                (crisp / base - 1.0) * 100.0,
            )
        })
        .collect();
    print_against_paper(
        &gains
            .iter()
            .map(|(n, g)| (n.as_str(), *g))
            .collect::<Vec<_>>(),
    );
    let speedup = geomean_pct(&gains.iter().map(|g| g.1).collect::<Vec<_>>());
    let kips = untraced.retired as f64 / 1e3 / untraced.host_s.max(1e-9);

    if !o.trace {
        eprintln!("[perfbench] passes {pass_s:.3?} s");
        // A job is one program's four simulations, each at its fastest.
        let mut warm_ms = vec![0.0; progs.len()];
        for (&(p, _, _), s) in jobs.iter().zip(&sim_ms) {
            warm_ms[p] += best(s);
        }
        let cold_ms: Vec<f64> = warm_ms
            .iter()
            .zip(&rebuild_ms)
            .map(|(w, r)| w + best(r))
            .collect();
        let pipeline_s = cold_ms.iter().sum::<f64>() / 1e3;
        end_to_end(
            m,
            out,
            &clock,
            &setup_s,
            pass_s.len(),
            pipeline_s,
            warm_ms,
            &cold_ms,
        );
        return;
    }
    m.put("kips", kips, "kIPS");
    m.put("crisp_speedup_pct", speedup, "%");
    traced.per_layer(&untraced, traced_s.len(), m);
    replay_memory(&progs, m);
    slicer_metrics(&spans, &notes.iter().collect::<Vec<_>>(), 1, m);
    m.put(
        "obs.trace_overhead_pct",
        (median(&traced_s) / median(&pass_s) - 1.0) * 100.0,
        "%",
    );
}

/// The outputs of one program's whole FDO pipeline.
struct PipelineRun {
    /// Host seconds of each stage, in [`STAGES`] order.
    stage_s: [f64; STAGES.len()],
    note: Annotation,
    baseline: SimResult,
    crisp: SimResult,
}

/// The timed stages of one program's pipeline. The first, preparing its
/// inputs, is what makes a job cold.
const STAGES: [&str; 5] = ["prepare", "profile", "slice", "baseline", "crisp"];

/// One program's whole `crisp pipeline` flow: build, emulate, profile,
/// classify, slice, filter, annotate, then the baseline and CRISP runs.
fn pipeline(
    name: &'static str,
    traced: bool,
    spans: &mut Spans,
    sims: &mut SimTotals,
) -> Result<PipelineRun, String> {
    let pc = PipelineConfig {
        train_instructions: FDO_WINDOWS.train,
        eval_instructions: FDO_WINDOWS.eval,
        ..PipelineConfig::paper()
    };
    let t = Instant::now();
    let p = Program::prepare(name, &FDO_WINDOWS, spans);
    let prepare_s = t.elapsed().as_secs_f64();
    let obs = |mut cfg: SimConfig| {
        cfg.hostprof = traced;
        cfg.record_upc_timeline = traced;
        cfg
    };
    let t = Instant::now();
    let note = annotate(&p, &pc, obs(profile_config()), spans)?;
    let annotate_s = t.elapsed().as_secs_f64();
    let (baseline, base_s) = simulate(
        obs(eval_config(Sched::Oldest, Mech::BopStream)),
        &p.eval,
        &p.eval_trace,
        None,
    )?;
    let (crisp, crisp_s) = simulate(
        obs(eval_config(Sched::Crisp, Mech::BopStream)),
        &p.eval,
        &p.eval_trace,
        Some(&note.map),
    )?;
    sims.add(&note.profile, note.profile_s);
    sims.add(&baseline, base_s);
    sims.add(&crisp, crisp_s);
    Ok(PipelineRun {
        stage_s: [
            prepare_s,
            note.profile_s,
            annotate_s - note.profile_s,
            base_s,
            crisp_s,
        ],
        note,
        baseline,
        crisp,
    })
}

/// `fdo-pipeline`: the whole CRISP FDO flow on perlbench, bwaves and
/// xhpcg; a job is one program's pipeline, set-up builds and emulates.
/// Every job prepares its own inputs, so each one is timed twice: whole
/// (the cold job, from nothing) and without its build and emulation
/// (the warm job, on prepared inputs). A job's fastest time is the sum
/// of its stages' fastest times.
pub fn fdo_pipeline(o: &Opts, out: &mut Outcome, gate: &mut Gate, m: &mut Metrics) {
    let mut setup_s = Vec::new();
    for _ in 0..if o.trace { 1 } else { FDO_SETUPS } {
        let t = Instant::now();
        for name in FDO {
            std::hint::black_box(Program::prepare(name, &FDO_WINDOWS, &mut Spans::new(false)));
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut order: Vec<usize> = (0..FDO.len()).collect();
    Rng::new(o.seed).shuffle(&mut order);
    let mut gains: BTreeMap<&str, f64> = BTreeMap::new();
    let mut last_notes: Vec<Annotation> = Vec::new();
    // Host seconds of each program's stages over the untraced passes.
    let mut stage_s: Vec<[Vec<f64>; STAGES.len()]> = vec![Default::default(); FDO.len()];
    let mut clock = Clock::default();
    let mut run_pass = |pass: usize,
                        traced: bool,
                        spans: &mut Spans,
                        totals: &mut SimTotals,
                        timed: bool,
                        out: &mut Outcome,
                        gate: &mut Gate|
     -> f64 {
        let t = Instant::now();
        last_notes.clear();
        for j in pass_order(FDO.len(), pass, &order) {
            let name = FDO[j];
            out.attempted += 1;
            match pipeline(name, traced, spans, totals) {
                Ok(run) => {
                    if timed {
                        for (samples, s) in stage_s[j].iter_mut().zip(run.stage_s) {
                            samples.push(s);
                        }
                    }
                    let len = FDO_WINDOWS.eval as usize;
                    let results = [
                        ("profile", &run.note.profile, FDO_WINDOWS.train as usize),
                        ("baseline", &run.baseline, len),
                        ("crisp", &run.crisp, len),
                    ];
                    for (label, res, n) in results {
                        let key = format!("fdo-pipeline/{name}/{label}");
                        if traced {
                            gate.check_traced(&key, res, n);
                        } else {
                            gate.check(&key, res, n);
                        }
                    }
                    gains.insert(name, run.crisp.speedup_over(&run.baseline));
                    last_notes.push(run.note);
                }
                Err(e) => {
                    out.failed += 1;
                    out.violation(e);
                }
            }
            // One clock run per stage; traced passes run it too, so that
            // they do the same work as untraced ones apart from the tracing.
            if timed || traced {
                for _ in STAGES {
                    clock.tick();
                }
            }
        }
        t.elapsed().as_secs_f64()
    };

    let mut spans_off = Spans::new(false);
    run_pass(
        0,
        false,
        &mut spans_off,
        &mut SimTotals::default(),
        false,
        out,
        gate,
    );

    let mut spans = Spans::new(o.trace);
    let (mut untraced, mut traced) = (SimTotals::default(), SimTotals::default());
    let (mut pass_s, mut traced_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut i = 0;
    let mut all_s = Vec::new();
    while another_pass(started, o.seconds, &all_s)
        || pass_s.is_empty()
        || traced_s.len() < usize::from(o.trace)
    {
        if o.trace && traced_pass(i) {
            let s = run_pass(i + 1, true, &mut spans, &mut traced, false, out, gate);
            traced_s.push(s);
            all_s.push(s);
        } else {
            let s = run_pass(i + 1, false, &mut spans_off, &mut untraced, true, out, gate);
            pass_s.push(s);
            all_s.push(s);
        }
        i += 1;
    }

    let list: Vec<(&str, f64)> = gains.iter().map(|(n, g)| (*n, *g)).collect();
    print_against_paper(&list);
    if !o.trace {
        eprintln!("[perfbench] passes {pass_s:.3?} s");
        let fastest: Vec<Vec<f64>> = stage_s
            .iter()
            .map(|stages| stages.iter().map(|s| best(s) * 1e3).collect())
            .collect();
        out.note(
            "stage_best_ms",
            Value::Obj(
                FDO.iter()
                    .zip(&fastest)
                    .map(|(n, f)| {
                        let stages = STAGES.iter().zip(f);
                        let ms = stages.map(|(s, v)| ((*s).to_string(), Value::Num(*v)));
                        ((*n).to_string(), Value::Obj(ms.collect()))
                    })
                    .collect(),
            ),
        );
        let warm_ms: Vec<f64> = fastest.iter().map(|f| f[1..].iter().sum()).collect();
        let cold_ms: Vec<f64> = fastest.iter().map(|f| f.iter().sum()).collect();
        let pipeline_s = cold_ms.iter().sum::<f64>() / 1e3;
        end_to_end(
            m,
            out,
            &clock,
            &setup_s,
            pass_s.len(),
            pipeline_s,
            warm_ms,
            &cold_ms,
        );
        return;
    }
    m.put(
        "kips",
        untraced.retired as f64 / 1e3 / untraced.host_s.max(1e-9),
        "kIPS",
    );
    m.put(
        "crisp_speedup_pct",
        geomean_pct(&gains.values().copied().collect::<Vec<_>>()),
        "%",
    );
    traced.per_layer(&untraced, traced_s.len(), m);
    let progs: Vec<Program> = FDO
        .iter()
        .map(|n| Program::prepare(n, &FDO_WINDOWS, &mut Spans::new(false)))
        .collect();
    replay_memory(&progs, m);
    slicer_metrics(
        &spans,
        &last_notes.iter().collect::<Vec<_>>(),
        traced_s.len(),
        m,
    );
    m.put(
        "obs.trace_overhead_pct",
        (median(&traced_s) / median(&pass_s) - 1.0) * 100.0,
        "%",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The staged pipeline the benchmark times is call-for-call the
    /// library's `run_crisp_pipeline`: same map, same simulations.
    #[test]
    fn staged_pipeline_matches_run_crisp_pipeline() {
        let w = Windows {
            train: 40_000,
            eval: 60_000,
        };
        let pc = PipelineConfig {
            train_instructions: w.train,
            eval_instructions: w.eval,
            ..PipelineConfig::paper()
        };
        let lib = crisp_core::run_crisp_pipeline("mcf", &pc).expect("library pipeline runs");
        let p = Program::prepare("mcf", &w, &mut Spans::new(false));
        let a = annotate(&p, &pc, profile_config(), &mut Spans::new(true)).expect("annotates");
        let run = |sched, map| {
            simulate(
                eval_config(sched, Mech::BopStream),
                &p.eval,
                &p.eval_trace,
                map,
            )
            .expect("simulates")
            .0
        };
        assert_eq!(a.map.as_slice(), lib.map.as_slice());
        assert_eq!(a.profile.snapshot_words(), lib.profile.snapshot_words());
        assert_eq!(
            run(Sched::Oldest, None).snapshot_words(),
            lib.baseline.snapshot_words()
        );
        assert_eq!(
            run(Sched::Crisp, Some(&a.map)).snapshot_words(),
            lib.crisp.snapshot_words()
        );
        assert_eq!(a.delinquent, lib.delinquent.len());
        assert_eq!(a.hard_branches, lib.hard_branches.len());
        assert_eq!(a.mean_slice_len, lib.mean_load_slice_len());
    }

    #[test]
    fn passes_alternate_order_and_tracing() {
        let order = [2, 0, 1];
        assert_eq!(pass_order(3, 0, &order), vec![2, 0, 1]);
        assert_eq!(pass_order(3, 1, &order), vec![1, 0, 2]);
        let kinds: Vec<bool> = (0..8).map(traced_pass).collect();
        assert_eq!(kinds, [false, true, true, false, false, true, true, false]);
    }
}

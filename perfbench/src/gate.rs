//! The simulated-output gate: every untraced simulation the benchmark
//! runs is hashed over `SimResult::snapshot_words()` (which excludes the
//! host-side `hostprof`) and must match both its own repeats and the
//! reference table kept next to the benchmark (`reference.txt`). It also
//! fails when a run retires fewer instructions than its trace holds or a
//! prefetcher reports more useful prefetches than it issued.
//!
//! A performance change to the engine, memory model or slicer must leave
//! every hash unchanged; a change that alters simulated behaviour on
//! purpose re-blesses the table with `run.py ... --bless`.

use crisp_sim::SimResult;
use std::collections::BTreeMap;
use std::path::Path;

/// FNV-1a (64-bit) over a word vector, little-endian bytes.
pub fn digest(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Reference digests plus the digests seen during this run.
pub struct Gate {
    reference: BTreeMap<String, u64>,
    seen: BTreeMap<String, (u64, u64)>,
    bless: bool,
    /// Gate failures, in the order found.
    pub failures: Vec<String>,
}

impl Gate {
    /// A gate over a parsed reference table. With `bless`, digests are
    /// recorded instead of compared against the table.
    pub fn new(reference: BTreeMap<String, u64>, bless: bool) -> Gate {
        Gate {
            reference,
            seen: BTreeMap::new(),
            bless,
            failures: Vec::new(),
        }
    }

    /// Loads `reference.txt` (`<key> <16-hex digest>` per line, `#`
    /// comments). A missing file is an empty table, so every check fails
    /// until the table is blessed.
    pub fn load(path: &Path, bless: bool) -> Result<Gate, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut reference = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed reference line `{line}`"))?;
            let hash = u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("bad digest in `{line}`: {e}"))?;
            reference.insert(key.to_string(), hash);
        }
        Ok(Gate::new(reference, bless))
    }

    fn fail(&mut self, msg: String) {
        eprintln!("[perfbench] GATE FAILED: {msg}");
        self.failures.push(msg);
    }

    /// Checks the invariants every simulation must keep, traced or not.
    fn check_invariants(&mut self, key: &str, res: &SimResult, trace_len: usize) {
        if res.retired != trace_len as u64 {
            self.fail(format!(
                "{key}: retired {} of a {trace_len}-instruction trace",
                res.retired
            ));
        }
        for (i, e) in res.mem.prefetch.iter().enumerate() {
            if e.useful > e.issued {
                self.fail(format!(
                    "{key}: prefetcher #{i} useful {} > issued {}",
                    e.useful, e.issued
                ));
            }
        }
    }

    /// Gates one untraced simulation.
    pub fn check(&mut self, key: &str, res: &SimResult, trace_len: usize) {
        self.check_invariants(key, res, trace_len);
        let hash = digest(&res.snapshot_words());
        match self.seen.get(key) {
            Some(&(h, _)) if h != hash => {
                self.fail(format!(
                    "{key}: repeat digest {hash:016x} differs from {h:016x}"
                ));
                return;
            }
            Some(_) => return,
            None => {
                self.seen.insert(key.to_string(), (hash, res.cycles));
            }
        }
        if self.bless {
            return;
        }
        match self.reference.get(key) {
            Some(&r) if r == hash => {}
            Some(&r) => self.fail(format!(
                "{key}: digest {hash:016x} differs from reference {r:016x}"
            )),
            None => self.fail(format!("{key}: no reference digest (bless the table)")),
        }
    }

    /// Gates one traced simulation: observability must not perturb the
    /// machine, so its cycle count must equal the untraced run's.
    pub fn check_traced(&mut self, key: &str, res: &SimResult, trace_len: usize) {
        self.check_invariants(key, res, trace_len);
        match self.seen.get(key) {
            Some(&(_, cycles)) if cycles != res.cycles => self.fail(format!(
                "{key}: traced run took {} cycles, untraced {cycles}",
                res.cycles
            )),
            Some(_) => {}
            None => self.fail(format!("{key}: traced before any untraced run")),
        }
    }

    /// Writes the table back with this run's digests merged in.
    pub fn bless_into(&self, path: &Path) -> Result<(), String> {
        let mut table = self.reference.clone();
        for (k, (h, _)) in &self.seen {
            table.insert(k.clone(), *h);
        }
        let mut text = String::from(
            "# Simulated-output reference digests: FNV-1a over SimResult::snapshot_words()\n\
             # of every untraced simulation the benchmark runs. Regenerate only for a\n\
             # change that alters simulated behaviour on purpose:\n\
             #   python3 perfbench/run.py --workload <name> --seed 1 --seconds 1 --trace 0 --bless\n",
        );
        for (k, h) in table {
            text.push_str(&format!("{k} {h:016x}\n"));
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{eval_config, Mech, Program, Sched, Spans, IRREGULAR_WINDOWS};
    use crisp_sim::Simulator;

    fn reference() -> Gate {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.txt");
        Gate::load(&path, false).expect("reference table parses")
    }

    /// The gate passes the benchmark's own configuration and trips on a
    /// one-entry-smaller reservation station: a perturbed machine cannot
    /// slip through. (A one-entry-smaller ROB is not a usable probe: on
    /// gcc, xz, mcf and pointer_chase a 223-entry ROB simulates
    /// cycle-identically to the 224-entry one.)
    #[test]
    fn perturbed_config_trips_the_gate() {
        let prog = Program::prepare("gcc", &IRREGULAR_WINDOWS, &mut Spans::new(false));
        let key = "sim-irregular/gcc/oldest/bop_stream";
        let run = |cfg| {
            Simulator::try_new(cfg)
                .expect("valid config")
                .try_run(&prog.eval.program, &prog.eval_trace, None)
                .expect("simulation runs")
        };
        let cfg = eval_config(Sched::Oldest, Mech::BopStream);

        let mut gate = reference();
        gate.check(key, &run(cfg.clone()), prog.eval_trace.len());
        assert!(gate.failures.is_empty(), "{:?}", gate.failures);

        let mut perturbed = cfg;
        perturbed.rs_entries -= 1;
        let mut gate = reference();
        gate.check(key, &run(perturbed), prog.eval_trace.len());
        assert_eq!(gate.failures.len(), 1, "{:?}", gate.failures);
        assert!(gate.failures[0].contains("differs from reference"));
    }

    #[test]
    fn diverging_repeats_and_short_runs_trip_the_gate() {
        let mut gate = Gate::new(BTreeMap::new(), true);
        let mut res = SimResult {
            retired: 10,
            cycles: 20,
            ..SimResult::default()
        };
        gate.check("k", &res, 10);
        assert!(gate.failures.is_empty());
        res.cycles = 21;
        gate.check("k", &res, 10);
        assert!(gate.failures[0].contains("repeat digest"));
        gate.check("short", &res, 11);
        assert!(gate.failures[1].contains("retired 10 of a 11"));
        res.mem.prefetch[0].issued = 1;
        res.mem.prefetch[0].useful = 2;
        gate.check("pf", &res, 10);
        assert!(gate.failures[2].contains("useful 2 > issued 1"));
        res.mem.prefetch[0].useful = 0;
        gate.check_traced("k", &res, 10);
        assert!(gate.failures[3].contains("traced run took 21 cycles"));
    }

    #[test]
    fn unknown_keys_fail_unless_blessing() {
        let res = SimResult::default();
        let mut gate = Gate::new(BTreeMap::new(), false);
        gate.check("new", &res, 0);
        assert!(gate.failures[0].contains("no reference digest"));
    }
}

//! The driver: prepares each workload once, then re-executes this program
//! once per (workload, round) so every pass has a fresh address space,
//! round-robin over the workloads, and finally once more per workload
//! with tracing on.

use crate::decl::Workload;
use crate::pass::PassOut;
use sim_core::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// How long the untraced rounds go on.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many rounds.
    Rounds(usize),
    /// Whole rounds until this many seconds have passed, three at least.
    Seconds(f64),
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub quick: bool,
    pub budget: Budget,
    /// Run the traced pass (per-layer metrics) after the rounds.
    pub trace: bool,
}

/// Fewest untraced passes behind a reported number.
const MIN_ROUNDS: usize = 3;

/// One untraced pass as the driver saw it.
pub struct PassRecord {
    pub round: usize,
    /// Child wall time outside the timed region: process start, input
    /// generation, cache copy, server bind, warm-up cell, tear-down.
    pub setup_s: f64,
    pub out: PassOut,
}

/// Everything measured for one workload in this invocation.
pub struct WorkloadRun {
    pub workload: Workload,
    /// Wall seconds of the one-time preparation (gate, cache population).
    /// One sample per run, so it is reported beside `setup_s`, not in it.
    pub prep_s: f64,
    /// Cells the preparation's correctness gate checked, and how many failed.
    pub gate: PassOut,
    pub passes: Vec<PassRecord>,
    pub traced: Option<PassOut>,
    /// Failures the driver itself found (a pass that died, digests that
    /// differ between passes), in cells.
    pub driver_failed: u64,
    pub notes: Vec<String>,
}

fn work_dir(workload: Workload) -> PathBuf {
    crate::out_dir().join("work").join(format!("{}-{}", std::process::id(), workload.name()))
}

/// Re-executes this program as `mode` (`prep` or `pass`) and parses the
/// report on its last line. Returns the child's total wall seconds too.
fn child(
    mode: &str,
    workload: Workload,
    o: &Options,
    trace: bool,
) -> (Result<PassOut, String>, f64) {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.arg(mode)
        .args(["--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(work_dir(workload));
    if o.quick {
        cmd.arg("--quick");
    }
    let t = Instant::now();
    // `output` waits for the child to end and collects both streams.
    let output = cmd.output().expect("re-execute the benchmark");
    let wall = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .next_back()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|j| PassOut::from_json(&j));
    let result = match parsed {
        Some(out) if output.status.success() => Ok(out),
        _ => Err(format!(
            "{mode} of {} ended with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    };
    (result, wall)
}

impl WorkloadRun {
    fn prepare(workload: Workload, o: &Options) -> WorkloadRun {
        let dir = work_dir(workload);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work directory");
        let mut run = WorkloadRun {
            workload,
            prep_s: 0.0,
            gate: PassOut::default(),
            passes: Vec::new(),
            traced: None,
            driver_failed: 0,
            notes: Vec::new(),
        };
        let (gate, wall) = child("prep", workload, o, false);
        run.prep_s = wall;
        match gate {
            Ok(gate) => run.gate = gate,
            Err(why) => run.driver_fail(1, why),
        }
        run
    }

    fn driver_fail(&mut self, cells: u64, why: String) {
        eprintln!("benchmark: FAILED: {why}");
        self.driver_failed += cells.max(1);
        self.notes.push(why);
    }

    fn pass(&mut self, round: usize, o: &Options) {
        let (out, child_s) = child("pass", self.workload, o, false);
        match out {
            Ok(out) => {
                let setup_s = child_s - out.wall_s;
                eprintln!(
                    "benchmark: {:<15} round {round:>2}  wall {:.4} s  cpu {:.4} s  set-up {setup_s:.3} s",
                    self.workload.name(),
                    out.wall_s,
                    out.cpu_s
                );
                if let Some(first) = self.passes.first() {
                    if first.out.digest != out.digest {
                        let why = format!(
                            "{}: round {round} digest {} differs from round {} digest {}",
                            self.workload.name(),
                            out.digest,
                            first.round,
                            first.out.digest
                        );
                        self.driver_fail(out.cells, why);
                    }
                }
                self.passes.push(PassRecord { round, setup_s, out });
            }
            Err(why) => self.driver_fail(1, why),
        }
    }

    fn traced_pass(&mut self, o: &Options) {
        match child("pass", self.workload, o, true).0 {
            Ok(out) => self.traced = Some(out),
            Err(why) => self.driver_fail(1, why),
        }
    }

    /// Cells attempted over the gate and every pass.
    pub fn attempted(&self) -> u64 {
        self.gate.cells
            + self.passes.iter().map(|p| p.out.cells).sum::<u64>()
            + self.traced.as_ref().map_or(0, |t| t.cells)
    }

    pub fn failed(&self) -> u64 {
        self.gate.failed
            + self.passes.iter().map(|p| p.out.failed).sum::<u64>()
            + self.traced.as_ref().map_or(0, |t| t.failed)
            + self.driver_failed
    }

    pub fn all_notes(&self) -> Vec<String> {
        let mut notes = self.gate.notes.clone();
        for p in &self.passes {
            notes.extend(p.out.notes.iter().cloned());
        }
        if let Some(t) = &self.traced {
            notes.extend(t.notes.iter().cloned());
        }
        notes.extend(self.notes.iter().cloned());
        notes
    }
}

/// Runs the benchmark as `o` describes. Returns one record per workload,
/// in the order given, and the number of rounds made.
pub fn run(o: &Options) -> (Vec<WorkloadRun>, usize) {
    std::fs::create_dir_all(crate::out_dir()).expect("create out directory");
    let mut runs: Vec<WorkloadRun> =
        o.workloads.iter().map(|&w| WorkloadRun::prepare(w, o)).collect();
    let started = Instant::now();
    let mut round = 0;
    loop {
        let done = match o.budget {
            Budget::Rounds(n) => round >= n,
            Budget::Seconds(s) => round >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        for run in &mut runs {
            run.pass(round, o);
        }
        round += 1;
    }
    if o.trace {
        let _ = std::fs::remove_file(crate::trace_path());
        for run in &mut runs {
            eprintln!("benchmark: {:<15} traced pass", run.workload.name());
            run.traced_pass(o);
        }
    }
    for run in &runs {
        remove_work_dir(&work_dir(run.workload));
    }
    (runs, round)
}

fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Leave no empty `work/` behind once the last driver is done.
    let _ = dir.parent().map(std::fs::remove_dir);
}

//! One pass: a fresh process that sets a workload up, runs its fixed
//! amount of work once with the clock on, checks the outputs, and reports
//! on its last line of standard output.

use crate::decl::Workload;
use crate::host;
use sim_core::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What a pass (or the one-time preparation) is asked to do.
#[derive(Debug, Clone)]
pub struct PassArgs {
    pub workload: Workload,
    /// Feeds `Experiment::seed` / the sweep spec's `seed`, nothing else.
    pub seed: u64,
    /// `--quick`: windows and repeat counts divided by 8.
    pub quick: bool,
    /// Record spans and run the isolated per-layer probes.
    pub trace: bool,
    /// The driver's scratch directory for this workload (relative to the
    /// benchmark package root, which is the working directory).
    pub work_dir: PathBuf,
}

impl PassArgs {
    /// Divides a full-size window or count for `--quick`.
    pub fn scaled(&self, full: f64) -> f64 {
        if self.quick {
            full / 8.0
        } else {
            full
        }
    }

    pub fn scaled_count(&self, full: usize) -> usize {
        (self.scaled(full as f64) as usize).max(2)
    }
}

/// What a pass reports. Per-layer values missing from `layer` mean 0.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Seconds of the timed region.
    pub wall_s: f64,
    /// Process CPU seconds spent inside the timed region.
    pub cpu_s: f64,
    /// Cells settled in the timed region.
    pub cells: u64,
    /// Cells that errored, were quarantined, or belong to a wrong report.
    pub failed: u64,
    /// `VmHWM` at the end of the pass.
    pub vm_hwm_kib: u64,
    /// Content hash of every cell's `RunStats` (sim) or of the report bytes.
    pub digest: String,
    pub layer: BTreeMap<String, f64>,
    /// Traced passes: seconds of self time inside layer spans.
    pub span_self_s: f64,
    /// Why cells failed, or what a reader should know about this pass.
    pub notes: Vec<String>,
}

impl PassOut {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(crate::decl::per_layer(name).is_some(), "undeclared per-layer metric {name}");
        self.layer.insert(name.to_string(), value);
    }

    /// The simulated work behind a pass's cells: `RunStats.mem` merged over
    /// the runs, and their mean LLC hit rate.
    pub fn set_simulated_work(&mut self, runs: &[&sim::RunStats]) {
        let mut mem = sim_core::stats::MemStats::default();
        for r in runs {
            mem.merge(&r.mem);
        }
        let mitigations = mem.vrr_commands + mem.rfm_commands;
        self.set("memctrl.activations", mem.activations as f64);
        self.set("memctrl.row_hit_rate", mem.row_hit_rate());
        self.set("memctrl.refreshes", mem.refreshes as f64);
        self.set("memctrl.mitigations", mitigations as f64);
        self.set("memctrl.counter_ops", (mem.counter_reads + mem.counter_writes) as f64);
        self.set("memctrl.reset_sweeps", mem.reset_sweeps as f64);
        self.set("memctrl.mitigation_block_cycles", mem.mitigation_block_cycles as f64);
        self.set(
            "tracker.mitigations_per_kact",
            1e3 * mitigations as f64 / mem.activations.max(1) as f64,
        );
        let hit_rates: Vec<f64> = runs.iter().map(|r| r.llc_hit_rate).collect();
        self.set("llcache.hit_rate", sim_core::stats::mean(&hit_rates));
    }

    pub fn fail(&mut self, cells: u64, why: impl Into<String>) {
        self.failed += cells;
        self.notes.push(why.into());
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("wall_s", Json::num(self.wall_s)),
            ("cpu_s", Json::num(self.cpu_s)),
            ("cells", Json::count(self.cells)),
            ("failed", Json::count(self.failed)),
            ("vm_hwm_kib", Json::count(self.vm_hwm_kib)),
            ("digest", Json::str(&self.digest)),
            ("span_self_s", Json::num(self.span_self_s)),
            (
                "layer",
                Json::Obj(self.layer.iter().map(|(k, v)| (k.clone(), Json::num(*v))).collect()),
            ),
            ("notes", Json::Arr(self.notes.iter().map(Json::str).collect())),
        ])
    }

    pub fn from_json(j: &Json) -> Option<PassOut> {
        let num = |key: &str| match j.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        };
        let layer = match j.get("layer")? {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| match v {
                    Json::Num(n) => Some((k.clone(), *n)),
                    _ => None,
                })
                .collect::<Option<BTreeMap<_, _>>>()?,
            _ => return None,
        };
        let notes = match j.get("notes")? {
            Json::Arr(items) => items
                .iter()
                .map(|n| match n {
                    Json::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(PassOut {
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            cells: num("cells")? as u64,
            failed: num("failed")? as u64,
            vm_hwm_kib: num("vm_hwm_kib")? as u64,
            digest: match j.get("digest")? {
                Json::Str(s) => s.clone(),
                _ => return None,
            },
            span_self_s: num("span_self_s")?,
            layer,
            notes,
        })
    }
}

/// Wall and process-CPU clocks read together around a timed region.
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock { cpu: host::cpu_seconds(), wall: Instant::now() }
    }

    /// `(wall seconds, CPU seconds)` since [`Clock::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, host::cpu_seconds() - self.cpu)
    }
}

/// Runs the one-time preparation of a workload: the correctness gate on
/// short windows, and for the warm workloads the cold sweep that
/// populates the cache. Returns the gate's verdict in `failed`/`notes`.
pub fn prepare(args: &PassArgs) -> PassOut {
    if args.workload.is_sim() {
        crate::sims::gate(args)
    } else {
        crate::campaign::prepare(args)
    }
}

/// Runs one pass of a workload.
pub fn run(args: &PassArgs) -> PassOut {
    let mut out =
        if args.workload.is_sim() { crate::sims::pass(args) } else { crate::campaign::pass(args) };
    out.vm_hwm_kib = host::vm_hwm_kib();
    out
}

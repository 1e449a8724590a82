//! The four `sim_*` workloads: a handful of cells, each one
//! `Experiment::build_system(false)` + `System::run_engine(EventDriven)`
//! on the calling thread — the call a sweep worker makes per cell.

use crate::decl::Workload;
use crate::pass::{Clock, PassArgs, PassOut};
use crate::probes;
use crate::trace::{spanned, Tracer};
use sim::experiment::{AttackChoice, Experiment};
use sim::{normalized_performance, Engine, EngineStats, RunStats, Threads};
use sim_core::addr::DramAddr;
use sim_core::cache::content_key;
use sim_core::events::MemEvent;
use sim_core::req::SourceId;
use sim_core::telemetry::Probe;
use sim_core::time::Cycle;
use sim_core::tracker::Activation;
use std::any::Any;
use std::time::Instant;
use workloads::Attack;

/// One simulated system run.
struct Cell {
    workload: &'static str,
    tracker: &'static str,
    attack: AttackChoice,
    /// Simulated window of the timed run.
    window_us: f64,
    /// Window of the dense-vs-event correctness gate (dense stepping of a
    /// quiet bus is ~9x slower than the timed engine, so it stays short).
    gate_window_us: f64,
    eight_channel: bool,
}

const fn cell(
    workload: &'static str,
    tracker: &'static str,
    attack: AttackChoice,
    window_us: f64,
    gate_window_us: f64,
) -> Cell {
    Cell { workload, tracker, attack, window_us, gate_window_us, eight_channel: false }
}

/// Window lengths are sized so one pass takes about 0.15 s on the reference
/// host (`sim_attack` 0.4 s): the best pass of a run is only as steady as a
/// pass is short (README.md, "Why the best pass").
fn cells(workload: Workload) -> Vec<Cell> {
    use AttackChoice::{None, Specific, Tailored};
    match workload {
        Workload::SimIdle => vec![
            cell("povray_like", "dapper-h", None, 2_000.0, 250.0),
            cell("namd_like", "none", None, 1_000.0, 250.0),
        ],
        Workload::SimSaturated => vec![
            cell("mcf_like", "dapper-h", None, 125.0, 100.0),
            cell("lbm_like", "none", None, 125.0, 100.0),
        ],
        Workload::SimAttack => vec![
            // No shorter: the trackers start to mitigate after ~120 us.
            cell("gcc_like", "hydra", Tailored, 150.0, 100.0),
            cell("milc_like", "dapper-h", Specific(Attack::RefreshAttack), 150.0, 100.0),
            cell("milc_like", "dapper-s", Specific(Attack::Streaming), 150.0, 100.0),
        ],
        Workload::Sim8ch => {
            vec![Cell { eight_channel: true, ..cell("mcf_like", "dapper-h", None, 200.0, 100.0) }]
        }
        other => panic!("{} is not a sim workload", other.name()),
    }
}

fn experiment(c: &Cell, seed: u64, window_us: f64) -> Experiment {
    let mut e = Experiment::new(c.workload)
        .tracker(c.tracker)
        .attack(c.attack)
        .seed(seed)
        .window_us(window_us)
        .threads(Threads::Seq);
    if c.eight_channel {
        e = e.eight_channel(2);
    }
    e
}

fn run_cell(e: &Experiment, engine: Engine) -> RunStats {
    e.build_system(false).run_engine(engine)
}

/// Content hash over every cell's `RunStats`, rendered with `{:?}` (which
/// prints floats shortest-round-trip, so equal digests mean equal stats).
fn digest(stats: &[&RunStats]) -> String {
    content_key(format!("{stats:?}").as_bytes())
}

/// The correctness gate: every cell gives identical `RunStats` on the
/// dense and the event-driven engine (short windows, untimed).
pub fn gate(args: &PassArgs) -> PassOut {
    let mut out = PassOut::default();
    for c in cells(args.workload) {
        let e = experiment(&c, args.seed, args.scaled(c.gate_window_us));
        out.cells += 1;
        if run_cell(&e, Engine::Dense) != run_cell(&e, Engine::EventDriven) {
            out.fail(
                1,
                format!("{} x {}: dense and event-driven RunStats differ", c.workload, c.tracker),
            );
        }
    }
    out
}

/// Captures the run's `MemEvent::Activate` stream, per channel.
struct ActCapture {
    acts: Vec<(u8, DramAddr, Cycle)>,
}

impl Probe for ActCapture {
    fn name(&self) -> &'static str {
        "benchmark-act-capture"
    }
    fn wants_events(&self) -> bool {
        true
    }
    fn on_event(&mut self, channel: u8, ev: &MemEvent) {
        if let MemEvent::Activate { addr, cycle } = ev {
            self.acts.push((channel, *addr, *cycle));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// What one timed cell leaves behind besides its `RunStats`.
struct CellRun {
    stats: RunStats,
    engine: EngineStats,
    frozen_core_cycles: u64,
    worker_respawns: u64,
    acts: Vec<(u8, DramAddr, Cycle)>,
}

fn timed_cell(e: &Experiment, id: u64, tracer: &mut Option<Tracer>) -> CellRun {
    let mut sys = spanned(tracer, "system.build", id, || e.build_system(false));
    if tracer.is_some() {
        sys.attach_probe(Box::new(ActCapture { acts: Vec::new() }));
    }
    let stats = spanned(tracer, "system.run", id, || sys.run_engine(Engine::EventDriven));
    let acts = sys
        .take_probes()
        .into_iter()
        .find_map(|p| p.into_any().downcast::<ActCapture>().ok())
        .map_or_else(Vec::new, |c| c.acts);
    CellRun {
        stats,
        engine: sys.engine_stats(),
        frozen_core_cycles: sys.frozen_core_cycles(),
        worker_respawns: sys.worker_respawns(),
        acts,
    }
}

pub fn pass(args: &PassArgs) -> PassOut {
    let cells = cells(args.workload);
    let exps: Vec<Experiment> =
        cells.iter().map(|c| experiment(c, args.seed, args.scaled(c.window_us))).collect();
    // One short cell before the clock starts: registry initialisation and
    // the allocator's first growth are set-up, not simulation.
    run_cell(&experiment(&cells[0], args.seed, 20.0), Engine::EventDriven);

    let mut tracer = args.trace.then(Tracer::new);
    let clock = Clock::start();
    let runs: Vec<CellRun> =
        exps.iter().enumerate().map(|(i, e)| timed_cell(e, i as u64, &mut tracer)).collect();
    let (wall_s, cpu_s) = clock.stop();

    let stats: Vec<&RunStats> = runs.iter().map(|r| &r.stats).collect();
    let mut out = PassOut {
        wall_s,
        cpu_s,
        cells: runs.len() as u64,
        digest: digest(&stats),
        ..PassOut::default()
    };
    out.set_simulated_work(&stats);
    counts(&mut out, &exps, &runs);
    out.set(
        "system.mcycles_per_s",
        stats.iter().map(|s| s.cycles).sum::<u64>() as f64 / wall_s / 1e6,
    );
    out.set("memctrl.host_ns_per_act", wall_s * 1e9 / out.layer["memctrl.activations"].max(1.0));
    out.set("runner.threads", 1.0);
    out.set("runner.cpu_over_wall", cpu_s / wall_s);
    if let Some(tracer) = tracer {
        traced_extras(&mut out, args, &cells, &exps, &runs, &tracer);
        tracer.append_jsonl(&crate::trace_path(), args.workload.name()).expect("write trace.jsonl");
    }
    out
}

/// The engine's and the model's counts: made by the program from its
/// inputs alone, they repeat exactly.
fn counts(out: &mut PassOut, exps: &[Experiment], runs: &[CellRun]) {
    let sum = |f: &dyn Fn(&CellRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let dense = sum(&|r| r.engine.dense_steps);
    let skipped = sum(&|r| r.engine.skipped_cycles);
    out.set("system.dense_step_fraction", dense / (dense + skipped).max(1.0));
    out.set("system.skips", sum(&|r| r.engine.skips));
    out.set("system.skipped_cycles", skipped);
    let core_cycles: f64 =
        runs.iter().zip(exps).map(|(r, e)| (r.stats.cycles * e.cfg.cpu.cores as u64) as f64).sum();
    out.set("system.frozen_cycle_fraction", sum(&|r| r.frozen_core_cycles) / core_cycles.max(1.0));
    let ticks = sum(&|r| r.engine.shard_ticks.iter().sum());
    let idle = sum(&|r| r.engine.shard_idle_skips.iter().sum());
    out.set("memctrl.shard_tick_fraction", ticks / (ticks + idle).max(1.0));
    out.set("pool.worker_respawns", sum(&|r| r.worker_respawns));
    let ipc: f64 = runs.iter().zip(exps).map(|(r, e)| r.stats.mean_ipc(&e.benign_cores())).sum();
    out.set("model.ipc_mean", ipc / runs.len() as f64);
}

/// The traced pass's additions: span-derived figures, the isolated
/// per-layer replays, and the ratios that need a second run of the cells.
fn traced_extras(
    out: &mut PassOut,
    args: &PassArgs,
    cells: &[Cell],
    exps: &[Experiment],
    runs: &[CellRun],
    tracer: &Tracer,
) {
    out.set("system.build_ms", tracer.median_us("system.build") / 1e3);

    // Replay each cell's captured ACT stream into fresh trackers built the
    // way `build_system` builds them, one per channel.
    let mut replay_s = 0.0;
    let mut replayed = 0u64;
    for (e, r) in exps.iter().zip(runs) {
        let g = e.cfg.geometry;
        let mut trackers: Vec<_> = (0..g.channels)
            .map(|ch| e.tracker.build(e.cfg.nrh, g, ch, e.cfg.seed ^ (ch as u64) << 8))
            .collect();
        let mut actions = Vec::new();
        let t = Instant::now();
        for &(ch, addr, cycle) in &r.acts {
            actions.clear();
            trackers[ch as usize]
                .on_activation(Activation { addr, source: SourceId(0), cycle }, &mut actions);
        }
        replay_s += t.elapsed().as_secs_f64();
        replayed += r.acts.len() as u64;
    }
    out.set("tracker.on_activation_ns", replay_s * 1e9 / replayed.max(1) as f64);
    out.set("tracker.replay_share", replay_s / out.wall_s);

    // Dense over event-driven wall on the same cells (their windows are
    // the eighth of the issue's sizes already).
    let time = |engine: Engine, e: &Experiment| {
        let t = Instant::now();
        let stats = run_cell(e, engine);
        (stats, t.elapsed().as_secs_f64())
    };
    let (mut dense_s, mut event_s) = (0.0, 0.0);
    for e in exps {
        let (dense_stats, d) = time(Engine::Dense, e);
        let (event_stats, ev) = time(Engine::EventDriven, e);
        if dense_stats != event_stats {
            out.fail(1, format!("{}: dense and event-driven RunStats differ", e.workload));
        }
        dense_s += d;
        event_s += ev;
    }
    out.set("system.dense_over_event", dense_s / event_s);

    // The paper's metric needs the insecure reference machine.
    let norm: f64 = exps
        .iter()
        .zip(runs)
        .map(|(e, r)| {
            let reference = e.build_system(true).run_engine(Engine::EventDriven);
            normalized_performance(&r.stats, &reference, &e.benign_cores())
        })
        .sum();
    out.set("model.norm_perf_mean", norm / runs.len() as f64);

    if args.workload == Workload::Sim8ch {
        // Sharded over sequential wall: recorded here because it does not
        // repeat within a tenth on a two-core host (see README.md).
        let seq = &exps[0];
        let sharded = seq.clone().threads(Threads::N(2));
        let (seq_stats, seq_s) = time(Engine::EventDriven, seq);
        let (sharded_stats, sharded_s) = time(Engine::EventDriven, &sharded);
        if seq_stats != sharded_stats {
            out.fail(1, "sharded RunStats differ from sequential");
        }
        out.set("pool.sharded_over_seq", sharded_s / seq_s);
    }

    let (tick_ns, next_event_ns) = probes::memctrl_saturated(args.seed);
    out.set("memctrl.tick_ns", tick_ns);
    out.set("memctrl.next_event_ns", next_event_ns);
    out.set("dram.gate_query_ns", probes::dram_gate_query());
    out.set("llbc.encrypt_ns", probes::llbc_encrypt(args.seed));
    let workload = cells[0].workload;
    out.set("cpu.core_cycle_ns", probes::cpu_core_cycle(workload, args.seed));
    out.set("llcache.access_ns", probes::llcache_access(workload, args.seed));
    out.set("workloads.trace_next_ns", probes::trace_next(workload, args.seed));

    out.span_self_s = tracer.layer_self_seconds();
}

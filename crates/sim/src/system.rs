//! The assembled system: cores + LLC + controllers + tracker + oracle.
//!
//! Two execution engines share the same component models:
//!
//! * [`Engine::Dense`] ticks every component on every bus cycle — the
//!   reference semantics, reached only through [`System::run_engine`] /
//!   [`System::run_dense`] by the equivalence suites and `benchmark/`.
//! * [`Engine::EventDriven`] ([`System::run`], and so every
//!   [`Experiment`](crate::Experiment)) gives every component a **due
//!   cycle** and touches only what is due. A channel's due cycle is its
//!   controller's decision bound ([`ChannelController::next_event`]),
//!   mirrored into one contiguous array that is refreshed when that
//!   channel ticks and when it accepts a request. A core is either *live*
//!   (cycled this bus cycle) or *parked*: classified once
//!   ([`cpu::Quiescence`]) when it goes quiet, left alone until its wake
//!   cycle, and then replayed once in closed form. The run loop takes the
//!   minimum over both arrays, the next window boundary and the end of the
//!   run; it jumps there when that is ahead of `now`, and otherwise steps
//!   the due channels and the live cores in the dense loop's order. The
//!   two engines produce **bit-identical** [`RunStats`] by construction;
//!   the cross-engine equivalence suite (`tests/engine_equivalence.rs`)
//!   holds that line.
//!
//! Four things wake a parked core: its wake cycle arrives (the end of a
//! bubble streak, or the first cycle at which it could cross the
//! instruction budget), a completion targets it, the full queue it is
//! parked behind opens, or a window boundary / the end of the run reads
//! its counters. Each replays the elided span exactly as the dense loop
//! would have executed it.
//!
//! A bus cycle is the memory step, then the cores. The memory step
//! (`System::step_memory`) is one pass over the channels **in index
//! order**: a due channel ticks, its completions (popped in `(due cycle,
//! id)` order) go to their cores and its events to the probes before the
//! next channel is looked at. Channels share nothing, so that order is the
//! only order completions and events have. Telemetry window boundaries
//! fall between cycles.
//!
//! Observation rides the [`sim_core::telemetry`] probe API: a
//! [`Telemetry`] configuration attaches any number of probes to a run —
//! event sinks (the ground-truth oracle is one such client), per-window
//! counter samplers, run-lifecycle hooks. Probes only read: `RunStats`
//! stays bit-identical with and without them (`tests/telemetry_equivalence.rs`),
//! and the event engine keeps jumping — a window boundary is one more due
//! cycle, so samples land exactly where the dense loop would take them.

use analysis::OracleProbe;
use cpu::{ClockRatio, Core, MemoryPort, PortResponse, Quiescence, TraceSource};
use dram::{DramChannel, TimingParams};
use llcache::{Llc, LookupResult, TAG_BITS};
use memctrl::{ChannelController, CtrlConfig};
use sim_core::addr::PhysAddr;
use sim_core::config::SystemConfig;
use sim_core::req::{AccessKind, MemRequest, SourceId};
use sim_core::stats::MemStats;
use sim_core::telemetry::{Probe, RunMeta, Telemetry, WindowSample};
use sim_core::time::Cycle;
use sim_core::tracker::RowHammerTracker;

use crate::metrics::RunStats;

/// Which simulation loop drives the machine. Not a setting: [`System::run`]
/// is event-driven, and the dense loop is the reference the equivalence
/// suites hold it to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Tick every component on every bus cycle (reference semantics).
    Dense,
    /// Step only the components that are due and jump over stretches in
    /// which none is. Bit-identical results, multi-x faster on idle-heavy
    /// workloads.
    EventDriven,
}

/// Execution-engine diagnostics ([`System::engine_stats`]): where the
/// simulated bus cycles went. Every bus cycle of a run is either stepped
/// (some component was due) or jumped over, so `dense_steps +
/// skipped_cycles` is the run's cycle count; `shard_ticks` /
/// `shard_idle_skips` split the stepped cycles per channel into those on
/// which that channel's controller ticked and those it sat out.
///
/// `shard_ticks` belongs to the model — a controller ticks exactly when
/// its decision bound says so, whatever the engine. The other four
/// describe the engine. Purely diagnostic: none of these numbers feed
/// back into simulation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Bus cycles stepped (one [`System::step`] each).
    pub dense_steps: u64,
    /// Bus cycles jumped over because no component was due.
    pub skipped_cycles: u64,
    /// Number of successful jumps (`skipped_cycles` spread over this many).
    pub skips: u64,
    /// Per-channel: stepped cycles on which the controller ticked.
    pub shard_ticks: Vec<u64>,
    /// Per-channel: stepped cycles the channel sat out, `dense_steps -
    /// shard_ticks[ch]`.
    pub shard_idle_skips: Vec<u64>,
}

impl EngineStats {
    /// Fraction of simulated bus cycles stepped densely (0 when nothing
    /// has run).
    pub fn dense_fraction(&self) -> f64 {
        let total = self.dense_steps + self.skipped_cycles;
        if total == 0 {
            0.0
        } else {
            self.dense_steps as f64 / total as f64
        }
    }

    /// Fraction of the stepped cycles on which channel `ch` ticked (0 when
    /// nothing was stepped).
    pub fn shard_step_fraction(&self, ch: usize) -> f64 {
        let total = self.shard_ticks[ch] + self.shard_idle_skips[ch];
        if total == 0 {
            0.0
        } else {
            self.shard_ticks[ch] as f64 / total as f64
        }
    }
}

/// LLC hit latency in core cycles (tag + data array of a large shared LLC).
const LLC_HIT_LATENCY: u32 = 30;

/// How a parked core's elided span is replayed.
#[derive(Debug, Clone, Copy)]
enum Replay {
    /// The core touches neither the port nor its trace (a bubble streak,
    /// or a full window behind a pending head):
    /// [`cpu::Core::fast_forward`].
    FastForward,
    /// The core retries one access that `(channel, is_write, bypass)`'s
    /// full queue keeps refusing: [`cpu::Core::port_blocked_forward`].
    /// Queue occupancy only shrinks when that channel's controller ticks,
    /// so the refusal is re-checked on stepped cycles, O(1), and the core
    /// wakes on the cycle the queue opens.
    PortBlocked((usize, bool, bool)),
}

/// A core parked mid-run. Its dense evolution from `since` on is a closed
/// form of the elapsed core cycles, so the engine stops cycling it and
/// remembers only where it stopped and how to catch it up.
#[derive(Debug, Clone, Copy)]
struct Parked {
    /// Bus cycle the core was parked at (its state is "before `since`").
    since: Cycle,
    /// Most core cycles the replay may cover: the classification's horizon,
    /// cut to the instruction budget. The wake cycle is derived from it.
    bound: u64,
    replay: Replay,
}

/// The memory hierarchy below the cores (split off so cores and hierarchy
/// can be borrowed simultaneously).
struct Hierarchy {
    cfg: SystemConfig,
    llc: Llc,
    /// One controller (with its DRAM and tracker) per channel.
    ctrls: Vec<ChannelController>,
    /// Per-channel due cycle: the controller's decision bound
    /// ([`ChannelController::next_event`]) as of the last time the channel
    /// ticked or accepted a request, the only two things that move it.
    /// The event engine visits a channel only when `due[ch] <= now`.
    due: Vec<Cycle>,
    /// Per-channel: stepped cycles on which the controller ticked.
    ticks: Vec<u64>,
    /// Per-core: skip the LLC (clflush-style attacker access).
    bypass_llc: Vec<bool>,
    next_req: u64,
    now: Cycle,
}

impl Hierarchy {
    fn enqueue_dram(&mut self, source: SourceId, addr: PhysAddr, kind: AccessKind) -> Option<u64> {
        let dram_addr = self.cfg.geometry.decode(addr);
        let ch = dram_addr.channel as usize;
        let id = self.next_req;
        let req = MemRequest::new(id, source, kind, addr, dram_addr, self.now);
        let ctrl = &mut self.ctrls[ch];
        // A full queue refuses the request.
        if ctrl.enqueue(req) {
            self.due[ch] = ctrl.next_event(self.now);
            self.next_req += 1;
            Some(id)
        } else {
            None
        }
    }

    fn channel_of(&self, addr: PhysAddr) -> usize {
        self.cfg.geometry.decode(addr).channel as usize
    }

    /// The queue coordinates `(channel, is_write, bypass)` that decide
    /// whether [`MemoryPort::access`] refuses this request — precomputed
    /// once so a parked core's refusal can be re-checked in O(1).
    fn stall_cond(&self, source: SourceId, addr: PhysAddr, is_write: bool) -> (usize, bool, bool) {
        let bypass = self.bypass_llc.get(source.0 as usize).copied().unwrap_or(false);
        (self.channel_of(addr), is_write, bypass)
    }

    /// True when [`MemoryPort::access`] for a request with these
    /// coordinates is guaranteed to answer [`PortResponse::Busy`] — and to
    /// keep answering Busy for as long as no controller issues a command
    /// or accepts an enqueue (queue occupancy is the only input). This is
    /// the proof obligation behind parking a
    /// [`Quiescence::PortBlocked`] core: its parked retries are no-ops
    /// while this holds, and it can only stop holding at a controller
    /// decision point. **This predicate must mirror the Busy pre-checks in
    /// [`MemoryPort::access`] below exactly** — it is the single copy
    /// the engine consults.
    fn queue_full_for(&self, (ch, is_write, bypass): (usize, bool, bool)) -> bool {
        let ctrl = &self.ctrls[ch];
        if is_write {
            // Bypass and LLC write paths both refuse on a full write queue
            // (a write-allocate miss also charges its writeback there).
            !ctrl.can_accept_write()
        } else if bypass {
            !ctrl.can_accept_read()
        } else {
            // An LLC read miss needs a read slot plus a writeback slot.
            !ctrl.can_accept_read() || !ctrl.can_accept_write()
        }
    }
}

impl MemoryPort for Hierarchy {
    fn access(&mut self, source: SourceId, addr: PhysAddr, kind: AccessKind) -> PortResponse {
        let bypass = self.bypass_llc.get(source.0 as usize).copied().unwrap_or(false);
        if bypass {
            // Attacker path: straight to DRAM (clflush / conflict eviction).
            return match self.enqueue_dram(source, addr, kind) {
                Some(id) if kind == AccessKind::Read => PortResponse::Pending { req_id: id },
                Some(_) => PortResponse::Done { latency: 1 },
                None => PortResponse::Busy,
            };
        }

        // Capacity pre-check: a miss may need a read slot plus a writeback
        // slot; refuse before mutating the LLC so state stays consistent.
        let ch = self.channel_of(addr);
        let ctrl = &self.ctrls[ch];
        match kind {
            AccessKind::Read => {
                if !ctrl.can_accept_read() || !ctrl.can_accept_write() {
                    return PortResponse::Busy;
                }
            }
            AccessKind::Write => {
                if !ctrl.can_accept_write() {
                    return PortResponse::Busy;
                }
            }
        }

        match self.llc.access(addr.0, kind == AccessKind::Write) {
            LookupResult::Hit => PortResponse::Done { latency: LLC_HIT_LATENCY },
            LookupResult::Miss { writeback } => {
                if let Some(victim_line) = writeback {
                    // Victim writeback goes to the victim's own channel; if
                    // that queue is full the writeback is dropped (counted
                    // nowhere) — rare, and keeps the port non-blocking.
                    let victim_addr = PhysAddr(victim_line << 6);
                    let _ = self.enqueue_dram(source, victim_addr, AccessKind::Write);
                }
                match kind {
                    AccessKind::Read => match self.enqueue_dram(source, addr, AccessKind::Read) {
                        Some(id) => PortResponse::Pending { req_id: id },
                        None => PortResponse::Busy,
                    },
                    AccessKind::Write => {
                        // Write-allocate with immediate-writeback accounting:
                        // the dirtied line is charged one DRAM write now.
                        let _ = self.enqueue_dram(source, addr, AccessKind::Write);
                        PortResponse::Done { latency: LLC_HIT_LATENCY }
                    }
                }
            }
        }
    }
}

/// A complete simulated machine.
pub struct System {
    cores: Vec<Core>,
    hierarchy: Hierarchy,
    ratio: ClockRatio,
    /// Attached observers (the ground-truth oracle rides here as an
    /// ordinary event probe). Probes only read; `RunStats` is bit-identical
    /// with and without them, on both engines.
    probes: Vec<Box<dyn Probe>>,
    /// Indices into `probes` of event subscribers.
    event_probes: Vec<usize>,
    /// Indices into `probes` of window subscribers.
    window_probes: Vec<usize>,
    /// Window length in bus cycles (default: one tREFW).
    window_len: Cycle,
    /// Next window boundary (only meaningful while `window_probes` is
    /// non-empty).
    next_window: Cycle,
    /// Start cycle of the in-flight window.
    window_start: Cycle,
    /// Index of the in-flight window.
    window_index: u64,
    /// Per-core retired count at the last window boundary.
    win_prev_retired: Vec<u64>,
    /// Per-core core-cycle count at the last window boundary.
    win_prev_core_cycles: Vec<u64>,
    /// Merged memory counters at the last window boundary.
    win_prev_mem: MemStats,
    /// Set once `on_run_end` has fired.
    run_ended: bool,
    /// Completions popped this cycle, as `(request id, issuing core)`.
    completions_buf: Vec<(u64, SourceId)>,
    /// Per-core parking state (event engine only): a quiet core leaves the
    /// per-cycle loop and is replayed in closed form when it wakes.
    parked: Vec<Option<Parked>>,
    /// Per-core due cycle, contiguous for the run loop's minimum: 0 while
    /// the core is live (always due), the bus cycle a parked core must be
    /// live again otherwise.
    wake: Vec<Cycle>,
    /// True while [`Engine::EventDriven`] drives the run: channels are
    /// visited by their due cycle and cores may park.
    event: bool,
    /// Bus cycles cores spent parked, summed over cores (diagnostics).
    frozen_core_cycles: u64,
    /// Bus cycles stepped (diagnostics).
    dense_steps: u64,
    /// Bus cycles jumped over (diagnostics).
    skipped_cycles: u64,
    /// Number of jumps (diagnostics).
    skips: u64,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("cycle", &self.hierarchy.now)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system.
    ///
    /// * `traces` — one trace source per core.
    /// * `bypass_llc` — per-core LLC bypass (attacker cores).
    /// * `trackers` — one tracker per channel.
    /// * `telemetry` — the attached probes ([`Telemetry::none`] for the
    ///   zero-overhead fast path; [`Telemetry::oracle`] requests the
    ///   ground-truth auditor as an event-sink probe).
    ///
    /// # Panics
    ///
    /// Panics if `traces`/`bypass_llc` lengths disagree with the config's
    /// core count or `trackers` with the channel count, or if the LLC has
    /// too few sets to tag every address of the geometry
    /// ([`Llc::covers`]).
    pub fn new(
        cfg: SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
        bypass_llc: Vec<bool>,
        trackers: Vec<Box<dyn RowHammerTracker>>,
        telemetry: Telemetry,
    ) -> Self {
        assert_eq!(traces.len(), cfg.cpu.cores as usize, "one trace per core");
        assert_eq!(bypass_llc.len(), traces.len(), "one bypass flag per core");
        assert_eq!(trackers.len(), cfg.geometry.channels as usize, "one tracker per channel");
        let llc = Llc::new(cfg.llc, cfg.seed ^ 0x11C);
        let space = cfg.geometry.capacity_bytes();
        assert!(
            llc.covers(space),
            "an LLC of {} sets cannot tag the geometry's {space}-byte address space \
             (a line word holds a {TAG_BITS}-bit tag)",
            cfg.llc.sets()
        );
        let cores: Vec<Core> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                Core::new(SourceId(i as u8), cfg.cpu.width as u32, cfg.cpu.rob_entries as usize, t)
            })
            .collect();
        let timing = TimingParams::ddr5_6400();
        let ctrl_cfg = CtrlConfig::new(cfg.nrh, cfg.blast_radius, cfg.mitigation);
        let ctrls: Vec<ChannelController> = trackers
            .into_iter()
            .enumerate()
            .map(|(ch, tr)| {
                ChannelController::new(
                    ch as u8,
                    DramChannel::new(cfg.geometry, timing),
                    tr,
                    ctrl_cfg,
                )
            })
            .collect();
        let ncores = cores.len();
        let due = ctrls.iter().map(|c| c.next_event(0)).collect();
        let ticks = vec![0; ctrls.len()];
        let oracle = telemetry
            .oracle_requested()
            .then(|| Box::new(OracleProbe::new(cfg.nrh, cfg.blast_radius, cfg.geometry)));
        let window_len = telemetry.window_len_override().unwrap_or(timing.t_refw);
        let mut sys = Self {
            cores,
            hierarchy: Hierarchy { cfg, llc, ctrls, due, ticks, bypass_llc, next_req: 1, now: 0 },
            ratio: ClockRatio::core_over_bus(),
            probes: Vec::new(),
            event_probes: Vec::new(),
            window_probes: Vec::new(),
            window_len,
            next_window: window_len,
            window_start: 0,
            window_index: 0,
            win_prev_retired: vec![0; ncores],
            win_prev_core_cycles: vec![0; ncores],
            win_prev_mem: MemStats::default(),
            run_ended: false,
            completions_buf: Vec::new(),
            parked: vec![None; ncores],
            wake: vec![0; ncores],
            event: false,
            frozen_core_cycles: 0,
            dense_steps: 0,
            skipped_cycles: 0,
            skips: 0,
        };
        if let Some(oracle) = oracle {
            sys.attach_probe(oracle);
        }
        for probe in telemetry.into_probes() {
            sys.attach_probe(probe);
        }
        sys
    }

    /// Current bus cycle.
    pub fn cycle(&self) -> Cycle {
        self.hierarchy.now
    }

    /// Always 0: there are no worker lanes. Kept so `benchmark/` builds;
    /// ROADMAP item 1 deletes it with `pool.sharded_over_seq` and
    /// `pool.worker_respawns`.
    pub fn worker_respawns(&self) -> u64 {
        0
    }

    /// Switches every channel controller between the indexed production
    /// scheduler (default) and the retained naive-scan oracle — same
    /// FR-FCFS semantics, re-derived from scratch every tick. The
    /// differential suite runs whole workloads both ways and requires
    /// bit-identical [`RunStats`].
    pub fn set_naive_scan(&mut self, naive: bool) {
        for ctrl in &mut self.hierarchy.ctrls {
            ctrl.set_naive_scan(naive);
        }
    }

    /// Immutable facts delivered to probes at attach time.
    fn run_meta(&self) -> RunMeta {
        RunMeta {
            tracker: self.hierarchy.ctrls[0].tracker().name().to_string(),
            cores: self.cores.len(),
            channels: self.hierarchy.ctrls.len(),
            window_len: self.window_len,
        }
    }

    /// Attaches one more probe; its subscriptions take effect immediately
    /// (event capture in the controllers, window bookkeeping in the
    /// engines).
    ///
    /// # Panics
    ///
    /// Panics if the run has already started — mid-run attachment would
    /// see a partial stream and (for window probes) a torn first sample.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        assert_eq!(self.hierarchy.now, 0, "attach probes before the run starts");
        let idx = self.probes.len();
        if probe.wants_events() {
            self.event_probes.push(idx);
            for ctrl in &mut self.hierarchy.ctrls {
                ctrl.set_event_capture(true);
            }
        }
        if probe.wants_windows() {
            self.window_probes.push(idx);
        }
        self.probes.push(probe);
        let meta = self.run_meta();
        self.probes[idx].on_run_start(&meta);
    }

    /// Removes and returns every attached probe (for recorder readout
    /// after the run; [`System::stats`] must be taken first if the
    /// oracle's verdict is wanted in the `RunStats`).
    pub fn take_probes(&mut self) -> Vec<Box<dyn Probe>> {
        self.event_probes.clear();
        self.window_probes.clear();
        // No drainer remains: stop the controllers buffering events, or
        // further `step` calls would grow the buffers unboundedly.
        for ctrl in &mut self.hierarchy.ctrls {
            ctrl.set_event_capture(false);
        }
        std::mem::take(&mut self.probes)
    }

    /// Advances the machine one bus cycle.
    pub fn step(&mut self) {
        let now = self.hierarchy.now;
        self.step_memory(now);
        self.step_cores();
        self.hierarchy.now += 1;
        self.dense_steps += 1;
    }

    /// The memory half of a bus cycle: one pass over the channels in index
    /// order. A due channel ticks, refreshes its due cycle, hands its events
    /// to the probes and delivers the completions that fell due (popped in
    /// `(due cycle, id)` order) to their cores, all before the next channel
    /// is looked at, so channel order is the only order completions and
    /// events have. The event engine reads the `due` array; the dense
    /// reference asks each controller for its bound, so it does not lean on
    /// the mirror.
    fn step_memory(&mut self, now: Cycle) {
        for ch in 0..self.hierarchy.ctrls.len() {
            let Hierarchy { ctrls, due, ticks, .. } = &mut self.hierarchy;
            let ctrl = &mut ctrls[ch];
            let at = if self.event { due[ch] } else { ctrl.next_event(now) };
            if at > now {
                debug_assert!(ctrl.next_event(now) > now, "stale channel due, ch {ch} @ {now}");
                continue;
            }
            ctrl.tick(now);
            ticks[ch] += 1;
            self.completions_buf.clear();
            ctrl.pop_completions(now, &mut self.completions_buf);
            due[ch] = ctrl.next_event(now);
            // No subscribers means the controllers buffered nothing at all.
            if !self.event_probes.is_empty() {
                let (probes, event_probes) = (&mut self.probes, &self.event_probes);
                ctrl.drain_events(&mut |ev| {
                    for &i in event_probes {
                        probes[i].on_event(ch as u8, ev);
                    }
                });
            }
            for i in 0..self.completions_buf.len() {
                let (id, source) = self.completions_buf[i];
                let core = source.0 as usize;
                // A parked core must observe the completion from its exact
                // dense state: replay it up to this cycle first.
                self.unpark(core, now);
                self.cores[core].complete(id);
            }
        }
    }

    /// Replays a parked core's elided cycles (closed form) so its state is
    /// exactly the dense state "before bus cycle `now`", and makes it live.
    /// No-op when the core is not parked.
    fn unpark(&mut self, core: usize, now: Cycle) {
        let Some(p) = self.parked[core].take() else { return };
        self.wake[core] = 0;
        // The span's core-cycle total is path-independent
        // ([`ClockRatio::cumulative_core_cycles`]), so per-core timelines
        // need no shared ratio state.
        let cc =
            ClockRatio::cumulative_core_cycles(now) - ClockRatio::cumulative_core_cycles(p.since);
        debug_assert!(
            cc <= p.bound,
            "core {core} replayed {cc} core cycles, parked for {}",
            p.bound
        );
        match p.replay {
            Replay::FastForward => self.cores[core].fast_forward(cc),
            Replay::PortBlocked(_) => self.cores[core].port_blocked_forward(cc),
        }
        self.frozen_core_cycles += now - p.since;
    }

    /// Replays every parked core up to `now` (window boundaries, run end,
    /// anything that reads core counters).
    fn unpark_all(&mut self, now: Cycle) {
        for i in 0..self.cores.len() {
            self.unpark(i, now);
        }
        debug_assert!(
            self.cores.iter().all(|c| c.cycles() == ClockRatio::cumulative_core_cycles(now)),
            "a core is off the bus clock @ {now}"
        );
    }

    /// Classifies live core `i` and parks it at `now` if the coming bus
    /// cycle, at least, is a closed form of its state.
    fn try_park(&mut self, i: usize, now: Cycle) {
        let core = &self.cores[i];
        let mut quiescence = if core.is_fully_stalled() {
            // O(1), and the state saturated cores live in: nothing but a
            // completion can touch the core.
            Quiescence::Stalled
        } else {
            core.quiescence()
        };
        let mut refusing_queue = None;
        if quiescence == Quiescence::PortBlocked {
            let (addr, is_write) =
                core.blocked_access().expect("PortBlocked implies a parked access");
            let cond = self.hierarchy.stall_cond(core.id(), addr, is_write);
            if self.hierarchy.queue_full_for(cond) {
                // Queues only grow while the cores step, so this whole bus
                // cycle is provably refused retries.
                refusing_queue = Some(cond);
            } else {
                // The parked access could be accepted: the core may still
                // stream/stall up to its next dispatch chance.
                quiescence = core.quiescence_unparked();
            }
        }
        let (mut bound, replay) = match (quiescence, refusing_queue) {
            (_, Some(cond)) => (u64::MAX, Replay::PortBlocked(cond)),
            (Quiescence::Stalled, _) => (u64::MAX, Replay::FastForward),
            (Quiescence::Streaming { cycles }, _) => (cycles, Replay::FastForward),
            (Quiescence::Busy | Quiescence::PortBlocked, None) => return,
        };
        let max_inst = self.hierarchy.cfg.max_instructions;
        if core.retired() < max_inst {
            // A parked core's retire counter lags. Keep it provably short
            // of the instruction budget until it wakes (retire rate is at
            // most `width` per core cycle), so the run-loop break fires on
            // the same step as under dense execution.
            let width = self.hierarchy.cfg.cpu.width as u64;
            bound = bound.min((max_inst - core.retired() - 1) / width);
        }
        let k = self.ratio.max_bus_cycles_within(bound);
        if k > 0 {
            self.parked[i] = Some(Parked { since: now, bound, replay });
            self.wake[i] = now.saturating_add(k);
        }
    }

    /// The core half of a bus cycle: cores run in their own clock domain
    /// (5 core cycles : 4 bus cycles). Under the event engine a parked core
    /// sits the cycle out unless its wake has arrived or the queue it is
    /// parked behind opened this cycle, and a live core that has gone quiet
    /// parks instead of cycling.
    fn step_cores(&mut self) {
        let now = self.hierarchy.now;
        if self.event {
            for i in 0..self.cores.len() {
                if let Some(p) = &self.parked[i] {
                    let opened = matches!(p.replay, Replay::PortBlocked(cond)
                        if !self.hierarchy.queue_full_for(cond));
                    if self.wake[i] <= now || opened {
                        // The horizon ran out, or the retry may succeed:
                        // the core cycles densely from this bus cycle on.
                        self.unpark(i, now);
                    }
                } else {
                    self.try_park(i, now);
                }
            }
        }
        let n = self.ratio.core_cycles_for_bus_cycle();
        for _ in 0..n {
            for i in 0..self.cores.len() {
                if self.parked[i].is_some() {
                    continue;
                }
                self.cores[i].cycle(&mut self.hierarchy);
            }
        }
    }

    /// Runs until the window closes or every core reaches `max_instructions`,
    /// using the [`Engine::EventDriven`] loop.
    pub fn run(&mut self) -> RunStats {
        self.run_engine(Engine::EventDriven)
    }

    /// Runs with the reference dense-tick loop (one [`System::step`] per bus
    /// cycle). Kept as the semantic baseline for the equivalence suite.
    pub fn run_dense(&mut self) -> RunStats {
        self.run_engine(Engine::Dense)
    }

    /// Runs under the chosen engine.
    pub fn run_engine(&mut self, engine: Engine) -> RunStats {
        let window = self.hierarchy.cfg.window_cycles;
        let max_inst = self.hierarchy.cfg.max_instructions;
        self.event = engine == Engine::EventDriven;
        while self.hierarchy.now < window {
            // Under the dense engine everything is due on every cycle.
            let target = if self.event { self.next_due(window) } else { self.hierarchy.now };
            if target > self.hierarchy.now {
                self.jump_to(target);
            } else {
                self.step();
            }
            if !self.window_probes.is_empty() {
                self.pump_windows();
            }
            // A parked core's count lags, on the safe side: `try_park`
            // keeps it short of the budget until the core wakes.
            if max_inst != u64::MAX && self.cores.iter().all(|c| c.retired() >= max_inst) {
                break;
            }
        }
        self.finish_run();
        self.stats()
    }

    /// The earliest cycle at which anything is due, or `now` as soon as
    /// something is due already: the end of the run, the next window
    /// boundary (samples must be taken exactly there, so a jump may reach
    /// but never cross it), a parked core's wake (a live core is always
    /// due), a channel's decision bound.
    fn next_due(&self, window: Cycle) -> Cycle {
        let now = self.hierarchy.now;
        let mut target = window;
        if !self.window_probes.is_empty() {
            target = target.min(self.next_window);
        }
        for &due in self.wake.iter().chain(&self.hierarchy.due) {
            if due <= now {
                return now;
            }
            target = target.min(due);
        }
        target
    }

    /// Jumps to `target`, a cycle before which nothing is due: no channel
    /// decides anything, and every core is parked past it. Nothing is
    /// touched but the clocks, which is what keeps a jump exact.
    fn jump_to(&mut self, target: Cycle) {
        let now = self.hierarchy.now;
        debug_assert!(
            self.hierarchy.ctrls.iter().all(|c| c.next_event(now) >= target),
            "jump from {now} to {target} crosses a channel's decision bound"
        );
        self.ratio.advance_bus_cycles(target - now);
        self.hierarchy.now = target;
        self.skipped_cycles += target - now;
        self.skips += 1;
    }

    /// Emits a [`WindowSample`] for every boundary `now` has reached.
    /// Both engines pass through every boundary cycle (a boundary is a due
    /// cycle of the event engine while window probes are attached), so the
    /// samples are bit-identical across engines.
    fn pump_windows(&mut self) {
        while self.hierarchy.now >= self.next_window {
            let end = self.next_window;
            self.emit_window(end);
            self.next_window += self.window_len;
        }
    }

    /// Closes the in-flight window at `end` and hands the delta sample to
    /// every window probe.
    fn emit_window(&mut self, end: Cycle) {
        // The sample reads core counters, so every parked core must be at
        // its exact dense state for the boundary (`end` is always the
        // current cycle: jumps cap at the boundary and steps land on it).
        debug_assert_eq!(end, self.hierarchy.now);
        self.unpark_all(end);
        let mut mem = MemStats::default();
        for ctrl in &self.hierarchy.ctrls {
            mem.merge(&ctrl.stats);
        }
        let sample = WindowSample {
            index: self.window_index,
            start: self.window_start,
            end,
            retired: self
                .cores
                .iter()
                .zip(&self.win_prev_retired)
                .map(|(c, prev)| c.retired() - prev)
                .collect(),
            core_cycles: self
                .cores
                .iter()
                .zip(&self.win_prev_core_cycles)
                .map(|(c, prev)| c.cycles() - prev)
                .collect(),
            mem: mem.delta_since(&self.win_prev_mem),
        };
        for &i in &self.window_probes {
            self.probes[i].on_window(&sample);
        }
        for (slot, core) in self.win_prev_retired.iter_mut().zip(&self.cores) {
            *slot = core.retired();
        }
        for (slot, core) in self.win_prev_core_cycles.iter_mut().zip(&self.cores) {
            *slot = core.cycles();
        }
        self.win_prev_mem = mem;
        self.window_start = end;
        self.window_index += 1;
    }

    /// Flushes the final (possibly partial) window and fires every
    /// probe's `on_run_end` exactly once.
    fn finish_run(&mut self) {
        if self.run_ended {
            return;
        }
        self.run_ended = true;
        let now = self.hierarchy.now;
        self.unpark_all(now);
        self.event = false;
        if !self.window_probes.is_empty() && now > self.window_start {
            self.emit_window(now);
        }
        for p in &mut self.probes {
            p.on_run_end(now);
        }
    }

    /// Execution-engine diagnostics so far: how much simulated time the
    /// event engine jumped over, and on how many of the stepped cycles each
    /// channel's controller ticked.
    pub fn engine_stats(&self) -> EngineStats {
        let shard_ticks = self.hierarchy.ticks.clone();
        EngineStats {
            dense_steps: self.dense_steps,
            skipped_cycles: self.skipped_cycles,
            skips: self.skips,
            shard_idle_skips: shard_ticks.iter().map(|t| self.dense_steps - t).collect(),
            shard_ticks,
        }
    }

    /// Per-channel memory counters (the `RunStats::mem` merge, unmerged):
    /// `channel_stats()[ch]` is channel `ch`'s own [`MemStats`], and their
    /// merge equals the run-level aggregate exactly.
    pub fn channel_stats(&self) -> Vec<MemStats> {
        self.hierarchy.ctrls.iter().map(|c| c.stats).collect()
    }

    /// Bus cycles cores spent parked, summed over cores — per-core
    /// execution the engine replayed in closed form instead of cycling
    /// (diagnostics).
    pub fn frozen_core_cycles(&self) -> u64 {
        self.frozen_core_cycles
    }

    /// Snapshot of the metrics so far.
    pub fn stats(&self) -> RunStats {
        let mut mem = sim_core::stats::MemStats::default();
        let mut energy = 0.0;
        for ctrl in &self.hierarchy.ctrls {
            mem.merge(&ctrl.stats);
            energy += ctrl
                .dram()
                .energy
                .total_mj(self.hierarchy.now, self.hierarchy.cfg.geometry.ranks as u32);
        }
        // The oracle is an ordinary probe; find it among the clients.
        let oracle = self.probes.iter().find_map(|p| {
            p.as_any().downcast_ref::<OracleProbe>().map(|o| (o.max_damage(), o.violations()))
        });
        RunStats {
            tracker: self.hierarchy.ctrls[0].tracker().name().to_string(),
            cycles: self.hierarchy.now,
            retired: self.cores.iter().map(|c| c.retired()).collect(),
            core_cycles: self.cores.iter().map(|c| c.cycles()).collect(),
            mem,
            llc_hit_rate: self.hierarchy.llc.hit_rate(),
            energy_mj: energy,
            oracle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu::TraceEntry;
    use sim_core::tracker::NullTracker;

    /// A fixed-stride read stream.
    struct Stride {
        next: u64,
        step: u64,
        bubbles: u32,
    }
    impl TraceSource for Stride {
        fn next_entry(&mut self) -> TraceEntry {
            let a = self.next;
            self.next += self.step;
            TraceEntry { bubbles: self.bubbles, addr: PhysAddr(a), is_write: false }
        }
    }

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.window_cycles = 60_000;
        cfg
    }

    fn build(cfg: SystemConfig, bubbles: u32, collect: bool) -> System {
        let cores = cfg.cpu.cores as usize;
        let traces: Vec<Box<dyn TraceSource>> = (0..cores)
            .map(|i| {
                Box::new(Stride { next: i as u64 * (16 << 30), step: 64, bubbles })
                    as Box<dyn TraceSource>
            })
            .collect();
        let trackers: Vec<Box<dyn RowHammerTracker>> = (0..cfg.geometry.channels)
            .map(|_| Box::new(NullTracker) as Box<dyn RowHammerTracker>)
            .collect();
        System::new(cfg, traces, vec![false; cores], trackers, Telemetry::none().oracle(collect))
    }

    #[test]
    fn cores_make_progress_and_hit_llc() {
        let mut sys = build(small_cfg(), 10, false);
        let stats = sys.run();
        for i in 0..4 {
            assert!(stats.retired[i] > 10_000, "core {i}: {}", stats.retired[i]);
            assert!(stats.ipc(i) > 0.1);
        }
        // Sequential lines: second half of each row's lines hit the LLC...
        // actually every line is cold (stride 64), so hit rate ~ 0.
        assert!(stats.mem.reads > 0);
    }

    /// An LLC too small to tag the eight-channel geometry's 256 GiB is
    /// refused when the system is built, not at the first access that
    /// reaches past its tags.
    #[test]
    #[should_panic(expected = "an LLC of 2 sets cannot tag the geometry's 274877906944-byte")]
    fn an_llc_too_small_for_the_address_space_is_refused_at_build() {
        let mut cfg = small_cfg();
        cfg.geometry = sim_core::addr::Geometry::enlarged_8ch();
        cfg.llc.capacity_bytes = 2 * cfg.llc.ways as u64 * 64;
        let _ = build(cfg, 10, false);
    }

    #[test]
    fn memory_bound_cores_are_slower() {
        let mut fast = build(small_cfg(), 1000, false);
        let mut slow = build(small_cfg(), 0, false);
        let f = fast.run();
        let s = slow.run();
        assert!(s.ipc(0) < f.ipc(0) / 2.0, "{} vs {}", s.ipc(0), f.ipc(0));
    }

    #[test]
    fn oracle_attaches_and_counts_activations() {
        let mut sys = build(small_cfg(), 50, true);
        let stats = sys.run();
        let (max_damage, violations) = stats.oracle.expect("oracle enabled");
        assert_eq!(violations, 0, "strided benign traffic cannot hammer");
        // Cores share banks, so a row can re-activate once per line (128
        // columns) under conflicts — far below N_RH = 500.
        assert!(max_damage < 300, "{max_damage}");
        assert!(stats.mem.activations > 0);
    }

    #[test]
    fn instruction_budget_stops_early() {
        let mut cfg = small_cfg();
        cfg.window_cycles = 10_000_000;
        cfg.max_instructions = 5_000;
        let mut sys = build(cfg, 100, false);
        let stats = sys.run();
        assert!(stats.cycles < 10_000_000, "stopped at {}", stats.cycles);
        for i in 0..4 {
            assert!(stats.retired[i] >= 5_000);
        }
    }

    #[test]
    fn engines_agree_bit_for_bit_on_strided_traffic() {
        for bubbles in [0, 10, 500, 40_000] {
            let dense = build(small_cfg(), bubbles, true).run_dense();
            let event = build(small_cfg(), bubbles, true).run();
            assert_eq!(dense, event, "bubbles={bubbles}");
        }
    }

    #[test]
    fn engines_agree_under_instruction_budget() {
        let mut cfg = small_cfg();
        cfg.window_cycles = 10_000_000;
        cfg.max_instructions = 50_000;
        let dense = build(cfg.clone(), 200, false).run_dense();
        let event = build(cfg, 200, false).run();
        assert_eq!(dense, event, "early-stop cycle must match exactly");
        assert!(dense.cycles < 10_000_000);
    }

    #[test]
    fn idle_workload_actually_skips() {
        // Bubble-heavy cores leave the bus idle almost always; the event
        // engine must do far fewer dense steps than there are bus cycles.
        // (Indirect check: the run completes with identical stats; the
        // wall-clock benefit is measured in crates/bench.)
        let mut cfg = small_cfg();
        cfg.window_cycles = 200_000;
        let dense = build(cfg.clone(), 20_000, false).run_dense();
        let event = build(cfg, 20_000, false).run();
        assert_eq!(dense, event);
        assert_eq!(event.cycles, 200_000);
    }

    fn build_with_telemetry(cfg: SystemConfig, bubbles: u32, t: Telemetry) -> System {
        let cores = cfg.cpu.cores as usize;
        let traces: Vec<Box<dyn TraceSource>> = (0..cores)
            .map(|i| {
                Box::new(Stride { next: i as u64 * (16 << 30), step: 64, bubbles })
                    as Box<dyn TraceSource>
            })
            .collect();
        let trackers: Vec<Box<dyn RowHammerTracker>> = (0..cfg.geometry.channels)
            .map(|_| Box::new(NullTracker) as Box<dyn RowHammerTracker>)
            .collect();
        System::new(cfg, traces, vec![false; cores], trackers, t)
    }

    #[test]
    fn window_probes_sample_every_boundary_plus_final_partial() {
        use sim_core::telemetry::TimeSeriesRecorder;
        let mut cfg = small_cfg(); // 60_000-cycle run
        cfg.window_cycles = 60_000;
        let t = Telemetry::none().probe(TimeSeriesRecorder::new()).window_len(25_000);
        let mut sys = build_with_telemetry(cfg, 10, t);
        let stats = sys.run();
        let probes = sys.take_probes();
        let rec = probes[0].as_any().downcast_ref::<TimeSeriesRecorder>().unwrap();
        let samples = rec.samples();
        assert_eq!(samples.len(), 3, "two full windows + one partial");
        assert_eq!((samples[0].start, samples[0].end), (0, 25_000));
        assert_eq!((samples[1].start, samples[1].end), (25_000, 50_000));
        assert_eq!((samples[2].start, samples[2].end), (50_000, 60_000));
        // Deltas must sum back to the run totals.
        let retired: u64 = samples.iter().map(|s| s.retired[0]).sum();
        assert_eq!(retired, stats.retired[0]);
        let acts: u64 = samples.iter().map(|s| s.mem.activations).sum();
        assert_eq!(acts, stats.mem.activations);
        assert!(samples.iter().all(|s| s.ipc(0) > 0.0));
        assert_eq!(rec.meta().unwrap().window_len, 25_000);
    }

    #[test]
    fn window_samples_are_engine_identical() {
        use sim_core::telemetry::TimeSeriesRecorder;
        for bubbles in [5, 2_000] {
            let run = |engine: Engine| {
                let t = Telemetry::none().probe(TimeSeriesRecorder::new()).window_len(10_000);
                let mut sys = build_with_telemetry(small_cfg(), bubbles, t);
                let stats = sys.run_engine(engine);
                let probes = sys.take_probes();
                let rec = probes[0].as_any().downcast_ref::<TimeSeriesRecorder>().unwrap().clone();
                (stats, rec.into_samples())
            };
            let (dense_stats, dense_windows) = run(Engine::Dense);
            let (event_stats, event_windows) = run(Engine::EventDriven);
            assert_eq!(dense_stats, event_stats, "bubbles={bubbles}");
            assert_eq!(dense_windows, event_windows, "bubbles={bubbles}");
            assert_eq!(dense_windows.len(), 6);
        }
    }

    #[test]
    fn probes_do_not_perturb_runstats() {
        use sim_core::telemetry::{MitigationLog, NullProbe, TimeSeriesRecorder};
        let plain = build(small_cfg(), 100, false).run();
        let t = Telemetry::none()
            .probe(TimeSeriesRecorder::new())
            .probe(MitigationLog::new())
            .probe(NullProbe)
            .window_len(7_001);
        let probed = build_with_telemetry(small_cfg(), 100, t).run();
        assert_eq!(plain, probed, "attaching probes must not change results");
    }

    #[test]
    fn idle_runs_still_skip_with_window_probes_attached() {
        use sim_core::telemetry::TimeSeriesRecorder;
        let mut cfg = small_cfg();
        cfg.window_cycles = 200_000;
        let t = Telemetry::none().probe(TimeSeriesRecorder::new()).window_len(50_000);
        let mut sys = build_with_telemetry(cfg, 20_000, t);
        let _ = sys.run();
        let es = sys.engine_stats();
        assert!(
            es.skipped_cycles > es.dense_steps,
            "windows must cap skips, not forbid them: {} vs {}",
            es.dense_steps,
            es.skipped_cycles
        );
    }

    #[test]
    #[should_panic(expected = "attach probes before the run starts")]
    fn mid_run_probe_attachment_is_rejected() {
        let mut sys = build(small_cfg(), 100, false);
        sys.step();
        sys.attach_probe(Box::new(sim_core::telemetry::NullProbe));
    }

    #[test]
    fn per_channel_stats_merge_to_the_run_aggregate() {
        let mut sys = build(small_cfg(), 10, false);
        let stats = sys.run();
        let per = sys.channel_stats();
        assert_eq!(per.len(), 2, "one MemStats per channel");
        let mut merged = MemStats::default();
        for s in &per {
            merged.merge(s);
        }
        assert_eq!(merged, stats.mem, "per-channel counters must sum to the aggregate");
        assert!(per.iter().all(|s| s.reads > 0), "strided traffic stripes across both channels");
    }

    #[test]
    fn shard_step_fractions_reflect_channel_activity() {
        let stats_under = |engine: Engine| {
            let mut sys = build(small_cfg(), 10, false);
            let _ = sys.run_engine(engine);
            sys.engine_stats()
        };
        let dense = stats_under(Engine::Dense);
        let event = stats_under(Engine::EventDriven);
        assert_eq!(dense.dense_steps, 60_000, "the dense engine steps every cycle");
        assert_eq!(event.dense_steps + event.skipped_cycles, 60_000, "stepped or jumped over");
        assert_eq!(dense.shard_ticks, event.shard_ticks, "a controller ticks by its own bound");
        for es in [dense, event] {
            for ch in 0..2 {
                assert_eq!(es.shard_idle_skips[ch], es.dense_steps - es.shard_ticks[ch]);
                let f = es.shard_step_fraction(ch);
                assert!(f > 0.0 && f < 1.0, "busy-but-not-saturated channel: {f}");
            }
        }
    }

    #[test]
    fn engine_stats_fractions_follow_the_counters() {
        let es = EngineStats {
            dense_steps: 1,
            skipped_cycles: 2,
            skips: 3,
            shard_ticks: vec![4],
            shard_idle_skips: vec![5],
        };
        assert!((es.dense_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((es.shard_step_fraction(0) - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn energy_is_positive_and_grows_with_traffic() {
        let mut idle = build(small_cfg(), 40_000, false);
        let mut busy = build(small_cfg(), 0, false);
        let ei = idle.run().energy_mj;
        let eb = busy.run().energy_mj;
        assert!(ei > 0.0);
        assert!(eb > ei);
    }
}

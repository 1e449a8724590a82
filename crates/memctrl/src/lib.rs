//! Memory controller model.
//!
//! One [`ChannelController`] per DDR5 channel, owning that channel's
//! [`DramChannel`] and RowHammer tracker and sharing nothing with the
//! others; the system ticks it on the cycles
//! [`ChannelController::next_event`] says it is due. Responsibilities:
//!
//! * **Scheduling**: FR-FCFS — ready column commands (row hits) first,
//!   oldest first; then activations; precharges when the open row has no
//!   queued hits. Reads have priority over writes; writes drain in bursts
//!   once their queue passes a high-water mark. Tracker metadata beats
//!   demand traffic in every phase.
//! * **Refresh management**: per-rank auto-refresh every tREFI, tracker
//!   hooks at tREFI and tREFW boundaries.
//! * **Mitigation execution**: victim-row refreshes (VRR / DRFMsb / RFMsb)
//!   for aggressors named by the tracker, full structure-reset sweeps, and
//!   tracker metadata traffic (counter reads/writes) injected into the
//!   request stream — the exact levers RowHammer Perf-Attacks pull.
//!
//! # The indexed scheduler
//!
//! The controller is built for command-granularity stepping. Queued
//! requests live in **per-bank FIFO lists** (a request's bank never
//! changes), and what a scheduling decision needs to know about them is
//! kept in an index that is maintained where state changes, not re-derived
//! where it is read:
//!
//! * a **per-bank digest** — which command the bank's queue asks for next
//!   (column, ACT or PRE, by its open row), the FR-FCFS key and list
//!   position of the request that would win it, and the *bank-local* half
//!   of that command's timing gate (tRC/tRP and mitigation-busy for ACT,
//!   tRCD/burst for a column, tRAS/tRTP/tWR for PRE) raised to the
//!   earliest `not_before` among the requests it could serve;
//! * a **shared-gate table** — per rank one column gate (REF/sweep block,
//!   data bus), one PRE gate (block) and one ACT gate per bank group
//!   (tRRD_S, tRRD_L, tFAW, block): the half of every gate that many
//!   banks share.
//!
//! A decision scan visits each non-empty bank once and does no more than
//! `eff = max(digest.local, gates[digest.gidx])`: `eff <= now` makes the
//! bank ready (and its key competes for its phase), otherwise `eff` bounds
//! the next decision. It walks no request and asks DRAM nothing.
//!
//! **Who invalidates what.** A digest is recomputed (one walk of that
//! bank's list) when its bank is touched: `enqueue`, a metadata push, a
//! column issue, an ACT issue or its throttle tax, a PRE. *Every* active
//! bank's digest is recomputed when something bank-crossing moves: a REF,
//! a reset sweep, the mitigation pass acting (same-bank commands close the
//! bank number in every group), a flip of the write-drain mode (pool
//! classes swap), a flip of the metadata-saturation veto (demand ACT
//! candidates appear or vanish), and the expiry of a throttle tax (a
//! request joins its bank's candidates). The shared gates of a rank are
//! re-derived when an ACT issues to it, the column gates when a column
//! command takes the bus, all of them after REF, sweep or mitigation. In
//! debug builds every bank visit asserts that the digest equals a
//! from-scratch recompute and the gate it reads a fresh derivation from
//! [`DramChannel`], so a missed invalidation fails at the cycle it
//! happens.
//!
//! On top of the scan sits a cached **decision bound** (`quiet_until`):
//! the earliest cycle at which [`ChannelController::tick`] could possibly
//! act, refreshed by every full tick and lowered by `enqueue`. Ticks
//! before the bound return in O(1); [`ChannelController::next_event`]
//! answers from the same cache in O(1), so the time-skipping engine can
//! jump straight from one command-issue decision point to the next even
//! while the bus is saturated.
//!
//! The pre-index full-scan selection survives as the **naive-scan oracle**
//! ([`ChannelController::set_naive_scan`]): a straight-line implementation
//! of the same FR-FCFS semantics that re-derives every eligibility from
//! scratch each tick. Differential tests drive both schedulers over
//! identical request streams and require bit-identical command sequences.
//!
//! ## Selection semantics (shared by both schedulers)
//!
//! One command per tick, first phase that can issue wins:
//!
//! 1. **Column** — among requests whose row is open and whose bank/bus
//!    timing gate has passed: lowest (pool class, age).
//! 2. **ACT** — among requests to closed banks past every ACT gate
//!    (tRC/tRRD/tFAW/REF-block and mitigation-busy): lowest (pool class,
//!    age). The winner pays the tracker's activation-delay tax at most
//!    once; a taxed request blocks this phase for the tick.
//! 3. **PRE** — banks in slot order: the first bank whose open row serves
//!    no queued request but conflicts with one is precharged.
//!
//! Pool class: metadata = 0, the favoured demand direction = 1 (reads
//! normally, writes while draining), the other = 2. Age is the global
//! enqueue sequence number, so within a class the scheduler is exactly
//! oldest-first.
//!
//! The controller emits its command stream as [`sim_core::MemEvent`]s
//! through a registered-sink API ([`ChannelController::set_event_capture`]
//! / [`ChannelController::drain_events`]): the harness drains the buffer
//! into whatever telemetry probes are attached — the ground-truth
//! RowHammer oracle is just one such client. With no sink registered
//! (the default) nothing is buffered, so performance sweeps pay nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use dram::DramChannel;
use sim_core::addr::DramAddr;
use sim_core::config::MitigationKind;
use sim_core::events::MemEvent;
use sim_core::req::{AccessKind, MemRequest, SourceId};
use sim_core::sched;
use sim_core::stats::MemStats;
use sim_core::time::Cycle;
use sim_core::tracker::{Activation, ResetScope, RowHammerTracker, TrackerAction};

/// Controller tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CtrlConfig {
    /// RowHammer threshold (forwarded to mitigation bookkeeping).
    pub nrh: u32,
    /// Victim rows refreshed each side of an aggressor.
    pub blast_radius: u8,
    /// Mitigation command flavour.
    pub mitigation: MitigationKind,
    /// Read-queue capacity (Busy above this).
    pub read_queue_cap: usize,
    /// Write-queue capacity.
    pub write_queue_cap: usize,
    /// Write drain high-water mark.
    pub write_drain_hi: usize,
    /// Tracker metadata queue capacity; demand ACTs stall above this,
    /// modelling Hydra's RCC-miss backpressure.
    pub counter_queue_cap: usize,
}

impl CtrlConfig {
    /// Defaults matching the paper's baseline.
    pub fn new(nrh: u32, blast_radius: u8, mitigation: MitigationKind) -> Self {
        Self {
            nrh,
            blast_radius,
            mitigation,
            read_queue_cap: 32,
            write_queue_cap: 32,
            write_drain_hi: 16,
            counter_queue_cap: 64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    req: MemRequest,
    /// Earliest issue cycle (throttling).
    not_before: Cycle,
    /// Tracker metadata gets scheduling priority.
    metadata: bool,
    /// Set when this request triggered an ACT (row-buffer miss).
    missed: bool,
    /// Set once the tracker's activation delay has been applied (the delay
    /// is a one-shot tax, not a recurring veto).
    taxed: bool,
    /// Global enqueue order: the FR-FCFS age tie-breaker.
    seq: u64,
}

/// A scheduling candidate: `(pool class, age, bank slot, position)`.
/// Lexicographic order on the first two fields is the FR-FCFS priority.
type Candidate = (u8, u64, usize, usize);

/// Victim-row mitigation actions (PREs and mitigation commands) the
/// controller performs per bus cycle while a backlog exists.
const MIT_ACTIONS_PER_TICK: usize = 8;

/// The command a bank's queue asks for next, in selection-priority order.
/// Indexes [`Scan::win`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The open row serves a queued request.
    Col,
    /// The bank is closed.
    Act,
    /// The open row serves nothing queued.
    Pre,
}

/// Everything the decision scan needs to know about one non-empty bank,
/// cached so a scan never walks the bank's requests or asks DRAM for a
/// gate (module docs, "The indexed scheduler"). Recomputed by
/// [`ChannelController::compute_digest`] whenever one of its inputs moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BankDigest {
    /// Bank-local half of the phase's gate (ACT: tRC/tRP and
    /// mitigation-busy; column: tRCD/burst; PRE: tRAS/tRTP/tWR), raised to
    /// the earliest `not_before` among the requests the command could
    /// serve. [`sched::NEVER`] when it could serve none (a closed bank
    /// whose every request is vetoed by metadata backpressure).
    local: Cycle,
    /// FR-FCFS priority of the bank's winner — `class << 62 | seq` of the
    /// best servable request whose `not_before` has passed — or, for PRE,
    /// the slot (lowest slot wins, like the oracle's slot-order pass).
    key: u64,
    /// Position of the winner in the bank's list.
    pos: u32,
    /// Index into `gates` of the rank/bus-wide half of the gate.
    gidx: u16,
    phase: Phase,
}

/// Outcome of one decision scan over the active banks' digests.
struct Scan {
    /// Per [`Phase`]: lowest ready key and its bank slot; `u64::MAX` while
    /// no bank is ready in that phase.
    win: [(u64, u32); 3],
    /// Banks with an action ready this cycle (only `>= 2` is consumed:
    /// with two ready banks, issuing one command leaves the other ready,
    /// pinning the next decision to the very next cycle).
    ready: u32,
    /// Earliest `> now` decision contribution over the scanned banks.
    bound: Cycle,
}

impl Scan {
    fn empty() -> Self {
        Scan { win: [(u64::MAX, 0); 3], ready: 0, bound: sched::NEVER }
    }

    /// Slot of the bank that won `phase`, if any bank was ready in it.
    fn winner(&self, phase: Phase) -> Option<usize> {
        let (key, slot) = self.win[phase as usize];
        (key != u64::MAX).then_some(slot as usize)
    }
}

/// Precomputed DRAM coordinates of a bank slot: (rank, bank-in-rank,
/// bank group).
type SlotCoord = (u8, u32, u8);

/// `(draining_writes, metadata saturated)`: the two controller-wide modes
/// every digest depends on (pool class, ACT veto).
type Modes = (bool, bool);

/// One channel's memory controller.
pub struct ChannelController {
    channel: u8,
    cfg: CtrlConfig,
    dram: DramChannel,
    tracker: Box<dyn RowHammerTracker>,
    /// Queued requests, bucketed per (rank, bank) in enqueue order. A
    /// request's bank never changes, so these lists double as the
    /// scheduler's bank index; pool membership is a per-entry tag.
    banks: Vec<Vec<Queued>>,
    /// Slots whose bank list is non-empty (unordered; selection is
    /// order-independent). The fused scan walks only these.
    active: Vec<u32>,
    /// Position of each slot in `active`, or `u32::MAX` when inactive.
    active_pos: Vec<u32>,
    /// Per-slot DRAM coordinates.
    slot_coords: Vec<SlotCoord>,
    /// Per-slot digest; current for every slot in `active`, stale otherwise.
    digests: Vec<BankDigest>,
    /// Shared-gate table, `gate_stride` entries per rank: the column gate
    /// (REF/sweep block, data bus), the PRE gate (block), then one ACT
    /// gate per bank group (tRRD_S/tRRD_L/tFAW/block).
    gates: Vec<Cycle>,
    gate_stride: usize,
    /// Earliest future `not_before` any digest was computed around: once
    /// it passes, a throttled request joins its bank's candidates and the
    /// digests are recomputed (a lower bound; reset on full recompute).
    next_hold: Cycle,
    /// Demand reads queued (across all banks).
    nreads: usize,
    /// Demand writes queued.
    nwrites: usize,
    /// Tracker metadata requests queued.
    ncounter: usize,
    /// Next enqueue sequence number (age tie-breaker).
    next_seq: u64,
    /// Demand reads in flight as `(due cycle, id, issuer)`: popped in
    /// `(due cycle, id)` order, ids being unique.
    completions: BinaryHeap<Reverse<(Cycle, u64, SourceId)>>,
    /// Aggressor rows awaiting a mitigation command, bucketed per bank.
    mit_q: Vec<VecDeque<DramAddr>>,
    /// Total entries across `mit_q`.
    mit_q_len: usize,
    /// Pending structure-reset sweeps.
    sweep_q: VecDeque<ResetScope>,
    /// Per (rank, bank) cycle until which mitigation work occupies the bank.
    mit_busy: Vec<Cycle>,
    next_ref: Vec<Cycle>,
    next_trefi_hook: Cycle,
    next_trefw: Cycle,
    draining_writes: bool,
    actions: Vec<TrackerAction>,
    next_meta_id: u64,
    /// Cached decision bound: the earliest cycle at which `tick` could
    /// have any observable effect. Ticks strictly before it return
    /// immediately; `next_event` answers from it in O(1). Recomputed at
    /// the end of every full tick and lowered in O(1) on enqueue.
    quiet_until: Cycle,
    /// Run the retained full-scan oracle instead of the indexed selection
    /// (differential testing only; disables the quiet-tick fast path).
    naive: bool,
    /// True while at least one event sink is registered; gates every
    /// event push so sink-free runs buffer nothing.
    capture_events: bool,
    /// Event buffer between [`ChannelController::drain_events`] calls.
    events: Vec<MemEvent>,
    /// Aggregate statistics.
    pub stats: MemStats,
}

impl std::fmt::Debug for ChannelController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelController")
            .field("channel", &self.channel)
            .field("tracker", &self.tracker.name())
            .field("reads", &self.nreads)
            .field("writes", &self.nwrites)
            .field("mit_q", &self.mit_q_len)
            .finish_non_exhaustive()
    }
}

impl ChannelController {
    /// Creates a controller for `channel` with the given tracker.
    pub fn new(
        channel: u8,
        dram: DramChannel,
        tracker: Box<dyn RowHammerTracker>,
        cfg: CtrlConfig,
    ) -> Self {
        let geom = *dram.geometry();
        let ranks = geom.ranks as usize;
        let banks = geom.banks_per_rank() as usize;
        let trefi = dram.timing().t_refi;
        let trefw = dram.timing().t_refw;
        // Stagger rank refreshes across the tREFI interval.
        let next_ref: Vec<Cycle> =
            (0..ranks).map(|r| trefi + (r as Cycle * trefi) / ranks.max(1) as Cycle).collect();
        let quiet_until = sched::earliest(next_ref.iter().copied()).min(trefi).min(trefw);
        Self {
            channel,
            cfg,
            dram,
            tracker,
            banks: (0..ranks * banks).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            active_pos: vec![u32::MAX; ranks * banks],
            slot_coords: (0..ranks * banks)
                .map(|slot| {
                    let bank = (slot % banks) as u32;
                    ((slot / banks) as u8, bank, (bank / geom.banks_per_group as u32) as u8)
                })
                .collect(),
            digests: vec![
                BankDigest {
                    local: sched::NEVER,
                    key: 0,
                    pos: 0,
                    gidx: 0,
                    phase: Phase::Act
                };
                ranks * banks
            ],
            gates: vec![0; ranks * (2 + geom.bank_groups as usize)],
            gate_stride: 2 + geom.bank_groups as usize,
            next_hold: sched::NEVER,
            nreads: 0,
            nwrites: 0,
            ncounter: 0,
            next_seq: 0,
            completions: BinaryHeap::new(),
            mit_q: (0..ranks * banks).map(|_| VecDeque::new()).collect(),
            mit_q_len: 0,
            sweep_q: VecDeque::new(),
            mit_busy: vec![0; ranks * banks],
            next_ref,
            next_trefi_hook: trefi,
            next_trefw: trefw,
            draining_writes: false,
            actions: Vec::new(),
            next_meta_id: u64::MAX / 2,
            quiet_until,
            naive: false,
            capture_events: false,
            events: Vec::new(),
            stats: MemStats::default(),
        }
    }

    /// Registers (or withdraws) interest in the event stream. While off —
    /// the default — no events are buffered, which is the zero-overhead
    /// fast path performance sweeps rely on.
    pub fn set_event_capture(&mut self, on: bool) {
        self.capture_events = on;
        if !on {
            self.events.clear();
        }
    }

    /// True while an event sink is registered.
    pub fn captures_events(&self) -> bool {
        self.capture_events
    }

    /// Switches between the indexed production scheduler (default) and the
    /// retained naive-scan oracle. Both implement the selection semantics
    /// documented at module level; the oracle re-derives every eligibility
    /// from scratch each tick (no cached decision bound, no per-bank
    /// shortcuts), which makes it the reference the differential suite
    /// holds the indexed path against.
    pub fn set_naive_scan(&mut self, naive: bool) {
        self.naive = naive;
        // The oracle's PRE pass goes around the index: have the next
        // indexed scan recompute every digest.
        self.next_hold = 0;
    }

    /// Hands every buffered event to `sink` in issue order and clears the
    /// buffer. The harness fans these out to all attached telemetry
    /// probes; the RowHammer oracle is one such client.
    pub fn drain_events(&mut self, sink: &mut dyn FnMut(&MemEvent)) {
        for ev in self.events.drain(..) {
            sink(&ev);
        }
    }

    /// The underlying DRAM channel (for energy/statistics readout).
    pub fn dram(&self) -> &DramChannel {
        &self.dram
    }

    /// The tracker (for storage readout).
    pub fn tracker(&self) -> &dyn RowHammerTracker {
        self.tracker.as_ref()
    }

    /// Queue occupancy `(reads, writes, metadata)`.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (self.nreads, self.nwrites, self.ncounter)
    }

    /// True if a read can be accepted.
    #[inline]
    pub fn can_accept_read(&self) -> bool {
        self.nreads < self.cfg.read_queue_cap
    }

    /// True if a write can be accepted.
    #[inline]
    pub fn can_accept_write(&self) -> bool {
        self.nwrites < self.cfg.write_queue_cap
    }

    /// Enqueues a demand request. Returns false (and drops it) when the
    /// matching queue is full — the caller must retry.
    pub fn enqueue(&mut self, req: MemRequest) -> bool {
        debug_assert_eq!(req.dram.channel, self.channel);
        let before = self.modes();
        match req.kind {
            AccessKind::Read => {
                if self.nreads >= self.cfg.read_queue_cap {
                    return false;
                }
                self.nreads += 1;
            }
            AccessKind::Write => {
                if self.nwrites >= self.cfg.write_queue_cap {
                    return false;
                }
                self.nwrites += 1;
                if self.nwrites >= self.cfg.write_drain_hi {
                    // See `issue_column`: the transition point, not a poll.
                    self.draining_writes = true;
                }
            }
        }
        let slot = self.slot_of(&req.dram);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.banks[slot].push(Queued {
            req,
            not_before: 0,
            metadata: false,
            missed: false,
            taxed: false,
            seq,
        });
        self.note_bank_filled(slot);
        self.reindex(slot, before, req.arrival);
        // Lower the decision bound to this request's own earliest issue
        // gate (O(1); the full per-bank recomputation happens on the next
        // full tick). `arrival` is the enqueue cycle.
        let gate = self.request_gate(slot, &req.dram, req.arrival);
        self.quiet_until = self.quiet_until.min(gate.max(req.arrival));
        true
    }

    /// Earliest cycle at which the command `a` needs next (column / ACT /
    /// PRE by current bank state) could issue — a lower bound on when the
    /// request could make the scheduler act.
    fn request_gate(&self, slot: usize, a: &DramAddr, now: Cycle) -> Cycle {
        match self.dram.open_row(a) {
            Some(r) if r == a.row => self.dram.earliest_col(a, now),
            Some(_) => self.dram.earliest_pre(a, now),
            None => self.dram.earliest_act(a, now).max(self.mit_busy[slot]),
        }
    }

    /// Completed demand reads due at or before `now`, as `(id, issuer)`
    /// in `(due cycle, id)` order.
    #[inline]
    pub fn pop_completions(&mut self, now: Cycle, out: &mut Vec<(u64, SourceId)>) {
        while let Some(Reverse((t, id, source))) = self.completions.peek().copied() {
            if t > now {
                break;
            }
            self.completions.pop();
            out.push((id, source));
        }
    }

    /// Advances the controller one bus cycle.
    ///
    /// Ticks strictly before the cached decision bound return immediately
    /// (the bound proves them no-ops); a full tick runs refresh catch-up,
    /// tracker hooks, mitigation work and one scheduling decision, then
    /// recomputes the bound.
    pub fn tick(&mut self, now: Cycle) {
        if !self.naive && now < self.quiet_until {
            return;
        }
        let refreshed = self.do_refresh(now);
        self.run_tracker_hooks(now);
        let mitigated = self.issue_mitigations(now);
        if refreshed || mitigated {
            // REF, sweeps and mitigation commands close and block banks
            // rank-wide; PREs ahead of a mitigation ride along.
            self.refresh_index(now);
        }
        // The scheduler's scan (re-run after any issue) plus the floors
        // over REF/hook/mitigation deadlines give the exact next decision
        // point; mitigation actions this tick are reflected because
        // `mitigation_bound` reads post-action state.
        let scan_bound = self.schedule(now);
        self.quiet_until = self.quiet_floor(now, scan_bound);
    }

    /// Issues every owed REF; true if any issued.
    fn do_refresh(&mut self, now: Cycle) -> bool {
        // Catch-up loop: `now` may jump several tREFI at once (time-skipping
        // engine, or dense ticking resuming after a long sweep block), and
        // every owed REF boundary must be processed, not just the first.
        let trefi = self.dram.timing().t_refi;
        let mut issued = false;
        for rank in 0..self.next_ref.len() {
            while now >= self.next_ref[rank] {
                let blocked_until = self.dram.rank_blocked_until(rank as u8);
                if blocked_until > now + 8 * trefi {
                    // The rank is mid reset-sweep, which refreshes every row
                    // anyway; skip the owed REF rather than piling it up.
                    self.next_ref[rank] += trefi;
                    continue;
                }
                let at = now.max(blocked_until);
                self.dram.issue_ref(rank as u8, at);
                self.stats.refreshes += 1;
                self.next_ref[rank] += trefi;
                issued = true;
            }
        }
        issued
    }

    fn run_tracker_hooks(&mut self, now: Cycle) {
        // Catch-up loops, for the same reason as in `do_refresh`: a jump
        // across k boundaries owes the tracker k hook invocations.
        let t = *self.dram.timing();
        while now >= self.next_trefi_hook {
            self.tracker.on_trefi(now, &mut self.actions);
            self.next_trefi_hook += t.t_refi;
            self.drain_actions(now);
        }
        while now >= self.next_trefw {
            self.tracker.on_refresh_window(now, &mut self.actions);
            if self.capture_events {
                self.events.push(MemEvent::RefreshWindowEnd { cycle: now });
            }
            self.next_trefw += t.t_refw;
            self.drain_actions(now);
        }
    }

    fn drain_actions(&mut self, now: Cycle) {
        // In-place walk: nothing executed here pushes further actions, and
        // the buffer is reused across calls with no allocation.
        let mut i = 0;
        while i < self.actions.len() {
            match self.actions[i] {
                TrackerAction::MitigateRow(addr) => {
                    let slot = self.slot_of(&addr);
                    self.mit_q[slot].push_back(addr);
                    self.mit_q_len += 1;
                }
                TrackerAction::ResetSweep(scope) => self.sweep_q.push_back(scope),
                TrackerAction::CounterRead(addr) => self.push_meta(addr, AccessKind::Read, now),
                TrackerAction::CounterWrite(addr) => self.push_meta(addr, AccessKind::Write, now),
            }
            i += 1;
        }
        self.actions.clear();
    }

    fn push_meta(&mut self, addr: DramAddr, kind: AccessKind, now: Cycle) {
        let id = self.next_meta_id;
        self.next_meta_id += 1;
        let phys = self.dram.geometry().encode(&addr);
        let req = MemRequest::new(id, SourceId::TRACKER, kind, phys, addr, now);
        let slot = self.slot_of(&addr);
        let seq = self.next_seq;
        self.next_seq += 1;
        let before = self.modes();
        self.banks[slot].push(Queued {
            req,
            not_before: now,
            metadata: true,
            missed: false,
            taxed: false,
            seq,
        });
        self.note_bank_filled(slot);
        self.ncounter += 1;
        match kind {
            AccessKind::Read => self.stats.counter_reads += 1,
            AccessKind::Write => self.stats.counter_writes += 1,
        }
        self.reindex(slot, before, now);
    }

    fn slot_of(&self, addr: &DramAddr) -> usize {
        let geom = self.dram.geometry();
        addr.rank as usize * geom.banks_per_rank() as usize + geom.bank_in_rank(addr) as usize
    }

    /// Adds `slot` to the active-bank list if its queue just became
    /// non-empty (call after pushing).
    fn note_bank_filled(&mut self, slot: usize) {
        if self.banks[slot].len() == 1 {
            self.active_pos[slot] = self.active.len() as u32;
            self.active.push(slot as u32);
        }
    }

    /// Removes `slot` from the active-bank list if its queue just drained
    /// (call after removing).
    fn note_bank_drained(&mut self, slot: usize) {
        if self.banks[slot].is_empty() {
            let pos = self.active_pos[slot] as usize;
            self.active.swap_remove(pos);
            self.active_pos[slot] = u32::MAX;
            if let Some(&moved) = self.active.get(pos) {
                self.active_pos[moved as usize] = pos as u32;
            }
        }
    }

    /// Sweep and victim-row mitigation pass; true if it issued anything
    /// (the caller then rebuilds the scan index). The cached decision
    /// bound needs no notification from here: `tick` recomputes it
    /// afterwards via `schedule`'s scan and `mitigation_bound`, both of
    /// which read the post-action state.
    fn issue_mitigations(&mut self, now: Cycle) -> bool {
        let mut acted = false;
        // Structure-reset sweeps take absolute priority.
        while let Some(&scope) = self.sweep_q.front() {
            // Only start a sweep when the scope isn't already mid-sweep.
            let blocked = match scope {
                ResetScope::Rank { rank, .. } => self.dram.rank_blocked(rank, now),
                ResetScope::Channel { .. } => {
                    (0..self.dram.geometry().ranks).any(|r| self.dram.rank_blocked(r, now))
                }
            };
            if blocked {
                break;
            }
            self.sweep_q.pop_front();
            let until = self.dram.issue_reset_sweep(scope, now);
            acted = true;
            self.stats.reset_sweeps += 1;
            self.stats.mitigation_block_cycles += until - now;
            if self.capture_events {
                self.events.push(MemEvent::SweepRefreshed { scope, cycle: until });
            }
        }

        // Victim-row refreshes: rotate over the per-bank buckets, issuing
        // to banks free of mitigation work, at most `MIT_ACTIONS_PER_TICK`
        // actions per cycle. The rotation point derives from `now` rather
        // than a per-tick cursor so that elided no-op ticks cannot shift
        // fairness — a prerequisite for giving the time-skipping engine an
        // exact mitigation decision bound.
        if self.mit_q_len > 0 {
            let nbanks = self.mit_q.len();
            let start = (now % nbanks as Cycle) as usize;
            let geom = *self.dram.geometry();
            let mut actions = 0;
            for step in 0..nbanks {
                if actions >= MIT_ACTIONS_PER_TICK {
                    break;
                }
                let slot = (start + step) % nbanks;
                if self.mit_q[slot].is_empty() || self.mit_busy[slot] > now {
                    continue;
                }
                let addr = self.mit_q[slot][0];
                if self.dram.rank_blocked(addr.rank, now) {
                    continue;
                }
                if !self.dram.is_bank_closed(&addr) {
                    // Mitigation commands need the bank precharged; close it
                    // and issue on a later tick.
                    if self.dram.earliest_pre(&addr, now) <= now {
                        self.dram.issue_pre(&addr, now);
                        self.stats.precharges += 1;
                        actions += 1;
                    }
                    continue;
                }
                self.mit_q[slot].pop_front();
                self.mit_q_len -= 1;
                let until = self.dram.issue_mitigation(
                    &addr,
                    self.cfg.mitigation,
                    self.cfg.blast_radius,
                    now,
                );
                match self.cfg.mitigation {
                    MitigationKind::Vrr => self.stats.vrr_commands += 1,
                    _ => self.stats.rfm_commands += 1,
                }
                self.stats.victim_rows_refreshed += 2 * self.cfg.blast_radius as u64;
                self.stats.mitigation_block_cycles += until - now;
                self.mit_busy[slot] = until;
                actions += 1;
                if self.cfg.mitigation != MitigationKind::Vrr {
                    // Same-bank commands occupy the bank in every group.
                    for bg in 0..geom.bank_groups {
                        let a = DramAddr { bank_group: bg, ..addr };
                        let sl = self.slot_of(&a);
                        self.mit_busy[sl] = self.mit_busy[sl].max(until);
                    }
                }
                if self.capture_events {
                    self.events.push(MemEvent::VictimsRefreshed {
                        aggressor: addr,
                        blast_radius: self.cfg.blast_radius,
                        cycle: until,
                    });
                }
            }
            acted |= actions > 0;
        }
        acted
    }

    /// Earliest cycle the mitigation pass could act again, given current
    /// state: sweep-scope unblock, and per nonempty victim bucket the max
    /// of its mitigation-busy window, its rank's REF/sweep block, and (for
    /// an open bank) the PRE gate it must pay first. Exact while no
    /// command issues, which is all the cached bound needs — any issue
    /// forces a recompute anyway. Under attack this is what turns the
    /// multi-hundred-cycle VRR blocks into skippable stretches.
    fn mitigation_bound(&self, now: Cycle) -> Cycle {
        let mut t = sched::NEVER;
        if let Some(&scope) = self.sweep_q.front() {
            let start = self.dram.scope_unblocked_at(scope);
            if start <= now {
                return now + 1;
            }
            t = t.min(start);
        }
        if self.mit_q_len > 0 {
            for (slot, q) in self.mit_q.iter().enumerate() {
                let Some(addr) = q.front() else { continue };
                let mut b = self.mit_busy[slot].max(self.dram.rank_blocked_until(addr.rank));
                if !self.dram.is_bank_closed(addr) {
                    b = b.max(self.dram.earliest_pre(addr, now));
                }
                t = t.min(b);
                if t <= now {
                    return now + 1;
                }
            }
        }
        t
    }

    /// Pool class of a queued request under the current drain mode:
    /// metadata = 0, favoured demand direction = 1, the other = 2.
    #[inline]
    fn class_of(&self, q: &Queued) -> u8 {
        if q.metadata {
            0
        } else if (q.req.kind == AccessKind::Write) == self.draining_writes {
            1
        } else {
            2
        }
    }

    /// FR-FCFS: pick one command for this cycle.
    ///
    /// Returns the exact no-issue decision bound (the earliest cycle any
    /// command could become issuable, given the state just scanned) when
    /// nothing issued, or `None` when a command issued or a throttle tax
    /// landed — any state change invalidates the scan's bound.
    fn schedule(&mut self, now: Cycle) -> Cycle {
        // The read-vs-write drain phase flips at queue-count transitions
        // (`enqueue` / `issue_column`), not here: a per-cycle poll would
        // make the hysteresis depend on which quiet cycles a scheduler
        // happens to examine, and the quiet-skipping production path and
        // the every-cycle oracle must see identical phase decisions.
        if self.nreads + self.nwrites + self.ncounter == 0 {
            return sched::NEVER;
        }
        if self.naive {
            if let Some((slot, pos)) = self.naive_pick_column(now) {
                self.issue_column(slot, pos, now);
            } else if !self.naive_try_issue_act(now) {
                self.naive_try_issue_pre(now);
            }
            // The oracle never skips: every tick re-derives from scratch.
            return 0;
        }
        let scan = self.fused_scan(now);
        if let Some(slot) = scan.winner(Phase::Col) {
            let pos = self.digests[slot].pos as usize;
            let was_saturated = self.ncounter >= self.cfg.counter_queue_cap;
            self.issue_column(slot, pos, now);
            if was_saturated && self.ncounter < self.cfg.counter_queue_cap {
                // A metadata issue lifted the ACT backpressure: formerly
                // vetoed candidates may be ready channel-wide.
                return now;
            }
            return self.post_issue_bound(&scan, slot, None, now);
        }
        if let Some(slot) = scan.winner(Phase::Act) {
            let pos = self.digests[slot].pos as usize;
            let meta_before = self.ncounter;
            if self.commit_act(slot, pos, now) {
                if self.ncounter != meta_before {
                    // The tracker's reaction queued metadata on arbitrary
                    // banks (ready from the next cycle): decide then.
                    return now;
                }
                return self.post_issue_bound(&scan, slot, None, now);
            }
            // Throttled: the tax is a state change, but the PRE pass still
            // runs this very tick, like the dense reference.
            let pre_slot = scan.winner(Phase::Pre).inspect(|&ps| self.precharge(ps, now));
            return self.post_issue_bound(&scan, slot, pre_slot, now);
        }
        if let Some(ps) = scan.winner(Phase::Pre) {
            self.precharge(ps, now);
            return self.post_issue_bound(&scan, ps, None, now);
        }
        scan.bound
    }

    /// Precharges the bank in `slot`, whose open row serves nothing queued.
    fn precharge(&mut self, slot: usize, now: Cycle) {
        // Every queued request conflicts, so any of them names the bank.
        let a = self.banks[slot][0].req.dram;
        self.dram.issue_pre(&a, now);
        self.stats.precharges += 1;
        self.refresh_digest(slot, now);
    }

    /// Decision bound after this tick's action(s) touched `slot` (and
    /// possibly `slot2`). Issuing only pushes *other* banks' gates later,
    /// so fresh readiness can appear exclusively on the touched banks —
    /// one O(bank) recheck each — while a second pre-existing ready bank
    /// (`scan.ready >= 2`) pins the next decision to the coming cycle.
    fn post_issue_bound(
        &self,
        scan: &Scan,
        slot: usize,
        slot2: Option<usize>,
        now: Cycle,
    ) -> Cycle {
        if scan.ready >= 2 {
            return now;
        }
        let mut b = scan.bound.min(self.bank_bound(slot, now));
        if let Some(s2) = slot2 {
            b = b.min(self.bank_bound(s2, now));
        }
        b
    }

    /// Recheck of one bank against current state: `now` when it holds a
    /// ready action, else its future decision contribution.
    fn bank_bound(&self, slot: usize, now: Cycle) -> Cycle {
        if self.banks[slot].is_empty() {
            return sched::NEVER;
        }
        self.ready_at(slot, now).max(now)
    }

    /// One pass over the active banks' digests computing all three phase
    /// winners, the ready-bank count, and the no-issue decision bound
    /// simultaneously. `active` is unordered; every selection is
    /// order-independent (winners by lowest key).
    fn fused_scan(&mut self, now: Cycle) -> Scan {
        if now >= self.next_hold {
            self.refresh_all_digests(now);
        }
        let mut s = Scan::empty();
        for &slot in &self.active {
            let eff = self.ready_at(slot as usize, now);
            if eff <= now {
                let d = &self.digests[slot as usize];
                s.ready += 1;
                let win = &mut s.win[d.phase as usize];
                if d.key < win.0 {
                    *win = (d.key, slot);
                }
            } else {
                s.bound = s.bound.min(eff);
            }
        }
        s
    }

    /// Earliest cycle the command the active bank in `slot` asks for could
    /// issue: the later half of its gate. `now` only feeds the debug
    /// invariant.
    #[inline]
    fn ready_at(&self, slot: usize, now: Cycle) -> Cycle {
        let d = &self.digests[slot];
        // Convict a missed invalidation at the cycle it happens.
        debug_assert_eq!(*d, self.compute_digest(slot, now).0, "stale digest, slot {slot} @ {now}");
        debug_assert_eq!(
            self.gates[d.gidx as usize],
            {
                let rank = self.slot_coords[slot].0;
                self.derive_gate(rank, d.gidx as usize - rank as usize * self.gate_stride)
            },
            "stale shared gate, slot {slot} @ {now}"
        );
        d.local.max(self.gates[d.gidx as usize])
    }

    /// The controller-wide modes digests depend on.
    #[inline]
    fn modes(&self) -> Modes {
        (self.draining_writes, self.ncounter >= self.cfg.counter_queue_cap)
    }

    /// Digest of the bank in `slot` from scratch, valid from `now` until
    /// the second value: the earliest future `not_before` among the
    /// requests its command could serve ([`sched::NEVER`] if none).
    fn compute_digest(&self, slot: usize, now: Cycle) -> (BankDigest, Cycle) {
        let (rank, bank_ix, bg) = self.slot_coords[slot];
        let b = self.dram.bank_state(rank, bank_ix);
        // Backpressure: while the metadata queue is saturated, demand ACTs
        // stall (Hydra/START counter updates gate forward progress).
        // Unblocking needs a metadata issue — itself a decision tick — so
        // vetoed candidates contribute neither readiness nor a bound.
        let (_, meta_saturated) = self.modes();
        let (mut min_nb, mut hold, mut key, mut pos) = (sched::NEVER, sched::NEVER, u64::MAX, 0);
        for (p, q) in self.banks[slot].iter().enumerate() {
            let class = self.class_of(q);
            // Servable: a hit on the open row, or an ACT candidate.
            let servable = match b.open_row {
                Some(open) => q.req.dram.row == open,
                None => !(meta_saturated && class != 0),
            };
            if !servable {
                continue;
            }
            min_nb = min_nb.min(q.not_before);
            if q.not_before > now {
                hold = hold.min(q.not_before);
                continue;
            }
            let k = (class as u64) << 62 | q.seq;
            if k < key {
                (key, pos) = (k, p as u32);
            }
        }
        let base = rank as usize * self.gate_stride;
        let digest = |phase, local, gidx: usize, key, pos| BankDigest {
            local,
            key,
            pos,
            gidx: gidx as u16,
            phase,
        };
        let d = match b.open_row {
            // Closed bank: every request is an ACT candidate behind one
            // shared gate.
            None => {
                let local = b.next_act.max(self.mit_busy[slot]).max(min_nb);
                digest(Phase::Act, local, base + 2 + bg as usize, key, pos)
            }
            // Served bank: column work only. PRE is impossible while a
            // hit is queued, and the serve set only changes at a decision
            // point, so the column gate is the bank's entire contribution.
            Some(_) if min_nb != sched::NEVER => {
                digest(Phase::Col, b.next_col.max(min_nb), base, key, pos)
            }
            // Unserved conflict: PRE once the gate has passed, whatever
            // the requests' throttle or veto state.
            Some(_) => digest(Phase::Pre, b.next_pre, base + 1, slot as u64, 0),
        };
        (d, hold)
    }

    fn refresh_digest(&mut self, slot: usize, now: Cycle) {
        let (d, hold) = self.compute_digest(slot, now);
        self.digests[slot] = d;
        self.next_hold = self.next_hold.min(hold);
    }

    fn refresh_all_digests(&mut self, now: Cycle) {
        self.next_hold = sched::NEVER;
        for i in 0..self.active.len() {
            self.refresh_digest(self.active[i] as usize, now);
        }
    }

    /// After a queue mutation on `slot`: recomputes every digest if the
    /// mutation flipped a controller-wide mode, else that bank's.
    fn reindex(&mut self, slot: usize, before: Modes, now: Cycle) {
        if self.modes() != before {
            self.refresh_all_digests(now);
        } else if !self.banks[slot].is_empty() {
            self.refresh_digest(slot, now);
        }
    }

    /// Entry `k` of `rank`'s block of the shared-gate table, derived from
    /// DRAM state.
    #[inline]
    fn derive_gate(&self, rank: u8, k: usize) -> Cycle {
        match k {
            0 => self.dram.rank_blocked_until(rank).max(self.dram.bus_col_gate()),
            1 => self.dram.rank_blocked_until(rank),
            _ => self.dram.rank_act_gate(rank, (k - 2) as u8),
        }
    }

    /// Re-derives `rank`'s block of the shared-gate table.
    fn refresh_gates(&mut self, rank: u8) {
        let base = rank as usize * self.gate_stride;
        for k in 0..self.gate_stride {
            self.gates[base + k] = self.derive_gate(rank, k);
        }
    }

    /// Rebuilds the whole scan index: every shared gate, every active
    /// bank's digest.
    fn refresh_index(&mut self, now: Cycle) {
        for rank in 0..self.next_ref.len() {
            self.refresh_gates(rank as u8);
        }
        self.refresh_all_digests(now);
    }

    /// Naive-scan column selection (oracle): per-request eligibility from
    /// scratch, no shared-gate shortcuts.
    fn naive_pick_column(&self, now: Cycle) -> Option<(usize, usize)> {
        let mut best: Option<Candidate> = None;
        for (slot, bank) in self.banks.iter().enumerate() {
            for (pos, q) in bank.iter().enumerate() {
                let a = &q.req.dram;
                if q.not_before <= now
                    && self.dram.is_row_hit(a)
                    && self.dram.earliest_col(a, now) <= now
                {
                    let key = (self.class_of(q), q.seq);
                    if best.is_none_or(|(c, s, _, _)| key < (c, s)) {
                        best = Some((key.0, key.1, slot, pos));
                    }
                }
            }
        }
        best.map(|(_, _, slot, pos)| (slot, pos))
    }

    fn issue_column(&mut self, slot: usize, pos: usize, now: Cycle) {
        let before = self.modes();
        let q = self.banks[slot].remove(pos);
        self.note_bank_drained(slot);
        if q.metadata {
            self.ncounter -= 1;
        } else {
            match q.req.kind {
                AccessKind::Read => self.nreads -= 1,
                AccessKind::Write => {
                    self.nwrites -= 1;
                    if self.nwrites == 0 {
                        // Drain-mode hysteresis, evaluated at the exact
                        // count transition (a per-cycle poll would be
                        // path-dependent across elided quiet ticks).
                        self.draining_writes = false;
                    }
                }
            }
        }
        let done = match q.req.kind {
            AccessKind::Read => {
                let d = self.dram.issue_read(&q.req.dram, now);
                self.stats.reads += 1;
                d
            }
            AccessKind::Write => {
                let d = self.dram.issue_write(&q.req.dram, now);
                self.stats.writes += 1;
                d
            }
        };
        // The burst occupies the data bus: every rank's column gate moves.
        for rank in 0..self.next_ref.len() {
            self.gates[rank * self.gate_stride] = self.derive_gate(rank as u8, 0);
        }
        self.reindex(slot, before, now);
        if !q.metadata {
            if q.missed {
                self.stats.row_misses += 1;
            } else {
                self.stats.row_hits += 1;
            }
        }
        if q.req.is_demand_read() {
            // No completion may land earlier than arrival + the advertised
            // inject-to-complete floor.
            debug_assert!(
                done >= q.req.arrival + self.min_inject_latency(),
                "completion at {done} violates the lookahead bound for a request arriving at {}",
                q.req.arrival
            );
            self.completions.push(Reverse((done, q.req.id, q.req.source)));
            if self.capture_events {
                self.events.push(MemEvent::ReadCompleted {
                    source: q.req.source,
                    phys: q.req.phys,
                    arrival: q.req.arrival,
                    cycle: done,
                });
            }
        }
    }

    /// Naive-scan ACT selection (oracle).
    fn naive_pick_act(&self, now: Cycle) -> Option<(usize, usize)> {
        let meta_saturated = self.ncounter >= self.cfg.counter_queue_cap;
        let mut best: Option<Candidate> = None;
        for (slot, bank) in self.banks.iter().enumerate() {
            for (pos, q) in bank.iter().enumerate() {
                let a = &q.req.dram;
                let class = self.class_of(q);
                if meta_saturated && class != 0 {
                    continue;
                }
                if q.not_before <= now
                    && self.dram.is_bank_closed(a)
                    && self.mit_busy[self.slot_of(a)] <= now
                    && self.dram.earliest_act(a, now) <= now
                {
                    let key = (class, q.seq);
                    if best.is_none_or(|(c, s, _, _)| key < (c, s)) {
                        best = Some((key.0, key.1, slot, pos));
                    }
                }
            }
        }
        best.map(|(_, _, slot, pos)| (slot, pos))
    }

    /// Naive-mode ACT phase: pick, then commit. Returns true iff an ACT
    /// issued (a throttle tax counts as "no issue": PRE still runs).
    fn naive_try_issue_act(&mut self, now: Cycle) -> bool {
        match self.naive_pick_act(now) {
            Some((slot, pos)) => self.commit_act(slot, pos, now),
            None => false,
        }
    }

    /// Commits the chosen ACT candidate: pays the tracker's throttle tax
    /// (at most once per request) or issues the activation and runs the
    /// tracker's reactions.
    fn commit_act(&mut self, slot: usize, pos: usize, now: Cycle) -> bool {
        // Consult the tracker's throttle before committing (once per
        // request: the delay is a tax paid ahead of the ACT).
        let (addr, source, taxed) = {
            let q = &self.banks[slot][pos];
            (q.req.dram, q.req.source, q.taxed)
        };
        if !taxed {
            let delay = self.tracker.activation_delay(&addr, source, now);
            if delay > 0 {
                let q = &mut self.banks[slot][pos];
                q.not_before = now + delay;
                q.taxed = true;
                self.refresh_digest(slot, now);
                return false;
            }
        }
        self.dram.issue_act(&addr, now);
        self.refresh_gates(addr.rank);
        self.refresh_digest(slot, now);
        self.stats.activations += 1;
        self.banks[slot][pos].missed = true;
        if self.capture_events {
            self.events.push(MemEvent::Activate { addr, cycle: now });
        }
        // Inform the tracker and execute its reactions.
        let act = Activation { addr, source, cycle: now };
        self.tracker.on_activation(act, &mut self.actions);
        self.drain_actions(now);
        true
    }

    /// Naive-scan PRE pass (oracle): served/conflict re-derived per
    /// request via DRAM queries, oldest conflict by explicit age compare.
    fn naive_try_issue_pre(&mut self, now: Cycle) -> bool {
        for slot in 0..self.banks.len() {
            let mut served = false;
            let mut conflict: Option<(u64, DramAddr)> = None;
            for q in &self.banks[slot] {
                let a = &q.req.dram;
                if let Some(open) = self.dram.open_row(a) {
                    if open == a.row {
                        served = true;
                    } else if conflict.is_none_or(|(s, _)| q.seq < s) {
                        conflict = Some((q.seq, *a));
                    }
                }
            }
            if served {
                continue;
            }
            if let Some((_, a)) = conflict {
                if self.dram.earliest_pre(&a, now) <= now {
                    self.dram.issue_pre(&a, now);
                    self.stats.precharges += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Combines the fused scan's no-issue bound with every other source of
    /// controller work — REF deadlines, tracker hooks, mitigation backlog,
    /// pending sweeps — into the decision bound cached in `quiet_until`.
    fn quiet_floor(&self, now: Cycle, scan_bound: Cycle) -> Cycle {
        let mut t = scan_bound.min(self.next_trefi_hook).min(self.next_trefw);
        for &r in &self.next_ref {
            t = t.min(r);
        }
        t = t.min(self.mitigation_bound(now));
        sched::at_least_next_cycle(t, now)
    }

    /// The next command-granularity decision point, which is this
    /// channel's **due cycle**: a lower bound `>= now` on the first cycle
    /// at which [`ChannelController::tick`] could have an observable effect
    /// (issue a command, fire a refresh or tracker hook, mutate statistics,
    /// consult the tracker) or a queued completion falls due.
    ///
    /// * `now` means "tick me this very cycle". `T > now` asserts that
    ///   ticks at every cycle in `now..T` are exact no-ops, so the engine
    ///   may leave the channel alone until `T`; that is what lets a
    ///   saturated controller advance one tick per command-issue decision
    ///   rather than one per bus cycle.
    /// * A bound that is too small costs a wasted tick. One that is too
    ///   large skips real work and breaks bit-exact equivalence with the
    ///   dense engine.
    /// * Only [`ChannelController::tick`] (with the
    ///   [`ChannelController::pop_completions`] that follows it) and
    ///   [`ChannelController::enqueue`] move the bound, so a caller that
    ///   re-reads it after those two has it current.
    ///
    /// Answered in O(1) from the cached decision bound, mutating nothing,
    /// so probing a saturated controller every cycle costs no queue walk.
    #[inline]
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let mut t = self.quiet_until;
        if let Some(&Reverse((c, _, _))) = self.completions.peek() {
            t = t.min(c);
        }
        t.max(now)
    }

    /// Inject-to-complete floor: a request enqueued at cycle `t` cannot
    /// complete before `t + tCL + tBL` — the CAS-to-data latency plus the
    /// burst, which every demand read pays even on a row hit issued the
    /// same cycle it arrives. A read that must open its row additionally
    /// pays tRCD (and possibly tRP), so the true floor for cold rows is
    /// `tRCD + tCL + tBL`; the controller reports the guaranteed row-hit
    /// floor. `issue_column` asserts the bound against every completion it
    /// schedules.
    #[inline]
    pub fn min_inject_latency(&self) -> Cycle {
        let t = self.dram.timing();
        t.t_cl + t.t_bl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::TimingParams;
    use sim_core::addr::{Geometry, PhysAddr};
    use sim_core::tracker::{NullTracker, StorageOverhead};

    fn mk(tracker: Box<dyn RowHammerTracker>, events: bool) -> ChannelController {
        let geom = Geometry::paper_baseline();
        let dram = DramChannel::new(geom, TimingParams::ddr5_6400());
        let cfg = CtrlConfig::new(500, 1, MitigationKind::Vrr);
        let mut ctrl = ChannelController::new(0, dram, tracker, cfg);
        ctrl.set_event_capture(events);
        ctrl
    }

    fn rd(id: u64, bg: u8, bank: u8, row: u32, col: u16, at: Cycle) -> MemRequest {
        let d = DramAddr::new(0, 0, bg, bank, row, col);
        MemRequest::new(id, SourceId(0), AccessKind::Read, PhysAddr(0), d, at)
    }

    fn run(ctrl: &mut ChannelController, from: Cycle, to: Cycle, done: &mut Vec<(u64, SourceId)>) {
        for now in from..to {
            ctrl.tick(now);
            ctrl.pop_completions(now, done);
        }
    }

    #[test]
    fn single_read_completes() {
        let mut c = mk(Box::new(NullTracker), false);
        assert!(c.enqueue(rd(1, 0, 0, 10, 2, 0)));
        let mut done = Vec::new();
        run(&mut c, 0, 400, &mut done);
        assert_eq!(done, vec![(1, SourceId(0))]);
        assert_eq!(c.stats.activations, 1);
        assert_eq!(c.stats.reads, 1);
        assert_eq!(c.stats.row_misses, 1);
    }

    #[test]
    fn row_hits_skip_activation() {
        let mut c = mk(Box::new(NullTracker), false);
        assert!(c.enqueue(rd(1, 0, 0, 10, 2, 0)));
        assert!(c.enqueue(rd(2, 0, 0, 10, 3, 0)));
        let mut done = Vec::new();
        run(&mut c, 0, 600, &mut done);
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats.activations, 1, "second access rides the open row");
        assert_eq!(c.stats.row_hits, 1);
    }

    #[test]
    fn controller_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ChannelController>();
    }

    #[test]
    fn same_row_reads_complete_in_due_cycle_then_id_order() {
        let mut c = mk(Box::new(NullTracker), false);
        assert!(c.enqueue(MemRequest { source: SourceId(3), ..rd(1, 0, 0, 10, 0, 0) }));
        assert!(c.enqueue(rd(2, 0, 0, 10, 0, 0)));
        let mut done = Vec::new();
        run(&mut c, 0, 500, &mut done);
        let want = vec![(1, SourceId(3)), (2, SourceId(0))];
        assert_eq!(done, want, "pop order is (due cycle, id), each with its issuer");
    }

    #[test]
    fn completions_respect_the_lookahead_bound() {
        let mut c = mk(Box::new(NullTracker), false);
        let floor = c.min_inject_latency();
        let timing = *c.dram().timing();
        assert_eq!(floor, timing.t_cl + timing.t_bl);
        assert!(floor >= 1, "the bound must rule out same-cycle completion");
        let inject_at = 7;
        let mut done = Vec::new();
        run(&mut c, 0, inject_at, &mut done);
        assert!(c.enqueue(rd(9, 0, 0, 42, 0, inject_at)));
        let done_at = (inject_at..inject_at + 4000)
            .find(|&now| {
                run(&mut c, now, now + 1, &mut done);
                !done.is_empty()
            })
            .expect("read completes");
        assert!(done_at >= inject_at + floor, "{done_at} < {inject_at} + {floor}");
    }

    #[test]
    fn conflicting_rows_precharge() {
        let mut c = mk(Box::new(NullTracker), false);
        assert!(c.enqueue(rd(1, 0, 0, 10, 0, 0)));
        assert!(c.enqueue(rd(2, 0, 0, 11, 0, 0)));
        let mut done = Vec::new();
        run(&mut c, 0, 2000, &mut done);
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats.activations, 2);
        assert!(c.stats.precharges >= 1);
    }

    #[test]
    fn queue_capacity_backpressures() {
        let mut c = mk(Box::new(NullTracker), false);
        for i in 0..40 {
            let ok = c.enqueue(rd(i, (i % 8) as u8, 0, i as u32, 0, 0));
            assert_eq!(ok, i < 32, "request {i}");
        }
    }

    #[test]
    fn refresh_happens_every_trefi() {
        let mut c = mk(Box::new(NullTracker), false);
        let trefi = c.dram().timing().t_refi;
        let mut done = Vec::new();
        run(&mut c, 0, trefi * 4 + 10, &mut done);
        // 2 ranks x ~3-4 refreshes.
        assert!((6..=9).contains(&c.stats.refreshes), "{}", c.stats.refreshes);
    }

    /// A tracker that mitigates every 8th activation of any row.
    struct EveryN {
        n: u32,
        count: u32,
    }
    impl RowHammerTracker for EveryN {
        fn name(&self) -> &'static str {
            "every-n"
        }
        fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
            self.count += 1;
            if self.count.is_multiple_of(self.n) {
                actions.push(TrackerAction::MitigateRow(act.addr));
            }
        }
        fn storage_overhead(&self) -> StorageOverhead {
            StorageOverhead::default()
        }
    }

    #[test]
    fn tracker_mitigations_execute_and_block_banks() {
        let mut c = mk(Box::new(EveryN { n: 1, count: 0 }), true);
        assert!(c.enqueue(rd(1, 0, 0, 10, 0, 0)));
        let mut done = Vec::new();
        run(&mut c, 0, 2000, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(c.stats.vrr_commands, 1);
        assert_eq!(c.stats.victim_rows_refreshed, 2);
        let mut drained = Vec::new();
        c.drain_events(&mut |ev| drained.push(*ev));
        assert!(drained.iter().any(|e| matches!(e, MemEvent::VictimsRefreshed { .. })));
        // The buffer hands everything over exactly once.
        let mut again = Vec::new();
        c.drain_events(&mut |ev| again.push(*ev));
        assert!(again.is_empty(), "drain must clear the buffer");
    }

    #[test]
    fn no_sink_means_no_buffered_events() {
        // The fast path: without a registered sink the controller must not
        // accumulate events (a long sweep would otherwise leak memory and
        // time into probe-free runs).
        let mut c = mk(Box::new(EveryN { n: 1, count: 0 }), false);
        assert!(!c.captures_events());
        assert!(c.enqueue(rd(1, 0, 0, 10, 0, 0)));
        let mut done = Vec::new();
        run(&mut c, 0, 2000, &mut done);
        assert_eq!(c.stats.vrr_commands, 1, "mitigation work still happens");
        let mut drained = 0;
        c.drain_events(&mut |_| drained += 1);
        assert_eq!(drained, 0, "nothing may be buffered without a sink");
    }

    /// A tracker that asks for counter traffic on each ACT (Hydra-like).
    struct MetaOnAct;
    impl RowHammerTracker for MetaOnAct {
        fn name(&self) -> &'static str {
            "meta"
        }
        fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
            let meta = DramAddr { row: 0xFFFF, col: 0, ..act.addr };
            actions.push(TrackerAction::CounterRead(meta));
            actions.push(TrackerAction::CounterWrite(meta));
        }
        fn storage_overhead(&self) -> StorageOverhead {
            StorageOverhead::default()
        }
    }

    #[test]
    fn counter_traffic_consumes_bandwidth() {
        let mut plain = mk(Box::new(NullTracker), false);
        let mut noisy = mk(Box::new(MetaOnAct), false);
        for i in 0..16u64 {
            let r = rd(i, (i % 8) as u8, (i % 4) as u8, 100 + i as u32, 0, 0);
            assert!(plain.enqueue(r));
            assert!(noisy.enqueue(r));
        }
        let mut d1 = Vec::new();
        let mut d2 = Vec::new();
        run(&mut plain, 0, 5000, &mut d1);
        run(&mut noisy, 0, 5000, &mut d2);
        assert_eq!(d1.len(), 16);
        assert_eq!(d2.len(), 16);
        assert!(noisy.stats.counter_reads >= 16);
        assert!(noisy.stats.counter_writes >= 16);
        // Metadata contends for the same banks/bus.
        assert!(noisy.stats.activations > plain.stats.activations);
    }

    /// A tracker that requests a rank sweep at the first tREFI.
    struct SweepOnce {
        fired: bool,
    }
    impl RowHammerTracker for SweepOnce {
        fn name(&self) -> &'static str {
            "sweep-once"
        }
        fn on_activation(&mut self, _: Activation, _: &mut Vec<TrackerAction>) {}
        fn on_trefi(&mut self, _cycle: Cycle, actions: &mut Vec<TrackerAction>) {
            if !self.fired {
                self.fired = true;
                actions.push(TrackerAction::ResetSweep(ResetScope::Rank { channel: 0, rank: 0 }));
            }
        }
        fn storage_overhead(&self) -> StorageOverhead {
            StorageOverhead::default()
        }
    }

    #[test]
    fn reset_sweep_blocks_rank_for_millis() {
        let mut c = mk(Box::new(SweepOnce { fired: false }), true);
        let trefi = c.dram().timing().t_refi;
        let mut done = Vec::new();
        // The sweep fires at the first tREFI but must wait out the REF block.
        run(&mut c, 0, trefi + 2000, &mut done);
        assert_eq!(c.stats.reset_sweeps, 1);
        // A read to rank 0 enqueued now completes only after the sweep.
        assert!(c.enqueue(rd(9, 0, 0, 5, 0, trefi + 2000)));
        let sweep_cycles = c.dram().timing().sweep_block(64 * 1024);
        run(&mut c, trefi + 2000, trefi + 2000 + sweep_cycles + 20_000, &mut done);
        assert_eq!(done, vec![(9, SourceId(0))]);
        assert!(c.stats.mitigation_block_cycles >= sweep_cycles);
    }

    /// Throttling tracker: delays the first ACT by a fixed amount.
    struct Throttler(Cycle);
    impl RowHammerTracker for Throttler {
        fn name(&self) -> &'static str {
            "throttle"
        }
        fn on_activation(&mut self, _: Activation, _: &mut Vec<TrackerAction>) {}
        fn activation_delay(&mut self, _a: &DramAddr, _s: SourceId, _c: Cycle) -> Cycle {
            std::mem::take(&mut self.0)
        }
        fn storage_overhead(&self) -> StorageOverhead {
            StorageOverhead::default()
        }
    }

    #[test]
    fn throttled_acts_are_delayed() {
        let mut fast = mk(Box::new(NullTracker), false);
        let mut slow = mk(Box::new(Throttler(500)), false);
        assert!(fast.enqueue(rd(1, 0, 0, 10, 0, 0)));
        assert!(slow.enqueue(rd(1, 0, 0, 10, 0, 0)));
        let mut df = Vec::new();
        let mut ds = Vec::new();
        for now in 0..2000 {
            fast.tick(now);
            slow.tick(now);
            fast.pop_completions(now, &mut df);
            slow.pop_completions(now, &mut ds);
            if !df.is_empty() && ds.is_empty() {
                // fast finished first, as expected
            }
        }
        assert_eq!(df.len(), 1);
        assert_eq!(ds.len(), 1);
    }

    /// Counts every hook invocation through shared counters so the test
    /// can read them after the tracker moves into the controller
    /// (`Arc`/atomics rather than `Rc`/`Cell` because `RowHammerTracker`
    /// is `Send`).
    struct HookCounter {
        trefi: std::sync::Arc<std::sync::atomic::AtomicU64>,
        trefw: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }
    impl RowHammerTracker for HookCounter {
        fn name(&self) -> &'static str {
            "hook-counter"
        }
        fn on_activation(&mut self, _: Activation, _: &mut Vec<TrackerAction>) {}
        fn on_trefi(&mut self, _c: Cycle, _a: &mut Vec<TrackerAction>) {
            self.trefi.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn on_refresh_window(&mut self, _c: Cycle, _a: &mut Vec<TrackerAction>) {
            self.trefw.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn storage_overhead(&self) -> StorageOverhead {
            StorageOverhead::default()
        }
    }

    #[test]
    fn time_jump_owes_every_hook_boundary() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // A tick landing several tREFI/tREFW past the deadlines must fire
        // one hook per owed boundary, not one per call.
        let trefi_count = std::sync::Arc::new(AtomicU64::new(0));
        let trefw_count = std::sync::Arc::new(AtomicU64::new(0));
        let tracker = HookCounter {
            trefi: std::sync::Arc::clone(&trefi_count),
            trefw: std::sync::Arc::clone(&trefw_count),
        };
        let mut c = mk(Box::new(tracker), false);
        let trefi = c.dram().timing().t_refi;
        let trefw = c.dram().timing().t_refw;
        c.tick(0);
        assert_eq!(trefi_count.load(Ordering::Relaxed), 0, "no boundary owed at cycle 0");
        // Jump straight past 5 tREFI boundaries in one call.
        c.tick(5 * trefi + 1);
        assert_eq!(trefi_count.load(Ordering::Relaxed), 5, "every owed tREFI hook must fire");
        // Jump past 3 tREFW boundaries; tREFI hooks catch up alongside.
        c.tick(3 * trefw + 1);
        assert_eq!(trefw_count.load(Ordering::Relaxed), 3, "every owed tREFW hook must fire");
        assert_eq!(
            trefi_count.load(Ordering::Relaxed),
            (3 * trefw + 1) / trefi,
            "tREFI hooks catch up too"
        );
        // REF boundaries also catch up. A full back-payment is not owed —
        // once the pile of instantaneous REFs blocks the rank further than
        // 8 tREFI out, the catch-up loop deliberately skips the rest (the
        // same guard the reset-sweep path uses) — but the pre-fix behaviour
        // of one REF per rank per `tick` call (≤ 6 here) must be far
        // exceeded, and no deadline may be left in the past.
        assert!(
            c.stats.refreshes > 100,
            "REF catch-up still pays one boundary per call: {}",
            c.stats.refreshes
        );
        let t_end = 3 * trefw + 1;
        assert!(c.next_ref.iter().all(|&r| r > t_end), "stale REF deadline survived the jump");
    }

    #[test]
    fn next_event_is_a_sound_decision_bound() {
        // Idle controller: the bound is the first REF/hook deadline, and no
        // observable state changes while ticking densely up to (but not
        // including) that cycle.
        let mut c = mk(Box::new(NullTracker), false);
        let bound = c.next_event(0);
        assert!(bound > 1, "idle controller must allow skipping");
        let before = c.stats;
        for now in 0..bound {
            c.tick(now);
        }
        assert_eq!(c.stats, before, "tick acted before the reported bound");
        c.tick(bound);
        assert!(c.stats.refreshes > 0, "bound cycle itself performs the REF");

        // A ready request makes `now` itself the decision point.
        let mut c = mk(Box::new(NullTracker), false);
        assert!(c.enqueue(rd(1, 0, 0, 10, 2, 0)));
        assert_eq!(c.next_event(0), 0, "ready request must demand an immediate tick");

        // A rank-wide sweep block lets the controller skip ahead even with
        // a queued request behind it.
        let mut c = mk(Box::new(SweepOnce { fired: false }), false);
        let trefi = c.dram().timing().t_refi;
        let mut done = Vec::new();
        run(&mut c, 0, trefi + 2000, &mut done);
        assert_eq!(c.stats.reset_sweeps, 1);
        assert!(c.enqueue(rd(7, 0, 0, 5, 0, trefi + 2000)));
        let now = trefi + 2000;
        let bound = c.next_event(now);
        let unblock = c.dram().rank_blocked_until(0);
        assert!(unblock > now + 1000, "sweep must block the rank for a while");
        let refresh_floor =
            c.next_ref.iter().copied().min().unwrap().min(c.next_trefi_hook).min(c.next_trefw);
        assert_eq!(bound, unblock.min(refresh_floor), "skip to unblock or next REF deadline");
        assert!(bound > now + 1, "blocked backlog must not force dense ticking");
    }

    #[test]
    fn quiet_ticks_are_exact_noops_under_load() {
        // Drive a controller with mixed hit/conflict traffic and verify
        // that every cycle the cached bound declares quiet really is a
        // no-op: a shadow controller in naive mode (which cannot skip)
        // produces identical stats and completions at every cycle.
        let mut fast = mk(Box::new(EveryN { n: 7, count: 0 }), false);
        let mut oracle = mk(Box::new(EveryN { n: 7, count: 0 }), false);
        oracle.set_naive_scan(true);
        let mut df = Vec::new();
        let mut dn = Vec::new();
        let mut id = 0u64;
        for now in 0..30_000u64 {
            if now % 37 == 0 && fast.can_accept_read() {
                let r = rd(id, (id % 8) as u8, (id % 4) as u8, (id % 13) as u32 * 3, 0, now);
                assert!(fast.enqueue(r));
                assert!(oracle.enqueue(r));
                id += 1;
            }
            fast.tick(now);
            oracle.tick(now);
            fast.pop_completions(now, &mut df);
            oracle.pop_completions(now, &mut dn);
            assert_eq!(fast.stats, oracle.stats, "diverged at cycle {now}");
            assert_eq!(df, dn, "completions diverged at cycle {now}");
        }
        assert!(fast.stats.reads > 0);
        assert!(fast.stats.vrr_commands > 0, "mitigation path exercised");
    }

    #[test]
    fn leaving_oracle_mode_mid_run_rebuilds_the_index() {
        // The oracle's PRE pass goes around the index; a controller that
        // switches back to the indexed scan must not read digests from
        // before the switch (debug builds assert that on every visit).
        let mut switched = mk(Box::new(NullTracker), false);
        let mut oracle = mk(Box::new(NullTracker), false);
        switched.set_naive_scan(true);
        oracle.set_naive_scan(true);
        let (mut ds, mut dn) = (Vec::new(), Vec::new());
        let mut id = 0u64;
        for now in 0..8_000u64 {
            if now == 3_000 {
                switched.set_naive_scan(false);
            }
            if now % 23 == 0 && switched.can_accept_read() {
                let r = rd(id, (id % 8) as u8, (id % 4) as u8, (id % 5) as u32, 0, now);
                assert!(switched.enqueue(r) && oracle.enqueue(r));
                id += 1;
            }
            switched.tick(now);
            oracle.tick(now);
            switched.pop_completions(now, &mut ds);
            oracle.pop_completions(now, &mut dn);
            assert_eq!(switched.stats, oracle.stats, "diverged at cycle {now}");
        }
        assert_eq!(ds, dn);
        assert!(switched.stats.precharges > 50, "conflict traffic exercised");
    }

    #[test]
    fn writes_drain_without_completions() {
        let mut c = mk(Box::new(NullTracker), false);
        let d = DramAddr::new(0, 0, 1, 1, 77, 0);
        let w = MemRequest::new(5, SourceId(0), AccessKind::Write, PhysAddr(0), d, 0);
        assert!(c.enqueue(w));
        let mut done = Vec::new();
        run(&mut c, 0, 3000, &mut done);
        assert!(done.is_empty(), "writes never produce completions");
        assert_eq!(c.stats.writes, 1);
    }

    #[test]
    fn metadata_stays_visible_under_queue_churn() {
        // Regression for the old `VecDeque::as_slices().0` scheduler bug:
        // once the metadata queue wrapped its ring buffer, requests in the
        // wrapped half were invisible to FR-FCFS until the deque happened
        // to straighten out. The per-bank layout must keep every metadata
        // request schedulable regardless of how many have been pushed and
        // popped before it, so sustained meta churn (every ACT emits a
        // read+write, far beyond the old deque's initial segment) must
        // retire all metadata within the run.
        let mut c = mk(Box::new(MetaOnAct), false);
        let mut done = Vec::new();
        let mut id = 0u64;
        for now in 0..120_000u64 {
            if now % 61 == 0 && c.can_accept_read() {
                assert!(c.enqueue(rd(id, (id % 8) as u8, (id % 4) as u8, id as u32 % 97, 0, now)));
                id += 1;
            }
            c.tick(now);
            c.pop_completions(now, &mut done);
        }
        assert!(c.stats.counter_reads + c.stats.counter_writes > 1500, "meta churn generated");
        // Let the queue fully drain with no new demand traffic.
        for now in 120_000u64..200_000 {
            c.tick(now);
            c.pop_completions(now, &mut done);
        }
        let (r, w, meta) = c.occupancy();
        assert_eq!(meta, 0, "metadata requests were left invisible to the scheduler");
        assert_eq!(r + w, 0);
        assert_eq!(
            c.stats.counter_reads + c.stats.counter_writes,
            c.stats.reads + c.stats.writes - done.len() as u64,
            "every generated metadata request must eventually issue"
        );
    }
}

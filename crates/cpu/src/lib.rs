//! Trace-driven out-of-order core model.
//!
//! This reproduces the abstraction Ramulator's OoO frontend uses (and which
//! the paper's evaluation relies on, Section IV): each core retires up to
//! `width` instructions per core cycle from a `rob_entries`-deep instruction
//! window. Non-memory instructions complete in one cycle; memory
//! instructions are sent to a [`MemoryPort`] and occupy their window slot
//! until the port reports completion, so a full window stalls the core on
//! the oldest outstanding miss. Stores retire without waiting (write
//! buffering).
//!
//! Cores run at 4 GHz while the rest of the system runs on the 3.2 GHz
//! memory-bus clock; [`ClockRatio`] converts between the domains (5 core
//! cycles per 4 bus cycles).
//!
//! # The run-length window
//!
//! Most of a window is slots that retire as soon as retire reaches them:
//! bubbles, stores, one-cycle answers, completed reads. The window stores
//! them as runs, not slot by slot. A run is `Ready(n)` (`n` such slots),
//! `At(t)` (one slot whose cache hit lands at core cycle `t`) or `Pending`
//! (one slot waiting on memory), and carries the sequence number of its
//! first slot. Adjacent `Ready` runs are merged on dispatch and around a
//! slot that completes, so a window holds at most `2m + 1` runs for `m`
//! memory slots. Retire, dispatch, the phase walk behind
//! [`Core::quiescence`] and its replay all step whole runs, so their cost
//! is O(memory slots), not O(window size). Debug builds check the
//! representation after every mutation.
//!
//! # Example
//!
//! ```
//! use cpu::{Core, MemoryPort, PortResponse, TraceEntry, TraceSource};
//! use sim_core::{AccessKind, PhysAddr, SourceId};
//!
//! struct FlatMemory;
//! impl MemoryPort for FlatMemory {
//!     fn access(&mut self, _s: SourceId, _a: PhysAddr, _k: AccessKind) -> PortResponse {
//!         PortResponse::Done { latency: 10 }
//!     }
//! }
//!
//! struct Stream;
//! impl TraceSource for Stream {
//!     fn next_entry(&mut self) -> TraceEntry {
//!         TraceEntry { bubbles: 3, addr: PhysAddr(0x1000), is_write: false }
//!     }
//! }
//!
//! let mut core = Core::new(SourceId(0), 4, 128, Box::new(Stream));
//! let mut mem = FlatMemory;
//! for _ in 0..100 {
//!     core.cycle(&mut mem);
//! }
//! assert!(core.retired() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use sim_core::addr::PhysAddr;
use sim_core::req::{AccessKind, SourceId};

/// One trace record: `bubbles` non-memory instructions followed by one
/// memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Non-memory instructions preceding the access.
    pub bubbles: u32,
    /// Physical address of the access.
    pub addr: PhysAddr,
    /// True for stores.
    pub is_write: bool,
}

/// An endless instruction stream feeding one core.
pub trait TraceSource {
    /// Produces the next record. Sources are infinite; runs are bounded by
    /// time or instruction count, never by trace exhaustion.
    fn next_entry(&mut self) -> TraceEntry;
}

/// Response of the memory hierarchy to a core access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortResponse {
    /// Completed synchronously (cache hit / buffered store); the slot is
    /// ready after `latency` core cycles.
    Done {
        /// Completion latency in core cycles.
        latency: u32,
    },
    /// Outstanding (LLC miss sent to DRAM); completion arrives later via
    /// [`Core::complete`] using this id.
    Pending {
        /// Request id to be echoed on completion.
        req_id: u64,
    },
    /// The hierarchy cannot accept the request this cycle; retry.
    Busy,
}

/// The memory hierarchy as seen by a core.
pub trait MemoryPort {
    /// Issues an access on behalf of `source`.
    fn access(&mut self, source: SourceId, addr: PhysAddr, kind: AccessKind) -> PortResponse;
}

/// What a window run holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunKind {
    /// `n` slots that retire whenever retire reaches them: each was ready
    /// by the core cycle after it was dispatched or completed.
    Ready(u64),
    /// One slot (an LLC hit) that becomes ready at core cycle `t`.
    At(u64),
    /// One slot waiting on memory.
    Pending,
}

/// A run of window slots, oldest first from sequence number `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    seq: u64,
    kind: RunKind,
}

impl Run {
    fn slots(&self) -> u64 {
        match self.kind {
            RunKind::Ready(n) => n,
            RunKind::At(_) | RunKind::Pending => 1,
        }
    }
}

/// How far a core can be advanced without simulating it cycle by cycle.
///
/// The event engine may only park a core through cycles whose effect it
/// can reproduce exactly. As long as the core neither touches the memory
/// port (enough staged bubbles remain) nor receives a completion (the
/// engine replays a parked core up to the delivery cycle first), its
/// evolution is a short sequence of closed-form
/// phases — bubble streaks, waits on the window head, full-window stalls —
/// that [`Core::fast_forward`] replays without per-cycle work. A core
/// about to consult its trace or issue an access answers
/// [`Quiescence::Busy`] and stays live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiescence {
    /// The core may interact with the memory port on the very next cycle;
    /// it must be stepped densely.
    Busy,
    /// The core ends in a full window behind a pending memory request: it
    /// can absorb arbitrarily many cycles (bounded only by external
    /// events, since only a completion can unwedge it).
    Stalled,
    /// The core can be fast-forwarded exactly `cycles` core cycles without
    /// touching the memory port or its trace.
    Streaming {
        /// Exact number of fast-forwardable core cycles.
        cycles: u64,
    },
    /// The core has an access parked after a Busy answer and no staged
    /// bubbles: every coming cycle retries exactly that access and
    /// dispatches nothing else. **If** the engine can prove the port would
    /// keep answering Busy (the target queues cannot drain before its
    /// horizon) and no completion arrives, any number of cycles can be
    /// replayed in closed form with [`Core::port_blocked_forward`] —
    /// retire keeps draining ready window slots exactly as dense stepping
    /// would, and the Busy retries themselves are side-effect-free. This
    /// is the state saturated memory-bound cores live in, and what lets
    /// the event engine leave them parked between command-issue decision
    /// points instead of cycling them bus cycle by bus cycle.
    PortBlocked,
}

/// Accumulated effect of a virtual (no-memory) run over a core: shared by
/// the dry pass ([`Core::quiescence`]) and the applying pass
/// ([`Core::fast_forward`]) so both walk identical phase sequences.
#[derive(Debug, Default, Clone, Copy)]
struct NoMemRun {
    /// Core cycles consumed.
    cycles: u64,
    /// Window slots retired (oldest first: existing slots, then appended).
    popped: u64,
    /// Existing window slots among `popped`.
    popped_existing: usize,
    /// Bubble instructions dispatched (appended to the window back).
    appended: u64,
    /// Cycles in which nothing retired while the window was non-empty.
    stalls: u64,
    /// Window length at the end of the run.
    len: usize,
    /// Bubbles remaining.
    bubbles: u64,
    /// True when the run ended in the absorb-anything full-stall state.
    unbounded: bool,
}

/// Phase-iteration cap for the dry pass: every phase advances at least one
/// cycle, and realistic states settle in a handful of phases; the cap only
/// bounds pathological ready/blocked interleavings.
const MAX_NO_MEM_PHASES: u32 = 32;

/// A single trace-driven core.
pub struct Core {
    id: SourceId,
    width: u32,
    rob: usize,
    /// The instruction window as runs (see the crate docs), oldest first:
    /// slot `head_seq` up to, not including, slot `next_seq`.
    window: VecDeque<Run>,
    head_seq: u64,
    next_seq: u64,
    /// Outstanding reads as `(req_id, window seq)`, sorted by id. Ports
    /// hand ids out ascending, so dispatch appends and completion is one
    /// binary search over at most a window's worth of entries.
    pending: Vec<(u64, u64)>,
    trace: Box<dyn TraceSource>,
    bubbles_left: u32,
    staged_access: Option<(PhysAddr, bool)>,
    /// Latest `At` time ever dispatched (it survives pops, but a popped
    /// `At` was due by then). With `pending` empty and `cycle >=
    /// max_done_at` the whole window is retireable, which unlocks the O(1)
    /// fast-forward fast path.
    max_done_at: u64,
    cycle: u64,
    retired: u64,
    mem_reads: u64,
    mem_writes: u64,
    stall_cycles: u64,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("cycle", &self.cycle)
            .field("retired", &self.retired)
            .field("window", &self.len())
            .field("outstanding", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core with the given retire width and window size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `rob_entries` is zero.
    pub fn new(id: SourceId, width: u32, rob_entries: usize, trace: Box<dyn TraceSource>) -> Self {
        assert!(width > 0, "retire width must be positive");
        assert!(rob_entries > 0, "window must hold at least one instruction");
        Self {
            id,
            width,
            rob: rob_entries,
            window: VecDeque::new(),
            head_seq: 0,
            next_seq: 0,
            pending: Vec::new(),
            trace,
            bubbles_left: 0,
            staged_access: None,
            max_done_at: 0,
            cycle: 0,
            retired: 0,
            mem_reads: 0,
            mem_writes: 0,
            stall_cycles: 0,
        }
    }

    /// The core's source id.
    pub fn id(&self) -> SourceId {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Core cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Instructions per core cycle so far (0.0 before the first cycle).
    pub fn ipc(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycle as f64
        }
    }

    /// (reads, writes) issued to the memory hierarchy.
    pub fn mem_accesses(&self) -> (u64, u64) {
        (self.mem_reads, self.mem_writes)
    }

    /// Cycles in which nothing retired.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Advances the core by one **core** cycle.
    pub fn cycle(&mut self, port: &mut dyn MemoryPort) {
        let width = self.width as u64;
        if self.retire(width) == 0 && self.len() > 0 {
            self.stall_cycles += 1;
        }

        // Dispatch into the window.
        let mut dispatched = 0;
        while dispatched < width && self.len() < self.rob {
            if self.bubbles_left > 0 {
                let k = (self.bubbles_left as u64)
                    .min(width - dispatched)
                    .min((self.rob - self.len()) as u64);
                self.bubbles_left -= k as u32;
                self.push(RunKind::Ready(k));
                dispatched += k;
                continue;
            }
            let (addr, is_write) = match self.staged_access.take() {
                Some(acc) => acc,
                None => {
                    let e = self.trace.next_entry();
                    if e.bubbles > 0 {
                        self.bubbles_left = e.bubbles;
                        self.staged_access = Some((e.addr, e.is_write));
                        continue;
                    }
                    (e.addr, e.is_write)
                }
            };
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            match port.access(self.id, addr, kind) {
                PortResponse::Busy => {
                    // Hierarchy full: park the access and stop dispatching.
                    self.staged_access = Some((addr, is_write));
                    break;
                }
                PortResponse::Done { latency } => {
                    if is_write {
                        self.mem_writes += 1;
                    } else {
                        self.mem_reads += 1;
                    }
                    if latency <= 1 {
                        // Ready by next cycle, the first retire could reach it.
                        self.push(RunKind::Ready(1));
                    } else {
                        let t = self.cycle + latency as u64;
                        self.push(RunKind::At(t));
                        self.max_done_at = self.max_done_at.max(t);
                    }
                    dispatched += 1;
                }
                PortResponse::Pending { req_id } => {
                    if is_write {
                        self.mem_writes += 1;
                    } else {
                        self.mem_reads += 1;
                    }
                    let at = self.pending.partition_point(|&(id, _)| id < req_id);
                    self.pending.insert(at, (req_id, self.next_seq));
                    self.push(RunKind::Pending);
                    dispatched += 1;
                }
            }
        }

        self.cycle += 1;
        debug_assert_eq!(self.window_fault(), None);
    }

    /// Marks an outstanding request complete. Unknown ids are ignored
    /// (writes may complete after their slot retired in other models; ours
    /// only reports reads, so unknown ids indicate a harness bug in debug
    /// builds).
    pub fn complete(&mut self, req_id: u64) {
        let Ok(at) = self.pending.binary_search_by_key(&req_id, |&(id, _)| id) else {
            debug_assert!(false, "completion for unknown request {req_id}");
            return;
        };
        let (_, seq) = self.pending.remove(at);
        let i = self.window.partition_point(|r| r.seq <= seq).wrapping_sub(1);
        match self.window.get_mut(i) {
            Some(run) if *run == (Run { seq, kind: RunKind::Pending }) => {
                // Ready from this cycle on: merge it with its neighbours.
                run.kind = RunKind::Ready(1);
                self.merge_with_next(i);
                if i > 0 {
                    self.merge_with_next(i - 1);
                }
            }
            _ => debug_assert!(false, "completion for retired slot"),
        }
        debug_assert_eq!(self.window_fault(), None);
    }

    /// Window slots, ready or not.
    fn len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// Appends slots at the window tail, extending a `Ready` tail run.
    fn push(&mut self, kind: RunKind) {
        let run = Run { seq: self.next_seq, kind };
        self.next_seq += run.slots();
        match (kind, self.window.back_mut()) {
            (RunKind::Ready(0), _) => {}
            (RunKind::Ready(n), Some(Run { kind: RunKind::Ready(m), .. })) => *m += n,
            _ => self.window.push_back(run),
        }
    }

    /// Folds run `i + 1` into run `i` when both are `Ready`.
    fn merge_with_next(&mut self, i: usize) {
        let kinds = (self.window.get(i).map(|r| r.kind), self.window.get(i + 1).map(|r| r.kind));
        if let (Some(RunKind::Ready(m)), Some(RunKind::Ready(n))) = kinds {
            self.window[i].kind = RunKind::Ready(m + n);
            self.window.remove(i + 1);
        }
    }

    /// Drops the oldest `k` slots; the caller has checked they retire.
    fn pop(&mut self, mut k: u64) {
        self.head_seq += k;
        while k > 0 {
            let run = self.window.front_mut().expect("popped past the window tail");
            let n = run.slots();
            if n <= k {
                self.window.pop_front();
                k -= n;
            } else {
                // Only a `Ready` run holds more than one slot.
                run.seq += k;
                run.kind = RunKind::Ready(n - k);
                k = 0;
            }
        }
    }

    /// One cycle's retire stage: retires up to `max` ready slots from the
    /// head, oldest first, and returns how many.
    fn retire(&mut self, max: u64) -> u64 {
        let mut done = 0;
        while done < max {
            let k = match self.window.front() {
                Some(&Run { kind: RunKind::Ready(n), .. }) => n.min(max - done),
                Some(&Run { kind: RunKind::At(t), .. }) if t <= self.cycle => 1,
                _ => break,
            };
            self.pop(k);
            done += k;
        }
        self.retired += done;
        done
    }

    /// The first way the window breaks its representation, if any: a
    /// zero-length run, two adjacent `Ready` runs, runs that do not tile
    /// `head_seq..next_seq`, or `Pending` runs that do not match `pending`
    /// one to one (ports hand ids out ascending, so both lists run in slot
    /// order).
    fn window_fault(&self) -> Option<String> {
        let mut seq = self.head_seq;
        let mut prev_ready = false;
        let mut pending = self.pending.iter().map(|&(_, s)| s);
        for run in &self.window {
            if run.seq != seq {
                return Some(format!("run at seq {} where slot {seq} belongs", run.seq));
            }
            match run.kind {
                RunKind::Ready(0) => return Some(format!("zero-length run at seq {seq}")),
                RunKind::Ready(_) if prev_ready => {
                    return Some(format!("unmerged ready runs at seq {seq}"));
                }
                RunKind::Pending if pending.next() != Some(seq) => {
                    return Some(format!("pending slot {seq} is not the next outstanding read"));
                }
                _ => {}
            }
            prev_ready = matches!(run.kind, RunKind::Ready(_));
            seq += run.slots();
        }
        if seq != self.next_seq {
            return Some(format!("runs end at slot {seq}, the window at {}", self.next_seq));
        }
        pending.next().map(|s| format!("outstanding read for slot {s} has no pending run"))
    }

    /// Number of window slots still waiting on memory.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Virtual execution of up to `limit` core cycles assuming the memory
    /// port is never touched and no completion arrives.
    ///
    /// The run advances in closed-form phases and stops early (leaving
    /// `cycles < limit`) as soon as the next cycle could consult the trace
    /// or issue an access — i.e. whenever dispatch would need a bubble the
    /// core does not have. Appended bubble slots are tracked by count only:
    /// a slot dispatched at virtual cycle `p` is retireable from `p + 1`
    /// on, which is always before the retire cursor can reach it, so only
    /// the count matters (survivors are materialized by `fast_forward`).
    /// Each phase finds its ready prefix by walking runs, not slots.
    fn no_mem_run(&self, limit: u64) -> NoMemRun {
        let width = self.width as u64;
        let mut r =
            NoMemRun { len: self.len(), bubbles: self.bubbles_left as u64, ..NoMemRun::default() };
        let mut phases = 0;
        while r.cycles < limit && phases < MAX_NO_MEM_PHASES {
            phases += 1;
            let budget = limit - r.cycles;
            let vcycle = self.cycle + r.cycles;
            // Ready prefix from the retire cursor: existing slots first
            // (ready iff completed by `vcycle`), then appended bubbles
            // (always ready by the time retire reaches them).
            let existing_left = self.len() - r.popped_existing;
            let appended_left = r.appended - (r.popped - r.popped_existing as u64);
            let mut prefix: u64 = 0;
            let mut head_pending = false;
            let mut head_wait: Option<u64> = None; // future `At` head
            let mut skip = r.popped_existing as u64;
            for run in &self.window {
                let n = run.slots();
                if skip >= n {
                    skip -= n;
                    continue;
                }
                match run.kind {
                    RunKind::Ready(_) => prefix += n - skip,
                    RunKind::At(t) if t <= vcycle => prefix += 1,
                    RunKind::At(t) => {
                        if prefix == 0 {
                            head_wait = Some(t);
                        }
                        break;
                    }
                    RunKind::Pending => {
                        if prefix == 0 {
                            head_pending = true;
                        }
                        break;
                    }
                }
                skip = 0;
            }
            if prefix == existing_left as u64 {
                prefix += appended_left;
            }

            if prefix == 0 && r.len > 0 {
                // Head blocked: pure stall, dispatch keeps filling the
                // window until it is full or the head releases.
                let room = (self.rob - r.len) as u64;
                if room == 0 && head_pending {
                    r.stalls += budget;
                    r.cycles += budget;
                    r.unbounded = true;
                    break;
                }
                let mut m = budget;
                if let Some(t) = head_wait {
                    m = m.min(t - vcycle);
                } else {
                    // Pending head: the wait has no deadline, but dispatch
                    // stops once the window fills, after which the state is
                    // the absorb-anything full stall — bound the phase so
                    // the loop reaches that classification.
                    m = m.min(room.div_ceil(width));
                }
                if room > r.bubbles {
                    // Dispatch could exhaust the bubbles mid-phase; stay
                    // within the exactly-affordable cycle count.
                    m = m.min(r.bubbles / width);
                    if m == 0 {
                        break;
                    }
                }
                // `m` stall cycles: dispatch fills the room `width` a cycle.
                let pushed = room.min(m.saturating_mul(width));
                r.appended += pushed;
                r.bubbles -= pushed;
                r.len += pushed as usize;
                r.stalls += m;
                r.cycles += m;
                continue;
            }

            if prefix >= width {
                // Steady drain: retire `width`, dispatch `width` per cycle
                // (after retiring there is always room); length invariant.
                // With the whole window ready the state is self-similar —
                // each cycle's appends rejoin the ready prefix — so only
                // the bubble supply bounds the phase; a mid-window blocker
                // instead caps it at the ready prefix.
                let mut m = budget.min(r.bubbles / width);
                if prefix < r.len as u64 {
                    m = m.min(prefix / width);
                }
                if m == 0 {
                    break; // not enough bubbles for a full cycle
                }
                let insts = m * width;
                r.popped += insts;
                r.popped_existing += (existing_left as u64).min(insts) as usize;
                r.appended += insts;
                r.bubbles -= insts;
                r.cycles += m;
                continue;
            }

            // Single exact cycle: partial retire (0 < prefix < width) or an
            // empty window warming up.
            let pops = prefix.min(width);
            let len_after = r.len - pops as usize;
            let d = width.min((self.rob - len_after) as u64);
            if d > r.bubbles {
                break; // dispatch would reach the trace/port
            }
            r.popped += pops;
            r.popped_existing += (existing_left as u64).min(pops) as usize;
            r.appended += d;
            r.bubbles -= d;
            r.len = len_after + d as usize;
            if pops == 0 && r.len > 0 && len_after > 0 {
                r.stalls += 1; // retire idled with a non-empty window
            }
            r.cycles += 1;
        }
        r
    }

    /// Reports how many core cycles can be skipped without changing any
    /// observable behaviour relative to dense stepping (see [`Quiescence`]).
    ///
    /// The answer is exact, not a heuristic: [`Core::fast_forward`] through
    /// at most this many cycles produces bit-identical retire/stall/cycle
    /// counters and a behaviourally equivalent window.
    pub fn quiescence(&self) -> Quiescence {
        // O(1) first: an access parked with no staged bubbles means every
        // coming cycle is retire-plus-one-port-retry, whatever the window
        // holds — if the port provably keeps refusing, any horizon replays
        // in closed form, so no budget and no phase walk are needed. The
        // engine validates the refusal; when the port might accept it
        // falls back to [`Core::quiescence_unparked`].
        if self.is_port_blocked() {
            return Quiescence::PortBlocked;
        }
        self.quiescence_unparked()
    }

    /// O(1): true when the core sits in the [`Quiescence::PortBlocked`]
    /// state (an access parked behind a Busy answer with no staged
    /// bubbles). Engines poll this every cycle when deciding whether a
    /// core can be parked, so it must not walk the window.
    pub fn is_port_blocked(&self) -> bool {
        self.staged_access.is_some() && self.bubbles_left == 0
    }

    /// O(1): true when the window is full behind a pending head — the
    /// [`Quiescence::Stalled`] shape. Nothing but a completion can change
    /// the core's state from here (the full window fences dispatch off
    /// entirely), so an engine may park such a core with no standing
    /// condition at all and replay the elided span as pure stall cycles.
    pub fn is_fully_stalled(&self) -> bool {
        self.len() == self.rob
            && matches!(self.window.front(), Some(Run { kind: RunKind::Pending, .. }))
    }

    /// [`Core::quiescence`] without the port-blocked short-circuit: how
    /// far the core can go *never touching the port at all*. This is the
    /// valid classification when a parked access might be accepted (the
    /// engine could not prove the port stays Busy); a parked core that
    /// cannot even reach its next dispatch attempt may still stream or
    /// stall for a bounded stretch.
    pub fn quiescence_unparked(&self) -> Quiescence {
        // O(1) Busy detection: out of bubbles with nothing parked and room
        // to dispatch means the very next cycle consults the trace (retire
        // only shrinks the window, so dispatch cannot be fenced off).
        // Actively-running cores answer here, which keeps failed skip
        // probes on saturated-but-churning phases cheap.
        if self.bubbles_left == 0 && self.staged_access.is_none() && self.len() < self.rob {
            return Quiescence::Busy;
        }
        // Fast path: whole window retireable and enough bubbles for at
        // least one full-width cycle — the steady drain needs no phase
        // walk; its horizon is purely bubble-bounded.
        if self.whole_window_ready() && self.len() >= self.width as usize {
            let cycles = (self.bubbles_left / self.width) as u64;
            if cycles > 0 {
                return Quiescence::Streaming { cycles };
            }
        }
        let r = self.no_mem_run(u64::MAX);
        if r.unbounded {
            Quiescence::Stalled
        } else if r.cycles == 0 {
            Quiescence::Busy
        } else {
            Quiescence::Streaming { cycles: r.cycles }
        }
    }

    /// The access a [`Quiescence::PortBlocked`] core retries every cycle:
    /// `(address, is_write)`. `None` unless an access is parked with no
    /// staged bubbles ahead of it.
    pub fn blocked_access(&self) -> Option<(PhysAddr, bool)> {
        if self.bubbles_left == 0 {
            self.staged_access
        } else {
            None
        }
    }

    /// Advances a [`Quiescence::PortBlocked`] core `n` core cycles in
    /// closed form, assuming every retry of the parked access answers Busy
    /// and no completion arrives — the caller must have proven both (queue
    /// state frozen through its horizon). The effect is exactly that of
    /// `n` dense [`Core::cycle`] calls: ready window slots retire oldest
    /// first at up to `width` per cycle, stall cycles accrue while the
    /// head is blocked, and the Busy retries touch nothing.
    pub fn port_blocked_forward(&mut self, n: u64) {
        debug_assert!(
            self.is_port_blocked() || self.is_fully_stalled(),
            "port_blocked_forward outside the port-blocked/fully-stalled states"
        );
        let width = self.width as u64;
        let mut left = n;
        while left > 0 {
            match self.window.front().map(|r| r.kind) {
                None => {
                    // Empty window: nothing retires, nothing stalls (the
                    // stall counter only runs against a non-empty window).
                    self.cycle += left;
                    break;
                }
                Some(RunKind::Pending) => {
                    // Only a completion could unwedge the head, and none
                    // arrives within the caller's horizon.
                    self.stall_cycles += left;
                    self.cycle += left;
                    break;
                }
                Some(RunKind::At(t)) if t > self.cycle => {
                    // Head completes at a known future cycle: stall up to
                    // it in one jump.
                    let m = (t - self.cycle).min(left);
                    self.stall_cycles += m;
                    self.cycle += m;
                    left -= m;
                }
                Some(RunKind::Ready(k)) if k >= width => {
                    // A ready head run feeds whole `width`-wide retire
                    // cycles on its own.
                    let m = (k / width).min(left);
                    self.retire(m * width);
                    self.cycle += m;
                    left -= m;
                }
                Some(_) => {
                    // Ready head shorter than a cycle: replay one dense
                    // retire cycle, then reclassify — slots further back
                    // may become ready as the clock advances.
                    self.retire(width);
                    self.cycle += 1;
                    left -= 1;
                }
            }
        }
        debug_assert_eq!(self.window_fault(), None);
    }

    /// True when every window slot is provably retireable right now (O(1)
    /// via the `max_done_at` bound; may conservatively answer false).
    fn whole_window_ready(&self) -> bool {
        self.pending.is_empty() && self.cycle >= self.max_done_at
    }

    /// Advances the core `n` core cycles in closed form.
    ///
    /// Must only be called with `n` within the bound last reported by
    /// [`Core::quiescence`] (and with no intervening mutation); the effect
    /// is then exactly that of `n` calls to [`Core::cycle`] during which
    /// the memory port is never touched and no completion arrives.
    pub fn fast_forward(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        // Fast path mirroring `quiescence`'s: a steady drain retires and
        // dispatches exactly `width` per cycle, leaving the window length
        // unchanged and every slot still retireable — so the window is one
        // `Ready` run of the same length, shifted by what retired.
        let insts = n * self.width as u64;
        let len = self.len() as u64;
        if self.whole_window_ready()
            && len >= self.width as u64
            && insts <= self.bubbles_left as u64
        {
            self.cycle += n;
            self.retired += insts;
            self.head_seq += insts;
            self.next_seq = self.head_seq;
            self.bubbles_left -= insts as u32;
            self.window.clear();
            self.push(RunKind::Ready(len));
            debug_assert_eq!(self.window_fault(), None);
            return;
        }
        let r = self.no_mem_run(n);
        debug_assert_eq!(r.cycles, n, "fast_forward past the quiescent horizon");
        self.apply_run(r);
    }

    /// Applies a virtual run to the core's counters and window.
    fn apply_run(&mut self, r: NoMemRun) {
        self.cycle += r.cycles;
        self.stall_cycles += r.stalls;
        self.retired += r.popped;
        self.bubbles_left -= r.appended as u32;
        // Retire is in order: the original slots go first, then the
        // appended bubbles. Every appended bubble was dispatched at some
        // cycle `p` within the run and is retireable from `p + 1 <=
        // self.cycle`, so the survivors are one `Ready` run. Bubbles that
        // retired within the run did so from an emptied window and never
        // reach it.
        let appended_popped = r.popped - r.popped_existing as u64;
        self.pop(r.popped_existing as u64);
        self.head_seq += appended_popped;
        self.next_seq += appended_popped;
        self.push(RunKind::Ready(r.appended - appended_popped));
        debug_assert_eq!(self.len(), r.len);
        debug_assert_eq!(self.bubbles_left as u64, r.bubbles);
        debug_assert_eq!(self.window_fault(), None);
    }
}

/// Converts bus cycles (3.2 GHz) into core cycles (4 GHz): five core cycles
/// per four bus cycles.
///
/// # Example
///
/// ```
/// use cpu::ClockRatio;
///
/// let mut r = ClockRatio::core_over_bus();
/// let total: u32 = (0..4).map(|_| r.core_cycles_for_bus_cycle()).sum();
/// assert_eq!(total, 5);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockRatio {
    acc: u32,
}

impl ClockRatio {
    /// The 4 GHz-over-3.2 GHz ratio used by the baseline system.
    pub fn core_over_bus() -> Self {
        Self { acc: 0 }
    }

    /// Total core cycles emitted for the first `bus` bus cycles of a run
    /// (phase starting at zero): the per-cycle recurrence conserves
    /// `acc + 4 * emitted = 5 * bus`, so the sum telescopes to
    /// `floor(5 * bus / 4)`. Closed-form and path-independent — engines
    /// use it to replay a parked core's span `[a, b)` as
    /// `at(b) - at(a)` without sharing ratio state.
    pub fn cumulative_core_cycles(bus: u64) -> u64 {
        5 * bus / 4
    }

    /// Core cycles to run for the next bus cycle (1 or 2; averages 1.25).
    pub fn core_cycles_for_bus_cycle(&mut self) -> u32 {
        self.acc += 5;
        let n = self.acc / 4;
        self.acc %= 4;
        n
    }

    /// Largest number of bus cycles whose core-cycle total stays within
    /// `core_budget`, from the current phase. Pure query; the phase is
    /// unchanged.
    pub fn max_bus_cycles_within(&self, core_budget: u64) -> u64 {
        // Over k bus cycles the emitted core-cycle total is
        // (acc + 5k) div 4 (each step conserves acc + 4 * emitted), so we
        // need acc + 5k <= 4 * budget + 3.
        core_budget.saturating_mul(4).saturating_add(3 - self.acc as u64) / 5
    }

    /// Advances the phase by `bus_cycles` at once, returning the exact
    /// total of core cycles the dense per-cycle sequence would emit.
    pub fn advance_bus_cycles(&mut self, bus_cycles: u64) -> u64 {
        let total = self.acc as u64 + 5 * bus_cycles;
        self.acc = (total % 4) as u32;
        total / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::Xoshiro256;

    struct FixedLatency(u32);
    impl MemoryPort for FixedLatency {
        fn access(&mut self, _s: SourceId, _a: PhysAddr, _k: AccessKind) -> PortResponse {
            PortResponse::Done { latency: self.0 }
        }
    }

    struct NeverReady;
    impl MemoryPort for NeverReady {
        fn access(&mut self, _s: SourceId, _a: PhysAddr, _k: AccessKind) -> PortResponse {
            PortResponse::Busy
        }
    }

    struct PendingPort {
        next_id: u64,
        issued: Vec<u64>,
    }
    impl MemoryPort for PendingPort {
        fn access(&mut self, _s: SourceId, _a: PhysAddr, _k: AccessKind) -> PortResponse {
            self.next_id += 1;
            self.issued.push(self.next_id);
            PortResponse::Pending { req_id: self.next_id }
        }
    }

    struct Bubbles(u32);
    impl TraceSource for Bubbles {
        fn next_entry(&mut self) -> TraceEntry {
            TraceEntry { bubbles: self.0, addr: PhysAddr(64), is_write: false }
        }
    }

    #[test]
    fn ideal_ipc_approaches_width() {
        // With huge bubble counts and 1-cycle memory, IPC ~ width.
        let mut core = Core::new(SourceId(0), 4, 128, Box::new(Bubbles(1000)));
        let mut mem = FixedLatency(1);
        for _ in 0..1000 {
            core.cycle(&mut mem);
        }
        let ipc = core.ipc();
        assert!(ipc > 3.5, "ipc = {ipc}");
    }

    #[test]
    fn memory_latency_throttles_ipc() {
        let mut fast = Core::new(SourceId(0), 4, 8, Box::new(Bubbles(0)));
        let mut slow = Core::new(SourceId(0), 4, 8, Box::new(Bubbles(0)));
        let mut m_fast = FixedLatency(1);
        let mut m_slow = FixedLatency(100);
        for _ in 0..2000 {
            fast.cycle(&mut m_fast);
            slow.cycle(&mut m_slow);
        }
        assert!(slow.ipc() < fast.ipc() / 4.0, "{} vs {}", slow.ipc(), fast.ipc());
    }

    #[test]
    fn busy_port_stalls_dispatch_entirely() {
        let mut core = Core::new(SourceId(0), 4, 16, Box::new(Bubbles(0)));
        let mut mem = NeverReady;
        for _ in 0..100 {
            core.cycle(&mut mem);
        }
        assert_eq!(core.retired(), 0);
        let (r, w) = core.mem_accesses();
        assert_eq!(r + w, 0);
    }

    #[test]
    fn window_bounds_outstanding_misses() {
        let mut core = Core::new(SourceId(0), 4, 16, Box::new(Bubbles(0)));
        let mut mem = PendingPort { next_id: 0, issued: vec![] };
        for _ in 0..100 {
            core.cycle(&mut mem);
        }
        assert!(core.outstanding() <= 16);
        assert_eq!(core.outstanding(), 16, "window should fill with misses");
        assert_eq!(core.retired(), 0);
    }

    #[test]
    fn completion_unblocks_retire_in_order() {
        let mut core = Core::new(SourceId(0), 1, 4, Box::new(Bubbles(0)));
        let mut mem = PendingPort { next_id: 0, issued: vec![] };
        for _ in 0..10 {
            core.cycle(&mut mem);
        }
        assert_eq!(core.retired(), 0);
        let first = mem.issued[0];
        let second = mem.issued[1];
        // Complete out of order: second first.
        core.complete(second);
        core.cycle(&mut mem);
        assert_eq!(core.retired(), 0, "head still pending; retire is in-order");
        core.complete(first);
        core.cycle(&mut mem);
        core.cycle(&mut mem);
        assert!(core.retired() >= 2, "both slots retire once head completes");
    }

    #[test]
    fn stores_count_separately() {
        struct Stores;
        impl TraceSource for Stores {
            fn next_entry(&mut self) -> TraceEntry {
                TraceEntry { bubbles: 0, addr: PhysAddr(0), is_write: true }
            }
        }
        let mut core = Core::new(SourceId(1), 2, 8, Box::new(Stores));
        let mut mem = FixedLatency(1);
        for _ in 0..50 {
            core.cycle(&mut mem);
        }
        let (r, w) = core.mem_accesses();
        assert_eq!(r, 0);
        assert!(w > 0);
    }

    #[test]
    fn clock_ratio_five_over_four() {
        let mut r = ClockRatio::core_over_bus();
        let seq: Vec<u32> = (0..8).map(|_| r.core_cycles_for_bus_cycle()).collect();
        assert_eq!(seq.iter().sum::<u32>(), 10, "{seq:?}");
        assert!(seq.iter().all(|&c| c == 1 || c == 2));
    }

    #[test]
    fn clock_ratio_cumulative_matches_the_recurrence() {
        let mut r = ClockRatio::core_over_bus();
        let mut emitted = 0u64;
        for bus in 0..100u64 {
            assert_eq!(ClockRatio::cumulative_core_cycles(bus), emitted, "bus {bus}");
            emitted += r.core_cycles_for_bus_cycle() as u64;
        }
    }

    #[test]
    fn clock_ratio_batch_matches_dense_sequence() {
        for lead in 0..7u64 {
            for k in 0..23u64 {
                let mut dense = ClockRatio::core_over_bus();
                let mut batch = ClockRatio::core_over_bus();
                for _ in 0..lead {
                    dense.core_cycles_for_bus_cycle();
                    batch.core_cycles_for_bus_cycle();
                }
                let want: u64 = (0..k).map(|_| dense.core_cycles_for_bus_cycle() as u64).sum();
                assert!(batch.max_bus_cycles_within(want) >= k, "lead {lead} k {k}");
                assert_eq!(batch.advance_bus_cycles(k), want, "lead {lead} k {k}");
                // Both must land in the same phase.
                assert_eq!(
                    dense.core_cycles_for_bus_cycle(),
                    batch.core_cycles_for_bus_cycle(),
                    "phase diverged at lead {lead} k {k}"
                );
            }
        }
    }

    #[test]
    fn clock_ratio_budget_is_tight() {
        let r = ClockRatio::core_over_bus();
        let k = r.max_bus_cycles_within(10);
        let mut probe = ClockRatio::core_over_bus();
        assert!(probe.advance_bus_cycles(k) <= 10);
        let mut over = ClockRatio::core_over_bus();
        assert!(over.advance_bus_cycles(k + 1) > 10, "budget not maximal");
        // An unbounded budget must not overflow.
        assert!(r.max_bus_cycles_within(u64::MAX) > 1 << 60);
    }

    /// Runs `core.cycle` densely with a port that must never be touched.
    struct UnreachablePort;
    impl MemoryPort for UnreachablePort {
        fn access(&mut self, _s: SourceId, _a: PhysAddr, _k: AccessKind) -> PortResponse {
            panic!("quiescent core touched the memory port");
        }
    }

    fn snapshot(c: &Core) -> (u64, u64, u64, u64, u64, usize) {
        (c.retired, c.cycle, c.stall_cycles, c.head_seq, c.next_seq, c.len())
    }

    #[test]
    fn fast_forward_matches_dense_bubble_streak() {
        // Prime two identical cores into a bubble streak, then advance one
        // densely and one in closed form; every counter must agree.
        let mk = || Core::new(SourceId(0), 4, 32, Box::new(Bubbles(10_000)));
        let mut dense = mk();
        let mut skip = mk();
        let mut warm = FixedLatency(1);
        for _ in 0..5 {
            dense.cycle(&mut warm);
            skip.cycle(&mut warm);
        }
        let q = skip.quiescence();
        let Quiescence::Streaming { cycles, .. } = q else { panic!("expected streak, got {q:?}") };
        assert!(cycles > 100);
        let n = cycles.min(200);
        let mut port = UnreachablePort;
        for _ in 0..n {
            dense.cycle(&mut port);
        }
        skip.fast_forward(n);
        assert_eq!(snapshot(&dense), snapshot(&skip));
        // After the streak both evolve identically again.
        let mut mem = FixedLatency(1);
        for _ in 0..50 {
            dense.cycle(&mut mem);
            skip.cycle(&mut mem);
        }
        assert_eq!(snapshot(&dense), snapshot(&skip));
    }

    #[test]
    fn fast_forward_matches_dense_full_stall() {
        let mk = || Core::new(SourceId(0), 4, 8, Box::new(Bubbles(0)));
        let mut dense = mk();
        let mut skip = mk();
        let mut pend_a = PendingPort { next_id: 0, issued: vec![] };
        let mut pend_b = PendingPort { next_id: 0, issued: vec![] };
        for _ in 0..20 {
            dense.cycle(&mut pend_a);
            skip.cycle(&mut pend_b);
        }
        assert_eq!(skip.quiescence(), Quiescence::Stalled);
        let mut port = UnreachablePort;
        for _ in 0..1000 {
            dense.cycle(&mut port);
        }
        skip.fast_forward(1000);
        assert_eq!(snapshot(&dense), snapshot(&skip));
        // A completion wakes both the same way.
        dense.complete(pend_a.issued[0]);
        skip.complete(pend_b.issued[0]);
        for _ in 0..3 {
            dense.cycle(&mut pend_a);
            skip.cycle(&mut pend_b);
        }
        assert_eq!(snapshot(&dense), snapshot(&skip));
    }

    #[test]
    fn trace_hungry_states_refuse_to_skip() {
        // Out of bubbles: must report Busy (next dispatch needs the trace,
        // which may yield a memory access).
        let mut core = Core::new(SourceId(0), 4, 32, Box::new(Bubbles(0)));
        let mut pend = PendingPort { next_id: 0, issued: vec![] };
        core.cycle(&mut pend);
        assert_eq!(core.quiescence(), Quiescence::Busy);
    }

    #[test]
    fn fast_forward_spans_in_flight_cache_hits() {
        // A future DoneAt (cache hit mid-latency) no longer blocks the
        // skip: the phase engine stalls through the wait, keeps dispatching
        // bubbles, and resumes the drain — matching dense exactly.
        let mk = || Core::new(SourceId(0), 4, 32, Box::new(Bubbles(200)));
        let mut dense = mk();
        let mut skip = mk();
        let mut port_a = FixedLatency(37);
        let mut port_b = FixedLatency(37);
        // Warm until an access is in flight.
        for _ in 0..52 {
            dense.cycle(&mut port_a);
            skip.cycle(&mut port_b);
        }
        assert!(
            skip.window.iter().any(|r| matches!(r.kind, RunKind::At(t) if t > skip.cycle)),
            "setup: expected an in-flight hit in the window"
        );
        let Quiescence::Streaming { cycles, .. } = skip.quiescence() else {
            panic!("in-flight hit with staged bubbles must be streamable")
        };
        assert!(cycles > 30, "horizon must span the wait, got {cycles}");
        let mut port = UnreachablePort;
        for _ in 0..cycles {
            dense.cycle(&mut port);
        }
        skip.fast_forward(cycles);
        assert_eq!(snapshot(&dense), snapshot(&skip));
        // Both resume identically through further memory traffic.
        for _ in 0..300 {
            dense.cycle(&mut port_a);
            skip.cycle(&mut port_b);
        }
        assert_eq!(snapshot(&dense), snapshot(&skip));
    }

    /// Answers `Done` for the first few accesses, then `Busy` forever —
    /// parks the core in the port-blocked state with work in flight.
    struct FlakyPort {
        grants_left: u32,
    }
    impl MemoryPort for FlakyPort {
        fn access(&mut self, _s: SourceId, _a: PhysAddr, _k: AccessKind) -> PortResponse {
            if self.grants_left > 0 {
                self.grants_left -= 1;
                PortResponse::Done { latency: 25 }
            } else {
                PortResponse::Busy
            }
        }
    }

    #[test]
    fn port_blocked_forward_matches_dense_busy_port() {
        // Prime two identical cores until an access is parked behind a Busy
        // port while completed-but-unretired work sits in the window, then
        // advance one densely (port still Busy) and one in closed form.
        let mk = || Core::new(SourceId(0), 4, 16, Box::new(Bubbles(3)));
        let mut dense = mk();
        let mut skip = mk();
        let mut flaky_a = FlakyPort { grants_left: 6 };
        let mut flaky_b = FlakyPort { grants_left: 6 };
        for _ in 0..12 {
            dense.cycle(&mut flaky_a);
            skip.cycle(&mut flaky_b);
        }
        // Step densely through any residual streaming headroom until the
        // parked access is the only thing left to do.
        let mut park_a = FlakyPort { grants_left: 0 };
        let mut park_b = FlakyPort { grants_left: 0 };
        for _ in 0..64 {
            if skip.quiescence() == Quiescence::PortBlocked {
                break;
            }
            dense.cycle(&mut park_a);
            skip.cycle(&mut park_b);
        }
        assert_eq!(skip.quiescence(), Quiescence::PortBlocked, "setup must park the core");
        let (addr, is_write) = skip.blocked_access().expect("a parked access");
        assert_eq!((addr, is_write), (PhysAddr(64), false));
        // Walk uneven horizons, comparing against dense stepping with a
        // port that keeps answering Busy.
        let mut busy = NeverReady;
        for chunk in [1u64, 3, 10, 100, 5000] {
            skip.port_blocked_forward(chunk);
            for _ in 0..chunk {
                dense.cycle(&mut busy);
            }
            assert_eq!(snapshot(&dense), snapshot(&skip), "diverged after chunk {chunk}");
        }
        // Once the port opens up again both resume identically.
        let mut mem_a = FixedLatency(9);
        let mut mem_b = FixedLatency(9);
        for _ in 0..60 {
            dense.cycle(&mut mem_a);
            skip.cycle(&mut mem_b);
        }
        assert_eq!(snapshot(&dense), snapshot(&skip));
        assert!(dense.retired() > 0);
    }

    #[test]
    fn port_blocked_pending_head_absorbs_everything() {
        // Pending head + parked access in a *non-full* window (a full one
        // is the stronger `Stalled` state): the whole horizon is one stall.
        let mut core = Core::new(SourceId(0), 4, 8, Box::new(Bubbles(0)));
        let mut pend = PendingPort { next_id: 0, issued: vec![] };
        core.cycle(&mut pend);
        // Park the next access behind a Busy port.
        let mut busy = NeverReady;
        core.cycle(&mut busy);
        assert_eq!(core.quiescence(), Quiescence::PortBlocked);
        let before_retired = core.retired();
        let before_stalls = core.stall_cycles();
        core.port_blocked_forward(1_000_000);
        assert_eq!(core.retired(), before_retired, "pending head cannot retire");
        assert_eq!(core.stall_cycles(), before_stalls + 1_000_000);
    }

    #[test]
    fn fast_forward_in_chunks_matches_one_shot() {
        // System skips land mid-phase; chunked fast-forwarding must agree
        // with dense stepping at every intermediate horizon.
        let mk = || Core::new(SourceId(0), 4, 16, Box::new(Bubbles(73)));
        let mut dense = mk();
        let mut skip = mk();
        let mut port_a = FixedLatency(29);
        let mut port_b = FixedLatency(29);
        for _ in 0..40 {
            dense.cycle(&mut port_a);
            skip.cycle(&mut port_b);
        }
        let mut port = UnreachablePort;
        if let Quiescence::Streaming { cycles, .. } = skip.quiescence() {
            // Advance in uneven chunks across the horizon.
            let mut left = cycles;
            while left > 0 {
                let chunk = (left / 3).max(1);
                skip.fast_forward(chunk);
                for _ in 0..chunk {
                    dense.cycle(&mut port);
                }
                assert_eq!(snapshot(&dense), snapshot(&skip));
                left -= chunk;
            }
        }
        assert_eq!(snapshot(&dense), snapshot(&skip));
    }

    /// A seeded trace: bubble streaks of mixed length, a third of the
    /// accesses stores.
    struct RandomTrace(Xoshiro256);
    impl TraceSource for RandomTrace {
        fn next_entry(&mut self) -> TraceEntry {
            let bubbles = match self.0.gen_range(4) {
                0 => 0,
                1 => self.0.gen_range(8) as u32,
                _ => self.0.gen_range(400) as u32,
            };
            let addr = PhysAddr(self.0.gen_range(1 << 20) << 6);
            TraceEntry { bubbles, addr, is_write: self.0.gen_range(3) == 0 }
        }
    }

    /// A seeded hierarchy: hits of mixed latency, misses, refusals, and
    /// after `grants` accepted accesses nothing but refusals. Reads it left
    /// outstanding are in `issued`.
    struct RandomPort {
        rng: Xoshiro256,
        issued: Vec<u64>,
        next_id: u64,
        grants: u64,
        busy_pct: u64,
        hit_pct: u64,
    }
    impl MemoryPort for RandomPort {
        fn access(&mut self, _s: SourceId, _a: PhysAddr, k: AccessKind) -> PortResponse {
            let roll = self.rng.gen_range(100);
            if self.grants == 0 || roll < self.busy_pct {
                return PortResponse::Busy;
            }
            self.grants -= 1;
            if self.rng.gen_range(100) < self.hit_pct || k == AccessKind::Write {
                PortResponse::Done { latency: 1 + self.rng.gen_range(40) as u32 }
            } else {
                self.next_id += 1;
                self.issued.push(self.next_id);
                PortResponse::Pending { req_id: self.next_id }
            }
        }
    }

    /// The window as retire sees it: a slot is pending, or ready from some
    /// cycle on (a ready slot's stamp no longer matters).
    fn window_view(c: &Core) -> Vec<Option<u64>> {
        let view: Vec<_> = c
            .window
            .iter()
            .flat_map(|r| {
                let slot = match r.kind {
                    RunKind::Pending => None,
                    RunKind::Ready(_) => Some(c.cycle),
                    RunKind::At(t) => Some(t.max(c.cycle)),
                };
                std::iter::repeat_n(slot, r.slots() as usize)
            })
            .collect();
        assert_eq!(view.len(), c.len());
        view
    }

    #[test]
    fn parked_core_woken_at_every_offset_matches_dense_cycles() {
        // Park a core wherever a seeded run leaves it, then wake it with a
        // completion after every span `0..=bound` and hold it against the
        // same number of dense cycles: the counters and the window agree,
        // and so does everything the two cores do afterwards.
        let mut seen = [0u32; 3];
        for seed in 0..160u64 {
            let mut rng = Xoshiro256::seed_from(0xC0DE ^ seed);
            let (width, rob) = (1 + rng.gen_range(4) as u32, 4 + rng.gen_range(28) as usize);
            let (warm, busy_pct, hit_pct) =
                (rng.gen_range(300), rng.gen_range(30), rng.gen_range(100));
            // One seed in three runs into a hierarchy that stops accepting.
            let grants = if seed % 3 == 0 { rng.gen_range(40) } else { u64::MAX };
            let answer_one_in = 2 + rng.gen_range(60);
            let prime = || {
                let trace = RandomTrace(Xoshiro256::seed_from(seed));
                let mut core = Core::new(SourceId(0), width, rob, Box::new(trace));
                let rng = Xoshiro256::seed_from(!seed);
                let mut port =
                    RandomPort { rng, issued: vec![], next_id: 0, grants, busy_pct, hit_pct };
                for _ in 0..warm {
                    core.cycle(&mut port);
                    // Answer the oldest miss now and then, so windows hold
                    // a mix of ready, waiting and pending slots.
                    if port.rng.gen_range(answer_one_in) == 0 && !port.issued.is_empty() {
                        core.complete(port.issued.remove(0));
                    }
                }
                (core, port)
            };
            let (probe, _) = prime();
            let (kind, bound) = match probe.quiescence() {
                Quiescence::Busy => continue,
                Quiescence::Streaming { cycles } => (0, cycles.min(400)),
                Quiescence::Stalled => (1, 64),
                Quiescence::PortBlocked => (2, 64),
            };
            seen[kind] += 1;
            for offset in 0..=bound {
                let (mut dense, mut dense_port) = prime();
                let (mut skip, mut skip_port) = prime();
                if kind == 2 {
                    skip.port_blocked_forward(offset);
                    (0..offset).for_each(|_| dense.cycle(&mut NeverReady));
                } else {
                    skip.fast_forward(offset);
                    (0..offset).for_each(|_| dense.cycle(&mut UnreachablePort));
                }
                let at = format!("seed {seed}, offset {offset} of {bound}");
                assert_eq!(snapshot(&dense), snapshot(&skip), "{at}");
                assert_eq!(window_view(&dense), window_view(&skip), "{at}");
                if let Some(&id) = dense_port.issued.first() {
                    dense.complete(id);
                    skip.complete(id);
                }
                for _ in 0..200 {
                    dense.cycle(&mut dense_port);
                    skip.cycle(&mut skip_port);
                }
                assert_eq!(snapshot(&dense), snapshot(&skip), "after the wake, {at}");
                assert_eq!(dense_port.issued, skip_port.issued, "after the wake, {at}");
            }
        }
        assert!(seen.iter().all(|&n| n >= 5), "streaming/stalled/port-blocked parks: {seen:?}");
    }

    /// A povray-like trace: hundreds to thousands of bubbles before most
    /// accesses, now and then a short burst.
    struct SparseTrace(Xoshiro256);
    impl TraceSource for SparseTrace {
        fn next_entry(&mut self) -> TraceEntry {
            let bubbles = match self.0.gen_range(8) {
                0 => self.0.gen_range(16),
                _ => 200 + self.0.gen_range(3000),
            } as u32;
            let addr = PhysAddr(self.0.gen_range(1 << 20) << 6);
            TraceEntry { bubbles, addr, is_write: self.0.gen_range(4) == 0 }
        }
    }

    #[test]
    fn window_runs_scale_with_memory_slots_not_window_size() {
        // Run a core the way the engine does (cycle it, fast-forward it
        // when it streams, complete reads out of order) and count runs
        // after every step: a run-length window holds at most one run per
        // memory slot plus one `Ready` run around each, however many
        // bubbles it holds.
        let mut max_runs = 0;
        for seed in 0..12u64 {
            let trace = SparseTrace(Xoshiro256::seed_from(seed));
            let mut core = Core::new(SourceId(0), 4, 128, Box::new(trace));
            let rng = Xoshiro256::seed_from(!seed);
            let mut port = RandomPort {
                rng,
                issued: vec![],
                next_id: 0,
                grants: u64::MAX,
                busy_pct: 20,
                hit_pct: 50,
            };
            while core.cycles() < 40_000 {
                match core.quiescence_unparked() {
                    Quiescence::Streaming { cycles } if port.rng.gen_range(2) == 0 => {
                        core.fast_forward(1 + port.rng.gen_range(cycles));
                    }
                    _ => core.cycle(&mut port),
                }
                if !port.issued.is_empty() && port.rng.gen_range(60) == 0 {
                    let i = port.rng.gen_range(port.issued.len() as u64) as usize;
                    core.complete(port.issued.remove(i));
                }
                let runs = core.window.len();
                // A hit stays an `At` run after it lands, so it counts.
                let memory =
                    core.window.iter().filter(|r| !matches!(r.kind, RunKind::Ready(_))).count();
                let at = format!("seed {seed} @ {}: {:?}", core.cycle, core.window);
                assert!(runs <= 2 * memory + 1, "{runs} runs for {memory} memory slots, {at}");
                assert!(memory > 0 || runs <= 1, "bubbles only, yet {runs} runs, {at}");
                max_runs = max_runs.max(runs);
            }
            assert!(core.retired() > 40_000, "seed {seed} barely ran: {core:?}");
        }
        assert!(max_runs >= 5, "no seed put two memory slots mid-window");
    }
}

//! Channel shards: the unit the memory phase steps, one per channel.
//!
//! A [`ChannelShard`] owns everything on the memory side of one channel —
//! the [`ChannelController`], its [`dram::DramChannel`], the channel's
//! RowHammer tracker, and the per-channel completion/event buffers — and
//! exposes the narrow interface the system layer steps it through:
//! [`ChannelShard::inject`] during the core phase,
//! [`ChannelShard::advance_to`] during the memory phase. Nothing inside a
//! shard is shared with another shard, so each carries its own due cycle
//! and an idle channel costs the system one integer compare per step.
//!
//! # The two-phase / lookahead contract
//!
//! The system splits every bus cycle `t` into two phases:
//!
//! 1. **Memory phase**: every due shard is advanced through cycle `t`,
//!    one after another. Each shard ticks its controller and collects the
//!    demand-read completions falling due at or before `t` into its
//!    private buffer.
//! 2. **Core phase**: the system drains each shard's completion buffer
//!    *in channel-index order* (within a shard, completions pop in
//!    `(due cycle, id)` order), delivers them to the cores, then steps the
//!    cores, which inject new requests into shards via
//!    [`ChannelShard::inject`].
//!
//! The merge order is fixed, and the order in which phase 1 advances the
//! shards cannot be observed: shards never talk to each other, and the
//! lookahead bound ([`sim_core::sched::NextEvent::min_inject_latency`])
//! says a request injected during the core phase of cycle `t` cannot
//! complete at or before `t + tCL + tBL`, so the completion set phase 1
//! collects is fully determined before the phase starts. That is also
//! what lets the event engine skip a shard until its due cycle. The DDR5
//! controller advertises the row-hit floor `tCL + tBL` (a cold row
//! additionally pays tRCD) and asserts it against every completion it
//! schedules.
//!
//! Telemetry windows sample per-channel statistics only between cycles.

use sim_core::req::MemRequest;
use sim_core::sched::NextEvent;
use sim_core::time::Cycle;

use crate::ChannelController;

/// One channel's isolated memory domain: controller + DRAM + tracker +
/// per-channel buffers, stepped through the two-phase protocol described
/// in the [module docs](self).
pub struct ChannelShard {
    ctrl: ChannelController,
    /// Demand-read completions collected by [`ChannelShard::advance_to`],
    /// awaiting the coordinator's in-order drain.
    completions: Vec<u64>,
    /// Memory-phase calls that ticked the controller.
    ticks: u64,
}

impl ChannelShard {
    /// Wraps a controller into a shard.
    pub fn new(ctrl: ChannelController) -> Self {
        Self { ctrl, completions: Vec::new(), ticks: 0 }
    }

    /// Core-phase entry point: enqueues a demand request. Returns false
    /// (and drops the request) when the matching queue is full — the
    /// caller must retry, exactly as with
    /// [`ChannelController::enqueue`].
    #[inline]
    pub fn inject(&mut self, req: MemRequest) -> bool {
        self.ctrl.enqueue(req)
    }

    /// Memory-phase entry point: advances the shard through bus cycle
    /// `now`, collecting every demand-read completion due at or before
    /// `now` into the shard's private buffer (drained in channel order by
    /// [`ChannelShard::drain_completions_into`]).
    ///
    /// When the controller's cached decision bound proves the cycle a
    /// no-op — nothing schedulable, no completion due, no refresh or
    /// tracker deadline — the call returns in O(1) without ticking. This
    /// gate is exact (a non-naive tick before the bound is itself an
    /// early return), so the event engine agrees bit-for-bit with the
    /// dense reference loop.
    #[inline]
    pub fn advance_to(&mut self, now: Cycle) {
        if self.ctrl.next_event(now) > now {
            return;
        }
        self.ctrl.tick(now);
        self.ticks += 1;
        self.ctrl.pop_completions(now, &mut self.completions);
    }

    /// Moves the buffered completions (in `(due cycle, id)` pop order)
    /// into `out`, clearing the buffer.
    #[inline]
    pub fn drain_completions_into(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.completions);
    }

    /// How many memory-phase calls ticked the controller (the rest were
    /// proven no-ops by the decision bound). A controller ticks exactly
    /// when its bound says so, so this count does not depend on how often
    /// the engine calls in.
    #[inline]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The wrapped controller (stats, tracker, DRAM readout, queue
    /// occupancy — everything outside the two-phase hot path).
    #[inline]
    pub fn controller(&self) -> &ChannelController {
        &self.ctrl
    }

    /// Mutable access to the wrapped controller (event-capture plumbing,
    /// naive-scan switching, window stat resets).
    #[inline]
    pub fn controller_mut(&mut self) -> &mut ChannelController {
        &mut self.ctrl
    }
}

impl std::fmt::Debug for ChannelShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelShard")
            .field("ctrl", &self.ctrl)
            .field("pending_completions", &self.completions.len())
            .field("ticks", &self.ticks)
            .finish()
    }
}

impl NextEvent for ChannelShard {
    #[inline]
    fn next_event(&self, now: Cycle) -> Cycle {
        if !self.completions.is_empty() {
            // Undelivered completions demand the coordinator's attention
            // this very cycle regardless of controller state.
            return now;
        }
        self.ctrl.next_event(now)
    }

    #[inline]
    fn min_inject_latency(&self) -> Cycle {
        self.ctrl.min_inject_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtrlConfig;
    use dram::{DramChannel, TimingParams};
    use sim_core::addr::{DramAddr, Geometry, PhysAddr};
    use sim_core::config::MitigationKind;
    use sim_core::req::{AccessKind, SourceId};
    use sim_core::tracker::NullTracker;

    fn shard() -> ChannelShard {
        let dram = DramChannel::new(Geometry::paper_baseline(), TimingParams::ddr5_6400());
        let cfg = CtrlConfig::new(500, 1, MitigationKind::Vrr);
        ChannelShard::new(ChannelController::new(0, dram, Box::new(NullTracker), cfg))
    }

    fn rd(id: u64, row: u32, at: Cycle) -> MemRequest {
        let d = DramAddr::new(0, 0, 0, 0, row, 0);
        MemRequest::new(id, SourceId(0), AccessKind::Read, PhysAddr(0), d, at)
    }

    #[test]
    fn shard_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ChannelShard>();
    }

    #[test]
    fn inject_advance_collects_completions_in_order() {
        let mut s = shard();
        assert!(s.inject(rd(1, 10, 0)));
        assert!(s.inject(rd(2, 10, 0)));
        for now in 0..500 {
            s.advance_to(now);
        }
        let mut out = Vec::new();
        s.drain_completions_into(&mut out);
        assert_eq!(out, vec![1, 2], "pop order is (due cycle, id)");
        let mut again = Vec::new();
        s.drain_completions_into(&mut again);
        assert!(again.is_empty(), "drain clears the buffer");
    }

    #[test]
    fn completions_respect_the_lookahead_bound() {
        let mut s = shard();
        let floor = s.min_inject_latency();
        let timing = *s.controller().dram().timing();
        assert_eq!(floor, timing.t_cl + timing.t_bl);
        assert!(floor >= 1, "the bound must rule out same-cycle completion");
        let inject_at = 7;
        for now in 0..inject_at {
            s.advance_to(now);
        }
        assert!(s.inject(rd(9, 42, inject_at)));
        let mut done_at = None;
        for now in inject_at..inject_at + 4000 {
            s.advance_to(now);
            let mut out = Vec::new();
            s.drain_completions_into(&mut out);
            if !out.is_empty() {
                done_at = Some(now);
                break;
            }
        }
        let done_at = done_at.expect("read completes");
        assert!(done_at >= inject_at + floor, "{done_at} < {inject_at} + {floor}");
    }

    #[test]
    fn idle_cycles_are_elided_and_counted() {
        let mut s = shard();
        for now in 0..100 {
            s.advance_to(now);
        }
        let ticks = s.ticks();
        assert!(ticks < 10, "an idle shard must elide almost every cycle: {ticks} ticks");
        // With queued work the shard reports `now` and must tick.
        assert!(s.inject(rd(1, 3, 100)));
        assert_eq!(s.next_event(100), 100);
        s.advance_to(100);
        assert!(s.ticks() > ticks);
    }

    #[test]
    fn undelivered_completions_pin_next_event() {
        let mut s = shard();
        assert!(s.inject(rd(1, 10, 0)));
        for now in 0..500 {
            s.advance_to(now);
        }
        // Buffer holds the completion: the shard cannot be skipped past.
        assert_eq!(s.next_event(500), 500);
        let mut out = Vec::new();
        s.drain_completions_into(&mut out);
        assert_eq!(out, vec![1]);
        assert!(s.next_event(500) > 500, "drained and quiet: skippable again");
    }
}

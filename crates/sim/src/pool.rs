//! The sharded memory-phase executor.
//!
//! A [`ShardPool`] is a persistent set of worker threads that
//! [`memctrl::ChannelShard`]s are handed to for one bus cycle at a time:
//! the coordinator moves each active shard's box to a worker
//! ([`ShardPool::dispatch`]), advances its own share inline, and blocks
//! until every dispatched shard comes home ([`ShardPool::collect`]).
//! Ownership transfer is the whole synchronization story — a shard is
//! never aliased, so there are no locks and no ordering hazards; the
//! deterministic merge happens afterwards, when the system drains
//! completion buffers in channel-index order.
//!
//! Panic safety mirrors [`crate::runner`]: a worker catches the unwinding
//! panic, stringifies the payload, and sends it back in the shard's place,
//! so the coordinator can re-raise it with channel attribution instead of
//! deadlocking on a result that will never arrive.
//!
//! Fault injection adds a third, *recoverable* outcome: a worker armed
//! with a [`FaultSite::ShardWorker`] kill hands its shard back untouched
//! ([`ShardOutcome::Died`]) and exits its thread. Because the shard
//! crosses the channel unprocessed, no state is lost — the coordinator
//! advances it inline, respawns the lane, and the cycle's results are
//! bit-identical to an undisturbed run. (An actual mid-advance panic
//! stays fatal: the shard is lost to the unwind and no recovery could be
//! sound.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use memctrl::ChannelShard;
use sim_core::fault::{FaultAction, FaultSite, Injector};
use sim_core::time::Cycle;

use crate::runner::panic_message;

/// A dispatched job: `(channel index, the shard, the cycle to advance to)`.
type Job = (usize, Box<ChannelShard>, Cycle);

/// How a dispatched shard came home.
pub(crate) enum ShardOutcome {
    /// Advanced through the cycle; business as usual.
    Advanced(Box<ChannelShard>),
    /// The worker died (injected) before touching the shard — it comes
    /// home unprocessed and the lane needs a respawn.
    Died(Box<ChannelShard>),
    /// The advance panicked; the shard is lost to the unwind.
    Panicked(String),
}

/// A finished job: `(lane, channel index, outcome)`.
type Outcome = (usize, usize, ShardOutcome);

/// A persistent pool of shard workers (see the module docs).
///
/// Workers park on their private channel between cycles; dropping the pool
/// hangs up every channel and joins the threads.
pub(crate) struct ShardPool {
    senders: Vec<mpsc::Sender<Job>>,
    results: mpsc::Receiver<Outcome>,
    result_tx: mpsc::Sender<Outcome>,
    handles: Vec<thread::JoinHandle<()>>,
    faults: Option<Arc<Injector>>,
    respawns: u64,
}

impl ShardPool {
    /// Spawns `workers` (>= 1) shard workers. `faults` arms the
    /// [`FaultSite::ShardWorker`] probe in every lane (chaos tests only).
    pub(crate) fn new(workers: usize, faults: Option<Arc<Injector>>) -> Self {
        assert!(workers >= 1, "a pool without workers cannot make progress");
        let (result_tx, results) = mpsc::channel::<Outcome>();
        let mut pool = Self {
            senders: Vec::with_capacity(workers),
            results,
            result_tx,
            handles: Vec::with_capacity(workers),
            faults,
            respawns: 0,
        };
        for lane in 0..workers {
            let (tx, handle) = pool.spawn_worker(lane);
            pool.senders.push(tx);
            pool.handles.push(handle);
        }
        pool
    }

    fn spawn_worker(&self, lane: usize) -> (mpsc::Sender<Job>, thread::JoinHandle<()>) {
        let (tx, rx) = mpsc::channel::<Job>();
        let result_tx = self.result_tx.clone();
        let faults = self.faults.clone();
        let handle = thread::Builder::new()
            .name(format!("shard-worker-{lane}"))
            .spawn(move || {
                while let Ok((ch, mut shard, now)) = rx.recv() {
                    if let Some(inj) = faults.as_ref() {
                        if inj.check_indexed(FaultSite::ShardWorker, lane as u64)
                            == Some(FaultAction::KillWorker)
                        {
                            // Hand the shard back untouched and die: the
                            // coordinator advances it inline and respawns
                            // this lane, so nothing is lost.
                            let _ = result_tx.send((lane, ch, ShardOutcome::Died(shard)));
                            return;
                        }
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(move || {
                        shard.advance_to(now);
                        shard
                    }))
                    .map_or_else(
                        |p| ShardOutcome::Panicked(panic_message(p)),
                        ShardOutcome::Advanced,
                    );
                    if result_tx.send((lane, ch, outcome)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn shard worker");
        (tx, handle)
    }

    /// Number of worker lanes.
    pub(crate) fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Replaces the worker on `lane` after a (injected) death. The dead
    /// thread's sender is dropped; its join handle stays queued for drop.
    pub(crate) fn respawn(&mut self, lane: usize) {
        let (tx, handle) = self.spawn_worker(lane);
        self.senders[lane] = tx;
        self.handles.push(handle);
        self.respawns += 1;
    }

    /// How many lanes have been respawned after worker deaths.
    pub(crate) fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Hands `shard` to worker `lane` to advance through bus cycle `now`.
    pub(crate) fn dispatch(&self, lane: usize, ch: usize, shard: Box<ChannelShard>, now: Cycle) {
        self.senders[lane].send((ch, shard, now)).expect("shard worker alive");
    }

    /// Blocks until one dispatched shard comes home. Call exactly once per
    /// [`ShardPool::dispatch`] before reading any shard state.
    pub(crate) fn collect(&self) -> Outcome {
        self.results.recv().expect("a dispatched shard always reports back")
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Hanging up the job channels ends each worker's recv loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            // A worker that panicked outside catch_unwind (impossible by
            // construction, but cheap to tolerate) must not abort drop.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::{DramChannel, TimingParams};
    use memctrl::{ChannelController, CtrlConfig};
    use sim_core::addr::{DramAddr, Geometry, PhysAddr};
    use sim_core::config::MitigationKind;
    use sim_core::fault::FaultPlan;
    use sim_core::req::{AccessKind, MemRequest, SourceId};
    use sim_core::tracker::NullTracker;

    fn shard(ch: u8) -> Box<ChannelShard> {
        let dram = DramChannel::new(Geometry::tiny(), TimingParams::ddr5_6400());
        let cfg = CtrlConfig::new(500, 1, MitigationKind::Vrr);
        Box::new(ChannelShard::new(ChannelController::new(ch, dram, Box::new(NullTracker), cfg)))
    }

    fn rd(ch: u8, id: u64, row: u32) -> MemRequest {
        let d = DramAddr::new(ch, 0, 0, 0, row, 0);
        MemRequest::new(id, SourceId(0), AccessKind::Read, PhysAddr(0), d, 0)
    }

    #[test]
    fn pooled_advance_matches_inline_advance() {
        let mut pool = ShardPool::new(2, None);
        let mut pooled: Vec<Option<Box<ChannelShard>>> = (0..4).map(|ch| Some(shard(ch))).collect();
        let mut inline: Vec<Box<ChannelShard>> = (0..4).map(shard).collect();
        for (ch, slot) in pooled.iter_mut().enumerate() {
            assert!(slot.as_mut().unwrap().inject(rd(ch as u8, 1 + ch as u64, 7)));
        }
        for (ch, s) in inline.iter_mut().enumerate() {
            assert!(s.inject(rd(ch as u8, 1 + ch as u64, 7)));
        }
        for now in 0..400 {
            for (ch, slot) in pooled.iter_mut().enumerate() {
                let s = slot.take().unwrap();
                pool.dispatch(ch % pool.workers(), ch, s, now);
            }
            for _ in 0..4 {
                let (lane, ch, outcome) = pool.collect();
                match outcome {
                    ShardOutcome::Advanced(s) => pooled[ch] = Some(s),
                    ShardOutcome::Died(mut s) => {
                        s.advance_to(now);
                        pooled[ch] = Some(s);
                        pool.respawn(lane);
                    }
                    ShardOutcome::Panicked(m) => panic!("unexpected panic: {m}"),
                }
            }
            for s in inline.iter_mut() {
                s.advance_to(now);
            }
        }
        for (slot, s) in pooled.iter_mut().zip(inline.iter_mut()) {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            slot.as_mut().unwrap().drain_completions_into(&mut a);
            s.drain_completions_into(&mut b);
            assert_eq!(a, b, "pooled and inline advance agree");
            assert!(!a.is_empty(), "the read completed");
            assert_eq!(slot.as_ref().unwrap().ticks(), s.ticks());
        }
    }

    #[test]
    fn killed_worker_hands_back_its_shard_and_the_lane_respawns() {
        let mut pool = ShardPool::new(2, Some(FaultPlan::new(5).kill_worker_once(1).arm()));
        let mut a = shard(0);
        assert!(a.inject(rd(0, 1, 3)));
        // Lane 1 is armed to die on its first job.
        pool.dispatch(1, 0, a, 0);
        let (lane, ch, outcome) = pool.collect();
        assert_eq!((lane, ch), (1, 0));
        let mut came_home = match outcome {
            ShardOutcome::Died(s) => s,
            _ => panic!("the armed lane must die"),
        };
        pool.respawn(lane);
        assert_eq!(pool.respawns(), 1);
        // The shard is untouched; the coordinator advances it inline and
        // keeps dispatching to the respawned lane (the fault budget is
        // spent, so the new worker lives).
        for now in 0..400 {
            came_home.advance_to(now);
            pool.dispatch(1, 0, came_home, now + 1);
            let (_, _, outcome) = pool.collect();
            came_home = match outcome {
                ShardOutcome::Advanced(s) => s,
                ShardOutcome::Died(_) => panic!("budget spent; the lane must live"),
                ShardOutcome::Panicked(m) => panic!("unexpected panic: {m}"),
            };
        }
        let mut done = Vec::new();
        came_home.drain_completions_into(&mut done);
        assert!(!done.is_empty(), "the read still completed after the death");
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let pool = ShardPool::new(3, None);
        pool.dispatch(1, 0, shard(0), 0);
        let (lane, ch, outcome) = pool.collect();
        assert_eq!(ch, 0);
        assert_eq!(lane, 1);
        assert!(matches!(outcome, ShardOutcome::Advanced(_)));
        drop(pool); // must not hang
    }
}

//! The interface between the memory controller and a RowHammer tracker.
//!
//! A tracker instance covers **one memory channel** (it may keep per-rank
//! structures internally). The controller drives it with three kinds of
//! events and executes whatever [`TrackerAction`]s come back:
//!
//! * every ACT command → [`RowHammerTracker::on_activation`],
//! * every tREFI (3.9 µs) → [`RowHammerTracker::on_trefi`],
//! * every tREFW (32 ms) → [`RowHammerTracker::on_refresh_window`].
//!
//! Throttling defenses (BlockHammer) and per-ACT timing taxes (PRAC) hook
//! [`RowHammerTracker::activation_delay`], which the controller consults
//! *before* issuing an ACT.

use crate::addr::{DramAddr, Geometry};
use crate::req::SourceId;
use crate::time::Cycle;

/// What every tracker is built from: the system-level knobs it cannot
/// choose for itself. A tracker's own tunables (structure sizes,
/// probabilities) ride beside these in its
/// [`ParamValues`](crate::registry::ParamValues).
#[derive(Debug, Clone, Copy)]
pub struct TrackerParams {
    /// RowHammer threshold N_RH.
    pub nrh: u32,
    /// DRAM organisation.
    pub geometry: Geometry,
    /// The channel this instance covers.
    pub channel: u8,
    /// Seed for all randomised internals.
    pub seed: u64,
}

impl TrackerParams {
    /// Build inputs for any DRAM organisation.
    pub fn new(nrh: u32, geometry: Geometry, channel: u8, seed: u64) -> Self {
        Self { nrh, geometry, channel, seed }
    }

    /// Build inputs for the paper-baseline organisation.
    pub fn baseline(nrh: u32, channel: u8, seed: u64) -> Self {
        Self::new(nrh, Geometry::paper_baseline(), channel, seed)
    }

    /// Mitigation threshold N_M = N_RH / 2.
    pub fn nm(&self) -> u32 {
        self.nrh / 2
    }
}

/// One row activation as observed by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activation {
    /// The activated row (column field is meaningless here).
    pub addr: DramAddr,
    /// The core (or tracker) whose request caused the activation.
    pub source: SourceId,
    /// Cycle at which the ACT command was issued.
    pub cycle: Cycle,
}

/// The region a structure-reset sweep must refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResetScope {
    /// All rows of one rank (CoMeT resets per rank).
    Rank {
        /// Channel index.
        channel: u8,
        /// Rank index.
        rank: u8,
    },
    /// All rows in the channel (ABACUS's tracker is channel-wide).
    Channel {
        /// Channel index.
        channel: u8,
    },
}

/// What the memory controller must do on behalf of the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerAction {
    /// Refresh the victim neighbours of this aggressor row (a VRR or DRFM
    /// command, per the system's mitigation configuration).
    MitigateRow(DramAddr),
    /// Read a tracker counter from reserved DRAM (Hydra RCC miss fill,
    /// START LLC miss).
    CounterRead(DramAddr),
    /// Write an evicted tracker counter back to reserved DRAM.
    CounterWrite(DramAddr),
    /// Refresh every row in scope and stall it meanwhile (CoMeT / ABACUS
    /// early reset; blocks the scope for ~2.4 ms in the paper).
    ResetSweep(ResetScope),
}

/// SRAM/CAM cost of a tracker per 32 GB memory channel (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StorageOverhead {
    /// SRAM bytes.
    pub sram_bytes: u64,
    /// CAM bytes (content-addressable storage, more expensive per bit).
    pub cam_bytes: u64,
}

impl StorageOverhead {
    /// Creates a storage figure from SRAM and CAM byte counts.
    pub fn new(sram_bytes: u64, cam_bytes: u64) -> Self {
        Self { sram_bytes, cam_bytes }
    }

    /// SRAM size in KB (fractional).
    pub fn sram_kb(&self) -> f64 {
        self.sram_bytes as f64 / 1024.0
    }

    /// CAM size in KB (fractional).
    pub fn cam_kb(&self) -> f64 {
        self.cam_bytes as f64 / 1024.0
    }

    /// Estimated die area in mm², using the per-KB coefficients derived from
    /// the ABACUS paper's synthesis results, which the DAPPER paper reuses
    /// for Table III (CAM is ~3.6x denser in area cost than SRAM).
    pub fn die_area_mm2(&self) -> f64 {
        const SRAM_MM2_PER_KB: f64 = 0.000_78;
        const CAM_MM2_PER_KB: f64 = 0.002_25;
        self.sram_kb() * SRAM_MM2_PER_KB + self.cam_kb() * CAM_MM2_PER_KB
    }
}

/// A host-side RowHammer mitigation as seen by the memory controller.
///
/// Implementations must be deterministic given their construction seed; the
/// simulator relies on replayability.
///
/// `Send` is a supertrait so that everything a tracker ends up inside
/// (`memctrl::ChannelController`, a whole `sim::System`) is `Send` too and a
/// front end may build a system on one thread and run it on another.
/// Nothing in the workspace moves one today: `sim::runner` builds each
/// cell's system on the worker that runs it. Trackers own their state (no
/// `Rc`, no thread-local aliasing), so this costs implementations nothing
/// beyond using `Arc` where a test double might have reached for `Rc`.
pub trait RowHammerTracker: Send {
    /// Short display name ("Hydra", "DAPPER-H", ...).
    fn name(&self) -> &'static str;

    /// Observes one ACT; pushes any required actions onto `actions`.
    fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>);

    /// Called once per tREFI (after the periodic REF is scheduled).
    fn on_trefi(&mut self, _cycle: Cycle, _actions: &mut Vec<TrackerAction>) {}

    /// Called at every tREFW boundary (structures with per-window reset
    /// semantics clear here).
    fn on_refresh_window(&mut self, _cycle: Cycle, _actions: &mut Vec<TrackerAction>) {}

    /// Extra cycles the controller must wait before issuing an ACT to `addr`
    /// (throttling / per-ACT counter update tax). Zero for most trackers.
    fn activation_delay(&mut self, _addr: &DramAddr, _source: SourceId, _cycle: Cycle) -> Cycle {
        0
    }

    /// Storage cost per 32 GB channel (Table III).
    fn storage_overhead(&self) -> StorageOverhead;
}

/// A no-op tracker: the insecure baseline all normalized-performance numbers
/// are measured against.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracker;

impl RowHammerTracker for NullTracker {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_activation(&mut self, _act: Activation, _actions: &mut Vec<TrackerAction>) {}

    fn storage_overhead(&self) -> StorageOverhead {
        StorageOverhead::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracker_does_nothing() {
        let mut t = NullTracker;
        let mut actions = Vec::new();
        let act = Activation { addr: DramAddr::default(), source: SourceId(0), cycle: 0 };
        t.on_activation(act, &mut actions);
        t.on_trefi(100, &mut actions);
        t.on_refresh_window(200, &mut actions);
        assert!(actions.is_empty());
        assert_eq!(t.activation_delay(&DramAddr::default(), SourceId(0), 0), 0);
        assert_eq!(t.storage_overhead().sram_bytes, 0);
    }

    #[test]
    fn storage_overhead_area_model() {
        // DAPPER-H: 96 KB SRAM, no CAM -> ~0.075 mm^2 (Table III).
        let s = StorageOverhead::new(96 * 1024, 0);
        assert!((s.die_area_mm2() - 0.0749).abs() < 0.002, "{}", s.die_area_mm2());
        // CoMeT: 112 KB SRAM + 23 KB CAM -> ~0.139 mm^2.
        let c = StorageOverhead::new(112 * 1024, 23 * 1024);
        assert!((c.die_area_mm2() - 0.139).abs() < 0.004, "{}", c.die_area_mm2());
    }
}

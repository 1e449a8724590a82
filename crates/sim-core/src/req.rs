//! Memory requests exchanged between cores, the LLC, and memory controllers.

use crate::addr::{DramAddr, PhysAddr};
use crate::time::Cycle;

/// Identifies the originator of a memory request.
///
/// Cores are the usual sources; the memory controller itself originates
/// tracker-metadata traffic (Hydra/START counter reads and writes), which is
/// attributed to [`SourceId::TRACKER`] so statistics can separate it from
/// demand traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u8);

impl SourceId {
    /// Pseudo-source for tracker metadata traffic.
    pub const TRACKER: SourceId = SourceId(u8::MAX);

    /// Returns true if this request was generated by the tracker rather than
    /// a core.
    pub fn is_tracker(self) -> bool {
        self == Self::TRACKER
    }
}

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_tracker() {
            write!(f, "tracker")
        } else {
            write!(f, "core{}", self.0)
        }
    }
}

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read (load miss).
    Read,
    /// A writeback or store.
    Write,
}

/// A request bound for a DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Unique id, used to wake the issuing core on completion.
    pub id: u64,
    /// Who issued it.
    pub source: SourceId,
    /// Read or write.
    pub kind: AccessKind,
    /// Physical address (informational; `dram` is authoritative).
    pub phys: PhysAddr,
    /// Decoded DRAM coordinates.
    pub dram: DramAddr,
    /// Cycle at which the request entered the controller queue.
    pub arrival: Cycle,
}

impl MemRequest {
    /// Creates a request; `dram` must be the decoding of `phys` under the
    /// system geometry (the controller does not re-decode).
    pub fn new(
        id: u64,
        source: SourceId,
        kind: AccessKind,
        phys: PhysAddr,
        dram: DramAddr,
        arrival: Cycle,
    ) -> Self {
        Self { id, source, kind, phys, dram, arrival }
    }

    /// True for reads that a core is stalled on.
    pub fn is_demand_read(&self) -> bool {
        self.kind == AccessKind::Read && !self.source.is_tracker()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_source_is_distinct() {
        assert!(SourceId::TRACKER.is_tracker());
        assert!(!SourceId(0).is_tracker());
        assert_eq!(SourceId::TRACKER.to_string(), "tracker");
        assert_eq!(SourceId(2).to_string(), "core2");
    }

    #[test]
    fn demand_read_classification() {
        let d = DramAddr::default();
        let r = MemRequest::new(1, SourceId(0), AccessKind::Read, PhysAddr(0), d, 0);
        let w = MemRequest::new(2, SourceId(0), AccessKind::Write, PhysAddr(0), d, 0);
        let t = MemRequest::new(3, SourceId::TRACKER, AccessKind::Read, PhysAddr(0), d, 0);
        assert!(r.is_demand_read());
        assert!(!w.is_demand_read());
        assert!(!t.is_demand_read());
    }
}

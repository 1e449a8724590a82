//! System configuration (Table I of the paper, plus RowHammer parameters).

use crate::addr::Geometry;
use crate::time::{ms_to_cycles, Cycle};

/// Which DRAM command the controller uses for mitigative refreshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MitigationKind {
    /// Victim-Row Refresh: per-bank command refreshing the victim rows of
    /// one aggressor; blocks only the accessed bank (the paper's default).
    Vrr,
    /// Same-Bank Directed RFM (JEDEC DDR5): blocks the same bank in every
    /// bank group (8 banks) for 240 ns, supports blast radius 2.
    DrfmSb,
    /// Same-Bank RFM: like DRFMsb but 190 ns (used by PrIDE).
    RfmSb,
}

impl std::fmt::Display for MitigationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MitigationKind::Vrr => write!(f, "VRR"),
            MitigationKind::DrfmSb => write!(f, "DRFMsb"),
            MitigationKind::RfmSb => write!(f, "RFMsb"),
        }
    }
}

/// Shared last-level cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Total capacity in bytes (8 MB baseline).
    pub capacity_bytes: u64,
    /// Associativity (16 ways baseline).
    pub ways: u16,
    /// Line size in bytes (64 B).
    pub line_bytes: u32,
    /// Ways reserved for tracker metadata (START reserves half).
    pub reserved_ways: u16,
}

// As run-cache cell descriptors spell them.
crate::json_record!(LlcConfig { capacity_bytes, ways, line_bytes, reserved_ways });
crate::json_record!(CpuConfig { cores, width, rob_entries });

impl LlcConfig {
    /// The paper baseline: 8 MB, 16-way, 64 B lines, nothing reserved.
    pub fn paper_baseline() -> Self {
        Self { capacity_bytes: 8 << 20, ways: 16, line_bytes: 64, reserved_ways: 0 }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.ways as u64 * self.line_bytes as u64)
    }

    /// Total line count.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / self.line_bytes as u64
    }
}

/// Core-model configuration (Table I: 4 cores, OoO, 4 GHz, 4-wide, 128-entry
/// ROB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Number of cores.
    pub cores: u8,
    /// Retire width (instructions per core cycle).
    pub width: u8,
    /// Reorder-buffer entries (bounds outstanding work per core).
    pub rob_entries: u16,
}

impl CpuConfig {
    /// The paper baseline.
    pub fn paper_baseline() -> Self {
        Self { cores: 4, width: 4, rob_entries: 128 }
    }
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// DRAM organisation.
    pub geometry: Geometry,
    /// Core model.
    pub cpu: CpuConfig,
    /// Shared LLC.
    pub llc: LlcConfig,
    /// RowHammer threshold N_RH (default 500; sensitivity 125..4K).
    pub nrh: u32,
    /// Blast radius: victim rows refreshed on each side of an aggressor.
    pub blast_radius: u8,
    /// Mitigation command flavour.
    pub mitigation: MitigationKind,
    /// Simulated window in bus cycles (runs may also stop on instruction
    /// count, whichever comes first).
    pub window_cycles: Cycle,
    /// Per-core instruction budget; `u64::MAX` to run purely on time.
    pub max_instructions: u64,
    /// RNG seed controlling every stochastic element of the run.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's baseline system at N_RH = 500 with a 4 ms default window
    /// (an eighth of tREFW; every bench exposes a flag to lengthen it).
    pub fn paper_baseline() -> Self {
        Self {
            geometry: Geometry::paper_baseline(),
            cpu: CpuConfig::paper_baseline(),
            llc: LlcConfig::paper_baseline(),
            nrh: 500,
            blast_radius: 1,
            mitigation: MitigationKind::Vrr,
            window_cycles: ms_to_cycles(4.0),
            max_instructions: u64::MAX,
            seed: 0xDA99E5,
        }
    }

    /// Mitigation threshold N_M = N_RH / 2 used by DAPPER and Hydra.
    pub fn nm(&self) -> u32 {
        self.nrh / 2
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_one() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.cpu.cores, 4);
        assert_eq!(c.cpu.rob_entries, 128);
        assert_eq!(c.llc.capacity_bytes, 8 << 20);
        assert_eq!(c.llc.ways, 16);
        assert_eq!(c.llc.sets(), 8192);
        assert_eq!(c.nrh, 500);
        assert_eq!(c.nm(), 250);
        assert_eq!(c.mitigation, MitigationKind::Vrr);
    }

    #[test]
    fn mitigation_kind_displays() {
        assert_eq!(MitigationKind::Vrr.to_string(), "VRR");
        assert_eq!(MitigationKind::DrfmSb.to_string(), "DRFMsb");
        assert_eq!(MitigationKind::RfmSb.to_string(), "RFMsb");
    }
}

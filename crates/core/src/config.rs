//! DAPPER configuration.

use sim_core::addr::Geometry;
use sim_core::time::{ms_to_cycles, Cycle};

/// How DAPPER-H restarts the triggering counters after a mitigation
/// (ablation knob; the paper's design is [`ResetStrategy::Cascade`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResetStrategy {
    /// Zero both counters (DAPPER-S style; forgets un-refreshed members —
    /// insecure in the worst case, shown by the ablation).
    Zero,
    /// Restart at the max opposite-table count of un-refreshed members
    /// (the literal Fig. 8 rule; sound but can re-arm hot groups and storm
    /// the mitigation path under the refresh attack).
    ResetCounter,
    /// Like `ResetCounter`, but members whose opposite count passed N_M/2
    /// are refreshed along with the shared rows and excluded from the max
    /// (sound *and* storm-free; the default).
    #[default]
    Cascade,
}

/// Configuration shared by DAPPER-S and DAPPER-H.
#[derive(Debug, Clone, Copy)]
pub struct DapperConfig {
    /// RowHammer threshold N_RH.
    pub nrh: u32,
    /// Rows per group (paper default 256).
    pub group_size: u32,
    /// DRAM organisation (the hash domain is rows-per-rank).
    pub geometry: Geometry,
    /// Channel this instance covers.
    pub channel: u8,
    /// Seed for key generation.
    pub seed: u64,
    /// Key refresh + table reset period in cycles. DAPPER-H always uses
    /// tREFW; DAPPER-S defaults to tREFW and Section V-D analyses shorter
    /// periods (Table II).
    pub t_reset: Cycle,
    /// DAPPER-H post-mitigation counter restart rule (ablation knob).
    pub reset_strategy: ResetStrategy,
    /// Enable DAPPER-H's per-bank bit-vector (ablation knob; disabling it
    /// re-exposes the streaming attack).
    pub bit_vector: bool,
}

impl DapperConfig {
    /// The paper's baseline configuration at a given threshold.
    pub fn baseline(nrh: u32, channel: u8, seed: u64) -> Self {
        Self {
            nrh,
            group_size: 256,
            geometry: Geometry::paper_baseline(),
            channel,
            seed,
            t_reset: ms_to_cycles(32.0),
            reset_strategy: ResetStrategy::Cascade,
            bit_vector: true,
        }
    }

    /// Mitigation threshold N_M = N_RH / 2.
    pub fn nm(&self) -> u32 {
        (self.nrh / 2).max(1)
    }

    /// Number of row groups per rank (8K for the baseline).
    pub fn groups_per_rank(&self) -> u64 {
        self.geometry.rows_per_rank() / self.group_size as u64
    }

    /// Bits of the hashed row-address domain (21 for the baseline).
    pub fn domain_bits(&self) -> u32 {
        self.geometry.rank_row_bits()
    }

    /// Bytes needed per RGC entry for this threshold (1 B up to N_M = 255).
    pub fn bytes_per_counter(&self) -> u64 {
        match self.nm() {
            0..=255 => 1,
            256..=65_535 => 2,
            _ => 4,
        }
    }

    /// The largest value an RGC entry holds: the full range of
    /// [`Self::bytes_per_counter`] bytes (255 for 1-byte entries), where
    /// the counter saturates.
    pub fn counter_limit(&self) -> u32 {
        match self.bytes_per_counter() {
            1 => u8::MAX as u32,
            2 => u16::MAX as u32,
            _ => u32::MAX,
        }
    }

    /// Builder-style override of the group size.
    ///
    /// # Panics
    ///
    /// Panics unless `group_size` is a power of two dividing the rank rows.
    pub fn with_group_size(mut self, group_size: u32) -> Self {
        assert!(group_size.is_power_of_two(), "group size must be a power of two");
        assert_eq!(
            self.geometry.rows_per_rank() % group_size as u64,
            0,
            "group size must divide rows per rank"
        );
        self.group_size = group_size;
        self
    }

    /// Builder-style override of the reset period.
    pub fn with_t_reset(mut self, t_reset: Cycle) -> Self {
        self.t_reset = t_reset;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = DapperConfig::baseline(500, 0, 1);
        assert_eq!(c.group_size, 256);
        assert_eq!(c.nm(), 250);
        assert_eq!(c.groups_per_rank(), 8192);
        assert_eq!(c.domain_bits(), 21);
        assert_eq!(c.bytes_per_counter(), 1);
    }

    #[test]
    fn counter_width_scales_with_threshold() {
        assert_eq!(DapperConfig::baseline(500, 0, 1).bytes_per_counter(), 1);
        assert_eq!(DapperConfig::baseline(4000, 0, 1).bytes_per_counter(), 2);
        assert_eq!(DapperConfig::baseline(500, 0, 1).counter_limit(), 255);
        assert_eq!(DapperConfig::baseline(4000, 0, 1).counter_limit(), 65_535);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_group_size() {
        let _ = DapperConfig::baseline(500, 0, 1).with_group_size(100);
    }
}

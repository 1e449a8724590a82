//! DDR5 timing parameters, in memory-bus cycles (3.2 GHz).

use sim_core::time::{ms_to_cycles, ns_to_cycles, us_to_cycles, Cycle};

/// The timing constraints the model enforces.
///
/// Values follow Table I of the paper (tRCD-tRP-tCL 16-16-16 ns, tRC 48 ns,
/// tRFC 295 ns, tREFI 3.9 µs) plus standard DDR5-6400 values for the
/// parameters the table omits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// ACT-to-column-command delay.
    pub t_rcd: Cycle,
    /// PRE-to-ACT delay.
    pub t_rp: Cycle,
    /// Read CAS latency.
    pub t_cl: Cycle,
    /// Write CAS latency.
    pub t_cwl: Cycle,
    /// ACT-to-ACT delay, same bank (row cycle time).
    pub t_rc: Cycle,
    /// ACT-to-PRE minimum (row active time).
    pub t_ras: Cycle,
    /// ACT-to-ACT, different bank groups of the same rank.
    pub t_rrd_s: Cycle,
    /// ACT-to-ACT, same bank group.
    pub t_rrd_l: Cycle,
    /// Four-activation window per rank.
    pub t_faw: Cycle,
    /// Burst length on the data bus (BL16 at DDR = 8 bus cycles).
    pub t_bl: Cycle,
    /// Read-to-PRE delay.
    pub t_rtp: Cycle,
    /// Write recovery before PRE.
    pub t_wr: Cycle,
    /// Refresh cycle time (all-bank REF duration).
    pub t_rfc: Cycle,
    /// Average refresh command interval.
    pub t_refi: Cycle,
    /// Refresh window: every row refreshed once per tREFW.
    pub t_refw: Cycle,
    /// Time to internally refresh one victim row during a VRR (modelled as a
    /// full row cycle).
    pub t_victim_row: Cycle,
    /// Same-bank RFM blocking time (JEDEC: 190 ns).
    pub t_rfm_sb: Cycle,
    /// Same-bank DRFM blocking time (JEDEC: 240 ns, covers blast radius 2).
    pub t_drfm_sb: Cycle,
    /// Per-row time of a full structure-reset sweep (CoMeT/ABACUS early
    /// resets refresh all rows of a rank in ~2.4 ms: 64K rows x ~37.5 ns
    /// with all banks in parallel).
    pub t_sweep_per_row: Cycle,
}

impl TimingParams {
    /// DDR5-6400 (Table I).
    pub fn ddr5_6400() -> Self {
        Self {
            t_rcd: ns_to_cycles(16.0),
            t_rp: ns_to_cycles(16.0),
            t_cl: ns_to_cycles(16.0),
            t_cwl: ns_to_cycles(14.0),
            t_rc: ns_to_cycles(48.0),
            t_ras: ns_to_cycles(32.0),
            t_rrd_s: ns_to_cycles(2.5),
            t_rrd_l: ns_to_cycles(5.0),
            t_faw: ns_to_cycles(10.0),
            t_bl: 8,
            t_rtp: ns_to_cycles(7.5),
            t_wr: ns_to_cycles(30.0),
            t_rfc: ns_to_cycles(295.0),
            t_refi: us_to_cycles(3.9),
            t_refw: ms_to_cycles(32.0),
            t_victim_row: ns_to_cycles(48.0),
            t_rfm_sb: ns_to_cycles(190.0),
            t_drfm_sb: ns_to_cycles(240.0),
            t_sweep_per_row: ns_to_cycles(37.5),
        }
    }

    /// Blocking duration of one VRR command at the given blast radius
    /// (one victim row refreshed on each side per unit of blast radius).
    pub fn vrr_block(&self, blast_radius: u8) -> Cycle {
        2 * blast_radius as Cycle * self.t_victim_row
    }

    /// Duration of a full reset sweep over `rows_per_bank` rows (banks
    /// refresh in parallel, so the sweep length is per-bank row count).
    pub fn sweep_block(&self, rows_per_bank: u32) -> Cycle {
        rows_per_bank as Cycle * self.t_sweep_per_row
    }

    /// Maximum ACT rate per rank implied by tRRD_S, in activations per
    /// second (the paper quotes ~11.8M per rank per tREFW).
    pub fn max_acts_per_trefw(&self) -> u64 {
        self.t_refw / self.t_rrd_s
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr5_6400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_constants() {
        let t = TimingParams::ddr5_6400();
        assert_eq!(t.t_rc, 154); // 48 ns
        assert_eq!(t.t_rcd, 52); // 16 ns
        assert_eq!(t.t_rfc, 944); // 295 ns
        assert_eq!(t.t_refi, 12_480); // 3.9 us
        assert_eq!(t.t_refw, 102_400_000); // 32 ms
    }

    #[test]
    fn act_budget_matches_paper() {
        let t = TimingParams::ddr5_6400();
        // Paper: ~11.8M ACTs per rank within tREFW at tRRD_S spacing, and
        // ~616K per bank at tRC spacing.
        let per_rank = t.max_acts_per_trefw();
        assert!((11_000_000..=13_000_000).contains(&per_rank), "{per_rank}");
        let per_bank = t.t_refw / t.t_rc;
        assert!((600_000..=680_000).contains(&per_bank), "{per_bank}");
    }

    #[test]
    fn vrr_scales_with_blast_radius() {
        let t = TimingParams::ddr5_6400();
        assert_eq!(t.vrr_block(2), 2 * t.vrr_block(1));
    }

    #[test]
    fn sweep_takes_millis() {
        let t = TimingParams::ddr5_6400();
        let cycles = t.sweep_block(64 * 1024);
        let ms = sim_core::time::cycles_to_ms(cycles);
        assert!((2.0..3.0).contains(&ms), "sweep = {ms} ms");
    }
}

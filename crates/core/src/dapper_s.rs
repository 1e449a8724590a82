//! DAPPER-S: the secure-hashing tracker template (paper Section V).

use crate::config::DapperConfig;
use crate::rgc::RgcTable;
use llbc::KeySchedule;
use sim_core::time::Cycle;
use sim_core::tracker::{Activation, RowHammerTracker, StorageOverhead, TrackerAction};

/// One rank's state: a keyed cipher and its RGC table.
#[derive(Debug, Clone)]
struct RankState {
    keys: KeySchedule,
    rgc: RgcTable,
}

/// The DAPPER-S tracker for one channel.
///
/// Every activation encrypts the per-rank row index with the rank's LLBC,
/// indexes the RGC table with the hashed address divided by the group size,
/// and mitigates **all rows of the group** when the counter reaches
/// N_M = N_RH/2 (Fig. 6). Keys refresh and the table clears every
/// `t_reset` (tREFW by default; Section V-D analyses shorter periods).
#[derive(Debug, Clone)]
pub struct DapperS {
    cfg: DapperConfig,
    ranks: Vec<RankState>,
    next_reset: Cycle,
    /// Group mitigations performed (introspection).
    pub mitigations: u64,
    /// Total rows refreshed by mitigations.
    pub rows_refreshed: u64,
}

impl DapperS {
    /// Creates a DAPPER-S instance.
    pub fn new(cfg: DapperConfig) -> Self {
        let ranks = (0..cfg.geometry.ranks)
            .map(|r| RankState {
                keys: KeySchedule::new(
                    cfg.domain_bits(),
                    cfg.seed ^ 0xDA99E5 ^ ((cfg.channel as u64) << 32 | (r as u64) << 16),
                ),
                rgc: RgcTable::new(cfg.groups_per_rank(), cfg.counter_limit()),
            })
            .collect();
        Self { cfg, ranks, next_reset: cfg.t_reset, mitigations: 0, rows_refreshed: 0 }
    }

    /// The configuration.
    pub fn config(&self) -> &DapperConfig {
        &self.cfg
    }

    /// The group a row currently maps to in `rank` — the mapping an
    /// attacker tries to capture (white-box introspection for the security
    /// analysis and the mapping-capture attack harness).
    pub fn group_of(&self, rank: u8, row_index: u64) -> u64 {
        let y = self.ranks[rank as usize].keys.cipher().encrypt(row_index);
        y / self.cfg.group_size as u64
    }

    /// Rekeys every rank and clears the tables (the t_reset action).
    pub fn reset_and_rekey(&mut self) {
        for r in &mut self.ranks {
            r.keys.rekey();
            r.rgc.clear();
        }
    }

    /// Number of rekeys performed on rank 0 (introspection).
    pub fn key_generation(&self) -> u64 {
        self.ranks[0].keys.generation()
    }

    fn maybe_reset(&mut self, now: Cycle) {
        while now >= self.next_reset {
            self.reset_and_rekey();
            self.next_reset += self.cfg.t_reset;
        }
    }
}

impl RowHammerTracker for DapperS {
    fn name(&self) -> &'static str {
        "DAPPER-S"
    }

    fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
        self.maybe_reset(act.cycle);
        let geom = self.cfg.geometry;
        let rank = act.addr.rank as usize;
        let row = geom.rank_row_index(&act.addr);
        let s = self.cfg.group_size as u64;
        let state = &mut self.ranks[rank];
        let y = state.keys.cipher().encrypt(row);
        let group = y / s;
        let count = state.rgc.increment(group);
        if count >= self.cfg.nm() {
            // Mitigate every row in the group: decrypt the contiguous hashed
            // range back to original addresses (Fig. 6b).
            state.rgc.set(group, 0);
            self.mitigations += 1;
            self.rows_refreshed += s;
            let cipher = *state.keys.cipher();
            for h in (group * s)..((group + 1) * s) {
                let orig = cipher.decrypt(h);
                let addr = geom.addr_from_rank_row_index(act.addr.channel, rank as u8, orig);
                actions.push(TrackerAction::MitigateRow(addr));
            }
        }
    }

    fn on_trefi(&mut self, cycle: Cycle, _actions: &mut Vec<TrackerAction>) {
        self.maybe_reset(cycle);
    }

    fn on_refresh_window(&mut self, cycle: Cycle, _actions: &mut Vec<TrackerAction>) {
        self.maybe_reset(cycle);
    }

    fn storage_overhead(&self) -> StorageOverhead {
        // One RGC table per rank: 8K x 1 B x 2 ranks = 16 KB per 32 GB
        // (Section V-A), plus four 16-bit key registers per rank.
        let table = self.cfg.groups_per_rank() * self.cfg.bytes_per_counter();
        let keys = 4 * 2;
        StorageOverhead::new((table + keys) * self.cfg.geometry.ranks as u64, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::addr::DramAddr;
    use sim_core::req::SourceId;

    fn cfg() -> DapperConfig {
        DapperConfig::baseline(500, 0, 77)
    }

    fn act(addr: DramAddr, cycle: Cycle) -> Activation {
        Activation { addr, source: SourceId(0), cycle }
    }

    #[test]
    fn hammered_row_mitigated_at_nm_with_full_group() {
        let mut t = DapperS::new(cfg());
        let a = DramAddr::new(0, 0, 2, 1, 777, 0);
        let mut out = Vec::new();
        for i in 0..250u64 {
            t.on_activation(act(a, i), &mut out);
        }
        assert_eq!(t.mitigations, 1);
        assert_eq!(out.len(), 256, "whole group refreshed");
        // The hammered row itself must be among the refreshed rows.
        assert!(out.iter().any(
            |x| matches!(x, TrackerAction::MitigateRow(r) if r.row == 777 && r.bank_group == 2 && r.bank == 1)
        ));
    }

    #[test]
    fn group_members_decrypt_to_distinct_rows() {
        let mut t = DapperS::new(cfg());
        let a = DramAddr::new(0, 0, 0, 0, 10, 0);
        let mut out = Vec::new();
        for i in 0..250u64 {
            t.on_activation(act(a, i), &mut out);
        }
        let mut rows: Vec<_> = out
            .iter()
            .map(|x| match x {
                TrackerAction::MitigateRow(r) => cfg().geometry.rank_row_index(r),
                _ => unreachable!(),
            })
            .collect();
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows.len(), 256, "bijective decryption: no duplicates");
    }

    #[test]
    fn counter_resets_after_mitigation() {
        let mut t = DapperS::new(cfg());
        let a = DramAddr::new(0, 0, 0, 0, 10, 0);
        let mut out = Vec::new();
        for i in 0..500u64 {
            t.on_activation(act(a, i), &mut out);
        }
        assert_eq!(t.mitigations, 2, "250 + 250 activations = 2 mitigations");
    }

    #[test]
    fn reset_clears_counts_and_changes_mapping() {
        let mut t = DapperS::new(cfg().with_t_reset(1000));
        let a = DramAddr::new(0, 0, 0, 0, 10, 0);
        let row = cfg().geometry.rank_row_index(&a);
        let g_before = t.group_of(0, row);
        let mut out = Vec::new();
        // 249 activations before the reset boundary.
        for i in 0..249u64 {
            t.on_activation(act(a, i % 999), &mut out);
        }
        assert!(out.is_empty());
        // Cross the reset boundary: keys change, counts clear.
        t.on_trefi(1000, &mut out);
        assert_eq!(t.key_generation(), 1);
        let g_after = t.group_of(0, row);
        assert_ne!(g_before, g_after, "rekey remaps the row (w.h.p.)");
        for i in 0..249u64 {
            t.on_activation(act(a, 1001 + i), &mut out);
        }
        assert!(out.is_empty(), "counts must not persist across reset");
    }

    #[test]
    fn different_ranks_have_independent_mappings() {
        let t = DapperS::new(cfg());
        let differing = (0..256u64).filter(|&r| t.group_of(0, r) != t.group_of(1, r)).count();
        assert!(differing > 250);
    }

    #[test]
    fn storage_is_16kb_per_channel() {
        let t = DapperS::new(cfg());
        let kb = t.storage_overhead().sram_kb();
        assert!((kb - 16.0).abs() < 0.1, "{kb} KB");
    }

    /// Each rank's RGC table takes exactly its share of the modelled SRAM
    /// on the host (1 B counters at N_RH 500, 2 B at N_RH 1000) and still
    /// saturates at the full range of that width.
    #[test]
    fn rgc_table_holds_its_modelled_bytes_and_saturates_at_its_width() {
        for (nrh, width, limit) in [(500, 1, 255), (1000, 2, 65_535)] {
            let c = DapperConfig::baseline(nrh, 0, 77);
            let mut t = DapperS::new(c);
            let (groups, ranks) = (c.groups_per_rank(), c.geometry.ranks as u64);
            // The storage model less each rank's key registers (8 B).
            let tables = t.storage_overhead().sram_bytes - ranks * 8;
            let host: u64 = t.ranks.iter().map(|r| r.rgc.host_bytes()).sum();
            assert_eq!(host, tables, "N_RH {nrh}");
            assert_eq!(host, ranks * groups * width, "N_RH {nrh}");

            let rgc = &mut t.ranks[0].rgc;
            rgc.set(7, limit - 1);
            assert_eq!(rgc.increment(7), limit, "N_RH {nrh}");
            assert_eq!(rgc.increment(7), limit, "N_RH {nrh}: saturated");
            rgc.set(8, u32::MAX);
            assert_eq!(rgc.get(8), limit, "N_RH {nrh}: set clamps");
        }
    }

    #[test]
    fn sequential_rows_spread_over_groups() {
        // The property that protects workloads with spatial locality.
        let t = DapperS::new(cfg());
        let mut groups = std::collections::HashSet::new();
        for r in 0..256u64 {
            groups.insert(t.group_of(0, r));
        }
        assert!(groups.len() > 200, "{} groups", groups.len());
    }
}

//! RH-Tracker-based Performance-Attack generators (paper Section III-B and
//! Section V-E).
//!
//! Each attack is a [`cpu::TraceSource`] run by the attacker core. All
//! attacks issue back-to-back loads (`bubbles = 0`). The RowHammer attacks
//! are marked [`Attack::bypasses_llc`] — real attackers evict with
//! `clflush`/conflict sets; the simulator models that by skipping the LLC
//! for the attacker's accesses. The cache-thrashing attack goes *through*
//! the LLC, since polluting it is the point.

use cpu::{TraceEntry, TraceSource};
use sim_core::addr::{DramAddr, Geometry, PhysAddr};
use sim_core::rng::Xoshiro256;

/// The attack patterns of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attack {
    /// Classic cache thrashing: stream a huge footprint through the LLC.
    CacheThrash,
    /// Hydra attack (Fig. 2a): cycle through more rows than the RCC holds,
    /// forcing a counter fetch + writeback per activation.
    HydraRccThrash,
    /// START attack (Fig. 2b): stream across all DRAM rows, overflowing the
    /// reserved-LLC counter region.
    StartStream,
    /// CoMeT attack (Fig. 2c): rapidly activate more aggressors than the
    /// 128-entry RAT, forcing early reset sweeps.
    CometRatOverflow,
    /// ABACuS attack (Fig. 2d): sequentially activate distinct row IDs
    /// across banks to overflow the shared spillover counter.
    AbacusSpillover,
    /// Mapping-agnostic streaming attack on DAPPER (Section V-E): activate
    /// every row of the rank, banks interleaved.
    Streaming,
    /// Mapping-agnostic refresh attack on DAPPER (Section V-E): hammer a
    /// few rows per bank to drag group counters to the threshold.
    RefreshAttack,
}

impl Attack {
    /// Every attack pattern, in paper order. Campaign matrices and the
    /// red-team scenario genome (`redteam`) iterate this.
    pub fn all() -> [Attack; 7] {
        [
            Attack::CacheThrash,
            Attack::HydraRccThrash,
            Attack::StartStream,
            Attack::CometRatOverflow,
            Attack::AbacusSpillover,
            Attack::Streaming,
            Attack::RefreshAttack,
        ]
    }

    /// The attack tailored to a given tracker name (Figs. 1, 3, 4, 5).
    pub fn tailored_for(tracker: &str) -> Attack {
        match tracker {
            "Hydra" => Attack::HydraRccThrash,
            "START" => Attack::StartStream,
            "CoMeT" => Attack::CometRatOverflow,
            "ABACUS" => Attack::AbacusSpillover,
            "DAPPER-S" | "DAPPER-H" => Attack::RefreshAttack,
            _ => Attack::CacheThrash,
        }
    }

    /// Whether the attacker's accesses skip the LLC (clflush-style).
    pub fn bypasses_llc(self) -> bool {
        !matches!(self, Attack::CacheThrash)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Attack::CacheThrash => "cache-thrash",
            Attack::HydraRccThrash => "hydra-rcc",
            Attack::StartStream => "start-stream",
            Attack::CometRatOverflow => "comet-rat",
            Attack::AbacusSpillover => "abacus-spill",
            Attack::Streaming => "streaming",
            Attack::RefreshAttack => "refresh",
        }
    }

    /// Builds the trace source for this attack.
    pub fn trace(self, geom: Geometry, seed: u64) -> AttackTrace {
        AttackTrace::new(self, geom, seed)
    }
}

impl std::fmt::Display for Attack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The state machine realising an [`Attack`] as an endless trace.
#[derive(Debug)]
pub struct AttackTrace {
    attack: Attack,
    geom: Geometry,
    step: u64,
    /// Aggressor set for the fixed-set attacks.
    aggressors: Vec<DramAddr>,
}

impl AttackTrace {
    fn new(attack: Attack, geom: Geometry, seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from(seed ^ 0xA77AC4);
        let aggressors = match attack {
            Attack::HydraRccThrash => {
                // Hydra groups are 128 consecutive row indices. Target 128
                // whole groups (16K rows) spread across rank 0's banks: the
                // priming phase flips every group to per-row mode cheaply,
                // then cycling 16K rows >> 4K RCC entries thrashes the RCC.
                let mut rows = Vec::with_capacity(128 * 128);
                let banks = geom.banks_per_rank() as u64;
                for g in 0..128u64 {
                    let bank = g % banks;
                    let group_base = bank * geom.rows_per_bank as u64 + (g / banks) * 128 + 4096;
                    for r in 0..128u64 {
                        rows.push(geom.addr_from_rank_row_index(0, 0, group_base + r));
                    }
                }
                rng.shuffle(&mut rows);
                rows
            }
            Attack::CometRatOverflow => {
                // 192 aggressors > 128 RAT entries (paper Section III-B),
                // all in rank 0 (the RAT is per rank), spread across banks
                // so tRRD rather than tRC paces the attack.
                Self::spread_rows_in_rank(&geom, 192, 0, &mut rng)
            }
            Attack::RefreshAttack => {
                // Two hot rows per bank (open-page policy needs a conflict
                // pair to generate ACTs).
                let mut rows = Vec::new();
                let banks = geom.banks_per_rank();
                for rank in 0..geom.ranks {
                    for b in 0..banks {
                        for r in [1000u32, 3000u32] {
                            let idx = b as u64 * geom.rows_per_bank as u64 + r as u64;
                            rows.push(geom.addr_from_rank_row_index(0, rank, idx));
                        }
                    }
                }
                rows
            }
            _ => Vec::new(),
        };
        let _ = rng;
        Self { attack, geom, step: 0, aggressors }
    }

    fn spread_rows_in_rank(
        geom: &Geometry,
        n: usize,
        rank: u8,
        rng: &mut Xoshiro256,
    ) -> Vec<DramAddr> {
        let banks = geom.banks_per_rank() as u64;
        (0..n as u64)
            .map(|i| {
                let bank = i % banks;
                // Keep clear of the reserved top rows.
                let row = rng.gen_range(geom.rows_per_bank as u64 - 64);
                geom.addr_from_rank_row_index(0, rank, bank * geom.rows_per_bank as u64 + row)
            })
            .collect()
    }

    /// The attack this trace realises.
    pub fn attack(&self) -> Attack {
        self.attack
    }

    /// The fixed aggressor set of this attack (empty for the formula-driven
    /// streaming patterns). Exposed so the red-team scenario genome can
    /// rebuild the same pattern as a composition of primitives.
    pub fn aggressor_rows(&self) -> &[DramAddr] {
        &self.aggressors
    }

    fn entry_for(&self, addr: DramAddr) -> TraceEntry {
        TraceEntry { bubbles: 0, addr: self.geom.encode(&addr), is_write: false }
    }
}

impl TraceSource for AttackTrace {
    fn next_entry(&mut self) -> TraceEntry {
        let step = self.step;
        self.step = self.step.wrapping_add(1);
        match self.attack {
            Attack::CacheThrash => {
                // Stream 64 MB of lines round and round: evicts everything.
                // A small bubble count models the pointer-chasing loop body;
                // pure back-to-back loads would model a memory bandwidth
                // attack rather than a cache-thrashing one.
                const LINES: u64 = (64 << 20) / 64;
                let line = step % LINES;
                TraceEntry { bubbles: 6, addr: PhysAddr(line * 64), is_write: false }
            }
            Attack::StartStream | Attack::Streaming => {
                // Walk every row of rank 0, banks innermost so the stream
                // interleaves banks at tRRD pace (the paper's streaming
                // attack sweeps one rank's 2M rows every ~6 ms). Rows
                // advance with a 64-row stride so each activation touches a
                // fresh 64-counter line of START's reserved region — the
                // line-conflict-aware order a real attacker uses to defeat
                // line-granularity caching.
                let banks = self.geom.banks_per_rank() as u64;
                let rows = self.geom.rows_per_bank as u64 - 64;
                let bank = step % banks;
                let k = step / banks;
                let strides = rows / 64;
                let row = (k % strides) * 64 + (k / strides) % 64;
                let idx = bank * self.geom.rows_per_bank as u64 + row;
                self.entry_for(self.geom.addr_from_rank_row_index(0, 0, idx))
            }
            Attack::AbacusSpillover => {
                // Distinct row ID on *every* activation ("row 0 in bank 0,
                // row 1 in bank 1, ..."): each one is untracked and lands on
                // the Misra-Gries spillover counter.
                let banks = self.geom.banks_per_rank() as u64;
                let bank = step % banks;
                let row = step % (self.geom.rows_per_bank as u64 - 64);
                let idx = bank * self.geom.rows_per_bank as u64 + row;
                self.entry_for(self.geom.addr_from_rank_row_index(0, 0, idx))
            }
            Attack::HydraRccThrash | Attack::CometRatOverflow | Attack::RefreshAttack => {
                let a = self.aggressors[(step % self.aggressors.len() as u64) as usize];
                self.entry_for(a)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::paper_baseline()
    }

    #[test]
    fn tailoring_matches_paper_table() {
        assert_eq!(Attack::tailored_for("Hydra"), Attack::HydraRccThrash);
        assert_eq!(Attack::tailored_for("START"), Attack::StartStream);
        assert_eq!(Attack::tailored_for("CoMeT"), Attack::CometRatOverflow);
        assert_eq!(Attack::tailored_for("ABACUS"), Attack::AbacusSpillover);
        assert_eq!(Attack::tailored_for("DAPPER-H"), Attack::RefreshAttack);
    }

    #[test]
    fn only_cache_thrash_uses_the_llc() {
        assert!(!Attack::CacheThrash.bypasses_llc());
        for a in [
            Attack::HydraRccThrash,
            Attack::StartStream,
            Attack::CometRatOverflow,
            Attack::AbacusSpillover,
            Attack::Streaming,
            Attack::RefreshAttack,
        ] {
            assert!(a.bypasses_llc(), "{a}");
        }
    }

    #[test]
    fn attacks_issue_back_to_back_loads() {
        for a in [Attack::StartStream, Attack::RefreshAttack] {
            let mut t = a.trace(geom(), 1);
            for _ in 0..100 {
                let e = t.next_entry();
                assert_eq!(e.bubbles, 0);
                assert!(!e.is_write);
            }
        }
    }

    #[test]
    fn streaming_visits_distinct_rows_across_banks() {
        let g = geom();
        let mut t = Attack::Streaming.trace(g, 1);
        let mut rows = std::collections::HashSet::new();
        let mut banks = std::collections::HashSet::new();
        let mut lines = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let e = t.next_entry();
            let d = g.decode(e.addr);
            rows.insert((d.rank, d.bank_group, d.bank, d.row));
            banks.insert((d.rank, d.bank_group, d.bank));
            lines.insert((g.rank_row_index(&d) + d.rank as u64 * g.rows_per_rank()) / 64);
        }
        assert_eq!(rows.len(), 10_000, "no repeats within a sweep");
        assert_eq!(banks.len(), 32, "all banks of the target rank exercised");
        assert_eq!(lines.len(), 10_000, "every ACT touches a fresh counter line");
    }

    #[test]
    fn abacus_attack_never_repeats_row_ids_quickly() {
        let g = geom();
        let mut t = Attack::AbacusSpillover.trace(g, 1);
        let mut ids = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let d = g.decode(t.next_entry().addr);
            ids.insert(d.row);
        }
        assert!(ids.len() > 9_900, "{} distinct row ids", ids.len());
    }

    #[test]
    fn refresh_attack_hammers_fixed_set_across_banks() {
        let g = geom();
        let mut t = Attack::RefreshAttack.trace(g, 1);
        let mut rows = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let e = t.next_entry();
            rows.insert(e.addr.0);
        }
        // 2 rows x 32 banks x 2 ranks = 128 distinct addresses, recycled.
        assert_eq!(rows.len(), 128);
    }

    #[test]
    fn comet_attack_uses_192_aggressors() {
        let g = geom();
        let mut t = Attack::CometRatOverflow.trace(g, 3);
        let mut rows = std::collections::HashSet::new();
        for _ in 0..5000 {
            rows.insert(t.next_entry().addr.0);
        }
        assert_eq!(rows.len(), 192);
    }

    #[test]
    fn hydra_attack_exceeds_rcc_capacity() {
        let g = geom();
        let mut t = Attack::HydraRccThrash.trace(g, 3);
        let mut rows = std::collections::HashSet::new();
        let mut groups = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let e = t.next_entry();
            rows.insert(e.addr.0);
            let d = g.decode(e.addr);
            groups.insert(g.rank_row_index(&d) / 128);
        }
        assert!(rows.len() > 4096, "{} rows cycle through the RCC", rows.len());
        assert_eq!(groups.len(), 128, "dense groups flip to per-row mode fast");
    }

    #[test]
    fn attack_rows_avoid_reserved_metadata_region() {
        let g = geom();
        for atk in [Attack::Streaming, Attack::HydraRccThrash, Attack::AbacusSpillover] {
            let mut t = atk.trace(g, 9);
            for _ in 0..5000 {
                let d = g.decode(t.next_entry().addr);
                assert!(d.row < g.rows_per_bank - 64, "{atk}: row {} reserved", d.row);
            }
        }
    }
}

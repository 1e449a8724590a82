//! ABACuS (Olgun et al., USENIX Security 2024): shared Misra-Gries tracking.
//!
//! One Misra-Gries table is shared by **all banks in the channel**. Because
//! attackers hammer the same row ID in every bank simultaneously, an entry
//! holds a row ID, one shared activation counter, and a per-bank bit-vector
//! so that same-row activations across banks count once per "round".
//!
//! Untracked activations bump the spillover counter; once the spillover
//! reaches the mitigation threshold any untracked row could be near the
//! limit, so ABACuS must refresh **every row in the channel** and reset —
//! the Perf-Attack lever (Section III-B): sequentially activating distinct
//! row IDs overflows the spillover every `entries x N_RH/2` activations.

use sim_core::registry::{ParamSpec, ParamValues, RegistryError, TrackerSpec};
use sim_core::time::Cycle;
use sim_core::tracker::{
    Activation, ResetScope, RowHammerTracker, StorageOverhead, TrackerAction, TrackerParams,
};
use std::collections::HashMap;

/// Misra-Gries table sizes from the paper, per N_RH.
pub fn table_entries_for(nrh: u32) -> usize {
    match nrh {
        0..=125 => 9783,
        126..=250 => 4931,
        251..=500 => 2466,
        501..=1000 => 1233,
        1001..=2000 => 617,
        _ => 309,
    }
}

/// Structure sizes for one ABACuS instance. [`AbacusParams::new`] sizes the
/// Misra-Gries table from the paper's per-N_RH table; the registry exposes
/// the entry count (the spillover overflows every `entries x N_RH/2`
/// activations, so it is the sensitivity knob) with `0` = auto.
#[derive(Debug, Clone, Copy)]
pub struct AbacusParams {
    /// Shared construction parameters.
    pub base: TrackerParams,
    /// Misra-Gries table entries; `0` selects the paper's size for N_RH.
    pub entries: usize,
}

impl AbacusParams {
    /// The paper-baseline sizing (auto from N_RH).
    pub fn new(base: TrackerParams) -> Self {
        Self { base, entries: 0 }
    }

    /// Rejects a table size [`Abacus::with_params`] cannot build.
    pub fn validate(&self) -> Result<(), RegistryError> {
        if self.resolved_entries() == 0 {
            return Err(RegistryError::invalid("abacus", "entries", "must be nonzero"));
        }
        Ok(())
    }

    fn resolved_entries(&self) -> usize {
        if self.entries == 0 {
            table_entries_for(self.base.nrh)
        } else {
            self.entries
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Entry {
    row: u32,
    count: u32,
    /// One bit per (rank, bank) in the channel.
    bits: u64,
}

/// The ABACuS tracker for one channel.
#[derive(Debug)]
pub struct Abacus {
    p: TrackerParams,
    /// row-id -> table slot.
    index: HashMap<u32, usize>,
    entries: Vec<Entry>,
    free: Vec<usize>,
    spillover: u32,
    /// Channel-wide reset sweeps triggered by spillover overflow.
    pub overflow_resets: u64,
}

impl Abacus {
    /// Creates an ABACuS instance sized for `p.nrh` per the paper.
    pub fn new(p: TrackerParams) -> Self {
        Self::with_params(AbacusParams::new(p)).expect("paper-baseline sizing is valid")
    }

    /// Creates an ABACuS instance with an explicit table size.
    pub fn with_params(ap: AbacusParams) -> Result<Self, RegistryError> {
        ap.validate()?;
        let n = ap.resolved_entries();
        Ok(Self {
            p: ap.base,
            index: HashMap::with_capacity(n),
            entries: vec![Entry::default(); n],
            free: (0..n).rev().collect(),
            spillover: 0,
            overflow_resets: 0,
        })
    }

    /// Configured table size.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Current spillover counter value.
    pub fn spillover(&self) -> u32 {
        self.spillover
    }

    fn clear(&mut self) {
        self.index.clear();
        for e in &mut self.entries {
            *e = Entry::default();
        }
        self.free = (0..self.entries.len()).rev().collect();
        self.spillover = 0;
    }

    fn bank_bit(&self, act: &Activation) -> u64 {
        let geom = &self.p.geometry;
        let b = act.addr.rank as u32 * geom.banks_per_rank() + geom.bank_in_rank(&act.addr);
        1u64 << (b % 64)
    }
}

impl RowHammerTracker for Abacus {
    fn name(&self) -> &'static str {
        "ABACUS"
    }

    fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
        let row = act.addr.row;
        let bit = self.bank_bit(&act);
        let nm = self.p.nm();

        if let Some(&slot) = self.index.get(&row) {
            let (count, hit_threshold) = {
                let e = &mut self.entries[slot];
                if e.bits & bit != 0 {
                    // Second activation from the same bank: a new round.
                    e.count += 1;
                    e.bits = bit;
                    (e.count, e.count >= nm)
                } else {
                    e.bits |= bit;
                    (e.count, false)
                }
            };
            let _ = count;
            if hit_threshold {
                // The entry is shared by every bank in the channel: the same
                // row id may have been hammered in all of them, so ABACuS
                // refreshes the row's victims in every bank.
                let geom = self.p.geometry;
                for rank in 0..geom.ranks {
                    for bg in 0..geom.bank_groups {
                        for bank in 0..geom.banks_per_group {
                            actions.push(TrackerAction::MitigateRow(sim_core::addr::DramAddr {
                                channel: self.p.channel,
                                rank,
                                bank_group: bg,
                                bank,
                                row,
                                col: 0,
                            }));
                        }
                    }
                }
                self.entries[slot].count = self.spillover;
            }
            return;
        }

        // Untracked row: claim a free slot or displace per Misra-Gries.
        if let Some(slot) = self.free.pop() {
            self.index.remove(&self.entries[slot].row);
            self.entries[slot] = Entry { row, count: self.spillover, bits: bit };
            self.index.insert(row, slot);
            return;
        }
        // Misra-Gries: if some entry's count equals the spillover floor we
        // replace it; otherwise the activation lands on the spillover.
        if let Some((slot, _)) =
            self.entries.iter().enumerate().find(|(_, e)| e.count <= self.spillover)
        {
            let old = self.entries[slot].row;
            self.index.remove(&old);
            self.entries[slot] = Entry { row, count: self.spillover + 1, bits: bit };
            self.index.insert(row, slot);
            return;
        }
        self.spillover += 1;
        if self.spillover >= nm {
            // Every untracked row may be at the threshold: reset the channel.
            self.overflow_resets += 1;
            self.clear();
            actions
                .push(TrackerAction::ResetSweep(ResetScope::Channel { channel: self.p.channel }));
        }
    }

    fn on_refresh_window(&mut self, _cycle: Cycle, _actions: &mut Vec<TrackerAction>) {
        self.clear();
    }

    fn storage_overhead(&self) -> StorageOverhead {
        // Table III: 19.3 KB SRAM + 7.5 KB CAM per 32 GB (N_RH = 500:
        // 2466 entries x (16-bit row id in CAM + counter + 64-bit vector)).
        let (sram, cam) = abacus_storage(self.entries.len());
        StorageOverhead::new(sram, cam)
    }
}

fn abacus_storage(entries: usize) -> (u64, u64) {
    // Per entry: ~10 B of counter + bank bit-vector in SRAM, ~3 B of
    // row-id CAM — the baseline 2466 entries land on Table III's figures.
    (19_763 * entries as u64 / 2466, 7_680 * entries as u64 / 2466)
}

/// ABACuS's tracker-table entry: key `abacus`, Misra-Gries table size
/// exposed as a tunable parameter (`0` = the paper's size for N_RH).
pub const SPEC: TrackerSpec = TrackerSpec {
    key: "abacus",
    name: "ABACUS",
    aliases: &[],
    reserves_llc: false,
    params: &[ParamSpec::int(
        "entries",
        "Misra-Gries table entries (0 = the paper's size for N_RH)",
        0,
    )
    .range(0.0, (1u64 << 24) as f64)],
    check: |p, v| params(p, v).validate(),
    factory: |p, v| Ok(Box::new(Abacus::with_params(params(p, v))?)),
};

fn params(p: TrackerParams, v: &ParamValues) -> AbacusParams {
    AbacusParams { entries: v.count("entries"), ..AbacusParams::new(p) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::addr::DramAddr;
    use sim_core::req::SourceId;

    fn act_at(bank_group: u8, bank: u8, row: u32) -> Activation {
        Activation {
            addr: DramAddr::new(0, 0, bank_group, bank, row, 0),
            source: SourceId(0),
            cycle: 0,
        }
    }

    fn params() -> TrackerParams {
        TrackerParams::baseline(500, 0, 5)
    }

    #[test]
    fn table_sizes_match_paper() {
        assert_eq!(table_entries_for(4000), 309);
        assert_eq!(table_entries_for(2000), 617);
        assert_eq!(table_entries_for(1000), 1233);
        assert_eq!(table_entries_for(500), 2466);
        assert_eq!(table_entries_for(250), 4931);
        assert_eq!(table_entries_for(125), 9783);
    }

    #[test]
    fn single_bank_hammer_mitigated_at_nm() {
        let mut t = Abacus::new(params());
        let mut out = Vec::new();
        let mut first = None;
        for i in 1..=600u32 {
            out.clear();
            t.on_activation(act_at(0, 0, 7), &mut out);
            if out.iter().any(|x| matches!(x, TrackerAction::MitigateRow(_))) {
                first = Some(i);
                break;
            }
        }
        // Bit-vector: first ACT sets the bit, increments start on the 2nd.
        assert_eq!(first, Some(251), "N_M=250 plus the bit-set round");
    }

    #[test]
    fn same_row_id_across_banks_counts_once_per_round() {
        let mut t = Abacus::new(params());
        let mut out = Vec::new();
        // Activate row 7 in 4 different banks repeatedly: one shared entry.
        let mut mits = 0;
        for _round in 0..260u32 {
            for bg in 0..4u8 {
                out.clear();
                t.on_activation(act_at(bg, 0, 7), &mut out);
                mits += out.iter().filter(|x| matches!(x, TrackerAction::MitigateRow(_))).count();
            }
        }
        assert!(mits >= 1, "shared entry must still mitigate");
        assert!(t.overflow_resets == 0);
    }

    #[test]
    fn distinct_rows_overflow_spillover_and_sweep() {
        let p = params();
        let mut t = Abacus::new(p);
        let cap = t.capacity() as u32;
        let mut out = Vec::new();
        let mut sweeps = 0;
        // Sequentially activate far more distinct row IDs than entries,
        // repeatedly, as the paper's attack does.
        let mut row = 0u32;
        'outer: for _ in 0..(cap as u64 * p.nm() as u64 * 2) {
            out.clear();
            t.on_activation(act_at((row % 8) as u8, ((row / 8) % 4) as u8, row % 60_000), &mut out);
            row = row.wrapping_add(1);
            if out.iter().any(|x| matches!(x, TrackerAction::ResetSweep(_))) {
                sweeps += 1;
                break 'outer;
            }
        }
        assert_eq!(sweeps, 1, "spillover overflow must force a channel sweep");
        assert_eq!(t.spillover(), 0, "reset after sweep");
    }

    #[test]
    fn trefw_reset_clears_state() {
        let mut t = Abacus::new(params());
        let mut out = Vec::new();
        for _ in 0..100 {
            t.on_activation(act_at(0, 0, 7), &mut out);
        }
        t.on_refresh_window(0, &mut out);
        assert_eq!(t.spillover(), 0);
        let mut first = None;
        for i in 1..=600u32 {
            out.clear();
            t.on_activation(act_at(0, 0, 7), &mut out);
            if out.iter().any(|x| matches!(x, TrackerAction::MitigateRow(_))) {
                first = Some(i);
                break;
            }
        }
        assert_eq!(first, Some(251), "counts restart after tREFW");
    }
}

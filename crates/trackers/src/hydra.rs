//! Hydra (Qureshi et al., ISCA 2022): hybrid group/per-row tracking.
//!
//! Three structures (Section III-A of the DAPPER paper):
//!
//! * **GCT** — Group Count Table: one shared counter per 128 rows. Counts
//!   until the group threshold N_GC = 0.8 x N_M, then the group switches to
//!   per-row tracking: a group tracks per row exactly when its counter
//!   stands at N_GC (at least 1), so the GCT is the only per-group state.
//!   Each counter is stored at the width that holds N_GC, the 1 B of
//!   Table III at N_RH = 500.
//! * **RCT** — Row Count Table: per-row counters in a reserved DRAM region.
//! * **RCC** — Row Counter Cache: 4K-entry, 32-way cache of RCT entries per
//!   rank with random eviction. An RCC miss costs one DRAM read (fetch) plus
//!   one DRAM write (evict) — the lever the Perf-Attack pulls.
//!
//! Everything resets at each tREFW boundary.

use crate::util::{hash64, meta_addr, RowMap};
use sim_core::addr::Geometry;
use sim_core::counter::CounterTable;
use sim_core::registry::{ParamSpec, ParamValues, RegistryError, TrackerSpec};
use sim_core::rng::Xoshiro256;
use sim_core::time::Cycle;
use sim_core::tracker::{
    Activation, RowHammerTracker, StorageOverhead, TrackerAction, TrackerParams,
};

/// Rows sharing one group counter (the paper's Hydra configuration).
pub const GROUP_SIZE: u32 = 128;
/// RCC entries per rank.
pub const RCC_ENTRIES: usize = 4096;
/// RCC associativity.
pub const RCC_WAYS: usize = 32;

/// Structure sizes for one Hydra instance. [`HydraParams::new`] gives the
/// paper baseline; the registry exposes each field as a tunable parameter
/// for sensitivity sweeps.
#[derive(Debug, Clone, Copy)]
pub struct HydraParams {
    /// Shared construction parameters.
    pub base: TrackerParams,
    /// Rows sharing one group counter.
    pub group_size: u32,
    /// RCC entries per rank.
    pub rcc_entries: usize,
    /// RCC associativity.
    pub rcc_ways: usize,
}

impl HydraParams {
    /// The paper-baseline structure sizes (128-row groups, 4K×32 RCC).
    pub fn new(base: TrackerParams) -> Self {
        Self { base, group_size: GROUP_SIZE, rcc_entries: RCC_ENTRIES, rcc_ways: RCC_WAYS }
    }

    /// Rejects structure sizes [`Hydra::with_params`] cannot build.
    pub fn validate(&self) -> Result<(), RegistryError> {
        if !self.group_size.is_power_of_two()
            || !self.base.geometry.rows_per_rank().is_multiple_of(self.group_size as u64)
        {
            return Err(RegistryError::invalid(
                "hydra",
                "group_size",
                "must be a power of two dividing the rows per rank",
            ));
        }
        if self.rcc_ways == 0 || !self.rcc_entries.is_multiple_of(self.rcc_ways) {
            return Err(RegistryError::invalid(
                "hydra",
                "rcc_entries",
                format!("must be a nonzero multiple of rcc_ways ({})", self.rcc_ways),
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RccEntry {
    valid: bool,
    row: u64,
    count: u32,
}

#[derive(Debug)]
struct RankState {
    /// Group counters (2M rows / 128 = 16K groups), saturating at N_GC
    /// (at least 1): a group at its limit tracks per row.
    gct: CounterTable,
    /// The RCC: sets x ways.
    rcc: Vec<RccEntry>,
    /// Ground-truth RCT contents (the DRAM-resident counters): an
    /// open-addressed table — the per-ACT path under attack is RCC-miss
    /// dominated, and the std map's SipHash showed up in profiles.
    rct: RowMap,
}

/// The Hydra tracker for one channel.
#[derive(Debug)]
pub struct Hydra {
    p: TrackerParams,
    group_size: u32,
    rcc_entries: usize,
    rcc_ways: usize,
    ranks: Vec<RankState>,
    rng: Xoshiro256,
    n_gc: u32,
    rcc_sets: usize,
    /// RCC misses observed (introspection for tests/benches).
    pub rcc_misses: u64,
    /// RCC hits observed.
    pub rcc_hits: u64,
}

impl Hydra {
    /// Creates a Hydra instance with the paper's configuration.
    pub fn new(p: TrackerParams) -> Self {
        Self::with_params(HydraParams::new(p)).expect("paper-baseline sizes are valid")
    }

    /// Creates a Hydra instance with explicit structure sizes.
    pub fn with_params(hp: HydraParams) -> Result<Self, RegistryError> {
        hp.validate()?;
        let p = hp.base;
        let groups = p.geometry.rows_per_rank() / hp.group_size as u64;
        let n_gc = group_threshold(&p);
        let ranks = (0..p.geometry.ranks)
            .map(|_| RankState {
                gct: CounterTable::new(groups, n_gc.max(1)),
                rcc: vec![RccEntry::default(); hp.rcc_entries],
                rct: RowMap::new(),
            })
            .collect();
        Ok(Self {
            p,
            group_size: hp.group_size,
            rcc_entries: hp.rcc_entries,
            rcc_ways: hp.rcc_ways,
            ranks,
            rng: Xoshiro256::seed_from(p.seed ^ 0x48_59_44_52_41),
            n_gc,
            rcc_sets: hp.rcc_entries / hp.rcc_ways,
            rcc_misses: 0,
            rcc_hits: 0,
        })
    }

    /// The group-counter threshold N_GC.
    pub fn group_threshold(&self) -> u32 {
        self.n_gc
    }

    fn rcc_set(&self, row: u64) -> usize {
        (hash64(row, self.p.seed ^ 0x5e7) as usize) % self.rcc_sets
    }

    /// Looks up `row` in a rank's RCC; on miss performs fetch + evict,
    /// emitting the corresponding DRAM traffic. Returns the entry index.
    fn rcc_access(&mut self, rank: usize, row: u64, actions: &mut Vec<TrackerAction>) -> usize {
        let set = self.rcc_set(row);
        let base = set * self.rcc_ways;
        let geom: Geometry = self.p.geometry;
        // Hit?
        for w in 0..self.rcc_ways {
            let e = &self.ranks[rank].rcc[base + w];
            if e.valid && e.row == row {
                self.rcc_hits += 1;
                return base + w;
            }
        }
        self.rcc_misses += 1;
        // Miss: prefer an invalid way, else evict at random (paper config).
        let way = (0..self.rcc_ways)
            .find(|&w| !self.ranks[rank].rcc[base + w].valid)
            .unwrap_or_else(|| self.rng.gen_range(self.rcc_ways as u64) as usize);
        let slot = base + way;
        let victim = self.ranks[rank].rcc[slot];
        if victim.valid {
            // Write the evicted counter back to the RCT in DRAM.
            self.ranks[rank].rct.insert(victim.row, victim.count);
            actions.push(TrackerAction::CounterWrite(meta_addr(
                &geom,
                self.p.channel,
                rank as u8,
                victim.row,
            )));
        }
        // Fetch the requested counter from DRAM.
        let fetched = self.ranks[rank].rct.get(row).unwrap_or(self.n_gc);
        actions.push(TrackerAction::CounterRead(meta_addr(&geom, self.p.channel, rank as u8, row)));
        self.ranks[rank].rcc[slot] = RccEntry { valid: true, row, count: fetched };
        slot
    }
}

impl RowHammerTracker for Hydra {
    fn name(&self) -> &'static str {
        "Hydra"
    }

    fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
        let geom = self.p.geometry;
        let rank = act.addr.rank as usize;
        let row = geom.rank_row_index(&act.addr);
        let group = row / self.group_size as u64;
        let nm = self.p.nm();

        let gct = &mut self.ranks[rank].gct;
        if gct.get(group) < gct.saturation() {
            // Group mode: count until N_GC, where the group goes per-row.
            gct.increment(group);
            return;
        }

        // Per-row mode: the counter lives in the RCT, cached in the RCC.
        let slot = self.rcc_access(rank, row, actions);
        let e = &mut self.ranks[rank].rcc[slot];
        e.count += 1;
        if e.count >= nm {
            e.count = 0;
            self.ranks[rank].rct.insert(row, 0);
            actions.push(TrackerAction::MitigateRow(act.addr));
        }
    }

    fn on_refresh_window(&mut self, _cycle: Cycle, _actions: &mut Vec<TrackerAction>) {
        for r in &mut self.ranks {
            r.gct.clear();
            r.rcc.fill(RccEntry::default());
            r.rct.clear();
        }
    }

    fn storage_overhead(&self) -> StorageOverhead {
        // Table III: 56.5 KB per 32 GB channel at the baseline sizes. GCT:
        // 16K groups x 1 B per rank (2 B once N_GC passes 255); RCC:
        // entries x ~24.5 bits (21-bit tag + count, packed) per rank.
        StorageOverhead::new(hydra_storage(&self.p, self.group_size, self.rcc_entries), 0)
    }
}

fn hydra_storage(p: &TrackerParams, group_size: u32, rcc_entries: usize) -> u64 {
    let groups = p.geometry.rows_per_rank() / group_size.max(1) as u64;
    let gct_bytes = groups * CounterTable::bytes_per_counter(group_threshold(p).max(1));
    let rcc_bytes = rcc_entries as u64 * 49 / 16;
    p.geometry.ranks as u64 * (gct_bytes + rcc_bytes)
}

/// The group threshold N_GC = 0.8 x N_M.
fn group_threshold(p: &TrackerParams) -> u32 {
    (0.8 * p.nm() as f64) as u32
}

/// Hydra's tracker-table entry: key `hydra`, structure sizes exposed as
/// tunable parameters with the paper-baseline defaults.
pub const SPEC: TrackerSpec = TrackerSpec {
    key: "hydra",
    name: "Hydra",
    aliases: &[],
    reserves_llc: false,
    params: &[
        ParamSpec::int("group_size", "rows sharing one group counter", GROUP_SIZE as i64)
            .range(1.0, (1u64 << 20) as f64),
        ParamSpec::int("rcc_entries", "row counter cache entries per rank", RCC_ENTRIES as i64)
            .range(1.0, (1u64 << 24) as f64),
        ParamSpec::int("rcc_ways", "row counter cache associativity", RCC_WAYS as i64)
            .range(1.0, 4096.0),
    ],
    check: |p, v| params(p, v).validate(),
    factory: |p, v| Ok(Box::new(Hydra::with_params(params(p, v))?)),
};

fn params(p: TrackerParams, v: &ParamValues) -> HydraParams {
    HydraParams {
        group_size: v.int("group_size") as u32,
        rcc_entries: v.count("rcc_entries"),
        rcc_ways: v.count("rcc_ways"),
        ..HydraParams::new(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::addr::DramAddr;
    use sim_core::req::SourceId;

    fn act(addr: DramAddr, cycle: Cycle) -> Activation {
        Activation { addr, source: SourceId(0), cycle }
    }

    fn params() -> TrackerParams {
        TrackerParams::baseline(500, 0, 42)
    }

    #[test]
    fn group_counting_then_per_row_transition() {
        let mut h = Hydra::new(params());
        let a = DramAddr::new(0, 0, 0, 0, 100, 0);
        let mut out = Vec::new();
        // Below N_GC = 0.8 * 250 = 200: pure group counting, no DRAM traffic.
        for i in 0..h.group_threshold() {
            h.on_activation(act(a, i as Cycle), &mut out);
        }
        assert!(out.is_empty(), "no actions during group mode");
        // Next activation runs in per-row mode: one RCC miss -> fetch.
        h.on_activation(act(a, 1000), &mut out);
        assert!(out.iter().any(|x| matches!(x, TrackerAction::CounterRead(_))));
    }

    #[test]
    fn mitigation_fires_at_nm() {
        let mut h = Hydra::new(params());
        let a = DramAddr::new(0, 0, 0, 0, 100, 0);
        let mut out = Vec::new();
        let mut mitigated = 0;
        for i in 0..600u32 {
            out.clear();
            h.on_activation(act(a, i as Cycle), &mut out);
            mitigated += out.iter().filter(|x| matches!(x, TrackerAction::MitigateRow(_))).count();
        }
        // 600 activations with N_M = 250: per-row counter starts at N_GC
        // (200) on first fetch, so mitigations at ~250 and ~500.
        assert!(mitigated >= 1, "no mitigation in 600 activations");
        assert!(mitigated <= 3);
    }

    #[test]
    fn rcc_set_conflicts_cause_misses() {
        let mut h = Hydra::new(params());
        let mut out = Vec::new();
        // Drive 40 distinct rows of one group... rows in the same group share
        // a GCT counter, so instead pre-warm groups into per-row mode by
        // hammering one row per group.
        let geom = params().geometry;
        let rows: Vec<DramAddr> = (0..40u32)
            .map(|i| {
                // Different groups: row i*GROUP_SIZE within bank 0.
                let idx = (i * GROUP_SIZE) as u64;
                geom.addr_from_rank_row_index(0, 0, idx)
            })
            .collect();
        for r in &rows {
            for i in 0..h.group_threshold() + 1 {
                h.on_activation(act(*r, i as Cycle), &mut out);
            }
        }
        let miss_before = h.rcc_misses;
        assert!(miss_before >= 40, "each per-row transition fetches once");
        // Re-touching all 40 again hits (RCC holds 4K entries).
        out.clear();
        for r in &rows {
            h.on_activation(act(*r, 0), &mut out);
        }
        assert_eq!(h.rcc_misses, miss_before, "working set fits: all hits");
        assert!(h.rcc_hits >= 40);
    }

    #[test]
    fn trefw_reset_clears_everything() {
        let mut h = Hydra::new(params());
        let a = DramAddr::new(0, 0, 0, 0, 100, 0);
        let mut out = Vec::new();
        for i in 0..300u32 {
            h.on_activation(act(a, i as Cycle), &mut out);
        }
        h.on_refresh_window(0, &mut out);
        out.clear();
        // Group mode again: no DRAM traffic on next ACT.
        h.on_activation(act(a, 0), &mut out);
        assert!(out.is_empty());
    }

    /// Each rank's GCT takes exactly its share of the modelled SRAM on the
    /// host: 1 B per group at N_RH 500 (N_GC 200), 2 B at N_RH 1000
    /// (N_GC 400), and a group still counts N_GC activations before it
    /// goes per-row.
    #[test]
    fn gct_holds_its_modelled_bytes_and_counts_to_n_gc() {
        for (nrh, width) in [(500, 1), (1000, 2)] {
            let p = TrackerParams::baseline(nrh, 0, 42);
            let mut h = Hydra::new(p);
            let (groups, ranks) =
                (p.geometry.rows_per_rank() / GROUP_SIZE as u64, p.geometry.ranks as u64);
            // The storage model less each rank's RCC (~24.5 bits an entry).
            let gct = h.storage_overhead().sram_bytes - ranks * (RCC_ENTRIES as u64 * 49 / 16);
            let host: u64 = h.ranks.iter().map(|r| r.gct.host_bytes()).sum();
            assert_eq!(host, gct, "N_RH {nrh}");
            assert_eq!(host, ranks * groups * width, "N_RH {nrh}");

            let a = DramAddr::new(0, 1, 0, 0, 100, 0);
            let mut out = Vec::new();
            for i in 0..h.group_threshold() {
                h.on_activation(act(a, i as Cycle), &mut out);
            }
            assert!(out.is_empty(), "N_RH {nrh}: group mode makes no DRAM traffic");
            h.on_activation(act(a, 0), &mut out);
            assert!(out.iter().any(|x| matches!(x, TrackerAction::CounterRead(_))), "N_RH {nrh}");
        }
    }

    /// At N_GC = 0 a group still counts its first activation before it
    /// goes per-row.
    #[test]
    fn zero_group_threshold_counts_one_activation() {
        let mut h = Hydra::new(TrackerParams::baseline(2, 0, 42));
        assert_eq!(h.group_threshold(), 0);
        let a = DramAddr::new(0, 0, 0, 0, 100, 0);
        let mut out = Vec::new();
        h.on_activation(act(a, 0), &mut out);
        assert!(out.is_empty());
        h.on_activation(act(a, 1), &mut out);
        assert!(out.iter().any(|x| matches!(x, TrackerAction::CounterRead(_))));
    }

    #[test]
    fn storage_matches_table_three() {
        let h = Hydra::new(params());
        let s = h.storage_overhead();
        assert!((s.sram_kb() - 56.5).abs() < 1.0, "{}", s.sram_kb());
    }
}

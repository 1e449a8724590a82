//! START (Saxena & Qureshi, HPCA 2024): RowHammer counters in the LLC.
//!
//! START dynamically allocates per-row activation counters in a reserved
//! half of the LLC. In the paper's configuration the system needs 8M
//! counters but the reserved region holds only 4M, so the region acts as a
//! cache over a DRAM-resident counter table: region misses cost a DRAM read
//! plus a writeback — the attack surface (Section III-B).
//!
//! This tracker models the reserved region internally (the demand-side
//! capacity loss is modelled by the simulator setting
//! `LlcConfig::reserved_ways`). Counters are grouped 64 per cache line, as
//! in the paper (1 B per counter).

use crate::util::{hash64, meta_addr};
use sim_core::registry::{ParamSpec, ParamValues, RegistryError, TrackerSpec};
use sim_core::time::Cycle;
use sim_core::tracker::{
    Activation, RowHammerTracker, StorageOverhead, TrackerAction, TrackerParams,
};
use std::collections::HashMap;

/// Counters per 64-byte LLC line.
pub const COUNTERS_PER_LINE: u64 = 64;
/// Reserved-region size in cache lines (paper: 2 MB per channel = 32K).
pub const REGION_LINES: usize = 32 * 1024;

/// Parameters for one START instance: the reserved-LLC counter region size
/// (the structure the Perf-Attack overflows).
#[derive(Debug, Clone, Copy)]
pub struct StartParams {
    /// Shared construction parameters.
    pub base: TrackerParams,
    /// Reserved-region size in 64-byte cache lines (16-way sets).
    pub region_lines: usize,
}

impl StartParams {
    /// The paper-baseline region (2 MB per channel).
    pub fn new(base: TrackerParams) -> Self {
        Self { base, region_lines: REGION_LINES }
    }

    /// Rejects a region [`Start::with_params`] cannot build.
    pub fn validate(&self) -> Result<(), RegistryError> {
        if self.region_lines == 0 || !self.region_lines.is_multiple_of(16) {
            return Err(RegistryError::invalid(
                "start",
                "region_lines",
                "must be a nonzero multiple of 16 (16-way sets)",
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LineEntry {
    valid: bool,
    line: u64,
    lru: u64,
}

/// The START tracker for one channel.
#[derive(Debug)]
pub struct Start {
    p: TrackerParams,
    /// Reserved-region line cache: sets x ways over counter lines.
    tags: Vec<LineEntry>,
    sets: usize,
    ways: usize,
    /// Per-row counts for lines currently cached (line -> 64 counters).
    counts: HashMap<u64, [u16; COUNTERS_PER_LINE as usize]>,
    /// DRAM-resident spill of evicted lines.
    spilled: HashMap<u64, [u16; COUNTERS_PER_LINE as usize]>,
    tick: u64,
    /// Reserved-region misses (each costs DRAM traffic).
    pub region_misses: u64,
    /// Reserved-region hits.
    pub region_hits: u64,
}

impl Start {
    /// Creates a START instance. The reserved region per channel is half of
    /// the paper's 8 MB LLC divided across channels: 2 MB = 32K lines.
    pub fn new(p: TrackerParams) -> Self {
        Self::with_region_lines(p, REGION_LINES)
    }

    /// Creates a START instance from validated parameters.
    pub fn with_params(sp: StartParams) -> Result<Self, RegistryError> {
        sp.validate()?;
        Ok(Self::with_region_lines(sp.base, sp.region_lines))
    }

    /// Creates a START instance with an explicit reserved-region size in
    /// cache lines (for the Fig. 5 LLC sweep).
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not a multiple of 16.
    pub fn with_region_lines(p: TrackerParams, lines: usize) -> Self {
        assert!(lines.is_multiple_of(16), "region must divide into 16-way sets");
        let ways = 16;
        let sets = lines / ways;
        Self {
            p,
            tags: vec![LineEntry::default(); lines],
            sets,
            ways,
            counts: HashMap::new(),
            spilled: HashMap::new(),
            tick: 0,
            region_misses: 0,
            region_hits: 0,
        }
    }

    /// Total rows tracked per channel.
    fn rows_per_channel(&self) -> u64 {
        self.p.geometry.rows_per_channel()
    }
}

impl RowHammerTracker for Start {
    fn name(&self) -> &'static str {
        "START"
    }

    fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
        self.tick += 1;
        let geom = self.p.geometry;
        let row_global =
            act.addr.rank as u64 * geom.rows_per_rank() + geom.rank_row_index(&act.addr);
        debug_assert!(row_global < self.rows_per_channel());
        let line = row_global / COUNTERS_PER_LINE;
        let off = (row_global % COUNTERS_PER_LINE) as usize;
        let set = (hash64(line, self.p.seed ^ 0x57A7) as usize) % self.sets;
        let base = set * self.ways;

        // Look up the counter line in the reserved region.
        let mut slot = None;
        for w in 0..self.ways {
            let e = &self.tags[base + w];
            if e.valid && e.line == line {
                slot = Some(base + w);
                break;
            }
        }
        let slot = match slot {
            Some(s) => {
                self.region_hits += 1;
                s
            }
            None => {
                self.region_misses += 1;
                // Fetch from DRAM; evict LRU line (writeback).
                let s = (0..self.ways)
                    .map(|w| base + w)
                    .min_by_key(|&i| if self.tags[i].valid { self.tags[i].lru } else { 0 })
                    .expect("nonempty set");
                let victim = self.tags[s];
                if victim.valid {
                    if let Some(c) = self.counts.remove(&victim.line) {
                        self.spilled.insert(victim.line, c);
                    }
                    actions.push(TrackerAction::CounterWrite(meta_addr(
                        &geom,
                        self.p.channel,
                        (victim.line % geom.ranks as u64) as u8,
                        victim.line,
                    )));
                }
                actions.push(TrackerAction::CounterRead(meta_addr(
                    &geom,
                    self.p.channel,
                    act.addr.rank,
                    line,
                )));
                let restored = self.spilled.remove(&line).unwrap_or([0; 64]);
                self.counts.insert(line, restored);
                self.tags[s] = LineEntry { valid: true, line, lru: self.tick };
                s
            }
        };
        self.tags[slot].lru = self.tick;

        let counters = self.counts.entry(line).or_insert([0; 64]);
        counters[off] += 1;
        if counters[off] as u32 >= self.p.nm() {
            counters[off] = 0;
            actions.push(TrackerAction::MitigateRow(act.addr));
        }
    }

    fn on_refresh_window(&mut self, _cycle: Cycle, _actions: &mut Vec<TrackerAction>) {
        self.tags.fill(LineEntry::default());
        self.counts.clear();
        self.spilled.clear();
        self.tick = 0;
    }

    fn storage_overhead(&self) -> StorageOverhead {
        // Table III: 4 KB SRAM — START only adds allocation metadata; the
        // counters live in the (reserved) LLC.
        StorageOverhead::new(4 * 1024, 0)
    }
}

/// START's tracker-table entry: key `start`, reserved-region size exposed
/// as a tunable parameter. Marked as reserving half the LLC — the
/// simulator mirrors the demand-side capacity loss.
pub const SPEC: TrackerSpec = TrackerSpec {
    key: "start",
    name: "START",
    aliases: &[],
    reserves_llc: true,
    params: &[ParamSpec::int(
        "region_lines",
        "reserved counter-region size in 64 B lines (16-way sets)",
        REGION_LINES as i64,
    )
    .range(16.0, (1u64 << 24) as f64)],
    check: |p, v| params(p, v).validate(),
    factory: |p, v| Ok(Box::new(Start::with_params(params(p, v))?)),
};

fn params(p: TrackerParams, v: &ParamValues) -> StartParams {
    StartParams { region_lines: v.count("region_lines"), ..StartParams::new(p) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::addr::DramAddr;
    use sim_core::req::SourceId;

    fn act(addr: DramAddr) -> Activation {
        Activation { addr, source: SourceId(0), cycle: 0 }
    }

    fn params() -> TrackerParams {
        TrackerParams::baseline(500, 0, 7)
    }

    #[test]
    fn repeated_row_hits_region_after_first_fetch() {
        let mut s = Start::new(params());
        let a = DramAddr::new(0, 0, 0, 0, 500, 0);
        let mut out = Vec::new();
        s.on_activation(act(a), &mut out);
        assert_eq!(s.region_misses, 1);
        assert!(out.iter().any(|x| matches!(x, TrackerAction::CounterRead(_))));
        out.clear();
        for _ in 0..100 {
            s.on_activation(act(a), &mut out);
        }
        assert_eq!(s.region_misses, 1, "hot row stays cached");
        assert!(out.is_empty());
    }

    #[test]
    fn mitigates_at_nm() {
        let mut s = Start::new(params());
        let a = DramAddr::new(0, 0, 0, 0, 500, 0);
        let mut out = Vec::new();
        let mut mits = 0;
        for _ in 0..501 {
            out.clear();
            s.on_activation(act(a), &mut out);
            mits += out.iter().filter(|x| matches!(x, TrackerAction::MitigateRow(_))).count();
        }
        assert_eq!(mits, 2, "N_M=250: mitigations at 250 and 500");
    }

    #[test]
    fn streaming_many_lines_thrashes_region() {
        // Use a tiny region so the test exercises eviction quickly.
        let mut s = Start::with_region_lines(params(), 256);
        let geom = params().geometry;
        let mut out = Vec::new();
        // Touch 64 * 1024 distinct rows = 1024 lines >> 256-line region.
        for i in 0..(64 * 1024u64) {
            let a = geom.addr_from_rank_row_index(0, 0, i * 17 % geom.rows_per_rank());
            s.on_activation(act(a), &mut out);
        }
        assert!(s.region_misses > 700, "streaming should thrash: misses = {}", s.region_misses);
        assert!(out.iter().any(|x| matches!(x, TrackerAction::CounterWrite(_))));
    }

    #[test]
    fn eviction_preserves_counts() {
        let mut s = Start::with_region_lines(params(), 16); // single set
        let geom = params().geometry;
        let mut out = Vec::new();
        let hot = geom.addr_from_rank_row_index(0, 0, 0);
        // 200 activations of the hot row.
        for _ in 0..200 {
            s.on_activation(act(hot), &mut out);
        }
        // Evict it by streaming 64 other lines through the single set.
        for i in 1..=64u64 {
            let a = geom.addr_from_rank_row_index(0, 0, i * COUNTERS_PER_LINE);
            s.on_activation(act(a), &mut out);
        }
        // 50 more activations: counter must resume at 200, mitigating at 250.
        out.clear();
        let mut mits = 0;
        for _ in 0..50 {
            s.on_activation(act(hot), &mut out);
        }
        mits += out.iter().filter(|x| matches!(x, TrackerAction::MitigateRow(_))).count();
        assert_eq!(mits, 1, "spilled count must be restored from DRAM");
    }

    #[test]
    fn trefw_clears_counts() {
        let mut s = Start::new(params());
        let a = DramAddr::new(0, 0, 0, 0, 500, 0);
        let mut out = Vec::new();
        for _ in 0..249 {
            s.on_activation(act(a), &mut out);
        }
        s.on_refresh_window(0, &mut out);
        out.clear();
        for _ in 0..249 {
            s.on_activation(act(a), &mut out);
        }
        assert!(
            !out.iter().any(|x| matches!(x, TrackerAction::MitigateRow(_))),
            "reset counts must not carry across tREFW"
        );
    }
}

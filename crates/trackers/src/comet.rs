//! CoMeT (Bostanci et al., HPCA 2024): Count-Min-Sketch row tracking.
//!
//! Per-bank Counter Tables (CT) of four hash functions x 512 counters with
//! conservative update; mitigation threshold N_RH / 4. Because CMS counters
//! are shared they cannot be reset after a mitigation, so recently mitigated
//! rows move to the **Recent Aggressor Table (RAT)** — 128 entries with
//! exact, resettable counters. The structures are cleared every tREFW / 3.
//!
//! The Perf-Attack lever (Section III-B): activating more distinct
//! aggressors than the RAT holds forces counter overestimation and early
//! resets; when the RAT miss rate over a 256-access history exceeds 25%,
//! CoMeT resets by refreshing all rows in the rank — a multi-millisecond
//! stall.

use crate::util::hash64;
use sim_core::registry::{ParamSpec, ParamValues, RegistryError, TrackerSpec};
use sim_core::time::Cycle;
use sim_core::tracker::{
    Activation, ResetScope, RowHammerTracker, StorageOverhead, TrackerAction, TrackerParams,
};

/// Hash functions in the sketch.
pub const CMS_HASHES: usize = 4;
/// Counters per hash function (per bank).
pub const CMS_WIDTH: usize = 512;
/// RAT capacity (per rank).
pub const RAT_ENTRIES: usize = 128;
/// Sliding miss-history length.
pub const MISS_HISTORY: usize = 256;
/// Early reset when RAT miss rate exceeds this fraction of the history.
pub const MISS_RATE_RESET: f64 = 0.25;

/// Structure sizes for one CoMeT instance. [`CometParams::new`] gives the
/// paper baseline; the registry exposes each field for sensitivity sweeps
/// (the RAT — the paper's "CAT" of recently mitigated aggressors — is the
/// structure the Perf-Attack thrashes).
#[derive(Debug, Clone, Copy)]
pub struct CometParams {
    /// Shared construction parameters.
    pub base: TrackerParams,
    /// Counters per hash function, per bank.
    pub cms_width: usize,
    /// Recent Aggressor Table capacity per rank.
    pub rat_entries: usize,
    /// Sliding RAT-outcome history length.
    pub miss_history: usize,
    /// Early reset when the miss rate exceeds this fraction of the history.
    pub miss_rate_reset: f64,
}

impl CometParams {
    /// The paper-baseline sizes (4x512 CMS, 128-entry RAT, 256-deep
    /// history, 25% reset rate).
    pub fn new(base: TrackerParams) -> Self {
        Self {
            base,
            cms_width: CMS_WIDTH,
            rat_entries: RAT_ENTRIES,
            miss_history: MISS_HISTORY,
            miss_rate_reset: MISS_RATE_RESET,
        }
    }

    /// Rejects structure sizes [`Comet::with_params`] cannot build.
    pub fn validate(&self) -> Result<(), RegistryError> {
        for (key, v) in [
            ("cms_width", self.cms_width),
            ("rat_entries", self.rat_entries),
            ("miss_history", self.miss_history),
        ] {
            if v == 0 {
                return Err(RegistryError::invalid("comet", key, "must be nonzero"));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RatEntry {
    valid: bool,
    row: u64,
    count: u32,
    lru: u64,
}

#[derive(Debug)]
struct RankState {
    /// CMS counters: banks x hashes x width.
    cms: Vec<u16>,
    rat: Vec<RatEntry>,
    /// Ring buffer of recent RAT outcomes (true = miss among mitigated rows).
    history: Vec<bool>,
    hist_idx: usize,
    hist_filled: bool,
    /// Running count of misses in `history` (avoids a full ring scan per
    /// mitigation event).
    hist_misses: usize,
}

/// The CoMeT tracker for one channel.
#[derive(Debug)]
pub struct Comet {
    p: TrackerParams,
    cms_width: usize,
    miss_history: usize,
    miss_rate_reset: f64,
    ranks: Vec<RankState>,
    tick: u64,
    threshold: u32,
    next_periodic_reset: Cycle,
    /// Early resets triggered by RAT thrash (introspection).
    pub early_resets: u64,
}

impl Comet {
    /// Creates a CoMeT instance with the paper's configuration.
    pub fn new(p: TrackerParams) -> Self {
        Self::with_params(CometParams::new(p)).expect("paper-baseline sizes are valid")
    }

    /// Creates a CoMeT instance with explicit structure sizes.
    pub fn with_params(cp: CometParams) -> Result<Self, RegistryError> {
        cp.validate()?;
        let p = cp.base;
        let banks = p.geometry.banks_per_rank() as usize;
        let ranks = (0..p.geometry.ranks)
            .map(|_| RankState {
                cms: vec![0; banks * CMS_HASHES * cp.cms_width],
                rat: vec![RatEntry::default(); cp.rat_entries],
                history: vec![false; cp.miss_history],
                hist_idx: 0,
                hist_filled: false,
                hist_misses: 0,
            })
            .collect();
        Ok(Self {
            p,
            cms_width: cp.cms_width,
            miss_history: cp.miss_history,
            miss_rate_reset: cp.miss_rate_reset,
            ranks,
            tick: 0,
            threshold: (p.nrh / 4).max(1),
            next_periodic_reset: 0,
            early_resets: 0,
        })
    }

    /// The CMS mitigation threshold (N_RH / 4).
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    fn clear_rank(r: &mut RankState) {
        r.cms.fill(0);
        r.rat.fill(RatEntry::default());
        r.history.fill(false);
        r.hist_idx = 0;
        r.hist_filled = false;
        r.hist_misses = 0;
    }

    fn record_history(&mut self, rank: usize, miss: bool) -> bool {
        let r = &mut self.ranks[rank];
        r.hist_misses += miss as usize;
        r.hist_misses -= r.history[r.hist_idx] as usize;
        r.history[r.hist_idx] = miss;
        r.hist_idx = (r.hist_idx + 1) % self.miss_history;
        if r.hist_idx == 0 {
            r.hist_filled = true;
        }
        if !r.hist_filled {
            return false;
        }
        r.hist_misses as f64 / self.miss_history as f64 > self.miss_rate_reset
    }
}

impl RowHammerTracker for Comet {
    fn name(&self) -> &'static str {
        "CoMeT"
    }

    fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
        self.tick += 1;
        let geom = self.p.geometry;
        let rank = act.addr.rank as usize;
        let bank = geom.bank_in_rank(&act.addr) as usize;
        let row = geom.rank_row_index(&act.addr);

        // RAT first: exact resettable counts for recently mitigated rows.
        let mut rat_hit = false;
        {
            let r = &mut self.ranks[rank];
            for e in r.rat.iter_mut() {
                if e.valid && e.row == row {
                    e.count += 1;
                    e.lru = self.tick;
                    rat_hit = true;
                    if e.count >= self.threshold {
                        e.count = 0;
                        actions.push(TrackerAction::MitigateRow(act.addr));
                    }
                    break;
                }
            }
        }
        if rat_hit {
            return;
        }

        // CMS conservative update. One hash call feeds all four lanes
        // (rotations of the mixed word, reduced per lane): the 4x SipHash
        // of the naive formulation dominated the per-ACT budget, and lane
        // independence of a well-mixed word is ample for a sketch.
        let mut est = u16::MAX;
        let base = bank * CMS_HASHES * self.cms_width;
        let mut idxs = [0usize; CMS_HASHES];
        let mixed = hash64(row, self.p.seed);
        for (h, idx) in idxs.iter_mut().enumerate() {
            *idx = base
                + h * self.cms_width
                + (mixed.rotate_left(17 * h as u32) as usize) % self.cms_width;
            est = est.min(self.ranks[rank].cms[*idx]);
        }
        let newv = est.saturating_add(1);
        for &i in &idxs {
            let c = &mut self.ranks[rank].cms[i];
            if *c < newv {
                *c = newv;
            }
        }

        if newv as u32 >= self.threshold {
            // Mitigate and move the row into the RAT for exact tracking.
            actions.push(TrackerAction::MitigateRow(act.addr));
            let (slot, evicting) = {
                let r = &self.ranks[rank];
                match r.rat.iter().position(|e| !e.valid) {
                    Some(i) => (i, false),
                    None => {
                        let i = r
                            .rat
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, e)| e.lru)
                            .map(|(i, _)| i)
                            .expect("RAT nonempty");
                        (i, true)
                    }
                }
            };
            self.ranks[rank].rat[slot] = RatEntry { valid: true, row, count: 0, lru: self.tick };
            // A full RAT evicting a live entry is the thrash signal.
            if self.record_history(rank, evicting) {
                self.early_resets += 1;
                Self::clear_rank(&mut self.ranks[rank]);
                actions.push(TrackerAction::ResetSweep(ResetScope::Rank {
                    channel: self.p.channel,
                    rank: rank as u8,
                }));
            }
        }
    }

    fn on_trefi(&mut self, cycle: Cycle, _actions: &mut Vec<TrackerAction>) {
        // Periodic structure reset every tREFW/3. The paper pairs this with
        // a full refresh; we clear the structures only (the co-scheduled
        // auto-refresh covers the rows), keeping benign overhead realistic,
        // and reserve full sweeps for attack-triggered early resets.
        if cycle >= self.next_periodic_reset {
            for r in &mut self.ranks {
                Self::clear_rank(r);
            }
            // tREFW/3 in cycles: 8K REFs per window / 3 ~ every 2730 tREFI.
            self.next_periodic_reset = cycle + 34_133_333;
        }
    }

    fn storage_overhead(&self) -> StorageOverhead {
        // Table III: 112 KB SRAM (CMS) + 23 KB CAM (RAT) per 32 GB at the
        // baseline sizes; both scale linearly with their structures.
        let (sram, cam) = comet_storage(&self.p, self.cms_width, self.ranks[0].rat.len());
        StorageOverhead::new(sram, cam)
    }
}

fn comet_storage(p: &TrackerParams, cms_width: usize, rat_entries: usize) -> (u64, u64) {
    let sram = 112 * 1024 * cms_width as u64 / CMS_WIDTH as u64;
    let cam = 23 * 1024 * rat_entries as u64 / RAT_ENTRIES as u64;
    let _ = p;
    (sram, cam)
}

/// CoMeT's tracker-table entry: key `comet`, sketch width and RAT (CAT)
/// capacity exposed as tunable parameters with paper-baseline defaults.
pub const SPEC: TrackerSpec = TrackerSpec {
    key: "comet",
    name: "CoMeT",
    aliases: &["cat"],
    reserves_llc: false,
    params: &[
        ParamSpec::int("cms_width", "counters per hash function per bank", CMS_WIDTH as i64)
            .range(1.0, (1u64 << 20) as f64),
        ParamSpec::int("rat_entries", "recent aggressor table (CAT) entries", RAT_ENTRIES as i64)
            .range(1.0, (1u64 << 20) as f64),
        ParamSpec::int("miss_history", "sliding RAT-outcome history length", MISS_HISTORY as i64)
            .range(1.0, (1u64 << 20) as f64),
        ParamSpec::float(
            "miss_rate_reset",
            "early-reset miss-rate threshold over the history",
            MISS_RATE_RESET,
        )
        .range(0.0, 1.0),
    ],
    check: |p, v| params(p, v).validate(),
    factory: |p, v| Ok(Box::new(Comet::with_params(params(p, v))?)),
};

fn params(p: TrackerParams, v: &ParamValues) -> CometParams {
    CometParams {
        cms_width: v.count("cms_width"),
        rat_entries: v.count("rat_entries"),
        miss_history: v.count("miss_history"),
        miss_rate_reset: v.float("miss_rate_reset"),
        ..CometParams::new(p)
    }
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
        TrackerParams::baseline(500, 0, 3)
    }

    #[test]
    fn single_aggressor_mitigated_at_quarter_threshold() {
        let mut c = Comet::new(params());
        let a = DramAddr::new(0, 0, 0, 0, 42, 0);
        let mut out = Vec::new();
        let mut first_mit = None;
        for i in 1..=200u32 {
            out.clear();
            c.on_activation(act(a), &mut out);
            if out.iter().any(|x| matches!(x, TrackerAction::MitigateRow(_))) {
                first_mit = Some(i);
                break;
            }
        }
        assert_eq!(first_mit, Some(c.threshold()), "mitigate at N_RH/4 = 125");
    }

    #[test]
    fn rat_gives_exact_recount_after_mitigation() {
        let mut c = Comet::new(params());
        let a = DramAddr::new(0, 0, 0, 0, 42, 0);
        let mut out = Vec::new();
        let mut mits = 0;
        for _ in 0..(c.threshold() * 3) {
            out.clear();
            c.on_activation(act(a), &mut out);
            mits += out.iter().filter(|x| matches!(x, TrackerAction::MitigateRow(_))).count();
        }
        // 375 ACTs, threshold 125: mitigations at 125 (CMS), 250, 375 (RAT).
        assert_eq!(mits, 3);
    }

    #[test]
    fn rat_thrash_triggers_early_reset_sweep() {
        let mut c = Comet::new(params());
        let geom = params().geometry;
        let mut out = Vec::new();
        // 192 aggressors > 128 RAT entries (the paper's attack).
        let aggressors: Vec<DramAddr> =
            (0..192u64).map(|i| geom.addr_from_rank_row_index(0, 0, i * 64)).collect();
        let mut sweeps = 0;
        for _round in 0..c.threshold() * 4 {
            for a in &aggressors {
                out.clear();
                c.on_activation(act(*a), &mut out);
                sweeps += out.iter().filter(|x| matches!(x, TrackerAction::ResetSweep(_))).count();
            }
            if sweeps > 0 {
                break;
            }
        }
        assert!(sweeps > 0, "RAT thrash must trigger an early reset");
        assert!(c.early_resets > 0);
    }

    #[test]
    fn benign_spread_traffic_never_resets() {
        let mut c = Comet::new(params());
        let geom = params().geometry;
        let mut out = Vec::new();
        // 10K distinct rows touched a handful of times: far below threshold.
        for i in 0..10_000u64 {
            let a = geom.addr_from_rank_row_index(0, 0, (i * 211) % geom.rows_per_rank());
            for _ in 0..3 {
                c.on_activation(act(a), &mut out);
            }
        }
        assert!(out.iter().all(|x| !matches!(x, TrackerAction::ResetSweep(_))));
        assert_eq!(c.early_resets, 0);
    }

    #[test]
    fn periodic_reset_clears_counts() {
        let mut c = Comet::new(params());
        let a = DramAddr::new(0, 0, 0, 0, 42, 0);
        let mut out = Vec::new();
        for _ in 0..100 {
            c.on_activation(act(a), &mut out);
        }
        // Force the periodic reset.
        c.on_trefi(100_000_000, &mut out);
        out.clear();
        for _ in 0..100 {
            c.on_activation(act(a), &mut out);
        }
        assert!(
            !out.iter().any(|x| matches!(x, TrackerAction::MitigateRow(_))),
            "counts must restart after periodic reset"
        );
    }
}

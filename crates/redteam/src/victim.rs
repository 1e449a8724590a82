//! Stage 3: victim placement and bit-flip adjudication.
//!
//! The orchestrator plays the *evaluation* side of the pipeline: it
//! decides where the victim data lives (a contiguous run of rows in one
//! randomly chosen bank), assigns each victim row its own HammerCount
//! threshold — real DIMMs have weak cells that flip well below the
//! configured N_RH, which is exactly why trackers keep a guard band —
//! and, after the hammer run, adjudicates flips against the ground-truth
//! oracle's **peak** per-row disturbance (peaks survive mitigations: a
//! victim pushed to 400 and then refreshed was still exposed to 400).
//!
//! The placement is deliberately shared across knowledge levels of one
//! cell: the threat model says the attacker knows *where* the victim
//! lives (the region base is handed to the hammer compiler), while what
//! distinguishes omniscient / timing-recon / blind is whether their
//! believed stride actually lands aggressors around it.

use analysis::OracleProbe;
use sim_core::addr::{DramAddr, Geometry, PhysAddr};
use sim_core::rng::Xoshiro256;

use crate::hammer::PAIRS;
use workloads::RESERVED_TOP_ROWS;

/// Per-row HC threshold spread: thresholds are drawn uniformly from
/// `N_RH x [LOW, LOW + SPAN)` — some cells flip at barely half the rated
/// threshold, some need half again more.
const THRESHOLD_LOW: f64 = 0.55;
const THRESHOLD_SPAN: f64 = 0.90;

/// Where the victims live and how weak each one is.
#[derive(Debug, Clone)]
pub(crate) struct VictimPlacement {
    /// Physical address of the region's first (even, aggressor) row —
    /// the anchor handed to the hammer compiler.
    pub(crate) region_base: PhysAddr,
    /// Victim rows (the odd rows of the region) with their individual
    /// HC thresholds.
    pub(crate) victims: Vec<(DramAddr, u32)>,
}

/// The flip count the run actually produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlipVerdict {
    /// Victim rows whose peak disturbance reached their HC threshold.
    pub(crate) flips: u64,
    /// Victim rows placed.
    pub(crate) victims: u64,
    /// Highest peak disturbance observed on any victim row — a robust
    /// pressure metric even when no threshold was crossed.
    pub(crate) max_victim_peak: u32,
}

/// Places victims and adjudicates flips for one experiment cell.
#[derive(Debug, Clone)]
pub(crate) struct VictimOrchestrator {
    geom: Geometry,
    nrh: u32,
    seed: u64,
}

impl VictimOrchestrator {
    /// An orchestrator for the given machine and rated threshold. The
    /// seed drives placement and per-row thresholds, so one cell's
    /// knowledge levels (same seed) share identical victims.
    pub(crate) fn new(geom: Geometry, nrh: u32, seed: u64) -> Self {
        Self { geom, nrh, seed }
    }

    /// Picks the victim region: a random bank, an even base row with
    /// room for the [`PAIRS`]-victim ladder below the reserved rows, and
    /// a weak-cell threshold per victim.
    pub(crate) fn place(&self) -> VictimPlacement {
        let mut rng = Xoshiro256::seed_from(self.seed ^ 0x71C7_1235);
        let g = &self.geom;
        let channel = rng.gen_range(g.channels as u64) as u8;
        let rank = rng.gen_range(g.ranks as u64) as u8;
        let bank_group = rng.gen_range(g.bank_groups as u64) as u8;
        let bank = rng.gen_range(g.banks_per_group as u64) as u8;
        let span = 2 * (PAIRS as u32 + 1);
        let max_base = g.rows_per_bank - RESERVED_TOP_ROWS - span;
        let base_row = (rng.gen_range(max_base as u64 / 2) * 2) as u32;
        let anchor = DramAddr::new(channel, rank, bank_group, bank, base_row, 0);
        let victims = (0..PAIRS as u32)
            .map(|i| {
                let hc = self.nrh as f64 * (THRESHOLD_LOW + THRESHOLD_SPAN * rng.gen_f64());
                (anchor.with_row(base_row + 2 * i + 1), (hc as u32).max(1))
            })
            .collect();
        VictimPlacement { region_base: g.encode(&anchor), victims }
    }

    /// Scores a finished hammer run: each victim flips iff its peak
    /// disturbance reached its own threshold.
    pub(crate) fn adjudicate(
        &self,
        placement: &VictimPlacement,
        oracle: &OracleProbe,
    ) -> FlipVerdict {
        let mut flips = 0;
        let mut max_victim_peak = 0;
        for (addr, hc) in &placement.victims {
            let peak = oracle.peak_damage_at(addr);
            max_victim_peak = max_victim_peak.max(peak);
            if peak >= *hc {
                flips += 1;
            }
        }
        FlipVerdict { flips, victims: placement.victims.len() as u64, max_victim_peak }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::events::MemEvent;
    use sim_core::telemetry::Probe;

    fn orch() -> VictimOrchestrator {
        VictimOrchestrator::new(Geometry::paper_baseline(), 500, 0xA77AC4)
    }

    #[test]
    fn placement_is_a_one_bank_odd_row_ladder() {
        let p = orch().place();
        assert_eq!(p.victims.len(), PAIRS);
        let g = Geometry::paper_baseline();
        let anchor = g.decode(p.region_base);
        assert_eq!(anchor.row % 2, 0, "anchor row is even (an aggressor row)");
        for (i, (v, hc)) in p.victims.iter().enumerate() {
            assert_eq!(
                (v.channel, v.rank, v.bank_group, v.bank),
                (anchor.channel, anchor.rank, anchor.bank_group, anchor.bank),
                "all victims share the anchor's bank"
            );
            assert_eq!(v.row, anchor.row + 2 * i as u32 + 1, "victims on the odd rows");
            assert!(v.row < g.rows_per_bank - RESERVED_TOP_ROWS);
            let (lo, hi) = (500.0 * THRESHOLD_LOW, 500.0 * (THRESHOLD_LOW + THRESHOLD_SPAN));
            assert!((*hc as f64) >= lo - 1.0 && (*hc as f64) < hi, "threshold {hc}");
        }
    }

    #[test]
    fn placement_is_seed_deterministic_and_seed_sensitive() {
        let a = orch().place();
        let b = orch().place();
        assert_eq!(a.region_base, b.region_base);
        assert_eq!(a.victims, b.victims);
        let c = VictimOrchestrator::new(Geometry::paper_baseline(), 500, 1).place();
        assert_ne!(a.region_base, c.region_base, "different seed, different region");
    }

    #[test]
    fn adjudication_flips_only_past_each_rows_threshold() {
        let o = orch();
        let p = o.place();
        let g = Geometry::paper_baseline();
        // Hammer the region's first aggressor row only: with blast radius
        // 1 it neighbours exactly one victim (the row below it is outside
        // the ladder), so the flip count isolates that victim's threshold.
        let (v0, _) = p.victims[0];
        let hammer = |count: u32| {
            let mut probe = OracleProbe::new(100_000, 1, g);
            for _ in 0..count {
                probe.on_event(
                    v0.channel,
                    &MemEvent::Activate { addr: v0.with_row(v0.row - 1), cycle: 0 },
                );
            }
            o.adjudicate(&p, &probe)
        };
        // 1000 activations clear any threshold (all are below 725).
        let verdict = hammer(1000);
        assert_eq!(verdict.victims, PAIRS as u64);
        assert_eq!(verdict.max_victim_peak, 1000);
        assert_eq!(verdict.flips, 1, "only the hammered victim flips");
        // 100 stays below every threshold (all are at least 275): pressure
        // registers in the peak but crosses no per-row threshold.
        let verdict = hammer(100);
        assert_eq!(verdict, FlipVerdict { flips: 0, victims: PAIRS as u64, max_victim_peak: 100 });
        let idle = o.adjudicate(&p, &OracleProbe::new(100_000, 1, g));
        assert_eq!(idle, FlipVerdict { flips: 0, victims: PAIRS as u64, max_victim_peak: 0 });
    }
}

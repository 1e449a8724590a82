//! Ground-truth RowHammer auditor.
//!
//! The oracle ignores every tracker data structure and recomputes, from the
//! raw command stream, the **disturbance** each victim row has accumulated:
//! one unit per activation of a neighbour within the blast radius, cleared
//! when the victim is refreshed (mitigation, reset sweep, or the periodic
//! tREFW auto-refresh). A defense is sound iff no victim's disturbance ever
//! reaches N_RH.

use sim_core::addr::{DramAddr, Geometry};
use sim_core::events::MemEvent;
use sim_core::telemetry::Probe;
use sim_core::tracker::ResetScope;
use std::any::Any;
use std::collections::HashMap;

/// Per-channel RowHammer disturbance auditor.
#[derive(Debug)]
pub struct Oracle {
    nrh: u32,
    blast_radius: u8,
    geom: Geometry,
    /// Disturbance per victim row, keyed by (rank, flat bank, row).
    damage: HashMap<u64, u32>,
    /// Highest disturbance each victim row ever reached between
    /// refreshes. Refreshes clear `damage` but never `peak`: a tracker is
    /// judged on the worst exposure it *allowed*, so the flip adjudicator
    /// can compare each victim's peak against its own HC threshold after
    /// the run.
    peak: HashMap<u64, u32>,
    max_damage: u32,
    violations: u64,
    acts_seen: u64,
}

impl Oracle {
    /// Creates an auditor for one channel.
    pub fn new(nrh: u32, blast_radius: u8, geom: Geometry) -> Self {
        Self {
            nrh,
            blast_radius,
            geom,
            damage: HashMap::new(),
            peak: HashMap::new(),
            max_damage: 0,
            violations: 0,
            acts_seen: 0,
        }
    }

    fn key(&self, rank: u8, bank_flat: u32, row: u32) -> u64 {
        ((rank as u64 * self.geom.banks_per_rank() as u64 + bank_flat as u64) << 32) | row as u64
    }

    /// Feeds one controller event.
    pub fn observe(&mut self, ev: &MemEvent) {
        match ev {
            MemEvent::Activate { addr, .. } => self.on_activate(addr),
            MemEvent::VictimsRefreshed { aggressor, blast_radius, .. } => {
                self.refresh_victims(aggressor, *blast_radius);
            }
            MemEvent::SweepRefreshed { scope, .. } => self.on_sweep(*scope),
            MemEvent::RefreshWindowEnd { .. } => self.damage.clear(),
            // Read completions carry no disturbance; only ACTs hammer.
            MemEvent::ReadCompleted { .. } => {}
        }
    }

    fn on_activate(&mut self, addr: &DramAddr) {
        self.acts_seen += 1;
        let bank = self.geom.bank_in_rank(addr);
        let br = self.blast_radius as i64;
        for d in 1..=br {
            for v in [addr.row as i64 - d, addr.row as i64 + d] {
                if v < 0 || v >= self.geom.rows_per_bank as i64 {
                    continue;
                }
                let key = self.key(addr.rank, bank, v as u32);
                let c = self.damage.entry(key).or_insert(0);
                *c += 1;
                if *c > self.max_damage {
                    self.max_damage = *c;
                }
                if *c == self.nrh {
                    self.violations += 1;
                }
                let p = self.peak.entry(key).or_insert(0);
                *p = (*p).max(*c);
            }
        }
    }

    fn refresh_victims(&mut self, aggressor: &DramAddr, blast_radius: u8) {
        let bank = self.geom.bank_in_rank(aggressor);
        for d in 1..=blast_radius as i64 {
            for v in [aggressor.row as i64 - d, aggressor.row as i64 + d] {
                if v < 0 || v >= self.geom.rows_per_bank as i64 {
                    continue;
                }
                let key = self.key(aggressor.rank, bank, v as u32);
                self.damage.remove(&key);
            }
        }
    }

    fn on_sweep(&mut self, scope: ResetScope) {
        match scope {
            ResetScope::Channel { .. } => self.damage.clear(),
            ResetScope::Rank { rank, .. } => {
                self.damage.retain(|&k, _| {
                    let bank_global = k >> 32;
                    let r = bank_global / self.geom.banks_per_rank() as u64;
                    r != rank as u64
                });
            }
        }
    }

    /// Maximum disturbance any victim accumulated without a refresh.
    pub fn max_damage(&self) -> u32 {
        self.max_damage
    }

    /// Number of rows whose disturbance reached N_RH (0 for a sound
    /// defense).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Activations audited.
    pub fn activations(&self) -> u64 {
        self.acts_seen
    }

    /// Highest disturbance the given row ever reached between refreshes
    /// (0 if it was never a victim). Unlike the live `damage` counters,
    /// peaks survive mitigations: a victim that was pushed to 400 and
    /// then refreshed reports a peak of 400, which is what decides
    /// whether a cell with an HC threshold below 400 flipped.
    pub fn peak_damage_at(&self, addr: &DramAddr) -> u32 {
        let bank = self.geom.bank_in_rank(addr);
        self.peak.get(&self.key(addr.rank, bank, addr.row)).copied().unwrap_or(0)
    }
}

/// The oracle as a telemetry client: one [`Oracle`] per channel behind a
/// single [`Probe`] that subscribes to the memory-event stream. The
/// auditor gets no privileged hook into the controller anymore — it rides
/// the same registered-sink API every other event probe uses.
#[derive(Debug)]
pub struct OracleProbe {
    oracles: Vec<Oracle>,
}

impl OracleProbe {
    /// One auditor per channel.
    pub fn new(nrh: u32, blast_radius: u8, geom: Geometry) -> Self {
        Self { oracles: (0..geom.channels).map(|_| Oracle::new(nrh, blast_radius, geom)).collect() }
    }

    /// The per-channel auditors.
    pub fn oracles(&self) -> &[Oracle] {
        &self.oracles
    }

    /// Maximum disturbance any victim accumulated on any channel.
    pub fn max_damage(&self) -> u32 {
        self.oracles.iter().map(Oracle::max_damage).max().unwrap_or(0)
    }

    /// Total rows whose disturbance reached N_RH across channels.
    pub fn violations(&self) -> u64 {
        self.oracles.iter().map(Oracle::violations).sum()
    }

    /// Highest disturbance the given row (on its channel) ever reached
    /// between refreshes; 0 for an out-of-range channel.
    pub fn peak_damage_at(&self, addr: &DramAddr) -> u32 {
        self.oracles.get(addr.channel as usize).map_or(0, |o| o.peak_damage_at(addr))
    }
}

impl Probe for OracleProbe {
    fn name(&self) -> &'static str {
        "oracle"
    }
    fn wants_events(&self) -> bool {
        true
    }
    fn on_event(&mut self, channel: u8, ev: &MemEvent) {
        if let Some(o) = self.oracles.get_mut(channel as usize) {
            o.observe(ev);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(bank_group: u8, bank: u8, row: u32) -> DramAddr {
        DramAddr::new(0, 0, bank_group, bank, row, 0)
    }

    fn activate(o: &mut Oracle, a: DramAddr) {
        o.observe(&MemEvent::Activate { addr: a, cycle: 0 });
    }

    #[test]
    fn unmitigated_hammering_violates() {
        let mut o = Oracle::new(100, 1, Geometry::paper_baseline());
        for _ in 0..100 {
            activate(&mut o, addr(0, 0, 500));
        }
        assert_eq!(o.violations(), 2, "both neighbours of row 500 flip");
        assert_eq!(o.max_damage(), 100);
    }

    #[test]
    fn mitigation_resets_victims() {
        let mut o = Oracle::new(100, 1, Geometry::paper_baseline());
        for _ in 0..99 {
            activate(&mut o, addr(0, 0, 500));
        }
        o.observe(&MemEvent::VictimsRefreshed {
            aggressor: addr(0, 0, 500),
            blast_radius: 1,
            cycle: 0,
        });
        for _ in 0..99 {
            activate(&mut o, addr(0, 0, 500));
        }
        assert_eq!(o.violations(), 0);
        assert_eq!(o.max_damage(), 99);
    }

    #[test]
    fn double_sided_pressure_accumulates() {
        let mut o = Oracle::new(100, 1, Geometry::paper_baseline());
        // Rows 499 and 501 both disturb row 500.
        for _ in 0..50 {
            activate(&mut o, addr(0, 0, 499));
            activate(&mut o, addr(0, 0, 501));
        }
        assert_eq!(o.max_damage(), 100);
        assert_eq!(o.violations(), 1, "row 500 reaches N_RH");
    }

    #[test]
    fn sweep_clears_scope_only() {
        let g = Geometry::paper_baseline();
        let mut o = Oracle::new(100, 1, g);
        for _ in 0..60 {
            activate(&mut o, addr(0, 0, 500)); // rank 0
            o.observe(&MemEvent::Activate { addr: DramAddr::new(0, 1, 0, 0, 500, 0), cycle: 0 });
        }
        o.observe(&MemEvent::SweepRefreshed {
            scope: ResetScope::Rank { channel: 0, rank: 0 },
            cycle: 0,
        });
        for _ in 0..60 {
            activate(&mut o, addr(0, 0, 500));
            o.observe(&MemEvent::Activate { addr: DramAddr::new(0, 1, 0, 0, 500, 0), cycle: 0 });
        }
        // Rank 0 was cleared mid-way (60 + 60 < 2x100); rank 1 was not.
        assert_eq!(o.violations(), 2, "only rank 1's two victims flip");
    }

    #[test]
    fn window_end_clears_everything() {
        let mut o = Oracle::new(100, 1, Geometry::paper_baseline());
        for _ in 0..99 {
            activate(&mut o, addr(0, 0, 500));
        }
        o.observe(&MemEvent::RefreshWindowEnd { cycle: 0 });
        for _ in 0..99 {
            activate(&mut o, addr(0, 0, 500));
        }
        assert_eq!(o.violations(), 0);
    }

    #[test]
    fn blast_radius_two_reaches_further() {
        let mut o = Oracle::new(1000, 2, Geometry::paper_baseline());
        for _ in 0..10 {
            activate(&mut o, addr(0, 0, 500));
        }
        // Rows 498, 499, 501, 502 each took 10 damage.
        assert_eq!(o.max_damage(), 10);
        assert_eq!(o.activations(), 10);
    }

    #[test]
    fn edge_rows_do_not_wrap() {
        let mut o = Oracle::new(10, 1, Geometry::paper_baseline());
        for _ in 0..20 {
            activate(&mut o, addr(0, 0, 0)); // row 0: only row 1 is a victim
        }
        assert_eq!(o.violations(), 1);
    }

    #[test]
    fn blast_radius_clips_at_row_zero_boundary() {
        let g = Geometry::paper_baseline();
        let mut o = Oracle::new(1000, 2, g);
        for _ in 0..10 {
            activate(&mut o, addr(0, 0, 1)); // victims: 0, 2, 3 — never -1
        }
        assert_eq!(o.peak_damage_at(&addr(0, 0, 0)), 10);
        assert_eq!(o.peak_damage_at(&addr(0, 0, 2)), 10);
        assert_eq!(o.peak_damage_at(&addr(0, 0, 3)), 10);
        // The would-be victim below row 0 must not alias onto any real row
        // (in particular not the top of this bank or a neighbouring bank).
        assert_eq!(o.peak_damage_at(&addr(0, 0, g.rows_per_bank - 1)), 0);
        assert_eq!(o.peak_damage_at(&addr(0, 1, g.rows_per_bank - 1)), 0);
    }

    #[test]
    fn blast_radius_clips_at_max_row_boundary() {
        let g = Geometry::paper_baseline();
        let top = g.rows_per_bank - 1;
        let mut o = Oracle::new(1000, 2, g);
        for _ in 0..10 {
            activate(&mut o, addr(0, 0, top)); // victims: top-1, top-2 only
        }
        assert_eq!(o.peak_damage_at(&addr(0, 0, top - 1)), 10);
        assert_eq!(o.peak_damage_at(&addr(0, 0, top - 2)), 10);
        assert_eq!(o.peak_damage_at(&addr(0, 0, top)), 0, "the aggressor is not its own victim");
        // No wrap onto row 0/1 of this bank or the next bank.
        assert_eq!(o.peak_damage_at(&addr(0, 0, 0)), 0);
        assert_eq!(o.peak_damage_at(&addr(0, 1, 0)), 0);
        assert_eq!(o.max_damage(), 10);
    }

    #[test]
    fn disturbance_does_not_propagate_across_banks() {
        let g = Geometry::paper_baseline();
        let mut o = Oracle::new(50, 1, g);
        for _ in 0..60 {
            activate(&mut o, addr(0, 0, 500));
        }
        // Same row index in a different bank / bank group / rank: silent.
        assert_eq!(o.peak_damage_at(&addr(0, 1, 499)), 0);
        assert_eq!(o.peak_damage_at(&addr(1, 0, 501)), 0);
        assert_eq!(o.peak_damage_at(&DramAddr::new(0, 1, 0, 0, 499, 0)), 0);
        assert_eq!(o.peak_damage_at(&addr(0, 0, 499)), 60);
        assert_eq!(o.violations(), 2, "only the true neighbours in bank (0,0) flip");
    }

    #[test]
    fn peaks_survive_mitigation_while_damage_resets() {
        let mut o = Oracle::new(1000, 1, Geometry::paper_baseline());
        for _ in 0..400 {
            activate(&mut o, addr(0, 0, 500));
        }
        o.observe(&MemEvent::VictimsRefreshed {
            aggressor: addr(0, 0, 500),
            blast_radius: 1,
            cycle: 0,
        });
        for _ in 0..150 {
            activate(&mut o, addr(0, 0, 500));
        }
        // Live damage restarted at 0 after the refresh; the peak keeps the
        // pre-mitigation exposure.
        assert_eq!(o.peak_damage_at(&addr(0, 0, 499)), 400);
        assert_eq!(o.peak_damage_at(&addr(0, 0, 501)), 400);
        assert_eq!(o.violations(), 0, "never reached N_RH in one stretch");
    }

    #[test]
    fn read_completions_carry_no_disturbance() {
        use sim_core::addr::PhysAddr;
        use sim_core::req::SourceId;
        let mut o = Oracle::new(10, 1, Geometry::paper_baseline());
        for _ in 0..50 {
            o.observe(&MemEvent::ReadCompleted {
                source: SourceId(3),
                phys: PhysAddr(0x4000),
                arrival: 0,
                cycle: 40,
            });
        }
        assert_eq!(o.max_damage(), 0);
        assert_eq!(o.activations(), 0);
    }

    #[test]
    fn heterogeneous_hc_thresholds_adjudicate_per_row() {
        // Two victims with the same exposure but different per-row HC
        // thresholds: the weak cell flips, the strong one does not. This is
        // the per-row adjudication contract the attacker pipeline's victim stage
        // builds on.
        let mut o = Oracle::new(10_000, 1, Geometry::paper_baseline());
        for _ in 0..300 {
            activate(&mut o, addr(0, 0, 500)); // victims 499 and 501, peak 300
        }
        let victims = [(addr(0, 0, 499), 250u32), (addr(0, 0, 501), 350u32)];
        let flips: Vec<bool> = victims.iter().map(|(a, hc)| o.peak_damage_at(a) >= *hc).collect();
        assert_eq!(flips, vec![true, false]);
    }

    #[test]
    fn oracle_probe_routes_peak_queries_by_channel() {
        let g = Geometry::paper_baseline();
        let mut p = OracleProbe::new(1000, 1, g);
        let a1 = DramAddr::new(1, 0, 0, 0, 500, 0);
        for _ in 0..20 {
            p.on_event(1, &MemEvent::Activate { addr: a1, cycle: 0 });
        }
        assert_eq!(p.peak_damage_at(&DramAddr::new(1, 0, 0, 0, 501, 0)), 20);
        assert_eq!(p.peak_damage_at(&DramAddr::new(0, 0, 0, 0, 501, 0)), 0, "other channel");
        assert_eq!(p.peak_damage_at(&DramAddr::new(7, 0, 0, 0, 501, 0)), 0, "out of range");
        assert_eq!(p.max_damage(), 20);
    }
}

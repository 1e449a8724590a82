//! Event-based DRAM energy accounting (DRAMPower stand-in).
//!
//! Table IV of the paper reports *relative* energy overhead, which an
//! event-count model reproduces: each command type is charged a fixed energy
//! and background power accrues with wall-clock time. Constants are
//! representative DDR5 figures (order-of-magnitude correct); only ratios
//! matter for the reproduction.

use sim_core::time::{cycles_to_ns, Cycle};

/// Energy charged per event, in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One ACT+PRE pair.
    pub act_nj: f64,
    /// One read burst.
    pub rd_nj: f64,
    /// One write burst.
    pub wr_nj: f64,
    /// One all-bank REF command (per rank).
    pub ref_nj: f64,
    /// One victim row refreshed by a mitigation.
    pub victim_row_nj: f64,
    /// Background power per rank, in watts.
    pub background_w_per_rank: f64,
}

impl EnergyModel {
    /// Representative DDR5 x8 DIMM figures.
    pub fn ddr5() -> Self {
        Self {
            act_nj: 1.0,
            rd_nj: 1.4,
            wr_nj: 1.5,
            ref_nj: 140.0,
            victim_row_nj: 1.0,
            background_w_per_rank: 0.15,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::ddr5()
    }
}

/// Accumulated energy for one channel.
#[derive(Debug, Clone, Default)]
pub struct EnergyCounters {
    model: EnergyModel,
    acts: u64,
    reads: u64,
    writes: u64,
    refs: u64,
    victim_rows: u64,
    sweep_rows: u64,
}

impl EnergyCounters {
    /// Creates counters under the given model.
    pub fn new(model: EnergyModel) -> Self {
        Self { model, ..Default::default() }
    }

    /// Records an ACT (+ implied PRE).
    pub fn on_act(&mut self) {
        self.acts += 1;
    }

    /// Records a read burst.
    pub fn on_read(&mut self) {
        self.reads += 1;
    }

    /// Records a write burst.
    pub fn on_write(&mut self) {
        self.writes += 1;
    }

    /// Records an all-bank refresh.
    pub fn on_ref(&mut self) {
        self.refs += 1;
    }

    /// Records `n` victim rows refreshed by mitigation commands.
    pub fn on_victim_rows(&mut self, n: u64) {
        self.victim_rows += n;
    }

    /// Records `n` rows refreshed by a structure-reset sweep.
    pub fn on_sweep_rows(&mut self, n: u64) {
        self.sweep_rows += n;
    }

    /// Total dynamic + background energy in millijoules for a run of
    /// `elapsed` cycles over `ranks` ranks.
    pub fn total_mj(&self, elapsed: Cycle, ranks: u32) -> f64 {
        let m = &self.model;
        let dynamic_nj = self.acts as f64 * m.act_nj
            + self.reads as f64 * m.rd_nj
            + self.writes as f64 * m.wr_nj
            + self.refs as f64 * m.ref_nj
            + (self.victim_rows + self.sweep_rows) as f64 * m.victim_row_nj;
        let background_nj = m.background_w_per_rank * ranks as f64 * cycles_to_ns(elapsed);
        (dynamic_nj + background_nj) / 1.0e6
    }

    /// Energy spent on mitigation work only (victim rows + sweeps), mJ.
    pub fn mitigation_mj(&self) -> f64 {
        (self.victim_rows + self.sweep_rows) as f64 * self.model.victim_row_nj / 1.0e6
    }

    /// Event counts `(acts, reads, writes, refs, victim_rows, sweep_rows)`.
    pub fn counts(&self) -> (u64, u64, u64, u64, u64, u64) {
        (self.acts, self.reads, self.writes, self.refs, self.victim_rows, self.sweep_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_accumulates() {
        let mut e = EnergyCounters::new(EnergyModel::ddr5());
        e.on_act();
        e.on_read();
        e.on_victim_rows(10);
        let (a, r, _, _, v, _) = e.counts();
        assert_eq!((a, r, v), (1, 1, 10));
        assert!(e.total_mj(0, 2) > 0.0);
    }

    #[test]
    fn background_dominates_idle_runs() {
        let e = EnergyCounters::new(EnergyModel::ddr5());
        // 32 ms idle, 2 ranks at 0.15 W each = 9.6 mJ.
        let total = e.total_mj(sim_core::time::ms_to_cycles(32.0), 2);
        assert!((total - 9.6).abs() < 0.1, "{total}");
    }

    #[test]
    fn mitigation_energy_separable() {
        let mut e = EnergyCounters::new(EnergyModel::ddr5());
        e.on_victim_rows(1_000_000);
        assert!((e.mitigation_mj() - 1.0).abs() < 1e-9);
    }
}

//! Per-channel DRAM state: banks, ranks, data bus, refresh, mitigation.

use crate::energy::{EnergyCounters, EnergyModel};
use crate::timing::TimingParams;
use sim_core::addr::{DramAddr, Geometry};
use sim_core::config::MitigationKind;
use sim_core::time::Cycle;
use sim_core::tracker::ResetScope;

/// State of one DRAM bank: its open row and the bank-local part of each
/// command gate. The rank- and bus-wide parts are
/// [`DramChannel::rank_act_gate`], [`DramChannel::rank_blocked_until`] and
/// [`DramChannel::bus_col_gate`]; a command may issue once both parts have
/// passed.
#[derive(Debug, Clone, Copy, Default)]
pub struct BankState {
    /// The row currently open, if any.
    pub open_row: Option<u32>,
    /// Earliest cycle an ACT may issue (tRC / tRP / blocking).
    pub next_act: Cycle,
    /// Earliest PRE (tRAS / tRTP / tWR).
    pub next_pre: Cycle,
    /// Earliest column command (tRCD).
    pub next_col: Cycle,
}

/// Per-rank constraints shared by its banks.
#[derive(Debug, Clone)]
struct RankState {
    banks: Vec<BankState>,
    /// tRRD_S: earliest next ACT anywhere in the rank.
    next_act_any: Cycle,
    /// tRRD_L: earliest next ACT per bank group.
    next_act_bg: Vec<Cycle>,
    /// Last four ACT issue times (tFAW).
    faw: [Cycle; 4],
    faw_idx: usize,
    /// ACTs issued so far (the tFAW gate only applies after four).
    faw_count: u64,
    /// Rank blocked (REF, reset sweep) until this cycle.
    blocked_until: Cycle,
}

impl RankState {
    fn new(geom: &Geometry) -> Self {
        Self {
            banks: vec![BankState::default(); geom.banks_per_rank() as usize],
            next_act_any: 0,
            next_act_bg: vec![0; geom.bank_groups as usize],
            faw: [0; 4],
            faw_idx: 0,
            faw_count: 0,
            blocked_until: 0,
        }
    }
}

/// One DDR5 channel: ranks of banks plus the shared data bus.
///
/// All `earliest_*` queries return the first cycle `>= now` at which the
/// command could legally issue; the matching `issue_*` must then be called
/// with exactly that cycle (or later).
#[derive(Debug, Clone)]
pub struct DramChannel {
    geom: Geometry,
    timing: TimingParams,
    ranks: Vec<RankState>,
    /// Data bus is busy until this cycle.
    data_bus_free: Cycle,
    /// Energy accounting for this channel.
    pub energy: EnergyCounters,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(geom: Geometry, timing: TimingParams) -> Self {
        let ranks = (0..geom.ranks).map(|_| RankState::new(&geom)).collect();
        Self {
            geom,
            timing,
            ranks,
            data_bus_free: 0,
            energy: EnergyCounters::new(EnergyModel::ddr5()),
        }
    }

    /// The channel's timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The channel's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    fn bank(&self, a: &DramAddr) -> &BankState {
        self.bank_state(a.rank, self.geom.bank_in_rank(a))
    }

    fn bank_mut(&mut self, a: &DramAddr) -> &mut BankState {
        let idx = self.geom.bank_in_rank(a) as usize;
        &mut self.ranks[a.rank as usize].banks[idx]
    }

    /// The row currently open in the addressed bank, if any.
    pub fn open_row(&self, a: &DramAddr) -> Option<u32> {
        self.bank(a).open_row
    }

    /// State of bank `(rank, bank-in-rank)`: the bank-local half of every
    /// gate, for a scheduler that caches it per bank.
    #[inline]
    pub fn bank_state(&self, rank: u8, bank: u32) -> &BankState {
        &self.ranks[rank as usize].banks[bank as usize]
    }

    /// The rank-wide half of the ACT gate for bank group `bg`: tRRD_S,
    /// tRRD_L, tFAW and the REF/sweep block.
    #[inline]
    pub fn rank_act_gate(&self, rank: u8, bg: u8) -> Cycle {
        let r = &self.ranks[rank as usize];
        let faw_gate = if r.faw_count >= 4 { r.faw[r.faw_idx] + self.timing.t_faw } else { 0 };
        r.next_act_any.max(r.next_act_bg[bg as usize]).max(faw_gate).max(r.blocked_until)
    }

    /// The bus half of the column gate: a data burst (starting tCL/tCWL
    /// after the command) must not overlap the previous one.
    #[inline]
    pub fn bus_col_gate(&self) -> Cycle {
        self.data_bus_free.saturating_sub(self.timing.t_cl)
    }

    /// True if the addressed bank has `a.row` open (a row-buffer hit).
    pub fn is_row_hit(&self, a: &DramAddr) -> bool {
        self.open_row(a) == Some(a.row)
    }

    /// True if the bank has no open row.
    pub fn is_bank_closed(&self, a: &DramAddr) -> bool {
        self.open_row(a).is_none()
    }

    /// Earliest cycle >= `now` at which an ACT to `a` may issue. The bank
    /// must be closed (PRE first otherwise).
    pub fn earliest_act(&self, a: &DramAddr, now: Cycle) -> Cycle {
        let bank = self.bank(a);
        debug_assert!(bank.open_row.is_none(), "ACT to an open bank; PRE first");
        now.max(bank.next_act).max(self.rank_act_gate(a.rank, a.bank_group))
    }

    /// Issues an ACT at cycle `at` (must satisfy [`Self::earliest_act`]).
    pub fn issue_act(&mut self, a: &DramAddr, at: Cycle) {
        let t = self.timing;
        {
            let rank = &mut self.ranks[a.rank as usize];
            rank.next_act_any = at + t.t_rrd_s;
            rank.next_act_bg[a.bank_group as usize] = at + t.t_rrd_l;
            rank.faw[rank.faw_idx] = at;
            rank.faw_idx = (rank.faw_idx + 1) % 4;
            rank.faw_count += 1;
        }
        let bank = self.bank_mut(a);
        bank.open_row = Some(a.row);
        bank.next_act = at + t.t_rc;
        bank.next_pre = at + t.t_ras;
        bank.next_col = at + t.t_rcd;
        self.energy.on_act();
    }

    /// Earliest cycle >= `now` for a PRE to the addressed bank.
    pub fn earliest_pre(&self, a: &DramAddr, now: Cycle) -> Cycle {
        now.max(self.bank(a).next_pre).max(self.rank_blocked_until(a.rank))
    }

    /// Issues a PRE (closes the open row).
    pub fn issue_pre(&mut self, a: &DramAddr, at: Cycle) {
        let t_rp = self.timing.t_rp;
        let bank = self.bank_mut(a);
        bank.open_row = None;
        bank.next_act = bank.next_act.max(at + t_rp);
    }

    /// Earliest cycle >= `now` for a column command (read or write) to the
    /// open row of this bank, including data-bus availability.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the addressed row is open.
    pub fn earliest_col(&self, a: &DramAddr, now: Cycle) -> Cycle {
        debug_assert!(self.is_row_hit(a), "column command needs the row open");
        now.max(self.bank(a).next_col).max(self.rank_blocked_until(a.rank)).max(self.bus_col_gate())
    }

    /// Issues a read at `at`; returns the cycle at which data is fully
    /// transferred (request completion).
    pub fn issue_read(&mut self, a: &DramAddr, at: Cycle) -> Cycle {
        let t = self.timing;
        let done = at + t.t_cl + t.t_bl;
        self.data_bus_free = at + t.t_cl + t.t_bl;
        let bank = self.bank_mut(a);
        bank.next_pre = bank.next_pre.max(at + t.t_rtp);
        bank.next_col = bank.next_col.max(at + t.t_bl);
        self.energy.on_read();
        done
    }

    /// Issues a write at `at`; returns the completion cycle.
    pub fn issue_write(&mut self, a: &DramAddr, at: Cycle) -> Cycle {
        let t = self.timing;
        let done = at + t.t_cwl + t.t_bl;
        self.data_bus_free = at + t.t_cwl + t.t_bl;
        let bank = self.bank_mut(a);
        bank.next_pre = bank.next_pre.max(at + t.t_cwl + t.t_bl + t.t_wr);
        bank.next_col = bank.next_col.max(at + t.t_bl);
        self.energy.on_write();
        done
    }

    /// Issues an all-bank auto-refresh to a rank: closes every bank and
    /// blocks the rank for tRFC. Returns the cycle the rank unblocks.
    pub fn issue_ref(&mut self, rank: u8, at: Cycle) -> Cycle {
        let until = at + self.timing.t_rfc;
        let r = &mut self.ranks[rank as usize];
        for b in &mut r.banks {
            b.open_row = None;
            b.next_act = b.next_act.max(until);
        }
        r.blocked_until = r.blocked_until.max(until);
        self.energy.on_ref();
        until
    }

    /// Issues a mitigation command for aggressor `a` and returns the cycle
    /// the affected banks unblock.
    ///
    /// * [`MitigationKind::Vrr`] blocks only the aggressor's bank for
    ///   `2 * blast_radius` victim-row refreshes.
    /// * [`MitigationKind::DrfmSb`] / [`MitigationKind::RfmSb`] block the
    ///   same-numbered bank in every bank group of the rank for the JEDEC
    ///   command duration.
    pub fn issue_mitigation(
        &mut self,
        a: &DramAddr,
        kind: MitigationKind,
        blast_radius: u8,
        at: Cycle,
    ) -> Cycle {
        let victims = 2 * blast_radius as u64;
        match kind {
            MitigationKind::Vrr => {
                let until = at + self.timing.vrr_block(blast_radius);
                let bank = self.bank_mut(a);
                bank.open_row = None;
                bank.next_act = bank.next_act.max(until);
                bank.next_pre = bank.next_pre.max(until);
                self.energy.on_victim_rows(victims);
                until
            }
            MitigationKind::DrfmSb | MitigationKind::RfmSb => {
                let dur = if kind == MitigationKind::DrfmSb {
                    self.timing.t_drfm_sb
                } else {
                    self.timing.t_rfm_sb
                };
                let until = at + dur;
                let rank = &mut self.ranks[a.rank as usize];
                let bpg = self.geom.banks_per_group as usize;
                for bg in 0..self.geom.bank_groups as usize {
                    let b = &mut rank.banks[bg * bpg + a.bank as usize];
                    b.open_row = None;
                    b.next_act = b.next_act.max(until);
                    b.next_pre = b.next_pre.max(until);
                }
                self.energy.on_victim_rows(victims);
                until
            }
        }
    }

    /// Blocks an entire rank or the whole channel for a structure-reset
    /// sweep (refreshing every row in scope). Returns the unblock cycle.
    pub fn issue_reset_sweep(&mut self, scope: ResetScope, at: Cycle) -> Cycle {
        let dur = self.timing.sweep_block(self.geom.rows_per_bank);
        let until = at + dur;
        let rows_per_rank = self.geom.rows_per_rank();
        let rank_indices: Vec<usize> = match scope {
            ResetScope::Rank { rank, .. } => vec![rank as usize],
            ResetScope::Channel { .. } => (0..self.ranks.len()).collect(),
        };
        for ri in rank_indices {
            let r = &mut self.ranks[ri];
            for b in &mut r.banks {
                b.open_row = None;
                b.next_act = b.next_act.max(until);
            }
            r.blocked_until = r.blocked_until.max(until);
            self.energy.on_sweep_rows(rows_per_rank);
        }
        until
    }

    /// True if the rank is currently blocked (REF or sweep in progress).
    pub fn rank_blocked(&self, rank: u8, now: Cycle) -> bool {
        self.ranks[rank as usize].blocked_until > now
    }

    /// Earliest cycle at which the rank unblocks (REF or sweep): the
    /// rank-wide half of the column and PRE gates.
    #[inline]
    pub fn rank_blocked_until(&self, rank: u8) -> Cycle {
        self.ranks[rank as usize].blocked_until
    }

    /// First cycle at which every rank a reset sweep of `scope` would touch
    /// is unblocked — i.e. the earliest cycle the sweep could start. Used
    /// by the time-skipping engine to jump over long REF/sweep blocks.
    pub fn scope_unblocked_at(&self, scope: ResetScope) -> Cycle {
        match scope {
            ResetScope::Rank { rank, .. } => self.rank_blocked_until(rank),
            ResetScope::Channel { .. } => {
                self.ranks.iter().map(|r| r.blocked_until).max().unwrap_or(0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> DramChannel {
        DramChannel::new(Geometry::paper_baseline(), TimingParams::ddr5_6400())
    }

    fn addr(bg: u8, bank: u8, row: u32) -> DramAddr {
        DramAddr::new(0, 0, bg, bank, row, 0)
    }

    #[test]
    fn act_opens_row_and_enforces_trc() {
        let mut c = ch();
        let a = addr(0, 0, 10);
        let t0 = c.earliest_act(&a, 0);
        c.issue_act(&a, t0);
        assert_eq!(c.open_row(&a), Some(10));
        // Close and re-activate: tRC must separate the two ACTs.
        let tp = c.earliest_pre(&a, t0);
        assert!(tp >= t0 + c.timing().t_ras);
        c.issue_pre(&a, tp);
        let b = addr(0, 0, 11);
        let t1 = c.earliest_act(&b, tp);
        assert!(t1 >= t0 + c.timing().t_rc, "tRC violated: {t0} -> {t1}");
    }

    #[test]
    fn trrd_spaces_acts_across_banks() {
        let mut c = ch();
        let a = addr(0, 0, 1);
        let b = addr(1, 0, 2); // different bank group -> tRRD_S
        let d = addr(0, 1, 3); // same bank group -> tRRD_L
        let t0 = c.earliest_act(&a, 0);
        c.issue_act(&a, t0);
        let t1 = c.earliest_act(&b, t0);
        assert_eq!(t1, t0 + c.timing().t_rrd_s);
        c.issue_act(&b, t1);
        let t2 = c.earliest_act(&d, t1);
        assert!(t2 >= t0 + c.timing().t_rrd_l);
    }

    #[test]
    fn faw_limits_burst_of_activates() {
        let mut c = ch();
        let mut now = 0;
        // Issue 4 ACTs to different bank groups as fast as allowed.
        for i in 0..4u8 {
            let a = addr(i, 0, 5);
            now = c.earliest_act(&a, now);
            c.issue_act(&a, now);
        }
        // The fifth ACT must wait for the tFAW window from the first.
        let fifth = addr(4, 0, 5);
        let t = c.earliest_act(&fifth, now);
        assert!(t >= c.timing().t_faw, "fifth ACT at {t} ignores tFAW");
    }

    #[test]
    fn read_completion_includes_cas_and_burst() {
        let mut c = ch();
        let a = addr(2, 1, 7);
        let t0 = c.earliest_act(&a, 0);
        c.issue_act(&a, t0);
        let tc = c.earliest_col(&a, t0);
        assert!(tc >= t0 + c.timing().t_rcd);
        let done = c.issue_read(&a, tc);
        assert_eq!(done, tc + c.timing().t_cl + c.timing().t_bl);
    }

    #[test]
    fn data_bus_serialises_bursts() {
        let mut c = ch();
        let a = addr(0, 0, 1);
        let b = addr(1, 0, 2);
        let ta = c.earliest_act(&a, 0);
        c.issue_act(&a, ta);
        let tb = c.earliest_act(&b, ta);
        c.issue_act(&b, tb);
        let ca = c.earliest_col(&a, ta + c.timing().t_rcd);
        let done_a = c.issue_read(&a, ca);
        let cb = c.earliest_col(&b, ca);
        let done_b = c.issue_read(&b, cb);
        assert!(done_b >= done_a + c.timing().t_bl, "bursts overlap: {done_a} {done_b}");
    }

    #[test]
    fn refresh_blocks_rank_and_closes_banks() {
        let mut c = ch();
        let a = addr(0, 0, 9);
        let t0 = c.earliest_act(&a, 0);
        c.issue_act(&a, t0);
        let until = c.issue_ref(0, t0 + 200);
        assert_eq!(until, t0 + 200 + c.timing().t_rfc);
        assert!(c.is_bank_closed(&a));
        assert!(c.rank_blocked(0, until - 1));
        assert!(!c.rank_blocked(0, until));
        let t1 = c.earliest_act(&a, t0 + 200);
        assert!(t1 >= until);
    }

    #[test]
    fn vrr_blocks_only_target_bank() {
        let mut c = ch();
        let a = addr(0, 0, 9);
        let other = addr(1, 0, 9);
        let until = c.issue_mitigation(&a, MitigationKind::Vrr, 1, 1000);
        assert_eq!(until, 1000 + c.timing().vrr_block(1));
        assert!(c.earliest_act(&a, 1000) >= until);
        assert!(c.earliest_act(&other, 1000) < until, "other banks unaffected");
    }

    #[test]
    fn drfm_blocks_same_bank_in_all_groups() {
        let mut c = ch();
        let a = addr(0, 2, 9);
        let same_num = addr(5, 2, 1);
        let diff_num = addr(5, 3, 1);
        let until = c.issue_mitigation(&a, MitigationKind::DrfmSb, 2, 500);
        assert_eq!(until, 500 + c.timing().t_drfm_sb);
        assert!(c.earliest_act(&same_num, 500) >= until);
        assert!(c.earliest_act(&diff_num, 500) < until);
    }

    #[test]
    fn reset_sweep_blocks_scope_for_millis() {
        let mut c = ch();
        let until = c.issue_reset_sweep(ResetScope::Rank { channel: 0, rank: 0 }, 0);
        let ms = sim_core::time::cycles_to_ms(until);
        assert!((2.0..3.0).contains(&ms), "sweep {ms} ms");
        assert!(c.rank_blocked(0, until - 1));
        assert!(!c.rank_blocked(1, 10), "other rank untouched");
        let (.., sweep_rows) = c.energy.counts();
        assert_eq!(sweep_rows, Geometry::paper_baseline().rows_per_rank());
    }

    #[test]
    fn scope_unblock_covers_every_rank_in_scope() {
        let mut c = ch();
        let until = c.issue_ref(1, 100);
        assert_eq!(c.scope_unblocked_at(ResetScope::Rank { channel: 0, rank: 0 }), 0);
        assert_eq!(c.scope_unblocked_at(ResetScope::Rank { channel: 0, rank: 1 }), until);
        assert_eq!(c.scope_unblocked_at(ResetScope::Channel { channel: 0 }), until);
    }

    #[test]
    fn rfm_is_shorter_than_drfm() {
        let mut c1 = ch();
        let mut c2 = ch();
        let a = addr(0, 0, 0);
        let u1 = c1.issue_mitigation(&a, MitigationKind::RfmSb, 1, 0);
        let u2 = c2.issue_mitigation(&a, MitigationKind::DrfmSb, 1, 0);
        assert!(u1 < u2);
    }
}

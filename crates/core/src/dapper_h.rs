//! DAPPER-H: the hardened tracker (paper Section VI).

use crate::config::{DapperConfig, ResetStrategy};
use crate::rgc::RgcTable;
use llbc::{KeySchedule, Llbc};

use sim_core::time::Cycle;
use sim_core::tracker::{Activation, RowHammerTracker, StorageOverhead, TrackerAction};

#[derive(Debug, Clone)]
struct RankState {
    keys1: KeySchedule,
    keys2: KeySchedule,
    rgc1: RgcTable,
    rgc2: RgcTable,
    /// Per-group-of-table-1 bit-vector: one bit per bank of the rank, a
    /// `u32` because that is the entry's hardware width (32 banks).
    bitvec: Vec<u32>,
}

/// The DAPPER-H tracker for one channel.
///
/// Mechanisms (Fig. 8):
///
/// * **Double hashing** — two RGC tables with independent LLBC keys;
///   mitigation only when *both* of the accessed groups reach N_M.
/// * **Per-bank bit-vector** on table 1 — an activation from a bank whose
///   bit is unset sets the bit and increments only table 2, so streaming
///   accesses that sweep banks cannot inflate table 1.
/// * **Shared-row mitigation** — only rows in the intersection of the two
///   groups are refreshed (99.9% of the time exactly the aggressor).
/// * **Reset counters** — after a mitigation each triggering RGC restarts
///   at the maximum opposite-table count over its un-refreshed members, so
///   no member's activity is forgotten.
#[derive(Debug, Clone)]
pub struct DapperH {
    cfg: DapperConfig,
    ranks: Vec<RankState>,
    next_reset: Cycle,
    /// Mitigation events (introspection).
    pub mitigations: u64,
    /// Mitigations that refreshed exactly one shared row.
    pub single_shared: u64,
    /// Mitigations that refreshed more than one shared row.
    pub multi_shared: u64,
    /// Hot group members refreshed by the cascade rule.
    pub cascades: u64,
    scratch: Scratch,
}

/// Buffers [`DapperH::mitigate`] reuses, so a mitigation allocates only
/// while they grow to one group's size.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Table-1 group members, decrypted, in table-1 order.
    members1: Vec<u64>,
    /// Table-2 group members, decrypted, in table-2 order.
    members2: Vec<u64>,
    /// `members1`, sorted: the membership test for the shared rows.
    sorted1: Vec<u64>,
    /// The shared rows, in table-2 order until refreshed, then sorted.
    shared: Vec<u64>,
}

impl DapperH {
    /// Creates a DAPPER-H instance.
    pub fn new(cfg: DapperConfig) -> Self {
        let groups = cfg.groups_per_rank();
        let ranks = (0..cfg.geometry.ranks)
            .map(|r| RankState {
                keys1: KeySchedule::new(
                    cfg.domain_bits(),
                    cfg.seed ^ 0x1DA9_9E01 ^ ((cfg.channel as u64) << 40 | (r as u64) << 20),
                ),
                keys2: KeySchedule::new(
                    cfg.domain_bits(),
                    cfg.seed ^ 0x2DA9_9E02 ^ ((cfg.channel as u64) << 41 | (r as u64) << 21),
                ),
                rgc1: RgcTable::new(groups, cfg.counter_limit()),
                rgc2: RgcTable::new(groups, cfg.counter_limit()),
                bitvec: vec![0; groups as usize],
            })
            .collect();
        Self {
            cfg,
            ranks,
            next_reset: cfg.t_reset,
            mitigations: 0,
            single_shared: 0,
            multi_shared: 0,
            cascades: 0,
            scratch: Scratch::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DapperConfig {
        &self.cfg
    }

    /// The pair of groups a row maps to in `rank` (white-box introspection
    /// for the security analysis and the mapping-capture attack harness).
    pub fn groups_of(&self, rank: u8, row_index: u64) -> (u64, u64) {
        let s = self.cfg.group_size as u64;
        let r = &self.ranks[rank as usize];
        (r.keys1.cipher().encrypt(row_index) / s, r.keys2.cipher().encrypt(row_index) / s)
    }

    /// Current counter values for a row's two groups (introspection).
    pub fn counts_of(&self, rank: u8, row_index: u64) -> (u32, u32) {
        let (g1, g2) = self.groups_of(rank, row_index);
        let r = &self.ranks[rank as usize];
        (r.rgc1.get(g1), r.rgc2.get(g2))
    }

    /// Rekeys both ciphers of every rank and clears all state (the tREFW
    /// reset, Section VI-B1).
    pub fn reset_and_rekey(&mut self) {
        for r in &mut self.ranks {
            r.keys1.rekey();
            r.keys2.rekey();
            r.rgc1.clear();
            r.rgc2.clear();
            r.bitvec.fill(0);
        }
    }

    fn maybe_reset(&mut self, now: Cycle) {
        while now >= self.next_reset {
            self.reset_and_rekey();
            self.next_reset += self.cfg.t_reset;
        }
    }

    /// Performs the mitigation for the (g1, g2) pair of `rank`: refreshes
    /// shared rows and applies the reset-counter rule (Fig. 8, steps 3-4).
    fn mitigate(
        &mut self,
        channel: u8,
        rank: u8,
        g1: u64,
        g2: u64,
        actions: &mut Vec<TrackerAction>,
    ) {
        let s = self.cfg.group_size as u64;
        let geom = self.cfg.geometry;
        let state = &mut self.ranks[rank as usize];
        let c1 = *state.keys1.cipher();
        let c2 = *state.keys2.cipher();
        let Scratch { members1, members2, sorted1, shared } = &mut self.scratch;

        // Decrypt both groups' members.
        members1.clear();
        members1.extend(((g1 * s)..((g1 + 1) * s)).map(|h| c1.decrypt(h)));
        members2.clear();
        members2.extend(((g2 * s)..((g2 + 1) * s)).map(|h| c2.decrypt(h)));
        sorted1.clear();
        sorted1.extend_from_slice(members1);
        sorted1.sort_unstable();
        shared.clear();
        shared.extend(members2.iter().copied().filter(|m| sorted1.binary_search(m).is_ok()));

        // Refresh the shared rows.
        for &m in shared.iter() {
            let addr = geom.addr_from_rank_row_index(channel, rank, m);
            actions.push(TrackerAction::MitigateRow(addr));
        }
        self.mitigations += 1;
        if shared.len() <= 1 {
            self.single_shared += 1;
        } else {
            self.multi_shared += 1;
        }
        shared.sort_unstable();
        let is_shared = |m: u64| shared.binary_search(&m).is_ok();

        // Reset counters: each triggering RGC restarts at the maximum
        // opposite-table count over its un-refreshed members — a sound upper
        // bound on any remaining member's true activation count. Members
        // whose opposite count is already past half the threshold would
        // re-arm the group and storm the mitigation path, so the reset rule
        // *cascades*: such hot members are refreshed along with the shared
        // rows (clearing their accumulated damage) and excluded from the
        // maximum. Refreshed rows contribute nothing, keeping the rule
        // sound while the reset value stays below N_M / 2.
        //
        // "Refreshed" is "shared" for both walks: a group's members are
        // distinct (the ciphers are permutations), so a table-1 member
        // cascaded by the first walk is not shared, hence not in table 2's
        // group, and the second walk never meets it.
        let (reset1, reset2) = match self.cfg.reset_strategy {
            ResetStrategy::Zero => (0, 0),
            ResetStrategy::ResetCounter => {
                let r1 = members1
                    .iter()
                    .filter(|&&m| !is_shared(m))
                    .map(|&m| state.rgc2.get(c2.encrypt(m) / s))
                    .max()
                    .unwrap_or(0);
                let r2 = members2
                    .iter()
                    .filter(|&&m| !is_shared(m))
                    .map(|&m| state.rgc1.get(c1.encrypt(m) / s))
                    .max()
                    .unwrap_or(0);
                (r1, r2)
            }
            ResetStrategy::Cascade => {
                let cascade_limit = (self.cfg.nm() / 2).max(1);
                let mut walk = |members: &[u64], opposite: &RgcTable, cipher: &Llbc| {
                    let mut reset = 0;
                    for &m in members.iter().filter(|&&m| !is_shared(m)) {
                        let c = opposite.get(cipher.encrypt(m) / s);
                        if c >= cascade_limit {
                            self.cascades += 1;
                            let addr = geom.addr_from_rank_row_index(channel, rank, m);
                            actions.push(TrackerAction::MitigateRow(addr));
                        } else {
                            reset = reset.max(c);
                        }
                    }
                    reset
                };
                let r1 = walk(members1, &state.rgc2, &c2);
                let r2 = walk(members2, &state.rgc1, &c1);
                (r1, r2)
            }
        };
        state.rgc1.set(g1, reset1);
        state.rgc2.set(g2, reset2);
        state.bitvec[g1 as usize] = 0;
    }
}

impl RowHammerTracker for DapperH {
    fn name(&self) -> &'static str {
        "DAPPER-H"
    }

    fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
        self.maybe_reset(act.cycle);
        let geom = self.cfg.geometry;
        let rank = act.addr.rank as usize;
        let row = geom.rank_row_index(&act.addr);
        let bank = geom.bank_in_rank(&act.addr);
        let bit = 1u32 << (bank % 32);
        let s = self.cfg.group_size as u64;
        let nm = self.cfg.nm();

        let state = &mut self.ranks[rank];
        let g1 = state.keys1.cipher().encrypt(row) / s;
        let g2 = state.keys2.cipher().encrypt(row) / s;

        if self.cfg.bit_vector && state.bitvec[g1 as usize] & bit == 0 {
            // First activation from this bank since the last clear: filter
            // it out of table 1 (defeats the streaming attack, Fig. 8-1).
            state.bitvec[g1 as usize] |= bit;
            state.rgc2.increment(g2);
        } else {
            // Count in both tables and clear the *other* banks' bits
            // (Fig. 8-2).
            state.rgc1.increment(g1);
            state.rgc2.increment(g2);
            state.bitvec[g1 as usize] = bit;
        }

        if state.rgc1.get(g1) >= nm && state.rgc2.get(g2) >= nm {
            self.mitigate(act.addr.channel, rank as u8, g1, g2, actions);
        }
    }

    fn on_trefi(&mut self, cycle: Cycle, _actions: &mut Vec<TrackerAction>) {
        self.maybe_reset(cycle);
    }

    fn on_refresh_window(&mut self, cycle: Cycle, _actions: &mut Vec<TrackerAction>) {
        self.maybe_reset(cycle);
    }

    fn storage_overhead(&self) -> StorageOverhead {
        // Section VI-H: two 8K x 1 B tables per rank (32 KB per channel) +
        // a 32-bit-per-group bit-vector per rank (64 KB per channel) = 96 KB
        // per 32 GB. Key registers are negligible but counted.
        let groups = self.cfg.groups_per_rank();
        let tables = 2 * groups * self.cfg.bytes_per_counter();
        let bitvec = groups * 4;
        let keys = 2 * 4 * 2;
        StorageOverhead::new((tables + bitvec + keys) * self.cfg.geometry.ranks as u64, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::addr::DramAddr;
    use sim_core::req::SourceId;
    use std::collections::HashSet;

    fn cfg() -> DapperConfig {
        DapperConfig::baseline(500, 0, 2024)
    }

    fn act(addr: DramAddr, cycle: Cycle) -> Activation {
        Activation { addr, source: SourceId(0), cycle }
    }

    fn addr_of(geom: &sim_core::addr::Geometry, rank: u8, index: u64) -> DramAddr {
        geom.addr_from_rank_row_index(0, rank, index)
    }

    #[test]
    fn single_row_hammer_mitigated_before_nrh() {
        let mut t = DapperH::new(cfg());
        let a = DramAddr::new(0, 0, 3, 1, 0x777, 0);
        let mut out = Vec::new();
        let mut first = None;
        for i in 1..=500u64 {
            out.clear();
            t.on_activation(act(a, i), &mut out);
            if out.iter().any(|x| matches!(x, TrackerAction::MitigateRow(r) if r.row == 0x777)) {
                first = Some(i);
                break;
            }
        }
        let first = first.expect("row must be mitigated before N_RH");
        // Bit-set round + N_M increments: mitigation at exactly N_M + 1.
        assert_eq!(first, 251);
        assert!(t.mitigations >= 1);
    }

    #[test]
    fn mitigation_refreshes_only_shared_rows() {
        let mut t = DapperH::new(cfg());
        let a = DramAddr::new(0, 0, 3, 1, 0x777, 0);
        let mut out = Vec::new();
        for i in 1..=251u64 {
            t.on_activation(act(a, i), &mut out);
        }
        // Overwhelmingly a single shared row (Section VI-D note 5).
        assert!(out.len() <= 3, "refreshed {} rows", out.len());
        assert!(out.iter().any(|x| matches!(x, TrackerAction::MitigateRow(r) if r.row == 0x777)));
        assert_eq!(t.single_shared + t.multi_shared, t.mitigations);
    }

    #[test]
    fn interleaved_streaming_is_filtered_by_bitvector() {
        // The streaming attack: activate every row once, banks interleaved
        // (the order bank-level parallelism produces). The bit-vector must
        // keep table 1 cold: no mitigations.
        let c = cfg();
        let geom = c.geometry;
        let mut t = DapperH::new(c);
        let mut out = Vec::new();
        let banks = geom.banks_per_rank() as u64;
        let rows_per_bank = 4096u64; // slice of the full sweep, same density
        for row in 0..rows_per_bank {
            for bank in 0..banks {
                let idx = bank * geom.rows_per_bank as u64 + row;
                t.on_activation(act(addr_of(&geom, 0, idx), row * banks + bank), &mut out);
            }
        }
        assert_eq!(t.mitigations, 0, "streaming must not trigger mitigations");
        assert!(out.is_empty());
    }

    #[test]
    fn refresh_attack_refreshes_single_rows_not_groups() {
        // One hot row per bank, hammered round-robin (the refresh attack).
        let c = cfg();
        let geom = c.geometry;
        let mut t = DapperH::new(c);
        let mut out = Vec::new();
        let banks = geom.banks_per_rank() as u64;
        let rows: Vec<DramAddr> =
            (0..banks).map(|b| addr_of(&geom, 0, b * geom.rows_per_bank as u64 + 42)).collect();
        let mut cycle = 0u64;
        for _round in 0..600 {
            for a in &rows {
                cycle += 1;
                t.on_activation(act(*a, cycle), &mut out);
            }
        }
        assert!(t.mitigations >= banks, "every hot row eventually mitigated");
        // The defining win over DAPPER-S: mitigations refresh the shared
        // row plus a handful of cascaded hot members — never the whole
        // 256-row group.
        let rows_per_mitigation = out.len() as f64 / t.mitigations as f64;
        assert!(rows_per_mitigation < 16.0, "{rows_per_mitigation} rows/mitigation");
    }

    #[test]
    fn suppression_attack_cannot_exceed_nrh() {
        // Adversarial pattern against the bit-vector: alternate the victim
        // row with a same-group row in another bank so the victim's bit is
        // repeatedly cleared and its table-1 increments suppressed. The
        // reset-counter rule must still bound the victim's unmitigated
        // activations below N_RH.
        let c = cfg();
        let geom = c.geometry;
        let t_probe = DapperH::new(c);
        // Find two rows in different banks sharing a table-1 group.
        let victim_idx = 7u64;
        let (vg1, _) = t_probe.groups_of(0, victim_idx);
        let mut partner = None;
        for idx in (geom.rows_per_bank as u64)..(3 * geom.rows_per_bank as u64) {
            if t_probe.groups_of(0, idx).0 == vg1 {
                partner = Some(idx);
                break;
            }
        }
        let Some(partner_idx) = partner else {
            // ~256 expected matches per bank; practically always found.
            panic!("no same-group partner found");
        };
        let mut t = DapperH::new(c);
        let victim = addr_of(&geom, 0, victim_idx);
        let partner = addr_of(&geom, 0, partner_idx);
        let mut out = Vec::new();
        let mut unmitigated = 0u64;
        let mut max_unmitigated = 0u64;
        let mut cycle = 0u64;
        for _ in 0..2000 {
            for a in [victim, partner] {
                cycle += 1;
                out.clear();
                t.on_activation(act(a, cycle), &mut out);
                if a == victim {
                    unmitigated += 1;
                }
                if out
                    .iter()
                    .any(|x| matches!(x, TrackerAction::MitigateRow(r) if r.row == victim.row && r.bank_group == victim.bank_group && r.bank == victim.bank))
                {
                    max_unmitigated = max_unmitigated.max(unmitigated);
                    unmitigated = 0;
                }
            }
        }
        max_unmitigated = max_unmitigated.max(unmitigated);
        assert!(
            max_unmitigated < 500,
            "victim reached {max_unmitigated} activations without refresh"
        );
    }

    #[test]
    fn reset_counter_protects_hot_members() {
        // After a mitigation triggered by row A, a hot member of A's
        // table-1 group must not lose its progress: it is either refreshed
        // by the cascade rule or kept armed by the reset counter.
        let c = cfg();
        let geom = c.geometry;
        let probe = DapperH::new(c);
        let a_idx = 11u64;
        let (g1, _) = probe.groups_of(0, a_idx);
        let mut partner = None;
        for idx in 0..(4 * geom.rows_per_bank as u64) {
            if idx != a_idx && probe.groups_of(0, idx).0 == g1 {
                partner = Some(idx);
                break;
            }
        }
        let partner_idx = partner.expect("partner row in same table-1 group");
        let mut t = DapperH::new(c);
        let mut out = Vec::new();
        let mut cycle = 0u64;
        // Drive the partner's table-2 counter high (it shares g1).
        let partner_addr = addr_of(&geom, 0, partner_idx);
        for _ in 0..200 {
            cycle += 1;
            t.on_activation(act(partner_addr, cycle), &mut out);
        }
        let (_, p2_before) = t.counts_of(0, partner_idx);
        assert!(p2_before >= 199);
        // Now hammer A until it mitigates (clearing g1's counter).
        let a_addr = addr_of(&geom, 0, a_idx);
        let mut mitigated = false;
        for _ in 0..600 {
            cycle += 1;
            out.clear();
            t.on_activation(act(a_addr, cycle), &mut out);
            if !out.is_empty() {
                mitigated = true;
                break;
            }
        }
        assert!(mitigated);
        // The hot partner (opposite count 200 >= N_M/2) must have been
        // cascaded: refreshed together with the triggering mitigation.
        assert!(t.cascades > 0, "hot member must trigger the cascade rule");
        let cascaded = out.iter().any(|x| {
            matches!(x, TrackerAction::MitigateRow(r)
                if c.geometry.rank_row_index(r) == partner_idx)
        });
        assert!(cascaded, "partner must be refreshed by the cascade");
    }

    impl DapperH {
        /// The hash-set mitigation `mitigate` replaced, kept verbatim as
        /// its oracle.
        fn mitigate_oracle(
            &mut self,
            channel: u8,
            rank: u8,
            g1: u64,
            g2: u64,
            actions: &mut Vec<TrackerAction>,
        ) {
            let s = self.cfg.group_size as u64;
            let geom = self.cfg.geometry;
            let state = &mut self.ranks[rank as usize];
            let c1 = *state.keys1.cipher();
            let c2 = *state.keys2.cipher();

            let members1: Vec<u64> = ((g1 * s)..((g1 + 1) * s)).map(|h| c1.decrypt(h)).collect();
            let members2: Vec<u64> = ((g2 * s)..((g2 + 1) * s)).map(|h| c2.decrypt(h)).collect();
            let set1: HashSet<u64> = members1.iter().copied().collect();
            let shared: Vec<u64> = members2.iter().copied().filter(|m| set1.contains(m)).collect();

            for &m in &shared {
                let addr = geom.addr_from_rank_row_index(channel, rank, m);
                actions.push(TrackerAction::MitigateRow(addr));
            }
            self.mitigations += 1;
            if shared.len() <= 1 {
                self.single_shared += 1;
            } else {
                self.multi_shared += 1;
            }

            let (reset1, reset2) = match self.cfg.reset_strategy {
                ResetStrategy::Zero => (0, 0),
                ResetStrategy::ResetCounter => {
                    let shared_set: HashSet<u64> = shared.iter().copied().collect();
                    let r1 = members1
                        .iter()
                        .filter(|m| !shared_set.contains(m))
                        .map(|&m| state.rgc2.get(c2.encrypt(m) / s))
                        .max()
                        .unwrap_or(0);
                    let r2 = members2
                        .iter()
                        .filter(|m| !shared_set.contains(m))
                        .map(|&m| state.rgc1.get(c1.encrypt(m) / s))
                        .max()
                        .unwrap_or(0);
                    (r1, r2)
                }
                ResetStrategy::Cascade => {
                    let cascade_limit = (self.cfg.nm() / 2).max(1);
                    let mut refreshed: HashSet<u64> = shared.iter().copied().collect();
                    let mut r1 = 0;
                    for &m in &members1 {
                        if refreshed.contains(&m) {
                            continue;
                        }
                        let c = state.rgc2.get(c2.encrypt(m) / s);
                        if c >= cascade_limit {
                            self.cascades += 1;
                            refreshed.insert(m);
                            let addr = geom.addr_from_rank_row_index(channel, rank, m);
                            actions.push(TrackerAction::MitigateRow(addr));
                        } else {
                            r1 = r1.max(c);
                        }
                    }
                    let mut r2 = 0;
                    for &m in &members2 {
                        if refreshed.contains(&m) {
                            continue;
                        }
                        let c = state.rgc1.get(c1.encrypt(m) / s);
                        if c >= cascade_limit {
                            self.cascades += 1;
                            refreshed.insert(m);
                            let addr = geom.addr_from_rank_row_index(channel, rank, m);
                            actions.push(TrackerAction::MitigateRow(addr));
                        } else {
                            r2 = r2.max(c);
                        }
                    }
                    (r1, r2)
                }
            };
            state.rgc1.set(g1, reset1);
            state.rgc2.set(g2, reset2);
            state.bitvec[g1 as usize] = 0;
        }
    }

    #[test]
    fn mitigate_matches_the_hash_set_oracle() {
        use sim_core::addr::Geometry;
        use sim_core::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from(0xDA9_4E5);
        let mut multi_shared = 0;
        let strategies = [ResetStrategy::Zero, ResetStrategy::ResetCounter, ResetStrategy::Cascade];
        for strategy in strategies {
            // The tiny geometry's groups overlap by many rows, the paper's
            // by about one: both the multi- and the single-shared path.
            for geometry in [Geometry::paper_baseline(), Geometry::tiny()] {
                for group_size in [64, 256] {
                    let mut c = DapperConfig { geometry, ..cfg() }.with_group_size(group_size);
                    c.reset_strategy = strategy;
                    let groups = c.groups_per_rank();
                    let mut t = DapperH::new(c);
                    let mut out = Vec::new();
                    for round in 0..40 {
                        let rank = (rng.next_u64() % geometry.ranks as u64) as u8;
                        // Counters spread over the whole 1-byte range, so
                        // members fall on both sides of the cascade limit.
                        let state = &mut t.ranks[rank as usize];
                        for g in 0..groups {
                            state.rgc1.set(g, (rng.next_u64() % 256) as u32);
                            state.rgc2.set(g, (rng.next_u64() % 256) as u32);
                        }
                        // Mostly the groups of one row, as on the
                        // activation path; sometimes two unrelated groups.
                        let (g1, g2) = if round % 4 == 0 {
                            (rng.next_u64() % groups, rng.next_u64() % groups)
                        } else {
                            t.groups_of(rank, rng.next_u64() % geometry.rows_per_rank())
                        };
                        let mut oracle = t.clone();
                        let mut want = Vec::new();
                        oracle.mitigate_oracle(0, rank, g1, g2, &mut want);
                        out.clear();
                        t.mitigate(0, rank, g1, g2, &mut out);
                        let what = format!("{strategy:?} {group_size} ({g1}, {g2})");
                        assert_eq!(out, want, "{what}");
                        let after = |t: &DapperH| {
                            let r = &t.ranks[rank as usize];
                            let counts = (t.mitigations, t.single_shared, t.multi_shared);
                            (counts, t.cascades, r.rgc1.get(g1), r.rgc2.get(g2), r.bitvec.clone())
                        };
                        assert_eq!(after(&t), after(&oracle), "{what}");
                    }
                    multi_shared += t.multi_shared;
                }
            }
        }
        assert!(multi_shared > 0, "no mitigation refreshed more than one shared row");
    }

    #[test]
    fn trefw_reset_rekeys_and_clears() {
        let c = cfg().with_t_reset(10_000);
        let mut t = DapperH::new(c);
        let (g1_before, g2_before) = t.groups_of(0, 99);
        let a = DramAddr::new(0, 0, 0, 0, 42, 0);
        let mut out = Vec::new();
        for i in 0..200u64 {
            t.on_activation(act(a, i), &mut out);
        }
        t.on_refresh_window(10_000, &mut out);
        let (g1_after, g2_after) = t.groups_of(0, 99);
        assert!(g1_before != g1_after || g2_before != g2_after);
        let idx = c.geometry.rank_row_index(&a);
        assert_eq!(t.counts_of(0, idx), (0, 0));
    }

    #[test]
    fn storage_is_96kb_per_channel() {
        let t = DapperH::new(cfg());
        let kb = t.storage_overhead().sram_kb();
        assert!((kb - 96.0).abs() < 0.2, "{kb} KB");
    }

    /// Each rank's two RGC tables take exactly their share of the modelled
    /// SRAM on the host (1 B counters at N_RH 500, 2 B at N_RH 1000), still
    /// saturate at the full range of that width, and count a hammered row
    /// to N_M however wide N_M is.
    #[test]
    fn rgc_tables_hold_their_modelled_bytes_and_saturate_at_their_width() {
        for (nrh, width, limit) in [(500, 1, 255), (1000, 2, 65_535)] {
            let c = DapperConfig::baseline(nrh, 0, 2024);
            let mut t = DapperH::new(c);
            let (groups, ranks) = (c.groups_per_rank(), c.geometry.ranks as u64);
            // The storage model less each rank's bit-vector (4 B per group)
            // and key registers (16 B).
            let tables = t.storage_overhead().sram_bytes - ranks * (groups * 4 + 16);
            let host: u64 = t.ranks.iter().map(|r| r.rgc1.host_bytes() + r.rgc2.host_bytes()).sum();
            assert_eq!(host, tables, "N_RH {nrh}");
            assert_eq!(host, ranks * 2 * groups * width, "N_RH {nrh}");

            let a = DramAddr::new(0, 0, 3, 1, 0x777, 0);
            let mut out = Vec::new();
            let first = (1..=nrh as u64).find(|&i| {
                t.on_activation(act(a, i), &mut out);
                t.mitigations > 0
            });
            assert_eq!(first, Some(c.nm() as u64 + 1), "N_RH {nrh}");

            let r = &mut t.ranks[1];
            for rgc in [&mut r.rgc1, &mut r.rgc2] {
                rgc.set(7, limit - 1);
                assert_eq!(rgc.increment(7), limit, "N_RH {nrh}");
                assert_eq!(rgc.increment(7), limit, "N_RH {nrh}: saturated");
                rgc.set(8, u32::MAX);
                assert_eq!(rgc.get(8), limit, "N_RH {nrh}: set clamps");
            }
        }
    }

    #[test]
    fn two_tables_have_independent_mappings() {
        let t = DapperH::new(cfg());
        let same = (0..1024u64)
            .filter(|&r| {
                let (g1, g2) = t.groups_of(0, r);
                g1 == g2
            })
            .count();
        // Independent uniform mappings collide on ~1/8192 of rows.
        assert!(same < 8, "{same} rows map to equal group ids");
    }
}

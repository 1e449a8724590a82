//! RH-Tracker-based Performance-Attack generators (paper Section III-B and
//! Section V-E).
//!
//! Every attack is built from three stream primitives, each a
//! [`cpu::TraceSource`] the attacker core runs: [`RowSweep`] walks rows
//! across banks (the streaming family), [`HammerRows`] round-robins a fixed
//! aggressor set (the hammer family) and [`LineStream`] streams cache lines
//! (cache thrashing). [`Attack::trace`] returns the paper's attacks as one
//! of them; the `redteam` scenario genome composes and mutates the same
//! primitives. The RowHammer attacks issue back-to-back loads
//! (`bubbles = 0`) and are marked [`Attack::bypasses_llc`] — real
//! attackers evict with `clflush`/conflict sets; the simulator models that
//! by skipping the LLC for the attacker's accesses. The cache-thrashing
//! attack goes *through* the LLC, since polluting it is the point.

use cpu::{TraceEntry, TraceSource};
use sim_core::addr::{Geometry, PhysAddr};
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

    /// Builds the attacker core's access stream for this attack, as one of
    /// the three primitives below. `seed` draws the aggressor sets of the
    /// hammer attacks; the other streams ignore it.
    pub fn trace(self, geom: Geometry, seed: u64) -> Box<dyn TraceSource> {
        let banks = geom.banks_per_rank();
        let span = geom.rows_per_bank - RESERVED_TOP_ROWS;
        // Row `row` of bank `bank` (flat within the rank), channel 0.
        let at = |rank: u8, bank: u64, row: u64| {
            let index = bank * geom.rows_per_bank as u64 + row;
            geom.encode(&geom.addr_from_rank_row_index(0, rank, index))
        };
        let mut rng = Xoshiro256::seed_from(seed ^ 0xA77AC4);
        match self {
            // Stream 64 MB of lines round and round: evicts everything. A
            // small bubble count models the pointer-chasing loop body; pure
            // back-to-back loads would model a memory bandwidth attack
            // rather than a cache-thrashing one.
            Attack::CacheThrash => Box::new(LineStream::new((64 << 20) / 64, 6)),
            // Walk every row of rank 0, banks innermost so the stream
            // interleaves banks at tRRD pace (the paper's streaming attack
            // sweeps one rank's 2M rows every ~6 ms). Rows advance with a
            // 64-row stride so each activation touches a fresh 64-counter
            // line of START's reserved region — the line-conflict-aware
            // order a real attacker uses to defeat line-granularity caching.
            Attack::StartStream | Attack::Streaming => {
                Box::new(RowSweep::new(geom, banks, span, SweepOrder::LineStride(64)))
            }
            // Distinct row ID on *every* activation ("row 0 in bank 0, row 1
            // in bank 1, ..."): each one is untracked and lands on the
            // Misra-Gries spillover counter.
            Attack::AbacusSpillover => {
                Box::new(RowSweep::new(geom, banks, span, SweepOrder::Diagonal))
            }
            Attack::HydraRccThrash => {
                // Hydra groups are 128 consecutive row indices. Target 128
                // whole groups (16K rows) spread across rank 0's banks: the
                // priming phase flips every group to per-row mode cheaply,
                // then cycling 16K rows >> 4K RCC entries thrashes the RCC.
                let banks = banks as u64;
                let mut rows = Vec::with_capacity(128 * 128);
                for g in 0..128u64 {
                    let base = (g / banks) * 128 + 4096;
                    rows.extend((0..128u64).map(|r| at(0, g % banks, base + r)));
                }
                rng.shuffle(&mut rows);
                Box::new(HammerRows::new(rows))
            }
            // 192 aggressors > 128 RAT entries (paper Section III-B), all in
            // rank 0 (the RAT is per rank), spread across banks so tRRD
            // rather than tRC paces the attack.
            Attack::CometRatOverflow => Box::new(HammerRows::new(
                (0..192u64).map(|i| at(0, i % banks as u64, rng.gen_range(span as u64))).collect(),
            )),
            // Two hot rows per bank of every rank (open-page policy needs a
            // conflict pair to generate ACTs).
            Attack::RefreshAttack => {
                let mut rows = Vec::new();
                for rank in 0..geom.ranks {
                    for b in 0..banks as u64 {
                        rows.extend([1000, 3000].map(|r| at(rank, b, r)));
                    }
                }
                Box::new(HammerRows::new(rows))
            }
        }
    }
}

impl std::fmt::Display for Attack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Rows at the top of every bank that trackers reserve for metadata; every
/// attack stream stays below them.
pub const RESERVED_TOP_ROWS: u32 = 64;

/// How [`RowSweep`] orders its walk over the row space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepOrder {
    /// Banks innermost; rows advance with the given stride so consecutive
    /// activations touch distinct counter *lines* (the order that defeats
    /// line-granularity counter caching — START's attack).
    LineStride(u32),
    /// Bank and row advance together (`bank = k % banks`,
    /// `row = k % span`), giving a distinct row ID on every activation —
    /// ABACuS's spillover order.
    Diagonal,
}

/// Walks rows of rank 0 (channel 0) across a set of banks — the streaming
/// family.
#[derive(Debug, Clone)]
pub struct RowSweep {
    geom: Geometry,
    banks: u64,
    span: u64,
    order: SweepOrder,
    /// Strided passes per sweep, `span / stride` (`LineStride` only).
    passes: u64,
    step: u64,
}

impl RowSweep {
    /// Sweeps `banks` banks (from bank 0) over the lowest `span` rows of
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `span` is zero or exceeds the geometry, or a
    /// [`SweepOrder::LineStride`] stride is zero or exceeds `span`.
    pub fn new(geom: Geometry, banks: u32, span: u32, order: SweepOrder) -> Self {
        assert!(banks >= 1 && banks <= geom.banks_per_rank(), "banks {banks} out of range");
        assert!(span >= 1 && span <= geom.rows_per_bank - RESERVED_TOP_ROWS, "span {span}");
        let passes = match order {
            SweepOrder::LineStride(stride) => {
                assert!(stride >= 1 && stride <= span, "stride {stride} out of range");
                (span / stride) as u64
            }
            SweepOrder::Diagonal => 1,
        };
        Self { geom, banks: banks as u64, span: span as u64, order, passes, step: 0 }
    }
}

impl TraceSource for RowSweep {
    fn next_entry(&mut self) -> TraceEntry {
        let step = self.step;
        self.step = self.step.wrapping_add(1);
        let bank = step % self.banks;
        let row = match self.order {
            SweepOrder::LineStride(stride) => {
                let k = step / self.banks;
                (k % self.passes) * stride as u64 + (k / self.passes) % stride as u64
            }
            SweepOrder::Diagonal => step % self.span,
        };
        let idx = bank * self.geom.rows_per_bank as u64 + row;
        let addr = self.geom.encode(&self.geom.addr_from_rank_row_index(0, 0, idx));
        TraceEntry { bubbles: 0, addr, is_write: false }
    }
}

/// Round-robins a fixed set of physical addresses — the hammer family
/// (Hydra RCC thrash, CoMeT RAT overflow, the refresh attack) and the
/// attacker pipeline's compiled hammer, which never sees the mapping.
#[derive(Debug, Clone)]
pub struct HammerRows {
    addrs: Vec<PhysAddr>,
    next: usize,
}

impl HammerRows {
    /// Hammers `addrs` in order, round and round.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn new(addrs: Vec<PhysAddr>) -> Self {
        assert!(!addrs.is_empty(), "hammer set must be non-empty");
        Self { addrs, next: 0 }
    }
}

impl TraceSource for HammerRows {
    fn next_entry(&mut self) -> TraceEntry {
        let addr = self.addrs[self.next];
        self.next += 1;
        if self.next == self.addrs.len() {
            self.next = 0;
        }
        TraceEntry { bubbles: 0, addr, is_write: false }
    }
}

/// Streams cache lines through the LLC — the cache-thrashing shape.
#[derive(Debug, Clone)]
pub struct LineStream {
    lines: u64,
    bubbles: u32,
    step: u64,
}

impl LineStream {
    /// Streams `lines` consecutive 64-byte lines from address 0 round and
    /// round, with `bubbles` compute instructions before every access.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn new(lines: u64, bubbles: u32) -> Self {
        assert!(lines > 0, "line stream needs at least one line");
        Self { lines, bubbles, step: 0 }
    }
}

impl TraceSource for LineStream {
    fn next_entry(&mut self) -> TraceEntry {
        let line = self.step % self.lines;
        self.step = self.step.wrapping_add(1);
        TraceEntry { bubbles: self.bubbles, addr: PhysAddr(line * 64), is_write: false }
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
    fn hammer_rows_cycle_their_addresses() {
        let mut t = HammerRows::new(vec![PhysAddr(64), PhysAddr(128)]);
        let seq: Vec<u64> = (0..5).map(|_| t.next_entry().addr.0).collect();
        assert_eq!(seq, vec![64, 128, 64, 128, 64]);
        let e = t.next_entry();
        assert_eq!(e, TraceEntry { bubbles: 0, addr: PhysAddr(128), is_write: false });
    }

    /// `checksum64` over the `(bubbles, addr, is_write)` bytes of the first
    /// 20 000 entries at seeds `0xDA99E5`, 1 and 42, concatenated.
    fn stream_digest(attack: Attack, geom: Geometry) -> u64 {
        let mut bytes = Vec::with_capacity(3 * 20_000 * 13);
        for seed in [0xDA99E5u64, 1, 42] {
            let mut t = attack.trace(geom, seed);
            for _ in 0..20_000 {
                let e = t.next_entry();
                bytes.extend_from_slice(&e.bubbles.to_le_bytes());
                bytes.extend_from_slice(&e.addr.0.to_le_bytes());
                bytes.push(e.is_write as u8);
            }
        }
        sim_core::cache::checksum64(&bytes)
    }

    #[test]
    fn paper_attack_streams_are_pinned() {
        // Digests recorded from the hand-written generator these streams
        // replaced; (paper baseline, eight-channel) per attack.
        let pins: [(Attack, u64, u64); 7] = [
            (Attack::CacheThrash, 0x9301a85a844a4f35, 0x9301a85a844a4f35),
            (Attack::HydraRccThrash, 0xd3cebd72771fd843, 0x82d65841df75b0ff),
            (Attack::StartStream, 0x7dda938830dc1da1, 0x5103714a88e1f542),
            (Attack::CometRatOverflow, 0x2512e619d4c61036, 0xfc156e7188d2d8b8),
            (Attack::AbacusSpillover, 0x1a4a6f67a61b0d03, 0xfc58d99f8eafb37e),
            (Attack::Streaming, 0x7dda938830dc1da1, 0x5103714a88e1f542),
            (Attack::RefreshAttack, 0x7822e4f71f6a7b3b, 0x00096cdc25b02601),
        ];
        assert_eq!(pins.map(|(a, ..)| a), Attack::all());
        for (attack, paper, eight) in pins {
            let got = (
                stream_digest(attack, Geometry::paper_baseline()),
                stream_digest(attack, Geometry::enlarged_8ch()),
            );
            assert_eq!(got, (paper, eight), "{attack} stream changed");
        }
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

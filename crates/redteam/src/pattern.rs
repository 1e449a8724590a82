//! The attack-stream combinators and the genome's random primitives.
//!
//! Every attack stream is a `Box<dyn TraceSource>`. The primitives the
//! paper's attacks are made of ([`RowSweep`](workloads::RowSweep),
//! [`HammerRows`], [`LineStream`](workloads::LineStream)) live in
//! [`workloads::attacks`]; this module adds
//! seed-drawn ones ([`random_hammer_set`], [`RandomRows`]) and combinators
//! that wrap any stream into a richer one ([`Burst`], [`Decoy`],
//! [`Feint`], [`RateLimit`]) — the SWAGE idea of a trait-per-stage attack
//! pipeline, adapted from real-machine hammering to the simulator's trace
//! interface. Every stream is deterministic given its construction
//! parameters, so a scenario re-run from the same seed replays
//! bit-identically. [`crate::scenario::ScenarioSpec::build`] composes them.

use cpu::{TraceEntry, TraceSource};
use sim_core::addr::Geometry;
use sim_core::rng::Xoshiro256;
use workloads::{HammerRows, RESERVED_TOP_ROWS};

// ---------------------------------------------------------------- primitives

/// A seed-deterministic aggressor set: `per_bank` rows in each of `banks`
/// banks of rank 0, rows drawn uniformly below the reserved region,
/// hammered in shuffled order.
pub(crate) fn random_hammer_set(
    geom: Geometry,
    banks: u32,
    per_bank: u32,
    seed: u64,
) -> HammerRows {
    let banks = banks.clamp(1, geom.banks_per_rank());
    let per_bank = per_bank.max(1);
    let mut rng = Xoshiro256::seed_from(seed ^ 0x4A3A_11AB);
    let mut rows = Vec::with_capacity((banks * per_bank) as usize);
    for b in 0..banks as u64 {
        for _ in 0..per_bank {
            let row = rng.gen_range((geom.rows_per_bank - RESERVED_TOP_ROWS) as u64);
            let index = b * geom.rows_per_bank as u64 + row;
            rows.push(geom.encode(&geom.addr_from_rank_row_index(0, 0, index)));
        }
    }
    rng.shuffle(&mut rows);
    HammerRows::new(rows)
}

/// Uniformly random rows of rank 0 — pure mapping-agnostic noise.
#[derive(Debug, Clone)]
struct RandomRows {
    geom: Geometry,
    rng: Xoshiro256,
}

impl RandomRows {
    /// Draws rows uniformly below the reserved region.
    fn new(geom: Geometry, seed: u64) -> Self {
        Self { geom, rng: Xoshiro256::seed_from(seed ^ 0xDEC0_7101) }
    }
}

impl TraceSource for RandomRows {
    fn next_entry(&mut self) -> TraceEntry {
        let banks = self.geom.banks_per_rank() as u64;
        let bank = self.rng.gen_range(banks);
        let row = self.rng.gen_range((self.geom.rows_per_bank - RESERVED_TOP_ROWS) as u64);
        let idx = bank * self.geom.rows_per_bank as u64 + row;
        let addr = self.geom.encode(&self.geom.addr_from_rank_row_index(0, 0, idx));
        TraceEntry { bubbles: 0, addr, is_write: false }
    }
}

// --------------------------------------------------------------- combinators

/// Rotates between child streams in runs of `len` accesses (`len` 1 is
/// a pure interleave).
pub(crate) struct Burst {
    children: Vec<Box<dyn TraceSource>>,
    len: u32,
    idx: usize,
    pos: u32,
}

impl Burst {
    /// Emits `len` consecutive accesses from each child before rotating.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or `len` is zero.
    pub(crate) fn new(children: Vec<Box<dyn TraceSource>>, len: u32) -> Self {
        assert!(!children.is_empty(), "burst needs at least one child");
        assert!(len > 0, "burst length must be nonzero");
        Self { children, len, idx: 0, pos: 0 }
    }
}

impl TraceSource for Burst {
    fn next_entry(&mut self) -> TraceEntry {
        let e = self.children[self.idx].next_entry();
        self.pos += 1;
        if self.pos == self.len {
            self.pos = 0;
            self.idx = (self.idx + 1) % self.children.len();
        }
        e
    }
}

/// Replaces a fraction of the inner accesses with random-row decoys,
/// diluting what a tracker's sampled or cached state can learn.
pub(crate) struct Decoy {
    inner: Box<dyn TraceSource>,
    noise: RandomRows,
    pct: u8,
    rng: Xoshiro256,
}

impl Decoy {
    /// With probability `pct`% an access is a decoy instead of the inner
    /// stream's next access (the inner stream is *not* advanced on decoy
    /// accesses, so its shape survives dilution).
    ///
    /// # Panics
    ///
    /// Panics if `pct > 100`.
    pub(crate) fn new(inner: Box<dyn TraceSource>, pct: u8, geom: Geometry, seed: u64) -> Self {
        assert!(pct <= 100, "decoy percentage {pct} > 100");
        Self {
            inner,
            noise: RandomRows::new(geom, seed ^ 0xDEC0_0002),
            pct,
            rng: Xoshiro256::seed_from(seed ^ 0xDEC0_0001),
        }
    }
}

impl TraceSource for Decoy {
    fn next_entry(&mut self) -> TraceEntry {
        if self.rng.gen_range(100) < self.pct as u64 {
            self.noise.next_entry()
        } else {
            self.inner.next_entry()
        }
    }
}

/// Alternates between the attack stream and an innocuous cover stream —
/// hammering in pulses to ride under decay/reset windows.
pub(crate) struct Feint {
    inner: Box<dyn TraceSource>,
    cover: Box<dyn TraceSource>,
    on: u32,
    off: u32,
    pos: u32,
}

impl Feint {
    /// `on` attack accesses, then `off` cover accesses, repeating.
    ///
    /// # Panics
    ///
    /// Panics if `on` or `off` is zero.
    pub(crate) fn new(
        inner: Box<dyn TraceSource>,
        cover: Box<dyn TraceSource>,
        on: u32,
        off: u32,
    ) -> Self {
        assert!(on > 0 && off > 0, "feint phases must be nonzero");
        Self { inner, cover, on, off, pos: 0 }
    }
}

impl TraceSource for Feint {
    fn next_entry(&mut self) -> TraceEntry {
        let period = self.on + self.off;
        let in_attack = self.pos < self.on;
        self.pos = (self.pos + 1) % period;
        if in_attack {
            self.inner.next_entry()
        } else {
            self.cover.next_entry()
        }
    }
}

/// Inserts compute bubbles between accesses, pacing the attack below
/// throttling thresholds (BlockHammer) or a target ACT rate.
pub(crate) struct RateLimit {
    inner: Box<dyn TraceSource>,
    bubbles: u32,
}

impl RateLimit {
    /// Adds `bubbles` non-memory instructions before every inner access.
    pub(crate) fn new(inner: Box<dyn TraceSource>, bubbles: u32) -> Self {
        Self { inner, bubbles }
    }
}

impl TraceSource for RateLimit {
    fn next_entry(&mut self) -> TraceEntry {
        let mut e = self.inner.next_entry();
        e.bubbles += self.bubbles;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::addr::PhysAddr;
    use workloads::{Attack, LineStream, RowSweep, SweepOrder};

    fn geom() -> Geometry {
        Geometry::paper_baseline()
    }

    fn rows_of(p: &mut dyn TraceSource, n: usize) -> Vec<u64> {
        (0..n).map(|_| p.next_entry().addr.0).collect()
    }

    fn hammer(addr: PhysAddr) -> Box<dyn TraceSource> {
        Box::new(HammerRows::new(vec![addr]))
    }

    #[test]
    fn patterns_replay_deterministically() {
        let g = geom();
        let mk = || -> Box<dyn TraceSource> {
            Box::new(Decoy::new(
                Box::new(Burst::new(
                    vec![
                        Box::new(random_hammer_set(g, 8, 4, 1)),
                        Box::new(RowSweep::new(g, 16, 4096, SweepOrder::Diagonal)),
                    ],
                    5,
                )),
                20,
                g,
                9,
            ))
        };
        assert_eq!(rows_of(&mut *mk(), 5000), rows_of(&mut *mk(), 5000));
    }

    #[test]
    fn burst_rotates_in_runs() {
        let (pa, pb) = (PhysAddr(64), PhysAddr(1 << 20));
        let mut p = Burst::new(vec![hammer(pa), hammer(pb)], 3);
        let seq = rows_of(&mut p, 12);
        let (pa, pb) = (pa.0, pb.0);
        assert_eq!(seq, vec![pa, pa, pa, pb, pb, pb, pa, pa, pa, pb, pb, pb]);
    }

    #[test]
    fn interleave_alternates_every_access() {
        let (pa, pb) = (PhysAddr(64), PhysAddr(128));
        let mut p = Burst::new(vec![hammer(pa), hammer(pb)], 1);
        let seq = rows_of(&mut p, 6);
        let (pa, pb) = (pa.0, pb.0);
        assert_eq!(seq, vec![pa, pb, pa, pb, pa, pb]);
    }

    #[test]
    fn rate_limit_adds_bubbles() {
        let mut p = RateLimit::new(Attack::Streaming.trace(geom(), 1), 7);
        for _ in 0..100 {
            assert_eq!(p.next_entry().bubbles, 7);
        }
    }

    #[test]
    fn decoy_fraction_tracks_percentage() {
        let g = geom();
        let base = RowSweep::new(g, 1, 1, SweepOrder::Diagonal);
        let base_addr = base.clone().next_entry().addr.0;
        let mut p = Decoy::new(Box::new(base), 30, g, 77);
        let n = 20_000;
        let decoys = (0..n).filter(|_| p.next_entry().addr.0 != base_addr).count();
        let frac = decoys as f64 / n as f64;
        assert!((frac - 0.30).abs() < 0.02, "decoy fraction {frac}");
    }

    #[test]
    fn feint_pulses_between_attack_and_cover() {
        let pa = PhysAddr(5 << 20);
        let mut p = Feint::new(hammer(pa), Box::new(LineStream::new(16, 0)), 4, 2);
        let seq = rows_of(&mut p, 12);
        let attack_hits = seq.iter().filter(|&&x| x == pa.0).count();
        assert_eq!(attack_hits, 8, "4 of every 6 accesses are attack accesses");
        assert_eq!(&seq[0..4], &[pa.0; 4]);
        assert_ne!(seq[4], pa.0);
    }

    #[test]
    fn sweeps_and_hammers_avoid_reserved_rows() {
        let g = geom();
        let mut pats: Vec<Box<dyn TraceSource>> = vec![
            Attack::Streaming.trace(g, 1),
            Box::new(RowSweep::new(g, 32, 1000, SweepOrder::Diagonal)),
            Box::new(random_hammer_set(g, 32, 8, 3)),
            Box::new(RandomRows::new(g, 4)),
        ];
        for (i, p) in pats.iter_mut().enumerate() {
            for _ in 0..2000 {
                let d = g.decode(p.next_entry().addr);
                assert!(d.row < g.rows_per_bank - RESERVED_TOP_ROWS, "stream {i}");
            }
        }
    }
}

//! The composable attack-pattern engine.
//!
//! A [`PatternGen`] produces the attacker core's access stream one
//! [`TraceEntry`] at a time. Primitives generate base shapes
//! ([`RowSweep`], [`HammerRows`], [`LineStream`], [`RandomRows`]) and
//! combinators wrap any pattern into a richer one ([`Burst`], [`Decoy`],
//! [`Feint`], [`RateLimit`]) — the SWAGE idea of a
//! trait-per-stage attack pipeline, adapted from real-machine hammering to
//! the simulator's trace interface. Every generator is deterministic given
//! its construction parameters, so a scenario re-run from the same seed
//! replays bit-identically.
//!
//! The fixed [`workloads::Attack`] patterns are all expressible here; see
//! [`crate::scenario::ScenarioSpec::build`] for the exact reconstructions.

use cpu::{TraceEntry, TraceSource};
use sim_core::addr::{DramAddr, Geometry, PhysAddr};
use sim_core::rng::Xoshiro256;

/// Rows at the top of every bank reserved for tracker metadata; attack
/// generators stay clear of them (mirrors the legacy `Attack` behaviour).
pub(crate) const RESERVED_TOP_ROWS: u32 = 64;

/// An endless, deterministic attack access stream.
pub(crate) trait PatternGen: Send {
    /// Produces the next access of the attack.
    fn next_access(&mut self) -> TraceEntry;

    /// Compact structural description, e.g.
    /// `rate(4, decoy(10%, sweep(32b x64)))`.
    fn describe(&self) -> String;
}

/// A boxed pattern, the unit the combinators compose over.
pub(crate) type BoxPattern = Box<dyn PatternGen>;

impl PatternGen for BoxPattern {
    fn next_access(&mut self) -> TraceEntry {
        (**self).next_access()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// Adapts a pattern to the [`cpu::TraceSource`] the attacker core runs.
pub(crate) struct PatternTrace(pub(crate) BoxPattern);

impl std::fmt::Debug for PatternTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PatternTrace({})", self.0.describe())
    }
}

impl TraceSource for PatternTrace {
    fn next_entry(&mut self) -> TraceEntry {
        self.0.next_access()
    }
}

fn read(geom: &Geometry, addr: DramAddr) -> TraceEntry {
    TraceEntry { bubbles: 0, addr: geom.encode(&addr), is_write: false }
}

// ---------------------------------------------------------------- primitives

/// How [`RowSweep`] orders its walk over the row space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepOrder {
    /// Banks innermost; rows advance with the given stride so consecutive
    /// activations touch distinct counter *lines* (the order that defeats
    /// line-granularity counter caching — START's attack).
    LineStride(u32),
    /// Bank and row advance together (`bank = k % banks`,
    /// `row = k % span`), giving a distinct row ID on every activation —
    /// ABACuS's spillover order.
    Diagonal,
}

/// Walks rows of one rank across a set of banks — the streaming family.
#[derive(Debug, Clone)]
pub(crate) struct RowSweep {
    geom: Geometry,
    rank: u8,
    banks: u64,
    span: u64,
    order: SweepOrder,
    step: u64,
}

impl RowSweep {
    /// Sweeps `banks` banks (from bank 0) over `span` rows per bank.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `span` is zero or exceeds the geometry.
    pub(crate) fn new(geom: Geometry, rank: u8, banks: u32, span: u32, order: SweepOrder) -> Self {
        assert!(banks >= 1 && banks <= geom.banks_per_rank(), "banks {banks} out of range");
        assert!(span >= 1 && span <= geom.rows_per_bank - RESERVED_TOP_ROWS, "span {span}");
        if let SweepOrder::LineStride(s) = order {
            assert!(s >= 1, "stride must be nonzero");
        }
        Self { geom, rank, banks: banks as u64, span: span as u64, order, step: 0 }
    }

    /// The full-rank sweep of the paper's streaming / START attacks.
    pub(crate) fn paper_streaming(geom: Geometry) -> Self {
        Self::new(
            geom,
            0,
            geom.banks_per_rank(),
            geom.rows_per_bank - RESERVED_TOP_ROWS,
            SweepOrder::LineStride(64),
        )
    }
}

impl PatternGen for RowSweep {
    fn next_access(&mut self) -> TraceEntry {
        let step = self.step;
        self.step = self.step.wrapping_add(1);
        let (bank, row) = match self.order {
            SweepOrder::LineStride(stride) => {
                let stride = stride as u64;
                let bank = step % self.banks;
                let k = step / self.banks;
                let strides = (self.span / stride).max(1);
                let row = (k % strides) * stride + (k / strides) % stride;
                (bank, row % self.span)
            }
            SweepOrder::Diagonal => (step % self.banks, step % self.span),
        };
        let idx = bank * self.geom.rows_per_bank as u64 + row;
        read(&self.geom, self.geom.addr_from_rank_row_index(0, self.rank, idx))
    }

    fn describe(&self) -> String {
        let order = match self.order {
            SweepOrder::LineStride(s) => format!("stride{s}"),
            SweepOrder::Diagonal => "diag".into(),
        };
        format!("sweep({}b x{} {})", self.banks, self.span, order)
    }
}

/// Cycles a fixed aggressor set — the hammer family (Hydra RCC thrash,
/// CoMeT RAT overflow, the refresh attack).
#[derive(Debug, Clone)]
pub(crate) struct HammerRows {
    geom: Geometry,
    rows: Vec<DramAddr>,
    step: u64,
}

impl HammerRows {
    /// Hammers the given rows round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub(crate) fn new(geom: Geometry, rows: Vec<DramAddr>) -> Self {
        assert!(!rows.is_empty(), "hammer set must be non-empty");
        Self { geom, rows, step: 0 }
    }

    /// A seed-deterministic aggressor set: `per_bank` rows in each of
    /// `banks` banks of rank 0, rows drawn uniformly below the reserved
    /// region.
    pub(crate) fn random_set(geom: Geometry, banks: u32, per_bank: u32, seed: u64) -> Self {
        let banks = banks.clamp(1, geom.banks_per_rank());
        let per_bank = per_bank.max(1);
        let mut rng = Xoshiro256::seed_from(seed ^ 0x4A3A_11AB);
        let mut rows = Vec::with_capacity((banks * per_bank) as usize);
        for b in 0..banks as u64 {
            for _ in 0..per_bank {
                let row = rng.gen_range((geom.rows_per_bank - RESERVED_TOP_ROWS) as u64);
                rows.push(geom.addr_from_rank_row_index(0, 0, b * geom.rows_per_bank as u64 + row));
            }
        }
        rng.shuffle(&mut rows);
        Self::new(geom, rows)
    }
}

impl PatternGen for HammerRows {
    fn next_access(&mut self) -> TraceEntry {
        let a = self.rows[(self.step % self.rows.len() as u64) as usize];
        self.step = self.step.wrapping_add(1);
        read(&self.geom, a)
    }

    fn describe(&self) -> String {
        format!("hammer({}rows)", self.rows.len())
    }
}

/// Streams cache lines through the LLC — the cache-thrashing shape.
#[derive(Debug, Clone)]
pub(crate) struct LineStream {
    lines: u64,
    bubbles: u32,
    step: u64,
}

impl LineStream {
    /// Streams `lines` consecutive 64-byte lines round and round, with
    /// `bubbles` compute instructions between accesses.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub(crate) fn new(lines: u64, bubbles: u32) -> Self {
        assert!(lines > 0, "line stream needs at least one line");
        Self { lines, bubbles, step: 0 }
    }

    /// The paper's 64 MB cache-thrashing stream.
    pub(crate) fn paper_thrash() -> Self {
        Self::new((64 << 20) / 64, 6)
    }
}

impl PatternGen for LineStream {
    fn next_access(&mut self) -> TraceEntry {
        let line = self.step % self.lines;
        self.step = self.step.wrapping_add(1);
        TraceEntry { bubbles: self.bubbles, addr: PhysAddr(line * 64), is_write: false }
    }

    fn describe(&self) -> String {
        format!("lines({}k b{})", self.lines / 1024, self.bubbles)
    }
}

/// Uniformly random rows of one rank — pure mapping-agnostic noise.
#[derive(Debug, Clone)]
struct RandomRows {
    geom: Geometry,
    rank: u8,
    rng: Xoshiro256,
}

impl RandomRows {
    /// Draws rows uniformly below the reserved region.
    fn new(geom: Geometry, rank: u8, seed: u64) -> Self {
        Self { geom, rank, rng: Xoshiro256::seed_from(seed ^ 0xDEC0_7101) }
    }
}

impl PatternGen for RandomRows {
    fn next_access(&mut self) -> TraceEntry {
        let banks = self.geom.banks_per_rank() as u64;
        let bank = self.rng.gen_range(banks);
        let row = self.rng.gen_range((self.geom.rows_per_bank - RESERVED_TOP_ROWS) as u64);
        let idx = bank * self.geom.rows_per_bank as u64 + row;
        read(&self.geom, self.geom.addr_from_rank_row_index(0, self.rank, idx))
    }

    fn describe(&self) -> String {
        "random".into()
    }
}

// --------------------------------------------------------------- combinators

/// Rotates between child patterns in runs of `len` accesses (`len` 1 is
/// a pure interleave).
pub(crate) struct Burst {
    children: Vec<BoxPattern>,
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
    pub(crate) fn new(children: Vec<BoxPattern>, len: u32) -> Self {
        assert!(!children.is_empty(), "burst needs at least one child");
        assert!(len > 0, "burst length must be nonzero");
        Self { children, len, idx: 0, pos: 0 }
    }
}

impl PatternGen for Burst {
    fn next_access(&mut self) -> TraceEntry {
        let e = self.children[self.idx].next_access();
        self.pos += 1;
        if self.pos == self.len {
            self.pos = 0;
            self.idx = (self.idx + 1) % self.children.len();
        }
        e
    }

    fn describe(&self) -> String {
        let inner: Vec<String> = self.children.iter().map(|c| c.describe()).collect();
        format!("burst({}x {})", self.len, inner.join(", "))
    }
}

/// Replaces a fraction of the inner accesses with random-row decoys,
/// diluting what a tracker's sampled or cached state can learn.
pub(crate) struct Decoy {
    inner: BoxPattern,
    noise: RandomRows,
    pct: u8,
    rng: Xoshiro256,
}

impl Decoy {
    /// With probability `pct`% an access is a decoy instead of the inner
    /// pattern's next access (the inner pattern is *not* advanced on decoy
    /// accesses, so its shape survives dilution).
    ///
    /// # Panics
    ///
    /// Panics if `pct > 100`.
    pub(crate) fn new(inner: BoxPattern, pct: u8, geom: Geometry, seed: u64) -> Self {
        assert!(pct <= 100, "decoy percentage {pct} > 100");
        Self {
            inner,
            noise: RandomRows::new(geom, 0, seed ^ 0xDEC0_0002),
            pct,
            rng: Xoshiro256::seed_from(seed ^ 0xDEC0_0001),
        }
    }
}

impl PatternGen for Decoy {
    fn next_access(&mut self) -> TraceEntry {
        if self.rng.gen_range(100) < self.pct as u64 {
            self.noise.next_access()
        } else {
            self.inner.next_access()
        }
    }

    fn describe(&self) -> String {
        format!("decoy({}%, {})", self.pct, self.inner.describe())
    }
}

/// Alternates between the attack pattern and an innocuous cover pattern —
/// hammering in pulses to ride under decay/reset windows.
pub(crate) struct Feint {
    inner: BoxPattern,
    cover: BoxPattern,
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
    pub(crate) fn new(inner: BoxPattern, cover: BoxPattern, on: u32, off: u32) -> Self {
        assert!(on > 0 && off > 0, "feint phases must be nonzero");
        Self { inner, cover, on, off, pos: 0 }
    }
}

impl PatternGen for Feint {
    fn next_access(&mut self) -> TraceEntry {
        let period = self.on + self.off;
        let in_attack = self.pos < self.on;
        self.pos = (self.pos + 1) % period;
        if in_attack {
            self.inner.next_access()
        } else {
            self.cover.next_access()
        }
    }

    fn describe(&self) -> String {
        format!("feint({}on/{}off, {})", self.on, self.off, self.inner.describe())
    }
}

/// Inserts compute bubbles between accesses, pacing the attack below
/// throttling thresholds (BlockHammer) or a target ACT rate.
pub(crate) struct RateLimit {
    inner: BoxPattern,
    bubbles: u32,
}

impl RateLimit {
    /// Adds `bubbles` non-memory instructions before every inner access.
    pub(crate) fn new(inner: BoxPattern, bubbles: u32) -> Self {
        Self { inner, bubbles }
    }
}

impl PatternGen for RateLimit {
    fn next_access(&mut self) -> TraceEntry {
        let mut e = self.inner.next_access();
        e.bubbles += self.bubbles;
        e
    }

    fn describe(&self) -> String {
        format!("rate({}, {})", self.bubbles, self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::paper_baseline()
    }

    fn rows_of(p: &mut dyn PatternGen, n: usize) -> Vec<u64> {
        (0..n).map(|_| p.next_access().addr.0).collect()
    }

    #[test]
    fn patterns_replay_deterministically() {
        let g = geom();
        let mk = || -> BoxPattern {
            Box::new(Decoy::new(
                Box::new(Burst::new(
                    vec![
                        Box::new(HammerRows::random_set(g, 8, 4, 1)) as BoxPattern,
                        Box::new(RowSweep::new(g, 0, 16, 4096, SweepOrder::Diagonal)),
                    ],
                    5,
                )),
                20,
                g,
                9,
            ))
        };
        assert_eq!(rows_of(&mut mk(), 5000), rows_of(&mut mk(), 5000));
    }

    #[test]
    fn burst_rotates_in_runs() {
        let g = geom();
        let a = geom().addr_from_rank_row_index(0, 0, 10);
        let b = geom().addr_from_rank_row_index(0, 0, 999);
        let mut p = Burst::new(
            vec![
                Box::new(HammerRows::new(g, vec![a])) as BoxPattern,
                Box::new(HammerRows::new(g, vec![b])),
            ],
            3,
        );
        let seq = rows_of(&mut p, 12);
        let (pa, pb) = (g.encode(&a).0, g.encode(&b).0);
        assert_eq!(seq, vec![pa, pa, pa, pb, pb, pb, pa, pa, pa, pb, pb, pb]);
    }

    #[test]
    fn interleave_alternates_every_access() {
        let g = geom();
        let a = g.addr_from_rank_row_index(0, 0, 1);
        let b = g.addr_from_rank_row_index(0, 0, 2);
        let children: Vec<BoxPattern> =
            vec![Box::new(HammerRows::new(g, vec![a])), Box::new(HammerRows::new(g, vec![b]))];
        let mut p = Burst::new(children, 1);
        let seq = rows_of(&mut p, 6);
        let (pa, pb) = (g.encode(&a).0, g.encode(&b).0);
        assert_eq!(seq, vec![pa, pb, pa, pb, pa, pb]);
    }

    #[test]
    fn rate_limit_adds_bubbles() {
        let g = geom();
        let mut p = RateLimit::new(Box::new(RowSweep::paper_streaming(g)), 7);
        for _ in 0..100 {
            assert_eq!(p.next_access().bubbles, 7);
        }
    }

    #[test]
    fn decoy_fraction_tracks_percentage() {
        let g = geom();
        let base = RowSweep::new(g, 0, 1, 1, SweepOrder::Diagonal);
        let base_addr = {
            let mut b = base.clone();
            b.next_access().addr.0
        };
        let mut p = Decoy::new(Box::new(base), 30, g, 77);
        let n = 20_000;
        let decoys = (0..n).filter(|_| p.next_access().addr.0 != base_addr).count();
        let frac = decoys as f64 / n as f64;
        assert!((frac - 0.30).abs() < 0.02, "decoy fraction {frac}");
    }

    #[test]
    fn feint_pulses_between_attack_and_cover() {
        let g = geom();
        let a = g.addr_from_rank_row_index(0, 0, 5);
        let mut p = Feint::new(
            Box::new(HammerRows::new(g, vec![a])),
            Box::new(LineStream::new(16, 0)),
            4,
            2,
        );
        let pa = g.encode(&a).0;
        let seq = rows_of(&mut p, 12);
        let attack_hits = seq.iter().filter(|&&x| x == pa).count();
        assert_eq!(attack_hits, 8, "4 of every 6 accesses are attack accesses");
        assert_eq!(&seq[0..4], &[pa; 4]);
        assert_ne!(seq[4], pa);
    }

    #[test]
    fn sweeps_and_hammers_avoid_reserved_rows() {
        let g = geom();
        let mut pats: Vec<BoxPattern> = vec![
            Box::new(RowSweep::paper_streaming(g)),
            Box::new(RowSweep::new(g, 0, 32, 1000, SweepOrder::Diagonal)),
            Box::new(HammerRows::random_set(g, 32, 8, 3)),
            Box::new(RandomRows::new(g, 0, 4)),
        ];
        for p in &mut pats {
            for _ in 0..2000 {
                let d = g.decode(p.next_access().addr);
                assert!(d.row < g.rows_per_bank - RESERVED_TOP_ROWS, "{}", p.describe());
            }
        }
    }

    #[test]
    fn describe_nests() {
        let g = geom();
        let p = RateLimit::new(
            Box::new(Decoy::new(Box::new(RowSweep::paper_streaming(g)), 10, g, 1)),
            2,
        );
        assert_eq!(p.describe(), "rate(2, decoy(10%, sweep(32b x65472 stride64)))");
    }
}

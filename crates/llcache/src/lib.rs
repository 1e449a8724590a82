//! Shared last-level cache model.
//!
//! A set-associative cache with LRU or random replacement and **way
//! reservation**: START dedicates half of the LLC ways to RowHammer
//! counters, shrinking the effective capacity seen by demand accesses
//! (Section III-A of the paper). Reserved ways are simply excluded from the
//! demand lookup; the START tracker models the counter contents itself, so
//! the model stores demand ways only.
//!
//! The model is hit/miss + writeback only (no MSHRs): the core model bounds
//! outstanding misses through its instruction window, which is the same
//! abstraction Ramulator's OoO frontend uses.
//!
//! # Representation
//!
//! Five bytes per demand line, 640 KiB for the paper's 8 MiB, 16-way LLC:
//!
//! * **Line word** (4 B): a valid bit and a dirty bit under a 30-bit tag
//!   ([`TAG_BITS`]). A tag is a line address (byte address `>> 6`) divided
//!   by the set count, so an LLC of `sets` sets tags every byte address
//!   below `sets << 36`: 512 TiB for the paper LLC's 8192 sets, against
//!   the 256 GiB of the largest simulated geometry. [`Llc::covers`] says
//!   whether an address space fits; an access whose tag does not fit
//!   panics rather than alias. A zero word is an invalid line.
//! * **Recency rank** (1 B): 0 for the set's most recently used line, 1 for
//!   the next, and so on. Touching a line gives it rank 0 and moves every
//!   line that was more recent than it down one rank.
//!
//! Both live in zero-allocated vectors, so building a cache writes nothing
//! and the host faults pages in only as sets are touched.
//!
//! LRU stays exact. Lines are never invalidated and a miss fills the first
//! invalid way, so a set's valid lines are a prefix of its ways and the set
//! is full when its last word is valid. The ranks of a set's `n` valid
//! lines are then always `0..n` in the order of their last touch, which is
//! the order a per-line 64-bit access stamp gives: the victim of a full set,
//! the line ranked last, is the line with the oldest stamp. Random
//! replacement draws the same way index from the same generator.
//!
//! # Example
//!
//! ```
//! use llcache::{Llc, LookupResult};
//! use sim_core::config::LlcConfig;
//!
//! let mut llc = Llc::new(LlcConfig::paper_baseline(), 1);
//! match llc.access(0x4000, false) {
//!     LookupResult::Miss { writeback: None } => {}
//!     other => panic!("cold access must miss cleanly: {other:?}"),
//! }
//! assert!(matches!(llc.access(0x4000, false), LookupResult::Hit));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sim_core::config::LlcConfig;
use sim_core::rng::Xoshiro256;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present.
    Hit,
    /// Line absent; if a dirty victim was evicted its line address is
    /// returned so the caller can issue a writeback.
    Miss {
        /// Dirty victim to write back, if any.
        writeback: Option<u64>,
    },
}

/// Valid bit of a line word.
const VALID: u32 = 1;
/// Dirty bit of a line word.
const DIRTY: u32 = 2;
/// The tag sits above the two flag bits.
const TAG_SHIFT: u32 = 2;
/// Bits of a line word that hold the tag.
pub const TAG_BITS: u32 = u32::BITS - TAG_SHIFT;

/// Replacement policy for demand ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used (default).
    Lru,
    /// Uniform random victim.
    Random,
}

/// The shared LLC.
#[derive(Debug, Clone)]
pub struct Llc {
    cfg: LlcConfig,
    sets: u64,
    /// Demand ways per set.
    demand: usize,
    /// One line word per demand line, `demand` per set.
    words: Vec<u32>,
    /// One recency rank per demand line (meaningless for invalid lines).
    ranks: Vec<u8>,
    policy: Replacement,
    rng: Xoshiro256,
    hits: u64,
    misses: u64,
}

impl Llc {
    /// Creates an empty cache. `seed` drives random replacement only.
    ///
    /// # Panics
    ///
    /// Panics if the configuration reserves every way or leaves more than
    /// 256 demand ways.
    pub fn new(cfg: LlcConfig, seed: u64) -> Self {
        assert!(cfg.reserved_ways < cfg.ways, "at least one way must remain for demand accesses");
        let demand = (cfg.ways - cfg.reserved_ways) as usize;
        assert!(demand <= 256, "at most 256 demand ways fit a one-byte rank");
        let sets = cfg.sets();
        let lines = sets as usize * demand;
        Self {
            cfg,
            sets,
            demand,
            words: vec![0; lines],
            ranks: vec![0; lines],
            policy: Replacement::Lru,
            rng: Xoshiro256::seed_from(seed),
            hits: 0,
            misses: 0,
        }
    }

    /// Switches the replacement policy.
    pub fn with_policy(mut self, policy: Replacement) -> Self {
        self.policy = policy;
        self
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &LlcConfig {
        &self.cfg
    }

    /// Demand ways available per set.
    pub fn demand_ways(&self) -> u16 {
        self.cfg.ways - self.cfg.reserved_ways
    }

    /// (hits, misses) since construction.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Demand-access hit rate; 0.0 before any access.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// True when the tag of every byte address below `bytes` fits a line
    /// word, so no access into that address space can panic.
    pub fn covers(&self, bytes: u64) -> bool {
        let top_line = bytes.saturating_sub(1) >> 6;
        (top_line / self.sets) >> TAG_BITS == 0
    }

    /// Looks up the 64-byte line containing byte address `addr` (demand
    /// access), allocating on miss. `is_write` marks the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> LookupResult {
        let line_addr = addr >> 6;
        self.access_line(line_addr, is_write)
    }

    /// Looks up by line address directly.
    pub fn access_line(&mut self, line_addr: u64, is_write: bool) -> LookupResult {
        let set = line_addr % self.sets;
        let tag = line_addr / self.sets;
        assert!(tag >> TAG_BITS == 0, "tag {tag:#x} does not fit a line word");
        let key = (tag as u32) << TAG_SHIFT | VALID;
        let dirty = if is_write { DIRTY } else { 0 };
        let d = self.demand;
        let base = set as usize * d;
        let words = &mut self.words[base..base + d];
        let ranks = &mut self.ranks[base..base + d];

        // Hit path: scan the demand ways (a zero word never matches).
        if let Some(way) = words.iter().position(|&w| w & !DIRTY == key) {
            words[way] |= dirty;
            touch(ranks, way, ranks[way]);
            self.hits += 1;
            return LookupResult::Hit;
        }
        self.misses += 1;

        // Miss: fill the first invalid way, ranked behind every valid line,
        // else evict one.
        let (way, rank) = if words[d - 1] == 0 {
            let free = words.iter().position(|&w| w == 0).expect("the last way is free");
            (free, free as u8)
        } else {
            match self.policy {
                Replacement::Lru => {
                    let last = (d - 1) as u8;
                    let way = ranks.iter().position(|&r| r == last);
                    (way.expect("a full set ranks every way"), last)
                }
                Replacement::Random => {
                    let way = self.rng.gen_range(d as u64) as usize;
                    (way, ranks[way])
                }
            }
        };
        let victim = words[way];
        let writeback =
            (victim & DIRTY != 0).then(|| u64::from(victim >> TAG_SHIFT) * self.sets + set);
        words[way] = key | dirty;
        touch(ranks, way, rank);
        LookupResult::Miss { writeback }
    }
}

/// Makes `way`, ranked `rank`, a set's most recently used line: every
/// line ranked ahead of it moves down one. Runs over whole 16-byte chunks
/// so the compiler can vectorize it; invalid lines' ranks may move too,
/// but never past `rank`.
#[inline]
fn touch(ranks: &mut [u8], way: usize, rank: u8) {
    let mut chunks = ranks.chunks_exact_mut(16);
    for chunk in &mut chunks {
        for r in chunk {
            *r += (*r < rank) as u8;
        }
    }
    for r in chunks.into_remainder() {
        *r += (*r < rank) as u8;
    }
    ranks[way] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::addr::Geometry;
    use sim_core::config::LlcConfig;

    fn small_cfg(reserved: u16) -> LlcConfig {
        // 4 sets x 4 ways x 64 B = 1 KB.
        LlcConfig { capacity_bytes: 1024, ways: 4, line_bytes: 64, reserved_ways: reserved }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = Llc::new(small_cfg(0), 0);
        assert!(matches!(c.access(0x100, false), LookupResult::Miss { .. }));
        assert_eq!(c.access(0x100, false), LookupResult::Hit);
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Llc::new(small_cfg(0), 0);
        // Lines 0,4,8,12 all map to set 0 (4 sets).
        for i in 0..4u64 {
            c.access_line(i * 4, false);
        }
        // Touch line 0 so line 4 becomes LRU.
        c.access_line(0, false);
        // Insert a fifth line; line 4 must be evicted.
        c.access_line(16, false);
        assert_eq!(c.access_line(0, false), LookupResult::Hit);
        assert!(matches!(c.access_line(4, false), LookupResult::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Llc::new(small_cfg(0), 0);
        c.access_line(0, true); // dirty
        for i in 1..=4u64 {
            let r = c.access_line(i * 4, false);
            if i == 4 {
                assert_eq!(r, LookupResult::Miss { writeback: Some(0) });
            }
        }
    }

    #[test]
    fn reservation_shrinks_capacity() {
        let mut full = Llc::new(small_cfg(0), 0);
        let mut half = Llc::new(small_cfg(2), 0);
        // Working set of 4 lines in one set: fits in 4 ways, not in 2.
        for round in 0..3 {
            for i in 0..4u64 {
                let rf = full.access_line(i * 4, false);
                let rh = half.access_line(i * 4, false);
                if round > 0 {
                    assert_eq!(rf, LookupResult::Hit);
                    assert!(matches!(rh, LookupResult::Miss { .. }));
                }
            }
        }
        assert!(half.hit_rate() < full.hit_rate());
    }

    #[test]
    fn paper_llc_has_8192_sets() {
        let c = Llc::new(LlcConfig::paper_baseline(), 0);
        assert_eq!(c.config().sets(), 8192);
        assert_eq!(c.demand_ways(), 16);
    }

    #[test]
    fn random_policy_still_caches() {
        let mut c = Llc::new(small_cfg(0), 7).with_policy(Replacement::Random);
        c.access_line(0, false);
        assert_eq!(c.access_line(0, false), LookupResult::Hit);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn reserving_all_ways_panics() {
        let _ = Llc::new(small_cfg(4), 0);
    }

    /// The paper LLC's line state is five bytes a line, 640 KiB, where
    /// 24-byte lines cost 3 MiB: a field that re-inflates a line fails here.
    #[test]
    fn paper_llc_state_fits_its_budget() {
        let c = Llc::new(LlcConfig::paper_baseline(), 0);
        let bytes = std::mem::size_of_val(&*c.words) + std::mem::size_of_val(&*c.ranks);
        assert!(bytes <= 640 << 10, "{bytes} B of line state");
    }

    /// The top line of the eight-channel geometry's 256 GiB space, in the
    /// smallest LLCs a cell builds there (START's half of the baseline's
    /// ways; 1 MiB per core), fills, hits, is evicted dirty and refills as
    /// the line model says; `covers` holds from four sets up, the fewest
    /// whose tags reach that space's 2^32 lines.
    #[test]
    fn top_of_the_eight_channel_space_matches_the_line_model() {
        let space = Geometry::enlarged_8ch().capacity_bytes();
        let base = LlcConfig::paper_baseline();
        for cfg in [
            LlcConfig { reserved_ways: base.ways / 2, ..base },
            LlcConfig { capacity_bytes: 4 << 20, ..base },
        ] {
            let mut fast = Llc::new(cfg, 5);
            let mut oracle = line_model::Llc::new(cfg, 5);
            assert!(fast.covers(space), "{cfg:?}");
            let (sets, demand) = (cfg.sets(), fast.demand_ways() as u64);
            let top = (space >> 6) - 1;
            // Write the top line, then fill its set with `demand` other
            // lines (the last evicts it dirty), then read it back.
            let conflicts = (1..=demand).map(|k| top - k * sets);
            let order: Vec<u64> = [top, top].into_iter().chain(conflicts).chain([top]).collect();
            let mut want = vec![LookupResult::Miss { writeback: None }, LookupResult::Hit];
            want.extend((1..demand).map(|_| LookupResult::Miss { writeback: None }));
            want.push(LookupResult::Miss { writeback: Some(top) });
            want.push(LookupResult::Miss { writeback: None });
            for (i, (&line, want)) in order.iter().zip(&want).enumerate() {
                let is_write = i == 1;
                let got = fast.access_line(line, is_write);
                assert_eq!(got, oracle.access_line(line, is_write), "access {i}: {cfg:?}");
                assert_eq!(got, *want, "access {i} (line {line:#x}): {cfg:?}");
            }
            assert_eq!(fast.access(space - 64, false), LookupResult::Hit, "{cfg:?}");
        }
        let sets = |n: u64| LlcConfig { capacity_bytes: n * 16 * 64, ..base };
        assert!(Llc::new(sets(4), 0).covers(space));
        assert!(!Llc::new(sets(2), 0).covers(space));
    }

    /// The previous model, one 24-byte `Line` with a 64-bit LRU stamp per
    /// way, kept verbatim as the oracle for the compact one.
    mod line_model {
        use super::super::{LookupResult, Replacement};
        use sim_core::config::LlcConfig;
        use sim_core::rng::Xoshiro256;

        #[derive(Debug, Clone, Copy, Default)]
        struct Line {
            tag: u64,
            valid: bool,
            dirty: bool,
            lru: u64,
        }

        #[derive(Debug, Clone)]
        pub struct Llc {
            cfg: LlcConfig,
            sets: u64,
            lines: Vec<Line>,
            policy: Replacement,
            rng: Xoshiro256,
            tick: u64,
            hits: u64,
            misses: u64,
        }

        impl Llc {
            pub fn new(cfg: LlcConfig, seed: u64) -> Self {
                assert!(
                    cfg.reserved_ways < cfg.ways,
                    "at least one way must remain for demand accesses"
                );
                let sets = cfg.sets();
                Self {
                    cfg,
                    sets,
                    lines: vec![Line::default(); (sets * cfg.ways as u64) as usize],
                    policy: Replacement::Lru,
                    rng: Xoshiro256::seed_from(seed),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                }
            }

            pub fn with_policy(mut self, policy: Replacement) -> Self {
                self.policy = policy;
                self
            }

            pub fn hit_miss(&self) -> (u64, u64) {
                (self.hits, self.misses)
            }

            #[inline]
            fn set_index(&self, line_addr: u64) -> u64 {
                line_addr % self.sets
            }

            #[inline]
            fn tag(&self, line_addr: u64) -> u64 {
                line_addr / self.sets
            }

            pub fn access_line(&mut self, line_addr: u64, is_write: bool) -> LookupResult {
                self.tick += 1;
                let set = self.set_index(line_addr);
                let tag = self.tag(line_addr);
                let reserved = self.cfg.reserved_ways as usize;
                let ways = self.cfg.ways as usize;
                let base = (set * self.cfg.ways as u64) as usize;

                // Hit path: scan the demand ways.
                for w in reserved..ways {
                    let line = &mut self.lines[base + w];
                    if line.valid && line.tag == tag {
                        line.lru = self.tick;
                        line.dirty |= is_write;
                        self.hits += 1;
                        return LookupResult::Hit;
                    }
                }
                self.misses += 1;

                // Miss: find a victim among demand ways (invalid first).
                let victim_way = {
                    let mut invalid = None;
                    let mut lru_way = reserved;
                    let mut lru_min = u64::MAX;
                    for w in reserved..ways {
                        let line = &self.lines[base + w];
                        if !line.valid {
                            invalid = Some(w);
                            break;
                        }
                        if line.lru < lru_min {
                            lru_min = line.lru;
                            lru_way = w;
                        }
                    }
                    match (invalid, self.policy) {
                        (Some(w), _) => w,
                        (None, Replacement::Lru) => lru_way,
                        (None, Replacement::Random) => {
                            reserved + self.rng.gen_range((ways - reserved) as u64) as usize
                        }
                    }
                };

                let victim = self.lines[base + victim_way];
                let writeback = if victim.valid && victim.dirty {
                    // Reconstruct the victim's line address from tag and set.
                    Some(victim.tag * self.sets + set)
                } else {
                    None
                };
                self.lines[base + victim_way] =
                    Line { tag, valid: true, dirty: is_write, lru: self.tick };
                LookupResult::Miss { writeback }
            }
        }
    }

    /// Runs `accesses` seeded accesses through the compact model and the
    /// line model on every configuration and policy, requiring the same
    /// outcome for each access and the same final counts. Addresses come
    /// from a hot pool of a few sets' worth of lines (about twice what
    /// those sets hold) so hits, LRU evictions and dirty writebacks all
    /// occur, plus an occasional cold line anywhere in the cache.
    fn differential(seed: u64, accesses: usize) {
        let base = LlcConfig::paper_baseline();
        let configs = [
            base,
            small_cfg(0),
            LlcConfig { capacity_bytes: 8 * 8 * 64, ways: 8, line_bytes: 64, reserved_ways: 4 },
            LlcConfig { reserved_ways: 8, ..base },
        ];
        for cfg in configs {
            for policy in [Replacement::Lru, Replacement::Random] {
                let mut rng = Xoshiro256::seed_from(seed);
                let mut fast = Llc::new(cfg, seed).with_policy(policy);
                let mut oracle = line_model::Llc::new(cfg, seed).with_policy(policy);
                let sets = cfg.sets();
                let hot_sets = sets.min(4);
                let hot_tags = 2 * (cfg.ways - cfg.reserved_ways) as u64;
                let (mut hits, mut writebacks) = (0, 0);
                for i in 0..accesses {
                    let line = if rng.gen_range(16) == 0 {
                        rng.gen_range(sets * 1024)
                    } else {
                        rng.gen_range(hot_sets) + rng.gen_range(hot_tags) * sets
                    };
                    let is_write = rng.gen_range(3) == 0;
                    let got = fast.access_line(line, is_write);
                    let want = oracle.access_line(line, is_write);
                    assert_eq!(
                        got, want,
                        "access {i} (line {line:#x}, write {is_write}) diverged: {cfg:?} {policy:?} seed {seed}"
                    );
                    hits += (got == LookupResult::Hit) as u64;
                    writebacks += matches!(got, LookupResult::Miss { writeback: Some(_) }) as u64;
                }
                assert_eq!(fast.hit_miss(), oracle.hit_miss(), "{cfg:?} {policy:?} seed {seed}");
                assert!(hits > 0 && writebacks > 0, "stream too tame: {cfg:?} {policy:?}");
            }
        }
    }

    #[test]
    fn compact_model_matches_the_line_model() {
        for seed in 0..4 {
            differential(seed, 20_000);
        }
    }

    #[test]
    #[ignore = "long sweep; run with --ignored"]
    fn compact_model_matches_the_line_model_long_sweep() {
        for seed in 0..64 {
            differential(0x11c0_0000 + seed, 200_000);
        }
    }
}

// Property tests, run as deterministic seeded sweeps (the container has no
// crates.io access, so `proptest` is replaced by the workspace's own PRNG;
// the sampled space matches the original strategies).
#[cfg(test)]
mod proptests {
    use super::*;
    use sim_core::rng::Xoshiro256;

    /// A line just inserted must hit on an immediately repeated access.
    #[test]
    fn prop_insert_then_hit() {
        let mut rng = Xoshiro256::seed_from(0x11c0_0001);
        for _ in 0..64 {
            let mut c = Llc::new(
                sim_core::config::LlcConfig {
                    capacity_bytes: 16 * 1024,
                    ways: 8,
                    line_bytes: 64,
                    reserved_ways: 0,
                },
                1,
            );
            let n = 1 + rng.gen_range(199) as usize; // 1..200
            for _ in 0..n {
                let a = rng.gen_range(1_000_000);
                c.access_line(a, false);
                assert_eq!(c.access_line(a, false), LookupResult::Hit, "addr {a:#x}");
            }
        }
    }

    /// Hit + miss counts always equal total accesses.
    #[test]
    fn prop_counts_balance() {
        let mut rng = Xoshiro256::seed_from(0x11c0_0002);
        for _ in 0..64 {
            let mut c = Llc::new(
                sim_core::config::LlcConfig {
                    capacity_bytes: 8 * 1024,
                    ways: 4,
                    line_bytes: 64,
                    reserved_ways: 2,
                },
                2,
            );
            let n = 1 + rng.gen_range(299); // 1..300
            for _ in 0..n {
                c.access_line(rng.gen_range(4096), false);
            }
            let (h, m) = c.hit_miss();
            assert_eq!(h + m, n);
        }
    }
}

//! Scenario specifications: the mutable genome of an attack.
//!
//! A [`ScenarioSpec`] is a small, plain-data parameter record that
//! deterministically expands into an access stream composed from the
//! [`workloads::attacks`] primitives and the [`crate::pattern`] combinators. The
//! mutation operator perturbs one gene at a time (row-set size, bank
//! spread, burst length, decoy fraction, feint phases, pacing bubbles),
//! which is what [`crate::search`](mod@crate::search) hill-climbs over. Parameters are clamped
//! to the geometry at build time, so any mutant is buildable.

use crate::pattern::{random_hammer_set, Burst, Decoy, Feint, RateLimit};
use cpu::TraceSource;
use sim_core::addr::Geometry;
use sim_core::json::{DecodeError, Hex, Json, JsonCodec};
use sim_core::rng::Xoshiro256;
use workloads::{Attack, LineStream, RowSweep, SweepOrder, RESERVED_TOP_ROWS};

/// The base shape of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One of the paper's attacks, exactly as [`Attack::trace`] builds it.
    Baseline(Attack),
    /// A fixed aggressor set: `per_bank` seed-drawn rows in each of `banks`
    /// banks, hammered round-robin (optionally split into interleaved
    /// lanes).
    Hammer {
        /// Banks carrying aggressors.
        banks: u32,
        /// Aggressor rows per bank.
        per_bank: u32,
    },
    /// A strided row sweep (the streaming family).
    Sweep {
        /// Banks swept.
        banks: u32,
        /// Row stride between consecutive passes.
        stride: u32,
        /// Rows per bank covered.
        span: u32,
    },
    /// A diagonal sweep: distinct row ID on every activation (the ABACuS
    /// spillover family).
    Diagonal {
        /// Banks swept.
        banks: u32,
        /// Rows per bank covered.
        span: u32,
    },
    /// Cache-line streaming through the LLC (cache pressure, not RowHammer).
    Thrash {
        /// Footprint in MiB.
        mib: u32,
        /// Compute bubbles between accesses.
        bubbles: u32,
    },
}

/// A complete, buildable attack scenario (the search genome).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Base shape.
    pub shape: Shape,
    /// For [`Shape::Hammer`]: number of interleaved aggressor lanes.
    pub lanes: u32,
    /// Accesses per lane before rotating (1 = pure interleave).
    pub burst: u32,
    /// Percentage of accesses replaced by random-row decoys.
    pub decoy_pct: u8,
    /// Optional feint phases: (attack accesses, cover accesses).
    pub feint: Option<(u32, u32)>,
    /// Compute bubbles inserted before every access (rate limiting).
    pub bubbles: u32,
    /// Extra salt folded into the experiment seed, so otherwise-identical
    /// specs can draw different aggressor sets.
    pub seed_salt: u64,
}

impl ScenarioSpec {
    /// Wraps one of the paper's fixed attacks, unmodified.
    pub fn baseline(attack: Attack) -> Self {
        Self {
            shape: Shape::Baseline(attack),
            lanes: 1,
            burst: 1,
            decoy_pct: 0,
            feint: None,
            bubbles: 0,
            seed_salt: 0,
        }
    }

    /// A random scenario drawn from the full genome space.
    pub(crate) fn random(rng: &mut Xoshiro256) -> Self {
        let shape = match rng.gen_range(4) {
            0 => Shape::Hammer {
                banks: 1 << rng.gen_range(6),    // 1..=32
                per_bank: 1 << rng.gen_range(8), // 1..=128
            },
            1 => Shape::Sweep {
                banks: 1 << rng.gen_range(6),
                stride: 1 << rng.gen_range(10),     // 1..=512
                span: 1 << (6 + rng.gen_range(11)), // 64..=64K (clamped)
            },
            2 => {
                Shape::Diagonal { banks: 1 << rng.gen_range(6), span: 1 << (6 + rng.gen_range(11)) }
            }
            _ => {
                Shape::Thrash { mib: 1 << (2 + rng.gen_range(6)), bubbles: rng.gen_range(8) as u32 }
            }
        };
        let mut spec = Self::baseline(Attack::CacheThrash);
        spec.shape = shape;
        spec.lanes = 1 << rng.gen_range(3); // 1, 2, or 4
        spec.burst = 1 << rng.gen_range(7); // 1..=64
        spec.decoy_pct = (rng.gen_range(4) * 10) as u8; // 0, 10, 20, 30
        spec.feint = if rng.gen_bool(0.25) {
            Some((1 << (4 + rng.gen_range(6)), 1 << (3 + rng.gen_range(5))))
        } else {
            None
        };
        spec.bubbles = [0, 0, 1, 2, 4, 8][rng.gen_range(6) as usize];
        spec.seed_salt = rng.next_u64();
        spec
    }

    /// Whether the attacker's accesses skip the LLC (mirrors
    /// [`Attack::bypasses_llc`]: everything except cache thrashing does).
    pub(crate) fn bypasses_llc(&self) -> bool {
        match self.shape {
            Shape::Baseline(a) => a.bypasses_llc(),
            Shape::Thrash { .. } => false,
            _ => true,
        }
    }

    /// Expands the spec into an access stream for one system instance. All
    /// parameters are clamped to `geom`, so every spec builds.
    pub(crate) fn build(&self, geom: Geometry, seed: u64) -> Box<dyn TraceSource> {
        let seed = seed ^ self.seed_salt;
        let max_span = geom.rows_per_bank - RESERVED_TOP_ROWS;
        let max_banks = geom.banks_per_rank();
        let mut p: Box<dyn TraceSource> = match self.shape {
            // The paper's attacks are built from the same primitives the
            // other shapes use, which is what lets the search seed itself
            // with the tailored attacks and then mutate beyond them.
            Shape::Baseline(a) => a.trace(geom, seed),
            Shape::Hammer { banks, per_bank } => {
                let banks = banks.clamp(1, max_banks);
                let per_bank = per_bank.clamp(1, 1024);
                let lanes = self.lanes.clamp(1, 8).min(per_bank);
                if lanes > 1 {
                    let per_lane = (per_bank / lanes).max(1);
                    let children = (0..lanes)
                        .map(|lane| {
                            let lane_seed = seed ^ (lane as u64) << 32;
                            let set = random_hammer_set(geom, banks, per_lane, lane_seed);
                            Box::new(set) as Box<dyn TraceSource>
                        })
                        .collect();
                    Box::new(Burst::new(children, self.burst.clamp(1, 4096)))
                } else {
                    Box::new(random_hammer_set(geom, banks, per_bank, seed))
                }
            }
            Shape::Sweep { banks, stride, span } => {
                let span = span.clamp(1, max_span);
                Box::new(RowSweep::new(
                    geom,
                    banks.clamp(1, max_banks),
                    span,
                    SweepOrder::LineStride(stride.clamp(1, span)),
                ))
            }
            Shape::Diagonal { banks, span } => Box::new(RowSweep::new(
                geom,
                banks.clamp(1, max_banks),
                span.clamp(1, max_span),
                SweepOrder::Diagonal,
            )),
            Shape::Thrash { mib, bubbles } => {
                Box::new(LineStream::new((mib.clamp(1, 4096) as u64) << 14, bubbles))
            }
        };
        if self.decoy_pct > 0 {
            p = Box::new(Decoy::new(p, self.decoy_pct.min(100), geom, seed));
        }
        if let Some((on, off)) = self.feint {
            let cover = Box::new(LineStream::new(1 << 14, 0));
            p = Box::new(Feint::new(p, cover, on.max(1), off.max(1)));
        }
        if self.bubbles > 0 {
            p = Box::new(RateLimit::new(p, self.bubbles));
        }
        p
    }

    /// Compact, stable identifier (used as the attack display name).
    pub(crate) fn name(&self) -> String {
        let mut s = match self.shape {
            Shape::Baseline(a) => a.name().to_string(),
            Shape::Hammer { banks, per_bank } => format!("hammer{banks}x{per_bank}"),
            Shape::Sweep { banks, stride, span } => format!("sweep{banks}b-s{stride}-n{span}"),
            Shape::Diagonal { banks, span } => format!("diag{banks}b-n{span}"),
            Shape::Thrash { mib, bubbles } => format!("thrash{mib}m-b{bubbles}"),
        };
        if self.lanes > 1 && matches!(self.shape, Shape::Hammer { .. }) {
            s.push_str(&format!("+l{}x{}", self.lanes, self.burst));
        }
        if self.decoy_pct > 0 {
            s.push_str(&format!("+d{}", self.decoy_pct));
        }
        if let Some((on, off)) = self.feint {
            s.push_str(&format!("+f{on}/{off}"));
        }
        if self.bubbles > 0 {
            s.push_str(&format!("+r{}", self.bubbles));
        }
        if self.seed_salt != 0 {
            s.push_str(&format!("+s{:x}", self.seed_salt & 0xFFFF));
        }
        s
    }

    /// Produces a neighbour in genome space: one gene nudged.
    pub(crate) fn mutate(&self, rng: &mut Xoshiro256) -> ScenarioSpec {
        let mut next = self.clone();
        // A Baseline shape first "opens up" into its parametric equivalent
        // family so its parameters become mutable.
        if let Shape::Baseline(a) = next.shape {
            next.shape = match a {
                Attack::CacheThrash => Shape::Thrash { mib: 64, bubbles: 6 },
                Attack::HydraRccThrash => Shape::Hammer { banks: 32, per_bank: 512 },
                Attack::CometRatOverflow => Shape::Hammer { banks: 32, per_bank: 6 },
                Attack::RefreshAttack => Shape::Hammer { banks: 32, per_bank: 2 },
                Attack::StartStream | Attack::Streaming => {
                    Shape::Sweep { banks: 32, stride: 64, span: 65472 }
                }
                Attack::AbacusSpillover => Shape::Diagonal { banks: 32, span: 65472 },
            };
            return next;
        }
        let scale = |v: u32, rng: &mut Xoshiro256| -> u32 {
            if rng.gen_bool(0.5) {
                v.saturating_mul(2)
            } else {
                (v / 2).max(1)
            }
        };
        match rng.gen_range(7) {
            0 => {
                // Perturb a shape parameter.
                next.shape = match next.shape {
                    Shape::Hammer { banks, per_bank } => {
                        if rng.gen_bool(0.5) {
                            Shape::Hammer { banks: scale(banks, rng), per_bank }
                        } else {
                            Shape::Hammer { banks, per_bank: scale(per_bank, rng) }
                        }
                    }
                    Shape::Sweep { banks, stride, span } => match rng.gen_range(3) {
                        0 => Shape::Sweep { banks: scale(banks, rng), stride, span },
                        1 => Shape::Sweep { banks, stride: scale(stride, rng), span },
                        _ => Shape::Sweep { banks, stride, span: scale(span, rng) },
                    },
                    Shape::Diagonal { banks, span } => {
                        if rng.gen_bool(0.5) {
                            Shape::Diagonal { banks: scale(banks, rng), span }
                        } else {
                            Shape::Diagonal { banks, span: scale(span, rng) }
                        }
                    }
                    Shape::Thrash { mib, bubbles } => {
                        if rng.gen_bool(0.5) {
                            Shape::Thrash { mib: scale(mib, rng), bubbles }
                        } else {
                            Shape::Thrash { mib, bubbles: rng.gen_range(9) as u32 }
                        }
                    }
                    s @ Shape::Baseline(_) => s,
                };
            }
            1 => next.lanes = [1, 2, 4, 8][rng.gen_range(4) as usize],
            2 => next.burst = scale(next.burst, rng).min(4096),
            3 => {
                next.decoy_pct = (next.decoy_pct as i32 + [-10, 10][rng.gen_range(2) as usize])
                    .clamp(0, 50) as u8
            }
            4 => {
                next.feint = match next.feint {
                    None => Some((1 << (4 + rng.gen_range(6)), 1 << (3 + rng.gen_range(5)))),
                    Some(_) if rng.gen_bool(0.3) => None,
                    Some((on, off)) => {
                        if rng.gen_bool(0.5) {
                            Some((scale(on, rng).min(1 << 20), off))
                        } else {
                            Some((on, scale(off, rng).min(1 << 20)))
                        }
                    }
                };
            }
            5 => next.bubbles = [0, 0, 1, 2, 4, 8, 16][rng.gen_range(7) as usize],
            _ => next.seed_salt = rng.next_u64(),
        }
        next
    }
}

/// `{"kind": ..., <the kind's genes>}`.
impl JsonCodec for Shape {
    fn encode(&self) -> Json {
        let (kind, genes) = match *self {
            Shape::Baseline(a) => {
                return Json::obj([
                    ("kind", Json::str("baseline")),
                    ("attack", Json::str(a.name())),
                ])
            }
            Shape::Hammer { banks, per_bank } => {
                ("hammer", vec![("banks", banks), ("per_bank", per_bank)])
            }
            Shape::Sweep { banks, stride, span } => {
                ("sweep", vec![("banks", banks), ("stride", stride), ("span", span)])
            }
            Shape::Diagonal { banks, span } => ("diagonal", vec![("banks", banks), ("span", span)]),
            Shape::Thrash { mib, bubbles } => ("thrash", vec![("mib", mib), ("bubbles", bubbles)]),
        };
        let genes = genes.into_iter().map(|(gene, value)| (gene, value.encode()));
        Json::obj([("kind", Json::str(kind))].into_iter().chain(genes))
    }

    fn decode(j: &Json) -> Result<Self, DecodeError> {
        let gene = |key| j.field::<u32>(key);
        Ok(match j.field::<String>("kind")?.as_str() {
            "baseline" => {
                let name: String = j.field("attack")?;
                let attack = Attack::all().into_iter().find(|a| a.name() == name);
                Shape::Baseline(attack.ok_or_else(|| {
                    DecodeError::new(format!("unknown baseline attack `{name}`")).at("attack")
                })?)
            }
            "hammer" => Shape::Hammer { banks: gene("banks")?, per_bank: gene("per_bank")? },
            "sweep" => {
                Shape::Sweep { banks: gene("banks")?, stride: gene("stride")?, span: gene("span")? }
            }
            "diagonal" => Shape::Diagonal { banks: gene("banks")?, span: gene("span")? },
            "thrash" => Shape::Thrash { mib: gene("mib")?, bubbles: gene("bubbles")? },
            kind => return Err(DecodeError::new(format!("unknown shape kind `{kind}`")).at("kind")),
        })
    }
}

/// The genome as JSON — readable and diffable in reports, exact enough to
/// carry probe genomes across processes in heatmaps, and (rendered) the
/// attack identity in run-cache keys. `name` is derived from the genes and
/// must agree with them on the way back in.
impl JsonCodec for ScenarioSpec {
    fn encode(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name())),
            ("shape", self.shape.encode()),
            ("lanes", self.lanes.encode()),
            ("burst", self.burst.encode()),
            ("decoy_pct", self.decoy_pct.encode()),
            ("feint", self.feint.encode()),
            ("bubbles", self.bubbles.encode()),
            ("seed_salt", Hex(self.seed_salt).encode()),
        ])
    }

    fn decode(j: &Json) -> Result<Self, DecodeError> {
        let spec = Self {
            shape: j.field("shape")?,
            lanes: j.field("lanes")?,
            burst: j.field("burst")?,
            decoy_pct: j.field("decoy_pct")?,
            feint: j.field("feint")?,
            bubbles: j.field("bubbles")?,
            seed_salt: j.field::<Hex>("seed_salt")?.0,
        };
        if spec.decoy_pct > 100 {
            return Err(DecodeError::new("must be <= 100").at("decoy_pct"));
        }
        if j.field::<String>("name")? != spec.name() {
            let message = format!("does not name these genes (`{}`)", spec.name());
            return Err(DecodeError::new(message).at("name"));
        }
        Ok(spec)
    }
}

impl std::fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::json::assert_codec_laws;

    fn geom() -> Geometry {
        Geometry::paper_baseline()
    }

    #[test]
    fn every_mutant_builds_and_replays_deterministically() {
        let mut rng = Xoshiro256::seed_from(0xA11A);
        let mut spec = ScenarioSpec::baseline(Attack::RefreshAttack);
        for gen_idx in 0..200 {
            spec = spec.mutate(&mut rng);
            let mut a = spec.build(geom(), 3);
            let mut b = spec.build(geom(), 3);
            for _ in 0..200 {
                assert_eq!(a.next_entry(), b.next_entry(), "gen {gen_idx}: {spec}");
            }
        }
    }

    #[test]
    fn mutation_is_deterministic_in_the_rng_seed() {
        let walk = |seed: u64| -> Vec<String> {
            let mut rng = Xoshiro256::seed_from(seed);
            let mut spec = ScenarioSpec::baseline(Attack::StartStream);
            (0..50)
                .map(|_| {
                    spec = spec.mutate(&mut rng);
                    spec.name()
                })
                .collect()
        };
        assert_eq!(walk(5), walk(5));
        assert_ne!(walk(5), walk(6), "different seeds must explore differently");
    }

    #[test]
    fn names_distinguish_genomes() {
        let a = ScenarioSpec::baseline(Attack::Streaming);
        let mut b = a.clone();
        b.decoy_pct = 20;
        b.bubbles = 4;
        assert_ne!(a.name(), b.name());
        assert_eq!(b.name(), "streaming+d20+r4");
    }

    #[test]
    fn only_thrash_shapes_keep_the_llc() {
        assert!(!ScenarioSpec::baseline(Attack::CacheThrash).bypasses_llc());
        let mut s = ScenarioSpec::baseline(Attack::Streaming);
        assert!(s.bypasses_llc());
        s.shape = Shape::Thrash { mib: 32, bubbles: 0 };
        assert!(!s.bypasses_llc());
        s.shape = Shape::Hammer { banks: 4, per_bank: 8 };
        assert!(s.bypasses_llc());
    }

    #[test]
    fn json_round_trips_every_genome() {
        // Seeded property over the whole genome space: decode inverts
        // encode byte-identically, and a missing or wrong-typed key is
        // rejected by name.
        let mut rng = Xoshiro256::seed_from(0x10DE);
        let mut spec = ScenarioSpec::baseline(Attack::CacheThrash);
        for _ in 0..100 {
            assert_codec_laws(&spec);
            assert_codec_laws(&spec.shape);
            spec = if rng.gen_bool(0.3) {
                ScenarioSpec::random(&mut rng)
            } else {
                spec.mutate(&mut rng)
            };
        }
        for a in Attack::all() {
            assert_codec_laws(&ScenarioSpec::baseline(a));
        }
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        let reject = |from: &str, to: &str| {
            let doc = ScenarioSpec::baseline(Attack::Streaming).encode().render();
            assert!(doc.contains(from), "{doc}");
            ScenarioSpec::decode(&Json::parse(&doc.replacen(from, to, 1)).unwrap()).unwrap_err()
        };
        assert_eq!(reject("\"baseline\"", "\"warp\"").path, "shape.kind");
        assert_eq!(reject("\"streaming\"}", "\"drizzle\"}").path, "shape.attack");
        assert_eq!(reject("\"decoy_pct\":0", "\"decoy_pct\":101").path, "decoy_pct");
        assert_eq!(reject("\"lanes\":1", "\"lanes\":4294967296").path, "lanes");
        assert_eq!(reject("\"feint\":null", "\"feint\":[1,-2]").path, "feint[1]");
        assert_eq!(reject("\"bubbles\":0", "\"bubbles\":4").path, "name", "genes edited, not name");
        assert!(reject("\"0x0\"", "\"zero\"").to_string().contains("seed_salt"));
    }

    #[test]
    fn random_specs_build() {
        let mut rng = Xoshiro256::seed_from(99);
        for _ in 0..100 {
            let spec = ScenarioSpec::random(&mut rng);
            let mut p = spec.build(geom(), 1);
            for _ in 0..50 {
                let _ = p.next_entry();
            }
        }
    }
}

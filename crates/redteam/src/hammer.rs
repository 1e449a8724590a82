//! Stage 2: compiling a mapping belief into a hammer pattern.
//!
//! The hammer stage never sees the geometry. It turns a
//! [`Belief`] — possibly wrong, possibly empty —
//! into a concrete set of physical addresses and round-robins it with
//! [`HammerRows`], so mapping errors blunt the attack exactly as they
//! would on hardware:
//!
//! * a **correct** row stride yields a classic double-sided pattern —
//!   aggressors at every second believed-adjacent row, victims between,
//! * a **wrong** stride scatters the "aggressors" across unrelated banks
//!   or columns; activation pressure never concentrates,
//! * **no** stride (blind, or inconclusive recon) falls back to random
//!   line addresses — near-zero per-row pressure by construction.

use sim::{AttackerConfig, CustomAttack};
use sim_core::addr::PhysAddr;
use sim_core::rng::Xoshiro256;
use workloads::HammerRows;

use crate::recon::Belief;

/// Aggressor pairs on each side of the double-sided ladder: with
/// [`HammerPlan::compile`]'s layout, `PAIRS + 1` aggressors sandwich
/// `PAIRS` victim rows.
pub(crate) const PAIRS: usize = 6;

/// Addresses the blind fallback spreads its accesses over.
const BLIND_ADDRS: usize = 16;

/// A compiled hammer: the aggressor addresses the attacker will cycle.
#[derive(Debug, Clone)]
pub(crate) struct HammerPlan {
    /// Aggressor physical addresses, in round-robin order.
    pub(crate) aggressors: Vec<PhysAddr>,
    /// Display name (`attackpipe:<level>`), used as the attack label.
    pub(crate) name: String,
    /// The believed row stride the plan was compiled from (`None` for
    /// the blind fallback).
    pub(crate) believed_stride: Option<u64>,
}

impl HammerPlan {
    /// Compiles a belief into an aggressor set anchored at `region_base`
    /// (the victim region's first physical address — the attacker knows
    /// *where* the victim lives, the belief decides *how* to reach its
    /// neighbours).
    ///
    /// With a believed stride `S`: a double-sided ladder of `PAIRS + 1`
    /// aggressors at `region_base + 2iS`, leaving the odd multiples as
    /// victims. Without one: `BLIND_ADDRS` (16) uniformly random line
    /// addresses below `capacity`.
    pub(crate) fn compile(
        belief: &Belief,
        cfg: &AttackerConfig,
        capacity: u64,
        region_base: PhysAddr,
        level: &str,
    ) -> Self {
        let name = format!("attackpipe:{level}");
        match belief.row_stride {
            Some(s) => {
                let aggressors =
                    (0..=PAIRS as u64).map(|i| PhysAddr(region_base.0 + 2 * i * s)).collect();
                Self { aggressors, name, believed_stride: Some(s) }
            }
            None => {
                let mut rng = Xoshiro256::seed_from(cfg.seed ^ 0xB11D);
                let aggressors = (0..BLIND_ADDRS)
                    .map(|_| PhysAddr(rng.next_u64() & (capacity - 1) & !63))
                    .collect();
                Self { aggressors, name, believed_stride: None }
            }
        }
    }

    /// Wraps the plan as the experiment's custom attacker: an LLC-
    /// bypassing round-robin over the aggressor set, rebuilt identically
    /// on every system construction.
    pub(crate) fn custom_attack(&self) -> CustomAttack {
        let addrs = self.aggressors.clone();
        CustomAttack::new(&self.name, true, move |_, _| Box::new(HammerRows::new(addrs.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::AttackerKnowledge;

    fn cfg() -> AttackerConfig {
        AttackerConfig::new(AttackerKnowledge::Blind)
    }

    #[test]
    fn stride_belief_compiles_a_double_sided_ladder() {
        let belief = Belief { row_stride: Some(1 << 20), inferred: None };
        let plan =
            HammerPlan::compile(&belief, &cfg(), 1 << 36, PhysAddr(0x123_0000), "omniscient");
        assert_eq!(plan.aggressors.len(), PAIRS + 1);
        assert_eq!(plan.name, "attackpipe:omniscient");
        assert_eq!(plan.believed_stride, Some(1 << 20));
        for (i, a) in plan.aggressors.iter().enumerate() {
            assert_eq!(a.0, 0x123_0000 + 2 * i as u64 * (1 << 20), "even multiples only");
        }
    }

    #[test]
    fn empty_belief_compiles_the_blind_fallback() {
        let plan = HammerPlan::compile(&Belief::default(), &cfg(), 1 << 36, PhysAddr(0), "blind");
        let again = HammerPlan::compile(&Belief::default(), &cfg(), 1 << 36, PhysAddr(0), "blind");
        assert_eq!(plan.aggressors.len(), BLIND_ADDRS);
        assert_eq!(plan.aggressors, again.aggressors, "seed-deterministic");
        assert!(plan.believed_stride.is_none());
        assert!(plan.aggressors.iter().all(|a| a.0 < (1 << 36) && a.0 % 64 == 0));
    }

    #[test]
    fn plan_builds_a_replayable_custom_attack() {
        let belief = Belief { row_stride: Some(1 << 20), inferred: None };
        let plan = HammerPlan::compile(&belief, &cfg(), 1 << 36, PhysAddr(1 << 21), "x");
        let ca = plan.custom_attack();
        assert_eq!(ca.name(), "attackpipe:x");
        assert!(ca.bypasses_llc());
        let geom = sim_core::addr::Geometry::paper_baseline();
        let mut t1 = ca.build(geom, 1);
        let mut t2 = ca.build(geom, 2);
        for _ in 0..20 {
            assert_eq!(t1.next_entry().addr, t2.next_entry().addr, "seed-independent replay");
        }
    }
}

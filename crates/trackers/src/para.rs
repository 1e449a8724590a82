//! PARA (Kim et al., ISCA 2014): probabilistic adjacent-row activation.
//!
//! Stateless: every activation refreshes the row's neighbours with
//! probability `p`. We set `p = 18.4 / N_RH`, which bounds the chance that
//! an aggressor reaches N_RH activations without a neighbour refresh at
//! `(1-p)^N_RH ~ e^-18.4 ~ 1e-8` per row per window. Being stateless, PARA
//! needs no reset and is immune to structure-targeted Perf-Attacks, but its
//! mitigation frequency grows quickly as N_RH drops (Fig. 15/16).

use sim_core::registry::{ParamSpec, ParamValues, RegistryError, TrackerSpec};
use sim_core::rng::Xoshiro256;
use sim_core::tracker::{
    Activation, RowHammerTracker, StorageOverhead, TrackerAction, TrackerParams,
};

/// Safety exponent: p = EXPONENT / N_RH.
pub const EXPONENT: f64 = 18.4;

/// Parameters for one PARA instance: the probabilistic management policy
/// is a single knob, the safety exponent — failure probability per window
/// is ~e^-exponent, mitigation frequency grows linearly with it.
#[derive(Debug, Clone, Copy)]
pub struct ParaParams {
    /// Shared construction parameters.
    pub base: TrackerParams,
    /// Safety exponent: refresh probability p = exponent / N_RH.
    pub exponent: f64,
}

impl ParaParams {
    /// The paper-baseline exponent (18.4 ≈ 1e-8 failure per row-window).
    pub fn new(base: TrackerParams) -> Self {
        Self { base, exponent: EXPONENT }
    }

    /// Rejects an exponent [`Para::with_params`] cannot build.
    pub fn validate(&self) -> Result<(), RegistryError> {
        if self.exponent <= 0.0 || self.exponent.is_nan() {
            return Err(RegistryError::invalid("para", "exponent", "must be positive"));
        }
        Ok(())
    }
}

/// The PARA tracker for one channel.
#[derive(Debug)]
pub struct Para {
    prob: f64,
    rng: Xoshiro256,
    /// Mitigations issued (introspection).
    pub mitigations: u64,
}

impl Para {
    /// Creates a PARA instance with `p` derived from `p.nrh`.
    pub fn new(p: TrackerParams) -> Self {
        Self::with_params(ParaParams::new(p)).expect("paper-baseline exponent is valid")
    }

    /// Creates a PARA instance with an explicit safety exponent.
    pub fn with_params(pp: ParaParams) -> Result<Self, RegistryError> {
        pp.validate()?;
        Ok(Self {
            prob: (pp.exponent / pp.base.nrh as f64).min(1.0),
            rng: Xoshiro256::seed_from(pp.base.seed ^ 0xA11A_5A5Au64),
            mitigations: 0,
        })
    }

    /// The per-activation refresh probability.
    pub fn probability(&self) -> f64 {
        self.prob
    }
}

impl RowHammerTracker for Para {
    fn name(&self) -> &'static str {
        "PARA"
    }

    fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
        if self.rng.gen_bool(self.prob) {
            self.mitigations += 1;
            actions.push(TrackerAction::MitigateRow(act.addr));
        }
    }

    fn storage_overhead(&self) -> StorageOverhead {
        // Stateless: an LFSR and a comparator.
        StorageOverhead::new(16, 0)
    }
}

/// PARA's tracker-table entry: key `para`, the probabilistic policy's
/// safety exponent exposed for sweeps (Jaleel et al., arXiv:2404.16256
/// explore exactly this axis of tracker-management policies).
pub const SPEC: TrackerSpec = TrackerSpec {
    key: "para",
    name: "PARA",
    aliases: &[],
    reserves_llc: false,
    params: &[ParamSpec::float(
        "exponent",
        "safety exponent; refresh p = exponent / N_RH",
        EXPONENT,
    )
    .range(1e-6, 1e6)],
    check: |p, v| params(p, v).validate(),
    factory: |p, v| Ok(Box::new(Para::with_params(params(p, v))?)),
};

fn params(p: TrackerParams, v: &ParamValues) -> ParaParams {
    ParaParams { exponent: v.float("exponent"), ..ParaParams::new(p) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::addr::DramAddr;
    use sim_core::req::SourceId;

    fn act() -> Activation {
        Activation { addr: DramAddr::default(), source: SourceId(0), cycle: 0 }
    }

    #[test]
    fn probability_scales_inverse_to_nrh() {
        let hi = Para::new(TrackerParams::baseline(4000, 0, 1));
        let lo = Para::new(TrackerParams::baseline(125, 0, 1));
        assert!(lo.probability() > hi.probability() * 30.0);
    }

    #[test]
    fn mitigation_rate_matches_probability() {
        let mut p = Para::new(TrackerParams::baseline(500, 0, 9));
        let mut out = Vec::new();
        for _ in 0..100_000 {
            p.on_activation(act(), &mut out);
        }
        let rate = p.mitigations as f64 / 100_000.0;
        assert!((rate - p.probability()).abs() < 0.005, "rate {rate}");
        assert_eq!(out.len(), p.mitigations as usize);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Para::new(TrackerParams::baseline(500, 0, 4));
        let mut b = Para::new(TrackerParams::baseline(500, 0, 4));
        let mut oa = Vec::new();
        let mut ob = Vec::new();
        for _ in 0..10_000 {
            a.on_activation(act(), &mut oa);
            b.on_activation(act(), &mut ob);
        }
        assert_eq!(oa.len(), ob.len());
    }
}

//! PrIDE (Jaleel et al., ISCA 2024): in-DRAM probabilistic FIFO sampling.
//!
//! Each bank samples activations into a small FIFO with probability
//! `32 / N_RH`; queued aggressors are mitigated on the periodic refresh
//! schedule — every bank with a non-empty queue issues `ceil(500 / N_RH)`
//! mitigations per tREFI (PrIDE is an in-DRAM, per-bank scheme riding the
//! refresh cadence). The fixed per-tREFI mitigation budget is what
//! Perf-Attacks and low N_RH stress (Figs. 15/16).

use sim_core::addr::DramAddr;
use sim_core::registry::{ParamSpec, ParamValues, RegistryError, TrackerSpec};
use sim_core::rng::Xoshiro256;
use sim_core::time::Cycle;
use sim_core::tracker::{
    Activation, RowHammerTracker, StorageOverhead, TrackerAction, TrackerParams,
};
use std::collections::VecDeque;

/// Per-bank FIFO depth.
pub const QUEUE_DEPTH: usize = 4;
/// Sampling numerator: p = SAMPLE_NUMERATOR / N_RH.
pub const SAMPLE_NUMERATOR: f64 = 32.0;

/// Parameters for one PrIDE instance: FIFO depth and the sampling
/// numerator of its probabilistic management policy.
#[derive(Debug, Clone, Copy)]
pub struct PrideParams {
    /// Shared construction parameters.
    pub base: TrackerParams,
    /// Per-bank FIFO depth.
    pub queue_depth: usize,
    /// Sampling numerator: sample probability = numerator / N_RH.
    pub sample_numerator: f64,
}

impl PrideParams {
    /// The paper-baseline sizing (4-deep FIFOs, 32/N_RH sampling).
    pub fn new(base: TrackerParams) -> Self {
        Self { base, queue_depth: QUEUE_DEPTH, sample_numerator: SAMPLE_NUMERATOR }
    }

    /// Rejects FIFO/sampling parameters [`Pride::with_params`] cannot build.
    pub fn validate(&self) -> Result<(), RegistryError> {
        if self.queue_depth == 0 {
            return Err(RegistryError::invalid("pride", "queue_depth", "must be nonzero"));
        }
        if self.sample_numerator <= 0.0 || self.sample_numerator.is_nan() {
            return Err(RegistryError::invalid("pride", "sample_numerator", "must be positive"));
        }
        Ok(())
    }
}

/// The PrIDE tracker for one channel.
#[derive(Debug)]
pub struct Pride {
    prob: f64,
    rng: Xoshiro256,
    queues: Vec<VecDeque<DramAddr>>,
    queue_depth: usize,
    per_trefi: usize,
    /// Sampled aggressors dropped because a queue was full.
    pub overflows: u64,
    /// Mitigations issued.
    pub mitigations: u64,
}

impl Pride {
    /// Creates a PrIDE instance for one channel.
    pub fn new(p: TrackerParams) -> Self {
        Self::with_params(PrideParams::new(p)).expect("paper-baseline sizing is valid")
    }

    /// Creates a PrIDE instance with explicit FIFO/sampling parameters.
    pub fn with_params(pp: PrideParams) -> Result<Self, RegistryError> {
        pp.validate()?;
        let p = pp.base;
        let nbanks = (p.geometry.ranks as u32 * p.geometry.banks_per_rank()) as usize;
        Ok(Self {
            prob: (pp.sample_numerator / p.nrh as f64).min(1.0),
            rng: Xoshiro256::seed_from(p.seed ^ 0x9B1D_E001u64),
            queues: vec![VecDeque::with_capacity(pp.queue_depth); nbanks],
            queue_depth: pp.queue_depth,
            per_trefi: (500usize).div_ceil(p.nrh as usize),
            overflows: 0,
            mitigations: 0,
        })
    }

    /// Sampling probability per activation.
    pub fn probability(&self) -> f64 {
        self.prob
    }

    /// Mitigations per tREFI.
    pub fn budget(&self) -> usize {
        self.per_trefi
    }

    fn bank_index(queues: usize, a: &DramAddr, banks_per_rank: u32, banks_per_group: u8) -> usize {
        let b = a.rank as u32 * banks_per_rank
            + a.bank_group as u32 * banks_per_group as u32
            + a.bank as u32;
        (b as usize) % queues
    }
}

impl RowHammerTracker for Pride {
    fn name(&self) -> &'static str {
        "PrIDE"
    }

    fn on_activation(&mut self, act: Activation, _actions: &mut Vec<TrackerAction>) {
        if !self.rng.gen_bool(self.prob) {
            return;
        }
        let idx = Self::bank_index(self.queues.len(), &act.addr, 32, 4);
        let depth = self.queue_depth;
        let q = &mut self.queues[idx];
        if q.len() >= depth {
            self.overflows += 1;
            q.pop_front();
        }
        q.push_back(act.addr);
    }

    fn on_trefi(&mut self, _cycle: Cycle, actions: &mut Vec<TrackerAction>) {
        // Every bank services its own queue on the refresh cadence,
        // `per_trefi` entries each (in-DRAM, per-bank mitigation).
        for q in &mut self.queues {
            for _ in 0..self.per_trefi {
                match q.pop_front() {
                    Some(addr) => {
                        actions.push(TrackerAction::MitigateRow(addr));
                        self.mitigations += 1;
                    }
                    None => break,
                }
            }
        }
    }

    fn storage_overhead(&self) -> StorageOverhead {
        // In-DRAM queues: 64 banks x depth entries x ~3 B.
        StorageOverhead::new(self.queues.len() as u64 * self.queue_depth as u64 * 3, 0)
    }
}

/// PrIDE's tracker-table entry: key `pride`, FIFO depth and sampling
/// numerator exposed as tunable parameters.
pub const SPEC: TrackerSpec = TrackerSpec {
    key: "pride",
    name: "PrIDE",
    aliases: &[],
    reserves_llc: false,
    params: &[
        ParamSpec::int("queue_depth", "per-bank FIFO depth", QUEUE_DEPTH as i64)
            .range(1.0, 65536.0),
        ParamSpec::float(
            "sample_numerator",
            "sampling probability = numerator / N_RH",
            SAMPLE_NUMERATOR,
        )
        .range(1e-6, 1e6),
    ],
    check: |p, v| params(p, v).validate(),
    factory: |p, v| Ok(Box::new(Pride::with_params(params(p, v))?)),
};

fn params(p: TrackerParams, v: &ParamValues) -> PrideParams {
    PrideParams {
        queue_depth: v.count("queue_depth"),
        sample_numerator: v.float("sample_numerator"),
        ..PrideParams::new(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::req::SourceId;

    fn act(row: u32) -> Activation {
        Activation { addr: DramAddr::new(0, 0, 0, 0, row, 0), source: SourceId(0), cycle: 0 }
    }

    fn params(nrh: u32) -> TrackerParams {
        TrackerParams::baseline(nrh, 0, 21)
    }

    #[test]
    fn budget_scales_with_threshold() {
        assert_eq!(Pride::new(params(500)).budget(), 1);
        assert_eq!(Pride::new(params(250)).budget(), 2);
        assert_eq!(Pride::new(params(125)).budget(), 4);
        assert_eq!(Pride::new(params(1000)).budget(), 1);
    }

    #[test]
    fn sampled_rows_get_mitigated_at_trefi() {
        let mut t = Pride::new(params(500));
        let mut out = Vec::new();
        // Hammer until something is sampled (p = 3.2%).
        for _ in 0..1000 {
            t.on_activation(act(7), &mut out);
        }
        t.on_trefi(0, &mut out);
        assert!(
            out.iter().any(|x| matches!(x, TrackerAction::MitigateRow(_))),
            "sampled aggressor must be serviced"
        );
        assert!(t.mitigations >= 1);
    }

    #[test]
    fn budget_caps_mitigations_per_trefi() {
        let mut t = Pride::new(params(500));
        let mut out = Vec::new();
        // All samples land in bank 0's queue (capacity 4).
        for row in 0..10_000u32 {
            t.on_activation(act(row), &mut out);
        }
        out.clear();
        t.on_trefi(0, &mut out);
        assert_eq!(out.len(), 1, "N_RH=500: one mitigation per bank per tREFI");
    }

    #[test]
    fn queue_overflow_drops_oldest() {
        let mut t = Pride::new(params(125)); // p = 12.8%: samples fast
        let mut out = Vec::new();
        for row in 0..2000u32 {
            t.on_activation(act(row), &mut out);
        }
        assert!(t.overflows > 0, "tiny FIFO must overflow under hammering");
    }
}

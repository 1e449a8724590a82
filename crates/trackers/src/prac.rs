//! PRAC / QPRAC (JEDEC DDR5 PRAC; Woo et al., HPCA 2025): per-row counters.
//!
//! Every DRAM row keeps an exact activation counter updated by a
//! read-modify-write on each ACT — precise, so Perf-Attacks cannot force
//! spurious mitigations, but the RMW lengthens every row cycle. We model the
//! timing tax as a fixed per-ACT delay (~10 ns, the tRP+tRAS extension the
//! QPRAC paper reports costing ~7% on benign workloads) and service
//! Alert-Back-Off mitigations from a priority queue at each tREFI.

use sim_core::addr::DramAddr;
use sim_core::registry::{ParamSpec, ParamValues, RegistryError, TrackerSpec};
use sim_core::req::SourceId;
use sim_core::time::{ns_to_cycles, Cycle};
use sim_core::tracker::{
    Activation, RowHammerTracker, StorageOverhead, TrackerAction, TrackerParams,
};
use std::collections::{HashMap, VecDeque};

/// Per-ACT read-modify-write tax in nanoseconds (the tRAS/tRP extension
/// PRAC's counter update adds to every row cycle).
pub const RMW_TAX_NS: f64 = 5.0;
/// Pending mitigations serviced per tREFI (Alert Back-Off batch).
pub const ABO_BATCH: usize = 8;

/// Parameters for one PRAC instance: the timing tax and the ABO service
/// rate (PRAC's cost is all timing, not tracking error).
#[derive(Debug, Clone, Copy)]
pub struct PracParams {
    /// Shared construction parameters.
    pub base: TrackerParams,
    /// Per-ACT read-modify-write tax, nanoseconds.
    pub rmw_tax_ns: f64,
    /// Pending mitigations serviced per tREFI.
    pub abo_batch: usize,
}

impl PracParams {
    /// The paper-matched defaults (5 ns tax, 8 mitigations per tREFI).
    pub fn new(base: TrackerParams) -> Self {
        Self { base, rmw_tax_ns: RMW_TAX_NS, abo_batch: ABO_BATCH }
    }

    /// Rejects timing parameters [`Prac::with_params`] cannot build.
    pub fn validate(&self) -> Result<(), RegistryError> {
        if self.rmw_tax_ns < 0.0 {
            return Err(RegistryError::invalid("prac", "rmw_tax_ns", "must be non-negative"));
        }
        if self.abo_batch == 0 {
            return Err(RegistryError::invalid("prac", "abo_batch", "must be nonzero"));
        }
        Ok(())
    }
}

/// The PRAC tracker for one channel.
#[derive(Debug)]
pub struct Prac {
    p: TrackerParams,
    counts: HashMap<u64, u32>,
    /// Rows that crossed the back-off threshold, awaiting ABO service
    /// (FIFO: the oldest alert is the most urgent).
    pending: VecDeque<DramAddr>,
    tax: Cycle,
    abo_batch: usize,
    threshold: u32,
    /// ABO alerts raised.
    pub alerts: u64,
}

impl Prac {
    /// Creates a PRAC instance for one channel.
    pub fn new(p: TrackerParams) -> Self {
        Self::with_params(PracParams::new(p)).expect("paper-baseline timing is valid")
    }

    /// Creates a PRAC instance with explicit timing parameters.
    pub fn with_params(pp: PracParams) -> Result<Self, RegistryError> {
        pp.validate()?;
        let p = pp.base;
        Ok(Self {
            p,
            counts: HashMap::new(),
            pending: VecDeque::new(),
            tax: ns_to_cycles(pp.rmw_tax_ns),
            abo_batch: pp.abo_batch,
            threshold: p.nm().max(1),
            alerts: 0,
        })
    }

    /// The back-off threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    fn key(&self, a: &DramAddr) -> u64 {
        a.rank as u64 * self.p.geometry.rows_per_rank() + self.p.geometry.rank_row_index(a)
    }
}

impl RowHammerTracker for Prac {
    fn name(&self) -> &'static str {
        "PRAC"
    }

    fn on_activation(&mut self, act: Activation, _actions: &mut Vec<TrackerAction>) {
        let key = self.key(&act.addr);
        let c = self.counts.entry(key).or_insert(0);
        *c += 1;
        if *c >= self.threshold {
            *c = 0;
            self.alerts += 1;
            self.pending.push_back(act.addr);
        }
    }

    fn on_trefi(&mut self, _cycle: Cycle, actions: &mut Vec<TrackerAction>) {
        // ABO: service a batch of pending mitigations per tREFI, oldest
        // first.
        for _ in 0..self.abo_batch {
            match self.pending.pop_front() {
                Some(addr) => actions.push(TrackerAction::MitigateRow(addr)),
                None => break,
            }
        }
    }

    fn activation_delay(&mut self, _a: &DramAddr, _s: SourceId, _now: Cycle) -> Cycle {
        // Alert Back-Off: while alerts queue up, the channel backs off so
        // the in-DRAM mitigations can land before any aggressor gains
        // another N_M activations. The delay escalates with queue depth.
        let backlog = self.pending.len() as Cycle;
        if backlog > 4 {
            self.tax * 4 * backlog
        } else {
            self.tax
        }
    }

    fn on_refresh_window(&mut self, _cycle: Cycle, _actions: &mut Vec<TrackerAction>) {
        self.counts.clear();
    }

    fn storage_overhead(&self) -> StorageOverhead {
        // Counters live in DRAM; the controller keeps only the ABO queue.
        StorageOverhead::new(1024, 0)
    }
}

/// PRAC's tracker-table entry: key `prac` (alias `qprac`), the per-ACT
/// timing tax and ABO service batch exposed as tunable parameters.
pub const SPEC: TrackerSpec = TrackerSpec {
    key: "prac",
    name: "PRAC",
    aliases: &["qprac"],
    reserves_llc: false,
    params: &[
        ParamSpec::float("rmw_tax_ns", "per-ACT read-modify-write tax, ns", RMW_TAX_NS)
            .range(0.0, 1000.0),
        ParamSpec::int("abo_batch", "mitigations serviced per tREFI", ABO_BATCH as i64)
            .range(1.0, 65536.0),
    ],
    check: |p, v| params(p, v).validate(),
    factory: |p, v| Ok(Box::new(Prac::with_params(params(p, v))?)),
};

fn params(p: TrackerParams, v: &ParamValues) -> PracParams {
    PracParams {
        rmw_tax_ns: v.float("rmw_tax_ns"),
        abo_batch: v.count("abo_batch"),
        ..PracParams::new(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(row: u32) -> Activation {
        Activation { addr: DramAddr::new(0, 0, 0, 0, row, 0), source: SourceId(0), cycle: 0 }
    }

    fn params() -> TrackerParams {
        TrackerParams::baseline(500, 0, 17)
    }

    #[test]
    fn every_act_pays_the_rmw_tax() {
        let mut t = Prac::new(params());
        let d = t.activation_delay(&DramAddr::default(), SourceId(0), 0);
        assert_eq!(d, ns_to_cycles(RMW_TAX_NS));
    }

    #[test]
    fn alert_raised_exactly_at_threshold() {
        let mut t = Prac::new(params());
        let mut out = Vec::new();
        for _ in 0..t.threshold() {
            t.on_activation(act(5), &mut out);
        }
        assert_eq!(t.alerts, 1);
        // Serviced at the next tREFI.
        t.on_trefi(0, &mut out);
        assert!(out.iter().any(|x| matches!(x, TrackerAction::MitigateRow(_))));
    }

    #[test]
    fn precise_tracking_ignores_spread_traffic() {
        let mut t = Prac::new(params());
        let mut out = Vec::new();
        for row in 0..10_000u32 {
            for _ in 0..10 {
                t.on_activation(act(row), &mut out);
            }
        }
        t.on_trefi(0, &mut out);
        assert_eq!(t.alerts, 0, "10 activations per row never alerts");
        assert!(out.is_empty());
    }

    #[test]
    fn backlog_escalates_delay() {
        let mut t = Prac::new(params());
        let mut out = Vec::new();
        for row in 0..10u32 {
            for _ in 0..t.threshold() {
                t.on_activation(act(row), &mut out);
            }
        }
        assert!(t.pending.len() > 4);
        let d = t.activation_delay(&DramAddr::default(), SourceId(0), 0);
        assert!(d >= ns_to_cycles(RMW_TAX_NS) * 4 * 5, "escalated delay {d}");
    }

    #[test]
    fn counts_reset_at_trefw() {
        let mut t = Prac::new(params());
        let mut out = Vec::new();
        for _ in 0..t.threshold() - 1 {
            t.on_activation(act(5), &mut out);
        }
        t.on_refresh_window(0, &mut out);
        for _ in 0..t.threshold() - 1 {
            t.on_activation(act(5), &mut out);
        }
        assert_eq!(t.alerts, 0);
    }
}

//! Stage 1: timing-side-channel reconnaissance.
//!
//! The attacker knows nothing about the DRAM address mapping except the
//! module capacity and the 64-byte line size — both printed on the box.
//! Everything else is inferred from **access latency** alone, the
//! Spoiler/DRAMA playbook adapted to the simulator's trace interface:
//!
//! * **Calibration** — repeated reads of one address establish the
//!   row-hit latency floor.
//! * **Stride discovery** — for each candidate bit `j`, alternate reads
//!   of `X` and `X + 2^j`. Bits below the row field toggle the column,
//!   bank, bank-group, rank, or channel: both rows stay open (or live in
//!   different banks) and reads come back fast. Bits in the row field
//!   keep the *same bank* but select a *different row*: every alternation
//!   is a row-buffer conflict (PRE + ACT + CAS) and reads come back slow.
//!   The smallest slow bit is the row-field shift, hence the physical
//!   stride between same-bank adjacent rows.
//! * **Verification** — a pool of believed same-bank adjacent pairs
//!   (`B + 2kS`, `B + (2k+1)S`) plus sub-row-stride control pairs, each
//!   probed and classified.
//!
//! Latencies are observed through a [`LatencyProbe`] on the attacker's
//! own [`SourceId`] — the inject-to-completion interval a userspace
//! attacker times with `rdtscp`; nothing reads simulator internals. The
//! recon runs execute against the *real* system (benign cores and the
//! tracker under test included), so queueing noise and mitigation stalls
//! are part of the measurement; mitigation stalls are in fact signal,
//! and their spacing yields the estimated mitigation cadence.

use cpu::{TraceEntry, TraceSource};
use sim::experiment::take_recorder;
use sim::{AttackerConfig, AttackerKnowledge, CustomAttack, Experiment};
use sim_core::addr::{DramAddr, Geometry, PhysAddr};
use sim_core::req::SourceId;
use sim_core::rng::Xoshiro256;
use sim_core::telemetry::{LatencyProbe, LatencySample};
use std::collections::{HashMap, HashSet};

/// Accesses spent calibrating the row-hit latency floor.
const CALIB_SAMPLES: usize = 16;
/// Alternating accesses per stride-discovery bit (preferred; shrinks
/// under tight budgets, never below [`MIN_PAIR_SAMPLES`]).
const STRIDE_SAMPLES: usize = 12;
/// Alternating accesses per verification pair.
const PAIR_SAMPLES: usize = 8;
/// Floor on per-phase samples under tight budgets.
const MIN_PAIR_SAMPLES: usize = 4;
/// Cap on verification pairs per class (candidates / controls).
const MAX_VERIFY_PAIRS: usize = 48;
/// Compute bubbles before every probe access: spaces probes far enough
/// apart that each one's latency is measured in isolation (the ROB never
/// holds two probe loads at once).
const PROBE_BUBBLES: u32 = 400;
/// Minimum separation (bus cycles) between the fast and slow latency
/// clusters for the classification to count as conclusive.
const MIN_CLUSTER_GAP: f64 = 6.0;

// ---------------------------------------------------------------- beliefs

/// What the attacker believes about the machine after stage 1.
#[derive(Debug, Clone, Default)]
pub(crate) struct Belief {
    /// Believed physical-address stride between same-bank adjacent rows
    /// (`None`: no usable belief — hammer falls back to blind guessing).
    pub(crate) row_stride: Option<u64>,
    /// The recon evidence backing the belief (timing-recon only).
    pub(crate) inferred: Option<InferredMap>,
}

/// One probed address pair and its classification.
#[derive(Debug, Clone, Copy)]
struct PairVerdict {
    /// First address of the pair.
    a: PhysAddr,
    /// Second address of the pair.
    b: PhysAddr,
    /// Classified as same-bank different-row (a row-buffer-conflict
    /// pair — the kind double-sided hammering needs).
    same_bank: bool,
}

/// Everything stage 1 inferred, with the ground-truth scoring hooks the
/// *reporting* side uses (the attacker itself never calls them).
#[derive(Debug, Clone, Default)]
pub struct InferredMap {
    /// Inferred row-field shift: the believed stride is `1 << row_shift`.
    pub row_shift: Option<u32>,
    /// Per-pair verdicts from the verification phase.
    pairs: Vec<PairVerdict>,
    /// Estimated mitigation cadence (bus cycles between latency spikes),
    /// when enough spikes were observed.
    pub cadence_cycles: Option<u64>,
    /// Probe accesses actually scheduled (never exceeds the budget).
    pub probes_spent: u64,
}

impl InferredMap {
    /// The believed same-bank adjacent-row stride.
    pub fn row_stride(&self) -> Option<u64> {
        self.row_shift.map(|s| 1u64 << s)
    }

    /// Fraction of verification pairs classified correctly against the
    /// ground-truth decode (`None` when no pairs were probed). Reporting
    /// only: this is the `recon_accuracy` column.
    pub fn accuracy(&self, geom: &Geometry) -> Option<f64> {
        if self.pairs.is_empty() {
            return None;
        }
        let correct =
            self.pairs.iter().filter(|p| p.same_bank == same_bank_conflict(geom, p.a, p.b)).count();
        Some(correct as f64 / self.pairs.len() as f64)
    }

    /// Of the pairs that truly are same-bank different-row, the fraction
    /// the attacker recognized (`None` when no such pair was probed).
    pub fn same_bank_recall(&self, geom: &Geometry) -> Option<f64> {
        let truly: Vec<&PairVerdict> =
            self.pairs.iter().filter(|p| same_bank_conflict(geom, p.a, p.b)).collect();
        if truly.is_empty() {
            return None;
        }
        Some(truly.iter().filter(|p| p.same_bank).count() as f64 / truly.len() as f64)
    }
}

/// Ground truth: do the two addresses hit the same bank on different
/// rows (the row-buffer-conflict relation the probes classify)?
fn same_bank_conflict(geom: &Geometry, a: PhysAddr, b: PhysAddr) -> bool {
    let da = geom.decode(a);
    let db = geom.decode(b);
    da.channel == db.channel
        && da.rank == db.rank
        && da.bank_group == db.bank_group
        && da.bank == db.bank
        && da.row != db.row
}

/// How a knowledge level turns (or refuses to turn) observation into a
/// mapping belief. The trait is the recon stage's seam: `Omniscient`
/// reads the geometry (the classic simulator idealism), `TimingRecon`
/// runs the probe campaign, `Blind` knows nothing.
pub(crate) trait KnowledgeModel {
    /// Acquires the belief, possibly by running recon simulations
    /// against the experiment's machine.
    fn acquire(&mut self, base: &Experiment, cfg: &AttackerConfig) -> Belief;
}

/// Full mapping knowledge (the classic simulator default).
#[derive(Debug, Default)]
struct Omniscient;

impl KnowledgeModel for Omniscient {
    fn acquire(&mut self, base: &Experiment, _cfg: &AttackerConfig) -> Belief {
        // The one model allowed to consult the geometry directly: the
        // true same-bank adjacent-row stride is the encoding of row 1.
        let stride = base.cfg.geometry.encode(&DramAddr::new(0, 0, 0, 0, 1, 0)).0;
        Belief { row_stride: Some(stride), inferred: None }
    }
}

/// No mapping knowledge at all.
#[derive(Debug, Default)]
struct Blind;

impl KnowledgeModel for Blind {
    fn acquire(&mut self, _base: &Experiment, _cfg: &AttackerConfig) -> Belief {
        Belief::default()
    }
}

/// Knowledge inferred from access latencies (runs the probe campaign).
#[derive(Debug, Default)]
struct TimingRecon;

impl KnowledgeModel for TimingRecon {
    fn acquire(&mut self, base: &Experiment, cfg: &AttackerConfig) -> Belief {
        let map = infer_map(base, cfg);
        Belief { row_stride: map.row_stride(), inferred: Some(map) }
    }
}

/// The model implementing a configured knowledge level.
pub(crate) fn model_for(k: AttackerKnowledge) -> Box<dyn KnowledgeModel> {
    match k {
        AttackerKnowledge::Omniscient => Box::new(Omniscient),
        AttackerKnowledge::TimingRecon => Box::new(TimingRecon),
        AttackerKnowledge::Blind => Box::new(Blind),
    }
}

// ---------------------------------------------------------------- probing

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    /// Repeated reads of one address: the hit-latency floor.
    Calib,
    /// Alternating pair differing in bit `j`.
    Stride(u32),
    /// Believed same-bank adjacent-row pair.
    Verify,
    /// Sub-row-stride control pair.
    Control,
}

#[derive(Debug, Clone, Copy)]
struct Phase {
    kind: PhaseKind,
    a: PhysAddr,
    b: PhysAddr,
    samples: usize,
}

/// Draws a fresh line-aligned address, distinct from every address used
/// so far, with the given bit cleared.
fn fresh(rng: &mut Xoshiro256, used: &mut HashSet<u64>, capacity: u64, clear: u64) -> u64 {
    loop {
        let a = rng.next_u64() & (capacity - 1) & !63 & !clear;
        if used.insert(a) && (clear == 0 || used.insert(a | clear)) {
            return a;
        }
    }
}

/// The probe trace: the precomputed schedule, then idle filler (one
/// far-away read per 50K instructions, like the reference machine's idle
/// core) until the window ends.
struct ScheduleTrace {
    entries: Vec<TraceEntry>,
    pos: usize,
    idle: PhysAddr,
}

impl TraceSource for ScheduleTrace {
    fn next_entry(&mut self) -> TraceEntry {
        match self.entries.get(self.pos) {
            Some(e) => {
                self.pos += 1;
                *e
            }
            None => TraceEntry { bubbles: 50_000, addr: self.idle, is_write: false },
        }
    }
}

fn schedule(phases: &[Phase]) -> Vec<TraceEntry> {
    let mut entries = Vec::new();
    for p in phases {
        for i in 0..p.samples {
            let addr = if p.kind == PhaseKind::Calib || i % 2 == 0 { p.a } else { p.b };
            entries.push(TraceEntry { bubbles: PROBE_BUBBLES, addr, is_write: false });
        }
    }
    entries
}

/// Runs one probe schedule on the experiment's machine (benign cores and
/// tracker included) and returns the attacker-visible latency samples.
fn probe_run(base: &Experiment, entries: Vec<TraceEntry>, idle: PhysAddr) -> Vec<LatencySample> {
    let mut e = base.clone();
    // Probes only; no recorders, no oracle — the recon run's outputs are
    // the latencies, nothing else.
    e.telemetry = Default::default();
    // Window sized so the schedule certainly completes: every probe costs
    // ~100 bus cycles of bubbles plus DRAM latency; 4x margin plus a tail.
    e.cfg.window_cycles = entries.len() as u64 * 800 + 50_000;
    e.custom_attack = Some(CustomAttack::new("attackpipe-recon", true, move |_, _| {
        Box::new(ScheduleTrace { entries: entries.clone(), pos: 0, idle })
    }));
    let source = SourceId(e.cfg.cpu.cores - 1);
    let mut sys = e.build_system(false);
    sys.attach_probe(Box::new(LatencyProbe::new(source)));
    let _ = sys.run();
    let mut probes = sys.take_probes();
    take_recorder::<LatencyProbe>(&mut probes).map(LatencyProbe::into_samples).unwrap_or_default()
}

// ------------------------------------------------------------- statistics

fn median(xs: &mut [f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    Some(xs[xs.len() / 2])
}

/// Per-phase median latency, warmup dropped: the first access of each
/// phase (cold row buffer) is not representative of the steady state the
/// classification relies on.
fn phase_medians(phases: &[Phase], samples: &[LatencySample]) -> Vec<Option<f64>> {
    let mut of_addr: HashMap<u64, usize> = HashMap::new();
    for (i, p) in phases.iter().enumerate() {
        of_addr.insert(p.a.0, i);
        of_addr.insert(p.b.0, i);
    }
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); phases.len()];
    for s in samples {
        if let Some(&i) = of_addr.get(&s.phys.0) {
            lat[i].push(s.latency() as f64);
        }
    }
    lat.iter_mut()
        .map(|xs| {
            let warm = xs.len().min(2);
            median(&mut xs[warm..])
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
struct Classes {
    low: f64,
    high: f64,
    threshold: f64,
}

/// Splits latency medians into a fast and a slow cluster at the largest
/// gap. Inconclusive when the gap is too small to be a row-conflict
/// signature (e.g. the schedule never produced a conflict).
fn split_classes(meds: &[f64]) -> Option<Classes> {
    let mut sorted = meds.to_vec();
    if sorted.len() < 2 {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let (mut gap, mut at) = (0.0, 0);
    for i in 0..sorted.len() - 1 {
        let g = sorted[i + 1] - sorted[i];
        if g > gap {
            gap = g;
            at = i;
        }
    }
    if gap < MIN_CLUSTER_GAP {
        return None;
    }
    let low_n = (at + 1) as f64;
    let high_n = (sorted.len() - at - 1) as f64;
    Some(Classes {
        low: sorted[..=at].iter().sum::<f64>() / low_n,
        high: sorted[at + 1..].iter().sum::<f64>() / high_n,
        threshold: (sorted[at] + sorted[at + 1]) / 2.0,
    })
}

/// Median interval between latency spikes (mitigation / refresh stalls)
/// across all recon samples, when at least three spikes were seen.
fn estimate_cadence(samples: &[LatencySample], classes: &Classes) -> Option<u64> {
    let cutoff = classes.high + 3.0 * (classes.high - classes.low);
    let mut spikes: Vec<u64> =
        samples.iter().filter(|s| s.latency() as f64 > cutoff).map(|s| s.done).collect();
    spikes.sort_unstable();
    if spikes.len() < 3 {
        return None;
    }
    let mut gaps: Vec<f64> =
        spikes.windows(2).map(|w| (w[1] - w[0]) as f64).filter(|&g| g > 0.0).collect();
    median(&mut gaps).map(|m| m as u64)
}

// ------------------------------------------------------------ the driver

/// Runs the full recon campaign: a stride-discovery probe run, then a
/// verification probe run, classified offline from the latency samples.
/// Total scheduled accesses never exceed `cfg.recon_budget`.
pub fn infer_map(base: &Experiment, cfg: &AttackerConfig) -> InferredMap {
    let capacity = base.cfg.geometry.capacity_bytes();
    let mut rng = Xoshiro256::seed_from(cfg.seed ^ 0x5ECC_0117);
    let mut used = HashSet::new();
    let idle = PhysAddr(fresh(&mut rng, &mut used, capacity, 0));
    let budget = cfg.recon_budget;

    // ---- run 1: calibration + stride discovery ----
    let top_bit = capacity.trailing_zeros();
    let stride_bits: Vec<u32> = (7..top_bit).collect();
    let per_stride = ((budget.saturating_sub(CALIB_SAMPLES as u64)
        / stride_bits.len().max(1) as u64) as usize)
        .clamp(MIN_PAIR_SAMPLES, STRIDE_SAMPLES)
        & !1; // even: both pair members sampled equally
    let mut phases = vec![Phase {
        kind: PhaseKind::Calib,
        a: PhysAddr(fresh(&mut rng, &mut used, capacity, 0)),
        b: PhysAddr(0),
        samples: CALIB_SAMPLES.min(budget as usize),
    }];
    for &j in &stride_bits {
        let x = fresh(&mut rng, &mut used, capacity, 1 << j);
        phases.push(Phase {
            kind: PhaseKind::Stride(j),
            a: PhysAddr(x),
            b: PhysAddr(x | (1 << j)),
            samples: per_stride,
        });
    }
    let mut spent: u64 = phases.iter().map(|p| p.samples as u64).sum();
    if spent > budget {
        // Degenerate budget: drop stride phases from the top until the
        // schedule fits. The resulting map is (realistically) useless.
        while spent > budget && phases.len() > 1 {
            spent -= phases.pop().expect("len > 1").samples as u64;
        }
    }
    let discovery_samples = probe_run(base, schedule(&phases), idle);
    let meds = phase_medians(&phases, &discovery_samples);
    let all_meds: Vec<f64> = meds.iter().filter_map(|m| *m).collect();
    let classes = split_classes(&all_meds);

    let row_shift = classes.and_then(|c| {
        let slow: Vec<u32> = phases
            .iter()
            .zip(&meds)
            .filter_map(|(p, m)| match (p.kind, m) {
                (PhaseKind::Stride(j), Some(m)) if *m >= c.threshold => Some(j),
                _ => None,
            })
            .collect();
        let shift = *slow.iter().min()?;
        // Every bit at or above the row shift toggles only row bits, so
        // all of them must probe slow; tolerate a little noise.
        let above = stride_bits.iter().filter(|&&j| j >= shift).count();
        (slow.len() * 4 >= above * 3).then_some(shift)
    });

    // ---- run 2: pair verification ----
    let mut pairs = Vec::new();
    let mut verify_samples = Vec::new();
    if let (Some(shift), Some(classes)) = (row_shift, classes) {
        let stride = 1u64 << shift;
        let remaining = budget.saturating_sub(spent);
        let n_pairs = ((remaining / (2 * PAIR_SAMPLES as u64)) as usize).min(MAX_VERIFY_PAIRS);
        if n_pairs > 0 {
            // Believed same-bank adjacent pairs share one base with bits
            // [shift, shift+7) cleared, leaving room for 64 rows.
            let b = fresh(&mut rng, &mut used, capacity, 0x7F << shift);
            let mut vphases = Vec::new();
            for k in 0..n_pairs as u64 {
                vphases.push(Phase {
                    kind: PhaseKind::Verify,
                    a: PhysAddr(b + 2 * k * stride),
                    b: PhysAddr(b + (2 * k + 1) * stride),
                    samples: PAIR_SAMPLES,
                });
            }
            // Controls toggle a sub-row-stride bit (column / bank /
            // bank-group / rank territory): believed *not* to conflict.
            for m in 0..n_pairs as u32 {
                let bit = 7 + (m % (shift - 7).max(1));
                let c = fresh(&mut rng, &mut used, capacity, 1 << bit);
                vphases.push(Phase {
                    kind: PhaseKind::Control,
                    a: PhysAddr(c),
                    b: PhysAddr(c | (1 << bit)),
                    samples: PAIR_SAMPLES,
                });
            }
            spent += vphases.iter().map(|p| p.samples as u64).sum::<u64>();
            verify_samples = probe_run(base, schedule(&vphases), idle);
            let vmeds = phase_medians(&vphases, &verify_samples);
            for (p, m) in vphases.iter().zip(&vmeds) {
                if let Some(m) = m {
                    pairs.push(PairVerdict { a: p.a, b: p.b, same_bank: *m >= classes.threshold });
                }
            }
        }
    }

    let cadence_cycles = classes.and_then(|c| {
        let mut all = discovery_samples;
        all.extend(verify_samples);
        estimate_cadence(&all, &c)
    });

    InferredMap { row_shift, pairs, cadence_cycles, probes_spent: spent }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_classes_finds_the_conflict_cluster() {
        let meds = [40.0, 42.0, 41.0, 43.0, 95.0, 97.0, 99.0];
        let c = split_classes(&meds).expect("clear bimodal split");
        assert!(c.threshold > 43.0 && c.threshold < 95.0);
        assert!(c.low < 45.0 && c.high > 90.0);
        assert!(split_classes(&[40.0, 41.0, 42.0]).is_none(), "no gap, no verdict");
    }

    #[test]
    fn ground_truth_relation_matches_decode() {
        let geom = Geometry::paper_baseline();
        let row1 = geom.encode(&DramAddr::new(0, 0, 0, 0, 1, 0)).0;
        let a = PhysAddr(0x4000_0040);
        assert!(same_bank_conflict(&geom, a, PhysAddr(a.0 + row1)), "adjacent rows conflict");
        assert!(!same_bank_conflict(&geom, a, PhysAddr(a.0 ^ (1 << 14))), "bank bit: no conflict");
        assert!(!same_bank_conflict(&geom, a, a), "same row: no conflict");
    }

    #[test]
    fn schedule_alternates_pairs_and_repeats_calib() {
        let phases = [
            Phase { kind: PhaseKind::Calib, a: PhysAddr(64), b: PhysAddr(0), samples: 3 },
            Phase {
                kind: PhaseKind::Stride(20),
                a: PhysAddr(128),
                b: PhysAddr(128 + (1 << 20)),
                samples: 4,
            },
        ];
        let entries = schedule(&phases);
        let addrs: Vec<u64> = entries.iter().map(|e| e.addr.0).collect();
        assert_eq!(addrs, vec![64, 64, 64, 128, 128 + (1 << 20), 128, 128 + (1 << 20)]);
        assert!(entries.iter().all(|e| e.bubbles == PROBE_BUBBLES && !e.is_write));
    }
}

//! The evaluation core: how a scenario genome becomes a scored, cacheable
//! cell.
//!
//! Every red-team front end — the campaign's fixed matrix, the mutation
//! search, the profile and evaluate stages — asks the same
//! question: *how much does this [`ScenarioSpec`] slow the benign cores
//! down under this tracker?* This module is the one place that knows how
//! the question is put to the simulator:
//!
//! 1. [`Arena::experiment`] turns (tracker, genome) into the
//!    [`Experiment`], content-addressed with the genome's canonical JSON
//!    as the custom attack's identity;
//! 2. a [`Reference`] holds the one insecure attack-free run a whole
//!    arena normalizes against, simulated on the first cache miss and
//!    never on a warm pass;
//! 3. [`Arena::evaluate`] reads a batch through [`sim::exec::Executor`]
//!    against any [`PayloadCache`] — the disk [`sim::RunCache`], the
//!    search's in-run memo, or none;
//! 4. [`Score::of`] reads the numbers every report is built from off the
//!    [`ExperimentResult`].
//!
//! Cells and their reference always run on the event-driven loop; that a
//! genome cell agrees with the dense reference loop is checked at the
//! `System` level, in `tests/engine_equivalence.rs`.

use std::sync::OnceLock;

use crate::scenario::ScenarioSpec;
use sim::cache::cell_key_with_attack_id;
use sim::exec::{Executor, PayloadCache};
use sim::experiment::{CustomAttack, Experiment, TrackerSel};
use sim::metrics::{RunStats, RunTelemetry};
use sim::runner::{RunnerConfig, SweepError};
use sim::ExperimentResult;
use sim_core::json::JsonCodec;

/// Slowdown-trace windows per evaluation: enough resolution to score
/// time-to-max-slowdown and recovery without noticeable cost.
const TRACE_WINDOWS: f64 = 10.0;

/// Slowdown-trace windows per profile probe: coarse enough to stay
/// cheap, fine enough to catch the transient.
const PROBE_WINDOWS: f64 = 8.0;

/// The conditions scenarios are evaluated under — everything a cell
/// depends on besides the tracker and the genome, which is also exactly
/// what the shared reference run depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct Arena {
    /// Benign workload sharing the machine.
    pub workload: String,
    /// Simulation window per evaluation, microseconds.
    pub window_us: f64,
    /// RowHammer threshold.
    pub nrh: u32,
    /// Seed of every simulation (and of the search's mutations).
    pub seed: u64,
    /// Whether cells carry the profile stage's probe telemetry (part of the
    /// cell key, like everything an [`Experiment`] records).
    probing: bool,
}

impl Arena {
    /// Defaults: 250 µs window, N_RH 500, the paper seed, campaign
    /// telemetry.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            window_us: 250.0,
            nrh: 500,
            seed: 0xDA99E5,
            probing: false,
        }
    }

    /// Switches to the profile stage's probe telemetry: 8 trace windows plus
    /// the mitigation log instead of 10 trace windows.
    pub fn probing(mut self) -> Self {
        self.probing = true;
        self
    }

    /// The experiment evaluating `spec` against `tracker`. Every
    /// evaluation records a per-window slowdown trace (probes do not
    /// perturb the run), so reports can score attack transients.
    pub fn experiment(&self, tracker: &TrackerSel, spec: &ScenarioSpec) -> Experiment {
        let genome = spec.clone();
        let custom = CustomAttack::new(&spec.name(), spec.bypasses_llc(), move |geom, seed| {
            genome.build(geom, seed)
        });
        let windows = if self.probing { PROBE_WINDOWS } else { TRACE_WINDOWS };
        let mut e = Experiment::new(&self.workload)
            .tracker(tracker.clone())
            .custom(custom)
            .window_us(self.window_us)
            .nrh(self.nrh)
            .seed(self.seed)
            .record_slowdown(self.window_us / windows);
        e.telemetry.mitigation_log = self.probing;
        e
    }

    /// Evaluates `specs` against `tracker`, reading through `cache`: hits
    /// answer at once (`on_hit` fires per hit, in input order, before
    /// anything simulates), and only if something missed is `reference`
    /// simulated and the misses run against it in parallel — a fully warm
    /// batch performs **zero** simulations. Misses are saved as they
    /// settle. Returns each scenario's outcome in input order; what to do
    /// with a failed one is the caller's call.
    pub(crate) fn evaluate(
        &self,
        tracker: &TrackerSel,
        reference: &Reference,
        specs: &[ScenarioSpec],
        cache: Option<&dyn PayloadCache<ExperimentResult>>,
        mut on_hit: impl FnMut(usize, &ExperimentResult),
    ) -> (Vec<Result<ExperimentResult, SweepError>>, EvalStats) {
        // The genome's canonical JSON identifies the custom attack. The
        // shared reference is not part of the key: it is a function of
        // fields the key already covers (workload, window, N_RH, seed).
        let key = |spec: &ScenarioSpec| {
            let genome = spec.encode().render();
            cell_key_with_attack_id(&self.experiment(tracker, spec), Some(&genome))
        };
        let cells =
            specs.iter().map(|spec| (spec.clone(), cache.and_then(|_| key(spec)))).collect();
        let exec = Executor { cache, runner: &RunnerConfig::default() };
        let probed = exec.probe(cells, |i, outcome, _| {
            on_hit(i, outcome.as_ref().expect("hits are payloads"));
        });
        let misses = probed.missed().len();
        let first_use = misses > 0 && reference.0.get().is_none();
        let reference = (misses > 0).then(|| reference.get(self).clone());
        let (arena, tracker) = (self.clone(), tracker.clone());
        let run = move |spec: ScenarioSpec| {
            let reference = reference.as_ref().expect("simulated whenever a scenario missed");
            arena.experiment(&tracker, &spec).run_against(reference)
        };
        let (outcomes, summary) = probed.run(ScenarioSpec::name, run, |_, _, _| {});
        let stats = EvalStats {
            cells: summary.cells,
            hits: summary.hits,
            misses,
            simulations: misses + usize::from(first_use),
        };
        (outcomes, stats)
    }
}

/// The insecure attack-free run every evaluation in an [`Arena`]
/// normalizes against, simulated at most once — on the first cache miss
/// — and shared from then on. It does not depend on the tracker, so a
/// campaign over many trackers, or a warm search and its cold baseline,
/// pass one `Reference` around.
#[derive(Debug, Default)]
pub(crate) struct Reference(OnceLock<RunStats>);

impl Reference {
    /// The reference for `arena`, simulating it on first use.
    pub(crate) fn get(&self, arena: &Arena) -> &RunStats {
        self.0.get_or_init(|| {
            let idle = ScenarioSpec::baseline(workloads::Attack::CacheThrash);
            let none = TrackerSel::by_key("none").expect("built-in key");
            arena.experiment(&none, &idle).reference()
        })
    }
}

/// Cache accounting for one batch of evaluations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Scenarios in the batch.
    pub cells: usize,
    /// Scenarios answered from the cache.
    pub hits: usize,
    /// Scenarios that had to simulate.
    pub misses: usize,
    /// Actual simulations performed (misses plus the shared reference run
    /// when this batch was the one that forced it).
    pub simulations: usize,
}

impl std::fmt::Display for EvalStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} hits, {} misses ({} simulations)", self.hits, self.misses, self.simulations)
    }
}

/// What one evaluation measured — the numbers every red-team report
/// (campaign rows, heatmap cells, vulnerability rows, pipeline verdicts)
/// is filled from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Score {
    /// Mean benign slowdown vs. the insecure attack-free baseline
    /// (1 / normalized performance; higher = stronger attack).
    pub(crate) slowdown: f64,
    /// Normalized performance (the paper's metric).
    pub(crate) normalized_performance: f64,
    /// Worst single-window slowdown of the slowdown trace (0 when no
    /// trace window completed).
    pub(crate) peak_slowdown: f64,
    /// Microseconds until the attack's full effect (the worst window).
    pub(crate) time_to_max_slowdown_us: Option<f64>,
    /// Microseconds from the worst window until benign IPC recovers above
    /// [`sim::RECOVERY_THRESHOLD`] of the reference; `None` when the
    /// tracker never recovers within the window.
    pub(crate) recovery_us: Option<f64>,
    /// Mitigation commands issued (VRR + RFM).
    pub(crate) mitigations: u64,
    /// Tracker counter reads + writes injected into DRAM.
    pub(crate) counter_ops: u64,
    /// Structure-reset sweeps triggered.
    pub(crate) reset_sweeps: u64,
    /// Total DRAM energy, millijoules.
    pub(crate) energy_mj: f64,
}

impl Score {
    /// The score of one finished evaluation.
    pub(crate) fn of(r: &ExperimentResult) -> Score {
        Score::new(&r.run, r.normalized_performance, r.telemetry.as_ref())
    }

    /// The score of a run normalized outside [`Experiment::run_against`]
    /// (the attacker pipeline owns its hammer run).
    pub(crate) fn new(
        run: &RunStats,
        normalized_performance: f64,
        t: Option<&RunTelemetry>,
    ) -> Score {
        Score {
            slowdown: 1.0 / normalized_performance.max(1e-6),
            normalized_performance,
            peak_slowdown: t
                .and_then(|t| t.slowdown.as_ref())
                .and_then(|trace| trace.max_slowdown_point())
                .map_or(0.0, |p| p.slowdown()),
            time_to_max_slowdown_us: t.and_then(|t| t.time_to_max_slowdown_us()),
            recovery_us: t.and_then(|t| t.recovery_us(sim::RECOVERY_THRESHOLD)),
            mitigations: run.mem.vrr_commands + run.mem.rfm_commands,
            counter_ops: run.mem.counter_reads + run.mem.counter_writes,
            reset_sweeps: run.mem.reset_sweeps,
            energy_mj: run.energy_mj,
        }
    }
}

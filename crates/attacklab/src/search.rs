//! Mutation-based worst-case scenario search.
//!
//! BlockHammer-style evaluation methodology says fixed attack patterns
//! understate worst-case damage; this module *searches* for it. Starting
//! from the paper's hand-written attacks (as [`Shape::Baseline`](crate::Shape), bit-exact)
//! plus a few random genomes, it hill-climbs [`ScenarioSpec`] mutations on
//! **normalized slowdown** of the benign cores, evaluating each batch of
//! mutants in parallel against one shared reference run. Everything is
//! deterministic in the configured seed — the report carries the seed that
//! reproduces its best scenario.

use std::collections::HashMap;

use crate::scenario::ScenarioSpec;
use sim::cache::{cell_key_with_attack_id, RunCache};
use sim::exec::{Executor, PayloadCache};
use sim::experiment::{CustomAttack, Experiment, TrackerSel};
use sim::metrics::RunStats;
use sim::runner::{parallel_map, RunnerConfig};
use sim_core::json::JsonCodec;
use sim_core::rng::Xoshiro256;

use crate::pattern::PatternTrace;

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Tracker under attack (a registry selection, parameter overrides
    /// included).
    pub tracker: TrackerSel,
    /// Benign workload sharing the machine.
    pub workload: String,
    /// Simulation window per evaluation, microseconds.
    pub window_us: f64,
    /// RowHammer threshold.
    pub nrh: u32,
    /// Seed controlling the whole search (simulation + mutations).
    pub seed: u64,
    /// Total scenario evaluations.
    pub budget: u32,
    /// Mutants evaluated per generation (fixed, so the search trajectory
    /// does not depend on host parallelism).
    pub batch: u32,
}

impl SearchConfig {
    /// Defaults: 250 µs window, N_RH 500, paper seed, 50 evaluations in
    /// batches of 8.
    pub fn new(tracker: impl Into<TrackerSel>, workload: &str) -> Self {
        Self {
            tracker: tracker.into(),
            workload: workload.to_string(),
            window_us: 250.0,
            nrh: 500,
            seed: 0xDA99E5,
            budget: 50,
            batch: 8,
        }
    }
}

/// One evaluated scenario.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// The genome.
    pub spec: ScenarioSpec,
    /// Scenario display name.
    pub name: String,
    /// Mean benign slowdown vs. the insecure attack-free baseline
    /// (1 / normalized performance; higher = stronger attack).
    pub slowdown: f64,
    /// Normalized performance (the paper's metric).
    pub normalized_performance: f64,
    /// Mitigation commands issued (VRR + RFM).
    pub mitigations: u64,
    /// Tracker counter reads + writes injected into DRAM.
    pub counter_ops: u64,
    /// Structure-reset sweeps triggered.
    pub reset_sweeps: u64,
    /// Total DRAM energy, millijoules.
    pub energy_mj: f64,
    /// Microseconds until the attack's full effect (worst slowdown
    /// window), scored from the per-window [`sim_core::SlowdownTrace`].
    pub time_to_max_slowdown_us: Option<f64>,
    /// Microseconds from the worst window until benign IPC recovers above
    /// [`sim::RECOVERY_THRESHOLD`] of the reference; `None` when the
    /// tracker never recovers within the window.
    pub recovery_us: Option<f64>,
    /// Recon map accuracy, for rows produced by the attackpipe pipeline
    /// (`None` for scenario evaluations, which assume full knowledge).
    pub recon_accuracy: Option<f64>,
    /// Victim bit flips adjudicated by the attackpipe pipeline (`None`
    /// for scenario evaluations, which score slowdown only).
    pub flips: Option<u64>,
}

/// Outcome of one search run.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Tracker label (display name plus any parameter overrides).
    pub tracker: String,
    /// Seed reproducing this exact search.
    pub seed: u64,
    /// Evaluations actually spent.
    pub evaluations: u32,
    /// Strongest scenario found.
    pub best: EvalRecord,
    /// The paper's tailored attack for this tracker, evaluated under the
    /// same conditions (the bar the search must at least match).
    pub tailored: EvalRecord,
    /// (evaluation index, best slowdown so far) — the climb.
    pub history: Vec<(u32, f64)>,
    /// Candidate genomes answered from the in-run memo instead of a fresh
    /// simulation (mutation collisions; see [`EvalMemo`]).
    pub dedup_hits: u32,
}

impl SearchReport {
    /// True when the search at least matched the hand-written tailored
    /// attack (it always should: the tailored attack seeds the initial
    /// population bit-exactly).
    pub fn rediscovered_tailored(&self) -> bool {
        self.slack() >= 0.0
    }

    /// Slowdown margin of the search's best over the tailored attack.
    pub fn slack(&self) -> f64 {
        self.best.slowdown - self.tailored.slowdown
    }
}

/// Slowdown-trace windows per evaluation: enough resolution to score
/// time-to-max-slowdown and recovery without noticeable cost.
const TRACE_WINDOWS: f64 = 10.0;

/// Builds the experiment evaluating `spec` against `cfg`'s tracker. Every
/// evaluation records a per-window slowdown trace (probes do not perturb
/// the run), so campaign rows can score attack transients.
pub fn experiment_for(cfg: &SearchConfig, spec: &ScenarioSpec) -> Experiment {
    let spec_for_factory = spec.clone();
    let custom = CustomAttack::new(&spec.name(), spec.bypasses_llc(), move |geom, seed| {
        Box::new(PatternTrace(spec_for_factory.build(geom, seed)))
    });
    Experiment::new(&cfg.workload)
        .tracker(cfg.tracker.clone())
        .custom(custom)
        .window_us(cfg.window_us)
        .nrh(cfg.nrh)
        .seed(cfg.seed)
        .record_slowdown(cfg.window_us / TRACE_WINDOWS)
}

/// The shared reference run (insecure, attack-free) all evaluations in this
/// search normalize against. Computing it once removes half the simulation
/// cost of every evaluation.
pub fn reference_run(cfg: &SearchConfig) -> RunStats {
    let mut e = experiment_for(cfg, &ScenarioSpec::baseline(workloads::Attack::CacheThrash));
    // Evaluations normalize against the flat end-of-run reference (the
    // `run_against` path), so recording reference windows would be pure
    // waste; probes never change `RunStats`, only cost.
    e.telemetry = sim::TelemetrySpec::default();
    e.build_system(true).run()
}

fn record(spec: ScenarioSpec, r: &sim::ExperimentResult) -> EvalRecord {
    let np = r.normalized_performance.max(1e-6);
    EvalRecord {
        name: spec.name(),
        spec,
        slowdown: 1.0 / np,
        normalized_performance: r.normalized_performance,
        mitigations: r.run.mem.vrr_commands + r.run.mem.rfm_commands,
        counter_ops: r.run.mem.counter_reads + r.run.mem.counter_writes,
        reset_sweeps: r.run.mem.reset_sweeps,
        energy_mj: r.run.energy_mj,
        time_to_max_slowdown_us: r.telemetry.as_ref().and_then(|t| t.time_to_max_slowdown_us()),
        recovery_us: r.telemetry.as_ref().and_then(|t| t.recovery_us(sim::RECOVERY_THRESHOLD)),
        recon_accuracy: None,
        flips: None,
    }
}

/// Evaluates a batch of scenarios in parallel against a shared reference.
/// Results keep input order; a scenario whose simulation panics is dropped
/// with a warning rather than aborting the search.
pub fn evaluate_specs(
    cfg: &SearchConfig,
    reference: &RunStats,
    specs: Vec<ScenarioSpec>,
) -> Vec<EvalRecord> {
    evaluate(cfg, reference, specs, None)
}

/// [`evaluate_specs`] read through the content-addressed run cache.
///
/// The scenario genome's canonical JSON identifies the custom attack, so
/// each (tracker, workload, scenario, window, seed, …) cell is keyed
/// stably across processes. The shared reference run is *not* part of the
/// key: it is a deterministic function of fields the key already covers
/// (workload, window, N_RH, seed), so equal keys imply equal references.
/// Hits skip simulation entirely; misses simulate and store.
pub fn evaluate_specs_cached(
    cfg: &SearchConfig,
    reference: &RunStats,
    specs: Vec<ScenarioSpec>,
    cache: &RunCache,
) -> Vec<EvalRecord> {
    evaluate(cfg, reference, specs, Some(cache))
}

fn evaluate(
    cfg: &SearchConfig,
    reference: &RunStats,
    specs: Vec<ScenarioSpec>,
    cache: Option<&RunCache>,
) -> Vec<EvalRecord> {
    let cells = specs
        .iter()
        .map(|spec| {
            let key = cache.and_then(|_| {
                let e = experiment_for(cfg, spec);
                cell_key_with_attack_id(&e, Some(&spec.encode().render()))
            });
            (spec.clone(), key)
        })
        .collect();
    let exec = Executor {
        cache: cache.map(|c| c as &dyn PayloadCache<_>),
        checkpoint: None,
        runner: &RunnerConfig::default(),
    };
    let (cfg, reference) = (cfg.clone(), reference.clone());
    let run = move |spec: ScenarioSpec| experiment_for(&cfg, &spec).run_against(&reference);
    let (outcomes, _) = exec.probe(cells, |_, _, _| {}).run(ScenarioSpec::name, run, |_, _, _| {});
    specs
        .into_iter()
        .zip(outcomes)
        .filter_map(|(spec, outcome)| match outcome {
            Ok(result) => Some(record(spec, &result)),
            Err(e) => {
                eprintln!("attacklab: scenario evaluation failed, skipping: {e}");
                None
            }
        })
        .collect()
}

/// An in-run memo of already-evaluated genomes, keyed by the genome's
/// canonical JSON. Hill-climbing mutation collides often (a `seed_salt`
/// nudge undone, the same shape scaling drawn twice), and each collision
/// used to pay a full simulation; the memo answers it from memory instead.
///
/// Deliberately *not* the PR 6 disk cache: the search trajectory is
/// adaptive, so its cells would pollute a shared cache with one-off keys.
/// The memo lives and dies with a single search run.
#[derive(Debug, Default)]
pub struct EvalMemo {
    map: HashMap<String, EvalRecord>,
    hits: u32,
}

impl EvalMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluations answered from the memo instead of a simulation.
    pub fn hits(&self) -> u32 {
        self.hits
    }

    /// Distinct genomes simulated so far.
    pub fn simulated(&self) -> usize {
        self.map.len()
    }
}

/// [`evaluate_specs`] deduplicated through an [`EvalMemo`]: identical
/// genomes — within this batch or remembered from earlier batches of the
/// same run — are simulated once and answered from the memo afterwards.
/// Results keep input order; duplicates receive byte-identical records
/// (the simulation is deterministic, so this changes cost, never results).
pub fn evaluate_specs_memo(
    cfg: &SearchConfig,
    reference: &RunStats,
    specs: Vec<ScenarioSpec>,
    memo: &mut EvalMemo,
) -> Vec<EvalRecord> {
    let mut slots: Vec<Option<EvalRecord>> = Vec::with_capacity(specs.len());
    let mut miss_index: HashMap<String, usize> = HashMap::new();
    let mut miss_slots: Vec<Vec<usize>> = Vec::new();
    let mut miss_keys: Vec<String> = Vec::new();
    let mut miss_specs: Vec<ScenarioSpec> = Vec::new();
    for (i, spec) in specs.into_iter().enumerate() {
        let key = spec.encode().render();
        if let Some(rec) = memo.map.get(&key) {
            memo.hits += 1;
            slots.push(Some(rec.clone()));
        } else if let Some(&u) = miss_index.get(&key) {
            // Within-batch collision: simulate once, fill both slots.
            memo.hits += 1;
            slots.push(None);
            miss_slots[u].push(i);
        } else {
            slots.push(None);
            miss_index.insert(key.clone(), miss_specs.len());
            miss_slots.push(vec![i]);
            miss_keys.push(key);
            miss_specs.push(spec);
        }
    }
    let outcomes = parallel_map(miss_specs, |spec| {
        let result = experiment_for(cfg, &spec).run_against(reference);
        record(spec, &result)
    });
    for (u, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(rec) => {
                for &i in &miss_slots[u] {
                    slots[i] = Some(rec.clone());
                }
                memo.map.insert(miss_keys[u].clone(), rec);
            }
            Err(e) => eprintln!("attacklab: scenario evaluation failed, skipping: {e}"),
        }
    }
    slots.into_iter().flatten().collect()
}

/// Runs the hill-climbing search and reports the worst case found.
///
/// # Panics
///
/// Panics if the workload is unknown or the budget is zero.
pub fn search(cfg: &SearchConfig) -> SearchReport {
    let reference = reference_run(cfg);
    search_against(cfg, &reference)
}

/// [`search`] with a caller-supplied reference run. The reference is
/// tracker-independent, so campaigns sweeping many trackers compute it once
/// and share it across every search and matrix evaluation.
///
/// # Panics
///
/// Panics if the budget is zero, or if the tailored-attack simulation
/// itself fails (without it there is no baseline to compare against).
pub fn search_against(cfg: &SearchConfig, reference: &RunStats) -> SearchReport {
    search_seeded(cfg, reference, &[])
}

/// [`search_against`] warm-started from prior genomes (typically the top
/// cells of a profiler sensitivity heatmap). The priors join the initial
/// population ahead of the random fill, and the exploration move mutates a
/// random prior instead of drawing a cold random genome — the search spends
/// its budget where the profile already showed the tracker to be weak.
///
/// With an empty prior set this is exactly [`search_against`]: same rng
/// draw sequence, same trajectory, bit-identical report.
///
/// # Panics
///
/// Panics if the budget is zero, or if the tailored-attack simulation
/// itself fails (without it there is no baseline to compare against).
pub fn search_seeded(
    cfg: &SearchConfig,
    reference: &RunStats,
    priors: &[ScenarioSpec],
) -> SearchReport {
    search_seeded_observed(cfg, reference, priors, &mut |_, _| {})
}

/// [`search_seeded`] streaming the climb: `frontier(evaluations, best)` is
/// called after every batch, exactly mirroring the report's `history` —
/// dashboards render the frontier live without changing the trajectory.
///
/// # Panics
///
/// Panics if the budget is zero, or if the tailored-attack simulation
/// itself fails (without it there is no baseline to compare against).
pub fn search_seeded_observed(
    cfg: &SearchConfig,
    reference: &RunStats,
    priors: &[ScenarioSpec],
    frontier: &mut dyn FnMut(u32, f64),
) -> SearchReport {
    assert!(cfg.budget > 0, "search budget must be nonzero");
    let mut rng = Xoshiro256::seed_from(cfg.seed ^ 0x5EA2C4);

    // Initial population: the attack the paper tailored to this tracker
    // (bit-exact via compat — guarantees the search never reports worse
    // than the hand-written pattern), the two mapping-agnostic attacks,
    // any warm-start priors, and random genomes to fill the first batch.
    let tailored_attack = workloads::Attack::tailored_for(cfg.tracker.name());
    let mut init: Vec<ScenarioSpec> = Vec::new();
    for attack in [tailored_attack, workloads::Attack::Streaming, workloads::Attack::RefreshAttack]
    {
        let spec = ScenarioSpec::baseline(attack);
        if !init.contains(&spec) {
            init.push(spec);
        }
    }
    for prior in priors {
        if !init.contains(prior) {
            init.push(prior.clone());
        }
    }
    while (init.len() as u32) < cfg.batch.max(4).min(cfg.budget) {
        init.push(ScenarioSpec::random(&mut rng));
    }
    init.truncate(cfg.budget as usize);

    let mut memo = EvalMemo::new();
    let mut evaluations = 0u32;
    let mut history = Vec::new();
    // Count attempts (not successes) everywhere, so a panicking scenario
    // still consumes budget and the loop below terminates on schedule.
    // Memo hits count too: the search *trajectory* must not depend on how
    // many collisions happened to be answered cheaply.
    evaluations += init.len() as u32;
    let evaluated = evaluate_specs_memo(cfg, reference, init, &mut memo);
    let tailored = evaluated
        .iter()
        .find(|r| r.spec == ScenarioSpec::baseline(tailored_attack))
        .unwrap_or_else(|| {
            panic!(
                "the tailored attack ({}) failed to simulate against {}; \
                 no baseline to search against",
                tailored_attack,
                cfg.tracker.name()
            )
        })
        .clone();
    let mut best = evaluated
        .iter()
        .max_by(|a, b| a.slowdown.total_cmp(&b.slowdown))
        .expect("non-empty initial population")
        .clone();
    history.push((evaluations, best.slowdown));
    frontier(evaluations, best.slowdown);

    while evaluations < cfg.budget {
        let remaining = cfg.budget - evaluations;
        let n = cfg.batch.max(1).min(remaining);
        // Mostly local moves around the incumbent, plus an occasional
        // exploration candidate to escape plateaus: a fresh random genome
        // when searching cold, a mutated heatmap prior when warm-started.
        let mutants: Vec<ScenarioSpec> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.15) {
                    if priors.is_empty() {
                        ScenarioSpec::random(&mut rng)
                    } else {
                        let pick = rng.gen_range(priors.len() as u64) as usize;
                        priors[pick].mutate(&mut rng)
                    }
                } else {
                    best.spec.mutate(&mut rng)
                }
            })
            .collect();
        let evaluated = evaluate_specs_memo(cfg, reference, mutants, &mut memo);
        evaluations += n;
        for rec in evaluated {
            if rec.slowdown > best.slowdown {
                best = rec;
            }
        }
        history.push((evaluations, best.slowdown));
        frontier(evaluations, best.slowdown);
    }

    SearchReport {
        tracker: cfg.tracker.label(),
        seed: cfg.seed,
        evaluations,
        best,
        tailored,
        history,
        dedup_hits: memo.hits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(tracker: &str) -> SearchConfig {
        let mut cfg = SearchConfig::new(tracker, "povray_like");
        cfg.window_us = 60.0;
        cfg.budget = 6;
        cfg.batch = 3;
        cfg.seed = 0xBEEF;
        cfg
    }

    #[test]
    fn search_never_reports_worse_than_the_tailored_attack() {
        let report = search(&tiny("hydra"));
        assert!(report.rediscovered_tailored(), "slack {}", report.slack());
        assert_eq!(report.evaluations, 6);
        assert_eq!(report.tracker, "Hydra");
        assert!(report.best.slowdown >= 1.0 - 1e-9, "slowdown {}", report.best.slowdown);
    }

    #[test]
    fn search_is_deterministic_in_its_seed() {
        let a = search(&tiny("comet"));
        let b = search(&tiny("comet"));
        assert_eq!(a.best.spec, b.best.spec);
        assert!((a.best.slowdown - b.best.slowdown).abs() < 1e-12);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn evaluations_score_attack_transients() {
        let cfg = tiny("hydra");
        let reference = reference_run(&cfg);
        let records = evaluate_specs(
            &cfg,
            &reference,
            vec![ScenarioSpec::baseline(workloads::Attack::CacheThrash)],
        );
        assert_eq!(records.len(), 1);
        let r = &records[0];
        let t = r.time_to_max_slowdown_us.expect("slowdown trace must be recorded");
        assert!(t > 0.0 && t <= cfg.window_us + 1e-9, "{t}");
        if let Some(rec) = r.recovery_us {
            assert!(rec > 0.0 && rec < cfg.window_us);
        }
    }

    #[test]
    fn cached_evaluation_reproduces_the_uncached_records() {
        let dir = std::env::temp_dir().join(format!("attacklab-eval-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::open(&dir).expect("open cache");
        let cfg = tiny("hydra");
        let reference = reference_run(&cfg);
        let specs = vec![
            ScenarioSpec::baseline(workloads::Attack::CacheThrash),
            ScenarioSpec::baseline(workloads::Attack::Streaming),
        ];
        let plain = evaluate_specs(&cfg, &reference, specs.clone());
        let cold = evaluate_specs_cached(&cfg, &reference, specs.clone(), &cache);
        assert_eq!(cache.stats().misses, 2);
        let warm = evaluate_specs_cached(&cfg, &reference, specs, &cache);
        assert_eq!(cache.stats().hits, 2, "warm pass must answer from cache");
        for (a, b) in plain.iter().zip(&cold).chain(cold.iter().zip(&warm)) {
            assert_eq!(a.name, b.name);
            assert!((a.slowdown - b.slowdown).abs() < 1e-12);
            assert_eq!(a.mitigations, b.mitigations);
            assert_eq!(a.counter_ops, b.counter_ops);
            assert_eq!(a.time_to_max_slowdown_us, b.time_to_max_slowdown_us);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_deduplicates_identical_genomes() {
        let cfg = tiny("hydra");
        let reference = reference_run(&cfg);
        let mut memo = EvalMemo::new();
        let dup = ScenarioSpec::baseline(workloads::Attack::Streaming);
        let other = ScenarioSpec::baseline(workloads::Attack::CacheThrash);
        let first =
            evaluate_specs_memo(&cfg, &reference, vec![dup.clone(), dup.clone()], &mut memo);
        assert_eq!(first.len(), 2);
        assert_eq!(memo.simulated(), 1, "within-batch duplicate must simulate once");
        assert_eq!(memo.hits(), 1);
        let again = evaluate_specs_memo(&cfg, &reference, vec![other, dup], &mut memo);
        assert_eq!(again.len(), 2);
        assert_eq!(memo.simulated(), 2, "only the new genome simulates");
        assert_eq!(memo.hits(), 2);
        assert!((first[0].slowdown - first[1].slowdown).abs() == 0.0);
        assert!((again[1].slowdown - first[0].slowdown).abs() == 0.0);
    }

    #[test]
    fn empty_priors_reproduce_the_cold_search_exactly() {
        let cfg = tiny("comet");
        let reference = reference_run(&cfg);
        let cold = search_against(&cfg, &reference);
        let seeded = search_seeded(&cfg, &reference, &[]);
        assert_eq!(cold.best.spec, seeded.best.spec);
        assert_eq!(cold.history, seeded.history);
        assert_eq!(cold.evaluations, seeded.evaluations);
    }

    #[test]
    fn warm_started_search_is_deterministic_and_never_below_tailored() {
        let cfg = tiny("hydra");
        let reference = reference_run(&cfg);
        let priors = vec![ScenarioSpec {
            shape: crate::scenario::Shape::Hammer { banks: 32, per_bank: 8 },
            ..ScenarioSpec::baseline(workloads::Attack::CacheThrash)
        }];
        let a = search_seeded(&cfg, &reference, &priors);
        let b = search_seeded(&cfg, &reference, &priors);
        assert_eq!(a.best.spec, b.best.spec);
        assert_eq!(a.history, b.history);
        assert_eq!(a.dedup_hits, b.dedup_hits);
        assert!(a.rediscovered_tailored(), "slack {}", a.slack());
        assert_eq!(a.evaluations, cfg.budget);
    }

    #[test]
    fn shared_reference_matches_per_run_normalization() {
        let cfg = tiny("para");
        let spec = ScenarioSpec::baseline(workloads::Attack::Streaming);
        let reference = reference_run(&cfg);
        let via_shared = experiment_for(&cfg, &spec).run_against(&reference);
        let via_fresh = experiment_for(&cfg, &spec).run();
        assert!(
            (via_shared.normalized_performance - via_fresh.normalized_performance).abs() < 1e-12
        );
    }
}

//! Mutation-based worst-case scenario search.
//!
//! BlockHammer-style evaluation methodology says fixed attack patterns
//! understate worst-case damage; this module *searches* for it. Starting
//! from the paper's attacks (as [`Shape::Baseline`](crate::Shape))
//! plus a few random genomes, it hill-climbs [`ScenarioSpec`] mutations on
//! **normalized slowdown** of the benign cores, evaluating each batch of
//! mutants in parallel against one shared reference run. Everything is
//! deterministic in the configured seed — the report carries the seed that
//! reproduces its best scenario.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::arena::{Arena, Reference, Score};
use crate::scenario::ScenarioSpec;
use sim::cache::CellKey;
use sim::exec::PayloadCache;
use sim::experiment::TrackerSel;
use sim::runner::SweepError;
use sim::ExperimentResult;
use sim_core::rng::Xoshiro256;

/// Search configuration.
#[derive(Debug, Clone)]
pub(crate) struct SearchConfig {
    /// Tracker under attack (a registry selection, parameter overrides
    /// included).
    pub(crate) tracker: TrackerSel,
    /// Evaluation conditions; `arena.seed` also seeds the mutations.
    pub(crate) arena: Arena,
    /// Total scenario evaluations.
    pub(crate) budget: u32,
    /// Mutants evaluated per generation (fixed, so the search trajectory
    /// does not depend on host parallelism).
    pub(crate) batch: u32,
}

impl SearchConfig {
    /// A search of `tracker` in `arena`: 50 evaluations in batches of 8.
    pub(crate) fn new(tracker: impl Into<TrackerSel>, arena: Arena) -> Self {
        Self { tracker: tracker.into(), arena, budget: 50, batch: 8 }
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
    /// Recon map accuracy, for rows produced by the attacker pipeline
    /// (`None` for scenario evaluations, which assume full knowledge).
    pub recon_accuracy: Option<f64>,
    /// Victim bit flips adjudicated by the attacker pipeline (`None`
    /// for scenario evaluations, which score slowdown only).
    pub flips: Option<u64>,
}

impl EvalRecord {
    /// The record of `spec` having scored `score` (a scenario evaluation:
    /// no recon, no flips).
    pub(crate) fn new(spec: ScenarioSpec, score: &Score) -> Self {
        Self {
            name: spec.name(),
            spec,
            slowdown: score.slowdown,
            normalized_performance: score.normalized_performance,
            mitigations: score.mitigations,
            counter_ops: score.counter_ops,
            reset_sweeps: score.reset_sweeps,
            energy_mj: score.energy_mj,
            time_to_max_slowdown_us: score.time_to_max_slowdown_us,
            recovery_us: score.recovery_us,
            recon_accuracy: None,
            flips: None,
        }
    }
}

/// Scores a batch's outcomes in input order; a scenario whose simulation
/// failed is reported and left out (`None`) rather than aborting the
/// campaign.
pub(crate) fn records(
    specs: &[ScenarioSpec],
    outcomes: Vec<Result<ExperimentResult, SweepError>>,
) -> Vec<Option<EvalRecord>> {
    let scored = specs.iter().zip(outcomes).map(|(spec, outcome)| match outcome {
        Ok(result) => Some(EvalRecord::new(spec.clone(), &Score::of(&result))),
        Err(e) => {
            eprintln!("redteam: scenario evaluation failed, skipping: {e}");
            None
        }
    });
    scored.collect()
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
    /// simulation (mutation collisions).
    pub dedup_hits: u32,
}

impl SearchReport {
    /// True when the search at least matched the hand-written tailored
    /// attack (it always should: the tailored attack seeds the initial
    /// population bit-exactly).
    pub(crate) fn rediscovered_tailored(&self) -> bool {
        self.slack() >= 0.0
    }

    /// Slowdown margin of the search's best over the tailored attack.
    pub(crate) fn slack(&self) -> f64 {
        self.best.slowdown - self.tailored.slowdown
    }
}

/// An in-run memo of already-evaluated genomes: the [`PayloadCache`] a
/// search reads its batches through. Hill-climbing mutation collides
/// often (a `seed_salt` nudge undone, the same shape scaling drawn
/// twice), and each collision used to pay a full simulation; the memo
/// answers it from memory instead.
///
/// Deliberately *not* the PR 6 disk cache: the search trajectory is
/// adaptive, so its cells would pollute a shared cache with one-off keys.
/// The memo lives and dies with a single search run.
#[derive(Debug, Default)]
struct EvalMemo {
    map: Mutex<HashMap<String, ExperimentResult>>,
    hits: AtomicU32,
}

impl EvalMemo {
    /// An empty memo.
    fn new() -> Self {
        Self::default()
    }

    /// Evaluations answered from the memo instead of a simulation.
    fn hits(&self) -> u32 {
        self.hits.load(Ordering::Relaxed)
    }
}

impl PayloadCache<ExperimentResult> for EvalMemo {
    fn lookup(&self, key: &CellKey) -> Option<ExperimentResult> {
        let hit = self.map.lock().expect("memo lock").get(&key.key).cloned();
        self.hits.fetch_add(u32::from(hit.is_some()), Ordering::Relaxed);
        hit
    }

    fn save(&self, key: &CellKey, result: &ExperimentResult) -> std::io::Result<()> {
        self.map.lock().expect("memo lock").insert(key.key.clone(), result.clone());
        Ok(())
    }
}

/// Evaluates a batch through an [`EvalMemo`]: identical genomes — within
/// this batch or remembered from earlier batches of the same run — are
/// simulated once and answered from the memo afterwards. Results keep
/// input order, minus scenarios whose simulation failed; duplicates
/// receive byte-identical records (the simulation is deterministic, so
/// this changes cost, never results).
fn evaluate_specs_memo(
    cfg: &SearchConfig,
    reference: &Reference,
    specs: Vec<ScenarioSpec>,
    memo: &EvalMemo,
) -> Vec<EvalRecord> {
    // A genome repeated within the batch runs once, at its first
    // occurrence; the memo can only answer what an earlier batch saved.
    let mut unique: Vec<ScenarioSpec> = Vec::new();
    let slot: Vec<usize> = specs
        .into_iter()
        .map(|spec| {
            unique.iter().position(|u| *u == spec).unwrap_or_else(|| {
                unique.push(spec);
                unique.len() - 1
            })
        })
        .collect();
    memo.hits.fetch_add((slot.len() - unique.len()) as u32, Ordering::Relaxed);
    let (outcomes, _) = cfg.arena.evaluate(&cfg.tracker, reference, &unique, Some(memo), |_, _| {});
    let records = records(&unique, outcomes);
    slot.into_iter().filter_map(|u| records[u].clone()).collect()
}

/// Runs the hill-climbing search and reports the worst case found.
///
/// The `priors` (typically the top cells of a profile stage's sensitivity
/// heatmap) warm-start it: they join the initial population ahead of the
/// random fill, and the exploration move mutates a random prior instead
/// of drawing a cold random genome — the search spends its budget where
/// the profile already showed the tracker to be weak. With no priors the
/// search is cold. `frontier(evaluations, best)` is called after every
/// batch, exactly mirroring the report's `history` — dashboards render
/// the climb live without changing the trajectory.
///
/// `reference` is tracker-independent, so campaigns sweeping many
/// trackers, and a warm search with its cold baseline, share one.
///
/// # Panics
///
/// Panics if the workload is unknown, the budget is zero, or the
/// tailored-attack simulation itself fails (without it there is no
/// baseline to compare against).
pub(crate) fn search(
    cfg: &SearchConfig,
    reference: &Reference,
    priors: &[ScenarioSpec],
    frontier: &mut dyn FnMut(u32, f64),
) -> SearchReport {
    assert!(cfg.budget > 0, "search budget must be nonzero");
    let mut rng = Xoshiro256::seed_from(cfg.arena.seed ^ 0x5EA2C4);

    // Initial population: the attack the paper tailored to this tracker
    // (its own stream — guarantees the search never reports worse than
    // the paper's pattern), the two mapping-agnostic attacks,
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

    let memo = EvalMemo::new();
    let mut evaluations = 0u32;
    let mut history = Vec::new();
    // Count attempts (not successes) everywhere, so a panicking scenario
    // still consumes budget and the loop below terminates on schedule.
    // Memo hits count too: the search *trajectory* must not depend on how
    // many collisions happened to be answered cheaply.
    evaluations += init.len() as u32;
    let evaluated = evaluate_specs_memo(cfg, reference, init, &memo);
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
        let evaluated = evaluate_specs_memo(cfg, reference, mutants, &memo);
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
        seed: cfg.arena.seed,
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
    use sim::RunCache;

    fn tiny(tracker: &str) -> SearchConfig {
        let mut cfg = SearchConfig::new(tracker, Arena::new("povray_like"));
        cfg.arena.window_us = 60.0;
        cfg.budget = 6;
        cfg.batch = 3;
        cfg.arena.seed = 0xBEEF;
        cfg
    }

    fn cold(cfg: &SearchConfig) -> SearchReport {
        search(cfg, &Reference::default(), &[], &mut |_, _| {})
    }

    /// One batch against `cache`, every scenario expected to simulate.
    fn evaluate(
        cfg: &SearchConfig,
        specs: &[ScenarioSpec],
        cache: Option<&dyn PayloadCache<ExperimentResult>>,
    ) -> Vec<EvalRecord> {
        let (outcomes, _) =
            cfg.arena.evaluate(&cfg.tracker, &Reference::default(), specs, cache, |_, _| {});
        records(specs, outcomes).into_iter().flatten().collect()
    }

    #[test]
    fn search_never_reports_worse_than_the_tailored_attack() {
        let report = cold(&tiny("hydra"));
        assert!(report.rediscovered_tailored(), "slack {}", report.slack());
        assert_eq!(report.evaluations, 6);
        assert_eq!(report.tracker, "Hydra");
        assert!(report.best.slowdown >= 1.0 - 1e-9, "slowdown {}", report.best.slowdown);
    }

    #[test]
    fn search_is_deterministic_in_its_seed() {
        let a = cold(&tiny("comet"));
        let b = cold(&tiny("comet"));
        assert_eq!(a.best.spec, b.best.spec);
        assert!((a.best.slowdown - b.best.slowdown).abs() < 1e-12);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn evaluations_score_attack_transients() {
        let cfg = tiny("hydra");
        let records =
            evaluate(&cfg, &[ScenarioSpec::baseline(workloads::Attack::CacheThrash)], None);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        let t = r.time_to_max_slowdown_us.expect("slowdown trace must be recorded");
        assert!(t > 0.0 && t <= cfg.arena.window_us + 1e-9, "{t}");
        if let Some(rec) = r.recovery_us {
            assert!(rec > 0.0 && rec < cfg.arena.window_us);
        }
    }

    #[test]
    fn cached_evaluation_reproduces_the_uncached_records() {
        let dir = std::env::temp_dir().join(format!("redteam-eval-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::open(&dir).expect("open cache");
        let cfg = tiny("hydra");
        let specs = [
            ScenarioSpec::baseline(workloads::Attack::CacheThrash),
            ScenarioSpec::baseline(workloads::Attack::Streaming),
        ];
        let plain = evaluate(&cfg, &specs, None);
        let cold = evaluate(&cfg, &specs, Some(&cache));
        assert_eq!(cache.stats().misses, 2);
        let warm = evaluate(&cfg, &specs, Some(&cache));
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
        let reference = Reference::default();
        let memo = EvalMemo::new();
        let dup = ScenarioSpec::baseline(workloads::Attack::Streaming);
        let other = ScenarioSpec::baseline(workloads::Attack::CacheThrash);
        let first = evaluate_specs_memo(&cfg, &reference, vec![dup.clone(), dup.clone()], &memo);
        assert_eq!(first.len(), 2);
        let simulated = || memo.map.lock().unwrap().len();
        assert_eq!(simulated(), 1, "within-batch duplicate must simulate once");
        assert_eq!(memo.hits(), 1);
        let again = evaluate_specs_memo(&cfg, &reference, vec![other, dup], &memo);
        assert_eq!(again.len(), 2);
        assert_eq!(simulated(), 2, "only the new genome simulates");
        assert_eq!(memo.hits(), 2);
        assert!((first[0].slowdown - first[1].slowdown).abs() == 0.0);
        assert!((again[1].slowdown - first[0].slowdown).abs() == 0.0);
    }

    #[test]
    fn empty_priors_reproduce_the_cold_search_exactly() {
        // However the one search is entered — a fresh reference and no
        // observer (campaigns), or a reference something else already
        // simulated and a live observer (the attack stage's baseline) —
        // no priors means the cold trajectory.
        let cfg = tiny("comet");
        let reference = Reference::default();
        reference.get(&cfg.arena);
        let cold = cold(&cfg);
        let mut frontier = Vec::new();
        let seeded = search(&cfg, &reference, &[], &mut |e, best| frontier.push((e, best)));
        assert_eq!(cold.best.spec, seeded.best.spec);
        assert_eq!(cold.history, seeded.history);
        assert_eq!(cold.evaluations, seeded.evaluations);
        assert_eq!(frontier, seeded.history, "the frontier stream mirrors the history");
    }

    #[test]
    fn warm_started_search_is_deterministic_and_never_below_tailored() {
        let cfg = tiny("hydra");
        let reference = Reference::default();
        let priors = vec![ScenarioSpec {
            shape: crate::scenario::Shape::Hammer { banks: 32, per_bank: 8 },
            ..ScenarioSpec::baseline(workloads::Attack::CacheThrash)
        }];
        let a = search(&cfg, &reference, &priors, &mut |_, _| {});
        let b = search(&cfg, &reference, &priors, &mut |_, _| {});
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
        let reference = Reference::default();
        let experiment = || cfg.arena.experiment(&cfg.tracker, &spec);
        let via_shared = experiment().run_against(reference.get(&cfg.arena));
        let via_fresh = experiment().run();
        assert!(
            (via_shared.normalized_performance - via_fresh.normalized_performance).abs() < 1e-12
        );
    }
}

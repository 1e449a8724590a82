//! The stage driver: recon → hammer → victim per experiment cell.
//!
//! One *cell* is an [`Experiment`] carrying an [`AttackerConfig`]
//! (workload × tracker × knowledge level). [`run_cell`] walks the three
//! stages — acquire a mapping belief, compile and run the hammer, place
//! and adjudicate victims — and folds the outcome into a
//! [`PipelineVerdict`]: flips *and* slowdown, plus the recon quality
//! metrics that explain them.
//!
//! Verdicts are content-addressed: one driver keys each cell by the
//! canonical descriptor of its attack-stripped experiment (the attacker
//! section included) and reads warm cells straight from the run cache's
//! [`DiskStore`] — a repeated sweep executes zero simulations and emits
//! byte-identical artifacts. It has two front ends: [`run_attacker_sweep`]
//! for `[attacker]` specs, and [`attacker_axis`], which extends a
//! campaign with one row per tracker and knowledge level
//! (`redteam --attacker`).

use analysis::OracleProbe;
use sim::cache::{lookup_entry, save_entry, RunCache};
use sim::exec::{Executor, PayloadCache};
use sim::metrics::RunStats;
use sim::{
    normalized_performance, AttackChoice, AttackerConfig, AttackerKnowledge, CellKey, Experiment,
    RunnerConfig, SweepSpec, TelemetrySpec,
};
use sim_core::cache::{content_key, DiskStore};
use sim_core::json::{Json, JsonCodec};
use std::collections::BTreeMap;

use crate::arena::Score;
use crate::campaign::{CampaignReport, CampaignRow};
use crate::hammer::{HammerPlan, PAIRS};
use crate::recon;
use crate::scenario::{ScenarioSpec, Shape};
use crate::search::EvalRecord;
use crate::victim::VictimOrchestrator;

/// Verdict-cache epoch, folded into every cache key and entry. Bump when
/// the pipeline's semantics or the entry format change and stale verdicts
/// must re-simulate.
const VERDICT_EPOCH: &str = "attackpipe-epoch2";

/// [`VERDICT_EPOCH`] as the entry envelope spells it: a JSON string.
const VERDICT_EPOCH_JSON: &str = "\"attackpipe-epoch2\"";

// ---------------------------------------------------------------- verdict

/// Everything one pipeline cell concluded: did the attacker flip bits,
/// what did the attempt cost the benign cores, and how good was the
/// recon that steered it.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineVerdict {
    /// Benign workload sharing the machine.
    pub workload: String,
    /// Tracker label (display name plus parameter overrides).
    pub tracker: String,
    /// Attacker knowledge level this cell ran under.
    pub knowledge: AttackerKnowledge,
    /// Victim rows whose peak disturbance reached their HC threshold.
    pub flips: u64,
    /// Victim rows placed.
    pub victims: u64,
    /// Highest peak disturbance on any victim row (pressure even when
    /// nothing flipped).
    pub max_victim_peak: u32,
    /// Mean benign IPC relative to the insecure attack-free baseline.
    pub normalized_performance: f64,
    /// `1 / normalized_performance` — the campaign's slowdown metric.
    pub slowdown: f64,
    /// Fraction of verification pairs recon classified correctly
    /// (timing-recon only; `None` when no pairs were probed).
    pub recon_accuracy: Option<f64>,
    /// Of the truly same-bank pairs probed, the fraction recognized.
    pub recon_recall: Option<f64>,
    /// Inferred row-field shift (believed stride = `1 << shift`).
    pub recon_row_shift: Option<u32>,
    /// Probe accesses the recon campaign actually scheduled.
    pub recon_probes: u64,
    /// Estimated mitigation cadence in bus cycles, when observed.
    pub recon_cadence_cycles: Option<u64>,
    /// The stride the hammer was compiled from (`None`: blind fallback).
    pub believed_stride: Option<u64>,
    /// Mitigation commands issued (VRR + RFM).
    pub mitigations: u64,
    /// Tracker counter reads + writes injected into DRAM.
    pub counter_ops: u64,
    /// Structure-reset sweeps triggered.
    pub reset_sweeps: u64,
    /// Total DRAM energy, millijoules.
    pub energy_mj: f64,
}

// The canonical wire form (fixed field order, so equal verdicts render
// byte-identically — the cache and artifact contract).
sim_core::json_record!(PipelineVerdict {
    workload,
    tracker,
    knowledge,
    flips,
    victims,
    max_victim_peak,
    normalized_performance,
    slowdown,
    recon_accuracy,
    recon_recall,
    recon_row_shift,
    recon_probes,
    recon_cadence_cycles,
    believed_stride,
    mitigations,
    counter_ops,
    reset_sweeps,
    energy_mj,
});

// ---------------------------------------------------------------- running

/// Runs the full pipeline for one cell: acquire the knowledge level's
/// belief (timing-recon simulates its probe campaign here), compile and
/// run the hammer against the tracker, adjudicate victim flips, and
/// score the benign cost against `reference` — the experiment's
/// [`Experiment::reference`], which depends only on the workload and
/// system configuration, never on the knowledge level: one serves a
/// whole sweep's cells for a workload.
///
/// # Panics
///
/// Panics if the experiment carries no [`AttackerConfig`]
/// (`Experiment::attacker`) or an unknown workload.
pub fn run_cell(e: &Experiment, reference: &RunStats) -> PipelineVerdict {
    let cfg = e.attacker.expect("run_cell needs an attacker config on the experiment");
    let mut model = recon::model_for(cfg.knowledge);
    let belief = model.acquire(e, &cfg);

    let geom = e.cfg.geometry;
    let orchestrator = VictimOrchestrator::new(geom, e.cfg.nrh, cfg.seed);
    let placement = orchestrator.place();
    let plan = HammerPlan::compile(
        &belief,
        &cfg,
        geom.capacity_bytes(),
        placement.region_base,
        cfg.knowledge.key(),
    );

    let mut he = e.clone();
    he.custom_attack = Some(plan.custom_attack());
    he.telemetry = TelemetrySpec { oracle: true, ..TelemetrySpec::default() };
    let mut sys = he.build_system(false);
    let run = sys.run();
    let mut probes = sys.take_probes();
    let oracle = sim::experiment::take_recorder::<OracleProbe>(&mut probes)
        .expect("the hammer run attaches the ground-truth oracle");
    let flip = orchestrator.adjudicate(&placement, &oracle);

    let np = normalized_performance(&run, reference, &he.benign_cores());
    let score = Score::new(&run, np, None);
    let inferred = belief.inferred.as_ref();
    PipelineVerdict {
        workload: e.workload.clone(),
        tracker: e.tracker.label(),
        knowledge: cfg.knowledge,
        flips: flip.flips,
        victims: flip.victims,
        max_victim_peak: flip.max_victim_peak,
        normalized_performance: np,
        slowdown: score.slowdown,
        recon_accuracy: inferred.and_then(|m| m.accuracy(&geom)),
        recon_recall: inferred.and_then(|m| m.same_bank_recall(&geom)),
        recon_row_shift: inferred.and_then(|m| m.row_shift),
        recon_probes: inferred.map_or(0, |m| m.probes_spent),
        recon_cadence_cycles: inferred.and_then(|m| m.cadence_cycles),
        believed_stride: plan.believed_stride,
        mitigations: score.mitigations,
        counter_ops: score.counter_ops,
        reset_sweeps: score.reset_sweeps,
        energy_mj: score.energy_mj,
    }
}

// ---------------------------------------------------------------- caching

/// The cell's verdict-cache key: the canonical descriptor of the
/// experiment with its *attack* stripped (the pipeline derives the
/// hammer from the attacker section, which stays in) — so the key pins
/// workload, tracker, parameters, system options, and the full attacker
/// configuration, and nothing else — addressed under [`VERDICT_EPOCH`].
fn verdict_key(e: &Experiment) -> Option<CellKey> {
    let mut stripped = e.clone();
    stripped.custom_attack = None;
    stripped.attack = AttackChoice::None;
    let descriptor = sim::cell_key(&stripped)?.descriptor;
    Some(CellKey {
        key: content_key(format!("{VERDICT_EPOCH}|{descriptor}").as_bytes()),
        descriptor,
    })
}

/// The verdict cache: [`PipelineVerdict`]s in the run cache's
/// [`DiskStore`], in its entry envelope under [`VERDICT_EPOCH`] — a
/// stale, colliding or undecodable entry is evicted, never served.
struct VerdictStore<'a>(&'a DiskStore);

impl PayloadCache<PipelineVerdict> for VerdictStore<'_> {
    fn lookup(&self, key: &CellKey) -> Option<PipelineVerdict> {
        lookup_entry(self.0, key, VERDICT_EPOCH_JSON, "verdict")
    }

    fn save(&self, key: &CellKey, v: &PipelineVerdict) -> std::io::Result<()> {
        save_entry(self.0, key, VERDICT_EPOCH_JSON, "verdict", v)
    }
}

// ---------------------------------------------------------------- sweeps

/// Outcome of an attacker sweep: one verdict per cell, in spec
/// expansion order, plus the cache traffic. The JSON export excludes the
/// hit/miss counters on purpose — a warm re-run must render
/// byte-identically to the cold run that filled the cache.
#[derive(Debug, Clone)]
pub struct AttackerSweepReport {
    /// Sweep name (from the spec).
    pub name: String,
    /// Per-cell verdicts, in expansion order.
    pub verdicts: Vec<PipelineVerdict>,
    /// Cells expanded (failures are dropped from `verdicts` with a
    /// warning, so this can exceed `verdicts.len()`).
    pub cells: usize,
    /// Cells answered from the verdict cache.
    pub hits: u64,
    /// Cells that had to simulate.
    pub misses: u64,
}

impl AttackerSweepReport {
    /// Aligned text table: one row per verdict, grouped as expanded
    /// (knowledge levels of one tracker stay adjacent).
    pub(crate) fn leaderboard_table(&self) -> String {
        let mut out = format!(
            "{:<16} {:<13} {:<13} {:>7} {:>6} {:>9} {:>9} {:>9} {:>7}\n",
            "workload",
            "tracker",
            "knowledge",
            "flips",
            "peak",
            "norm.perf",
            "slowdown",
            "acc",
            "recall"
        );
        let pct = |v: Option<f64>| match v {
            Some(v) => format!("{:.0}%", v * 100.0),
            None => "-".to_string(),
        };
        for v in &self.verdicts {
            out.push_str(&format!(
                "{:<16} {:<13} {:<13} {:>4}/{:<2} {:>6} {:>9.3} {:>8.3}x {:>9} {:>7}\n",
                v.workload,
                v.tracker,
                v.knowledge.key(),
                v.flips,
                v.victims,
                v.max_victim_peak,
                v.normalized_performance,
                v.slowdown,
                pct(v.recon_accuracy),
                pct(v.recon_recall),
            ));
        }
        out
    }

    /// Serializes the report as JSON (deterministic: equal verdict sets
    /// render byte-identically, cached or not).
    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("cells", Json::count(self.cells as u64)),
            ("verdicts", self.verdicts.encode()),
        ])
    }
}

/// The one cell driver: verdict-cache lookups first, then one shared
/// reference per workload (and only for cells that missed),
/// then the missing cells in parallel. Without a `cache` every cell
/// simulates and nothing persists.
fn run_cells(
    name: &str,
    experiments: Vec<Experiment>,
    cache: Option<&RunCache>,
) -> AttackerSweepReport {
    let store = cache.map(|c| VerdictStore(c.store()));
    let cells = experiments
        .into_iter()
        .map(|e| {
            let key = verdict_key(&e);
            (e, key)
        })
        .collect();
    let exec = Executor {
        cache: store.as_ref().map(|s| s as &dyn PayloadCache<_>),
        runner: &RunnerConfig::default(),
    };
    let probed = exec.probe(cells, |_, _, _| {});
    // References are computed up front so the parallel phase only reads
    // them.
    let mut references: BTreeMap<String, RunStats> = BTreeMap::new();
    for e in probed.missed() {
        references.entry(e.workload.clone()).or_insert_with(|| e.reference());
    }
    let run = move |e: Experiment| run_cell(&e, &references[&e.workload]);
    let (outcomes, summary) = probed.run(sim::cell_label, run, |_, _, _| {});
    let verdicts = outcomes
        .into_iter()
        .filter_map(|outcome| {
            outcome.inspect_err(|e| eprintln!("redteam: cell failed, skipping: {e}")).ok()
        })
        .collect();
    AttackerSweepReport {
        name: name.to_string(),
        verdicts,
        cells: summary.cells,
        hits: summary.hits as u64,
        misses: (summary.misses + summary.uncacheable) as u64,
    }
}

/// Expands a spec's `[attacker]` cells and runs the pipeline over them,
/// reading verdicts through `cache` when given.
pub(crate) fn run_attacker_sweep(
    spec: &SweepSpec,
    cache: Option<&RunCache>,
) -> Result<AttackerSweepReport, String> {
    let experiments: Vec<Experiment> = spec
        .expand()
        .map_err(|e| e.to_string())?
        .into_iter()
        .filter(|e| e.attacker.is_some())
        .collect();
    if experiments.is_empty() {
        return Err("spec has no [attacker] section; nothing for the pipeline to run".to_string());
    }
    Ok(run_cells(&spec.name, experiments, cache))
}

// ---------------------------------------------------------------- redteam

/// The nominal scenario genome attacker rows carry in campaign exports:
/// the double-sided ladder's shape (one bank, `PAIRS + 1` aggressors),
/// so JSON/CSV consumers see a well-formed spec column.
fn nominal_scenario() -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(workloads::Attack::CacheThrash);
    spec.shape = Shape::Hammer { banks: 1, per_bank: PAIRS as u32 + 1 };
    spec
}

/// The `redteam --attacker` axis: runs the pipeline for every tracker of
/// the campaign at every knowledge level in `levels` — in the campaign's
/// arena, reading verdicts through `cache` when given — and appends one
/// row per verdict (origin `"attacker"`, scenario `attackpipe:<level>`)
/// to `report`.
pub fn attacker_axis(
    report: &mut CampaignReport,
    levels: &[AttackerKnowledge],
    cache: Option<&RunCache>,
) -> AttackerSweepReport {
    let c = &report.config;
    let mut experiments = Vec::new();
    for tracker in &c.trackers {
        for &knowledge in levels {
            let attacker = AttackerConfig {
                knowledge,
                recon_budget: AttackerConfig::DEFAULT_RECON_BUDGET,
                // One --seed reproduces the whole campaign, attacker side
                // included.
                seed: c.arena.seed,
            };
            experiments.push(
                Experiment::new(&c.arena.workload)
                    .tracker(tracker.clone())
                    .window_us(c.arena.window_us)
                    .nrh(c.arena.nrh)
                    .seed(c.arena.seed)
                    .attacker(attacker),
            );
        }
    }
    let sweep = run_cells("redteam", experiments, cache);
    for v in &sweep.verdicts {
        report.rows.push(CampaignRow {
            tracker: v.tracker.clone(),
            origin: "attacker",
            record: EvalRecord {
                spec: nominal_scenario(),
                name: format!("attackpipe:{}", v.knowledge.key()),
                slowdown: v.slowdown,
                normalized_performance: v.normalized_performance,
                mitigations: v.mitigations,
                counter_ops: v.counter_ops,
                reset_sweeps: v.reset_sweeps,
                energy_mj: v.energy_mj,
                time_to_max_slowdown_us: None,
                recovery_us: None,
                recon_accuracy: v.recon_accuracy,
                flips: Some(v.flips),
            },
        });
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict() -> PipelineVerdict {
        PipelineVerdict {
            workload: "povray_like".to_string(),
            tracker: "Hydra".to_string(),
            knowledge: AttackerKnowledge::TimingRecon,
            flips: 3,
            victims: 6,
            max_victim_peak: 812,
            normalized_performance: 0.91,
            slowdown: 1.0 / 0.91,
            recon_accuracy: Some(0.9375),
            recon_recall: Some(1.0),
            recon_row_shift: Some(20),
            recon_probes: 2400,
            recon_cadence_cycles: None,
            believed_stride: Some(1 << 20),
            mitigations: 17,
            counter_ops: 120,
            reset_sweeps: 0,
            energy_mj: 1.25,
        }
    }

    #[test]
    fn verdict_entries_spell_the_verdict_epoch() {
        assert_eq!(Json::str(VERDICT_EPOCH).render(), VERDICT_EPOCH_JSON);
    }

    #[test]
    fn verdict_json_round_trips_exactly() {
        // Seeded property: any verdict decodes to itself and re-renders
        // byte-identically (the cache's contract), and a document with a
        // key missing or wrong-typed is rejected with that key named.
        let mut rng = sim_core::rng::Xoshiro256::seed_from(0xA77AC4);
        for _ in 0..50 {
            let some = |rng: &mut sim_core::rng::Xoshiro256| rng.gen_bool(0.5);
            let np = rng.gen_f64();
            sim_core::json::assert_codec_laws(&PipelineVerdict {
                knowledge: AttackerKnowledge::ALL[rng.gen_range(3) as usize],
                flips: rng.gen_range(7),
                max_victim_peak: rng.next_u64() as u32,
                normalized_performance: np,
                slowdown: 1.0 / np.max(1e-6),
                recon_accuracy: some(&mut rng).then(|| rng.gen_f64()),
                recon_recall: some(&mut rng).then(|| rng.gen_f64()),
                recon_row_shift: some(&mut rng).then(|| rng.gen_range(40) as u32),
                recon_probes: rng.next_u64() >> 11,
                recon_cadence_cycles: some(&mut rng).then(|| rng.next_u64() >> 11),
                believed_stride: some(&mut rng).then(|| 1 << rng.gen_range(40)),
                mitigations: rng.next_u64() >> 11,
                energy_mj: rng.gen_f64() * 10.0,
                ..verdict()
            });
        }
    }

    #[test]
    fn verdict_cache_keys_pin_the_attacker_and_ignore_the_attack() {
        let base = Experiment::quick("povray_like")
            .tracker("hydra")
            .attacker(AttackerConfig::new(AttackerKnowledge::Blind));
        let k0 = verdict_key(&base).expect("cacheable");
        // The attack field is stripped: a custom attack attached by the
        // hammer stage does not change the verdict key.
        let mut with_attack = base.clone();
        let plan = HammerPlan {
            aggressors: vec![sim_core::addr::PhysAddr(0)],
            name: "attackpipe:blind".to_string(),
            believed_stride: None,
        };
        with_attack.custom_attack = Some(plan.custom_attack());
        assert_eq!(verdict_key(&with_attack).unwrap(), k0);
        // The attacker section is part of the key.
        let other = base.clone().attacker(AttackerConfig::new(AttackerKnowledge::TimingRecon));
        let k1 = verdict_key(&other).unwrap();
        assert_ne!(k1.descriptor, k0.descriptor);
        assert_ne!(k1.key, k0.key);
    }

    fn scratch_disk(name: &str) -> DiskStore {
        let dir = std::env::temp_dir()
            .join(format!("redteam-verdict-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DiskStore::open(&dir).expect("open")
    }

    fn key(knowledge: AttackerKnowledge) -> CellKey {
        let e = Experiment::quick("povray_like")
            .tracker("hydra")
            .attacker(AttackerConfig::new(knowledge));
        verdict_key(&e).expect("cacheable")
    }

    #[test]
    fn verdict_store_round_trips_and_rejects_descriptor_mismatch() {
        let disk = scratch_disk("mismatch");
        let store = VerdictStore(&disk);
        let v = verdict();
        let a = key(AttackerKnowledge::TimingRecon);
        store.save(&a, &v).expect("save");
        assert_eq!(store.lookup(&a), Some(v.clone()));
        // A colliding key with the wrong descriptor is evicted, not served.
        let b = key(AttackerKnowledge::Blind);
        store.0.put(&b.key, &store.0.get(&a.key).expect("entry a")).unwrap();
        assert_eq!(store.lookup(&b), None);
        assert!(!store.0.entry_path(&b.key).exists(), "the colliding entry is evicted");
    }

    #[test]
    fn verdict_decode_names_the_bad_field() {
        // Regression: integer fields were decoded with bare `as` casts, so
        // a damaged-but-checksummed entry was served with `flips: -3`
        // saturated to 0 and an oversized peak truncated to 32 bits. Now
        // the decoder names the field and the store evicts the entry.
        let disk = scratch_disk("integers");
        let store = VerdictStore(&disk);
        let a = key(AttackerKnowledge::TimingRecon);
        for (field, good, bad) in [
            ("flips", "3", "-3"),
            ("flips", "3", "3.5"),
            ("flips", "3", "\"three\""),
            ("max_victim_peak", "812", "4294967296"),
            ("recon_row_shift", "20", "-1"),
        ] {
            let (good, bad) = (format!("\"{field}\":{good}"), format!("\"{field}\":{bad}"));
            let doc = verdict().encode().render();
            assert!(doc.contains(&good), "{doc}");
            let err = PipelineVerdict::decode(&Json::parse(&doc.replacen(&good, &bad, 1)).unwrap());
            assert_eq!(err.expect_err(&bad).path, field);
            store.save(&a, &verdict()).expect("save");
            let entry = store.0.get(&a.key).expect("just saved");
            store.0.put(&a.key, &entry.replacen(&good, &bad, 1)).unwrap();
            assert_eq!(store.lookup(&a), None, "{bad} must not be served");
            assert!(!store.0.entry_path(&a.key).exists(), "{bad}: entry evicted for recompute");
        }
    }

    #[test]
    fn sweep_report_exports_deterministically_without_cache_counters() {
        let report = AttackerSweepReport {
            name: "t".to_string(),
            verdicts: vec![verdict()],
            cells: 1,
            hits: 0,
            misses: 1,
        };
        let warm = AttackerSweepReport { hits: 1, misses: 0, ..report.clone() };
        assert_eq!(report.to_json().render(), warm.to_json().render());
        let table = report.leaderboard_table();
        assert!(table.contains("timing-recon") && table.contains("94%"), "{table}");
    }
}

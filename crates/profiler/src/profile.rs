//! The profile stage: sweep cheap probe scenarios over the sensitivity
//! grid and score each cell by the slowdown it provokes.
//!
//! Probes are short-horizon (tens of microseconds) experiments recording a
//! per-window [`SlowdownTrace`](sim_core::SlowdownTrace) and a
//! [`MitigationLog`](sim_core::MitigationLog), so a cell's score reflects
//! the attack *transient*, not just the mean. Every probe is keyed in the
//! PR 6 content-addressed run cache — a warm profile performs **zero**
//! simulations and reproduces the heatmap byte-identically.

use attacklab::scenario::ScenarioSpec;
use sim::cache::{cell_key_with_attack_id, CellKey, RunCache};
use sim::exec::{Executor, PayloadCache};
use sim::experiment::{CustomAttack, Experiment, TrackerSel};
use sim::runner::{RunnerConfig, SweepError};
use sim::{Engine, ExperimentResult, Threads};
use sim_core::addr::Geometry;
use sim_core::json::JsonCodec;

use crate::heatmap::{probe_spec, Family, HeatmapCell, SensitivityHeatmap};
use crate::CampaignEvent;

/// Slowdown-trace windows per probe: coarse enough to stay cheap, fine
/// enough to catch the transient.
const PROBE_WINDOWS: f64 = 8.0;

/// Profile-stage configuration.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Tracker under profile (registry selection, parameter overrides
    /// included).
    pub tracker: TrackerSel,
    /// Benign workload sharing the machine.
    pub workload: String,
    /// Probe simulation window, microseconds (short: probes are cheap).
    pub probe_window_us: f64,
    /// RowHammer threshold.
    pub nrh: u32,
    /// Seed for every probe simulation.
    pub seed: u64,
    /// Bank-spread buckets.
    pub bank_groups: u32,
    /// Intensity buckets.
    pub row_groups: u32,
    /// Families to probe (canonical order enforced at run time).
    pub families: Vec<Family>,
    /// Simulation engine (part of the probe cache key).
    pub engine: Engine,
    /// Memory-phase execution lanes (bit-identical results; **not** part
    /// of the cache key).
    pub threads: Threads,
}

impl ProfileConfig {
    /// Defaults: 60 µs probes, N_RH 500, paper seed, a 4×4 grid over every
    /// family, default engine, sequential stepping.
    pub fn new(tracker: impl Into<TrackerSel>, workload: &str) -> Self {
        Self {
            tracker: tracker.into(),
            workload: workload.to_string(),
            probe_window_us: 60.0,
            nrh: 500,
            seed: 0xDA99E5,
            bank_groups: 4,
            row_groups: 4,
            families: Family::ALL.to_vec(),
            engine: Engine::default(),
            threads: Threads::Seq,
        }
    }
}

/// Cache accounting for one profiler stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Grid cells processed.
    pub cells: usize,
    /// Cells answered from the run cache.
    pub hits: usize,
    /// Cells that had to simulate.
    pub misses: usize,
    /// Actual simulations performed (misses plus the shared reference run
    /// when at least one miss forced it).
    pub simulations: usize,
}

impl std::fmt::Display for ProfileStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} hits, {} misses ({} simulations)", self.hits, self.misses, self.simulations)
    }
}

/// Builds the probe experiment for one genome under a profile config.
/// Mirrors `attacklab::search::experiment_for`, plus the mitigation log
/// and the profile's engine/threads selection.
pub fn probe_experiment(cfg: &ProfileConfig, spec: &ScenarioSpec) -> Experiment {
    let spec_for_factory = spec.clone();
    let custom = CustomAttack::new(&spec.name(), spec.bypasses_llc(), move |geom, seed| {
        Box::new(attacklab::PatternTrace(spec_for_factory.build(geom, seed)))
    });
    let mut e = Experiment::new(&cfg.workload)
        .tracker(cfg.tracker.clone())
        .custom(custom)
        .window_us(cfg.probe_window_us)
        .nrh(cfg.nrh)
        .seed(cfg.seed)
        .engine(cfg.engine)
        .threads(cfg.threads)
        .record_slowdown(cfg.probe_window_us / PROBE_WINDOWS);
    e.telemetry.mitigation_log = true;
    e
}

/// The shared insecure attack-free reference all probes normalize against.
fn reference_run(cfg: &ProfileConfig) -> sim::RunStats {
    let mut e = probe_experiment(cfg, &ScenarioSpec::baseline(workloads::Attack::CacheThrash));
    // Probes normalize against the flat end-of-run reference; recording
    // reference telemetry would be pure waste.
    e.telemetry = sim::TelemetrySpec::default();
    e.build_system(true).run()
}

/// Reads `probes` through `cache` under `cfg` (see [`sim::exec`]): hits
/// answer at once (`on_hit` fires per hit, in order), and only if
/// something missed is the shared reference simulated and the misses run
/// against it — a fully warm stage performs **zero** simulations. Returns
/// each probe's outcome in input order.
pub(crate) fn run_probes(
    cfg: &ProfileConfig,
    cache: Option<&RunCache>,
    probes: &[ScenarioSpec],
    mut on_hit: impl FnMut(usize, &ExperimentResult),
) -> (Vec<Result<ExperimentResult, SweepError>>, ProfileStats) {
    let cells: Vec<(ScenarioSpec, Option<CellKey>)> = probes
        .iter()
        .map(|probe| {
            let key = cache.and_then(|_| {
                let e = probe_experiment(cfg, probe);
                cell_key_with_attack_id(&e, Some(&probe.encode().render()))
            });
            (probe.clone(), key)
        })
        .collect();
    let exec = Executor {
        cache: cache.map(|c| c as &dyn PayloadCache<_>),
        checkpoint: None,
        runner: &RunnerConfig::default(),
    };
    let probed = exec.probe(cells, |i, outcome, _| {
        on_hit(i, outcome.as_ref().expect("hits are payloads"));
    });
    let misses = probed.missed().len();
    let reference = (misses > 0).then(|| reference_run(cfg));
    let run_cfg = cfg.clone();
    let run = move |probe: ScenarioSpec| {
        let reference = reference.as_ref().expect("computed whenever a probe missed");
        probe_experiment(&run_cfg, &probe).run_against(reference)
    };
    let (outcomes, summary) = probed.run(ScenarioSpec::name, run, |_, _, _| {});
    let simulations = if misses > 0 { misses + 1 } else { 0 };
    (outcomes, ProfileStats { cells: summary.cells, hits: summary.hits, misses, simulations })
}

fn cell_from_result(
    family: Family,
    bank_group: u32,
    row_group: u32,
    probe: ScenarioSpec,
    r: &ExperimentResult,
) -> HeatmapCell {
    let np = r.normalized_performance.max(1e-6);
    let peak = r
        .telemetry
        .as_ref()
        .and_then(|t| t.slowdown.as_ref())
        .and_then(|tr| tr.max_slowdown_point())
        .map_or(0.0, |p| p.slowdown());
    HeatmapCell {
        family,
        bank_group,
        row_group,
        probe,
        slowdown: 1.0 / np,
        peak_slowdown: peak,
        time_to_max_us: r.telemetry.as_ref().and_then(|t| t.time_to_max_slowdown_us()),
        recovery_us: r.telemetry.as_ref().and_then(|t| t.recovery_us(sim::RECOVERY_THRESHOLD)),
        mitigations: r.run.mem.vrr_commands + r.run.mem.rfm_commands,
        counter_ops: r.run.mem.counter_reads + r.run.mem.counter_writes,
    }
}

/// Runs the profile stage, reading probes through `cache` when provided.
///
/// # Panics
///
/// Panics if the workload is unknown, the grid is degenerate, or a probe
/// simulation fails (probe genomes are clamped, so they always build).
pub fn run_profile(
    cfg: &ProfileConfig,
    cache: Option<&RunCache>,
) -> (SensitivityHeatmap, ProfileStats) {
    run_profile_observed(cfg, cache, &mut |_| {})
}

/// [`run_profile`] streaming [`CampaignEvent`]s (cache hits per cell,
/// batch completions, final stats) to `observer` — what the warroom TUI
/// renders live.
pub fn run_profile_observed(
    cfg: &ProfileConfig,
    cache: Option<&RunCache>,
    observer: &mut dyn FnMut(&CampaignEvent),
) -> (SensitivityHeatmap, ProfileStats) {
    assert!(cfg.bank_groups >= 1 && cfg.row_groups >= 1, "profile grid must be >= 1x1");
    assert!(cfg.probe_window_us > 0.0, "probe window must be positive");
    // Canonical family order regardless of how the caller listed them.
    let mut families: Vec<Family> =
        Family::ALL.into_iter().filter(|f| cfg.families.contains(f)).collect();
    if families.is_empty() {
        families = Family::ALL.to_vec();
    }
    observer(&CampaignEvent::Stage("profile"));
    let geom = Geometry::paper_baseline();

    // Expand the grid in canonical order.
    let mut grid = Vec::new();
    let mut probes = Vec::new();
    for family in &families {
        for bg in 0..cfg.bank_groups {
            for rg in 0..cfg.row_groups {
                grid.push((*family, bg, rg));
                probes.push(probe_spec(geom, *family, bg, cfg.bank_groups, rg, cfg.row_groups));
            }
        }
    }
    let mut probe_done = |(family, bank_group, row_group): (Family, u32, u32),
                          result: &ExperimentResult,
                          cached: bool| {
        observer(&CampaignEvent::ProbeDone {
            family,
            bank_group,
            row_group,
            slowdown: 1.0 / result.normalized_performance.max(1e-6),
            cached,
        });
    };
    let mut cached = vec![false; probes.len()];
    let (outcomes, stats) = run_probes(cfg, cache, &probes, |i, result| {
        cached[i] = true;
        probe_done(grid[i], result, true);
    });
    let mut cells = Vec::with_capacity(probes.len());
    for (i, (outcome, probe)) in outcomes.into_iter().zip(probes).enumerate() {
        let result = outcome.unwrap_or_else(|e| {
            panic!(
                "profiler: probe {} failed to simulate against {}: {e}",
                probe.name(),
                cfg.tracker.label()
            )
        });
        if !cached[i] {
            probe_done(grid[i], &result, false);
        }
        let (family, bank_group, row_group) = grid[i];
        cells.push(cell_from_result(family, bank_group, row_group, probe, &result));
    }
    observer(&CampaignEvent::CacheStats { hits: stats.hits as u64, misses: stats.misses as u64 });

    let heatmap = SensitivityHeatmap {
        tracker: cfg.tracker.label(),
        tracker_key: cfg.tracker.key().to_string(),
        workload: cfg.workload.clone(),
        probe_window_us: cfg.probe_window_us,
        nrh: cfg.nrh,
        seed: cfg.seed,
        bank_groups: cfg.bank_groups,
        row_groups: cfg.row_groups,
        families,
        cells,
    };
    (heatmap, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProfileConfig {
        let mut cfg = ProfileConfig::new("hydra", "povray_like");
        cfg.probe_window_us = 25.0;
        cfg.bank_groups = 2;
        cfg.row_groups = 2;
        cfg.families = vec![Family::Hammer, Family::Sweep];
        cfg
    }

    #[test]
    fn profile_is_deterministic_and_scored() {
        let (a, sa) = run_profile(&tiny(), None);
        let (b, sb) = run_profile(&tiny(), None);
        assert_eq!(a.encode().render(), b.encode().render());
        assert_eq!(a.cells.len(), 8);
        assert_eq!(sa, sb);
        assert_eq!(sa.cells, 8);
        assert_eq!(sa.misses, 8, "no cache: every cell simulates");
        assert_eq!(sa.simulations, 9, "8 probes + 1 shared reference");
        for cell in &a.cells {
            assert!(cell.slowdown > 0.0);
            assert!(cell.score() > 0.0);
        }
    }

    #[test]
    fn warm_profile_performs_zero_simulations() {
        let dir = std::env::temp_dir().join(format!("profiler-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::open(&dir).expect("open cache");
        let cfg = tiny();
        let (cold, cold_stats) = run_profile(&cfg, Some(&cache));
        assert_eq!(cold_stats.misses, 8);
        assert_eq!(cold_stats.simulations, 9);
        let mut events = Vec::new();
        let (warm, warm_stats) =
            run_profile_observed(&cfg, Some(&cache), &mut |e| events.push(format!("{e:?}")));
        assert_eq!(warm_stats.hits, 8);
        assert_eq!(warm_stats.misses, 0);
        assert_eq!(warm_stats.simulations, 0, "warm profile must not simulate");
        assert_eq!(
            warm.encode().render(),
            cold.encode().render(),
            "warm heatmap is byte-identical"
        );
        assert!(events.iter().any(|e| e.contains("cached: true")), "{events:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

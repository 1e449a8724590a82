//! The profile stage: sweep cheap probe scenarios over the sensitivity
//! grid and score each cell by the slowdown it provokes.
//!
//! Probes are short-horizon (tens of microseconds) evaluations in a
//! [probing](Arena::probing) [`Arena`]: each records a per-window
//! [`SlowdownTrace`](sim_core::SlowdownTrace) and a
//! [`MitigationLog`](sim_core::MitigationLog), so a cell's score reflects
//! the attack *transient*, not just the mean. Every probe is keyed in the
//! PR 6 content-addressed run cache — a warm profile performs **zero**
//! simulations and reproduces the heatmap byte-identically.

use sim::cache::RunCache;
use sim::exec::PayloadCache;
use sim::experiment::TrackerSel;
use sim_core::addr::Geometry;

use crate::arena::{Arena, EvalStats, Reference, Score};
use crate::heatmap::{probe_spec, Family, HeatmapCell, SensitivityHeatmap};
use crate::warroom::CampaignEvent;

/// Profile-stage configuration.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Tracker under profile (registry selection, parameter overrides
    /// included).
    pub tracker: TrackerSel,
    /// Probe conditions: a probing arena with a short window (probes are
    /// cheap).
    pub arena: Arena,
    /// Bank-spread buckets.
    pub bank_groups: u32,
    /// Intensity buckets.
    pub row_groups: u32,
    /// Families to probe (canonical order enforced at run time).
    pub families: Vec<Family>,
}

impl ProfileConfig {
    /// Defaults: 60 µs probes in the default arena, a 4×4 grid over every
    /// family.
    pub fn new(tracker: impl Into<TrackerSel>, workload: &str) -> Self {
        let mut arena = Arena::new(workload).probing();
        arena.window_us = 60.0;
        Self {
            tracker: tracker.into(),
            arena,
            bank_groups: 4,
            row_groups: 4,
            families: Family::ALL.to_vec(),
        }
    }
}

/// Runs the profile stage, reading probes through `cache` when provided
/// and streaming [`CampaignEvent`]s (cache hits per cell, batch
/// completions, final stats) to `observer` — what the warroom TUI renders
/// live.
///
/// # Panics
///
/// Panics if the workload is unknown, the grid is degenerate, or a probe
/// simulation fails (probe genomes are clamped, so they always build).
pub fn run_profile(
    cfg: &ProfileConfig,
    cache: Option<&RunCache>,
    observer: &mut dyn FnMut(&CampaignEvent),
) -> (SensitivityHeatmap, EvalStats) {
    assert!(cfg.bank_groups >= 1 && cfg.row_groups >= 1, "profile grid must be >= 1x1");
    assert!(cfg.arena.window_us > 0.0, "probe window must be positive");
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
    let mut probe_done =
        |(family, bank_group, row_group): (Family, u32, u32), slowdown: f64, cached: bool| {
            observer(&CampaignEvent::ProbeDone { family, bank_group, row_group, slowdown, cached });
        };
    let mut cached = vec![false; probes.len()];
    let (outcomes, stats) = cfg.arena.evaluate(
        &cfg.tracker,
        &Reference::default(),
        &probes,
        cache.map(|c| c as &dyn PayloadCache<_>),
        |i, result| {
            cached[i] = true;
            probe_done(grid[i], Score::of(result).slowdown, true);
        },
    );
    let mut cells = Vec::with_capacity(probes.len());
    for (i, (outcome, probe)) in outcomes.into_iter().zip(probes).enumerate() {
        let result = outcome.unwrap_or_else(|e| {
            panic!(
                "redteam: probe {} failed to simulate against {}: {e}",
                probe.name(),
                cfg.tracker.label()
            )
        });
        let score = Score::of(&result);
        if !cached[i] {
            probe_done(grid[i], score.slowdown, false);
        }
        let (family, bank_group, row_group) = grid[i];
        cells.push(HeatmapCell {
            family,
            bank_group,
            row_group,
            probe,
            slowdown: score.slowdown,
            peak_slowdown: score.peak_slowdown,
            time_to_max_us: score.time_to_max_slowdown_us,
            recovery_us: score.recovery_us,
            mitigations: score.mitigations,
            counter_ops: score.counter_ops,
        });
    }
    observer(&CampaignEvent::CacheStats { hits: stats.hits as u64, misses: stats.misses as u64 });

    let heatmap = SensitivityHeatmap {
        tracker: cfg.tracker.label(),
        tracker_key: cfg.tracker.key().to_string(),
        workload: cfg.arena.workload.clone(),
        probe_window_us: cfg.arena.window_us,
        nrh: cfg.arena.nrh,
        seed: cfg.arena.seed,
        bank_groups: cfg.bank_groups,
        row_groups: cfg.row_groups,
        families,
        cells,
    };
    (heatmap, stats)
}

/// A 2×2 hammer + sweep profile of Hydra with 25 µs probes: small enough
/// for every stage's unit tests.
#[cfg(test)]
pub(crate) fn tiny() -> ProfileConfig {
    let mut cfg = ProfileConfig::new("hydra", "povray_like");
    cfg.arena.window_us = 25.0;
    cfg.bank_groups = 2;
    cfg.row_groups = 2;
    cfg.families = vec![Family::Hammer, Family::Sweep];
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::json::JsonCodec;

    #[test]
    fn profile_is_deterministic_and_scored() {
        let (a, sa) = run_profile(&tiny(), None, &mut |_| {});
        let (b, sb) = run_profile(&tiny(), None, &mut |_| {});
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
        let (cold, cold_stats) = run_profile(&cfg, Some(&cache), &mut |_| {});
        assert_eq!(cold_stats.misses, 8);
        assert_eq!(cold_stats.simulations, 9);
        let mut events = Vec::new();
        let (warm, warm_stats) =
            run_profile(&cfg, Some(&cache), &mut |e| events.push(format!("{e:?}")));
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

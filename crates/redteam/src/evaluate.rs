//! The evaluate stage: re-run the heatmap's top-K cells at full fidelity
//! and rank them into a vulnerability report.
//!
//! Probe windows are deliberately short — cheap, but noisy about sustained
//! damage. The evaluate stage promotes the strongest cells to the full
//! campaign window (the same fidelity campaigns use) and ranks
//! the survivors by measured slowdown, which is the list a defender should
//! actually worry about.

use sim::cache::RunCache;
use sim::exec::PayloadCache;
use sim::experiment::TrackerSel;
use sim_core::json::{Json, JsonCodec};

use crate::arena::{Arena, EvalStats, Reference, Score};
use crate::heatmap::{Family, SensitivityHeatmap};
use crate::scenario::ScenarioSpec;
use crate::warroom::CampaignEvent;

/// Evaluate-stage configuration.
#[derive(Debug, Clone)]
pub(crate) struct EvaluateConfig {
    /// Tracker to evaluate against (normally rebuilt from the heatmap's
    /// `tracker_key`; pass an explicit selection to carry parameter
    /// overrides the key alone cannot express).
    pub(crate) tracker: TrackerSel,
    /// Heatmap cells promoted to full fidelity.
    pub(crate) top_k: usize,
    /// Full-fidelity conditions: the heatmap's arena, probe telemetry
    /// included, at the campaign window.
    pub(crate) arena: Arena,
}

impl EvaluateConfig {
    /// Defaults for a heatmap: its own tracker key, top 5 cells, its
    /// arena at the campaign window (250 µs).
    pub(crate) fn for_heatmap(map: &SensitivityHeatmap) -> Result<Self, String> {
        let tracker = TrackerSel::by_key(&map.tracker_key).map_err(|e| e.to_string())?;
        Ok(Self { tracker, top_k: 5, arena: map.arena().probing() })
    }
}

/// One full-fidelity row of the vulnerability report.
#[derive(Debug, Clone)]
struct VulnRow {
    /// 1-based rank by full-fidelity slowdown.
    rank: usize,
    /// Probe family.
    family: Family,
    /// Bank-spread bucket.
    bank_group: u32,
    /// Intensity bucket.
    row_group: u32,
    /// The genome evaluated.
    probe: ScenarioSpec,
    /// The short-probe score that promoted this cell.
    probe_score: f64,
    /// Full-fidelity mean slowdown.
    slowdown: f64,
    /// Normalized performance (the paper's metric).
    normalized_performance: f64,
    /// Mitigation commands issued (VRR + RFM).
    mitigations: u64,
    /// Tracker counter reads + writes injected into DRAM.
    counter_ops: u64,
    /// Microseconds until the worst window.
    time_to_max_us: Option<f64>,
    /// Microseconds from the worst window to recovery.
    recovery_us: Option<f64>,
}

/// The ranked vulnerability report the evaluate stage emits.
#[derive(Debug, Clone)]
pub(crate) struct VulnReport {
    /// Tracker display label.
    tracker: String,
    /// Benign workload.
    workload: String,
    /// Full-fidelity window, microseconds.
    window_us: f64,
    /// RowHammer threshold.
    nrh: u32,
    /// Seed shared with the profile stage.
    seed: u64,
    /// Rows ranked by slowdown descending.
    rows: Vec<VulnRow>,
}

impl VulnReport {
    /// Canonical JSON document.
    pub(crate) fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("rank", Json::count(r.rank as u64)),
                    ("family", Json::str(r.family.key())),
                    ("bank_group", Json::count(r.bank_group as u64)),
                    ("row_group", Json::count(r.row_group as u64)),
                    ("probe", r.probe.encode()),
                    ("probe_score", Json::num(r.probe_score)),
                    ("slowdown", Json::num(r.slowdown)),
                    ("normalized_performance", Json::num(r.normalized_performance)),
                    ("mitigations", Json::count(r.mitigations)),
                    ("counter_ops", Json::count(r.counter_ops)),
                    ("time_to_max_us", r.time_to_max_us.map_or(Json::Null, Json::num)),
                    ("recovery_us", r.recovery_us.map_or(Json::Null, Json::num)),
                ])
            })
            .collect();
        Json::obj([
            ("tracker", Json::str(&self.tracker)),
            ("workload", Json::str(&self.workload)),
            ("window_us", Json::num(self.window_us)),
            ("nrh", Json::count(self.nrh as u64)),
            ("seed", Json::hex(self.seed)),
            ("rows", Json::Arr(rows)),
        ])
    }

    /// Fixed-width table for terminals.
    pub(crate) fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "vulnerability report — {} / {} ({} µs, N_RH {})\n",
            self.tracker, self.workload, self.window_us, self.nrh
        ));
        out.push_str(&format!(
            "{:<4} {:<28} {:>9} {:>11} {:>9} {:>12}\n",
            "rank", "scenario", "probe", "slowdown", "mitig.", "counter ops"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<4} {:<28} {:>8.2}x {:>10.2}x {:>9} {:>12}\n",
                r.rank,
                r.probe.name(),
                r.probe_score,
                r.slowdown,
                r.mitigations,
                r.counter_ops
            ));
        }
        out
    }
}

/// Runs the evaluate stage over the heatmap's top-K cells, streaming
/// [`CampaignEvent`]s to `observer`.
///
/// # Panics
///
/// Panics if a promoted genome fails to simulate (genomes are clamped, so
/// they always build).
pub(crate) fn run_evaluate(
    map: &SensitivityHeatmap,
    cfg: &EvaluateConfig,
    cache: Option<&RunCache>,
    observer: &mut dyn FnMut(&CampaignEvent),
) -> (VulnReport, EvalStats) {
    observer(&CampaignEvent::Stage("evaluate"));
    // Full fidelity is the profile's cell at a longer window: the same
    // arena call builds, keys and runs it.
    let promoted = map.top(cfg.top_k);
    let probes: Vec<ScenarioSpec> = promoted.iter().map(|cell| cell.probe.clone()).collect();
    let (outcomes, stats) = cfg.arena.evaluate(
        &cfg.tracker,
        &Reference::default(),
        &probes,
        cache.map(|c| c as &dyn PayloadCache<_>),
        |_, _| {},
    );

    // Rank by full-fidelity slowdown; the sort is stable, so ties keep
    // promotion order and the report is deterministic.
    let mut rows: Vec<VulnRow> = promoted
        .iter()
        .zip(outcomes)
        .map(|(cell, outcome)| {
            let r = outcome.unwrap_or_else(|e| {
                panic!("redteam: evaluation of {} failed: {e}", cell.probe.name())
            });
            let score = Score::of(&r);
            VulnRow {
                rank: 0,
                family: cell.family,
                bank_group: cell.bank_group,
                row_group: cell.row_group,
                probe: cell.probe.clone(),
                probe_score: cell.score(),
                slowdown: score.slowdown,
                normalized_performance: score.normalized_performance,
                mitigations: score.mitigations,
                counter_ops: score.counter_ops,
                time_to_max_us: score.time_to_max_slowdown_us,
                recovery_us: score.recovery_us,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.slowdown.total_cmp(&a.slowdown));
    for (i, row) in rows.iter_mut().enumerate() {
        row.rank = i + 1;
        observer(&CampaignEvent::Note(format!(
            "evaluate: #{} {} {:.2}x",
            row.rank,
            row.probe.name(),
            row.slowdown
        )));
    }
    observer(&CampaignEvent::CacheStats { hits: stats.hits as u64, misses: stats.misses as u64 });
    (
        VulnReport {
            tracker: map.tracker.clone(),
            workload: cfg.arena.workload.clone(),
            window_us: cfg.arena.window_us,
            nrh: cfg.arena.nrh,
            seed: cfg.arena.seed,
            rows,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatmap::Family;
    use crate::profile::run_profile;

    #[test]
    fn evaluate_ranks_top_cells_at_full_fidelity() {
        let mut pcfg = crate::profile::tiny();
        pcfg.families = vec![Family::Hammer];
        let (map, _) = run_profile(&pcfg, None, &mut |_| {});
        let mut ecfg = EvaluateConfig::for_heatmap(&map).expect("tracker key resolves");
        ecfg.top_k = 2;
        ecfg.arena.window_us = 60.0;
        let (report, stats) = run_evaluate(&map, &ecfg, None, &mut |_| {});
        assert_eq!(report.rows.len(), 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.simulations, 3, "2 cells + 1 reference");
        assert_eq!(report.rows[0].rank, 1);
        assert!(report.rows[0].slowdown >= report.rows[1].slowdown);
        let table = report.render_table();
        assert!(table.contains("vulnerability report"), "{table}");
        let json = report.to_json().render();
        assert!(json.contains("\"rows\""), "{json}");
    }
}

//! Red-team campaigns: scenario × tracker matrices plus per-tracker
//! worst-case search, fanned out over the sim runner's parallel sweep.
//!
//! A campaign evaluates every fixed scenario against every tracker (all
//! jobs share one reference run), optionally runs the mutation search per
//! tracker, and aggregates everything into a resilience leaderboard with
//! JSON/CSV exports.

use crate::arena::{Arena, Reference};
use crate::scenario::ScenarioSpec;
use crate::search::{records, search, EvalRecord, SearchConfig, SearchReport};
use sim::cache::RunCache;
use sim::exec::PayloadCache;
use sim::experiment::TrackerSel;
use sim_core::json::{csv_field, Json, JsonCodec};
use workloads::Attack;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Trackers under test (registry selections, parameter overrides
    /// included).
    pub trackers: Vec<TrackerSel>,
    /// Evaluation conditions shared by every tracker's matrix and search.
    pub arena: Arena,
    /// Fixed scenarios evaluated for every tracker.
    pub scenarios: Vec<ScenarioSpec>,
    /// Worst-case-search evaluations per tracker (0 disables the search).
    pub search_budget: u32,
}

impl CampaignConfig {
    /// A campaign over the given trackers in the default [`Arena`], with
    /// the paper's seven attack patterns as the fixed matrix and a
    /// 50-evaluation search per tracker.
    pub fn new(trackers: Vec<TrackerSel>, workload: &str) -> Self {
        Self {
            trackers,
            arena: Arena::new(workload),
            scenarios: Attack::all().map(ScenarioSpec::baseline).to_vec(),
            search_budget: 50,
        }
    }
}

/// One evaluated (tracker, scenario) cell.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Tracker label ([`TrackerSel::label`]: display name plus any
    /// parameter overrides, so two parameterizations of one scheme stay
    /// distinguishable in rows, leaderboards, and exports).
    pub tracker: String,
    /// "fixed" for matrix scenarios, "search" for search discoveries.
    pub origin: &'static str,
    /// The evaluation.
    pub record: EvalRecord,
}

/// Aggregated campaign outcome.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The configuration that produced this report.
    pub config: CampaignConfig,
    /// Every evaluated cell (fixed matrix first, then search bests).
    pub rows: Vec<CampaignRow>,
    /// Per-tracker search reports (empty when the search was disabled).
    pub searches: Vec<SearchReport>,
}

/// Runs the campaign: the fixed matrix for every tracker, then (budget
/// permitting) the worst-case search per tracker. With a `cache`, the
/// fixed scenario × tracker matrix reads through it (hits skip
/// simulation). Search evaluations are never cached — the mutation
/// trajectory is adaptive, so its cells rarely repeat across campaigns.
pub fn run_campaign(cfg: &CampaignConfig, cache: Option<&RunCache>) -> CampaignReport {
    assert!(!cfg.trackers.is_empty(), "campaign needs at least one tracker");
    let mut rows = Vec::new();
    let mut searches = Vec::new();
    // The reference run (insecure, attack-free) depends only on the
    // arena, so every tracker's matrix and search share one.
    let reference = Reference::default();
    let cache = cache.map(|c| c as &dyn PayloadCache<_>);
    for tracker in &cfg.trackers {
        let (outcomes, _) =
            cfg.arena.evaluate(tracker, &reference, &cfg.scenarios, cache, |_, _| {});
        for record in records(&cfg.scenarios, outcomes).into_iter().flatten() {
            rows.push(CampaignRow { tracker: tracker.label(), origin: "fixed", record });
        }
        if cfg.search_budget > 0 {
            let scfg = SearchConfig {
                budget: cfg.search_budget,
                ..SearchConfig::new(tracker.clone(), cfg.arena.clone())
            };
            let report = search(&scfg, &reference, &[], &mut |_, _| {});
            rows.push(CampaignRow {
                tracker: tracker.label(),
                origin: "search",
                record: report.best.clone(),
            });
            searches.push(report);
        }
    }
    CampaignReport { config: cfg.clone(), rows, searches }
}

impl CampaignReport {
    /// The worst (highest-slowdown) row per tracker, most-resilient tracker
    /// first.
    pub(crate) fn leaderboard(&self) -> Vec<&CampaignRow> {
        let mut worst: Vec<&CampaignRow> = Vec::new();
        for tracker in &self.config.trackers {
            let name = tracker.label();
            if let Some(row) = self
                .rows
                .iter()
                .filter(|r| r.tracker == name)
                .max_by(|a, b| a.record.slowdown.total_cmp(&b.record.slowdown))
            {
                worst.push(row);
            }
        }
        worst.sort_by(|a, b| a.record.slowdown.total_cmp(&b.record.slowdown));
        worst
    }

    /// Renders the leaderboard as an aligned text table.
    pub fn leaderboard_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<13} {:>9} {:>9} {:>12} {:>12} {:>8} {:>10} {:>9} {:>9}  {}\n",
            "tracker",
            "worst",
            "norm.perf",
            "mitigations",
            "counter-ops",
            "resets",
            "energy",
            "t-max",
            "recovery",
            "scenario"
        ));
        let us = |v: Option<f64>| match v {
            Some(v) => format!("{v:.0}us"),
            None => "-".to_string(),
        };
        for row in self.leaderboard() {
            let r = &row.record;
            out.push_str(&format!(
                "{:<13} {:>8.3}x {:>9.3} {:>12} {:>12} {:>8} {:>8.2}mJ {:>9} {:>9}  {} [{}]\n",
                row.tracker,
                r.slowdown,
                r.normalized_performance,
                r.mitigations,
                r.counter_ops,
                r.reset_sweeps,
                r.energy_mj,
                us(r.time_to_max_slowdown_us),
                us(r.recovery_us),
                r.name,
                row.origin,
            ));
        }
        out
    }

    /// Serializes the full report (config, rows, searches) as JSON.
    pub fn to_json(&self) -> Json {
        let row_json = |row: &CampaignRow| {
            let r = &row.record;
            Json::obj([
                ("tracker", Json::str(&row.tracker)),
                ("origin", Json::str(row.origin)),
                ("scenario", Json::str(&r.name)),
                ("spec", r.spec.encode()),
                ("slowdown", Json::num(r.slowdown)),
                ("normalized_performance", Json::num(r.normalized_performance)),
                ("mitigations", Json::count(r.mitigations)),
                ("counter_ops", Json::count(r.counter_ops)),
                ("reset_sweeps", Json::count(r.reset_sweeps)),
                ("energy_mj", Json::num(r.energy_mj)),
                (
                    "time_to_max_slowdown_us",
                    r.time_to_max_slowdown_us.map_or(Json::Null, Json::num),
                ),
                ("recovery_us", r.recovery_us.map_or(Json::Null, Json::num)),
                ("recon_accuracy", r.recon_accuracy.map_or(Json::Null, Json::num)),
                ("flips", r.flips.map_or(Json::Null, Json::count)),
            ])
        };
        let searches = self
            .searches
            .iter()
            .map(|s| {
                Json::obj([
                    ("tracker", Json::str(&s.tracker)),
                    ("seed", Json::hex(s.seed)),
                    ("evaluations", Json::count(s.evaluations as u64)),
                    ("best_slowdown", Json::num(s.best.slowdown)),
                    ("tailored_slowdown", Json::num(s.tailored.slowdown)),
                    ("tailored_scenario", Json::str(&s.tailored.name)),
                    ("slack", Json::num(s.slack())),
                    ("rediscovered_tailored", Json::Bool(s.rediscovered_tailored())),
                    ("best_spec", s.best.spec.encode()),
                    ("history", s.history.encode()),
                ])
            })
            .collect();
        Json::obj([
            (
                "config",
                Json::obj([
                    (
                        "trackers",
                        Json::Arr(
                            self.config.trackers.iter().map(|t| Json::str(t.name())).collect(),
                        ),
                    ),
                    ("workload", Json::str(&self.config.arena.workload)),
                    ("window_us", Json::num(self.config.arena.window_us)),
                    ("nrh", Json::count(self.config.arena.nrh as u64)),
                    ("seed", Json::hex(self.config.arena.seed)),
                    ("search_budget", Json::count(self.config.search_budget as u64)),
                ]),
            ),
            ("rows", Json::Arr(self.rows.iter().map(row_json).collect())),
            ("searches", Json::Arr(searches)),
        ])
    }

    /// Serializes every row as CSV (header + one line per evaluation).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "tracker,origin,scenario,slowdown,normalized_performance,mitigations,counter_ops,reset_sweeps,energy_mj,time_to_max_slowdown_us,recovery_us,recon_accuracy,flips\n",
        );
        let us = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v:.3}"));
        for row in &self.rows {
            let r = &row.record;
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6},{},{},{},{:.4},{},{},{},{}\n",
                csv_field(&row.tracker),
                row.origin,
                csv_field(&r.name),
                r.slowdown,
                r.normalized_performance,
                r.mitigations,
                r.counter_ops,
                r.reset_sweeps,
                r.energy_mj,
                us(r.time_to_max_slowdown_us),
                us(r.recovery_us),
                r.recon_accuracy.map_or(String::new(), |v| format!("{v:.4}")),
                r.flips.map_or(String::new(), |v| v.to_string()),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trackers(keys: &[&str]) -> Vec<TrackerSel> {
        keys.iter().map(|k| TrackerSel::by_key(k).unwrap()).collect()
    }

    fn tiny() -> CampaignConfig {
        let mut cfg = CampaignConfig::new(trackers(&["hydra", "dapper-h"]), "povray_like");
        cfg.arena.window_us = 60.0;
        cfg.scenarios = vec![
            ScenarioSpec::baseline(Attack::Streaming),
            ScenarioSpec::baseline(Attack::CacheThrash),
        ];
        cfg.search_budget = 0;
        cfg
    }

    #[test]
    fn campaign_covers_the_full_matrix() {
        let report = run_campaign(&tiny(), None);
        assert_eq!(report.rows.len(), 4, "2 trackers x 2 scenarios");
        assert!(report.searches.is_empty());
        let board = report.leaderboard();
        assert_eq!(board.len(), 2);
        assert!(
            board[0].record.slowdown <= board[1].record.slowdown,
            "leaderboard sorts most-resilient first"
        );
    }

    #[test]
    fn parameterized_variants_of_one_tracker_stay_distinguishable() {
        // Two Hydra configurations differing only in RCC size — the
        // sensitivity-sweep shape this registry unlocks — must keep
        // separate rows, leaderboard entries, and export labels.
        let baseline = TrackerSel::by_key("hydra").unwrap();
        let small = baseline.clone().with_param("rcc_entries", 512).unwrap();
        let mut cfg = CampaignConfig::new(vec![baseline, small], "povray_like");
        cfg.arena.window_us = 60.0;
        cfg.scenarios = vec![ScenarioSpec::baseline(Attack::Streaming)];
        cfg.search_budget = 0;
        let report = run_campaign(&cfg, None);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].tracker, "Hydra");
        assert_eq!(report.rows[1].tracker, "Hydra{rcc_entries=512}");
        let board = report.leaderboard();
        assert_eq!(board.len(), 2, "one leaderboard entry per parameterization");
        assert!(report.to_csv().contains("Hydra{rcc_entries=512}"));
    }

    #[test]
    fn exports_are_well_formed() {
        let report = run_campaign(&tiny(), None);
        let json = report.to_json().render();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rows\""));
        assert!(json.contains("\"Hydra\""));
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 5, "header + 4 rows");
        assert!(csv.starts_with("tracker,origin,scenario"));
        assert!(csv.lines().next().unwrap().ends_with("recovery_us,recon_accuracy,flips"));
        let table = report.leaderboard_table();
        assert!(table.contains("Hydra") && table.contains("DAPPER-H"));
        assert!(table.contains("t-max"), "leaderboard gains the transient column");
        // Every evaluation records a slowdown trace, so the transient
        // score is always present.
        assert!(report.rows.iter().all(|r| r.record.time_to_max_slowdown_us.is_some()));
        assert!(json.contains("time_to_max_slowdown_us"));
    }
}

//! The attack stage: hill-climbing search warm-started from the heatmap.
//!
//! [`search`](crate::search::search()) takes the profile's hottest
//! genomes as priors: they join the initial population and replace the
//! cold random restarts, so the search spends its budget where the
//! tracker already proved weak. The outcome records how many candidate
//! evaluations the warm search needed to reach the cold random-restart
//! baseline's best slowdown — the workflow's headline speedup.

use sim::experiment::TrackerSel;
use sim_core::json::{Json, JsonCodec};

use crate::arena::Reference;
use crate::heatmap::SensitivityHeatmap;
use crate::search::{search, SearchConfig, SearchReport};
use crate::warroom::CampaignEvent;

/// Attack-stage configuration.
#[derive(Debug, Clone)]
pub(crate) struct AttackConfig {
    /// The search: tracker (normally rebuilt from the heatmap's
    /// `tracker_key`), arena, budget and batch.
    pub(crate) search: SearchConfig,
    /// Heatmap genomes fed in as warm-start priors.
    pub(crate) priors: usize,
}

impl AttackConfig {
    /// Defaults for a heatmap: its own tracker key and arena (so the
    /// search seed is the probe seed), a 48-evaluation budget in batches
    /// of 6, the 4 hottest genomes as priors.
    pub(crate) fn for_heatmap(map: &SensitivityHeatmap) -> Result<Self, String> {
        let tracker = TrackerSel::by_key(&map.tracker_key).map_err(|e| e.to_string())?;
        let search =
            SearchConfig { budget: 48, batch: 6, ..SearchConfig::new(tracker, map.arena()) };
        Ok(Self { search, priors: 4 })
    }
}

/// Outcome of the attack stage.
#[derive(Debug, Clone)]
pub(crate) struct AttackOutcome {
    /// The heatmap-warmed search.
    pub(crate) warm: SearchReport,
    /// The cold random-restart baseline, when requested.
    pub(crate) cold: Option<SearchReport>,
    /// Evaluations the warm search needed to reach the cold baseline's
    /// best slowdown (`None` when it never did, or without a baseline).
    pub(crate) warm_evals_to_target: Option<u32>,
    /// Evaluations the cold search needed to reach its own best.
    pub(crate) cold_evals_to_target: Option<u32>,
    /// `warm_evals_to_target / cold_evals_to_target` — below 1.0 the
    /// warm start paid off; the CI gate requires ≤ 0.6 on the pinned
    /// benchmark.
    pub(crate) ratio: Option<f64>,
}

impl AttackOutcome {
    /// Canonical JSON document (what `redteam attack --out` writes).
    pub(crate) fn to_json(&self) -> Json {
        let count = |v: Option<u32>| v.map_or(Json::Null, |v| Json::count(v as u64));
        Json::obj([
            ("warm", search_report_json(&self.warm)),
            ("cold", self.cold.as_ref().map_or(Json::Null, search_report_json)),
            ("warm_evals_to_target", count(self.warm_evals_to_target)),
            ("cold_evals_to_target", count(self.cold_evals_to_target)),
            ("ratio", self.ratio.map_or(Json::Null, Json::num)),
        ])
    }
}

/// Canonical JSON document for one search report (shared by the CLI and
/// the spec runner's attack artifacts).
pub(crate) fn search_report_json(r: &SearchReport) -> Json {
    Json::obj([
        ("tracker", Json::str(&r.tracker)),
        ("seed", Json::hex(r.seed)),
        ("evaluations", Json::count(r.evaluations as u64)),
        ("dedup_hits", Json::count(r.dedup_hits as u64)),
        ("best_name", Json::str(&r.best.name)),
        ("best_slowdown", Json::num(r.best.slowdown)),
        ("best_spec", r.best.spec.encode()),
        ("history", r.history.encode()),
    ])
}

/// First history point at which the climb reached `target` slowdown.
fn evals_to_reach(history: &[(u32, f64)], target: f64) -> Option<u32> {
    history.iter().find(|(_, best)| *best >= target - 1e-9).map(|(evals, _)| *evals)
}

/// Runs the attack stage, streaming [`CampaignEvent::Frontier`] points
/// live. With `baseline` set, also runs the cold random-restart search
/// under the identical budget/seed (sharing the reference run) and scores
/// warm-vs-cold evaluations-to-target.
///
/// # Panics
///
/// Panics if the budget is zero or the tailored-attack simulation fails.
pub(crate) fn run_attack(
    map: &SensitivityHeatmap,
    cfg: &AttackConfig,
    baseline: bool,
    observer: &mut dyn FnMut(&CampaignEvent),
) -> AttackOutcome {
    observer(&CampaignEvent::Stage("attack"));
    let priors = map.seed_genomes(cfg.priors);
    observer(&CampaignEvent::Note(format!(
        "attack: {} priors from the heatmap, budget {}",
        priors.len(),
        cfg.search.budget
    )));
    // One reference run shared by the warm search and the cold baseline.
    let reference = Reference::default();
    let warm = search(&cfg.search, &reference, &priors, &mut |evaluation, best| {
        observer(&CampaignEvent::Frontier { evaluation, best_slowdown: best });
    });
    let cold = baseline.then(|| search(&cfg.search, &reference, &[], &mut |_, _| {}));
    let (warm_evals_to_target, cold_evals_to_target, ratio) = match &cold {
        Some(cold) => {
            let target = cold.best.slowdown;
            let warm_to = evals_to_reach(&warm.history, target);
            let cold_to = evals_to_reach(&cold.history, target);
            let ratio = match (warm_to, cold_to) {
                (Some(w), Some(c)) if c > 0 => Some(w as f64 / c as f64),
                _ => None,
            };
            (warm_to, cold_to, ratio)
        }
        None => (None, None, None),
    };
    AttackOutcome { warm, cold, warm_evals_to_target, cold_evals_to_target, ratio }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::run_profile;

    #[test]
    fn attack_stage_feeds_heatmap_priors_into_the_search() {
        let (map, _) = run_profile(&crate::profile::tiny(), None, &mut |_| {});
        let mut acfg = AttackConfig::for_heatmap(&map).expect("tracker key resolves");
        acfg.search.arena.window_us = 60.0;
        acfg.search.budget = 8;
        acfg.search.batch = 4;
        acfg.priors = 2;
        let mut frontier = Vec::new();
        let outcome = run_attack(&map, &acfg, true, &mut |e| {
            if let CampaignEvent::Frontier { evaluation, best_slowdown } = e {
                frontier.push((*evaluation, *best_slowdown));
            }
        });
        assert_eq!(outcome.warm.evaluations, 8);
        assert_eq!(frontier, outcome.warm.history, "frontier stream mirrors the history");
        let cold = outcome.cold.expect("baseline requested");
        assert_eq!(cold.evaluations, 8);
        assert!(outcome.warm.rediscovered_tailored());
        // The warm search saw the priors: its first batch includes them,
        // so its history differs from cold's unless the priors were
        // strictly dominated from the start.
        assert!(outcome.warm.best.slowdown >= cold.tailored.slowdown - 1e-9);
    }

    #[test]
    fn evals_to_reach_scans_the_history() {
        let history = vec![(4, 1.0), (8, 2.0), (12, 2.0), (16, 3.5)];
        assert_eq!(evals_to_reach(&history, 1.0), Some(4));
        assert_eq!(evals_to_reach(&history, 2.0), Some(8));
        assert_eq!(evals_to_reach(&history, 3.4), Some(16));
        assert_eq!(evals_to_reach(&history, 9.9), None);
    }
}

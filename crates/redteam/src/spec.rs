//! Spec routing: the declarative face of the red-team stack.
//!
//! A [`SweepSpec`] with a `[profile]` section runs the profile → evaluate
//! → attack workflow for every tracker × workload cell, and one with an
//! `[attacker]` section runs the attacker pipeline over its cells, instead
//! of the plain sweep: [`run_spec`] is the one call `spec_run` makes for
//! either. Artifacts (heatmap, vulnerability report, and — when the
//! section sets a non-zero `budget` — the warm-started attack outcome; or
//! the pipeline's verdict report) land in the output directory under the
//! spec's name.

use sim::cache::RunCache;
use sim::spec::{expand_workloads, ProfileOptions, SweepSpec};
use sim_core::json::{Json, JsonCodec};

use crate::attack::{run_attack, search_report_json, AttackConfig};
use crate::evaluate::{run_evaluate, EvaluateConfig};
use crate::heatmap::Family;
use crate::pipeline::run_attacker_sweep;
use crate::profile::{run_profile, ProfileConfig};
use crate::warroom::CampaignEvent;

/// Runs a spec with a `[profile]` or `[attacker]` section, reading
/// through `cache` when given (the caller resolves and opens it: CLI flag
/// or the spec's own `[cache]` section). Prints per-cell lines and the
/// paths of the artifacts written under `out_dir`, and returns how many
/// cells failed (attacker cells are skipped with a warning; a `[profile]`
/// workflow has none to skip).
pub fn run_spec(
    spec: &SweepSpec,
    cache: Option<&RunCache>,
    out_dir: &str,
) -> Result<usize, String> {
    if let Some(popts) = &spec.profile {
        for path in run_profile_spec(spec, popts, cache, out_dir)? {
            println!("  artifact written to {path}");
        }
        return Ok(0);
    }
    let report = run_attacker_sweep(spec, cache)?;
    print!("{}", report.leaderboard_table());
    println!(
        "  attacker cache: {} hits, {} misses ({} cells)",
        report.hits, report.misses, report.cells
    );
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let out_path = format!("{out_dir}/{}.json", report.name);
    std::fs::write(&out_path, report.to_json().render())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("  results written to {out_path}");
    Ok(report.cells - report.verdicts.len())
}

fn families_from_spec(names: &[String]) -> Result<Vec<Family>, String> {
    if names.is_empty() {
        return Ok(Family::ALL.to_vec());
    }
    Family::parse_list(names.iter().map(String::as_str))
        .map_err(|e| format!("profile.families: {e}"))
}

/// Runs a `[profile]` spec (`popts` is its section): the full workflow per
/// tracker × workload cell, reading probes through `cache` when given.
/// Prints per-cell stats lines and returns the artifact paths written
/// under `out_dir`.
fn run_profile_spec(
    spec: &SweepSpec,
    popts: &ProfileOptions,
    cache: Option<&RunCache>,
    out_dir: &str,
) -> Result<Vec<String>, String> {
    let trackers = spec.resolve_trackers().map_err(|e| e.to_string())?;
    let workload_names = expand_workloads(&spec.workloads).map_err(|e| e.to_string())?;
    let families = families_from_spec(&popts.families)?;
    let budget = popts.budget.unwrap_or(0);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;

    let mut artifacts = Vec::new();
    let mut write = |stem: String, doc: Json| -> Result<(), String> {
        let path = format!("{out_dir}/{stem}.json");
        std::fs::write(&path, doc.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
        artifacts.push(path);
        Ok(())
    };

    let quiet = &mut |_: &CampaignEvent| {};
    for tracker in &trackers {
        for workload in &workload_names {
            let mut cfg = ProfileConfig::new(tracker.clone(), workload);
            // Unset keys keep the interactive CLI's defaults.
            cfg.arena.window_us = popts.probe_window_us.unwrap_or(cfg.arena.window_us);
            cfg.arena.nrh = spec.options.nrh.unwrap_or(cfg.arena.nrh);
            cfg.arena.seed = spec.options.seed.unwrap_or(cfg.arena.seed);
            cfg.bank_groups = popts.bank_groups.unwrap_or(cfg.bank_groups);
            cfg.row_groups = popts.row_groups.unwrap_or(cfg.row_groups);
            cfg.families = families.clone();
            let stem = format!("{}_{}_{}", spec.name, tracker.key(), workload);
            let (map, stats) = run_profile(&cfg, cache, quiet);
            println!("  profile  {:<13} {:<18} {stats}", tracker.key(), workload);
            write(format!("{stem}_heatmap"), map.encode())?;

            // Evaluate reuses the resolved selection so `[params.*]`
            // overrides survive (the heatmap file alone only carries the
            // registry key).
            let mut ecfg = EvaluateConfig::for_heatmap(&map)?;
            ecfg.tracker = tracker.clone();
            ecfg.top_k = popts.top_k.map_or(ecfg.top_k, |k| k as usize);
            ecfg.arena.window_us = spec.options.window_us.unwrap_or(ecfg.arena.window_us);
            let (report, estats) = run_evaluate(&map, &ecfg, cache, quiet);
            println!("  evaluate {:<13} {:<18} {estats}", tracker.key(), workload);
            write(format!("{stem}_report"), report.to_json())?;

            if budget > 0 {
                let mut acfg = AttackConfig::for_heatmap(&map)?;
                acfg.search.tracker = tracker.clone();
                acfg.search.arena.window_us = ecfg.arena.window_us;
                acfg.search.budget = budget;
                acfg.search.batch = budget.min(6);
                let outcome = run_attack(&map, &acfg, false, quiet);
                println!(
                    "  attack   {:<13} {:<18} best {:.3}x via {} ({} evaluations, {} dedup hits)",
                    tracker.key(),
                    workload,
                    outcome.warm.best.slowdown,
                    outcome.warm.best.name,
                    outcome.warm.evaluations,
                    outcome.warm.dedup_hits,
                );
                write(format!("{stem}_attack"), search_report_json(&outcome.warm))?;
            }
        }
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
name = "profile_spec_test"
workloads = ["povray_like"]
trackers = ["hydra"]
window_us = 60
seed = 14315493

[profile]
bank_groups = 2
row_groups = 2
probe_window_us = 25.0
families = ["hammer"]
top_k = 2
"#;

    #[test]
    fn profile_spec_runs_the_workflow_and_writes_artifacts() {
        let dir = std::env::temp_dir().join(format!("redteam-profile-spec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out_dir = dir.to_str().expect("utf-8 temp path");
        let spec = SweepSpec::from_toml_str(SPEC).expect("spec parses");
        let popts = spec.profile.as_ref().expect("[profile] section");
        let artifacts = run_profile_spec(&spec, popts, None, out_dir).expect("spec runs");
        assert_eq!(artifacts.len(), 2, "heatmap + report, no attack at budget 0");
        assert!(artifacts[0].ends_with("profile_spec_test_hydra_povray_like_heatmap.json"));
        assert!(artifacts[1].ends_with("profile_spec_test_hydra_povray_like_report.json"));
        for path in &artifacts {
            let text = std::fs::read_to_string(path).expect("artifact readable");
            Json::parse(&text).expect("artifact is JSON");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn family_lists_expand_validate_and_dedupe() {
        assert_eq!(families_from_spec(&[]).unwrap(), Family::ALL.to_vec());
        assert_eq!(families_from_spec(&["all".into()]).unwrap(), Family::ALL.to_vec());
        assert_eq!(
            families_from_spec(&["sweep".into(), "sweep".into()]).unwrap(),
            vec![Family::Sweep]
        );
        assert!(families_from_spec(&["warp".into()]).is_err());
    }
}

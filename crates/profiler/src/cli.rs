//! The `profile` / `evaluate` / `attack` subcommands of the `redteam`
//! binary.
//!
//! ```text
//! redteam profile  --tracker hydra --workload povray_like --cache-dir out/cache
//! redteam evaluate --heatmap out/heatmap.json --top-k 5
//! redteam attack   --heatmap out/heatmap.json --baseline --max-ratio 0.6
//! ```
//!
//! Each stage consumes the previous stage's artifact, so a campaign is
//! three commands — or one `[profile]` spec section through `spec_run`.
//! `--tui` renders the live warroom dashboard while a stage runs.

use sim::cache::RunCache;
use sim::experiment::TrackerSel;
use sim_core::cli::{parse, Parsed};
use sim_core::json::{Json, JsonCodec};

use crate::attack::{run_attack_observed, AttackConfig};
use crate::evaluate::{run_evaluate_observed, EvaluateConfig};
use crate::heatmap::{Family, SensitivityHeatmap};
use crate::profile::{run_profile_observed, ProfileConfig};
use crate::warroom::Dashboard;
use crate::CampaignEvent;

const USAGE: &str = "redteam profiler — profile → evaluate → attack campaign stages

USAGE:
  redteam profile  [--tracker KEY] [--workload NAME] [--probe-window-us F]
                   [--nrh N] [--seed N] [--bank-groups N] [--row-groups N]
                   [--families a,b] [--cache-dir DIR] [--out FILE]
                   [--tui] [--no-ansi]
  redteam evaluate --heatmap FILE [--top-k N] [--window-us F]
                   [--cache-dir DIR] [--out FILE] [--tui] [--no-ansi]
  redteam attack   --heatmap FILE [--budget N] [--batch N] [--window-us F]
                   [--seed N] [--priors N] [--baseline] [--max-ratio F]
                   [--out FILE] [--tui] [--no-ansi]

profile   sweeps cheap short-horizon probes over the bank-spread ×
          intensity × pattern-family grid and writes a sensitivity
          heatmap (default tracker hydra, workload povray_like,
          out/profile_heatmap.json). With --cache-dir, probes read
          through the content-addressed run cache: a warm re-profile
          performs zero simulations and reproduces the heatmap
          byte-identically.
          --families is a comma list of hammer,sweep,diagonal,thrash
          or 'all' (default all).
evaluate  re-runs the heatmap's top-K cells at full fidelity (default
          250 us) and prints the ranked vulnerability report.
attack    feeds the heatmap's hottest genomes into the worst-case
          search as warm-start priors. --baseline also runs the cold
          random-restart search under the identical budget and reports
          warm/cold evaluations-to-target; --max-ratio F (requires
          --baseline) exits 1 unless the ratio is <= F.

--tui renders the live warroom dashboard (add --no-ansi for plain
frames); `warroom --render-once` previews it without a campaign.
";

fn parse_families(list: &str) -> Result<Vec<Family>, String> {
    let mut families = Vec::new();
    for name in list.split(',').filter(|s| !s.is_empty()) {
        if name.trim().eq_ignore_ascii_case("all") {
            return Ok(Family::ALL.to_vec());
        }
        let family = Family::by_key(name.trim())
            .ok_or_else(|| format!("--families: unknown family '{name}' (try 'all')"))?;
        if !families.contains(&family) {
            families.push(family);
        }
    }
    if families.is_empty() {
        return Err("--families: no families named (try 'all')".to_string());
    }
    Ok(families)
}

fn open_cache(parsed: &Parsed<'_>) -> Result<Option<RunCache>, String> {
    match parsed.get("--cache-dir") {
        None => Ok(None),
        Some(dir) => RunCache::open(dir).map(Some).map_err(|e| format!("--cache-dir: {e}")),
    }
}

fn load_heatmap(parsed: &Parsed<'_>) -> Result<SensitivityHeatmap, String> {
    let path = parsed.get("--heatmap").ok_or("--heatmap FILE is required (try --help)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    SensitivityHeatmap::decode(&json).map_err(|e| format!("{path}: {e}"))
}

fn write_artifact(path: &str, content: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

/// An observer that optionally re-renders the warroom dashboard on every
/// event (the `--tui` path) while always accumulating state for a final
/// frame.
struct TuiObserver {
    dashboard: Dashboard,
    live: bool,
    ansi: bool,
}

impl TuiObserver {
    fn new(parsed: &Parsed<'_>) -> Self {
        Self {
            dashboard: Dashboard::new(),
            live: parsed.has("--tui"),
            ansi: !parsed.has("--no-ansi"),
        }
    }

    fn handle(&mut self, event: &CampaignEvent) {
        self.dashboard.handle(event);
        if self.live {
            print!("{}", self.dashboard.render(self.ansi));
        }
    }

    fn finish(mut self, heatmap_art: Option<&str>) {
        if !self.live {
            return;
        }
        if let Some(art) = heatmap_art {
            self.dashboard.set_heatmap_art(art);
        }
        print!("{}", self.dashboard.render(self.ansi));
    }
}

fn cmd_profile(args: &[String]) -> Result<i32, String> {
    let parsed = parse(
        args,
        &[
            "--tracker",
            "--workload",
            "--probe-window-us",
            "--nrh",
            "--seed",
            "--bank-groups",
            "--row-groups",
            "--families",
            "--cache-dir",
            "--out",
        ],
        &["--tui", "--no-ansi"],
        USAGE,
    )?;
    let tracker_key = parsed.get("--tracker").map(String::as_str).unwrap_or("hydra");
    let tracker = TrackerSel::by_key(tracker_key).map_err(|e| e.to_string())?;
    let workload = parsed.get("--workload").map(String::as_str).unwrap_or("povray_like");
    if workloads::spec_by_name(workload).is_none() {
        return Err(format!("unknown workload '{workload}'"));
    }
    let mut cfg = ProfileConfig::new(tracker, workload);
    cfg.probe_window_us = parsed.num("--probe-window-us", cfg.probe_window_us)?;
    cfg.nrh = parsed.num("--nrh", cfg.nrh as f64)? as u32;
    cfg.seed = parsed.seed(cfg.seed)?;
    cfg.bank_groups = parsed.num("--bank-groups", cfg.bank_groups as f64)? as u32;
    cfg.row_groups = parsed.num("--row-groups", cfg.row_groups as f64)? as u32;
    if cfg.bank_groups == 0 || cfg.row_groups == 0 || cfg.probe_window_us <= 0.0 {
        return Err("profile grid and probe window must be positive".to_string());
    }
    if let Some(list) = parsed.get("--families") {
        cfg.families = parse_families(list)?;
    }
    let cache = open_cache(&parsed)?;
    let mut tui = TuiObserver::new(&parsed);
    let (map, stats) = run_profile_observed(&cfg, cache.as_ref(), &mut |e| tui.handle(e));
    let art = map.render_ascii();
    tui.finish(Some(&art));
    println!("profile: {stats}");
    print!("{art}");
    let out = parsed.get("--out").map(String::as_str).unwrap_or("out/profile_heatmap.json");
    write_artifact(out, &map.encode().render())?;
    println!("heatmap written to {out}");
    Ok(0)
}

fn cmd_evaluate(args: &[String]) -> Result<i32, String> {
    let parsed = parse(
        args,
        &["--heatmap", "--top-k", "--window-us", "--cache-dir", "--out"],
        &["--tui", "--no-ansi"],
        USAGE,
    )?;
    let map = load_heatmap(&parsed)?;
    let mut cfg = EvaluateConfig::for_heatmap(&map)?;
    cfg.top_k = parsed.num("--top-k", cfg.top_k as f64)? as usize;
    cfg.window_us = parsed.num("--window-us", cfg.window_us)?;
    if cfg.top_k == 0 || cfg.window_us <= 0.0 {
        return Err("--top-k and --window-us must be positive".to_string());
    }
    let cache = open_cache(&parsed)?;
    let mut tui = TuiObserver::new(&parsed);
    let (report, stats) = run_evaluate_observed(&map, &cfg, cache.as_ref(), &mut |e| tui.handle(e));
    tui.finish(None);
    println!("evaluate: {stats}");
    print!("{}", report.render_table());
    if let Some(out) = parsed.get("--out") {
        write_artifact(out, &report.to_json().render())?;
        println!("report written to {out}");
    }
    Ok(0)
}

fn cmd_attack(args: &[String]) -> Result<i32, String> {
    let parsed = parse(
        args,
        &[
            "--heatmap",
            "--budget",
            "--batch",
            "--window-us",
            "--seed",
            "--priors",
            "--max-ratio",
            "--out",
        ],
        &["--baseline", "--tui", "--no-ansi"],
        USAGE,
    )?;
    let map = load_heatmap(&parsed)?;
    let mut cfg = AttackConfig::for_heatmap(&map)?;
    cfg.budget = parsed.num("--budget", cfg.budget as f64)? as u32;
    cfg.batch = parsed.num("--batch", cfg.batch as f64)? as u32;
    cfg.window_us = parsed.num("--window-us", cfg.window_us)?;
    cfg.seed = parsed.seed(cfg.seed)?;
    cfg.priors = parsed.num("--priors", cfg.priors as f64)? as usize;
    if cfg.budget == 0 || cfg.batch == 0 || cfg.window_us <= 0.0 {
        return Err("--budget, --batch and --window-us must be positive".to_string());
    }
    let baseline = parsed.has("--baseline");
    let max_ratio = match parsed.get("--max-ratio") {
        None => None,
        Some(v) => {
            if !baseline {
                return Err("--max-ratio requires --baseline".to_string());
            }
            Some(v.parse::<f64>().map_err(|_| format!("--max-ratio: cannot parse '{v}'"))?)
        }
    };
    let mut tui = TuiObserver::new(&parsed);
    let outcome = run_attack_observed(&map, &cfg, baseline, &mut |e| tui.handle(e));
    tui.finish(None);
    println!(
        "warm: best {:.3}x via {} in {} evaluations ({} dedup hits) | reproduce: --seed {}",
        outcome.warm.best.slowdown,
        outcome.warm.best.name,
        outcome.warm.evaluations,
        outcome.warm.dedup_hits,
        outcome.warm.seed,
    );
    if let Some(cold) = &outcome.cold {
        println!(
            "cold: best {:.3}x via {} in {} evaluations",
            cold.best.slowdown, cold.best.name, cold.evaluations
        );
        match (outcome.warm_evals_to_target, outcome.cold_evals_to_target) {
            (Some(w), Some(c)) => {
                println!("evals to cold target: warm {w}, cold {c}");
            }
            _ => println!("evals to cold target: warm never reached the cold best"),
        }
        match outcome.ratio {
            Some(r) => println!("warm/cold ratio: {r:.3}"),
            None => println!("warm/cold ratio: n/a"),
        }
    }
    if let Some(out) = parsed.get("--out") {
        let doc = Json::obj([
            ("warm", crate::attack::search_report_json(&outcome.warm)),
            ("cold", outcome.cold.as_ref().map_or(Json::Null, crate::attack::search_report_json)),
            (
                "warm_evals_to_target",
                outcome.warm_evals_to_target.map_or(Json::Null, |v| Json::count(v as u64)),
            ),
            (
                "cold_evals_to_target",
                outcome.cold_evals_to_target.map_or(Json::Null, |v| Json::count(v as u64)),
            ),
            ("ratio", outcome.ratio.map_or(Json::Null, Json::num)),
        ]);
        write_artifact(out, &doc.render())?;
        println!("outcome written to {out}");
    }
    if let Some(gate) = max_ratio {
        match outcome.ratio {
            Some(r) if r <= gate + 1e-9 => {
                println!("ratio gate: {r:.3} <= {gate} (pass)");
            }
            Some(r) => {
                eprintln!("ratio gate: {r:.3} > {gate} (fail)");
                return Ok(1);
            }
            None => {
                eprintln!("ratio gate: warm search never reached the cold best (fail)");
                return Ok(1);
            }
        }
    }
    Ok(0)
}

/// Profiler CLI entry point; returns the process exit code. `args` starts
/// at the subcommand (`profile`, `evaluate`, or `attack`).
pub fn main_with_args(args: &[String]) -> i32 {
    let Some(sub) = args.first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let rest = &args[1..];
    let outcome = match sub.as_str() {
        "profile" => cmd_profile(rest),
        "evaluate" => cmd_evaluate(rest),
        "attack" => cmd_attack(rest),
        _ => Err(format!("unknown subcommand '{sub}' (try --help)")),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn rejects_unknown_flags_subcommands_and_bad_values() {
        assert_eq!(main_with_args(&argv("profile --buget 5")), 2);
        assert_eq!(main_with_args(&argv("nonsense")), 2);
        assert_eq!(main_with_args(&argv("profile --tracker")), 2);
        assert_eq!(main_with_args(&[]), 2);
        assert_eq!(main_with_args(&argv("attack --max-ratio 0.6")), 2, "needs --heatmap");
        assert_eq!(main_with_args(&argv("evaluate --top-k 3")), 2, "needs --heatmap");
    }

    #[test]
    fn families_parse_with_dedup_and_the_all_token() {
        assert_eq!(parse_families("all").unwrap(), Family::ALL.to_vec());
        assert_eq!(
            parse_families("sweep,hammer,sweep").unwrap(),
            vec![Family::Sweep, Family::Hammer]
        );
        assert!(parse_families("warp").is_err());
        assert!(parse_families(",").is_err());
    }

    #[test]
    fn profile_and_attack_run_end_to_end_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("profiler-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let heatmap = dir.join("heatmap.json");
        let heatmap = heatmap.to_str().expect("utf-8 temp path");
        let code = main_with_args(&argv(&format!(
            "profile --tracker hydra --workload povray_like --probe-window-us 25 \
             --bank-groups 2 --row-groups 2 --families hammer --out {heatmap}"
        )));
        assert_eq!(code, 0);
        let text = std::fs::read_to_string(heatmap).expect("heatmap artifact");
        let map = SensitivityHeatmap::decode(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(map.cells.len(), 4);
        let code = main_with_args(&argv(&format!(
            "attack --heatmap {heatmap} --budget 8 --batch 4 --window-us 60 --priors 2"
        )));
        assert_eq!(code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

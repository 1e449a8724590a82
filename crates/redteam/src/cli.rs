//! The `redteam` command line: argument parsing, dispatch and artifact
//! writing for every red-team workflow, in one place.
//!
//! ```text
//! redteam --trackers dapper-h,hydra,comet --budget 50 [--attacker all]
//! redteam profile  --tracker hydra --workload povray_like --cache-dir out/cache
//! redteam evaluate --heatmap out/heatmap.json --top-k 5
//! redteam attack   --heatmap out/heatmap.json --baseline --max-ratio 0.6
//! redteam warroom  --render-once --no-ansi
//! ```
//!
//! Without a subcommand it runs the campaign — the fixed attack matrix
//! plus the worst-case search for every named tracker — prints the
//! resilience leaderboard and the search-vs-tailored comparison (with the
//! seed reproducing each best scenario), and writes the full structured
//! results as JSON (and optionally CSV); `--attacker` adds the attacker
//! pipeline's knowledge axis ([`crate::pipeline::attacker_axis`]). The
//! `profile` / `evaluate` / `attack` subcommands are the campaign stages:
//! each consumes the previous stage's artifact, and `--tui` renders the
//! live warroom dashboard while a stage runs; `warroom --render-once`
//! prints one synthetic frame of it. A `--cache-dir` is opened once, at
//! the command's entry: one that cannot be opened is an error naming it.

use sim::cache::RunCache;
use sim::experiment::TrackerSel;
use sim::AttackerKnowledge;
use sim_core::cli::{parse, Parsed};
use sim_core::json::{Json, JsonCodec};

use crate::attack::{run_attack, AttackConfig};
use crate::campaign::{run_campaign, CampaignConfig, CampaignReport};
use crate::evaluate::{run_evaluate, EvaluateConfig};
use crate::heatmap::{Family, SensitivityHeatmap};
use crate::pipeline::attacker_axis;
use crate::profile::{run_profile, ProfileConfig};
use crate::warroom::{CampaignEvent, Dashboard};

/// Parsed campaign options (the subcommand-free command line).
#[derive(Debug, Clone)]
struct RedteamOpts {
    /// Campaign configuration.
    campaign: CampaignConfig,
    /// Run-cache directory the fixed matrix and the attacker cells read
    /// through.
    cache_dir: Option<String>,
    /// JSON output path.
    out: String,
    /// Optional CSV output path.
    csv: Option<String>,
    /// `--attacker` knowledge levels, deduplicated in flag order. Empty
    /// means the flag was absent.
    attacker: Vec<AttackerKnowledge>,
}

/// Default tracker set: DAPPER plus the four attackable shared-structure
/// baselines.
const DEFAULT_TRACKERS: &str = "dapper-h,dapper-s,hydra,start,comet,abacus";

const USAGE: &str = "redteam — adversarial scenario campaign runner

USAGE: redteam [--trackers a,b,c] [--workload NAME] [--budget N]
               [--window-us F] [--nrh N] [--seed N] [--out FILE] [--csv FILE]
               [--cache-dir DIR] [--attacker LEVELS]

  --trackers   comma-separated tracker list (default dapper-h,dapper-s,hydra,start,comet,abacus)
  --workload   benign co-running workload (default libquantum_like)
  --budget     search evaluations per tracker, 0 = fixed matrix only (default 50)
  --window-us  simulated window per evaluation in microseconds (default 250)
  --nrh        RowHammer threshold (default 500)
  --seed       seed for simulation and search, decimal or 0x hex (default 0xDA99E5)
  --out        JSON results path (default out/redteam_results.json)
  --csv        also write rows as CSV to this path
  --cache-dir  read the fixed matrix, and the --attacker cells, through
               the content-addressed cache in DIR (search evaluations
               always simulate)
  --attacker   also run the attacker pipeline's knowledge axis: comma-separated
               levels (omniscient, timing-recon, blind) or 'all'; adds
               one flips-vs-slowdown row per tracker and level

Tracker names resolve through the tracker table: any key, display name,
or alias works, case- and separator-insensitively (dapper-h, DAPPER_H,
DapperH). Parent directories of --out/--csv are created as needed.

The campaign stages are subcommands:
redteam profile | evaluate | attack (see each --help), and
redteam warroom previews their dashboard.
";

const STAGES_USAGE: &str = "redteam stages — profile → evaluate → attack campaign stages

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
frames); `redteam warroom --render-once` previews it without a campaign.
";

const WARROOM_USAGE: &str = "redteam warroom — the campaign stages' dashboard

USAGE: redteam warroom --render-once [--no-ansi]

  --render-once  print one deterministic synthetic frame and exit
  --no-ansi      plain text, no clear-screen/cursor-home escapes

Live rendering is driven by the campaign stages:
  redteam profile --tui | redteam evaluate --tui | redteam attack --tui
";

// ---------------------------------------------------------------- shared

/// Writes `content` to `path`, creating parent directories first:
/// artifacts live under a dedicated output directory (the default is
/// `out/`), never the repo root.
fn write_artifact(path: &str, content: &str) -> Result<(), String> {
    let write = || {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, content)
    };
    write().map_err(|e: std::io::Error| format!("cannot write {path}: {e}"))
}

/// Opens the run cache in `dir`, once, at a command's entry: a directory
/// that cannot be opened is an error naming it, never a silent uncached
/// run.
fn open_cache(dir: Option<&str>) -> Result<Option<RunCache>, String> {
    dir.map(|dir| RunCache::open(dir).map_err(|e| format!("cannot open cache dir {dir}: {e}")))
        .transpose()
}

fn known_workload(parsed: &Parsed<'_>, default: &'static str) -> Result<String, String> {
    let workload = parsed.get("--workload").map(String::as_str).unwrap_or(default);
    if workloads::spec_by_name(workload).is_none() {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(workload.to_string())
}

/// A comma-separated flag value, each name parsed by `item` (`all`
/// tokens expand to several values), deduplicated in listing order.
fn comma_list<T: PartialEq>(
    list: &str,
    item: impl Fn(&str) -> Result<Vec<T>, String>,
) -> Result<Vec<T>, String> {
    let mut values = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        for value in item(name)? {
            if !values.contains(&value) {
                values.push(value);
            }
        }
    }
    Ok(values)
}

// -------------------------------------------------------------- campaign

/// Parses the campaign command line. Returns `Err` with a usage/diagnostic
/// string on bad input (the caller prints it and sets the exit code).
fn parse_args(args: &[String]) -> Result<RedteamOpts, String> {
    // Strict parse: every argument must be a known flag followed by its
    // value, so a typo'd flag or a forgotten value fails fast instead of
    // silently running a multi-minute campaign with defaults.
    let parsed = parse(
        args,
        &[
            "--trackers",
            "--workload",
            "--budget",
            "--window-us",
            "--nrh",
            "--seed",
            "--out",
            "--csv",
            "--cache-dir",
            "--attacker",
        ],
        &[],
        USAGE,
    )?;
    let tracker_list = parsed.get("--trackers").map(String::as_str).unwrap_or(DEFAULT_TRACKERS);
    // One lookup path for every spelling and alias: the registry.
    let trackers = comma_list(tracker_list, |name| {
        Ok(vec![TrackerSel::by_key(name).map_err(|e| e.to_string())?])
    })?;
    if trackers.is_empty() {
        return Err("no trackers selected".to_string());
    }
    let mut campaign = CampaignConfig::new(trackers, &known_workload(&parsed, "libquantum_like")?);
    campaign.search_budget = parsed.int("--budget", campaign.search_budget)?;
    campaign.arena.window_us = parsed.positive_us("--window-us", campaign.arena.window_us)?;
    campaign.arena.nrh = parsed.nrh(campaign.arena.nrh)?;
    campaign.arena.seed = parsed.seed(campaign.arena.seed)?;
    let mut attacker = Vec::new();
    if let Some(levels) = parsed.get("--attacker") {
        attacker = comma_list(levels, |name| match name.eq_ignore_ascii_case("all") {
            true => Ok(AttackerKnowledge::ALL.to_vec()),
            false => Ok(vec![AttackerKnowledge::by_key(name)?]),
        })
        .map_err(|m| format!("--attacker: {m}"))?;
        if attacker.is_empty() {
            return Err("--attacker: no knowledge levels named (try 'all')".to_string());
        }
    }
    Ok(RedteamOpts {
        campaign,
        cache_dir: parsed.get("--cache-dir").cloned(),
        out: parsed.get("--out").cloned().unwrap_or_else(|| "out/redteam_results.json".to_string()),
        csv: parsed.get("--csv").cloned(),
        attacker,
    })
}

/// Prints the campaign header, leaderboard, and search-vs-tailored
/// comparison to stdout.
fn print_report(report: &CampaignReport) {
    let cfg = &report.config;
    println!("==== redteam: adversarial scenario campaign ====");
    println!(
        "workload: {} | window: {} us | N_RH: {} | seed: {:#x} | search budget: {}/tracker",
        cfg.arena.workload, cfg.arena.window_us, cfg.arena.nrh, cfg.arena.seed, cfg.search_budget
    );
    println!();
    println!("resilience leaderboard (worst case found per tracker, best defense first):");
    print!("{}", report.leaderboard_table());
    if !report.searches.is_empty() {
        println!();
        println!("search vs. the paper's tailored attacks:");
        for s in &report.searches {
            let verdict = if s.slack() > 1e-9 { "beats tailored" } else { "matches tailored" };
            println!(
                "  {:<13} best {:>7.3}x ({}) vs tailored {:>7.3}x ({}) -> {} | reproduce: --seed {} ({} evals)",
                s.tracker,
                s.best.slowdown,
                s.best.name,
                s.tailored.slowdown,
                s.tailored.name,
                verdict,
                s.seed,
                s.evaluations,
            );
        }
    }
}

/// The campaign: with `--attacker`, every tracker additionally runs the
/// pipeline once per knowledge level, and those rows (origin
/// `"attacker"`, scenario `attackpipe:<level>`) join the exports.
fn cmd_campaign(args: &[String]) -> Result<i32, String> {
    let opts = parse_args(args)?;
    let cache = open_cache(opts.cache_dir.as_deref())?;
    let mut report = run_campaign(&opts.campaign, cache.as_ref());
    let axis = (!opts.attacker.is_empty())
        .then(|| attacker_axis(&mut report, &opts.attacker, cache.as_ref()));
    print_report(&report);
    if let Some(axis) = &axis {
        println!("\nattacker-knowledge axis (flips vs slowdown per level):");
        print!("{}", axis.leaderboard_table());
        println!(
            "  attacker cache: {} hits, {} misses ({} cells)",
            axis.hits, axis.misses, axis.cells
        );
    }
    write_artifact(&opts.out, &report.to_json().render())?;
    println!("\nresults written to {}", opts.out);
    if let Some(csv_path) = &opts.csv {
        write_artifact(csv_path, &report.to_csv())?;
        println!("rows written to {csv_path}");
    }
    Ok(0)
}

// ---------------------------------------------------------------- stages

fn parse_families(list: &str) -> Result<Vec<Family>, String> {
    let names = list.split(',').map(str::trim).filter(|s| !s.is_empty());
    match Family::parse_list(names) {
        Ok(families) if families.is_empty() => Err("no families named (try 'all')".to_string()),
        families => families,
    }
    .map_err(|e| format!("--families: {e}"))
}

fn load_heatmap(parsed: &Parsed<'_>) -> Result<SensitivityHeatmap, String> {
    let path = parsed.get("--heatmap").ok_or("--heatmap FILE is required (try --help)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    SensitivityHeatmap::decode(&json).map_err(|e| format!("{path}: {e}"))
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
        STAGES_USAGE,
    )?;
    let tracker_key = parsed.get("--tracker").map(String::as_str).unwrap_or("hydra");
    let tracker = TrackerSel::by_key(tracker_key).map_err(|e| e.to_string())?;
    let mut cfg = ProfileConfig::new(tracker, &known_workload(&parsed, "povray_like")?);
    cfg.arena.window_us = parsed.positive_us("--probe-window-us", cfg.arena.window_us)?;
    cfg.arena.nrh = parsed.nrh(cfg.arena.nrh)?;
    cfg.arena.seed = parsed.seed(cfg.arena.seed)?;
    cfg.bank_groups = parsed.int("--bank-groups", cfg.bank_groups)?;
    cfg.row_groups = parsed.int("--row-groups", cfg.row_groups)?;
    if cfg.bank_groups == 0 || cfg.row_groups == 0 {
        return Err("--bank-groups and --row-groups must be positive".to_string());
    }
    if let Some(list) = parsed.get("--families") {
        cfg.families = parse_families(list)?;
    }
    let cache = open_cache(parsed.get("--cache-dir").map(String::as_str))?;
    let mut tui = TuiObserver::new(&parsed);
    let (map, stats) = run_profile(&cfg, cache.as_ref(), &mut |e| tui.handle(e));
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
        STAGES_USAGE,
    )?;
    let map = load_heatmap(&parsed)?;
    let mut cfg = EvaluateConfig::for_heatmap(&map)?;
    cfg.top_k = parsed.int("--top-k", cfg.top_k)?;
    cfg.arena.window_us = parsed.positive_us("--window-us", cfg.arena.window_us)?;
    if cfg.top_k == 0 {
        return Err("--top-k must be positive".to_string());
    }
    let cache = open_cache(parsed.get("--cache-dir").map(String::as_str))?;
    let mut tui = TuiObserver::new(&parsed);
    let (report, stats) = run_evaluate(&map, &cfg, cache.as_ref(), &mut |e| tui.handle(e));
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
        STAGES_USAGE,
    )?;
    let map = load_heatmap(&parsed)?;
    let mut cfg = AttackConfig::for_heatmap(&map)?;
    let search = &mut cfg.search;
    search.budget = parsed.int("--budget", search.budget)?;
    search.batch = parsed.int("--batch", search.batch)?;
    search.arena.window_us = parsed.positive_us("--window-us", search.arena.window_us)?;
    search.arena.seed = parsed.seed(search.arena.seed)?;
    if search.budget == 0 || search.batch == 0 {
        return Err("--budget and --batch must be positive".to_string());
    }
    cfg.priors = parsed.int("--priors", cfg.priors)?;
    let baseline = parsed.has("--baseline");
    let max_ratio = match parsed.get("--max-ratio") {
        None => None,
        Some(_) if !baseline => return Err("--max-ratio requires --baseline".to_string()),
        Some(_) => Some(parsed.num("--max-ratio", 0.0)?),
    };
    let mut tui = TuiObserver::new(&parsed);
    let outcome = run_attack(&map, &cfg, baseline, &mut |e| tui.handle(e));
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
        write_artifact(out, &outcome.to_json().render())?;
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

fn cmd_warroom(args: &[String]) -> Result<i32, String> {
    let switches = parse(args, &[], &["--render-once", "--no-ansi"], WARROOM_USAGE);
    match switches {
        Ok(p) if p.has("--render-once") => {
            print!("{}", Dashboard::render_once_sample(!p.has("--no-ansi")));
            Ok(0)
        }
        _ => Err(WARROOM_USAGE.to_string()),
    }
}

// -------------------------------------------------------------- dispatch

/// Runs one command line: a leading `profile` / `evaluate` / `attack` /
/// `warroom` runs that subcommand; anything else is the campaign.
fn dispatch(args: &[String]) -> Result<i32, String> {
    let (stage, rest) = match args.split_first() {
        Some((first, rest)) => (first.as_str(), rest),
        None => ("", args),
    };
    match stage {
        "profile" => cmd_profile(rest),
        "evaluate" => cmd_evaluate(rest),
        "attack" => cmd_attack(rest),
        "warroom" => cmd_warroom(rest),
        _ => cmd_campaign(args),
    }
}

/// The `redteam` binary's entry point; returns the process exit code. A
/// bad command line, a cache directory that cannot be opened or an
/// unwritable artifact prints one diagnostic and exits 2.
pub fn redteam_main(args: &[String]) -> i32 {
    dispatch(args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_acceptance_command_line() {
        let opts =
            parse_args(&argv("--trackers dapper-h,hydra,comet --budget 50")).expect("parses");
        let keys: Vec<&str> = opts.campaign.trackers.iter().map(|t| t.key()).collect();
        assert_eq!(keys, vec!["dapper-h", "hydra", "comet"]);
        assert_eq!(opts.campaign.search_budget, 50);
        assert_eq!(opts.out, "out/redteam_results.json");
        assert_eq!(opts.campaign.arena.workload, "libquantum_like");
    }

    #[test]
    fn rejects_unknown_trackers_and_workloads() {
        let err = parse_args(&argv("--trackers nonsense")).expect_err("unknown tracker");
        assert!(err.contains("unknown tracker 'nonsense'"), "{err}");
        assert!(err.contains("dapper-h"), "error must list known keys: {err}");
        assert!(parse_args(&argv("--workload nonsense")).is_err());
        assert!(parse_args(&argv("--help")).is_err());
    }

    #[test]
    fn rejects_typoed_flags_and_missing_values() {
        let err = parse_args(&argv("--buget 200")).expect_err("typo must not run with defaults");
        assert!(err.contains("--buget"), "{err}");
        let err = parse_args(&argv("--trackers")).expect_err("flag without value");
        assert!(err.contains("requires a value"), "{err}");
        let err = parse_args(&argv("--budget 5 extra")).expect_err("stray positional");
        assert!(err.contains("extra"), "{err}");
    }

    #[test]
    fn integer_flags_are_range_checked_on_every_subcommand() {
        // Each of these used to run: integers were read as f64 and cast,
        // so -7 became N_RH 0, 2.9 became 2 groups and 1e12 saturated.
        for (bad, flag) in [
            ("--nrh -7", "--nrh"),
            ("--nrh 0", "--nrh"),
            ("--budget 1e12", "--budget"),
            ("--budget 4294967296", "--budget"),
        ] {
            let err = parse_args(&argv(bad)).expect_err(bad);
            assert!(err.contains(flag), "{bad}: {err}");
        }
        for bad in [
            "profile --nrh -7",
            "profile --nrh 0",
            "profile --bank-groups 2.9",
            "profile --row-groups -1",
        ] {
            assert_eq!(redteam_main(&argv(bad)), 2, "{bad}");
        }
        assert_eq!(parse_args(&argv("--nrh 125")).expect("parses").campaign.arena.nrh, 125);
    }

    #[test]
    fn last_occurrence_of_a_repeated_flag_wins() {
        let opts = parse_args(&argv("--budget 5 --budget 9")).expect("parses");
        assert_eq!(opts.campaign.search_budget, 9);
    }

    #[test]
    fn attacker_axis_parses_levels_and_the_all_token() {
        let opts = parse_args(&argv("--attacker all")).expect("parses");
        assert_eq!(opts.attacker, AttackerKnowledge::ALL.to_vec());
        // Spelling-insensitive per-level names, deduplicated in order.
        let opts = parse_args(&argv("--attacker timing_recon,BLIND,timing-recon")).expect("parses");
        assert_eq!(opts.attacker, vec![AttackerKnowledge::TimingRecon, AttackerKnowledge::Blind]);
        assert!(parse_args(&argv("--attacker nonsense")).is_err());
        assert!(parse_args(&argv("--attacker ,")).is_err(), "empty level list");
        // Absent flag: empty axis, the plain campaign path.
        assert!(parse_args(&[]).expect("defaults").attacker.is_empty());
    }

    #[test]
    fn defaults_cover_the_shared_structure_baselines() {
        let opts = parse_args(&[]).expect("defaults parse");
        assert_eq!(opts.campaign.trackers.len(), 6);
        // Aliases and variant spellings dedupe through the registry.
        let opts2 = parse_args(&argv("--trackers dapper,DAPPER_H,dapper-h")).expect("parses");
        assert_eq!(opts2.campaign.trackers.len(), 1);
        assert_eq!(opts2.campaign.trackers[0].key(), "dapper-h");
        assert_eq!(opts.campaign.arena.window_us, 250.0);
        assert!(opts.csv.is_none());
    }

    #[test]
    fn rejects_unknown_flags_subcommands_and_bad_values() {
        assert_eq!(redteam_main(&argv("profile --buget 5")), 2);
        assert_eq!(redteam_main(&argv("nonsense")), 2);
        assert_eq!(redteam_main(&argv("profile --tracker")), 2);
        assert_eq!(redteam_main(&argv("attack --max-ratio 0.6")), 2, "needs --heatmap");
        assert_eq!(redteam_main(&argv("evaluate --top-k 3")), 2, "needs --heatmap");
        // A zero, negative, NaN or infinite window used to run (an
        // infinite one never returned); each is refused naming its flag.
        for bad in ["0", "-5", "nan", "inf"] {
            let err = parse_args(&argv(&format!("--window-us {bad}"))).expect_err(bad);
            assert!(err.starts_with("--window-us: must be a positive"), "{bad}: {err}");
            let err = dispatch(&argv(&format!("profile --probe-window-us {bad}"))).expect_err(bad);
            assert!(err.starts_with("--probe-window-us: must be a positive"), "{bad}: {err}");
        }
    }

    #[test]
    fn warroom_is_a_strict_subcommand() {
        assert_eq!(redteam_main(&argv("warroom --render-once --no-ansi")), 0);
        for bad in ["warroom", "warroom --no-ansi", "warroom --render-once --bogus"] {
            let err = dispatch(&argv(bad)).expect_err(bad);
            assert_eq!(err, WARROOM_USAGE, "{bad}");
            assert_eq!(redteam_main(&argv(bad)), 2, "{bad}");
        }
    }

    #[test]
    fn a_cache_dir_that_cannot_be_opened_fails_every_command() {
        // A regular file where the cache directory should be: the campaign
        // and its attacker axis used to warn and run uncached (exit 0)
        // while the stages exited 2 without naming the directory.
        let dir = std::env::temp_dir().join(format!("redteam-bad-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("not-a-dir");
        std::fs::write(&file, "").unwrap();
        let heatmap = dir.join("heatmap.json");
        std::fs::write(&heatmap, SensitivityHeatmap::synthetic().encode().render()).unwrap();
        let (file, heatmap) = (file.display(), heatmap.display());
        for cmd in [
            format!("--trackers hydra --budget 0 --window-us 20 --cache-dir {file}"),
            format!("--trackers hydra --budget 0 --attacker blind --cache-dir {file}"),
            format!(
                "profile --probe-window-us 20 --bank-groups 1 --row-groups 1 --cache-dir {file}"
            ),
            format!("evaluate --heatmap {heatmap} --top-k 1 --cache-dir {file}"),
        ] {
            let err = dispatch(&argv(&cmd)).expect_err(&cmd);
            assert!(err.starts_with(&format!("cannot open cache dir {file}: ")), "{cmd}: {err}");
            assert_eq!(redteam_main(&argv(&cmd)), 2, "{cmd}");
        }
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!("redteam-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let heatmap = dir.join("heatmap.json");
        let heatmap = heatmap.to_str().expect("utf-8 temp path");
        let code = redteam_main(&argv(&format!(
            "profile --tracker hydra --workload povray_like --probe-window-us 25 \
             --bank-groups 2 --row-groups 2 --families hammer --out {heatmap}"
        )));
        assert_eq!(code, 0);
        let text = std::fs::read_to_string(heatmap).expect("heatmap artifact");
        let map = SensitivityHeatmap::decode(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(map.cells.len(), 4);
        let code = redteam_main(&argv(&format!(
            "attack --heatmap {heatmap} --budget 8 --batch 4 --window-us 60 --priors 2"
        )));
        assert_eq!(code, 0);
        // The later stages refuse a NaN window, and range-check their
        // integer flags too.
        for stage in ["evaluate", "attack"] {
            let cmd = format!("{stage} --heatmap {heatmap} --window-us nan");
            let err = dispatch(&argv(&cmd)).expect_err(&cmd);
            assert!(err.starts_with("--window-us: must be a positive"), "{cmd}: {err}");
        }
        assert_eq!(redteam_main(&argv(&format!("evaluate --heatmap {heatmap} --top-k 1.5"))), 2);
        assert_eq!(redteam_main(&argv(&format!("attack --heatmap {heatmap} --batch 1e3"))), 2);
        assert_eq!(redteam_main(&argv(&format!("attack --heatmap {heatmap} --priors -2"))), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

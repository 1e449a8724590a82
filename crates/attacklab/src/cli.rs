//! The `redteam` command-line campaign driver.
//!
//! ```text
//! cargo run --release --bin redteam -- --trackers dapper-h,hydra,comet --budget 50
//! ```
//!
//! Runs the fixed attack matrix plus the worst-case search for every named
//! tracker, prints the resilience leaderboard and the search-vs-tailored
//! comparison (with the seed reproducing each best scenario), and writes
//! the full structured results as JSON (and optionally CSV).

use crate::campaign::{run_campaign, CampaignConfig, CampaignReport};
use sim::experiment::TrackerSel;
use sim::AttackerKnowledge;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct RedteamOpts {
    /// Campaign configuration.
    pub campaign: CampaignConfig,
    /// JSON output path.
    pub out: String,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// `--attacker` knowledge levels, deduplicated in flag order. Empty
    /// means the flag was absent; non-empty requires the attackpipe
    /// `redteam` binary (this crate only parses the axis — the pipeline
    /// lives upstack, so the dependency arrow stays acyclic).
    pub attacker: Vec<AttackerKnowledge>,
}

/// Default tracker set: DAPPER plus the four attackable shared-structure
/// baselines.
pub const DEFAULT_TRACKERS: &str = "dapper-h,dapper-s,hydra,start,comet,abacus";

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
  --cache-dir  read the fixed matrix through the content-addressed run
               cache in DIR (search evaluations always simulate)
  --attacker   also run the attackpipe knowledge axis: comma-separated
               levels (omniscient, timing-recon, blind) or 'all'; adds
               one flips-vs-slowdown row per tracker and level

Tracker names resolve through the open registry: any key, display name,
or alias works, case- and separator-insensitively (dapper-h, DAPPER_H,
DapperH). Parent directories of --out/--csv are created as needed.

The attackpipe redteam binary also accepts the profiler's campaign
subcommands: redteam profile | evaluate | attack (see each --help).
";

/// Parses CLI arguments. Returns `Err` with a usage/diagnostic string on
/// bad input (the caller prints it and sets the exit code).
pub fn parse_args(args: &[String]) -> Result<RedteamOpts, String> {
    // Strict parse: every argument must be a known flag followed by its
    // value, so a typo'd flag or a forgotten value fails fast instead of
    // silently running a multi-minute campaign with defaults.
    let parsed = sim_core::cli::parse(
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
    let mut trackers: Vec<TrackerSel> = Vec::new();
    for name in tracker_list.split(',').filter(|s| !s.is_empty()) {
        // One lookup path for every spelling and alias: the registry.
        let t = TrackerSel::by_key(name).map_err(|e| e.to_string())?;
        if !trackers.contains(&t) {
            trackers.push(t);
        }
    }
    if trackers.is_empty() {
        return Err("no trackers selected".to_string());
    }
    let workload = parsed.get("--workload").map(String::as_str).unwrap_or("libquantum_like");
    if workloads::spec_by_name(workload).is_none() {
        return Err(format!("unknown workload '{workload}'"));
    }
    let mut campaign = CampaignConfig::new(trackers, workload);
    campaign.search_budget = parsed.num("--budget", 50.0)? as u32;
    campaign.window_us = parsed.num("--window-us", 250.0)?;
    campaign.nrh = parsed.num("--nrh", 500.0)? as u32;
    campaign.seed = parsed.seed(0xDA99E5)?;
    campaign.cache_dir = parsed.get("--cache-dir").cloned();
    let mut attacker: Vec<AttackerKnowledge> = Vec::new();
    if let Some(levels) = parsed.get("--attacker") {
        for name in levels.split(',').filter(|s| !s.is_empty()) {
            if name.trim().eq_ignore_ascii_case("all") {
                for level in AttackerKnowledge::ALL {
                    if !attacker.contains(&level) {
                        attacker.push(level);
                    }
                }
                continue;
            }
            let level = AttackerKnowledge::by_key(name).map_err(|m| format!("--attacker: {m}"))?;
            if !attacker.contains(&level) {
                attacker.push(level);
            }
        }
        if attacker.is_empty() {
            return Err("--attacker: no knowledge levels named (try 'all')".to_string());
        }
    }
    Ok(RedteamOpts {
        campaign,
        out: parsed.get("--out").cloned().unwrap_or_else(|| "out/redteam_results.json".to_string()),
        csv: parsed.get("--csv").cloned(),
        attacker,
    })
}

/// Writes `content` to `path`, creating parent directories first.
fn write_artifact(path: &str, content: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, content)
}

/// Prints the campaign header, leaderboard, and search-vs-tailored
/// comparison to stdout (shared with the attackpipe `redteam` driver,
/// which appends its attacker-axis section after this).
pub fn print_report(report: &CampaignReport) {
    let cfg = &report.config;
    println!("==== redteam: adversarial scenario campaign ====");
    println!(
        "workload: {} | window: {} us | N_RH: {} | seed: {:#x} | search budget: {}/tracker",
        cfg.workload, cfg.window_us, cfg.nrh, cfg.seed, cfg.search_budget
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

/// Full CLI entry point; returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if !opts.attacker.is_empty() {
        // The pipeline lives in the attackpipe crate (which depends on
        // this one); its redteam binary handles the flag.
        eprintln!(
            "--attacker needs the attackpipe pipeline: \
             run `cargo run --release -p attackpipe --bin redteam` instead"
        );
        return 2;
    }
    let report = run_campaign(&opts.campaign);
    print_report(&report);
    let json = report.to_json().render();
    // Campaign artifacts live under a dedicated output directory (the
    // default is out/), never the repo root.
    if let Err(e) = write_artifact(&opts.out, &json) {
        eprintln!("cannot write {}: {e}", opts.out);
        return 1;
    }
    println!("\nresults written to {}", opts.out);
    if let Some(csv_path) = &opts.csv {
        if let Err(e) = write_artifact(csv_path, &report.to_csv()) {
            eprintln!("cannot write {csv_path}: {e}");
            return 1;
        }
        println!("rows written to {csv_path}");
    }
    0
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
        assert_eq!(opts.campaign.workload, "libquantum_like");
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
        assert_eq!(opts.campaign.window_us, 250.0);
        assert!(opts.csv.is_none());
    }
}

//! `spec_run` — run (or just validate) declarative experiment specs.
//!
//! ```text
//! cargo run --release --bin spec_run -- examples/specs/fig09_quick.toml
//! cargo run --release --bin spec_run -- --validate examples/specs/*.toml
//! ```
//!
//! Each spec file is a TOML [`sim::SweepSpec`] (see `examples/specs/` for
//! commented examples): it names trackers by registry key with per-tracker
//! parameter overrides, expands into the point × workload × series cross
//! product (a plain spec's series are its trackers × attacks; a paper
//! figure's are `[[series]]` tables, its points an `nrh` or
//! `llc_mib_per_core` list), runs the cells in parallel, and writes the
//! results as JSON under `out/` (or `--out DIR`). The banner counts each
//! axis: `… expands to 54 experiments (9 workloads x 2 series x 3 N_RH
//! values)`.
//!
//! `--validate` parses and expands every spec — registry keys, parameter
//! schemas, workload and attack names all checked — without running any
//! simulation; CI uses it to keep the example specs honest.
//!
//! With `--cache-dir DIR` (or a `[cache]` section in the spec), cells are
//! read through the content-addressed run cache: a warm re-run of an
//! unchanged spec performs zero simulations and reproduces the cold
//! run's report byte-identically, and an edited spec re-runs only the
//! changed frontier.
//!
//! Specs with an `[attacker]` section run the attacker pipeline (recon →
//! hammer → victim) instead of the plain sweep, caching per-cell verdicts
//! under the same directory. Specs with a `[profile]` section run the
//! profile → evaluate → attack workflow per tracker × workload cell,
//! writing heatmap/report/attack artifacts to the output directory. Both
//! go through one call, `redteam::run_spec`.
//!
//! A cache directory is opened once per spec, before the first spec runs:
//! one that cannot be opened exits 2 naming it, whatever the spec's route.

use sim::cache::RunCache;
use sim::journal::SweepJournal;
use sim::runner::RunnerConfig;
use sim::spec::{result_to_json, SweepSpec};

const USAGE: &str = "spec_run — declarative experiment sweeps

USAGE: spec_run [--validate] [--out DIR] [--cache-dir DIR | --no-cache] SPEC.toml [...]

  --validate       parse + expand every spec (no simulation)
  --out DIR        output directory for <spec-name>.json results (default out/)
  --cache-dir DIR  read/write the content-addressed run cache in DIR
                   (overrides any [cache] section in the specs)
  --no-cache       ignore [cache] sections; always simulate
  --resume         journal each sweep's start and end in the cache dir
                   and, on a re-run after an interruption, re-execute
                   only the cells the cache lacks (requires a cache dir)

--resume applies to plain sweeps only: a spec with an [attacker] or
[profile] section is refused with it.
";

fn run() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(USAGE.to_string());
    }
    let mut validate = false;
    let mut out_dir = "out".to_string();
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;
    let mut resume = false;
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--validate" => validate = true,
            "--resume" => resume = true,
            "--out" => {
                out_dir = args.get(i + 1).ok_or("--out requires a value")?.clone();
                i += 1;
            }
            "--cache-dir" => {
                cache_dir = Some(args.get(i + 1).ok_or("--cache-dir requires a value")?.clone());
                i += 1;
            }
            "--no-cache" => no_cache = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown argument '{flag}' (try --help)"));
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    if files.is_empty() {
        return Err("no spec files given (try --help)".to_string());
    }
    if no_cache && cache_dir.is_some() {
        return Err("--no-cache and --cache-dir are mutually exclusive".to_string());
    }
    if resume && no_cache {
        return Err("--resume needs a cache dir (it keeps its journal there)".to_string());
    }

    // Every file is read, expanded and checked against the flags before the
    // first one runs: a bad second spec must not cost the first's simulations.
    let mut loaded = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let spec = SweepSpec::from_toml_str(&text).map_err(|e| format!("{file}: {e}"))?;
        // The one expansion of a plain sweep: it validates the spec, sizes
        // the banner, and is what runs below.
        let cells = spec.expand_keyed().map_err(|e| format!("{file}: {e}"))?;
        // The red-team drivers take no journal: refuse the flag rather
        // than drop it.
        let section = [("attacker", spec.attacker.is_some()), ("profile", spec.profile.is_some())]
            .into_iter()
            .find_map(|(section, set)| set.then_some(section));
        if let (Some(section), true) = (section, resume) {
            return Err(format!(
                "{file}: --resume does not apply to a spec with an [{section}] section"
            ));
        }
        // CLI flag > spec [cache] section > no cache.
        let effective_cache_dir = match (&cache_dir, no_cache) {
            (Some(dir), _) => Some(dir.clone()),
            (None, true) => None,
            (None, false) => spec.cache.as_ref().and_then(|c| c.dir.clone()),
        };
        if resume && effective_cache_dir.is_none() {
            return Err(format!("{file}: --resume needs --cache-dir or a [cache] section"));
        }
        let cache = match &effective_cache_dir {
            Some(dir) if !validate => {
                Some(RunCache::open(dir).map_err(|e| format!("cannot open cache dir {dir}: {e}"))?)
            }
            _ => None,
        };
        loaded.push((file, spec, cells, effective_cache_dir, cache));
    }

    let mut failed_cells = 0usize;
    for (file, spec, cells, effective_cache_dir, cache) in loaded {
        // The `[attacker]` section's knowledge levels are the innermost axis.
        let levels: std::collections::BTreeSet<&str> =
            cells.iter().filter_map(|(e, _)| Some(e.attacker?.knowledge.key())).collect();
        let attacker_axis = match levels.len() {
            0 => String::new(),
            n => format!(" x {n} attacker knowledge levels"),
        };
        // Point axes with more than one point: N_RH values, LLC sizes.
        let axis = |points: usize, what: &str| match points {
            0 | 1 => String::new(),
            n => format!(" x {n} {what}"),
        };
        let llc_sizes = spec.system.as_ref().map_or(0, |s| s.llc_mib_per_core.len());
        println!(
            "{file}: spec '{}' expands to {} experiments ({} workloads x {} series{}{}{attacker_axis})",
            spec.name,
            cells.len(),
            sim::spec::expand_workloads(&spec.workloads).map(|w| w.len()).unwrap_or(0),
            spec.expanded_series().len(),
            axis(spec.options.nrh.len(), "N_RH values"),
            axis(llc_sizes, "LLC sizes"),
        );
        if validate {
            continue;
        }
        // Specs with a `[profile]` or `[attacker]` section run the red-team
        // workflow or pipeline, with their own artifact layout: their cells
        // need what the plain sweep runner cannot provide.
        if spec.profile.is_some() || spec.attacker.is_some() {
            failed_cells += redteam::run_spec(&spec, cache.as_ref(), &out_dir)
                .map_err(|e| format!("{file}: {e}"))?;
            continue;
        }
        let dir = effective_cache_dir.as_deref();
        // `--resume` without a cache dir was refused above.
        let journal = dir
            .filter(|_| resume)
            .map(|dir| {
                SweepJournal::in_cache_dir(dir)
                    .map_err(|e| format!("cannot open journal in {dir}: {e}"))
            })
            .transpose()?;
        let (report, summary) =
            spec.run_expanded(cells, cache.as_ref(), journal.as_ref(), &RunnerConfig::default());
        if let Some(dir) = dir {
            println!("  cache: {summary} in {dir}");
        }
        for r in &report.results {
            println!(
                "  {:<22} {:<13} {:<14} {:.3}",
                r.workload, r.tracker_name, r.attack_name, r.normalized_performance
            );
        }
        for f in &report.failures {
            eprintln!("  cell {} ({}) FAILED: {}", f.index, f.cell, f.message);
        }
        failed_cells += report.failures.len();
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
        let out_path = format!("{out_dir}/{}.json", report.name);
        std::fs::write(&out_path, report.render())
            .map_err(|e| format!("cannot write {out_path}: {e}"))?;
        println!("  results written to {out_path}");
        // Per-window telemetry (when the spec's `[telemetry]` section
        // attached recorders) lands in its own file beside the results.
        if let Some(telemetry) = report.telemetry_json() {
            let stem = spec
                .telemetry
                .as_ref()
                .and_then(|t| t.out.clone())
                .unwrap_or_else(|| report.name.clone());
            let t_path = format!("{out_dir}/{stem}_telemetry.json");
            std::fs::write(&t_path, telemetry.render())
                .map_err(|e| format!("cannot write {t_path}: {e}"))?;
            println!("  telemetry written to {t_path}");
        }
        // Sanity: the export is parseable JSON row-for-row.
        debug_assert!(report.results.iter().all(|r| !result_to_json(r).render().is_empty()));
    }
    if failed_cells > 0 {
        eprintln!("{failed_cells} cell(s) failed");
        return Ok(1);
    }
    Ok(0)
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

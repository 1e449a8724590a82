//! Shared plumbing for the figure/table harness binaries.
//!
//! Every binary accepts:
//!
//! * `--window-us <f64>` — simulation window per run (default 4000 µs),
//! * `--full` — all 57 workloads instead of the 9-workload quick subset,
//! * `--seed <u64>` — RNG seed,
//! * `--nrh <u32>` — RowHammer threshold where applicable (default 500),
//! * `--sweep-points <usize>` — N_RH sweep points (default 6).
//!
//! The command line is parsed strictly ([`sim_core::cli`]): a typo'd flag or
//! an unparsable value exits 2 naming it, before anything is simulated.
//!
//! Output is plain text: one table per figure with the same rows/series the
//! paper reports, ready to diff against EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sim::experiment::{Experiment, ExperimentResult};
use sim::runner::run_parallel;
use workloads::catalog::{catalog, quick_subset, WorkloadSpec};

/// Command-line options shared by all harness binaries.
#[derive(Debug, Clone, Copy)]
pub struct BenchOpts {
    /// Simulation window per run, microseconds.
    pub window_us: f64,
    /// Run all 57 workloads.
    pub full: bool,
    /// RNG seed.
    pub seed: u64,
    /// Default RowHammer threshold.
    pub nrh: u32,
    /// Number of N_RH sweep points (6 = the paper's full sweep; 3 keeps
    /// the endpoints and the default threshold for quick runs).
    pub sweep_points: usize,
}

const USAGE: &str = "figure/table harness options:
  --window-us F     simulation window per run in microseconds (default 4000)
  --full            all 57 workloads instead of the 9-workload quick subset
  --seed N          RNG seed, decimal or 0x hex (default 0xDA99E5)
  --nrh N           RowHammer threshold where applicable (default 500)
  --sweep-points N  N_RH sweep points: 6 = the paper's sweep, fewer = 3 (default 6)
";

impl BenchOpts {
    /// Parses `std::env::args`; a bad command line prints the diagnostic
    /// (or `--help`'s usage) and exits 2 before anything is simulated.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    }

    /// Strictly parses `args` (the command line without the program name):
    /// unknown flags, missing values and unparsable numbers are errors.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let parsed = sim_core::cli::parse(
            args,
            &["--window-us", "--seed", "--nrh", "--sweep-points"],
            &["--full"],
            USAGE,
        )?;
        let d = Self::default();
        Ok(Self {
            window_us: parsed.num("--window-us", d.window_us)?,
            full: parsed.has("--full"),
            seed: parsed.seed(d.seed)?,
            nrh: parsed.nrh(d.nrh)?,
            sweep_points: parsed.int("--sweep-points", d.sweep_points)?,
        })
    }

    /// The N_RH values swept by the sensitivity figures.
    pub fn nrh_sweep(&self) -> Vec<u32> {
        if self.sweep_points >= 6 {
            vec![125, 250, 500, 1000, 2000, 4000]
        } else {
            vec![125, 500, 2000]
        }
    }

    /// The workload set implied by `--full`.
    pub fn workloads(&self) -> Vec<&'static WorkloadSpec> {
        if self.full {
            catalog().iter().collect()
        } else {
            quick_subset()
        }
    }

    /// Applies the shared options to an experiment.
    pub fn apply(&self, e: Experiment) -> Experiment {
        e.window_us(self.window_us).seed(self.seed).nrh(self.nrh)
    }
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self { window_us: 4000.0, full: false, seed: 0xDA99E5, nrh: 500, sweep_points: 6 }
    }
}

/// Prints the standard harness header.
pub fn header(id: &str, title: &str, opts: &BenchOpts) {
    println!("==== {id}: {title} ====");
    println!(
        "window: {} us | workloads: {} | N_RH: {} | seed: {:#x}",
        opts.window_us,
        if opts.full { "all 57" } else { "quick subset (9)" },
        opts.nrh,
        opts.seed
    );
    println!();
}

/// Runs a batch in parallel and returns the results.
pub fn run_all(jobs: Vec<Experiment>) -> Vec<ExperimentResult> {
    run_parallel(jobs)
}

/// Mean normalized performance of a result slice.
pub fn mean_norm(results: &[&ExperimentResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|r| r.normalized_performance).sum::<f64>() / results.len() as f64
}

/// Groups results by suite and prints one row per suite plus "All",
/// with one column per (label) series.
pub fn print_suite_table(
    series: &[(&str, Vec<ExperimentResult>)],
    workload_set: &[&'static WorkloadSpec],
) {
    print!("{:<14}", "suite");
    for (label, _) in series {
        print!(" {label:>16}");
    }
    println!();
    let suites: Vec<workloads::Suite> = {
        let mut seen = Vec::new();
        for w in workload_set {
            if !seen.contains(&w.suite) {
                seen.push(w.suite);
            }
        }
        seen
    };
    for suite in &suites {
        let names: Vec<&str> =
            workload_set.iter().filter(|w| w.suite == *suite).map(|w| w.name).collect();
        print!("{:<14}", suite.to_string());
        for (_, results) in series {
            let vals: Vec<&ExperimentResult> =
                results.iter().filter(|r| names.contains(&r.workload.as_str())).collect();
            print!(" {:>16.3}", mean_norm(&vals));
        }
        println!();
    }
    print!("{:<14}", "All");
    for (_, results) in series {
        let all: Vec<&ExperimentResult> = results.iter().collect();
        print!(" {:>16.3}", mean_norm(&all));
    }
    println!();
}

/// Prints one row per workload, one column per series.
pub fn print_workload_table(
    series: &[(&str, Vec<ExperimentResult>)],
    workload_set: &[&'static WorkloadSpec],
    intensive_only: bool,
) {
    print!("{:<22}", "workload");
    for (label, _) in series {
        print!(" {label:>14}");
    }
    println!();
    for w in workload_set {
        if intensive_only && !w.memory_intensive() {
            continue;
        }
        print!("{:<22}", w.name);
        for (_, results) in series {
            match results.iter().find(|r| r.workload == w.name) {
                Some(r) => print!(" {:>14.3}", r.normalized_performance),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn typos_and_bad_values_are_errors_that_name_the_flag() {
        let err = BenchOpts::parse(&argv("--window_us 100")).expect_err("typo'd flag");
        assert!(err.contains("--window_us"), "{err}");
        let err = BenchOpts::parse(&argv("--window-us 1e")).expect_err("unparsable value");
        assert!(err.contains("--window-us") && err.contains("1e"), "{err}");
        let err = BenchOpts::parse(&argv("--nrh")).expect_err("missing value");
        assert!(err.contains("--nrh requires a value"), "{err}");
        // Integer flags are range-checked, not read as f64 and cast.
        for bad in ["--nrh -7", "--nrh 2.9", "--nrh 1e12", "--nrh 0", "--sweep-points -1"] {
            let err = BenchOpts::parse(&argv(bad)).expect_err(bad);
            assert!(err.contains(bad.split(' ').next().unwrap()), "{bad}: {err}");
        }
    }

    #[test]
    fn defaults_are_unchanged_and_flags_override_them() {
        let d = BenchOpts::parse(&[]).expect("no arguments");
        assert_eq!(
            (d.window_us, d.full, d.seed, d.nrh, d.sweep_points),
            (4000.0, false, 0xDA99E5, 500, 6)
        );
        let o = BenchOpts::parse(&argv("--full --window-us 60 --nrh 125 --sweep-points 3"))
            .expect("valid flags");
        assert_eq!(
            (o.window_us, o.full, o.nrh, o.nrh_sweep()),
            (60.0, true, 125, vec![125, 500, 2000])
        );
    }
}

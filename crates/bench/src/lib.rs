//! The figure harness: [`figures`] declares every figure and table of the
//! paper's evaluation section as one table and runs any of them through one
//! driver, `figure <id> [options]`, with the same five options for every id
//! ([`BenchOpts`]). A simulated figure is a declarative sweep: its
//! declaration builds a [`sim::SweepSpec`] from the options
//! ([`BenchOpts::sweep`]), which runs through the same cell builder and
//! executor as `spec_run`'s. The command line is parsed strictly
//! ([`sim_core::cli`]): an unknown id, a typo'd flag or an unparsable value
//! exits 2 naming it, before anything is simulated.
//!
//! Output is plain text: one grid per figure with the same rows/series the
//! paper reports; README "Reproducing a paper figure" lists the ids and what
//! each one regenerates. The crate's other binaries are `calibrate` and
//! `spec_run`; the performance-attack transient is a spec,
//! `examples/specs/fig_transient.toml`, that `spec_run` runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
mod printers;

use sim::spec::{Series, SweepSpec};

/// The options every figure takes.
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

pub(crate) const USAGE: &str = "options:
  --window-us F     simulation window per run in microseconds (default 4000)
  --full            all 57 workloads instead of the 9-workload quick subset
  --seed N          RNG seed, decimal or 0x hex (default 0xDA99E5)
  --nrh N           RowHammer threshold where applicable (default 500)
  --sweep-points N  N_RH sweep points: 6 = the paper's sweep, fewer = 3 (default 6)
";

impl BenchOpts {
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
            window_us: parsed.positive_us("--window-us", d.window_us)?,
            full: parsed.has("--full"),
            seed: parsed.seed(d.seed)?,
            nrh: parsed.nrh(d.nrh)?,
            sweep_points: parsed.int("--sweep-points", d.sweep_points)?,
        })
    }

    /// The N_RH values swept by the sensitivity figures.
    pub fn nrh_sweep(&self) -> &'static [u32] {
        if self.sweep_points >= 6 {
            &[125, 250, 500, 1000, 2000, 4000]
        } else {
            &[125, 500, 2000]
        }
    }

    /// `series` on the workload set `--full` names, at these options'
    /// window, seed and N_RH: where every figure's sweep starts.
    pub fn sweep(&self, series: Vec<Series>) -> SweepSpec {
        let mut spec = SweepSpec::new("figure");
        spec.workloads = vec![if self.full { "@all" } else { "@quick" }.to_string()];
        spec.series = series;
        spec.options.nrh = vec![self.nrh];
        spec.options.window_us = Some(self.window_us);
        spec.options.seed = Some(self.seed);
        spec
    }
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self { window_us: 4000.0, full: false, seed: 0xDA99E5, nrh: 500, sweep_points: 6 }
    }
}

/// Prints the standard harness header.
pub(crate) fn header(title: &str, opts: &BenchOpts) {
    println!("==== {title} ====");
    println!(
        "window: {} us | workloads: {} | N_RH: {} | seed: {:#x}\n",
        opts.window_us,
        if opts.full { "all 57" } else { "quick subset (9)" },
        opts.nrh,
        opts.seed
    );
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
        // So are windows: zero, negative, NaN and infinite ones used to run.
        for bad in [
            "--nrh -7",
            "--nrh 2.9",
            "--nrh 1e12",
            "--nrh 0",
            "--sweep-points -1",
            "--window-us 0",
            "--window-us -5",
            "--window-us nan",
            "--window-us inf",
        ] {
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
            (60.0, true, 125, &[125, 500, 2000][..])
        );
    }
}

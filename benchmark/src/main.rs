//! One benchmark for the whole stack, from `System::run` to a live
//! `campaignd`. Every layer is measured from outside, by timing calls
//! into its public functions; see README.md.
//!
//! ```text
//! benchmark [--quick] [--seed S] [--out FILE]                every workload, then the traced passes
//! benchmark --workload W --seed S --seconds T --trace 0|1     one workload, one-line JSON report last
//! benchmark compare A.json B.json                             parent-versus-change table
//! ```

mod campaign;
mod compare;
mod decl;
mod driver;
mod host;
mod pass;
mod probes;
mod result;
mod sims;
mod stats;
mod trace;

use decl::Workload;
use driver::{Budget, Options};
use pass::PassArgs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `--seed` when none is given: the seed `examples/specs/fig09_quick.toml` pins.
const DEFAULT_SEED: u64 = 0xDA99E5;
/// Rounds of a full run: sixty passes per workload, one per round (~2 s),
/// so a workload's passes are spread over about two minutes of host weather.
const FULL_ROUNDS: usize = 60;
const QUICK_ROUNDS: usize = 2;

/// Where results, the trace and scratch directories go, relative to the
/// benchmark package root (the working directory after start-up).
pub fn out_dir() -> PathBuf {
    PathBuf::from("out")
}

pub fn trace_path() -> PathBuf {
    out_dir().join("trace.jsonl")
}

/// `--name value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { words: Vec::new(), flags: Vec::new() };
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some("quick") => args.flags.push(("quick".into(), "1".into())),
                Some(name) => {
                    let value = argv.next().ok_or(format!("--{name} needs a value"))?;
                    args.flags.push((name.to_string(), value));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: cannot read '{v}'")))
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        let Some(text) = self.get("seed") else { return Ok(DEFAULT_SEED) };
        let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        };
        parsed.map_err(|_| format!("--seed: cannot read '{text}'"))
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.get("workload")
            .map(|name| {
                Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("--workload: unknown '{name}' (known: {})", known.join(", "))
                })
            })
            .transpose()
    }
}

/// `prep` / `pass`: one child process of the driver.
fn child_main(mode: &str, args: &Args) -> Result<ExitCode, String> {
    let pass_args = PassArgs {
        workload: args.workload()?.ok_or("--workload is required")?,
        seed: args.seed()?,
        quick: args.get("quick").is_some(),
        trace: args.get("trace") == Some("1"),
        work_dir: PathBuf::from(args.get("work-dir").ok_or("--work-dir is required")?),
    };
    let out = if mode == "prep" { pass::prepare(&pass_args) } else { pass::run(&pass_args) };
    println!("{}", out.to_json().render());
    Ok(ExitCode::SUCCESS)
}

fn driver_main(args: &Args, invoked_from: &Path) -> Result<ExitCode, String> {
    let single = args.workload()?;
    let quick = args.get("quick").is_some();
    let trace = match args.get("trace") {
        None => single.is_none(),
        Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: expected 0 or 1, not '{other}'")),
    };
    let budget = match args.parsed::<f64>("seconds")? {
        // A traced run spends half its time on the untraced passes the
        // traced one is held against.
        Some(s) => Budget::Seconds(if trace { s / 2.0 } else { s }),
        None => Budget::Rounds(if quick { QUICK_ROUNDS } else { FULL_ROUNDS }),
    };
    let o = Options {
        workloads: single.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]),
        seed: args.seed()?,
        quick,
        budget,
        trace,
    };
    let (runs, rounds) = driver::run(&o);

    let out_path = match (args.get("out"), single) {
        (Some(path), _) => invoked_from.join(path),
        (None, None) => out_dir().join("result.json"),
        (None, Some(w)) => {
            out_dir().join(format!("result-{}-trace{}.json", w.name(), u8::from(trace)))
        }
    };
    let json = result::result_json(&runs, rounds, &o);
    std::fs::write(&out_path, result::pretty(&json))
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    result::print_table(&runs, &o);
    println!("\nresult written to {}", out_path.display());
    if trace {
        println!(
            "spans written to {}",
            Path::new(env!("CARGO_MANIFEST_DIR")).join(trace_path()).display()
        );
    }
    let failed: u64 = runs.iter().map(|r| r.failed()).sum();
    if let Some(run) = runs.first().filter(|_| single.is_some()) {
        println!("{}", result::contract_line(run, &o));
    }
    if failed > 0 {
        eprintln!("benchmark: {failed} cell(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let invoked_from = std::env::current_dir().expect("current directory");
    // Scratch paths (and the campaignd socket, which must stay short) are
    // relative to the package root.
    std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")).expect("enter the benchmark package");
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some(mode @ ("prep" | "pass")) => child_main(mode, &args),
            Some("compare") => match &args.words[1..] {
                [a, b] => compare::compare(&invoked_from.join(a), &invoked_from.join(b))
                    .map(|breaches| ExitCode::from(u8::from(breaches > 0))),
                _ => Err("usage: benchmark compare A.json B.json".into()),
            },
            Some(other) => Err(format!("unknown command '{other}'")),
            None => driver_main(&args, &invoked_from),
        }
    });
    outcome.unwrap_or_else(|why| {
        eprintln!("benchmark: {why}");
        ExitCode::from(2)
    })
}

//! Quick calibration: prints normalized performance for the key
//! tracker/attack combinations so model constants can be sanity-checked
//! against the paper's headline numbers.

use sim::experiment::{AttackChoice, Experiment};
use std::time::Instant;
use workloads::Attack;

const USAGE: &str = "calibrate [--window-us F] [--workload NAME]
  --window-us  simulation window per case in microseconds (default 4000)
  --workload   benign workload every case runs (default milc_like)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = sim_core::cli::parse(&args, &["--window-us", "--workload"], &[], USAGE);
    let (window_us, wl) = parsed
        .and_then(|p| {
            let wl = p.get("--workload").map_or("milc_like", String::as_str);
            workloads::spec_by_name(wl).ok_or(format!("--workload: unknown workload '{wl}'"))?;
            Ok((p.positive_us("--window-us", 4000.0)?, wl))
        })
        .unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        });
    println!("workload={wl} window={window_us}us  (paper targets in parens)");

    let base = |t: &str| Experiment::new(wl).tracker(t).window_us(window_us);

    let cases: Vec<(&str, Experiment, &str)> = vec![
        ("Hydra   benign        ", base("hydra"), "(~1.0)"),
        ("Hydra   tailored      ", base("hydra").attack(AttackChoice::Tailored), "(~0.39)"),
        ("Hydra   cache-thrash  ", base("hydra").attack(AttackChoice::CacheThrash), "(~0.6)"),
        ("START   tailored      ", base("start").attack(AttackChoice::Tailored), "(~0.35)"),
        ("CoMeT   tailored      ", base("comet").attack(AttackChoice::Tailored), "(~0.10)"),
        ("ABACUS  tailored      ", base("abacus").attack(AttackChoice::Tailored), "(~0.28)"),
        ("DAPPER-S benign       ", base("dapper-s"), "(~1.0)"),
        (
            "DAPPER-S streaming    ",
            base("dapper-s").attack(AttackChoice::Specific(Attack::Streaming)).isolating(),
            "(~0.87)",
        ),
        (
            "DAPPER-S refresh      ",
            base("dapper-s").attack(AttackChoice::Specific(Attack::RefreshAttack)).isolating(),
            "(~0.80)",
        ),
        ("DAPPER-H benign       ", base("dapper-h"), "(~0.999)"),
        (
            "DAPPER-H streaming    ",
            base("dapper-h").attack(AttackChoice::Specific(Attack::Streaming)).isolating(),
            "(~0.998)",
        ),
        (
            "DAPPER-H refresh      ",
            base("dapper-h").attack(AttackChoice::Specific(Attack::RefreshAttack)).isolating(),
            "(~0.99)",
        ),
        ("BlockHammer benign    ", base("blockhammer"), "(~0.75)"),
        ("BlockHammer @N_RH=125 ", base("blockhammer").nrh(125), "(~0.34)"),
        ("PARA    benign        ", base("para"), "(~0.97)"),
        ("PrIDE   benign        ", base("pride"), "(~0.93)"),
        ("PRAC    benign        ", base("prac"), "(~0.93)"),
    ];

    for (name, e, target) in cases {
        let t0 = Instant::now();
        let r = e.run();
        println!(
            "{name} {:6.3} {target:8}  [{:4.1}s, acts={}, vrr={}, sweeps={}, ctr_rw={}]",
            r.normalized_performance,
            t0.elapsed().as_secs_f32(),
            r.run.mem.activations,
            r.run.mem.vrr_commands,
            r.run.mem.reset_sweeps,
            r.run.mem.counter_reads + r.run.mem.counter_writes,
        );
    }
}

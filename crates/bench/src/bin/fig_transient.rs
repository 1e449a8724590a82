//! `fig_transient` — slowdown-over-time under performance attacks.
//!
//! The paper's performance-attack story is a *transient*: an attacker
//! degrades benign IPC window by window, and a resilient tracker bounds
//! the dip and recovers. This harness plots exactly that axis: per-window
//! benign IPC normalized to the insecure attack-free baseline, for
//! CacheThrash and the tracker-tailored attack across a tracker matrix,
//! via the [`sim_core::telemetry`] slowdown recorder.
//!
//! ```text
//! cargo run --release --bin fig_transient [-- --quick] [--out DIR] [--workload NAME]
//! ```
//!
//! Writes `fig_transient.json` and `fig_transient.csv` under `out/` (one
//! slowdown point per window per cell) and prints a per-cell summary with
//! time-to-max-slowdown and recovery scores.

use sim::experiment::{AttackChoice, Experiment, TelemetrySpec};
use sim::{parallel_map, RECOVERY_THRESHOLD};
use sim_core::json::{csv_field, Json};

/// Trackers on the transient plot (DAPPER against the two baselines whose
/// tailored attacks the paper plots).
const TRACKERS: [&str; 3] = ["hydra", "comet", "dapper-h"];

const USAGE: &str = "fig_transient [--quick] [--out DIR] [--workload NAME]
  --quick     200 us window instead of 1000 us
  --out       output directory (default out)
  --workload  benign workload under attack (default gcc_like)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = sim_core::cli::parse(&args, &["--out", "--workload"], &["--quick"], USAGE)
        .unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        });
    let quick = parsed.has("--quick");
    let out_dir = parsed.get("--out").map_or("out", String::as_str);
    let workload = parsed.get("--workload").map_or("gcc_like", String::as_str);
    let window_us = if quick { 200.0 } else { 1_000.0 };
    let sample_us = window_us / 20.0;

    let attacks =
        [("cache-thrash", AttackChoice::CacheThrash), ("tailored", AttackChoice::Tailored)];
    let mut jobs = Vec::new();
    for tracker in TRACKERS {
        for (attack_label, attack) in attacks {
            let e = Experiment::new(workload)
                .tracker(tracker)
                .attack(attack)
                .window_us(window_us)
                .with_telemetry(TelemetrySpec {
                    slowdown: true,
                    time_series: true,
                    window_us: Some(sample_us),
                    ..Default::default()
                });
            jobs.push((tracker, attack_label, e));
        }
    }

    let results = parallel_map(jobs, |(tracker, attack_label, e)| (tracker, attack_label, e.run()));

    let mut cells = Vec::new();
    let mut csv = String::from("tracker,attack,window,end_us,normalized_ipc,slowdown\n");
    println!(
        "{:<10} {:<13} {:>9} {:>11} {:>11} {:>10}",
        "tracker", "attack", "norm.perf", "max-slowdn", "t-max", "recovery"
    );
    for outcome in results {
        let (_tracker, attack_label, r) = outcome.expect("transient cell must simulate");
        let t = r.telemetry.as_ref().expect("slowdown recorder attached");
        let trace = t.slowdown.as_ref().expect("trace recorded");
        for p in trace.points() {
            csv.push_str(&format!(
                "{},{},{},{:.3},{:.6},{:.6}\n",
                csv_field(&r.tracker_name),
                attack_label,
                p.index,
                sim_core::time::cycles_to_us(p.end),
                p.normalized_ipc,
                p.slowdown(),
            ));
        }
        let worst = trace.max_slowdown_point().map(|p| p.slowdown()).unwrap_or(1.0);
        let fmt_us = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.0}us"));
        println!(
            "{:<10} {:<13} {:>9.3} {:>10.3}x {:>11} {:>10}",
            r.tracker_name,
            attack_label,
            r.normalized_performance,
            worst,
            fmt_us(t.time_to_max_slowdown_us()),
            fmt_us(t.recovery_us(RECOVERY_THRESHOLD)),
        );
        cells.push(Json::obj([
            ("tracker", Json::str(&r.tracker_name)),
            ("attack", Json::str(attack_label)),
            ("attack_name", Json::str(&r.attack_name)),
            ("normalized_performance", Json::num(r.normalized_performance)),
            ("max_slowdown", Json::num(worst)),
            ("time_to_max_slowdown_us", t.time_to_max_slowdown_us().map_or(Json::Null, Json::num)),
            ("recovery_us", t.recovery_us(RECOVERY_THRESHOLD).map_or(Json::Null, Json::num)),
            ("slowdown", trace.to_json()),
        ]));
    }

    let doc = Json::obj([
        ("figure", Json::str("transient")),
        ("workload", Json::str(workload)),
        ("window_us", Json::num(window_us)),
        ("sample_window_us", Json::num(sample_us)),
        ("recovery_threshold", Json::num(RECOVERY_THRESHOLD)),
        ("cells", Json::Arr(cells)),
    ]);
    std::fs::create_dir_all(out_dir).expect("create output directory");
    let json_path = format!("{out_dir}/fig_transient.json");
    let csv_path = format!("{out_dir}/fig_transient.csv");
    std::fs::write(&json_path, doc.render()).expect("write JSON");
    std::fs::write(&csv_path, csv).expect("write CSV");
    println!("wrote {json_path} and {csv_path}");
}

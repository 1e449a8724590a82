//! `benchmark compare A.json B.json`: the parent-versus-change table.
//!
//! For every workload, prints each end-to-end metric's two values, how
//! much worse B is than A, and the bound; and checks that every `count`
//! per-layer metric and every `stats_digest` is exactly equal. Exits
//! non-zero when B is worse than A by more than a bound, a count or digest
//! differs, or a workload or metric is missing from one side.

use crate::decl::{declared, Kind};
use sim_core::json::Json;
use std::path::Path;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(j: &Json, path: &[&str]) -> Option<f64> {
    match path.iter().try_fold(j, |j, key| j.get(key))? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn workloads<'a>(j: &'a Json, path: &Path) -> Result<&'a [(String, Json)], String> {
    match j.get("workloads") {
        Some(Json::Obj(workloads)) => Ok(workloads),
        _ => Err(format!("{}: no 'workloads' object", path.display())),
    }
}

/// Returns the number of breaches found (0 = B is no worse than A).
pub fn compare(a_path: &Path, b_path: &Path) -> Result<usize, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let (workloads, workloads_b) = (workloads(&a, a_path)?, workloads(&b, b_path)?);
    let tables = declared();
    let mut breaches = 0;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    for (name, _) in workloads_b.iter().filter(|(n, _)| !workloads.iter().any(|(a, _)| a == n)) {
        println!("{name:<16} only in {}", b_path.display());
        breaches += 1;
    }
    for (name, wa) in workloads {
        let Some((_, wb)) = workloads_b.iter().find(|(n, _)| n == name) else {
            println!("{name:<16} only in {}", a_path.display());
            breaches += 1;
            continue;
        };
        for m in &tables.end_to_end {
            let path = ["end_to_end", m.name.as_str()];
            let (Some(va), Some(vb)) = (num(wa, &path), num(wb, &path)) else {
                println!("{name:<16} {:<16} missing from one side", m.name);
                breaches += 1;
                continue;
            };
            // Positive when B is worse, whichever way the metric points.
            let worse = if m.better == "lower" { (vb - va) / va } else { (va - vb) / va };
            // A zero on the A side leaves nothing to hold B against.
            let breach = !worse.is_finite() || worse > m.bound;
            breaches += usize::from(breach);
            println!(
                "{name:<16} {:<16} {va:>14.4} {vb:>14.4} {:>8.1}% {:>6.0}%  {}",
                m.name,
                100.0 * worse,
                100.0 * m.bound,
                if breach { "REGRESSED" } else { "ok" }
            );
        }
        if wa.get("stats_digest") != wb.get("stats_digest") {
            println!("{name:<16} stats_digest differs: the simulated statistics changed");
            breaches += 1;
        }
        for m in tables.per_layer.iter().filter(|m| m.kind == Kind::Count) {
            let path = ["per_layer", m.name.as_str()];
            // Untraced result files carry no per-layer block.
            if let (Some(va), Some(vb)) = (num(wa, &path), num(wb, &path)) {
                if va != vb {
                    println!("{name:<16} {:<34} count differs: {va} vs {vb}", m.name);
                    breaches += 1;
                }
            }
        }
    }
    Ok(breaches)
}

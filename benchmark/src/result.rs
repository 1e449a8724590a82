//! From pass records to numbers: the end-to-end and per-layer metrics of
//! each workload, the result file, the printed table, and the one-line
//! report the benchmark contract asks for.

use crate::decl::{declared, Kind};
use crate::driver::{Options, WorkloadRun};
use crate::pass::PassOut;
use crate::{host, stats};
use sim_core::json::Json;
use std::collections::BTreeMap;

const MODEL_VALIDITY: &str = "model unvalidated against reference results; no error figure: the \
    repo holds shape-level assertions only (tests/reproduction.rs), no reference dataset";
const ESTIMATES: &str = "sim_* layer shares are estimates: System::run cannot be opened from \
    outside, so tracker.replay_share is an isolated replay of the captured ACT stream and \
    memctrl.tick_ns x shard ticks an isolated saturated-queue replay, not time measured inside a run";

fn column(run: &WorkloadRun, f: impl Fn(&crate::driver::PassRecord) -> f64) -> Vec<f64> {
    run.passes.iter().map(f).collect()
}

/// The four end-to-end metrics of one workload, or `None` when no pass
/// completed. The timings are those of the best pass (least wall, least
/// CPU, least set-up): what the neighbours on this host do only ever adds
/// time, so the least is what repeats (README.md, "Why the best pass").
/// `setup_s` is what every pass pays outside its timed region; the
/// one-time preparation is a single sample and stays beside it as `prep_s`.
pub fn end_to_end(run: &WorkloadRun) -> Option<BTreeMap<&'static str, f64>> {
    let cells = run.passes.first()?.out.cells as f64;
    let mut m = BTreeMap::new();
    m.insert("setup_s", stats::min(&column(run, |p| p.setup_s)));
    m.insert("cells_per_s", cells / stats::min(&column(run, |p| p.out.wall_s)));
    m.insert("cpu_ms_per_cell", stats::min(&column(run, |p| p.out.cpu_s)) * 1e3 / cells);
    // Not the maximum: `campaign_cold` steps by 3 MiB with what its two
    // threads hold at once, and a run's maximum lands on a step by chance.
    m.insert("peak_rss_mb", stats::median(&column(run, |p| p.out.vm_hwm_kib as f64)) / 1024.0);
    Some(m)
}

/// The untraced pass with the least wall time.
fn best_pass(run: &WorkloadRun) -> Option<&PassOut> {
    run.passes.iter().map(|p| &p.out).min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
}

/// Every declared per-layer metric of one workload: the traced pass's
/// values, with the counts and whole-pass rates of the best untraced
/// pass laid over them (an attached probe must not colour those), and the
/// two `trace.*` ratios worked out per cell against that pass. A layer
/// the workload does not cross reads 0.
pub fn per_layer(run: &WorkloadRun) -> BTreeMap<&'static str, f64> {
    let untraced = best_pass(run);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for source in [run.traced.as_ref(), untraced].into_iter().flatten() {
        for (k, v) in &source.layer {
            values.insert(k, *v);
        }
    }
    if let (Some(traced), Some(untraced)) = (&run.traced, untraced) {
        let per_cell = untraced.wall_s / untraced.cells as f64;
        let traced_cells = traced.cells.max(1) as f64;
        values.insert("trace.coverage", traced.span_self_s / traced_cells / per_cell);
        values.insert("trace.overhead", traced.wall_s / traced_cells / per_cell);
    }
    declared()
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), values.get(m.name.as_str()).copied().unwrap_or(0.0)))
        .collect()
}

fn metrics_json(values: &BTreeMap<&'static str, f64>) -> Json {
    Json::Obj(values.iter().map(|(k, v)| (k.to_string(), Json::num(*v))).collect())
}

fn workload_json(run: &WorkloadRun, o: &Options) -> Json {
    let wall = column(run, |p| p.out.wall_s);
    let cpu = column(run, |p| p.out.cpu_s);
    let mut pairs = vec![
        ("attempted", Json::count(run.attempted())),
        ("failed", Json::count(run.failed())),
        ("stats_digest", run.passes.first().map_or(Json::Null, |p| Json::str(&p.out.digest))),
        ("prep_s", Json::num(run.prep_s)),
    ];
    if let Some(e2e) = end_to_end(run) {
        pairs.push(("cells_per_pass", Json::count(run.passes[0].out.cells)));
        pairs.push(("end_to_end", metrics_json(&e2e)));
        pairs.push(("best_round", Json::count(run.passes[stats::argmin(&wall)].round as u64)));
        pairs.push(("best_cpu_round", Json::count(run.passes[stats::argmin(&cpu)].round as u64)));
        pairs.push(("wall_s", stats::summary_json(&wall)));
        pairs.push(("cpu_s", stats::summary_json(&cpu)));
        pairs.push(("setup_pass_s", stats::summary_json(&column(run, |p| p.setup_s))));
        pairs.push((
            "vm_hwm_kib",
            Json::Arr(run.passes.iter().map(|p| Json::count(p.out.vm_hwm_kib)).collect()),
        ));
    }
    if o.trace {
        pairs.push(("per_layer", metrics_json(&per_layer(run))));
    }
    pairs.push(("notes", Json::Arr(run.all_notes().iter().map(Json::str).collect())));
    Json::obj(pairs)
}

/// The result file: what was measured and what makes it interpretable.
pub fn result_json(runs: &[WorkloadRun], rounds: usize, o: &Options) -> Json {
    Json::obj([
        ("benchmark", Json::str("dapper-stack")),
        ("mode", Json::str(if o.quick { "quick (never comparable)" } else { "full" })),
        ("commit", Json::str(host::git_commit())),
        ("seed", Json::hex(o.seed)),
        ("rounds", Json::count(rounds as u64)),
        ("host_parallelism", Json::count(host::parallelism() as u64)),
        ("cpu_model", Json::str(host::cpu_model())),
        ("model_validity", Json::str(MODEL_VALIDITY)),
        ("estimates", Json::str(ESTIMATES)),
        (
            "workloads",
            Json::Obj(
                runs.iter().map(|r| (r.workload.name().to_string(), workload_json(r, o))).collect(),
            ),
        ),
    ])
}

/// Indented rendering: objects one member per line, arrays on one line.
pub fn pretty(j: &Json) -> String {
    fn write(j: &Json, indent: usize, out: &mut String) {
        match j {
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&Json::str(k.as_str()).render());
                    out.push_str(": ");
                    write(v, indent + 1, out);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => out.push_str(&other.render()),
        }
    }
    let mut out = String::new();
    write(j, 0, &mut out);
    out.push('\n');
    out
}

/// Prints every metric by name, with unit and direction.
pub fn print_table(runs: &[WorkloadRun], o: &Options) {
    println!("\nend-to-end (best pass; prep_s: the one-time preparation, ungated)");
    print!("{:<16}", "workload");
    let tables = declared();
    for m in &tables.end_to_end {
        print!(" {:>24}", format!("{} [{}, {}]", m.name, m.unit, m.better));
    }
    println!(" {:>10} {:>7} {:>10}", "attempted", "failed", "prep_s [s]");
    for run in runs {
        print!("{:<16}", run.workload.name());
        let e2e = end_to_end(run);
        for m in &tables.end_to_end {
            match e2e.as_ref().and_then(|e| e.get(m.name.as_str())) {
                Some(v) => print!(" {v:>24.4}"),
                None => print!(" {:>24}", "-"),
            }
        }
        println!(" {:>10} {:>7} {:>10.4}", run.attempted(), run.failed(), run.prep_s);
    }
    if !o.trace {
        return;
    }
    println!("\nper-layer (traced pass; `count` repeats exactly, `host` is informational; 0 = layer not on the workload's path)");
    print!("{:<34} {:>7} {:>6} {:>6}", "metric", "unit", "better", "kind");
    for run in runs {
        print!(" {:>14}", run.workload.name());
    }
    println!();
    let layers: Vec<_> = runs.iter().map(per_layer).collect();
    for m in &tables.per_layer {
        let kind = if m.kind == Kind::Count { "count" } else { "host" };
        print!("{:<34} {:>7} {:>6} {:>6}", m.name, m.unit, m.better, kind);
        for values in &layers {
            print!(" {:>14.4}", values[m.name.as_str()]);
        }
        println!();
    }
}

/// The benchmark contract's one-line report for a single workload: the
/// end-to-end metrics of an untraced run, the per-layer ones of a traced.
pub fn contract_line(run: &WorkloadRun, o: &Options) -> String {
    let tables = declared();
    let unit_of = |name: &str| {
        let end_to_end = tables.end_to_end.iter().map(|m| (&m.name, &m.unit));
        end_to_end
            .chain(tables.per_layer.iter().map(|m| (&m.name, &m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u.as_str())
    };
    let values = if o.trace { per_layer(run) } else { end_to_end(run).unwrap_or_default() };
    let metrics = values
        .iter()
        .map(|(name, v)| {
            let entry = Json::obj([("value", Json::num(*v)), ("unit", Json::str(unit_of(name)))]);
            (name.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(run.failed() == 0)),
        ("attempted", Json::count(run.attempted().max(1))),
        ("failed", Json::count(run.failed())),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}
